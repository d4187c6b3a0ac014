//! SLS workload units: poolings and batches.

use recnmp_types::TableId;
use serde::{Deserialize, Serialize};

use crate::spec::EmbeddingTableSpec;

/// One pooling: the set of rows reduced into a single output vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pooling {
    /// Row indices gathered by this pooling.
    pub indices: Vec<u64>,
}

impl Pooling {
    /// Creates a pooling of `indices`.
    pub fn new(indices: Vec<u64>) -> Self {
        Self { indices }
    }

    /// Lookup count.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the pooling gathers nothing.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// One SLS operator invocation: a batch of poolings against one table.
///
/// Matches the paper's operator signature (Figure 3):
/// `Output = SLS(Emb, Indices, Lengths)` where `Indices` is the
/// concatenation of all pooling index lists and `Lengths` gives each
/// pooling's size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlsBatch {
    /// Table the lookups target.
    pub table: TableId,
    /// Shape of that table.
    pub spec: EmbeddingTableSpec,
    /// The poolings (batch dimension).
    pub poolings: Vec<Pooling>,
}

impl SlsBatch {
    /// Batch size (number of poolings / output rows).
    pub fn batch_size(&self) -> usize {
        self.poolings.len()
    }

    /// Total lookups across all poolings.
    pub fn total_lookups(&self) -> usize {
        self.poolings.iter().map(Pooling::len).sum()
    }

    /// Flattened `Indices` vector (paper Figure 3).
    pub fn flat_indices(&self) -> Vec<u64> {
        self.poolings
            .iter()
            .flat_map(|p| p.indices.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> SlsBatch {
        SlsBatch {
            table: TableId::new(0),
            spec: EmbeddingTableSpec::new(100, 64),
            poolings: vec![Pooling::new(vec![1, 2, 3]), Pooling::new(vec![4, 5])],
        }
    }

    #[test]
    fn shape_accessors() {
        let b = batch();
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.total_lookups(), 5);
        assert_eq!(b.flat_indices(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_pooling() {
        let p = Pooling::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
