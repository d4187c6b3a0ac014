//! SLS workload units: poolings and batches.

use recnmp_types::TableId;
use serde::{Deserialize, Serialize};

use crate::spec::EmbeddingTableSpec;

/// One pooling: the set of rows reduced into a single output vector.
///
/// Weighted SLS variants carry one weight per index; the unweighted
/// variants leave `weights` empty (implicitly all ones).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pooling {
    /// Row indices gathered by this pooling.
    pub indices: Vec<u64>,
    /// Optional per-index weights (same length as `indices` when present).
    pub weights: Vec<f32>,
}

impl Pooling {
    /// Creates an unweighted pooling.
    pub fn unweighted(indices: Vec<u64>) -> Self {
        Self {
            indices,
            weights: Vec::new(),
        }
    }

    /// Creates a weighted pooling.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn weighted(indices: Vec<u64>, weights: Vec<f32>) -> Self {
        assert_eq!(indices.len(), weights.len(), "one weight per index");
        Self { indices, weights }
    }

    /// Lookup count.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the pooling gathers nothing.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Weight of lookup `i` (1.0 when unweighted).
    pub fn weight(&self, i: usize) -> f32 {
        self.weights.get(i).copied().unwrap_or(1.0)
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
            poolings: vec![
                Pooling::unweighted(vec![1, 2, 3]),
                Pooling::weighted(vec![4, 5], vec![0.5, 2.0]),
            ],
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
    fn weights_default_to_one() {
        let p = Pooling::unweighted(vec![7]);
        assert_eq!(p.weight(0), 1.0);
        let w = Pooling::weighted(vec![7], vec![0.25]);
        assert_eq!(w.weight(0), 0.25);
    }

    #[test]
    #[should_panic(expected = "one weight per index")]
    fn weighted_checks_lengths() {
        Pooling::weighted(vec![1, 2], vec![1.0]);
    }

    #[test]
    fn empty_pooling() {
        let p = Pooling::unweighted(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
