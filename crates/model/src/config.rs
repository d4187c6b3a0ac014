//! Recommendation model configurations (Figure 2(b)).

use recnmp_trace::EmbeddingTableSpec;
use serde::{Deserialize, Serialize};

/// The four model classes the paper evaluates.
///
/// RM1 and RM2 are the two canonical Facebook model classes (over 30% and
/// 25% of production ML cycles respectively); small/large vary the number
/// of embedding tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecModelKind {
    /// 8 embedding tables.
    Rm1Small,
    /// 12 embedding tables.
    Rm1Large,
    /// 24 embedding tables.
    Rm2Small,
    /// 64 embedding tables.
    Rm2Large,
}

impl RecModelKind {
    /// All four configurations, in the paper's order.
    pub const ALL: [RecModelKind; 4] = [
        RecModelKind::Rm1Small,
        RecModelKind::Rm1Large,
        RecModelKind::Rm2Small,
        RecModelKind::Rm2Large,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            RecModelKind::Rm1Small => "RM1-small",
            RecModelKind::Rm1Large => "RM1-large",
            RecModelKind::Rm2Small => "RM2-small",
            RecModelKind::Rm2Large => "RM2-large",
        }
    }

    /// Builds the full configuration for this model class.
    pub fn config(self) -> ModelConfig {
        ModelConfig::new(self)
    }
}

impl std::fmt::Display for RecModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full structural description of one recommendation model.
///
/// Figure 2(b) pins the embedding side (tables × 1 M rows, pooling factor
/// 20–80, 6 FC layers). The FC shapes are chosen so that (a) BottomFC and
/// RM1's TopFC fit in the 1 MiB L2 while RM2's TopFC weights spill to the
/// LLC — the distinction Figure 17 turns on — and (b) the operator time
/// breakdown lands near Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which class this is.
    pub kind: RecModelKind,
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Shape shared by all embedding tables.
    pub table_spec: EmbeddingTableSpec,
    /// Average pooling factor (lookups reduced per output vector). The
    /// paper's evaluation uses 80.
    pub pooling: usize,
    /// Dense-feature input dimension.
    pub dense_dim: usize,
    /// Bottom MLP layer widths, input first.
    pub bottom_fc: Vec<usize>,
    /// Top MLP layer widths, input first (input = interaction features).
    pub top_fc: Vec<usize>,
}

impl ModelConfig {
    /// Builds the paper configuration for `kind`.
    pub fn new(kind: RecModelKind) -> Self {
        let num_tables = match kind {
            RecModelKind::Rm1Small => 8,
            RecModelKind::Rm1Large => 12,
            RecModelKind::Rm2Small => 24,
            RecModelKind::Rm2Large => 64,
        };
        let table_spec = EmbeddingTableSpec::dlrm_default();
        let emb_dim = table_spec.dims();
        // Dot-product feature interaction over (tables + bottom output)
        // vectors, concatenated with the bottom output.
        let interact = Self::interaction_dim(num_tables, emb_dim);
        // RM1's TopFC is sized to stay L2-resident (< 1 MiB of weights);
        // RM2's TopFC spills to the LLC — the contrast Figure 17 studies.
        let top_width = match kind {
            RecModelKind::Rm1Small | RecModelKind::Rm1Large => 384,
            RecModelKind::Rm2Small | RecModelKind::Rm2Large => 512,
        };
        Self {
            kind,
            num_tables,
            table_spec,
            pooling: 80,
            dense_dim: 13,
            bottom_fc: vec![13, 512, 256, emb_dim],
            top_fc: vec![interact, top_width, top_width, 1],
        }
    }

    /// Pairwise-dot interaction feature count: `C(T+1, 2)` dots over the
    /// table outputs plus the bottom output, concatenated with the bottom
    /// output itself.
    pub fn interaction_dim(num_tables: usize, emb_dim: usize) -> usize {
        let v = num_tables + 1;
        v * (v - 1) / 2 + emb_dim
    }

    /// FLOPs of one sample through an MLP (2 per multiply-accumulate).
    fn mlp_flops(widths: &[usize]) -> u64 {
        widths
            .windows(2)
            .map(|w| 2 * (w[0] as u64) * (w[1] as u64))
            .sum()
    }

    /// Weight bytes of an MLP (FP32, ignoring biases).
    fn mlp_bytes(widths: &[usize]) -> u64 {
        widths
            .windows(2)
            .map(|w| 4 * (w[0] as u64) * (w[1] as u64))
            .sum()
    }

    /// FLOPs per sample in the bottom MLP.
    pub fn bottom_fc_flops(&self) -> u64 {
        Self::mlp_flops(&self.bottom_fc)
    }

    /// FLOPs per sample in the top MLP.
    pub fn top_fc_flops(&self) -> u64 {
        Self::mlp_flops(&self.top_fc)
    }

    /// Weight bytes of the bottom MLP.
    pub fn bottom_fc_bytes(&self) -> u64 {
        Self::mlp_bytes(&self.bottom_fc)
    }

    /// Weight bytes of the top MLP.
    pub fn top_fc_bytes(&self) -> u64 {
        Self::mlp_bytes(&self.top_fc)
    }

    /// Embedding bytes gathered per sample (all tables, ignoring reuse).
    pub fn sls_bytes_per_sample(&self) -> u64 {
        self.num_tables as u64 * self.pooling as u64 * self.table_spec.vector_bytes
    }

    /// Total embedding storage footprint.
    pub fn embedding_bytes(&self) -> u64 {
        self.num_tables as u64 * self.table_spec.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_types::units::MIB;

    #[test]
    fn table_counts_match_figure_2b() {
        assert_eq!(ModelConfig::new(RecModelKind::Rm1Small).num_tables, 8);
        assert_eq!(ModelConfig::new(RecModelKind::Rm1Large).num_tables, 12);
        assert_eq!(ModelConfig::new(RecModelKind::Rm2Small).num_tables, 24);
        assert_eq!(ModelConfig::new(RecModelKind::Rm2Large).num_tables, 64);
    }

    #[test]
    fn six_fc_layers_total() {
        let c = ModelConfig::new(RecModelKind::Rm1Small);
        let layers = (c.bottom_fc.len() - 1) + (c.top_fc.len() - 1);
        assert_eq!(layers, 6);
    }

    #[test]
    fn rm1_topfc_fits_l2_rm2_does_not() {
        let l2 = MIB;
        let rm1 = ModelConfig::new(RecModelKind::Rm1Small);
        let rm2 = ModelConfig::new(RecModelKind::Rm2Large);
        assert!(rm1.top_fc_bytes() < l2, "{}", rm1.top_fc_bytes());
        assert!(rm2.top_fc_bytes() > l2, "{}", rm2.top_fc_bytes());
    }

    #[test]
    fn sls_bytes_scale_with_tables() {
        let rm1 = ModelConfig::new(RecModelKind::Rm1Small);
        let rm2 = ModelConfig::new(RecModelKind::Rm2Large);
        assert_eq!(rm1.sls_bytes_per_sample(), 8 * 80 * 128);
        assert_eq!(rm2.sls_bytes_per_sample(), 64 * 80 * 128);
    }

    #[test]
    fn fc_widths_chain_through_the_interaction() {
        for kind in RecModelKind::ALL {
            let c = kind.config();
            let dims = c.table_spec.dims();
            assert_eq!(c.bottom_fc.first(), Some(&c.dense_dim), "{kind}");
            assert_eq!(c.bottom_fc.last(), Some(&dims), "{kind}");
            assert_eq!(
                c.top_fc[0],
                ModelConfig::interaction_dim(c.num_tables, dims),
                "{kind}"
            );
            assert_eq!(c.top_fc.last(), Some(&1), "{kind}");
        }
    }

    #[test]
    fn interaction_dim_formula() {
        // 8 tables + bottom = 9 vectors -> 36 dots + 16 passthrough.
        assert_eq!(ModelConfig::interaction_dim(8, 16), 52);
    }

    #[test]
    fn embedding_footprint_is_tens_of_gb_for_rm2_large() {
        let c = ModelConfig::new(RecModelKind::Rm2Large);
        // 64 tables x 128 MB = 8 GiB at the public DLRM scale.
        assert_eq!(c.embedding_bytes(), 64 * 128_000_000);
    }

    #[test]
    fn names_render() {
        assert_eq!(RecModelKind::Rm2Large.to_string(), "RM2-large");
        assert_eq!(RecModelKind::ALL.len(), 4);
    }
}
