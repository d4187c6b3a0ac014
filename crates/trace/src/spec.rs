//! Embedding table shape descriptions.

use recnmp_types::ConfigError;
use serde::{Deserialize, Serialize};

/// Shape of one embedding table.
///
/// # Examples
///
/// ```
/// use recnmp_trace::EmbeddingTableSpec;
///
/// // The DLRM configuration: one million rows of 128-byte vectors.
/// let spec = EmbeddingTableSpec::dlrm_default();
/// assert_eq!(spec.bytes(), 128 * 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbeddingTableSpec {
    /// Number of rows (embedding vectors).
    pub rows: u64,
    /// Bytes per embedding vector. Production sizes are 64–256 B.
    pub vector_bytes: u64,
}

impl EmbeddingTableSpec {
    /// The most rows a valid table has: 2^32, so every row index fits
    /// a `u32`, the width an `SlsTrace` stores rows at.
    pub const MAX_ROWS: u64 = 1 << 32;

    /// Creates a spec.
    pub const fn new(rows: u64, vector_bytes: u64) -> Self {
        Self { rows, vector_bytes }
    }

    /// The configuration used throughout the paper's DLRM evaluation:
    /// 1,000,000 rows (Figure 2(b)) of 128-byte vectors — the 32-dim FP32
    /// embeddings of the open-source DLRM RM1/RM2 configurations.
    pub const fn dlrm_default() -> Self {
        Self::new(1_000_000, 128)
    }

    /// Total table footprint in bytes.
    pub const fn bytes(&self) -> u64 {
        self.rows * self.vector_bytes
    }

    /// Number of 64-byte DRAM bursts needed to read one vector.
    pub const fn bursts_per_vector(&self) -> u64 {
        self.vector_bytes.div_ceil(64)
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either dimension is zero, the table
    /// has more than [`MAX_ROWS`](Self::MAX_ROWS) rows, the vector size is
    /// not a multiple of 4 (FP32 elements), or a vector spans more than
    /// 255 bursts (16,320 bytes) — the most an NMP instruction's `vsize`
    /// field encodes.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rows == 0 {
            return Err(ConfigError::new("rows", "must be positive"));
        }
        if self.rows > Self::MAX_ROWS {
            return Err(ConfigError::new("rows", "must be at most 2^32"));
        }
        if self.vector_bytes == 0 || !self.vector_bytes.is_multiple_of(4) {
            return Err(ConfigError::new(
                "vector_bytes",
                "must be a positive multiple of 4",
            ));
        }
        if self.bursts_per_vector() > u64::from(u8::MAX) {
            return Err(ConfigError::new(
                "vector_bytes",
                "must span at most 255 bursts (16,320 bytes)",
            ));
        }
        Ok(())
    }

    /// Number of FP32 elements per vector.
    pub const fn dims(&self) -> usize {
        (self.vector_bytes / 4) as usize
    }
}

impl Default for EmbeddingTableSpec {
    fn default() -> Self {
        Self::dlrm_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_dlrm() {
        let s = EmbeddingTableSpec::default();
        assert_eq!(s.rows, 1_000_000);
        assert_eq!(s.vector_bytes, 128);
        assert_eq!(s.dims(), 32);
        assert_eq!(s.bursts_per_vector(), 2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn bursts_round_up() {
        assert_eq!(EmbeddingTableSpec::new(10, 64).bursts_per_vector(), 1);
        assert_eq!(EmbeddingTableSpec::new(10, 128).bursts_per_vector(), 2);
        assert_eq!(EmbeddingTableSpec::new(10, 100).bursts_per_vector(), 2);
    }

    #[test]
    fn validate_rejects_bad_vector() {
        assert!(EmbeddingTableSpec::new(10, 62).validate().is_err());
        assert!(EmbeddingTableSpec::new(0, 64).validate().is_err());
    }

    #[test]
    fn validate_bounds_rows_at_two_to_the_32() {
        let rows = EmbeddingTableSpec::MAX_ROWS;
        assert_eq!(rows, 4_294_967_296);
        assert!(EmbeddingTableSpec::new(rows, 64).validate().is_ok());
        let err = EmbeddingTableSpec::new(rows + 1, 64)
            .validate()
            .unwrap_err();
        assert_eq!(err.to_string(), "invalid `rows`: must be at most 2^32");
    }

    #[test]
    fn validate_rejects_vectors_past_255_bursts() {
        assert!(EmbeddingTableSpec::new(10, 16_320).validate().is_ok());
        // 256 bursts would wrap to 0 in the instruction's u8 field.
        assert!(EmbeddingTableSpec::new(10, 16_384).validate().is_err());
    }
}
