//! Cache configuration.

use recnmp_types::ConfigError;
use serde::{Deserialize, Serialize};

/// Geometry of an LRU cache.
///
/// # Examples
///
/// ```
/// use recnmp_cache::CacheConfig;
/// use recnmp_types::units::MIB;
///
/// // The paper's Section II-F sweep point: 16 MiB, 64 B lines, 4-way LRU.
/// let cfg = CacheConfig::new(16 * MIB, 64, 4);
/// assert_eq!(cfg.num_sets(), 16 * MIB as usize / 64 / 4);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total data capacity in bytes.
    pub capacity_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
    /// Ways per set; use [`CacheConfig::fully_associative`] for one set
    /// spanning the whole cache.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates an LRU cache configuration.
    pub const fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        Self {
            capacity_bytes,
            line_bytes,
            ways,
        }
    }

    /// Creates a fully-associative LRU configuration (used to isolate
    /// conflict misses in the Figure 7(b) spatial-locality study).
    pub fn fully_associative(capacity_bytes: u64, line_bytes: u64) -> Self {
        let lines = (capacity_bytes / line_bytes).max(1) as usize;
        Self::new(capacity_bytes, line_bytes, lines)
    }

    /// The RankCache default from the paper: 128 KiB, 64 B lines, 4-way
    /// LRU (Figure 15(b) finds 128 KiB optimal).
    pub const fn rank_cache_default() -> Self {
        Self::new(128 * 1024, 64, 4)
    }

    /// Number of lines the cache holds.
    pub const fn num_lines(&self) -> usize {
        (self.capacity_bytes / self.line_bytes) as usize
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> usize {
        self.num_lines() / self.ways
    }

    /// Validates geometry consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the line size is not a power of two
    /// of at least 2 bytes (a 1-byte line would give address `u64::MAX`
    /// the line id [`SetAssocCache`](crate::SetAssocCache) reserves for an
    /// empty way), the capacity is not divisible into `ways`-sized sets,
    /// or the set count is not a power of two (required for index
    /// hashing).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.line_bytes < 2 || !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "line_bytes",
                "must be a power of two of at least 2",
            ));
        }
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(self.line_bytes) {
            return Err(ConfigError::new(
                "capacity_bytes",
                "must be a positive multiple of line_bytes",
            ));
        }
        if self.ways == 0 || !self.num_lines().is_multiple_of(self.ways) {
            return Err(ConfigError::new(
                "ways",
                "must divide the line count evenly",
            ));
        }
        if !self.num_sets().is_power_of_two() {
            return Err(ConfigError::new("ways", "set count must be a power of two"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivation() {
        let cfg = CacheConfig::new(8192, 64, 4);
        assert_eq!(cfg.num_lines(), 128);
        assert_eq!(cfg.num_sets(), 32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn fully_associative_is_one_set() {
        let cfg = CacheConfig::fully_associative(4096, 64);
        assert_eq!(cfg.num_sets(), 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rank_cache_default_matches_paper() {
        let cfg = CacheConfig::rank_cache_default();
        assert_eq!(cfg.capacity_bytes, 128 * 1024);
        assert_eq!(cfg.line_bytes, 64);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_line() {
        let cfg = CacheConfig::new(8192, 48, 4);
        assert_eq!(cfg.validate().unwrap_err().field(), "line_bytes");
    }

    #[test]
    fn validate_rejects_one_byte_lines() {
        let cfg = CacheConfig::new(8192, 1, 4);
        assert_eq!(cfg.validate().unwrap_err().field(), "line_bytes");
    }

    #[test]
    fn validate_rejects_non_pow2_sets() {
        let cfg = CacheConfig::new(192, 64, 1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_indivisible_ways() {
        let cfg = CacheConfig::new(8192, 64, 3);
        assert_eq!(cfg.validate().unwrap_err().field(), "ways");
    }
}
