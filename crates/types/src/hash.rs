//! A fixed, deterministic hasher for `u64` keys.
//!
//! The standard library's default `HashMap` hasher is SipHash with a
//! per-process random key: collision-resistant against adversarial keys,
//! but several times the cost of a multiply-xorshift mix on a per-access
//! path, and keyed differently on every run. The simulator's `u64` keys
//! (cache line ids, row indices) are not adversarial, so the maps and
//! sets on those paths use [`U64Hasher`] instead: the SplitMix64
//! finalizer, which spreads every input bit over both the low bits that
//! pick a bucket and the high bits that tag it.
//!
//! Iteration order follows the hash: the same on every run, but not
//! sorted, so only maps whose order never reaches an output use it.
//!
//! # Examples
//!
//! ```
//! use recnmp_types::hash::U64Set;
//!
//! let mut seen = U64Set::default();
//! assert!(seen.insert(42));
//! assert!(!seen.insert(42));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by `u64` under [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// A `HashSet` of `u64` under [`U64Hasher`].
pub type U64Set = HashSet<u64, BuildHasherDefault<U64Hasher>>;

/// The SplitMix64 finalizer over the written `u64`: deterministic, no
/// random key, two multiplies per key.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-`u64` keys; fold bytes in so the hasher
        // stays correct for any key type.
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: u64) -> u64 {
        BuildHasherDefault::<U64Hasher>::default().hash_one(key)
    }

    #[test]
    fn hashing_is_fixed_across_builders() {
        assert_eq!(hash_of(7), hash_of(7));
        assert_ne!(hash_of(7), hash_of(8));
        // Pinned: the same key hashes the same on every run and host.
        assert_eq!(hash_of(0), 0);
        assert_eq!(hash_of(1), 0x5692_161d_100b_05e5);
    }

    #[test]
    fn aligned_keys_spread_over_low_and_high_bits() {
        // Line-aligned keys (multiples of 2^k) must not share bucket bits.
        let low: U64Set = (0..1024u64).map(|i| hash_of(i << 12) & 0x3ff).collect();
        let high: U64Set = (0..1024u64).map(|i| hash_of(i << 12) >> 57).collect();
        assert!(low.len() > 600, "{} distinct low-bit buckets", low.len());
        assert_eq!(high.len(), 128, "every 7-bit tag is used");
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m = U64Map::default();
        for k in 0..1000u64 {
            *m.entry(k % 37).or_insert(0u32) += 1;
        }
        assert_eq!(m.len(), 37);
        assert_eq!(m[&0], 28);
        let mut h = U64Hasher::default();
        (3u32, 4u8).hash(&mut h);
        assert_ne!(h.finish(), 0);
    }
}
