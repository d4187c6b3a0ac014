//! Byte-size and time constants used across the simulator.
//!
//! # Examples
//!
//! ```
//! use recnmp_types::units::{human_bytes, ByteSize, GIB, KIB};
//!
//! assert_eq!(human_bytes(64), "64 B");
//! assert_eq!(human_bytes(128 * KIB), "128.0 KiB");
//! assert_eq!(human_bytes(64 * GIB), "64.0 GiB");
//!
//! // Capacity configuration reads in the unit it is thought in.
//! assert_eq!(ByteSize::gib(16).get(), 16 * GIB);
//! assert_eq!(ByteSize::mib(64).to_string(), "64.0 MiB");
//! ```

use serde::{Deserialize, Serialize};

/// One kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Width of one DRAM data burst for a 64-bit channel with burst length 8.
pub const CACHELINE_BYTES: u64 = 64;

/// DDR4-2400 I/O clock frequency in Hz (commands and bursts are timed in
/// units of this clock; data moves on both edges).
pub const DDR4_2400_CLOCK_HZ: f64 = 1.2e9;

/// Seconds per DDR4-2400 clock cycle.
pub const DDR4_2400_CYCLE_SECS: f64 = 1.0 / DDR4_2400_CLOCK_HZ;

/// Converts a cycle count at the DDR4-2400 clock into microseconds — the
/// unit query-serving latency distributions are reported in.
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 * DDR4_2400_CYCLE_SECS * 1e6
}

/// Mean inter-arrival gap in simulator cycles for an offered query rate.
///
/// Open-loop load generators draw arrival gaps around this mean; at the
/// DDR4-2400 clock, 1 QPS is one query every 1.2e9 cycles.
///
/// # Panics
///
/// Panics when `qps` is not positive and finite.
pub fn qps_to_interarrival_cycles(qps: f64) -> f64 {
    assert!(
        qps.is_finite() && qps > 0.0,
        "offered QPS must be positive, got {qps}"
    );
    DDR4_2400_CLOCK_HZ / qps
}

/// Converts a span of simulator cycles and a completion count into a
/// throughput in queries per second. Returns zero when `cycles` is zero.
pub fn completions_to_qps(completions: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        completions as f64 * DDR4_2400_CLOCK_HZ / cycles as f64
    }
}

/// Converts bytes moved over a cycle span into GB/s at the DDR4-2400 clock.
///
/// Returns zero when `cycles` is zero.
pub fn bandwidth_gbs(bytes: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    bytes as f64 / (cycles as f64 * DDR4_2400_CYCLE_SECS) / 1e9
}

/// A byte capacity with unit-bearing constructors and human-readable
/// display — what capacity *configuration* (per-channel DRAM bounds,
/// storage-tier sizes, device buffers) is expressed in, instead of raw
/// `u64` byte counts whose unit lives in a comment.
///
/// In JSON reports a capacity is emitted as the plain byte count
/// ([`get`](Self::get)), so adopting it changes no report format.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// An exact byte count.
    pub const fn bytes(n: u64) -> Self {
        Self(n)
    }

    /// `n` kibibytes.
    pub const fn kib(n: u64) -> Self {
        Self(n * KIB)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        Self(n * MIB)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        Self(n * GIB)
    }

    /// The size in bytes.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> Self {
        Self(bytes)
    }
}

impl From<ByteSize> for u64 {
    fn from(s: ByteSize) -> Self {
        s.0
    }
}

impl std::fmt::Display for ByteSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&human_bytes(self.0))
    }
}

/// Formats a byte count with a binary-unit suffix.
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= GIB {
        format!("{:.1} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(MIB, 1024 * 1024);
        assert_eq!(GIB, 1024 * 1024 * 1024);
    }

    #[test]
    fn bandwidth_of_peak_channel() {
        // A DDR4-2400 64-bit channel moves 16 bytes per clock cycle
        // (8 bytes per edge), i.e. 19.2 GB/s peak.
        let bw = bandwidth_gbs(16 * 1_200_000_000, 1_200_000_000);
        assert!((bw - 19.2).abs() < 1e-6, "{bw}");
    }

    #[test]
    fn bandwidth_zero_cycles_is_zero() {
        assert_eq!(bandwidth_gbs(100, 0), 0.0);
    }

    #[test]
    fn serving_time_units_round_trip() {
        // 1200 cycles at 1.2 GHz is exactly 1 microsecond.
        assert!((cycles_to_us(1200) - 1.0).abs() < 1e-12);
        // 1 QPS means one arrival every 1.2e9 cycles.
        assert!((qps_to_interarrival_cycles(1.0) - 1.2e9).abs() < 1.0);
        // 1000 QPS: one arrival every 1.2e6 cycles.
        assert!((qps_to_interarrival_cycles(1000.0) - 1.2e6).abs() < 1e-3);
        // 10 completions over 1.2e9 cycles is 10 QPS.
        assert!((completions_to_qps(10, 1_200_000_000) - 10.0).abs() < 1e-9);
        assert_eq!(completions_to_qps(10, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "offered QPS must be positive")]
    fn qps_must_be_positive() {
        qps_to_interarrival_cycles(0.0);
    }

    #[test]
    fn byte_size_constructors_and_display() {
        assert_eq!(ByteSize::kib(8).get(), 8 * KIB);
        assert_eq!(ByteSize::mib(3).get(), 3 * MIB);
        assert_eq!(ByteSize::gib(2).get(), 2 * GIB);
        assert_eq!(ByteSize::bytes(777).get(), 777);
        assert_eq!(ByteSize::gib(2).to_string(), "2.0 GiB");
        assert_eq!(u64::from(ByteSize::from(4096u64)), 4096);
        assert!(ByteSize::mib(1) < ByteSize::gib(1));
    }

    #[test]
    fn human_bytes_selects_unit() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(8 * KIB), "8.0 KiB");
        assert_eq!(human_bytes(24 * MIB + MIB / 2), "24.5 MiB");
        assert_eq!(human_bytes(2 * GIB), "2.0 GiB");
    }
}
