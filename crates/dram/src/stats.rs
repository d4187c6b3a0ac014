//! Counters collected by the memory controller.

use recnmp_types::{units, Cycle};
use serde::{Deserialize, Serialize};

use crate::request::RowOutcome;

/// Aggregate statistics for one [`MemorySystem`](crate::MemorySystem).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// ACT commands issued.
    pub acts: u64,
    /// PRE commands issued.
    pub pres: u64,
    /// REF commands issued.
    pub refs: u64,
    /// Requests serviced from an already-open row.
    pub row_hits: u64,
    /// Requests that required an ACT into a closed bank.
    pub row_misses: u64,
    /// Requests that required closing another row first.
    pub row_conflicts: u64,
    /// Cycles the data bus carried a burst.
    pub data_bus_busy: Cycle,
    /// Cycles a command was driven on the command bus.
    pub cmd_bus_busy: Cycle,
    /// Sum of request latencies (cycles).
    pub latency_sum: Cycle,
    /// Worst observed request latency.
    pub latency_max: Cycle,
    /// Log2-bucketed latency histogram: bucket `i` counts latencies in
    /// `[2^i, 2^(i+1))`, except that bucket 0 also counts a latency of 0
    /// and the last bucket, 23, is open-ended: it counts every latency
    /// from `2^23` up.
    pub latency_hist: [u64; 24],
}

impl DramStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed request's latency.
    pub fn record_latency(&mut self, latency: Cycle) {
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1).min(23);
        self.latency_hist[bucket] += 1;
    }

    /// Records the row-buffer outcome of a serviced request.
    pub fn record_outcome(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Miss => self.row_misses += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
    }

    /// Completed requests (reads + writes).
    pub fn completed(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean request latency in cycles (zero when nothing completed).
    pub fn mean_latency(&self) -> f64 {
        if self.completed() == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.completed() as f64
        }
    }

    /// Row-hit fraction over serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Data bytes moved (64 per completed request).
    pub fn data_bytes(&self) -> u64 {
        self.completed() * units::CACHELINE_BYTES
    }

    /// Achieved bandwidth in GB/s over `elapsed` cycles.
    pub fn bandwidth_gbs(&self, elapsed: Cycle) -> f64 {
        units::bandwidth_gbs(self.data_bytes(), elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recording_updates_all_aggregates() {
        let mut s = DramStats::new();
        s.reads = 2;
        s.record_latency(36);
        s.record_latency(100);
        assert_eq!(s.latency_sum, 136);
        assert_eq!(s.latency_max, 100);
        assert_eq!(s.mean_latency(), 68.0);
        // 36 lands in [32,64) = bucket 5; 100 in [64,128) = bucket 6.
        assert_eq!(s.latency_hist[5], 1);
        assert_eq!(s.latency_hist[6], 1);
    }

    #[test]
    fn latency_histogram_ends_are_open() {
        let mut s = DramStats::new();
        s.record_latency(0);
        s.record_latency(1 << 23);
        s.record_latency(1 << 40);
        assert_eq!(s.latency_hist[0], 1);
        assert_eq!(s.latency_hist[23], 2);
    }

    #[test]
    fn outcome_counting() {
        let mut s = DramStats::new();
        s.record_outcome(RowOutcome::Hit);
        s.record_outcome(RowOutcome::Hit);
        s.record_outcome(RowOutcome::Conflict);
        assert_eq!(s.row_hits, 2);
        assert_eq!(s.row_conflicts, 1);
        assert!((s.row_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_of_fully_busy_bus() {
        let mut s = DramStats::new();
        // 1000 reads back to back: each keeps the bus busy 4 cycles.
        s.reads = 1000;
        s.data_bus_busy = 4000;
        let bw = s.bandwidth_gbs(4000);
        // 64 B / 4 cycles at 1.2 GHz = 19.2 GB/s.
        assert!((bw - 19.2).abs() < 0.01, "{bw}");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DramStats::new();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }
}
