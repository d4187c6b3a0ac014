//! The completion records of memory requests.

use recnmp_types::Cycle;
use serde::{Deserialize, Serialize};

use crate::address::DramAddr;

/// How the row buffer treated a serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The needed row was already open: column command only.
    Hit,
    /// The bank was closed: ACT + column command.
    Miss,
    /// Another row was open: PRE + ACT + column command.
    Conflict,
}

/// Completion record for one request, handed to the callback of
/// [`MemorySystem::run_stream`].
///
/// [`MemorySystem::run_stream`]: crate::MemorySystem::run_stream
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// The request's place in enqueue order on its channel, counted
    /// from 0 across runs.
    pub seq: u64,
    /// Decoded coordinates the request was serviced at.
    pub addr: DramAddr,
    /// Cycle the request arrived at the controller.
    pub arrival: Cycle,
    /// Cycle the last data beat transferred.
    pub finish_cycle: Cycle,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
}

impl CompletedRequest {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.finish_cycle - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_finish_minus_arrival() {
        let c = CompletedRequest {
            seq: 0,
            addr: DramAddr::default(),
            arrival: 10,
            finish_cycle: 46,
            outcome: RowOutcome::Miss,
        };
        assert_eq!(c.latency(), 36);
    }
}
