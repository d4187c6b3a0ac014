//! Memory requests and their completion records.

use recnmp_types::{Cycle, PhysAddr};
use serde::{Deserialize, Serialize};

use crate::address::DramAddr;

/// Whether a request reads or writes one 64-byte burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// Read one burst.
    Read,
    /// Write one burst.
    Write,
}

/// A 64-byte memory request presented to a [`MemorySystem`].
///
/// [`MemorySystem`]: crate::MemorySystem
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Physical byte address (the containing 64-byte burst is accessed).
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: RequestKind,
    /// Cycle at which the request becomes visible to the controller.
    pub arrival: Cycle,
}

impl Request {
    /// Creates a read request.
    pub fn read(addr: PhysAddr, arrival: Cycle) -> Self {
        Self {
            addr,
            kind: RequestKind::Read,
            arrival,
        }
    }

    /// Creates a write request.
    pub fn write(addr: PhysAddr, arrival: Cycle) -> Self {
        Self {
            addr,
            kind: RequestKind::Write,
            arrival,
        }
    }
}

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
    /// Read or write.
    pub kind: RequestKind,
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
    fn constructors_set_kind() {
        let r = Request::read(PhysAddr::new(64), 5);
        assert_eq!(r.kind, RequestKind::Read);
        let w = Request::write(PhysAddr::new(128), 6);
        assert_eq!(w.kind, RequestKind::Write);
        assert_eq!(w.arrival, 6);
    }

    #[test]
    fn latency_is_finish_minus_arrival() {
        let c = CompletedRequest {
            seq: 0,
            addr: DramAddr::default(),
            kind: RequestKind::Read,
            arrival: 10,
            finish_cycle: 46,
            outcome: RowOutcome::Miss,
        };
        assert_eq!(c.latency(), 36);
    }
}
