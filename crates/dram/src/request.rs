//! Memory requests and their completion records.

use recnmp_types::{Cycle, PhysAddr, RequestId};
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
    /// Caller-chosen identifier, echoed in the completion record.
    pub id: RequestId,
    /// Physical byte address (the containing 64-byte burst is accessed).
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: RequestKind,
    /// Cycle at which the request becomes visible to the controller.
    pub arrival: Cycle,
}

impl Request {
    /// Creates a read request.
    pub fn read(id: RequestId, addr: PhysAddr, arrival: Cycle) -> Self {
        Self {
            id,
            addr,
            kind: RequestKind::Read,
            arrival,
        }
    }

    /// Creates a write request.
    pub fn write(id: RequestId, addr: PhysAddr, arrival: Cycle) -> Self {
        Self {
            id,
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

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// Identifier from the originating [`Request`].
    pub id: RequestId,
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

/// What a [`MemorySystem::run_stream`] run completed: the count and the
/// last finish cycle, in place of one [`CompletedRequest`] per request.
///
/// [`MemorySystem::run_stream`]: crate::MemorySystem::run_stream
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Requests that completed during the run.
    pub completed: u64,
    /// Cycle the run's last data beat transferred; `None` when nothing
    /// completed. Bursts share one data bus, so this is the latest finish.
    pub last_finish: Option<Cycle>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let r = Request::read(RequestId::new(1), PhysAddr::new(64), 5);
        assert_eq!(r.kind, RequestKind::Read);
        let w = Request::write(RequestId::new(2), PhysAddr::new(128), 6);
        assert_eq!(w.kind, RequestKind::Write);
        assert_eq!(w.arrival, 6);
    }

    #[test]
    fn latency_is_finish_minus_arrival() {
        let c = CompletedRequest {
            id: RequestId::new(0),
            addr: DramAddr::default(),
            kind: RequestKind::Read,
            arrival: 10,
            finish_cycle: 46,
            outcome: RowOutcome::Miss,
        };
        assert_eq!(c.latency(), 36);
    }
}
