//! Work-counter pins for the DRAM engine.
//!
//! A change meant to make the FR-FCFS loop cheaper must make the same
//! decisions in the same number of loop iterations. These tests run
//! fixed `DetRng` streams through four channel shapes and pin the exact
//! loop iterations, final cycle and command counts: any change to a
//! scheduling decision, to the event-skip targets or to refresh timing
//! moves at least one of them, on any host.
//!
//! The shapes:
//! - the host baseline's channel (2 DIMMs x 2 ranks), a whole batch
//!   arriving at once;
//! - a rank-NMP device (one rank), two reads arriving per cycle;
//! - a 4 x 2 channel (8 ranks, 128 banks) with refresh on, long enough
//!   for every rank to refresh several times;
//! - a mixed read/write stream that fills the write queue and drains it;
//! - a rank-NMP device as `RankNmp::process` drives it: many short calls
//!   of a few two-burst vectors each, every call enqueued at decoded
//!   coordinates and run to idle, refresh on.

use recnmp_dram::request::{Request, RequestKind};
use recnmp_dram::{DramAddr, DramConfig, MemorySystem};
use recnmp_types::rng::DetRng;
use recnmp_types::PhysAddr;

/// The counters a shape pins: loop iterations, final cycle, then
/// `reads`, `writes`, `acts`, `pres`, `refs` and `cmd_bus_busy`.
type Counters = (u64, u64, [u64; 6]);

/// Enqueues `reqs` on a fresh channel, runs them and returns its counters.
fn counters(cfg: DramConfig, reqs: &[Request]) -> Counters {
    let mut mem = MemorySystem::new(cfg).expect("valid config");
    for r in reqs {
        mem.enqueue(*r);
    }
    mem.run_stream(std::iter::empty(), |_| {}).expect("drain");
    let s = mem.stats();
    (
        mem.loop_iterations(),
        mem.cycle(),
        [s.reads, s.writes, s.acts, s.pres, s.refs, s.cmd_bus_busy],
    )
}

/// `n` reads at random cacheline addresses below `span`, read `i`
/// arriving at `arrival(i)`.
fn reads(n: u64, seed: u64, span: u64, arrival: impl Fn(u64) -> u64) -> Vec<Request> {
    let mut rng = DetRng::seed(seed);
    (0..n)
        .map(|i| Request::read(PhysAddr::new(rng.below(span) & !63), arrival(i)))
        .collect()
}

#[test]
fn host_channel_burst() {
    let got = counters(
        DramConfig::with_ranks(2, 2),
        &reads(4096, 1, 32 << 30, |_| 0),
    );
    assert_eq!(got, (16811, 19428, [4096, 0, 5769, 5745, 8, 15618]));
}

#[test]
fn staggered_rank_device() {
    let got = counters(
        DramConfig::single_rank(),
        &reads(4096, 2, 8 << 30, |i| i / 2),
    );
    assert_eq!(got, (17624, 27597, [4096, 0, 4099, 4083, 2, 12280]));
}

#[test]
fn eight_rank_channel_with_refresh() {
    let cfg = DramConfig::with_ranks(4, 2);
    assert!(cfg.refresh);
    // One read every 4 cycles spans several refresh intervals per rank.
    let got = counters(cfg, &reads(12_000, 3, 64 << 30, |i| i * 4));
    assert_eq!(got, (47358, 58320, [12000, 0, 16082, 15964, 48, 44094]));
}

#[test]
fn mixed_stream_drains_writes() {
    let mut rng = DetRng::seed(4);
    let reqs: Vec<Request> = (0..4096u64)
        .map(|i| {
            let addr = PhysAddr::new(rng.below(8 << 30) & !63);
            // Bursts of writes long enough to reach the drain watermark.
            if (i / 48) % 3 == 1 {
                Request::write(addr, i / 2)
            } else {
                Request::read(addr, i / 2)
            }
        })
        .collect();
    let got = counters(DramConfig::table1_baseline(), &reqs);
    assert_eq!(got, (18552, 20915, [2736, 1360, 5426, 5394, 4, 14920]));
}

#[test]
fn rank_device_packets() {
    let cfg = DramConfig::single_rank();
    assert!(cfg.refresh);
    let geo = cfg.geometry();
    let mut mem = MemorySystem::new(cfg).expect("valid config");
    let mut rng = DetRng::seed(5);
    for _ in 0..2000 {
        // One call: 8 two-burst vectors, 2 cycles apart, both bursts of a
        // vector arriving together.
        let start = mem.cycle();
        for v in 0..8u64 {
            let base = DramAddr {
                rank: 0,
                bank_group: rng.below(u64::from(geo.bank_groups)) as u8,
                bank: rng.below(u64::from(geo.banks_per_group)) as u8,
                row: rng.below(1024) as u32,
                column: rng.below(u64::from(geo.columns / 2)) as u32 * 2,
            };
            for b in 0..2 {
                let addr = DramAddr {
                    column: base.column + b,
                    ..base
                };
                mem.enqueue_decoded(addr, RequestKind::Read, start + 2 * v);
            }
        }
        mem.run_stream(std::iter::empty(), |_| {}).expect("drain");
    }
    let s = mem.stats();
    let got = (
        mem.loop_iterations(),
        mem.cycle(),
        [s.reads, s.writes, s.acts, s.pres, s.refs, s.cmd_bus_busy],
    );
    assert_eq!(got, (101351, 285272, [32000, 0, 16060, 16044, 30, 64134]));
}
