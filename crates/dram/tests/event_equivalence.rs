//! Golden-equivalence suite: the event-driven skip-ahead engine must be
//! *cycle-identical* to the per-cycle reference engine — same completion
//! records (enqueue order, cycles, outcomes), same final clock, same
//! `DramStats`, and zero protocol-monitor violations — across refresh
//! on/off, FR-FCFS starvation, write drains and multi-rank workloads,
//! while doing at least 10x less main-loop work on sparse
//! refresh-enabled traffic.
//!
//! Under either engine, streaming reads into `run_stream` must be
//! indistinguishable from enqueueing the same reads up front and running
//! an empty stream, down to the error a forced stall reports, and every
//! successful run must end at its last completion's finish cycle.

use proptest::prelude::*;
use recnmp_dram::request::Request;
use recnmp_dram::{CompletedRequest, DramConfig, DramStats, MemorySystem, SimEngine};
use recnmp_types::rng::DetRng;
use recnmp_types::{Cycle, PhysAddr, SimError};

/// Outcome of one engine run, everything identity cares about.
#[derive(Debug, PartialEq)]
struct Golden {
    completions: Vec<CompletedRequest>,
    final_cycle: Cycle,
    stats: DramStats,
    violations: usize,
}

fn run(cfg: &DramConfig, engine: SimEngine, reqs: &[Request]) -> (Golden, u64) {
    let mut cfg = cfg.clone();
    cfg.engine = engine;
    let mut mem = MemorySystem::new(cfg).expect("valid config");
    mem.attach_monitor();
    for r in reqs {
        mem.enqueue(*r);
    }
    let mut completions = Vec::new();
    mem.run_stream(std::iter::empty(), |c| completions.push(*c))
        .expect("drain");
    let golden = Golden {
        completions,
        final_cycle: mem.cycle(),
        stats: mem.stats().clone(),
        violations: mem.monitor_violations().len(),
    };
    (golden, mem.loop_iterations())
}

/// Runs `reqs` under both engines and asserts identity; returns
/// (per-cycle iterations, event iterations).
fn assert_equivalent(cfg: &DramConfig, reqs: &[Request]) -> (u64, u64) {
    let (ref_run, ref_iters) = run(cfg, SimEngine::PerCycle, reqs);
    let (ev_run, ev_iters) = run(cfg, SimEngine::EventDriven, reqs);
    assert_eq!(ref_run.violations, 0, "reference engine broke protocol");
    assert_eq!(ev_run.violations, 0, "event engine broke protocol");
    assert_eq!(ref_run, ev_run, "engines diverged");
    (ref_iters, ev_iters)
}

fn reads(n: u64, seed: u64, span: u64, gap: u64) -> Vec<Request> {
    let mut rng = DetRng::seed(seed);
    (0..n)
        .map(|i| Request::read(PhysAddr::new(rng.below(span) & !63), i * gap))
        .collect()
}

#[test]
fn dense_random_multi_rank_refresh_on() {
    let cfg = DramConfig::with_ranks(2, 2);
    assert_equivalent(&cfg, &reads(400, 11, 8 << 30, 1));
}

#[test]
fn dense_random_refresh_off() {
    let mut cfg = DramConfig::table1_baseline();
    cfg.refresh = false;
    assert_equivalent(&cfg, &reads(400, 12, 8 << 30, 2));
}

#[test]
fn single_rank_device_config() {
    // The rank-NMP device configuration (identity mapping, refresh on).
    let cfg = DramConfig::single_rank();
    assert_equivalent(&cfg, &reads(300, 13, 1 << 30, 7));
}

#[test]
fn frfcfs_starvation_guard_fires_identically() {
    // A stream of row hits to one row plus conflicting rows in the same
    // bank; with a tiny starvation bound the oldest-first preemption path
    // is exercised in both engines.
    let mut cfg = DramConfig::table1_baseline();
    cfg.starvation_cycles = 48;
    cfg.refresh = false;
    let row_stride = 8u64 * 1024 * 1024; // same bank, different row
    let mut reqs = Vec::new();
    for i in 0..96u64 {
        let addr = if i % 8 == 0 {
            PhysAddr::new((i / 8 + 1) * row_stride)
        } else {
            PhysAddr::new((i % 8) * 64)
        };
        reqs.push(Request::read(addr, i / 4));
    }
    assert_equivalent(&cfg, &reqs);
}

#[test]
fn write_drain_mode_is_identical() {
    // Enough writes to trip the 3/4 write-drain threshold, mixed with
    // reads, so write scheduling and turnaround timing are covered.
    let mut cfg = DramConfig::table1_baseline();
    cfg.refresh = false;
    cfg.write_queue = 8;
    let mut rng = DetRng::seed(21);
    let mut reqs = Vec::new();
    for i in 0..200u64 {
        let addr = PhysAddr::new(rng.below(4 << 30) & !63);
        reqs.push(if i % 3 == 0 {
            Request::read(addr, i)
        } else {
            Request::write(addr, i)
        });
    }
    assert_equivalent(&cfg, &reqs);
}

#[test]
fn sparse_refresh_workload_with_queue_pressure() {
    // Sparse arrivals with a small read queue: admission back-pressure,
    // refresh epochs and long idle gaps all in one trace.
    let mut cfg = DramConfig::with_ranks(1, 2);
    cfg.read_queue = 4;
    let reqs = reads(128, 31, 8 << 30, 500);
    assert_equivalent(&cfg, &reqs);
}

#[test]
fn event_engine_is_10x_cheaper_on_sparse_refresh_traffic() {
    // The headline claim: refresh-enabled low-rate traffic is where the
    // per-cycle engine wastes almost every iteration.
    let cfg = DramConfig::table1_baseline();
    let reqs = reads(64, 41, 8 << 30, 3000);
    let (ref_iters, ev_iters) = assert_equivalent(&cfg, &reqs);
    assert!(
        ev_iters * 10 <= ref_iters,
        "event engine not >=10x cheaper: {ev_iters} vs {ref_iters} iterations"
    );
}

/// What a run left behind: its completions or its error, and the
/// channel's statistics, clock and loop iterations afterwards.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<CompletedRequest>, SimError>,
    stats: DramStats,
    cycle: Cycle,
    iterations: u64,
}

/// Runs `reads` through `mem`, collecting the completions, and checks
/// that a successful run ends at its last completion's finish cycle, or
/// leaves the clock alone when nothing completed.
fn run_ending_at_last_finish(
    mem: &mut MemorySystem,
    reads: &[(PhysAddr, Cycle)],
) -> Result<Vec<CompletedRequest>, SimError> {
    let before = mem.cycle();
    let mut done = Vec::new();
    mem.run_stream(reads.iter().copied(), |c| done.push(*c))?;
    let end = done.last().map_or(before, |c| c.finish_cycle);
    assert_eq!(mem.cycle(), end, "the run did not end at its last finish");
    Ok(done)
}

/// Enqueues `staged` up front (writes among them), then serves `reads`
/// either enqueued too and an empty stream run (`stream == false`), or
/// streamed. A successful run is followed by an empty one, which must
/// leave the clock alone.
fn intake(
    cfg: &DramConfig,
    staged: &[Request],
    reads: &[(PhysAddr, Cycle)],
    stream: bool,
) -> Outcome {
    let mut mem = MemorySystem::new(cfg.clone()).expect("valid config");
    for &req in staged {
        mem.enqueue(req);
    }
    let result = if stream {
        run_ending_at_last_finish(&mut mem, reads)
    } else {
        for &(addr, arrival) in reads {
            mem.enqueue(Request::read(addr, arrival));
        }
        run_ending_at_last_finish(&mut mem, &[])
    };
    if result.is_ok() {
        let idle = run_ending_at_last_finish(&mut mem, &[]);
        assert_eq!(idle, Ok(Vec::new()), "an empty run completed something");
    }
    Outcome {
        result,
        stats: mem.stats().clone(),
        cycle: mem.cycle(),
        iterations: mem.loop_iterations(),
    }
}

/// A channel whose reads can never issue: tRCD outlasts the stall bound
/// and the refresh interval, so every ACT is closed again by refresh
/// before its column command becomes legal.
fn wedge(cfg: &mut DramConfig) {
    let t = &mut cfg.timing;
    t.t_rcd = 1 << 16;
    t.t_ras = t.t_rcd;
    t.t_rc = t.t_ras + t.t_rp;
    cfg.refresh = true;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_intake_matches_bulk_enqueue(
        raw in prop::collection::vec((0u64..u64::MAX, 0u64..4, any::<bool>()), 1..200),
        spacing in prop_oneof![Just(0u64), Just(1), Just(40)],
        split in 0usize..64,
        ranks in prop_oneof![Just((1u8, 1u8)), Just((1, 2)), Just((2, 2))],
        refresh in any::<bool>(),
        queue in prop_oneof![Just(4usize), Just(32)],
        wedged in any::<bool>(),
    ) {
        // The first `split` requests are enqueued up front, the writes
        // among them as writes; the rest are reads, streamed or not.
        let mut arrival = 0;
        let mut staged = Vec::new();
        let mut reads = Vec::new();
        for (i, &(addr, gap, write)) in raw.iter().enumerate() {
            arrival += gap * spacing;
            let addr = PhysAddr::new(addr & ((1 << 33) - 1) & !63);
            if i >= split {
                reads.push((addr, arrival));
            } else if write {
                staged.push(Request::write(addr, arrival));
            } else {
                staged.push(Request::read(addr, arrival));
            }
        }
        for engine in [SimEngine::PerCycle, SimEngine::EventDriven] {
            let mut cfg = DramConfig::with_ranks(ranks.0, ranks.1);
            cfg.engine = engine;
            cfg.refresh = refresh;
            cfg.read_queue = queue;
            cfg.write_queue = queue;
            cfg.stall_iterations = cfg.timing.t_rfc + cfg.timing.t_refi + 1;
            if wedged {
                wedge(&mut cfg);
            }
            let bulk = intake(&cfg, &staged, &reads, false);
            let streamed = intake(&cfg, &staged, &reads, true);
            if wedged {
                let stalled = matches!(
                    bulk.result,
                    Err(SimError::Stalled { pending, .. }) if pending == raw.len()
                );
                prop_assert!(stalled, "{engine:?}: {:?}", bulk.result);
            } else {
                let completed = bulk.result.as_ref().map(Vec::len);
                prop_assert_eq!(completed, Ok(raw.len()));
            }
            prop_assert_eq!(bulk, streamed, "{:?}", engine);
        }
    }
}
