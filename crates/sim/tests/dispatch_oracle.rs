//! An independent oracle for single-node dispatch: a fake multi-server
//! backend whose service time is a fixed function of a trace's lookups
//! and tables, and a from-the-definitions recomputation of every schedule:
//!
//! * queued FIFO, round-robin and least-outstanding dispatch, where each
//!   query runs whole on one server;
//! * sharded scatter/gather, where each batch goes to the least-backlogged
//!   channel holding its table, every shard queues on its channel, and the
//!   query completes at its slowest shard plus the host gather merge.
//!
//! `run` must match the oracle exactly: the server every trace ran on
//! and every completion cycle.

use recnmp_backend::{PlacementPlan, PlacementPolicy, RunReport, SlsBackend, SlsTrace, TableUsage};
use recnmp_sim::serving::{
    run, DispatchPolicy, GatherCost, QueryShape, QueryStream, ResilienceConfig, ServingConfig,
    ServingMode, ShardedDispatch,
};
use recnmp_types::{Cycle, SimError};

const SERVERS: usize = 3;

/// Light load, near saturation, and overload.
const RATES: [f64; 3] = [200_000.0, 1_400_000.0, 4_000_000.0];

/// Service cycles of a trace carrying `lookups` lookups whose batches'
/// table indices sum to `tables`. Queries of one shape carry equal
/// lookups, so the table term is what varies their service times.
fn service(lookups: u64, tables: u64) -> Cycle {
    700 + 45 * lookups + 300 * tables
}

/// The sum of the table indices of `trace`'s batches.
fn table_sum(trace: &SlsTrace) -> u64 {
    trace.batches().map(|b| b.table().index() as u64).sum()
}

/// `SERVERS` identical servers, each serving a trace in `service` cycles,
/// logging which server ran each trace.
struct FakeServers {
    log: Vec<(usize, u64)>,
}

impl SlsBackend for FakeServers {
    fn name(&self) -> &str {
        "fake-servers"
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        self.try_run_on(0, trace)
    }

    fn server_count(&self) -> usize {
        SERVERS
    }

    fn try_run_on(&mut self, server: usize, trace: &SlsTrace) -> Result<RunReport, SimError> {
        assert!(server < SERVERS);
        let lookups = trace.total_lookups();
        self.log.push((server, lookups));
        let mut report = RunReport::for_system("fake-servers");
        report.total_cycles = service(lookups, table_sum(trace));
        Ok(report)
    }
}

/// What the oracle expects of one run.
#[derive(Debug, PartialEq)]
struct Schedule {
    /// (server, lookups) of every trace run, in dispatch order.
    runs: Vec<(usize, u64)>,
    completions: Vec<Cycle>,
}

/// Serves `mode` on a fresh fake backend: the arrival cycles `run`
/// drew, and what it ran.
fn served(
    mode: ServingMode,
    qps: f64,
    queries: usize,
    shape: QueryShape,
    seed: u64,
) -> (Vec<Cycle>, Schedule) {
    let cfg = ServingConfig {
        mode,
        ..ServingConfig::poisson(qps, queries, shape, seed)
    };
    let mut backend = FakeServers { log: Vec::new() };
    let report =
        run(&mut [&mut backend], &cfg, &ResilienceConfig::zero()).expect("fake-server run");
    assert_eq!(report.completed(), queries, "{mode} at {qps} qps");
    let schedule = Schedule {
        runs: backend.log,
        completions: report.completions,
    };
    (report.arrivals, schedule)
}

/// Recomputes a queued run straight from the policy definitions (ties to
/// the lowest server index).
fn queued_oracle(policy: DispatchPolicy, arrivals: &[Cycle], queries: &[SlsTrace]) -> Schedule {
    let mut free = [0 as Cycle; SERVERS];
    // (completion, lookups) of every query each server has run.
    let mut history: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); SERVERS];
    let mut schedule = Schedule {
        runs: Vec::new(),
        completions: Vec::new(),
    };
    for (q, (&at, query)) in arrivals.iter().zip(queries).enumerate() {
        let work = query.total_lookups();
        let outstanding = |s: usize| -> u64 {
            history[s]
                .iter()
                .filter(|(done, _)| *done > at)
                .map(|(_, l)| l)
                .sum()
        };
        let server = match policy {
            DispatchPolicy::FifoSingleQueue => (0..SERVERS).min_by_key(|&s| (free[s], s)),
            DispatchPolicy::RoundRobin => Some(q % SERVERS),
            DispatchPolicy::LeastOutstanding => (0..SERVERS).min_by_key(|&s| (outstanding(s), s)),
        }
        .unwrap();
        let done = at.max(free[server]) + service(work, table_sum(query));
        free[server] = done;
        history[server].push((done, work));
        schedule.runs.push((server, work));
        schedule.completions.push(done);
    }
    schedule
}

/// Recomputes a sharded run: each batch goes to the least-backlogged
/// channel of `plan` holding its table (ties to the lowest index; no
/// clock moves while a query scatters), each channel's shard queues
/// behind that channel's earlier work, and the query completes at its
/// slowest shard plus `gather.base + gather.per_shard × shards`.
fn sharded_oracle(
    plan: &PlacementPlan,
    gather: GatherCost,
    arrivals: &[Cycle],
    queries: &[SlsTrace],
) -> Schedule {
    let mut free = [0 as Cycle; SERVERS];
    let mut schedule = Schedule {
        runs: Vec::new(),
        completions: Vec::new(),
    };
    for (&at, query) in arrivals.iter().zip(queries) {
        // (lookups, table sum) of each channel's shard.
        let mut shards: [Option<(u64, u64)>; SERVERS] = [None; SERVERS];
        for batch in query.batches() {
            let table = batch.table();
            let channel = (plan.replicas(table).iter().copied())
                .min_by_key(|&c| (free[c], c))
                .expect("every table is placed");
            let shard = shards[channel].get_or_insert((0, 0));
            shard.0 += batch.lookups();
            shard.1 += table.index() as u64;
        }
        let mut slowest = at;
        let mut count = 0;
        for (channel, shard) in shards.iter().enumerate() {
            let Some((lookups, tables)) = *shard else {
                continue;
            };
            let done = at.max(free[channel]) + service(lookups, tables);
            free[channel] = done;
            slowest = slowest.max(done);
            count += 1;
            schedule.runs.push((channel, lookups));
        }
        let merge = gather.base + gather.per_shard * count;
        schedule.completions.push(slowest + merge);
    }
    schedule
}

#[test]
fn queued_dispatch_matches_the_policy_oracle() {
    let shape = QueryShape::new(3, 2, 4)
        .with_table_skew(1.0)
        .with_table_sampling(2);
    let queries = 60;
    let seed = 0x0_5eed;
    let traces = QueryStream::new(shape, seed).take_queries(queries);
    let mut policies_differ = false;
    for qps in RATES {
        let mut schedules = Vec::new();
        for policy in DispatchPolicy::ALL {
            let (arrivals, got) = served(ServingMode::Queued(policy), qps, queries, shape, seed);
            let want = queued_oracle(policy, &arrivals, &traces);
            assert_eq!(got, want, "{policy} at {qps} qps");
            schedules.push(want.runs);
        }
        policies_differ |= schedules[0] != schedules[1] && schedules[1] != schedules[2];
    }
    // The oracle is only a check if the three rules actually disagree.
    assert!(policies_differ, "no load point separated the policies");
}

#[test]
fn sharded_dispatch_matches_the_scatter_gather_oracle() {
    let shape = QueryShape::new(6, 2, 4)
        .with_table_skew(1.0)
        .with_table_sampling(3);
    let queries = 60;
    let seed = 0x0_5eed;
    let traces = QueryStream::new(shape, seed).take_queries(queries);
    let usage = TableUsage::from_traces(&traces);
    let gather = GatherCost::new(90, 13);
    let placements = [
        PlacementPolicy::Hash,
        PlacementPolicy::CapacityGreedy,
        PlacementPolicy::FrequencyBalanced { replicate: 0 },
        PlacementPolicy::FrequencyBalanced { replicate: 2 },
    ];
    let mut multi_shard = false;
    let mut replica_choice = false;
    for qps in RATES {
        for placement in placements {
            let plan = PlacementPlan::build(SERVERS, None, &usage, placement).expect("plan");
            let mut dispatch = ShardedDispatch::new(placement);
            dispatch.gather = gather;
            let mode = ServingMode::Sharded(dispatch);
            let (arrivals, got) = served(mode, qps, queries, shape, seed);
            let want = sharded_oracle(&plan, gather, &arrivals, &traces);
            assert_eq!(got, want, "{} at {qps} qps", placement.name());
            multi_shard |= want.runs.len() > queries;
            replica_choice |= plan.assignments().any(|(_, reps)| reps.len() > 1);
        }
    }
    // The oracle is only a check if queries really scatter and some
    // table really has a replica to choose from.
    assert!(multi_shard, "no query spanned two channels");
    assert!(replica_choice, "no table was replicated");
}
