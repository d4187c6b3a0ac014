//! An independent oracle for queued dispatch: a fake multi-server
//! backend whose service time is a fixed function of a job's lookups, and
//! a from-the-definitions recomputation of every FIFO, round-robin and
//! least-outstanding schedule — with and without batch coalescing and a
//! queue-depth bound. `serve` must match the oracle exactly: the server
//! every job ran on, every completion cycle and every rejection.

use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_sim::serving::{
    serve, ArrivalProcess, Coalescing, DispatchPolicy, QueryShape, QueryStream, ServingConfig,
    ServingMode,
};
use recnmp_types::{Cycle, SimError};

const SERVERS: usize = 3;

/// Service cycles of a job carrying `lookups` lookups.
fn service(lookups: u64) -> Cycle {
    700 + 45 * lookups
}

/// `SERVERS` identical servers, each serving a trace in `service(lookups)`
/// cycles, logging which server ran each trace.
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
        report.total_cycles = service(lookups);
        Ok(report)
    }
}

/// What the oracle expects of one run.
#[derive(Debug, PartialEq)]
struct Schedule {
    /// (server, lookups) of every admitted job, in dispatch order.
    runs: Vec<(usize, u64)>,
    completions: Vec<Cycle>,
    rejected: Vec<usize>,
}

/// Coalesces queries by the definition: a group opens at its first query
/// and closes when it holds `max_queries` queries or its first query has
/// waited `max_wait` cycles; a full group leaves with its last query, a
/// timed-out one at the deadline.
fn groups(arrivals: &[Cycle], coalescing: Option<(usize, Cycle)>) -> Vec<(Cycle, Vec<usize>)> {
    let Some((max_queries, max_wait)) = coalescing else {
        return arrivals
            .iter()
            .enumerate()
            .map(|(q, &t)| (t, vec![q]))
            .collect();
    };
    let mut out = Vec::new();
    let mut q = 0;
    while q < arrivals.len() {
        let deadline = arrivals[q] + max_wait;
        let mut members = vec![q];
        q += 1;
        while q < arrivals.len() && members.len() < max_queries && arrivals[q] <= deadline {
            members.push(q);
            q += 1;
        }
        let leave = if members.len() == max_queries {
            arrivals[*members.last().unwrap()]
        } else {
            deadline
        };
        out.push((leave, members));
    }
    out
}

/// Recomputes a queued run straight from the policy definitions (ties to
/// the lowest server index).
fn oracle(
    policy: DispatchPolicy,
    arrivals: &[Cycle],
    lookups: &[u64],
    coalescing: Option<(usize, Cycle)>,
    depth: Option<usize>,
) -> Schedule {
    let mut free = [0 as Cycle; SERVERS];
    // (completion, lookups) of every job each server has run.
    let mut history: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); SERVERS];
    let mut admitted_done: Vec<Cycle> = Vec::new();
    let mut schedule = Schedule {
        runs: Vec::new(),
        completions: vec![0; arrivals.len()],
        rejected: Vec::new(),
    };
    for (job, (at, members)) in groups(arrivals, coalescing).into_iter().enumerate() {
        let in_flight = admitted_done.iter().filter(|&&done| done > at).count();
        if depth.is_some_and(|bound| in_flight >= bound) {
            for &q in &members {
                schedule.completions[q] = at;
                schedule.rejected.push(q);
            }
            continue;
        }
        let outstanding = |s: usize| -> u64 {
            history[s]
                .iter()
                .filter(|(done, _)| *done > at)
                .map(|(_, l)| l)
                .sum()
        };
        let server = match policy {
            DispatchPolicy::FifoSingleQueue => (0..SERVERS).min_by_key(|&s| (free[s], s)),
            DispatchPolicy::RoundRobin => Some(job % SERVERS),
            DispatchPolicy::LeastOutstanding => (0..SERVERS).min_by_key(|&s| (outstanding(s), s)),
        }
        .unwrap();
        let work: u64 = members.iter().map(|&q| lookups[q]).sum();
        let done = at.max(free[server]) + service(work);
        free[server] = done;
        history[server].push((done, work));
        admitted_done.push(done);
        schedule.runs.push((server, work));
        for &q in &members {
            schedule.completions[q] = done;
        }
    }
    schedule.rejected.sort_unstable();
    schedule
}

#[test]
fn queued_dispatch_matches_the_policy_oracle() {
    let shape = QueryShape::new(3, 2, 4)
        .with_table_skew(1.0)
        .with_table_sampling(2);
    let queries = 60;
    let seed = 0x0_5eed;
    let lookups: Vec<u64> = QueryStream::new(shape, seed)
        .take_queries(queries)
        .iter()
        .map(SlsTrace::total_lookups)
        .collect();
    let mut policies_differ = false;
    // Light load, near saturation, and overload.
    for qps in [200_000.0, 1_400_000.0, 4_000_000.0] {
        for coalescing in [None, Some((3, 3_000))] {
            for depth in [None, Some(2), Some(4)] {
                let mut schedules = Vec::new();
                for policy in DispatchPolicy::ALL {
                    let cfg = ServingConfig {
                        process: ArrivalProcess::Poisson,
                        qps,
                        queries,
                        shape,
                        mode: ServingMode::Queued(policy),
                        coalescing: coalescing.map(|(n, wait)| Coalescing::new(n, wait)),
                        max_queue_depth: depth,
                        seed,
                    };
                    let mut backend = FakeServers { log: Vec::new() };
                    let report = serve(&mut backend, &cfg).expect("queued run");
                    let want = oracle(policy, &report.arrivals, &lookups, coalescing, depth);
                    let got = Schedule {
                        runs: backend.log,
                        completions: report.completions,
                        rejected: report.rejected,
                    };
                    assert_eq!(
                        got, want,
                        "{policy} at {qps} qps, coalescing {coalescing:?}, depth {depth:?}"
                    );
                    schedules.push(want.runs);
                }
                policies_differ |= schedules[0] != schedules[1] && schedules[1] != schedules[2];
            }
        }
    }
    // The oracle is only a check if the three rules actually disagree.
    assert!(policies_differ, "no load point separated the policies");
}
