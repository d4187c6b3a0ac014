//! The resilience experiment: availability and goodput-under-SLO through
//! injected faults, replicated vs unreplicated placement, hedging on/off.

use super::{ExperimentResult, Scale};
use crate::render::{f2, TextTable};
use crate::serving::fleet::{resilience_sweep, Fleet, ResilienceArm, ResilienceSpec};
use crate::serving::{ArrivalProcess, QueryShape};
use recnmp_types::units::cycles_to_us;

const SEED: u64 = 0x5e5111e0;

/// A run's goodput must keep at least this fraction of its pre-fault
/// rate through the fault window to count as sustained — the same bar
/// the CI verdict and the acceptance test enforce.
const SUSTAIN_FRACTION: f64 = 0.90;

/// The SLO deadline is this multiple of the fault-free replicated
/// configuration's p99 — generous enough that a healthy fleet never
/// sheds, tight enough that a collapsed one visibly misses it.
const DEADLINE_P99_MULTIPLE: u64 = 3;

fn shape(scale: Scale) -> QueryShape {
    match scale {
        Scale::Quick => QueryShape::new(12, 2, 6)
            .with_table_skew(1.2)
            .with_table_sampling(3),
        Scale::Full => QueryShape::new(24, 4, 8)
            .with_table_skew(1.2)
            .with_table_sampling(4),
    }
}

/// The resilience workload at `nodes` reference nodes: 40,000 qps per
/// node, Zipf-1.2 sampled-table queries. `serve_sweep --resilience`
/// sweeps this same spec at 4 nodes, so the figure and
/// `BENCH_resilience.json` tell one story.
pub fn reference_spec(scale: Scale, nodes: usize) -> ResilienceSpec {
    ResilienceSpec {
        process: ArrivalProcess::Poisson,
        qps: 40_000.0 * nodes as f64,
        queries: scale.scaled(64, 256),
        shape: shape(scale),
        seed: SEED,
        deadline_p99_multiple: DEADLINE_P99_MULTIPLE,
        sustain_fraction: SUSTAIN_FRACTION,
        degrade_multiplier: 16,
    }
}

/// Fleet resilience (our resilience figure): a reference fleet serving a
/// skewed sampled-table workload through escalating injected faults —
/// none, a mid-horizon node crash, and the crash plus a stuck-at-slow
/// channel on a survivor — under an SLO (deadline =
/// 3x the fault-free p99), bounded retries and optional p95 hedging.
///
/// Four arms cross the two placement flavors with hedging on/off:
///
/// * **fleet-replicated(all)** — every table is replicated onto every
///   node, so the crash triggers failover instead of failure;
/// * **fleet-sharded** — every table has one home, so tables on the
///   crashed node take their queries down with them.
///
/// The claim the acceptance test enforces: through the node crash, the
/// replicated+hedged arm sustains at least
/// [`SUSTAIN_FRACTION`] of its pre-fault goodput-under-SLO, while
/// unreplicated placement collapses.
pub(super) fn fig_resilience(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig_resilience",
        "Fleet resilience: availability and goodput-under-SLO through injected faults",
    );
    let nodes = 4;
    let spec = reference_spec(scale, nodes);
    let mut make = move || Fleet::reference(nodes);
    let sweep = resilience_sweep(&mut make, &spec).expect("resilience sweep");

    let mut table = TextTable::new(
        format!(
            "{nodes} reference 4-channel nodes, {} queries at {:.0} qps, \
             node {} crashes at cycle {}, SLO deadline {} cycles",
            spec.queries, spec.qps, sweep.crashed_node, sweep.crash_at, sweep.deadline
        ),
        &[
            "faults",
            "placement",
            "hedge",
            "avail",
            "pre-slo",
            "post-slo",
            "sustained",
            "failover",
            "retry",
            "hedges",
            "rej",
            "shed",
            "fail",
        ],
    );
    for arm in &sweep.arms {
        table.push_row(vec![
            arm.faults.to_string(),
            arm.placement.to_string(),
            if arm.hedged { "p95" } else { "off" }.to_string(),
            f2(arm.availability),
            format!("{:.1}%", 100.0 * arm.pre_goodput),
            format!("{:.1}%", 100.0 * arm.post_goodput),
            if arm.sustained { "yes" } else { "no" }.to_string(),
            arm.report.report.failovers.to_string(),
            arm.report.report.retries.to_string(),
            arm.report.report.hedges.to_string(),
            arm.report.report.queries_rejected.to_string(),
            arm.report.report.queries_shed.to_string(),
            arm.report.report.queries_failed.to_string(),
        ]);
    }
    result.tables.push(table);

    result.notes.push(format!(
        "SLO deadline {} cycles ({:.1} us) = {DEADLINE_P99_MULTIPLE}x the fault-free \
         replicated p99 ({} cycles); node {} crashes at cycle {} \
         (mid-horizon); goodput = fraction of offered queries completing within the \
         deadline, windowed before vs after the crash cycle",
        sweep.deadline,
        cycles_to_us(sweep.deadline),
        sweep.baseline_p99,
        sweep.crashed_node,
        sweep.crash_at,
    ));
    let verdict = |arm: &ResilienceArm| {
        if arm.sustained {
            "sustained"
        } else {
            "collapsed"
        }
    };
    result.notes.push(format!(
        "resilience verdict: through the node crash, replicated+hedged keeps {:.1}% of its \
         pre-fault goodput ({}), unreplicated keeps {:.1}% ({}) — replication turns the \
         dead node's tables into failover sets while sharding loses every query that \
         touches them",
        100.0 * sweep.verdict_arm().goodput_ratio(),
        verdict(sweep.verdict_arm()),
        100.0 * sweep.verdict_baseline().goodput_ratio(),
        verdict(sweep.verdict_baseline()),
    ));
    result.notes.push(
        "Faults inject deterministically at scheduled sim-cycles: a crashed node fails \
         over (first discovery pays a re-dispatch penalty), a degraded channel multiplies \
         its service time, and every arm runs bounded exponential-backoff retries with \
         admission control and deadline shedding under the SLO."
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(
        r: &'a ExperimentResult,
        faults: &str,
        placement: &str,
        hedge: &str,
    ) -> &'a Vec<String> {
        r.tables[0]
            .rows
            .iter()
            .find(|row| row[0] == faults && row[1] == placement && row[2] == hedge)
            .expect("arm row present")
    }

    #[test]
    fn replicated_hedged_sustains_the_crash_and_sharded_collapses() {
        // The acceptance claim, enforced: through a mid-sweep node
        // crash, replicated+hedged keeps >= 90% of its pre-fault goodput
        // under the SLO while unreplicated placement does not.
        let r = fig_resilience(Scale::Quick);
        assert_eq!(row(&r, "crash", "fleet-replicated", "p95")[6], "yes");
        assert_eq!(row(&r, "crash", "fleet-sharded", "off")[6], "no");
    }

    #[test]
    fn zero_faults_complete_everything_everywhere() {
        let r = fig_resilience(Scale::Quick);
        for arm_row in r.tables[0].rows.iter().filter(|row| row[0] == "none") {
            assert_eq!(arm_row[3], "1.00", "fault-free availability");
            assert_eq!(arm_row[12], "0", "fault-free runs fail nothing");
        }
    }

    #[test]
    fn crash_level_counts_failovers_or_failures() {
        let r = fig_resilience(Scale::Quick);
        let repl = row(&r, "crash", "fleet-replicated", "off");
        let shard = row(&r, "crash", "fleet-sharded", "off");
        assert!(
            repl[7].parse::<u64>().unwrap() > 0,
            "replicated crash arm must fail over"
        );
        assert!(
            shard[12].parse::<u64>().unwrap() > 0,
            "sharded crash arm must fail queries"
        );
    }

    #[test]
    fn resilience_experiment_is_deterministic() {
        let a = fig_resilience(Scale::Quick);
        let b = fig_resilience(Scale::Quick);
        assert_eq!(a, b);
    }
}
