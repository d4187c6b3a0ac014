//! Pins the DRAM engine's work on the host baseline as perfbench's
//! `replay` workload runs it (input 0 at seed 7, a fresh 2 x 2 channel).
//! That run is most of a `replay` pass, so a change meant to make the
//! engine cheaper must leave every one of these counters exactly where
//! it is: the same decisions in the same number of loop iterations.

use recnmp_backend::SlsBackend;
use recnmp_baselines::HostBaseline;
use recnmp_bench::replay_trace;

#[test]
fn host_replay_work_is_pinned() {
    let trace = replay_trace(7);
    let mut host = HostBaseline::new(2, 2).expect("config");
    let report = host.try_run(&trace).expect("host replay");
    let d = &report.dram;
    assert_eq!(
        (
            host.dram_loop_iterations(),
            report.total_cycles,
            d.acts,
            d.pres,
            d.refs
        ),
        (966_030, 1_492_631, 208_059, 207_995, 632)
    );
    assert_eq!((d.reads, d.cmd_bus_busy), (327_680, 744_366));
}
