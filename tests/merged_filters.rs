//! Joint analysis across filters: two computations traced by two
//! different filters, merged into one trace for a whole-system view
//! (§3.4 allows any filter placement; §3.3 has one filter per
//! computation as the usual arrangement).

use dpm::crates::analysis::{merge_logs, Analysis, Trace};
use dpm::Simulation;

#[test]
fn two_filters_logs_merge_into_one_coherent_trace() {
    let sim = Simulation::builder()
        .machines(["console", "red", "green"])
        .seed(83)
        .build();
    let mut control = sim.controller("console").expect("controller");
    control.exec("filter fa console");
    control.exec("filter fb console");
    control.exec("newjob one fa");
    control.exec("newjob two fb");
    control.exec("addprocess one red /bin/A green 1820 3");
    control.exec("addprocess one green /bin/B 1820");
    control.exec("addprocess two red /bin/A green 1821 3");
    control.exec("addprocess two green /bin/B 1821");
    control.exec("setflags one send receive accept connect");
    control.exec("setflags two send receive accept connect");
    control.exec("startjob one");
    control.exec("startjob two");
    assert!(control.wait_job("one", 60_000));
    assert!(control.wait_job("two", 60_000));
    control.exec("removejob one");
    control.exec("removejob two");

    let log_a = sim.getlog(&mut control, "fa");
    let log_b = sim.getlog(&mut control, "fb");
    let t_a = Trace::parse(&log_a);
    let t_b = Trace::parse(&log_b);
    assert!(!t_a.is_empty() && !t_b.is_empty());

    let merged = merge_logs([log_a.as_str(), log_b.as_str()]);
    assert_eq!(merged.len(), t_a.len() + t_b.len());

    let joint = Analysis::of_trace(merged);
    // Both computations' connections pair in the joint trace, and each
    // job's conversation still matches in full.
    assert_eq!(
        joint.pairing.connections.len(),
        2,
        "{:?}",
        joint.pairing.connections
    );
    let solo = Analysis::of_log(&log_a);
    assert!(joint.stats.matched >= 2 * solo.stats.matched.min(1));
    // Four application processes in the joint structural view.
    assert_eq!(joint.structure.processes.len(), 4);
    // The joint order is *less* constrained than either half alone:
    // the two computations are concurrent.
    assert!(joint.hb.ordered_fraction() < 1.0);

    control.exec("die");
    sim.shutdown();
}
