//! Two independent measurement sessions sharing one cluster: separate
//! controllers, separate filters, one meterdaemon per machine serving
//! both — the multi-user situation §3.5.5's protection section
//! assumes. Plus the dependent-controllers case: an owner and a
//! standby sharing one control log, where killing the owner mid-job
//! hands the session to the standby.

use std::sync::Arc;

use dpm::crates::chaos::{crash_controller, invariants};
use dpm::crates::controlplane::JobTable;
use dpm::crates::logstore::{Backend, MemBackend, StoreReader};
use dpm::{ProcState, Simulation, Uid};

#[test]
fn two_controllers_measure_independently() {
    let sim = Simulation::builder()
        .machines(["term1", "term2", "red", "green"])
        .seed(61)
        .build();

    let mut alice = sim.controller_as("term1", Uid(100)).expect("alice");
    let mut bob = sim.controller_as("term2", Uid(200)).expect("bob");

    alice.exec("filter fa red");
    bob.exec("filter fb green");

    alice.exec("newjob a-job");
    bob.exec("newjob b-job");

    // Both run the A/B pair, on distinct ports.
    alice.exec("addprocess a-job red /bin/A green 1810 3");
    alice.exec("addprocess a-job green /bin/B 1810");
    bob.exec("addprocess b-job red /bin/A green 1811 3");
    bob.exec("addprocess b-job green /bin/B 1811");

    alice.exec("setflags a-job send receive");
    bob.exec("setflags b-job accept connect");

    alice.exec("startjob a-job");
    bob.exec("startjob b-job");

    assert!(alice.wait_job("a-job", 60_000), "alice's job finished");
    assert!(bob.wait_job("b-job", 60_000), "bob's job finished");

    alice.exec("removejob a-job");
    bob.exec("removejob b-job");

    // Each filter saw only its own job's events, with its own flags.
    let a = sim.analyze_log(&mut alice, "fa");
    let b = sim.analyze_log(&mut bob, "fb");
    assert!(!a.trace.is_empty() && !b.trace.is_empty());
    for e in &a.trace.events {
        assert!(
            matches!(e.kind.name(), "send" | "receive"),
            "alice flagged only send/receive, saw {}",
            e.kind.name()
        );
    }
    for e in &b.trace.events {
        assert!(
            matches!(e.kind.name(), "accept" | "connect"),
            "bob flagged only accept/connect, saw {}",
            e.kind.name()
        );
    }
    // No cross-talk: alice's processes are not in bob's trace. The A
    // processes differ by pid even though both ran on red.
    let a_pids: Vec<u32> = a.trace.processes().iter().map(|p| p.pid).collect();
    let b_pids: Vec<u32> = b.trace.processes().iter().map(|p| p.pid).collect();
    for p in &a_pids {
        assert!(!b_pids.contains(p), "pid {p} leaked between sessions");
    }

    // Each controller's transcript mentions only its own job.
    assert!(alice.transcript().contains("a-job"));
    assert!(!alice.transcript().contains("b-job"));
    assert!(bob.transcript().contains("b-job"));
    assert!(!bob.transcript().contains("a-job"));

    alice.exec("die");
    bob.exec("die");
    sim.shutdown();
}

/// Controller A is killed mid-job; standby B replays the shared
/// control log, waits out A's lease, and finishes the session — same
/// job id, no record lost, and the replayed table agrees with B's
/// in-memory view.
#[test]
fn standby_takes_over_a_killed_controllers_job() {
    let backend = Arc::new(MemBackend::new());
    let sim = Simulation::builder()
        .machines(["term1", "term2", "red", "green"])
        .seed(67)
        .build();

    let mut a = sim.controller_as("term1", Uid(100)).expect("controller A");
    a.enable_control_log(backend.clone() as Arc<dyn Backend>, "control");
    a.exec("filter f1 red");
    a.exec("newjob pair");
    a.exec("addprocess pair red /bin/A green 1812 3");
    a.exec("addprocess pair green /bin/B 1812");
    a.exec("setflags pair send receive");
    a.exec("startjob pair");
    let owner = a.owner_id();

    // The owner dies mid-job: uncatchable, no goodbye record.
    assert!(!crash_controller(sim.cluster(), "term1").is_empty());

    let mut b = sim.controller_as("term2", Uid(100)).expect("controller B");
    let adopted = b.adopt_from(backend.clone() as Arc<dyn Backend>, "control");
    assert_eq!(adopted, vec!["pair".to_owned()]);
    assert_ne!(b.owner_id(), owner, "a different controller owns it now");

    // B's transcript proves the takeover: the *same* job id, adopted,
    // then driven to completion exactly as A would have.
    assert!(
        b.transcript()
            .contains("job 'pair' adopted (owner now term2:"),
        "transcript: {}",
        b.transcript()
    );
    assert!(b.wait_job("pair", 60_000), "B finished A's job");
    for p in &b.job("pair").expect("adopted job").procs {
        assert_eq!(
            p.state,
            ProcState::Killed,
            "{} reached terminal state",
            p.name
        );
    }

    // The replayed table is B's own table: same job, same filter
    // binding, same processes, every one terminal in the log too.
    let reader = StoreReader::load(backend.as_ref(), "control");
    let table = JobTable::from_store(&reader);
    assert_eq!(table, *b.table(), "B's state is the fold of the log");
    let jr = &table.jobs["pair"];
    assert_eq!(jr.filter, "f1");
    assert_eq!(jr.procs.len(), 2);
    assert!(jr.procs.iter().all(|p| p.state == ProcState::Killed));
    assert_eq!(
        jr.lease.as_ref().expect("leased").owner,
        b.owner_id(),
        "the log records B as the owner"
    );
    invariants::check_control_plane(&reader).expect("failover invariants hold");

    // The trace renders through B even though A created the filter:
    // the descriptions were rebuilt from the control log.
    let analysis = sim.analyze_log(&mut b, "f1");
    assert!(!analysis.trace.is_empty(), "adopted session still traces");

    b.exec("removejob pair");
    b.exec("die");
    sim.shutdown();
}
