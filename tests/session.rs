//! End-to-end reproduction of the Appendix-B measurement session, and
//! checks that the resulting trace has the structure the paper
//! describes (Figs. 4.3–4.6).

use dpm::crates::analysis::{Analysis, EventKind};
use dpm::Simulation;

/// One session shared by every test in this file (sessions are real
/// multi-threaded simulations; no need to run five of them).
fn run_session() -> (String, Analysis) {
    static SESSION: std::sync::OnceLock<(String, Analysis)> = std::sync::OnceLock::new();
    SESSION.get_or_init(run_session_uncached).clone()
}

fn run_session_uncached() -> (String, Analysis) {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(42)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 blue");
    control.exec("newjob foo");
    control.exec("addprocess foo red /bin/A green");
    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 60_000), "job foo completed");
    control.exec("removejob foo");
    control.exec("getlog f1 trace");
    // Analyze a *drained* copy: the transcript's `getlog` above may
    // run before f1 has read its connections to their end.
    let analysis = Analysis::of_log(&sim.getlog(&mut control, "f1"));
    control.exec("bye");
    assert!(control.is_done());
    let transcript = control.transcript().to_owned();
    sim.shutdown();
    (transcript, analysis)
}

#[test]
fn transcript_matches_appendix_b_shape() {
    let (t, _) = run_session();
    // The prompts and responses of the Appendix-B script.
    assert!(t.contains("<Control> filter f1 blue"), "{t}");
    assert!(t.contains("filter 'f1' ... created: identifier="), "{t}");
    assert!(t.contains("process 'A' ... created: identifier="), "{t}");
    assert!(t.contains("process 'B' ... created: identifier="), "{t}");
    assert!(
        t.contains("new job flags = fork send receive accept connect"),
        "{t}"
    );
    assert!(t.contains("Process 'A' : Flags set"), "{t}");
    assert!(t.contains("Process 'B' : Flags set"), "{t}");
    assert!(t.contains("'A' started."), "{t}");
    assert!(t.contains("'B' started."), "{t}");
    assert!(
        t.contains("DONE: process A in job 'foo' terminated: reason: normal"),
        "{t}"
    );
    assert!(
        t.contains("DONE: process B in job 'foo' terminated: reason: normal"),
        "{t}"
    );
    assert!(t.contains("'A' removed"), "{t}");
    assert!(t.contains("'B' removed"), "{t}");
}

#[test]
fn trace_contains_the_metered_event_kinds_and_only_those() {
    let (_, a) = run_session();
    assert!(!a.trace.is_empty(), "trace has events");
    let mut kinds: Vec<&str> = a.trace.events.iter().map(|e| e.kind.name()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    // Flags were send receive fork accept connect — so no socket,
    // dup, destsocket, receivecall, or termproc records.
    for k in &kinds {
        assert!(
            ["send", "receive", "fork", "accept", "connect"].contains(k),
            "unexpected event kind {k}"
        );
    }
    for want in ["send", "receive", "fork", "accept", "connect"] {
        assert!(kinds.contains(&want), "missing event kind {want}");
    }
}

#[test]
fn connection_pairing_recovers_a_to_b() {
    let (_, a) = run_session();
    assert_eq!(a.pairing.connections.len(), 1, "one A→B connection");
    let c = &a.pairing.connections[0];
    // A runs on red (machine 1 in our ordering yellow=0 red=1 …),
    // B on green (machine 2).
    assert_eq!(c.client.0.machine, 1, "connector on red");
    assert_eq!(c.server.0.machine, 2, "acceptor on green");
    // Request/reply traffic flows both ways and all of it matches.
    assert!(a.stats.matched >= 10, "5 rounds × 2 directions matched");
    // Exactly two sends stay unmatched: A's and B's final writes to
    // their redirected standard output. Those travel to the (unmetered)
    // meterdaemon's gateway, so no receive record can exist for them —
    // the monitor is faithfully reporting its own I/O plumbing.
    assert_eq!(
        a.pairing.unmatched_sends.len(),
        2,
        "only the stdout gateway writes are unmatched"
    );
}

#[test]
fn fork_event_records_the_child() {
    let (_, a) = run_session();
    let forks: Vec<_> = a
        .trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Fork { child } => Some((e.proc, child)),
            _ => None,
        })
        .collect();
    assert_eq!(forks.len(), 1, "A forked once");
    let (parent, child) = forks[0];
    assert_ne!(parent.pid, child);
}

#[test]
fn happens_before_orders_the_conversation() {
    let (_, a) = run_session();
    // Every matched message's send precedes its receive, and the
    // whole request/reply conversation is heavily ordered.
    for m in &a.pairing.messages {
        assert!(
            a.hb.precedes(m.send_idx, m.recv_idx),
            "send {} → recv {}",
            m.send_idx,
            m.recv_idx
        );
    }
    assert!(a.hb.ordered_fraction() > 0.5);
    assert!(a.hb.clock_anomalies(&a.trace).is_empty());
}
