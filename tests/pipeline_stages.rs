//! Fig. 2.1 end to end: metering → filtering → analysis, with real
//! selection rules doing the reduction, over the staged pipeline
//! workload.

use dpm::crates::analysis::{Analysis, EventKind};
use dpm::{Controller, Simulation};

/// Runs the staged pipeline under `templates` to completion; the
/// session is left open for the caller to read the log `f1` kept.
fn run_session(templates: &str) -> (Simulation, Controller) {
    let sim = Simulation::builder()
        .machines(["yellow", "a", "b", "c"])
        .seed(9)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    sim.cluster()
        .machine("yellow")
        .unwrap()
        .fs()
        .write("templates", templates.as_bytes().to_vec());
    control.exec("filter f1 yellow /bin/filter descriptions templates");
    control.exec("newjob pipe");
    let hosts = ["a", "b", "c"];
    for (i, host) in hosts.iter().enumerate() {
        let next = if i + 1 < hosts.len() {
            hosts[i + 1]
        } else {
            "-"
        };
        control.exec(&format!(
            "addprocess pipe {host} /bin/stage {i} 3 {next} 12 1"
        ));
    }
    control.exec("setflags pipe all");
    control.exec("startjob pipe");
    assert!(control.wait_job("pipe", 60_000), "pipeline completed");
    control.exec("removejob pipe");
    (sim, control)
}

fn run(templates: &str) -> Analysis {
    let (sim, mut control) = run_session(templates);
    let a = sim.analyze_log(&mut control, "f1");
    control.exec("die");
    sim.shutdown();
    a
}

#[test]
fn unfiltered_pipeline_trace_shows_three_stages() {
    let a = run("");
    let procs = a.structure.processes.len();
    assert_eq!(
        procs, 3,
        "three stages in the trace: {:?}",
        a.structure.processes
    );
    // Stage 0 → stage 1 → stage 2 communication edges exist.
    assert!(a.structure.edges.len() >= 2, "{:?}", a.structure.edges);
    // Items flow: every inter-stage send was received (streams). The
    // one permissible unmatched send is the sink's final write to its
    // redirected stdout, whose reader (the daemon gateway) is not
    // metered.
    assert!(
        a.pairing.unmatched_sends.len() <= 1,
        "unexpected losses: {:?}",
        a.pairing.unmatched_sends
    );
    // Termination records for all three stages.
    let terms = a
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Term { .. }))
        .count();
    assert_eq!(terms, 3);
}

#[test]
fn selection_rules_reduce_the_trace() {
    // Keep only send events, and discard the pc field from them.
    let a = run("type=1, pc=#*\n");
    assert!(!a.trace.is_empty());
    assert!(
        a.trace
            .events
            .iter()
            .all(|e| matches!(e.kind, EventKind::Send { .. })),
        "only send records survive the template"
    );
}

/// Fig. 3.4's `#` reduction belongs to the text view, wherever it is
/// shown: `getlog` and `tail` print the same reduced lines for a filter
/// created with no `log=` key, while `watch` and `check` read the raw
/// records the store keeps.
#[test]
fn reduction_is_applied_wherever_text_is_shown() {
    let (sim, mut control) = run_session("type=1, pc=#*\n");
    let text = sim.stable_log(&mut control, "f1");
    assert!(!text.is_empty(), "the template keeps the sends");
    for line in text.lines() {
        assert!(line.starts_with("event=send "), "{line}");
        assert!(!line.contains(" pc="), "pc was discarded: {line}");
    }

    // `tail`, first use: everything stored is new, and every line of
    // it is the line `getlog` wrote.
    let out = control.exec("tail f1 n=1000000");
    let (head, lines) = out.split_once('\n').expect("tail prints records");
    let n = text.lines().count();
    assert_eq!(head, format!("tail f1: {n} new record(s)"));
    let tailed: String = lines
        .lines()
        .map(|l| format!("{}\n", l.strip_prefix("  ").expect("indented")))
        .collect();
    assert_eq!(tailed, text, "tail and getlog render one text");

    // `watch` counts the raw records `tail` fed the live trace, and
    // `check` folds over them rather than refusing the filter.
    let out = control.exec("watch f1");
    assert!(out.contains(&format!("records={n} ")), "{out}");
    let out = control.exec("check f1 mutex");
    assert!(!out.contains("cannot retrieve"), "{out}");
    assert!(!out.is_empty(), "check reported: {out}");

    control.exec("die");
    sim.shutdown();
}

#[test]
fn parallelism_analysis_sees_concurrent_stages() {
    let a = run("");
    // Once the pipe fills, stages work concurrently; busy time must
    // exceed what a single serial timeline would allow being *very*
    // conservative (the measure is 10ms-granular).
    let r = &a.parallelism;
    assert!(r.total_busy_ms > 0, "stages charged CPU");
    assert!(r.max_span_ms > 0);
    assert!(r.speedup() > 0.0);
}
