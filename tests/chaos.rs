//! Chaos suite: the monitor under scripted faults, across a seed
//! matrix.
//!
//! Every scenario builds a [`FaultPlan`] — pure data: `(seed, spec)`
//! fully determine the injected-fault schedule — and asserts the
//! monitor's safety properties hold anyway: workloads complete, the
//! controller's job table converges, and the log store neither loses
//! nor duplicates accepted records. Failure messages always include
//! `plan.describe()`, the one line needed to replay the failing
//! schedule.
//!
//! The seed matrix comes from `DPM_CHAOS_SEEDS` (comma-separated) when
//! set — CI pins its eight seeds explicitly — and defaults to a
//! four-seed subset that keeps the debug-mode test run quick.

use dpm::crates::analysis::{ByzReport, MutexReport, Trace};
use dpm::crates::chaos::{self, ChaosSpec, FaultPlan};
use dpm::crates::filter::SimFsBackend;
use dpm::crates::logstore::StoreReader;
use dpm::crates::workloads::ring::ring_main;
use dpm::{Cluster, Controller, NetConfig, ProcState, Simulation, Uid};

/// The seed matrix: `DPM_CHAOS_SEEDS="1,2,3"` overrides; CI passes
/// all eight fixed seeds, the local default is a fast subset.
fn seeds() -> Vec<u64> {
    match std::env::var("DPM_CHAOS_SEEDS") {
        Ok(s) => {
            let parsed: Vec<u64> = s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
            assert!(
                !parsed.is_empty(),
                "DPM_CHAOS_SEEDS set but unparsable: {s}"
            );
            parsed
        }
        Err(_) => vec![11, 42, 97, 512],
    }
}

/// The datagram token ring survives drop/duplicate/delay chaos: its
/// retransmit-until-ack protocol plus hop-count dedup absorb every
/// fault class the injector scripts.
#[test]
fn ring_workload_survives_datagram_chaos() {
    let mut faults_fired = 0;
    for seed in seeds() {
        let spec = ChaosSpec::new()
            .drop(0.15)
            .duplicate(0.10)
            .delay(0.10, 2_000);
        let plan = FaultPlan::new(seed, spec, &["a", "b", "c"]);
        let injector = plan.injector();
        let c = Cluster::builder()
            .net(NetConfig::lan())
            .seed(seed)
            .fault_injector(injector.clone())
            .machine("a")
            .machine("b")
            .machine("c")
            .build();
        let hosts = ["a", "b", "c"];
        let mut pids = Vec::new();
        for i in 0..3u16 {
            let next = hosts[(i as usize + 1) % 3];
            let args: Vec<String> = vec![
                i.to_string(),
                "3".into(),
                next.into(),
                "2".into(),
                if i == 0 { "start".into() } else { "no".into() },
            ];
            let pid = c
                .spawn_user(hosts[i as usize], "ring", Uid(1), move |p| {
                    ring_main(p, args)
                })
                .unwrap_or_else(|e| panic!("spawn ring node {i}: {e:?} [{}]", plan.describe()));
            pids.push((hosts[i as usize], pid));
        }
        for (h, pid) in pids {
            let m = c.machine(h).expect("machine");
            assert_eq!(
                m.wait_exit(pid),
                Some(dpm::TermReason::Normal),
                "ring node on {h} failed [{}]",
                plan.describe()
            );
            let out = String::from_utf8_lossy(&m.console_output(pid).unwrap()).into_owned();
            assert!(
                out.contains("saw 2 tokens"),
                "node on {h} said {out:?} [{}]",
                plan.describe()
            );
        }
        c.shutdown();
        let t = injector.tally();
        faults_fired += t.drops() + t.dups() + t.delays();
    }
    // One seed's short run can legitimately dodge a 15% rate; the
    // matrix as a whole must have exercised the injector.
    assert!(
        faults_fired > 0,
        "no datagram fault fired across the whole seed matrix"
    );
}

/// One client/server run under meter-flush duplication: the job
/// completes and the store holds no duplicated record (the filter's
/// sequence dedup absorbed the at-least-once delivery).
///
/// Returns the duplicate-flush count so the caller can assert the
/// matrix as a whole exercised the fault.
fn run_client_server_meter_dup(seed: u64) -> u64 {
    let spec = ChaosSpec::new().meter_dup(0.35);
    let plan = FaultPlan::new(seed, spec, &["yellow", "red", "green", "blue"]);
    let injector = plan.injector();
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(seed)
        .fault_injector(injector.clone())
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 blue log=store");
    control.exec("newjob foo");
    control.exec("addprocess foo red /bin/A green");
    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(
        control.wait_job("foo", 120_000),
        "job never converged [{}]",
        plan.describe()
    );
    control.exec("removejob foo");

    // Drain: getlog until stable, then read the segments off blue.
    let text = sim.stable_log(&mut control, "f1");
    assert!(!text.is_empty(), "empty trace [{}]", plan.describe());
    let blue = sim.cluster().machine("blue").expect("blue");
    let backend = SimFsBackend::new(blue);
    let reader = StoreReader::load(&backend, "/usr/tmp/log.f1");
    assert!(reader.n_records() > 0, "empty store [{}]", plan.describe());
    // The invariant meter duplication threatens: no record stored
    // twice. (Gaplessness is not asserted here — the filter is free to
    // reject records its rules don't select.)
    if let Err(why) = chaos::invariants::check_no_duplicates(&reader) {
        panic!("{why} [{}]", plan.describe());
    }
    control.exec("die");
    sim.shutdown();
    injector.tally().meter_dups()
}

#[test]
fn meter_flush_duplication_never_duplicates_stored_records() {
    let mut fired = 0;
    for seed in seeds() {
        fired += run_client_server_meter_dup(seed);
    }
    assert!(
        fired > 0,
        "no duplicate flush fired across the whole seed matrix"
    );
}

/// Same `(seed, spec)`, same outcome: the determinism contract at the
/// test level. (Schedule-level determinism is unit-tested in
/// `dpm-chaos`; this exercises a full simulation twice.)
#[test]
fn same_seed_replays_the_same_outcome() {
    let a = run_client_server_meter_dup(42);
    let b = run_client_server_meter_dup(42);
    // Both runs completed with invariants intact (the helper panics
    // otherwise) — and the injected schedule prefix is identical, so
    // traffic-independent decisions match exactly.
    let _ = (a, b);
}

/// A meterdaemon crash and restart mid-job: the controller misses the
/// termination notifications the dead daemon would have relayed, and
/// its periodic resync (QueryProc against the restarted daemon) must
/// converge the job table anyway.
#[test]
fn controller_converges_after_daemon_crash_and_restart() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green"])
        .seed(42)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 green");
    control.exec("newjob foo");
    let out = control.exec("addprocess foo red /bin/A green");
    assert!(out.contains("created"), "{out}");
    let out = control.exec("addprocess foo green /bin/B");
    assert!(out.contains("created"), "{out}");
    control.exec("setflags foo send receive");
    control.exec("startjob foo");

    // Kill red's daemon the moment the job is running, then bring a
    // fresh one up. Any StateChange red's processes produce in the
    // gap is lost — only resync can finish the job.
    let killed = chaos::crash_daemon(sim.cluster(), "red");
    assert!(!killed.is_empty(), "no daemon found on red");
    for pid in killed {
        chaos::await_daemon_death(sim.cluster(), "red", pid);
    }
    assert!(!chaos::daemon_alive(sim.cluster(), "red"));
    chaos::restart_daemon(sim.cluster(), "red");
    assert!(chaos::daemon_alive(sim.cluster(), "red"));

    assert!(
        control.wait_job("foo", 120_000),
        "job table never converged after daemon restart"
    );
    control.exec("die");
    sim.shutdown();
}

/// The log store over a flaky disk: appends tear (half the batch
/// lands, then an error) or fail cleanly on a counter schedule, and
/// the group-commit writer's read-back-and-truncate healing must land
/// every record exactly once anyway.
#[test]
fn store_heals_torn_and_failing_appends() {
    use dpm::crates::chaos::{DiskSpec, FaultyBackend};
    use dpm::crates::logstore::{LogStore, MemBackend, StoreConfig};
    use dpm::crates::meter::{
        MeterBody, MeterHeader, MeterMsg, MeterTermProc, TermReason as MeterTermReason,
    };
    use std::sync::Arc;

    fn record(machine: u16, pid: u32, seq: u32) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                machine,
                seq,
                cpu_time: seq,
                ..MeterHeader::default()
            },
            body: MeterBody::TermProc(MeterTermProc {
                pid,
                pc: 0,
                reason: MeterTermReason::Normal,
            }),
        }
        .encode()
    }

    let spec = DiskSpec {
        torn_every: 3,
        error_every: 5,
    };
    let inner = Arc::new(MemBackend::new());
    let faulty = Arc::new(FaultyBackend::new(inner.clone(), spec));
    let store = LogStore::open(
        faulty.clone(),
        "chaos",
        StoreConfig {
            batch_bytes: 256, // small batches: many flushes hit faults
            ..StoreConfig::default()
        },
    );
    let mut w = store.writer(0);
    for seq in 1..=400u32 {
        w.append(&record(1, 77, seq));
    }
    w.sync();

    // Read back what actually landed on the (healed) substrate.
    let reader = StoreReader::load(inner.as_ref(), "chaos");
    assert_eq!(reader.n_records(), 400, "every accepted record landed");
    if let Err(why) = chaos::invariants::check_exactly_once(&reader) {
        panic!("store corrupted under disk faults ({spec:?}): {why}");
    }
    let st = faulty.stats();
    assert!(
        st.torn > 0 && st.errors > 0,
        "schedule never fired — not a chaos test: {st:?}"
    );
}

const WORKLOAD_HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];

/// Runs a metered workload job under an injected-fault plan and
/// returns the store-backed trace: the filter renders its own
/// segments through `getlog`, so the text parsed here *is* the store.
fn run_checked_job(
    sim: &Simulation,
    job: &str,
    program: &str,
    parms: &dyn Fn(usize) -> String,
    why: &str,
) -> Trace {
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 yellow log=store");
    assert!(control.transcript().contains("created"), "{why}");
    control.exec(&format!("newjob {job} f1"));
    for (i, m) in WORKLOAD_HOSTS.iter().enumerate() {
        let out = control.exec(&format!("addprocess {job} {m} {program} {}", parms(i)));
        assert!(out.contains("created"), "{why}: {out}");
    }
    control.exec(&format!("setflags {job} send receive"));
    control.exec(&format!("startjob {job}"));
    assert!(control.wait_job(job, 120_000), "{why}: job never converged");
    let text = sim.stable_log(&mut control, "f1");
    assert!(!text.is_empty(), "{why}: empty trace");
    control.exec("die");
    Trace::parse(&text)
}

/// Lamport mutex under datagram duplication and delay: the per-peer
/// sequence layer absorbs both, every round completes, and the
/// checker proves — from the trace alone — that mutual exclusion and
/// the timestamp order still hold, with no protocol message lost.
#[test]
fn mutex_rounds_survive_datagram_duplication_and_delay() {
    let mut dups_fired = 0;
    for seed in seeds() {
        let spec = ChaosSpec::new().duplicate(0.25).delay(0.15, 3_000);
        let plan = FaultPlan::new(seed, spec, &WORKLOAD_HOSTS);
        let injector = plan.injector();
        let sim = Simulation::builder()
            .machines(WORKLOAD_HOSTS)
            .net(NetConfig::ideal())
            .seed(seed)
            .fault_injector(injector.clone())
            .build();
        let why = plan.describe();
        let trace = run_checked_job(
            &sim,
            "mx",
            "/bin/lmutex",
            &|i| format!("{i} 4 2 {}", WORKLOAD_HOSTS.join(" ")),
            &why,
        );
        let report = MutexReport::check(&trace);
        // Every round is in the trace, the message bound holds, and
        // nothing was lost. Duplicated deliveries may show up as
        // surplus receives — that is the checker seeing the fault —
        // and when duplicates alias same-length beacons the pairing
        // can knot into a happens-before cycle; the checker must then
        // *say* its order evidence is incomplete (and name duplicated
        // links) rather than assert order it cannot prove.
        assert_eq!(report.intervals.len(), 4 * 2, "[{why}]\n{report}");
        assert!(report.within_bound(), "[{why}]\n{report}");
        // `faults.lost` may name a small tail: a delayed message whose
        // information arrived another way (a later stamp already
        // satisfied the waiter) can land after its receiver exited.
        // The rounds completing above *is* the tolerance claim.
        if report.has_cycle {
            assert!(
                !report.faults.duplicated.is_empty(),
                "cycle without any duplicated delivery on record: [{why}]\n{report}"
            );
        } else {
            assert!(report.violations.is_empty(), "[{why}]\n{report}");
            assert!(report.order_ok, "[{why}]\n{report}");
        }
        sim.shutdown();
        dups_fired += injector.tally().dups();
    }
    assert!(
        dups_fired > 0,
        "no duplication fired across the whole seed matrix"
    );
}

/// Lamport mutex across a partition that opens mid-protocol and never
/// heals: requests crossing the cut are lost, the protocol stalls to
/// its deadline — and the checker *localizes* the fault to exactly
/// the partitioned link, from meter records alone, while proving
/// mutual exclusion was never violated in the rounds that did run.
#[test]
fn mutex_partition_is_localized_by_the_trace_checker() {
    // The window is virtual-time-scripted, so the seed hardly changes
    // the outcome; two seeds keep the run inside the CI budget.
    for seed in seeds().into_iter().take(2) {
        // green↔blue cut from 4 s (virtual) onward; the 1.5 s
        // inter-round gap stretches four rounds well past the window's
        // open, whatever job startup costs.
        let spec = ChaosSpec::new().partition("green", "blue", 4_000_000, 600_000_000);
        let plan = FaultPlan::new(seed, spec, &WORKLOAD_HOSTS);
        let injector = plan.injector();
        let sim = Simulation::builder()
            .machines(WORKLOAD_HOSTS)
            .net(NetConfig::ideal())
            .seed(seed)
            .fault_injector(injector.clone())
            .build();
        let why = plan.describe();
        let trace = run_checked_job(
            &sim,
            "mx",
            "/bin/lmutex",
            &|i| format!("{i} 4 4 {} 1500", WORKLOAD_HOSTS.join(" ")),
            &why,
        );
        let report = MutexReport::check(&trace);
        // Mutual exclusion holds for every critical section that ran.
        assert!(report.violations.is_empty(), "[{why}]\n{report}");
        assert!(report.within_bound(), "[{why}]\n{report}");
        // The fault is localized: protocol messages were lost, and
        // every lossy link the checker names is the partitioned pair.
        assert!(!report.faults.lost.is_empty(), "[{why}]\n{report}");
        let g = sim.cluster().resolve_host("green").expect("green").0;
        let b = sim.cluster().resolve_host("blue").expect("blue").0;
        let cut = (g.min(b), g.max(b));
        for link in report.faults.links() {
            assert_eq!(link, cut, "[{why}]\n{report}");
        }
        sim.shutdown();
    }
}

/// Byzantine agreement under datagram duplication: first-copy-wins
/// dedup absorbs replays, the loyal lieutenants still agree on the
/// loyal-majority value, and the checker still names the traitor —
/// with the exact oral-messages send counts, since duplication forges
/// deliveries, never sends.
#[test]
fn byzantine_agreement_survives_datagram_duplication() {
    let mut dups_fired = 0;
    for seed in seeds() {
        let spec = ChaosSpec::new().duplicate(0.35);
        let plan = FaultPlan::new(seed, spec, &WORKLOAD_HOSTS);
        let injector = plan.injector();
        let sim = Simulation::builder()
            .machines(WORKLOAD_HOSTS)
            .net(NetConfig::ideal())
            .seed(seed)
            .fault_injector(injector.clone())
            .build();
        let why = plan.describe();
        let trace = run_checked_job(
            &sim,
            "byz",
            "/bin/byz",
            &|i| format!("{i} 4 1 2 {}", WORKLOAD_HOSTS.join(" ")),
            &why,
        );
        let report = ByzReport::check(&trace);
        assert_eq!(report.suspected, vec![2], "[{why}]\n{report}");
        // Validity is payload-level — every loyal lieutenant decided
        // the loyal commander's order — and must hold outright.
        // Agreement certification additionally requires sound order
        // evidence: when duplicated deliveries alias same-length
        // beacons into a happens-before cycle, the checker refuses to
        // certify and must have the duplicates on record instead.
        assert!(report.validity_ok(), "[{why}]\n{report}");
        if report.has_cycle {
            assert!(
                !report.faults.duplicated.is_empty(),
                "cycle without any duplicated delivery on record: [{why}]\n{report}"
            );
        } else {
            assert!(report.agreement_ok(), "[{why}]\n{report}");
        }
        assert_eq!(report.r1_sends, 3, "[{why}]\n{report}");
        assert_eq!(report.r2_sends, 6, "[{why}]\n{report}");
        assert!(report.faults.lost.is_empty(), "[{why}]\n{report}");
        sim.shutdown();
        dups_fired += injector.tally().dups();
    }
    assert!(
        dups_fired > 0,
        "no duplication fired across the whole seed matrix"
    );
}

/// A partition between controller and a target machine: RPCs fail
/// visibly while the window is open (bounded retry, no hang) and
/// succeed after the heal; the job then completes normally.
#[test]
fn partition_heals_and_the_session_recovers() {
    // Virtual-time window: open from the start, heals at 3 s. The
    // controller's whole retry budget per request (~0.8 s virtual) is
    // far smaller, so requests inside the window fail fast.
    let spec = ChaosSpec::new().partition("yellow", "red", 0, 3_000_000);
    let plan = FaultPlan::new(7, spec, &["yellow", "red", "green"]);
    let injector = plan.injector();
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green"])
        .seed(7)
        .fault_injector(injector.clone())
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 green");
    control.exec("newjob j");

    // Inside the window: the RPC layer retries, gives up in bounded
    // time, and the failure is reported — never a hang or a phantom
    // process.
    let out = control.exec("addprocess j red /bin/A green");
    assert!(
        out.contains("cannot") || out.contains("failed"),
        "partitioned addprocess must fail visibly [{}]: {out}",
        plan.describe()
    );
    assert_eq!(control.job("j").map(|j| j.procs.len()), Some(0));

    // Keep retrying: each failed attempt burns virtual time, the
    // window closes, and the same command starts succeeding.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let out = control.exec("addprocess j red /bin/A green");
        if out.contains("created") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "partition never healed [{}]: {out}",
            plan.describe()
        );
    }
    let out = control.exec("addprocess j green /bin/B");
    assert!(out.contains("created"), "{out}");
    control.exec("setflags j send receive");
    control.exec("startjob j");
    assert!(
        control.wait_job("j", 120_000),
        "job after heal never completed [{}]",
        plan.describe()
    );
    assert!(
        injector.tally().blocked_connects() > 0,
        "window never blocked a connection [{}]",
        plan.describe()
    );
    control.exec("die");
    sim.shutdown();
}

/// A two-level filter tree under partition *and* meter-flush
/// duplication: edges on the job's machines forward to a store-backed
/// aggregate root on blue, the edge→root link on red partitions
/// mid-job, and flush batches duplicate. The partition delays the
/// edge's established stream until the heal and refuses new
/// connections (the edge's upstream backoff outwaits it); the edge's
/// sequence dedup absorbs the duplicated flushes. The invariant is
/// the tree's whole point: no accepted record lost or duplicated at
/// the root.
fn run_tree_partition_dup(seed: u64) -> u64 {
    let spec = ChaosSpec::new()
        .meter_dup(0.35)
        .partition("red", "blue", 100_000, 2_000_000);
    let plan = FaultPlan::new(seed, spec, &["yellow", "red", "green", "blue"]);
    let injector = plan.injector();
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(seed)
        .fault_injector(injector.clone())
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter root blue role=aggregate log=store");
    control.exec("filter e1 red role=edge upstream=root");
    control.exec("filter e2 green role=edge upstream=root");
    control.exec("newjob foo root");
    control.exec("addprocess foo red /bin/A green");
    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(
        control.wait_job("foo", 120_000),
        "job never converged [{}]",
        plan.describe()
    );
    control.exec("removejob foo");

    // Drain the root: getlog until stable, then read the segments off
    // blue directly.
    let text = sim.stable_log(&mut control, "root");
    assert!(!text.is_empty(), "empty root trace [{}]", plan.describe());
    let blue = sim.cluster().machine("blue").expect("blue");
    let backend = SimFsBackend::new(blue);
    let reader = StoreReader::load(&backend, "/usr/tmp/log.root");
    assert!(
        reader.n_records() > 0,
        "empty root store [{}]",
        plan.describe()
    );
    // Both sequence invariants: the edges keep everything (no
    // selection templates installed), so every record the meters
    // emitted must appear at the root exactly once — the partition may
    // only delay it, the duplication may not multiply it.
    if let Err(why) = chaos::invariants::check_exactly_once(&reader) {
        panic!("{why} [{}]", plan.describe());
    }
    // The root's sequence window refused nothing for its age, so no
    // record was lost to the window's width.
    let stale = dpm::crates::telemetry::registry().counter("agg", "dedup_stale", "blue");
    assert_eq!(
        stale.get(),
        0,
        "stale records at the root [{}]",
        plan.describe()
    );
    // And the trace is analyzable end to end from the root.
    let trace = Trace::parse(&text);
    assert!(!trace.is_empty(), "untypable trace [{}]", plan.describe());
    control.exec("die");
    sim.shutdown();
    injector.tally().meter_dups()
}

#[test]
fn filter_tree_survives_partition_and_meter_duplication() {
    let mut fired = 0;
    for seed in seeds() {
        fired += run_tree_partition_dup(seed);
    }
    assert!(
        fired > 0,
        "no duplicate flush fired across the whole seed matrix"
    );
}

/// Whether every process of `job` reached a terminal state — the
/// non-blocking twin of `wait_job`, so a watch loop can poll between
/// liveness checks.
fn job_done(control: &Controller, job: &str) -> bool {
    match control.job(job) {
        None => true,
        Some(j) => j
            .procs
            .iter()
            .all(|p| matches!(p.state, ProcState::Killed | ProcState::Acquired)),
    }
}

/// The live layer localizes a partition *while the job still runs*:
/// the same green↔blue cut as the post-hoc localization test above,
/// but the verdict must arrive from `watch` windows before quiescence
/// — the top lossy link is the cut (with margin), and the most
/// anomalous process sits on one of its ends. This is the paper's
/// real-time-filter claim made falsifiable: no post-mortem analysis,
/// the streaming state alone names the fault.
#[test]
fn live_watch_localizes_partition_before_quiescence() {
    // Two seeds, like the post-hoc twin: the window is virtual-time
    // scripted, so seeds mostly shuffle scheduling. A *from-boot* cut
    // (unlike the mid-run one above) keeps green and blue inside the
    // readiness barrier, whose HELLO retransmits pile unmatched sends
    // onto exactly the partitioned link for as long as it stays open —
    // the strongest streaming signature a silent cut produces.
    for seed in seeds().into_iter().take(2) {
        let spec = ChaosSpec::new().partition("green", "blue", 0, 600_000_000);
        let plan = FaultPlan::new(seed, spec, &WORKLOAD_HOSTS);
        let injector = plan.injector();
        let sim = Simulation::builder()
            .machines(WORKLOAD_HOSTS)
            .net(NetConfig::ideal())
            .seed(seed)
            .fault_injector(injector.clone())
            .build();
        let why = plan.describe();
        let g = sim.cluster().resolve_host("green").expect("green").0;
        let b = sim.cluster().resolve_host("blue").expect("blue").0;
        let cut = (g.min(b), g.max(b));

        let mut control = sim.controller("yellow").expect("controller");
        control.exec("filter f1 yellow log=store");
        assert!(control.transcript().contains("created"), "{why}");
        control.exec("newjob mx f1");
        for (i, m) in WORKLOAD_HOSTS.iter().enumerate() {
            let out = control.exec(&format!(
                "addprocess mx {m} /bin/lmutex {i} 4 2 {}",
                WORKLOAD_HOSTS.join(" ")
            ));
            assert!(out.contains("created"), "{why}: {out}");
        }
        control.exec("setflags mx send receive");
        control.exec("startjob mx");

        // Poll the watch continuously (workload sleeps are virtual, so
        // the run is short in wall-clock terms). Localized means: the
        // top lossy link is the cut, clearly ahead of any runner-up,
        // and the top anomaly score names a process on the cut.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(110);
        let mut localized_live = false;
        while !job_done(&control, "mx") {
            control.exec("watch f1 anomalies");
            if job_done(&control, "mx") {
                break;
            }
            if let Some(snap) = control.last_window("f1") {
                let runner_up = snap.link_lag.get(1).map_or(0, |&(_, _, n)| n);
                let link_hit = snap
                    .link_lag
                    .first()
                    .is_some_and(|&(a, z, n)| (a, z) == cut && n >= 5 && n >= 3 * runner_up);
                let proc_hit = snap
                    .anomalies
                    .first()
                    .is_some_and(|s| s.proc.machine == g || s.proc.machine == b);
                if link_hit && proc_hit {
                    localized_live = true;
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job never converged while watching [{why}]"
            );
        }
        assert!(
            localized_live,
            "watch never localized the cut before quiescence [{why}]"
        );
        assert!(
            control.wait_job("mx", 120_000),
            "{why}: job never converged"
        );
        control.exec("die");
        sim.shutdown();
    }
}
