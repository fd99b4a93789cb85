//! Controller failover under chaos, across a seed matrix.
//!
//! The control plane's claim is that a controller is no longer a
//! single point of failure: every mutation it performs is appended to
//! a replicated control log, its ownership of each job is a lease in
//! simulated time, and a standby that replays the log can adopt the
//! jobs the moment the lease lapses. These tests kill the owning
//! controller mid-job and verify the claim end to end:
//!
//! * the standby's takeover happens within one lease period of the
//!   old owner's expiry;
//! * the surviving filter trace is *identical* to a crash-free run of
//!   the same seed (after canonicalizing pids, ephemeral ports, and
//!   clock stamps — the only things a takeover may legitimately
//!   perturb): no record lost, none duplicated;
//! * the control log itself passes the failover invariants — one
//!   creation per job, exactly one terminal state, no orphaned filter,
//!   a linear lease chain (`check_control_plane`).
//!
//! The scaled-acquire test adopts a fleet of over a thousand
//! already-running processes through the batched `AcquireMany` path,
//! one round-trip per machine.

use std::collections::BTreeMap;
use std::sync::Arc;

use dpm::crates::analysis::{EventKind, Trace};
use dpm::crates::chaos::{crash_controller, invariants};
use dpm::crates::controlplane::{ControlEvent, ControlLog, DEFAULT_LEASE_MS};
use dpm::crates::logstore::{Backend, MemBackend, StoreReader};
use dpm::{Pid, Simulation, Uid};

/// The seed matrix: `DPM_CHAOS_SEEDS="1,2,3"` overrides; CI passes
/// its fixed seeds, the local default is a fast subset.
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

/// Where the control log lives on the shared backend — the durable
/// storage both the owner and the standby can reach.
const CONTROL_DIR: &str = "control";

/// What one session run leaves behind for comparison.
struct RunResult {
    /// What `getlog f1` rendered for the surviving controller.
    text: String,
    trace: Trace,
    transcript: String,
    backend: Arc<MemBackend>,
}

/// Runs one measured A/B session with the control log enabled and
/// `templates` as the filter's selection rules. With `crash` set, the
/// owning controller is SIGKILLed right after `startjob` and a standby
/// on another terminal adopts the job from the log; otherwise the
/// owner runs the job to completion itself.
fn run_session(seed: u64, crash: bool, templates: &str) -> RunResult {
    let backend = Arc::new(MemBackend::new());
    let sim = Simulation::builder()
        .machines(["term1", "term2", "red", "green"])
        .seed(seed)
        .build();
    let mut a = sim.controller_as("term1", Uid(100)).expect("controller A");
    a.enable_control_log(backend.clone() as Arc<dyn Backend>, CONTROL_DIR);
    let term1 = sim.cluster().machine("term1").expect("term1 exists");
    term1.fs().write("templates", templates.as_bytes().to_vec());
    a.exec("filter f1 red");
    a.exec("newjob pair");
    a.exec("addprocess pair red /bin/A green 1810 3");
    a.exec("addprocess pair green /bin/B 1810");
    a.exec("setflags pair send receive accept connect fork");
    a.exec("startjob pair");

    let mut survivor = if crash {
        let killed = crash_controller(sim.cluster(), "term1");
        assert!(
            !killed.is_empty(),
            "seed {seed}: no controller process to kill on term1"
        );
        let mut b = sim.controller_as("term2", Uid(100)).expect("controller B");
        let adopted = b.adopt_from(backend.clone() as Arc<dyn Backend>, CONTROL_DIR);
        assert_eq!(
            adopted,
            vec!["pair".to_owned()],
            "seed {seed}: standby adopted the live job"
        );
        b
    } else {
        a
    };

    assert!(
        survivor.wait_job("pair", 60_000),
        "seed {seed}: job converged (crash={crash})"
    );

    // Every process transition was recorded before the job is
    // removed: the log alone must already show one terminal state per
    // process.
    let reader = StoreReader::load(backend.as_ref(), CONTROL_DIR);
    let census = invariants::check_control_plane(&reader).unwrap_or_else(|e| {
        panic!(
            "seed {seed}: control-plane invariant violated before removejob (crash={crash}): {e}"
        )
    });
    assert_eq!(census.jobs_created, 1);
    assert_eq!(census.jobs_live, 1);

    if crash {
        assert_takeover_within_a_lease(&reader, seed);
    }

    survivor.exec("removejob pair");
    let text = sim.stable_log(&mut survivor, "f1");
    let trace = Trace::parse(&text);
    let transcript = survivor.transcript().to_owned();
    survivor.exec("die");
    sim.shutdown();

    // And the invariants still hold over the completed log.
    let reader = StoreReader::load(backend.as_ref(), CONTROL_DIR);
    invariants::check_control_plane(&reader).unwrap_or_else(|e| {
        panic!("seed {seed}: control-plane invariant violated at end of log (crash={crash}): {e}")
    });

    RunResult {
        text,
        trace,
        transcript,
        backend,
    }
}

/// The standby's takeover latency in simulated µs is its
/// `LeaseAcquired` start minus the lapsed lease's expiry. Asserts the
/// takeover happened at all and under one lease period.
fn assert_takeover_within_a_lease(reader: &StoreReader, seed: u64) {
    let mut prev_expiry = None;
    let mut latency = None;
    for (_, ev) in ControlLog::replay(reader) {
        match ev {
            ControlEvent::LeaseAcquired {
                owner,
                at_us,
                expires_us,
                ..
            } => {
                if owner.starts_with("term2:") {
                    let lapsed = prev_expiry.expect("a prior lease existed");
                    latency = Some(at_us.saturating_sub(lapsed));
                }
                prev_expiry = Some(expires_us);
            }
            ControlEvent::LeaseRenewed { expires_us, .. } => prev_expiry = Some(expires_us),
            _ => {}
        }
    }
    let latency = latency.unwrap_or_else(|| panic!("seed {seed}: standby never took the lease"));
    assert!(
        latency <= DEFAULT_LEASE_MS * 1_000,
        "seed {seed}: takeover took {latency}us, more than one lease period"
    );
}

/// A trace reduced to what a takeover may not perturb: per process,
/// the ordered event kinds with their deterministic payloads. Pids
/// and clock stamps are dropped (a second controller shifts global
/// pid allocation and simulated time) and socket names keep only
/// their machine part (client ports are ephemeral); everything else —
/// event order per process, payload lengths, fork/term structure —
/// must match a crash-free run exactly.
fn canonical(trace: &Trace) -> Vec<(u32, Vec<String>)> {
    fn name_part(n: &Option<String>) -> String {
        match n {
            None => String::new(),
            Some(n) => n
                .rsplit_once(':')
                .map_or_else(|| n.clone(), |(head, _)| head.to_owned()),
        }
    }
    let mut per: BTreeMap<(u32, u32), Vec<String>> = BTreeMap::new();
    for e in &trace.events {
        let shape = match &e.kind {
            EventKind::Send { len, dest } => format!("send:{len}:{}", name_part(dest)),
            EventKind::Recv { len, source } => format!("receive:{len}:{}", name_part(source)),
            EventKind::Socket { domain, sock_type } => format!("socket:{domain}:{sock_type}"),
            EventKind::Dup { new_sock } => format!("dup:{new_sock}"),
            EventKind::Accept {
                sock_name,
                peer_name,
                ..
            } => format!("accept:{}:{}", name_part(sock_name), name_part(peer_name)),
            EventKind::Connect {
                sock_name,
                peer_name,
            } => format!("connect:{}:{}", name_part(sock_name), name_part(peer_name)),
            EventKind::Term { reason } => format!("termproc:{reason}"),
            other => other.name().to_owned(),
        };
        per.entry((e.proc.machine, e.proc.pid))
            .or_default()
            .push(shape);
    }
    // Drop the pid, keep the machine: which machine ran the process
    // is stable, the pid itself is allocation-order noise.
    let mut v: Vec<(u32, Vec<String>)> = per.into_iter().map(|((m, _), evs)| (m, evs)).collect();
    v.sort();
    v
}

/// The headline failover property, across the seed matrix: kill the
/// owning controller mid-job, the standby adopts within one lease
/// period, and the final trace is identical to a crash-free run of
/// the same seed under canonicalization — no record lost or
/// duplicated by the takeover.
#[test]
fn controller_crash_is_invisible_in_the_trace() {
    for seed in seeds() {
        let clean = run_session(seed, false, "");
        let crashed = run_session(seed, true, "");

        assert!(
            crashed
                .transcript
                .contains("job 'pair' adopted (owner now term2:"),
            "seed {seed}: standby transcript proves the takeover:\n{}",
            crashed.transcript
        );
        assert!(
            !clean.trace.is_empty(),
            "seed {seed}: crash-free run produced a trace"
        );
        assert_eq!(
            crashed.trace.events.len(),
            clean.trace.events.len(),
            "seed {seed}: takeover lost or duplicated records"
        );
        assert_eq!(
            canonical(&crashed.trace),
            canonical(&clean.trace),
            "seed {seed}: canonical traces diverge after takeover"
        );
        // The crashed run's log holds the full lease story: owner's
        // acquisition, the standby's takeover, linear chain. (The
        // chain itself was already checked by check_control_plane.)
        let reader = StoreReader::load(crashed.backend.as_ref(), CONTROL_DIR);
        let events = ControlLog::replay(&reader);
        assert!(
            events.iter().any(|(_, ev)| matches!(
                ev,
                ControlEvent::LeaseAcquired { owner, .. } if owner.starts_with("term1:")
            )),
            "seed {seed}: owner's original lease is in the log"
        );
    }
}

/// The text view survives the takeover too: the standby, which never
/// saw the templates file, renders `getlog` with the `#` reduction the
/// journal carries — the same reduced trace as the crash-free run.
#[test]
fn adopted_filter_renders_the_reduced_view() {
    let seed = seeds()[0];
    let clean = run_session(seed, false, "pc=#*\n");
    let crashed = run_session(seed, true, "pc=#*\n");
    for (run, text) in [("clean", &clean.text), ("crashed", &crashed.text)] {
        assert!(!text.is_empty(), "seed {seed}, {run}: getlog rendered");
        assert!(!text.contains(" pc="), "seed {seed}, {run}: pc survived");
    }
    assert_eq!(
        canonical(&crashed.trace),
        canonical(&clean.trace),
        "seed {seed}: reduced traces diverge after takeover"
    );
}

/// Spawns `n` long-running unmetered processes on `machine` — the
/// "already running distributed computation" an operator would adopt.
/// Each idles in real time (a tight virtual-sleep loop across a
/// thousand threads would monopolize the simulated kernel), touching
/// the kernel only often enough to notice a pending kill.
fn spawn_sleepers(sim: &Simulation, machine: &str, n: usize) -> Vec<Pid> {
    (0..n)
        .map(|_| {
            sim.cluster()
                .spawn_user(machine, "sleeper", Uid(100), |p| loop {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    p.sleep_ms(0)?;
                })
                .expect("spawn sleeper")
        })
        .collect()
}

/// Adopting a fleet: over a thousand already-running processes are
/// metered into a job with one `AcquireMany` round-trip per machine.
#[test]
fn acquire_many_meters_a_thousand_processes() {
    const PER_MACHINE: usize = 400;
    let machines = ["red", "green", "blue"];
    let sim = Simulation::builder()
        .machines(["term1", "red", "green", "blue"])
        .seed(7)
        .build();
    let mut control = sim.controller("term1").expect("controller");
    control.exec("filter f1 term1");
    control.exec("newjob fleet");

    let fleet: Vec<(&str, Vec<Pid>)> = machines
        .iter()
        .map(|m| (*m, spawn_sleepers(&sim, m, PER_MACHINE)))
        .collect();
    let total: usize = fleet.iter().map(|(_, pids)| pids.len()).sum();
    assert!(total >= 1000, "must adopt at least 1000 processes");

    let mut acquired = 0;
    for (machine, pids) in &fleet {
        acquired += control.acquire_many("fleet", machine, pids);
    }
    assert_eq!(acquired, total, "every running process was acquired");
    let job = control.job("fleet").expect("job exists");
    assert_eq!(job.procs.len(), total);

    control.exec("die");
    sim.shutdown();
}

/// `AcquireMany` answers per pid: a batch holding pids that are gone
/// acquires the live ones, and the job table lists exactly those.
#[test]
fn acquire_many_reports_dead_pids_per_result() {
    let sim = Simulation::builder()
        .machines(["term1", "red"])
        .seed(13)
        .build();
    let mut control = sim.controller("term1").expect("controller");
    control.exec("filter f1 term1");
    control.exec("newjob fleet");
    let mut pids = spawn_sleepers(&sim, "red", 3);
    // A pid the machine never allocated: reported Srch per-result,
    // not a batch failure.
    pids.push(Pid(999_999));
    let acquired = control.acquire_many("fleet", "red", &pids);
    assert_eq!(acquired, 3, "live pids acquired, dead pid skipped");
    assert_eq!(control.job("fleet").expect("job").procs.len(), 3);
    control.exec("die");
    sim.shutdown();
}
