//! The `sim_stream` workload's simulated half: the paper's §4.3
//! session driven through a real [`Simulation`], plus the small
//! simulated probes behind the `simos`, `simnet`, `meterd` and
//! `controller` layer metrics.

use crate::trace::Tracer;
use dpm_core::{Analysis, NetConfig, Simulation};
use dpm_filter::{RecordView, SimFsBackend};
use dpm_logstore::{list_segments, Backend, StoreReader, StoreTail};
use dpm_meter::{trace_type, MeterFlags};
use dpm_meterd::{rpc_call, Reply, Request};
use dpm_simos::{
    connect_backoff, Backoff, BindTo, Cluster, Domain, Machine, Pid, SockType, SysError, Uid,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The machine the controller and stage 0 run on.
const NEAR: &str = "red";
/// The machine the filter and stage 1 run on.
const FAR: &str = "green";
/// Where `filter f1 ... log=store` keeps its segments.
pub const SIM_STORE_DIR: &str = "/usr/tmp/log.f1";

/// One run of the session, timed from outside.
#[derive(Debug, Default)]
pub struct SimRun {
    /// Building the simulation and the job, up to `startjob`.
    pub setup: Duration,
    /// Of which: the controller commands (`filter` … `setflags`).
    pub controller_setup: Duration,
    /// `startjob` issued → `wait_job` returned.
    pub job: Duration,
    /// `wait_job` returned → every record durable in the store.
    pub drain: Duration,
    /// Last job process exited → `wait_job` returned (traced runs).
    pub wait_job_lag: Duration,
    /// `getlog` through the controller.
    pub getlog: Duration,
    /// `Analysis::of_log` over the fetched text.
    pub of_log: Duration,
    /// One `watch` window over the finished store (traced runs).
    pub watch_window: Duration,
    /// Records in the store when the wait ended.
    pub records: u64,
    /// Lines `getlog` rendered.
    pub text_lines: u64,
    /// Events the analysis typed.
    pub events: u64,
    /// Virtual CPU microseconds charged to the job's processes.
    pub cpu_us: u64,
    /// Meter bytes on the wire during the job.
    pub meter_bytes: u64,
    /// All bytes on the wire during the job.
    pub wire_bytes: u64,
    /// Whether the job completed, the sink saw every item and the
    /// store received both processes' last records.
    pub completed: bool,
    /// The final store, loaded (metered runs).
    pub reader: Option<StoreReader>,
    /// Bytes the store occupies on the filter's machine.
    pub store_bytes: u64,
}

/// Waits until the store holds a `termproc` record from each of
/// `pids` and returns the records durable by then.
///
/// This is an exact completion test, not a settling heuristic: a
/// process's `termproc` is the last record on its meter connection,
/// connections are ordered, and the filter's single shard appends in
/// arrival order, so once every process's `termproc` is readable so
/// is every record before it. The probe is cheap: each round re-reads
/// only the segment that was newest last time and any that appeared
/// since, through a [`StoreTail`] cursor.
///
/// `None` when the records never arrive (30 s).
fn wait_terminated(backend: &dyn Backend, pids: &[Pid]) -> Option<u64> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut tail = StoreTail::new();
    let (mut records, mut settled) = (0u64, 0usize);
    let mut waiting: Vec<u32> = pids.iter().map(|p| p.0).collect();
    loop {
        let names = list_segments(backend, SIM_STORE_DIR);
        for name in &names[settled.min(names.len())..] {
            let Some(bytes) = backend.read(name) else {
                continue;
            };
            for frame in tail.offer_segment(name, &bytes) {
                records += 1;
                let view = RecordView::new(&frame.raw);
                if view.trace_type() == trace_type::TERMPROC {
                    waiting.retain(|&pid| Some(pid) != view.pid());
                }
            }
        }
        settled = names.len().saturating_sub(1);
        if waiting.is_empty() {
            return Some(records);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Runs the session once: 2 machines on an ideal network, a store
/// filter on the far one, a 2-stage `/bin/stage` job of `items`
/// items, all flags metered (or none), `startjob` → `wait_job` →
/// every record durable ([`wait_terminated`]) → `getlog` →
/// `Analysis::of_log`. Spans go to `tr`.
pub fn session(seed: u64, items: u32, metered: bool, tr: &mut Tracer) -> SimRun {
    let mut run = SimRun::default();
    let t_setup = Instant::now();
    let sim = Simulation::builder()
        .machines([NEAR, FAR])
        .net(NetConfig::ideal())
        .seed(seed)
        .build();
    let mut control = sim.controller(NEAR).expect("controller starts");
    let t_cmds = Instant::now();
    let exec = |control: &mut dpm_core::Controller, tr: &mut Tracer, line: &str| {
        let verb = line.split(' ').next().unwrap_or(line);
        tr.span(&format!("controller.exec:{verb}"), |_| {
            (control.exec(line), 0, 0)
        })
    };
    exec(&mut control, tr, &format!("filter f1 {FAR} log=store"));
    exec(&mut control, tr, "newjob pipe f1");
    exec(
        &mut control,
        tr,
        &format!("addprocess pipe {NEAR} /bin/stage 0 2 {FAR} {items} 0"),
    );
    exec(
        &mut control,
        tr,
        &format!("addprocess pipe {FAR} /bin/stage 1 2 - {items} 0"),
    );
    if metered {
        exec(&mut control, tr, "setflags pipe all");
    }
    run.controller_setup = t_cmds.elapsed();
    let procs: Vec<(Arc<Machine>, Pid)> = control
        .job("pipe")
        .expect("job exists")
        .procs
        .iter()
        .map(|p| (sim.cluster().machine(&p.machine).expect("machine"), p.pid))
        .collect();
    run.setup = t_setup.elapsed();

    // Traced runs watch for the real instant the last process exits,
    // to split `wait_job`'s polling lag from the job itself.
    let last_exit = Arc::new(Mutex::new(None::<Instant>));
    let watchers: Vec<_> = if tr.enabled() {
        procs
            .iter()
            .cloned()
            .map(|(m, pid)| {
                let last_exit = Arc::clone(&last_exit);
                std::thread::spawn(move || {
                    m.wait_exit(pid);
                    *last_exit.lock().expect("exit stamp") = Some(Instant::now());
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    let far = sim.cluster().machine(FAR).expect("far machine");
    let backend = SimFsBackend::new(Arc::clone(&far));
    let wire0 = sim.cluster().wire_stats().snapshot();
    let t_job = Instant::now();
    exec(&mut control, tr, "startjob pipe");
    let done = tr.span("controller.wait_job", |_| {
        (control.wait_job("pipe", 60_000), 0, 0)
    });
    run.job = t_job.elapsed();
    let job_end = Instant::now();
    for w in watchers {
        w.join().expect("exit watcher");
    }
    if let Some(exit) = *last_exit.lock().expect("exit stamp") {
        run.wait_job_lag = job_end.saturating_duration_since(exit);
    }
    let pids: Vec<Pid> = procs.iter().map(|(_, pid)| *pid).collect();
    let durable = tr.span("bench.drain_wait", |_| {
        let n = if metered {
            wait_terminated(&backend, &pids)
        } else {
            Some(0)
        };
        (n, n.unwrap_or(0), 0)
    });
    run.drain = job_end.elapsed();
    run.records = durable.unwrap_or(0);
    let wire = sim.cluster().wire_stats().snapshot().since(&wire0);
    run.meter_bytes = wire.meter_bytes;
    run.wire_bytes = wire.bytes;
    run.cpu_us = procs
        .iter()
        .map(|(m, pid)| m.proc_cpu_us(*pid).unwrap_or(0))
        .sum();
    // The sink's last line of output reaches the controller as a
    // notification of its own, possibly after the exit notice.
    let sink_line = format!("sink got {items} items");
    let patience = Instant::now() + Duration::from_secs(5);
    while !control.transcript().contains(&sink_line) && Instant::now() < patience {
        control.pump();
        std::thread::sleep(Duration::from_millis(1));
    }
    run.completed = done && durable.is_some() && control.transcript().contains(&sink_line);

    if metered {
        let t0 = Instant::now();
        tr.span("controller.getlog", |_| {
            (control.exec("getlog f1 /tmp/trace"), run.records, 0)
        });
        run.getlog = t0.elapsed();
        let text = sim
            .local_file(&control, "/tmp/trace")
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_default();
        run.text_lines = text.lines().count() as u64;
        let t0 = Instant::now();
        let analysis = tr.span("analysis.of_log", |_| {
            (Analysis::of_log(&text), run.records, text.len() as u64)
        });
        run.of_log = t0.elapsed();
        run.events = analysis.trace.len() as u64;
        if tr.enabled() {
            let t0 = Instant::now();
            exec(&mut control, tr, "watch f1");
            run.watch_window = t0.elapsed();
        }
        run.store_bytes = crate::phases::StoreBytes::of(&backend, SIM_STORE_DIR).total();
        run.reader = Some(StoreReader::load(&backend, SIM_STORE_DIR));
    }
    control.exec("die");
    sim.shutdown();
    run
}

/// Real and virtual cost of one syscall of the metering experiment's
/// standard workload (`dpm_bench::run_metered`: local datagram
/// send/receive rounds), metered with every flag and unmetered.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyscallCost {
    /// Real nanoseconds per syscall, all flags metered.
    pub metered_real_ns: f64,
    /// Real nanoseconds per syscall, unmetered.
    pub unmetered_real_ns: f64,
    /// Extra virtual CPU microseconds per meter record.
    pub meter_virtual_us_per_rec: f64,
    /// Kernel meter-buffer flushes per thousand records.
    pub flushes_per_krec: f64,
}

/// Measures [`SyscallCost`]. Real cost is marginal: the same workload
/// at `rounds` and at `2 * rounds` send/receive rounds (each the best
/// of three), the difference divided by the extra syscalls — so the
/// cluster's start-up and shutdown drop out.
pub fn syscall_cost(rounds: u32) -> SyscallCost {
    let best = |flags: MeterFlags, rounds: u32| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let out = dpm_bench::run_metered(flags, 8, rounds, 64);
                (t0.elapsed().as_nanos() as f64, out)
            })
            .reduce(|a, b| if b.0 < a.0 { b } else { a })
            .expect("three runs")
    };
    let extra_calls = f64::from(rounds) * 2.0;
    let marginal = |flags| (best(flags, 2 * rounds).0 - best(flags, rounds).0) / extra_calls;
    let (_, on) = best(MeterFlags::ALL, rounds);
    let (_, off) = best(MeterFlags::NONE, rounds);
    let records = on.messages.len().max(1) as f64;
    SyscallCost {
        metered_real_ns: marginal(MeterFlags::ALL).max(0.0),
        unmetered_real_ns: marginal(MeterFlags::NONE).max(0.0),
        meter_virtual_us_per_rec: (on.cpu_us as f64 - off.cpu_us as f64) / records,
        flushes_per_krec: on.meter_frames as f64 * 1000.0 / records,
    }
}

/// Moves `bytes` over one cross-machine stream connection in 4 KiB
/// writes. Returns `(real ns per byte, virtual µs per KiB)`.
pub fn stream_transfer(seed: u64, bytes: usize) -> (f64, f64) {
    const PORT: u16 = 2300;
    let cluster = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(seed)
        .machine(NEAR)
        .machine(FAR)
        .build();
    let t0 = Instant::now();
    let v0 = cluster.global_time().now_us();
    let server = cluster
        .spawn_user(FAR, "sink", Uid(100), move |p| {
            let l = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(l, BindTo::Port(PORT))?;
            p.listen(l, 1)?;
            let (conn, _) = p.accept(l)?;
            while !p.read(conn, 8192)?.is_empty() {}
            p.close(conn)
        })
        .expect("sink spawns");
    let client = cluster
        .spawn_user(NEAR, "source", Uid(100), move |p| {
            let s = connect_backoff(&p, FAR, PORT, Backoff::new(300, 5, 160))?;
            let block = vec![7u8; 4096];
            let mut left = bytes;
            while left > 0 {
                let n = left.min(block.len());
                p.write(s, &block[..n])?;
                left -= n;
            }
            p.close(s)
        })
        .expect("source spawns");
    cluster.machine(NEAR).expect("near").wait_exit(client);
    cluster.machine(FAR).expect("far").wait_exit(server);
    let real = t0.elapsed();
    let virt = cluster.global_time().now_us() - v0;
    cluster.shutdown();
    let b = bytes.max(1) as f64;
    (real.as_nanos() as f64 / b, virt as f64 / (b / 1024.0))
}

/// `calls` `QueryProc` RPCs from a user process on one machine to the
/// meterdaemon on the other. Returns `(real µs, virtual ms)` per call.
pub fn daemon_rpc(seed: u64, calls: u32) -> (f64, f64) {
    let sim = Simulation::builder()
        .machines([NEAR, FAR])
        .net(NetConfig::ideal())
        .seed(seed)
        .without_workloads()
        .build();
    let cluster = Arc::clone(sim.cluster());
    let t0 = Instant::now();
    let v0 = cluster.global_time().now_us();
    let answered = Arc::new(Mutex::new(0u32));
    let tally = Arc::clone(&answered);
    let caller = cluster
        .spawn_user(NEAR, "rpc-probe", Uid(100), move |p| {
            for _ in 0..calls {
                match rpc_call(&p, FAR, &Request::QueryProc { pid: Pid(1) }) {
                    Ok(Reply::ProcStatus { .. }) => *tally.lock().expect("tally") += 1,
                    Ok(_) => {}
                    Err(SysError::Econnrefused) => p.sleep_ms(5)?,
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
        .expect("probe spawns");
    cluster.machine(NEAR).expect("near").wait_exit(caller);
    let real = t0.elapsed();
    let virt = cluster.global_time().now_us() - v0;
    let n = f64::from((*answered.lock().expect("tally")).max(1));
    sim.shutdown();
    (real.as_micros() as f64 / n, virt as f64 / 1e3 / n)
}
