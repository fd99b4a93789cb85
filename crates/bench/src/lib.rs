//! Shared harness for the evaluation experiments (E1–E7 of
//! `DESIGN.md`).
//!
//! The paper is a tool paper and reports qualitative claims rather
//! than tables of numbers; each claim is reproduced as a measurable
//! experiment. Everything that concerns the *monitored system* is
//! measured in **virtual time** (the simulation's deterministic CPU
//! and network clock), so results are reproducible to the microsecond;
//! the pure-computation components (wire codec, filter engine,
//! analysis) are measured in real time, layer by layer, by
//! `pipeline_bench/` — which calls [`run_metered`] for its
//! metering-overhead layer.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use dpm_meter::{MeterDecoder, MeterFlags, MeterMsg};
use dpm_simnet::NetConfig;
use dpm_simos::{BindTo, Cluster, Domain, Pid, Proc, Sig, SockName, SockType, SysResult, Uid};
use parking_lot::Mutex;
use std::sync::Arc;

/// The uid the harness runs everything as.
pub const U: Uid = Uid(100);

/// Builds a two-machine cluster (`work`, `mon`) with the given
/// network, seed, and meter-buffer threshold.
pub fn two_machine_cluster(net: NetConfig, seed: u64, meter_buffer: u32) -> Arc<Cluster> {
    Cluster::builder()
        .net(net)
        .seed(seed)
        .meter_buffer(meter_buffer)
        .machine("work")
        .machine("mon")
        .build()
}

/// Spawns a byte-sink "filter" on `machine` accepting `conns` meter
/// connections (all before reading, to avoid cross-connection
/// dependencies) and collecting every byte.
pub fn spawn_collector(
    cluster: &Arc<Cluster>,
    machine: &str,
    port: u16,
    conns: usize,
) -> (Pid, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let out = buf.clone();
    let pid = cluster
        .spawn_user(machine, "collector", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(port))?;
            p.listen(s, 32)?;
            let mut open = Vec::new();
            for _ in 0..conns {
                let (conn, _) = p.accept(s)?;
                open.push(conn);
            }
            for conn in open {
                loop {
                    let data = p.read(conn, 8192)?;
                    if data.is_empty() {
                        break;
                    }
                    out.lock().extend_from_slice(&data);
                }
                p.close(conn)?;
            }
            Ok(())
        })
        .expect("collector spawns");
    (pid, buf)
}

/// Installs metering on a (suspended) process: connects a stream
/// socket to the collector and calls `setmeter`, as a meterdaemon
/// would.
///
/// # Errors
///
/// Propagates socket and `setmeter` errors.
pub fn meter_process(
    p: &Proc,
    target: Pid,
    flags: MeterFlags,
    filter_host: &str,
    filter_port: u16,
) -> SysResult<()> {
    use dpm_simos::{FlagSel, PidSel, SockSel, SysError};
    // The collector is a freshly spawned thread; retry (with *real*
    // sleeps — virtual ones are instantaneous) until it has bound its
    // port. Without this, a refused connect leaves the suspended
    // target unstarted and the caller waiting forever.
    let mut tries = 0;
    let s = loop {
        let s = p.socket(Domain::Inet, SockType::Stream)?;
        match p.connect_host(s, filter_host, filter_port) {
            Ok(()) => break s,
            Err(SysError::Econnrefused) if tries < 2000 => {
                let _ = p.close(s);
                tries += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => {
                let _ = p.close(s);
                return Err(e);
            }
        }
    };
    p.setmeter(PidSel::Pid(target), FlagSel::Set(flags), SockSel::Fd(s))?;
    p.close(s)
}

/// The standard measured workload: `rounds` of local datagram
/// send/receive (two sockets on one machine), then some pure
/// computation. Returns once done.
///
/// # Errors
///
/// Propagates socket errors.
pub(crate) fn ipc_workload(p: &Proc, rounds: u32, msg_len: usize) -> SysResult<()> {
    let rx = p.socket(Domain::Inet, SockType::Datagram)?;
    let me = p.cluster().resolve_host(p.hostname())?;
    let port = 6000;
    p.bind(rx, BindTo::Port(port))?;
    let tx = p.socket(Domain::Inet, SockType::Datagram)?;
    let dest = SockName::Inet { host: me.0, port };
    let payload = vec![7u8; msg_len];
    for _ in 0..rounds {
        p.sendto(tx, &payload, &dest)?;
        let _ = p.recvfrom(rx, msg_len)?;
    }
    p.compute_ms(1)?;
    Ok(())
}

/// Outcome of one metered-workload run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// CPU microseconds charged to the workload process.
    pub cpu_us: u64,
    /// Virtual wall time consumed by the whole run, microseconds.
    pub wall_us: u64,
    /// Meter frames that crossed the wire.
    pub meter_frames: u64,
    /// Meter bytes that crossed the wire.
    pub meter_bytes: u64,
    /// The decoded meter messages the collector received.
    pub messages: Vec<MeterMsg>,
}

/// Runs the standard workload under the given meter flags and buffer
/// threshold, measuring virtual cost and collecting the trace.
pub fn run_metered(
    flags: MeterFlags,
    meter_buffer: u32,
    rounds: u32,
    msg_len: usize,
) -> RunOutcome {
    let cluster = two_machine_cluster(NetConfig::ideal(), 42, meter_buffer);
    let metered = flags.meters_anything() || flags.contains(MeterFlags::IMMEDIATE);
    let (collector, buf) = if metered {
        let (c, b) = spawn_collector(&cluster, "mon", 4000, 1);
        (Some(c), b)
    } else {
        (None, Arc::new(Mutex::new(Vec::new())))
    };
    let work = cluster.machine("work").expect("machine");
    let t0 = cluster.global_time().now_us();
    let w0 = cluster.wire_stats().snapshot();
    let worker = work.spawn_fn("worker", U, None, false, move |p| {
        ipc_workload(&p, rounds, msg_len)
    });
    let daemonish = work.spawn_fn("daemonish", Uid::ROOT, None, true, move |p| {
        if metered {
            meter_process(&p, worker, flags, "mon", 4000)?;
        }
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    work.wait_exit(daemonish);
    work.wait_exit(worker);
    let cpu_us = work.proc_cpu_us(worker).unwrap_or(0);
    if let Some(c) = collector {
        cluster.machine("mon").expect("machine").wait_exit(c);
    }
    let wall_us = cluster.global_time().now_us() - t0;
    let w1 = cluster.wire_stats().snapshot().since(&w0);
    let bytes = buf.lock().clone();
    cluster.shutdown();
    // Streaming decode: iterate the capture's valid prefix without
    // re-slicing per frame; a torn tail (the collector can be killed
    // mid-record) is simply ignored instead of voiding the capture.
    let messages: Vec<MeterMsg> = MeterDecoder::new(&bytes)
        .map_while(Result::ok)
        .filter_map(|rec| rec.to_msg().ok())
        .collect();
    RunOutcome {
        cpu_us,
        wall_us,
        meter_frames: w1.meter_frames,
        meter_bytes: w1.meter_bytes,
        messages,
    }
}

/// Builds a synthetic trace-log text with `pairs` matched
/// send/receive pairs across two machines, for analysis-scaling
/// experiments.
pub fn synthetic_log(pairs: usize) -> String {
    let mut out = String::with_capacity(pairs * 220);
    for i in 0..pairs {
        let t = 10 + i as u64;
        out.push_str(&format!(
            "event=send machine=0 cpuTime={t} procTime={} traceType=1 pid=1 pc={i} sock=3 msgLength=64 destName=inet:1:53\n",
            (i / 10) * 10
        ));
        out.push_str(&format!(
            "event=receive machine=1 cpuTime={} procTime={} traceType=3 pid=2 pc={i} sock=7 msgLength=64 sourceName=inet:0:1024\n",
            t + 3,
            (i / 10) * 10
        ));
    }
    out
}
