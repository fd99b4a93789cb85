//! The five workloads: what each generates, which phases it spends
//! its time budget on, and which metric each phase feeds.
//!
//! Every workload reports every end-to-end metric, so every workload
//! runs every phase; the *budget* (`--seconds`) goes to the phase the
//! workload exists for, repeated until the budget ends:
//!
//! | workload | repeated until the budget ends | a fixed number of times |
//! |---|---|---|
//! | `sim_stream` | set-up + simulated job + `getlog` + analysis | B ×2, D ×30 |
//! | `replay_*` | set-up + A (ingest) + C (answer) | B ×2, D ×30 |
//! | `store_query` | C (answer) + D (queries, rendered scan); set-up every 4th | B ×2 |

use crate::gen::{dgram_shaped, stream_shaped, Input, RuleSet};
use crate::layers::{layer_pass, telemetry_overhead_pct};
use crate::metrics::{Report, END_TO_END, WORKLOADS};
use crate::phases::{
    answer, check_stats, check_store, ingest, inline, paced, pipeline, queries, scan_render,
    Checks, Oracle, Pace, Paced, StoreBytes, DIR,
};
use crate::sim::{daemon_rpc, session, stream_transfer, syscall_cost, SimRun};
use crate::stats::{median, percentile_sorted, quartiles, Better};
use crate::trace::Tracer;
use dpm_analysis::Trace;
use dpm_logstore::StoreReader;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A workload, by its `--workload` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full simulated session.
    SimStream,
    /// Stream-shaped replay, no rules.
    ReplayKeepall,
    /// Stream-shaped replay, 16 templates.
    ReplaySelective,
    /// Datagram-shaped replay with duplicates.
    ReplayDgram,
    /// Reads over the keepall store.
    StoreQuery,
}

impl Workload {
    /// Every workload, in the order of [`WORKLOADS`].
    const ALL: [Workload; 5] = [
        Workload::SimStream,
        Workload::ReplayKeepall,
        Workload::ReplaySelective,
        Workload::ReplayDgram,
        Workload::StoreQuery,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        let at = WORKLOADS.iter().position(|w| w.name == name)?;
        Some(Workload::ALL[at])
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }
}

/// Input sizes and rates. Phase B always emits a whole input (or the
/// stated prefix) at the stated rate, so its length is `records ÷
/// rate` whatever `--seconds` says.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records of a stream-shaped input for the repeated phases. Kept
    /// small on purpose: a repetition must be short (about a tenth of
    /// a second) to have a fair chance of running undisturbed.
    pub stream_records: usize,
    /// Records of the stream-shaped input phase B paces out.
    pub paced_records: usize,
    /// Records of the datagram-shaped input (duplicates included).
    pub dgram_records: usize,
    /// Items through the simulated 2-stage job (about 18 records each;
    /// phase B paces out the whole resulting trace).
    pub sim_items: u32,
    /// Point queries and range queries issued, each.
    pub queries_each: usize,
    /// Phase B rate on stream-shaped replays, records per second.
    pub stream_rate: f64,
    /// Phase B rate on the datagram replay.
    pub dgram_rate: f64,
    /// Phase B rate on `store_query` (a third of the paced input, at a
    /// third of the replay rate: the low point of the latency-vs-rate
    /// curve).
    pub query_rate: f64,
    /// Phase B rate on the simulation's own trace.
    pub sim_rate: f64,
    /// Fewest repetitions of the budgeted phase.
    pub min_reps: usize,
}

impl Sizes {
    /// The sizes every committed number was taken at.
    pub fn full() -> Sizes {
        Sizes {
            stream_records: 30_000,
            paced_records: 90_000,
            dgram_records: 16_000,
            sim_items: 1_000,
            queries_each: 100,
            stream_rate: 60_000.0,
            dgram_rate: 8_000.0,
            query_rate: 20_000.0,
            sim_rate: 24_000.0,
            min_reps: 3,
        }
    }

    /// `--quick`: every N ÷ 100, two repetitions — a smoke run.
    pub fn quick() -> Sizes {
        let full = Sizes::full();
        Sizes {
            stream_records: full.stream_records / 100,
            paced_records: full.paced_records / 100,
            dgram_records: full.dgram_records / 100,
            sim_items: full.sim_items / 100,
            queries_each: full.queries_each / 100,
            min_reps: 2,
            ..full
        }
    }
}

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Time budget of the repeated phase, seconds.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
}

/// What a run hands back: the metrics and the output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub report: Report,
    /// Attempted and failed operations.
    pub checks: Checks,
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One quantity measured once per repetition within a run.
///
/// The sandbox's speed fluctuates by tens of percent from one
/// fraction of a second to the next (memory-bound work most), and the
/// disturbance only ever adds time. The least-disturbed repetition is
/// therefore the steadiest estimate of what the code costs, and it is
/// what a run reports; median, quartiles and n are printed beside it.
struct Samples {
    name: &'static str,
    better: Better,
    values: Vec<f64>,
}

impl Samples {
    fn new(name: &'static str) -> Samples {
        let better = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("an end-to-end metric")
            .better;
        Samples {
            name,
            better,
            values: Vec::new(),
        }
    }

    fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    fn best(&self) -> f64 {
        let pick = match self.better {
            Better::Lower => f64::min,
            Better::Higher => f64::max,
        };
        self.values.iter().copied().reduce(pick).unwrap_or(0.0)
    }

    fn report(&self, report: &mut Report) {
        let (q1, q3) = quartiles(&self.values);
        println!(
            "# {}: best {:.6} of n={} (median {:.6}, quartiles [{:.6}, {:.6}])",
            self.name,
            self.best(),
            self.values.len(),
            median(&self.values),
            q1,
            q3
        );
        report.set(self.name, self.best());
    }
}

/// Runs `w` untraced and reports every end-to-end metric.
pub fn run_end_to_end(w: Workload, p: Params) -> Outcome {
    let mut out = Outcome::default();
    match w {
        Workload::SimStream => sim_end_to_end(p, &mut out),
        Workload::StoreQuery => query_end_to_end(p, &mut out),
        _ => replay_end_to_end(w, p, &mut out),
    }
    out
}

/// Runs `w` traced and reports every per-layer metric; the spans go
/// to `<target dir>/bench/<workload>.spans.jsonl`.
pub fn run_traced(w: Workload, p: Params) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true);
    let input = match w {
        Workload::SimStream => sim_traced(p, &mut out, &mut tr),
        _ => replay_input(w, p, true),
    };
    replay_traced(&input, pace_of(w, &input, &p.sizes), p, &mut out, &mut tr);
    println!("# self time per span name\n{}", tr.self_time_table());
    match write_spans(w, &tr) {
        Ok(path) => println!("# {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
    out
}

fn write_spans(w: Workload, tr: &Tracer) -> std::io::Result<PathBuf> {
    // Next to the build output: <target>/<profile>/pipeline → <target>/bench.
    let exe = std::env::current_exe()?;
    let target = exe.ancestors().nth(2).unwrap_or(std::path::Path::new("."));
    let dir = target.join("bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.spans.jsonl", w.name()));
    std::fs::write(&path, tr.to_jsonl())?;
    Ok(path)
}

/// The workload's generated input: the one phase B paces out
/// (`paced`) or the one the repeated phases run on.
fn replay_input(w: Workload, p: Params, paced: bool) -> Input {
    let stream = if paced {
        p.sizes.paced_records
    } else {
        p.sizes.stream_records
    };
    match w {
        Workload::ReplaySelective => stream_shaped(p.seed, stream, RuleSet::Selective),
        Workload::ReplayDgram => dgram_shaped(p.seed, p.sizes.dgram_records, 50_000),
        _ => stream_shaped(p.seed, stream, RuleSet::KeepAll),
    }
}

fn pace_of(w: Workload, input: &Input, sizes: &Sizes) -> Pace {
    let (rate, records) = match w {
        Workload::SimStream => (sizes.sim_rate, input.records()),
        Workload::ReplayDgram => (sizes.dgram_rate, input.records()),
        Workload::StoreQuery => (sizes.query_rate, input.records() / 3),
        _ => (sizes.stream_rate, input.records()),
    };
    Pace { rate, records }
}

/// Phase B twice; the run with the lower median staleness is the
/// one reported (a stall of the sandbox during the one-and-a-half
/// seconds of a paced run cannot be averaged away inside it).
fn paced_best(input: &Input, pace: Pace, checks: &mut Checks) -> Paced {
    let p50 = |b: &Paced| percentile_sorted(&b.staleness_ms, 50.0);
    let (first, second) = (paced(input, pace, checks), paced(input, pace, checks));
    println!(
        "# phase B: staleness p50 {:.3} ms and {:.3} ms; the lower is reported",
        p50(&first),
        p50(&second)
    );
    if p50(&first) <= p50(&second) {
        first
    } else {
        second
    }
}

fn report_staleness(b: &Paced, report: &mut Report) {
    report.set("staleness_p50_ms", percentile_sorted(&b.staleness_ms, 50.0));
    println!(
        "# phase B: n={} staleness samples (p99 {:.3} ms), window closes {:.1?} ms, generator lag p99 {:.3} ms, backlog at end {}",
        b.staleness_ms.len(),
        percentile_sorted(&b.staleness_ms, 99.0),
        b.window_close_ms,
        percentile_sorted(&b.generator_lag_ms, 99.0),
        b.backlog_end
    );
}

/// Phase D on a replay's or the simulation's final store: the seeded
/// mix thirty times over, each pass checked against the scan oracle.
fn report_queries(reader: &StoreReader, n_each: usize, seed: u64, out: &mut Outcome) {
    let oracle = Oracle::of(reader);
    let mut mean_us = Samples::new("query_mean_us");
    for _ in 0..30 {
        let q = queries(
            reader,
            &oracle,
            seed,
            n_each,
            &mut out.checks,
            &mut Tracer::new(false),
        );
        mean_us.push(q.mean_us());
    }
    mean_us.report(&mut out.report);
}

fn replay_end_to_end(w: Workload, p: Params, out: &mut Outcome) {
    let budget = Duration::from_secs_f64(p.seconds);
    let t_run = Instant::now();
    let input = replay_input(w, p, true);
    let b = paced_best(&input, pace_of(w, &input, &p.sizes), &mut out.checks);
    report_staleness(&b, &mut out.report);
    drop((b, input));

    let mut setup = Samples::new("setup_s");
    let mut rate = Samples::new("records_per_s");
    let mut tta = Samples::new("time_to_answer_s");
    let mut last = None;
    while setup.values.len() < p.sizes.min_reps || t_run.elapsed() < budget {
        let s0 = Instant::now();
        let input = replay_input(w, p, false);
        let pipe = pipeline(&input);
        setup.push(s0.elapsed().as_secs_f64());
        let a = ingest(&pipe, &input.bytes);
        rate.push(input.records() as f64 / a.as_secs_f64());
        check_stats(&mut out.checks, pipe.filter.snapshot(), &input);
        let c0 = Instant::now();
        let ans = answer(pipe.backend.as_ref(), DIR, &mut Tracer::new(false));
        tta.push(c0.elapsed().as_secs_f64());
        check_store(&mut out.checks, &ans.reader, &input);
        if setup.values.len() == p.sizes.min_reps {
            out.report.set("peak_rss_mb", peak_rss_mb());
        }
        last = Some((input, pipe, ans));
    }
    let (input, pipe, ans) = last.expect("at least one repetition");
    for s in [&setup, &rate, &tta] {
        s.report(&mut out.report);
    }
    report_queries(&ans.reader, p.sizes.queries_each, p.seed, out);
    let n = input.records().max(1) as f64;
    out.report
        .set("wire_bytes_per_record", input.bytes.len() as f64 / n);
    out.report.set(
        "store_bytes_per_record",
        StoreBytes::of(pipe.backend.as_ref(), DIR).total() as f64
            / ans.reader.n_records().max(1) as f64,
    );
}

fn query_end_to_end(p: Params, out: &mut Outcome) {
    let w = Workload::StoreQuery;
    let budget = Duration::from_secs_f64(p.seconds);
    let t_run = Instant::now();
    let input = replay_input(w, p, true);
    let b = paced_best(&input, pace_of(w, &input, &p.sizes), &mut out.checks);
    report_staleness(&b, &mut out.report);
    drop((b, input));

    // Set-up is input generation and the store build. It is timed
    // here and again every few repetitions below (on a store of its
    // own that is thrown away), so the samples are spread over the
    // run and one slow spell of the sandbox cannot cover them all.
    let mut setup = Samples::new("setup_s");
    let mut build = |checks: &mut Checks| {
        let s0 = Instant::now();
        let input = replay_input(w, p, false);
        let pipe = pipeline(&input);
        ingest(&pipe, &input.bytes);
        setup.push(s0.elapsed().as_secs_f64());
        check_stats(checks, pipe.filter.snapshot(), &input);
        (input, pipe)
    };
    let (input, pipe) = build(&mut out.checks);
    let backend = pipe.backend.as_ref();

    let first = answer(backend, DIR, &mut Tracer::new(false));
    check_store(&mut out.checks, &first.reader, &input);
    let oracle = Oracle::of(&first.reader);
    let text = scan_render(&first.reader, &mut Tracer::new(false));
    out.checks.same(
        "rendered text parses back to the batch trace",
        Trace::parse(&text) == first.trace,
        true,
    );
    drop((first, text));

    let mut tta = Samples::new("time_to_answer_s");
    let mut mean_us = Samples::new("query_mean_us");
    let mut scan = Samples::new("records_per_s");
    while tta.values.len() < p.sizes.min_reps || t_run.elapsed() < budget {
        let c0 = Instant::now();
        let ans = answer(backend, DIR, &mut Tracer::new(false));
        tta.push(c0.elapsed().as_secs_f64());
        // The same seeded mix every repetition: the repetitions differ
        // only in how much the sandbox disturbed them.
        let q = queries(
            &ans.reader,
            &oracle,
            p.seed,
            p.sizes.queries_each,
            &mut out.checks,
            &mut Tracer::new(false),
        );
        mean_us.push(q.mean_us());
        let s0 = Instant::now();
        let text = scan_render(&ans.reader, &mut Tracer::new(false));
        scan.push(ans.reader.n_records() as f64 / s0.elapsed().as_secs_f64());
        out.checks.same(
            "one text line per stored record",
            text.lines().count() as u64,
            ans.reader.n_records(),
        );
        if tta.values.len() == p.sizes.min_reps {
            out.report.set("peak_rss_mb", peak_rss_mb());
        }
        if tta.values.len().is_multiple_of(4) {
            drop(build(&mut out.checks));
        }
    }
    for s in [&setup, &scan, &tta, &mean_us] {
        s.report(&mut out.report);
    }
    let n = input.records().max(1) as f64;
    out.report
        .set("wire_bytes_per_record", input.bytes.len() as f64 / n);
    out.report.set(
        "store_bytes_per_record",
        StoreBytes::of(backend, DIR).total() as f64 / input.kept.len().max(1) as f64,
    );
}

/// A metered session's output checks. The simulation runs one OS
/// thread per simulated process, so *how many* records a run emits
/// can differ by a few between runs (a stream read returns whatever
/// has arrived); what must hold is that every stage of one run agrees
/// on that run's count.
fn check_session(checks: &mut Checks, run: &SimRun) {
    checks.attempt(run.records);
    checks.same(
        "session completed, sink saw every item, both termprocs stored",
        run.completed,
        true,
    );
    checks.same("getlog rendered every record", run.text_lines, run.records);
    checks.same("analysis typed every record", run.events, run.records);
    let stored = run.reader.as_ref().map_or(0, StoreReader::n_records);
    checks.fail(run.records.abs_diff(stored), || {
        "final store differs from the records seen durable".to_owned()
    });
}

/// The simulation's own trace, in store order, as a replayable input.
fn sim_trace(run: &SimRun) -> Input {
    let reader = run.reader.as_ref().expect("metered session has a store");
    Input::from_records(reader.scan().map(|f| f.raw))
}

fn sim_end_to_end(p: Params, out: &mut Outcome) {
    let budget = Duration::from_secs_f64(p.seconds);
    let t_run = Instant::now();
    let metered = |tr: &mut Tracer| session(p.seed, p.sizes.sim_items, true, tr);
    // One unmeasured session warms the process up and yields the
    // trace phase B replays.
    let warm = metered(&mut Tracer::new(false));
    check_session(&mut out.checks, &warm);
    let input = sim_trace(&warm);
    drop(warm);
    let b = paced_best(
        &input,
        pace_of(Workload::SimStream, &input, &p.sizes),
        &mut out.checks,
    );
    report_staleness(&b, &mut out.report);
    drop((b, input));

    let mut setup = Samples::new("setup_s");
    let mut rate = Samples::new("records_per_s");
    let mut tta = Samples::new("time_to_answer_s");
    let mut records = Vec::new();
    let mut last = None;
    while setup.values.len() < p.sizes.min_reps || t_run.elapsed() < budget {
        let run = metered(&mut Tracer::new(false));
        check_session(&mut out.checks, &run);
        setup.push(run.setup.as_secs_f64());
        rate.push(run.records as f64 / (run.job + run.drain).as_secs_f64());
        tta.push((run.getlog + run.of_log).as_secs_f64());
        records.push(run.records);
        if setup.values.len() == p.sizes.min_reps {
            out.report.set("peak_rss_mb", peak_rss_mb());
        }
        last = Some(run);
    }
    records.sort_unstable();
    println!(
        "# sessions of {}..={} records",
        records[0],
        records[records.len() - 1]
    );
    for s in [&setup, &rate, &tta] {
        s.report(&mut out.report);
    }
    let run = last.expect("at least one session");
    // Two processes own the whole store, so one `by_proc` answer is
    // half of it: a tenth of the queries costs as much as the full
    // mix does elsewhere.
    report_queries(
        run.reader.as_ref().expect("store"),
        (p.sizes.queries_each / 10).max(1),
        p.seed,
        out,
    );
    let n = run.records.max(1) as f64;
    out.report
        .set("wire_bytes_per_record", run.meter_bytes as f64 / n);
    out.report
        .set("store_bytes_per_record", run.store_bytes as f64 / n);
}

/// The simulated half of the traced `sim_stream` run. Returns the
/// simulation's own trace for the replay-side pass.
fn sim_traced(p: Params, out: &mut Outcome, tr: &mut Tracer) -> Input {
    let items = p.sizes.sim_items;
    let plain = session(p.seed, items, true, &mut Tracer::new(false));
    let run = session(p.seed, items, true, tr);
    let bare = session(p.seed, items, false, &mut Tracer::new(false));
    for r in [&plain, &run] {
        check_session(&mut out.checks, r);
    }
    out.checks
        .same("unmetered session completed", bare.completed, true);
    let input = sim_trace(&run);

    let n = run.records.max(1) as f64;
    let r = &mut out.report;
    r.set(
        "controller.setup_real_ms",
        run.controller_setup.as_secs_f64() * 1e3,
    );
    r.set(
        "controller.wait_job_lag_ms",
        run.wait_job_lag.as_secs_f64() * 1e3,
    );
    r.set(
        "controller.getlog_ns_per_rec",
        run.getlog.as_nanos() as f64 / n,
    );
    r.set(
        "controller.watch_ms_per_window",
        run.watch_window.as_secs_f64() * 1e3,
    );
    r.set(
        "simos.meter_overhead_pct",
        100.0 * (run.cpu_us as f64 / bare.cpu_us.max(1) as f64 - 1.0),
    );
    let cost = syscall_cost(items.max(100));
    r.set("simos.metered_syscall_real_ns", cost.metered_real_ns);
    r.set("simos.unmetered_syscall_real_ns", cost.unmetered_real_ns);
    r.set(
        "simos.meter_virtual_us_per_rec",
        cost.meter_virtual_us_per_rec,
    );
    r.set("simos.flushes_per_krec", cost.flushes_per_krec);
    let (ns_per_byte, us_per_kb) = stream_transfer(p.seed, items as usize * 256);
    r.set("simnet.stream_real_ns_per_byte", ns_per_byte);
    r.set("simnet.stream_virtual_us_per_kb", us_per_kb);
    let (rpc_us, rpc_virtual_ms) = daemon_rpc(p.seed, (items / 20).max(10));
    r.set("meterd.rpc_real_us", rpc_us);
    r.set("meterd.rpc_virtual_ms", rpc_virtual_ms);

    // What the layers' own costs explain of the job's wall time: one
    // metered syscall per record plus the bytes moved. The remainder
    // is thread-per-process scheduling and waiting (negative when the
    // two job processes overlapped on the two cores).
    let explained_ns = n * cost.metered_real_ns + run.wire_bytes as f64 * ns_per_byte;
    let wall_ns = (run.job + run.drain).as_nanos() as f64;
    r.set(
        "simos.unattributed_pct",
        100.0 * (1.0 - explained_ns / wall_ns.max(1.0)),
    );
    let timed = |s: &SimRun| (s.job + s.drain + s.getlog + s.of_log).as_secs_f64();
    r.set(
        "bench.trace_overhead_pct",
        100.0 * (timed(&run) - timed(&plain)) / timed(&plain),
    );
    input
}

/// The replay-side traced pass every workload shares: inline run
/// with spans (and once without, for the overhead), phase B for the
/// harness-validity numbers, the layer pass, the telemetry A/B.
fn replay_traced(input: &Input, pace: Pace, p: Params, out: &mut Outcome, tr: &mut Tracer) {
    // Tracing overhead: the inline run over a short prefix, untraced
    // and traced in alternation, the least-disturbed of each compared
    // (short, so that some repetition of each runs undisturbed).
    let mix = (p.seed, p.sizes.queries_each);
    let short = input.prefix(input.records() / 8);
    let (mut plain, mut traced) = (f64::MAX, f64::MAX);
    for _ in 0..8 {
        for (on, best) in [(false, &mut plain), (true, &mut traced)] {
            let t0 = Instant::now();
            drop(inline(
                &short,
                pace,
                mix,
                &mut out.checks,
                &mut Tracer::new(on),
            ));
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    let overhead = 100.0 * (traced - plain) / plain;
    println!(
        "# inline run over {} records: untraced {plain:.4} s, traced {traced:.4} s",
        short.records()
    );

    let first_span = tr.spans().len();
    let run = inline(input, pace, mix, &mut out.checks, tr);

    let mut self_ns: std::collections::BTreeMap<&str, (f64, f64, f64)> = Default::default();
    for s in &tr.spans()[first_span..] {
        let e = self_ns.entry(s.name.as_str()).or_default();
        e.0 += (s.end_ns - s.start_ns) as f64;
        e.1 += s.records as f64;
        e.2 += 1.0;
    }
    let per_rec = |name: &str| self_ns.get(name).map_or(0.0, |e| e.0 / e.1.max(1.0));
    let per_call_us = |name: &str| self_ns.get(name).map_or(0.0, |e| e.0 / e.2.max(1.0) / 1e3);
    let r = &mut out.report;
    r.set(
        "analysis.from_store_ns_per_rec",
        per_rec("analysis.from_store"),
    );
    r.set("analysis.pairing_ns_per_rec", per_rec("analysis.pairing"));
    r.set("analysis.hb_ns_per_rec", per_rec("analysis.hb"));
    r.set("analysis.stats_ns_per_rec", per_rec("analysis.stats"));
    r.set(
        "logstore.tail_poll_ns_per_rec",
        per_rec("logstore.tail_poll"),
    );
    r.set("logstore.by_proc_us", per_call_us("logstore.by_proc"));
    r.set("logstore.range_us", per_call_us("logstore.range_by_time"));
    let (q50, q99) = run.queried.percentiles_us();
    r.set("logstore.query_p50_us", q50);
    r.set("logstore.query_p99_us", q99);
    r.set(
        "logstore.scan_records_per_s",
        1e9 / per_rec("logstore.scan+filter.render").max(1e-9),
    );
    let closes = &run.window_close_ms;
    r.set(
        "live.window_close_first_ms",
        closes.first().copied().unwrap_or(0.0),
    );
    r.set(
        "live.window_close_last_ms",
        closes.last().copied().unwrap_or(0.0),
    );
    r.set("live.window_close_p50_ms", median(closes));
    r.set(
        "bench.inline_records_per_s",
        input.records() as f64 / run.ingest.as_secs_f64(),
    );
    // A traced sim_stream run already reported the overhead of its
    // simulated half; the replay half's is averaged in.
    let overhead = match r.get("bench.trace_overhead_pct") {
        Some(sim) => (sim + overhead) / 2.0,
        None => overhead,
    };
    r.set("bench.trace_overhead_pct", overhead);

    let b = paced(input, pace, &mut out.checks);
    let r = &mut out.report;
    r.set(
        "bench.generator_lag_p99_ms",
        percentile_sorted(&b.generator_lag_ms, 99.0),
    );
    r.set("bench.backlog_end_records", b.backlog_end as f64);
    r.set(
        "bench.staleness_p99_ms",
        percentile_sorted(&b.staleness_ms, 99.0),
    );
    layer_pass(input, &run, r);
    r.set("telemetry.overhead_pct", telemetry_overhead_pct(&short, 8));
}
