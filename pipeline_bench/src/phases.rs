//! The timed phases every workload is made of, driven from outside
//! through the crates' public functions, and the output checks that
//! go with them.
//!
//! * **A — ingest** ([`ingest`]): the whole input fed in 4 KiB chunks
//!   into a one-shard [`ShardedFilter`] whose sink is a binary log
//!   store; closed loop, timed from first feed to `flush()` returning.
//! * **B — paced live watch** ([`paced`]): the input fed on a fixed
//!   schedule (open loop) while the feeder thread tails the store into
//!   a [`LiveWatch`] and closes windows.
//! * **C — answer** ([`answer`]): quiescent store → loaded reader →
//!   trace → pairing → happens-before → statistics.
//! * **D — queries** ([`queries`], [`scan_render`]): point and range
//!   queries in seeded order, and a full scan rendered to text.
//!
//! [`inline`] runs A–D on one thread with a span around every call;
//! it is the traced run and the single-threaded baseline.

use crate::gen::{Input, Rng};
use crate::trace::Tracer;
use dpm_analysis::{CommStats, HappensBefore, Pairing, Trace};
use dpm_filter::{
    Descriptions, FilterEngine, FilterStats, LogRecord, Rules, ShardLog, ShardedFilter,
    DEFAULT_BATCH_BYTES,
};
use dpm_live::LiveWatch;
use dpm_logstore::{
    seal_manifest_hook, Backend, LogStore, MemBackend, ProcId, StoreConfig, StoreReader, StoreTail,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The store directory on the in-memory backend.
pub const DIR: &str = "/log";
/// Meter-connection read size: the input is fed in chunks this long.
pub const CHUNK: usize = 4096;
/// Phase B polls the store tail this often.
pub const POLL_EVERY: Duration = Duration::from_millis(10);
/// Phase B closes a watch window this often.
pub const WINDOW_EVERY: Duration = Duration::from_millis(500);

/// Tally of the output checks: what was attempted, what came out
/// wrong, and a line per kind of failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Records emitted plus queries issued.
    pub attempted: u64,
    /// Records missing, extra or differing, plus wrong query answers.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `n` more attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failures of the named check (no-op for `n == 0`).
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("{} ({n})", what()));
        }
    }

    /// Fails once when `got != want`.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.fail(1, || format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// A store-backed one-shard filter pipeline over a fresh in-memory
/// backend: what phases A and B feed.
pub struct Pipeline {
    /// Where the store's segments, sidecars and manifest land.
    pub backend: Arc<MemBackend>,
    /// The filter; its single shard worker is the system under test.
    pub filter: ShardedFilter,
}

/// Builds the pipeline for `input`'s rule set (part of set-up).
pub fn pipeline(input: &Input) -> Pipeline {
    let backend = Arc::new(MemBackend::new());
    let mut store = LogStore::open(backend.clone(), DIR, StoreConfig::default());
    store.set_seal_hook(seal_manifest_hook(backend.clone(), DIR));
    let filter = ShardedFilter::with_logs(
        1,
        Descriptions::standard(),
        rules_of(input),
        DEFAULT_BATCH_BYTES,
        |shard| ShardLog::Store(Box::new(store.writer(shard as u16))),
    );
    Pipeline { backend, filter }
}

/// The input's selection rules, parsed.
pub fn rules_of(input: &Input) -> Rules {
    Rules::parse(&input.rules).expect("generated rules parse")
}

/// Phase A: feeds every chunk, closes the connection and waits for
/// the shard to drain and commit. Returns the wall time from first
/// feed to the last record durable in the store.
pub fn ingest(p: &Pipeline, bytes: &[u8]) -> Duration {
    let conn = p.filter.open_conn();
    let t0 = Instant::now();
    for chunk in bytes.chunks(CHUNK) {
        conn.feed(chunk.to_vec());
    }
    conn.close();
    p.filter.flush();
    t0.elapsed()
}

/// Conservation and agreement of the filter's own counters with what
/// the generator knows it emitted.
pub fn check_stats(checks: &mut Checks, stats: FilterStats, input: &Input) {
    checks.same(
        "fed = kept + rejected + duplicates",
        stats.seen,
        stats.kept + stats.rejected + stats.duplicates,
    );
    checks.same(
        "filter saw every record",
        stats.seen,
        input.records() as u64,
    );
    checks.same("filter kept", stats.kept, input.kept.len() as u64);
    checks.same(
        "filter dropped duplicates",
        stats.duplicates,
        input.dups.len() as u64,
    );
    checks.same("no garbage in a clean stream", stats.garbage_bytes, 0);
}

/// Compares the store, frame by frame, with the records the reference
/// says must be there; every emitted record counts as attempted.
pub fn check_store(checks: &mut Checks, reader: &StoreReader, input: &Input) {
    checks.attempt(input.records() as u64);
    let mut wrong = 0u64;
    let mut stored = 0usize;
    for frame in reader.scan() {
        match input.kept.get(stored) {
            Some(&i) if input.record(i as usize) == frame.raw => {}
            _ => wrong += 1,
        }
        stored += 1;
    }
    wrong += input.kept.len().saturating_sub(stored) as u64;
    checks.fail(wrong, || {
        "store differs from the reference records".to_owned()
    });
    checks.same(
        "store n_records == kept",
        reader.n_records(),
        input.kept.len() as u64,
    );
}

/// Bytes the store occupies on its backend, by kind of file.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreBytes {
    /// Segment files.
    pub segments: u64,
    /// Index sidecars.
    pub index: u64,
    /// Everything else under the directory (the seal manifest).
    pub other: u64,
}

impl StoreBytes {
    /// Sizes every file under `dir`.
    pub fn of(backend: &dyn Backend, dir: &str) -> StoreBytes {
        let mut out = StoreBytes::default();
        for name in backend.list(&format!("{dir}/")) {
            let len = backend.read(&name).map_or(0, |b| b.len() as u64);
            if name.ends_with(".seg") {
                out.segments += len;
            } else if name.ends_with(".idx") {
                out.index += len;
            } else {
                out.other += len;
            }
        }
        out
    }

    /// All of it.
    pub fn total(&self) -> u64 {
        self.segments + self.index + self.other
    }
}

/// What phase C produces: the loaded reader and every batch analysis.
pub struct Answer {
    /// The loaded store snapshot.
    pub reader: StoreReader,
    /// Typed events.
    pub trace: Trace,
    /// Connection pairing and message matching.
    pub pairing: Pairing,
    /// Happens-before.
    pub hb: HappensBefore,
    /// Communication statistics.
    pub stats: CommStats,
}

/// Phase C: quiescent store → complete batch result.
pub fn answer(backend: &dyn Backend, dir: &str, tr: &mut Tracer) -> Answer {
    let reader = tr.span("logstore.load", |_| {
        let r = StoreReader::load(backend, dir);
        let n = r.n_records();
        (r, n, 0)
    });
    let desc = Descriptions::standard();
    let n = reader.n_records();
    let trace = tr.span("analysis.from_store", |_| {
        (Trace::from_store(&reader, &desc), n, 0)
    });
    let pairing = tr.span("analysis.pairing", |_| (Pairing::analyze(&trace), n, 0));
    let hb = tr.span("analysis.hb", |_| {
        (HappensBefore::build(&trace, &pairing), n, 0)
    });
    let stats = tr.span("analysis.stats", |_| {
        (CommStats::analyze(&trace, &pairing), n, 0)
    });
    Answer {
        reader,
        trace,
        pairing,
        hb,
        stats,
    }
}

/// The live view must equal the batch result at quiescence: trace,
/// pairing, happens-before and statistics, field for field.
pub fn check_live(checks: &mut Checks, watch: &mut LiveWatch, batch: &Answer) {
    let live = watch.live_mut();
    let same_trace = live.trace() == &batch.trace;
    checks.fail(u64::from(!same_trace), || {
        format!(
            "live trace ({} events) != batch trace ({} events)",
            live.len(),
            batch.trace.len()
        )
    });
    let same = [
        ("pairing", live.pairing() == &batch.pairing),
        ("happens-before", live.hb() == &batch.hb),
        ("statistics", live.stats() == &batch.stats),
    ];
    for (what, ok) in same {
        checks.fail(u64::from(!ok), || format!("live {what} != batch {what}"));
    }
}

/// Shape of a phase-B run.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Records due per second.
    pub rate: f64,
    /// Records to emit (a prefix of the input).
    pub records: usize,
}

/// What phase B measured.
#[derive(Debug, Default)]
pub struct Paced {
    /// Per kept record: due emit instant → applied to the live view,
    /// milliseconds, sorted ascending.
    pub staleness_ms: Vec<f64>,
    /// Per chunk: how late the generator fed it, milliseconds, sorted.
    pub generator_lag_ms: Vec<f64>,
    /// Kept records emitted but not yet applied when the schedule
    /// ended.
    pub backlog_end: u64,
    /// Duration of every window close, milliseconds, in order.
    pub window_close_ms: Vec<f64>,
}

/// Phase B: open loop at `pace.rate`, tail poll every [`POLL_EVERY`]
/// and a window closed every [`WINDOW_EVERY`], all on the feeder
/// thread — a window close therefore delays the records due during
/// it, and that delay is counted, because each record is timed from
/// the instant it was *due*, not from when the generator got to it.
pub fn paced(input: &Input, pace: Pace, checks: &mut Checks) -> Paced {
    let input = input.prefix(pace.records);
    let p = pipeline(&input);
    let mut tail = StoreTail::new();
    let mut watch = LiveWatch::new(Descriptions::standard());
    // Chunk j is due when the last record that ends inside it is due.
    let chunks: Vec<&[u8]> = input.bytes.chunks(CHUNK).collect();
    let chunk_due: Vec<f64> = (0..chunks.len())
        .map(|j| {
            let end = ((j + 1) * CHUNK).min(input.bytes.len()) as u32;
            input.ends.partition_point(|&e| e <= end) as f64 / pace.rate
        })
        .collect();
    let mut out = Paced {
        staleness_ms: Vec::with_capacity(input.kept.len()),
        generator_lag_ms: Vec::with_capacity(chunks.len()),
        ..Paced::default()
    };

    let conn = p.filter.open_conn();
    let mut conn = Some(conn);
    let t0 = Instant::now();
    let (mut next_poll, mut next_window) = (POLL_EVERY, WINDOW_EVERY);
    let mut fed = 0usize;
    let mut applied = 0usize;
    let deadline = Duration::from_secs_f64(chunk_due.last().copied().unwrap_or(0.0) + 30.0);
    loop {
        let now = t0.elapsed();
        while fed < chunks.len() && chunk_due[fed] <= now.as_secs_f64() {
            out.generator_lag_ms
                .push((t0.elapsed().as_secs_f64() - chunk_due[fed]) * 1e3);
            conn.as_ref().expect("open").feed(chunks[fed].to_vec());
            fed += 1;
        }
        if fed == chunks.len() {
            if let Some(c) = conn.take() {
                // The schedule just ended: whatever is not applied yet
                // is the backlog the rate left behind.
                out.backlog_end = (input.kept.len() - applied) as u64;
                c.close();
                p.filter.flush();
            }
        }
        if now >= next_poll {
            let frames = tail.poll(p.backend.as_ref(), DIR);
            let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
            watch.ingest_batch(frames);
            let at = t0.elapsed().as_secs_f64();
            for seq in seqs {
                // One shard, one connection: store order is input
                // order, so store seq k is the k-th kept record.
                if let Some(&i) = input.kept.get(seq as usize) {
                    let due = f64::from(i + 1) / pace.rate;
                    out.staleness_ms.push((at - due) * 1e3);
                }
                applied += 1;
            }
            next_poll = (next_poll + POLL_EVERY).max(t0.elapsed());
        }
        if now >= next_window {
            let c0 = Instant::now();
            black_box(watch.close_window());
            out.window_close_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            next_window = (next_window + WINDOW_EVERY).max(t0.elapsed());
        }
        if conn.is_none() && (applied >= input.kept.len() || now > deadline) {
            break;
        }
        let next_feed = chunk_due
            .get(fed)
            .map_or(Duration::MAX, |&d| Duration::from_secs_f64(d));
        let wake = next_feed.min(next_poll).min(next_window);
        let wait = wake.saturating_sub(t0.elapsed());
        if wait > Duration::from_micros(300) {
            std::thread::sleep(wait - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
    let c0 = Instant::now();
    black_box(watch.close_window());
    out.window_close_ms.push(c0.elapsed().as_secs_f64() * 1e3);

    check_stats(checks, p.filter.snapshot(), &input);
    let batch = answer(p.backend.as_ref(), DIR, &mut Tracer::new(false));
    check_store(checks, &batch.reader, &input);
    check_live(checks, &mut watch, &batch);
    checks.same("every kept record was applied", applied, input.kept.len());
    sort(&mut out.staleness_ms);
    sort(&mut out.generator_lag_ms);
    out
}

fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("times are not NaN"));
}

/// What the query mix measured.
#[derive(Debug, Default)]
pub struct Queried {
    /// Latency of every `by_proc` query, microseconds.
    pub by_proc_us: Vec<f64>,
    /// Latency of every `range_by_time` query, microseconds.
    pub range_us: Vec<f64>,
}

impl Queried {
    /// Mean latency over the whole mix, microseconds. (The mean, not
    /// the median: the two kinds of query — and, on a store of two
    /// processes, the two processes — cost very differently, so the
    /// median of the mix sits on the edge between two modes and jumps
    /// from one to the other between runs.)
    pub fn mean_us(&self) -> f64 {
        let n = self.by_proc_us.len() + self.range_us.len();
        self.by_proc_us.iter().chain(&self.range_us).sum::<f64>() / n.max(1) as f64
    }

    /// `(p50, p99)` of the pooled mix.
    pub fn percentiles_us(&self) -> (f64, f64) {
        let mut v: Vec<f64> = self
            .by_proc_us
            .iter()
            .chain(&self.range_us)
            .copied()
            .collect();
        sort(&mut v);
        (
            crate::stats::percentile_sorted(&v, 50.0),
            crate::stats::percentile_sorted(&v, 99.0),
        )
    }
}

/// The brute-force reference for the query mix: one full scan, kept
/// as plain arrays the queries are answered from by filtering.
pub struct Oracle {
    /// `(ts_us, seq)` of every frame, sorted by timestamp.
    by_ts: Vec<(u64, u64)>,
    /// Seqs of every process's frames, ascending.
    by_proc: HashMap<ProcId, Vec<u64>>,
    /// The processes present, sorted.
    procs: Vec<ProcId>,
}

impl Oracle {
    /// Scans the whole store once.
    pub fn of(reader: &StoreReader) -> Oracle {
        let mut by_ts = Vec::new();
        let mut by_proc: HashMap<ProcId, Vec<u64>> = HashMap::new();
        for f in reader.scan() {
            by_ts.push((f.ts_us, f.seq));
            by_proc.entry(f.proc).or_default().push(f.seq);
        }
        by_ts.sort_unstable();
        let mut procs: Vec<ProcId> = by_proc.keys().copied().collect();
        procs.sort();
        Oracle {
            by_ts,
            by_proc,
            procs,
        }
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let from = self.by_ts.partition_point(|&(ts, _)| ts < lo);
        let to = self.by_ts.partition_point(|&(ts, _)| ts <= hi);
        let mut seqs: Vec<u64> = self.by_ts[from..to].iter().map(|&(_, s)| s).collect();
        seqs.sort_unstable();
        seqs
    }
}

/// Phase D, queries: `n_each` `by_proc` and `n_each` `range_by_time`
/// (spans of 1 % of the stored time range) in seeded order, each timed
/// on its own and each answer compared with the oracle's.
pub fn queries(
    reader: &StoreReader,
    oracle: &Oracle,
    seed: u64,
    n_each: usize,
    checks: &mut Checks,
    tr: &mut Tracer,
) -> Queried {
    let mut out = Queried::default();
    if oracle.procs.is_empty() {
        return out;
    }
    let mut rng = Rng::new(seed ^ 0x51ed_270b_7f4a_7c15);
    let (t_min, t_max) = (oracle.by_ts[0].0, oracle.by_ts[oracle.by_ts.len() - 1].0);
    let span = (t_max - t_min) / 100;
    let mut wrong = 0u64;
    // Processes are taken round robin from a seeded starting point, so
    // every seed asks about each process equally often and the mix
    // costs the same whatever the seed.
    let first_proc = rng.below(oracle.procs.len() as u64) as usize;
    for k in 0..2 * n_each {
        // Alternate the two kinds so neither runs on a warmer cache.
        if k % 2 == 0 {
            let proc = oracle.procs[(first_proc + k / 2) % oracle.procs.len()];
            tr.begin("logstore.by_proc");
            let t0 = Instant::now();
            let hits = reader.by_proc(proc);
            out.by_proc_us.push(t0.elapsed().as_secs_f64() * 1e6);
            tr.end(hits.len() as u64, 0);
            let want = &oracle.by_proc[&proc];
            wrong += u64::from(!hits.iter().map(|f| f.seq).eq(want.iter().copied()));
        } else {
            let lo = t_min + rng.below(t_max - t_min - span + 1);
            tr.begin("logstore.range_by_time");
            let t0 = Instant::now();
            let hits = reader.range_by_time(lo, lo + span);
            out.range_us.push(t0.elapsed().as_secs_f64() * 1e6);
            tr.end(hits.len() as u64, 0);
            let want = oracle.range(lo, lo + span);
            wrong += u64::from(!hits.iter().map(|f| f.seq).eq(want.iter().copied()));
        }
    }
    checks.attempt(2 * n_each as u64);
    checks.fail(wrong, || {
        "query answers differ from the scan oracle".to_owned()
    });
    out
}

/// Phase D, scan: every frame rendered to its §3.4 text line — what
/// `getlog` does with a store. Returns the text.
pub fn scan_render(reader: &StoreReader, tr: &mut Tracer) -> String {
    let desc = Descriptions::standard();
    tr.span("logstore.scan+filter.render", |_| {
        let mut text = String::new();
        let mut n = 0u64;
        for f in reader.scan() {
            if let Some(rec) = LogRecord::from_raw(&desc, f.raw, &[]) {
                writeln!(text, "{rec}").expect("write to String");
            }
            n += 1;
        }
        let bytes = text.len() as u64;
        (text, n, bytes)
    })
}

/// What the inline run measured beyond its spans.
pub struct Inline {
    /// Wall time of the ingest-and-watch part (first feed → last
    /// window closed).
    pub ingest: Duration,
    /// Duration of every window close, milliseconds, in order.
    pub window_close_ms: Vec<f64>,
    /// Bytes the tail was offered again after consuming them.
    pub tail_reoffered: u64,
    /// Records the live view dropped as duplicates.
    pub live_dups: u64,
    /// The batch result over the final store.
    pub answer: Answer,
    /// The rendered log text.
    pub text: String,
    /// The query mix's latencies.
    pub queried: Queried,
    /// The final store's backend.
    pub backend: Arc<MemBackend>,
}

/// Phases A–D inline on one thread, a span around every call into a
/// layer: engine → store append (inside the sink, summed per chunk) →
/// flush → tail poll → live ingest → window close at the same record
/// cadence phase B has at `pace.rate`, then load, analyses, the query
/// mix (`n_queries` of each kind) and the rendered scan. With a disabled tracer this is
/// the single-threaded baseline of the workload.
pub fn inline(
    input: &Input,
    pace: Pace,
    (seed, n_queries): (u64, usize),
    checks: &mut Checks,
    tr: &mut Tracer,
) -> Inline {
    let backend = Arc::new(MemBackend::new());
    let mut store = LogStore::open(backend.clone(), DIR, StoreConfig::default());
    store.set_seal_hook(seal_manifest_hook(backend.clone(), DIR));
    let mut writer = store.writer(0);
    let mut engine = FilterEngine::new(Descriptions::standard(), rules_of(input));
    let mut tail = StoreTail::new();
    let mut watch = LiveWatch::new(Descriptions::standard());
    let poll_records = (pace.rate * POLL_EVERY.as_secs_f64()).max(1.0) as u64;
    let window_records = (pace.rate * WINDOW_EVERY.as_secs_f64()).max(1.0) as u64;
    let (mut next_poll, mut next_window) = (poll_records, window_records);
    let mut window_close_ms = Vec::new();
    let reoffered = dpm_telemetry::registry().counter("tail", "reparse_bytes", "");
    let reoffered_before = reoffered.get();
    let timed = tr.enabled();

    let t0 = Instant::now();
    let n_chunks = input.bytes.len().div_ceil(CHUNK);
    for (j, chunk) in input.bytes.chunks(CHUNK).enumerate() {
        let seen_before = engine.stats().seen;
        tr.begin("filter.feed_records");
        let (mut append_ns, mut appended, mut append_bytes) = (0u64, 0u64, 0u64);
        engine.feed_records(chunk, &mut |view, _rec| {
            if timed {
                let a0 = Instant::now();
                writer.append(view.bytes());
                append_ns += a0.elapsed().as_nanos() as u64;
            } else {
                writer.append(view.bytes());
            }
            appended += 1;
            append_bytes += view.len() as u64;
        });
        tr.child_total("logstore.append", append_ns, appended, append_bytes);
        tr.end(engine.stats().seen - seen_before, chunk.len() as u64);

        let seen = engine.stats().seen;
        let last = j + 1 == n_chunks;
        if seen >= next_poll || last {
            tr.span("logstore.flush", |_| {
                writer.flush();
                ((), 0, 0)
            });
            let frames = tr.span("logstore.tail_poll", |_| {
                let f = tail.poll(backend.as_ref(), DIR);
                let n = f.len() as u64;
                (f, n, 0)
            });
            tr.span("live.ingest_batch", |_| {
                let n = frames.len() as u64;
                watch.ingest_batch(frames);
                ((), n, 0)
            });
            next_poll = seen + poll_records;
        }
        if seen >= next_window || last {
            let c0 = Instant::now();
            tr.span("live.close_window", |_| {
                let snap = watch.close_window();
                ((), snap.new_records, 0)
            });
            window_close_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            next_window = seen + window_records;
        }
    }
    let ingest = t0.elapsed();
    drop(writer);

    let answer = answer(backend.as_ref(), DIR, tr);
    check_stats(checks, engine.stats(), input);
    check_store(checks, &answer.reader, input);
    check_live(checks, &mut watch, &answer);
    let oracle = Oracle::of(&answer.reader);
    let queried = queries(&answer.reader, &oracle, seed, n_queries, checks, tr);
    let text = scan_render(&answer.reader, tr);
    Inline {
        ingest,
        window_close_ms,
        tail_reoffered: reoffered.get() - reoffered_before,
        live_dups: watch.live().duplicates(),
        answer,
        text,
        queried,
        backend,
    }
}
