//! Criterion benchmark E3: filter selection/reduction throughput as a
//! function of the template set (§3.4), plus the reassembly hot path
//! under corruption (the zero-copy cursor engine vs the seed's
//! shift-the-buffer reassembly).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpm_filter::{Descriptions, FilterEngine, Rules};
use dpm_meter::{trace_type, MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName, HEADER_LEN};
use std::hint::black_box;

fn wire_chunk(records: usize) -> Vec<u8> {
    let msg = MeterMsg {
        header: MeterHeader {
            size: 0,
            machine: 3,
            cpu_time: 5_000,
            seq: 0,
            proc_time: 20,
            trace_type: trace_type::SEND,
        },
        body: MeterBody::Send(MeterSendMsg {
            pid: 1234,
            pc: 9,
            sock: 4,
            msg_length: 612,
            dest_name: Some(SockName::inet(1, 53)),
        }),
    };
    let mut wire = Vec::new();
    for _ in 0..records {
        msg.encode_into(&mut wire);
    }
    wire
}

/// A stream with a run of unframeable bytes before every record —
/// the "corrupt meter connection" worst case that drives the
/// resynchronization path.
fn garbage_wire(records: usize, run: usize) -> Vec<u8> {
    let clean = wire_chunk(1);
    let mut wire = Vec::new();
    for _ in 0..records {
        wire.extend(std::iter::repeat_n(0u8, run));
        wire.extend_from_slice(&clean);
    }
    wire
}

/// The seed's reassembly loop, reproduced verbatim as a baseline:
/// `Vec::remove(0)` per garbage byte and `drain().collect()` per
/// record (one heap allocation each). Selection/reduction is the same
/// `process_record`, so the comparison isolates the reassembly path.
struct ShiftingReassembly {
    engine: FilterEngine,
    buf: Vec<u8>,
}

impl ShiftingReassembly {
    fn feed(&mut self, data: &[u8]) -> usize {
        self.buf.extend_from_slice(data);
        let mut kept = 0;
        loop {
            if self.buf.len() < HEADER_LEN {
                break;
            }
            let size =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if !(HEADER_LEN..=4096).contains(&size) {
                self.buf.remove(0);
                continue;
            }
            if self.buf.len() < size {
                break;
            }
            let record: Vec<u8> = self.buf.drain(..size).collect();
            if self.engine.process_record(&record).is_some() {
                kept += 1;
            }
        }
        kept
    }
}

fn bench_garbage(c: &mut Criterion) {
    let records = 256;
    // One-third garbage by volume, in 32-byte runs.
    let wire = garbage_wire(records, 32);
    let mut g = c.benchmark_group("filter_reassembly");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("garbage_heavy_cursor"),
        &wire,
        |b, wire| {
            // Rendered lines on both sides (`process_record` renders
            // too), so the difference is the reassembly alone.
            let mut engine = FilterEngine::standard();
            b.iter(|| black_box(engine.feed(wire)).len());
        },
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("garbage_heavy_seed_shift"),
        &wire,
        |b, wire| {
            let mut seed = ShiftingReassembly {
                engine: FilterEngine::standard(),
                buf: Vec::new(),
            };
            b.iter(|| black_box(seed.feed(wire)));
        },
    );
    // Clean stream, delivered in socket-sized chunks: the steady
    // state where the cursor walk touches each byte exactly once and
    // the sink (like the store's) renders nothing.
    let clean = wire_chunk(records);
    g.throughput(Throughput::Bytes(clean.len() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("clean_chunked_cursor"),
        &clean,
        |b, clean| {
            let mut engine = FilterEngine::standard();
            b.iter(|| {
                let mut kept = 0usize;
                for chunk in clean.chunks(1024) {
                    engine.feed_records(chunk, &mut |_view, _rec| kept += 1);
                }
                black_box(kept)
            });
        },
    );
    g.finish();
}

fn bench_filter(c: &mut Criterion) {
    let records = 256;
    let wire = wire_chunk(records);
    let cases: Vec<(&str, String)> = vec![
        ("keep_all", String::new()),
        ("one_simple", "machine=3, cpuTime<10000\n".into()),
        (
            "fig_3_4_wildcards",
            "machine=#*, type=1, pid=1*, size>=512\n".into(),
        ),
        ("reject_all", "machine=99\n".into()),
        (
            "sixteen_rules",
            (0..16).map(|i| format!("machine={}\n", 50 + i)).collect(),
        ),
    ];
    let mut g = c.benchmark_group("filter_engine");
    g.throughput(Throughput::Elements(records as u64));
    for (label, rules) in cases {
        let desc = Descriptions::standard();
        let rules = Rules::parse(&rules).expect("rules");
        g.bench_with_input(BenchmarkId::from_parameter(label), &wire, |b, wire| {
            let mut engine = FilterEngine::new(desc.clone(), rules.clone());
            b.iter(|| black_box(engine.feed(wire)).len());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_filter, bench_garbage);
criterion_main!(benches);
