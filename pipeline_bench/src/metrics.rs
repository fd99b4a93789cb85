//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, by the exact names `BENCHMARK.json` carries and
//! later issues refer to. A unit test keeps `BENCHMARK.json` and these
//! tables equal.

use crate::stats::Better;
use std::collections::BTreeMap;

/// One workload: a name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The five workloads, in run order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_stream",
        why: "Full simulated session: metered 2-stage stream job to a store filter, getlog, analysis; the only workload where simos, simnet, meterd and controller do most of the work.",
    },
    WorkloadDef {
        name: "replay_keepall",
        why: "Stream-shaped records replayed with no rules: every record crosses reassembly, render, store append, tail, live apply and batch analysis.",
    },
    WorkloadDef {
        name: "replay_selective",
        why: "Same bytes under 16 templates keeping about 6 percent: rule evaluation does most of the work, so a store- or live-side change must predict no change here.",
    },
    WorkloadDef {
        name: "replay_dgram",
        why: "Datagram-shaped request/reply records with 5 percent duplicates: datagram pairing, seq dedup and window re-pairing dominate (super-linear today).",
    },
    WorkloadDef {
        name: "store_query",
        why: "The keepall store built in set-up, then read: load, point and range queries, full scan rendered to text, batch analysis; a change that speeds append but slows reads shows here.",
    },
];

/// One end-to-end metric: reported by every workload, gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Exact metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. Every workload reports every one (see the
/// README for what each means on each workload). The wall-clock
/// bounds are the contract's cap: the widest run-to-run spreads
/// measured on the sandbox are 0.08–0.14 (README, *Steadiness*), so
/// nothing tighter would hold there; memory is steadier and the byte
/// counts are exact.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("records_per_s", "rec/s", Better::Higher, 0.25),
    e2e("time_to_answer_s", "s", Better::Lower, 0.25),
    e2e("staleness_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_mean_us", "us", Better::Lower, 0.25),
    e2e("wire_bytes_per_record", "B", Better::Lower, 0.01),
    e2e("store_bytes_per_record", "B", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// One per-layer metric: reported on traced runs, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Exact metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn lo(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn hi(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const SIM_RPS: &str = "records_per_s on sim_stream";
const KEEP_RPS: &str = "records_per_s on replay_keepall";
const SEL_RPS: &str = "records_per_s on replay_selective";
const DGRAM_RPS: &str = "records_per_s on replay_dgram";
const ANSWER: &str = "time_to_answer_s everywhere";
const P50: &str = "staleness_p50_ms on replay_keepall, replay_dgram";
const P99: &str = "bench.staleness_p99_ms on replay_keepall, replay_dgram";
const QUERY: &str = "query_mean_us on store_query";
const VALID: &str = "validity of staleness_*";

/// The per-layer metrics (layer = crate). A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    lo("meter.encode_ns_per_rec", "ns", SIM_RPS),
    lo("meter.decode_ns_per_rec", "ns", SIM_RPS),
    lo("meter.to_msg_ns_per_rec", "ns", SIM_RPS),
    lo(
        "meter.wire_bytes_per_rec",
        "B",
        "wire_bytes_per_record on sim_stream",
    ),
    lo("simos.metered_syscall_real_ns", "ns", SIM_RPS),
    lo("simos.unmetered_syscall_real_ns", "ns", SIM_RPS),
    lo(
        "simos.meter_virtual_us_per_rec",
        "us",
        "simos.meter_overhead_pct",
    ),
    lo("simos.flushes_per_krec", "1/krec", SIM_RPS),
    lo(
        "simos.meter_overhead_pct",
        "%",
        "the paper's E1 figure (deterministic)",
    ),
    lo("simos.unattributed_pct", "%", SIM_RPS),
    lo("simnet.stream_real_ns_per_byte", "ns", SIM_RPS),
    lo("simnet.stream_virtual_us_per_kb", "us", SIM_RPS),
    lo("meterd.rpc_real_us", "us", "setup_s on sim_stream"),
    lo("meterd.rpc_virtual_ms", "ms", "setup_s on sim_stream"),
    lo("controller.setup_real_ms", "ms", "setup_s on sim_stream"),
    lo("controller.wait_job_lag_ms", "ms", SIM_RPS),
    lo(
        "controller.getlog_ns_per_rec",
        "ns",
        "time_to_answer_s on sim_stream",
    ),
    lo(
        "controller.watch_ms_per_window",
        "ms",
        "time_to_answer_s on sim_stream",
    ),
    lo("filter.engine_ns_per_rec", "ns", KEEP_RPS),
    lo("filter.rules_ns_per_rec_t0", "ns", SEL_RPS),
    lo("filter.rules_ns_per_rec_t4", "ns", SEL_RPS),
    lo("filter.rules_ns_per_rec_t16", "ns", SEL_RPS),
    lo("filter.rules_ns_per_rec", "ns", SEL_RPS),
    lo("filter.render_ns_per_rec", "ns", KEEP_RPS),
    hi(
        "filter.kept_ratio",
        "ratio",
        "separates replay_selective from replay_keepall",
    ),
    lo("filter.shard_handoff_ns_per_rec", "ns", KEEP_RPS),
    lo("filter.resync_ns_per_garbage_byte", "ns", KEEP_RPS),
    lo("filter.dup_dropped", "count", DGRAM_RPS),
    lo("filter.tree_merge_ns_per_rec", "ns", DGRAM_RPS),
    lo("filter.tree_pending_peak_bytes", "B", "peak_rss_mb"),
    lo("filter.rules_share_pct", "%", SEL_RPS),
    lo("logstore.append_ns_per_rec", "ns", KEEP_RPS),
    lo("logstore.segments", "count", KEEP_RPS),
    lo(
        "logstore.store_bytes_per_rec",
        "B",
        "store_bytes_per_record on replay_keepall",
    ),
    lo(
        "logstore.index_bytes_per_rec",
        "B",
        "store_bytes_per_record on replay_keepall",
    ),
    lo("logstore.recover_ms", "ms", "setup_s"),
    lo("logstore.load_ms", "ms", "time_to_answer_s on store_query"),
    lo(
        "logstore.scan_ns_per_rec",
        "ns",
        "records_per_s on store_query",
    ),
    hi(
        "logstore.scan_records_per_s",
        "rec/s",
        "records_per_s on store_query",
    ),
    lo("logstore.by_proc_us", "us", QUERY),
    lo("logstore.range_us", "us", QUERY),
    lo("logstore.query_p50_us", "us", QUERY),
    lo("logstore.query_p99_us", "us", QUERY),
    lo("logstore.tail_poll_ns_per_rec", "ns", P50),
    lo("logstore.tail_read_amplification", "ratio", P50),
    lo("live.apply_ns_per_rec", "ns", P50),
    lo("live.apply_skewed_ns_per_rec", "ns", P50),
    lo("live.reorder_peak", "count", "peak_rss_mb"),
    lo("live.window_close_first_ms", "ms", P99),
    lo("live.window_close_last_ms", "ms", P99),
    lo("live.window_close_p50_ms", "ms", P99),
    lo("live.dup_dropped", "count", P50),
    lo("analysis.from_store_ns_per_rec", "ns", ANSWER),
    lo(
        "analysis.parse_text_ns_per_rec",
        "ns",
        "time_to_answer_s on sim_stream",
    ),
    lo(
        "analysis.pairing_ns_per_rec",
        "ns",
        "time_to_answer_s on replay_dgram; live.window_close_*",
    ),
    lo("analysis.hb_ns_per_rec", "ns", ANSWER),
    lo("analysis.stats_ns_per_rec", "ns", ANSWER),
    hi("analysis.matched_ratio", "ratio", "correctness of pairing"),
    lo("telemetry.overhead_pct", "%", KEEP_RPS),
    lo(
        "bench.staleness_p99_ms",
        "ms",
        "what a watcher sees in the worst 1 % (too unsteady here to gate)",
    ),
    lo("bench.generator_lag_p99_ms", "ms", VALID),
    lo("bench.backlog_end_records", "count", VALID),
    lo(
        "bench.trace_overhead_pct",
        "%",
        "validity of the traced run",
    ),
    hi(
        "bench.inline_records_per_s",
        "rec/s",
        "single-threaded baseline of records_per_s",
    ),
];

/// Metric values collected during one run.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name`, which must be in one of the
    /// tables (a typo is a bug, caught here instead of as a missing
    /// number later).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric `{name}` is not in the tables"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// What a run reports: the per-layer metrics of a traced run, the
    /// end-to-end metrics of an untraced one.
    pub fn rows(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// `(name, unit, value)` of every end-to-end metric.
    ///
    /// # Panics
    ///
    /// When a workload failed to record one — every workload reports
    /// every end-to-end metric.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric `{}` not measured", m.name));
                (m.name, m.unit, v)
            })
            .collect()
    }

    /// `(name, unit, value)` of every per-layer metric; a layer the
    /// workload does not exercise reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::HashSet;

    /// Letters, digits, `_`, `.`, `-`; starts with a letter or digit;
    /// at most 64 long.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        let valid_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for (name, unit) in WORKLOADS
            .iter()
            .map(|w| (w.name, "s"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repo root is the contract the driver
    /// reads; it must say exactly what these tables say.
    #[test]
    fn benchmark_json_equals_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let mut keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END.iter().zip(
            doc.get("end_to_end")
                .and_then(Json::as_array)
                .expect("array"),
        ) {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.word())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        for (m, j) in PER_LAYER.iter().zip(
            doc.get("per_layer")
                .and_then(Json::as_array)
                .expect("array"),
        ) {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.word())
            );
        }
        for (w, j) in WORKLOADS.iter().zip(
            doc.get("workloads")
                .and_then(Json::as_array)
                .expect("array"),
        ) {
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
    }
}
