//! `pipeline` — the repo's one benchmark.
//!
//! ```text
//! pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output
//!     is one JSON object {correct, attempted, failed, metrics}: the
//!     end-to-end metrics with --trace 0, the per-layer with --trace 1
//! pipeline --seed <n> [--runs <k>] [--seconds <s>] [--out <file>] [--quick]
//!     all five workloads, each in a child process of its own, k
//!     untraced runs interleaved plus one traced run; prints every
//!     metric with median, quartiles and n, and the predicted
//!     separations with pass/fail
//! pipeline --compare <a.json> <b.json>
//!     two --out files, per workload and end-to-end metric
//! pipeline --manifest
//!     prints BENCHMARK.json as the metric tables define it
//! ```
//!
//! See `README.md` beside `Cargo.toml` for what is measured and why.

mod gen;
mod json;
mod layers;
mod metrics;
mod phases;
mod sim;
mod stats;
mod trace;
mod workloads;

use json::{obj, Json};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{compare, median, quartiles, spread, worsening, Verdict};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::{run_end_to_end, run_traced, Outcome, Params, Sizes, Workload};

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        runs: 3,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                args.runs = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|&k| (1..=100).contains(&k))
                    .ok_or("--runs takes a number from 1 to 100")?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare flag.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--manifest" => args.manifest = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.manifest {
        print!("{}", manifest());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(name) = &args.workload {
        one_workload(name, &args)
    } else {
        all_workloads(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipeline: {e}");
            ExitCode::from(2)
        }
    }
}

fn params(args: &Args) -> Params {
    Params {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            0.2
        } else {
            f64::from(RUN_SECONDS)
        }),
        sizes: if args.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
    }
}

/// The command the driver runs (it appends `--workload …`).
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "pipeline_bench/Cargo.toml",
    "--bin",
    "pipeline",
    "--",
];

/// `BENCHMARK.json`, one definition per line.
fn manifest() -> String {
    let list = |rows: Vec<Json>| {
        let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let command = Json::Arr(COMMAND.iter().map(|s| Json::Str((*s).into())).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            obj([
                ("name", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.word().into())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.word().into())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"pipeline_bench\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.render(),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// How long one run measures: the `--seconds` the driver passes.
const RUN_SECONDS: u32 = 20;

/// The result line the driver reads.
fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics = out
        .report
        .rows(trace)
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name.to_owned(),
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Driver mode: one workload in this process.
fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let w = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", known.join(", "))
    })?;
    let p = params(args);
    println!(
        "# {} seed={} seconds={} trace={} cpus={} profile={}",
        w.name(),
        p.seed,
        p.seconds,
        u8::from(args.trace),
        cpus(),
        profile()
    );
    let out = if args.trace {
        run_traced(w, p)
    } else {
        run_end_to_end(w, p)
    };
    for (name, unit, value) in out.report.rows(args.trace) {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for note in &out.checks.notes {
        println!("# FAILED: {note}");
    }
    println!(
        "failed_share = {} / {} = {}",
        out.checks.failed,
        out.checks.attempted,
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64
    );
    println!("{}", result_line(&out, args.trace));
    Ok(out.checks.failed == 0)
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Runs one workload in a child process and parses its result line.
fn child(w: &str, args: &Args, trace: bool, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let done = cmd.output().map_err(|e| format!("cannot run {w}: {e}"))?;
    let stdout = String::from_utf8_lossy(&done.stdout);
    if trace {
        // The self-time table is part of what the traced run prints.
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("    {line}");
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).ok_or_else(|| {
        format!(
            "{w} printed no result line (exit {:?}): {}",
            done.status.code(),
            String::from_utf8_lossy(&done.stderr)
        )
    })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// All-workloads mode.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let p = params(args);
    println!(
        "# pipeline: seed={} runs={} seconds={} quick={} cpus={} profile={} git={}",
        args.seed,
        args.runs,
        p.seconds,
        args.quick,
        cpus(),
        profile(),
        git_sha()
    );
    // Untraced runs, interleaved: run r of every workload before run
    // r+1 of any, so drift over the session hits all alike.
    let mut e2e: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for r in 0..args.runs {
        for w in WORKLOADS {
            let res = child(w.name, args, false, p.seconds)?;
            attempted += res.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += res.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for m in END_TO_END {
                let v = metric_value(&res, m.name)
                    .ok_or_else(|| format!("{}: no {}", w.name, m.name))?;
                e2e.entry(w.name)
                    .or_default()
                    .entry(m.name)
                    .or_default()
                    .push(v);
            }
            eprintln!("# run {}/{} of {} done", r + 1, args.runs, w.name);
        }
    }
    println!("\n## end-to-end (untraced), median [q1, q3] n");
    for w in WORKLOADS {
        println!("{}", w.name);
        for m in END_TO_END {
            let v = &e2e[w.name][m.name];
            let (q1, q3) = quartiles(v);
            println!(
                "  {:<24} {:>14.4} {:<6} [{:.4}, {:.4}] n={} spread={:.3} bound={}",
                m.name,
                median(v),
                m.unit,
                q1,
                q3,
                v.len(),
                spread(v),
                m.bound
            );
        }
    }
    // One traced run per workload.
    let mut layers: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
    println!("\n## traced runs");
    for w in WORKLOADS {
        println!("{}", w.name);
        let res = child(w.name, args, true, p.seconds)?;
        attempted += res.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += res.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for m in PER_LAYER {
            let v =
                metric_value(&res, m.name).ok_or_else(|| format!("{}: no {}", w.name, m.name))?;
            layers.entry(w.name).or_default().insert(m.name, v);
        }
    }
    println!("\n## per-layer (traced), one column per workload");
    print!("{:<36} {:<7}", "metric", "unit");
    for w in WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!("  should move");
    for m in PER_LAYER {
        print!("{:<36} {:<7}", m.name, m.unit);
        for w in WORKLOADS {
            print!(" {:>16.3}", layers[w.name][m.name]);
        }
        println!("  {}", m.moves);
    }
    let predictions_hold = check_predictions(&layers);
    println!(
        "\nfailed_share = {failed} / {attempted} = {}",
        failed / attempted.max(1.0)
    );

    if let Some(path) = &args.out {
        let doc = obj([
            (
                "conditions",
                obj([
                    ("git", Json::Str(git_sha())),
                    ("cpus", Json::Num(cpus() as f64)),
                    ("profile", Json::Str(profile().into())),
                    ("seed", Json::Num(args.seed as f64)),
                    ("runs", Json::Num(args.runs as f64)),
                    ("seconds", Json::Num(p.seconds)),
                    ("quick", Json::Bool(args.quick)),
                    ("stream_records", Json::Num(p.sizes.stream_records as f64)),
                    ("paced_records", Json::Num(p.sizes.paced_records as f64)),
                    ("dgram_records", Json::Num(p.sizes.dgram_records as f64)),
                    ("sim_items", Json::Num(f64::from(p.sizes.sim_items))),
                ]),
            ),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            (
                "workloads",
                Json::Obj(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            let runs = e2e[w.name]
                                .iter()
                                .map(|(k, v)| {
                                    (
                                        (*k).to_owned(),
                                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                                    )
                                })
                                .collect();
                            let traced = layers[w.name]
                                .iter()
                                .map(|(k, &v)| ((*k).to_owned(), Json::Num(v)))
                                .collect();
                            (
                                w.name.to_owned(),
                                obj([
                                    ("end_to_end", Json::Obj(runs)),
                                    ("per_layer", Json::Obj(traced)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# results written to {path}");
    }
    if !predictions_hold {
        println!("# a predicted separation failed: a finding for the README, not an error");
    }
    Ok(failed == 0.0)
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The separations the workloads were built to show, checked on this
/// run's traced numbers and printed with pass/fail.
fn check_predictions(layers: &BTreeMap<&str, BTreeMap<&str, f64>>) -> bool {
    let get = |w: &str, m: &str| layers[w][m];
    // Ingest-side cost per record seen, split three ways.
    let shares = |w: &str| {
        let rules = get(w, "filter.rules_ns_per_rec");
        let rest = (get(w, "filter.engine_ns_per_rec") - rules).max(0.0);
        let append = get(w, "logstore.append_ns_per_rec") * get(w, "filter.kept_ratio");
        (rules, rest, append)
    };
    let (s_rules, s_rest, s_append) = shares("replay_selective");
    let keep_share = get("replay_keepall", "filter.rules_share_pct");
    let pair_dgram = get("replay_dgram", "analysis.pairing_ns_per_rec");
    let pair_keep = get("replay_keepall", "analysis.pairing_ns_per_rec");
    let simos_absent = [
        "replay_keepall",
        "replay_selective",
        "replay_dgram",
        "store_query",
    ]
    .iter()
    .all(|w| {
        PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("simos."))
            .all(|m| get(w, m.name) == 0.0)
    });
    let checks = [
        (
            format!(
                "rule evaluation is the largest ingest share on replay_selective (rules {s_rules:.0} ns, other engine {s_rest:.0} ns, append {s_append:.0} ns per record seen)"
            ),
            s_rules > s_rest && s_rules > s_append,
        ),
        (
            format!("rule evaluation is under 20 % of ingest on replay_keepall ({keep_share:.1} %)"),
            keep_share < 20.0,
        ),
        (
            format!(
                "analysis.pairing_ns_per_rec on replay_dgram ({pair_dgram:.0}) is at least 10x replay_keepall ({pair_keep:.0})"
            ),
            pair_dgram >= 10.0 * pair_keep,
        ),
        (
            format!(
                "live.window_close_last_ms ({:.2}) exceeds _first_ms ({:.2}) on replay_keepall",
                get("replay_keepall", "live.window_close_last_ms"),
                get("replay_keepall", "live.window_close_first_ms")
            ),
            get("replay_keepall", "live.window_close_last_ms")
                > get("replay_keepall", "live.window_close_first_ms"),
        ),
        ("simos.* read 0 on every workload but sim_stream".to_owned(), simos_absent),
    ];
    println!("\n## predicted separations");
    for (what, ok) in &checks {
        println!("  [{}] {what}", if *ok { "pass" } else { "FAIL" });
    }
    checks.iter().all(|c| c.1)
}

/// `--compare a.json b.json`: the table, and `false` (exit code 1)
/// when any pairing regressed. `unresolved` is reported, not failed:
/// it says the runs cannot tell, not that the change is worse.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).ok_or(format!("{path} is not a results file"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let runs = |doc: &Json, w: &str, m: &str| -> Option<Vec<f64>> {
        doc.get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect()
    };
    println!(
        "{:<17} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse", "bound"
    );
    let mut none_regressed = true;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (runs(&ja, w.name, m.name), runs(&jb, w.name, m.name))
            else {
                return Err(format!("{}/{} missing from a results file", w.name, m.name));
            };
            let verdict = compare(&va, &vb, m.better, m.bound);
            none_regressed &= verdict != Verdict::Regressed;
            println!(
                "{:<17} {:<24} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                100.0 * worsening(median(&va), median(&vb), m.better),
                100.0 * m.bound,
                verdict.word()
            );
        }
    }
    Ok(none_regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload replay_dgram --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("replay_dgram"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        let a = parse_args(&argv("--trace 0 --seed 2")).unwrap();
        assert!(!a.trace && a.seed == 2);
        assert!(parse_args(&argv("--trace")).unwrap().trace);
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    /// `--quick` (N ÷ 100, two repetitions) through every workload,
    /// untraced and traced: the harness cannot rot unnoticed.
    #[test]
    fn quick_smoke_every_workload_reports_every_metric_and_passes_its_checks() {
        let p = Params {
            seed: 3,
            seconds: 0.01,
            sizes: Sizes::quick(),
        };
        for w in WORKLOADS {
            let w = Workload::parse(w.name).expect("table names parse");
            let out = run_end_to_end(w, p);
            assert_eq!(out.checks.failed, 0, "{}: {:?}", w.name(), out.checks.notes);
            assert!(out.checks.attempted > 0);
            for (name, _, v) in out.report.end_to_end() {
                assert!(v > 0.0, "{}: {name} = {v}", w.name());
            }
            let line = result_line(&out, false);
            let doc = Json::parse(&line).expect("result line is JSON");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                doc.get("metrics").and_then(Json::as_object).map(<[_]>::len),
                Some(END_TO_END.len())
            );
        }
        let out = run_traced(Workload::ReplayDgram, p);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.notes);
        assert!(out.report.get("filter.dup_dropped").unwrap_or(0.0) > 0.0);
        assert_eq!(out.report.per_layer().len(), PER_LAYER.len());
    }
}
