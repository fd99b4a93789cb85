//! End-to-end checks of the hierarchical filter tree (E9).
//!
//! Part 1 measures the tentpole claim: on a wide-fanout cluster (8
//! worker machines + a hub), sending every worker's meter stream
//! across the network to one flat filter costs several times the
//! cross-network bytes of the tree arrangement, where an edge
//! pre-filter on each worker applies the selection templates locally
//! and only accepted records travel to the hub's aggregate. Both
//! arrangements must also agree on the result: the root store's
//! canonical trace is byte-identical to the flat filter's.
//!
//! Part 2 drives the same shape through the control plane: a session
//! with `filter root … role=aggregate`, two `role=edge` filters naming
//! it as `upstream=`, a metered job whose machines carry edges, and
//! the analysis built from the root store. The root appends records as
//! they arrive, so `watch` on it streams while the job runs, and an
//! aggregate may itself name an `upstream=` aggregate (a three-level
//! tree).

use dpm::crates::analysis::{Analysis, Trace};
use dpm::crates::chaos;
use dpm::crates::filter::{filter_main, FilterEngine};
use dpm::crates::logstore::StoreReader;
use dpm::crates::meter::{MeterBody, MeterFork, MeterHeader, MeterMsg, MeterSendMsg, SockName};
use dpm::{
    Cluster, Descriptions, JobRecord, LogRecord, NetConfig, Proc, Rules, Simulation, SysError,
    SysResult, Uid,
};

const N_WORKERS: usize = 8;
const FLAT_PORT: u16 = 4700;
const AGG_PORT: u16 = 4701;
const EDGE_PORT: u16 = 4710;
const FLAT_LOG: &str = "/usr/tmp/log.flat";
const TREE_LOG: &str = "/usr/tmp/log.tree";
/// Selection: keep only send records (`type=1`); the streams below are
/// mostly forks, so selection discards the bulk of every stream.
const SELECTIVE: &str = "type=1\n";

fn worker_name(i: usize) -> String {
    format!("w{i}")
}

fn msg(machine: u16, seq: u32, body: MeterBody) -> Vec<u8> {
    MeterMsg {
        header: MeterHeader {
            size: 0,
            machine,
            cpu_time: 1_000 + seq,
            seq,
            proc_time: 0,
            trace_type: body.trace_type(),
        },
        body,
    }
    .encode()
}

/// Worker `i`'s synthetic meter stream: 40 records with increasing
/// sequence numbers, one send in eight, the rest forks. The selective
/// templates keep only the sends.
fn stream_for(i: usize) -> Vec<u8> {
    let machine = i as u16 + 1;
    let pid = 1_000 + i as u32;
    let mut wire = Vec::new();
    for n in 0..40u32 {
        let body = if n % 8 == 0 {
            MeterBody::Send(MeterSendMsg {
                pid,
                pc: 7,
                sock: 3,
                msg_length: 64 + n,
                dest_name: Some(SockName::inet(2, 99)),
            })
        } else {
            MeterBody::Fork(MeterFork {
                pid,
                pc: 8,
                new_pid: 2_000 + n,
            })
        };
        wire.extend_from_slice(&msg(machine, n + 1, body));
    }
    wire
}

fn connect_with_retry(p: &Proc, host: &str, port: u16) -> SysResult<dpm::crates::simos::Fd> {
    let mut tries = 0;
    loop {
        let s = p.socket(
            dpm::crates::simos::Domain::Inet,
            dpm::crates::simos::SockType::Stream,
        )?;
        match p.connect_host(s, host, port) {
            Ok(()) => return Ok(s),
            Err(SysError::Econnrefused) if tries < 500 => {
                let _ = p.close(s);
                tries += 1;
                p.sleep_ms(2)?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => {
                let _ = p.close(s);
                return Err(e);
            }
        }
    }
}

/// Loads the store under `dir` on `m` through the directory-listing
/// API — discovery by listing, not by probing dense segment names.
fn read_store(m: &std::sync::Arc<dpm::crates::simos::Machine>, dir: &str) -> StoreReader {
    StoreReader::load(
        &dpm::crates::filter::SimFsBackend::new(std::sync::Arc::clone(m)),
        dir,
    )
}

/// Renders a store's records as log text in *canonical* order —
/// `(machine, pid, meter seq, store seq)` — so two stores holding the
/// same record set render identically no matter how arrivals
/// interleaved.
fn render_canonical(reader: &StoreReader, desc: &Descriptions) -> String {
    let mut frames: Vec<_> = reader.scan().collect();
    frames.sort_by_key(|f| {
        let meter_seq = dpm::crates::filter::RecordView::new(f.raw).seq();
        (f.proc.machine, f.proc.pid, meter_seq, f.seq)
    });
    let mut out = String::new();
    for f in frames {
        if let Some(rec) = LogRecord::from_raw(desc, f.raw, &[]) {
            out.push_str(&rec.to_string());
            out.push('\n');
        }
    }
    out
}

/// Runs one phase: spawn `sources` (one per worker) aiming at their
/// phase's filter, wait for them, drain every worker's filter and then
/// the hub's at `hub_port`, and check `store_on`'s store at `dir`
/// holds `expected` records. Returns the phase's cross-machine byte
/// delta.
fn run_sources(
    c: &std::sync::Arc<Cluster>,
    target: impl Fn(usize) -> (String, u16),
    hub_port: u16,
    store_on: &std::sync::Arc<dpm::crates::simos::Machine>,
    dir: &str,
    expected: u64,
) -> u64 {
    let before = c.wire_stats().snapshot();
    let mut pids = Vec::new();
    for i in 0..N_WORKERS {
        let (host, port) = target(i);
        let pid = c
            .spawn_user(&worker_name(i), &format!("src{i}"), Uid(7), move |p| {
                let wire = stream_for(i);
                let s = connect_with_retry(&p, &host, port)?;
                for chunk in wire.chunks(113) {
                    p.write(s, chunk)?;
                }
                p.close(s)?;
                Ok(())
            })
            .expect("spawn source");
        pids.push((i, pid));
    }
    let bound = std::time::Duration::from_secs(10);
    for (i, pid) in pids {
        let m = c.machine(&worker_name(i)).expect("worker exists");
        m.wait_exit(pid);
        m.wait_drained(EDGE_PORT, bound)
            .expect("worker's edge drained");
    }
    store_on.wait_drained(hub_port, bound).expect("hub drained");
    let n = read_store(store_on, dir).n_records();
    assert_eq!(n, expected, "store {dir} holds every kept record");
    c.wire_stats().snapshot().since(&before).cross_bytes
}

#[test]
fn tree_cuts_cross_network_bytes_and_preserves_the_trace() {
    let mut b = Cluster::builder().net(NetConfig::ideal()).seed(77);
    b = b.machine("hub");
    for i in 0..N_WORKERS {
        b = b.machine(&worker_name(i));
    }
    let c = b.build();
    let hub = c.machine("hub").expect("hub exists");

    // The selection templates live on every machine that filters:
    // the hub (flat phase) and the workers (edge phase). The
    // aggregate gets no template file, so it keeps everything its
    // already-selective children forward.
    hub.fs()
        .write("templates.sel", SELECTIVE.as_bytes().to_vec());
    for i in 0..N_WORKERS {
        let m = c.machine(&worker_name(i)).expect("worker exists");
        m.fs().write("templates.sel", SELECTIVE.as_bytes().to_vec());
    }

    // Reference: what the selection keeps of each stream.
    let rules = Rules::parse(SELECTIVE).expect("selective rules parse");
    let mut expected = 0u64;
    for i in 0..N_WORKERS {
        let mut engine = FilterEngine::new(Descriptions::standard(), rules.clone());
        engine.feed_records(&stream_for(i), &mut |_view, _rec| expected += 1);
    }
    assert!(expected > 0, "selection keeps something");
    let total_bytes: usize = (0..N_WORKERS).map(|i| stream_for(i).len()).sum();

    // Phase A — flat: one store filter on the hub, every worker's
    // whole stream crosses the network to it.
    c.spawn_user("hub", "filter-flat", Uid::ROOT, move |p| {
        filter_main(
            p,
            vec![
                format!("port={FLAT_PORT}"),
                format!("log={FLAT_LOG}"),
                "templates=templates.sel".to_owned(),
            ],
        )
    })
    .expect("spawn flat filter");
    let flat_cross = run_sources(
        &c,
        |_| ("hub".to_owned(), FLAT_PORT),
        FLAT_PORT,
        &hub,
        FLAT_LOG,
        expected,
    );

    // Phase B — tree: an aggregate on the hub, an edge pre-filter on
    // every worker; only records the selection accepts cross the
    // network.
    c.spawn_user("hub", "filter-agg", Uid::ROOT, move |p| {
        filter_main(
            p,
            vec![
                format!("port={AGG_PORT}"),
                format!("log={TREE_LOG}"),
                "role=aggregate".to_owned(),
            ],
        )
    })
    .expect("spawn aggregate");
    for i in 0..N_WORKERS {
        c.spawn_user(&worker_name(i), &format!("edge{i}"), Uid::ROOT, move |p| {
            filter_main(
                p,
                vec![
                    format!("port={EDGE_PORT}"),
                    "role=edge".to_owned(),
                    format!("upstream=hub:{AGG_PORT}"),
                    "templates=templates.sel".to_owned(),
                ],
            )
        })
        .expect("spawn edge");
    }
    let tree_cross = run_sources(
        &c,
        |i| (worker_name(i), EDGE_PORT),
        AGG_PORT,
        &hub,
        TREE_LOG,
        expected,
    );

    // The tentpole claim: at least 3× fewer cross-network bytes.
    assert!(flat_cross as usize >= total_bytes, "flat sent every byte");
    assert!(tree_cross > 0, "tree sent the accepted records");
    let reduction = flat_cross as f64 / tree_cross as f64;
    assert!(
        reduction >= 3.0,
        "edge pre-filtering saved only {reduction:.2}x (flat {flat_cross}, tree {tree_cross})"
    );

    // Identity: the root store's canonical trace is byte-identical to
    // the flat filter's.
    let desc = Descriptions::standard();
    let flat_reader = read_store(&hub, FLAT_LOG);
    let tree_reader = read_store(&hub, TREE_LOG);
    let flat_text = render_canonical(&flat_reader, &desc);
    let tree_text = render_canonical(&tree_reader, &desc);
    assert!(!flat_text.is_empty(), "flat trace is non-empty");
    assert_eq!(flat_text, tree_text, "root trace differs from flat trace");
    assert_eq!(
        Trace::from_store_canonical(&flat_reader, &desc),
        Trace::from_store_canonical(&tree_reader, &desc),
    );
    // No record fell behind the merge's sequence window: width 64 lost
    // nothing the old seen-set would have kept.
    let stale = dpm::crates::telemetry::registry().counter("agg", "dedup_stale", "hub");
    assert_eq!(stale.get(), 0, "records refused as stale at the root");

    c.shutdown();
}

#[test]
fn controller_session_with_filter_tree() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(43)
        .build();
    let mut control = sim.controller("yellow").expect("controller");

    // Friendly errors name the bad key or value.
    let out = control.exec("filter bogus role=chief");
    assert!(out.contains("bad value 'chief' for key 'role'"), "{out}");
    let out = control.exec("filter bogus colour=red");
    assert!(out.contains("unknown key 'colour'"), "{out}");
    let out = control.exec("filter bogus role=edge");
    assert!(out.contains("requires key 'upstream'"), "{out}");

    // A two-level tree: a store-backed aggregate on blue, edges on the
    // two machines that will run metered processes.
    let out = control.exec("filter root blue role=aggregate log=store");
    assert!(out.contains("filter 'root' ... created"), "{out}");
    let out = control.exec("filter e1 red role=edge upstream=root");
    assert!(out.contains("filter 'e1' ... created"), "{out}");
    let out = control.exec("filter e2 green role=edge upstream=root");
    assert!(out.contains("filter 'e2' ... created"), "{out}");
    let out = control.exec("filter");
    assert!(out.contains("role=aggregate"), "{out}");
    assert!(out.contains("role=edge"), "{out}");
    assert!(out.contains("upstream=blue:"), "{out}");

    // Edges keep no log; asking for one explains where to look.
    let out = control.exec("getlog e1 /tmp/nope");
    assert!(out.contains("edge pre-filter"), "{out}");
    let out = control.exec("check e1 mutex");
    assert!(out.contains("edge pre-filter"), "{out}");

    // A metered job on the edge machines: records flow A/B → local
    // edge → aggregate on blue.
    control.exec("newjob foo root");
    control.exec("addprocess foo red /bin/A green");
    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 60_000), "job foo completed");
    control.exec("removejob foo");

    // The root store has the whole job's trace, and the analysis
    // pairs the A→B traffic exactly as a flat filter would have.
    let text = sim.getlog(&mut control, "root");
    assert!(!text.is_empty(), "root getlog produced a trace");
    let analysis = Analysis::of_log(&text);
    assert!(!analysis.trace.is_empty(), "trace has events");
    assert_eq!(analysis.pairing.connections.len(), 1, "one A→B connection");
    assert!(
        analysis.stats.matched >= 10,
        "request/reply traffic matched"
    );

    control.exec("bye");
    sim.shutdown();
}

/// The root of a tree is live: `live_stream.rs`'s mutex job, metered
/// through edges on red and green into an aggregate on blue, and
/// `watch root` sees records while the job still runs.
#[test]
fn tree_root_streams_live_windows_mid_job() {
    const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];
    const ROUNDS: usize = 12;
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(93)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter root blue role=aggregate log=store");
    control.exec("filter e1 red role=edge upstream=root");
    control.exec("filter e2 green role=edge upstream=root");
    control.exec("newjob mx root");
    for (i, m) in HOSTS.iter().enumerate() {
        control.exec(&format!(
            "addprocess mx {m} /bin/lmutex {i} {} {ROUNDS} {}",
            HOSTS.len(),
            HOSTS.join(" ")
        ));
    }
    control.exec("setflags mx send receive");
    control.exec("startjob mx");

    // A window counts as live only if the job was still running after
    // it closed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(110);
    let mut live_windows = 0u32;
    let mut live_nonempty = 0u32;
    while !control.job("mx").is_none_or(JobRecord::finished) {
        control.exec("watch root");
        if control.job("mx").is_none_or(JobRecord::finished) {
            break;
        }
        live_windows += 1;
        let snap = control.last_window("root").expect("watch closed a window");
        if snap.new_records > 0 {
            live_nonempty += 1;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never converged while watching"
        );
    }
    assert!(control.wait_job("mx", 120_000), "mutex job completed");
    assert!(
        live_nonempty >= 2,
        "the tree root must stream during the run: {live_nonempty} non-empty of {live_windows} live windows"
    );

    control.exec("bye");
    sim.shutdown();
}

/// The raw frames of a store, sorted: the record set, whatever the
/// arrival order.
fn sorted_raw(reader: &StoreReader) -> Vec<Vec<u8>> {
    let mut raw: Vec<Vec<u8>> = reader.scan().map(|f| f.raw.to_vec()).collect();
    raw.sort();
    raw
}

/// A three-level tree: edges on red and yellow forward to an
/// aggregate `mid` on green, which forwards everything it admits to
/// the aggregate `root` on blue. The root ends up holding exactly
/// mid's records, each once.
#[test]
fn three_level_tree_forwards_every_record_to_the_root() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(43)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    for cmd in [
        "filter root blue role=aggregate log=store",
        "filter mid green role=aggregate upstream=root",
        "filter e1 red role=edge upstream=mid",
        "filter e2 yellow role=edge upstream=mid",
    ] {
        let out = control.exec(cmd);
        assert!(out.contains("created"), "{cmd}: {out}");
    }
    control.exec("newjob foo root");
    control.exec("addprocess foo red /bin/A yellow");
    control.exec("addprocess foo yellow /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 60_000), "job foo completed");
    control.exec("removejob foo");

    let mid_text = sim.getlog(&mut control, "mid");
    assert!(!mid_text.is_empty(), "mid getlog produced a trace");
    let root_text = sim.getlog(&mut control, "root");
    assert!(!root_text.is_empty(), "root getlog produced a trace");

    let load = |machine: &str, filter: &str| {
        let m = sim.cluster().machine(machine).expect("machine exists");
        read_store(&m, &format!("/usr/tmp/log.{filter}"))
    };
    let mid = load("green", "mid");
    let root = load("blue", "root");
    let mid_raw = sorted_raw(&mid);
    assert!(!mid_raw.is_empty(), "mid stored records");
    assert_eq!(
        sorted_raw(&root),
        mid_raw,
        "root holds exactly mid's records"
    );
    if let Err(why) = chaos::invariants::check_exactly_once(&root) {
        panic!("root store: {why}");
    }

    control.exec("bye");
    sim.shutdown();
}
