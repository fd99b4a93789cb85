//! End-to-end: synchronous Byzantine agreement (oral messages, one
//! traitor among four generals) runs under full metering, and the
//! checker recovers agreement, validity, the message-complexity
//! bounds *and the traitor's identity* from the monitor's own log —
//! the workload's internal state is never inspected. The traitor here
//! is a lieutenant; the checker catches it behaviorally, because its
//! round-2 relay beacons contradict the order the commander's round-1
//! beacons demonstrate.

use dpm::crates::analysis::{ByzReport, Trace};
use dpm::crates::filter::SimFsBackend;
use dpm::crates::logstore::StoreReader;
use dpm::{Descriptions, LogRecord, NetConfig, Simulation};
use std::sync::Arc;

const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];
const ORDER: u32 = 1;
const TRAITOR: usize = 2;

/// Loads the store under `dir` on `m` through the directory-listing
/// API — discovery by listing, not by probing dense segment names.
fn load_store(m: &Arc<dpm::crates::simos::Machine>, dir: &str) -> StoreReader {
    StoreReader::load(&SimFsBackend::new(Arc::clone(m)), dir)
}

fn render_store(reader: &StoreReader, desc: &Descriptions) -> String {
    let mut out = String::new();
    for f in reader.scan() {
        if let Some(rec) = LogRecord::from_raw(desc, f.raw, &[]) {
            out.push_str(&rec.to_string());
            out.push('\n');
        }
    }
    out
}

#[test]
fn byzantine_agreement_and_the_traitor_are_verified_from_the_store_log() {
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(67)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red log=store");
    assert!(
        control.transcript().contains("created"),
        "{}",
        control.transcript()
    );

    control.exec("newjob byz f1");
    for (i, m) in HOSTS.iter().enumerate() {
        control.exec(&format!(
            "addprocess byz {m} /bin/byz {i} {} {ORDER} {TRAITOR} {}",
            HOSTS.len(),
            HOSTS.join(" ")
        ));
    }
    control.exec("setflags byz send receive");
    control.exec("startjob byz");
    assert!(control.wait_job("byz", 120_000), "byzantine job completed");

    let text = sim.getlog(&mut control, "f1");
    assert!(!text.is_empty(), "store filter logged records");
    let red = sim.cluster().machine("red").expect("red exists");
    let desc = Descriptions::standard();
    let reader = load_store(&red, "/usr/tmp/log.f1");
    assert_eq!(
        render_store(&reader, &desc),
        text,
        "segment render matches the getlog text"
    );
    let trace = Trace::from_store(&reader, &desc);
    assert_eq!(trace, Trace::parse(&text), "store and text traces agree");

    let report = ByzReport::check(&trace);

    // Interactive consistency among the generals the trace exonerates,
    // the exact oral-messages complexity, and the traitor by name.
    assert_eq!(report.n, HOSTS.len(), "{report}");
    assert_eq!(report.suspected, vec![TRAITOR as u32], "{report}");
    assert!(report.agreement_ok(), "{report}");
    assert!(report.validity_ok(), "{report}");
    assert_eq!(report.r1_sends, HOSTS.len() - 1, "{report}");
    assert_eq!(
        report.r2_sends,
        (HOSTS.len() - 1) * (HOSTS.len() - 2),
        "{report}"
    );
    assert!(report.within_bound(), "{report}");
    assert!(report.faults.is_clean(), "{report}");
    // Every loyal lieutenant decided the loyal commander's order.
    for (&id, &d) in &report.decisions {
        if id != TRAITOR as u32 {
            assert_eq!(d, ORDER, "lieutenant {id} decided the order: {report}");
        }
    }

    control.exec("check f1 byzantine");
    let t = control.transcript();
    assert!(t.contains("agreement: OK   validity: OK"), "{t}");
    assert!(
        t.contains(&format!(
            "traitors detected from trace: lieutenant {TRAITOR}"
        )),
        "{t}"
    );
    assert!(t.contains("within bound"), "{t}");
    assert!(t.contains("link faults: none"), "{t}");

    control.exec("bye");
    sim.shutdown();
}
