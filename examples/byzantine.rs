//! Byzantine agreement with one traitor, unmasked by the trace.
//!
//! Four generals run the oral-messages algorithm OM(1): the commander
//! (general 0) sends an order, every lieutenant relays what it heard
//! to every other, and each loyal lieutenant decides by majority.
//! General 2 is a traitor and relays the *opposite* of what it
//! received. The job runs fully metered, and the checker recovers
//! agreement, validity, the exact (N-1) + (N-1)(N-2) message
//! complexity, and the traitor's identity — purely from the monitor's
//! log, by noticing that 2's relay beacons contradict the order the
//! commander's round-1 beacons demonstrate.
//!
//! ```text
//! cargo run --example byzantine
//! ```

use dpm::crates::analysis::{ByzReport, Trace};
use dpm::{NetConfig, Simulation};

const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];
const ORDER: u32 = 1;
const TRAITOR: usize = 2;

fn main() {
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(19)
        .build();
    let mut control = sim.controller("yellow").expect("controller starts");
    control.exec("filter f1 red");

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
    assert!(control.wait_job("byz", 120_000), "job never converged");

    let text = sim.stable_log(&mut control, "f1");
    let report = ByzReport::check(&Trace::parse(&text));
    println!("{report}");
    assert!(report.agreement_ok(), "loyal generals disagreed");
    assert!(report.validity_ok(), "loyal commander's order was lost");
    assert_eq!(
        report.suspected,
        vec![TRAITOR as u32],
        "the trace should name exactly the planted traitor"
    );

    let out = control.exec("check f1 byzantine");
    assert!(out.contains("traitors detected from trace"), "{out}");

    control.exec("bye");
    sim.shutdown();
}
