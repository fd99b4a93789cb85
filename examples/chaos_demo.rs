//! Chaos in one page: a monitored session under a scripted fault plan.
//!
//! A `ChaosSpec` names the weather — here 10% datagram loss, meter
//! flushes duplicated a quarter of the time, and a controller↔red
//! partition that heals at 2 s virtual — and a seed pins the exact
//! schedule. The monitor has to ride it out: RPCs fail fast and retry
//! rather than hang, the filter's sequence dedup absorbs duplicate
//! flush delivery, and the stored trace holds no duplicated record.
//!
//! ```text
//! cargo run --example chaos_demo
//! ```
//!
//! Run it twice: same seed, same plan, same outcome — a failing chaos
//! run replays from the plan banner alone.

use dpm::crates::chaos::{self, ChaosSpec, FaultPlan};
use dpm::crates::filter::SimFsBackend;
use dpm::crates::logstore::StoreReader;
use dpm::Simulation;

fn main() {
    let spec = ChaosSpec::new()
        .drop(0.10)
        .meter_dup(0.25)
        .partition("yellow", "red", 0, 2_000_000);
    let plan = FaultPlan::new(42, spec, &["yellow", "red", "green", "blue"]);
    println!("{}", plan.describe());
    let injector = plan.injector();

    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(42)
        .fault_injector(injector.clone())
        .build();
    let mut control = sim.controller("yellow").expect("controller starts");
    control.exec("filter f1 blue");
    control.exec("newjob foo");

    // Inside the partition window RPCs to red fail visibly (bounded
    // retry, never a hang); keep retrying until the window heals.
    let mut attempts = 0;
    loop {
        attempts += 1;
        let out = control.exec("addprocess foo red /bin/A green");
        if out.contains("created") {
            break;
        }
        println!("attempt {attempts}: {out}");
    }
    println!("partition healed after {attempts} attempt(s)");

    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 120_000), "job never converged");
    control.exec("removejob foo");
    let _ = sim.getlog(&mut control, "f1");

    // Read the store back off blue and check the chaos invariant:
    // duplicated flush delivery must never become a duplicated record.
    let blue = sim.cluster().machine("blue").expect("blue");
    let reader = StoreReader::load(&SimFsBackend::new(blue), "/usr/tmp/log.f1");
    match chaos::invariants::check_no_duplicates(&reader) {
        Ok(census) => println!(
            "invariants hold: {} stored records, no duplicates",
            census.frames
        ),
        Err(why) => panic!("{why} [{}]", plan.describe()),
    }

    let t = injector.tally();
    println!(
        "injected: {} drops, {} duplicate flushes, {} blocked connects",
        t.drops(),
        t.meter_dups(),
        t.blocked_connects()
    );
    control.exec("die");
    sim.shutdown();
}
