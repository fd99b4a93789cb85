//! Reproduction of the paper's example session (§4.4, Appendix B).
//!
//! "The programmer first creates a filter process by issuing the
//! filter command, specifying the machine on which the filter is to
//! run. … After creating a filter, the programmer requests the
//! creation of a job with the newjob command. … the programmer issues
//! an addprocess command to add a process to the job…"
//!
//! The controller runs on `yellow`; the filter `f1` on `blue`;
//! processes `A` and `B` on `red` and `green` — the colours of
//! Figs. 4.3–4.6. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dpm::{Analysis, Simulation};

fn main() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(42)
        .build();
    let mut control = sim.controller("yellow").expect("controller starts");

    // The script of Appendix B, line for line.
    control.exec("filter f1 blue"); // create a filter process on machine blue
    control.exec("newjob foo"); // create a job; name it foo
    control.exec("addprocess foo red /bin/A green"); // add process A to the job foo
    control.exec("addprocess foo green /bin/B"); // add process B to the job foo
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo"); // start the execution of the job

    // DONE: process … terminated: reason: normal
    assert!(control.wait_job("foo", 60_000), "job foo completed");

    control.exec("removejob foo");
    control.exec("getlog f1 trace"); // get the trace file for filter f1

    println!("=== session transcript =========================================");
    print!("{}", control.transcript());

    // What the user would then do with the trace: analyze it. (The
    // helper first waits until f1 has closed every finished meter
    // connection, so the log is complete, then fetches it once.)
    let analysis: Analysis = sim.analyze_log(&mut control, "f1");

    println!("=== trace analysis =============================================");
    print!("{}", analysis.summary());
    println!("=== communication structure ====================================");
    print!("{}", analysis.structure);

    control.exec("bye");
    assert!(control.is_done());
    sim.shutdown();
}
