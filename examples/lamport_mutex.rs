//! Lamport's distributed mutual exclusion, verified from the log.
//!
//! Four machines each run `/bin/lmutex` and take the critical section
//! twice using Lamport's 1978 algorithm — logical clocks, a totally
//! ordered request queue, REQUEST/REPLY/RELEASE datagrams. The job
//! runs fully metered into a store-backed filter, and the trace
//! checker then proves, from the monitor's own records alone, that no
//! two critical sections overlapped, that entry order followed the
//! Lamport timestamps, and that exactly 3(N-1) messages paid for each
//! entry.
//!
//! ```text
//! cargo run --example lamport_mutex
//! ```

use dpm::crates::analysis::{MutexReport, Trace};
use dpm::{NetConfig, Simulation};

const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];
const ROUNDS: u32 = 2;

fn main() {
    // An ideal network: the protocol deliberately never retransmits
    // (losses must stay visible to the checker), so a lossy run would
    // stall some rounds. `tests/chaos.rs` is where the faults live.
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(7)
        .build();
    let mut control = sim.controller("yellow").expect("controller starts");
    control.exec("filter f1 blue");

    control.exec("newjob mx f1");
    for (i, m) in HOSTS.iter().enumerate() {
        control.exec(&format!(
            "addprocess mx {m} /bin/lmutex {i} {} {ROUNDS} {}",
            HOSTS.len(),
            HOSTS.join(" ")
        ));
    }
    control.exec("setflags mx send receive");
    control.exec("startjob mx");
    assert!(control.wait_job("mx", 120_000), "job never converged");

    // Everything below comes from the log, not the processes: getlog
    // fetches the store segments and renders them to trace text.
    let text = sim.stable_log(&mut control, "f1");
    let report = MutexReport::check(&Trace::parse(&text));
    println!("{report}");
    assert!(report.mutual_exclusion_ok(), "critical sections overlapped");
    assert!(report.order_ok, "entries defied the timestamp order");

    // The controller can render the same verdict as a session command.
    let out = control.exec("check f1 mutex");
    assert!(out.contains("mutual exclusion: OK"), "{out}");

    control.exec("bye");
    sim.shutdown();
}
