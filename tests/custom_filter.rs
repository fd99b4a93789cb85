//! Custom filters: "given one basic constraint, a user can write a
//! custom filter. This one constraint is that a filter process must
//! listen to its standard input in order to receive meter messages
//! from the kernel meter." (§3.4)
//!
//! Here the user registers their own filter program — one that does
//! not log records at all but maintains a running per-event-type
//! census — and tells the controller to use it via the `filterfile`
//! argument of the `filter` command.

use dpm::crates::filter::{Descriptions, FilterArgs};
use dpm::{Simulation, SysError};

#[test]
fn a_user_written_filter_runs_in_place_of_the_standard_one() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green"])
        .seed(77)
        .build();

    // The custom filter: accepts meter connections, counts records by
    // event name, and (re)writes a census file instead of a log.
    sim.cluster().register_program("censusfilter", |p, args| {
        let args = FilterArgs::parse(&args).map_err(|_| SysError::Einval)?;
        let (port, logfile) = (args.port, args.logfile);
        let l = p.socket(
            dpm::crates::simos::Domain::Inet,
            dpm::crates::simos::SockType::Stream,
        )?;
        p.bind(l, dpm::crates::simos::BindTo::Port(port))?;
        p.listen(l, 8)?;
        loop {
            let (conn, _) = p.accept(l)?;
            let log = logfile.clone();
            p.fork_with(move |c| {
                let desc = Descriptions::standard();
                let mut counts: std::collections::BTreeMap<String, u32> =
                    std::collections::BTreeMap::new();
                let mut buf: Vec<u8> = Vec::new();
                loop {
                    let data = c.read(conn, 4096)?;
                    if data.is_empty() {
                        break;
                    }
                    buf.extend_from_slice(&data);
                    while buf.len() >= 4 {
                        let size = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                        if size < 24 || buf.len() < size {
                            break;
                        }
                        let rec: Vec<u8> = buf.drain(..size).collect();
                        if let Some(t) = Descriptions::record_type(&rec) {
                            if let Some(e) = desc.event(t) {
                                *counts.entry(e.name.clone()).or_insert(0) += 1;
                            }
                        }
                    }
                }
                let mut out = String::new();
                for (name, n) in &counts {
                    out.push_str(&format!("{name} {n}\n"));
                }
                c.machine().fs().write(&log, out.into_bytes());
                c.close(conn)?;
                Ok(())
            })?;
            p.close(conn)?;
        }
    });
    sim.cluster()
        .install_program_file("green", "/bin/censusfilter", "censusfilter");

    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter census green /bin/censusfilter");
    control.exec("newjob foo census");
    control.exec("addprocess foo red /bin/A red 1750 4");
    control.exec("addprocess foo red /bin/B 1750");
    control.exec("setflags foo all");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 60_000), "job completed");
    control.exec("removejob foo");

    // `getlog` drains the filter first: each filter child rewrites the
    // census at its EOF, then closes its connection. It finds no store
    // segment under the log path, so what the custom filter wrote
    // there comes back verbatim.
    let fetched = sim.getlog(&mut control, "census");
    let green = sim.cluster().machine("green").unwrap();
    let census = green
        .fs()
        .read_string("/usr/tmp/log.census")
        .unwrap_or_default();
    assert!(census.contains("termproc"), "census is final: {census:?}");
    assert!(census.contains("send"), "census counts sends: {census:?}");
    assert!(
        census.contains("receive"),
        "census counts receives: {census:?}"
    );
    assert_eq!(fetched, census, "getlog copied the census verbatim");

    control.exec("die");
    sim.shutdown();
}
