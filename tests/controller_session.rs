//! Controller behaviours beyond the happy path: the Fig. 4.2 state
//! machine enforced end to end, `source`/`sink` scripting, `jobs`
//! listings, `die` protection, and error reporting.

use dpm::{ProcState, Simulation};

#[test]
fn stop_resume_remove_cycle() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .seed(21)
        .build();
    // A long-running spinner we can stop and kill.
    sim.cluster().register_program("spin", |p, _| loop {
        p.compute_ms(1)?;
    });
    sim.cluster()
        .install_program_file("red", "/bin/spin", "spin");

    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red");
    control.exec("newjob j");
    control.exec("addprocess j red /bin/spin");
    assert_eq!(control.job("j").unwrap().procs[0].state, ProcState::New);

    // removejob must refuse while a process is new (the Fig. 4.2
    // precaution: no direct new → killed).
    let out = control.exec("removejob j");
    assert!(out.contains("not removed"), "{out}");

    control.exec("startjob j");
    assert_eq!(control.job("j").unwrap().procs[0].state, ProcState::Running);

    // Starting a running process is refused with an explanation.
    let out = control.exec("startjob j");
    assert!(out.contains("cannot be started"), "{out}");

    // Stop, then resume, then stop and remove (remove kills stopped).
    control.exec("stopjob j");
    assert_eq!(control.job("j").unwrap().procs[0].state, ProcState::Stopped);
    control.exec("startjob j");
    assert_eq!(control.job("j").unwrap().procs[0].state, ProcState::Running);
    control.exec("stopjob j");
    let out = control.exec("removejob j");
    assert!(out.contains("removed"), "{out}");
    assert!(control.job("j").is_none());

    control.exec("die");
    sim.shutdown();
}

#[test]
fn newjob_requires_a_filter_and_commands_validate_arguments() {
    let sim = Simulation::builder().machines(["yellow"]).seed(1).build();
    let mut control = sim.controller("yellow").expect("controller");

    let out = control.exec("newjob foo");
    assert!(out.contains("cannot be created before a filter"), "{out}");

    let out = control.exec("addprocess nope red /bin/A");
    assert!(out.contains("no job named"), "{out}");

    let out = control.exec("startjob nope");
    assert!(out.contains("no job named"), "{out}");

    let out = control.exec("filter f1 mars");
    assert!(out.contains("unknown machine"), "{out}");

    let out = control.exec("blargh");
    assert!(out.contains("unknown command"), "{out}");

    let out = control.exec("help");
    assert!(out.contains("setflags"), "{out}");
    assert!(out.contains("Meter flags"), "{out}");

    control.exec("filter f1");
    let out = control.exec("filter f1");
    assert!(out.contains("already exists"), "{out}");

    control.exec("newjob foo");
    let out = control.exec("setflags foo sned");
    assert!(out.contains("unknown flag 'sned'"), "{out}");

    let out = control.exec("addprocess foo yellow /bin/no-such-file");
    assert!(out.contains("not found"), "{out}");

    control.exec("die");
    sim.shutdown();
}

#[test]
fn source_runs_scripts_and_sink_redirects_output() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(42)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    let yellow = sim.cluster().machine("yellow").unwrap();
    let fs = yellow.fs();

    // The Appendix-B session as a command script, with its output
    // sunk to a file, exactly as §4.3 describes.
    fs.write(
        "session.cmd",
        "\
sink session.out
filter f1 blue
newjob foo
addprocess foo red /bin/A green
addprocess foo green /bin/B
setflags foo send receive fork accept connect
startjob foo
sink
"
        .as_bytes()
        .to_vec(),
    );
    control.exec("source session.cmd");
    assert!(control.wait_job("foo", 60_000));

    let out = fs.read_string("session.out").expect("sunk output");
    assert!(out.contains("filter 'f1' ... created"), "{out}");
    assert!(out.contains("'B' started."), "{out}");
    // The terminal transcript contains the prompts but not those
    // sunk lines.
    assert!(!control.transcript().contains("'B' started."));

    control.exec("removejob foo");
    control.exec("die");
    sim.shutdown();
}

#[test]
fn source_nesting_is_limited_to_sixteen() {
    let sim = Simulation::builder().machines(["yellow"]).seed(2).build();
    let mut control = sim.controller("yellow").expect("controller");
    let yellow = sim.cluster().machine("yellow").unwrap();
    let fs = yellow.fs();
    // A self-sourcing script would recurse forever without the limit.
    fs.write("loop.cmd", "source loop.cmd\n".as_bytes().to_vec());
    let out = control.exec("source loop.cmd");
    assert!(out.contains("nested too deeply"), "{out}");
    control.exec("die");
    sim.shutdown();
}

#[test]
fn die_warns_once_when_processes_are_active() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .seed(3)
        .build();
    sim.cluster().register_program("spin", |p, _| loop {
        p.compute_ms(1)?;
    });
    sim.cluster()
        .install_program_file("red", "/bin/spin", "spin");
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red");
    control.exec("newjob j");
    control.exec("addprocess j red /bin/spin");
    control.exec("startjob j");

    let out = control.exec("die");
    assert!(out.contains("still active"), "{out}");
    assert!(!control.is_done());
    // "If the user immediately repeats the die command … the
    // controller will assume the user is aware of the situation and
    // exits with the processes active." (§4.3)
    control.exec("die");
    assert!(control.is_done());
    sim.shutdown();
}

#[test]
fn jobs_listing_shows_processes_and_flags() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(4)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    let out = control.exec("jobs");
    assert!(out.contains("no jobs"), "{out}");
    control.exec("filter f1 blue");
    control.exec("newjob foo");
    control.exec("addprocess foo red /bin/A green");
    control.exec("setflags foo send");
    let out = control.exec("jobs");
    assert!(out.contains("foo"), "{out}");
    assert!(out.contains("filter=f1"), "{out}");
    let out = control.exec("jobs foo");
    assert!(out.contains("new"), "{out}");
    assert!(out.contains("red"), "{out}");
    assert!(out.contains("flags: send"), "{out}");
    control.exec("die");
    control.exec("die");
    sim.shutdown();
}

#[test]
fn input_command_feeds_a_process_and_its_output_reaches_the_transcript() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .seed(5)
        .build();
    // An interactive program: reads one line from stdin, echoes it to
    // stdout in upper case, exits.
    sim.cluster().register_program("shout", |p, _| {
        if let Some(line) = p.read_line(0)? {
            p.write(1, format!("{}!\n", line.to_uppercase()).as_bytes())?;
        }
        Ok(())
    });
    sim.cluster()
        .install_program_file("red", "/bin/shout", "shout");

    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red");
    control.exec("newjob j");
    control.exec("addprocess j red /bin/shout");
    control.exec("startjob j");
    // Feed its redirected standard input through the daemon (§3.5.2).
    control.exec("input j shout hello distributed world");
    assert!(control.wait_job("j", 30_000), "shout exited");
    // The redirected output came back as an IoData notification and
    // was printed as `shout> …`.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        control.pump();
        if control
            .transcript()
            .contains("shout> HELLO DISTRIBUTED WORLD!")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "transcript: {}",
            control.transcript()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    control.exec("removejob j");
    control.exec("die");
    sim.shutdown();
}

#[test]
fn addprocess_redirects_standard_input_from_a_file() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .seed(6)
        .build();
    // wc -l, more or less: count stdin lines until end-of-file.
    sim.cluster().register_program("linecount", |p, _| {
        let mut n = 0;
        while let Some(_line) = p.read_line(0)? {
            n += 1;
        }
        p.write(1, format!("{n} lines\n").as_bytes())?;
        Ok(())
    });
    sim.cluster()
        .install_program_file("red", "/bin/linecount", "linecount");

    let mut control = sim.controller("yellow").expect("controller");
    // The input file exists only on the controller's machine; the
    // controller must rcp it to red (§3.5.2/§3.5.3).
    let yellow = sim.cluster().machine("yellow").unwrap();
    yellow
        .fs()
        .write("input.txt", b"alpha\nbeta\ngamma\n".to_vec());

    control.exec("filter f1 red");
    control.exec("newjob j");
    control.exec("addprocess j red /bin/linecount < input.txt");
    control.exec("startjob j");
    assert!(control.wait_job("j", 30_000), "linecount exited");
    // Its stdout came back through the gateway.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        control.pump();
        if control.transcript().contains("linecount> 3 lines") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "transcript: {}",
            control.transcript()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    control.exec("removejob j");
    control.exec("die");
    sim.shutdown();
}

/// Processes are addressed by (machine, pid): two that share a display
/// name each keep their own state.
#[test]
fn processes_sharing_a_name_keep_their_own_state() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .seed(7)
        .build();
    sim.cluster().register_program("spin2", |p, _| loop {
        p.compute_ms(1)?;
    });
    sim.cluster()
        .install_program_file("red", "/bin/spin2", "spin2");
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red");
    control.exec("newjob j");
    control.exec("addprocess j red /bin/spin2");
    control.exec("addprocess j red /bin/spin2");
    control.exec("startjob j");
    let states: Vec<ProcState> = control
        .job("j")
        .unwrap()
        .procs
        .iter()
        .map(|p| p.state)
        .collect();
    assert_eq!(states, [ProcState::Running, ProcState::Running]);
    let out = control.exec("jobs j");
    assert_eq!(out.matches("  running  spin2  red").count(), 2, "{out}");

    control.exec("stopjob j");
    let out = control.exec("removejob j");
    assert!(!out.contains("not removed"), "{out}");
    assert!(control.job("j").is_none(), "{out}");
    control.exec("die");
    sim.shutdown();
}

#[test]
fn removeprocess_removes_one_process_and_respects_states() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .seed(7)
        .build();
    sim.cluster().register_program("spin2", |p, _| loop {
        p.compute_ms(1)?;
    });
    sim.cluster()
        .install_program_file("red", "/bin/spin2", "spin2");
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red");
    control.exec("newjob j");
    control.exec("addprocess j red /bin/spin2");
    control.exec("addprocess j red /bin/spin2");
    control.exec("startjob j");
    assert_eq!(control.job("j").unwrap().procs.len(), 2);

    // Removing a running process is refused (Fig. 4.2).
    let out = control.exec("removeprocess j spin2");
    assert!(out.contains("stop it before removing"), "{out}");

    control.exec("stopjob j");
    let out = control.exec("removeprocess j spin2");
    assert!(out.contains("'spin2' removed"), "{out}");
    assert_eq!(control.job("j").unwrap().procs.len(), 1);

    let out = control.exec("removeprocess j nosuch");
    assert!(out.contains("no process"), "{out}");

    control.exec("removejob j");
    control.exec("die");
    sim.shutdown();
}
