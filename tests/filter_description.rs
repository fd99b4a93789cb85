//! One filter description from keyboard to argv: what the controller
//! builds from the typed `filter` command is the struct the
//! `CreateFilter` request carries, the struct the daemon renders into
//! the program's argument vector, and the struct the program parses
//! back — with one key table and one validator, so the error texts
//! are the same at both ends.

use dpm::crates::filter::{FilterArgs, FilterRole};
use dpm::crates::meterd::Request;
use dpm::Simulation;

#[test]
fn a_description_is_the_same_struct_at_every_layer() {
    let sim = Simulation::builder()
        .machines(["yellow", "red", "blue"])
        .seed(5)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    // The parent the edges name; it takes the first port.
    control.exec("filter root blue role=aggregate log=store");
    let root_port = control.filters()[0].spec.port;

    let mut n = 0;
    for role in [FilterRole::Leaf, FilterRole::Edge, FilterRole::Aggregate] {
        for shards in [1u32, 4] {
            n += 1;
            let name = format!("f{n}");
            let mut tokens = format!("role={role} shards={shards}");
            if role == FilterRole::Edge {
                tokens.push_str(" upstream=root");
            }
            let out = control.exec(&format!("filter {name} red {tokens}"));
            assert!(out.contains("created: identifier="), "{tokens}: {out}");

            // Controller tokens → struct.
            let typed = control.filters().last().expect("listed").spec.clone();
            let edge = role == FilterRole::Edge;
            let expected = FilterArgs {
                port: root_port + n,
                logfile: if edge {
                    String::new()
                } else {
                    format!("/usr/tmp/log.{name}")
                },
                shards,
                role,
                upstream: if edge {
                    format!("blue:{root_port}")
                } else {
                    String::new()
                },
                ..FilterArgs::default()
            };
            assert_eq!(typed, expected, "{tokens}");

            // Struct → wire → struct.
            let wire = Request::CreateFilter {
                spec: typed.clone(),
            }
            .encode();
            let Ok(Request::CreateFilter { spec: decoded }) = Request::decode(&wire) else {
                panic!("{tokens}: CreateFilter did not decode");
            };
            assert_eq!(decoded, typed, "{tokens}");

            // Struct → argv → struct.
            let parsed = FilterArgs::parse(&decoded.to_args()).expect("argv parses");
            assert_eq!(parsed, typed, "{tokens}");
        }
    }

    // The §4.3 positionals are shorthand for file= desc= templates=.
    control.exec("filter pos red /bin/filter descriptions templates");
    control.exec("filter key red file=/bin/filter desc=descriptions templates=templates");
    let [.., pos, key] = control.filters() else {
        panic!("two more filters");
    };
    assert_eq!(
        FilterArgs {
            port: key.spec.port,
            logfile: key.spec.logfile.clone(),
            ..pos.spec.clone()
        },
        key.spec
    );

    // `log=store` is a redundant spelling of what every filter does:
    // the same description, the same argv.
    control.exec("filter plain red");
    control.exec("filter spelled red log=store");
    let [.., plain, spelled] = control.filters() else {
        panic!("two more filters");
    };
    let respelled = FilterArgs {
        port: spelled.spec.port,
        logfile: spelled.spec.logfile.clone(),
        ..plain.spec.clone()
    };
    assert_eq!(respelled, spelled.spec);
    assert_eq!(respelled.to_args(), spelled.spec.to_args());
    assert!(!spelled.spec.to_args().iter().any(|a| a.contains("store")));

    control.exec("die");
    sim.shutdown();
}

#[test]
fn error_texts_are_the_same_at_the_controller_and_the_program() {
    let sim = Simulation::builder().machines(["yellow"]).seed(6).build();
    let mut control = sim.controller("yellow").expect("controller");
    for (tokens, want) in [
        ("role=chief", "bad value 'chief' for key 'role'"),
        ("colour=red", "unknown key 'colour'"),
        ("role=edge", "requires key 'upstream'"),
        ("shards=0", "bad value '0' for key 'shards'"),
        ("upstream=nowhere:0", "for key 'upstream'"),
    ] {
        let out = control.exec(&format!("filter bogus {tokens}"));
        assert!(out.contains(want), "controller, {tokens}: {out}");

        let mut argv = vec!["port=4000".to_owned(), "log=/usr/tmp/l".to_owned()];
        argv.extend(tokens.split(' ').map(str::to_owned));
        let err = FilterArgs::parse(&argv).unwrap_err().to_string();
        assert!(err.contains(want), "program, {tokens}: {err}");
        assert_eq!(out.trim_end(), err, "{tokens}: one text for both");
    }
    assert!(control.filters().is_empty(), "nothing was created");

    // What only the controller knows about.
    let out = control.exec("filter bogus yellow /bin/filter d t extra");
    assert!(out.contains("unexpected argument 'extra'"), "{out}");
    let out = control.exec("filter bogus port=9");
    assert!(out.contains("key 'port' is assigned"), "{out}");
    let out = control.exec("filter bogus role=edge upstream=nosuch");
    assert!(out.contains("no such filter"), "{out}");
    // `log` is the controller's key, and the error says what was typed.
    for sink in ["text", "binary"] {
        let out = control.exec(&format!("filter bogus log={sink}"));
        assert_eq!(
            out.trim_end(),
            format!(
                "bad value '{sink}' for key 'log' (records are kept in the store; getlog renders the text)"
            )
        );
    }
    // The program has no sink key at all.
    let argv = ["port=4000", "log=/usr/tmp/l", "mode=store"].map(str::to_owned);
    let err = FilterArgs::parse(&argv).unwrap_err().to_string();
    assert!(err.contains("unknown key 'mode'"), "{err}");
    assert!(control.filters().is_empty(), "nothing was created");

    control.exec("die");
    sim.shutdown();
}
