//! Property-based tests for the filter: rule parsing round-trips
//! through display, the engine is chunking-invariant, and selection
//! semantics hold for generated rule/record pairs.

use dpm_filter::{Descriptions, FilterEngine, Rules, Verdict};
use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};
use proptest::prelude::*;

fn send_record(machine: u16, cpu: u32, pid: u32, len: u32) -> Vec<u8> {
    MeterMsg {
        header: MeterHeader {
            size: 0,
            machine,
            cpu_time: cpu,
            seq: 0,
            proc_time: 0,
            trace_type: dpm_meter::trace_type::SEND,
        },
        body: MeterBody::Send(MeterSendMsg {
            pid,
            pc: 1,
            sock: 2,
            msg_length: len,
            dest_name: Some(SockName::inet(1, 9)),
        }),
    }
    .encode()
}

/// A generated simple condition: `field op value`.
fn arb_rule_text() -> impl Strategy<Value = String> {
    let field = prop_oneof![
        Just("machine"),
        Just("cpuTime"),
        Just("pid"),
        Just("sock"),
        Just("msgLength"),
    ];
    let op = prop_oneof![
        Just("="),
        Just("!="),
        Just("<"),
        Just(">"),
        Just("<="),
        Just(">=")
    ];
    let cond = (field, op, any::<u16>()).prop_map(|(f, o, v)| format!("{f}{o}{v}"));
    proptest::collection::vec(cond, 1..4).prop_map(|cs| cs.join(", "))
}

proptest! {
    #[test]
    fn parse_display_round_trip(text in arb_rule_text()) {
        let rules = Rules::parse(&text).expect("generated rules parse");
        let shown = rules.rules[0].to_string();
        let reparsed = Rules::parse(&shown).expect("displayed rules parse");
        prop_assert_eq!(&reparsed.rules[0], &rules.rules[0]);
    }

    #[test]
    fn engine_is_chunking_invariant(
        records in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..20),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        for (m, c, p, l) in &records {
            wire.extend_from_slice(&send_record(*m, *c, *p, *l));
        }
        let mut whole = FilterEngine::standard();
        let all_at_once = whole.feed(&wire);
        let mut split = FilterEngine::standard();
        let mut piecewise = Vec::new();
        for part in wire.chunks(chunk) {
            piecewise.extend(split.feed(part));
        }
        prop_assert_eq!(all_at_once, piecewise);
        prop_assert_eq!(whole.stats().kept, split.stats().kept);
    }

    #[test]
    fn numeric_conditions_agree_with_direct_comparison(
        machine in 0u16..10,
        threshold in 0u32..100,
        cpu in 0u32..100,
    ) {
        let rules = Rules::parse(&format!("cpuTime<{threshold}")).expect("parse");
        let rec = send_record(machine, cpu, 1, 1);
        let kept = matches!(rules.verdict(&Descriptions::standard(), &rec), Verdict::Keep { .. });
        prop_assert_eq!(kept, cpu < threshold);
    }

    #[test]
    fn wildcard_always_matches_and_discards(
        machine in any::<u16>(),
        cpu in any::<u32>(),
    ) {
        let rules = Rules::parse("machine=#*").expect("parse");
        let rec = send_record(machine, cpu, 1, 1);
        match rules.verdict(&Descriptions::standard(), &rec) {
            Verdict::Keep { discard_fields } => {
                prop_assert_eq!(discard_fields, vec!["machine".to_owned()]);
            }
            Verdict::Reject => prop_assert!(false, "wildcard must match"),
        }
    }

    #[test]
    fn prefix_pattern_matches_decimal_prefixes(pid in any::<u32>()) {
        let rules = Rules::parse("pid=1*").expect("parse");
        let rec = send_record(0, 0, pid, 1);
        let kept = matches!(rules.verdict(&Descriptions::standard(), &rec), Verdict::Keep { .. });
        prop_assert_eq!(kept, pid.to_string().starts_with('1'));
    }

    #[test]
    fn engine_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..500)) {
        let mut engine = FilterEngine::standard();
        let _ = engine.feed(&bytes); // must not panic
    }

    /// The zero-copy pipeline's key invariant: a stream delivered one
    /// byte at a time produces exactly the same accepted lines and the
    /// same statistics — including `garbage_bytes` — as the same
    /// stream delivered in one buffer, even when corrupt bytes are
    /// mixed in between the records.
    #[test]
    fn byte_at_a_time_equals_all_at_once(
        records in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..12),
        garbage_runs in proptest::collection::vec(0usize..40, 1..12),
    ) {
        // Interleave zero-filled garbage runs with valid records.
        // (0x00 runs are unambiguous: every misaligned size read is
        // either 0 or a left-shifted real size, both outside the
        // valid 24..=4096 range, so resynchronization is exact.)
        let mut wire = Vec::new();
        for (i, (m, c, p, l)) in records.iter().enumerate() {
            let run = garbage_runs[i % garbage_runs.len()];
            wire.extend(std::iter::repeat_n(0u8, run));
            wire.extend_from_slice(&send_record(*m, *c, *p, *l));
        }

        let mut whole = FilterEngine::standard();
        let mut whole_lines = Vec::new();
        whole.feed_records(&wire, &mut |_, rec| whole_lines.push(rec.to_string()));

        let mut trickle = FilterEngine::standard();
        let mut trickle_lines = Vec::new();
        for b in &wire {
            trickle.feed_records(std::slice::from_ref(b), &mut |_, rec| {
                trickle_lines.push(rec.to_string());
            });
        }

        prop_assert_eq!(&whole_lines, &trickle_lines);
        prop_assert_eq!(whole.stats(), trickle.stats());
        prop_assert_eq!(whole.pending_bytes(), trickle.pending_bytes());
    }

    /// Resync fuzz: after arbitrary garbage runs between records, the
    /// engine recovers every valid record and charges exactly the
    /// garbage bytes to `garbage_bytes` (the stream ends with a valid
    /// record, so no garbage is left pending as a possible header).
    #[test]
    fn resync_recovers_every_record_between_garbage(
        records in proptest::collection::vec(
            (any::<u16>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..12),
        garbage_runs in proptest::collection::vec(0usize..40, 1..12),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        let mut total_garbage = 0u64;
        for (i, (m, c, p, l)) in records.iter().enumerate() {
            let run = garbage_runs[i % garbage_runs.len()];
            total_garbage += run as u64;
            wire.extend(std::iter::repeat_n(0u8, run));
            wire.extend_from_slice(&send_record(*m, *c, *p, *l));
        }

        let mut engine = FilterEngine::standard();
        let mut lines = Vec::new();
        for part in wire.chunks(chunk) {
            engine.feed_records(part, &mut |_, rec| lines.push(rec.to_string()));
        }

        let stats = engine.stats();
        prop_assert_eq!(stats.seen, records.len() as u64);
        prop_assert_eq!(stats.kept, lines.len() as u64);
        prop_assert_eq!(stats.garbage_bytes, total_garbage);
        prop_assert_eq!(engine.pending_bytes(), 0);
    }
}
