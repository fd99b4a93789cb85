//! The §3.3 user route held to literal output: `Analysis::of_log` over
//! a committed trace log, summarised, must print exactly the committed
//! summary. The log is a finished A/B session (`setflags all`, `getlog`)
//! followed by hostile lines — escaped names and values, duplicate
//! fields and a repeated `event=`, tokens without `=`, `#` lines, CRLF
//! and Unicode whitespace, integers that do not parse, `-` names and
//! unknown events — so a change to how text is tokenized or typed shows
//! here as a changed count, pairing or order. The summary was generated
//! by the owned-record parser the one-pass `Trace::parse` replaced.

use dpm::Analysis;

const SAMPLE: &str = include_str!("analyze_golden/sample.log");
const SUMMARY: &str = include_str!("analyze_golden/summary.txt");

#[test]
fn session_log_with_hostile_lines_summarises_to_the_golden_text() {
    // A checkout that normalised line ends or encodings would test less.
    assert!(SAMPLE.contains("\r\n") && SAMPLE.contains('\u{3000}'));
    let got = Analysis::of_log(SAMPLE).summary();
    assert_eq!(got, SUMMARY);
}
