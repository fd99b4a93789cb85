//! The trace-log record format.
//!
//! "A filter sends its output to a log file located in the `/usr/tmp`
//! directory. Each filter has its own log file." (§3.4)
//!
//! The paper stored reduced binary records; this implementation writes
//! one self-describing text line per accepted record so that analysis
//! programs (and humans) can read logs without carrying the
//! descriptions file around. Discarded (`#`) fields simply do not
//! appear on the line.
//!
//! Line shape:
//!
//! ```text
//! event=send machine=0 cpuTime=2113 procTime=10 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:1:1701
//! ```
//!
//! The format is line- and token-structured, so names and values are
//! escaped on write (and unescaped on parse): backslash, whitespace,
//! and `=` become two-character backslash escapes (`\\`, `\s`, `\t`,
//! `\n`, `\r`, `\e`). Every standard field renders as digits, dots,
//! and colons — escaping never fires for them and the classic line
//! shape above is byte-identical — but a hostile or future value
//! containing a space, `=`, or newline can no longer corrupt the line
//! structure. [`LogRecord::parse`] of [`fmt::Display`] output is the
//! identity for *any* record.

use crate::desc::{Descriptions, EventDesc, FieldRef};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// The characters a token may not contain bare.
const SPECIAL: [char; 6] = ['\\', ' ', '\t', '\n', '\r', '='];

/// A writer that escapes what passes through it, so a token contains
/// no whitespace, `=`, or bare backslash. Text that needs no escaping
/// — the case for every standard field value — goes through whole.
struct Escaped<'a, 'b>(&'a mut fmt::Formatter<'b>);

impl fmt::Write for Escaped<'_, '_> {
    fn write_str(&mut self, mut s: &str) -> fmt::Result {
        while let Some(i) = s.find(SPECIAL) {
            self.0.write_str(&s[..i])?;
            self.0.write_str(match s.as_bytes()[i] {
                b'\\' => "\\\\",
                b' ' => "\\s",
                b'\t' => "\\t",
                b'\n' => "\\n",
                b'\r' => "\\r",
                _ => "\\e",
            })?;
            s = &s[i + 1..]; // every special character is one byte
        }
        self.0.write_str(s)
    }
}

/// Writes one `name=value` token after `lead` (the separator: empty
/// for a line's first token), both sides escaped.
fn write_token(
    f: &mut fmt::Formatter<'_>,
    lead: &str,
    name: &str,
    value: impl fmt::Display,
) -> fmt::Result {
    f.write_str(lead)?;
    Escaped(f).write_str(name)?;
    f.write_str("=")?;
    write!(Escaped(f), "{value}")
}

/// Reverses [`Escaped`]. Unknown escape pairs (and a trailing lone
/// backslash) are kept verbatim, so parsing stays total.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('e') => out.push('='),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    Cow::Owned(out)
}

/// One record of a trace log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogRecord {
    /// The event name (`send`, `accept`, …).
    pub event: String,
    /// Field name/value pairs in layout order (values in display
    /// form).
    pub fields: Vec<(String, String)>,
}

impl LogRecord {
    /// Builds a record from a raw meter message, skipping the named
    /// discard fields.
    pub fn from_raw(desc: &Descriptions, record: &[u8], discard: &[String]) -> Option<LogRecord> {
        KeptRecord::new(desc, record, discard).map(|kept| kept.to_log_record())
    }

    /// Looks up a field's display value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a field as an integer.
    pub fn get_int(&self, name: &str) -> Option<u64> {
        self.get(name)?.parse().ok()
    }

    /// Parses one log line.
    ///
    /// Returns `None` for lines that are not records (blank, comments).
    pub fn parse(line: &str) -> Option<LogRecord> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut event = String::new();
        let mut fields = Vec::new();
        for token in line.split_whitespace() {
            let (name, value) = token.split_once('=')?;
            if name == "event" {
                event = unescape(value).into_owned();
            } else {
                fields.push((unescape(name).into_owned(), unescape(value).into_owned()));
            }
        }
        if event.is_empty() {
            return None;
        }
        Some(LogRecord { event, fields })
    }

    /// Parses a whole log file.
    pub fn parse_log(text: &str) -> Vec<LogRecord> {
        text.lines().filter_map(LogRecord::parse).collect()
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_token(f, "", "event", &self.event)?;
        for (n, v) in &self.fields {
            write_token(f, " ", n, v)?;
        }
        Ok(())
    }
}

/// A kept record not yet rendered: the raw bytes, the description of
/// their event type and the verdict's discard list, all borrowed.
///
/// This is what [`crate::FilterEngine::feed_records`] hands its sink.
/// A sink that stores or forwards the raw bytes never touches it and
/// pays nothing for it; a sink that wants text formats it
/// ([`fmt::Display`] writes the §3.4 log line in place) or asks for
/// the owned [`LogRecord`] — both exactly what
/// [`LogRecord::from_raw`] gives for the same arguments.
#[derive(Debug, Clone, Copy)]
pub struct KeptRecord<'a> {
    event: &'a EventDesc,
    record: &'a [u8],
    discard: &'a [String],
}

impl<'a> KeptRecord<'a> {
    /// Binds a raw record to its description; `None` when the
    /// descriptions do not know the record's trace type.
    pub fn new(
        desc: &'a Descriptions,
        record: &'a [u8],
        discard: &'a [String],
    ) -> Option<KeptRecord<'a>> {
        let event = desc.event(Descriptions::record_type(record)?)?;
        Some(KeptRecord {
            event,
            record,
            discard,
        })
    }

    /// The fields that survive reduction, in layout order.
    fn fields(&self) -> impl Iterator<Item = (&'a str, FieldRef<'a>)> {
        let discard = self.discard;
        self.event
            .logged_fields(self.record)
            .filter(move |(name, _)| {
                !discard
                    .iter()
                    .any(|d| d == name || (d == "size" && *name == "msgLength"))
            })
    }

    /// Renders the owned, structured form.
    pub fn to_log_record(&self) -> LogRecord {
        LogRecord {
            event: self.event.name.clone(),
            fields: self
                .fields()
                .map(|(name, value)| (name.to_owned(), value.to_string()))
                .collect(),
        }
    }
}

impl fmt::Display for KeptRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_token(f, "", "event", &self.event.name)?;
        for (name, value) in self.fields() {
            write_token(f, " ", name, value)?;
        }
        Ok(())
    }
}

/// Summary statistics over a trace log, handy for quick looks and for
/// the example programs' output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogSummary {
    /// Record count per event name.
    pub by_event: HashMap<String, usize>,
    /// Total records.
    pub total: usize,
}

impl LogSummary {
    /// Tallies a set of records.
    pub fn of(records: &[LogRecord]) -> LogSummary {
        let mut by_event = HashMap::new();
        for r in records {
            *by_event.entry(r.event.clone()).or_insert(0) += 1;
        }
        LogSummary {
            total: records.len(),
            by_event,
        }
    }
}

impl fmt::Display for LogSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} event records", self.total)?;
        let mut names: Vec<&String> = self.by_event.keys().collect();
        names.sort();
        for n in names {
            writeln!(f, "  {:<12} {}", n, self.by_event[n])?;
        }
        Ok(())
    }
}

/// Re-export of [`crate::desc::FieldValue`] for downstream crates
/// that build records by hand in tests.
pub use crate::desc::FieldValue as Value;

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};

    fn send_record() -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 0,
                cpu_time: 2113,
                seq: 0,
                proc_time: 10,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 2120,
                pc: 4,
                sock: 5,
                msg_length: 64,
                dest_name: Some(SockName::inet(1, 1701)),
            }),
        }
        .encode()
    }

    #[test]
    fn raw_to_line_and_back() {
        let d = Descriptions::standard();
        let rec = LogRecord::from_raw(&d, &send_record(), &[]).unwrap();
        let line = rec.to_string();
        assert_eq!(
            line,
            "event=send machine=0 cpuTime=2113 procTime=10 traceType=1 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:1:1701"
        );
        let back = LogRecord::parse(&line).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.get_int("msgLength"), Some(64));
        assert_eq!(back.get("destName"), Some("inet:1:1701"));
    }

    #[test]
    fn discard_fields_vanish() {
        let d = Descriptions::standard();
        let rec =
            LogRecord::from_raw(&d, &send_record(), &["machine".into(), "pc".into()]).unwrap();
        assert_eq!(rec.get("machine"), None);
        assert_eq!(rec.get("pc"), None);
        assert_eq!(rec.get_int("pid"), Some(2120));
    }

    #[test]
    fn size_alias_discards_msg_length() {
        let d = Descriptions::standard();
        let rec = LogRecord::from_raw(&d, &send_record(), &["size".into()]).unwrap();
        assert_eq!(rec.get("msgLength"), None);
    }

    /// Satellite regression: values containing spaces, `=`, newlines,
    /// tabs, or backslashes used to corrupt the line structure (the
    /// parser split on whitespace and the first `=`). They now escape
    /// on write and unescape on parse, so display→parse is the
    /// identity for arbitrary records.
    #[test]
    fn hostile_values_round_trip_exactly() {
        let rec = LogRecord {
            event: "odd event".into(),
            fields: vec![
                ("plain".into(), "42".into()),
                ("spaced".into(), "two words".into()),
                ("eq".into(), "a=b=c".into()),
                ("multi\nline".into(), "first\nsecond\r\n".into()),
                ("tabs".into(), "a\tb".into()),
                ("slashes".into(), "C:\\path\\n not a newline".into()),
                ("empty".into(), String::new()),
            ],
        };
        let line = rec.to_string();
        assert!(!line.contains('\n'), "one record, one line: {line:?}");
        let back = LogRecord::parse(&line).expect("line parses");
        assert_eq!(back, rec);
        // Multiple hostile records in one log stay one-per-line.
        let log = format!("{rec}\n{rec}\n");
        let all = LogRecord::parse_log(&log);
        assert_eq!(all, vec![rec.clone(), rec]);
    }

    #[test]
    fn benign_lines_are_unchanged_by_escaping() {
        // The exact classic line shape must keep round-tripping
        // untouched — escaping never fires for standard fields.
        let line = "event=send machine=0 cpuTime=2113 procTime=10 traceType=1 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:1:1701";
        let rec = LogRecord::parse(line).unwrap();
        assert_eq!(rec.to_string(), line);
    }

    #[test]
    fn unknown_escapes_parse_leniently() {
        let rec = LogRecord::parse("event=x a=\\q b=trailing\\").unwrap();
        assert_eq!(rec.get("a"), Some("\\q"));
        assert_eq!(rec.get("b"), Some("trailing\\"));
    }

    #[test]
    fn parse_log_skips_junk() {
        let text = "\n# comment\nevent=fork pid=1 newPid=2\nnot-a-record\n";
        let recs = LogRecord::parse_log(text);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].event, "fork");
    }

    #[test]
    fn summary_counts() {
        let recs = LogRecord::parse_log("event=send pid=1\nevent=send pid=2\nevent=fork pid=1\n");
        let s = LogSummary::of(&recs);
        assert_eq!(s.total, 3);
        assert_eq!(s.by_event["send"], 2);
        assert_eq!(s.by_event["fork"], 1);
        let shown = s.to_string();
        assert!(shown.contains("3 event records"));
        assert!(shown.contains("send"));
    }
}
