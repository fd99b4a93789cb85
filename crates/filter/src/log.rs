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
use std::fmt::{self, Write as _};

/// The two-character escape of a byte a token may not contain bare —
/// backslash, whitespace, `=` — or `None` for any other byte.
fn escape_of(byte: u8) -> Option<&'static str> {
    Some(match byte {
        b'\\' => "\\\\",
        b' ' => "\\s",
        b'\t' => "\\t",
        b'\n' => "\\n",
        b'\r' => "\\r",
        b'=' => "\\e",
        _ => return None,
    })
}

/// A writer that escapes what passes through it, so a token contains
/// no whitespace, `=`, or bare backslash. Text that needs no escaping
/// — the case for every standard field value — goes through whole.
struct Escaped<'a, 'b>(&'a mut fmt::Formatter<'b>);

impl fmt::Write for Escaped<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Every special character is one byte, so `clean..i` always
        // falls on character boundaries.
        let mut clean = 0;
        for (i, &byte) in s.as_bytes().iter().enumerate() {
            if let Some(escape) = escape_of(byte) {
                self.0.write_str(&s[clean..i])?;
                self.0.write_str(escape)?;
                clean = i + 1;
            }
        }
        self.0.write_str(&s[clean..])
    }
}

/// Writes `lead` (the separator: empty for a line's first token) and
/// `name=`, the name escaped; the value follows, escaped by the caller.
fn write_key(f: &mut fmt::Formatter<'_>, lead: &str, name: &str) -> fmt::Result {
    f.write_str(lead)?;
    Escaped(f).write_str(name)?;
    f.write_str("=")
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

    /// The one §3.4 line tokenizer: each whitespace-separated
    /// `name=value` token of `line`, split at its first `=` and both
    /// sides unescaped — borrowed from `line` unless a side held an
    /// escape. A blank line or a `#` comment has no tokens. A token
    /// without `=` comes out as `None`, and the line it is on is no
    /// record.
    ///
    /// A name unescapes to `event` only if it is spelled `event`, since
    /// every escape yields a backslash, whitespace or `=`.
    pub fn tokens(line: &str) -> impl Iterator<Item = Option<(Cow<'_, str>, Cow<'_, str>)>> {
        let line = line.trim();
        let body = if line.starts_with('#') { "" } else { line };
        body.split_whitespace().map(|token| {
            let (name, value) = token.split_once('=')?;
            Some((unescape(name), unescape(value)))
        })
    }

    /// Parses one log line: its last `event=` token names the event,
    /// every other token is a field in line order.
    ///
    /// Returns `None` for lines that are not records (blank, comments,
    /// a token without `=`, no event).
    pub fn parse(line: &str) -> Option<LogRecord> {
        let mut rec = LogRecord::default();
        for token in LogRecord::tokens(line) {
            let (name, value) = token?;
            if name == "event" {
                rec.event = value.into_owned();
            } else {
                rec.fields.push((name.into_owned(), value.into_owned()));
            }
        }
        (!rec.event.is_empty()).then_some(rec)
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_key(f, "", "event")?;
        Escaped(f).write_str(&self.event)?;
        for (name, value) in &self.fields {
            write_key(f, " ", name)?;
            Escaped(f).write_str(value)?;
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
        write_key(f, "", "event")?;
        Escaped(f).write_str(&self.event.name)?;
        for (name, value) in self.fields() {
            write_key(f, " ", name)?;
            match value {
                // Digits never need escaping.
                FieldRef::Int(v) => write!(f, "{v}")?,
                bytes => write!(Escaped(f), "{bytes}")?,
            }
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
        let all: Vec<LogRecord> = log.lines().filter_map(LogRecord::parse).collect();
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
    fn junk_lines_are_no_records() {
        let text = "\n# comment event=fork\nevent=fork pid=1 newPid=2\nnot-a-record\nevent=fork pid=1 stray\nevent=\n";
        let recs: Vec<LogRecord> = text.lines().filter_map(LogRecord::parse).collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].event, "fork");
    }

    #[test]
    fn tokens_borrow_unless_escaped() {
        let tokens: Vec<_> = LogRecord::tokens("  event=send a\\sb=x\\ey ").collect();
        let [Some((event, send)), Some((name, value))] = &tokens[..] else {
            panic!("two tokens: {tokens:?}");
        };
        assert!(matches!(event, Cow::Borrowed("event")));
        assert!(matches!(send, Cow::Borrowed("send")));
        assert_eq!((&**name, &**value), ("a b", "x=y"));
        assert_eq!(LogRecord::tokens("# event=send").count(), 0);
        assert_eq!(LogRecord::tokens("event=send x").last(), Some(None));
    }
}
