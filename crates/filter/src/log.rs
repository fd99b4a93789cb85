//! The trace-log record format.
//!
//! "A filter sends its output to a log file located in the `/usr/tmp`
//! directory. Each filter has its own log file." (§3.4)
//!
//! The paper stored reduced binary records, and so does this
//! implementation: a filter's log is its binary store (`dpm-logstore`),
//! which keeps each accepted record's raw bytes. The text here is a
//! view of that store — `getlog` and `tail` show one self-describing
//! line per record, so that analysis programs (and humans) can read a
//! log without carrying the descriptions file around. Discarded (`#`)
//! fields simply do not appear on the line.
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
//!
//! A line is written in one way: [`KeptRecord::write_to`] runs the
//! event type's line, compiled once from its description by
//! [`Descriptions::parse`].

use crate::desc::{read_at, Descriptions, EventDesc, FieldRef};
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

/// The one escaper: a writer that escapes what passes through it, so a
/// token contains no whitespace, `=`, or bare backslash. Text that
/// needs no escaping — the case for every standard field value — goes
/// through whole.
struct Escaped<'a, W>(&'a mut W);

impl<W: fmt::Write> fmt::Write for Escaped<'_, W> {
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

/// Appends `s` to `out` escaped.
fn push_escaped(out: &mut String, s: &str) {
    Escaped(out).write_str(s).expect("write to String");
}

/// Appends the token `name=value` to a line, both sides escaped, after
/// a space unless it is the line's first.
fn push_token(line: &mut String, name: &str, value: &str) {
    if !line.is_empty() {
        line.push(' ');
    }
    push_escaped(line, name);
    line.push('=');
    push_escaped(line, value);
}

/// Reverses the escaper. Unknown escape pairs (and a trailing lone
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

/// One record of a trace log: its §3.4 line, canonically escaped, read
/// through [`LogRecord::tokens`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    line: String,
}

impl LogRecord {
    /// A record of `event` carrying `fields` in order — for records
    /// built by hand; the monitor's own come from
    /// [`LogRecord::from_raw`].
    pub fn new<'a>(event: &str, fields: impl IntoIterator<Item = (&'a str, &'a str)>) -> LogRecord {
        let mut line = String::new();
        push_token(&mut line, "event", event);
        for (name, value) in fields {
            push_token(&mut line, name, value);
        }
        LogRecord { line }
    }

    /// Builds a record from a raw meter message, skipping the named
    /// discard fields: the [`KeptRecord`] line, written into one
    /// presized `String`.
    pub fn from_raw(desc: &Descriptions, record: &[u8], discard: &[String]) -> Option<LogRecord> {
        let kept = KeptRecord::new(desc, record, discard)?;
        let mut line = String::with_capacity(kept.line.max_len);
        kept.write_to(&mut line).expect("write to String");
        Some(LogRecord { line })
    }

    /// Looks up a field's display value. The event name is no field.
    pub fn get(&self, name: &str) -> Option<Cow<'_, str>> {
        let mut fields = LogRecord::tokens(&self.line).flatten().skip(1);
        fields.find_map(|(n, value)| (n == name).then_some(value))
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
        let tokens: Vec<_> = LogRecord::tokens(line).collect::<Option<_>>()?;
        let (_, event) = tokens.iter().rfind(|(name, _)| name == "event")?;
        let fields = tokens.iter().filter(|(name, _)| name != "event");
        (!event.is_empty()).then(|| LogRecord::new(event, fields.map(|(n, v)| (&**n, &**v))))
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.line)
    }
}

/// The §3.4 line of one event type, compiled from its description once
/// (by [`Descriptions::parse`]) into one string: the escaped
/// `event=<name>` head, then for each logged field its escaped
/// ` name=` key followed by its name as a discard list spells it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogLine {
    text: String,
    /// Where the head ends in `text`.
    head: usize,
    /// Each logged field: where in `text` its key starts, its name
    /// starts (the key's end) and its name ends, and its `(offset from
    /// the record start, length, base)`.
    fields: Vec<([usize; 3], (usize, usize, u32))>,
    /// Room for the line of any record of this type whose byte fields
    /// are at most socket-name long — a capacity hint.
    max_len: usize,
}

impl LogLine {
    /// Compiles `event`'s line, its fields in [`EventDesc::line_layout`]
    /// order.
    pub(crate) fn compile(event: &EventDesc) -> LogLine {
        let mut text = String::new();
        push_token(&mut text, "event", &event.name);
        let (head, mut max_len) = (text.len(), text.len());
        let mut fields = Vec::new();
        for (name, loc) in event.line_layout() {
            let key = text.len();
            text.push(' ');
            push_escaped(&mut text, name);
            text.push('=');
            let named = text.len();
            text.push_str(name);
            // A value is at most 20 digits, 32 hex digits, or a socket
            // name: `unix:` and 14 path bytes, each escaped to two.
            max_len += named - key + 33;
            fields.push(([key, named, text.len()], loc));
        }
        LogLine {
            text,
            head,
            fields,
            max_len,
        }
    }
}

/// A kept record not yet rendered: the raw bytes, the compiled line of
/// their event type and the verdict's discard list, all borrowed.
///
/// This is what [`crate::FilterEngine::feed_records`] hands its sink.
/// A sink that stores or forwards the raw bytes never touches it and
/// pays nothing for it; a sink that wants text has
/// [`KeptRecord::write_to`] put the §3.4 line down — what
/// [`fmt::Display`] and [`LogRecord::from_raw`] give for the same
/// arguments.
#[derive(Debug, Clone, Copy)]
pub struct KeptRecord<'a> {
    line: &'a LogLine,
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
        let line = desc.line(Descriptions::record_type(record)?)?;
        Some(KeptRecord {
            line,
            record,
            discard,
        })
    }

    /// Writes the record's §3.4 line to `out`: the head, then each
    /// logged field the discard list keeps and the record is long
    /// enough to hold. Integers are written by a digit loop, not
    /// `core::fmt`; a byte field through the escaper. The line does
    /// not end in a newline.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let discards = |name: &str| {
            // `size` discards `msgLength` too.
            let names = |d: &String| d == name || (d == "size" && name == "msgLength");
            self.discard.iter().any(names)
        };
        let text = &self.line.text;
        out.write_str(&text[..self.line.head])?;
        for &([key, name, end], (off, len, base)) in &self.line.fields {
            if !self.discard.is_empty() && discards(&text[name..end]) {
                continue;
            }
            if let Some(value) = read_at(self.record, off, len, base) {
                out.write_str(&text[key..name])?;
                match value {
                    FieldRef::Int(v) => write_digits(out, v)?,
                    bytes => write!(Escaped(out), "{bytes}")?,
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for KeptRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Writes `v` in decimal.
fn write_digits<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while at == digits.len() || v > 0 {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

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
        assert_eq!(back.get("destName").as_deref(), Some("inet:1:1701"));
        assert_eq!(back.get("event"), None, "the event name is no field");
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
        let rec = LogRecord::new(
            "odd event",
            [
                ("plain", "42"),
                ("spaced", "two words"),
                ("eq", "a=b=c"),
                ("multi\nline", "first\nsecond\r\n"),
                ("tabs", "a\tb"),
                ("slashes", "C:\\path\\n not a newline"),
                ("empty", ""),
            ],
        );
        let line = rec.to_string();
        assert!(!line.contains('\n'), "one record, one line: {line:?}");
        let back = LogRecord::parse(&line).expect("line parses");
        assert_eq!(back, rec);
        assert_eq!(
            back.get("multi\nline").as_deref(),
            Some("first\nsecond\r\n")
        );
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
        assert_eq!(rec.get("a").as_deref(), Some("\\q"));
        assert_eq!(rec.get("b").as_deref(), Some("trailing\\"));
    }

    #[test]
    fn junk_lines_are_no_records() {
        let text = "\n# comment event=fork\nevent=fork pid=1 newPid=2\nnot-a-record\nevent=fork pid=1 stray\nevent=\n";
        let recs: Vec<LogRecord> = text.lines().filter_map(LogRecord::parse).collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].to_string(), "event=fork pid=1 newPid=2");
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
