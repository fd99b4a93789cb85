//! Event record descriptions — the filter's message-format DSL.
//!
//! "The event record descriptions define the message formats. These
//! descriptions are stored in a file with there being a description
//! for each type of event. A description is a list of fields within an
//! event record. … The digits next to a field specify the position of
//! the field within the message. For example, the field sock … starts
//! on the eighth byte …, is four bytes long and is displayed in base
//! ten." (§3.4, Fig. 3.2)
//!
//! Format of a description file, exactly as in Fig. 3.2:
//!
//! ```text
//! HEADER size machine cpuTime procTime traceType
//! SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
//! ```
//!
//! Each event line is the event name, its trace-type number followed
//! by a comma, then `name,offset,length,base` tuples. Offsets are
//! within the event *body* (after the standard 24-byte header). Base
//! 10 fields are little-endian integers; base 16 fields are raw bytes
//! (socket names).

use dpm_meter::{SockName, NAME_LEN};
use std::collections::HashMap;
use std::fmt;

/// One field of an event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDesc {
    /// Field name, e.g. `msgLength`.
    pub name: String,
    /// Byte offset within the event body.
    pub offset: usize,
    /// Byte length (2, 4, or 16).
    pub len: usize,
    /// Display base: 10 for integers, 16 for raw byte fields.
    pub base: u32,
}

/// The description of one event type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDesc {
    /// Event name as written in the file, lower-cased (`send`).
    pub name: String,
    /// The `traceType` value identifying this event on the wire.
    pub trace_type: u32,
    /// Body fields in file order.
    pub fields: Vec<FieldDesc>,
}

/// A parsed descriptions file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Descriptions {
    header_fields: Vec<String>,
    by_type: HashMap<u32, EventDesc>,
    by_name: HashMap<String, u32>,
}

/// A value extracted from a record field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An integer (base-10 field).
    Int(u64),
    /// Raw bytes (base-16 field, i.e. a socket name).
    Bytes(Vec<u8>),
}

impl FieldValue {
    fn as_ref(&self) -> FieldRef<'_> {
        match self {
            FieldValue::Int(v) => FieldRef::Int(*v),
            FieldValue::Bytes(b) => FieldRef::Bytes(b),
        }
    }
}

impl fmt::Display for FieldValue {
    /// Integers print in decimal. Byte fields print as a decoded
    /// socket name when possible (`inet:1:1701`), otherwise as hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A field value borrowed from its record: what the render walk and
/// [`FieldSlot::read`] yield, so a value is looked at — or a text line
/// written — without copying name bytes. Displays like [`FieldValue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldRef<'a> {
    /// An integer (base-10 field).
    Int(u64),
    /// Raw bytes (base-16 field, i.e. a socket name).
    Bytes(&'a [u8]),
}

impl FieldRef<'_> {
    pub(crate) fn to_value(self) -> FieldValue {
        match self {
            FieldRef::Int(v) => FieldValue::Int(v),
            FieldRef::Bytes(b) => FieldValue::Bytes(b.to_vec()),
        }
    }

    /// Whether this is a byte field holding no name (all zeros) — the
    /// value the log writes as `-`.
    pub fn is_blank(self) -> bool {
        matches!(self, FieldRef::Bytes(b) if b.iter().all(|&x| x == 0))
    }
}

impl fmt::Display for FieldRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldRef::Int(v) => write!(f, "{v}"),
            FieldRef::Bytes(b) => {
                if self.is_blank() {
                    return f.write_str("-");
                }
                if b.len() == NAME_LEN {
                    if let Ok(name) = SockName::decode(b) {
                        return write!(f, "{name}");
                    }
                }
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

/// Error parsing a descriptions file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DescParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "descriptions line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DescParseError {}

/// Standard header layout (24 bytes): field name, offset, length.
/// `dummy` is not listed — the paper's Fig. 3.2 header omits it too.
const HEADER_LAYOUT: &[(&str, usize, usize)] = &[
    ("size", 0, 4),
    ("machine", 4, 2),
    ("cpuTime", 8, 4),
    ("procTime", 16, 4),
    ("traceType", 20, 4),
];

/// Length of the standard header on the wire (re-exported from the
/// meter crate so the two layouts can never drift apart).
pub use dpm_meter::HEADER_LEN;

impl Descriptions {
    /// Parses a descriptions file.
    ///
    /// # Errors
    ///
    /// Returns [`DescParseError`] naming the offending line for any
    /// syntax problem: malformed tuples, duplicate event names or
    /// types, or a missing `HEADER` line.
    pub fn parse(text: &str) -> Result<Descriptions, DescParseError> {
        let mut out = Descriptions::default();
        let err = |line: usize, message: &str| DescParseError {
            line,
            message: message.to_owned(),
        };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let head = tokens.next().expect("nonempty line");
            if head.eq_ignore_ascii_case("HEADER") {
                out.header_fields = tokens.map(str::to_owned).collect();
                continue;
            }
            // Event line: NAME <type>, field,off,len,base ...
            let name = head.to_ascii_lowercase();
            let type_tok = tokens
                .next()
                .ok_or_else(|| err(lineno, "missing trace type"))?;
            let type_tok = type_tok.trim_end_matches(',');
            let trace_type: u32 = type_tok
                .parse()
                .map_err(|_| err(lineno, &format!("bad trace type `{type_tok}`")))?;
            let mut fields = Vec::new();
            for tuple in tokens {
                let parts: Vec<&str> = tuple.trim_end_matches(',').split(',').collect();
                if parts.len() != 4 {
                    return Err(err(lineno, &format!("bad field tuple `{tuple}`")));
                }
                let parse_num = |s: &str| -> Result<usize, DescParseError> {
                    s.parse()
                        .map_err(|_| err(lineno, &format!("bad number `{s}`")))
                };
                fields.push(FieldDesc {
                    name: parts[0].to_owned(),
                    offset: parse_num(parts[1])?,
                    len: parse_num(parts[2])?,
                    base: parse_num(parts[3])? as u32,
                });
            }
            if out.by_name.contains_key(&name) {
                return Err(err(lineno, &format!("duplicate event `{name}`")));
            }
            if out.by_type.contains_key(&trace_type) {
                return Err(err(lineno, &format!("duplicate trace type {trace_type}")));
            }
            out.by_name.insert(name.clone(), trace_type);
            out.by_type.insert(
                trace_type,
                EventDesc {
                    name,
                    trace_type,
                    fields,
                },
            );
        }
        if out.header_fields.is_empty() {
            return Err(err(0, "missing HEADER line"));
        }
        Ok(out)
    }

    /// The descriptions of the standard meter message formats — the
    /// file the measurement tool ships ("standard filenames …
    /// `descriptions`", §4.3). Covers every event of Appendix A.
    pub fn standard_text() -> &'static str {
        "\
HEADER size machine cpuTime procTime traceType
SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
RECEIVECALL 2, pid,0,4,10 pc,4,4,10 sock,8,4,10
RECEIVE 3, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 sourceNameLen,16,4,10 sourceName,20,16,16
SOCKET 4, pid,0,4,10 pc,4,4,10 sock,8,4,10 domain,12,4,10 type,16,4,10 protocol,20,4,10
DUP 5, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10
DESTSOCKET 6, pid,0,4,10 pc,4,4,10 sock,8,4,10
FORK 7, pid,0,4,10 pc,4,4,10 newPid,8,4,10
ACCEPT 8, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10 sockNameLen,16,4,10 peerNameLen,20,4,10 sockName,24,16,16 peerName,40,16,16
CONNECT 9, pid,0,4,10 pc,4,4,10 sock,8,4,10 sockNameLen,12,4,10 peerNameLen,16,4,10 sockName,20,16,16 peerName,36,16,16
TERMPROC 10, pid,0,4,10 pc,4,4,10 reason,8,4,10
"
    }

    /// Parses [`Descriptions::standard_text`]; never fails.
    pub fn standard() -> Descriptions {
        Descriptions::parse(Descriptions::standard_text()).expect("standard descriptions parse")
    }

    /// The event description for a trace type.
    pub fn event(&self, trace_type: u32) -> Option<&EventDesc> {
        self.by_type.get(&trace_type)
    }

    /// The trace type for an event name (lower-case).
    pub fn type_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// All described events, ordered by trace type.
    pub fn events(&self) -> Vec<&EventDesc> {
        let mut v: Vec<&EventDesc> = self.by_type.values().collect();
        v.sort_by_key(|e| e.trace_type);
        v
    }

    /// Extracts the trace type from a raw record.
    pub fn record_type(record: &[u8]) -> Option<u32> {
        read_int(record, 20, 4).map(|v| v as u32)
    }

    /// Extracts a named field from a raw record, consulting the header
    /// layout first and then the event body fields. The pseudo-field
    /// `type` resolves to `traceType`, and an event name can be used
    /// as a `type` value by the rules layer.
    pub fn field(&self, record: &[u8], name: &str) -> Option<FieldValue> {
        if let Some(v) = header_field(record, name) {
            return v.map(FieldValue::Int);
        }
        let event = self.event(Self::record_type(record)?)?;
        let field = event.fields.iter().find(|f| f.name == name)?;
        body_field(record, field).map(FieldRef::to_value)
    }

    /// All fields of a record (header then body), in layout order,
    /// with the `size` and `*Len` bookkeeping fields skipped — the
    /// shape written to the trace log.
    pub fn all_fields(&self, record: &[u8]) -> Vec<(String, FieldValue)> {
        let event = Self::record_type(record).and_then(|t| self.event(t));
        logged_header(record)
            .chain(event.into_iter().flat_map(|e| e.logged_body(record)))
            .map(|(name, v)| (name.to_owned(), v.to_value()))
            .collect()
    }
}

impl EventDesc {
    /// The logged fields of `record` under this description — header
    /// then body, in layout order, `size` and `*Len` skipped — read in
    /// place, one pass by offset.
    pub(crate) fn logged_fields<'a>(
        &'a self,
        record: &'a [u8],
    ) -> impl Iterator<Item = (&'a str, FieldRef<'a>)> {
        logged_header(record).chain(self.logged_body(record))
    }

    /// Resolves `name` as the log resolves it for this event's
    /// records — the logged header fields first, then the body fields
    /// in file order (`*Len` bookkeeping is not logged, and a body
    /// field called like a header field carries the header's value).
    pub fn slot(&self, name: &str) -> FieldSlot {
        let header = header_loc(name).map(|(off, len)| (off, len, 10));
        let logged_header = header.filter(|_| name != "size" && name != "type");
        let body = self
            .fields
            .iter()
            .filter(|f| f.name == name && !name.ends_with("Len"))
            .map(|f| header.unwrap_or((HEADER_LEN.saturating_add(f.offset), f.len, f.base)));
        FieldSlot {
            locs: logged_header.into_iter().chain(body).collect(),
        }
    }

    fn logged_body<'a>(
        &'a self,
        record: &'a [u8],
    ) -> impl Iterator<Item = (&'a str, FieldRef<'a>)> {
        self.fields
            .iter()
            .filter(|f| !f.name.ends_with("Len"))
            .filter_map(move |f| {
                // Names resolve header-first (see `Descriptions::field`),
                // so a body field called like a header field — SOCKET's
                // `type` — logs the header's value.
                let v = match header_field(record, &f.name) {
                    Some(v) => v.map(FieldRef::Int),
                    None => body_field(record, f),
                };
                Some((f.name.as_str(), v?))
            })
    }
}

/// The header fields written to the log: all but `size`.
fn logged_header<'a>(record: &'a [u8]) -> impl Iterator<Item = (&'a str, FieldRef<'a>)> {
    HEADER_LAYOUT
        .iter()
        .filter(|(name, ..)| *name != "size")
        .filter_map(move |&(name, off, len)| {
            Some((name, FieldRef::Int(read_int(record, off, len)?)))
        })
}

/// Where the header keeps `name` (`type` is `traceType`), as
/// `(offset, length)`; `None` when it is not a header field.
fn header_loc(name: &str) -> Option<(usize, usize)> {
    let name = if name == "type" { "traceType" } else { name };
    HEADER_LAYOUT
        .iter()
        .find(|(hname, ..)| *hname == name)
        .map(|&(_, off, len)| (off, len))
}

/// Reads `name` as a header field: `None` when it is not one,
/// `Some(None)` when the record is too short to hold it.
fn header_field(record: &[u8], name: &str) -> Option<Option<u64>> {
    header_loc(name).map(|(off, len)| read_int(record, off, len))
}

/// Reads one described body field in place.
fn body_field<'a>(record: &'a [u8], field: &FieldDesc) -> Option<FieldRef<'a>> {
    let body = record.get(HEADER_LEN..)?;
    read_at(body, field.offset, field.len, field.base)
}

/// Reads the `len` bytes at `off` as their base says: raw bytes for
/// base 16, a little-endian integer otherwise. `None` when `buf` ends
/// before the field does.
fn read_at(buf: &[u8], off: usize, len: usize, base: u32) -> Option<FieldRef<'_>> {
    let field = buf.get(off..off.checked_add(len)?)?;
    Some(if base == 16 {
        FieldRef::Bytes(field)
    } else {
        FieldRef::Int(le_int(field))
    })
}

fn read_int(buf: &[u8], off: usize, len: usize) -> Option<u64> {
    buf.get(off..off + len).map(le_int)
}

/// A little-endian integer field's value (its first eight bytes).
fn le_int(field: &[u8]) -> u64 {
    let mut v: u64 = 0;
    for (i, b) in field.iter().enumerate().take(8) {
        v |= (*b as u64) << (8 * i);
    }
    v
}

/// Where a named field of one event type lives in a raw record: the
/// name resolved once ([`EventDesc::slot`]), so reading it off each
/// record is offset arithmetic instead of a lookup by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldSlot {
    /// `(offset from the record start, length, base)` of every logged
    /// field carrying the name, in log order.
    locs: Vec<(usize, usize, u32)>,
}

impl FieldSlot {
    /// The value a log line of `record` would carry under the slot's
    /// name — the first field of that name the record is long enough
    /// to hold. `None` when the event logs no such field or the record
    /// ends before it; never panics, whatever the bytes.
    pub fn read<'a>(&self, record: &'a [u8]) -> Option<FieldRef<'a>> {
        self.locs
            .iter()
            .find_map(|&(off, len, base)| read_at(record, off, len, base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg};

    fn send_record() -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 5,
                cpu_time: 9_999,
                seq: 0,
                proc_time: 40,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 2120,
                pc: 7,
                sock: 4,
                msg_length: 612,
                dest_name: Some(SockName::inet(1, 1701)),
            }),
        }
        .encode()
    }

    #[test]
    fn figure_3_2_line_parses() {
        // The exact description of Fig. 3.2.
        let text = "HEADER size machine cpuTime procTime traceType\n\
                    SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16\n";
        let d = Descriptions::parse(text).unwrap();
        let e = d.event(1).unwrap();
        assert_eq!(e.name, "send");
        assert_eq!(e.fields.len(), 6);
        assert_eq!(e.fields[2].name, "sock");
        assert_eq!(
            (e.fields[2].offset, e.fields[2].len, e.fields[2].base),
            (8, 4, 10)
        );
        assert_eq!(e.fields[5].name, "destName");
        assert_eq!(
            (e.fields[5].offset, e.fields[5].len, e.fields[5].base),
            (20, 16, 16)
        );
    }

    #[test]
    fn standard_descriptions_cover_all_ten_events() {
        let d = Descriptions::standard();
        assert_eq!(d.events().len(), 10);
        for t in 1..=10 {
            assert!(d.event(t).is_some(), "trace type {t} missing");
        }
        assert_eq!(d.type_of("send"), Some(1));
        assert_eq!(d.type_of("ACCEPT"), Some(8));
        assert_eq!(d.type_of("nothing"), None);
    }

    #[test]
    fn field_extraction_from_a_real_record() {
        let d = Descriptions::standard();
        let r = send_record();
        assert_eq!(d.field(&r, "machine"), Some(FieldValue::Int(5)));
        assert_eq!(d.field(&r, "cpuTime"), Some(FieldValue::Int(9_999)));
        assert_eq!(d.field(&r, "type"), Some(FieldValue::Int(1)));
        assert_eq!(d.field(&r, "pid"), Some(FieldValue::Int(2120)));
        assert_eq!(d.field(&r, "msgLength"), Some(FieldValue::Int(612)));
        let dest = d.field(&r, "destName").unwrap();
        assert_eq!(dest.to_string(), "inet:1:1701");
        assert_eq!(d.field(&r, "nonexistent"), None);
    }

    #[test]
    fn all_fields_skips_bookkeeping() {
        let d = Descriptions::standard();
        let r = send_record();
        let fields = d.all_fields(&r);
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "machine",
                "cpuTime",
                "procTime",
                "traceType",
                "pid",
                "pc",
                "sock",
                "msgLength",
                "destName"
            ]
        );
    }

    #[test]
    fn slots_read_what_the_log_shows() {
        let d = Descriptions::standard();
        let r = send_record();
        let send = d.event(1).unwrap();
        // Every logged field, resolved once, reads its logged value.
        for (name, value) in d.all_fields(&r) {
            let read = send.slot(&name).read(&r).map(FieldRef::to_value);
            assert_eq!(read, Some(value), "{name}");
        }
        // Not logged: bookkeeping, the header's `size`, unknown names.
        for name in ["destNameLen", "size", "type", "nonexistent"] {
            assert_eq!(send.slot(name).read(&r), None, "{name}");
        }
        // SOCKET's body `type` logs the header's `traceType`.
        let socket = d.event(4).unwrap();
        assert_eq!(socket.slot("type").read(&r), Some(FieldRef::Int(1)));
        // A record cut inside a field reads as absent, at any length.
        let dest = send.slot("destName");
        for cut in 0..r.len() {
            assert_eq!(dest.read(&r[..cut]), None, "{cut} bytes");
        }
        assert!(dest.read(&r).is_some_and(|v| !v.is_blank()));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = Descriptions::parse("HEADER size\nSEND x, pid,0,4,10\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bad trace type"));

        let e = Descriptions::parse("HEADER a\nSEND 1, pid,0,4\n").unwrap_err();
        assert!(e.message.contains("bad field tuple"));

        let e = Descriptions::parse("SEND 1, pid,0,4,10\n").unwrap_err();
        assert!(e.message.contains("missing HEADER"));

        let e = Descriptions::parse("HEADER a\nSEND 1,\nSEND 2,\n").unwrap_err();
        assert!(e.message.contains("duplicate event"));

        let e = Descriptions::parse("HEADER a\nSEND 1,\nRECV 1,\n").unwrap_err();
        assert!(e.message.contains("duplicate trace type"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let d = Descriptions::parse(
            "# comment\n\nHEADER size machine cpuTime procTime traceType\n\nSEND 1, pid,0,4,10\n",
        )
        .unwrap();
        assert!(d.event(1).is_some());
    }

    #[test]
    fn zero_name_field_displays_as_dash() {
        let d = Descriptions::standard();
        let r = MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 0,
                cpu_time: 0,
                seq: 0,
                proc_time: 0,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 1,
                pc: 1,
                sock: 1,
                msg_length: 1,
                dest_name: None,
            }),
        }
        .encode();
        assert_eq!(d.field(&r, "destName").unwrap().to_string(), "-");
    }
}
