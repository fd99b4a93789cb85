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

use crate::log::LogLine;
use dpm_meter::{NameRef, NAME_LEN};
use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// One field of an event record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    /// Each event's description and its §3.4 line, compiled once.
    by_type: HashMap<u32, (EventDesc, LogLine)>,
    /// A hash of the events: what compiled rules are tagged with.
    pub(crate) fingerprint: u64,
}

/// A field value borrowed from its record: what [`FieldSlot::read`]
/// yields, so a value is looked at — or a text line written — without
/// copying name bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldRef<'a> {
    /// An integer (base-10 field).
    Int(u64),
    /// Raw bytes (base-16 field, i.e. a socket name).
    Bytes(&'a [u8]),
}

impl FieldRef<'_> {
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
                    if let Ok(name) = NameRef::decode(b) {
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
const HEADER_LAYOUT: [(&str, usize, usize); 5] = [
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
            if out.by_type.values().any(|(event, _)| event.name == name) {
                return Err(err(lineno, &format!("duplicate event `{name}`")));
            }
            if out.by_type.contains_key(&trace_type) {
                return Err(err(lineno, &format!("duplicate trace type {trace_type}")));
            }
            let event = EventDesc {
                name,
                trace_type,
                fields,
            };
            let line = LogLine::compile(&event);
            out.by_type.insert(trace_type, (event, line));
        }
        if out.header_fields.is_empty() {
            return Err(err(0, "missing HEADER line"));
        }
        let mut hasher = DefaultHasher::new();
        out.events().hash(&mut hasher);
        out.fingerprint = hasher.finish();
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
        self.by_type.get(&trace_type).map(|(event, _)| event)
    }

    /// The compiled §3.4 line for a trace type.
    pub(crate) fn line(&self, trace_type: u32) -> Option<&LogLine> {
        self.by_type.get(&trace_type).map(|(_, line)| line)
    }

    /// All described events, ordered by trace type.
    pub fn events(&self) -> Vec<&EventDesc> {
        let mut v: Vec<&EventDesc> = self.by_type.values().map(|(event, _)| event).collect();
        v.sort_by_key(|e| e.trace_type);
        v
    }

    /// Extracts the trace type from a raw record.
    pub fn record_type(record: &[u8]) -> Option<u32> {
        read_int(record, 20, 4).map(|v| v as u32)
    }
}

impl EventDesc {
    /// The fields a §3.4 line of this event carries, in line order,
    /// each with its `(offset from the record start, length, base)`:
    /// the header's but `size`, then the body's in file order but the
    /// `*Len` bookkeeping. Names resolve header-first, as the rules
    /// resolve them, so a body field called like a header field —
    /// SOCKET's `type` — carries the header's value.
    pub(crate) fn line_layout(&self) -> impl Iterator<Item = (&str, (usize, usize, u32))> {
        let header = HEADER_LAYOUT.iter().filter(|(name, ..)| *name != "size");
        let body = self.fields.iter().filter(|f| !f.name.ends_with("Len"));
        let body = body.map(|f| {
            let at = (HEADER_LEN.saturating_add(f.offset), f.len, f.base);
            let loc = header_loc(&f.name).map_or(at, |(_, off, len)| (off, len, 10));
            (f.name.as_str(), loc)
        });
        header
            .map(|&(name, off, len)| (name, (off, len, 10)))
            .chain(body)
    }

    /// Resolves `name` as the log resolves it for this event's
    /// records: every field of that name its §3.4 line carries, header
    /// first (`*Len` bookkeeping is not logged, and a body field called
    /// like a header field carries the header's value).
    pub fn slot(&self, name: &str) -> FieldSlot {
        let locs = self.line_layout().filter(|(field, _)| *field == name);
        FieldSlot {
            locs: locs.map(|(_, loc)| loc).collect(),
        }
    }
}

/// Where the header keeps `name` (`type` is `traceType`), as its
/// index in [`header_ints`], offset and length; `None` when it is not
/// a header field.
pub(crate) fn header_loc(name: &str) -> Option<(usize, usize, usize)> {
    let name = if name == "type" { "traceType" } else { name };
    let at = HEADER_LAYOUT
        .iter()
        .position(|(hname, ..)| *hname == name)?;
    let (_, off, len) = HEADER_LAYOUT[at];
    Some((at, off, len))
}

/// The header's integer fields, in layout order; `None` when `record`
/// is shorter than a header.
pub(crate) fn header_ints(record: &[u8]) -> Option<[u64; 5]> {
    let header = record.get(..HEADER_LEN)?;
    let int = |(_, off, len): (&str, usize, usize)| le_int(&header[off..off + len]);
    Some(std::array::from_fn(|i| int(HEADER_LAYOUT[i])))
}

/// Reads the `len` bytes at `off` as their base says: raw bytes for
/// base 16, a little-endian integer otherwise. `None` when `buf` ends
/// before the field does.
pub(crate) fn read_at(buf: &[u8], off: usize, len: usize, base: u32) -> Option<FieldRef<'_>> {
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
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};

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
    }

    #[test]
    fn field_extraction_from_a_real_record() {
        let d = Descriptions::standard();
        let r = send_record();
        let send = d.event(1).unwrap();
        let read = |name: &str| send.slot(name).read(&r).map(|v| v.to_string());
        for (name, value) in [
            ("machine", "5"),
            ("cpuTime", "9999"),
            ("traceType", "1"),
            ("pid", "2120"),
            ("msgLength", "612"),
            ("destName", "inet:1:1701"),
        ] {
            assert_eq!(read(name).as_deref(), Some(value), "{name}");
        }
        assert_eq!(read("nonexistent"), None);
    }

    /// The logged fields of `r`, as its §3.4 line carries them.
    fn logged(d: &Descriptions, r: &[u8]) -> Vec<(String, String)> {
        let line = crate::KeptRecord::new(d, r, &[]).unwrap().to_string();
        crate::LogRecord::tokens(&line)
            .skip(1)
            .map(|t| t.map(|(n, v)| (n.into_owned(), v.into_owned())).unwrap())
            .collect()
    }

    #[test]
    fn the_line_skips_bookkeeping() {
        let d = Descriptions::standard();
        let r = send_record();
        let fields = logged(&d, &r);
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
        for (name, value) in logged(&d, &r) {
            let read = send.slot(&name).read(&r).map(|v| v.to_string());
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
        let dest = d.event(1).unwrap().slot("destName").read(&r).unwrap();
        assert_eq!(dest.to_string(), "-");
    }
}
