//! Typed view of a trace log.
//!
//! "The analysis routines provide the means for interpreting the
//! traces created by filters. They give meaning to the data by
//! summarizing and operating on the event records collected." (§3.3)
//!
//! This module turns the filter's log records back into typed
//! [`Event`]s — text lines through [`Trace::parse`], which tokenizes
//! each line once and types it from the borrowed tokens, stored raw
//! records through a [`FrameDecoder`], which reads the few fields
//! typing needs straight off the record bytes. Both feed one typing
//! function, so the two routes cannot drift. A process is identified
//! by `(machine, pid)` because pid uniqueness is per machine in 4.2BSD.

use dpm_filter::{Descriptions, FieldRef, FieldSlot, LogRecord};
use dpm_logstore::{Frame, StoreReader};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// Identifies a process across the whole computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcKey {
    /// Machine (host id).
    pub machine: u32,
    /// Process id on that machine.
    pub pid: u32,
}

impl fmt::Display for ProcKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}:p{}", self.machine, self.pid)
    }
}

/// What happened, typed per event kind. Name fields hold the display
/// form of socket names (e.g. `inet:1:1701`); `None` when the trace
/// record carried no name (stream sends) or the field was discarded by
/// the filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A message was sent.
    Send {
        /// Payload length.
        len: u32,
        /// Destination name (datagrams only).
        dest: Option<String>,
    },
    /// A receive was requested (may have blocked).
    RecvCall,
    /// A message was received.
    Recv {
        /// Payload length.
        len: u32,
        /// Source name (datagrams only).
        source: Option<String>,
    },
    /// A socket was created.
    Socket {
        /// Domain code (1 = UNIX, 2 = Internet).
        domain: u32,
        /// Type code (1 = stream, 2 = datagram).
        sock_type: u32,
    },
    /// A descriptor was duplicated.
    Dup {
        /// The duplicate socket (same file-table entry).
        new_sock: u32,
    },
    /// A socket was closed.
    DestSocket,
    /// The process forked.
    Fork {
        /// The child's pid.
        child: u32,
    },
    /// A connection was accepted.
    Accept {
        /// The new connection socket.
        new_sock: u32,
        /// Name bound to the accepting socket.
        sock_name: Option<String>,
        /// Name bound to the connecting socket.
        peer_name: Option<String>,
    },
    /// A connection was initiated.
    Connect {
        /// Name bound to the connecting socket.
        sock_name: Option<String>,
        /// Name bound to the accepting socket.
        peer_name: Option<String>,
    },
    /// The process terminated (0 = normal, 1 = killed).
    Term {
        /// Termination reason code.
        reason: u32,
    },
}

impl EventKind {
    /// The event name as it appears in the log.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send { .. } => "send",
            EventKind::RecvCall => "receivecall",
            EventKind::Recv { .. } => "receive",
            EventKind::Socket { .. } => "socket",
            EventKind::Dup { .. } => "dup",
            EventKind::DestSocket => "destsocket",
            EventKind::Fork { .. } => "fork",
            EventKind::Accept { .. } => "accept",
            EventKind::Connect { .. } => "connect",
            EventKind::Term { .. } => "termproc",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Index in the parsed trace (stable identifier for analyses).
    pub idx: usize,
    /// The process that produced the event.
    pub proc: ProcKey,
    /// Machine-local clock stamp, milliseconds. "The system clock time
    /// is useful for establishing the order of events on a particular
    /// machine" (§4.1) — *not* comparable across machines.
    pub cpu_time: u32,
    /// CPU time charged to the process, 10 ms granularity.
    pub proc_time: u32,
    /// The socket involved, when the event has one.
    pub sock: Option<u32>,
    /// The typed payload.
    pub kind: EventKind,
}

/// A parsed trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Events in log order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Parses a trace from the filter's log text, one line at a time:
    /// each line is tokenized once and typed from its borrowed tokens,
    /// with no intermediate record. Lines that are no record, and
    /// records that lack the fields needed to type them (heavily
    /// `#`-reduced logs), are skipped; analyses degrade gracefully
    /// rather than failing.
    pub fn parse(log_text: &str) -> Trace {
        let mut t = Trace::default();
        for line in log_text.lines() {
            if let Some(fields) = TextFields::of(line) {
                t.push(&fields);
            }
        }
        t
    }

    /// Appends one stored raw record to the trace, typing it exactly
    /// as [`Trace::from_frames`] would. Returns whether the record
    /// produced an event (records no description matches, or that lack
    /// the fields needed to type them, are skipped). This is the append
    /// primitive live consumers grow a trace with, one record at a
    /// time — a trace grown by `push_frame` in frame order is equal to
    /// the batch-built trace over the same frames.
    pub fn push_frame(&mut self, decoder: &FrameDecoder, raw: &[u8]) -> bool {
        decoder.fields(raw).is_some_and(|fields| self.push(&fields))
    }

    fn push(&mut self, r: &impl Fields) -> bool {
        let ev = typed_event(self.events.len(), r);
        let typed = ev.is_some();
        self.events.extend(ev);
        typed
    }

    /// Builds a trace straight from a binary log store, decoding each
    /// stored raw meter record with `desc` — no intermediate text log.
    /// Frames are consumed in arrival (sequence) order, so a
    /// store-backed filter and a text-backed filter over the same
    /// input yield the same trace.
    pub fn from_store(reader: &StoreReader, desc: &Descriptions) -> Trace {
        Trace::from_frames(reader.scan(), desc)
    }

    /// Builds a trace from a binary log store in *canonical* order:
    /// frames sorted by `(machine, pid, meter sequence, store
    /// sequence)` rather than arrival order. Two stores holding the
    /// same set of records — say, a flat filter's store and the root of
    /// a filter tree whose aggregates interleaved their children
    /// differently — yield byte-identical canonical traces.
    pub fn from_store_canonical(reader: &StoreReader, desc: &Descriptions) -> Trace {
        let mut frames: Vec<Frame<'_>> = reader.scan().collect();
        frames.sort_by_key(|f| {
            let meter_seq = dpm_filter::RecordView::new(f.raw).seq();
            (f.proc.machine, f.proc.pid, meter_seq, f.seq)
        });
        Trace::from_frames(frames, desc)
    }

    /// Builds a trace from an iterator of stored [`Frame`]s, in the
    /// iterator's order. Reduction (`#` discards) is deferred to read
    /// time by the store, so records are decoded in full; frames whose
    /// raw bytes no description matches are skipped, like unparseable
    /// text records.
    pub fn from_frames<'a, I>(frames: I, desc: &Descriptions) -> Trace
    where
        I: IntoIterator<Item = Frame<'a>>,
    {
        let decoder = FrameDecoder::new(desc);
        let mut t = Trace::default();
        for f in frames {
            t.push_frame(&decoder, f.raw);
        }
        t
    }

    /// The distinct processes, in first-appearance order.
    pub fn processes(&self) -> Vec<ProcKey> {
        let mut seen = HashSet::new();
        self.events
            .iter()
            .map(|e| e.proc)
            .filter(|p| seen.insert(*p))
            .collect()
    }

    /// The distinct machines, ascending.
    pub fn machines(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.events.iter().map(|e| e.proc.machine).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Events of one process, in log order.
    pub fn of_process(&self, p: ProcKey) -> Vec<&Event> {
        self.events.iter().filter(|e| e.proc == p).collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Declares [`Field`] — the fields typing reads — beside each one's
/// log name, so the two cannot drift.
macro_rules! fields {
    ($($variant:ident = $name:literal),* $(,)?) => {
        #[derive(Debug, Clone, Copy)]
        enum Field { $($variant),* }
        /// Log name of each [`Field`], indexed by discriminant.
        const FIELD_NAMES: [&str; [$($name),*].len()] = [$($name),*];
        impl Field {
            /// The field a log name names, if typing reads it.
            fn named(name: &str) -> Option<Field> {
                match name {
                    $($name => Some(Field::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

fields! {
    Machine = "machine", Pid = "pid", CpuTime = "cpuTime", ProcTime = "procTime",
    Sock = "sock", MsgLength = "msgLength", DestName = "destName", SourceName = "sourceName",
    NewSock = "newSock", NewPid = "newPid", Domain = "domain", Type = "type",
    TraceType = "traceType", Reason = "reason", SockName = "sockName", PeerName = "peerName",
}

/// Where [`typed_event`] gets a record's fields from: a tokenized text
/// line, or raw bytes under compiled offsets.
trait Fields {
    /// The event name (`send`, `accept`, …).
    fn event(&self) -> &str;
    /// A field's value as the integer its log text parses to.
    fn int(&self, field: Field) -> Option<u64>;
    /// A name field's display form; `None` when absent or `-`.
    fn name(&self, field: Field) -> Option<String>;
}

/// One §3.4 line, tokenized once: the event name and, per [`Field`],
/// the value typing reads — borrowed from the line unless escaped.
#[derive(Default)]
struct TextFields<'a> {
    /// The last `event=` token's value.
    event: Cow<'a, str>,
    /// The first token of each field's name; later duplicates and
    /// fields typing does not read are dropped.
    values: [Option<Cow<'a, str>>; FIELD_NAMES.len()],
}

impl<'a> TextFields<'a> {
    /// `None` when the line is no record (see [`LogRecord::tokens`]).
    fn of(line: &'a str) -> Option<TextFields<'a>> {
        let mut fields = TextFields::default();
        for token in LogRecord::tokens(line) {
            let (name, value) = token?;
            if name == "event" {
                fields.event = value;
            } else if let Some(field) = Field::named(&name) {
                fields.values[field as usize].get_or_insert(value);
            }
        }
        Some(fields)
    }

    fn get(&self, field: Field) -> Option<&str> {
        self.values[field as usize].as_deref()
    }
}

impl Fields for TextFields<'_> {
    fn event(&self) -> &str {
        &self.event
    }

    fn int(&self, field: Field) -> Option<u64> {
        self.get(field)?.parse().ok()
    }

    fn name(&self, field: Field) -> Option<String> {
        match self.get(field) {
            None | Some("-") => None,
            Some(v) => Some(v.to_owned()),
        }
    }
}

/// One described event type: its name and where each [`Field`] lives
/// in its records.
#[derive(Debug, Clone)]
struct EventSlots {
    trace_type: u32,
    name: String,
    slots: [FieldSlot; FIELD_NAMES.len()],
}

/// A [`Descriptions`] compiled for typing raw records: the field names
/// [`Trace`] needs are resolved to offsets once, here, so decoding a
/// stored frame reads a handful of integers in place and renders a
/// socket name only for the events that carry one — no intermediate
/// text record. The offsets come from the description, so a
/// user-written descriptions file decodes exactly as its rendered log
/// text would parse.
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    /// Sorted by trace type.
    events: Vec<EventSlots>,
}

impl FrameDecoder {
    /// Compiles `desc`.
    pub fn new(desc: &Descriptions) -> FrameDecoder {
        let events = desc
            .events()
            .into_iter()
            .map(|e| EventSlots {
                trace_type: e.trace_type,
                name: e.name.clone(),
                slots: FIELD_NAMES.map(|name| e.slot(name)),
            })
            .collect();
        FrameDecoder { events }
    }

    /// Whether a description matches `raw`'s trace type — `false` for
    /// the frames [`Trace::push_frame`] skips as undecodable (shorter
    /// than a header included).
    pub fn describes(&self, raw: &[u8]) -> bool {
        self.fields(raw).is_some()
    }

    fn fields<'a>(&'a self, raw: &'a [u8]) -> Option<RawFields<'a>> {
        let trace_type = Descriptions::record_type(raw)?;
        let at = self
            .events
            .binary_search_by_key(&trace_type, |e| e.trace_type)
            .ok()?;
        Some(RawFields {
            event: &self.events[at],
            raw,
        })
    }
}

/// A raw record bound to its event's compiled offsets.
struct RawFields<'a> {
    event: &'a EventSlots,
    raw: &'a [u8],
}

impl RawFields<'_> {
    fn read(&self, field: Field) -> Option<FieldRef<'_>> {
        self.event.slots[field as usize].read(self.raw)
    }
}

impl Fields for RawFields<'_> {
    fn event(&self) -> &str {
        &self.event.name
    }

    fn int(&self, field: Field) -> Option<u64> {
        match self.read(field)? {
            FieldRef::Int(v) => Some(v),
            // A byte field read as a number: whatever its text says.
            bytes => bytes.to_string().parse().ok(),
        }
    }

    fn name(&self, field: Field) -> Option<String> {
        let value = self.read(field).filter(|v| !v.is_blank())?;
        // Room for any 16-byte name's display form: one allocation.
        let mut name = String::with_capacity(32);
        write!(name, "{value}").expect("writing to a String cannot fail");
        Some(name)
    }
}

fn typed_event(idx: usize, r: &impl Fields) -> Option<Event> {
    use Field::*;
    let machine = r.int(Machine)? as u32;
    let pid = r.int(Pid)? as u32;
    let cpu_time = r.int(CpuTime).unwrap_or(0) as u32;
    let proc_time = r.int(ProcTime).unwrap_or(0) as u32;
    let sock = r.int(Sock).map(|v| v as u32);
    let kind = match r.event() {
        "send" => EventKind::Send {
            len: r.int(MsgLength)? as u32,
            dest: r.name(DestName),
        },
        "receivecall" => EventKind::RecvCall,
        "receive" => EventKind::Recv {
            len: r.int(MsgLength)? as u32,
            source: r.name(SourceName),
        },
        "socket" => EventKind::Socket {
            domain: r.int(Domain)? as u32,
            sock_type: r.int(Type).or_else(|| r.int(TraceType))? as u32,
        },
        "dup" => EventKind::Dup {
            new_sock: r.int(NewSock)? as u32,
        },
        "destsocket" => EventKind::DestSocket,
        "fork" => EventKind::Fork {
            child: r.int(NewPid)? as u32,
        },
        "accept" => EventKind::Accept {
            new_sock: r.int(NewSock)? as u32,
            sock_name: r.name(SockName),
            peer_name: r.name(PeerName),
        },
        "connect" => EventKind::Connect {
            sock_name: r.name(SockName),
            peer_name: r.name(PeerName),
        },
        "termproc" => EventKind::Term {
            reason: r.int(Reason).unwrap_or(0) as u32,
        },
        _ => return None,
    };
    Some(Event {
        idx,
        proc: ProcKey { machine, pid },
        cpu_time,
        proc_time,
        sock,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
event=socket machine=0 cpuTime=10 procTime=0 traceType=4 pid=100 pc=1 sock=1 domain=2 type=2 protocol=0
event=send machine=0 cpuTime=20 procTime=0 traceType=1 pid=100 pc=2 sock=1 msgLength=64 destName=inet:1:53
event=receivecall machine=1 cpuTime=5 procTime=0 traceType=2 pid=200 pc=1 sock=9
event=receive machine=1 cpuTime=30 procTime=10 traceType=3 pid=200 pc=1 sock=9 msgLength=64 sourceName=inet:0:1024
event=termproc machine=0 cpuTime=40 procTime=10 traceType=10 pid=100 pc=3 reason=0
";

    #[test]
    fn parses_typed_events() {
        let t = Trace::parse(LOG);
        assert_eq!(t.len(), 5);
        assert_eq!(
            t.events[1].kind,
            EventKind::Send {
                len: 64,
                dest: Some("inet:1:53".into())
            }
        );
        assert_eq!(
            t.events[3].proc,
            ProcKey {
                machine: 1,
                pid: 200
            }
        );
        assert_eq!(t.events[4].kind, EventKind::Term { reason: 0 });
    }

    #[test]
    fn processes_and_machines() {
        let t = Trace::parse(LOG);
        assert_eq!(
            t.processes(),
            vec![
                ProcKey {
                    machine: 0,
                    pid: 100
                },
                ProcKey {
                    machine: 1,
                    pid: 200
                }
            ]
        );
        assert_eq!(t.machines(), vec![0, 1]);
        assert_eq!(
            t.of_process(ProcKey {
                machine: 0,
                pid: 100
            })
            .len(),
            3
        );
    }

    #[test]
    fn dash_names_are_none() {
        let t = Trace::parse(
            "event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=5 destName=-\n",
        );
        assert_eq!(t.events[0].kind, EventKind::Send { len: 5, dest: None });
    }

    #[test]
    fn unparseable_records_are_skipped() {
        let t = Trace::parse("event=send machine=0 pid=1\nevent=weird machine=0 pid=1\n");
        assert!(t.is_empty());
    }

    #[test]
    fn store_backed_trace_matches_text_backed_trace() {
        use dpm_logstore::{LogStore, MemBackend, StoreConfig};
        use dpm_meter::{
            MeterBody, MeterFork, MeterHeader, MeterMsg, MeterSendMsg, MeterTermProc, SockName,
            TermReason,
        };
        use std::sync::Arc;

        let msg = |machine: u16, cpu: u32, body: MeterBody| {
            MeterMsg {
                header: MeterHeader {
                    size: 0,
                    machine,
                    cpu_time: cpu,
                    seq: 0,
                    proc_time: 0,
                    trace_type: body.trace_type(),
                },
                body,
            }
            .encode()
        };
        let raws: Vec<Vec<u8>> = vec![
            msg(
                0,
                10,
                MeterBody::Send(MeterSendMsg {
                    pid: 100,
                    pc: 1,
                    sock: 3,
                    msg_length: 64,
                    dest_name: Some(SockName::inet(1, 53)),
                }),
            ),
            msg(
                1,
                20,
                MeterBody::Fork(MeterFork {
                    pid: 200,
                    pc: 2,
                    new_pid: 201,
                }),
            ),
            msg(
                0,
                30,
                MeterBody::TermProc(MeterTermProc {
                    pid: 100,
                    pc: 3,
                    reason: TermReason::Normal,
                }),
            ),
        ];
        let desc = Descriptions::standard();

        // Text path: render each record to a log line, then parse.
        let mut text = String::new();
        for raw in &raws {
            let rec = LogRecord::from_raw(&desc, raw, &[]).expect("decode");
            text.push_str(&rec.to_string());
            text.push('\n');
        }
        let from_text = Trace::parse(&text);

        // Store path: append the same raw records, read back, decode.
        let store = LogStore::open(Arc::new(MemBackend::new()), "/log", StoreConfig::default());
        let mut w = store.writer(0);
        for raw in &raws {
            w.append(raw);
        }
        w.flush();
        let reader = store.reader();
        let from_store = Trace::from_store(&reader, &desc);

        assert_eq!(from_store.len(), 3);
        assert_eq!(from_store, from_text);
    }
}
