//! Property-based tests for the analyses: happens-before is a strict
//! partial order, vector clocks agree with reachability, pairing never
//! invents bytes, the one-pass text parser, the indexed message matcher
//! and the compact happens-before agree with the versions they
//! replaced, and everything survives arbitrary log text.

use dpm_analysis::{
    host_of, Analysis, Connection, Event, EventKind, HappensBefore, MatchedMessage, Pairing,
    ProcKey, Trace,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// One record of the reference parser: owned strings, fields in line
/// order.
#[derive(Debug, Default)]
struct RefRecord {
    event: String,
    fields: Vec<(String, String)>,
}

/// The escape reversal of the text format, verbatim.
fn ref_unescape(s: &str) -> Cow<'_, str> {
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

impl RefRecord {
    /// Looks up a field's display value: the first of that name.
    fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_int(&self, name: &str) -> Option<u64> {
        self.get(name)?.parse().ok()
    }

    fn name(&self, name: &str) -> Option<String> {
        match self.get(name) {
            None | Some("-") => None,
            Some(v) => Some(v.to_owned()),
        }
    }

    /// Parses one log line; `None` for lines that are not records.
    fn parse(line: &str) -> Option<RefRecord> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut event = String::new();
        let mut fields = Vec::new();
        for token in line.split_whitespace() {
            let (name, value) = token.split_once('=')?;
            if name == "event" {
                event = ref_unescape(value).into_owned();
            } else {
                fields.push((
                    ref_unescape(name).into_owned(),
                    ref_unescape(value).into_owned(),
                ));
            }
        }
        if event.is_empty() {
            return None;
        }
        Some(RefRecord { event, fields })
    }
}

/// Text parsing as it stood before `Trace::parse` typed each line from
/// borrowed tokens: the whole log parsed into owned records first, then
/// each record typed by looking its fields up by name. Allocates some
/// twenty strings a line by design — it is the oracle, not the product.
fn reference_parse(log_text: &str) -> Trace {
    let records: Vec<RefRecord> = log_text.lines().filter_map(RefRecord::parse).collect();
    let mut t = Trace::default();
    for r in &records {
        let ev = ref_typed_event(t.events.len(), r);
        t.events.extend(ev);
    }
    t
}

fn ref_typed_event(idx: usize, r: &RefRecord) -> Option<Event> {
    let machine = r.get_int("machine")? as u32;
    let pid = r.get_int("pid")? as u32;
    let cpu_time = r.get_int("cpuTime").unwrap_or(0) as u32;
    let proc_time = r.get_int("procTime").unwrap_or(0) as u32;
    let sock = r.get_int("sock").map(|v| v as u32);
    let kind = match r.event.as_str() {
        "send" => EventKind::Send {
            len: r.get_int("msgLength")? as u32,
            dest: r.name("destName"),
        },
        "receivecall" => EventKind::RecvCall,
        "receive" => EventKind::Recv {
            len: r.get_int("msgLength")? as u32,
            source: r.name("sourceName"),
        },
        "socket" => EventKind::Socket {
            domain: r.get_int("domain")? as u32,
            sock_type: r.get_int("type").or_else(|| r.get_int("traceType"))? as u32,
        },
        "dup" => EventKind::Dup {
            new_sock: r.get_int("newSock")? as u32,
        },
        "destsocket" => EventKind::DestSocket,
        "fork" => EventKind::Fork {
            child: r.get_int("newPid")? as u32,
        },
        "accept" => EventKind::Accept {
            new_sock: r.get_int("newSock")? as u32,
            sock_name: r.name("sockName"),
            peer_name: r.name("peerName"),
        },
        "connect" => EventKind::Connect {
            sock_name: r.name("sockName"),
            peer_name: r.name("peerName"),
        },
        "termproc" => EventKind::Term {
            reason: r.get_int("reason").unwrap_or(0) as u32,
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

/// Names the generated lines use: every field typing reads, two it
/// does not, and escaped spellings — one of them of `event`.
const NAMES: [&str; 22] = [
    "machine",
    "pid",
    "cpuTime",
    "procTime",
    "sock",
    "msgLength",
    "destName",
    "sourceName",
    "newSock",
    "newPid",
    "domain",
    "type",
    "traceType",
    "reason",
    "sockName",
    "peerName",
    "pc",
    "protocol",
    "pi\\sd",
    "ev\\ent",
    "\\\\pid",
    "pid\\",
];
/// Values: numbers, names, `-`, escapes, and integers that are not.
const VALUES: [&str; 20] = [
    "0",
    "1",
    "7",
    "64",
    "2125",
    "4294967297",
    "99999999999999999999",
    "+5",
    "12a",
    "x",
    "",
    "\u{663}",
    "-",
    "inet:1:53",
    "inet:0:1024",
    "unix:/tmp/a\\sb\\ec",
    "\\q",
    "trailing\\",
    "a\\\\b",
    "\\e",
];
/// `event=` values: every known event, unknown ones, escaped ones.
const EVENTS: [&str; 14] = [
    "send",
    "receive",
    "receivecall",
    "socket",
    "dup",
    "destsocket",
    "fork",
    "accept",
    "connect",
    "termproc",
    "bogus",
    "",
    "se\\nd",
    "s\\end",
];
/// What goes before a line, between its tokens and after it.
const LEADS: [&str; 6] = ["", " ", "\u{3000}", "#", "# ", "\t#"];
const SEPS: [&str; 8] = [
    " ", "  ", "\t", "\u{b}", "\u{c}", "\u{85}", "\u{2003}", "\u{a0}",
];
const ENDS: [&str; 3] = ["\n", "\r\n", " \n"];

fn pick(pool: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => (pick(&NAMES), pick(&VALUES)).prop_map(|(n, v)| format!("{n}={v}")),
        2 => pick(&EVENTS).prop_map(|e| format!("event={e}")),
        1 => pick(&NAMES).prop_map(str::to_owned), // no `=`: drops the line
    ]
}

/// Generates hostile §3.4 logs: escaped names and values, duplicate
/// fields and repeated `event=`, tokens without `=`, `#` lines, CRLF
/// and Unicode whitespace, integers that do not parse, `-` names and
/// unknown events. Three lines in four carry a well-formed core —
/// a known event, machine and pid — somewhere among their tokens, so
/// many lines type and the duplicates race against real values.
fn arb_hostile_log() -> impl Strategy<Value = String> {
    let core = (
        0usize..10,
        0u32..3,
        1u32..4,
        0usize..10,
        0u32..4,
        pick(&VALUES),
    );
    let line = (
        (0usize..12).prop_map(|i| LEADS.get(i).copied().unwrap_or("")),
        proptest::collection::vec(arb_token(), 0..8),
        core,
        pick(&SEPS),
        pick(&ENDS),
    );
    proptest::collection::vec(line, 0..30).prop_map(|lines| {
        let mut log = String::new();
        for (lead, mut tokens, (event, machine, pid, at, shape, name), sep, end) in lines {
            if shape > 0 {
                let core = format!(
                    "event={} machine={machine} pid={pid} msgLength=9 domain=2 newSock=4 \
                     newPid=8 destName={name} sourceName={name} sockName=- peerName={name}",
                    EVENTS[event]
                );
                tokens.insert(at.min(tokens.len()), core.replace(' ', sep));
            }
            log.push_str(lead);
            log.push_str(&tokens.join(sep));
            log.push_str(end);
        }
        log
    })
}

/// Hand-written lines the generated property must also get right, one
/// per rule of the text grammar.
#[test]
fn one_pass_parse_agrees_with_the_reference_on_the_rules() {
    let log = "\
event=send machine=1 pid=2 msgLength=3 destName=unix:/tmp/a\\sb\\ec
event=send machine=1 machine=2 pid=2 pid=3 msgLength=x msgLength=4
event=send machine=1 machine=2 pid=2 pid=3 msgLength=4 msgLength=x destName=inet:1:53 destName=-
event=receive event=send machine=1 pid=2 msgLength=5 destName=-
event=send machine=1 pid=2 msgLength=6 stray
event=fork machine=1 pid=2 newPid=7 ev\\ent=dup event=
event=fork machine=1 pid=2 newPid=7 pi\\sd=8\r
\u{3000}event=socket\u{2003}machine=1 pid=2 domain=2 traceType=4\u{a0}
 # event=termproc machine=1 pid=2
event=termproc machine=1 pid=2 reason=\\q
event=se\\nd machine=1 pid=2 msgLength=1
";
    let got = Trace::parse(log);
    assert_eq!(got, reference_parse(log));
    let kinds: Vec<&str> = got.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        ["send", "send", "send", "fork", "socket", "termproc"]
    );
    // First of each field wins, even when it does not parse; the last
    // `event=` wins.
    assert_eq!(got.events[1].proc, ProcKey { machine: 1, pid: 2 });
    assert_eq!(got.events[2].kind, EventKind::Send { len: 5, dest: None });
    assert_eq!(
        got.events[1].kind,
        EventKind::Send {
            len: 4,
            dest: Some("inet:1:53".into())
        }
    );
}

/// Generates a plausible two-machine datagram conversation: machine 0
/// sends, machine 1 receives a prefix of them (models loss).
fn arb_conversation() -> impl Strategy<Value = String> {
    (1usize..15, 0usize..15, 0u32..1000).prop_map(|(sends, recvs_requested, base)| {
        let recvs = recvs_requested.min(sends);
        let mut s = String::new();
        for i in 0..sends {
            s.push_str(&format!(
                "event=send machine=0 cpuTime={} procTime=0 traceType=1 pid=1 pc={i} sock=3 msgLength=10 destName=inet:1:53\n",
                base + i as u32
            ));
        }
        for i in 0..recvs {
            s.push_str(&format!(
                "event=receive machine=1 cpuTime={} procTime=0 traceType=3 pid=2 pc={i} sock=7 msgLength=10 sourceName=inet:0:1024\n",
                base + 100 + i as u32
            ));
        }
        s
    })
}

/// A send line from `src`, addressed to `dst`, `len` bytes.
fn send_line(src: u32, dst: u32, len: u32, cpu: u32) -> String {
    format!(
        "event=send machine={src} cpuTime={cpu} procTime=0 traceType=1 pid={} pc=0 sock=3 msgLength={len} destName=inet:{dst}:53\n",
        10 + src
    )
}

/// The matching receive line on `dst` for a message from `src`.
fn recv_line(src: u32, dst: u32, len: u32, cpu: u32) -> String {
    format!(
        "event=receive machine={dst} cpuTime={cpu} procTime=0 traceType=3 pid={} pc=0 sock=7 msgLength={len} sourceName=inet:{src}:1024\n",
        10 + dst
    )
}

/// Generates a randomized *paired* multi-process trace: messages
/// between three machines with pairwise-distinct lengths (the regime
/// the exact-length datagram matcher is sound in), each delivered or
/// lost per the generated plan, receives interleaved arbitrarily far
/// after their sends. Returns `(log, delivered, lost)`.
fn arb_paired_trace() -> impl Strategy<Value = (String, usize, usize)> {
    let msg = (0u32..3, 1u32..3, any::<bool>(), 0usize..4);
    proptest::collection::vec(msg, 1..25).prop_map(|plan| {
        let mut log = String::new();
        let mut cpu = [0u32; 3];
        let mut pending: Vec<(u32, u32, u32)> = Vec::new();
        let (mut delivered, mut lost) = (0usize, 0usize);
        for (k, (src, dstoff, deliver, flush)) in plan.iter().enumerate() {
            let (src, dst) = (*src, (*src + *dstoff) % 3);
            let len = 20 + k as u32; // unique per message
            cpu[src as usize] += 10;
            log.push_str(&send_line(src, dst, len, cpu[src as usize]));
            if *deliver {
                pending.push((src, dst, len));
                delivered += 1;
            } else {
                lost += 1;
            }
            // Deliver a generated number of queued messages, oldest
            // first — receives trail their sends by arbitrary spans.
            for _ in 0..*flush {
                if pending.is_empty() {
                    break;
                }
                let (s, d, l) = pending.remove(0);
                cpu[d as usize] += 10;
                log.push_str(&recv_line(s, d, l, cpu[d as usize]));
            }
        }
        for (s, d, l) in pending {
            cpu[d as usize] += 10;
            log.push_str(&recv_line(s, d, l, cpu[d as usize]));
        }
        (log, delivered, lost)
    })
}

/// One queued message endpoint record of the reference matcher.
#[derive(Debug, Clone, Copy)]
struct QueuedMsg {
    idx: usize,
    proc: ProcKey,
    len: u32,
}

/// The reference matcher's pass-1 queues, filled as `PairQueues::add`
/// fills its own.
#[derive(Default)]
struct RefQueues {
    stream_sends: HashMap<(ProcKey, u32), Vec<QueuedMsg>>,
    stream_recvs: HashMap<(ProcKey, u32), Vec<QueuedMsg>>,
    dgram_sends: HashMap<(ProcKey, String), Vec<QueuedMsg>>,
    dgram_recvs: HashMap<(ProcKey, String), Vec<QueuedMsg>>,
    all_sends: Vec<usize>,
}

impl RefQueues {
    fn of(trace: &Trace) -> RefQueues {
        let mut q = RefQueues::default();
        for ev in &trace.events {
            let (len, name, named, socks) = match &ev.kind {
                EventKind::Send { len, dest } => {
                    q.all_sends.push(ev.idx);
                    (*len, dest, &mut q.dgram_sends, &mut q.stream_sends)
                }
                EventKind::Recv { len, source } => {
                    (*len, source, &mut q.dgram_recvs, &mut q.stream_recvs)
                }
                _ => continue,
            };
            let queue = match (name, ev.sock) {
                (Some(name), _) => named.entry((ev.proc, name.clone())).or_default(),
                (None, Some(sock)) => socks.entry((ev.proc, sock)).or_default(),
                (None, None) => continue,
            };
            queue.push(QueuedMsg {
                idx: ev.idx,
                proc: ev.proc,
                len,
            });
        }
        q
    }
}

/// The message matcher as it stood before datagram matching was
/// indexed, verbatim: pass 2b scans a receive group's whole candidate
/// pool from the start for every receive. Quadratic by design — it is
/// the oracle, not the product.
fn reference_match(
    queues: &RefQueues,
    connections: &[Connection],
) -> (Vec<MatchedMessage>, Vec<usize>, Vec<usize>) {
    // Stream endpoints pair through the recovered connections.
    let mut peer_of: HashMap<(ProcKey, u32), (ProcKey, u32)> = HashMap::new();
    for c in connections {
        peer_of.insert(c.client, c.server);
        peer_of.insert(c.server, c.client);
    }

    let mut matches: Vec<MatchedMessage> = Vec::new();
    let mut matched: HashSet<usize> = HashSet::new();

    // Pass 2a: streams — merge the sender queue into the paired
    // receiver queue, splitting bytes across read boundaries. The
    // byte-consumption state lives in local copies so the queues stay
    // immutable (and reusable for the next incremental call).
    let mut send_left: HashMap<(ProcKey, u32), Vec<(QueuedMsg, u32)>> = queues
        .stream_sends
        .iter()
        .map(|(k, v)| (*k, v.iter().map(|s| (*s, s.len)).collect()))
        .collect();
    let mut recv_endpoints: Vec<(ProcKey, u32)> = queues.stream_recvs.keys().copied().collect();
    recv_endpoints.sort();
    for rx_ep in recv_endpoints {
        let Some(&tx_ep) = peer_of.get(&rx_ep) else {
            continue;
        };
        let Some(sends) = send_left.get_mut(&tx_ep) else {
            continue;
        };
        let recvs = &queues.stream_recvs[&rx_ep];
        let mut si = 0;
        for r in recvs {
            let mut r_remaining = r.len;
            while r_remaining > 0 && si < sends.len() {
                let (s, s_remaining) = &mut sends[si];
                let take = (*s_remaining).min(r_remaining);
                if take > 0 {
                    matches.push(MatchedMessage {
                        send_idx: s.idx,
                        recv_idx: r.idx,
                        from: s.proc,
                        to: r.proc,
                        bytes: take,
                    });
                    matched.insert(s.idx);
                    *s_remaining -= take;
                    r_remaining -= take;
                }
                if *s_remaining == 0 {
                    si += 1;
                }
            }
        }
    }

    // Pass 2b: datagrams — each receive consumes exactly one send,
    // and a datagram is delivered whole: a receive of `k` bytes can
    // only have been caused by a send of `k` bytes. A receive group
    // (receiver, source-name) draws candidate sends from send groups
    // whose sender lives on the source name's machine and whose
    // destination names the receiver's machine; within the candidate
    // pool each receive takes the earliest unmatched send of *exactly
    // its length*. Length-aware matching is what keeps the deduced
    // order sound under duplication: a duplicated delivery finds its
    // one send already matched and is reported in `unmatched_recvs`
    // instead of stealing a later (possibly future) send — as long as
    // concurrently-in-flight payloads on one channel have distinct
    // lengths, no receive is ever paired with a send that did not
    // really precede it. (The beacon convention in
    // `crate::properties` is built on exactly this guarantee.)
    let mut unmatched_recvs: Vec<usize> = Vec::new();
    let mut recv_groups: Vec<(ProcKey, String)> = queues.dgram_recvs.keys().cloned().collect();
    recv_groups.sort();
    for key in recv_groups {
        let (rx_proc, src_name) = &key;
        let src_host = host_of(src_name);
        let mut candidates: Vec<(ProcKey, String)> = queues
            .dgram_sends
            .keys()
            .filter(|(tx_proc, dest)| {
                (src_host.is_none() || Some(tx_proc.machine) == src_host)
                    && host_of(dest).is_none_or(|h| h == rx_proc.machine)
            })
            .cloned()
            .collect();
        candidates.sort();
        // One pooled sender-order list: within a process, trace order
        // is send order; across candidate groups order is arbitrary
        // anyway (distinct sockets), so trace order is as good as any.
        let mut pool: Vec<&QueuedMsg> = candidates
            .iter()
            .flat_map(|cand| queues.dgram_sends[cand].iter())
            .collect();
        pool.sort_by_key(|s| s.idx);
        let recvs = &queues.dgram_recvs[&key];
        for r in recvs {
            let hit = pool
                .iter()
                .find(|s| !matched.contains(&s.idx) && s.len == r.len);
            match hit {
                Some(s) => {
                    matches.push(MatchedMessage {
                        send_idx: s.idx,
                        recv_idx: r.idx,
                        from: s.proc,
                        to: r.proc,
                        bytes: r.len,
                    });
                    matched.insert(s.idx);
                }
                None => unmatched_recvs.push(r.idx),
            }
        }
    }

    matches.sort_by_key(|m| (m.recv_idx, m.send_idx));
    let mut unmatched: Vec<usize> = queues
        .all_sends
        .iter()
        .copied()
        .filter(|i| !matched.contains(i))
        .collect();
    unmatched.sort_unstable();
    unmatched_recvs.sort_unstable();
    (matches, unmatched, unmatched_recvs)
}

/// One step of a mixed trace.
#[derive(Debug, Clone)]
enum Op {
    /// A datagram from a process on `src` to one on `dst`.
    Dgram {
        src: u32,
        dst: u32,
        /// Which of the machine's two processes sends / receives.
        pids: (bool, bool),
        len: u32,
        /// 0, 1: two ports on the destination host; 2: a name with no
        /// parsable host, so the send is a candidate for every machine.
        dest_name: u32,
        /// Same three choices for the name the receiver sees.
        source_name: u32,
        /// 0 = lost, 1 = delivered, 2 = delivered twice.
        deliveries: usize,
        /// Log the (first) receive *before* the send.
        early: bool,
        /// Queued deliveries to log after this step.
        flush: usize,
    },
    /// Bytes over one of the two stream connections: a write on the
    /// client and (when non-zero) a read on the server.
    Stream { conn: usize, wrote: u32, read: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let dgram = (
        (0u32..3, 0u32..3, any::<bool>(), any::<bool>()),
        // Three lengths only: equal lengths are routinely in flight
        // together on one channel.
        (
            0usize..3,
            0u32..3,
            0u32..3,
            0usize..3,
            any::<bool>(),
            0usize..4,
        ),
    )
        .prop_map(
            |((src, dst, p, q), (len, dest_name, source_name, deliveries, early, flush))| {
                Op::Dgram {
                    src,
                    dst,
                    pids: (p, q),
                    len: [10, 20, 33][len],
                    dest_name,
                    source_name,
                    deliveries,
                    early,
                    flush,
                }
            },
        );
    let stream = (0usize..2, 1u32..200, 0u32..300).prop_map(|(conn, wrote, read)| Op::Stream {
        conn,
        wrote,
        read,
    });
    prop_oneof![3 => dgram, 1 => stream]
}

/// Generates a trace mixing stream and datagram traffic among six
/// processes on three machines, with everything the datagram matcher
/// has to get right: lost sends, duplicated deliveries, equal lengths
/// concurrently in flight, receives logged before their sends, names
/// without a parsable host (their pools overlap across groups), and
/// send groups reachable from several receive groups (two receiving
/// processes per machine, several source names per sender).
fn arb_mixed_trace() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_op(), 1..60).prop_map(|ops| {
        let pid = |machine: u32, second: bool| if second { 20 } else { 10 } + machine;
        let mut log = String::new();
        // Two stream connections, both into machine 1.
        let conns = [(0u32, 5u32, 9u32, 2000u32), (2, 6, 10, 2001)];
        for (client, c_sock, s_sock, port) in conns {
            log.push_str(&format!(
                "event=connect machine={client} cpuTime=1 procTime=0 traceType=9 pid={} pc=0 sock={c_sock} sockName=inet:{client}:{port} peerName=inet:1:80\n",
                pid(client, false)
            ));
            log.push_str(&format!(
                "event=accept machine=1 cpuTime=1 procTime=0 traceType=8 pid=11 pc=0 sock=4 newSock={s_sock} sockName=inet:1:80 peerName=inet:{client}:{port}\n"
            ));
        }
        let mut pending: Vec<String> = Vec::new();
        for op in ops {
            match op {
                Op::Stream { conn, wrote, read } => {
                    let (client, c_sock, s_sock, _) = conns[conn];
                    log.push_str(&format!(
                        "event=send machine={client} cpuTime=2 procTime=0 traceType=1 pid={} pc=0 sock={c_sock} msgLength={wrote} destName=-\n",
                        pid(client, false)
                    ));
                    if read > 0 {
                        log.push_str(&format!(
                            "event=receive machine=1 cpuTime=2 procTime=0 traceType=3 pid=11 pc=0 sock={s_sock} msgLength={read} sourceName=-\n"
                        ));
                    }
                }
                Op::Dgram {
                    src,
                    dst,
                    pids,
                    len,
                    dest_name,
                    source_name,
                    deliveries,
                    early,
                    flush,
                } => {
                    let name = |host: u32, choice: u32, port: u32| match choice {
                        2 => format!("unix:/tmp/sock{port}"),
                        c => format!("inet:{host}:{}", port + c),
                    };
                    let send = format!(
                        "event=send machine={src} cpuTime=3 procTime=0 traceType=1 pid={} pc=0 sock=3 msgLength={len} destName={}\n",
                        pid(src, pids.0),
                        name(dst, dest_name, 53)
                    );
                    let recv = format!(
                        "event=receive machine={dst} cpuTime=3 procTime=0 traceType=3 pid={} pc=0 sock=7 msgLength={len} sourceName={}\n",
                        pid(dst, pids.1),
                        name(src, source_name, 1024)
                    );
                    let mut copies = vec![recv; deliveries];
                    if early {
                        log.extend(copies.pop());
                    }
                    log.push_str(&send);
                    pending.extend(copies);
                    let due = flush.min(pending.len());
                    log.extend(pending.drain(..due));
                }
            }
        }
        log.extend(pending);
        log
    })
}

/// `Pairing::analyze` against [`reference_match`] over the same trace
/// and connections: messages and both unmatched lists, in order.
fn assert_matches_reference(log: &str) -> Pairing {
    let trace = Trace::parse(log);
    assert_eq!(trace.len(), log.lines().count(), "every line types");
    let got = Pairing::analyze(&trace);
    let (messages, unmatched_sends, unmatched_recvs) =
        reference_match(&RefQueues::of(&trace), &got.connections);
    assert_eq!(got.messages, messages);
    assert_eq!(got.unmatched_sends, unmatched_sends);
    assert_eq!(got.unmatched_recvs, unmatched_recvs);
    got
}

/// The cases the indexed matcher must not get wrong, one each, with
/// the outcome spelled out — so the generated property below is known
/// not to hold vacuously.
#[test]
fn indexed_matcher_agrees_with_the_reference_on_the_hard_cases() {
    let send = |m: u32, pid: u32, len: u32, dest: &str| {
        format!("event=send machine={m} cpuTime=1 procTime=0 traceType=1 pid={pid} pc=0 sock=3 msgLength={len} destName={dest}\n")
    };
    let recv = |m: u32, pid: u32, len: u32, source: &str| {
        format!("event=receive machine={m} cpuTime=1 procTime=0 traceType=3 pid={pid} pc=0 sock=7 msgLength={len} sourceName={source}\n")
    };
    let log = [
        // 0-2: equal lengths in flight on one channel; the middle one
        // is lost, the first is delivered twice.
        send(0, 10, 10, "inet:1:53"),
        send(0, 10, 10, "inet:1:53"),
        send(0, 10, 10, "inet:1:53"),
        recv(1, 11, 10, "inet:0:1024"), // 3 <- 0
        recv(1, 11, 10, "inet:0:1024"), // 4 <- 1 (the duplicate steals it)
        // 5: a second receive group (another process on machine 1)
        // reaches the same send group and takes what is left.
        recv(1, 21, 10, "inet:0:1024"), // 5 <- 2
        recv(1, 21, 10, "inet:0:1024"), // 6: nothing left
        // 7-9: a destination with no parsable host is a candidate for
        // receivers on every machine; the groups are visited in sorted
        // order, so machine 1's receive gets there first.
        send(0, 10, 20, "unix:/tmp/any"),
        recv(2, 12, 20, "inet:0:1024"), // 8: unmatched
        recv(1, 11, 20, "inet:0:1025"), // 9 <- 7
        // 10-11: a source with no parsable host draws on senders of
        // every machine, logged before the send it pairs with.
        recv(2, 12, 33, "unix:/tmp/from"), // 10 <- 11
        send(1, 11, 33, "inet:2:53"),
    ]
    .concat();
    let p = assert_matches_reference(&log);
    let pairs: Vec<(usize, usize)> = p
        .messages
        .iter()
        .map(|m| (m.send_idx, m.recv_idx))
        .collect();
    assert_eq!(pairs, [(0, 3), (1, 4), (2, 5), (7, 9), (11, 10)]);
    assert!(p.unmatched_sends.is_empty());
    assert_eq!(p.unmatched_recvs, [6, 8]);
}

/// Happens-before as it stood before clock rows were stored only at
/// receives: a successor `Vec` and a full vector-clock row per event,
/// `precedes` a componentwise comparison of two rows. Quadratic in
/// memory by design — it is the oracle, not the product.
struct RefHb {
    succs: Vec<Vec<usize>>,
    lamport: Vec<u64>,
    vclock: Vec<Vec<u64>>,
    has_cycle: bool,
}

fn reference_hb(trace: &Trace, pairing: &Pairing) -> RefHb {
    let n = trace.events.len();
    let mut succs = vec![Vec::new(); n];
    let mut last_of: HashMap<ProcKey, usize> = HashMap::new();
    for (i, e) in trace.events.iter().enumerate() {
        if let Some(&prev) = last_of.get(&e.proc) {
            succs[prev].push(i);
        }
        last_of.insert(e.proc, i);
    }
    for m in &pairing.messages {
        if m.send_idx < n && m.recv_idx < n {
            succs[m.send_idx].push(m.recv_idx);
        }
    }
    let procs = trace.processes();
    let proc_index: HashMap<ProcKey, usize> =
        procs.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let mut indeg = vec![0usize; n];
    for ss in &succs {
        for &s in ss {
            indeg[s] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut lamport = vec![0u64; n];
    let mut vclock = vec![vec![0u64; procs.len()]; n];
    let mut seen = 0;
    while let Some(i) = queue.pop() {
        seen += 1;
        vclock[i][proc_index[&trace.events[i].proc]] += 1;
        for &s in &succs[i] {
            lamport[s] = lamport[s].max(lamport[i] + 1);
            let vi = vclock[i].clone();
            for (bv, av) in vclock[s].iter_mut().zip(vi) {
                *bv = (*bv).max(av);
            }
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    // Events a cycle blocks never leave the queue: their clocks keep
    // what reached predecessors merged into them, without a tick of
    // their own.
    RefHb {
        succs,
        lamport,
        vclock,
        has_cycle: seen != n,
    }
}

impl RefHb {
    fn precedes(&self, a: usize, b: usize) -> bool {
        let (Some(va), Some(vb)) = (self.vclock.get(a), self.vclock.get(b)) else {
            return false;
        };
        a != b && va.iter().zip(vb).all(|(x, y)| x <= y) && va != vb
    }
}

/// `HappensBefore::build` against [`reference_hb`] over the same trace
/// and pairing: every clock, successor list and ordered pair, and one
/// index past the end. Returns whether the edges had a cycle.
fn assert_hb_matches_reference(trace: &Trace, pairing: &Pairing) -> bool {
    let got = HappensBefore::build(trace, pairing);
    let want = reference_hb(trace, pairing);
    let n = trace.len();
    assert_eq!(got.has_cycle(), want.has_cycle);
    for i in 0..=n {
        assert_eq!(got.vector(i).as_ref(), want.vclock.get(i), "vector {i}");
        assert_eq!(got.lamport(i), want.lamport.get(i).copied().unwrap_or(0));
        let succs = want.succs.get(i).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(got.successors(i), succs, "successors {i}");
        for b in 0..=n {
            assert_eq!(got.precedes(i, b), want.precedes(i, b), "precedes {i} {b}");
        }
    }
    want.has_cycle
}

/// Wrong matchings, made by hand: the clocks of the events a cycle
/// blocks, and of everything after them, must agree with the oracle.
#[test]
fn happens_before_agrees_with_the_reference_on_cycles() {
    let pk = |machine, pid| ProcKey { machine, pid };
    let msg = |send_idx, recv_idx, from, to| MatchedMessage {
        send_idx,
        recv_idx,
        from,
        to,
        bytes: 9,
    };
    let (a, b, c, d) = (pk(0, 10), pk(1, 11), pk(2, 12), pk(0, 20));
    // Two sends that each "receive" the other: nothing is reached.
    let log = [send_line(0, 1, 9, 1), send_line(1, 0, 9, 1)].concat();
    let trace = Trace::parse(&log);
    let pairing = Pairing {
        messages: vec![msg(0, 1, a, b), msg(1, 0, b, a)],
        ..Pairing::default()
    };
    assert!(assert_hb_matches_reference(&trace, &pairing));

    // a0 → b0 is sound; b1 ⇄ c0 is not, so b1, c0 and c1 are blocked
    // while b1 has a reached predecessor; d's events stay reached.
    // b1's clock is b0's: a0 precedes it, b0 does not, and the zeroed
    // c0 and c1 precede every nonzero clock.
    let log = [
        send_line(0, 1, 9, 1), // 0: a0
        recv_line(0, 1, 9, 2), // 1: b0
        send_line(1, 2, 8, 3), // 2: b1
        send_line(2, 1, 7, 4), // 3: c0
        send_line(2, 1, 6, 5), // 4: c1
        "event=socket machine=0 cpuTime=6 procTime=0 traceType=4 pid=20 pc=0 sock=1 domain=2 type=2 protocol=0\n".to_string(), // 5: d0
    ]
    .concat();
    let trace = Trace::parse(&log);
    assert_eq!(trace.events[5].proc, d);
    let pairing = Pairing {
        messages: vec![msg(0, 1, a, b), msg(2, 3, b, c), msg(3, 2, c, b)],
        ..Pairing::default()
    };
    assert!(assert_hb_matches_reference(&trace, &pairing));
    let hb = HappensBefore::build(&trace, &pairing);
    assert!(hb.precedes(0, 2) && !hb.precedes(1, 2) && !hb.precedes(2, 0));
    assert!(hb.precedes(3, 2) && hb.precedes(4, 5) && !hb.precedes(2, 3));
}

/// Two events with no message path between them must stay unordered,
/// and one exchange must order everything across it — the concurrency
/// regression pinned by hand.
#[test]
fn concurrent_events_stay_unordered_across_one_exchange() {
    let mut log = String::new();
    log.push_str(&send_line(0, 1, 10, 1)); // 0: the exchanged message
    log.push_str(&send_line(1, 2, 5, 1)); //  1: m1 beacon, pre-receive
    log.push_str(&recv_line(0, 1, 10, 2)); // 2: m1 receives the message
    log.push_str(&send_line(0, 2, 6, 2)); //  3: m0 beacon, post-send
    log.push_str(&send_line(1, 2, 7, 3)); //  4: m1 beacon, post-receive
    let trace = Trace::parse(&log);
    let pairing = Pairing::analyze(&trace);
    let hb = HappensBefore::build(&trace, &pairing);
    assert!(!hb.has_cycle());
    assert_eq!(pairing.messages.len(), 1);

    // Ordered: the send precedes its receive and what follows it.
    assert!(hb.precedes(0, 2));
    assert!(hb.precedes(0, 4));
    assert!(hb.lamport(0) < hb.lamport(2));
    // Concurrent: m1's pre-receive beacon vs the send, and m0's
    // post-send beacon vs m1's receive — no path either way.
    assert!(!hb.precedes(0, 1) && !hb.precedes(1, 0));
    assert!(!hb.precedes(3, 2) && !hb.precedes(2, 3));
    assert!(!hb.precedes(3, 4) && !hb.precedes(4, 3));
}

proptest! {
    #[test]
    fn one_pass_parse_equals_the_reference_parse(log in arb_hostile_log()) {
        prop_assert_eq!(Trace::parse(&log), reference_parse(&log));
    }

    #[test]
    fn indexed_matcher_equals_the_reference_scan(log in arb_mixed_trace()) {
        assert_matches_reference(&log);
    }

    #[test]
    fn happens_before_equals_the_reference_on_mixed_traces(log in arb_mixed_trace()) {
        let trace = Trace::parse(&log);
        assert_hb_matches_reference(&trace, &Pairing::analyze(&trace));
    }

    #[test]
    fn happens_before_equals_the_reference_on_conversations(log in arb_conversation()) {
        let trace = Trace::parse(&log);
        assert_hb_matches_reference(&trace, &Pairing::analyze(&trace));
    }

    #[test]
    fn happens_before_equals_the_reference_on_paired_traces(
        (log, _, _) in arb_paired_trace()
    ) {
        let trace = Trace::parse(&log);
        assert_hb_matches_reference(&trace, &Pairing::analyze(&trace));
    }

    #[test]
    fn paired_traces_match_their_plan(
        (log, delivered, lost) in arb_paired_trace()
    ) {
        let trace = Trace::parse(&log);
        let pairing = Pairing::analyze(&trace);
        // Exact-length matching recovers the plan exactly: every
        // delivered message matched, every lost send reported, no
        // surplus receives invented.
        prop_assert_eq!(pairing.messages.len(), delivered);
        prop_assert_eq!(pairing.unmatched_sends.len(), lost);
        prop_assert!(pairing.unmatched_recvs.is_empty());
        let hb = HappensBefore::build(&trace, &pairing);
        prop_assert!(!hb.has_cycle());
        for m in &pairing.messages {
            prop_assert!(hb.precedes(m.send_idx, m.recv_idx));
        }
    }

    #[test]
    fn paired_traces_yield_a_strict_partial_order(
        (log, _, _) in arb_paired_trace()
    ) {
        let trace = Trace::parse(&log);
        let pairing = Pairing::analyze(&trace);
        let hb = HappensBefore::build(&trace, &pairing);
        let n = trace.len();
        for a in 0..n {
            prop_assert!(!hb.precedes(a, a), "irreflexive {a}");
            for b in 0..n {
                if hb.precedes(a, b) {
                    prop_assert!(!hb.precedes(b, a), "antisymmetric {a} {b}");
                    prop_assert!(hb.lamport(a) < hb.lamport(b), "clocks {a} {b}");
                }
                for c in 0..n {
                    if hb.precedes(a, b) && hb.precedes(b, c) {
                        prop_assert!(hb.precedes(a, c), "transitive {a} {b} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn happens_before_is_a_strict_partial_order(log in arb_conversation()) {
        let trace = Trace::parse(&log);
        let pairing = Pairing::analyze(&trace);
        let hb = HappensBefore::build(&trace, &pairing);
        let n = trace.len();
        for a in 0..n {
            prop_assert!(!hb.precedes(a, a), "irreflexive");
            for b in 0..n {
                if hb.precedes(a, b) {
                    prop_assert!(!hb.precedes(b, a), "antisymmetric {a} {b}");
                }
                for c in 0..n {
                    if hb.precedes(a, b) && hb.precedes(b, c) {
                        prop_assert!(hb.precedes(a, c), "transitive {a} {b} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn lamport_clocks_respect_the_order(log in arb_conversation()) {
        let trace = Trace::parse(&log);
        let pairing = Pairing::analyze(&trace);
        let hb = HappensBefore::build(&trace, &pairing);
        for a in 0..trace.len() {
            for b in 0..trace.len() {
                if hb.precedes(a, b) {
                    prop_assert!(hb.lamport(a) < hb.lamport(b));
                }
            }
        }
    }

    #[test]
    fn pairing_conserves_bytes(log in arb_conversation()) {
        let trace = Trace::parse(&log);
        let pairing = Pairing::analyze(&trace);
        let sent: u64 = trace.events.iter().filter_map(|e| match &e.kind {
            EventKind::Send { len, .. } => Some(*len as u64),
            _ => None,
        }).sum();
        let received: u64 = trace.events.iter().filter_map(|e| match &e.kind {
            EventKind::Recv { len, .. } => Some(*len as u64),
            _ => None,
        }).sum();
        let matched: u64 = pairing.messages.iter().map(|m| m.bytes as u64).sum();
        prop_assert!(matched <= sent, "matched {matched} > sent {sent}");
        prop_assert!(matched <= received, "matched {matched} > received {received}");
        // Every send is either matched or reported unmatched.
        let send_count = trace.events.iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. })).count();
        let matched_sends: std::collections::HashSet<_> =
            pairing.messages.iter().map(|m| m.send_idx).collect();
        prop_assert_eq!(
            matched_sends.len() + pairing.unmatched_sends.len(),
            send_count
        );
    }

    #[test]
    fn send_precedes_its_receive(log in arb_conversation()) {
        let trace = Trace::parse(&log);
        let pairing = Pairing::analyze(&trace);
        let hb = HappensBefore::build(&trace, &pairing);
        for m in &pairing.messages {
            prop_assert!(hb.precedes(m.send_idx, m.recv_idx));
        }
    }

    #[test]
    fn analysis_never_panics_on_arbitrary_text(text in "(\\PC{0,40}\n){0,20}") {
        let a = Analysis::of_log(&text);
        let _ = a.summary(); // must not panic
    }

    #[test]
    fn ordered_fraction_is_a_probability(log in arb_conversation()) {
        let a = Analysis::of_log(&log);
        let f = a.hb.ordered_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "{f}");
    }
}
