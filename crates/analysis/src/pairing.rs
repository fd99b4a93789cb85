//! Recovering who talked to whom.
//!
//! "For some calls, not all the information for the message is
//! available. For example, when one writes across a connection, the
//! name of the recipient is not available to the metering software. …
//! By examining the sockets that were paired when the connection was
//! created, the recipient information can be recovered. This is one of
//! the tasks of the analysis programs." (§4.1)
//!
//! Two steps:
//!
//! 1. **Connection pairing** — match every `connect` event with its
//!    `accept` by the name-symmetry rule (the connector's `sockName`
//!    is the acceptor's `peerName` and vice versa).
//! 2. **Message matching** — pair `send` events with `receive` events:
//!    by byte position for streams (reliable and ordered), and by
//!    exact payload length per (source, destination) name pair for
//!    datagrams — a datagram is delivered whole, so a receive of `k`
//!    bytes can only have been caused by a send of `k` bytes on that
//!    channel. Unmatched sends are lost datagrams; unmatched receives
//!    are duplicated deliveries (or deliveries whose send escaped the
//!    meter).

use crate::trace::{Event, EventKind, ProcKey, Trace};
use std::collections::{HashMap, VecDeque};

/// A recovered stream connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// The initiating side: process and its socket id.
    pub client: (ProcKey, u32),
    /// The accepting side: process and the *new* connection socket.
    pub server: (ProcKey, u32),
    /// Name bound to the connecting socket.
    pub client_name: Option<String>,
    /// Name bound to the accepting socket.
    pub server_name: Option<String>,
    /// Trace indices of the connect and accept events.
    pub connect_idx: usize,
    /// Trace index of the accept event.
    pub accept_idx: usize,
}

/// One matched message: a send event paired with the receive event(s)
/// that consumed its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedMessage {
    /// Trace index of the send event.
    pub send_idx: usize,
    /// Trace index of the (first) receive event that consumed bytes of
    /// this send.
    pub recv_idx: usize,
    /// Sender process.
    pub from: ProcKey,
    /// Receiver process.
    pub to: ProcKey,
    /// Bytes attributed to this pairing.
    pub bytes: u32,
}

/// Everything pairing recovered from a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pairing {
    /// Recovered stream connections.
    pub connections: Vec<Connection>,
    /// Matched messages (streams and datagrams).
    pub messages: Vec<MatchedMessage>,
    /// Trace indices of send events never matched to a receive —
    /// datagrams lost in the network, or bytes unread at the end of
    /// the trace.
    pub unmatched_sends: Vec<usize>,
    /// Trace indices of datagram receive events never matched to a
    /// send — duplicated deliveries, or traffic from unmetered
    /// senders. (Stream receives are byte-matched and never appear
    /// here.)
    pub unmatched_recvs: Vec<usize>,
}

impl Pairing {
    /// Runs connection pairing and message matching over a trace.
    pub fn analyze(trace: &Trace) -> Pairing {
        let mut queues = PairQueues::default();
        for ev in &trace.events {
            queues.add(ev);
        }
        Pairing::from_queues(trace, &queues)
    }

    /// Runs pairing over a trace whose pass-1 queues were already
    /// collected (incrementally, by a live consumer). This is the
    /// *same* code path [`Pairing::analyze`] takes — `analyze` builds
    /// the queues in one sweep and calls here — so a queue set grown
    /// one event at a time yields a bit-identical pairing at any
    /// prefix.
    pub fn from_queues(trace: &Trace, queues: &PairQueues) -> Pairing {
        let connections = pair_connections(trace);
        let (messages, unmatched_sends, unmatched_recvs) =
            match_messages(queues, &connections, trace.events.len());
        Pairing {
            connections,
            messages,
            unmatched_sends,
            unmatched_recvs,
        }
    }
}

/// Matches connect events to accept events by name symmetry.
fn pair_connections(trace: &Trace) -> Vec<Connection> {
    // Accepts queue up under their (sockName, peerName), in trace
    // order: the front of a queue is its earliest unused accept.
    type Names<'a> = (Option<&'a str>, Option<&'a str>);
    let mut accepts: HashMap<Names<'_>, VecDeque<(&Event, u32)>> = HashMap::new();
    for ev in &trace.events {
        if let EventKind::Accept {
            new_sock,
            sock_name,
            peer_name,
        } = &ev.kind
        {
            accepts
                .entry((sock_name.as_deref(), peer_name.as_deref()))
                .or_default()
                .push_back((ev, *new_sock));
        }
    }
    let mut out = Vec::new();
    for ev in &trace.events {
        let EventKind::Connect {
            sock_name: c_sock @ Some(_),
            peer_name: c_peer,
        } = &ev.kind
        else {
            continue;
        };
        // The matching accept: its sockName is our peerName, its
        // peerName is our sockName, and it is the earliest unused one.
        let hit = accepts
            .get_mut(&(c_peer.as_deref(), c_sock.as_deref()))
            .and_then(VecDeque::pop_front);
        if let Some((a, new_sock)) = hit {
            out.push(Connection {
                client: (ev.proc, ev.sock.unwrap_or(0)),
                server: (a.proc, new_sock),
                client_name: c_sock.clone(),
                server_name: c_peer.clone(),
                connect_idx: ev.idx,
                accept_idx: a.idx,
            });
        }
    }
    out
}

/// One queued message endpoint record: the trace index, the process
/// on this side of the channel, and the payload length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedMsg {
    idx: usize,
    proc: ProcKey,
    len: u32,
}

/// Datagram queues of one direction: per process, per peer name. Two
/// levels so that `add` looks a known name up borrowed and copies it
/// only the first time it is seen.
type NamedQueues = HashMap<ProcKey, HashMap<String, Vec<QueuedMsg>>>;

/// Appends `rec` to the queue of `(proc, name)`.
fn push_named(queues: &mut NamedQueues, proc: ProcKey, name: &str, rec: QueuedMsg) {
    let by_name = queues.entry(proc).or_default();
    match by_name.get_mut(name) {
        Some(queue) => queue.push(rec),
        None => {
            by_name.insert(name.to_owned(), vec![rec]);
        }
    }
}

/// The groups of `queues` as `(process, name, queue)`, in no order.
fn groups(queues: &NamedQueues) -> impl Iterator<Item = (ProcKey, &str, &[QueuedMsg])> {
    queues.iter().flat_map(|(proc, by_name)| {
        by_name
            .iter()
            .map(move |(name, queue)| (*proc, name.as_str(), queue.as_slice()))
    })
}

/// Pass-1 state of message matching: per-channel FIFO queues of send
/// and receive events. The queues are **append-only** — `add` folds
/// one event in O(1) — so a live consumer can grow them as records
/// arrive and ask for a full [`Pairing`] at any point via
/// [`Pairing::from_queues`]. Matching itself (pass 2) works on local
/// copies and never mutates the queues.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairQueues {
    /// Stream sends by (sender process, socket id).
    stream_sends: HashMap<(ProcKey, u32), Vec<QueuedMsg>>,
    /// Stream receives by (receiver process, socket id).
    stream_recvs: HashMap<(ProcKey, u32), Vec<QueuedMsg>>,
    /// Datagram sends by sender process, then destination name.
    dgram_sends: NamedQueues,
    /// Datagram receives by receiver process, then source name.
    dgram_recvs: NamedQueues,
    /// Every send event's trace index, in trace order.
    all_sends: Vec<usize>,
}

impl PairQueues {
    /// Folds one trace event into the queues. Events must be offered
    /// in trace order (matching relies on queue order being trace
    /// order); non-message events are ignored.
    pub fn add(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::Send { len, dest } => {
                self.all_sends.push(ev.idx);
                let rec = QueuedMsg {
                    idx: ev.idx,
                    proc: ev.proc,
                    len: *len,
                };
                match dest {
                    Some(name) => push_named(&mut self.dgram_sends, ev.proc, name, rec),
                    None => {
                        let Some(sock) = ev.sock else { return };
                        self.stream_sends
                            .entry((ev.proc, sock))
                            .or_default()
                            .push(rec);
                    }
                }
            }
            EventKind::Recv { len, source } => {
                let rec = QueuedMsg {
                    idx: ev.idx,
                    proc: ev.proc,
                    len: *len,
                };
                match source {
                    Some(name) => push_named(&mut self.dgram_recvs, ev.proc, name, rec),
                    None => {
                        let Some(sock) = ev.sock else { return };
                        self.stream_recvs
                            .entry((ev.proc, sock))
                            .or_default()
                            .push(rec);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Matches sends to receives. Crucially this is **order-insensitive
/// across processes**: each metered process delivers its records over
/// its own meter connection, so records of different processes
/// interleave arbitrarily in the log — a receive is routinely logged
/// before the send that caused it. Within one process, log order is
/// reliable (one ordered stream), which is all FIFO matching needs.
fn match_messages(
    queues: &PairQueues,
    connections: &[Connection],
    n_events: usize,
) -> (Vec<MatchedMessage>, Vec<usize>, Vec<usize>) {
    // Stream endpoints pair through the recovered connections.
    let mut peer_of: HashMap<(ProcKey, u32), (ProcKey, u32)> = HashMap::new();
    for c in connections {
        peer_of.insert(c.client, c.server);
        peer_of.insert(c.server, c.client);
    }

    let mut matches: Vec<MatchedMessage> = Vec::new();
    // Which send events are matched, by trace index. Only ever grows.
    let mut matched = vec![false; n_events];

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
                    matched[s.idx] = true;
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
    //
    // The candidate set depends only on (source host, receiver
    // machine), so receive groups that agree on both share one pool.
    // A pool is sorted by (length, trace index) and keeps one cursor
    // per length, pointing at the earliest send of that length not yet
    // known to be matched. Pools overlap and `matched` is shared, so a
    // cursor may find sends another pool took; it steps over them.
    // Because `matched` only grows, nothing a cursor has passed can
    // become available again: the cursor never moves back, and the
    // send it stops at is exactly the one a scan from the start of
    // the pool would find.
    let send_groups: Vec<(u32, Option<u32>, &[QueuedMsg])> = groups(&queues.dgram_sends)
        .map(|(tx_proc, dest, sends)| (tx_proc.machine, host_of(dest), sends))
        .collect();
    let mut recv_groups: Vec<_> = groups(&queues.dgram_recvs).collect();
    recv_groups.sort_by_key(|&(rx_proc, src_name, _)| (rx_proc, src_name));
    let mut pools: HashMap<(Option<u32>, u32), SendPool> = HashMap::new();
    let mut unmatched_recvs: Vec<usize> = Vec::new();
    for (rx_proc, src_name, recvs) in recv_groups {
        let src_host = host_of(src_name);
        let pool = pools.entry((src_host, rx_proc.machine)).or_insert_with(|| {
            SendPool::new(
                send_groups
                    .iter()
                    .filter_map(|&(tx_machine, dest_host, sends)| {
                        let candidate = src_host.is_none_or(|h| h == tx_machine)
                            && dest_host.is_none_or(|h| h == rx_proc.machine);
                        candidate.then_some(sends)
                    }),
            )
        });
        for r in recvs {
            match pool.take(r.len, &mut matched) {
                Some(s) => matches.push(MatchedMessage {
                    send_idx: s.idx,
                    recv_idx: r.idx,
                    from: s.proc,
                    to: r.proc,
                    bytes: r.len,
                }),
                None => unmatched_recvs.push(r.idx),
            }
        }
    }

    matches.sort_by_key(|m| (m.recv_idx, m.send_idx));
    let mut unmatched: Vec<usize> = queues
        .all_sends
        .iter()
        .copied()
        .filter(|&i| !matched[i])
        .collect();
    unmatched.sort_unstable();
    unmatched_recvs.sort_unstable();
    (matches, unmatched, unmatched_recvs)
}

/// The sends a receive group may draw on, indexed for "earliest
/// unmatched send of exactly this length". Earliest is by trace index:
/// within a process trace order is send order, and across candidate
/// groups (distinct sockets) any order is as good as another.
struct SendPool {
    /// Sorted by `(len, idx)`.
    sends: Vec<QueuedMsg>,
    /// Per length: position in `sends` of the earliest send of that
    /// length not yet seen matched.
    cursors: HashMap<u32, usize>,
}

impl SendPool {
    fn new<'a>(groups: impl Iterator<Item = &'a [QueuedMsg]>) -> SendPool {
        let mut sends: Vec<QueuedMsg> = groups.flatten().copied().collect();
        sends.sort_unstable_by_key(|s| (s.len, s.idx));
        let mut cursors = HashMap::new();
        for (at, s) in sends.iter().enumerate() {
            cursors.entry(s.len).or_insert(at);
        }
        SendPool { sends, cursors }
    }

    /// Takes the earliest unmatched send of `len` bytes, marking it
    /// matched.
    fn take(&mut self, len: u32, matched: &mut [bool]) -> Option<QueuedMsg> {
        let cursor = self.cursors.get_mut(&len)?;
        while let Some(s) = self.sends.get(*cursor).filter(|s| s.len == len) {
            *cursor += 1;
            if !matched[s.idx] {
                matched[s.idx] = true;
                return Some(*s);
            }
        }
        None
    }
}

/// The host id of an `inet:<host>:<port>` display name.
pub fn host_of(name: &str) -> Option<u32> {
    name.strip_prefix("inet:")?.split(':').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn stream_log() -> &'static str {
        // client m0:p1 connects sock 5 (name inet:0:1024) to server
        // m1:p2 listening (name inet:1:80); accept creates sock 9.
        "\
event=connect machine=0 cpuTime=10 procTime=0 traceType=9 pid=1 pc=1 sock=5 sockName=inet:0:1024 peerName=inet:1:80
event=accept machine=1 cpuTime=12 procTime=0 traceType=8 pid=2 pc=1 sock=4 newSock=9 sockName=inet:1:80 peerName=inet:0:1024
event=send machine=0 cpuTime=20 procTime=0 traceType=1 pid=1 pc=2 sock=5 msgLength=100 destName=-
event=send machine=0 cpuTime=21 procTime=0 traceType=1 pid=1 pc=3 sock=5 msgLength=50 destName=-
event=receive machine=1 cpuTime=30 procTime=0 traceType=3 pid=2 pc=2 sock=9 msgLength=120 sourceName=-
event=receive machine=1 cpuTime=31 procTime=0 traceType=3 pid=2 pc=3 sock=9 msgLength=30 sourceName=-
"
    }

    #[test]
    fn connections_pair_by_name_symmetry() {
        let t = Trace::parse(stream_log());
        let p = Pairing::analyze(&t);
        assert_eq!(p.connections.len(), 1);
        let c = &p.connections[0];
        assert_eq!(c.client, (ProcKey { machine: 0, pid: 1 }, 5));
        assert_eq!(c.server, (ProcKey { machine: 1, pid: 2 }, 9));
        assert_eq!(c.client_name.as_deref(), Some("inet:0:1024"));
    }

    #[test]
    fn stream_bytes_match_across_read_boundaries() {
        let t = Trace::parse(stream_log());
        let p = Pairing::analyze(&t);
        // 100+50 sent; reads of 120 then 30. Matching splits:
        // send#2 (100) → recv#4; send#3 (50) → recv#4 (20) + recv#5 (30).
        let total: u32 = p.messages.iter().map(|m| m.bytes).sum();
        assert_eq!(total, 150);
        assert!(p.unmatched_sends.is_empty());
        // The first matched pair is the first send into the first read.
        assert_eq!(p.messages[0].send_idx, 2);
        assert_eq!(p.messages[0].recv_idx, 4);
        assert_eq!(p.messages[0].bytes, 100);
        // Receiver identity recovered despite destName=- on the sends.
        assert!(p
            .messages
            .iter()
            .all(|m| m.to == ProcKey { machine: 1, pid: 2 }));
    }

    #[test]
    fn datagram_matching_and_loss_detection() {
        let log = "\
event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=3 msgLength=10 destName=inet:1:53
event=send machine=0 cpuTime=2 procTime=0 traceType=1 pid=1 pc=2 sock=3 msgLength=10 destName=inet:1:53
event=send machine=0 cpuTime=3 procTime=0 traceType=1 pid=1 pc=3 sock=3 msgLength=10 destName=inet:1:53
event=receive machine=1 cpuTime=9 procTime=0 traceType=3 pid=2 pc=1 sock=7 msgLength=10 sourceName=inet:0:1024
event=receive machine=1 cpuTime=10 procTime=0 traceType=3 pid=2 pc=2 sock=7 msgLength=10 sourceName=inet:0:1024
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        assert_eq!(p.messages.len(), 2);
        assert_eq!(p.unmatched_sends, vec![2], "third datagram was lost");
        assert!(p.unmatched_recvs.is_empty());
    }

    #[test]
    fn duplicated_delivery_is_an_unmatched_receive() {
        // One send of 10 bytes, two deliveries: the duplicate must not
        // steal a different send — it shows up as an unmatched receive.
        let log = "\
event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=3 msgLength=10 destName=inet:1:53
event=send machine=0 cpuTime=2 procTime=0 traceType=1 pid=1 pc=2 sock=3 msgLength=25 destName=inet:1:53
event=receive machine=1 cpuTime=9 procTime=0 traceType=3 pid=2 pc=1 sock=7 msgLength=10 sourceName=inet:0:1024
event=receive machine=1 cpuTime=10 procTime=0 traceType=3 pid=2 pc=2 sock=7 msgLength=10 sourceName=inet:0:1024
event=receive machine=1 cpuTime=11 procTime=0 traceType=3 pid=2 pc=3 sock=7 msgLength=25 sourceName=inet:0:1024
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        assert_eq!(p.messages.len(), 2);
        assert_eq!(p.unmatched_sends, Vec::<usize>::new());
        assert_eq!(p.unmatched_recvs, vec![3], "the duplicate delivery");
        // The 25-byte receive found the 25-byte send despite the
        // duplicate arriving between them.
        assert!(p
            .messages
            .iter()
            .any(|m| m.send_idx == 1 && m.recv_idx == 4 && m.bytes == 25));
    }

    #[test]
    fn two_connections_pair_independently() {
        let log = "\
event=connect machine=0 cpuTime=1 procTime=0 traceType=9 pid=1 pc=1 sock=5 sockName=inet:0:1024 peerName=inet:1:80
event=connect machine=0 cpuTime=2 procTime=0 traceType=9 pid=3 pc=1 sock=6 sockName=inet:0:1025 peerName=inet:1:80
event=accept machine=1 cpuTime=3 procTime=0 traceType=8 pid=2 pc=1 sock=4 newSock=9 sockName=inet:1:80 peerName=inet:0:1024
event=accept machine=1 cpuTime=4 procTime=0 traceType=8 pid=2 pc=2 sock=4 newSock=10 sockName=inet:1:80 peerName=inet:0:1025
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        assert_eq!(p.connections.len(), 2);
        assert_eq!(p.connections[0].server.1, 9);
        assert_eq!(p.connections[1].server.1, 10);
    }

    /// The nested loop `pair_connections` replaced, kept as the oracle:
    /// every connect scans every accept for the earliest unused one
    /// whose names mirror its own.
    fn reference_pair_connections(trace: &Trace) -> Vec<Connection> {
        let mut out = Vec::new();
        let mut used_accepts = vec![false; trace.events.len()];
        let accepts: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Accept { .. }))
            .collect();
        for ev in &trace.events {
            let EventKind::Connect {
                sock_name: c_sock,
                peer_name: c_peer,
            } = &ev.kind
            else {
                continue;
            };
            let hit = accepts.iter().find(|a| {
                if used_accepts[a.idx] {
                    return false;
                }
                let EventKind::Accept {
                    sock_name: a_sock,
                    peer_name: a_peer,
                    ..
                } = &a.kind
                else {
                    return false;
                };
                a_peer == c_sock && a_sock == c_peer && c_sock.is_some()
            });
            if let Some(a) = hit {
                used_accepts[a.idx] = true;
                let EventKind::Accept { new_sock, .. } = a.kind else {
                    unreachable!()
                };
                out.push(Connection {
                    client: (ev.proc, ev.sock.unwrap_or(0)),
                    server: (a.proc, new_sock),
                    client_name: c_sock.clone(),
                    server_name: c_peer.clone(),
                    connect_idx: ev.idx,
                    accept_idx: a.idx,
                });
            }
        }
        out
    }

    #[test]
    fn two_thousand_connections_pair_like_the_nested_loop() {
        // Few distinct names, so most connects compete for the same
        // accepts and "earliest unused" decides; some connects carry no
        // name of their own (never paired), some accepts no listener
        // name (paired by a connect without a peer name), and a third
        // of the accepts are logged before their connects.
        let name = |host: usize, port: usize| Some(format!("inet:{host}:{port}"));
        let mut trace = Trace::default();
        let mut push = |machine: u32, pid: u32, kind: EventKind| {
            let idx = trace.events.len();
            trace.events.push(Event {
                idx,
                proc: ProcKey { machine, pid },
                cpu_time: idx as u32,
                proc_time: 0,
                sock: (idx % 5 != 0).then_some(idx as u32 % 7),
                kind,
            });
        };
        for i in 0..2000usize {
            let client = if i % 11 == 0 { None } else { name(0, i % 13) };
            let server = if i % 17 == 0 { None } else { name(1, i % 3) };
            let accept = EventKind::Accept {
                new_sock: 100 + i as u32,
                sock_name: server.clone(),
                peer_name: client.clone(),
            };
            let connect = EventKind::Connect {
                sock_name: client,
                peer_name: server,
            };
            if i % 3 == 0 {
                push(1, 2, accept);
                push(0, 1 + (i % 4) as u32, connect);
            } else {
                push(0, 1 + (i % 4) as u32, connect);
                if i % 7 != 0 {
                    push(1, 2, accept);
                }
            }
        }
        let got = pair_connections(&trace);
        assert_eq!(got, reference_pair_connections(&trace));
        assert!(got.len() > 1500, "{} paired", got.len());
    }

    #[test]
    fn empty_trace_pairs_nothing() {
        let p = Pairing::analyze(&Trace::default());
        assert!(p.connections.is_empty());
        assert!(p.messages.is_empty());
        assert!(p.unmatched_sends.is_empty());
    }
}
