//! One instance of every message on the monitor's four wire surfaces,
//! each beside the bytes the encoders produced for it at `ad34487` —
//! but for the `CreateFilter` body (version 2: no sink word) and the
//! control events (version 2: `FilterCreated` carries the templates
//! text where it carried a sink keyword).
//! `tests/wire_bytes.rs` holds encoders and decoders to these bytes;
//! `tests/wire_mutation.rs` mutates them.

#![allow(dead_code)] // each test binary uses its own half

use dpm::crates::controlplane::ControlEvent;
use dpm::crates::filter::{FilterArgs, FilterRole};
use dpm::crates::logstore::format::Envelope;
use dpm::crates::logstore::index::SegmentIndex;
use dpm::crates::logstore::ProcId;
use dpm::crates::meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFlags, MeterFork,
    MeterHeader, MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc,
    SockName, TermReason,
};
use dpm::crates::meterd::{Reply, Request, RpcStatus};
use dpm::Pid;

/// A name, a value and the value's pinned encoding (hex; whitespace
/// is layout only).
pub type Sample<T> = (&'static str, T, &'static str);

/// The bytes a hex literal stands for.
pub fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("hex digit") as u8)
        .collect();
    assert!(digits.len().is_multiple_of(2), "odd hex literal");
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}

fn meter(name: &'static str, body: MeterBody, hex: &'static str) -> Sample<MeterMsg> {
    let header = MeterHeader {
        size: 0,
        machine: 5,
        cpu_time: 9_999,
        seq: 7,
        proc_time: 40,
        trace_type: body.trace_type(),
    };
    (name, MeterMsg { header, body }, hex)
}

/// Every Appendix-A body; the four named bodies with and without
/// names, in each of the three name forms.
#[rustfmt::skip] // a table: one sample an entry, the value then its bytes
pub fn meter_msgs() -> Vec<Sample<MeterMsg>> {
    use MeterBody::*;
    let inet = || Some(SockName::inet(0x0d9d_020c, 1701));
    let unix = || Some(SockName::unix("/tmp/f1"));
    let pair = || Some(SockName::Internal(0x0102_0304_0506_0708));
    let (pid, pc, sock) = (2120, 0x452, 4);
    vec![
        meter("send inet", Send(MeterSendMsg { pid, pc, sock, msg_length: 128, dest_name: inet() }),
            "3c000000 05000000 0f270000 07000000 28000000 01000000 48080000 52040000
             04000000 80000000 08000000 0200a506 0c029d0d 00000000 00000000"),
        meter("send nameless",
            Send(MeterSendMsg { pid, pc, sock, msg_length: 128, dest_name: None }),
            "3c000000 05000000 0f270000 07000000 28000000 01000000 48080000 52040000
             04000000 80000000 00000000 00000000 00000000 00000000 00000000"),
        meter("receivecall", RecvCall(MeterRecvCall { pid, pc, sock }),
            "24000000 05000000 0f270000 07000000 28000000 02000000 48080000 52040000
             04000000"),
        meter("receive unix",
            Recv(MeterRecvMsg { pid, pc, sock, msg_length: 64, source_name: unix() }),
            "3c000000 05000000 0f270000 07000000 28000000 03000000 48080000 52040000
             04000000 40000000 09000000 01002f74 6d702f66 31000000 00000000"),
        meter("receive nameless",
            Recv(MeterRecvMsg { pid, pc, sock, msg_length: 64, source_name: None }),
            "3c000000 05000000 0f270000 07000000 28000000 03000000 48080000 52040000
             04000000 40000000 00000000 00000000 00000000 00000000 00000000"),
        meter("socket",
            SockCrt(MeterSockCrt { pid, pc, sock, domain: 2, sock_type: 1, protocol: 0 }),
            "30000000 05000000 0f270000 07000000 28000000 04000000 48080000 52040000
             04000000 02000000 01000000 00000000"),
        meter("dup", Dup(MeterDup { pid, pc, sock, new_sock: 9 }),
            "28000000 05000000 0f270000 07000000 28000000 05000000 48080000 52040000
             04000000 09000000"),
        meter("destsocket", DestSock(MeterDestSock { pid, pc, sock }),
            "24000000 05000000 0f270000 07000000 28000000 06000000 48080000 52040000
             04000000"),
        meter("fork", Fork(MeterFork { pid, pc, new_pid: 2121 }),
            "24000000 05000000 0f270000 07000000 28000000 07000000 48080000 52040000
             49080000"),
        meter("accept inet+internal", Accept(MeterAccept {
                pid, pc, sock, new_sock: 9, sock_name: inet(), peer_name: pair() }),
            "50000000 05000000 0f270000 07000000 28000000 08000000 48080000 52040000
             04000000 09000000 08000000 0a000000 0200a506 0c029d0d 00000000 00000000
             feff0807 06050403 02010000 00000000"),
        meter("accept unix+nameless", Accept(MeterAccept {
                pid, pc, sock, new_sock: 9, sock_name: unix(), peer_name: None }),
            "50000000 05000000 0f270000 07000000 28000000 08000000 48080000 52040000
             04000000 09000000 09000000 00000000 01002f74 6d702f66 31000000 00000000
             00000000 00000000 00000000 00000000"),
        meter("connect unix+inet",
            Connect(MeterConnect { pid, pc, sock, sock_name: unix(), peer_name: inet() }),
            "4c000000 05000000 0f270000 07000000 28000000 09000000 48080000 52040000
             04000000 09000000 08000000 01002f74 6d702f66 31000000 00000000 0200a506
             0c029d0d 00000000 00000000"),
        meter("connect internal+nameless",
            Connect(MeterConnect { pid, pc, sock, sock_name: pair(), peer_name: None }),
            "4c000000 05000000 0f270000 07000000 28000000 09000000 48080000 52040000
             04000000 0a000000 00000000 feff0807 06050403 02010000 00000000 00000000
             00000000 00000000 00000000"),
        meter("termproc", TermProc(MeterTermProc { pid, pc, reason: TermReason::Killed }),
            "24000000 05000000 0f270000 07000000 28000000 0a000000 48080000 52040000
             01000000"),
    ]
}

/// Every Fig. 3.6 request.
#[rustfmt::skip] // a table, as above
pub fn requests() -> Vec<Sample<Request>> {
    use Request::*;
    let pid = Pid(2120);
    let (filter_port, control_port) = (4000, 5000);
    let (blue, yellow) = (|| "blue".to_owned(), || "yellow".to_owned());
    let meter_flags = MeterFlags::SEND | MeterFlags::RECEIVE;
    // An aggregate with an upstream: every field off its default.
    let spec = FilterArgs {
        filterfile: "/bin/filter".into(), port: 4700, logfile: "/usr/tmp/log.root".into(),
        descriptions: "descriptions".into(), templates: "templates".into(), shards: 3,
        role: FilterRole::Aggregate, upstream: "hub:4900".into(),
    };
    vec![
        ("create", Create {
                filename: "/bin/A".into(), params: vec!["x".into(), "yz".into()],
                filter_port, filter_host: blue(), meter_flags, control_port, control_host: yellow(),
                redirect_io: true, stdin_file: Some("/tmp/in".into()) },
            "4e000000 0b000000 06000000 2f62696e 2f410200 00000100 00007802 00000079
             7aa00f00 00040000 00626c75 65140000 00881300 00060000 0079656c 6c6f7701
             00000007 0000002f 746d702f 696e"),
        ("create filter", CreateFilter { spec },
            "69000000 0c000000 ffffffff 02000000 0b000000 2f62696e 2f66696c 7465725c
             12000011 0000002f 7573722f 746d702f 6c6f672e 726f6f74 0c000000 64657363
             72697074 696f6e73 09000000 74656d70 6c617465 73030000 00020000 00080000
             00687562 3a343930 30"),
        ("set flags", SetFlags { pid, flags: meter_flags },
            "10000000 0d000000 48080000 14000000"),
        ("start", Start { pid }, "0c000000 0e000000 48080000"),
        ("stop", Stop { pid }, "0c000000 0f000000 48080000"),
        ("kill", Kill { pid }, "0c000000 10000000 48080000"),
        ("acquire", Acquire {
                pid, filter_port, filter_host: blue(), meter_flags,
                control_port, control_host: yellow() },
            "2a000000 11000000 48080000 a00f0000 04000000 626c7565 14000000 88130000
             06000000 79656c6c 6f77"),
        ("acquire many", AcquireMany {
                pids: vec![Pid(9), Pid(10), Pid(11)], filter_port, filter_host: blue(), meter_flags,
                control_port, control_host: yellow(), rebind_only: true },
            "3a000000 20000000 03000000 09000000 0a000000 0b000000 a00f0000 04000000
             626c7565 14000000 88130000 06000000 79656c6c 6f770100 0000"),
        ("get file", GetFile { path: "/usr/tmp/f1".into() },
            "17000000 13000000 0b000000 2f757372 2f746d70 2f6631"),
        ("clear meter", ClearMeter { pid }, "0c000000 14000000 48080000"),
        ("write file", WriteFile { path: "/bin/A".into(), data: vec![1, 2, 3] },
            "19000000 19000000 06000000 2f62696e 2f410300 00000102 03"),
        ("send input", SendInput { pid, data: b"hello\n".to_vec() },
            "16000000 1a000000 48080000 06000000 68656c6c 6f0a"),
        ("state change", StateChange { pid, state: 2 },
            "10000000 17000000 48080000 02000000"),
        ("io data", IoData { pid, data: b"output".to_vec() },
            "16000000 18000000 48080000 06000000 6f757470 7574"),
        ("tagged", Tagged { req_id: 0xDEAD_BEEF_0000_0001, inner: Box::new(Start { pid }) },
            "20000000 1b000000 01000000 efbeadde 0c000000 0c000000 0e000000 48080000"),
        ("query proc", QueryProc { pid }, "0c000000 1c000000 48080000"),
        ("list files", ListFiles { prefix: "/usr/tmp/f1-".into() },
            "18000000 1e000000 0c000000 2f757372 2f746d70 2f66312d"),
    ]
}

/// Every Fig. 3.6 reply.
#[rustfmt::skip] // a table, as above
pub fn replies() -> Vec<Sample<Reply>> {
    use RpcStatus::{Ok, Perm, Srch};
    vec![
        ("create", Reply::Create { pid: Pid(2120), status: Ok },
            "10000000 12000000 48080000 00000000"),
        ("ack", Reply::Ack { status: Perm }, "0c000000 15000000 03000000"),
        ("file", Reply::File { status: Ok, data: vec![9, 8, 7, 6, 5] },
            "15000000 16000000 00000000 05000000 09080706 05"),
        ("proc status", Reply::ProcStatus { status: Ok, state: 3 },
            "10000000 1d000000 00000000 03000000"),
        ("file list",
            Reply::FileList { status: Ok, names: vec!["a-0.seg".into(), "a-1.seg".into()] },
            "26000000 1f000000 00000000 02000000 07000000 612d302e 73656707 00000061
             2d312e73 6567"),
        ("acquire many",
            Reply::AcquireMany { status: Ok, results: vec![(Pid(9), Ok), (Pid(10), Srch)] },
            "20000000 21000000 00000000 02000000 09000000 00000000 0a000000 02000000"),
    ]
}

/// Every control-log event.
#[rustfmt::skip] // a table, as above
pub fn control_events() -> Vec<Sample<ControlEvent>> {
    use ControlEvent::*;
    let (job, machine, owner) = (|| "foo".into(), || "red".into(), || "yellow:5000".into());
    vec![
        ("job created", JobCreated { job: job(), filter: "f1".into() },
            "43544c31 02000000 01030000 00666f6f 02000000 6631"),
        ("filter created", FilterCreated {
                name: "f1".into(), machine: "green".into(), pid: 2120, port: 4000,
                logfile: "/usr/tmp/log.f1".into(), shards: 2, role: "leaf".into(),
                upstream: String::new(), desc_text: "send 1 ...\n".into(),
                templates_text: "type=1, pc=#*\n".into() },
            "43544c31 02000000 02020000 00663105 00000067 7265656e 48080000 a00f0f00
             00002f75 73722f74 6d702f6c 6f672e66 31020000 00040000 006c6561 66000000
             000b0000 0073656e 64203120 2e2e2e0a 0e000000 74797065 3d312c20 70633d23
             2a0a"),
        ("proc added", ProcAdded {
                job: job(), name: "A".into(), machine: machine(), pid: 2121, state: "new".into() },
            "43544c31 02000000 03030000 00666f6f 01000000 41030000 00726564 49080000
             03000000 6e6577"),
        ("flags set", FlagsSet { job: job(), flags: 0b1011 },
            "43544c31 02000000 04030000 00666f6f 0b000000"),
        ("proc state changed", ProcStateChanged {
                job: job(), machine: machine(), pid: 2121, state: "killed".into() },
            "43544c31 02000000 05030000 00666f6f 03000000 72656449 08000006 0000006b
             696c6c65 64"),
        ("job removed", JobRemoved { job: job() },
            "43544c31 02000000 06030000 00666f6f"),
        ("lease acquired", LeaseAcquired {
                job: job(), owner: owner(), at_us: 17, expires_us: 2_000_017 },
            "43544c31 02000000 07030000 00666f6f 0b000000 79656c6c 6f773a35 30303011
             00000000 00000091 841e0000 000000"),
        ("lease renewed", LeaseRenewed {
                job: job(), owner: owner(), at_us: 1_000_017, expires_us: 3_000_017 },
            "43544c31 02000000 08030000 00666f6f 0b000000 79656c6c 6f773a35 30303051
             420f0000 000000d1 c62d0000 000000"),
    ]
}

/// One store frame: its envelope and the record it wraps (the
/// nameless send above, so the envelope's key is the record's).
#[rustfmt::skip]
pub fn store_frame() -> Sample<(Envelope, Vec<u8>)> {
    let raw = unhex(meter_msgs()[1].2);
    let proc = ProcId { machine: 5, pid: 2120 };
    ("store frame", (Envelope { seq: 99, ts_us: 1_000_001, shard: 3, proc }, raw),
        "54000000 fcdde82d 63000000 00000000 41420f00 00000000 03000500 48080000
         3c000000 05000000 0f270000 07000000 28000000 01000000 48080000 52040000
         04000000 80000000 00000000 00000000 00000000 00000000 00000000")
}

/// One segment header: `(shard, base_seq, created_us)`.
pub fn seg_header() -> Sample<(u16, u64, u64)> {
    let hex = "44504d53 45473031 01000000 05000000 d2040000 00000000 2a000000 00000000";
    ("segment header", (5, 1234, 42), hex)
}

/// One `.idx` sidecar: sparse period 2, three frames of two processes.
#[rustfmt::skip]
pub fn segment_index() -> Sample<SegmentIndex> {
    let mut idx = SegmentIndex::new(2);
    idx.push(0, 10, ProcId { machine: 1, pid: 7 }, 32);
    idx.push(1, 20, ProcId { machine: 1, pid: 8 }, 96);
    idx.push(2, 30, ProcId { machine: 1, pid: 7 }, 160);
    idx.data_len = 224;
    ("segment index", idx,
        "44504d49 44583031 01000000 02000000 03000000 00000000 e0000000 00000000
         02000000 00000000 00000000 0a000000 00000000 20000000 02000000 00000000
         1e000000 00000000 a0000000 02000000 01000000 07000000 02000000 20000000
         a0000000 01000000 08000000 01000000 60000000")
}
