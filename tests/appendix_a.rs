//! Appendix A is spelled twice: as the descriptions file the tool
//! ships (`Descriptions::standard()`, by which the filter reads and
//! writes records) and as the meter messages' layout (by which the
//! kernel writes them). Each pinned meter sample is read here at every
//! offset, length and base the file describes, and must hold there the
//! value of the struct field of that name — so a wrong offset in either
//! spelling fails.

mod wire_samples;

use dpm::crates::filter::{Descriptions, FieldRef};
use dpm::crates::meter::{MeterBody, SockName, TermReason, HEADER_LEN};
use wire_samples::unhex;

/// A name's `nameLen` word: its meaningful bytes, 0 when absent.
fn name_len(name: &Option<SockName>) -> u32 {
    match name {
        None => 0,
        Some(SockName::Inet { .. }) => 8,
        Some(SockName::UnixPath(path)) => 2 + path.len() as u32,
        Some(SockName::Internal(_)) => 10,
    }
}

/// Each body field under its Appendix-A name, as its text.
fn fields(body: &MeterBody) -> Vec<(&'static str, String)> {
    let n = |v: u32| v.to_string();
    let name = |v: &Option<SockName>| v.as_ref().map_or("-".to_owned(), SockName::to_string);
    let len = |v: &Option<SockName>| n(name_len(v));
    match body {
        MeterBody::Send(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("sock", n(b.sock)),
            ("msgLength", n(b.msg_length)),
            ("destNameLen", len(&b.dest_name)),
            ("destName", name(&b.dest_name)),
        ],
        MeterBody::RecvCall(b) => vec![("pid", n(b.pid)), ("pc", n(b.pc)), ("sock", n(b.sock))],
        MeterBody::Recv(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("sock", n(b.sock)),
            ("msgLength", n(b.msg_length)),
            ("sourceNameLen", len(&b.source_name)),
            ("sourceName", name(&b.source_name)),
        ],
        MeterBody::SockCrt(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("sock", n(b.sock)),
            ("domain", n(b.domain)),
            ("type", n(b.sock_type)),
            ("protocol", n(b.protocol)),
        ],
        MeterBody::Dup(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("sock", n(b.sock)),
            ("newSock", n(b.new_sock)),
        ],
        MeterBody::DestSock(b) => vec![("pid", n(b.pid)), ("pc", n(b.pc)), ("sock", n(b.sock))],
        MeterBody::Fork(b) => vec![("pid", n(b.pid)), ("pc", n(b.pc)), ("newPid", n(b.new_pid))],
        MeterBody::Accept(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("sock", n(b.sock)),
            ("newSock", n(b.new_sock)),
            ("sockNameLen", len(&b.sock_name)),
            ("peerNameLen", len(&b.peer_name)),
            ("sockName", name(&b.sock_name)),
            ("peerName", name(&b.peer_name)),
        ],
        MeterBody::Connect(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("sock", n(b.sock)),
            ("sockNameLen", len(&b.sock_name)),
            ("peerNameLen", len(&b.peer_name)),
            ("sockName", name(&b.sock_name)),
            ("peerName", name(&b.peer_name)),
        ],
        MeterBody::TermProc(b) => vec![
            ("pid", n(b.pid)),
            ("pc", n(b.pc)),
            ("reason", n(u32::from(b.reason == TermReason::Killed))),
        ],
    }
}

#[test]
fn every_described_field_holds_its_struct_field() {
    let desc = Descriptions::standard();
    let samples = wire_samples::meter_msgs();
    assert_eq!(samples.len(), 14);
    for (sample, msg, hex) in samples {
        let wire = unhex(hex);
        let event = desc.event(msg.body.trace_type()).expect("described");
        // The header, by the names the file gives it.
        let h = &msg.header;
        for (field, want) in [
            ("machine", u64::from(h.machine)),
            ("cpuTime", h.cpu_time.into()),
            ("procTime", h.proc_time.into()),
            ("traceType", msg.body.trace_type().into()),
        ] {
            let got = event.slot(field).read(&wire);
            assert_eq!(got, Some(FieldRef::Int(want)), "{sample}: {field}");
        }
        // The body: every described field, and nothing undescribed.
        let want = fields(&msg.body);
        let described: Vec<&str> = event.fields.iter().map(|f| f.name.as_str()).collect();
        let named: Vec<&str> = want.iter().map(|(field, _)| *field).collect();
        assert_eq!(described, named, "{sample}: the described fields");
        for (f, (_, want)) in event.fields.iter().zip(&want) {
            let at = &wire[HEADER_LEN + f.offset..][..f.len];
            let got = match f.base {
                16 => FieldRef::Bytes(at).to_string(),
                _ => at
                    .iter()
                    .rev()
                    .fold(0u64, |v, &b| v << 8 | u64::from(b))
                    .to_string(),
            };
            assert_eq!(
                &got, want,
                "{sample}: {} at {},{},{}",
                f.name, f.offset, f.len, f.base
            );
        }
        assert_eq!(
            wire.len(),
            HEADER_LEN + event.fields.iter().map(|f| f.len).sum::<usize>()
        );
    }
}
