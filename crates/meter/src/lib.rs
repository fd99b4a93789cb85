//! Meter message formats for the distributed programs monitor.
//!
//! This crate is the Rust equivalent of the 4.2BSD include files
//! `<meterflags.h>` and `<sys/metermsgs.h>` described in the paper
//! *A Distributed Programs Monitor for Berkeley UNIX* (Miller,
//! Macrander & Sechrest, ICDCS 1985), Appendix A and Appendix C.
//!
//! Every time a metered event occurs, the (simulated) kernel creates a
//! *meter message* consisting of a [`MeterHeader`] common to all
//! messages and a body particular to the message type. The messages are
//! buffered in the kernel and eventually delivered to a *filter*
//! process over the meter connection, a stream socket hidden from the
//! metered process's descriptor table.
//!
//! The wire layout reproduced here is byte-for-byte the layout of the
//! paper's C structs on a VAX (little-endian, 4-byte alignment):
//! `long` is 4 bytes, `short` 2 bytes, `SOCKET` (a file-table-entry
//! address) 4 bytes, and `NAME` (`struct sockaddr`) 16 bytes.
//!
//! Three things here serve the whole monitor, not only this crate:
//! [`wire`] is the one byte codec every wire surface (these messages,
//! the daemon RPC, control events, the log store's files) is read and
//! written through, [`MeterRecord`] is the one borrowed record view —
//! `dpm_filter::RecordView` *is* `MeterRecord`, re-exported under the
//! filter's name for it — and [`SeqWindow`] is the one deduplicator
//! every stage that must not count a record twice asks.
//!
//! # Example
//!
//! ```
//! use dpm_meter::{MeterHeader, MeterMsg, MeterBody, MeterSendMsg, SockName};
//!
//! let msg = MeterMsg {
//!     header: MeterHeader { size: 0, machine: 3, cpu_time: 120, seq: 0, proc_time: 40,
//!                           trace_type: dpm_meter::trace_type::SEND },
//!     body: MeterBody::Send(MeterSendMsg {
//!         pid: 2120, pc: 0x452, sock: 5, msg_length: 64,
//!         dest_name: Some(SockName::inet(1, 1701)),
//!     }),
//! };
//! let bytes = msg.encode();
//! let (back, used) = MeterMsg::decode(&bytes)?;
//! assert_eq!(used, bytes.len());
//! assert_eq!(back.body, msg.body);
//! assert_eq!(back.header.size as usize, bytes.len());
//! # Ok::<(), dpm_meter::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod flags;
mod msg;
mod name;
mod window;
pub mod wire;

pub use flags::MeterFlags;
pub use msg::{
    trace_type, DecodeError, MeterAccept, MeterBody, MeterConnect, MeterDecoder, MeterDestSock,
    MeterDup, MeterFork, MeterHeader, MeterMsg, MeterRecord, MeterRecvCall, MeterRecvMsg,
    MeterSendMsg, MeterSockCrt, MeterTermProc, Pid, TermReason, HEADER_LEN, MAX_METER_MSG,
};
pub use name::{NameDecodeError, NameRef, SockName, NAME_LEN};
pub use window::SeqWindow;
