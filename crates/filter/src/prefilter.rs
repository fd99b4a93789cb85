//! The edge pre-filter, and the relay loop every non-leaf filter runs.
//!
//! The paper funnels every meter record point-to-point into a central
//! filter, so the whole metering volume crosses the network before the
//! selection templates ever see it. Following DCM's "each node filters
//! its own slice" layering, an edge pre-filter is a filter process
//! co-located with a meterdaemon (`role=edge`): local metered
//! processes connect to it instead of the remote filter, it applies
//! the same selection-template DSL ([`crate::rules`]), and only the
//! *accepted* records are forwarded upstream — over the exact meter
//! record framing the upstream filter already speaks, so the parent
//! (a leaf or an aggregate) cannot tell an edge from a meter.
//!
//! Edges keep no log of their own: their job is byte reduction at the
//! source, and the authoritative log lives at the tree's root.
//!
//! Edge and aggregate ([`crate::tree`]) are one loop, `relay`, with
//! different steps: each connection is read chunk by chunk, and what a
//! chunk leaves behind goes upstream at once, so a record reaches the
//! parent as soon as the chunk holding it is read.

use crate::args::FilterArgs;
use crate::desc::Descriptions;
use crate::engine::FilterEngine;
use crate::rules::Rules;
use dpm_simos::{connect_backoff, Backoff, BindTo, Domain, Proc, SockType, SysError, SysResult};

/// The backoff a non-leaf filter uses to reach its parent: generous,
/// because a partition between child and parent must be outwaited, not
/// given up on (a failed connect would silently drop every record of
/// that connection).
fn upstream_backoff() -> Backoff {
    Backoff::new(100, 5, 160)
}

/// The one reader loop of non-leaf filters: accept on `args.port` and
/// fork a reader per connection, with its own [`FilterEngine`] and —
/// when `upstream=` is set — its own upstream connection, so one
/// metered process maps to one ordered record stream end to end
/// (per-process ordering and the engine's sequence window survive
/// every hop).
///
/// Each chunk of up to 4 KiB read goes to `step` with the reader's
/// engine; whatever `step` leaves in `out` is written upstream in one
/// write, so the parent sees whole records only. EOF closes the
/// upstream connection, which propagates the end of stream, then the
/// reader's own.
///
/// # Errors
///
/// Socket errors propagate; runs until killed.
pub(crate) fn relay<S>(
    p: &Proc,
    args: &FilterArgs,
    desc: Descriptions,
    rules: Rules,
    step: S,
) -> SysResult<()>
where
    S: Fn(&mut FilterEngine, &[u8], &mut Vec<u8>) + Clone + Send + 'static,
{
    let upstream = args.upstream_addr();
    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(listener, BindTo::Port(args.port))?;
    p.listen(listener, 32)?;

    loop {
        let (conn, _peer) = p.accept(listener)?;
        let (desc, rules) = (desc.clone(), rules.clone());
        let (upstream, step) = (upstream.clone(), step.clone());
        p.fork_with(move |c| {
            let up = match upstream {
                Some((host, port)) => Some(connect_backoff(&c, &host, port, upstream_backoff())?),
                None => None,
            };
            let mut engine = FilterEngine::new(desc, rules);
            let mut out = Vec::new();
            loop {
                let data = c.read(conn, 4096)?;
                if data.is_empty() {
                    break;
                }
                out.clear();
                step(&mut engine, &data, &mut out);
                if let Some(up) = up.filter(|_| !out.is_empty()) {
                    c.write(up, &out)?;
                }
            }
            if let Some(up) = up {
                c.close(up)?;
            }
            c.close(conn)?;
            Ok(())
        })?;
        // The parent's reference to the connection is the child's now.
        p.close(conn)?;
    }
}

/// Runs a `role=edge` filter: accept meter connections, select, and
/// forward accepted records to `upstream` through `relay`.
///
/// # Errors
///
/// `EINVAL` when `args` has no upstream; socket errors propagate;
/// runs until killed.
pub(crate) fn run_edge(
    p: &Proc,
    args: &FilterArgs,
    desc: Descriptions,
    rules: Rules,
) -> SysResult<()> {
    args.upstream_addr().ok_or(SysError::Einval)?;
    let machine = p.machine().clone();
    let r = dpm_telemetry::registry();
    let accepted = r.counter("edge", "accepted", machine.name());
    let rejected = r.counter("edge", "rejected", machine.name());
    let staleness = r.histogram("e2e", "emit_to_ingest_ms", machine.name());
    relay(p, args, desc, rules, move |engine, data, out| {
        let before = engine.stats();
        engine.feed_records(data, &mut |view, _rec| {
            // Edge and meter share one machine, so its clock is the
            // right "now" for the emit→ingest readout.
            staleness.record(u64::from(
                machine.clock().now_ms().saturating_sub(view.cpu_time()),
            ));
            out.extend_from_slice(view.bytes());
        });
        let after = engine.stats();
        accepted.add(after.kept.saturating_sub(before.kept));
        rejected.add(after.rejected.saturating_sub(before.rejected));
    })
}
