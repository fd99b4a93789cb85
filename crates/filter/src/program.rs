//! The standard filter *process*.
//!
//! "Filter processes do not exist by default in the measurement tool.
//! The user must tell the control process to create a filter process.
//! … A standard filter is provided by the measurement tool. However,
//! given a few basic constraints, custom filters can be easily
//! written." (§3.3)
//!
//! The one basic constraint (§3.4) is that a filter must listen for
//! meter messages arriving over meter connections; this implementation
//! binds an Internet-domain stream socket at the port given by its
//! `port=` argument, accepts one connection per metered process, and
//! forks a reader per connection (each meter connection is an
//! independent byte stream). The readers feed a [`ShardedFilter`]
//! pipeline that fans the streams across worker threads; accepted
//! records are appended raw to the filter's binary log store.
//!
//! Program arguments are the [`FilterArgs`] key table —
//! `port=… log=… shards=4 role=aggregate upstream=…`. The
//! descriptions and templates are read from files on the filter's
//! machine, defaulting to the standard descriptions and
//! keep-everything rules when the files are absent (the controller
//! installs real files; being lenient here keeps hand-rolled sessions
//! pleasant). `shards` defaults to 1, which reproduces the classic
//! single-engine filter exactly. `log` is the prefix the store's
//! segment files live under: the log *is* the store, and the paper's
//! rendered-line text (§3.4) is a view the controller's `getlog`
//! derives from it.
//!
//! The `role` key selects the filter's place in the tree: `leaf`
//! (default — the classic standalone filter below), `edge` (see
//! [`crate::prefilter`]) or `aggregate` (see [`crate::tree`]).

use crate::args::{FilterArgs, FilterRole};
use crate::desc::Descriptions;
use crate::prefilter::run_edge;
use crate::rules::Rules;
use crate::shard::{IngestClock, ShardLog, ShardedFilter, DEFAULT_BATCH_BYTES};
use crate::store::open_filter_store;
use crate::tree::run_aggregate;
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockType, SysError, SysResult};
use std::sync::Arc;

/// The program-registry name of the standard filter; the default
/// `filterfile` of the `filter` command is `/bin/filter` containing
/// `program:filter`.
pub(crate) const FILTER_PROGRAM: &str = "filter";

/// Registers the standard filter in the cluster's program registry
/// and installs `/bin/filter` on every machine, so
/// `addprocess`-style creation by file name works everywhere.
pub fn register_filter_program(cluster: &Arc<Cluster>) {
    cluster.register_program(FILTER_PROGRAM, filter_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/filter", FILTER_PROGRAM);
    }
}

/// The standard filter's program body.
///
/// # Errors
///
/// `EINVAL` for missing/garbled arguments; socket errors propagate;
/// runs until killed.
pub fn filter_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let args = FilterArgs::parse(&args).map_err(|_| SysError::Einval)?;

    let desc = match p.machine().fs().read_string(&args.descriptions) {
        Some(text) => Descriptions::parse(&text).map_err(|_| SysError::Einval)?,
        None => Descriptions::standard(),
    };
    let rules = match p.machine().fs().read_string(&args.templates) {
        Some(text) => Rules::parse(&text).map_err(|_| SysError::Einval)?,
        None => Rules::default(),
    };

    match args.role {
        FilterRole::Edge => run_edge(&p, &args, desc, rules),
        FilterRole::Aggregate => run_aggregate(&p, &args, desc, rules),
        FilterRole::Leaf => run_leaf(&p, &args, desc, rules),
    }
}

/// The classic standalone (`role=leaf`) filter: meter connections in,
/// a sharded selection pipeline, a local log store out.
fn run_leaf(p: &Proc, args: &FilterArgs, desc: Descriptions, rules: Rules) -> SysResult<()> {
    let shards = args.shards as usize;
    // Shard workers are plain OS threads with no Proc of their own;
    // hand them this machine's clock so they can stamp the
    // emit→ingest staleness histogram in the meter header's own
    // millisecond domain.
    let ingest_clock: IngestClock = {
        let m = Arc::clone(p.machine());
        Arc::new(move || m.clock().now_ms())
    };

    // Every shard writer shares one store (one global seq space, one
    // monotonic clock). The shard workers are real threads; store
    // flushes end on frame boundaries and `SimFs::append` is atomic
    // per call, so output from different shards never interleaves
    // mid-frame.
    let store = open_filter_store(p.machine(), &args.logfile);
    let pipeline = Arc::new(ShardedFilter::with_logs_clocked(
        shards,
        desc,
        rules,
        DEFAULT_BATCH_BYTES,
        Some(ingest_clock),
        |shard| ShardLog::Store(Box::new(store.writer(shard as u16))),
    ));

    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(listener, BindTo::Port(args.port))?;
    p.listen(listener, 32)?;

    loop {
        let (conn, _peer) = p.accept(listener)?;
        let handle = pipeline.open_conn();
        let child_pipeline = Arc::clone(&pipeline);
        p.fork_with(move |c| {
            loop {
                let data = c.read(conn, 4096)?;
                if data.is_empty() {
                    break;
                }
                handle.feed(data);
            }
            handle.close();
            // EOF means the metered process is done; make its records
            // durable before the reader exits so `getlog` sees them.
            child_pipeline.flush();
            c.close(conn)?;
            Ok(())
        })?;
        // The parent's reference to the connection is the child's now.
        p.close(conn)?;
    }
}
