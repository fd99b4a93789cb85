//! Binary log-store glue: the simulated file system as a store
//! [`Backend`].
//!
//! The log store (crate `dpm-logstore`) is substrate-agnostic: it
//! talks to storage through the [`Backend`] trait. This module adapts
//! a simulated machine's [`SimFs`](dpm_simos::SimFs) to that trait, so a filter process
//! keeps its segments in the per-machine file system — visible to
//! `ls`-style listing, fetchable over the control connection's
//! `GetFile` RPC, and subject to the same crash semantics the
//! simulation models.

use dpm_logstore::{seal_manifest_hook, Backend, LogStore, StoreConfig, StoreSource};
use dpm_simos::Machine;
use std::sync::Arc;

/// A store [`Backend`] over one simulated machine's file system.
///
/// [`SimFs`](dpm_simos::SimFs) appends are atomic per call (one lock
/// acquisition covers the whole extend), which is exactly the
/// atomicity the store's group-commit writer requires: a flush lands
/// as one append, so a concurrent reader sees whole frames or nothing.
#[derive(Clone)]
pub struct SimFsBackend {
    machine: Arc<Machine>,
}

impl SimFsBackend {
    /// A backend over `machine`'s file system.
    pub fn new(machine: Arc<Machine>) -> SimFsBackend {
        SimFsBackend { machine }
    }
}

impl std::fmt::Debug for SimFsBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFsBackend")
            .field("machine", &self.machine.name())
            .finish()
    }
}

impl Backend for SimFsBackend {
    fn append(&self, name: &str, data: &[u8]) {
        self.machine.fs().append(name, data);
    }

    fn write(&self, name: &str, data: &[u8]) {
        self.machine.fs().write(name, data.to_vec());
    }

    // `sync` keeps the default no-op: the simulated fs is always
    // "durable" — there is no page cache between it and the store.
}

impl StoreSource for SimFsBackend {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.machine.fs().read(name)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.machine.fs().list(prefix)
    }
}

/// Opens the store a leaf or aggregate filter keeps its records in:
/// segments under the `prefix` directory of `machine`'s file system,
/// every seal published into the store's SEALS manifest so live
/// consumers (controller `watch`) see rotations as they happen
/// instead of probing for them.
pub(crate) fn open_filter_store(machine: &Arc<Machine>, prefix: &str) -> LogStore {
    let backend: Arc<dyn Backend> = Arc::new(SimFsBackend::new(Arc::clone(machine)));
    let mut store = LogStore::open(Arc::clone(&backend), prefix, StoreConfig::default());
    store.set_seal_hook(seal_manifest_hook(backend, prefix));
    store
}
