//! Storage backends: where segment files live.
//!
//! The store names files with flat `/`-separated strings (exactly the
//! convention of the simulation's per-machine file system), and needs
//! only append/read/replace/list — no seeks, no partial reads. That
//! keeps one store implementation working over three very different
//! substrates: the in-memory [`MemBackend`] for tests and benchmarks,
//! the [`DirBackend`] over a real directory, and the filter crate's
//! adapter over a simulated machine's file system.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

/// A place segment files can be listed and read — the read half of
/// storage, and all that [`crate::list_segments`],
/// [`crate::StoreReader::load`] and [`crate::StoreTail::poll`] ask
/// for, so one reader serves a local [`Backend`] and a remote
/// machine's files fetched through its meterdaemon alike.
pub trait StoreSource {
    /// Reads a whole file; `None` if absent.
    fn read(&self, name: &str) -> Option<Vec<u8>>;
    /// Names of all files starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
}

/// Byte storage for segment and index files: a [`StoreSource`] that
/// can also be written.
///
/// Implementations must make each `append`/`write` call atomic with
/// respect to concurrent readers (the provided backends do; the
/// group-commit writer never splits a frame across calls, so readers
/// at worst miss the newest whole frames).
pub trait Backend: StoreSource + Send + Sync {
    /// Appends to a file, creating it if absent.
    fn append(&self, name: &str, data: &[u8]);
    /// Fallible append, for backends that can report I/O faults (a
    /// chaos harness injecting torn writes or transient errors). The
    /// default delegates to the infallible [`Backend::append`], so
    /// existing backends need no change. A failed `try_append` may
    /// have appended a *prefix* of `data` (a torn write); callers are
    /// expected to heal by reading the file back and truncating to the
    /// last known-durable length before retrying.
    ///
    /// # Errors
    ///
    /// Implementations return any [`std::io::Error`] the substrate
    /// produced; the default implementation never fails.
    fn try_append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.append(name, data);
        Ok(())
    }
    /// Writes (creates or replaces) a file — used to truncate a torn
    /// segment tail on recovery and to replace index sidecars.
    fn write(&self, name: &str, data: &[u8]);
    /// Forces the file durable (fsync where that means something).
    fn sync(&self, _name: &str) {}
}

/// An in-memory backend: a flat map behind a lock. Cloning shares the
/// same storage, so a writer and a reader can be wired up in a test
/// without touching disk.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    files: Arc<RwLock<BTreeMap<String, Vec<u8>>>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }
}

impl Backend for MemBackend {
    fn append(&self, name: &str, data: &[u8]) {
        self.files
            .write()
            .expect("mem backend lock")
            .entry(name.to_owned())
            .or_default()
            .extend_from_slice(data);
    }

    fn write(&self, name: &str, data: &[u8]) {
        self.files
            .write()
            .expect("mem backend lock")
            .insert(name.to_owned(), data.to_vec());
    }
}

impl StoreSource for MemBackend {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.files
            .read()
            .expect("mem backend lock")
            .get(name)
            .cloned()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .expect("mem backend lock")
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }
}

/// A backend over a real directory, for host-side tools and
/// crash-recovery tests that want actual files. Store names map to
/// paths under the root; parent directories are created on demand.
#[derive(Debug, Clone)]
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// A backend rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> DirBackend {
        let root = root.into();
        let _ = fs::create_dir_all(&root);
        DirBackend { root }
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name.trim_start_matches('/'))
    }
}

impl Backend for DirBackend {
    fn append(&self, name: &str, data: &[u8]) {
        let path = self.path_of(name);
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(&path) {
            let _ = f.write_all(data);
        }
    }

    fn write(&self, name: &str, data: &[u8]) {
        let path = self.path_of(name);
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        let _ = fs::write(&path, data);
    }

    fn sync(&self, name: &str) {
        if let Ok(f) = fs::File::open(self.path_of(name)) {
            let _ = f.sync_all();
        }
    }
}

impl StoreSource for DirBackend {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        fs::read(self.path_of(name)).ok()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        // Names are `dir/file`; list the parent directory and filter
        // by the full-name prefix.
        let (dir_part, _) = prefix.rsplit_once('/').unwrap_or(("", prefix));
        let dir = self.path_of(dir_part);
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir(&dir) {
            for e in entries.flatten() {
                if let Some(fname) = e.file_name().to_str() {
                    let full = if dir_part.is_empty() {
                        fname.to_owned()
                    } else {
                        format!("{dir_part}/{fname}")
                    };
                    if full.starts_with(prefix.trim_start_matches('/')) || full.starts_with(prefix)
                    {
                        out.push(full);
                    }
                }
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trips_and_lists() {
        let b = MemBackend::new();
        b.append("d/a.seg", b"one");
        b.append("d/a.seg", b"two");
        b.write("d/b.seg", b"xyz");
        assert_eq!(b.read("d/a.seg").unwrap(), b"onetwo");
        assert_eq!(b.read("d/b.seg").unwrap(), b"xyz");
        assert_eq!(b.read("d/c.seg"), None);
        assert_eq!(
            b.list("d/"),
            vec!["d/a.seg".to_owned(), "d/b.seg".to_owned()]
        );
        // Clones share storage.
        let c = b.clone();
        c.write("d/a.seg", b"replaced");
        assert_eq!(b.read("d/a.seg").unwrap(), b"replaced");
    }

    #[test]
    fn dir_backend_round_trips_and_lists() {
        let tmp = std::env::temp_dir().join(format!("dpm-logstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        let b = DirBackend::new(&tmp);
        b.append("store/s0-0.seg", b"abc");
        b.append("store/s0-0.seg", b"def");
        b.write("store/s0-0.idx", b"i");
        assert_eq!(b.read("store/s0-0.seg").unwrap(), b"abcdef");
        assert_eq!(
            b.list("store/s0-"),
            vec!["store/s0-0.idx".to_owned(), "store/s0-0.seg".to_owned()]
        );
        b.sync("store/s0-0.seg");
        let _ = fs::remove_dir_all(&tmp);
    }
}
