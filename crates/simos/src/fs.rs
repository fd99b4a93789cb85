//! A tiny per-machine file system.
//!
//! 4.2BSD had no remote file system ("the lack of such a file system
//! … forced us to implement the latter alternative", §3.5.3), so each
//! simulated machine carries its own flat file store. It holds program
//! "binaries" (whose contents name an entry in the program registry),
//! filter description/template files, command scripts for `source`,
//! redirected-input files, and the filter log files under `/usr/tmp`.
//! The `rcp` of §3.5.3 is the meterdaemon's `WriteFile` RPC
//! (`dpm_meterd::Request::WriteFile`): the controller reads a program,
//! input or filter file from its own machine's store and sends the
//! bytes to the target machine's daemon, which writes them here.

use parking_lot::RwLock;
use std::collections::BTreeMap;

/// A flat, thread-safe map from path to contents.
///
/// Paths are plain strings; there is no directory structure beyond the
/// convention of `/`-separated names, which is all the paper's tools
/// need.
#[derive(Debug, Default)]
pub struct SimFs {
    files: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl SimFs {
    /// Creates an empty file system.
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// Writes (creates or replaces) a file.
    pub fn write(&self, path: &str, contents: impl Into<Vec<u8>>) {
        self.files.write().insert(path.to_owned(), contents.into());
    }

    /// Appends to a file, creating it if absent. Filter log files are
    /// written this way.
    pub fn append(&self, path: &str, contents: &[u8]) {
        self.files
            .write()
            .entry(path.to_owned())
            .or_default()
            .extend_from_slice(contents);
    }

    /// Reads a file's contents.
    pub fn read(&self, path: &str) -> Option<Vec<u8>> {
        self.files.read().get(path).cloned()
    }

    /// Reads a file as UTF-8 text; `None` if absent or not UTF-8.
    pub fn read_string(&self, path: &str) -> Option<String> {
        self.read(path).and_then(|b| String::from_utf8(b).ok())
    }

    /// Whether the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Lists paths with the given prefix, in sorted order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_exists_remove() {
        let fs = SimFs::new();
        assert!(!fs.exists("/a"));
        fs.write("/a", b"hello".to_vec());
        assert!(fs.exists("/a"));
        assert_eq!(fs.read("/a").unwrap(), b"hello");
        assert_eq!(fs.read_string("/a").unwrap(), "hello");
    }

    #[test]
    fn append_creates_and_extends() {
        let fs = SimFs::new();
        fs.append("/usr/tmp/log1", b"one\n");
        fs.append("/usr/tmp/log1", b"two\n");
        assert_eq!(fs.read_string("/usr/tmp/log1").unwrap(), "one\ntwo\n");
    }

    #[test]
    fn list_by_prefix_sorted() {
        let fs = SimFs::new();
        fs.write("/usr/tmp/b", vec![]);
        fs.write("/usr/tmp/a", vec![]);
        fs.write("/etc/passwd", vec![]);
        assert_eq!(
            fs.list("/usr/tmp/"),
            vec!["/usr/tmp/a".to_owned(), "/usr/tmp/b".to_owned()]
        );
    }

    #[test]
    fn non_utf8_read_string_is_none() {
        let fs = SimFs::new();
        fs.write("/bin/garbage", vec![0xff, 0xfe]);
        assert_eq!(fs.read_string("/bin/garbage"), None);
        assert!(fs.read("/bin/garbage").is_some());
    }
}
