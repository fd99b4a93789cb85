//! Host names and identifiers.
//!
//! "When communicating an address, the literal name of the host and
//! the number of the port are exchanged. The receiving process then
//! constructs the socket name using its own host address for the
//! specified machine." (§3.5.4)
//!
//! The registry is the simulation's name service: it assigns each
//! literal host name a small numeric [`HostId`] (the `machine` field of
//! meter message headers) and translates in both directions.

use std::collections::HashMap;
use std::fmt;

/// Numeric identifier of a simulated machine.
///
/// Appears as the `machine` field in meter message headers and in
/// Internet-domain socket names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<HostId> for u32 {
    fn from(h: HostId) -> u32 {
        h.0
    }
}

/// Error returned when a host name or id is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownHostError {
    name: String,
}

impl UnknownHostError {
    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownHostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown host `{}`", self.name)
    }
}

impl std::error::Error for UnknownHostError {}

/// Bidirectional map between literal host names and [`HostId`]s.
///
/// # Example
///
/// ```
/// use dpm_simnet::HostRegistry;
///
/// let mut hosts = HostRegistry::new();
/// let blue = hosts.register("blue");
/// assert_eq!(hosts.lookup("blue"), Some(blue));
/// assert_eq!(hosts.name(blue), Some("blue"));
/// assert_eq!(hosts.resolve("green").unwrap_err().name(), "green");
/// ```
#[derive(Debug, Clone, Default)]
pub struct HostRegistry {
    by_name: HashMap<String, HostId>,
    names: Vec<String>,
}

impl HostRegistry {
    /// Creates an empty registry.
    pub fn new() -> HostRegistry {
        HostRegistry::default()
    }

    /// Registers a host name, returning its id. Registering the same
    /// name twice returns the existing id (idempotent).
    pub fn register(&mut self, name: &str) -> HostId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = HostId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a host name, if registered.
    pub fn lookup(&self, name: &str) -> Option<HostId> {
        self.by_name.get(name).copied()
    }

    /// Like [`HostRegistry::lookup`] but returns an error carrying the
    /// name, for call sites that must report to the user.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownHostError`] when `name` is not registered.
    pub fn resolve(&self, name: &str) -> Result<HostId, UnknownHostError> {
        self.lookup(name).ok_or_else(|| UnknownHostError {
            name: name.to_owned(),
        })
    }

    /// The literal name of a host id, if registered.
    pub fn name(&self, id: HostId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no hosts are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut r = HostRegistry::new();
        let a = r.register("red");
        let b = r.register("green");
        let c = r.register("blue");
        assert_eq!((a, b, c), (HostId(0), HostId(1), HostId(2)));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = HostRegistry::new();
        let a = r.register("red");
        assert_eq!(r.register("red"), a);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn both_directions_resolve() {
        let mut r = HostRegistry::new();
        let a = r.register("yellow");
        assert_eq!(r.lookup("yellow"), Some(a));
        assert_eq!(r.name(a), Some("yellow"));
        assert_eq!(r.lookup("nope"), None);
        assert_eq!(r.name(HostId(99)), None);
    }

    #[test]
    fn resolve_error_carries_name() {
        let r = HostRegistry::new();
        let err = r.resolve("mauve").unwrap_err();
        assert_eq!(err.name(), "mauve");
        assert!(err.to_string().contains("mauve"));
    }
}
