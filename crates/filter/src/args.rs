//! The one description of a filter.
//!
//! In the paper a filter is configured exactly once: the controller's
//! §4.3 `filter` command becomes one Fig. 3.6 create-filter request,
//! which the meterdaemon turns into one process creation (§3.3–3.4).
//! [`FilterArgs`] is that one fact. The controller fills it from the
//! typed tokens, the meterdaemon protocol carries it as the
//! `CreateFilter` body, the daemon spawns `filterfile` with
//! [`FilterArgs::to_args`], and the filter program — the standard one
//! or a user-written §3.4 filter — reads it back with
//! [`FilterArgs::parse`]:
//!
//! ```text
//! port=4000 log=/usr/tmp/log.f1 desc=descriptions templates=templates
//! shards=4 role=aggregate upstream=blue:4001
//! ```
//!
//! There is one key table ([`FilterArgs::set`]) and one validator
//! ([`FilterArgs::validate`]); every layer's error text comes from
//! them.

use std::fmt;

/// What position a filter occupies in the filter tree.
///
/// * [`FilterRole::Leaf`] — the classic standalone filter of §3.3:
///   accepts meter connections, applies selection, logs locally.
/// * [`FilterRole::Edge`] — a lightweight pre-filter co-located with a
///   meterdaemon: applies selection to meter messages *before* they
///   leave the machine and forwards only accepted records upstream.
///   It keeps no log of its own.
/// * [`FilterRole::Aggregate`] — an interior/root node: accepts record
///   streams from children (edges or other filters), merges them by
///   `(machine, pid, seq)` and writes one deterministic log/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterRole {
    /// Standalone filter: meter connections in, local log out.
    #[default]
    Leaf,
    /// Machine-local pre-filter: selection before the network.
    Edge,
    /// Tree node: merges child record streams into one log.
    Aggregate,
}

impl FilterRole {
    /// The keyword-argument spelling (`role=<this>`).
    #[must_use]
    pub fn as_arg(self) -> &'static str {
        match self {
            FilterRole::Leaf => "leaf",
            FilterRole::Edge => "edge",
            FilterRole::Aggregate => "aggregate",
        }
    }

    /// Parses the keyword-argument spelling.
    #[must_use]
    pub fn from_arg(s: &str) -> Option<FilterRole> {
        match s {
            "leaf" => Some(FilterRole::Leaf),
            "edge" => Some(FilterRole::Edge),
            "aggregate" => Some(FilterRole::Aggregate),
            _ => None,
        }
    }
}

impl fmt::Display for FilterRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_arg())
    }
}

/// An argument-parse failure, phrased for the human who typed it: the
/// message always names the offending key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(String);

impl ArgsError {
    /// An error with the given message — for a layer that adds a key
    /// of its own to the table (the controller's `upstream=<name>`).
    pub fn new(msg: impl Into<String>) -> ArgsError {
        ArgsError(msg.into())
    }
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgsError {}

/// The keys of the key table, in canonical order.
pub const FILTER_ARG_KEYS: &[&str] = &[
    "file",
    "port",
    "log",
    "desc",
    "templates",
    "shards",
    "role",
    "upstream",
];

/// Parses `host:port` (as used by `upstream=`).
///
/// # Errors
///
/// When the colon or a valid non-zero port is missing.
pub fn parse_host_port(s: &str) -> Result<(String, u16), ArgsError> {
    let bad = || {
        ArgsError::new(format!(
            "bad value '{s}' for key 'upstream' (want host:port)"
        ))
    };
    let (host, port) = s.rsplit_once(':').ok_or_else(bad)?;
    let port: u16 = port.parse().map_err(|_| bad())?;
    if host.is_empty() || port == 0 {
        return Err(bad());
    }
    Ok((host.to_owned(), port))
}

/// Everything that describes one filter process: what to execute,
/// where it listens, where its records go and its place in the filter
/// tree. The controller's `filter` command, the `CreateFilter`
/// request, the meterdaemon's spawn and the filter program all use
/// this struct, its key table and its validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterArgs {
    /// Executable file of the filter on its machine. The daemon
    /// executes it; it is not part of the program's argument vector.
    pub filterfile: String,
    /// Port the filter listens on for meter/record connections.
    pub port: u16,
    /// Directory prefix the binary log store's segment files live
    /// under (a user-written filter may keep a plain file there
    /// instead). Empty for edges, which keep no log.
    pub logfile: String,
    /// Path of the descriptions file on the filter's machine.
    pub descriptions: String,
    /// Path of the selection-templates file on the filter's machine.
    pub templates: String,
    /// Number of shard workers (leaf filters; ≥ 1). One shard
    /// reproduces the classic single-engine filter.
    pub shards: u32,
    /// Position in the filter tree.
    pub role: FilterRole,
    /// Upstream `host:port` for edges (and optional for aggregates
    /// that forward further up); empty when there is no upstream.
    pub upstream: String,
}

impl Default for FilterArgs {
    fn default() -> FilterArgs {
        FilterArgs {
            filterfile: "/bin/filter".to_owned(),
            port: 0,
            logfile: String::new(),
            descriptions: "descriptions".to_owned(),
            templates: "templates".to_owned(),
            shards: 1,
            role: FilterRole::Leaf,
            upstream: String::new(),
        }
    }
}

impl FilterArgs {
    /// Applies one `key=value` of the key table.
    ///
    /// # Errors
    ///
    /// A message naming the unknown key, or the bad value and what a
    /// valid one looks like.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ArgsError> {
        let bad = |expect: &str| {
            ArgsError::new(format!(
                "bad value '{value}' for key '{key}' (want {expect})"
            ))
        };
        match key {
            "file" => self.filterfile = value.to_owned(),
            "port" => {
                self.port = value
                    .parse()
                    .ok()
                    .filter(|&p| p != 0)
                    .ok_or_else(|| bad("a non-zero port number"))?;
            }
            "log" => self.logfile = value.to_owned(),
            "desc" => self.descriptions = value.to_owned(),
            "templates" => self.templates = value.to_owned(),
            "shards" => {
                self.shards = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad("a shard count >= 1"))?;
            }
            "role" => {
                self.role =
                    FilterRole::from_arg(value).ok_or_else(|| bad("leaf|edge|aggregate"))?;
            }
            "upstream" => {
                parse_host_port(value)?;
                self.upstream = value.to_owned();
            }
            _ => {
                return Err(ArgsError::new(format!(
                    "unknown key '{key}' (valid keys: {})",
                    FILTER_ARG_KEYS.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Parses a filter program's argument vector — `key=value` tokens
    /// over the defaults — and validates the result.
    ///
    /// # Errors
    ///
    /// A message naming the bad token or key and what a valid value
    /// looks like.
    pub fn parse(args: &[String]) -> Result<FilterArgs, ArgsError> {
        let mut out = FilterArgs::default();
        for token in args {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                ArgsError::new(format!("bad argument '{token}' (want key=value)"))
            })?;
            out.set(key, value)?;
        }
        out.validate()?;
        Ok(out)
    }

    /// The cross-field checks, run wherever a description enters a
    /// layer: typed at the controller, decoded from the wire, parsed
    /// from an argument vector, replayed from the control log.
    ///
    /// # Errors
    ///
    /// When the combination is unusable.
    pub fn validate(&self) -> Result<(), ArgsError> {
        if self.port == 0 {
            return Err(ArgsError::new("missing key 'port' (a filter must listen)"));
        }
        if self.shards == 0 {
            return Err(ArgsError::new(
                "bad value '0' for key 'shards' (want a shard count >= 1)",
            ));
        }
        match self.role {
            FilterRole::Edge => {
                if self.upstream.is_empty() {
                    return Err(ArgsError::new(
                        "role=edge requires key 'upstream' (host:port of the parent filter)",
                    ));
                }
            }
            FilterRole::Leaf | FilterRole::Aggregate => {
                if self.logfile.is_empty() {
                    return Err(ArgsError::new(format!(
                        "role={} requires key 'log' (where accepted records go)",
                        self.role
                    )));
                }
            }
        }
        if !self.upstream.is_empty() {
            parse_host_port(&self.upstream)?;
        }
        Ok(())
    }

    /// The upstream address parsed, when one is set.
    #[must_use]
    pub fn upstream_addr(&self) -> Option<(String, u16)> {
        if self.upstream.is_empty() {
            None
        } else {
            parse_host_port(&self.upstream).ok()
        }
    }

    /// Renders the argument vector the meterdaemon passes when
    /// spawning `filterfile`; [`FilterArgs::parse`] reads it back.
    #[must_use]
    pub fn to_args(&self) -> Vec<String> {
        let mut out = vec![format!("port={}", self.port)];
        if !self.logfile.is_empty() {
            out.push(format!("log={}", self.logfile));
        }
        out.push(format!("desc={}", self.descriptions));
        out.push(format!("templates={}", self.templates));
        out.push(format!("shards={}", self.shards));
        if self.role != FilterRole::Leaf {
            out.push(format!("role={}", self.role));
        }
        if !self.upstream.is_empty() {
            out.push(format!("upstream={}", self.upstream));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn every_key_parses() {
        let a = FilterArgs::parse(&v(&[
            "file=/bin/myfilter",
            "port=4000",
            "log=/usr/tmp/log.f1",
            "desc=d",
            "templates=t",
            "shards=4",
            "role=aggregate",
            "upstream=blue:4001",
        ]))
        .unwrap();
        assert_eq!(a.filterfile, "/bin/myfilter");
        assert_eq!(a.port, 4000);
        assert_eq!(a.logfile, "/usr/tmp/log.f1");
        assert_eq!(a.descriptions, "d");
        assert_eq!(a.templates, "t");
        assert_eq!(a.shards, 4);
        assert_eq!(a.role, FilterRole::Aggregate);
        assert_eq!(a.upstream_addr(), Some(("blue".to_owned(), 4001)));
    }

    #[test]
    fn errors_name_the_bad_key() {
        let e = FilterArgs::parse(&v(&["port=4000", "log=x", "rolle=edge"])).unwrap_err();
        assert!(e.to_string().contains("unknown key 'rolle'"), "{e}");
        assert!(e.to_string().contains("valid keys"), "{e}");

        let e = FilterArgs::parse(&v(&["port=zero", "log=x"])).unwrap_err();
        assert!(e.to_string().contains("key 'port'"), "{e}");

        // The sink is not a key: every filter keeps its records in the store.
        let e = FilterArgs::parse(&v(&["port=4000", "log=x", "mode=store"])).unwrap_err();
        assert!(e.to_string().contains("unknown key 'mode'"), "{e}");

        let e = FilterArgs::parse(&v(&["port=4000", "log=x", "upstream=nocolon"])).unwrap_err();
        assert!(e.to_string().contains("key 'upstream'"), "{e}");

        let e = FilterArgs::parse(&v(&["port=4000", "log=x", "shards=0"])).unwrap_err();
        assert!(e.to_string().contains("key 'shards'"), "{e}");

        let e = FilterArgs::parse(&v(&["4000", "log=x"])).unwrap_err();
        assert!(e.to_string().contains("bad argument '4000'"), "{e}");
    }

    #[test]
    fn cross_field_validation() {
        // An edge needs an upstream…
        let e = FilterArgs::parse(&v(&["port=4000", "role=edge"])).unwrap_err();
        assert!(e.to_string().contains("upstream"), "{e}");
        // …but no log.
        let a = FilterArgs::parse(&v(&["port=4000", "role=edge", "upstream=blue:4001"])).unwrap();
        assert!(a.logfile.is_empty());
        // Leaves and aggregates need a log.
        let e = FilterArgs::parse(&v(&["port=4000"])).unwrap_err();
        assert!(e.to_string().contains("'log'"), "{e}");
        let e = FilterArgs::parse(&v(&["port=4000", "role=aggregate"])).unwrap_err();
        assert!(e.to_string().contains("'log'"), "{e}");
        // A struct assembled field by field meets the same checks.
        let zero = FilterArgs {
            port: 4000,
            logfile: "x".to_owned(),
            shards: 0,
            ..FilterArgs::default()
        };
        assert!(zero.validate().unwrap_err().to_string().contains("shards"));
    }

    #[test]
    fn canonical_args_round_trip() {
        for args in [
            v(&["port=4000", "log=x", "shards=2"]),
            v(&["port=4001", "role=edge", "upstream=blue:4000"]),
            v(&["port=4002", "log=y", "role=aggregate", "upstream=hub:9"]),
        ] {
            let a = FilterArgs::parse(&args).unwrap();
            let b = FilterArgs::parse(&a.to_args()).unwrap();
            assert_eq!(a, b, "canonical form of {args:?} re-parses identically");
        }
    }
}
