//! `dpm-core` — the distributed programs monitor, assembled.
//!
//! This crate wires the pieces of Miller, Macrander & Sechrest's
//! measurement system together in the configuration of Fig. 3.1: a
//! simulated multi-machine Berkeley UNIX 4.2BSD cluster with
//! kernel-resident metering ([`dpm_simos`]), a meterdaemon on every
//! machine ([`dpm_meterd`]), the standard filter ([`dpm_filter`]), the
//! interactive controller ([`dpm_controller`]), the analysis routines
//! ([`dpm_analysis`]), and the example computations
//! ([`dpm_workloads`]).
//!
//! A finished job's trace is read with [`Simulation::getlog`] (or
//! analyzed with [`Simulation::analyze_log`]): it waits until the
//! filter, and every filter feeding it, has closed each meter
//! connection whose process terminated — a filter closes one only
//! after its records are durable — and then reads the log once.
//!
//! # Quickstart
//!
//! ```
//! use dpm_core::Simulation;
//!
//! let sim = Simulation::builder()
//!     .machines(["yellow", "red", "green", "blue"])
//!     .seed(42)
//!     .build();
//! let mut control = sim.controller("yellow")?;
//! control.exec("filter f1 blue");
//! control.exec("newjob foo");
//! control.exec("addprocess foo red /bin/A green");
//! control.exec("addprocess foo green /bin/B");
//! control.exec("setflags foo send receive fork accept connect");
//! control.exec("startjob foo");
//! assert!(control.wait_job("foo", 30_000), "job completed");
//! let analysis = sim.analyze_log(&mut control, "f1");
//! assert!(analysis.stats.matched > 0);
//! control.exec("removejob foo");
//! control.exec("die");
//! sim.shutdown();
//! # Ok::<(), dpm_core::SysError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub use dpm_analysis::Analysis;
pub use dpm_controller::{Controller, JobRecord, ProcState};
pub use dpm_filter::{Descriptions, FilterEngine, LogRecord, Rules};
pub use dpm_meter::{MeterFlags, MeterMsg, SockName, TermReason};
pub use dpm_simnet::NetConfig;
pub use dpm_simos::{Cluster, ClusterConfig, Pid, Proc, SysError, SysResult, Uid};

use dpm_controller::FilterInfo;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Builder for a ready-to-measure [`Simulation`].
#[derive(Default)]
pub struct SimulationBuilder {
    machines: Vec<String>,
    net: Option<NetConfig>,
    seed: Option<u64>,
    skip_workloads: bool,
    injector: Option<Arc<dyn dpm_simnet::FaultInjector>>,
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("machines", &self.machines)
            .field("net", &self.net)
            .field("seed", &self.seed)
            .field("has_injector", &self.injector.is_some())
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Adds machines by name.
    pub fn machines<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.machines.extend(names.into_iter().map(str::to_owned));
        self
    }

    /// Sets the network behaviour (default [`NetConfig::lan`]).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = Some(net);
        self
    }

    /// Sets the randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Skips registering the example workload programs.
    pub fn without_workloads(mut self) -> Self {
        self.skip_workloads = true;
        self
    }

    /// Installs a fault injector (see [`dpm_simnet::FaultInjector`])
    /// consulted by the kernel's delivery paths — the hook a chaos
    /// plan uses to script drops, partitions and duplicated meter
    /// flushes. Without one, all hooks are no-ops.
    pub fn fault_injector(mut self, injector: Arc<dyn dpm_simnet::FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Builds the cluster, installs the standard filter program,
    /// starts a meterdaemon on every machine, and (unless disabled)
    /// registers the example workloads.
    ///
    /// # Panics
    ///
    /// Panics when no machines were added or a name repeats, as
    /// [`Cluster::builder`] does.
    pub fn build(self) -> Simulation {
        // A panicking component should leave its flight recorder
        // behind: the recent retries/heals/give-ups are the context a
        // post-mortem needs and are lost with the process otherwise.
        dpm_telemetry::install_panic_hook();
        let mut b = Cluster::builder();
        if let Some(net) = self.net {
            b = b.net(net);
        }
        if let Some(seed) = self.seed {
            b = b.seed(seed);
        }
        if let Some(inj) = self.injector {
            b = b.fault_injector(inj);
        }
        for name in &self.machines {
            b = b.machine(name);
        }
        let cluster = b.build();
        dpm_filter::register_filter_program(&cluster);
        dpm_meterd::start_meterdaemons(&cluster);
        if !self.skip_workloads {
            dpm_workloads::register_all(&cluster);
        }
        Simulation {
            cluster,
            next_control_port: AtomicU16::new(5000),
        }
    }
}

/// A running measurement environment: cluster + daemons + programs.
#[derive(Debug)]
pub struct Simulation {
    cluster: Arc<Cluster>,
    next_control_port: AtomicU16,
}

impl Simulation {
    /// Starts building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Starts a controller on `machine` as an ordinary user.
    ///
    /// # Errors
    ///
    /// `ENOENT` for an unknown machine; socket errors propagate.
    pub fn controller(&self, machine: &str) -> SysResult<Controller> {
        self.controller_as(machine, Uid(100))
    }

    /// Starts a controller on `machine` as `uid`.
    ///
    /// # Errors
    ///
    /// As [`Simulation::controller`].
    pub fn controller_as(&self, machine: &str, uid: Uid) -> SysResult<Controller> {
        let port = self.next_control_port.fetch_add(1, Ordering::Relaxed);
        Controller::start(&self.cluster, machine, uid, port)
    }

    /// Reads a file from the controller's machine — e.g. a trace
    /// retrieved with `getlog`.
    pub fn local_file(&self, control: &Controller, path: &str) -> Option<Vec<u8>> {
        self.cluster
            .machine(control.machine())
            .and_then(|m| m.fs().read(path))
    }

    /// Retrieves a filter's trace with one `getlog`, once it is
    /// complete. First every filter of `control` whose `upstream=`
    /// chain reaches `filter` is drained, farthest first, then
    /// `filter` itself ([`Machine::wait_drained`] on its port): each
    /// has closed every meter connection whose sender closed, so
    /// every record sent to it is durable.
    ///
    /// Precondition: every process metered into the filter has
    /// terminated — in practice, [`Controller::wait_job`] returned
    /// `true`. A connection still open is not waited for.
    ///
    /// # Panics
    ///
    /// When a filter has not drained after 30 s of real time; the
    /// message names the filter and the senders still undrained.
    ///
    /// [`Machine::wait_drained`]: dpm_simos::Machine::wait_drained
    pub fn getlog(&self, control: &mut Controller, filter: &str) -> String {
        for f in drain_order(control.filters(), filter) {
            let m = self.cluster.machine(&f.machine).expect("filter machine");
            if let Err(peers) = m.wait_drained(f.spec.port, DRAIN_BOUND) {
                panic!(
                    "filter '{}' never drained the meter connections of {peers:?}",
                    f.name
                );
            }
        }
        let dest = format!("/tmp/getlog.{filter}");
        control.exec(&format!("getlog {filter} {dest}"));
        String::from_utf8_lossy(&self.local_file(control, &dest).unwrap_or_default()).into_owned()
    }

    /// Retrieves and analyzes the trace of a filter in one step:
    /// [`Simulation::getlog`], then every analysis.
    pub fn analyze_log(&self, control: &mut Controller, filter: &str) -> Analysis {
        Analysis::of_log(&self.getlog(control, filter))
    }

    /// Kills every process and joins all threads.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

/// How long [`Simulation::getlog`] lets one filter take to drain
/// before it reports the run hung.
const DRAIN_BOUND: Duration = Duration::from_secs(30);

/// `filter` and every filter whose `upstream=` chain reaches it,
/// farthest first, `filter` last: the order in which records drain
/// toward it. (`upstream=` names an existing filter, so there is no
/// cycle.)
fn drain_order<'a>(filters: &'a [FilterInfo], filter: &str) -> Vec<&'a FilterInfo> {
    let mut order: Vec<&FilterInfo> = filters.iter().filter(|f| f.name == filter).collect();
    let mut i = 0;
    while let Some(into) = order.get(i).map(|f| Some((f.machine.clone(), f.spec.port))) {
        order.extend(filters.iter().filter(|f| f.spec.upstream_addr() == into));
        i += 1;
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_filter::FilterArgs;

    fn filter(name: &str, machine: &str, port: u16, upstream: &str) -> FilterInfo {
        FilterInfo {
            name: name.to_owned(),
            machine: machine.to_owned(),
            pid: Pid(1),
            spec: FilterArgs {
                port,
                upstream: upstream.to_owned(),
                ..FilterArgs::default()
            },
            desc: Descriptions::standard(),
            rules: Rules::default(),
        }
    }

    #[test]
    fn drain_order_is_farthest_first_and_skips_other_trees() {
        let filters = [
            filter("root", "blue", 4000, ""),
            filter("mid", "green", 4001, "blue:4000"),
            filter("e1", "red", 4002, "green:4001"),
            filter("e2", "yellow", 4003, "blue:4000"),
            filter("other", "red", 4004, ""),
            filter("e3", "yellow", 4005, "red:4004"),
        ];
        let names = |target| -> Vec<&str> {
            drain_order(&filters, target)
                .iter()
                .map(|f| f.name.as_str())
                .collect()
        };
        assert_eq!(names("root"), ["e1", "e2", "mid", "root"]);
        assert_eq!(names("mid"), ["e1", "mid"]);
        assert_eq!(names("e1"), ["e1"]);
        assert!(names("nosuch").is_empty());
    }
}
