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
#![warn(missing_docs)]

pub use dpm_analysis as analysis;
pub use dpm_controller as controller;
pub use dpm_filter as filter;
pub use dpm_meter as meter;
pub use dpm_meterd as meterd;
pub use dpm_simnet as simnet;
pub use dpm_simos as simos;
pub use dpm_telemetry as telemetry;
pub use dpm_workloads as workloads;

pub use dpm_analysis::Analysis;
pub use dpm_controller::{Controller, ProcState};
pub use dpm_filter::{Descriptions, FilterEngine, LogRecord, Rules};
pub use dpm_meter::{MeterFlags, MeterMsg, SockName, TermReason};
pub use dpm_simnet::{ClockSpec, NetConfig};
pub use dpm_simos::{Cluster, ClusterConfig, CpuCosts, Pid, Proc, SysError, SysResult, Uid};

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Builder for a ready-to-measure [`Simulation`].
#[derive(Default)]
pub struct SimulationBuilder {
    machines: Vec<(String, Option<ClockSpec>)>,
    net: Option<NetConfig>,
    seed: Option<u64>,
    costs: Option<CpuCosts>,
    meter_buffer: Option<u32>,
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
        for n in names {
            self.machines.push((n.to_owned(), None));
        }
        self
    }

    /// Adds one machine with an explicit clock.
    pub fn machine_with_clock(mut self, name: &str, spec: ClockSpec) -> Self {
        self.machines.push((name.to_owned(), Some(spec)));
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

    /// Sets the virtual CPU cost model.
    pub fn costs(mut self, costs: CpuCosts) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Sets the kernel meter-buffer flush threshold.
    pub fn meter_buffer(mut self, msgs: u32) -> Self {
        self.meter_buffer = Some(msgs);
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
        if let Some(costs) = self.costs {
            b = b.costs(costs);
        }
        if let Some(m) = self.meter_buffer {
            b = b.meter_buffer(m);
        }
        if let Some(inj) = self.injector {
            b = b.fault_injector(inj);
        }
        for (name, spec) in &self.machines {
            b = match spec {
                Some(s) => b.machine_with_clock(name, *s),
                None => b.machine(name),
            };
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

    /// A four-machine default (`yellow red green blue`), LAN network.
    pub fn standard() -> Simulation {
        Simulation::builder()
            .machines(["yellow", "red", "green", "blue"])
            .build()
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

    /// Retrieves a filter's trace once it has *stabilized*: meter
    /// buffers flush and filter processes append asynchronously, so
    /// the log is fetched repeatedly until two reads a moment apart
    /// agree (or a few seconds pass).
    pub fn stable_log(&self, control: &mut Controller, filter: &str) -> String {
        let dest = format!("/tmp/getlog.{filter}");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut last: Option<Vec<u8>> = None;
        loop {
            control.exec(&format!("getlog {filter} {dest}"));
            let now = self.local_file(control, &dest).unwrap_or_default();
            let stable = !now.is_empty() && last.as_deref() == Some(&now[..]);
            if stable || std::time::Instant::now() > deadline {
                return String::from_utf8_lossy(&now).into_owned();
            }
            last = Some(now);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// Retrieves and analyzes the trace of a filter in one step:
    /// stabilized `getlog` through the controller, then every
    /// analysis.
    pub fn analyze_log(&self, control: &mut Controller, filter: &str) -> Analysis {
        let text = self.stable_log(control, filter);
        Analysis::of_log(&text)
    }

    /// Kills every process and joins all threads.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}
