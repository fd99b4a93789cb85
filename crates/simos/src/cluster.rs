//! The simulated cluster: machines, network, programs, global time.
//!
//! A [`Cluster`] stands in for the paper's set of VAXen on a LAN. It
//! owns the hidden global clock, the host registry, the network
//! behaviour model, wire statistics, the *program registry* (the
//! simulation's "executable files"), and the machines themselves.

use crate::error::{SysError, SysResult};
use crate::machine::Machine;
use crate::process::{Pid, Uid};
use crate::syscall::Proc;
use dpm_simnet::{
    ClockSpec, DgramFault, Fate, FaultInjector, GlobalTime, HostId, HostRegistry, LatencyModel,
    NetConfig, NoFaults, WireStats,
};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual CPU cost, in microseconds, of the kernel's operations.
///
/// These drive the *virtual-time* results of the overhead experiments
/// (E1/E2): a metered system call costs `syscall_us + meter_event_us`,
/// plus `meter_flush_us` whenever the buffer is flushed. The defaults
/// are loosely scaled to a VAX-11/780 (a system call on the order of
/// 100–200 µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// Base cost of any system call.
    pub syscall_us: u64,
    /// Extra cost of generating one meter message.
    pub meter_event_us: u64,
    /// Extra cost of flushing the meter buffer to the filter.
    pub meter_flush_us: u64,
}

impl Default for CpuCosts {
    fn default() -> CpuCosts {
        CpuCosts {
            syscall_us: 150,
            meter_event_us: 20,
            meter_flush_us: 100,
        }
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Network behaviour.
    pub net: NetConfig,
    /// Seed for all randomness (latency, loss, clock skew defaults).
    pub seed: u64,
    /// Virtual CPU costs.
    pub costs: CpuCosts,
    /// Meter messages buffered in the kernel before a flush. 1 is
    /// equivalent to `M_IMMEDIATE` for every process. "The default is
    /// to buffer several messages so that the number of meter messages
    /// is considerably smaller than the number of messages sent by the
    /// metered process." (§4.1)
    pub meter_buffer_msgs: u32,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            net: NetConfig::lan(),
            seed: 42,
            costs: CpuCosts::default(),
            meter_buffer_msgs: 8,
        }
    }
}

/// A registered program body: the simulation's "executable".
///
/// The process's thread runs this function; returning `Ok(())` is a
/// normal exit, returning an error (in particular [`SysError::Killed`]
/// after a kill signal) terminates the process abnormally.
pub(crate) type ProgramFn = Arc<dyn Fn(Proc, Vec<String>) -> SysResult<()> + Send + Sync>;

/// Builder for a [`Cluster`].
///
/// # Example
///
/// ```
/// use dpm_simos::Cluster;
/// use dpm_simnet::NetConfig;
///
/// let cluster = Cluster::builder()
///     .net(NetConfig::ideal())
///     .seed(7)
///     .machine("red")
///     .machine("green")
///     .build();
/// assert_eq!(cluster.machines().len(), 2);
/// ```
#[derive(Default)]
pub struct ClusterBuilder {
    config: ClusterConfig,
    machines: Vec<(String, Option<ClockSpec>)>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl ClusterBuilder {
    /// Sets the network configuration.
    pub fn net(mut self, net: NetConfig) -> ClusterBuilder {
        self.config.net = net;
        self
    }

    /// Sets the randomness seed.
    pub fn seed(mut self, seed: u64) -> ClusterBuilder {
        self.config.seed = seed;
        self
    }

    /// Sets the virtual CPU cost model.
    pub fn costs(mut self, costs: CpuCosts) -> ClusterBuilder {
        self.config.costs = costs;
        self
    }

    /// Sets the kernel meter-buffer threshold (messages per flush).
    ///
    /// # Panics
    ///
    /// Panics if `msgs` is zero; buffering at least one message is
    /// required (one means flush-every-event).
    pub fn meter_buffer(mut self, msgs: u32) -> ClusterBuilder {
        assert!(msgs > 0, "meter buffer must hold at least one message");
        self.config.meter_buffer_msgs = msgs;
        self
    }

    /// Installs a fault injector consulted by the delivery paths
    /// (datagram fate, stream delay, connection admission, meter-flush
    /// duplication). Without one the cluster uses
    /// [`NoFaults`] and behaves exactly as an
    /// un-instrumented build.
    pub fn fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> ClusterBuilder {
        self.injector = Some(injector);
        self
    }

    /// Adds a machine with a default (seed-derived) clock: a boot
    /// offset up to two seconds and a skew up to ±200 ppm.
    pub fn machine(self, name: &str) -> ClusterBuilder {
        self.machine_entry(name, None)
    }

    /// Adds a machine with an explicit clock specification.
    pub fn machine_with_clock(self, name: &str, spec: ClockSpec) -> ClusterBuilder {
        self.machine_entry(name, Some(spec))
    }

    fn machine_entry(mut self, name: &str, spec: Option<ClockSpec>) -> ClusterBuilder {
        self.machines.push((name.to_owned(), spec));
        self
    }

    /// Builds the cluster.
    ///
    /// # Panics
    ///
    /// Panics if no machines were added, if a machine name repeats, or
    /// if the network configuration is invalid.
    pub fn build(self) -> Arc<Cluster> {
        assert!(!self.machines.is_empty(), "a cluster needs machines");
        let global = Arc::new(GlobalTime::new());
        let mut registry = HostRegistry::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5f5f_5f5f);
        let latency = self.config.net.latency_model(self.config.seed);
        let cluster = Arc::new(Cluster {
            global: global.clone(),
            latency: Mutex::new(latency),
            stats: WireStats::new(),
            programs: RwLock::new(HashMap::new()),
            machines: RwLock::new(Vec::new()),
            registry: RwLock::new(HostRegistry::new()),
            next_pid: AtomicU32::new(2117),
            next_internal: AtomicU64::new(1),
            injector: self.injector.unwrap_or_else(|| Arc::new(NoFaults)),
            config: self.config,
        });
        let mut machines = Vec::new();
        for (name, spec) in &self.machines {
            let before = registry.len();
            let id = registry.register(name);
            assert_eq!(registry.len(), before + 1, "duplicate machine name {name}");
            let spec = spec.unwrap_or(ClockSpec {
                offset_us: rng.gen_range(0..2_000_000),
                skew_ppm: rng.gen_range(-200..=200),
            });
            machines.push(Machine::new(
                id,
                name.clone(),
                global.clone(),
                spec,
                &cluster,
            ));
        }
        *cluster.registry.write() = registry;
        *cluster.machines.write() = machines;
        cluster
    }
}

/// The simulated multi-machine environment.
pub struct Cluster {
    pub(crate) global: Arc<GlobalTime>,
    pub(crate) latency: Mutex<LatencyModel>,
    pub(crate) stats: WireStats,
    programs: RwLock<HashMap<String, ProgramFn>>,
    machines: RwLock<Vec<Arc<Machine>>>,
    registry: RwLock<HostRegistry>,
    next_pid: AtomicU32,
    next_internal: AtomicU64,
    pub(crate) injector: Arc<dyn FaultInjector>,
    pub(crate) config: ClusterConfig,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("machines", &self.machines.read().len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The cluster's configuration.
    pub(crate) fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The hidden global clock (not observable by simulated programs;
    /// exposed for test harnesses and benches).
    pub fn global_time(&self) -> &Arc<GlobalTime> {
        &self.global
    }

    /// Wire-level statistics.
    pub fn wire_stats(&self) -> &WireStats {
        &self.stats
    }

    /// All machines, in registration order.
    pub fn machines(&self) -> Vec<Arc<Machine>> {
        self.machines.read().clone()
    }

    /// Looks up a machine by host id.
    pub(crate) fn machine_by_id(&self, id: HostId) -> Option<Arc<Machine>> {
        self.machines.read().get(id.0 as usize).cloned()
    }

    /// Looks up a machine by literal host name.
    pub fn machine(&self, name: &str) -> Option<Arc<Machine>> {
        let id = self.registry.read().lookup(name)?;
        self.machine_by_id(id)
    }

    /// Resolves a host name, as processes do when constructing socket
    /// names from a literal host name plus port (§3.5.4).
    ///
    /// # Errors
    ///
    /// Returns [`SysError::Enoent`] for an unknown host.
    pub fn resolve_host(&self, name: &str) -> SysResult<HostId> {
        self.registry.read().lookup(name).ok_or(SysError::Enoent)
    }

    /// Registers a program under a name; the simulation's way of
    /// installing an executable. Program *files* on each machine's
    /// file system contain `program:<name>` and are created with
    /// [`Cluster::install_program_file`].
    pub fn register_program<F>(&self, name: &str, f: F)
    where
        F: Fn(Proc, Vec<String>) -> SysResult<()> + Send + Sync + 'static,
    {
        self.programs.write().insert(name.to_owned(), Arc::new(f));
    }

    /// Looks up a registered program.
    pub(crate) fn program(&self, name: &str) -> Option<ProgramFn> {
        self.programs.read().get(name).cloned()
    }

    /// Writes an executable file at `path` on `machine` referring to
    /// the registered program `program`. Returns `false` if the
    /// machine does not exist.
    pub fn install_program_file(&self, machine: &str, path: &str, program: &str) -> bool {
        match self.machine(machine) {
            Some(m) => {
                m.fs()
                    .write(path, format!("program:{program}").into_bytes());
                true
            }
            None => false,
        }
    }

    /// Allocates a cluster-unique pid.
    pub(crate) fn alloc_pid(&self) -> Pid {
        Pid(self.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a cluster-unique internally-generated socket name id
    /// (for socketpairs and auto-bound UNIX-domain sockets).
    pub(crate) fn alloc_internal(&self) -> u64 {
        self.next_internal.fetch_add(1, Ordering::Relaxed)
    }

    /// Samples a one-way latency between two hosts.
    pub(crate) fn sample_latency(&self, src: HostId, dst: HostId) -> u64 {
        self.latency.lock().sample_us(src, dst)
    }

    /// Decides a datagram's fate between two hosts.
    pub(crate) fn datagram_fate(&self, src: HostId, dst: HostId) -> Fate {
        self.latency.lock().datagram_fate(src, dst)
    }

    /// The installed fault injector ([`NoFaults`] when none was set).
    pub fn fault_injector(&self) -> &Arc<dyn FaultInjector> {
        &self.injector
    }

    /// Resolves one datagram send into a list of delivery latencies:
    /// empty means the datagram is lost, two entries mean it was
    /// duplicated. The fault injector is consulted first; only a
    /// [`DgramFault::Pass`] falls through to the random latency model.
    pub(crate) fn datagram_deliveries(&self, src: HostId, dst: HostId, now_us: u64) -> Vec<u64> {
        match self.injector.dgram_fault(src, dst, now_us) {
            DgramFault::Drop => Vec::new(),
            DgramFault::Duplicate { extra_us } => {
                let latency = self.sample_latency(src, dst);
                // The duplicate trails the original by at least 1 µs so
                // the copies are distinguishable in delivery order.
                vec![latency, latency + extra_us.max(1)]
            }
            DgramFault::Delay { extra_us } => vec![self.sample_latency(src, dst) + extra_us],
            DgramFault::Pass => match self.datagram_fate(src, dst) {
                Fate::Deliver { latency_us } => vec![latency_us],
                Fate::Lost => Vec::new(),
            },
        }
    }

    /// Extra stream-segment delay injected between two hosts (a healed
    /// partition releases delayed bytes; streams stay reliable).
    pub(crate) fn stream_extra(&self, src: HostId, dst: HostId, now_us: u64) -> u64 {
        self.injector.stream_extra_us(src, dst, now_us)
    }

    /// Whether a new cross-machine connection is refused by an injected
    /// partition.
    pub(crate) fn connect_blocked(&self, src: HostId, dst: HostId, now_us: u64) -> bool {
        self.injector.connect_blocked(src, dst, now_us)
    }

    /// Whether a meter flush should be delivered twice (at-least-once
    /// retransmission).
    pub(crate) fn dup_meter_flush(&self, src: HostId, dst: HostId, now_us: u64) -> bool {
        self.injector.duplicate_meter_flush(src, dst, now_us)
    }

    /// Kills every process on every machine and joins their threads.
    /// Call at the end of a session for a clean shutdown; the `die`
    /// command of the controller does this for its own processes
    /// first.
    pub fn shutdown(&self) {
        for m in self.machines() {
            m.kill_all();
        }
        for m in self.machines() {
            m.join_all();
        }
    }

    /// Convenience for tests and benches: spawns a host-driven process
    /// on `machine` running `body`, already in the running state.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::Enoent`] if the machine does not exist.
    pub fn spawn_user<F>(
        self: &Arc<Cluster>,
        machine: &str,
        name: &str,
        uid: Uid,
        body: F,
    ) -> SysResult<Pid>
    where
        F: FnOnce(Proc) -> SysResult<()> + Send + 'static,
    {
        let m = self.machine(machine).ok_or(SysError::Enoent)?;
        Ok(m.spawn_fn(name, uid, None, true, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_creates_machines_with_ids_in_order() {
        let c = Cluster::builder()
            .net(NetConfig::ideal())
            .machine("red")
            .machine("green")
            .machine("blue")
            .build();
        assert_eq!(c.machines().len(), 3);
        assert_eq!(c.machine("green").unwrap().id(), HostId(1));
        assert_eq!(c.resolve_host("blue").unwrap(), HostId(2));
        assert_eq!(c.resolve_host("mauve"), Err(SysError::Enoent));
    }

    #[test]
    #[should_panic(expected = "duplicate machine name")]
    fn duplicate_machine_names_panic() {
        let _ = Cluster::builder().machine("red").machine("red").build();
    }

    #[test]
    #[should_panic(expected = "needs machines")]
    fn empty_cluster_panics() {
        let _ = Cluster::builder().build();
    }

    #[test]
    fn program_registry_and_files() {
        let c = Cluster::builder().machine("red").build();
        c.register_program("hello", |_proc, _args| Ok(()));
        assert!(c.program("hello").is_some());
        assert!(c.program("other").is_none());
        assert!(c.install_program_file("red", "/bin/hello", "hello"));
        assert!(!c.install_program_file("nope", "/bin/hello", "hello"));
        let m = c.machine("red").unwrap();
        assert_eq!(m.fs().read_string("/bin/hello").unwrap(), "program:hello");
    }

    #[test]
    fn pids_are_unique_and_start_like_the_transcript() {
        let c = Cluster::builder().machine("red").build();
        let a = c.alloc_pid();
        let b = c.alloc_pid();
        assert_eq!(a, Pid(2117));
        assert_eq!(b, Pid(2118));
    }

    #[test]
    fn explicit_clock_spec_is_respected() {
        let spec = ClockSpec {
            offset_us: 5_000_000,
            skew_ppm: 0,
        };
        let c = Cluster::builder().machine_with_clock("red", spec).build();
        let m = c.machine("red").unwrap();
        assert_eq!(m.clock().spec(), spec);
        assert_eq!(m.clock().now_ms(), 5000);
    }
}
