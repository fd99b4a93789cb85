//! The control process.
//!
//! "The task of organizing the parts of the measurement system and
//! providing a control interface to the user is performed by the
//! control process (or controller). … The controller is a command
//! interpreter. It provides the user with a concise menu of commands
//! to use in the measurement and control of one or more distributed
//! computations." (§3.3)
//!
//! [`Controller::exec`] interprets one command line and returns the
//! text a user at the terminal would see; the Appendix-B transcript is
//! reproduced by the `quickstart` example. The controller itself runs
//! as a process inside the simulation (so all its communication goes
//! over simulated IPC through the meterdaemons), driven from the host.

use crate::job::{Job, ManagedProc, ProcAction, ProcState};
use dpm_analysis::{ByzReport, MutexReport, Trace};
use dpm_controlplane::{ControlEvent, ControlLog, JobTable, DEFAULT_LEASE_MS};
use dpm_filter::{ArgsError, Descriptions, FilterArgs, FilterRole, KeptRecord, Rules, Verdict};
use dpm_live::{LiveWatch, WindowSnapshot};
use dpm_logstore::{seals_name, Backend, OwnedFrame, StoreReader, StoreSource, StoreTail};
use dpm_meter::MeterFlags;
use dpm_meterd::{read_frame, rpc_call_retry, Reply, Request, RpcStatus, RPC_TIMEOUT_MS};
use dpm_simos::{Backoff, BindTo, Cluster, Domain, Pid, Proc, SockType, SysError, SysResult, Uid};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;

/// Maximum nesting depth of `source` scripts (§4.3).
const MAX_SOURCE_DEPTH: usize = 16;

/// A filter process the controller created.
#[derive(Debug, Clone)]
pub struct FilterInfo {
    /// Controller-local name (`f1`).
    pub name: String,
    /// Machine it runs on.
    pub machine: String,
    /// Its pid.
    pub pid: Pid,
    /// The description it was created from: the port metered
    /// processes' meter connections go to, its log path (the prefix
    /// its store's segment files live under), shard count, place in
    /// the filter tree and upstream `host:port`.
    pub spec: FilterArgs,
    /// The descriptions it filters with — kept so `getlog` can render
    /// store frames as text without re-fetching the file.
    pub desc: Descriptions,
    /// The templates it filters with — kept so that rendering applies
    /// the same `#` reduction (Fig. 3.4) the filter selected with.
    pub rules: Rules,
}

impl FilterInfo {
    /// Appends `indent` and the §3.4 line of one stored record to
    /// `out`: the one place the store is turned into text, so reduction
    /// is applied identically wherever text is shown.
    fn render_line(&self, indent: &str, raw: &[u8], out: &mut String) {
        // The filter kept `raw` under these same rules, so `Reject`
        // cannot occur; were it to, show the record unreduced rather
        // than drop it.
        let discard = match self.rules.verdict(&self.desc, raw) {
            Verdict::Keep { discard_fields } => discard_fields,
            Verdict::Reject => Vec::new(),
        };
        if let Some(rec) = KeptRecord::new(&self.desc, raw, &discard) {
            writeln!(out, "{indent}{rec}").expect("write to String");
        }
    }
}

/// Live-streaming state the controller keeps per watched filter:
/// byte cursors into the filter's store segments, the incremental
/// trace they feed, and how much of the seal manifest has been shown.
/// `watch` and `tail` share this, so however the user mixes them every
/// stored frame reaches the live trace exactly once.
struct WatchState {
    tail: StoreTail,
    watch: LiveWatch,
    /// Seal-manifest lines already echoed to the transcript.
    seal_lines: usize,
    /// The most recently closed window, for programmatic callers.
    last: Option<WindowSnapshot>,
}

/// The files of one machine (named by the second field) as its
/// meterdaemon serves them: the [`StoreSource`] through which the
/// controller reads a filter's store with the same `load`/`poll` a
/// local reader uses. An unreachable daemon reads as an empty machine.
struct RemoteFiles<'a>(&'a Controller, &'a str);

impl StoreSource for RemoteFiles<'_> {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.0.get_file(self.1, name)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let req = Request::ListFiles {
            prefix: prefix.to_owned(),
        };
        match self.0.rpc(self.1, &req) {
            Ok(Reply::FileList {
                status: RpcStatus::Ok,
                names,
            }) => names,
            _ => Vec::new(),
        }
    }
}

/// The interactive measurement-session controller.
pub struct Controller {
    proc: Proc,
    cluster: Arc<Cluster>,
    machine: String,
    control_port: u16,
    jobs: HashMap<String, Job>,
    job_order: Vec<String>,
    filters: Vec<FilterInfo>,
    /// Per-filter live streaming state, keyed by filter name.
    watches: HashMap<String, WatchState>,
    next_filter_port: u16,
    notifications: Arc<Mutex<VecDeque<Request>>>,
    /// Stack of `sink` output files (top active); empty = terminal.
    sinks: Vec<String>,
    /// Full terminal transcript of the session.
    transcript: String,
    /// Armed after a first `die` with active processes.
    die_armed: bool,
    /// Signals the parked controller-process body to exit.
    quit_tx: Option<mpsc::Sender<()>>,
    done: bool,
    /// The durable control log, when control-plane replication is
    /// enabled: every state mutation this controller performs is
    /// appended, so a standby can reconstruct and adopt the session.
    control_log: Option<ControlLog>,
    /// Expiry (µs, simulated time) of the lease this controller holds
    /// on each job it owns through the control log.
    leases: HashMap<String, u64>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("machine", &self.machine)
            .field("jobs", &self.job_order)
            .field("filters", &self.filters.len())
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Starts a controller on `machine` for user `uid`. Spawns the
    /// control process, binds its notification socket on
    /// `control_port`, and forks the listener that receives daemon-
    /// initiated state-change and I/O messages.
    ///
    /// # Errors
    ///
    /// `ENOENT` for an unknown machine; socket errors propagate.
    pub fn start(
        cluster: &Arc<Cluster>,
        machine: &str,
        uid: Uid,
        control_port: u16,
    ) -> SysResult<Controller> {
        let m = cluster.machine(machine).ok_or(SysError::Enoent)?;
        let (quit_tx, quit_rx) = mpsc::channel::<()>();
        let (proc_tx, proc_rx) = mpsc::channel::<Proc>();
        m.spawn_fn("control", uid, None, true, move |p| {
            proc_tx.send(p.clone()).expect("hand proc to host");
            // Park until the session ends; the host drives this
            // process's system calls through the cloned handle. Poll
            // so a cluster-wide kill still terminates the session.
            loop {
                match quit_rx.recv_timeout(std::time::Duration::from_millis(20)) {
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // A zero-length sleep notices a pending kill.
                        p.sleep_ms(0)?;
                    }
                }
            }
        });
        let proc = proc_rx.recv().expect("controller proc");
        let notifications: Arc<Mutex<VecDeque<Request>>> = Arc::new(Mutex::new(VecDeque::new()));

        // "A controller maintains an IPC socket for the purpose of
        // establishing connections for state change reports. It
        // listens to this socket to detect messages arriving from
        // meterdaemons." (§3.5.1)
        let ns = proc.socket(Domain::Inet, SockType::Stream)?;
        proc.bind(ns, BindTo::Port(control_port))?;
        proc.listen(ns, 32)?;
        let sink = notifications.clone();
        proc.fork_with(move |lp| loop {
            let (conn, _) = lp.accept(ns)?;
            while let Some(frame) = read_frame(&lp, conn)? {
                if let Ok(req) = Request::decode(&frame) {
                    sink.lock().push_back(req);
                }
            }
            lp.close(conn)?;
        })?;

        Ok(Controller {
            proc,
            cluster: cluster.clone(),
            machine: machine.to_owned(),
            control_port,
            jobs: HashMap::new(),
            job_order: Vec::new(),
            filters: Vec::new(),
            watches: HashMap::new(),
            next_filter_port: 4000,
            notifications,
            sinks: Vec::new(),
            transcript: String::new(),
            die_armed: false,
            quit_tx: Some(quit_tx),
            done: false,
            control_log: None,
            leases: HashMap::new(),
        })
    }

    /// The machine this controller runs on.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// The full terminal transcript so far (prompts, commands,
    /// outputs, notifications).
    pub fn transcript(&self) -> &str {
        &self.transcript
    }

    /// Whether `die` has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The filters created so far.
    pub fn filters(&self) -> &[FilterInfo] {
        &self.filters
    }

    /// The current state of a job's processes, for assertions in
    /// tests and examples.
    pub fn job(&self, name: &str) -> Option<&Job> {
        self.jobs.get(name)
    }

    // ------------------------------------------------------------------
    // Output plumbing
    // ------------------------------------------------------------------

    fn emit(&mut self, text: &str) {
        if let Some(path) = self.sinks.last() {
            // "Sink provides a way for the output of commands to be
            // written to a file instead of to the terminal." (§4.3)
            let mut data = text.as_bytes().to_vec();
            data.push(b'\n');
            let path = path.clone();
            self.proc.machine().fs().append(&path, &data);
        } else {
            self.transcript.push_str(text);
            self.transcript.push('\n');
        }
    }

    // ------------------------------------------------------------------
    // Notifications
    // ------------------------------------------------------------------

    /// Drains pending daemon notifications into the transcript,
    /// updating process states. Returns the lines produced.
    pub fn pump(&mut self) -> Vec<String> {
        let pending: Vec<Request> = {
            let mut q = self.notifications.lock();
            q.drain(..).collect()
        };
        let mut lines = Vec::new();
        let mut events = Vec::new();
        for n in pending {
            match n {
                Request::StateChange { pid, state } => {
                    let mut hit = None;
                    for jname in &self.job_order {
                        if let Some(j) = self.jobs.get_mut(jname) {
                            if let Some(p) = j.procs.iter_mut().find(|p| p.pid == pid) {
                                if p.state == ProcState::Killed {
                                    // Already learned (a resync beat
                                    // the notification, or the daemon
                                    // retransmitted); don't re-announce.
                                    break;
                                }
                                if let Some(next) = p.state.next(ProcAction::Complete) {
                                    p.state = next;
                                } else {
                                    p.state = ProcState::Killed;
                                }
                                hit = Some((jname.clone(), p.name.clone()));
                                events.push(ControlEvent::ProcStateChanged {
                                    job: jname.clone(),
                                    machine: p.machine.clone(),
                                    pid: pid.0,
                                    state: p.state.to_string(),
                                });
                                break;
                            }
                        }
                    }
                    if let Some((job, name)) = hit {
                        let reason = if state == 0 { "normal" } else { "killed" };
                        lines.push(format!(
                            "DONE: process {name} in job '{job}' terminated: reason: {reason}"
                        ));
                    }
                }
                Request::IoData { pid, data } => {
                    let name = self
                        .job_order
                        .iter()
                        .filter_map(|j| self.jobs.get(j))
                        .flat_map(|j| j.procs.iter())
                        .find(|p| p.pid == pid)
                        .map(|p| p.name.clone())
                        .unwrap_or_else(|| pid.to_string());
                    let text = String::from_utf8_lossy(&data);
                    for l in text.lines() {
                        lines.push(format!("{name}> {l}"));
                    }
                }
                _ => {}
            }
        }
        for ev in events {
            self.record(ev);
        }
        for l in &lines {
            self.emit(l);
        }
        lines
    }

    /// Pumps notifications until every process of `job` has
    /// terminated (or is merely acquired), or `timeout_ms` of real
    /// time passes. Returns `true` when the job completed.
    ///
    /// Termination normally arrives as a daemon-initiated state-change
    /// message, but that message is lost if the daemon dies between a
    /// process's exit and the report. While waiting, the controller
    /// therefore periodically *resyncs*: it queries each non-terminal
    /// process's daemon directly and applies any terminal state it
    /// learns, so a job still converges after a daemon crash/restart.
    pub fn wait_job(&mut self, job: &str, timeout_ms: u64) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        let mut ticks = 0u32;
        loop {
            self.pump();
            self.renew_lease_if_due(job);
            match self.jobs.get(job) {
                None => return false,
                Some(j) => {
                    if j.procs
                        .iter()
                        .all(|p| matches!(p.state, ProcState::Killed | ProcState::Acquired))
                    {
                        return true;
                    }
                }
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            ticks += 1;
            if ticks.is_multiple_of(50) {
                self.resync_job(job);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Queries the daemons for the current state of a job's
    /// non-terminal processes and applies what it learns, recovering
    /// terminations whose notification never arrived.
    fn resync_job(&mut self, job: &str) {
        let targets: Vec<(String, String, Pid)> = match self.jobs.get(job) {
            Some(j) => j
                .procs
                .iter()
                .filter(|p| !matches!(p.state, ProcState::Killed | ProcState::Acquired))
                .map(|p| (p.name.clone(), p.machine.clone(), p.pid))
                .collect(),
            None => return,
        };
        for (name, machine, pid) in targets {
            let reason = match self.rpc(&machine, &Request::QueryProc { pid }) {
                Ok(Reply::ProcStatus {
                    status: RpcStatus::Ok,
                    state: 0,
                }) => Some("normal"),
                Ok(Reply::ProcStatus {
                    status: RpcStatus::Ok,
                    state: 1,
                }) => Some("killed"),
                // The machine no longer knows the pid: the process
                // terminated and its zombie was already reaped.
                Ok(Reply::ProcStatus {
                    status: RpcStatus::Srch,
                    ..
                }) => Some("normal"),
                _ => None,
            };
            let Some(reason) = reason else { continue };
            let mut changed = None;
            if let Some(p) = self
                .jobs
                .get_mut(job)
                .and_then(|j| j.procs.iter_mut().find(|p| p.pid == pid))
            {
                p.state = p
                    .state
                    .next(ProcAction::Complete)
                    .unwrap_or(ProcState::Killed);
                changed = Some(p.state.to_string());
            }
            if let Some(state) = changed {
                self.record(ControlEvent::ProcStateChanged {
                    job: job.to_owned(),
                    machine: machine.clone(),
                    pid: pid.0,
                    state,
                });
            }
            self.emit(&format!(
                "DONE: process {name} in job '{job}' terminated: reason: {reason} (resync)"
            ));
        }
    }

    // ------------------------------------------------------------------
    // Command interpreter
    // ------------------------------------------------------------------

    /// Executes one command line, echoing it and its output into the
    /// transcript; returns the output lines (not including the echoed
    /// prompt).
    pub fn exec(&mut self, line: &str) -> String {
        self.exec_depth(line, 0)
    }

    fn exec_depth(&mut self, line: &str, depth: usize) -> String {
        self.pump();
        let echoed = format!("<Control> {line}");
        if self.sinks.is_empty() {
            self.transcript.push_str(&echoed);
            self.transcript.push('\n');
        }
        let before = self.out_marker();
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return String::new();
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().expect("nonempty");
        let args: Vec<&str> = parts.collect();
        if cmd != "die" && cmd != "bye" && cmd != "exit" {
            self.die_armed = false;
        }
        match cmd {
            "help" => self.cmd_help(),
            "filter" => self.cmd_filter(&args),
            "newjob" => self.cmd_newjob(&args),
            "addprocess" | "add" => self.cmd_addprocess(&args),
            "acquire" => self.cmd_acquire(&args),
            "setflags" => self.cmd_setflags(&args),
            "startjob" => self.cmd_startstop(&args, true),
            "stopjob" => self.cmd_startstop(&args, false),
            "removejob" | "rmjob" => self.cmd_removejob(&args),
            "removeprocess" | "rmproc" => self.cmd_removeprocess(&args),
            "jobs" => self.cmd_jobs(&args),
            "getlog" => self.cmd_getlog(&args),
            "watch" => self.cmd_watch(&args),
            "tail" => self.cmd_tail(&args),
            "check" => self.cmd_check(&args),
            "stats" => self.cmd_stats(&args),
            "source" => self.cmd_source(&args, depth),
            "sink" => self.cmd_sink(&args),
            "input" => self.cmd_input(&args),
            "die" | "bye" | "exit" => self.cmd_die(),
            other => self.emit(&format!("unknown command '{other}'; try help")),
        }
        self.out_since(before)
    }

    fn out_marker(&self) -> usize {
        self.transcript.len()
    }

    fn out_since(&self, marker: usize) -> String {
        self.transcript[marker..].to_owned()
    }

    fn cmd_help(&mut self) {
        self.emit("Commands:");
        self.emit("  filter [<name> [<machine> [<filterfile> [<descriptions> [<templates>]]]] [key=value ...]]");
        self.emit("      keys: file=<filterfile> desc=<descriptions> templates=<templates>");
        self.emit("            shards=<n> role=leaf|edge|aggregate");
        self.emit("            upstream=<filtername|host:port>   (required for role=edge)");
        self.emit("  newjob <jobname> [<filtername>]");
        self.emit("  addprocess <jobname> <machine> <processfile> [<parms ...>] [< <inputfile>]");
        self.emit("  acquire <jobname> <machine> <process identifier>");
        self.emit("  setflags <jobname> <flag1 flag2 ...>   (prefix - to reset)");
        self.emit("  startjob <jobname>      stopjob <jobname>");
        self.emit("  removejob <jobname>     removeprocess <jobname> <process>");
        self.emit("  jobs [<jobname1 jobname2 ...>]");
        self.emit("  getlog <filtername> <destination filename>");
        self.emit("  watch <filtername> [windows=<n>] [interval=<ms>] [anomalies]");
        self.emit("  tail <filtername> [n=<records>]");
        self.emit("  check <filtername> <mutex|byzantine>");
        self.emit("  stats [<component>]   (monitor self-telemetry; e.g. stats e2e)");
        self.emit("  source <filename>       sink [<filename>]");
        self.emit("  input <jobname> <process> <text>");
        self.emit("  die (aliases: exit, bye)");
        self.emit("Meter flags: fork termproc send receivecall receive socket");
        self.emit("             dup destsocket accept connect immediate all");
    }

    /// `filter` — create a filter process, or list filters (§4.3).
    ///
    /// `filter <name> [<machine> [<filterfile> [<descriptions>
    /// [<templates>]]]] [key=value ...]`: the paper's positionals are
    /// shorthand for `file= desc= templates=`, and every `key=value`
    /// goes to the [`FilterArgs`] key table.
    fn cmd_filter(&mut self, args: &[&str]) {
        let Some((name, rest)) = args.split_first() else {
            self.list_filters();
            return;
        };
        if self.filters.iter().any(|f| f.name == *name) {
            self.emit(&format!("filter '{name}' already exists"));
            return;
        }
        let (machine, spec) = match self.describe_filter(name, rest) {
            Ok(described) => described,
            Err(e) => {
                self.emit(&e.to_string());
                return;
            }
        };
        if self.cluster.machine(&machine).is_none() {
            self.emit(&format!("unknown machine '{machine}'"));
            return;
        }
        // Make sure the description/template files exist on the
        // filter's machine: copy the controller's local versions when
        // present, else install the standard ones.
        let local_fs = self.proc.machine().fs();
        let desc_data = local_fs
            .read(&spec.descriptions)
            .unwrap_or_else(|| Descriptions::standard_text().as_bytes().to_vec());
        let tmpl_data = local_fs.read(&spec.templates).unwrap_or_default();
        let desc_text = String::from_utf8_lossy(&desc_data).into_owned();
        let Ok(desc) = Descriptions::parse(&desc_text) else {
            self.emit(&format!(
                "descriptions file '{}' is malformed",
                spec.descriptions
            ));
            return;
        };
        let templates_text = String::from_utf8_lossy(&tmpl_data).into_owned();
        let Ok(rules) = Rules::parse(&templates_text) else {
            self.emit(&format!("templates file '{}' is malformed", spec.templates));
            return;
        };
        for (path, data) in [
            (&spec.descriptions, desc_data),
            (&spec.templates, tmpl_data),
        ] {
            let r = self.rpc(
                &machine,
                &Request::WriteFile {
                    path: path.clone(),
                    data,
                },
            );
            if r.map(|r| r.status()) != Ok(RpcStatus::Ok) {
                self.emit(&format!("cannot install '{path}' on {machine}"));
                return;
            }
        }
        self.next_filter_port += 1;
        let reply = self.rpc(&machine, &Request::CreateFilter { spec: spec.clone() });
        match reply {
            Ok(Reply::Create {
                pid,
                status: RpcStatus::Ok,
            }) => {
                self.record(ControlEvent::FilterCreated {
                    name: (*name).to_owned(),
                    machine: machine.clone(),
                    pid: pid.0,
                    port: spec.port,
                    logfile: spec.logfile.clone(),
                    shards: spec.shards,
                    role: spec.role.to_string(),
                    upstream: spec.upstream.clone(),
                    desc_text,
                    templates_text,
                });
                self.filters.push(FilterInfo {
                    name: (*name).to_owned(),
                    machine,
                    pid,
                    spec,
                    desc,
                    rules,
                });
                self.emit(&format!("filter '{name}' ... created: identifier= {pid}"));
            }
            Ok(r) => self.emit(&format!("filter creation failed: {}", r.status())),
            Err(e) => self.emit(&format!("filter creation failed: {e}")),
        }
    }

    /// Turns what follows `filter <name>` into the machine and the
    /// validated [`FilterArgs`] to request there. The controller adds
    /// only what is its own: the listening port and the log path are
    /// assigned, not typed, so `log=` is the controller's key here
    /// (`store`, what every filter does, is its one value); and
    /// `upstream=` may name a filter of this session.
    fn describe_filter(
        &self,
        name: &str,
        tokens: &[&str],
    ) -> Result<(String, FilterArgs), ArgsError> {
        let mut machine = self.machine.clone();
        let mut spec = FilterArgs::default();
        let mut positional = [None, Some("file"), Some("desc"), Some("templates")].into_iter();
        for token in tokens {
            match token.split_once('=') {
                None => match positional.next() {
                    Some(None) => machine = (*token).to_owned(),
                    Some(Some(key)) => spec.set(key, token)?,
                    None => return Err(ArgsError::new(format!("unexpected argument '{token}'"))),
                },
                Some(("port", _)) => {
                    return Err(ArgsError::new("key 'port' is assigned by the controller"))
                }
                Some(("log", "store")) => {}
                Some(("log", other)) => {
                    return Err(ArgsError::new(format!(
                        "bad value '{other}' for key 'log' (records are kept in the store; getlog renders the text)"
                    )))
                }
                Some(("upstream", parent)) if !parent.contains(':') => {
                    let Some(f) = self.filters.iter().find(|f| f.name == parent) else {
                        return Err(ArgsError::new(format!(
                            "bad value '{parent}' for key 'upstream' (no such filter; use a filter name or host:port)"
                        )));
                    };
                    spec.upstream = format!("{}:{}", f.machine, f.spec.port);
                }
                Some((key, value)) => spec.set(key, value)?,
            }
        }
        spec.port = self.next_filter_port;
        // Edges keep no log — everything they accept is forwarded
        // upstream, so they get no log path.
        if spec.role != FilterRole::Edge {
            spec.logfile = format!("/usr/tmp/log.{name}");
        }
        spec.validate()?;
        Ok((machine, spec))
    }

    /// Bare `filter`: one line per filter created so far.
    fn list_filters(&mut self) {
        if self.filters.is_empty() {
            self.emit("no filters");
        }
        let lines: Vec<String> = self
            .filters
            .iter()
            .map(|f| {
                let mut line = format!(
                    "{}  pid {}  machine {}  port {}",
                    f.name, f.pid, f.machine, f.spec.port
                );
                if f.spec.role != FilterRole::Leaf {
                    line.push_str(&format!("  role={}", f.spec.role));
                }
                if !f.spec.upstream.is_empty() {
                    line.push_str(&format!("  upstream={}", f.spec.upstream));
                }
                line
            })
            .collect();
        for l in lines {
            self.emit(&l);
        }
    }

    /// `newjob <jobname> [<filtername>]` (§4.3).
    fn cmd_newjob(&mut self, args: &[&str]) {
        let Some(name) = args.first() else {
            self.emit("usage: newjob <jobname> [<filtername>]");
            return;
        };
        if self.jobs.contains_key(*name) {
            self.emit(&format!("job '{name}' already exists"));
            return;
        }
        // "A job cannot be created if a filter has not been created."
        let filter = match args.get(1) {
            Some(f) => {
                if !self.filters.iter().any(|x| x.name == **f) {
                    self.emit(&format!("no filter named '{f}'"));
                    return;
                }
                (*f).to_owned()
            }
            None => match self.filters.first() {
                Some(f) => f.name.clone(),
                None => {
                    self.emit("a job cannot be created before a filter exists");
                    return;
                }
            },
        };
        self.jobs
            .insert((*name).to_owned(), Job::new(*name, filter.clone()));
        self.job_order.push((*name).to_owned());
        self.record(ControlEvent::JobCreated {
            job: (*name).to_owned(),
            filter,
        });
        self.acquire_lease(name);
    }

    /// `addprocess <jobname> <machine> <processfile> [parms...]`
    /// (§4.3). Copies the executable to the target machine when it is
    /// only present locally (§3.5.3's `rcp`).
    fn cmd_addprocess(&mut self, args: &[&str]) {
        let (Some(job_name), Some(machine), Some(file)) = (args.first(), args.get(1), args.get(2))
        else {
            self.emit("usage: addprocess <jobname> <machine> <processfile> [<parms>]");
            return;
        };
        let job_name = (*job_name).to_owned();
        let machine = (*machine).to_owned();
        let file = (*file).to_owned();
        // `addprocess job machine file parms... < inputfile` redirects
        // the process's standard input from a file (§3.5.2).
        let rest: Vec<String> = args[3..].iter().map(|s| (*s).to_owned()).collect();
        let (params, stdin_file) = match rest.iter().position(|t| t == "<") {
            Some(pos) => {
                let Some(f) = rest.get(pos + 1) else {
                    self.emit("usage: addprocess ... < <inputfile>");
                    return;
                };
                (rest[..pos].to_vec(), Some(f.clone()))
            }
            None => (rest, None),
        };
        let Some((filter_host, filter_port, flags)) = self.job_meter_target(&job_name) else {
            return;
        };
        if self.cluster.machine(&machine).is_none() {
            self.emit(&format!("unknown machine '{machine}'"));
            return;
        }
        // rcp: probe each needed remote file; copy ours when missing
        // there (§3.5.3 for the binary, §3.5.2 for a redirected
        // standard-input file).
        let mut needed = vec![file.clone()];
        needed.extend(stdin_file.clone());
        for path in &needed {
            if self.get_file(&machine, path).is_some() {
                continue;
            }
            match self.proc.machine().fs().read(path) {
                Some(data) => {
                    let r = self.rpc(
                        &machine,
                        &Request::WriteFile {
                            path: path.clone(),
                            data,
                        },
                    );
                    if r.map(|r| r.status()) != Ok(RpcStatus::Ok) {
                        self.emit(&format!("cannot copy '{path}' to {machine}"));
                        return;
                    }
                }
                None => {
                    self.emit(&format!("'{path}' not found locally or on {machine}"));
                    return;
                }
            }
        }
        let control_host = self.machine.clone();
        let control_port = self.control_port;
        let reply = self.rpc(
            &machine,
            &Request::Create {
                filename: file.clone(),
                params,
                filter_port,
                filter_host,
                meter_flags: flags,
                control_port,
                control_host,
                redirect_io: true,
                stdin_file,
            },
        );
        match reply {
            Ok(Reply::Create {
                pid,
                status: RpcStatus::Ok,
            }) => {
                let display = file.rsplit('/').next().unwrap_or(&file).to_owned();
                let job = self.jobs.get_mut(&job_name).expect("job exists");
                job.procs.push(ManagedProc {
                    name: display.clone(),
                    machine: machine.clone(),
                    pid,
                    state: ProcState::New,
                });
                self.record(ControlEvent::ProcAdded {
                    job: job_name.clone(),
                    name: display.clone(),
                    machine,
                    pid: pid.0,
                    state: ProcState::New.to_string(),
                });
                self.emit(&format!(
                    "process '{display}' ... created: identifier= {pid}"
                ));
            }
            Ok(r) => self.emit(&format!("process creation failed: {}", r.status())),
            Err(e) => self.emit(&format!("process creation failed: {e}")),
        }
    }

    /// `acquire <jobname> <machine> <pid>` (§4.3).
    fn cmd_acquire(&mut self, args: &[&str]) {
        let (Some(job_name), Some(machine), Some(pid)) = (args.first(), args.get(1), args.get(2))
        else {
            self.emit("usage: acquire <jobname> <machine> <process identifier>");
            return;
        };
        let Ok(pid_num) = pid.parse::<u32>() else {
            self.emit(&format!("bad process identifier '{pid}'"));
            return;
        };
        let Some((filter_host, filter_port, meter_flags)) = self.job_meter_target(job_name) else {
            return;
        };
        let reply = self.rpc(
            machine,
            &Request::Acquire {
                pid: Pid(pid_num),
                filter_port,
                filter_host,
                meter_flags,
                control_port: self.control_port,
                control_host: self.machine.clone(),
            },
        );
        match reply {
            Ok(Reply::Create {
                pid,
                status: RpcStatus::Ok,
            }) => {
                self.register_acquired(job_name, machine, &[pid]);
                self.emit(&format!("process {pid} ... acquired"));
            }
            Ok(r) => self.emit(&format!("acquire failed: {}", r.status())),
            Err(e) => self.emit(&format!("acquire failed: {e}")),
        }
    }

    /// Where a job's processes send their meter records and with which
    /// flags: its filter's machine and port, and the job's flag mask.
    /// Says so and returns `None` when there is no such job.
    fn job_meter_target(&mut self, job_name: &str) -> Option<(String, u16, MeterFlags)> {
        let Some(job) = self.jobs.get(job_name) else {
            self.emit(&format!("no job named '{job_name}'"));
            return None;
        };
        let f = self
            .filters
            .iter()
            .find(|f| f.name == job.filter)
            .expect("job's filter exists");
        Some((f.machine.clone(), f.spec.port, job.flags))
    }

    /// Adds processes a daemon reported acquired to the job table and
    /// the control log.
    fn register_acquired(&mut self, job_name: &str, machine: &str, pids: &[Pid]) {
        for &pid in pids {
            let name = format!("pid{pid}");
            let job = self.jobs.get_mut(job_name).expect("job exists");
            job.procs.push(ManagedProc {
                name: name.clone(),
                machine: machine.to_owned(),
                pid,
                state: ProcState::Acquired,
            });
            self.record(ControlEvent::ProcAdded {
                job: job_name.to_owned(),
                name,
                machine: machine.to_owned(),
                pid: pid.0,
                state: ProcState::Acquired.to_string(),
            });
        }
    }

    /// `setflags <jobname> <flag1 flag2 ...>` (§4.3).
    fn cmd_setflags(&mut self, args: &[&str]) {
        let Some(job_name) = args.first() else {
            self.emit("usage: setflags <jobname> <flag1 flag2 ...>");
            return;
        };
        let job_name = (*job_name).to_owned();
        let Some(job) = self.jobs.get_mut(&job_name) else {
            self.emit(&format!("no job named '{job_name}'"));
            return;
        };
        let flags = match job.apply_flag_args(args[1..].iter().copied()) {
            Ok(f) => f,
            Err(tok) => {
                self.emit(&format!("unknown flag '{tok}'"));
                return;
            }
        };
        self.emit(&format!("new job flags = {flags}"));
        self.record(ControlEvent::FlagsSet {
            job: job_name.clone(),
            flags: flags.bits(),
        });
        let targets: Vec<(String, String, Pid, ProcState)> = self
            .jobs
            .get(&job_name)
            .expect("job exists")
            .procs
            .iter()
            .map(|p| (p.name.clone(), p.machine.clone(), p.pid, p.state))
            .collect();
        for (name, machine, pid, state) in targets {
            if state == ProcState::Killed {
                continue;
            }
            let r = self.rpc(&machine, &Request::SetFlags { pid, flags });
            match r {
                Ok(r) if r.status().is_ok() => {
                    self.emit(&format!("Process '{name}' : Flags set"));
                }
                _ => self.emit(&format!("Process '{name}' : setflags failed")),
            }
        }
    }

    /// `startjob` / `stopjob` (§4.3).
    fn cmd_startstop(&mut self, args: &[&str], start: bool) {
        let Some(job_name) = args.first() else {
            self.emit(if start {
                "usage: startjob <jobname>"
            } else {
                "usage: stopjob <jobname>"
            });
            return;
        };
        let job_name = (*job_name).to_owned();
        if !self.jobs.contains_key(&job_name) {
            self.emit(&format!("no job named '{job_name}'"));
            return;
        }
        let action = if start {
            ProcAction::Start
        } else {
            ProcAction::Stop
        };
        let targets: Vec<(String, String, Pid, ProcState)> = self.jobs[&job_name]
            .procs
            .iter()
            .map(|p| (p.name.clone(), p.machine.clone(), p.pid, p.state))
            .collect();
        for (name, machine, pid, state) in targets {
            match state.next(action) {
                Some(next) => {
                    let req = if start {
                        Request::Start { pid }
                    } else {
                        Request::Stop { pid }
                    };
                    let ok = self.rpc(&machine, &req).map(|r| r.status()) == Ok(RpcStatus::Ok);
                    if ok {
                        if let Some(p) = self
                            .jobs
                            .get_mut(&job_name)
                            .and_then(|j| j.proc_by_name(&name))
                        {
                            p.state = next;
                        }
                        self.record(ControlEvent::ProcStateChanged {
                            job: job_name.clone(),
                            machine: machine.clone(),
                            pid: pid.0,
                            state: next.to_string(),
                        });
                        self.emit(&format!(
                            "'{name}' {}.",
                            if start { "started" } else { "stopped" }
                        ));
                    } else {
                        self.emit(&format!("'{name}' : request failed"));
                    }
                }
                // "Processes that are running, killed, or acquired
                // cannot be started. The user is informed as to the
                // status of each process." / stopjob ignores killed
                // and acquired.
                None => self.emit(&format!(
                    "'{name}' cannot be {} ({state}).",
                    if start { "started" } else { "stopped" }
                )),
            }
        }
    }

    /// `removejob <jobname>` (§4.3).
    fn cmd_removejob(&mut self, args: &[&str]) {
        let Some(job_name) = args.first() else {
            self.emit("usage: removejob <jobname>");
            return;
        };
        let job_name = (*job_name).to_owned();
        let Some(job) = self.jobs.get(&job_name) else {
            self.emit(&format!("no job named '{job_name}'"));
            return;
        };
        if !job.removable() {
            self.emit(&format!(
                "job '{job_name}' has running or new processes; not removed"
            ));
            return;
        }
        let targets: Vec<(String, String, Pid, ProcState)> = job
            .procs
            .iter()
            .map(|p| (p.name.clone(), p.machine.clone(), p.pid, p.state))
            .collect();
        for (name, machine, pid, state) in targets {
            match state {
                ProcState::Stopped => {
                    let _ = self.rpc(&machine, &Request::Kill { pid });
                }
                ProcState::Acquired => {
                    // "The control program insures that the filter
                    // connection of that process is taken down … but
                    // the process continues to execute."
                    let _ = self.rpc(&machine, &Request::ClearMeter { pid });
                }
                _ => {}
            }
            self.emit(&format!("'{name}' removed"));
        }
        self.jobs.remove(&job_name);
        self.job_order.retain(|j| *j != job_name);
        self.record(ControlEvent::JobRemoved {
            job: job_name.clone(),
        });
        self.leases.remove(&job_name);
    }

    /// `removeprocess <jobname> <process>`.
    fn cmd_removeprocess(&mut self, args: &[&str]) {
        let (Some(job_name), Some(proc_name)) = (args.first(), args.get(1)) else {
            self.emit("usage: removeprocess <jobname> <process>");
            return;
        };
        let job_name = (*job_name).to_owned();
        let proc_name = (*proc_name).to_owned();
        let Some(job) = self.jobs.get_mut(&job_name) else {
            self.emit(&format!("no job named '{job_name}'"));
            return;
        };
        let Some(p) = job.proc_by_name(&proc_name) else {
            self.emit(&format!("no process '{proc_name}' in job '{job_name}'"));
            return;
        };
        let (machine, pid, state) = (p.machine.clone(), p.pid, p.state);
        match state {
            ProcState::Killed => {}
            ProcState::Stopped => {
                let _ = self.rpc(&machine, &Request::Kill { pid });
            }
            ProcState::Acquired => {
                let _ = self.rpc(&machine, &Request::ClearMeter { pid });
            }
            ProcState::New | ProcState::Running => {
                self.emit(&format!(
                    "'{proc_name}' is {state}; stop it before removing"
                ));
                return;
            }
        }
        let job = self.jobs.get_mut(&job_name).expect("job exists");
        if let Some(pos) = job.procs.iter().position(|p| p.name == proc_name) {
            job.procs.remove(pos);
        }
        self.emit(&format!("'{proc_name}' removed"));
    }

    /// `jobs [<names...>]` (§4.3).
    fn cmd_jobs(&mut self, args: &[&str]) {
        if args.is_empty() {
            let lines: Vec<String> = self
                .job_order
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let j = &self.jobs[name];
                    format!("{}  {}  filter={}", i + 1, name, j.filter)
                })
                .collect();
            if lines.is_empty() {
                self.emit("no jobs");
            }
            for l in lines {
                self.emit(&l);
            }
            return;
        }
        for name in args {
            let Some(j) = self.jobs.get(*name) else {
                self.emit(&format!("no job named '{name}'"));
                continue;
            };
            let lines: Vec<String> = j
                .procs
                .iter()
                .map(|p| {
                    format!(
                        "  {}  {}  {}  {}  flags: {}",
                        p.pid, p.state, p.name, p.machine, j.flags
                    )
                })
                .collect();
            self.emit(&format!("job '{name}':"));
            for l in lines {
                self.emit(&l);
            }
        }
    }

    /// `getlog <filtername> <destination>` (§4.3).
    ///
    /// The filter's log is its store, so there is no single file to
    /// fetch: the controller loads the store through the filter's
    /// daemon ([`RemoteFiles`]) as any reader loads a local one, and
    /// writes the paper's one-line-per-record text (§3.4) — `#`
    /// reduction included. When the store holds no segment — a
    /// user-written filter keeps whatever it likes at its log path, an
    /// unreachable daemon lists nothing — the plain file there is
    /// copied verbatim.
    fn cmd_getlog(&mut self, args: &[&str]) {
        let (Some(fname), Some(dest)) = (args.first(), args.get(1)) else {
            self.emit("usage: getlog <filtername> <destination filename>");
            return;
        };
        let Some(f) = self.logging_filter(fname, "getlog") else {
            return;
        };
        let reader = StoreReader::load(&RemoteFiles(self, &f.machine), &f.spec.logfile);
        let data = if reader.n_segments() == 0 {
            match self.get_file(&f.machine, &f.spec.logfile) {
                Some(data) => data,
                None => {
                    self.emit(&format!("cannot retrieve log of filter '{fname}'"));
                    return;
                }
            }
        } else {
            let mut text = String::new();
            for frame in reader.scan() {
                f.render_line("", frame.raw, &mut text);
            }
            text.into_bytes()
        };
        self.proc.machine().fs().write(dest, data);
    }

    /// `watch <filtername> [windows=<n>] [interval=<ms>] [anomalies]`
    /// — stream live windowed analysis of a running filter: each
    /// window polls the filter's segment files through
    /// the tail cursors, feeds the new frames to the incremental trace
    /// engine, and prints one summary line (records, active processes,
    /// message-pairing lag). With `anomalies`, each window also prints
    /// the top-scoring process and the link the pairing lag
    /// concentrates on — the live localizer for partition-like faults.
    fn cmd_watch(&mut self, args: &[&str]) {
        let Some(fname) = args.first().map(|s| (*s).to_owned()) else {
            self.emit("usage: watch <filtername> [windows=<n>] [interval=<ms>] [anomalies]");
            return;
        };
        let (mut windows, mut interval_ms, mut anomalies) = (1usize, 300u64, false);
        for a in &args[1..] {
            if let Some(v) = a.strip_prefix("windows=") {
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => windows = n,
                    _ => {
                        self.emit(&format!("bad windows count '{v}'"));
                        return;
                    }
                }
            } else if let Some(v) = a.strip_prefix("interval=") {
                match v.parse::<u64>() {
                    Ok(ms) => interval_ms = ms,
                    _ => {
                        self.emit(&format!("bad interval '{v}'"));
                        return;
                    }
                }
            } else if *a == "anomalies" {
                anomalies = true;
            } else {
                self.emit(&format!("unknown watch option '{a}'"));
                return;
            }
        }
        let Some(f) = self.logging_filter(&fname, "watch") else {
            return;
        };
        for w in 0..windows {
            if w > 0 {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
            self.pump();
            let mut st = self.take_watch_state(&f);
            let frames = self.poll_filter_frames(&f, &mut st);
            st.watch.ingest_batch(frames);
            let snap = st.watch.close_window();
            self.emit(&format!("watch {fname} {}", snap.summary()));
            if anomalies {
                if let Some(top) = snap.anomalies.first() {
                    self.emit(&format!(
                        "watch {fname} anomaly: m{}:p{} score={:.2} (dev={:.2} lag={:.2})",
                        top.proc.machine, top.proc.pid, top.score, top.profile_dev, top.lag_share
                    ));
                }
                if let Some((a, b, n)) = snap.link_lag.first() {
                    self.emit(&format!("watch {fname} lag: link {a}<->{b} unmatched={n}"));
                }
            }
            st.last = Some(snap);
            self.watches.insert(fname.clone(), st);
        }
    }

    /// `tail <filtername> [n=<records>]` — poll once and print the
    /// most recent newly arrived records as decoded log text. Shares
    /// the watch cursors: frames shown here are also fed to the live
    /// trace, so mixing `tail` and `watch` never double-counts.
    fn cmd_tail(&mut self, args: &[&str]) {
        let Some(fname) = args.first().map(|s| (*s).to_owned()) else {
            self.emit("usage: tail <filtername> [n=<records>]");
            return;
        };
        let mut show = 10usize;
        for a in &args[1..] {
            if let Some(v) = a.strip_prefix("n=") {
                match v.parse::<usize>() {
                    Ok(n) => show = n,
                    _ => {
                        self.emit(&format!("bad record count '{v}'"));
                        return;
                    }
                }
            } else {
                self.emit(&format!("unknown tail option '{a}'"));
                return;
            }
        }
        let Some(f) = self.logging_filter(&fname, "tail") else {
            return;
        };
        let mut st = self.take_watch_state(&f);
        let frames = self.poll_filter_frames(&f, &mut st);
        let new = frames.len();
        let mut out = format!("tail {fname}: {new} new record(s)\n");
        for fr in frames.iter().skip(new.saturating_sub(show)) {
            f.render_line("  ", &fr.raw, &mut out);
        }
        st.watch.ingest_batch(frames);
        self.emit(out.trim_end_matches('\n'));
        self.watches.insert(fname, st);
    }

    /// Resolves the filter whose log `verb` (`getlog`, `check`,
    /// `watch`, `tail`) is to read: it must exist and keep a log, which an
    /// edge does not.
    fn logging_filter(&mut self, fname: &str, verb: &str) -> Option<FilterInfo> {
        let Some(f) = self.filters.iter().find(|f| f.name == fname).cloned() else {
            self.emit(&format!("no filter named '{fname}'"));
            return None;
        };
        if f.spec.role == FilterRole::Edge {
            self.emit(&format!(
                "filter '{fname}' is an edge pre-filter and keeps no log; {verb} its upstream aggregate instead"
            ));
            return None;
        }
        Some(f)
    }

    /// Fetches one file from `machine` through its meterdaemon;
    /// `None` when it is missing or the daemon cannot be reached.
    fn get_file(&self, machine: &str, path: &str) -> Option<Vec<u8>> {
        match self.rpc(
            machine,
            &Request::GetFile {
                path: path.to_owned(),
            },
        ) {
            Ok(Reply::File {
                status: RpcStatus::Ok,
                data,
            }) => Some(data),
            _ => None,
        }
    }

    /// The watch state for a filter, creating it on first use. Taken
    /// out of the map for the duration of a poll (RPC needs `&self`).
    fn take_watch_state(&mut self, f: &FilterInfo) -> WatchState {
        self.watches.remove(&f.name).unwrap_or_else(|| WatchState {
            tail: StoreTail::default(),
            watch: LiveWatch::new(f.desc.clone()),
            seal_lines: 0,
            last: None,
        })
    }

    /// One live poll of a filter's store: echo new seal-manifest
    /// lines, then one [`StoreTail::poll`] through the filter's daemon
    /// — the new frames in seq order.
    fn poll_filter_frames(&mut self, f: &FilterInfo, st: &mut WatchState) -> Vec<OwnedFrame> {
        // Seal notifications, as appended by the filter's seal hook.
        if let Some(data) = self.get_file(&f.machine, &seals_name(&f.spec.logfile)) {
            let text = String::from_utf8_lossy(&data);
            let lines: Vec<&str> = text.lines().collect();
            for l in lines.iter().skip(st.seal_lines) {
                self.emit(&format!("watch {}: {l}", f.name));
            }
            st.seal_lines = st.seal_lines.max(lines.len());
        }
        st.tail
            .poll(&RemoteFiles(self, &f.machine), &f.spec.logfile)
    }

    /// The most recently closed watch window of `filter`, if any —
    /// for tests and host-side tooling.
    pub fn last_window(&self, filter: &str) -> Option<&WindowSnapshot> {
        self.watches.get(filter).and_then(|st| st.last.as_ref())
    }

    /// Mutable access to a filter's live watch (trace engine plus
    /// scorer) — for tests and host-side tooling that want the full
    /// incremental analyses rather than the rendered lines.
    pub fn watch_live_mut(&mut self, filter: &str) -> Option<&mut LiveWatch> {
        self.watches.get_mut(filter).map(|st| &mut st.watch)
    }

    /// `check <filtername> <mutex|byzantine>` — run a distributed-
    /// algorithm property checker over the filter's collected log.
    /// Everything it reports is computed from meter records alone.
    fn cmd_check(&mut self, args: &[&str]) {
        let (Some(fname), Some(which)) = (args.first(), args.get(1)) else {
            self.emit("usage: check <filtername> <mutex|byzantine>");
            return;
        };
        let Some(f) = self.logging_filter(fname, "check") else {
            return;
        };
        let reader = StoreReader::load(&RemoteFiles(self, &f.machine), &f.spec.logfile);
        if reader.n_segments() == 0 {
            self.emit(&format!("cannot retrieve log of filter '{fname}'"));
            return;
        }
        let trace = Trace::from_store(&reader, &f.desc);
        let report = match *which {
            "mutex" => MutexReport::check(&trace).to_string(),
            "byzantine" | "byz" => ByzReport::check(&trace).to_string(),
            other => {
                self.emit(&format!(
                    "unknown checker '{other}' (want mutex or byzantine)"
                ));
                return;
            }
        };
        for line in report.lines() {
            self.emit(line);
        }
    }

    /// `stats [<component>]` — the monitor's self-telemetry: per-stage
    /// counters, gauges, and latency histograms from every component
    /// in the simulation (meterdaemons, filters, the log store, the
    /// live engine), aggregated across machines by label. The optional
    /// component argument narrows the readout (`stats e2e` shows the
    /// end-to-end staleness chain).
    fn cmd_stats(&mut self, args: &[&str]) {
        let filter = args.first().copied();
        let text = dpm_telemetry::registry().snapshot().render_stats(filter);
        for line in text.lines() {
            self.emit(line);
        }
    }

    /// `source <filename>` (§4.3): run a command script, nesting up to
    /// sixteen deep.
    fn cmd_source(&mut self, args: &[&str], depth: usize) {
        let Some(path) = args.first() else {
            self.emit("usage: source <filename>");
            return;
        };
        if depth >= MAX_SOURCE_DEPTH {
            self.emit("source scripts nested too deeply");
            return;
        }
        let Some(text) = self.proc.machine().fs().read_string(path) else {
            self.emit(&format!("cannot read script '{path}'"));
            return;
        };
        for line in text.lines() {
            self.exec_depth(line, depth + 1);
        }
    }

    /// `sink [<filename>]` (§4.3).
    fn cmd_sink(&mut self, args: &[&str]) {
        match args.first() {
            Some(path) => self.sinks.push((*path).to_owned()),
            None => {
                self.sinks.pop();
            }
        }
    }

    /// `input <jobname> <process> <text>` — feed a process's
    /// redirected standard input through its daemon (§3.5.2).
    fn cmd_input(&mut self, args: &[&str]) {
        let (Some(job_name), Some(proc_name)) = (args.first(), args.get(1)) else {
            self.emit("usage: input <jobname> <process> <text>");
            return;
        };
        let text = args[2..].join(" ") + "\n";
        let target = self
            .jobs
            .get_mut(*job_name)
            .and_then(|j| j.proc_by_name(proc_name))
            .map(|p| (p.machine.clone(), p.pid));
        let Some((machine, pid)) = target else {
            self.emit("no such process");
            return;
        };
        let r = self.rpc(
            &machine,
            &Request::SendInput {
                pid,
                data: text.into_bytes(),
            },
        );
        if r.map(|r| r.status()) != Ok(RpcStatus::Ok) {
            self.emit("input failed");
        }
    }

    /// `die` (§4.3): refuse once while processes are active, then exit
    /// on an immediately repeated `die`.
    fn cmd_die(&mut self) {
        let active = self.jobs.values().any(Job::has_active);
        if active && !self.die_armed {
            self.die_armed = true;
            self.emit("there are still active processes; repeat die to exit anyway");
            return;
        }
        // "Upon exit, all executing filter processes are removed."
        let filters: Vec<FilterInfo> = self.filters.drain(..).collect();
        for f in filters {
            let _ = self.rpc(&f.machine, &Request::Kill { pid: f.pid });
        }
        if let Some(tx) = self.quit_tx.take() {
            let _ = tx.send(());
        }
        self.done = true;
    }

    // ------------------------------------------------------------------
    // Control-plane replication: durable state, leases, takeover
    // ------------------------------------------------------------------

    /// The identity this controller writes into lease records:
    /// `machine:control_port`. Two controllers on the same machine use
    /// distinct control ports, so the id is unique per controller.
    pub fn owner_id(&self) -> String {
        format!("{}:{}", self.machine, self.control_port)
    }

    /// Current simulated time in microseconds — the clock leases are
    /// granted and expire against.
    fn now_us(&self) -> u64 {
        self.cluster.global_time().now_us()
    }

    /// One lease period in simulated microseconds.
    fn lease_period_us(&self) -> u64 {
        DEFAULT_LEASE_MS * 1_000
    }

    /// Appends `ev` to the control log, when replication is enabled.
    fn record(&mut self, ev: ControlEvent) {
        if let Some(log) = self.control_log.as_mut() {
            log.append(&ev);
        }
    }

    /// Turns on control-plane replication: every subsequent mutation
    /// of controller state (jobs, filters, flags, process states,
    /// leases) is appended to the control log at `dir` on `backend`,
    /// from which any standby can reconstruct and adopt the session
    /// via [`Controller::adopt_from`]. Jobs created before this call
    /// are not retroactively logged — enable replication first.
    pub fn enable_control_log(&mut self, backend: Arc<dyn Backend>, dir: &str) {
        self.control_log = Some(ControlLog::open(backend, dir));
    }

    /// Whether control-plane replication is enabled.
    pub fn control_log_enabled(&self) -> bool {
        self.control_log.is_some()
    }

    /// Grants this controller a fresh lease on `job` through the
    /// control log.
    fn acquire_lease(&mut self, job: &str) {
        if self.control_log.is_none() {
            return;
        }
        let now = self.now_us();
        let expires = now + self.lease_period_us();
        self.record(ControlEvent::LeaseAcquired {
            job: job.to_owned(),
            owner: self.owner_id(),
            at_us: now,
            expires_us: expires,
        });
        self.leases.insert(job.to_owned(), expires);
    }

    /// Renews this controller's lease on `job` once less than half a
    /// lease period remains — frequent enough that a live owner never
    /// lapses, rare enough that the log is not dominated by renewals.
    fn renew_lease_if_due(&mut self, job: &str) {
        if self.control_log.is_none() {
            return;
        }
        let Some(&expires) = self.leases.get(job) else {
            return;
        };
        let now = self.now_us();
        if now + self.lease_period_us() / 2 < expires {
            return;
        }
        let new_expires = now + self.lease_period_us();
        self.record(ControlEvent::LeaseRenewed {
            job: job.to_owned(),
            owner: self.owner_id(),
            at_us: now,
            expires_us: new_expires,
        });
        self.leases.insert(job.to_owned(), new_expires);
        dpm_telemetry::registry()
            .counter("controlplane", "lease_renewals", "")
            .inc();
    }

    /// Adopts every live job found in the control log at `dir` on
    /// `backend`: the lease-based takeover path a standby controller
    /// runs when the owning controller dies.
    ///
    /// For each job whose lease is held by another controller, this
    /// waits (in simulated time) until that lease lapses — a live
    /// owner keeps renewing, so expiry only passes once the owner is
    /// really gone — then appends its own `LeaseAcquired`, rebuilds
    /// the job and filter tables from the log, and re-binds the
    /// surviving daemons' metered processes to this controller with
    /// one batched `AcquireMany` round-trip per machine. Processes the
    /// daemons no longer know are marked killed. Returns the adopted
    /// job names.
    pub fn adopt_from(&mut self, backend: Arc<dyn Backend>, dir: &str) -> Vec<String> {
        self.control_log = Some(ControlLog::open(backend, dir));
        let table = self.replayed_table();

        // Filters first: jobs reference them, and getlog/watch render
        // through their descriptions.
        for fr in &table.filters {
            if self.filters.iter().any(|f| f.name == fr.name) {
                continue;
            }
            let (Ok(desc), Ok(rules)) = (
                Descriptions::parse(&fr.desc_text),
                Rules::parse(&fr.templates_text),
            ) else {
                continue;
            };
            // The journal keeps the role as its keyword: back through
            // the key table, then the validator.
            let mut spec = FilterArgs {
                port: fr.port,
                logfile: fr.logfile.clone(),
                shards: fr.shards,
                upstream: fr.upstream.clone(),
                ..FilterArgs::default()
            };
            if spec.set("role", &fr.role).is_err() || spec.validate().is_err() {
                continue;
            }
            self.filters.push(FilterInfo {
                name: fr.name.clone(),
                machine: fr.machine.clone(),
                pid: Pid(fr.pid),
                spec,
                desc,
                rules,
            });
            self.next_filter_port = self.next_filter_port.max(fr.port + 1);
        }

        let mut adopted = Vec::new();
        let live: Vec<String> = table
            .live_jobs()
            .into_iter()
            .map(|j| j.name.clone())
            .collect();
        for job_name in live {
            let prev = self.wait_lease_lapse(&job_name);
            // Re-read: process exits recorded by the old owner just
            // before it died must not be lost.
            let Some(jr) = self.replayed_table().jobs.get(&job_name).cloned() else {
                continue;
            };
            if jr.removed {
                continue;
            }

            let now = self.now_us();
            if let Some(prev_expiry) = prev {
                dpm_telemetry::registry()
                    .histogram("controlplane", "takeover_latency_us", &job_name)
                    .record(now.saturating_sub(prev_expiry));
            }
            let expires = now + self.lease_period_us();
            self.record(ControlEvent::LeaseAcquired {
                job: job_name.clone(),
                owner: self.owner_id(),
                at_us: now,
                expires_us: expires,
            });
            self.leases.insert(job_name.clone(), expires);

            // Rebuild the in-memory job from the replayed record.
            let mut job = Job::new(&jr.name, jr.filter.clone());
            job.flags = MeterFlags::from_bits(jr.flags);
            let mut by_machine: HashMap<String, Vec<Pid>> = HashMap::new();
            for pr in &jr.procs {
                let state = parse_proc_state(&pr.state);
                job.procs.push(ManagedProc {
                    name: pr.name.clone(),
                    machine: pr.machine.clone(),
                    pid: Pid(pr.pid),
                    state,
                });
                if state != ProcState::Killed {
                    by_machine
                        .entry(pr.machine.clone())
                        .or_default()
                        .push(Pid(pr.pid));
                }
            }
            self.jobs.insert(job_name.clone(), job);
            if !self.job_order.contains(&job_name) {
                self.job_order.push(job_name.clone());
            }

            // Re-bind surviving daemons' notifications to this
            // controller: one batched round-trip per machine.
            let mut machines: Vec<(String, Vec<Pid>)> = by_machine.into_iter().collect();
            machines.sort();
            for (machine, pids) in machines {
                self.rebind_machine(&job_name, &machine, &pids);
            }
            self.emit(&format!(
                "job '{job_name}' adopted (owner now {})",
                self.owner_id()
            ));
            adopted.push(job_name);
        }
        adopted
    }

    /// Replays the control log into a fresh [`JobTable`].
    fn replayed_table(&self) -> JobTable {
        match self.control_log.as_ref() {
            Some(log) => JobTable::from_store(&log.reader()),
            None => JobTable::default(),
        }
    }

    /// Blocks (in simulated time) until `job`'s current lease has
    /// lapsed or is ours, re-reading the log so renewals appended
    /// while waiting are honored. Returns the expiry of the lease
    /// waited out, if there was a foreign one.
    fn wait_lease_lapse(&mut self, job: &str) -> Option<u64> {
        let me = self.owner_id();
        let mut waited: Option<u64> = None;
        loop {
            let lease = match self.replayed_table().jobs.get(job) {
                Some(jr) => jr.lease.clone(),
                None => return waited,
            };
            match lease {
                None => return waited,
                Some(l) if l.owner == me => return waited,
                Some(l) if l.expired(self.now_us()) => return Some(l.expires_us),
                Some(l) => {
                    waited = Some(l.expires_us);
                    // Sleeping advances simulated time, so a dead
                    // owner's lease lapses here; a live owner's
                    // renewals keep pushing the expiry out.
                    let _ = self.proc.sleep_ms(50);
                }
            }
        }
    }

    /// Re-points the daemon-side control bindings of `pids` on
    /// `machine` at this controller (one `AcquireMany{rebind_only}`
    /// round-trip), marking processes the daemon no longer knows as
    /// killed.
    fn rebind_machine(&mut self, job_name: &str, machine: &str, pids: &[Pid]) {
        let reply = self.rpc(
            machine,
            &Request::AcquireMany {
                pids: pids.to_vec(),
                filter_port: 0,
                filter_host: String::new(),
                meter_flags: MeterFlags::NONE,
                control_port: self.control_port,
                control_host: self.machine.clone(),
                rebind_only: true,
            },
        );
        let gone: Vec<Pid> = match reply {
            Ok(Reply::AcquireMany { results, .. }) => results
                .into_iter()
                .filter(|(_, st)| *st != RpcStatus::Ok)
                .map(|(pid, _)| pid)
                .collect(),
            _ => Vec::new(),
        };
        for pid in gone {
            let mut hit = None;
            if let Some(p) = self
                .jobs
                .get_mut(job_name)
                .and_then(|j| j.procs.iter_mut().find(|p| p.pid == pid))
            {
                if p.state != ProcState::Killed {
                    p.state = p
                        .state
                        .next(ProcAction::Complete)
                        .unwrap_or(ProcState::Killed);
                    hit = Some((p.name.clone(), p.state.to_string()));
                }
            }
            if let Some((name, state)) = hit {
                self.record(ControlEvent::ProcStateChanged {
                    job: job_name.to_owned(),
                    machine: machine.to_owned(),
                    pid: pid.0,
                    state,
                });
                self.emit(&format!(
                    "DONE: process {name} in job '{job_name}' terminated: reason: normal (resync)"
                ));
            }
        }
    }

    /// Batched `acquire`: meters already-running `pids` on `machine`
    /// into `job_name` with a single `AcquireMany` round-trip instead
    /// of one `Acquire` RPC per process. Returns how many processes
    /// were acquired.
    pub fn acquire_many(&mut self, job_name: &str, machine: &str, pids: &[Pid]) -> usize {
        let Some((filter_host, filter_port, meter_flags)) = self.job_meter_target(job_name) else {
            return 0;
        };
        let reply = self.rpc(
            machine,
            &Request::AcquireMany {
                pids: pids.to_vec(),
                filter_port,
                filter_host,
                meter_flags,
                control_port: self.control_port,
                control_host: self.machine.clone(),
                rebind_only: false,
            },
        );
        let acquired: Vec<Pid> = match reply {
            Ok(Reply::AcquireMany {
                status: RpcStatus::Ok,
                results,
            }) => results
                .into_iter()
                .filter(|(_, st)| *st == RpcStatus::Ok)
                .map(|(pid, _)| pid)
                .collect(),
            Ok(r) => {
                self.emit(&format!("acquire failed: {}", r.status()));
                return 0;
            }
            Err(e) => {
                self.emit(&format!("acquire failed: {e}"));
                return 0;
            }
        };
        self.register_acquired(job_name, machine, &acquired);
        self.emit(&format!(
            "{} of {} processes acquired",
            acquired.len(),
            pids.len()
        ));
        acquired.len()
    }

    fn rpc(&self, machine: &str, req: &Request) -> Result<Reply, SysError> {
        // The hardened call: per-attempt timeout, bounded retries, and
        // an idempotency id the daemon dedups on — a retried create is
        // applied once even when the first reply was lost. Exhaustion
        // comes back in-band as Timeout/Unavailable, feeding the same
        // per-command error reporting as any other failure status.
        rpc_call_retry(
            &self.proc,
            machine,
            req,
            RPC_TIMEOUT_MS,
            Backoff::new(8, 5, 100),
        )
    }
}

/// Maps a control-log state keyword back to a [`ProcState`]. Unknown
/// keywords (from a future controller) conservatively parse as `New`.
fn parse_proc_state(s: &str) -> ProcState {
    match s {
        "acquired" => ProcState::Acquired,
        "running" => ProcState::Running,
        "stopped" => ProcState::Stopped,
        "killed" => ProcState::Killed,
        _ => ProcState::New,
    }
}
