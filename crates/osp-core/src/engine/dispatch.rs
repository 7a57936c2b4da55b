//! Backend-agnostic dispatch of [`JobSpec`] work-lists: threads or
//! worker processes behind one contract.
//!
//! A [`Dispatcher`] takes a list of fully-specified jobs and returns their
//! outcomes **in submission order**, bit-identical to the sequential
//! reference ([`run_spec`](crate::spec::run_spec) job by job), whatever
//! the lane count. The contract has exactly two legs, both inherited from
//! the in-process pool:
//!
//! * **seeds are data** — every job's seed is fixed inside the spec
//!   before fan-out (typically via [`derive_seed`]/[`derived_jobs`]), so
//!   no job's randomness depends on which lane runs it;
//! * **order is submission order** — results are merged back
//!   positionally, never by completion time.
//!
//! Three backends implement it, over one wire transport:
//!
//! * [`SpecPool`] — `std::thread` shards via [`ReplayPool::map`],
//!   resolving specs in-process;
//! * [`SocketPool`] — a fleet of `osp-worker --listen` endpoints
//!   (TCP or Unix-domain, [`WorkerAddr`]) spoken to over framed socket
//!   sessions ([`wire`]), with connect retry/backoff ([`RetryPolicy`]),
//!   read deadlines, an in-band heartbeat, and **chunk re-dispatch**:
//!   when a worker dies mid-batch its unanswered jobs are re-chunked
//!   across the survivors, and only with every worker dead does a job
//!   fail ([`WorkerError::AllWorkersDead`]). Because outcomes are pure
//!   functions of the specs, recovery never changes results — just who
//!   computes them;
//! * [`ProcessPool`] — a launcher over [`SocketPool`]: every batch
//!   spawns fresh `osp-worker --listen uds:` children
//!   ([`spawn_listening`]), runs the batch through them, then kills them.
//!
//! `tests/process_pool_conformance.rs` pins sequential, threads and
//! processes bit-identical across the algorithm × generator grid at
//! worker counts 1, 2 and 4; `tests/socket_pool_conformance.rs` extends
//! the same grid to socket fleets, including fleets with injected
//! mid-batch faults ([`FaultPlan`](crate::wire::FaultPlan)).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::fs::DirBuilderExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::engine::batch::{derive_seed, env_parallelism, ReplayPool};
use crate::engine::Outcome;
use crate::error::{Error, WorkerError};
use crate::spec::{run_spec_with_scratch, AlgorithmSpec, JobSpec, ScenarioSpec, SpecResolver};
use crate::wire;
use crate::wire::socket::{handshake, ping, Stream, WorkerAddr};

/// A structured event emitted while a [`Dispatcher`] runs a work-list —
/// what embedders (the replay service, progress UIs) observe instead of
/// scraping stderr. Events describe the *run*, never the outcomes:
/// results still come back only through the return value, in submission
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchEvent {
    /// A monotonic progress tick: `answered` of `total` jobs have a final
    /// result (an outcome or a per-job error). Backends emit this at
    /// their natural granularity — once for the thread pool, per recovery
    /// round for socket fleets and process pools — so ticks are coarse,
    /// not per-job.
    Progress {
        /// Jobs with a final result so far.
        answered: usize,
        /// Jobs in the work-list.
        total: usize,
    },
    /// A fleet worker was excluded (its unanswered jobs re-dispatched to
    /// survivors). Carries the typed cause so embedders can tell a
    /// refused connect from a mid-batch death or a frame-order
    /// violation. Exclusion is no longer forever: the rejoin probe loop
    /// ([`RejoinPolicy`]) pings excluded lanes with capped exponential
    /// backoff and re-admits them on success.
    WorkerExcluded {
        /// The excluded worker's address.
        addr: String,
        /// Why it was excluded.
        error: WorkerError,
    },
    /// An excluded worker answered a rejoin probe and is back in the
    /// fleet — it takes chunks again from the next round on.
    WorkerRejoined {
        /// The re-admitted worker's address.
        addr: String,
    },
    /// A rejoin probe was sent to an excluded worker (one ping per due
    /// lane per round). `ok` tells whether it answered; a failed probe
    /// pushes the lane's next probe out by the capped exponential
    /// backoff of [`RejoinPolicy`].
    WorkerProbed {
        /// The probed worker's address.
        addr: String,
        /// Whether the probe succeeded (success also emits
        /// [`DispatchEvent::WorkerRejoined`]).
        ok: bool,
    },
}

/// Where a [`Dispatcher`] run reports its [`DispatchEvent`]s. `Sync`
/// because lanes run on scoped threads; implementations must tolerate
/// concurrent calls.
pub trait EventSink: Sync {
    /// Observes one event. Must not block for long — it runs on the
    /// dispatching thread between rounds.
    fn event(&self, event: DispatchEvent);
}

/// The default sink: worker exclusions go to stderr (the pre-hook
/// behavior, so plain `run_specs` callers keep their diagnostics),
/// progress ticks are dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn event(&self, event: DispatchEvent) {
        if let DispatchEvent::WorkerExcluded { addr, error } = event {
            eprintln!("osp: excluding worker {addr}: {error}");
        }
    }
}

/// A backend that replays [`JobSpec`] work-lists deterministically: same
/// jobs ⇒ same outcomes, in submission order, at any lane count.
pub trait Dispatcher {
    /// Replays every job and returns the outcomes in job order,
    /// reporting run events (progress ticks, fleet exclusions) to `sink`.
    fn run_specs_with_events(
        &self,
        jobs: &[JobSpec],
        sink: &dyn EventSink,
    ) -> Vec<Result<Outcome, Error>>;

    /// Replays every job and returns the outcomes in job order, with
    /// events going to the default [`StderrSink`].
    fn run_specs(&self, jobs: &[JobSpec]) -> Vec<Result<Outcome, Error>> {
        self.run_specs_with_events(jobs, &StderrSink)
    }

    /// Number of parallel lanes (thread shards or worker processes).
    fn lanes(&self) -> usize;

    /// A short backend tag for tables and logs (`"threads"`,
    /// `"processes"`).
    fn backend(&self) -> &'static str;

    /// A live handle onto this backend's supervised fleet, if it has
    /// one. Only the socket backend does — the thread pool has fixed
    /// lanes and the process pool a fresh fleet per batch, so both
    /// return `None` (the default).
    fn fleet(&self) -> Option<FleetHandle> {
        None
    }
}

/// Which backend an `OSP_DISPATCH` value names — the one parser behind
/// `osp-serve` (where [`Unknown`](Self::Unknown) is fatal) and the bench
/// harness (where it falls back to threads with a note).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchChoice {
    /// In-process thread shards (the default).
    Threads,
    /// `osp-worker` child processes ([`ProcessPool`]).
    Processes,
    /// A socket fleet from `OSP_WORKER_ADDRS` ([`SocketPool`]).
    Socket,
    /// Not a backend name.
    Unknown,
}

impl DispatchChoice {
    /// Parses a raw `OSP_DISPATCH` value: trimmed, case-insensitive;
    /// `None`/empty means [`Threads`](Self::Threads).
    pub fn parse(raw: Option<&str>) -> DispatchChoice {
        let Some(raw) = raw else {
            return DispatchChoice::Threads;
        };
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "threads" | "thread" => DispatchChoice::Threads,
            "processes" | "process" | "procs" => DispatchChoice::Processes,
            "socket" | "sockets" => DispatchChoice::Socket,
            _ => DispatchChoice::Unknown,
        }
    }
}

/// Builds the standard trial fan-out: `trials` jobs over one
/// `(scenario, algorithm)` pair with seeds
/// `derive_seed(root, 0..trials)` — the same SplitMix64 discipline the
/// in-process lanes use, so a spec'd sweep lands in the same seed
/// universe as a [`SeedSequence`](crate::derive_seed)-driven one.
pub fn derived_jobs(
    scenario: &ScenarioSpec,
    algorithm: &AlgorithmSpec,
    root: u64,
    trials: u64,
) -> Vec<JobSpec> {
    (0..trials)
        .map(|i| JobSpec {
            scenario: scenario.clone(),
            algorithm: algorithm.clone(),
            seed: derive_seed(root, i),
        })
        .collect()
}

/// The thread backend: a [`ReplayPool`] paired with the
/// [`SpecResolver`] its shards resolve specs through.
///
/// # Examples
///
/// ```
/// use osp_core::engine::dispatch::{derived_jobs, Dispatcher, SpecPool};
/// use osp_core::gen::RandomInstanceConfig;
/// use osp_core::prelude::*;
/// use osp_core::spec::{AlgorithmSpec, CoreResolver, ScenarioSpec};
///
/// let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3));
/// let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 7, 6);
/// let pool = SpecPool::new(ReplayPool::new(2), CoreResolver);
/// let outcomes = pool.run_specs(&jobs);
/// assert_eq!(outcomes.len(), 6);
/// assert!(outcomes.iter().all(|o| o.is_ok()));
/// ```
#[derive(Debug, Clone)]
pub struct SpecPool<R> {
    pool: ReplayPool,
    resolver: R,
}

impl<R: SpecResolver + Sync> SpecPool<R> {
    /// Pairs a thread pool with a resolver.
    pub fn new(pool: ReplayPool, resolver: R) -> Self {
        SpecPool { pool, resolver }
    }
}

impl<R: SpecResolver + Sync> Dispatcher for SpecPool<R> {
    fn run_specs_with_events(
        &self,
        jobs: &[JobSpec],
        sink: &dyn EventSink,
    ) -> Vec<Result<Outcome, Error>> {
        let results = self.pool.map(jobs, |scratch, _, job| {
            run_spec_with_scratch(job, &self.resolver, scratch)
        });
        // The thread pool blocks until every shard is done, so one final
        // tick is this backend's natural granularity.
        sink.event(DispatchEvent::Progress {
            answered: results.len(),
            total: jobs.len(),
        });
        results
    }

    fn lanes(&self) -> usize {
        self.pool.shards()
    }

    fn backend(&self) -> &'static str {
        "threads"
    }
}

/// The file name of the worker binary, per platform.
fn worker_bin_name() -> String {
    format!("osp-worker{}", std::env::consts::EXE_SUFFIX)
}

/// Locates the `osp-worker` binary: `OSP_WORKER_BIN` if set, otherwise a
/// sibling of the current executable (also checking one directory up,
/// because test binaries live in `target/<profile>/deps/`).
fn locate_worker() -> Result<PathBuf, Error> {
    if let Ok(path) = std::env::var("OSP_WORKER_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(Error::Worker(WorkerError::Spawn(format!(
            "OSP_WORKER_BIN points at {}, which is not a file",
            path.display()
        ))));
    }
    let exe = std::env::current_exe().map_err(|e| {
        Error::Worker(WorkerError::Spawn(format!(
            "cannot resolve current executable: {e}"
        )))
    })?;
    let name = worker_bin_name();
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        // Walk at most one level up (deps/ → the profile directory).
        if d.file_name().map(|n| n == "deps") != Some(true) {
            break;
        }
        dir = d.parent();
    }
    Err(Error::Worker(WorkerError::Spawn(format!(
        "cannot locate {name} next to {} — build it with `cargo build --bin osp-worker` \
         or set OSP_WORKER_BIN",
        exe.display()
    ))))
}

/// The located `osp-worker` binary — `OSP_WORKER_BIN` if set, otherwise a
/// sibling of the current executable. Public so fleet-hosting harnesses
/// (the bench socket section, CI bring-up scripts run through examples)
/// can spawn `osp-worker --listen` themselves.
///
/// # Errors
///
/// [`WorkerError::Spawn`] when no binary can be found.
pub fn worker_binary() -> Result<PathBuf, Error> {
    locate_worker()
}

/// Spawns one listening worker and waits for its `listening on <addr>`
/// banner — the one way this crate brings up a worker process. The caller
/// builds `command` (program, `--listen <addr>`, environment, stderr);
/// this sets stdin to null and stdout to a pipe, reads the first stdout
/// line, and returns the child with the address it announced. The pipe
/// is closed after the banner, so the worker must print nothing else to
/// stdout. The child stays the caller's to kill and reap.
///
/// # Errors
///
/// [`WorkerError::Spawn`] if the command cannot start, or if its first
/// stdout line is missing or is not the banner; the child is killed and
/// reaped before the error returns.
pub fn spawn_listening(command: &mut Command) -> Result<(Child, WorkerAddr), Error> {
    let program = command.get_program().to_string_lossy().into_owned();
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| WorkerError::Spawn(format!("spawning worker `{program}`: {e}")))?;
    let mut banner = String::new();
    // Bounded, so a child that floods stdout without a newline cannot
    // grow the banner without limit.
    let read = BufReader::new(child.stdout.take().expect("stdout was piped"))
        .take(512)
        .read_line(&mut banner);
    let addr = match read {
        Ok(_) => banner
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected banner {banner:?}"))
            .and_then(WorkerAddr::parse),
        Err(e) => Err(format!("reading the banner: {e}")),
    };
    match addr {
        Ok(addr) => Ok((child, addr)),
        Err(cause) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(WorkerError::Spawn(format!("worker `{program}`: {cause}")).into())
        }
    }
}

/// The process backend: fresh `osp-worker --listen` children for every
/// batch, each on a Unix socket in a private temporary directory, driven
/// through a [`SocketPool`]. The children speak the same socket sessions
/// as any fleet member, so a child that crashes mid-batch has its
/// unanswered jobs re-dispatched to the surviving children, and only
/// with every child dead does a job fail
/// ([`WorkerError::AllWorkersDead`]). A command that cannot start or
/// never prints its banner fails every job with [`WorkerError::Spawn`].
///
/// Determinism is inherited from the specs themselves: a worker rebuilds
/// each job's source and algorithm from `(spec, seed)` exactly as a
/// thread shard would, so outcomes are bit-identical to [`SpecPool`] and
/// to sequential [`run_spec`](crate::spec::run_spec) at any worker count
/// (pinned by `tests/process_pool_conformance.rs`).
#[derive(Debug, Clone)]
pub struct ProcessPool {
    workers: usize,
    command: Vec<String>,
}

impl ProcessPool {
    /// A pool of `workers` processes running the located `osp-worker`
    /// binary (zero is treated as one).
    ///
    /// # Errors
    ///
    /// [`Error::Worker`] if the worker binary cannot be found (see
    /// the location rules: `OSP_WORKER_BIN` if set, then
    /// siblings of the current executable).
    pub fn new(workers: usize) -> Result<Self, Error> {
        let bin = locate_worker()?;
        Ok(ProcessPool::with_command(
            workers,
            vec![bin.to_string_lossy().into_owned()],
        ))
    }

    /// A pool running an explicit worker command (`argv[0]` plus
    /// arguments), to which each spawn appends `--listen uds:<path>` —
    /// how embedded workers are wired up (e.g.
    /// `examples/distributed_replay.rs` re-executes itself with
    /// `--worker`). The command is spawned lazily at
    /// [`run_specs`](Dispatcher::run_specs) time.
    pub fn with_command(workers: usize, command: Vec<String>) -> Self {
        assert!(!command.is_empty(), "worker command must name a program");
        ProcessPool {
            workers: workers.max(1),
            command,
        }
    }

    /// A pool sized by the `OSP_WORKERS` environment variable (same
    /// hardened policy as
    /// [`ReplayPool::from_env`] — see
    /// [`env_parallelism`]), running the located worker binary.
    ///
    /// # Errors
    ///
    /// [`Error::Worker`] if the worker binary cannot be found.
    pub fn from_env() -> Result<Self, Error> {
        ProcessPool::new(env_parallelism("OSP_WORKERS"))
    }

    /// Number of worker processes this pool fans work across.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Dispatcher for ProcessPool {
    fn run_specs_with_events(
        &self,
        jobs: &[JobSpec],
        sink: &dyn EventSink,
    ) -> Vec<Result<Outcome, Error>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let fleet = match LocalFleet::spawn(&self.command, self.workers.min(jobs.len())) {
            Ok(fleet) => fleet,
            Err(e) => return jobs.iter().map(|_| Err(e.clone())).collect(),
        };
        // No read deadline: a local child that dies shows up as EOF, so
        // a long job must not be cut off by the fleet's timeout.
        let config = SocketConfig {
            read_timeout: Duration::MAX,
            ..SocketConfig::default()
        };
        SocketPool::with_config(fleet.addrs.clone(), config).run_specs_with_events(jobs, sink)
    }

    fn lanes(&self) -> usize {
        self.workers
    }

    fn backend(&self) -> &'static str {
        "processes"
    }
}

/// One batch's worth of listening children in a private directory.
/// Dropping it kills and reaps every child and removes the directory
/// with their socket files.
struct LocalFleet {
    dir: PathBuf,
    children: Vec<Child>,
    addrs: Vec<WorkerAddr>,
}

impl LocalFleet {
    /// Spawns `workers` copies of `command`, each with `--listen
    /// uds:<dir>/w<i>.sock` appended, stderr inherited and `OSP_FAULT`
    /// removed from the environment, and waits for every banner.
    fn spawn(command: &[String], workers: usize) -> Result<LocalFleet, Error> {
        let mut fleet = LocalFleet {
            dir: private_dir()?,
            children: Vec::with_capacity(workers),
            addrs: Vec::with_capacity(workers),
        };
        for i in 0..workers {
            let socket = fleet.dir.join(format!("w{i}.sock"));
            let (child, addr) = spawn_listening(
                Command::new(&command[0])
                    .args(&command[1..])
                    .arg("--listen")
                    .arg(format!("uds:{}", socket.display()))
                    .stderr(Stdio::inherit())
                    .env_remove("OSP_FAULT"),
            )?;
            fleet.children.push(child);
            fleet.addrs.push(addr);
        }
        Ok(fleet)
    }
}

impl Drop for LocalFleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Creates a fresh directory, readable only by this user, for one
/// batch's worker sockets.
fn private_dir() -> Result<PathBuf, Error> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let dir = std::env::temp_dir().join(format!(
            "osp-procs-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        match std::fs::DirBuilder::new().mode(0o700).create(&dir) {
            Ok(()) => return Ok(dir),
            // Left behind by an earlier process with the same pid.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => {
                return Err(WorkerError::Spawn(format!(
                    "creating a socket directory under {}: {e}",
                    std::env::temp_dir().display()
                ))
                .into())
            }
        }
    }
}

/// Bounded exponential backoff for worker connects — the pure schedule
/// behind [`SocketPool`]'s retry loop, testable without sockets or
/// clocks: attempt `i` (0-based) waits `base_delay × 2^i`, capped at
/// `max_delay`, and after `attempts` failures the worker is declared
/// unreachable ([`WorkerError::Connect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connect attempts before giving up (zero is treated as one).
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after failed attempt `attempt` (0-based):
    /// `base_delay × 2^attempt`, saturating, capped at `max_delay`.
    pub fn delay(&self, attempt: u32) -> Duration {
        capped_doubling(self.base_delay, attempt, self.max_delay)
    }

    /// Whether a failure on `attempt` (0-based) leaves retries in budget.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt + 1 < self.attempts.max(1)
    }
}

/// The rejoin-probe schedule for excluded fleet lanes: an excluded
/// worker is pinged again after `base_delay`, then with capped
/// exponential backoff (`base_delay × 2^failures`, at most `max_delay`)
/// until a probe succeeds and the lane rejoins — the healing half of the
/// exclusion discipline, so a restarted worker is re-admitted without
/// anyone touching the fleet by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinPolicy {
    /// Wait before the first probe of a freshly excluded lane.
    pub base_delay: Duration,
    /// Backoff ceiling between probes.
    pub max_delay: Duration,
    /// Deadline for one probe (connect + handshake + ping round trip).
    pub probe_timeout: Duration,
}

impl Default for RejoinPolicy {
    fn default() -> Self {
        RejoinPolicy {
            base_delay: Duration::from_millis(500),
            max_delay: Duration::from_secs(10),
            probe_timeout: Duration::from_secs(1),
        }
    }
}

impl RejoinPolicy {
    /// The wait after `failures` consecutive failed probes (the first
    /// probe after exclusion uses `failures = 0`, i.e. `base_delay`):
    /// `base_delay × 2^failures`, saturating, capped at `max_delay`.
    pub fn delay(&self, failures: u32) -> Duration {
        capped_doubling(self.base_delay, failures, self.max_delay)
    }
}

/// `base × 2^doublings`, saturating, capped at `max`: the one backoff
/// formula behind [`RetryPolicy::delay`] and [`RejoinPolicy::delay`].
fn capped_doubling(base: Duration, doublings: u32, max: Duration) -> Duration {
    let factor = 1u32.checked_shl(doublings).unwrap_or(u32::MAX);
    base.saturating_mul(factor).min(max)
}

/// Tuning knobs for [`SocketPool`]. The defaults suit a loopback or
/// rack-local fleet; raise the deadlines for anything slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketConfig {
    /// Deadline for one TCP connect attempt.
    pub connect_timeout: Duration,
    /// Read deadline per reply frame; expiry marks the worker
    /// [`WorkerError::Timeout`] and re-dispatches its unanswered jobs.
    /// `Duration::MAX` never expires ([`ProcessPool`]'s local children).
    pub read_timeout: Duration,
    /// Connect retry/backoff schedule.
    pub retry: RetryPolicy,
    /// Maximum unanswered requests in flight per connection. Keeps the
    /// send side ahead of the worker without try_clone or feeder threads:
    /// `window` job frames are far smaller than any socket buffer, so a
    /// single thread can alternate send/receive without deadlocking.
    pub window: usize,
    /// Send one in-band heartbeat ping every this many jobs (0 disables).
    /// A stalled worker then fails the batch within `read_timeout` even
    /// when the stall hits between replies.
    pub heartbeat_every: usize,
    /// Probe/backoff schedule for re-admitting excluded lanes.
    pub rejoin: RejoinPolicy,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            window: 32,
            heartbeat_every: 16,
            rejoin: RejoinPolicy::default(),
        }
    }
}

/// What the next in-order reply frame on a connection must be — requests
/// are answered strictly in submission order, so the client tracks a
/// FIFO of expectations instead of tagging frames.
enum Expected {
    /// A [`wire::reply`] for the job at this index of the full work-list.
    Job(usize),
    /// A pong carrying this nonce.
    Ping(u64),
}

/// The socket backend: a fleet of `osp-worker --listen` endpoints
/// ([`WorkerAddr`]), each lane one framed connection. Jobs are chunked
/// contiguously across live workers like every other backend, and the
/// same bit-identity contract holds — outcomes are pure functions of the
/// specs, so *which* worker answers is invisible in the results.
///
/// The failure model:
///
/// * connects retry with bounded exponential backoff ([`RetryPolicy`]);
///   a worker that never connects or fails its [`Hello`](crate::wire::Hello) handshake is
///   excluded before taking any jobs;
/// * each connection enforces a read deadline and sends in-band
///   heartbeat pings; expiry is a typed [`WorkerError::Timeout`];
/// * a worker dying mid-batch (EOF, reset, garbage) is a typed
///   [`WorkerError::Disconnect`], and its **unanswered jobs are
///   re-dispatched** to the surviving workers — rounds continue until
///   every job is answered or every worker is dead, in which case the
///   leftovers fail with [`WorkerError::AllWorkersDead`];
/// * per-job failures answered by a healthy worker
///   ([`WorkerError::Remote`]) are final and never re-dispatched.
///
/// `tests/socket_pool_conformance.rs` pins the full matrix, including
/// bit-identity under an injected mid-batch worker kill.
///
/// Since PR 8 the fleet is *supervised state*, not a static list:
/// exclusion persists across runs, a rejoin probe loop re-admits lanes
/// that answer pings again ([`RejoinPolicy`]), and the shareable
/// [`FleetHandle`] reports the lanes and forces a probe. Clones of a pool
/// share one fleet.
#[derive(Debug, Clone)]
pub struct SocketPool {
    fleet: Arc<Mutex<FleetState>>,
    config: SocketConfig,
}

/// The shared, supervised fleet behind a [`SocketPool`] and its
/// [`FleetHandle`]s.
#[derive(Debug)]
struct FleetState {
    lanes: Vec<Lane>,
    /// Lifetime count of lanes re-admitted by a successful probe.
    rejoined: u64,
    /// Lifetime count of rejoin probes sent (successful or not).
    probes: u64,
}

/// One fleet member and its supervision state.
#[derive(Debug)]
struct Lane {
    addr: WorkerAddr,
    status: LaneStatus,
}

#[derive(Debug)]
enum LaneStatus {
    /// Taking chunks.
    Up,
    /// Out of the rotation; probed on the [`RejoinPolicy`] schedule.
    Excluded {
        /// Consecutive failed probes since exclusion.
        failures: u32,
        /// When the next probe is due.
        next_probe: Instant,
        /// The exclusion cause (display of the [`WorkerError`]).
        cause: String,
    },
}

impl SocketPool {
    /// A pool over `addrs` with default [`SocketConfig`].
    ///
    /// # Panics
    ///
    /// If `addrs` is empty — a socket fleet needs at least one worker.
    pub fn new(addrs: Vec<WorkerAddr>) -> Self {
        SocketPool::with_config(addrs, SocketConfig::default())
    }

    /// A pool over `addrs` with explicit tuning.
    ///
    /// # Panics
    ///
    /// If `addrs` is empty.
    pub fn with_config(addrs: Vec<WorkerAddr>, config: SocketConfig) -> Self {
        assert!(
            !addrs.is_empty(),
            "socket fleet must name at least one worker"
        );
        let lanes = addrs
            .into_iter()
            .map(|addr| Lane {
                addr,
                status: LaneStatus::Up,
            })
            .collect();
        SocketPool {
            fleet: Arc::new(Mutex::new(FleetState {
                lanes,
                rejoined: 0,
                probes: 0,
            })),
            config,
        }
    }

    /// A cloneable handle onto this pool's fleet — probe triggering and
    /// the [`FleetReport`], without holding the pool itself.
    pub fn fleet_handle(&self) -> FleetHandle {
        FleetHandle {
            fleet: Arc::clone(&self.fleet),
            rejoin: self.config.rejoin,
        }
    }

    /// A pool over the fleet named by `OSP_WORKER_ADDRS` (comma-separated
    /// [`WorkerAddr`]s).
    ///
    /// # Errors
    ///
    /// [`WorkerError::Spawn`] when the variable is unset, empty, or
    /// unparseable — there is no sensible default fleet.
    pub fn from_env() -> Result<Self, Error> {
        let raw = std::env::var("OSP_WORKER_ADDRS").map_err(|_| {
            WorkerError::Spawn(
                "OSP_WORKER_ADDRS is not set (want comma-separated worker addresses)".into(),
            )
        })?;
        let addrs = WorkerAddr::parse_list(&raw)
            .map_err(|e| WorkerError::Spawn(format!("OSP_WORKER_ADDRS: {e}")))?;
        if addrs.is_empty() {
            return Err(WorkerError::Spawn("OSP_WORKER_ADDRS names no workers".into()).into());
        }
        Ok(SocketPool::new(addrs))
    }

    /// The fleet's addresses, in lane order.
    pub fn addrs(&self) -> Vec<WorkerAddr> {
        let fleet = self.fleet.lock().expect("fleet lock");
        fleet.lanes.iter().map(|lane| lane.addr.clone()).collect()
    }

    /// Connects to `addr` under the retry schedule and completes the
    /// handshake.
    fn connect(&self, addr: &WorkerAddr) -> Result<Stream, WorkerError> {
        let retry = self.config.retry;
        let attempts = retry.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            match Stream::connect(addr, self.config.connect_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => {
                    last = e.to_string();
                    if retry.should_retry(attempt) {
                        std::thread::sleep(retry.delay(attempt));
                    }
                }
            }
        }
        Err(WorkerError::Connect {
            addr: addr.to_string(),
            attempts,
            cause: last,
        })
    }

    /// Classifies a failed/EOF'd read: a full-deadline wait is a timeout,
    /// anything quicker is the stream dying under us. (The io error kind
    /// is gone by the time [`wire::read_frame`] has wrapped it, so the
    /// clock is the discriminator.)
    fn classify(&self, addr: &WorkerAddr, started: Instant, cause: String) -> WorkerError {
        if started.elapsed() >= self.config.read_timeout {
            WorkerError::Timeout {
                addr: addr.to_string(),
                cause,
            }
        } else {
            WorkerError::Disconnect {
                addr: addr.to_string(),
                cause,
            }
        }
    }

    /// Runs the chunk `assigned` (indices into `jobs`) over one
    /// connection to `addr`, pushing every answer obtained onto
    /// `answered`, and returns the connection's fate; on an `Err` fate
    /// the unanswered indices are the caller's to re-dispatch.
    fn run_chunk(
        &self,
        addr: &WorkerAddr,
        assigned: &[usize],
        jobs: &[JobSpec],
        answered: &mut Vec<(usize, Result<Outcome, Error>)>,
    ) -> Result<(), WorkerError> {
        let disconnect = |cause: String| WorkerError::Disconnect {
            addr: addr.to_string(),
            cause,
        };
        let stream = self.connect(addr)?;
        let (mut reader, _) = handshake(&stream, &addr.to_string(), self.config.read_timeout)?;
        let mut writer = &stream;

        let window = self.config.window.max(1);
        let mut expected: VecDeque<Expected> = VecDeque::with_capacity(window);
        let mut to_send = assigned.iter().copied();
        let mut sent_all = false;
        let mut jobs_since_ping = 0usize;
        let mut ping_nonce = 0u64;
        loop {
            // Keep the window full, interleaving a heartbeat every
            // `heartbeat_every` jobs.
            while !sent_all && expected.len() < window {
                let request = if self.config.heartbeat_every > 0
                    && jobs_since_ping >= self.config.heartbeat_every
                {
                    ping_nonce += 1;
                    jobs_since_ping = 0;
                    expected.push_back(Expected::Ping(ping_nonce));
                    wire::Request::Ping(ping_nonce)
                } else if let Some(index) = to_send.next() {
                    jobs_since_ping += 1;
                    expected.push_back(Expected::Job(index));
                    wire::Request::Job(jobs[index].clone())
                } else {
                    sent_all = true;
                    let _ = writer.flush();
                    // Clean EOF between frames is the shutdown signal.
                    stream.shutdown_write();
                    break;
                };
                wire::write_message(&mut writer, &request)
                    .map_err(|e| disconnect(e.to_string()))?;
            }
            if !sent_all {
                let _ = writer.flush();
            }
            let Some(next) = expected.pop_front() else {
                return Ok(());
            };
            let started = Instant::now();
            // Read whichever frame the worker sent, then check it against
            // the order: a frame that *decodes* but is the wrong type is a
            // typed FrameOrder violation, not a generic decode failure —
            // the worker is answering out of order, the stream is fine.
            let frame = match wire::read_message::<_, wire::ServerFrame>(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    let cause = match next {
                        Expected::Job(_) => "stream closed with replies outstanding",
                        Expected::Ping(_) => "stream closed at a heartbeat",
                    };
                    return Err(self.classify(addr, started, cause.to_string()));
                }
                Err(e) => return Err(self.classify(addr, started, e.to_string())),
            };
            match (next, frame) {
                (Expected::Job(index), wire::ServerFrame::Reply(reply)) => {
                    answered.push((index, wire::reply::decode(reply)));
                }
                (Expected::Ping(nonce), wire::ServerFrame::Pong(wire::Pong { pong })) => {
                    if pong != nonce {
                        return Err(disconnect(format!(
                            "heartbeat answered out of order: sent {nonce}, got {pong}"
                        )));
                    }
                }
                (expected, got) => {
                    return Err(WorkerError::FrameOrder {
                        addr: addr.to_string(),
                        expected: match expected {
                            Expected::Job(_) => "job reply",
                            Expected::Ping(_) => "pong",
                        },
                        got: got.kind(),
                    });
                }
            }
        }
    }
}

impl Dispatcher for SocketPool {
    fn run_specs_with_events(
        &self,
        jobs: &[JobSpec],
        sink: &dyn EventSink,
    ) -> Vec<Result<Outcome, Error>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let mut results: Vec<Option<Result<Outcome, Error>>> = vec![None; jobs.len()];
        loop {
            let pending: Vec<usize> = (0..jobs.len()).filter(|&i| results[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            // Heal first: probe any excluded lane whose backoff has
            // elapsed, so a restarted worker takes chunks this round.
            probe_excluded(&self.fleet, self.config.rejoin, false, Some(sink));
            let lanes: Vec<WorkerAddr> = {
                let fleet = self.fleet.lock().expect("fleet lock");
                fleet
                    .lanes
                    .iter()
                    .filter(|lane| matches!(lane.status, LaneStatus::Up))
                    .map(|lane| lane.addr.clone())
                    .collect()
            };
            if lanes.is_empty() {
                // Last chance before failing the leftovers: force-probe
                // every excluded lane right now, backoff or not. A
                // restarted worker rejoins here; a dead loopback refuses
                // instantly, so the unreachable path stays fast.
                if probe_excluded(&self.fleet, self.config.rejoin, true, Some(sink)) > 0 {
                    continue;
                }
                let err = Error::Worker(WorkerError::AllWorkersDead {
                    pending: pending.len(),
                });
                for index in pending {
                    results[index] = Some(Err(err.clone()));
                }
                break;
            }
            // Contiguous chunks over the live lanes — the same split
            // discipline as every other backend, re-applied each round so
            // recovery keeps the submission order intact positionally.
            let lanes_used = lanes.len().min(pending.len());
            let chunk = pending.len().div_ceil(lanes_used);
            // One lane's round: (lane address, answered jobs, lane fate).
            type LaneRound = (
                WorkerAddr,
                Vec<(usize, Result<Outcome, Error>)>,
                Result<(), WorkerError>,
            );
            let round: Vec<LaneRound> = std::thread::scope(|scope| {
                let handles: Vec<_> = pending
                    .chunks(chunk)
                    .zip(&lanes)
                    .map(|(slice, addr)| {
                        let handle = scope.spawn(move || {
                            let mut answers = Vec::with_capacity(slice.len());
                            let fate = self.run_chunk(addr, slice, jobs, &mut answers);
                            (answers, fate)
                        });
                        (addr, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(addr, h)| {
                        let (answers, fate) = h.join().expect("socket lane thread panicked");
                        (addr.clone(), answers, fate)
                    })
                    .collect()
            });
            for (addr, answers, fate) in round {
                for (index, result) in answers {
                    results[index] = Some(result);
                }
                if let Err(e) = fate {
                    exclude_lane(&self.fleet, &addr, &e, self.config.rejoin);
                    sink.event(DispatchEvent::WorkerExcluded {
                        addr: addr.to_string(),
                        error: e,
                    });
                }
            }
            sink.event(DispatchEvent::Progress {
                answered: results.iter().filter(|r| r.is_some()).count(),
                total: jobs.len(),
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every job answered or failed"))
            .collect()
    }

    fn lanes(&self) -> usize {
        let fleet = self.fleet.lock().expect("fleet lock");
        fleet.lanes.len()
    }

    fn backend(&self) -> &'static str {
        "sockets"
    }

    fn fleet(&self) -> Option<FleetHandle> {
        Some(self.fleet_handle())
    }
}

/// Marks the lane at `addr` excluded (if it is still `Up`), with
/// its first probe due after the policy's base delay.
fn exclude_lane(
    fleet: &Mutex<FleetState>,
    addr: &WorkerAddr,
    error: &WorkerError,
    rejoin: RejoinPolicy,
) {
    let mut fleet = fleet.lock().expect("fleet lock");
    if let Some(lane) = fleet
        .lanes
        .iter_mut()
        .find(|lane| &lane.addr == addr && matches!(lane.status, LaneStatus::Up))
    {
        lane.status = LaneStatus::Excluded {
            failures: 0,
            next_probe: Instant::now() + rejoin.delay(0),
            cause: error.to_string(),
        };
    }
}

/// One pass of the rejoin probe loop: ping every excluded lane whose
/// backoff has elapsed (every excluded lane when `force`), re-admitting
/// the ones that answer. Pings happen outside the fleet lock so a slow
/// probe cannot stall fleet reports. Returns how many rejoined.
fn probe_excluded(
    fleet: &Mutex<FleetState>,
    rejoin: RejoinPolicy,
    force: bool,
    sink: Option<&dyn EventSink>,
) -> usize {
    let now = Instant::now();
    let due: Vec<WorkerAddr> = {
        let fleet = fleet.lock().expect("fleet lock");
        fleet
            .lanes
            .iter()
            .filter(|lane| match &lane.status {
                LaneStatus::Up => false,
                LaneStatus::Excluded { next_probe, .. } => force || *next_probe <= now,
            })
            .map(|lane| lane.addr.clone())
            .collect()
    };
    if due.is_empty() {
        return 0;
    }
    let verdicts: Vec<(WorkerAddr, bool)> = due
        .into_iter()
        .map(|addr| {
            let ok = ping(&addr, rejoin.probe_timeout).is_ok();
            (addr, ok)
        })
        .collect();
    let mut rejoined = 0;
    // Events are collected under the lock and emitted after it drops: a
    // sink may take its own locks (the replay service's state lock, which
    // is also held *around* fleet queries in status calls), so emitting
    // under the fleet lock would invert the lock order.
    let mut events = Vec::new();
    {
        let mut guard = fleet.lock().expect("fleet lock");
        for (addr, ok) in verdicts {
            guard.probes += 1;
            events.push(DispatchEvent::WorkerProbed {
                addr: addr.to_string(),
                ok,
            });
            let Some(lane) = guard.lanes.iter_mut().find(|lane| lane.addr == addr) else {
                continue;
            };
            match (&mut lane.status, ok) {
                (LaneStatus::Up, _) => {}
                (LaneStatus::Excluded { .. }, true) => {
                    lane.status = LaneStatus::Up;
                    guard.rejoined += 1;
                    rejoined += 1;
                    events.push(DispatchEvent::WorkerRejoined {
                        addr: addr.to_string(),
                    });
                }
                (
                    LaneStatus::Excluded {
                        failures,
                        next_probe,
                        ..
                    },
                    false,
                ) => {
                    *failures = failures.saturating_add(1);
                    *next_probe = Instant::now() + rejoin.delay(*failures);
                }
            }
        }
    }
    if let Some(sink) = sink {
        for event in events {
            sink.event(event);
        }
    }
    rejoined
}

/// A cloneable handle onto a [`SocketPool`]'s supervised fleet — probe
/// triggering and the lane report with its counters, detached from
/// the pool so the serve layer can keep one after the dispatcher is
/// boxed away ([`Dispatcher::fleet`]).
#[derive(Debug, Clone)]
pub struct FleetHandle {
    fleet: Arc<Mutex<FleetState>>,
    rejoin: RejoinPolicy,
}

impl FleetHandle {
    /// A snapshot of every lane plus the lifetime counters.
    pub fn report(&self) -> FleetReport {
        let fleet = self.fleet.lock().expect("fleet lock");
        FleetReport {
            lanes: fleet
                .lanes
                .iter()
                .map(|lane| match &lane.status {
                    LaneStatus::Up => LaneReport {
                        addr: lane.addr.to_string(),
                        state: "up".to_string(),
                        failures: 0,
                        cause: String::new(),
                    },
                    LaneStatus::Excluded {
                        failures, cause, ..
                    } => LaneReport {
                        addr: lane.addr.to_string(),
                        state: "excluded".to_string(),
                        failures: *failures,
                        cause: cause.clone(),
                    },
                })
                .collect(),
            rejoined: fleet.rejoined,
            probes: fleet.probes,
        }
    }

    /// Force-probes every excluded lane right now (ignoring backoff) and
    /// returns how many rejoined. The synchronous form of the probe loop,
    /// for admin verbs and tests.
    pub fn probe(&self) -> usize {
        probe_excluded(&self.fleet, self.rejoin, true, None)
    }
}

/// Snapshot of a supervised fleet: one [`LaneReport`] per member plus
/// the lifetime rejoin/probe counters. Serializable — this is the
/// payload of `osp-serve`'s `fleet` admin verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Every fleet member, in lane order.
    pub lanes: Vec<LaneReport>,
    /// Lanes re-admitted by a successful probe, over the fleet's life.
    pub rejoined: u64,
    /// Rejoin probes sent (successful or not), over the fleet's life.
    pub probes: u64,
}

impl FleetReport {
    /// Lanes currently taking chunks.
    pub fn up(&self) -> usize {
        self.lanes.iter().filter(|lane| lane.state == "up").count()
    }
}

/// One lane of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneReport {
    /// The worker's address.
    pub addr: String,
    /// `"up"` or `"excluded"`.
    pub state: String,
    /// Consecutive failed rejoin probes since exclusion (0 when up).
    pub failures: u32,
    /// Why the lane was excluded (empty when up).
    pub cause: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::RandomInstanceConfig;
    use crate::spec::{run_spec, CoreResolver};

    fn jobs(n: u64) -> Vec<JobSpec> {
        derived_jobs(
            &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
            &AlgorithmSpec::RandPr,
            5,
            n,
        )
    }

    #[test]
    fn derived_jobs_follow_the_splitmix_stream() {
        let jobs = jobs(4);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.seed, derive_seed(5, i as u64));
        }
    }

    #[test]
    fn spec_pool_matches_sequential_and_reports_backend() {
        let jobs = jobs(7);
        let sequential: Vec<Outcome> = jobs
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect();
        let pool = SpecPool::new(ReplayPool::new(3), CoreResolver);
        assert_eq!(pool.backend(), "threads");
        assert_eq!(pool.lanes(), 3);
        let got: Vec<Outcome> = pool
            .run_specs(&jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, sequential);
    }

    #[test]
    fn process_pool_spawn_failure_fails_every_job_cleanly() {
        let pool =
            ProcessPool::with_command(2, vec!["osp-worker-binary-that-does-not-exist".into()]);
        assert_eq!(pool.backend(), "processes");
        assert_eq!(pool.lanes(), 2);
        let out = pool.run_specs(&jobs(5));
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|r| matches!(r, Err(Error::Worker(_)))));
    }

    #[test]
    fn process_pool_empty_jobs_and_zero_workers() {
        let pool = ProcessPool::with_command(0, vec!["unused".into()]);
        assert_eq!(pool.workers(), 1);
        assert!(pool.run_specs(&[]).is_empty());
    }

    #[test]
    fn chatty_worker_that_never_reads_stdin_cannot_hang_the_pool() {
        // `yes` spews its arguments forever and never reads anything. Its
        // first line is not a `listening on` banner, so the pool must fail
        // every job at spawn time and kill the child rather than wait on
        // it.
        let pool = ProcessPool::with_command(1, vec!["yes".into()]);
        let out = pool.run_specs(&jobs(3000));
        assert_eq!(out.len(), 3000);
        assert!(out.iter().all(|r| r.is_err()));
    }

    #[test]
    fn retry_policy_backs_off_exponentially_and_caps() {
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(300),
        };
        assert_eq!(policy.delay(0), Duration::from_millis(50));
        assert_eq!(policy.delay(1), Duration::from_millis(100));
        assert_eq!(policy.delay(2), Duration::from_millis(200));
        // Capped from here on — including shift amounts that would
        // overflow the factor.
        assert_eq!(policy.delay(3), Duration::from_millis(300));
        assert_eq!(policy.delay(31), Duration::from_millis(300));
        assert_eq!(policy.delay(64), Duration::from_millis(300));
        assert!(policy.should_retry(0));
        assert!(policy.should_retry(3));
        assert!(!policy.should_retry(4));
        // Zero attempts behaves as one: no retries.
        let one = RetryPolicy {
            attempts: 0,
            ..policy
        };
        assert!(!one.should_retry(0));
    }

    #[test]
    fn socket_pool_reports_backend_and_lanes() {
        let pool = SocketPool::new(vec![
            WorkerAddr::Tcp("127.0.0.1:7401".into()),
            WorkerAddr::Tcp("127.0.0.1:7402".into()),
        ]);
        assert_eq!(pool.backend(), "sockets");
        assert_eq!(pool.lanes(), 2);
        assert_eq!(pool.addrs().len(), 2);
        assert!(pool.run_specs(&[]).is_empty());
    }

    #[test]
    fn rejoin_policy_backs_off_exponentially_and_caps() {
        let policy = RejoinPolicy {
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(600),
            probe_timeout: Duration::from_millis(50),
        };
        assert_eq!(policy.delay(0), Duration::from_millis(100));
        assert_eq!(policy.delay(1), Duration::from_millis(200));
        assert_eq!(policy.delay(2), Duration::from_millis(400));
        assert_eq!(policy.delay(3), Duration::from_millis(600));
        assert_eq!(policy.delay(31), Duration::from_millis(600));
        assert_eq!(policy.delay(64), Duration::from_millis(600));
    }

    #[test]
    fn fleet_reports_a_static_two_lane_fleet() {
        let a = WorkerAddr::Tcp("127.0.0.1:7401".into());
        let b = WorkerAddr::Tcp("127.0.0.1:7402".into());
        let pool = SocketPool::new(vec![a.clone(), b.clone()]);
        let handle = pool.fleet().expect("socket pools supervise a fleet");

        assert_eq!(pool.lanes(), 2);
        assert_eq!(pool.addrs(), vec![a.clone(), b.clone()]);

        let report = handle.report();
        assert_eq!(report.up(), 2);
        assert_eq!(report.rejoined, 0);
        assert_eq!(report.probes, 0);
        assert!(report
            .lanes
            .iter()
            .all(|lane| lane.state == "up" && lane.failures == 0 && lane.cause.is_empty()));
    }

    #[test]
    fn probe_of_unreachable_excluded_lane_backs_off_and_counts() {
        let dead = WorkerAddr::Tcp("127.0.0.1:1".into());
        let rejoin = RejoinPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            probe_timeout: Duration::from_millis(100),
        };
        let pool = SocketPool::with_config(
            vec![dead.clone()],
            SocketConfig {
                rejoin,
                ..SocketConfig::default()
            },
        );
        exclude_lane(
            &pool.fleet,
            &dead,
            &WorkerError::Disconnect {
                addr: dead.to_string(),
                cause: "test".into(),
            },
            rejoin,
        );
        let handle = pool.fleet_handle();
        let report = handle.report();
        assert_eq!(report.up(), 0);
        assert_eq!(report.lanes[0].state, "excluded");
        assert_eq!(handle.probe(), 0, "port 1 refuses, nothing rejoins");
        assert_eq!(handle.probe(), 0);
        let report = handle.report();
        assert_eq!(report.probes, 2);
        assert_eq!(report.rejoined, 0);
        assert_eq!(report.lanes[0].failures, 2, "failed probes accumulate");
    }

    #[test]
    fn non_socket_backends_have_no_fleet() {
        let pool = SpecPool::new(ReplayPool::new(2), CoreResolver);
        assert!(pool.fleet().is_none());
        let procs = ProcessPool::with_command(1, vec!["unused".into()]);
        assert!(procs.fleet().is_none());
    }

    #[test]
    fn unreachable_fleet_fails_every_job_with_all_workers_dead() {
        // Loopback port 1 refuses instantly; with a 1-attempt policy the
        // whole fleet dies in round one and every job gets the typed
        // exhaustion error.
        let config = SocketConfig {
            connect_timeout: Duration::from_millis(300),
            retry: RetryPolicy {
                attempts: 1,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(1),
            },
            ..SocketConfig::default()
        };
        let pool = SocketPool::with_config(vec![WorkerAddr::Tcp("127.0.0.1:1".into())], config);
        let out = pool.run_specs(&jobs(3));
        assert_eq!(out.len(), 3);
        for r in &out {
            assert!(
                matches!(
                    r,
                    Err(Error::Worker(WorkerError::AllWorkersDead { pending: 3 }))
                ),
                "got {r:?}"
            );
        }
    }

    #[test]
    fn worker_that_talks_garbage_is_a_clean_error() {
        // `echo` exits immediately after printing a line that is not a
        // banner: the pool must surface a worker error, never hang or
        // panic. (POSIX-only, like the rest of the process tests.)
        let pool = ProcessPool::with_command(1, vec!["echo".into(), "not-a-frame".into()]);
        let out = pool.run_specs(&jobs(2));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.is_err()));
    }

    /// A stand-in worker: prints the banner for the socket path appended
    /// as `$2` (after `--listen`), then sleeps until killed — except for
    /// the socket named by `refuse`, which prints something else.
    fn fake_worker(refuse: &str) -> Vec<String> {
        let script = format!(
            "case \"$2\" in *{refuse}) echo \"refused $2\";; \
             *) echo \"listening on $2\"; exec sleep 60;; esac"
        );
        vec!["sh".into(), "-c".into(), script, "sh".into()]
    }

    #[test]
    fn spawn_listening_bounds_a_banner_that_never_ends() {
        let err = spawn_listening(Command::new("sh").args(["-c", "exec cat /dev/zero"]))
            .expect_err("NUL bytes are no banner");
        assert!(matches!(err, Error::Worker(WorkerError::Spawn(_))), "{err}");
    }

    #[test]
    fn local_fleet_drop_kills_its_children_and_removes_the_socket_dir() {
        let fleet = LocalFleet::spawn(&fake_worker("none"), 3).expect("three banners");
        let dir = fleet.dir.clone();
        assert!(dir.is_dir());
        assert_eq!(
            fleet.addrs,
            (0..3)
                .map(|i| WorkerAddr::Uds(dir.join(format!("w{i}.sock"))))
                .collect::<Vec<_>>()
        );
        let pids: Vec<u32> = fleet.children.iter().map(Child::id).collect();
        drop(fleet);
        assert!(!dir.exists(), "socket dir removed");
        for pid in pids {
            assert!(
                !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                "child {pid} killed and reaped"
            );
        }
    }

    #[test]
    fn local_fleet_spawn_failure_cleans_up_the_children_already_up() {
        let Err(err) = LocalFleet::spawn(&fake_worker("w1.sock"), 3) else {
            panic!("the second worker never prints a banner");
        };
        let message = err.to_string();
        assert!(
            matches!(err, Error::Worker(WorkerError::Spawn(_))),
            "{message}"
        );
        let socket = message
            .split_whitespace()
            .find_map(|word| word.trim_end_matches(['"', '\\', 'n']).strip_prefix("uds:"))
            .expect("the refusing worker's socket path is in the error");
        let dir = std::path::Path::new(socket).parent().unwrap();
        assert!(!dir.exists(), "socket dir {} removed", dir.display());
    }
}
