//! Replay as a service: a long-running front door over any
//! [`Dispatcher`] backend.
//!
//! The engine so far is batch-invoked — somebody builds a job list, calls
//! [`run_specs`](Dispatcher::run_specs), and waits. This module adds the
//! contract a service-scale deployment needs: **accept work, track it,
//! answer callers over time**. Three layers, all in this file:
//!
//! * [`ReplayService`] — the embeddable core: a background executor
//!   thread draining a **bounded submission queue** of batches onto one
//!   `Dispatcher` (threads, processes, or a socket fleet — the service
//!   does not care), plus a **content-addressed results cache** keyed by
//!   the digest of each job's canonical JSON ([`job_digest`]): a
//!   resubmitted spec is answered without recompute (a batch the cache
//!   answers whole is done at submit, without queueing), and the hit/miss
//!   counters are surfaced in every [`BatchStatus`]. The cache is a
//!   [`ResultStore`]: bounded in memory (LRU, [`ServiceConfig`] caps)
//!   and — with [`ServiceConfig::state_dir`] set — journaled to disk
//!   ([`JournalStore`]), with **one manifest per batch, written at
//!   submit,** so a service killed mid-batch resumes on restart,
//!   re-serving journaled results bit-identically and recomputing only
//!   the missing jobs. Batch ids are never reused across restarts: the
//!   issued-id high-water mark is kept in the state directory;
//! * **one resident copy per result** — each outcome is encoded once,
//!   into an [`OutcomeJson`] buffer that the cache and every batch record
//!   holding it share. `Fetch` splices those bytes into the reply frame
//!   ([`write_results`]), so the server never re-encodes an outcome;
//! * **retirement** — finished batches count against
//!   [`ServiceConfig::cache_bytes`] too, and the oldest are dropped past
//!   it. Asking after a retired batch answers a typed
//!   [`Error::Unavailable`]; resubmitting it answers from the cache. So a
//!   long-lived service holds a bounded amount of results, however many
//!   batches it serves;
//! * [`ServeServer`] — the wire front door: a [`WorkerAddr`] listener
//!   (TCP or Unix-domain, the same transports as the worker fleet)
//!   answering framed [`ServeRequest`]s — submit, status, fetch, cancel,
//!   shutdown, and the `fleet` admin verb ([`FleetCommand`]: inspect the
//!   lanes, trigger a rejoin probe) — against an embedded
//!   `ReplayService`, strict request/reply. It runs on the worker's
//!   accept loop ([`wire::socket`]): one thread per connection, at most
//!   [`MAX_CONNECTIONS`](crate::wire::socket::MAX_CONNECTIONS) at once,
//!   accept errors retried. A frame that arrives whole but does not
//!   decode is answered with [`ServeReply::Error`] and the connection
//!   keeps serving;
//! * [`ServeClient`] — the caller side: connect + [`Hello`] check, then
//!   typed submit/status/fetch/cancel calls and a polling
//!   [`wait`](ServeClient::wait) helper.
//!
//! Determinism is inherited wholesale: outcomes are pure functions of the
//! [`JobSpec`], so a batch fetched from the service is bit-identical to a
//! sequential [`run_spec`](crate::spec::run_spec) loop over the same
//! specs — whatever backend executes it, and whether or not the cache
//! answered (pinned by `tests/replay_service.rs` across all three
//! backends, including a fault-injected socket fleet).
//!
//! ```no_run
//! use osp_core::serve::{ReplayService, ServeServer, ServeClient, ServiceConfig};
//! use osp_core::spec::{AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
//! use osp_core::gen::RandomInstanceConfig;
//! use osp_core::wire::socket::WorkerAddr;
//! use osp_core::{derived_jobs, ReplayPool, SpecPool};
//! use std::time::Duration;
//!
//! let jobs = derived_jobs(
//!     &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(24, 60, 3)),
//!     &AlgorithmSpec::RandPr,
//!     7,
//!     4,
//! );
//! let service = ReplayService::new(
//!     Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
//!     ServiceConfig::default(),
//! )?;
//! let server = ServeServer::bind(&WorkerAddr::Tcp("127.0.0.1:0".into()), service)?;
//! let mut client = ServeClient::connect(server.local_addr(), Duration::from_secs(5))?;
//! let batch = client.submit(&jobs)?;
//! let status = client.wait(batch, Duration::from_millis(20), Duration::from_secs(60))?;
//! let results = client.fetch(batch)?;
//! # Ok::<(), osp_core::Error>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::engine::dispatch::{DispatchEvent, Dispatcher, EventSink, FleetHandle, FleetReport};
use crate::engine::Outcome;
use crate::error::{Error, WorkerError};
use crate::spec::JobSpec;
use crate::store::{
    fnv1a, JournalStore, MemStore, OutcomeJson, ResultStore, StoreLimits, FNV_OFFSET,
};
use crate::wire;
use crate::wire::socket::{dial, FrameServer, Stream, WorkerAddr};
use crate::wire::Hello;

/// A second, independent FNV-1a basis — the digest's second lane (the
/// first is the standard [`FNV_OFFSET`]), so a single-lane collision does
/// not alias two different specs in the cache.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// Content address of a job: a two-lane FNV-1a digest over the spec's
/// canonical JSON. Canonical because the crate's serializer emits map
/// keys in declaration order — the same spec always renders to the same
/// bytes, so equal specs collide (the point of the cache) and different
/// specs would need a simultaneous 128-bit collision to alias.
///
/// # Errors
///
/// [`Error::Protocol`] if the spec does not serialize (cannot happen for
/// well-formed specs; surfaced rather than swallowed).
pub fn job_digest(job: &JobSpec) -> Result<(u64, u64), Error> {
    let json = serde_json::to_string(job)
        .map_err(|e| Error::Protocol(format!("digesting job spec: {e}")))?;
    let bytes = json.as_bytes();
    Ok((fnv1a(bytes, FNV_OFFSET), fnv1a(bytes, FNV_OFFSET_B)))
}

/// [`job_digest`] of every job; `None` marks a spec that does not
/// serialize, which is never cached.
fn job_digests(jobs: &[JobSpec]) -> Vec<Option<(u64, u64)>> {
    jobs.iter().map(|job| job_digest(job).ok()).collect()
}

/// Tuning for a [`ReplayService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Batches the submission queue holds before [`ReplayService::submit`]
    /// answers [`Error::Unavailable`] (zero is treated as one). Bounded by
    /// design: back-pressure belongs at the front door, not in an
    /// unbounded queue that hides overload until memory runs out.
    pub queue_capacity: usize,
    /// Jobs per dispatcher call inside one batch (zero is treated as
    /// one). Smaller chunks mean finer-grained progress in
    /// [`BatchStatus`] and faster cancel response; larger chunks amortize
    /// per-call overhead. With a `state_dir` this is also the durability
    /// granularity: the journal is flushed after every chunk.
    pub chunk: usize,
    /// Results-cache entry cap (`0` = unlimited). Least-recently-used
    /// outcomes are evicted past the cap; evictions are counted in
    /// [`BatchStatus::cache_evictions`].
    pub cache_entries: usize,
    /// Results-cache byte cap (`0` = unlimited), counting canonical-JSON
    /// outcome bytes plus the 16-byte digest per entry. Finished batches
    /// are held to the same cap: past it the oldest are retired (see
    /// [`ReplayService::try_status`]), so the results a service holds
    /// stay within about twice this many bytes.
    pub cache_bytes: u64,
    /// Persist the cache and batch manifests under this directory. The
    /// cache becomes a [`JournalStore`] (journal + snapshot, crash-safe),
    /// and interrupted batches found in the directory are re-queued on
    /// construction — journaled jobs answered from the store, only the
    /// rest recomputed.
    pub state_dir: Option<PathBuf>,
    /// Serve-side fault injection for crash drills: exit the process with
    /// status 86 after this many dispatched chunks (lifetime count,
    /// *after* the chunk's results are journaled and flushed). Wired to
    /// `OSP_FAULT=die-after-chunk:<n>` in `osp-serve`; never set in
    /// production.
    pub die_after_chunk: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            chunk: 16,
            cache_entries: StoreLimits::DEFAULT.max_entries,
            cache_bytes: StoreLimits::DEFAULT.max_bytes,
            state_dir: None,
            die_after_chunk: None,
        }
    }
}

/// Lifecycle of one submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl BatchState {
    fn as_str(self) -> &'static str {
        match self {
            BatchState::Queued => "queued",
            BatchState::Running => "running",
            BatchState::Done => "done",
            BatchState::Failed => "failed",
            BatchState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            BatchState::Done | BatchState::Failed | BatchState::Cancelled
        )
    }
}

/// One job's result as answered by `Fetch` — incremental, so a batch can
/// be fetched while still running.
///
/// Callers see decoded [`Outcome`]s (the default `O`); the service itself
/// holds each outcome as its shared [`OutcomeJson`].
///
/// On the wire each is a one-key object; an object holding several
/// tags decodes as the variant declared first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobResult<O = Outcome> {
    /// The outcome, bit-identical to sequential
    /// [`run_spec`](crate::spec::run_spec).
    Ok(O),
    /// The per-job failure, as display text (like
    /// [`reply`](crate::wire::reply) across the worker boundary).
    Err(String),
    /// Not answered yet (or never will be, if the batch was cancelled).
    Pending,
}

/// A point-in-time report on one batch, plus the service-lifetime cache
/// counters — the `Status` answer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchStatus {
    /// The batch id.
    pub id: u64,
    /// `queued` / `running` / `done` / `failed` / `cancelled`. `failed`
    /// means the batch finished with at least one per-job error; the
    /// other jobs' outcomes are still valid and fetchable.
    pub state: String,
    /// Jobs in the batch.
    pub total: u64,
    /// Jobs with a final result so far (outcomes and per-job errors).
    pub answered: u64,
    /// Jobs whose final result is an error.
    pub failed: u64,
    /// Jobs of *this batch* answered from the results cache.
    pub cached: u64,
    /// Per-job progress, in submission order: `pending` / `done` /
    /// `cached` / `failed` / `cancelled`.
    pub jobs: Vec<String>,
    /// Service-lifetime cache hits.
    pub cache_hits: u64,
    /// Service-lifetime cache misses.
    pub cache_misses: u64,
    /// Outcomes evicted from the results cache over the store's life
    /// (LRU past the [`ServiceConfig`] caps).
    pub cache_evictions: u64,
    /// Fleet workers excluded during dispatch since the service started
    /// (`addr: cause`, most recent last; socket backend only).
    pub excluded: Vec<String>,
    /// Excluded workers re-admitted by the rejoin probe (socket backend
    /// only; zero elsewhere).
    pub workers_rejoined: u64,
    /// Rejoin probes attempted, successful or not (socket backend only).
    pub worker_probes: u64,
}

/// What a retained finished batch is charged against
/// [`ServiceConfig::cache_bytes`] besides its result bytes: this much for
/// the record itself…
const RECORD_CHARGE: u64 = 256;
/// …and this much per job slot, so batches of errors, or of no jobs at
/// all, are bounded too.
const SLOT_CHARGE: u64 = 32;

/// One batch as the service tracks it.
struct BatchRecord {
    /// The specs, while the batch may still run; dropped when it ends.
    jobs: Vec<JobSpec>,
    /// One slot per job, submission order.
    results: Vec<JobResult<OutcomeJson>>,
    /// Parallel to `results`: answered from the cache.
    from_cache: Vec<bool>,
    state: BatchState,
    /// Set by [`ReplayService::cancel`]; the executor honors it between
    /// chunks.
    cancel: bool,
}

impl BatchRecord {
    fn new(jobs: Vec<JobSpec>) -> BatchRecord {
        let total = jobs.len();
        BatchRecord {
            jobs,
            results: vec![JobResult::Pending; total],
            from_cache: vec![false; total],
            state: BatchState::Queued,
            cancel: false,
        }
    }

    /// The record's cost while it is retained after finishing: every
    /// result's bytes (shared with the cache or not) plus fixed charges.
    fn charge(&self) -> u64 {
        let results: usize = self
            .results
            .iter()
            .map(|result| match result {
                JobResult::Pending => 0,
                JobResult::Ok(json) => json.as_bytes().len(),
                JobResult::Err(why) => why.len(),
            })
            .sum();
        RECORD_CHARGE + SLOT_CHARGE * self.results.len() as u64 + results as u64
    }

    fn status(&self, id: u64, shared: &ServiceState) -> BatchStatus {
        let answered = self
            .results
            .iter()
            .filter(|r| !matches!(r, JobResult::Pending))
            .count() as u64;
        let failed = self
            .results
            .iter()
            .filter(|r| matches!(r, JobResult::Err(_)))
            .count() as u64;
        let cached = self.from_cache.iter().filter(|&&c| c).count() as u64;
        let jobs = self
            .results
            .iter()
            .zip(&self.from_cache)
            .map(|(result, &from_cache)| {
                match result {
                    JobResult::Ok(_) if from_cache => "cached",
                    JobResult::Ok(_) => "done",
                    JobResult::Err(_) => "failed",
                    JobResult::Pending if self.state == BatchState::Cancelled => "cancelled",
                    JobResult::Pending => "pending",
                }
                .to_string()
            })
            .collect();
        let fleet = shared.fleet.as_ref().map(FleetHandle::report);
        BatchStatus {
            id,
            state: self.state.as_str().to_string(),
            total: self.results.len() as u64,
            answered,
            failed,
            cached,
            jobs,
            cache_hits: shared.cache_hits,
            cache_misses: shared.cache_misses,
            cache_evictions: shared.cache.evictions(),
            excluded: shared.excluded.clone(),
            workers_rejoined: fleet.as_ref().map_or(0, |r| r.rejoined),
            worker_probes: fleet.as_ref().map_or(0, |r| r.probes),
        }
    }
}

/// Everything behind the service mutex.
struct ServiceState {
    batches: HashMap<u64, BatchRecord>,
    /// Finished batches still held, oldest first, with their
    /// [`charge`](BatchRecord::charge).
    finished: VecDeque<(u64, u64)>,
    /// Sum of the charges in `finished`.
    finished_bytes: u64,
    /// [`ServiceConfig::cache_bytes`]: the cap on `finished_bytes`
    /// (`0` = unlimited).
    retain_bytes: u64,
    /// Content-addressed results: [`job_digest`] → outcome. Only
    /// successes are cached — errors may be transient (a dead fleet) and
    /// must re-execute on resubmit. A [`MemStore`] by default; a
    /// [`JournalStore`] when [`ServiceConfig::state_dir`] is set.
    cache: Box<dyn ResultStore>,
    cache_hits: u64,
    cache_misses: u64,
    /// Excluded-worker log (`addr: cause`), capped at
    /// [`EXCLUDED_LOG_CAP`] most recent entries.
    excluded: Vec<String>,
    /// Handle into the socket fleet's supervision state, when the backend
    /// has one — lets `Status` report rejoin counters and the `fleet`
    /// admin verb report lanes and force probes while the executor owns
    /// the dispatcher. Lock order is always service state → fleet state.
    fleet: Option<FleetHandle>,
}

impl ServiceState {
    fn record(&mut self, id: u64) -> &mut BatchRecord {
        self.batches.get_mut(&id).expect("running batch exists")
    }

    /// The cache pass over batch `id`: answers every job whose digest
    /// hits the results cache as a cached result, counts the hits and
    /// misses, and returns the indices of the misses — the jobs left to
    /// dispatch.
    fn answer_from_cache(&mut self, id: u64, digests: &[Option<(u64, u64)>]) -> Vec<usize> {
        let mut uncached = Vec::new();
        for (index, digest) in digests.iter().enumerate() {
            match digest.and_then(|d| self.cache.get_json(d)) {
                Some(json) => {
                    self.cache_hits += 1;
                    let record = self.record(id);
                    record.results[index] = JobResult::Ok(json);
                    record.from_cache[index] = true;
                }
                None => {
                    self.cache_misses += 1;
                    uncached.push(index);
                }
            }
        }
        uncached
    }

    /// Moves batch `id` to a terminal `state`, then retires the oldest
    /// finished batches while their charges exceed the cap. The newest
    /// finished batch always stays, so its caller can fetch it; queued
    /// and running batches are never candidates.
    fn finish(&mut self, id: u64, state: BatchState) {
        let record = self.record(id);
        record.state = state;
        record.jobs = Vec::new();
        let charge = record.charge();
        self.finished.push_back((id, charge));
        self.finished_bytes += charge;
        while self.retain_bytes != 0
            && self.finished_bytes > self.retain_bytes
            && self.finished.len() > 1
        {
            let (old, charge) = self.finished.pop_front().expect("more than one");
            self.batches.remove(&old);
            self.finished_bytes -= charge;
        }
    }
}

/// Most recent worker exclusions kept for [`BatchStatus::excluded`].
const EXCLUDED_LOG_CAP: usize = 32;

/// The dispatch event sink the executor runs under: worker exclusions
/// are recorded as structured fleet-health state (and echoed to stderr,
/// keeping the pre-service diagnostics); progress ticks are dropped —
/// per-chunk accounting in the batch records is already finer.
struct ServiceSink {
    state: Arc<Mutex<ServiceState>>,
}

impl EventSink for ServiceSink {
    fn event(&self, event: DispatchEvent) {
        match event {
            DispatchEvent::WorkerExcluded { addr, error } => {
                eprintln!("osp: excluding worker {addr}: {error}");
                let mut state = self.state.lock().expect("service state poisoned");
                if state.excluded.len() >= EXCLUDED_LOG_CAP {
                    state.excluded.remove(0);
                }
                state.excluded.push(format!("{addr}: {error}"));
            }
            DispatchEvent::WorkerRejoined { addr } => {
                eprintln!("osp: worker {addr} rejoined the fleet");
            }
            _ => {}
        }
    }
}

/// The embeddable replay service: one executor thread, one bounded
/// submission queue, one results cache, any [`Dispatcher`] backend. See
/// the [module docs](self) for the full contract.
pub struct ReplayService {
    state: Arc<Mutex<ServiceState>>,
    /// `None` after [`shutdown`](Self::shutdown); dropping the sender is
    /// the executor's stop signal.
    sender: Mutex<Option<SyncSender<u64>>>,
    executor: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
    /// With a state directory: ids below this are recorded as issued in
    /// its [`ID_MARK_FILE`], so a restart never issues them again.
    reserved_ids: Mutex<u64>,
    backend: &'static str,
    lanes: usize,
    /// Where batch manifests and the id mark live, when persistence is on.
    state_dir: Option<PathBuf>,
}

impl ReplayService {
    /// Starts the service: spawns the executor thread owning
    /// `dispatcher`.
    ///
    /// With [`ServiceConfig::state_dir`] set, the results cache is opened
    /// as a [`JournalStore`] (corrupt records are skipped and logged, a
    /// torn tail is truncated) and every `batch-<id>.json` manifest found
    /// in the directory — a batch interrupted by a crash — is re-queued
    /// in id order: journaled jobs are answered from the store as cache
    /// hits, only the rest are recomputed. New ids continue above every
    /// id an earlier run on the directory issued.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] when the state directory cannot be created
    /// or its journal cannot be opened. A corrupt journal is *not* an
    /// error — recovery salvages every intact record.
    pub fn new(
        dispatcher: Box<dyn Dispatcher + Send>,
        config: ServiceConfig,
    ) -> Result<ReplayService, Error> {
        let backend = dispatcher.backend();
        let lanes = dispatcher.lanes();
        let fleet = dispatcher.fleet();
        let limits = StoreLimits {
            max_entries: config.cache_entries,
            max_bytes: config.cache_bytes,
        };
        let mut resumed: Vec<BatchManifest> = Vec::new();
        let mut issued = 1;
        let cache: Box<dyn ResultStore> = match &config.state_dir {
            Some(dir) => {
                let store = JournalStore::open(dir, limits)?;
                for err in store.corrupt() {
                    eprintln!("osp: warning: journal recovery skipped a record: {err}");
                }
                resumed = load_manifests(dir);
                issued = load_id_mark(dir);
                Box::new(store)
            }
            None => Box::new(MemStore::new(limits)),
        };
        let next_id = resumed.iter().map(|m| m.id + 1).fold(issued, u64::max);
        let batches = resumed
            .iter()
            .map(|manifest| (manifest.id, BatchRecord::new(manifest.jobs.clone())))
            .collect();
        let state = Arc::new(Mutex::new(ServiceState {
            batches,
            finished: VecDeque::new(),
            finished_bytes: 0,
            retain_bytes: config.cache_bytes,
            cache,
            cache_hits: 0,
            cache_misses: 0,
            excluded: Vec::new(),
            fleet,
        }));
        // The channel must hold every resumed batch up front — resume
        // happens before the executor starts, so nothing is draining yet.
        let capacity = config.queue_capacity.max(resumed.len()).max(1);
        let (sender, receiver) = std::sync::mpsc::sync_channel(capacity);
        for manifest in &resumed {
            eprintln!(
                "osp: resuming batch {} ({} job{})",
                manifest.id,
                manifest.jobs.len(),
                if manifest.jobs.len() == 1 { "" } else { "s" }
            );
            sender.send(manifest.id).expect("resume queue sized to fit");
        }
        let state_dir = config.state_dir.clone();
        let executor = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || executor_loop(&state, &receiver, &*dispatcher, config))
        };
        Ok(ReplayService {
            state,
            sender: Mutex::new(Some(sender)),
            executor: Mutex::new(Some(executor)),
            next_id: AtomicU64::new(next_id),
            reserved_ids: Mutex::new(next_id),
            backend,
            lanes,
            state_dir,
        })
    }

    /// The executing backend's tag (`"threads"` / `"processes"` /
    /// `"sockets"`).
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The executing backend's lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Submits a batch; returns its id immediately (the batch runs in the
    /// background — poll [`status`](Self::status), then
    /// [`fetch`](Self::fetch)). A batch whose every job the results
    /// cache holds is answered here and reads `done` at once: it writes
    /// no manifest and does not queue behind the running batch.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] when the submission queue is full or the
    /// service is shutting down; nothing was enqueued — resubmit later.
    pub fn submit(&self, jobs: Vec<JobSpec>) -> Result<u64, Error> {
        let digests = job_digests(&jobs);
        if self
            .sender
            .lock()
            .expect("service sender poisoned")
            .is_none()
        {
            return Err(Error::Unavailable("service is shutting down".to_string()));
        }
        let id = self.issue_id();
        {
            let mut state = self.state.lock().expect("service state poisoned");
            state.batches.insert(id, BatchRecord::new(jobs.clone()));
            // A batch the cache answers whole needs no executor: answer
            // it here, with no manifest and no place in the queue.
            if digests
                .iter()
                .all(|d| d.is_some_and(|d| state.cache.contains(d)))
            {
                let uncached = state.answer_from_cache(id, &digests);
                debug_assert!(uncached.is_empty());
                state.finish(id, BatchState::Done);
                return Ok(id);
            }
        }
        // Write the manifest *before* enqueueing: once the executor can
        // see the batch, the on-disk record must already exist, or a
        // crash in the gap would lose it.
        if let Some(dir) = &self.state_dir {
            write_manifest(dir, &BatchManifest { id, jobs });
        }
        let sender = self.sender.lock().expect("service sender poisoned");
        let enqueue = match sender.as_ref() {
            Some(sender) => sender.try_send(id),
            None => Err(TrySendError::Disconnected(id)),
        };
        if let Err(e) = enqueue {
            let mut state = self.state.lock().expect("service state poisoned");
            state.batches.remove(&id);
            drop(state);
            if let Some(dir) = &self.state_dir {
                remove_manifest(dir, id);
            }
            return Err(Error::Unavailable(match e {
                TrySendError::Full(_) => "submission queue is full — resubmit later".to_string(),
                TrySendError::Disconnected(_) => "service is shutting down".to_string(),
            }));
        }
        Ok(id)
    }

    /// Takes the next batch id. With a state directory, an id past the
    /// reserved block first reserves the next [`ID_BLOCK`] ids on disk,
    /// so most submits write nothing for their id.
    fn issue_id(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        if let Some(dir) = &self.state_dir {
            let mut reserved = self.reserved_ids.lock().expect("id reservation poisoned");
            if id >= *reserved {
                *reserved = id + ID_BLOCK;
                write_id_mark(dir, *reserved);
            }
        }
        id
    }

    /// Runs a fleet-supervision command against the backend's socket
    /// fleet: inspect the lanes, or force a rejoin probe of every
    /// excluded lane. Always answers with the post-command
    /// [`FleetReport`].
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] when the backend is not a socket fleet.
    pub fn fleet(&self, command: FleetCommand) -> Result<FleetReport, Error> {
        let handle = {
            let state = self.state.lock().expect("service state poisoned");
            state.fleet.clone()
        };
        let Some(handle) = handle else {
            return Err(Error::Unavailable(format!(
                "the {} backend has no socket fleet to supervise",
                self.backend
            )));
        };
        match command {
            FleetCommand::Status => {}
            FleetCommand::Probe => {
                handle.probe();
            }
        }
        Ok(handle.report())
    }

    /// A point-in-time report on batch `id`.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`]`("batch N retired")` for a batch this
    /// service no longer holds: it finished and was retired past
    /// [`ServiceConfig::cache_bytes`], it finished before a restart, or
    /// its submission was refused (that id never reached a caller).
    /// Resubmitting its jobs answers them from the cache. After a restart
    /// this also covers ids an earlier run reserved but never handed out.
    /// [`Error::InvalidSpec`] for an id the service never issued.
    pub fn try_status(&self, id: u64) -> Result<BatchStatus, Error> {
        let state = self.state.lock().expect("service state poisoned");
        match state.batches.get(&id) {
            Some(record) => Ok(record.status(id, &state)),
            None => Err(self.missing(id)),
        }
    }

    /// [`try_status`](Self::try_status), with `None` for an unknown or
    /// retired id.
    pub fn status(&self, id: u64) -> Option<BatchStatus> {
        self.try_status(id).ok()
    }

    /// The batch's per-job results so far, in submission order ([`Fetch`
    /// is incremental](JobResult::Pending)), decoded from the stored
    /// bytes.
    ///
    /// # Errors
    ///
    /// As [`try_status`](Self::try_status).
    pub fn try_fetch(&self, id: u64) -> Result<Vec<JobResult>, Error> {
        self.results(id)?
            .into_iter()
            .map(|result| {
                Ok(match result {
                    JobResult::Pending => JobResult::Pending,
                    JobResult::Ok(json) => JobResult::Ok(json.decode()?),
                    JobResult::Err(why) => JobResult::Err(why),
                })
            })
            .collect()
    }

    /// [`try_fetch`](Self::try_fetch), with `None` for an unknown or
    /// retired id.
    pub fn fetch(&self, id: u64) -> Option<Vec<JobResult>> {
        self.try_fetch(id).ok()
    }

    /// The batch's result slots as held: shared buffers, not copies.
    fn results(&self, id: u64) -> Result<Vec<JobResult<OutcomeJson>>, Error> {
        let state = self.state.lock().expect("service state poisoned");
        match state.batches.get(&id) {
            Some(record) => Ok(record.results.clone()),
            None => Err(self.missing(id)),
        }
    }

    /// The error for an id with no record: ids are issued in order, so
    /// one below the next id was issued and is gone.
    fn missing(&self, id: u64) -> Error {
        if id > 0 && id < self.next_id.load(Ordering::SeqCst) {
            Error::Unavailable(format!("batch {id} retired"))
        } else {
            Error::InvalidSpec(format!("unknown batch id {id}"))
        }
    }

    /// Requests cancellation of batch `id`. Returns whether the request
    /// took hold — `false` for an unknown id or a batch already in a
    /// terminal state. A queued batch cancels before running anything; a
    /// running batch stops at the next chunk boundary (answers already
    /// computed stay fetchable).
    pub fn cancel(&self, id: u64) -> bool {
        let mut state = self.state.lock().expect("service state poisoned");
        match state.batches.get_mut(&id) {
            Some(record) if !record.state.terminal() => {
                record.cancel = true;
                true
            }
            _ => false,
        }
    }

    /// Stops the service: no further submissions are accepted, the
    /// executor finishes its current batch, and queued-but-unstarted
    /// batches are marked `cancelled`. Idempotent; blocks until the
    /// executor has exited.
    pub fn shutdown(&self) {
        // Dropping the sender disconnects the channel: the executor
        // drains what is already queued (cancel flags still honored) and
        // exits.
        drop(self.sender.lock().expect("service sender poisoned").take());
        if let Some(handle) = self
            .executor
            .lock()
            .expect("service executor poisoned")
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplayService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The executor: drains batch ids off the queue, runs each through the
/// dispatcher chunk by chunk with a cache pass first, and finalizes the
/// record. Runs until the submission channel disconnects.
///
/// With a state directory, every chunk boundary flushes the journal the
/// chunk's outcomes went into (inside `cache.put`), so a crash at any
/// instant loses at most the in-flight chunk: a resume answers the rest
/// from the journal. Terminal batches drop their manifest (the journal
/// keeps the outcomes).
fn executor_loop(
    state: &Arc<Mutex<ServiceState>>,
    receiver: &Receiver<u64>,
    dispatcher: &(dyn Dispatcher + Send),
    config: ServiceConfig,
) {
    let sink = ServiceSink {
        state: Arc::clone(state),
    };
    let chunk = config.chunk.max(1);
    let state_dir = config.state_dir.as_deref();
    // Lifetime dispatched-chunk count, for `die-after-chunk` drills.
    let mut chunks_dispatched: u64 = 0;
    while let Ok(id) = receiver.recv() {
        // Claim the batch: cancelled-while-queued short-circuits here.
        let jobs = {
            let mut guard = state.lock().expect("service state poisoned");
            let Some(record) = guard.batches.get_mut(&id) else {
                continue; // submit() rolled it back
            };
            if record.cancel {
                guard.finish(id, BatchState::Cancelled);
                drop(guard);
                if let Some(dir) = state_dir {
                    remove_manifest(dir, id);
                }
                continue;
            }
            record.state = BatchState::Running;
            record.jobs.clone()
        };

        // Cache pass: answer every hit up front, then dispatch only the
        // misses. Digests computed outside the lock; it is pure CPU. On a
        // post-crash resume this is where journaled outcomes short-circuit
        // recompute — they surface as cache hits.
        let digests = job_digests(&jobs);
        let uncached = state
            .lock()
            .expect("service state poisoned")
            .answer_from_cache(id, &digests);

        let mut cancelled = false;
        for slice in uncached.chunks(chunk) {
            if state
                .lock()
                .expect("service state poisoned")
                .batches
                .get(&id)
                .is_some_and(|r| r.cancel)
            {
                cancelled = true;
                break;
            }
            let specs: Vec<JobSpec> = slice.iter().map(|&i| jobs[i].clone()).collect();
            let outcomes = dispatcher.run_specs_with_events(&specs, &sink);
            chunks_dispatched += 1;
            // Encode each outcome once, outside the lock: these bytes are
            // what the cache, the journal and every fetch share.
            let answers: Vec<JobResult<OutcomeJson>> = outcomes
                .into_iter()
                .map(
                    |result| match result.and_then(|o| OutcomeJson::encode(&o)) {
                        Ok(json) => JobResult::Ok(json),
                        Err(e) => JobResult::Err(e.to_string()),
                    },
                )
                .collect();
            let mut guard = state.lock().expect("service state poisoned");
            for (&index, answer) in slice.iter().zip(answers) {
                if let (JobResult::Ok(json), Some(digest)) = (&answer, digests[index]) {
                    guard.cache.put_json(digest, json.clone());
                }
                guard.record(id).results[index] = answer;
            }
            if state_dir.is_some() {
                // Chunk boundary: make the puts above durable.
                guard.cache.flush();
            }
            drop(guard);
            if config
                .die_after_chunk
                .is_some_and(|n| chunks_dispatched >= n)
            {
                // Fault drill: the flush above is durable; die the
                // way a power cut would — no unwinding, no Drop glue.
                eprintln!(
                    "osp: fault injection: dying after chunk {chunks_dispatched} (die-after-chunk)"
                );
                std::process::exit(i32::from(wire::FAULT_EXIT));
            }
        }

        let mut guard = state.lock().expect("service state poisoned");
        let record = guard.record(id);
        let end = if cancelled || record.cancel {
            BatchState::Cancelled
        } else if record
            .results
            .iter()
            .any(|r| matches!(r, JobResult::Err(_)))
        {
            BatchState::Failed
        } else {
            BatchState::Done
        };
        guard.finish(id, end);
        drop(guard);
        if let Some(dir) = state_dir {
            // Terminal: the manifest has done its job; results live in
            // the journal, and in memory until the batch is retired.
            remove_manifest(dir, id);
        }
    }
    // Channel disconnected: whatever never started is cancelled, so
    // late status calls see a terminal state instead of `queued` forever.
    let mut guard = state.lock().expect("service state poisoned");
    let mut cancelled_ids: Vec<u64> = guard
        .batches
        .iter()
        .filter(|(_, record)| record.state == BatchState::Queued)
        .map(|(&id, _)| id)
        .collect();
    cancelled_ids.sort_unstable();
    for &id in &cancelled_ids {
        guard.finish(id, BatchState::Cancelled);
    }
    guard.cache.flush();
    drop(guard);
    if let Some(dir) = state_dir {
        for id in cancelled_ids {
            remove_manifest(dir, id);
        }
    }
}

/// On-disk record of one batch — `batch-<id>.json` in the state
/// directory. Written atomically (tmp + rename) once, when the batch is
/// submitted; removed when the batch reaches a terminal state. A manifest
/// still on disk at startup is therefore exactly an interrupted batch, and
/// [`ReplayService::new`] re-queues it: its journaled jobs come back as
/// cache hits. Older manifests also carry `digest_a`, `digest_b` and
/// `completed`; the derived reader skips unknown keys, so they still
/// resume.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct BatchManifest {
    /// The batch id (also in the file name; the file wins for discovery,
    /// this field for integrity).
    id: u64,
    /// The full job list — resume needs the specs, not just digests.
    jobs: Vec<JobSpec>,
}

/// Ids reserved per write of the [`ID_MARK_FILE`].
const ID_BLOCK: u64 = 1024;

/// The state-directory file holding the issued-id high-water mark: one
/// decimal number, the first id no run on the directory has issued.
const ID_MARK_FILE: &str = "next-batch-id";

/// Writes `bytes` to `path` atomically (tmp + rename).
fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path))
}

/// Records that every id below `mark` may have been issued. A failure is
/// logged, not fatal, like a manifest's.
fn write_id_mark(dir: &Path, mark: u64) {
    if let Err(e) = replace_file(&dir.join(ID_MARK_FILE), mark.to_string().as_bytes()) {
        eprintln!("osp: warning: cannot record issued batch ids: {e}");
    }
}

/// The directory's issued-id high-water mark; 1 (no id issued) when the
/// file is absent or unreadable, with a warning for the latter.
fn load_id_mark(dir: &Path) -> u64 {
    let path = dir.join(ID_MARK_FILE);
    match std::fs::read_to_string(&path) {
        Ok(text) => text.trim().parse().unwrap_or_else(|e| {
            eprintln!("osp: warning: ignoring {}: {e}", path.display());
            1
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 1,
        Err(e) => {
            eprintln!("osp: warning: cannot read {}: {e}", path.display());
            1
        }
    }
}

fn manifest_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("batch-{id}.json"))
}

/// Writes `batch-<id>.json` atomically. Persistence failures are logged,
/// not fatal: the service keeps serving from memory and the operator
/// sees why resume would be incomplete.
fn write_manifest(dir: &Path, manifest: &BatchManifest) {
    let json = match serde_json::to_string(manifest) {
        Ok(json) => json,
        Err(e) => {
            eprintln!(
                "osp: warning: cannot encode manifest for batch {}: {e}",
                manifest.id
            );
            return;
        }
    };
    if let Err(e) = replace_file(&manifest_path(dir, manifest.id), json.as_bytes()) {
        eprintln!(
            "osp: warning: cannot write manifest for batch {}: {e}",
            manifest.id
        );
    }
}

fn remove_manifest(dir: &Path, id: u64) {
    let _ = std::fs::remove_file(manifest_path(dir, id));
}

/// Scans a state directory for `batch-<id>.json` manifests, id order.
/// Unreadable or undecodable manifests are skipped with a warning —
/// recovery salvages what it can, like the journal scan.
fn load_manifests(dir: &Path) -> Vec<BatchManifest> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id_text) = name
            .strip_prefix("batch-")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(id) = id_text.parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let decoded = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|json| {
                serde_json::from_str::<BatchManifest>(&json).map_err(|e| e.to_string())
            });
        match decoded {
            Ok(manifest) if manifest.id == id => found.push(manifest),
            Ok(manifest) => eprintln!(
                "osp: warning: skipping manifest {}: file says batch {id}, body says {}",
                path.display(),
                manifest.id
            ),
            Err(e) => eprintln!(
                "osp: warning: skipping unreadable manifest {}: {e}",
                path.display()
            ),
        }
    }
    found.sort_by_key(|m| m.id);
    found
}

/// One client → service message. Same tagged-map wire idiom as
/// [`wire::Request`]: the single key names the verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeRequest {
    /// Submit a batch; answered with [`ServeReply::Batch`] (or
    /// [`ServeReply::Busy`] under back-pressure).
    Submit(Vec<JobSpec>),
    /// Report on a batch; answered with [`ServeReply::Report`].
    Status(u64),
    /// The batch's results so far; answered with [`ServeReply::Results`].
    Fetch(u64),
    /// Cancel a batch; answered with [`ServeReply::Cancelled`].
    Cancel(u64),
    /// A fleet-supervision command; answered with [`ServeReply::Fleet`]
    /// (or [`ServeReply::Error`] on a non-socket backend).
    Fleet(FleetCommand),
    /// Stop the whole server; answered with [`ServeReply::Bye`].
    Shutdown,
}

/// The `fleet` admin verb's sub-commands (protocol v3).
///
/// On the wire each is a one-key object, like every other verb; an object
/// holding several tags decodes as the variant declared first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(shape = "object")]
pub enum FleetCommand {
    /// Probe every excluded lane now, ignoring its backoff deadline.
    Probe,
    /// Report the lanes and rejoin counters; mutates nothing.
    Status,
}

/// One service → client answer.
///
/// On the wire each is a one-key object; an object holding several
/// tags decodes as the variant declared first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeReply {
    /// The submitted batch's id.
    Batch(u64),
    /// The status report.
    Report(BatchStatus),
    /// Per-job results so far, submission order.
    Results(Vec<JobResult>),
    /// Whether the cancel request took hold.
    Cancelled(bool),
    /// The fleet report after a [`ServeRequest::Fleet`] command.
    Fleet(FleetReport),
    /// The service cannot answer now — queue full, shutting down, or
    /// (to `Status` and `Fetch`) the batch was retired; resubmit.
    /// [`ServeClient`] surfaces it as [`Error::Unavailable`].
    Busy(String),
    /// The request could not be served (e.g. an unknown batch id).
    Error(String),
    /// Acknowledges [`ServeRequest::Shutdown`].
    Bye,
}

/// The verbs a serve front door answers — its [`Hello`] roster, so a
/// probing client can tell a service endpoint from a worker endpoint.
fn serve_roster() -> Vec<String> {
    ["submit", "status", "fetch", "cancel", "fleet", "shutdown"]
        .iter()
        .map(|s| (*s).to_string())
        .collect()
}

/// The wire front door: a listener answering [`ServeRequest`] frames
/// against an embedded [`ReplayService`], one thread per connection, at
/// most [`MAX_CONNECTIONS`](crate::wire::socket::MAX_CONNECTIONS) at once.
///
/// On accept the server sends a [`Hello`] (protocol
/// [`WIRE_VERSION`](crate::wire::WIRE_VERSION), roster = the serve
/// verbs), mirroring the
/// worker handshake so clients fail loudly on version skew. Stop with
/// [`stop`](Self::stop); a client's `Shutdown` request sets
/// [`shutdown_requested`](Self::shutdown_requested) for the hosting
/// binary to observe — the server itself keeps serving until stopped, so
/// in-flight connections drain.
pub struct ServeServer {
    server: FrameServer,
    service: Arc<ReplayService>,
    shutdown_requested: Arc<AtomicBool>,
}

impl ServeServer {
    /// Binds `addr` and starts accepting. TCP port `0` binds an ephemeral
    /// port; the resolved address is [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// [`WorkerError::Spawn`] if the address cannot be bound.
    pub fn bind(addr: &WorkerAddr, service: ReplayService) -> Result<ServeServer, Error> {
        let service = Arc::new(service);
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let server = {
            let service = Arc::clone(&service);
            let shutdown_requested = Arc::clone(&shutdown_requested);
            FrameServer::bind(addr, move |stream, _| {
                let _ = serve_connection(stream, &service, &shutdown_requested);
            })?
        };
        Ok(ServeServer {
            server,
            service,
            shutdown_requested,
        })
    }

    /// The actually-bound address (the resolved port, for TCP `:0`) —
    /// what clients dial.
    pub fn local_addr(&self) -> &WorkerAddr {
        self.server.local_addr()
    }

    /// The embedded service, for in-process observation (tests, the
    /// hosting binary's banner).
    pub fn service(&self) -> &ReplayService {
        &self.service
    }

    /// Whether a client has asked the whole server to shut down
    /// ([`ServeRequest::Shutdown`]). The hosting binary polls this and
    /// calls [`stop`](Self::stop).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Stops accepting, joins the accept loop, and shuts the embedded
    /// [`ReplayService`] down (its executor finishes the running batch).
    pub fn stop(self) {
        self.server.stop();
        self.service.shutdown();
    }
}

/// One connection's request/reply loop.
fn serve_connection(
    stream: &Stream,
    service: &ReplayService,
    shutdown_requested: &AtomicBool,
) -> Result<(), Error> {
    let mut reader = BufReader::new(stream);
    // Unbuffered: every frame goes out in one write, so nothing waits on
    // a flush.
    let mut writer = stream;
    let hello = Hello {
        version: wire::WIRE_VERSION,
        roster: serve_roster(),
    };
    wire::send(&mut writer, &hello)?;
    // A framing error (bad length, oversized, truncated) closes the
    // connection. A whole frame that does not decode leaves the stream at
    // a frame boundary, and the client reads exactly one reply per
    // request, so it is answered with `ServeReply::Error` and the loop
    // keeps serving.
    while let Some(payload) = wire::read_frame(&mut reader)? {
        let reply = match serde_json::from_slice::<ServeRequest>(&payload) {
            Err(e) => ServeReply::Error(format!("decoding frame: {e}")),
            Ok(ServeRequest::Submit(jobs)) => match service.submit(jobs) {
                Ok(id) => ServeReply::Batch(id),
                Err(Error::Unavailable(why)) => ServeReply::Busy(why),
                Err(e) => ServeReply::Error(e.to_string()),
            },
            Ok(ServeRequest::Status(id)) => match service.try_status(id) {
                Ok(status) => ServeReply::Report(status),
                Err(e) => lookup_refusal(e),
            },
            Ok(ServeRequest::Fetch(id)) => match service.results(id) {
                Ok(results) => {
                    // Spliced from the stored bytes, never re-encoded.
                    write_results(&mut writer, &results)?;
                    continue;
                }
                Err(e) => lookup_refusal(e),
            },
            Ok(ServeRequest::Cancel(id)) => ServeReply::Cancelled(service.cancel(id)),
            Ok(ServeRequest::Fleet(command)) => match service.fleet(command) {
                Ok(report) => ServeReply::Fleet(report),
                Err(e) => ServeReply::Error(e.to_string()),
            },
            Ok(ServeRequest::Shutdown) => {
                shutdown_requested.store(true, Ordering::SeqCst);
                ServeReply::Bye
            }
        };
        wire::send(&mut writer, &reply)?;
    }
    Ok(())
}

/// The reply to a `Status` or `Fetch` the service refused: a retired
/// batch is [`ServeReply::Busy`] (the client's [`Error::Unavailable`]),
/// an unknown id an error.
fn lookup_refusal(error: Error) -> ServeReply {
    match error {
        Error::Unavailable(why) => ServeReply::Busy(why),
        Error::InvalidSpec(why) => ServeReply::Error(why),
        other => ServeReply::Error(other.to_string()),
    }
}

/// Writes a `Fetch` answer as one frame, splicing each outcome's stored
/// canonical JSON into it.
///
/// The frame is byte-identical to [`wire::write_message`] of
/// [`ServeReply::Results`] over the decoded results, without building or
/// encoding any outcome.
///
/// # Errors
///
/// [`Error::Protocol`] on I/O failure or a frame over
/// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN).
pub fn write_results<W: Write + ?Sized>(
    writer: &mut W,
    results: &[JobResult<OutcomeJson>],
) -> Result<(), Error> {
    let outcomes: usize = results
        .iter()
        .map(|result| match result {
            JobResult::Ok(json) => json.as_bytes().len(),
            _ => 0,
        })
        .sum();
    // Length placeholder, then the payload.
    let mut frame = Vec::with_capacity(20 + outcomes + 24 * results.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(br#"{"results":["#);
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            frame.push(b',');
        }
        match result {
            JobResult::Pending => frame.extend_from_slice(br#"{"pending":true}"#),
            JobResult::Ok(json) => {
                frame.extend_from_slice(br#"{"ok":"#);
                frame.extend_from_slice(json.as_bytes());
                frame.push(b'}');
            }
            JobResult::Err(why) => {
                frame.extend_from_slice(br#"{"err":"#);
                serde_json::to_writer(&mut frame, why)
                    .map_err(|e| Error::Protocol(format!("encoding: {e}")))?;
                frame.push(b'}');
            }
        }
    }
    frame.extend_from_slice(b"]}");
    wire::send_frame(writer, frame)
}

/// The caller side: one connection, strict request/reply, typed verbs.
pub struct ServeClient {
    stream: Stream,
    addr: String,
}

impl ServeClient {
    /// Connects to a [`ServeServer`] within `timeout` and completes the
    /// [`Hello`] handshake (version-range checked like a worker dial).
    ///
    /// # Errors
    ///
    /// [`WorkerError::Connect`] / [`WorkerError::Handshake`] with the
    /// typed cause.
    pub fn connect(addr: &WorkerAddr, timeout: Duration) -> Result<ServeClient, Error> {
        let (stream, _) = dial(addr, timeout)?;
        Ok(ServeClient {
            stream,
            addr: addr.to_string(),
        })
    }

    /// One request/reply round trip.
    fn call(&mut self, request: &ServeRequest) -> Result<ServeReply, Error> {
        wire::send(&mut &self.stream, request)?;
        self.reply()
    }

    /// Reads the reply to the request just sent; a [`ServeReply::Error`]
    /// is the service's refusal, [`WorkerError::Remote`]. A fresh reader
    /// per call is safe: the protocol is strictly one reply per request,
    /// so no bytes are in flight between calls.
    fn reply(&mut self) -> Result<ServeReply, Error> {
        let mut reader = BufReader::new(&self.stream);
        match wire::read_message::<_, ServeReply>(&mut reader)? {
            Some(ServeReply::Error(why)) => Err(Error::Worker(WorkerError::Remote(why))),
            Some(reply) => Ok(reply),
            None => Err(Error::Worker(WorkerError::Disconnect {
                addr: self.addr.clone(),
                cause: "stream closed with a reply outstanding".to_string(),
            })),
        }
    }

    fn unexpected(&self, got: &ServeReply) -> Error {
        Error::Protocol(format!(
            "service at {} answered with an unexpected frame: {got:?}",
            self.addr
        ))
    }

    /// Submits a batch, returning its id.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] under back-pressure (nothing was enqueued),
    /// [`Error::Worker`] for transport failures.
    pub fn submit(&mut self, jobs: &[JobSpec]) -> Result<u64, Error> {
        match self.call(&ServeRequest::Submit(jobs.to_vec()))? {
            ServeReply::Batch(id) => Ok(id),
            ServeReply::Busy(why) => Err(Error::Unavailable(why)),
            other => Err(self.unexpected(&other)),
        }
    }

    /// The batch's current [`BatchStatus`].
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] for a retired batch (see
    /// [`ReplayService::try_status`]), [`WorkerError::Remote`] for an
    /// unknown id, [`Error::Worker`] for transport failures.
    pub fn status(&mut self, id: u64) -> Result<BatchStatus, Error> {
        match self.call(&ServeRequest::Status(id))? {
            ServeReply::Report(status) => Ok(status),
            ServeReply::Busy(why) => Err(Error::Unavailable(why)),
            other => Err(self.unexpected(&other)),
        }
    }

    /// The batch's per-job results so far (incremental; pending jobs come
    /// back as [`JobResult::Pending`]).
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] for a retired batch (see
    /// [`ReplayService::try_status`]), [`WorkerError::Remote`] for an
    /// unknown id, [`Error::Worker`] for transport failures.
    pub fn fetch(&mut self, id: u64) -> Result<Vec<JobResult>, Error> {
        match self.call(&ServeRequest::Fetch(id))? {
            ServeReply::Results(results) => Ok(results),
            ServeReply::Busy(why) => Err(Error::Unavailable(why)),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Requests cancellation; returns whether it took hold (see
    /// [`ReplayService::cancel`]).
    ///
    /// # Errors
    ///
    /// [`Error::Worker`] for transport failures.
    pub fn cancel(&mut self, id: u64) -> Result<bool, Error> {
        match self.call(&ServeRequest::Cancel(id))? {
            ServeReply::Cancelled(took) => Ok(took),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Runs a fleet-supervision command (see [`ReplayService::fleet`]),
    /// returning the post-command [`FleetReport`].
    ///
    /// # Errors
    ///
    /// [`WorkerError::Remote`] when the service refuses the command
    /// (non-socket backend), [`Error::Worker`] for transport failures.
    pub fn fleet(&mut self, command: FleetCommand) -> Result<FleetReport, Error> {
        match self.call(&ServeRequest::Fleet(command))? {
            ServeReply::Fleet(report) => Ok(report),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Asks the whole server to shut down (acknowledged before the
    /// server's hosting binary acts on it).
    ///
    /// # Errors
    ///
    /// [`Error::Worker`] for transport failures.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        match self.call(&ServeRequest::Shutdown)? {
            ServeReply::Bye => Ok(()),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Polls [`status`](Self::status) every `poll` until the batch
    /// reaches a terminal state (`done` / `failed` / `cancelled`),
    /// returning the final report.
    ///
    /// # Errors
    ///
    /// [`WorkerError::Timeout`] if `deadline` elapses first; any
    /// [`status`](Self::status) error.
    pub fn wait(
        &mut self,
        id: u64,
        poll: Duration,
        deadline: Duration,
    ) -> Result<BatchStatus, Error> {
        let started = Instant::now();
        loop {
            let status = self.status(id)?;
            if matches!(status.state.as_str(), "done" | "failed" | "cancelled") {
                return Ok(status);
            }
            if started.elapsed() >= deadline {
                return Err(Error::Worker(WorkerError::Timeout {
                    addr: self.addr.clone(),
                    cause: format!("batch {id} still `{}` after {:?}", status.state, deadline),
                }));
            }
            std::thread::sleep(poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::batch::ReplayPool;
    use crate::engine::dispatch::{derived_jobs, LaneReport, SpecPool};
    use crate::gen::RandomInstanceConfig;
    use crate::spec::{run_spec, AlgorithmSpec, CoreResolver, ScenarioSpec, SpecResolver};

    fn jobs(n: u64) -> Vec<JobSpec> {
        derived_jobs(
            &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
            &AlgorithmSpec::RandPr,
            11,
            n,
        )
    }

    fn service() -> ReplayService {
        ReplayService::new(
            Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
            ServiceConfig {
                queue_capacity: 4,
                chunk: 3,
                ..ServiceConfig::default()
            },
        )
        .expect("in-memory service never fails to start")
    }

    /// The serve roster is the wire tag of every request verb.
    #[test]
    fn serve_roster_is_the_request_tags() {
        let requests = [
            ServeRequest::Submit(Vec::new()),
            ServeRequest::Status(0),
            ServeRequest::Fetch(0),
            ServeRequest::Cancel(0),
            ServeRequest::Fleet(FleetCommand::Status),
            ServeRequest::Shutdown,
        ];
        // Exhaustive: a new verb must be listed above.
        let kind = |r: &ServeRequest| match r {
            ServeRequest::Submit(_) => 0,
            ServeRequest::Status(_) => 1,
            ServeRequest::Fetch(_) => 2,
            ServeRequest::Cancel(_) => 3,
            ServeRequest::Fleet(_) => 4,
            ServeRequest::Shutdown => 5,
        };
        assert!(requests.iter().map(kind).eq(0..6));
        let tags: Vec<String> = requests
            .iter()
            .map(|r| match r.to_value() {
                serde::Value::Map(mut entries) if entries.len() == 1 => entries.remove(0).0,
                other => panic!("not a one-key object: {other:?}"),
            })
            .collect();
        assert_eq!(serve_roster(), tags);
    }

    fn wait_terminal(service: &ReplayService, id: u64) -> BatchStatus {
        let started = Instant::now();
        loop {
            let status = service.status(id).expect("batch exists");
            if matches!(status.state.as_str(), "done" | "failed" | "cancelled") {
                return status;
            }
            assert!(started.elapsed() < Duration::from_secs(60), "batch stuck");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn digests_are_canonical_and_distinguish_specs() {
        let a = jobs(2);
        assert_eq!(
            job_digest(&a[0]).unwrap(),
            job_digest(&a[0].clone()).unwrap()
        );
        assert_ne!(job_digest(&a[0]).unwrap(), job_digest(&a[1]).unwrap());
    }

    #[test]
    fn submit_runs_bit_identical_to_sequential_and_caches_resubmits() {
        let service = service();
        let batch = jobs(5);
        let want: Vec<Outcome> = batch
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect();

        let first = service.submit(batch.clone()).unwrap();
        let status = wait_terminal(&service, first);
        assert_eq!(status.state, "done");
        assert_eq!(status.answered, 5);
        assert_eq!(status.cached, 0);
        assert_eq!(status.cache_misses, 5);
        let results = service.fetch(first).unwrap();
        for (result, want) in results.iter().zip(&want) {
            match result {
                JobResult::Ok(got) => assert_eq!(got, want),
                other => panic!("expected an outcome, got {other:?}"),
            }
        }

        // Identical batch again: answered from the cache, bit-identical.
        let second = service.submit(batch).unwrap();
        let status = wait_terminal(&service, second);
        assert_eq!(status.state, "done");
        assert_eq!(status.cached, 5, "resubmission must hit the cache");
        assert_eq!(status.cache_hits, 5);
        assert!(status.jobs.iter().all(|s| s == "cached"));
        let results = service.fetch(second).unwrap();
        for (result, want) in results.iter().zip(&want) {
            match result {
                JobResult::Ok(got) => assert_eq!(got, want),
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
        service.shutdown();
    }

    #[test]
    fn unknown_ids_and_cancel_semantics() {
        let service = service();
        assert!(service.status(999).is_none());
        assert!(service.fetch(999).is_none());
        assert!(!service.cancel(999));
        let id = service.submit(jobs(3)).unwrap();
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, "done");
        // Terminal batches don't cancel.
        assert!(!service.cancel(id));
        service.shutdown();
    }

    #[test]
    fn failed_jobs_mark_the_batch_failed_but_keep_good_outcomes() {
        let service = service();
        let mut batch = jobs(2);
        // An infeasible generator config: capacity 4 demanded from 2 sets.
        batch.push(JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(2, 5, 4)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 0,
        });
        let id = service.submit(batch.clone()).unwrap();
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, "failed");
        assert_eq!(status.failed, 1);
        assert_eq!(status.answered, 3);
        assert_eq!(status.jobs[2], "failed");
        let results = service.fetch(id).unwrap();
        assert!(matches!(results[0], JobResult::Ok(_)));
        assert!(matches!(results[2], JobResult::Err(_)));
        // Errors are not cached: resubmitting the bad spec recomputes it.
        let again = service.submit(batch).unwrap();
        let status = wait_terminal(&service, again);
        assert_eq!(status.cached, 2, "only the two good jobs hit the cache");
        service.shutdown();
    }

    /// Delegates to [`CoreResolver`], except for the job seeded `seed`:
    /// building its algorithm waits at `gate`, or panics without one.
    struct Rigged {
        seed: u64,
        gate: Option<Arc<std::sync::Barrier>>,
    }

    impl SpecResolver for Rigged {
        fn algorithm(
            &self,
            spec: &AlgorithmSpec,
            seed: u64,
        ) -> Result<Box<dyn crate::OnlineAlgorithm>, Error> {
            if seed == self.seed {
                match &self.gate {
                    Some(gate) => {
                        gate.wait();
                    }
                    None => panic!("rigged job {seed}"),
                }
            }
            CoreResolver.algorithm(spec, seed)
        }

        fn scenario(
            &self,
            spec: &ScenarioSpec,
            seed: u64,
        ) -> Result<Box<dyn crate::ArrivalSource>, Error> {
            CoreResolver.scenario(spec, seed)
        }
    }

    fn rigged_service(resolver: Rigged) -> ReplayService {
        ReplayService::new(
            Box::new(SpecPool::new(ReplayPool::new(2), resolver)),
            ServiceConfig {
                queue_capacity: 4,
                chunk: 3,
                ..ServiceConfig::default()
            },
        )
        .expect("in-memory service never fails to start")
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_service_goes_on() {
        let batch = jobs(5);
        let bad = 2;
        let service = rigged_service(Rigged {
            seed: batch[bad].seed,
            gate: None,
        });
        let id = service.submit(batch.clone()).unwrap();
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, "failed");
        assert_eq!(status.failed, 1);
        let results = service.fetch(id).unwrap();
        for (i, (result, job)) in results.iter().zip(&batch).enumerate() {
            match result {
                JobResult::Err(why) if i == bad => {
                    assert!(why.contains("job panicked: rigged job"), "{why}");
                }
                JobResult::Ok(got) if i != bad => {
                    assert_eq!(got, &run_spec(job, &CoreResolver).unwrap(), "job {i}");
                }
                other => panic!("job {i}: {other:?}"),
            }
        }
        // The executor survived: a batch it has to run still completes.
        let fresh = derived_jobs(
            &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
            &AlgorithmSpec::RandPr,
            12,
            3,
        );
        let next = service.submit(fresh).unwrap();
        assert_eq!(wait_terminal(&service, next).state, "done");
        service.shutdown();
    }

    #[test]
    fn a_fully_cached_batch_is_done_at_submit_while_another_runs() {
        let cached = jobs(3);
        let blocked = derived_jobs(
            &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
            &AlgorithmSpec::RandPr,
            13,
            1,
        );
        let gate = Arc::new(std::sync::Barrier::new(2));
        let service = rigged_service(Rigged {
            seed: blocked[0].seed,
            gate: Some(Arc::clone(&gate)),
        });
        let first = service.submit(cached.clone()).unwrap();
        assert_eq!(wait_terminal(&service, first).state, "done");

        let running = service.submit(blocked).unwrap();
        let started = Instant::now();
        while service.status(running).unwrap().state != "running" {
            assert!(started.elapsed() < Duration::from_secs(60), "never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The executor is held inside `running`; the resubmission must
        // not wait for it. Both states are read before the gate opens,
        // and checked after, so a failure cannot leave the executor held.
        let again = service.submit(cached).unwrap();
        let status = service.status(again).unwrap();
        let other = service.status(running).unwrap().state;
        gate.wait();
        assert_eq!(status.state, "done");
        assert_eq!(status.cached, 3);
        assert_eq!(other, "running");
        assert_eq!(wait_terminal(&service, running).state, "done");
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let service = service();
        service.shutdown();
        let err = service.submit(jobs(1)).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osp-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persistent_service(dir: &Path) -> ReplayService {
        ReplayService::new(
            Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
            ServiceConfig {
                queue_capacity: 4,
                chunk: 2,
                state_dir: Some(dir.to_path_buf()),
                ..ServiceConfig::default()
            },
        )
        .expect("persistent service opens")
    }

    #[test]
    fn journaled_results_survive_a_restart_and_serve_as_cache_hits() {
        let dir = temp_state_dir("restart");
        let batch = jobs(5);
        let want: Vec<Outcome> = batch
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect();
        {
            let service = persistent_service(&dir);
            let id = service.submit(batch.clone()).unwrap();
            let status = wait_terminal(&service, id);
            assert_eq!(status.state, "done");
            assert_eq!(status.cached, 0);
            service.shutdown();
        }
        let service = persistent_service(&dir);
        let id = service.submit(batch).unwrap();
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, "done");
        assert_eq!(status.cached, 5, "a restart must reload the journal");
        let results = service.fetch(id).unwrap();
        for (result, want) in results.iter().zip(&want) {
            match result {
                JobResult::Ok(got) => {
                    assert_eq!(got, want, "journal round trip must be bit-identical")
                }
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_interrupted_manifest_resumes_computing_only_missing_jobs() {
        let dir = temp_state_dir("resume");
        let batch = jobs(4);
        let want: Vec<Outcome> = batch
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect();
        // Forge the post-crash state by hand: the journal holds the first
        // two outcomes, and a manifest says batch 9 never finished. The
        // manifest has the older shape, with three keys resume never
        // reads: they must be skipped.
        {
            let mut store = JournalStore::open(&dir, StoreLimits::default()).unwrap();
            for (job, outcome) in batch.iter().zip(&want).take(2) {
                store.put(job_digest(job).unwrap(), outcome);
            }
            store.flush();
        }
        let old_manifest = format!(
            r#"{{"id":9,"jobs":{},"digest_a":[1,2,3,4],"digest_b":[5,6,7,8],"completed":[0,1]}}"#,
            serde_json::to_string(&batch).unwrap()
        );
        std::fs::write(manifest_path(&dir, 9), old_manifest).unwrap();

        let service = persistent_service(&dir);
        let status = wait_terminal(&service, 9);
        assert_eq!(status.state, "done");
        assert_eq!(status.cached, 2, "journaled jobs must not recompute");
        assert_eq!(status.cache_misses, 2);
        let results = service.fetch(9).unwrap();
        for (result, want) in results.iter().zip(&want) {
            match result {
                JobResult::Ok(got) => assert_eq!(got, want, "resume must be bit-identical"),
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
        // Fresh ids continue after the resumed one, and a finished batch
        // leaves no manifest to resume again.
        let next = service.submit(jobs(1)).unwrap();
        assert_eq!(next, 10);
        wait_terminal(&service, next);
        service.shutdown();
        assert!(
            !manifest_path(&dir, 9).exists(),
            "terminal batches drop their manifest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_ids_are_never_reused_after_a_restart() {
        let dir = temp_state_dir("ids");
        let (first, second) = (jobs_from(21, 2), jobs_from(22, 3));
        {
            let service = persistent_service(&dir);
            for (want, batch) in [(1, &first), (2, &second)] {
                let id = service.submit(batch.clone()).unwrap();
                assert_eq!(id, want);
                assert_eq!(wait_terminal(&service, id).state, "done");
            }
            service.shutdown();
        }
        let service = persistent_service(&dir);
        for id in [1, 2] {
            assert_retired(service.try_status(id), id);
            assert_retired(service.try_fetch(id), id);
        }
        let fresh = service.submit(jobs(1)).unwrap();
        assert!(fresh > 2, "a restart reissued id {fresh}");
        assert_eq!(wait_terminal(&service, fresh).state, "done");
        // Ids are reserved in blocks: a fully cached submit takes the next
        // id without writing the mark again.
        let mark = std::fs::read_to_string(dir.join(ID_MARK_FILE)).unwrap();
        assert_eq!(mark, (fresh + ID_BLOCK).to_string());
        let cached = service.submit(first.clone()).unwrap();
        assert_eq!(cached, fresh + 1);
        assert_eq!(service.status(cached).unwrap().cached, 2);
        assert_eq!(
            std::fs::read_to_string(dir.join(ID_MARK_FILE)).unwrap(),
            mark
        );
        assert!(matches!(
            service.try_status(cached + 1),
            Err(Error::InvalidSpec(_))
        ));
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bounded_cache_evicts_and_reports_it() {
        let service = ReplayService::new(
            Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
            ServiceConfig {
                queue_capacity: 4,
                chunk: 3,
                cache_entries: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("bounded service starts");
        let id = service.submit(jobs(5)).unwrap();
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, "done");
        assert!(
            status.cache_evictions >= 3,
            "five results through a two-entry cache must evict; status: {status:?}"
        );
        service.shutdown();
    }

    fn jobs_from(base: u64, n: u64) -> Vec<JobSpec> {
        derived_jobs(
            &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
            &AlgorithmSpec::RandPr,
            base,
            n,
        )
    }

    fn sequential(batch: &[JobSpec]) -> Vec<Outcome> {
        batch
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect()
    }

    /// A service whose `cache_bytes` holds every outcome of `want` in the
    /// cache, but only one finished batch of that size: the second to
    /// finish retires the first.
    fn tight_service(dispatcher: Box<dyn Dispatcher + Send>, want: &[Outcome]) -> ReplayService {
        let json: usize = want
            .iter()
            .map(|o| OutcomeJson::encode(o).unwrap().as_bytes().len())
            .sum();
        let charge = RECORD_CHARGE + SLOT_CHARGE * want.len() as u64 + json as u64;
        ReplayService::new(
            dispatcher,
            ServiceConfig {
                queue_capacity: 4,
                chunk: 2,
                cache_bytes: charge + charge / 2,
                ..ServiceConfig::default()
            },
        )
        .expect("in-memory service never fails to start")
    }

    fn assert_retired(got: Result<impl std::fmt::Debug, Error>, id: u64) {
        match got {
            Err(Error::Unavailable(why)) => assert_eq!(why, format!("batch {id} retired")),
            other => panic!("expected batch {id} retired, got {other:?}"),
        }
    }

    fn assert_outcomes(results: &[JobResult], want: &[Outcome]) {
        assert_eq!(results.len(), want.len());
        for (result, want) in results.iter().zip(want) {
            match result {
                JobResult::Ok(got) => assert_eq!(got, want),
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
    }

    #[test]
    fn retired_batches_answer_unavailable_in_process_and_over_the_wire() {
        let batch = jobs(4);
        let want = sequential(&batch);
        let service = tight_service(
            Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
            &want,
        );
        let server = ServeServer::bind(&WorkerAddr::Tcp("127.0.0.1:0".into()), service).unwrap();
        let mut client =
            ServeClient::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
        let poll = Duration::from_millis(5);
        let first = client.submit(&batch).unwrap();
        client.wait(first, poll, Duration::from_secs(60)).unwrap();
        let second = client.submit(&batch).unwrap();
        let status = client.wait(second, poll, Duration::from_secs(60)).unwrap();
        assert_eq!(status.cached, status.total);

        let service = server.service();
        assert_retired(service.try_status(first), first);
        assert_retired(service.try_fetch(first), first);
        assert!(service.status(first).is_none() && service.fetch(first).is_none());
        assert!(!service.cancel(first));
        assert_retired(client.status(first), first);
        assert_retired(client.fetch(first), first);
        // The newest finished batch is held and fetchable both ways.
        assert_outcomes(&service.try_fetch(second).unwrap(), &want);
        assert_outcomes(&client.fetch(second).unwrap(), &want);
        // An id never issued is a different error.
        assert!(matches!(
            service.try_status(999),
            Err(Error::InvalidSpec(_))
        ));
        assert!(matches!(service.try_fetch(0), Err(Error::InvalidSpec(_))));
        let err = client.fetch(999).unwrap_err();
        assert!(
            matches!(&err, Error::Worker(WorkerError::Remote(why)) if why == "unknown batch id 999"),
            "got {err:?}"
        );
        server.stop();
    }

    #[test]
    fn a_retired_batch_resubmits_from_the_cache_bit_identically() {
        let batch = jobs(4);
        let want = sequential(&batch);
        let service = tight_service(
            Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
            &want,
        );
        let first = service.submit(batch.clone()).unwrap();
        assert_eq!(wait_terminal(&service, first).cached, 0);
        for _ in 0..3 {
            let id = service.submit(batch.clone()).unwrap();
            let status = wait_terminal(&service, id);
            assert_eq!(status.state, "done");
            assert_eq!(status.cached, status.total, "{status:?}");
            assert_eq!(status.cache_evictions, 0);
            assert_outcomes(&service.try_fetch(id).unwrap(), &want);
        }
        assert_retired(service.try_fetch(first), first);
        service.shutdown();
    }

    /// Runs each dispatch call only once the test sends a token, so a
    /// batch can be held running.
    struct GatePool {
        gate: Mutex<Receiver<()>>,
    }

    impl Dispatcher for GatePool {
        fn run_specs_with_events(
            &self,
            jobs: &[JobSpec],
            _sink: &dyn EventSink,
        ) -> Vec<Result<Outcome, Error>> {
            // A dropped sender opens the gate for good.
            let _ = self.gate.lock().unwrap().recv();
            jobs.iter().map(|j| run_spec(j, &CoreResolver)).collect()
        }

        fn lanes(&self) -> usize {
            1
        }

        fn backend(&self) -> &'static str {
            "gate-test"
        }
    }

    #[test]
    fn running_and_queued_batches_are_never_retired() {
        let batches: Vec<Vec<JobSpec>> = (0..4).map(|b| jobs_from(40 + b, 4)).collect();
        let (open, gate) = std::sync::mpsc::channel();
        let service = tight_service(
            Box::new(GatePool {
                gate: Mutex::new(gate),
            }),
            &sequential(&batches[0]),
        );
        // Two chunks per batch, one token each.
        let release = |open: &std::sync::mpsc::Sender<()>| {
            open.send(()).unwrap();
            open.send(()).unwrap();
        };
        let state_of = |id: u64| service.try_status(id).unwrap().state;

        let a = service.submit(batches[0].clone()).unwrap();
        release(&open);
        assert_eq!(wait_terminal(&service, a).state, "done");
        let b = service.submit(batches[1].clone()).unwrap();
        let c = service.submit(batches[2].clone()).unwrap();
        while state_of(b) != "running" {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(state_of(c), "queued");
        assert_eq!(state_of(a), "done");

        // B finishes: A, the oldest finished batch, retires; C does not.
        release(&open);
        wait_terminal(&service, b);
        assert_retired(service.try_status(a), a);
        assert!(matches!(state_of(c).as_str(), "queued" | "running"));
        let d = service.submit(batches[3].clone()).unwrap();
        while state_of(c) != "running" {
            std::thread::sleep(Duration::from_millis(2));
        }

        // C finishes: B retires; D, queued or running, stays.
        release(&open);
        wait_terminal(&service, c);
        assert_retired(service.try_status(b), b);
        assert!(matches!(state_of(d).as_str(), "queued" | "running"));
        release(&open);
        wait_terminal(&service, d);
        assert_retired(service.try_status(c), c);
        assert_outcomes(&service.try_fetch(d).unwrap(), &sequential(&batches[3]));
        service.shutdown();
    }

    #[test]
    fn empty_and_failed_batches_retire_too() {
        let service = ReplayService::new(
            Box::new(SpecPool::new(ReplayPool::new(2), CoreResolver)),
            ServiceConfig {
                cache_bytes: 4 * RECORD_CHARGE,
                ..ServiceConfig::default()
            },
        )
        .expect("service starts");
        let infeasible = JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(2, 5, 4)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 0,
        };
        let mut ids = Vec::new();
        for round in 0..40 {
            let batch = if round % 2 == 0 {
                Vec::new()
            } else {
                vec![infeasible.clone()]
            };
            let id = service.submit(batch).unwrap();
            wait_terminal(&service, id);
            ids.push(id);
        }
        let held = ids
            .iter()
            .filter(|&&id| service.status(id).is_some())
            .count();
        assert!((1..=4).contains(&held), "{held} of 40 batches held");
        assert!(service.status(ids[39]).is_some(), "the newest stays");
        assert_retired(service.try_fetch(ids[0]), ids[0]);
        service.shutdown();
    }

    #[test]
    fn fleet_commands_are_refused_off_the_socket_backend() {
        let service = service();
        let err = service.fleet(FleetCommand::Status).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");
        service.shutdown();
    }

    #[test]
    fn serve_frames_round_trip() {
        let requests = vec![
            ServeRequest::Submit(jobs(2)),
            ServeRequest::Status(7),
            ServeRequest::Fetch(8),
            ServeRequest::Cancel(9),
            ServeRequest::Fleet(FleetCommand::Status),
            ServeRequest::Fleet(FleetCommand::Probe),
            ServeRequest::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &requests {
            wire::write_message(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in &requests {
            let got: ServeRequest = wire::read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }

        let outcome = run_spec(&jobs(1)[0], &CoreResolver).unwrap();
        let replies = vec![
            ServeReply::Batch(3),
            ServeReply::Report(BatchStatus {
                id: 3,
                state: "running".into(),
                total: 2,
                answered: 1,
                failed: 0,
                cached: 1,
                jobs: vec!["cached".into(), "pending".into()],
                cache_hits: 4,
                cache_misses: 2,
                cache_evictions: 1,
                excluded: vec!["127.0.0.1:9: boom".into()],
                workers_rejoined: 1,
                worker_probes: 3,
            }),
            ServeReply::Results(vec![
                JobResult::Ok(outcome),
                JobResult::Err("bad".into()),
                JobResult::Pending,
            ]),
            ServeReply::Cancelled(true),
            ServeReply::Fleet(FleetReport {
                lanes: vec![
                    LaneReport {
                        addr: "127.0.0.1:7411".into(),
                        state: "up".into(),
                        failures: 0,
                        cause: String::new(),
                    },
                    LaneReport {
                        addr: "127.0.0.1:7412".into(),
                        state: "excluded".into(),
                        failures: 2,
                        cause: "connect refused".into(),
                    },
                ],
                rejoined: 1,
                probes: 4,
            }),
            ServeReply::Bye,
            ServeReply::Busy("queue full".into()),
            ServeReply::Error("unknown batch".into()),
        ];
        let mut buf = Vec::new();
        for r in &replies {
            wire::write_message(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in &replies {
            let got: ServeReply = wire::read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn undecodable_frames_are_answered_and_the_connection_keeps_serving() {
        let server = ServeServer::bind(&WorkerAddr::Tcp("127.0.0.1:0".into()), service()).unwrap();
        let mut client =
            ServeClient::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
        // An old client's membership edit and a verb that never existed:
        // both arrive as whole frames that do not decode.
        for frame in [
            r#"{"fleet":{"add":"127.0.0.1:7411"}}"#,
            r#"{"reboot":true}"#,
        ] {
            wire::write_frame(&mut &client.stream, frame.as_bytes()).unwrap();
            match client.reply() {
                Err(Error::Worker(WorkerError::Remote(why))) => {
                    assert!(why.starts_with("decoding frame: "), "{frame}: {why}")
                }
                other => panic!("{frame}: expected a remote decode error, got {other:?}"),
            }
        }
        // The same connection still answers.
        let id = client.submit(&jobs(2)).unwrap();
        assert_eq!(client.status(id).unwrap().id, id);
        server.stop();
    }

    #[test]
    fn server_and_client_round_trip_over_tcp() {
        let server = ServeServer::bind(&WorkerAddr::Tcp("127.0.0.1:0".into()), service()).unwrap();
        let addr = server.local_addr().clone();
        let mut client = ServeClient::connect(&addr, Duration::from_secs(10)).unwrap();
        let batch = jobs(4);
        let want: Vec<Outcome> = batch
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect();
        let id = client.submit(&batch).unwrap();
        let status = client
            .wait(id, Duration::from_millis(10), Duration::from_secs(60))
            .unwrap();
        assert_eq!(status.state, "done");
        let results = client.fetch(id).unwrap();
        assert_eq!(results.len(), 4);
        for (result, want) in results.iter().zip(&want) {
            match result {
                JobResult::Ok(got) => assert_eq!(got, want),
                other => panic!("expected an outcome, got {other:?}"),
            }
        }
        // Unknown ids are remote errors, not transport failures.
        let err = client.status(999).unwrap_err();
        assert!(
            matches!(err, Error::Worker(WorkerError::Remote(_))),
            "got {err:?}"
        );
        assert!(!server.shutdown_requested());
        client.shutdown().unwrap();
        assert!(server.shutdown_requested());
        server.stop();
        assert!(ServeClient::connect(&addr, Duration::from_millis(300)).is_err());
    }
}
