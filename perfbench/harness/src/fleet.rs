//! The served-fleet workload: one client in a closed loop against the
//! real `osp-serve --state-dir` over two `osp-worker --listen` processes
//! on loopback. Each round submits a batch of fresh jobs, then the same
//! batch again, which the results cache answers.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use osp_core::gen::RandomInstanceConfig;
use osp_core::serve::{FleetCommand, JobResult, ServeClient};
use osp_core::spec::{AlgorithmSpec, CoreResolver, ScenarioSpec};
use osp_core::store::{JournalStore, ResultStore, StoreLimits};
use osp_core::wire::socket::WorkerAddr;
use osp_core::{
    derive_seed, job_digest, run_spec, DispatchEvent, Dispatcher, EventSink, JobSpec, SocketPool,
};

use crate::replay::{record_sample, sample_values};
use crate::trace::{Probe, Spans, TracedResolver};
use crate::{median, percentile, secs_ms, Args, Report, Summary};

/// Jobs per batch, and the size of each: σ=4 uniform elements with
/// m = n/2 (k ≈ 8), like the streamed workload, at a size where a round
/// takes tens of milliseconds.
const BATCH: usize = 4;
const JOB_SETS: usize = 8_000;
const JOB_ARRIVALS: usize = 16_000;
/// Rounds a run must hold, so p90 has ten samples beyond it.
const MIN_ROUNDS: usize = 100;
/// Every this many rounds, one fetched outcome is checked against an
/// in-process `run_spec`.
const CHECK_EVERY: usize = 10;
const WORKERS: usize = 2;
/// Fleet bring-ups timed per run; the median is `setup_s`.
const SETUPS: usize = 21;
/// Status poll interval: fine enough to add at most a millisecond to a
/// batch, coarse enough that the polling client does not compete with
/// the workers for the CPU.
const POLL: Duration = Duration::from_millis(1);
const DEADLINE: Duration = Duration::from_secs(30);

fn batch(seed: u64, round: usize) -> Vec<JobSpec> {
    (0..BATCH)
        .map(|j| JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(
                JOB_SETS,
                JOB_ARRIVALS,
                4,
            )),
            algorithm: if j % 2 == 0 {
                AlgorithmSpec::RandPr
            } else {
                AlgorithmSpec::HashRandPr { independence: 16 }
            },
            seed: derive_seed(seed, (round * BATCH + j) as u64),
        })
        .collect()
}

/// Two workers and a server, killed and cleaned up on drop — on every
/// exit path, so no process or journal outlives the run.
struct Fleet {
    server: Option<Child>,
    workers: Vec<Child>,
    /// Kept open so a late line from a child never meets a closed pipe.
    _pipes: Vec<BufReader<ChildStdout>>,
    client: Option<ServeClient>,
    worker_addrs: Vec<WorkerAddr>,
    state_dir: PathBuf,
}

impl Fleet {
    fn start(bin_dir: &Path, work_dir: &Path, tag: usize) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            server: None,
            workers: Vec::new(),
            _pipes: Vec::new(),
            client: None,
            worker_addrs: Vec::new(),
            state_dir: work_dir.join(format!("state-{tag}")),
        };
        for i in 0..WORKERS {
            let mut cmd = Command::new(bin_dir.join("osp-worker"));
            cmd.args(["--listen", "127.0.0.1:0"]);
            let log = work_dir.join(format!("worker-{tag}-{i}.log"));
            let (child, pipe) = spawn(&mut cmd, &log)?;
            fleet.workers.push(child);
            let addr = banner(pipe, "listening on ", &mut fleet._pipes, &log)?;
            fleet.worker_addrs.push(addr);
        }
        let list: Vec<String> = fleet.worker_addrs.iter().map(|a| a.to_string()).collect();
        let mut cmd = Command::new(bin_dir.join("osp-serve"));
        // The client reaches the server over a Unix socket: over TCP each
        // request waits out a delayed ACK (~40 ms), which would quantize
        // every batch into 40 ms steps and hide the server's own work. The
        // path is relative to the working directory, which server and
        // client share, to stay within the socket path limit.
        let sock = work_dir.join(format!("serve-{tag}.sock"));
        let sock = std::env::current_dir()
            .ok()
            .and_then(|cwd| sock.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(sock);
        let listen = format!("uds:{}", sock.display());
        cmd.args(["--listen", listen.as_str(), "--state-dir"])
            .arg(&fleet.state_dir)
            .env("OSP_DISPATCH", "socket")
            .env("OSP_WORKER_ADDRS", list.join(","));
        let log = work_dir.join(format!("serve-{tag}.log"));
        let (child, pipe) = spawn(&mut cmd, &log)?;
        fleet.server = Some(child);
        let addr = banner(pipe, "serving on ", &mut fleet._pipes, &log)?;
        let mut client = ServeClient::connect(&addr, DEADLINE).map_err(|e| e.to_string())?;
        let report = client
            .fleet(FleetCommand::Status)
            .map_err(|e| e.to_string())?;
        if report.up() != WORKERS {
            return Err(format!(
                "fleet came up with {} of {WORKERS} workers",
                report.up()
            ));
        }
        fleet.client = Some(client);
        Ok(fleet)
    }

    fn client(&mut self) -> &mut ServeClient {
        self.client.as_mut().expect("a started fleet has a client")
    }

    /// Summed peak RSS of the server and the workers.
    fn peak_rss_mb(&self) -> f64 {
        self.server
            .iter()
            .chain(&self.workers)
            .filter_map(|c| crate::peak_rss_mb(Some(c.id())))
            .sum()
    }

    /// Bytes the server's journal and snapshot take on disk.
    fn journal_bytes(&self) -> u64 {
        ["journal.osp", "snapshot.osp"]
            .iter()
            .filter_map(|f| std::fs::metadata(self.state_dir.join(f)).ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(mut client) = self.client.take() {
            let _ = client.shutdown();
        }
        if let Some(mut server) = self.server.take() {
            let asked = Instant::now();
            while matches!(server.try_wait(), Ok(None)) && asked.elapsed() < Duration::from_secs(5)
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = server.kill();
            let _ = server.wait();
        }
        for worker in &mut self.workers {
            let _ = worker.kill();
            let _ = worker.wait();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn spawn(cmd: &mut Command, log: &Path) -> Result<(Child, ChildStdout), String> {
    let log_file = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    for (key, _) in std::env::vars() {
        if key.starts_with("OSP_") && key != "OSP_DISPATCH" && key != "OSP_WORKER_ADDRS" {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("spawning {:?}: {e}", cmd.get_program()))?;
    let pipe = child.stdout.take().expect("stdout is piped");
    Ok((child, pipe))
}

/// Reads a child's banner line and parses the address after `prefix`.
fn banner(
    pipe: ChildStdout,
    prefix: &str,
    keep: &mut Vec<BufReader<ChildStdout>>,
    log: &Path,
) -> Result<WorkerAddr, String> {
    let mut reader = BufReader::new(pipe);
    let mut line = String::new();
    let _ = reader.read_line(&mut line);
    keep.push(reader);
    let addr = line
        .strip_prefix(prefix)
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| {
            let log_text = std::fs::read_to_string(log).unwrap_or_default();
            format!(
                "no `{prefix}` banner (got `{}`); log: {log_text}",
                line.trim()
            )
        })?;
    WorkerAddr::parse(addr).map_err(|e| e.to_string())
}

/// One batch through the served path: submit, poll status until the
/// batch is done, fetch.
struct Served {
    results: Vec<JobResult>,
    /// Submit sent, accepted, done seen, results fetched.
    marks: [Instant; 4],
    polls: u64,
    cached: u64,
    hit_ratio: f64,
}

impl Served {
    fn total_ms(&self) -> f64 {
        secs_ms(self.marks[3] - self.marks[0])
    }
}

fn serve_batch(client: &mut ServeClient, jobs: &[JobSpec]) -> Result<Served, String> {
    let t0 = Instant::now();
    let id = client.submit(jobs).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut polls = 0;
    let status = loop {
        polls += 1;
        let status = client.status(id).map_err(|e| e.to_string())?;
        if matches!(status.state.as_str(), "done" | "failed" | "cancelled") {
            break status;
        }
        if t1.elapsed() > DEADLINE {
            return Err(format!(
                "batch {id} still `{}` after {DEADLINE:?}",
                status.state
            ));
        }
        std::thread::sleep(POLL);
    };
    let t2 = Instant::now();
    let results = client.fetch(id).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let lookups = (status.cache_hits + status.cache_misses).max(1);
    Ok(Served {
        results,
        marks: [t0, t1, t2, t3],
        polls,
        cached: status.cached,
        hit_ratio: status.cache_hits as f64 / lookups as f64,
    })
}

/// Summaries of a batch's outcomes; a missing or failed job counts as a
/// failure.
fn summaries(report: &mut Report, served: &Served) -> Vec<Option<Summary>> {
    served
        .results
        .iter()
        .map(|r| {
            report.attempted += 1;
            match r {
                JobResult::Ok(o) => Some(Summary::of(o, JOB_SETS)),
                other => {
                    report.failed += 1;
                    report.problem(format!("served job did not succeed: {other:?}"));
                    None
                }
            }
        })
        .collect()
}

/// Serves one fresh batch and its cached resubmission, checking that the
/// two agree job for job. Returns both and the fresh summaries.
fn round(
    client: &mut ServeClient,
    report: &mut Report,
    jobs: &[JobSpec],
) -> Result<(Served, Served, Vec<Option<Summary>>), String> {
    let fresh = serve_batch(client, jobs)?;
    let cached = serve_batch(client, jobs)?;
    let a = summaries(report, &fresh);
    let b = summaries(report, &cached);
    for (j, (x, y)) in a.iter().zip(&b).enumerate() {
        if x.is_some() && y.is_some() && x != y {
            report.failed += 1;
            report.problem(format!("job {j}: cached answer differs from the fresh one"));
        }
    }
    if a.len() != jobs.len() || b.len() != jobs.len() {
        report.failed += 1;
        report.problem("a fetch returned the wrong number of results".into());
    }
    if cached.cached != jobs.len() as u64 {
        report.problem(format!(
            "{} of {} resubmitted jobs came from the cache",
            cached.cached,
            jobs.len()
        ));
    }
    Ok((fresh, cached, a))
}

/// Checks sampled fetched outcomes against in-process `run_spec`.
fn check_in_process(report: &mut Report, samples: &[(JobSpec, Summary)]) {
    for (job, served) in samples {
        report.attempted += 1;
        match run_spec(job, &CoreResolver) {
            Ok(o) if Summary::of(&o, JOB_SETS) == *served => {}
            Ok(_) => {
                report.failed += 1;
                report.problem(format!(
                    "seed {}: served outcome differs from run_spec",
                    job.seed
                ));
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("seed {}: run_spec failed: {e}", job.seed));
            }
        }
    }
}

pub fn measure(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    report.info("batch_jobs", BATCH);
    report.info("job_sets", JOB_SETS);
    report.info("job_arrivals", JOB_ARRIVALS);
    report.info("workers", WORKERS);
    let budget = Duration::from_secs_f64(args.seconds);
    let values = if args.trace {
        let mut fleet = Fleet::start(&args.bin_dir, &args.work_dir, 0)?;
        traced(&mut fleet, args, &mut report, budget)?
    } else {
        untraced(args, &mut report, budget)?
    };
    report.correct = report.failed == 0 && report.problems.is_empty();
    crate::push_metrics(&mut report, args.trace, &values);
    Ok(report)
}

fn untraced(
    args: &Args,
    report: &mut Report,
    budget: Duration,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // Set-up, several times: bring the fleet up until the server answers
    // a fleet status with both workers up. The last fleet is measured.
    let mut setup = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for tag in 0..SETUPS {
        drop(fleet.take());
        let start = Instant::now();
        fleet = Some(Fleet::start(&args.bin_dir, &args.work_dir, tag)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("the bring-ups ran");

    let (mut fresh_ms, mut cached_ms) = (Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let mut peak = 0.0;
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed() < budget || rounds < MIN_ROUNDS {
        let jobs = batch(args.seed, rounds);
        let (fresh, cached, sums) = round(fleet.client(), report, &jobs)?;
        fresh_ms.push(fresh.total_ms());
        cached_ms.push(cached.total_ms());
        if rounds % CHECK_EVERY == 0 {
            if let Some(s) = sums[0] {
                samples.push((jobs[0].clone(), s));
            }
        }
        rounds += 1;
        // Peak memory over a fixed amount of work, however many rounds
        // the budget then allows.
        if rounds == MIN_ROUNDS {
            peak = fleet.peak_rss_mb();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    report.info("journal_bytes", fleet.journal_bytes());
    drop(fleet);
    check_in_process(report, &samples);

    // Throughput from the median round, so that rounds slowed by a noisy
    // neighbour do not move it.
    let round_ms: Vec<f64> = fresh_ms
        .iter()
        .zip(&cached_ms)
        .map(|(f, c)| f + c)
        .collect();
    let jobs_per_s = (2 * BATCH) as f64 / (median(&round_ms) / 1e3);
    report.info("rounds", rounds);
    report.info("loop_wall_s", wall);
    report.info("setup_s", format!("{setup:?}"));
    report.info("fresh_ms", format!("{fresh_ms:?}"));
    report.info("cached_ms", format!("{cached_ms:?}"));
    Ok(BTreeMap::from([
        ("setup_s", median(&setup)),
        ("arrivals_per_s", jobs_per_s * JOB_ARRIVALS as f64),
        ("jobs_per_s", jobs_per_s),
        ("fresh_batch_ms_p50", median(&fresh_ms)),
        ("fresh_batch_ms_p90", percentile(&fresh_ms, 0.9)),
        ("cached_batch_ms_p50", median(&cached_ms)),
        ("cached_batch_ms_p90", percentile(&cached_ms, 0.9)),
        ("peak_rss_mb", peak),
    ]))
}

/// Counts the dispatch events of the shadow runs.
#[derive(Default)]
struct CountingSink {
    excluded: AtomicU64,
    probes: AtomicU64,
}

impl EventSink for CountingSink {
    fn event(&self, event: DispatchEvent) {
        match event {
            DispatchEvent::WorkerExcluded { .. } => self.excluded.fetch_add(1, Ordering::Relaxed),
            DispatchEvent::WorkerProbed { .. } => self.probes.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// Records a served batch's verb spans under `parent`: submit, wait,
/// fetch. Returns the wait and fetch span ids.
fn record_verbs(spans: &mut Spans, served: &Served, parent: usize) -> (usize, usize) {
    let [t0, t1, t2, t3] = served.marks;
    spans.record("serve.submit", "serve", t0, t1, Some(parent));
    let wait = spans.record("serve.wait", "serve", t1, t2, Some(parent));
    let fetch = spans.record("serve.fetch", "serve", t2, t3, Some(parent));
    (wait, fetch)
}

/// Shadow timings of one traced round's layers, measured by calling each
/// layer on the round's jobs and fetched outcomes.
#[derive(Default)]
struct Shadow {
    dispatch: Duration,
    engine: Duration,
    encode: Duration,
    decode: Duration,
    put: Duration,
    flush: Duration,
    get: Duration,
}

fn traced(
    fleet: &mut Fleet,
    args: &Args,
    report: &mut Report,
    budget: Duration,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let pool = SocketPool::new(fleet.worker_addrs.clone());
    let sink = CountingSink::default();
    let store_dir = args.work_dir.join("shadow-store");
    let mut store =
        JournalStore::open(&store_dir, StoreLimits::DEFAULT).map_err(|e| e.to_string())?;
    let resolver = TracedResolver {
        probe: Rc::new(Probe::default()),
    };
    let mut spans = Spans::new();
    let mut roots = Vec::new();
    let mut samples = Vec::new();
    let mut lists: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &'static str, v: f64| lists.entry(k).or_default().push(v);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut polls, mut batches, mut hit_ratio) = (0u64, 0u64, 0.0);
    // Jobs run in parallel on at most as many lanes as there are CPUs.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = WORKERS.min(BATCH).min(cpus) as u32;
    report.info("lanes", lanes);

    let start = Instant::now();
    let mut rounds = 0;
    // Untraced and traced rounds alternate; only traced rounds run the
    // shadow calls, after the round, outside its timed windows.
    while start.elapsed() < budget || roots.len() < 10 {
        let jobs = batch(args.seed, rounds);
        let traced_round = rounds % 2 == 1;
        let (fresh, cached, sums) = round(fleet.client(), report, &jobs)?;
        let round_end = Instant::now();
        let window = fresh.total_ms() + cached.total_ms();
        polls += fresh.polls + cached.polls;
        batches += 2;
        hit_ratio = cached.hit_ratio;
        if rounds % CHECK_EVERY == 0 {
            if let Some(s) = sums[0] {
                samples.push((jobs[0].clone(), s));
            }
        }
        rounds += 1;
        if !traced_round {
            untraced_ms.push(window);
            continue;
        }
        traced_ms.push(window);
        let root = spans.record("round", "other", fresh.marks[0], round_end, None);
        roots.push(root);
        let (fresh_wait, fresh_fetch) = record_verbs(&mut spans, &fresh, root);
        let (cached_wait, cached_fetch) = record_verbs(&mut spans, &cached, root);
        push("serve.submit_ms", secs_ms(fresh.marks[1] - fresh.marks[0]));
        push("serve.wait_ms", secs_ms(fresh.marks[2] - fresh.marks[1]));
        push("serve.fetch_ms", secs_ms(fresh.marks[3] - fresh.marks[2]));
        push(
            "serve.cached_wait_ms",
            secs_ms(cached.marks[2] - cached.marks[1]),
        );
        push(
            "serve.cached_fetch_ms",
            secs_ms(cached.marks[3] - cached.marks[2]),
        );

        let shadow_root = spans.open("shadow", "other", None);
        let mut shadow = Shadow::default();

        // Dispatch: the same jobs on the same two workers.
        let t0 = Instant::now();
        let direct = pool.run_specs_with_events(&jobs, &sink);
        let t1 = Instant::now();
        spans.record("dispatch.run_specs", "dispatch", t0, t1, Some(shadow_root));
        shadow.dispatch = t1 - t0;
        push("dispatch.batch_ms", secs_ms(shadow.dispatch));
        for (j, r) in direct.iter().enumerate() {
            report.attempted += 1;
            let same = r.as_ref().ok().map(|o| Summary::of(o, JOB_SETS)) == sums[j];
            if !same {
                report.failed += 1;
                report.problem(format!(
                    "job {j}: dispatched outcome differs from the served one"
                ));
            }
        }

        // Engine: each job in-process, single-threaded.
        for job in &jobs {
            let t0 = Instant::now();
            let r = run_spec(job, &CoreResolver);
            let t1 = Instant::now();
            spans.record("engine.run_spec", "engine", t0, t1, Some(shadow_root));
            shadow.engine += t1 - t0;
            push("serve.inprocess_job_ms", secs_ms(t1 - t0));
            drop(r);
        }
        // The first job once more through the traced resolver, for the
        // per-arrival layers of a served job.
        resolver.probe.reset();
        let t0 = Instant::now();
        let r = run_spec(&jobs[0], &resolver);
        let t1 = Instant::now();
        record_sample(&mut spans, &resolver.probe, t0, t1);
        for (k, v) in sample_values(&resolver.probe, t0, t1) {
            push(k, v);
        }
        if let Ok(o) = &r {
            push(
                "engine.completed_frac",
                o.completed().len() as f64 / JOB_SETS as f64,
            );
        }

        // Wire and store, on the fetched outcomes.
        for (job, result) in jobs.iter().zip(&fresh.results) {
            let JobResult::Ok(outcome) = result else {
                continue;
            };
            let (enc, dec, bytes) = crate::frame_round_trip(report, outcome, JOB_SETS);
            spans.record("wire.encode", "wire", enc.0, enc.1, Some(shadow_root));
            spans.record("wire.decode", "wire", dec.0, dec.1, Some(shadow_root));
            shadow.encode += enc.1 - enc.0;
            shadow.decode += dec.1 - dec.0;
            push("wire.outcome_bytes", bytes as f64);
            push("wire.encode_s", (enc.1 - enc.0).as_secs_f64());
            push("wire.decode_s", (dec.1 - dec.0).as_secs_f64());
            let digest = job_digest(job).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            store.put(digest, outcome);
            let t1 = Instant::now();
            spans.record("store.put", "store", t0, t1, Some(shadow_root));
            shadow.put += t1 - t0;
            push("store.put_ms", secs_ms(t1 - t0));
        }
        let t0 = Instant::now();
        store.flush();
        let t1 = Instant::now();
        spans.record("store.flush", "store", t0, t1, Some(shadow_root));
        shadow.flush = t1 - t0;
        push("store.flush_ms", secs_ms(shadow.flush));
        for job in &jobs {
            let digest = job_digest(job).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let hit = store.get(digest).is_some();
            let t1 = Instant::now();
            spans.record("store.get", "store", t0, t1, Some(shadow_root));
            shadow.get += t1 - t0;
            push("store.get_ms", secs_ms(t1 - t0));
            if !hit {
                report.problem("shadow journal store lost an outcome".into());
            }
        }
        spans.close(shadow_root);

        // Attribute the round's served windows to layers. A fresh batch
        // waits on dispatch (engine and one frame crossing on each lane,
        // in parallel) and on the journal; each fetch is one more frame
        // crossing; a cached batch waits on journal reads.
        let wire = shadow.encode + shadow.decode;
        let engine = shadow.engine / lanes;
        let dispatch = shadow.dispatch.saturating_sub(engine + wire / lanes);
        spans.split(fresh_wait, "engine", engine);
        spans.split(fresh_wait, "wire", wire / lanes);
        spans.split(fresh_wait, "dispatch", dispatch);
        spans.split(fresh_wait, "store", shadow.put + shadow.flush);
        spans.split(fresh_fetch, "wire", wire);
        spans.split(cached_wait, "store", shadow.get);
        spans.split(cached_fetch, "wire", wire);
    }
    report.info("rounds", rounds);
    report.info("traced_rounds", roots.len());
    let journal_bytes = fleet.journal_bytes();
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    check_in_process(report, &samples);

    let mut values: BTreeMap<&'static str, f64> =
        lists.iter().map(|(k, v)| (*k, median(v))).collect();
    values.insert("store.journal_bytes", journal_bytes as f64);
    values.insert(
        "dispatch.excluded",
        sink.excluded.load(Ordering::Relaxed) as f64,
    );
    values.insert(
        "dispatch.probes",
        sink.probes.load(Ordering::Relaxed) as f64,
    );
    values.insert("serve.status_polls", polls as f64 / batches.max(1) as f64);
    values.insert("serve.cache_hit_ratio", hit_ratio);
    values.insert(
        "trace.overhead_frac",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
    );
    let clamped = crate::account(report, &spans, &roots, &mut values);
    report.info("clamped_spans", clamped);
    crate::write_spans(args, &spans)?;
    Ok(values)
}
