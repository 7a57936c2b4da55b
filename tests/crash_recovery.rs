//! Crash-recovery conformance for `osp-serve --state-dir`.
//!
//! The acceptance claim of the journaled store: a server killed without
//! warning mid-batch — deterministically via the serve-side
//! `OSP_FAULT=die-after-chunk:<n>` drill, or with a real `SIGKILL` — and
//! restarted on the same state directory **resumes the interrupted
//! batch**, re-serving every journaled outcome bit-identically (observed
//! as cache hits, i.e. zero recomputation of journaled jobs) and
//! recomputing only the jobs that never reached the journal. Both tests
//! drive the real `osp-serve` binary, exactly as the CI `chaos-recovery`
//! job does with a socket fleet.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use osp::core::gen::RandomInstanceConfig;
use osp::core::serve::{FleetCommand, JobResult, ServeClient};
use osp::core::spec::{run_spec, AlgorithmSpec, CoreResolver, ScenarioSpec};
use osp::core::wire::socket::WorkerAddr;
use osp::core::{derived_jobs, Outcome};

/// Exit status of a `FaultPlan`-injected death (`wire::FAULT_EXIT`).
const FAULT_EXIT: i32 = 86;

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osp-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns the real `osp-serve` on an ephemeral port over the given state
/// directory, blocks on its banner, and returns the child plus the
/// resolved address. `envs` layers test-specific knobs (fault plans,
/// chunk sizes) over a clean threads-backend baseline.
fn spawn_serve(dir: &Path, envs: &[(&str, &str)]) -> (Child, WorkerAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_osp-serve"));
    cmd.args(["--listen", "127.0.0.1:0", "--state-dir"])
        .arg(dir)
        .env_remove("OSP_FAULT")
        .env("OSP_DISPATCH", "threads")
        .stdout(Stdio::piped());
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let mut child = cmd.spawn().expect("spawn osp-serve");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut banner)
        .expect("read banner");
    assert!(banner.starts_with("serving on "), "banner: {banner}");
    let addr = banner
        .split_whitespace()
        .nth(2)
        .expect("address in banner")
        .to_string();
    (
        child,
        WorkerAddr::parse(&addr).expect("banner address parses"),
    )
}

fn connect(addr: &WorkerAddr) -> ServeClient {
    ServeClient::connect(addr, Duration::from_secs(30)).expect("connect to osp-serve")
}

fn assert_bit_identical(label: &str, want: &[Outcome], results: &[JobResult]) {
    assert_eq!(want.len(), results.len(), "{label}: result count");
    for (index, (want, got)) in want.iter().zip(results).enumerate() {
        match got {
            JobResult::Ok(got) => {
                assert_eq!(
                    want.completed(),
                    got.completed(),
                    "{label}[{index}]: completed"
                );
                assert!(
                    want.benefit().to_bits() == got.benefit().to_bits(),
                    "{label}[{index}]: benefit diverged"
                );
                assert_eq!(want, got, "{label}[{index}]: outcome diverged");
            }
            other => panic!("{label}[{index}]: expected an outcome, got {other:?}"),
        }
    }
}

#[test]
fn die_after_chunk_drill_resumes_with_exactly_the_journaled_jobs_cached() {
    let dir = temp_state_dir("drill");
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
        &AlgorithmSpec::RandPr,
        5100,
        10,
    );
    let want: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &CoreResolver).expect("sequential reference"))
        .collect();

    // Chunk size 2 and a kill after chunk 2: exactly jobs 0..4 reach the
    // journal before the process dies, deterministically.
    let (mut child, addr) = spawn_serve(
        &dir,
        &[("OSP_SERVE_CHUNK", "2"), ("OSP_FAULT", "die-after-chunk:2")],
    );
    let mut client = connect(&addr);
    let id = client.submit(&jobs).expect("submit before the drill kills");
    assert_eq!(id, 1);
    let status = child.wait().expect("await the injected death");
    assert_eq!(status.code(), Some(FAULT_EXIT), "exit: {status:?}");

    // Restart on the same directory, no fault: the batch resumes, the
    // four journaled outcomes are cache hits, the six others recompute.
    let (child, addr) = spawn_serve(&dir, &[("OSP_SERVE_CHUNK", "2")]);
    let mut client = connect(&addr);
    let status = client
        .wait(id, Duration::from_millis(20), Duration::from_secs(120))
        .expect("resumed batch finishes");
    assert_eq!(status.state, "done");
    assert_eq!(status.total, 10);
    assert_eq!(
        status.cached, 4,
        "exactly the journaled chunk pair: {status:?}"
    );
    assert_eq!(status.cache_hits, 4);
    assert_eq!(status.cache_misses, 6);
    let results = client.fetch(id).expect("fetch resumed batch");
    assert_bit_identical("resume", &want, &results);

    // The whole batch is journaled now: a resubmission never computes.
    let again = client.submit(&jobs).expect("resubmit");
    let status = client
        .wait(again, Duration::from_millis(20), Duration::from_secs(120))
        .expect("resubmission finishes");
    assert_eq!(
        status.cached, 10,
        "everything cached after resume: {status:?}"
    );
    assert_bit_identical(
        "resubmit",
        &want,
        &client.fetch(again).expect("fetch resubmission"),
    );

    client.shutdown().expect("clean shutdown");
    let mut child = child;
    let status = child.wait().expect("server exits");
    assert!(status.success(), "clean exit after shutdown: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the real `osp-worker --listen` on a Unix socket path and
/// blocks on its banner.
fn spawn_worker(path: &Path, fault: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_osp-worker"));
    cmd.arg("--listen")
        .arg(format!("uds:{}", path.display()))
        .env_remove("OSP_FAULT")
        .stdout(Stdio::piped());
    if let Some(plan) = fault {
        cmd.env("OSP_FAULT", plan);
    }
    let mut child = cmd.spawn().expect("spawn osp-worker");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut banner)
        .expect("read worker banner");
    assert!(banner.starts_with("listening on "), "banner: {banner}");
    child
}

#[test]
fn excluded_worker_rejoins_after_a_restart_on_the_same_address() {
    let dir = temp_state_dir("rejoin");
    std::fs::create_dir_all(&dir).expect("state dir");
    let w0_path = dir.join("w0.sock");
    let w1_path = dir.join("w1.sock");
    // Worker 0 dies (exit 86) after answering two jobs; worker 1 is
    // healthy. The fleet excludes the dead lane and finishes on the
    // survivor.
    let mut doomed = spawn_worker(&w0_path, Some("die:2"));
    let mut healthy = spawn_worker(&w1_path, None);
    let (mut server, addr) = spawn_serve(
        &dir,
        &[
            ("OSP_DISPATCH", "socket"),
            (
                "OSP_WORKER_ADDRS",
                &format!("uds:{},uds:{}", w0_path.display(), w1_path.display()),
            ),
            ("OSP_SERVE_CHUNK", "4"),
        ],
    );
    let mut client = connect(&addr);

    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
        &AlgorithmSpec::RandPr,
        5300,
        8,
    );
    let want: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &CoreResolver).expect("sequential reference"))
        .collect();
    let id = client.submit(&jobs).expect("submit");
    let status = client
        .wait(id, Duration::from_millis(20), Duration::from_secs(120))
        .expect("batch survives the worker death");
    assert_eq!(status.state, "done");
    assert!(
        !status.excluded.is_empty(),
        "the dead worker must be excluded: {status:?}"
    );
    assert_bit_identical(
        "fleet with a death",
        &want,
        &client.fetch(id).expect("fetch"),
    );
    assert_eq!(
        doomed.wait().expect("doomed exits").code(),
        Some(FAULT_EXIT)
    );

    let report = client.fleet(FleetCommand::Status).expect("fleet status");
    assert_eq!(report.up(), 1, "one lane down: {report:?}");

    // Bring a fresh worker up on the dead lane's address (the stale
    // socket path is cleared on rebind) and force a probe: the lane must
    // be re-admitted without a server restart.
    let mut replacement = spawn_worker(&w0_path, None);
    let report = client.fleet(FleetCommand::Probe).expect("fleet probe");
    assert_eq!(report.up(), 2, "probe must re-admit the lane: {report:?}");
    assert!(report.rejoined >= 1, "rejoin counter: {report:?}");

    // The re-admitted fleet still computes bit-identically.
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(18, 45, 3)),
        &AlgorithmSpec::RandPr,
        5400,
        6,
    );
    let want: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &CoreResolver).expect("sequential reference"))
        .collect();
    let id = client.submit(&jobs).expect("submit after rejoin");
    let status = client
        .wait(id, Duration::from_millis(20), Duration::from_secs(120))
        .expect("post-rejoin batch finishes");
    assert_eq!(status.state, "done");
    assert!(status.workers_rejoined >= 1, "status counters: {status:?}");
    assert_bit_identical("post-rejoin", &want, &client.fetch(id).expect("fetch"));

    client.shutdown().expect("clean shutdown");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "clean exit: {status:?}");
    replacement.kill().expect("kill replacement");
    let _ = replacement.wait();
    healthy.kill().expect("kill healthy worker");
    let _ = healthy.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_batch_resumes_without_recomputing_journaled_jobs() {
    let dir = temp_state_dir("sigkill");
    // Heavy jobs, one lane, chunk 1: the batch takes long enough that a
    // kill lands mid-flight with journaled work on both sides of it.
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(200, 3_000, 5)),
        &AlgorithmSpec::RandPr,
        5200,
        24,
    );
    let want: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &CoreResolver).expect("sequential reference"))
        .collect();

    let (mut child, addr) = spawn_serve(&dir, &[("OSP_SERVE_CHUNK", "1"), ("OSP_WORKERS", "1")]);
    let mut client = connect(&addr);
    let id = client.submit(&jobs).expect("submit");

    // Let some (not all) jobs land, then kill -9.
    let started = Instant::now();
    let progress = loop {
        let status = client.status(id).expect("status while running");
        if status.answered >= 2 {
            break status;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no progress before kill: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        progress.answered < progress.total,
        "batch finished before the kill — scenario too light to drill: {progress:?}"
    );
    child.kill().expect("SIGKILL osp-serve");
    let _ = child.wait();

    // Restart: everything journaled before the kill is a cache hit.
    let (child, addr) = spawn_serve(&dir, &[("OSP_SERVE_CHUNK", "1"), ("OSP_WORKERS", "1")]);
    let mut client = connect(&addr);
    let status = client
        .wait(id, Duration::from_millis(50), Duration::from_secs(300))
        .expect("resumed batch finishes");
    assert_eq!(status.state, "done");
    assert_eq!(status.total, 24);
    assert!(
        status.cached >= progress.answered,
        "journaled jobs must not recompute (saw {} answered pre-kill): {status:?}",
        progress.answered
    );
    assert_eq!(status.cache_hits, status.cached, "hits all from this batch");
    assert_bit_identical("sigkill resume", &want, &client.fetch(id).expect("fetch"));

    client.shutdown().expect("clean shutdown");
    let mut child = child;
    let status = child.wait().expect("server exits");
    assert!(status.success(), "clean exit after shutdown: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
