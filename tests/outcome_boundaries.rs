//! Outcomes are O(m), so job size is bounded by the engine, not by the
//! boundaries around it: a 10⁷-arrival job crosses the `osp-worker`
//! process boundary ([`ProcessPool`]) and the `osp-serve --state-dir`
//! service boundary (socket frames plus the journal) bit-identical to
//! in-process [`run_spec`]. While outcomes carried the full decision log
//! (about 11 bytes of JSON per arrival) this job failed the 64 MiB frame
//! cap with `Error::Protocol`.
//!
//! Ignored by default: the job replays three times, which takes seconds in
//! release and minutes in debug. Run it with
//! `cargo test --release -- --ignored`.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use osp::core::gen::RandomInstanceConfig;
use osp::core::serve::{JobResult, ServeClient};
use osp::core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
use osp::core::wire::socket::WorkerAddr;
use osp::core::{Dispatcher, Outcome, ProcessPool};

const ARRIVALS: usize = 10_000_000;

fn big_job() -> JobSpec {
    JobSpec {
        scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(100_000, ARRIVALS, 2)),
        algorithm: AlgorithmSpec::RandPr,
        seed: 12,
    }
}

fn state_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osp-boundary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
#[ignore = "replays 10⁷ arrivals three times; run with `cargo test --release -- --ignored`"]
fn ten_million_arrivals_cross_the_worker_and_serve_boundaries() {
    let job = big_job();
    let want = run_spec(&job, &CoreResolver).expect("in-process reference");
    assert_eq!(want.arrivals(), ARRIVALS as u64);

    // Process boundary: one osp-worker child over the pipe protocol.
    let pool = ProcessPool::with_command(1, vec![env!("CARGO_BIN_EXE_osp-worker").to_string()]);
    let got = pool.run_specs(std::slice::from_ref(&job));
    let got: &Outcome = got[0].as_ref().expect("worker answers");
    assert_eq!(got, &want, "osp-worker outcome diverged");

    // Service boundary: osp-serve journals the outcome and answers a
    // resubmission from the journal.
    let dir = state_dir();
    let mut child = Command::new(env!("CARGO_BIN_EXE_osp-serve"))
        .args(["--listen", "127.0.0.1:0", "--state-dir"])
        .arg(&dir)
        .env_remove("OSP_FAULT")
        .env("OSP_DISPATCH", "threads")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn osp-serve");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("banner: {banner}"))
        .split_whitespace()
        .next()
        .expect("address in banner");
    let addr = WorkerAddr::parse(addr).expect("banner address parses");
    let mut client = ServeClient::connect(&addr, Duration::from_secs(60)).expect("connect");
    for (pass, cached) in [("fresh", 0), ("cached", 1)] {
        let id = client.submit(std::slice::from_ref(&job)).expect("submit");
        let status = client
            .wait(id, Duration::from_millis(50), Duration::from_secs(300))
            .expect("batch finishes");
        assert_eq!(status.state, "done", "{pass}: {status:?}");
        assert_eq!(status.cached, cached, "{pass}: {status:?}");
        match client.fetch(id).expect("fetch").as_slice() {
            [JobResult::Ok(got)] => assert_eq!(got, &want, "{pass}: served outcome diverged"),
            other => panic!("{pass}: expected one outcome, got {other:?}"),
        }
    }
    client.shutdown().expect("clean shutdown");
    assert!(child.wait().expect("server exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
