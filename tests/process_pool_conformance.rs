//! Conformance layer for the distributed (multi-process) replay pool.
//!
//! The tentpole claim of the spec-driven dispatch layer is that
//! *distribution changes nothing*: for every algorithm family over every
//! generator model, replaying a [`JobSpec`] work-list through `osp-worker`
//! child processes ([`ProcessPool`]) produces **bit-identical**
//! [`Outcome`]s — completed sets, benefit, per-arrival [`DecisionLog`]
//! and `died_at` — to the thread pool ([`ReplayPool::run_specs`] /
//! [`SpecPool`]) and to sequential [`run_spec`], at worker counts 1, 2
//! and 4. The osp-net roster (video-trace scenario, tail-drop and
//! random-drop) rides the same contract. The children are socket
//! workers, so the socket fleet's fault model applies to them too: a
//! child killed by its `OSP_FAULT` plan has its unanswered jobs
//! re-dispatched, and only with every child dead does a job fail.

use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::Duration;

use osp::core::gen::{CapacityModel, LoadModel, RandomInstanceConfig, WeightModel};
use osp::core::prelude::*;
use osp::core::serve::{JobResult, ServeClient};
use osp::core::spec::{run_spec, AlgorithmSpec, JobSpec, ScenarioSpec};
use osp::core::wire::socket::WorkerAddr;
use osp::core::{derived_jobs, Dispatcher, ProcessPool, SpecPool, WorkerError};
use osp::net::NetResolver;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// The `osp-worker` binary cargo built for this package.
fn worker_pool(workers: usize) -> ProcessPool {
    ProcessPool::with_command(workers, vec![env!("CARGO_BIN_EXE_osp-worker").to_string()])
}

/// The four generator models of the conformance grid (same roster as
/// `tests/source_conformance.rs`, as specs).
fn model_grid() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "uniform unweighted (m=30, n=80, σ=4)",
            ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(30, 80, 4)),
        ),
        (
            "zipf weights, variable loads and capacities",
            ScenarioSpec::Uniform(RandomInstanceConfig {
                num_sets: 40,
                num_elements: 100,
                load: LoadModel::Uniform { lo: 1, hi: 6 },
                weights: WeightModel::Zipf { exponent: 1.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
            }),
        ),
        (
            "bi-regular (m=24, k=3, σ=6)",
            ScenarioSpec::Biregular {
                num_sets: 24,
                set_size: 3,
                load: 6,
            },
        ),
        (
            "fixed size, skewed loads (m=40, k=4, skew=1.2)",
            ScenarioSpec::FixedSize {
                num_sets: 40,
                set_size: 4,
                num_elements: 90,
                skew: 1.2,
            },
        ),
    ]
}

/// The five algorithm families under test (same roster as
/// `tests/batch_equivalence.rs` / `tests/source_conformance.rs`). The
/// oracle's target is whatever deterministic greedy completes on the
/// scenario — computed via the spec layer itself, so the target is a pure
/// function of the scenario spec.
fn algorithm_roster(scenario: &ScenarioSpec, seed: u64) -> Vec<(&'static str, AlgorithmSpec)> {
    let greedy = AlgorithmSpec::Greedy {
        tie_break: TieBreak::ByWeight,
    };
    let target = run_spec(
        &JobSpec {
            scenario: scenario.clone(),
            algorithm: greedy.clone(),
            seed,
        },
        &NetResolver,
    )
    .expect("greedy replays every grid scenario")
    .completed()
    .to_vec();
    vec![
        ("greedy", greedy),
        ("randPr", AlgorithmSpec::RandPr),
        ("hashPr8", AlgorithmSpec::HashRandPr { independence: 8 }),
        ("random_assign", AlgorithmSpec::RandomAssign),
        ("oracle", AlgorithmSpec::Oracle { target }),
    ]
}

/// Full field-by-field comparison through the public accessors, so an
/// assertion failure names the diverging field.
fn assert_outcomes_identical(label: &str, want: &Outcome, got: &Outcome) {
    assert_eq!(want.completed(), got.completed(), "{label}: completed sets");
    assert!(
        want.benefit().to_bits() == got.benefit().to_bits(),
        "{label}: benefit diverged ({} vs {})",
        want.benefit(),
        got.benefit()
    );
    assert_eq!(
        (want.arrivals(), want.assignments()),
        (got.arrivals(), got.assignments()),
        "{label}: decision counts"
    );
    assert_eq!(want.digest(), got.digest(), "{label}: decision digest");
    for i in 0..1024u32 {
        // died_at is total (None beyond the instance), so probing a fixed
        // id range covers every set of every grid scenario.
        let s = SetId(i);
        assert_eq!(want.died_at(s), got.died_at(s), "{label}: died_at({s:?})");
    }
    assert_eq!(want, got, "{label}: outcome diverged");
}

#[test]
fn process_pool_is_bit_identical_to_threads_and_sequential() {
    // 5 algorithms × 4 generator models, 3 seeds each, one big mixed
    // work-list — exactly what a distributed experiment submits. The
    // sequential reference, the thread pool and the process pool at
    // every worker count must agree bit for bit.
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (model, scenario) in model_grid() {
        for trial in 0..3u64 {
            // One seed drives both the scenario and the algorithm of a
            // job, so the oracle's target must be derived for this
            // trial's scenario seed.
            let seed = derive_seed(801, trial);
            for (family, algorithm) in algorithm_roster(&scenario, seed) {
                jobs.push(JobSpec {
                    scenario: scenario.clone(),
                    algorithm,
                    seed,
                });
                labels.push(format!("{model} / {family} / trial {trial}"));
            }
        }
    }

    let sequential: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &NetResolver).unwrap())
        .collect();

    let threads = SpecPool::new(ReplayPool::new(2), NetResolver);
    let threaded = threads.run_specs(&jobs);
    assert_eq!(threads.backend(), "threads");
    for ((want, got), label) in sequential.iter().zip(&threaded).zip(&labels) {
        assert_outcomes_identical(&format!("threads / {label}"), want, got.as_ref().unwrap());
    }

    for workers in WORKER_COUNTS {
        let pool = worker_pool(workers);
        assert_eq!(pool.backend(), "processes");
        assert_eq!(pool.lanes(), workers);
        let distributed = pool.run_specs(&jobs);
        assert_eq!(distributed.len(), jobs.len());
        for ((want, got), label) in sequential.iter().zip(&distributed).zip(&labels) {
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("{workers} workers / {label}: {e}"));
            assert_outcomes_identical(&format!("{workers} workers / {label}"), want, got);
        }
    }
}

#[test]
fn net_roster_crosses_the_process_boundary() {
    // The osp-net specs — video-trace scenario, tail-drop and random-drop
    // policies — through real worker processes.
    let scenario = ScenarioSpec::VideoTrace {
        sources: 4,
        frames_per_source: 12,
        frame_interval: 8,
        capacity: 4,
        jitter: 2,
    };
    let mut jobs = Vec::new();
    for algorithm in [
        AlgorithmSpec::TailDrop,
        AlgorithmSpec::RandomDrop,
        AlgorithmSpec::RandPr,
    ] {
        jobs.extend(derived_jobs(&scenario, &algorithm, 802, 3));
    }
    let sequential: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &NetResolver).unwrap())
        .collect();
    for workers in [1usize, 2] {
        let distributed = worker_pool(workers).run_specs(&jobs);
        for (i, (want, got)) in sequential.iter().zip(&distributed).enumerate() {
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("job {i} at {workers} workers: {e}"));
            assert_outcomes_identical(&format!("net job {i} at {workers} workers"), want, got);
        }
    }
}

#[test]
fn per_job_failures_are_isolated_and_ordered() {
    // A work-list mixing good jobs with an infeasible scenario: every
    // lane must answer the good jobs bit-identically and fail exactly
    // the bad one, in position.
    let good = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3));
    let bad = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(2, 5, 4));
    let jobs: Vec<JobSpec> = [&good, &bad, &good]
        .iter()
        .enumerate()
        .map(|(i, scenario)| JobSpec {
            scenario: (*scenario).clone(),
            algorithm: AlgorithmSpec::RandPr,
            seed: derive_seed(803, i as u64),
        })
        .collect();
    let pool = worker_pool(2);
    let out = pool.run_specs(&jobs);
    assert_eq!(out.len(), 3);
    assert!(out[0].is_ok());
    let err = out[1].as_ref().unwrap_err();
    assert!(
        matches!(err, Error::Worker(_)),
        "spec failure should cross the boundary as a worker error, got {err:?}"
    );
    assert!(err.to_string().contains("invalid spec"), "got: {err}");
    assert!(out[2].is_ok());
    // The surviving outcomes equal their sequential references.
    for i in [0usize, 2] {
        let want = run_spec(&jobs[i], &NetResolver).unwrap();
        assert_eq!(out[i].as_ref().unwrap(), &want);
    }
}

#[test]
fn worker_count_does_not_leak_into_seed_derivation() {
    // Same jobs, shuffled across different worker counts: outcomes are a
    // pure function of the spec. (Guards the contract that chunking is
    // deterministic and seeds never depend on lane assignment.)
    let scenario = ScenarioSpec::Biregular {
        num_sets: 24,
        set_size: 3,
        load: 6,
    };
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 804, 8);
    let reference = worker_pool(1).run_specs(&jobs);
    for workers in [2usize, 3, 8] {
        let got =
            ProcessPool::with_command(workers, vec![env!("CARGO_BIN_EXE_osp-worker").to_string()])
                .run_specs(&jobs);
        for (i, (want, got)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                want.as_ref().unwrap(),
                got.as_ref().unwrap(),
                "job {i} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn fault_killed_children_answer_bit_identically_and_the_rest_fail_typed() {
    // Each of two children dies after answering one job: the first job of
    // each chunk comes back bit-identical, and with both children dead
    // the other two fail with the typed exhaustion error.
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
        &AlgorithmSpec::RandPr,
        805,
        4,
    );
    let pool = ProcessPool::with_command(
        2,
        vec![
            "env".into(),
            "OSP_FAULT=die:1".into(),
            env!("CARGO_BIN_EXE_osp-worker").into(),
        ],
    );
    let out = pool.run_specs(&jobs);
    assert_eq!(out.len(), 4);
    for (i, (job, got)) in jobs.iter().zip(&out).enumerate() {
        if i % 2 == 0 {
            let want = run_spec(job, &NetResolver).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want, "job {i}");
        } else {
            assert!(
                matches!(
                    got,
                    Err(Error::Worker(WorkerError::AllWorkersDead { pending: 2 }))
                ),
                "job {i}: {got:?}"
            );
        }
    }
}

#[test]
fn ambient_fault_plan_of_the_spawning_process_does_not_reach_the_children() {
    // `osp-serve` on the process backend, started with the serve-side
    // drill `die-after-chunk:1`. Its children must not inherit that
    // variable: a worker refuses serve-side clauses (exit 64), so the
    // first chunk would fail and nothing would reach the journal. With
    // the variable stripped, the chunk is journaled before the drill
    // kills the server, and a restart serves it from the journal.
    let dir = std::env::temp_dir().join(format!("osp-ambient-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
        &AlgorithmSpec::RandPr,
        806,
        4,
    );
    let serve = |envs: &[(&str, &str)]| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_osp-serve"));
        command
            .args(["--listen", "127.0.0.1:0", "--state-dir"])
            .arg(&dir)
            .env_remove("OSP_FAULT")
            .env("OSP_SERVE_CHUNK", "2")
            .stdout(Stdio::piped());
        command.envs(envs.iter().copied());
        let mut child = command.spawn().expect("spawn osp-serve");
        let mut banner = String::new();
        std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner.split_whitespace().nth(2).expect("address in banner");
        let client = ServeClient::connect(
            &WorkerAddr::parse(addr).expect("banner address parses"),
            Duration::from_secs(30),
        )
        .expect("connect to osp-serve");
        (child, client)
    };

    let (mut child, mut client) = serve(&[
        ("OSP_DISPATCH", "processes"),
        ("OSP_WORKERS", "2"),
        ("OSP_WORKER_BIN", env!("CARGO_BIN_EXE_osp-worker")),
        ("OSP_FAULT", "die-after-chunk:1"),
    ]);
    let id = client.submit(&jobs).expect("submit");
    let status = child.wait().expect("await the drill");
    assert_eq!(status.code(), Some(86), "exit: {status:?}");

    let (mut child, mut client) = serve(&[("OSP_DISPATCH", "threads")]);
    let status = client
        .wait(id, Duration::from_millis(20), Duration::from_secs(120))
        .expect("resumed batch finishes");
    let results = client.fetch(id).expect("fetch");
    // Stop the server before asserting, so a failure leaves no process.
    client.shutdown().expect("clean shutdown");
    assert!(child.wait().expect("server exits").success());
    assert_eq!(status.state, "done");
    assert_eq!(
        status.cached, 2,
        "the first chunk was computed by the children: {status:?}"
    );
    for (i, (job, got)) in jobs.iter().zip(&results).enumerate() {
        let want = run_spec(job, &NetResolver).unwrap();
        assert!(
            matches!(got, JobResult::Ok(got) if *got == want),
            "job {i}: {got:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
