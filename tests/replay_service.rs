//! Conformance layer for the replay service (`osp-serve`'s core).
//!
//! The acceptance claim: the **submit → status → fetch** flow through a
//! [`ServeServer`]/[`ServeClient`] pair is bit-identical to sequential
//! [`run_spec`] over the same [`JobSpec`]s, whichever [`Dispatcher`]
//! backend executes the batches — threads, `osp-worker` child processes,
//! or a socket fleet, including a fleet with an injected mid-batch worker
//! kill. And the service semantics around it: an identical resubmission
//! is answered from the content-addressed results cache (hit counters
//! observed, outcomes still bit-identical), the bounded submission queue
//! answers [`Error::Unavailable`] under back-pressure instead of growing,
//! and cancellation stops a batch at a chunk boundary while keeping the
//! answers already computed fetchable.

use std::time::Duration;

use osp::core::gen::RandomInstanceConfig;
use osp::core::prelude::*;
use osp::core::serve::{JobResult, ReplayService, ServeClient, ServeServer, ServiceConfig};
use osp::core::spec::{run_spec, AlgorithmSpec, JobSpec, ScenarioSpec};
use osp::core::wire::socket::{SocketServer, WorkerAddr};
use osp::core::{
    derived_jobs, Dispatcher, Error, EventSink, FaultPlan, ProcessPool, ReplayPool, RetryPolicy,
    SocketConfig, SocketPool, SpecPool,
};
use osp::net::NetResolver;

/// A mixed work-list: two scenario families × three algorithm families,
/// two trials each — small enough to run on every backend, varied enough
/// that a merge-order or cache-keying bug cannot hide.
fn grid_jobs() -> Vec<JobSpec> {
    let uniform = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(24, 60, 3));
    let biregular = ScenarioSpec::Biregular {
        num_sets: 24,
        set_size: 3,
        load: 6,
    };
    let mut jobs = Vec::new();
    for scenario in [&uniform, &biregular] {
        for algorithm in [
            AlgorithmSpec::RandPr,
            AlgorithmSpec::Greedy {
                tie_break: TieBreak::ByWeight,
            },
            AlgorithmSpec::HashRandPr { independence: 8 },
        ] {
            for trial in 0..2u64 {
                jobs.push(JobSpec {
                    scenario: scenario.clone(),
                    algorithm: algorithm.clone(),
                    seed: derive_seed(901, trial),
                });
            }
        }
    }
    jobs
}

fn sequential(jobs: &[JobSpec]) -> Vec<Outcome> {
    jobs.iter()
        .map(|j| run_spec(j, &NetResolver).expect("sequential reference"))
        .collect()
}

fn assert_bit_identical(label: &str, want: &Outcome, got: &Outcome) {
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
    assert_eq!(want, got, "{label}: outcome diverged");
}

/// The full acceptance flow over the wire: submit the batch twice through
/// a served front door, assert bit-identity with the sequential reference
/// both times, and assert the second pass was answered from the cache.
fn assert_serve_conformance(label: &str, dispatcher: Box<dyn Dispatcher + Send>) {
    let jobs = grid_jobs();
    let want = sequential(&jobs);
    let service = ReplayService::new(
        dispatcher,
        ServiceConfig {
            queue_capacity: 8,
            chunk: 5,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let server =
        ServeServer::bind(&WorkerAddr::parse("127.0.0.1:0").unwrap(), service).expect("serve bind");
    let mut client =
        ServeClient::connect(server.local_addr(), Duration::from_secs(10)).expect("serve dial");

    // First submission: everything computed, nothing cached.
    let first = client.submit(&jobs).expect("submit");
    let status = client
        .wait(first, Duration::from_millis(10), Duration::from_secs(120))
        .expect("wait");
    assert_eq!(status.state, "done", "{label}: first batch");
    assert_eq!(status.answered, jobs.len() as u64, "{label}: answered");
    assert_eq!(status.cached, 0, "{label}: a fresh service has no hits");
    assert_eq!(status.cache_misses, jobs.len() as u64, "{label}: misses");
    let results = client.fetch(first).expect("fetch");
    assert_eq!(results.len(), jobs.len());
    for (i, (result, want)) in results.iter().zip(&want).enumerate() {
        match result {
            JobResult::Ok(got) => assert_bit_identical(&format!("{label} / job {i}"), want, got),
            other => panic!("{label} / job {i}: expected an outcome, got {other:?}"),
        }
    }

    // Identical resubmission: served from the cache — hit counter moves,
    // no job recomputed, outcomes still bit-identical.
    let second = client.submit(&jobs).expect("resubmit");
    let status = client
        .wait(second, Duration::from_millis(10), Duration::from_secs(120))
        .expect("wait");
    assert_eq!(status.state, "done", "{label}: resubmission");
    assert_eq!(
        status.cached,
        jobs.len() as u64,
        "{label}: every job must hit the cache"
    );
    assert_eq!(status.cache_hits, jobs.len() as u64, "{label}: hit counter");
    assert!(
        status.jobs.iter().all(|s| s == "cached"),
        "{label}: per-job states: {:?}",
        status.jobs
    );
    let results = client.fetch(second).expect("fetch cached");
    for (i, (result, want)) in results.iter().zip(&want).enumerate() {
        match result {
            JobResult::Ok(got) => {
                assert_bit_identical(&format!("{label} / cached job {i}"), want, got)
            }
            other => panic!("{label} / cached job {i}: expected an outcome, got {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn served_batches_match_sequential_on_the_thread_backend() {
    assert_serve_conformance(
        "threads",
        Box::new(SpecPool::new(ReplayPool::new(2), NetResolver)),
    );
}

#[test]
fn served_batches_match_sequential_on_the_process_backend() {
    let pool = ProcessPool::with_command(2, vec![env!("CARGO_BIN_EXE_osp-worker").to_string()]);
    assert_serve_conformance("processes", Box::new(pool));
}

#[test]
fn served_batches_match_sequential_on_the_socket_backend() {
    let servers: Vec<SocketServer> = (0..2)
        .map(|_| {
            SocketServer::bind(
                &WorkerAddr::parse("127.0.0.1:0").unwrap(),
                NetResolver,
                FaultPlan::NONE,
            )
            .expect("worker bind")
        })
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().clone()).collect();
    assert_serve_conformance("sockets", Box::new(SocketPool::new(addrs)));
    for server in servers {
        server.stop();
    }
}

#[test]
fn served_batches_match_sequential_on_a_fault_injected_socket_fleet() {
    // One of three fleet members dies after 4 answered jobs (the
    // OSP_FAULT=die:n discipline, in-process). The service must ride the
    // re-dispatch: results still bit-identical, batch still `done`.
    let doomed = SocketServer::bind(
        &WorkerAddr::parse("127.0.0.1:0").unwrap(),
        NetResolver,
        FaultPlan::parse("die:4").unwrap(),
    )
    .expect("doomed bind");
    let survivors: Vec<SocketServer> = (0..2)
        .map(|_| {
            SocketServer::bind(
                &WorkerAddr::parse("127.0.0.1:0").unwrap(),
                NetResolver,
                FaultPlan::NONE,
            )
            .expect("worker bind")
        })
        .collect();
    let mut addrs = vec![doomed.local_addr().clone()];
    addrs.extend(survivors.iter().map(|s| s.local_addr().clone()));
    let pool = SocketPool::with_config(
        addrs,
        SocketConfig {
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(50),
            },
            ..SocketConfig::default()
        },
    );
    assert_serve_conformance("fault-injected sockets", Box::new(pool));
    assert!(doomed.fault_killed(), "the fault plan must have fired");
    for server in survivors {
        server.stop();
    }
}

/// A deliberately slow single-lane backend, so queue and cancellation
/// timing is controllable: each dispatch call sleeps, then resolves
/// in-process.
struct SlowPool {
    delay: Duration,
}

impl Dispatcher for SlowPool {
    fn run_specs_with_events(
        &self,
        jobs: &[JobSpec],
        _sink: &dyn EventSink,
    ) -> Vec<Result<Outcome, Error>> {
        std::thread::sleep(self.delay);
        jobs.iter().map(|j| run_spec(j, &NetResolver)).collect()
    }

    fn lanes(&self) -> usize {
        1
    }

    fn backend(&self) -> &'static str {
        "slow-test"
    }
}

#[test]
fn full_submission_queue_answers_unavailable_without_enqueueing() {
    let service = ReplayService::new(
        Box::new(SlowPool {
            delay: Duration::from_millis(700),
        }),
        ServiceConfig {
            queue_capacity: 1,
            chunk: 64,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(15, 40, 3)),
        &AlgorithmSpec::RandPr,
        902,
        2,
    );
    // First batch: dequeued by the executor, now sleeping in dispatch.
    let running = service.submit(jobs.clone()).expect("first submit");
    // Give the executor a beat to claim it, freeing the queue slot.
    std::thread::sleep(Duration::from_millis(150));
    // Second batch: sits in the queue slot.
    let queued = service.submit(jobs.clone()).expect("second submit");
    // Third: the queue is full — typed back-pressure, nothing enqueued.
    let err = service.submit(jobs.clone()).unwrap_err();
    assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");
    assert!(err.to_string().contains("queue is full"), "{err}");

    // Both accepted batches still complete; the refused one left no record.
    for id in [running, queued] {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let status = service.status(id).expect("accepted batch exists");
            if status.state == "done" {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "batch {id} stuck");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    assert!(
        service.status(queued + 1).is_none(),
        "refused id has no record"
    );
    service.shutdown();
}

#[test]
fn cancel_stops_at_a_chunk_boundary_and_keeps_computed_answers() {
    // chunk=1 against a 300 ms-per-chunk backend: cancel lands while the
    // batch is mid-run, so it must stop early — some jobs answered (and
    // fetchable), the rest reported `cancelled`, state `cancelled`.
    let service = ReplayService::new(
        Box::new(SlowPool {
            delay: Duration::from_millis(300),
        }),
        ServiceConfig {
            queue_capacity: 4,
            chunk: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(15, 40, 3)),
        &AlgorithmSpec::RandPr,
        903,
        8,
    );
    let id = service.submit(jobs.clone()).expect("submit");
    // Let roughly one chunk land, then cancel.
    std::thread::sleep(Duration::from_millis(450));
    assert!(service.cancel(id), "a running batch accepts cancellation");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        let status = service.status(id).expect("batch exists");
        if status.state == "cancelled" {
            break status;
        }
        assert!(std::time::Instant::now() < deadline, "cancel never landed");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.answered < jobs.len() as u64,
        "cancellation must stop the batch early (answered {})",
        status.answered
    );
    // Whatever was answered before the cancel is real and bit-identical.
    let results = service.fetch(id).expect("fetch");
    let mut answered = 0;
    for (i, result) in results.iter().enumerate() {
        match result {
            JobResult::Ok(got) => {
                answered += 1;
                let want = run_spec(&jobs[i], &NetResolver).unwrap();
                assert_bit_identical(&format!("cancelled batch job {i}"), &want, got);
                assert_eq!(status.jobs[i], "done");
            }
            JobResult::Pending => assert_eq!(status.jobs[i], "cancelled"),
            other => panic!("job {i}: unexpected {other:?}"),
        }
    }
    assert_eq!(answered as u64, status.answered);
    service.shutdown();
}

#[test]
fn an_oversized_hash_independence_fails_only_its_job_and_the_service_keeps_serving() {
    // `independence` sizes the hash's coefficient vector; a spec asking
    // for 2^62 of them once panicked the executor, leaving the batch
    // `running` forever and every later submit refused.
    let service = ReplayService::new(
        Box::new(SpecPool::new(ReplayPool::new(2), NetResolver)),
        ServiceConfig::default(),
    )
    .expect("service starts");
    let mut jobs = grid_jobs();
    let bad = 4;
    jobs[bad].algorithm = AlgorithmSpec::HashRandPr {
        independence: 1 << 62,
    };
    let want = sequential(&grid_jobs());
    let wait = |id: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = service.status(id).expect("accepted batch exists");
            if !matches!(status.state.as_str(), "queued" | "running") {
                return status;
            }
            assert!(std::time::Instant::now() < deadline, "batch {id} stuck");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let id = service.submit(jobs.clone()).expect("submit");
    assert_eq!(wait(id).state, "failed");
    let results = service.fetch(id).expect("results");
    for (i, result) in results.iter().enumerate() {
        match result {
            JobResult::Err(why) if i == bad => {
                assert!(why.contains("independence"), "job {i}: {why}")
            }
            JobResult::Ok(got) if i != bad => {
                assert_bit_identical(&format!("job {i}"), &want[i], got)
            }
            other => panic!("job {i}: got {other:?}"),
        }
    }
    // The next batch is served as usual.
    let next = service
        .submit(grid_jobs())
        .expect("the service still accepts");
    assert_eq!(wait(next).state, "done");
    service.shutdown();
}
