//! Conformance layer for the socket-backed worker fleet.
//!
//! The tentpole claim extends `tests/process_pool_conformance.rs` across
//! the network boundary: replaying a [`JobSpec`] work-list through a
//! fleet of socket workers ([`SocketPool`] over `osp-worker --listen`
//! endpoints, here hosted in-process by [`SocketServer`]) produces
//! **bit-identical** [`Outcome`]s — completed sets, benefit, per-arrival
//! [`DecisionLog`] and `died_at` — to sequential [`run_spec`], at fleet
//! sizes 1, 2 and 4. And the failure half of the contract: a worker
//! killed mid-batch by a seeded [`FaultPlan`] changes *nothing* in the
//! results (its unanswered jobs are re-dispatched to the survivors), a
//! handshake-version mismatch excludes the impostor without poisoning
//! the fleet, a stalled worker is timed out and routed around, and a
//! fully dead fleet fails every job with a clean, typed
//! [`Error::Worker`] — never a panic, never a hang.

use std::io::BufWriter;
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::Duration;

use osp::core::gen::{CapacityModel, LoadModel, RandomInstanceConfig, UniformSource, WeightModel};
use osp::core::prelude::*;
use osp::core::spec::{run_spec, AlgorithmSpec, JobSpec, ScenarioSpec};
use osp::core::wire::socket::{ping, SocketServer, WorkerAddr};
use osp::core::wire::{read_message, reply, write_message, Hello, Pong, Request, Stall};
use osp::core::{
    derived_jobs, run_source, DispatchEvent, Dispatcher, EventSink, FaultPlan, RetryPolicy,
    SocketConfig, SocketPool, SocketSource, WorkerError,
};
use osp::net::NetResolver;

const FLEET_SIZES: [usize; 3] = [1, 2, 4];

/// Binds one in-process worker on a loopback port of the OS's choosing —
/// the same `serve_session` loop `osp-worker --listen` runs, minus the
/// process boundary, so the suite needs no spawned binaries.
fn worker(fault: FaultPlan) -> SocketServer {
    let addr = WorkerAddr::parse("127.0.0.1:0").expect("loopback address parses");
    SocketServer::bind(&addr, NetResolver, fault).expect("loopback bind")
}

/// A healthy fleet of `n` workers.
fn fleet(n: usize) -> Vec<SocketServer> {
    (0..n).map(|_| worker(FaultPlan::default())).collect()
}

/// A pool over `servers` with test-friendly deadlines: loopback connects
/// either succeed instantly or never, so short timeouts keep the failure
/// tests fast without ever firing on the healthy path.
fn pool_over(servers: &[SocketServer]) -> SocketPool {
    let addrs = servers.iter().map(|s| s.local_addr().clone()).collect();
    SocketPool::with_config(
        addrs,
        SocketConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(50),
            },
            ..SocketConfig::default()
        },
    )
}

/// The four generator models of the conformance grid (same roster as
/// `tests/process_pool_conformance.rs`).
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

/// The five core algorithm families (oracle targeting whatever greedy
/// completes — a pure function of the scenario spec, as in the process
/// suite).
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
        let s = SetId(i);
        assert_eq!(want.died_at(s), got.died_at(s), "{label}: died_at({s:?})");
    }
    assert_eq!(want, got, "{label}: outcome diverged");
}

#[test]
fn socket_pool_is_bit_identical_to_sequential_at_fleet_sizes_1_2_4() {
    // 5 algorithms × 4 generator models, 3 seeds each, one big mixed
    // work-list through real framed TCP connections. The sequential
    // reference and the socket fleet at every size must agree bit for
    // bit — which worker answers a job is invisible in the results.
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (model, scenario) in model_grid() {
        for trial in 0..3u64 {
            let seed = derive_seed(811, trial);
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

    for size in FLEET_SIZES {
        let servers = fleet(size);
        let pool = pool_over(&servers);
        assert_eq!(pool.backend(), "sockets");
        assert_eq!(pool.lanes(), size);
        let distributed = pool.run_specs(&jobs);
        assert_eq!(distributed.len(), jobs.len());
        for ((want, got), label) in sequential.iter().zip(&distributed).zip(&labels) {
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("fleet of {size} / {label}: {e}"));
            assert_outcomes_identical(&format!("fleet of {size} / {label}"), want, got);
        }
        for server in servers {
            server.stop();
        }
    }
}

#[test]
fn malformed_spec_fails_only_its_own_job() {
    // A zero-capacity generator model (which the samplers used to assert
    // on, killing the worker thread) sits in the middle of a healthy
    // batch. It must come back as its own typed per-job error; no worker
    // is excluded, and every other job is bit-identical to sequential
    // replay.
    let cfg = RandomInstanceConfig::unweighted(30, 80, 4);
    let mut jobs = derived_jobs(&ScenarioSpec::Uniform(cfg), &AlgorithmSpec::RandPr, 819, 8);
    let bad = 3;
    jobs[bad].scenario = ScenarioSpec::Uniform(RandomInstanceConfig {
        capacities: CapacityModel::Fixed(0),
        ..cfg
    });
    let servers = fleet(2);
    let recorder = Recorder::default();
    let out = pool_over(&servers).run_specs_with_events(&jobs, &recorder);
    assert_eq!(out.len(), jobs.len());
    for (i, (job, got)) in jobs.iter().zip(&out).enumerate() {
        if i == bad {
            match got {
                Err(Error::Worker(WorkerError::Remote(why))) => {
                    assert!(why.contains("capacity range"), "job {i}: {why}");
                }
                other => panic!("job {i}: want a remote InvalidSpec, got {other:?}"),
            }
        } else {
            let want = run_spec(job, &NetResolver).unwrap();
            assert_outcomes_identical(&format!("job {i}"), &want, got.as_ref().unwrap());
        }
    }
    let events = recorder.0.lock().unwrap();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, DispatchEvent::WorkerExcluded { .. })),
        "no lane may be excluded: {events:?}"
    );
    for server in servers {
        server.stop();
    }
}

#[test]
fn injected_mid_batch_kill_re_dispatches_bit_identically() {
    // The acceptance scenario: 3 workers, one carrying a seeded
    // FaultPlan that kills it after 5 answered jobs — mid-batch, with
    // its chunk half done. The pool must notice the disconnect,
    // re-dispatch the unanswered jobs to the two survivors, and produce
    // results bit-identical to sequential replay for all 7 algorithm
    // families. The fault is part of the plan, so this failure path is
    // replayable bit for bit.
    let uniform = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(30, 80, 4));
    let video = ScenarioSpec::VideoTrace {
        sources: 4,
        frames_per_source: 12,
        frame_interval: 8,
        capacity: 4,
        jitter: 2,
    };
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for trial in 0..4u64 {
        // One seed drives both scenario and algorithm, so the oracle's
        // greedy-derived target must be recomputed per trial seed.
        let seed = derive_seed(812, trial);
        let mut families: Vec<(&str, AlgorithmSpec, &ScenarioSpec)> =
            algorithm_roster(&uniform, seed)
                .into_iter()
                .map(|(name, alg)| (name, alg, &uniform))
                .collect();
        families.push(("tail_drop", AlgorithmSpec::TailDrop, &video));
        families.push(("random_drop", AlgorithmSpec::RandomDrop, &video));
        assert_eq!(families.len(), 7, "the full 7-algorithm roster");
        for (family, algorithm, scenario) in families {
            jobs.push(JobSpec {
                scenario: scenario.clone(),
                algorithm,
                seed,
            });
            labels.push(format!("{family} / trial {trial}"));
        }
    }
    let sequential: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &NetResolver).unwrap())
        .collect();

    let doomed = worker(FaultPlan {
        die_after: Some(5),
        ..FaultPlan::NONE
    });
    let survivors = fleet(2);
    let mut servers = vec![doomed];
    servers.extend(survivors);
    let pool = pool_over(&servers);
    let distributed = pool.run_specs(&jobs);

    for ((want, got), label) in sequential.iter().zip(&distributed).zip(&labels) {
        let got = got
            .as_ref()
            .unwrap_or_else(|e| panic!("kill fleet / {label}: {e}"));
        assert_outcomes_identical(&format!("kill fleet / {label}"), want, got);
    }
    // The kill actually fired where the plan said: 5 answers, then death.
    assert!(servers[0].fault_killed(), "the fault plan must have fired");
    assert_eq!(servers[0].jobs_answered(), 5);
    for server in servers.into_iter().skip(1) {
        server.stop();
    }
}

#[test]
fn handshake_version_mismatch_is_a_typed_error_and_fleet_recovers() {
    // An impostor speaking the wrong wire version: accepts connections
    // and greets with version 999. Probing it yields the typed
    // handshake error; a fleet containing it excludes it and answers
    // every job through the conforming worker, bit-identically.
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let impostor = WorkerAddr::parse(&listener.local_addr().unwrap().to_string()).unwrap();
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            let mut writer = BufWriter::new(stream);
            let _ = write_message(
                &mut writer,
                &Hello {
                    version: 999,
                    roster: vec![],
                },
            );
        }
    });

    let probe = ping(&impostor, Duration::from_secs(5));
    match probe {
        Err(Error::Worker(WorkerError::Handshake { .. })) => {}
        other => panic!("want a typed handshake error, got {other:?}"),
    }

    let genuine = worker(FaultPlan::default());
    let addrs = vec![impostor, genuine.local_addr().clone()];
    let pool = SocketPool::with_config(
        addrs,
        SocketConfig {
            retry: RetryPolicy {
                attempts: 1,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(10),
            },
            ..SocketConfig::default()
        },
    );
    let scenario = ScenarioSpec::Biregular {
        num_sets: 24,
        set_size: 3,
        load: 6,
    };
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 813, 6);
    let out = pool.run_specs(&jobs);
    for (i, (job, got)) in jobs.iter().zip(&out).enumerate() {
        let want = run_spec(job, &NetResolver).unwrap();
        assert_outcomes_identical(
            &format!("job {i} despite the impostor"),
            &want,
            got.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}")),
        );
    }
    genuine.stop();
}

#[test]
fn stalled_worker_times_out_and_survivor_finishes_the_batch() {
    // One worker stalls 2 s before its first answer; the pool's read
    // deadline is 200 ms. The stalled lane must be timed out and its
    // chunk re-dispatched — every job still answered, bit-identically,
    // well before the stall resolves.
    let stalled = worker(FaultPlan {
        stall: Some(Stall {
            job: 0,
            millis: 2_000,
        }),
        ..FaultPlan::NONE
    });
    let healthy = worker(FaultPlan::default());
    let addrs = vec![stalled.local_addr().clone(), healthy.local_addr().clone()];
    let pool = SocketPool::with_config(
        addrs,
        SocketConfig {
            read_timeout: Duration::from_millis(200),
            retry: RetryPolicy {
                attempts: 1,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(10),
            },
            ..SocketConfig::default()
        },
    );
    let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3));
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 814, 8);
    let out = pool.run_specs(&jobs);
    for (i, (job, got)) in jobs.iter().zip(&out).enumerate() {
        let want = run_spec(job, &NetResolver).unwrap();
        let got = got
            .as_ref()
            .unwrap_or_else(|e| panic!("job {i} around the stall: {e}"));
        assert_outcomes_identical(&format!("job {i} around the stall"), &want, got);
    }
    // A stall is not a fault kill: the worker is slow, not dead.
    assert!(!stalled.fault_killed());
    stalled.stop();
    healthy.stop();
}

#[test]
fn all_workers_dead_fails_every_job_with_a_clean_worker_error() {
    // A fleet whose only worker has already stopped: every job must come
    // back as a typed Error::Worker(AllWorkersDead) — in order, with no
    // panic and no hang.
    let server = worker(FaultPlan::default());
    let addr = server.local_addr().clone();
    server.stop();

    let pool = SocketPool::with_config(
        vec![addr],
        SocketConfig {
            connect_timeout: Duration::from_millis(250),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(10),
            },
            ..SocketConfig::default()
        },
    );
    let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3));
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 815, 5);
    let out = pool.run_specs(&jobs);
    assert_eq!(out.len(), jobs.len());
    for (i, got) in out.iter().enumerate() {
        match got {
            Err(Error::Worker(WorkerError::AllWorkersDead { pending })) => {
                assert_eq!(*pending, jobs.len(), "job {i}: pending count");
            }
            other => panic!("job {i}: want AllWorkersDead, got {other:?}"),
        }
        let text = got.as_ref().unwrap_err().to_string();
        assert!(text.contains("worker error"), "job {i}: {text}");
    }
}

/// Records every dispatch event for post-run assertions.
#[derive(Default)]
struct Recorder(Mutex<Vec<DispatchEvent>>);

impl EventSink for Recorder {
    fn event(&self, event: DispatchEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// Which frame a [`rogue_worker`] answers *every* request with.
enum RogueFrame {
    /// Always a job reply — wrong where a pong is due.
    Reply,
    /// Always a pong — wrong where a job reply is due.
    Pong,
}

/// A protocol-conforming handshake followed by systematically wrong
/// answers: speaks a valid [`Hello`], decodes every [`Request`], and
/// answers each with the same fixed frame type regardless of what was
/// asked.
fn rogue_worker(frame: RogueFrame) -> WorkerAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = WorkerAddr::parse(&listener.local_addr().unwrap().to_string()).unwrap();
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            if write_message(&mut writer, &Hello::for_resolver(&NetResolver)).is_err() {
                continue;
            }
            use std::io::Write;
            let _ = writer.flush();
            while let Ok(Some(_)) = read_message::<_, Request>(&mut reader) {
                let sent = match frame {
                    RogueFrame::Reply => write_message(
                        &mut writer,
                        &reply::Reply {
                            ok: None,
                            err: Some("rogue".to_string()),
                        },
                    ),
                    RogueFrame::Pong => write_message(&mut writer, &Pong { pong: 0 }),
                };
                if sent.is_err() || writer.flush().is_err() {
                    break;
                }
            }
        }
    });
    addr
}

#[test]
fn wrong_frame_type_is_a_typed_frame_order_error() {
    // A pong where a job reply is due: the very first answer is the
    // wrong frame type. The pool must surface a typed FrameOrder error
    // naming both sides — not a generic decode failure — and exclude the
    // worker (single-worker fleet, so the jobs then fail AllWorkersDead).
    let pool = SocketPool::with_config(
        vec![rogue_worker(RogueFrame::Pong)],
        SocketConfig {
            retry: RetryPolicy {
                attempts: 1,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(5),
            },
            ..SocketConfig::default()
        },
    );
    let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3));
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 817, 3);
    let recorder = Recorder::default();
    let out = pool.run_specs_with_events(&jobs, &recorder);
    assert!(out.iter().all(|r| r.is_err()), "no real worker answered");
    let events = recorder.0.lock().unwrap();
    let excluded: Vec<&WorkerError> = events
        .iter()
        .filter_map(|e| match e {
            DispatchEvent::WorkerExcluded { error, .. } => Some(error),
            _ => None,
        })
        .collect();
    assert_eq!(excluded.len(), 1, "exactly one exclusion: {events:?}");
    match excluded[0] {
        WorkerError::FrameOrder { expected, got, .. } => {
            assert_eq!(*expected, "job reply");
            assert_eq!(*got, "pong");
        }
        other => panic!("want FrameOrder, got {other:?}"),
    }
    let text = excluded[0].to_string();
    assert!(
        text.contains("answered out of order")
            && text.contains("job reply")
            && text.contains("pong"),
        "message must name both frame types: {text}"
    );
}

#[test]
fn job_reply_where_pong_is_due_is_a_typed_frame_order_error() {
    // The other direction: heartbeats every job, and the rogue answers
    // the ping with a job reply. The job answers themselves decode fine
    // (remote errors), so the violation is pinned precisely to the
    // heartbeat slot.
    let pool = SocketPool::with_config(
        vec![rogue_worker(RogueFrame::Reply)],
        SocketConfig {
            heartbeat_every: 1,
            retry: RetryPolicy {
                attempts: 1,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(5),
            },
            ..SocketConfig::default()
        },
    );
    let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3));
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 818, 4);
    let recorder = Recorder::default();
    let _ = pool.run_specs_with_events(&jobs, &recorder);
    let events = recorder.0.lock().unwrap();
    let frame_orders: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            DispatchEvent::WorkerExcluded {
                error: WorkerError::FrameOrder { expected, got, .. },
                ..
            } => Some((*expected, *got)),
            _ => None,
        })
        .collect();
    assert_eq!(
        frame_orders,
        vec![("pong", "job reply")],
        "events: {events:?}"
    );
}

#[test]
fn malformed_fault_plan_is_fatal_at_worker_startup() {
    // A typo'd OSP_FAULT must kill `osp-worker --listen` with the usage
    // exit (64) before it binds — never a silently fault-free "fault
    // test". Asserted against the real binary.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_osp-worker"))
        .args(["--listen", "127.0.0.1:0"])
        .env("OSP_FAULT", "explode:now")
        .output()
        .expect("spawn osp-worker");
    assert_eq!(out.status.code(), Some(64), "status: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("OSP_FAULT") && stderr.contains("explode:now"),
        "stderr must name the bad plan: {stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("listening"),
        "the worker must die before binding"
    );

    // A well-formed plan still comes up (and an unset one, trivially).
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_osp-worker"))
        .args(["--listen", "127.0.0.1:0"])
        .env("OSP_FAULT", "die:3")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn osp-worker");
    let mut banner = String::new();
    use std::io::BufRead;
    std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut banner)
        .expect("read banner");
    assert!(banner.starts_with("listening on "), "banner: {banner}");
    child.kill().expect("kill worker");
    let _ = child.wait();
}

#[test]
fn worker_without_arguments_is_a_usage_error() {
    // No pipe mode is left: a bare `osp-worker` prints the usage and
    // exits non-zero without waiting on stdin (which stays open here, so
    // a worker that read it would hang the test).
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_osp-worker"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn osp-worker");
    let stdin = child.stdin.take();
    let out = child.wait_with_output().expect("osp-worker exits");
    drop(stdin);
    assert!(!out.status.success(), "status: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--listen <addr>") && stderr.contains("--ping <addr>"),
        "stderr must carry the usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing on stdout");
}

#[test]
fn socket_source_streams_arrivals_bit_identically() {
    // The streaming half of the wire: a server pushing a generator
    // through `wire::tap::send_source`, a client replaying straight off
    // the socket via SocketSource — outcome bit-identical to running
    // the same seeded source in-process.
    let config = RandomInstanceConfig::unweighted(30, 80, 4);
    let seed = 816u64;
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = WorkerAddr::parse(&listener.local_addr().unwrap().to_string()).unwrap();
    let server_config = config;
    let feeder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("one client");
        let mut writer = BufWriter::new(stream);
        let mut source = UniformSource::new(&server_config, seed).expect("feasible source");
        osp::core::wire::tap::send_source(&mut source, &mut writer, 16).expect("tap stream")
    });

    let mut remote = SocketSource::connect(&addr, Duration::from_secs(5)).expect("connect");
    let streamed = run_source(&mut remote, &mut RandPr::from_seed(seed)).unwrap();
    assert!(remote.error().is_none(), "{:?}", remote.error());
    let sent = feeder.join().expect("feeder thread");
    assert_eq!(sent, 80, "every element crossed the wire");

    let mut local = UniformSource::new(&config, seed).unwrap();
    let direct = run_source(&mut local, &mut RandPr::from_seed(seed)).unwrap();
    assert_outcomes_identical("socket-streamed source", &direct, &streamed);
}
