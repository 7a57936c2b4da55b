//! `replay` — throughput of the batch-replay engine and its hot paths.
//!
//! Not a paper theorem: this is the harness measuring itself, so replay
//! throughput (the resource every other experiment spends) is tracked
//! PR-over-PR via `BENCH_replay.json`. Nine comparisons:
//!
//! 1. **engine_run** — sequential `engine::run` trials vs the same trials
//!    fanned across [`ReplayPool`] shards, asserting bit-identical
//!    outcomes while measuring the speedup; rows are identity-tracked by
//!    workload so the sequential arrivals/sec column is comparable
//!    PR-over-PR (the flat-CSR + `decide_into` hot path is measured here);
//! 2. **replay_throughput** — the same sequential-vs-sharded comparison
//!    per *algorithm family*, identity-tracked by `(workload, algorithm)`;
//! 3. **poly_hash_eval** — `PolyHash::eval`'s lazy-reduction Horner vs
//!    the precomputed-powers reference `eval_naive`;
//! 4. **weighted sampling** — the O(1) alias table vs the cumulative-sum
//!    binary search it replaced in the skewed generators;
//! 5. **streaming** — the fused generate-as-you-replay pipeline
//!    (`UniformSource` → `run_source`) vs materialize-then-replay
//!    (`random_instance` → `run`) on identical scenarios: end-to-end
//!    wall clock, plus the resident bytes each pipeline holds (the CSR
//!    arena vs the source's O(m) state — the `mem ratio` column is
//!    deterministic and ratio-guarded in CI);
//! 6. **distributed** — the same `JobSpec` work-list through sequential
//!    `run_spec`, the thread dispatcher (`SpecPool`) and `osp-worker
//!    --listen` children spawned per batch (`ProcessPool`), asserting all
//!    three bit-identical (the `bit-identical` column CI's `bench_guard`
//!    requires to exist and read `true`) while measuring the
//!    process-boundary cost. Wall numbers here are machine-bound
//!    (workers default to the core count; override with `OSP_WORKERS`),
//!    so the `speedup` column is informational, not ratio-guarded;
//! 7. **socket** — the same work-list again, this time across a loopback
//!    fleet of spawned `osp-worker --listen` processes ([`SocketPool`]:
//!    handshake, heartbeats, timeout/re-dispatch), asserting the fleet
//!    bit-identical to sequential `run_spec` — including one row where a
//!    seeded `OSP_FAULT=die:5` kills a worker mid-batch and its
//!    unanswered jobs are re-dispatched to the survivors (that row's
//!    identity cell also requires the killed worker to have exited with
//!    the fault code 86). Worker stderr goes to `socket-worker-logs/`
//!    for CI to upload on failure. Like `distributed`, only the identity
//!    booleans are guarded;
//! 8. **kernel** — what hashPr's `begin` runs: `PolyHash::eval_range`
//!    over the keys `0..m` vs scalar `eval` per key (the single-threaded
//!    `speedup` column); the `bit-identical` cell asserts range ≡ scalar
//!    key-for-key;
//! 9. **pipeline** — ONE huge streamed replay two ways: the serial loop
//!    (`run_source_with_scratch`) and the pipelined session
//!    (`run_source_pipelined`, producer thread + chunk ring), both on the
//!    same warm `ReplayScratch`, best of 3 rounds (the leg that runs
//!    first swaps every round) with the spread reported. Rows sit in the paper's regime (randPr, m = n/2,
//!    σ = 4, so k ≈ 8 and the benefit stays nontrivial) at
//!    n ∈ {10⁶, 10⁷}. The pipelined leg must be bit-identical to the
//!    serial one (the guarded cells); walls depend on the core count,
//!    recorded in the `nproc` column, so the speedup is informational.
//!
//! Wall-clock numbers vary with the machine; the *identity* columns must
//! read `true` everywhere (CI's `bench_guard` enforces this, and holds the
//! single-threaded algorithmic speedups to ≥ 0.9× their committed
//! baseline). The hash and sampling speedups are algorithmic and should be
//! ≥ 1 on any quiet box; the engine_run/replay_throughput speedups measure
//! thread-level parallelism, so expect ~1× with a single shard (pool
//! overhead only) and gains proportional to shard count beyond that.

use std::hint::black_box;
use std::time::Instant;

use osp_core::algorithms::{GreedyOnline, HashRandPr, RandPr, RandomAssign, TieBreak};
use osp_core::gen::{random_instance, RandomInstanceConfig, UniformSource};
use osp_core::spec::{run_spec, AlgorithmSpec, ScenarioSpec};
use osp_core::wire::socket::WorkerAddr;
use osp_core::{
    derived_jobs, run as engine_run, run_source, run_source_with_scratch, spawn_listening,
    worker_binary, Dispatcher, OnlineAlgorithm, Outcome, ProcessPool, SocketPool, SpecPool,
};
use osp_gf::hash::PolyHash;
use osp_net::NetResolver;
use osp_stats::{AliasTable, SeedSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pool::{draw_seeds, pool};
use crate::report::{NamedTable, Report};
use crate::Scale;

/// Seconds spent in `f`.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Arrivals replayed per second, as a compact human/machine-shared cell.
fn arrivals_per_sec(trials: usize, elements: usize, seconds: f64) -> String {
    format!("{:.0}", (trials * elements) as f64 / seconds.max(1e-9))
}

/// A seeded constructor for one benchmarked algorithm family.
type AlgorithmFactory = fn(u64) -> Box<dyn OnlineAlgorithm>;

/// One spawned `osp-worker --listen 127.0.0.1:0` child of the socket
/// section's loopback fleet and the address from its banner. Stderr
/// goes to `<log_dir>/<name>.log` for CI to collect; the ambient
/// `OSP_FAULT` is cleared so only the explicit `fault` plan applies.
fn spawn_worker(
    log_dir: &std::path::Path,
    name: &str,
    fault: Option<&str>,
) -> Result<(std::process::Child, WorkerAddr), String> {
    let binary = worker_binary().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(log_dir).map_err(|e| format!("creating {}: {e}", log_dir.display()))?;
    let log = log_dir.join(format!("{name}.log"));
    let stderr =
        std::fs::File::create(&log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    let mut command = std::process::Command::new(binary);
    command
        .args(["--listen", "127.0.0.1:0"])
        .stderr(stderr)
        .env_remove("OSP_FAULT");
    if let Some(plan) = fault {
        command.env("OSP_FAULT", plan);
    }
    spawn_listening(&mut command).map_err(|e| e.to_string())
}

/// Waits up to ~5 s for `child` to exit on its own (a fault-killed
/// worker does, with code 86); returns its exit code, killing a child
/// that outlives the deadline.
fn reap(child: &mut std::process::Child) -> Option<i32> {
    for _ in 0..100 {
        match child.try_wait() {
            Ok(Some(status)) => return status.code(),
            Ok(None) => std::thread::sleep(std::time::Duration::from_millis(50)),
            Err(_) => break,
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let mut seeds = SeedSequence::new(seed).child("replay");
    let pool = pool();

    let mut report = Report::new(
        "replay",
        "Batch replay engine and hot-path throughput",
        "The sharded ReplayPool must produce bit-identical outcomes to sequential \
         engine::run while finishing measurably faster; the PolyHash lazy Horner and \
         the alias-table sampler must agree with their naive references and beat them.",
    );

    // --- 1: engine_run — sequential vs pooled replay. ---
    let mut engine_table = NamedTable::new(
        "engine_run: sequential replay vs ReplayPool",
        &[
            "workload",
            "trials",
            "sequential s",
            "batch s",
            "seq arrivals/s",
            "batch arrivals/s",
            "speedup",
            "shards",
            "bit-identical",
        ],
    );
    let grid: &[(usize, usize, u32, u32)] = scale.pick(
        &[(100usize, 1_000usize, 4u32, 48u32)][..],
        &[
            (100, 1_000, 4, 512),
            (500, 5_000, 8, 256),
            (2_000, 20_000, 16, 64),
        ][..],
    );
    let mut all_identical = true;
    for &(m, n, sigma, trials) in grid {
        let mut rng = StdRng::seed_from_u64(seeds.next_seed());
        let inst = random_instance(&RandomInstanceConfig::unweighted(m, n, sigma), &mut rng)
            .expect("feasible bench workload");
        let trial_seeds = draw_seeds(&mut seeds, trials as usize);
        // Shared boxes throttle unpredictably, so alternate the two legs
        // over several rounds and keep each leg's minimum — the standard
        // noise-robust wall-clock estimator.
        let rounds: usize = scale.pick(2, 3);
        let mut t_seq = f64::INFINITY;
        let mut t_batch = f64::INFINITY;
        let mut identical = true;
        for _ in 0..rounds {
            // The sequential baseline is the pre-batching harness path:
            // one boxed algorithm per trial through plain engine::run.
            let (t, sequential) = timed(|| {
                trial_seeds
                    .iter()
                    .map(|&s| {
                        let mut alg: Box<dyn osp_core::OnlineAlgorithm> =
                            Box::new(RandPr::from_seed(s));
                        engine_run(&inst, alg.as_mut()).unwrap()
                    })
                    .collect::<Vec<Outcome>>()
            });
            t_seq = t_seq.min(t);
            let (t, batched) = timed(|| {
                pool.map(&trial_seeds, |scratch, _, &s| {
                    run_source_with_scratch(&mut inst.source(), &mut RandPr::from_seed(s), scratch)
                        .expect("randPr emits valid decisions")
                })
            });
            t_batch = t_batch.min(t);
            identical &= sequential == batched;
        }
        all_identical &= identical;
        engine_table.row(vec![
            format!("m={m} n={n} σ={sigma}"),
            trials.to_string(),
            format!("{t_seq:.3}"),
            format!("{t_batch:.3}"),
            arrivals_per_sec(trials as usize, n, t_seq),
            arrivals_per_sec(trials as usize, n, t_batch),
            format!("{:.2}×", t_seq / t_batch.max(1e-9)),
            pool.shards().to_string(),
            identical.to_string(),
        ]);
    }
    report.table(engine_table);

    // --- 2: replay_throughput — per-algorithm arrivals/sec. ---
    let mut alg_table = NamedTable::new(
        "replay_throughput: per-algorithm sequential vs sharded arrivals/sec",
        &[
            "workload × algorithm",
            "trials",
            "seq arrivals/s",
            "sharded arrivals/s",
            "speedup",
            "shards",
            "bit-identical",
        ],
    );
    let families: &[(&str, AlgorithmFactory)] = &[
        ("randPr", |s| Box::new(RandPr::from_seed(s))),
        ("hashPr8", |s| Box::new(HashRandPr::new(8, s))),
        ("greedy[weight]", |_| {
            Box::new(GreedyOnline::new(TieBreak::ByWeight))
        }),
        ("random-assign", |s| Box::new(RandomAssign::from_seed(s))),
    ];
    let (m, n, sigma) = (200usize, 2_000usize, 6u32);
    let trials: usize = scale.pick(32, 256);
    let mut rng = StdRng::seed_from_u64(seeds.next_seed());
    let inst = random_instance(&RandomInstanceConfig::unweighted(m, n, sigma), &mut rng)
        .expect("feasible bench workload");
    let trial_seeds = draw_seeds(&mut seeds, trials);
    for (family_name, factory) in families {
        let rounds: usize = scale.pick(2, 3);
        let mut t_seq = f64::INFINITY;
        let mut t_batch = f64::INFINITY;
        let mut identical = true;
        for _ in 0..rounds {
            let (t, sequential) = timed(|| {
                trial_seeds
                    .iter()
                    .map(|&s| engine_run(&inst, factory(s).as_mut()).unwrap())
                    .collect::<Vec<Outcome>>()
            });
            t_seq = t_seq.min(t);
            let (t, batched) = timed(|| {
                pool.map(&trial_seeds, |scratch, _, &s| {
                    run_source_with_scratch(&mut inst.source(), factory(s).as_mut(), scratch)
                })
            });
            t_batch = t_batch.min(t);
            identical &= batched
                .iter()
                .map(|r| r.as_ref().expect("built-ins emit valid decisions"))
                .eq(sequential.iter());
        }
        all_identical &= identical;
        alg_table.row(vec![
            format!("m={m} n={n} σ={sigma} × {family_name}"),
            trials.to_string(),
            arrivals_per_sec(trials, n, t_seq),
            arrivals_per_sec(trials, n, t_batch),
            format!("{:.2}×", t_seq / t_batch.max(1e-9)),
            pool.shards().to_string(),
            identical.to_string(),
        ]);
    }
    report.table(alg_table);

    // --- 3: poly_hash_eval — naive powers vs lazy Horner. ---
    let mut hash_table = NamedTable::new(
        "poly_hash_eval: precomputed-powers reference vs lazy Horner",
        &[
            "independence",
            "evals",
            "naive ns/eval",
            "eval ns/eval",
            "speedup",
            "agree",
        ],
    );
    // The ns-level ratios here feed the CI bench_guard, so even the quick
    // scale measures enough work (and enough rounds) to keep them stable
    // on a noisy shared runner.
    let evals: u64 = scale.pick(1_000_000, 2_000_000);
    let mut all_agree = true;
    for independence in [2usize, 8, 16, 64] {
        let h = PolyHash::new(independence, seeds.next_seed());
        // Min-of-rounds with the legs interleaved, like the engine tables:
        // a throttling spike then hits one round of one leg, not a whole
        // column.
        let rounds: usize = scale.pick(3, 3);
        let (mut t_naive, mut t_fast) = (f64::INFINITY, f64::INFINITY);
        let mut agree = true;
        for _ in 0..rounds {
            let (t, sum_naive) = timed(|| {
                (0..evals)
                    .map(|x| h.eval_naive(black_box(x)))
                    .fold(0u64, u64::wrapping_add)
            });
            t_naive = t_naive.min(t);
            let (t, sum_fast) = timed(|| {
                (0..evals)
                    .map(|x| h.eval(black_box(x)))
                    .fold(0u64, u64::wrapping_add)
            });
            t_fast = t_fast.min(t);
            agree &= sum_naive == sum_fast;
        }
        all_agree &= agree;
        hash_table.row(vec![
            format!("{independence}-wise"),
            evals.to_string(),
            format!("{:.1}", t_naive * 1e9 / evals as f64),
            format!("{:.1}", t_fast * 1e9 / evals as f64),
            format!("{:.2}×", t_naive / t_fast.max(1e-12)),
            agree.to_string(),
        ]);
    }
    report.table(hash_table);

    // --- 4: weighted sampling — cumulative binary search vs alias table. ---
    let mut sample_table = NamedTable::new(
        "weighted sampling: cumulative-sum binary search vs alias table",
        &[
            "buckets",
            "draws",
            "cumulative ns/draw",
            "alias ns/draw",
            "speedup",
        ],
    );
    let draws: u64 = scale.pick(1_000_000, 2_000_000);
    for buckets in [256usize, 4096] {
        // The Zipf popularity vector the skewed generator uses.
        let weights: Vec<f64> = (0..buckets).map(|j| ((j + 1) as f64).powf(-1.2)).collect();
        let sample_seed = seeds.next_seed();
        let rounds: usize = scale.pick(3, 3);
        let (mut t_cum_min, mut t_alias_min) = (f64::INFINITY, f64::INFINITY);
        let mut sums = (0usize, 0usize);
        for _ in 0..rounds {
            let (t_cum, sum_cum) = timed(|| {
                let mut cumulative = Vec::with_capacity(buckets);
                let mut total = 0.0f64;
                for &w in &weights {
                    total += w;
                    cumulative.push(total);
                }
                let mut rng = StdRng::seed_from_u64(sample_seed);
                (0..draws)
                    .map(|_| {
                        let x = rng.gen::<f64>() * total;
                        cumulative.partition_point(|&c| c < x).min(buckets - 1)
                    })
                    .fold(0usize, usize::wrapping_add)
            });
            t_cum_min = t_cum_min.min(t_cum);
            let (t_alias, sum_alias) = timed(|| {
                let table = AliasTable::new(&weights).unwrap();
                let mut rng = StdRng::seed_from_u64(sample_seed);
                (0..draws)
                    .map(|_| table.sample(&mut rng))
                    .fold(0usize, usize::wrapping_add)
            });
            t_alias_min = t_alias_min.min(t_alias);
            sums = (sum_cum, sum_alias);
        }
        black_box(sums);
        sample_table.row(vec![
            buckets.to_string(),
            draws.to_string(),
            format!("{:.1}", t_cum_min * 1e9 / draws as f64),
            format!("{:.1}", t_alias_min * 1e9 / draws as f64),
            format!("{:.2}×", t_cum_min / t_alias_min.max(1e-12)),
        ]);
    }
    report.table(sample_table);

    // --- 5: streaming — fused sources vs materialize-then-replay. ---
    let mut stream_table = NamedTable::new(
        "streaming: fused UniformSource vs materialize-then-replay",
        &[
            "workload",
            "trials",
            "materialize s",
            "streaming s",
            "wall speedup",
            "mat arrivals/s",
            "stream arrivals/s",
            "instance bytes",
            "source bytes",
            "mem ratio",
            "bit-identical",
        ],
    );
    let stream_grid: &[(usize, usize, u32, u32)] = scale.pick(
        &[(100usize, 1_000usize, 4u32, 16u32)][..],
        &[
            (100, 1_000, 4, 64),
            (200, 20_000, 8, 16),
            (500, 100_000, 8, 4),
        ][..],
    );
    let mut all_stream_identical = true;
    for &(m, n, sigma, trials) in stream_grid {
        let cfg = RandomInstanceConfig::unweighted(m, n, sigma);
        // One seed per trial drives both the generator and the algorithm,
        // identically in both legs — so the two pipelines must produce the
        // same outcome for every trial.
        let trial_seeds = draw_seeds(&mut seeds, trials as usize);
        let rounds: usize = scale.pick(2, 3);
        let mut t_mat = f64::INFINITY;
        let mut t_stream = f64::INFINITY;
        let mut identical = true;
        for _ in 0..rounds {
            let (t, materialized) = timed(|| {
                trial_seeds
                    .iter()
                    .map(|&s| {
                        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(s)).unwrap();
                        engine_run(&inst, &mut RandPr::from_seed(s)).unwrap()
                    })
                    .collect::<Vec<Outcome>>()
            });
            t_mat = t_mat.min(t);
            let (t, streamed) = timed(|| {
                trial_seeds
                    .iter()
                    .map(|&s| {
                        let mut src = UniformSource::new(&cfg, s).unwrap();
                        run_source(&mut src, &mut RandPr::from_seed(s)).unwrap()
                    })
                    .collect::<Vec<Outcome>>()
            });
            t_stream = t_stream.min(t);
            identical &= materialized == streamed;
        }
        all_stream_identical &= identical;
        // Resident bytes, from the first trial's scenario (deterministic
        // given the seed sequence, so stable PR-over-PR).
        let instance_bytes = random_instance(&cfg, &mut StdRng::seed_from_u64(trial_seeds[0]))
            .unwrap()
            .heap_bytes();
        let source_bytes = UniformSource::new(&cfg, trial_seeds[0])
            .unwrap()
            .state_bytes();
        stream_table.row(vec![
            format!("m={m} n={n} σ={sigma}"),
            trials.to_string(),
            format!("{t_mat:.3}"),
            format!("{t_stream:.3}"),
            format!("{:.2}×", t_mat / t_stream.max(1e-9)),
            arrivals_per_sec(trials as usize, n, t_mat),
            arrivals_per_sec(trials as usize, n, t_stream),
            instance_bytes.to_string(),
            source_bytes.to_string(),
            format!("{:.2}×", instance_bytes as f64 / source_bytes.max(1) as f64),
            identical.to_string(),
        ]);
    }
    report.table(stream_table);

    // --- 6: distributed — one JobSpec work-list, three backends. ---
    let mut dist_table = NamedTable::new(
        "distributed: JobSpec fan-out — sequential vs threads vs osp-worker processes",
        &[
            "workload × algorithm",
            "jobs",
            "sequential s",
            "threads s",
            "processes s",
            "speedup",
            "shards",
            "workers",
            "bit-identical",
        ],
    );
    let mut all_dist_identical = true;
    match ProcessPool::from_env() {
        Err(e) => {
            all_dist_identical = false;
            report.note(format!(
                "distributed: SKIPPED — {e}. Build the worker \
                 (`cargo build --release --bin osp-worker`) and regenerate; \
                 bench_guard treats the missing section as a failure."
            ));
        }
        Ok(procs) => {
            let threads = SpecPool::new(pool.clone(), NetResolver);
            let (m, n, sigma) = (200usize, 2_000usize, 6u32);
            let uniform = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(m, n, sigma));
            let video = ScenarioSpec::VideoTrace {
                sources: 8,
                frames_per_source: scale.pick(20, 60),
                frame_interval: 8,
                capacity: 4,
                jitter: 2,
            };
            let trials: u64 = scale.pick(8, 64);
            let roster: &[(&ScenarioSpec, AlgorithmSpec)] = &[
                (&uniform, AlgorithmSpec::RandPr),
                (&uniform, AlgorithmSpec::HashRandPr { independence: 8 }),
                (
                    &uniform,
                    AlgorithmSpec::Greedy {
                        tie_break: TieBreak::ByWeight,
                    },
                ),
                (&uniform, AlgorithmSpec::RandomAssign),
                (&video, AlgorithmSpec::TailDrop),
                (&video, AlgorithmSpec::RandomDrop),
            ];
            for (scenario, algorithm) in roster {
                let jobs = derived_jobs(scenario, algorithm, seeds.next_seed(), trials);
                let rounds: usize = scale.pick(2, 3);
                let mut t_seq = f64::INFINITY;
                let mut t_threads = f64::INFINITY;
                let mut t_procs = f64::INFINITY;
                let mut identical = true;
                for _ in 0..rounds {
                    let (t, sequential) = timed(|| {
                        jobs.iter()
                            .map(|j| run_spec(j, &NetResolver).unwrap())
                            .collect::<Vec<Outcome>>()
                    });
                    t_seq = t_seq.min(t);
                    let (t, threaded) = timed(|| threads.run_specs(&jobs));
                    t_threads = t_threads.min(t);
                    let (t, distributed) = timed(|| procs.run_specs(&jobs));
                    t_procs = t_procs.min(t);
                    // A per-job Err (e.g. a worker killed mid-run) is an
                    // identity failure to report, not a reason to abort
                    // the experiment — the guard then flags the `false`
                    // cell through its designed channel.
                    let matches = |got: &[Result<Outcome, osp_core::Error>]| {
                        got.len() == sequential.len()
                            && got
                                .iter()
                                .zip(&sequential)
                                .all(|(g, w)| g.as_ref() == Ok(w))
                    };
                    identical &= matches(&threaded) && matches(&distributed);
                }
                all_dist_identical &= identical;
                let workload = match scenario {
                    ScenarioSpec::Uniform(_) => format!("m={m} n={n} σ={sigma}"),
                    other => other.label(),
                };
                dist_table.row(vec![
                    format!("{workload} × {}", algorithm.label()),
                    trials.to_string(),
                    format!("{t_seq:.3}"),
                    format!("{t_threads:.3}"),
                    format!("{t_procs:.3}"),
                    format!("{:.2}×", t_seq / t_procs.max(1e-9)),
                    threads.lanes().to_string(),
                    procs.workers().to_string(),
                    identical.to_string(),
                ]);
            }
            // The env-selected backend spec-shaped work-lists get by
            // default (the table above measures both backends explicitly
            // so its rows stay comparable regardless of the selection).
            let selected = crate::pool::dispatcher();
            report.note(format!(
                "distributed: the same serialized JobSpecs replayed three ways — in-process, \
                 across {} thread shard(s), and across {} osp-worker --listen process(es) \
                 spawned per batch and fed length-prefixed frames over Unix sockets. Outcomes \
                 (incl. decision digest and died_at) must be bit-identical on every row; wall \
                 clocks include serialize/spawn/socket overhead and scale with the machine, so \
                 only the identity column is guarded. Spec-shaped fan-out obtains its backend from \
                 osp_bench::pool::dispatcher() — OSP_DISPATCH currently selects the {} \
                 backend with {} lane(s).",
                threads.lanes(),
                procs.workers(),
                selected.backend(),
                selected.lanes(),
            ));
        }
    }
    report.table(dist_table);

    // --- 7: socket — the work-list across a loopback worker fleet. ---
    let mut socket_table = NamedTable::new(
        "socket: JobSpec fan-out — sequential vs a loopback osp-worker --listen fleet",
        &[
            "workload × algorithm",
            "jobs",
            "sequential s",
            "fleet s",
            "speedup",
            "workers",
            "bit-identical",
        ],
    );
    let mut all_socket_identical = true;
    let log_dir = std::path::Path::new("socket-worker-logs");
    let fleet: Result<Vec<_>, String> = (0..3)
        .map(|i| spawn_worker(log_dir, &format!("worker-{i}"), None))
        .collect();
    match fleet {
        Err(e) => {
            all_socket_identical = false;
            report.note(format!(
                "socket: SKIPPED — {e}. Build the worker \
                 (`cargo build --release --bin osp-worker`) and regenerate; \
                 bench_guard treats the missing section as a failure."
            ));
        }
        Ok(mut fleet) => {
            let addrs: Vec<WorkerAddr> = fleet.iter().map(|(_, addr)| addr.clone()).collect();
            let pool = SocketPool::new(addrs);
            let (m, n, sigma) = (200usize, 2_000usize, 6u32);
            let uniform = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(m, n, sigma));
            let video = ScenarioSpec::VideoTrace {
                sources: 8,
                frames_per_source: scale.pick(20, 60),
                frame_interval: 8,
                capacity: 4,
                jitter: 2,
            };
            let trials: u64 = scale.pick(8, 64);
            let roster: &[(&ScenarioSpec, AlgorithmSpec)] = &[
                (&uniform, AlgorithmSpec::RandPr),
                (&uniform, AlgorithmSpec::HashRandPr { independence: 8 }),
                (&video, AlgorithmSpec::TailDrop),
                (&video, AlgorithmSpec::RandomDrop),
            ];
            for (scenario, algorithm) in roster {
                let jobs = derived_jobs(scenario, algorithm, seeds.next_seed(), trials);
                let rounds: usize = scale.pick(2, 3);
                let mut t_seq = f64::INFINITY;
                let mut t_fleet = f64::INFINITY;
                let mut identical = true;
                for _ in 0..rounds {
                    let (t, sequential) = timed(|| {
                        jobs.iter()
                            .map(|j| run_spec(j, &NetResolver).unwrap())
                            .collect::<Vec<Outcome>>()
                    });
                    t_seq = t_seq.min(t);
                    let (t, fleet_out) = timed(|| pool.run_specs(&jobs));
                    t_fleet = t_fleet.min(t);
                    identical &= fleet_out.len() == sequential.len()
                        && fleet_out
                            .iter()
                            .zip(&sequential)
                            .all(|(g, w)| g.as_ref() == Ok(w));
                }
                all_socket_identical &= identical;
                let workload = match scenario {
                    ScenarioSpec::Uniform(_) => format!("m={m} n={n} σ={sigma}"),
                    other => other.label(),
                };
                socket_table.row(vec![
                    format!("{workload} × {}", algorithm.label()),
                    trials.to_string(),
                    format!("{t_seq:.3}"),
                    format!("{t_fleet:.3}"),
                    format!("{:.2}×", t_seq / t_fleet.max(1e-9)),
                    pool.lanes().to_string(),
                    identical.to_string(),
                ]);
            }
            for (child, _) in &mut fleet {
                let _ = child.kill();
                let _ = child.wait();
            }

            // The fault row: a fresh mini-fleet whose first worker dies
            // after 5 answered jobs (OSP_FAULT=die:5, mid-chunk), its
            // leftovers re-dispatched to the two survivors. One
            // measurement pass — the kill is once-per-process. The
            // identity cell requires both bit-identical outcomes AND the
            // planned death (exit code 86).
            let fault_trials: u64 = scale.pick(18, 48);
            let fault_fleet: Result<Vec<_>, String> = ["die:5", "", ""]
                .iter()
                .enumerate()
                .map(|(i, plan)| {
                    spawn_worker(
                        log_dir,
                        &format!("fault-worker-{i}"),
                        (!plan.is_empty()).then_some(plan),
                    )
                })
                .collect();
            match fault_fleet {
                Err(e) => {
                    all_socket_identical = false;
                    report.note(format!("socket fault row: SKIPPED — {e}."));
                }
                Ok(mut fleet) => {
                    let pool =
                        SocketPool::new(fleet.iter().map(|(_, addr)| addr.clone()).collect());
                    let jobs = derived_jobs(
                        &uniform,
                        &AlgorithmSpec::RandPr,
                        seeds.next_seed(),
                        fault_trials,
                    );
                    let (t_seq, sequential) = timed(|| {
                        jobs.iter()
                            .map(|j| run_spec(j, &NetResolver).unwrap())
                            .collect::<Vec<Outcome>>()
                    });
                    let (t_fleet, fleet_out) = timed(|| pool.run_specs(&jobs));
                    let outcomes_identical = fleet_out.len() == sequential.len()
                        && fleet_out
                            .iter()
                            .zip(&sequential)
                            .all(|(g, w)| g.as_ref() == Ok(w));
                    let fault_fired = reap(&mut fleet[0].0) == Some(86);
                    for (child, _) in fleet.iter_mut().skip(1) {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    let identical = outcomes_identical && fault_fired;
                    all_socket_identical &= identical;
                    socket_table.row(vec![
                        format!("m={m} n={n} σ={sigma} × randPr, die:5 kills worker 1 of 3"),
                        fault_trials.to_string(),
                        format!("{t_seq:.3}"),
                        format!("{t_fleet:.3}"),
                        format!("{:.2}×", t_seq / t_fleet.max(1e-9)),
                        "3".to_string(),
                        identical.to_string(),
                    ]);
                }
            }
            report.note(format!(
                "socket: the same serialized JobSpecs across 3 spawned `osp-worker --listen` \
                 processes on loopback — handshake, windowed in-band heartbeats, per-frame \
                 read deadlines, and (in the fault row) mid-batch death with re-dispatch to \
                 the survivors; worker stderr is under {}/. Only the identity booleans are \
                 guarded: wall clocks include connect/serialize/kernel-socket overhead and \
                 scale with the machine — in particular, under 1-core CPU affinity (taskset, \
                 cgroup quota, CI runners) the fleet serializes against the sequential leg \
                 and the speedup column reads ≲ 1× by construction.",
                log_dir.display()
            ));
        }
    }
    report.table(socket_table);

    // --- 8: kernel — what hashPr's begin runs: the range kernel vs
    // scalar eval. ---
    let mut kernel_table = NamedTable::new(
        "kernel: hashPr's hash — eval_range vs scalar eval per key",
        &[
            "m",
            "scalar ns/eval",
            "range ns/eval",
            "speedup",
            "bit-identical",
        ],
    );
    // The 64-wise family: the degree the paper's k_max·σ_max guidance
    // actually asks for at realistic loads.
    let kernel_independence = 64usize;
    let kernel_seed = seeds.next_seed();
    let kernel_grid: &[usize] = scale.pick(
        &[10_000usize, 1_000_000][..],
        &[10_000, 1_000_000, 10_000_000][..],
    );
    let mut all_kernel_identical = true;
    for &m in kernel_grid {
        let h = PolyHash::new(kernel_independence, kernel_seed);
        // Min-of-rounds with interleaved legs keeps the ns-level ratio
        // stable on a noisy shared runner.
        let rounds: usize = scale.pick(5, 7);
        let (mut t_scalar, mut t_range) = (f64::INFINITY, f64::INFINITY);
        let mut sums_agree = true;
        for _ in 0..rounds {
            let (t, sum_scalar) = timed(|| {
                (0..m as u64)
                    .map(|x| h.eval(black_box(x)))
                    .fold(0u64, u64::wrapping_add)
            });
            t_scalar = t_scalar.min(t);
            let (t, sum_range) = timed(|| {
                let mut sum = 0u64;
                h.eval_range(black_box(0), m, |v| sum = sum.wrapping_add(v));
                sum
            });
            t_range = t_range.min(t);
            sums_agree &= sum_scalar == sum_range;
        }
        // Key-for-key identity (not just checksum agreement), one pass.
        let mut keywise_identical = true;
        let mut key = 0u64;
        h.eval_range(0, m, |v| {
            keywise_identical &= v == h.eval(key);
            key += 1;
        });
        let identical = sums_agree && keywise_identical;
        all_kernel_identical &= identical;
        kernel_table.row(vec![
            m.to_string(),
            format!("{:.1}", t_scalar * 1e9 / m as f64),
            format!("{:.1}", t_range * 1e9 / m as f64),
            format!("{:.2}×", t_scalar / t_range.max(1e-12)),
            identical.to_string(),
        ]);
    }
    report.table(kernel_table);
    report.note(
        "kernel: eval_range is the range kernel hashPr's begin runs over the set ids \
         0..m: it seeds t forward differences with scalar eval (t·t Horner steps per \
         range), then steps key to key with t − 1 field additions. Scalar eval is lazy \
         Horner (one branchless fold per step, renormalization every 6 steps). The \
         speedup is single-threaded and algorithmic; the guard compares it once a \
         committed report carries this section's title.",
    );

    // --- 9: pipeline — one huge streamed replay, serial vs pipelined. ---
    let mut pipe_table = NamedTable::new(
        "pipeline: one streamed replay — serial loop vs pipelined session",
        &[
            "workload × algorithm",
            "arrivals",
            "benefit",
            "serial s",
            "serial spread",
            "pipelined s",
            "pipelined spread",
            "speedup",
            "nproc",
            "bit-identical",
        ],
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_pipeline_identical = true;
    {
        use osp_core::{run_source_pipelined, ReplayScratch};
        // The paper's regime: m = n/2 sets of σ = 4 members per arrival,
        // so sets have k ≈ 8 elements and a nontrivial share completes.
        let grid: &[usize] = scale.pick(&[200_000usize][..], &[1_000_000, 10_000_000][..]);
        let pipe_seed = seeds.next_seed();
        let rounds = 3;
        // (max − min) / min over the rounds of one leg.
        let spread = |ts: &[f64]| {
            let lo = ts.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ts.iter().copied().fold(0.0, f64::max);
            format!("{:.1}%", (hi - lo) / lo.max(1e-9) * 100.0)
        };
        for &n in grid {
            let m = n / 2;
            let cfg = RandomInstanceConfig::unweighted(m, n, 4);
            // Both legs share one scratch, warmed on the same m before any
            // timing, so neither leg pays first-touch growth.
            let mut scratch = ReplayScratch::new();
            let warm = RandomInstanceConfig::unweighted(m, 1024, 4);
            let mut warm_source = UniformSource::new(&warm, pipe_seed).unwrap();
            run_source_pipelined(
                &mut warm_source,
                &mut RandPr::from_seed(pipe_seed),
                &mut scratch,
            )
            .unwrap();
            let (mut t_serial, mut t_pipe) = (Vec::new(), Vec::new());
            let mut benefit = 0.0;
            let mut identical = true;
            // Source construction stays outside the timed window: it is
            // the same O(m) work in both legs, and only the replay itself
            // is pipelined.
            let leg = |pipelined: bool, scratch: &mut ReplayScratch| {
                let mut src = UniformSource::new(&cfg, pipe_seed).unwrap();
                let mut alg = RandPr::from_seed(pipe_seed);
                timed(|| {
                    if pipelined {
                        run_source_pipelined(&mut src, &mut alg, scratch).unwrap()
                    } else {
                        run_source_with_scratch(&mut src, &mut alg, scratch).unwrap()
                    }
                })
            };
            for round in 0..rounds {
                // The leg that runs first swaps every round, so a
                // first-run or thermal bias does not always fall on the
                // same leg.
                let ((ts, serial), (tp, pipelined)) = if round % 2 == 0 {
                    let s = leg(false, &mut scratch);
                    (s, leg(true, &mut scratch))
                } else {
                    let p = leg(true, &mut scratch);
                    (leg(false, &mut scratch), p)
                };
                t_serial.push(ts);
                t_pipe.push(tp);
                identical &= pipelined == serial;
                benefit = serial.benefit();
            }
            all_pipeline_identical &= identical;
            let best = |ts: &[f64]| ts.iter().copied().fold(f64::INFINITY, f64::min);
            let (serial_best, pipe_best) = (best(&t_serial), best(&t_pipe));
            pipe_table.row(vec![
                format!("m={m} n={n} σ=4 × randPr"),
                n.to_string(),
                format!("{benefit:.0}"),
                format!("{serial_best:.3}"),
                spread(&t_serial),
                format!("{pipe_best:.3}"),
                spread(&t_pipe),
                format!("{:.2}×", serial_best / pipe_best.max(1e-9)),
                nproc.to_string(),
                identical.to_string(),
            ]);
        }
    }
    report.table(pipe_table);
    report.note(
        "pipeline: intra-replay parallelism on ONE instance — a producer thread drains the \
         source into a recycled chunk ring while the caller's thread steps the session \
         (run_source_pipelined); the serial leg is run_source_with_scratch. Both legs \
         replay the same streamed UniformSource on one warm ReplayScratch, best of 3 \
         rounds with the leg that runs first swapped every round, source construction \
         untimed; spread is (max − min) / min. \
         Outcomes are bit-identical to the serial loop (the guarded cells; \
         tests/parallel_replay.rs pins the full grid). The walls depend on the core \
         count (the nproc column), so like `distributed` only the identity booleans are \
         guarded.",
    );

    report.note(format!(
        "Replay pool: {} shards (override with OSP_REPLAY_SHARDS; outcomes are \
         shard-count-invariant by construction, see tests/batch_equivalence.rs).{}",
        pool.shards(),
        if pool.shards() == 1 {
            " With one shard the engine_run comparison measures pool overhead only \
             (expect ~1×); replay throughput scales with shard count on multi-core \
             machines."
        } else {
            ""
        }
    ));
    report.note(
        "Row identities (first column) are stable PR-over-PR; CI's bench_guard checks \
         every boolean identity column and holds the single-threaded poly_hash/sampling \
         speedups — and the streaming mem ratio — to ≥ 0.9× the committed baseline. \
         Sequential arrivals/s is the flat-CSR + decide_into hot-path number to compare \
         against the previous baseline when regenerating.",
    );
    report.note(
        "streaming: both legs regenerate the scenario per trial from the same seed — \
         materialize builds the CSR Instance then replays it, streaming fuses \
         generation into the replay loop at O(m) resident bytes (the `source bytes` \
         column), so the mem ratio grows linearly in n while outcomes stay \
         bit-identical.",
    );
    report.note(
        if all_identical
            && all_agree
            && all_stream_identical
            && all_dist_identical
            && all_socket_identical
            && all_kernel_identical
            && all_pipeline_identical
        {
            "Verdict: batch replay is bit-identical to sequential replay, fused streaming \
             is bit-identical to materialize-then-replay, distributed (process) replay and \
             the socket worker fleet — surviving an injected mid-batch kill — are \
             bit-identical to both, the hash fast path agrees with the naive \
             reference, the range kernel agrees with scalar eval key for key, and \
             the pipelined session is bit-identical to the serial replay loop; \
             timings above are the tracked baseline."
                .to_string()
        } else {
            "Verdict: an identity check FAILED — the batch engine, the streaming pipeline, \
             the distributed dispatch layer, the socket fleet, the hash fast path, the \
             range kernel or the pipelined replay diverged."
                .to_string()
        },
    );
    report
}
