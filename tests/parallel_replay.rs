//! Conformance layer for intra-replay parallelism: the pipelined session
//! and the sharded decision kernel.
//!
//! The headline risk is the same silent nondeterminism the batch suite
//! guards against, now *inside* one replay: a chunk boundary dropping or
//! reordering arrivals, a sharded score fill perturbing the selection
//! order, a thread count leaking into decisions. This suite pins the
//! contract: for every built-in algorithm over the generator-model grid,
//! [`run_source_parallel`] outcomes are **bit-identical** to sequential
//! [`run`] — completed sets, benefit, the decision digest and `died_at` —
//! at thread counts 1, 2 and 8, with the digest equal to that of a logged
//! sequential run's [`DecisionLog`], and the sharded decision
//! kernel agrees with serial scoring on arrivals wide enough to
//! trigger it.

use osp_core::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
use osp_core::engine::batch::SourceJob;
use osp_core::engine::parallel::{run_source_parallel_with, SHARDED_DECIDE_MIN};
use osp_core::gen::{
    biregular_instance, fixed_size_instance, random_instance, BiregularSource, CapacityModel,
    FixedSizeSource, LoadModel, RandomInstanceConfig, UniformSource, WeightModel,
};
use osp_core::source::ArrivalSource;
use osp_core::{
    derive_seed, run, run_source, run_source_logged, DecisionLog, Instance, OnlineAlgorithm,
    Outcome, ParallelConfig, ReplayPool, ReplayScratch, SetId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const TRIALS: u64 = 6;

/// A named, seeded constructor for a boxed streamed source.
type SourceBuilder = (
    &'static str,
    Box<dyn Fn(u64) -> Box<dyn ArrivalSource + Send>>,
);

/// A named, seeded constructor for a boxed algorithm.
type SeededAlgorithm = (&'static str, Box<dyn Fn(u64) -> Box<dyn OnlineAlgorithm>>);

/// A named constructor for a boxed algorithm with a fixed seed.
type FixedAlgorithm = (&'static str, Box<dyn Fn() -> Box<dyn OnlineAlgorithm>>);

/// The generator-model grid (same models as `tests/batch_equivalence.rs`).
fn instance_grid() -> Vec<(&'static str, Instance)> {
    let mut grid = Vec::new();

    let mut rng = StdRng::seed_from_u64(11);
    grid.push((
        "uniform unweighted (m=30, n=80, σ=4)",
        random_instance(&RandomInstanceConfig::unweighted(30, 80, 4), &mut rng).unwrap(),
    ));

    let mut rng = StdRng::seed_from_u64(12);
    grid.push((
        "zipf weights, variable loads and capacities",
        random_instance(
            &RandomInstanceConfig {
                num_sets: 40,
                num_elements: 100,
                load: LoadModel::Uniform { lo: 1, hi: 6 },
                weights: WeightModel::Zipf { exponent: 1.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
            },
            &mut rng,
        )
        .unwrap(),
    ));

    let mut rng = StdRng::seed_from_u64(13);
    grid.push((
        "bi-regular (m=24, k=3, σ=6)",
        biregular_instance(24, 3, 6, &mut rng).unwrap(),
    ));

    let mut rng = StdRng::seed_from_u64(14);
    grid.push((
        "fixed size, skewed loads (m=40, k=4, skew=1.2)",
        fixed_size_instance(40, 4, 90, 1.2, &mut rng).unwrap(),
    ));

    grid
}

/// A feasible oracle target: whatever deterministic greedy completed.
fn oracle_target(instance: &Instance) -> Vec<SetId> {
    run(instance, &mut GreedyOnline::new(TieBreak::ByWeight))
        .unwrap()
        .completed()
        .to_vec()
}

/// The five algorithm families under test.
fn algorithm(family: usize, seed: u64, target: &[SetId]) -> Box<dyn OnlineAlgorithm> {
    match family {
        0 => Box::new(GreedyOnline::new(TieBreak::ByWeight)),
        1 => Box::new(RandPr::from_seed(seed)),
        2 => Box::new(HashRandPr::new(8, seed)),
        3 => Box::new(RandomAssign::from_seed(seed)),
        _ => Box::new(OracleOnline::new(target.to_vec())),
    }
}

const FAMILY_NAMES: [&str; 5] = ["greedy", "randPr", "hashPr", "random_assign", "oracle"];

/// Full field-by-field comparison, through the public accessors so the
/// assertion failure names the diverging field.
fn assert_outcomes_identical(label: &str, sequential: &Outcome, parallel: &Outcome, sets: usize) {
    assert_eq!(
        sequential.completed(),
        parallel.completed(),
        "{label}: completed sets diverged"
    );
    assert!(
        sequential.benefit().to_bits() == parallel.benefit().to_bits(),
        "{label}: benefit diverged ({} vs {})",
        sequential.benefit(),
        parallel.benefit()
    );
    assert_eq!(
        (sequential.arrivals(), sequential.assignments()),
        (parallel.arrivals(), parallel.assignments()),
        "{label}: decision counts diverged"
    );
    assert_eq!(
        sequential.digest(),
        parallel.digest(),
        "{label}: decision digest diverged"
    );
    for i in 0..sets {
        let s = SetId(i as u32);
        assert_eq!(
            sequential.died_at(s),
            parallel.died_at(s),
            "{label}: died_at({s:?}) diverged"
        );
    }
    assert_eq!(sequential, parallel, "{label}: outcome diverged");
}

#[test]
fn parallel_replay_is_bit_identical_to_sequential_run() {
    // The acceptance grid: every algorithm family × generator model ×
    // thread count, against the sequential reference — a logged run, so
    // each digest is also checked against the full decision record.
    let mut log = DecisionLog::new();
    for (model, instance) in instance_grid() {
        let target = oracle_target(&instance);
        for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
            for trial in 0..TRIALS {
                let seed = derive_seed(family as u64, trial);
                let sequential = run_source_logged(
                    &mut instance.source(),
                    algorithm(family, seed, &target).as_mut(),
                    &mut ReplayScratch::new(),
                    Some(&mut log),
                )
                .unwrap();
                assert_eq!(log.digest(), sequential.digest(), "{model} / {family_name}");
                for threads in THREAD_COUNTS {
                    let mut scratch = ReplayScratch::new();
                    // A small chunk forces several chunk hand-offs even on
                    // these ~100-arrival streams.
                    let config = ParallelConfig { threads, chunk: 16 };
                    let parallel = run_source_parallel_with(
                        &mut instance.source(),
                        algorithm(family, seed, &target).as_mut(),
                        &config,
                        &mut scratch,
                    )
                    .unwrap();
                    let label =
                        format!("{model} / {family_name} / trial {trial} / {threads} threads");
                    assert_outcomes_identical(&label, &sequential, &parallel, instance.num_sets());
                    assert_eq!(parallel.digest(), log.digest(), "{label}: logged digest");
                }
            }
        }
    }
}

#[test]
fn pipelined_streamed_sources_match_sequential_run_source() {
    // The fused generator sources (the pipeline's raison d'être) at every
    // thread count, including lazy hashPr whose scoring rides eval_batch.
    let uniform_cfg = RandomInstanceConfig::unweighted(50, 400, 4);
    let zipf_cfg = RandomInstanceConfig {
        num_sets: 40,
        num_elements: 300,
        load: LoadModel::Uniform { lo: 1, hi: 6 },
        weights: WeightModel::Zipf { exponent: 1.0 },
        capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
    };
    let builders: Vec<SourceBuilder> = vec![
        (
            "uniform",
            Box::new(move |seed| Box::new(UniformSource::new(&uniform_cfg, seed).unwrap())),
        ),
        (
            "zipf",
            Box::new(move |seed| Box::new(UniformSource::new(&zipf_cfg, seed).unwrap())),
        ),
        (
            "bi-regular",
            Box::new(|seed| Box::new(BiregularSource::new(36, 3, 6, seed).unwrap())),
        ),
        (
            "fixed-size",
            Box::new(|seed| Box::new(FixedSizeSource::new(48, 4, 200, 1.2, seed).unwrap())),
        ),
    ];
    let algorithms: Vec<SeededAlgorithm> = vec![
        (
            "greedy",
            Box::new(|_| Box::new(GreedyOnline::new(TieBreak::ByWeight))),
        ),
        ("randPr", Box::new(|s| Box::new(RandPr::from_seed(s)))),
        ("hashPr", Box::new(|s| Box::new(HashRandPr::new(8, s)))),
        (
            "hashPr-lazy",
            Box::new(|s| Box::new(HashRandPr::new_lazy(8, s))),
        ),
        (
            "random_assign",
            Box::new(|s| Box::new(RandomAssign::from_seed(s))),
        ),
    ];
    for (source_name, source) in &builders {
        for (alg_name, alg) in &algorithms {
            let seed = derive_seed(77, 0);
            let sequential = run_source(&mut source(seed), alg(seed).as_mut()).unwrap();
            for threads in THREAD_COUNTS {
                let mut scratch = ReplayScratch::new();
                let config = ParallelConfig { threads, chunk: 64 };
                let parallel = run_source_parallel_with(
                    &mut source(seed),
                    alg(seed).as_mut(),
                    &config,
                    &mut scratch,
                )
                .unwrap();
                assert_eq!(
                    sequential, parallel,
                    "{source_name} / {alg_name} / {threads} threads diverged"
                );
            }
        }
    }
}

/// A star instance wide enough to cross [`SHARDED_DECIDE_MIN`]: every
/// arrival lists all `m` sets, so the sharded decision kernel actually
/// runs (the conformance grids above stay below the threshold and pin
/// the dispatch's *serial* side).
fn wide_star(m: usize) -> Instance {
    let mut b = osp_core::InstanceBuilder::new();
    let ids: Vec<SetId> = (0..m)
        .map(|i| {
            // Varied weights (with zero-weight sets sprinkled in to hit
            // the Priority::zero() lane) and three elements per set.
            let w = if i % 11 == 0 {
                0.0
            } else {
                0.5 + (i % 7) as f64 * 0.3
            };
            b.add_set(w, 3)
        })
        .collect();
    for _ in 0..3 {
        b.add_element(2, &ids);
    }
    b.build().unwrap()
}

#[test]
fn sharded_decision_kernel_matches_serial_on_wide_arrivals() {
    let inst = wide_star(SHARDED_DECIDE_MIN + 501);
    let algorithms: Vec<FixedAlgorithm> = vec![
        (
            "greedy",
            Box::new(|| Box::new(GreedyOnline::new(TieBreak::ByWeight))),
        ),
        ("randPr", Box::new(|| Box::new(RandPr::from_seed(3)))),
        ("hashPr", Box::new(|| Box::new(HashRandPr::new(8, 3)))),
        (
            "hashPr-lazy",
            Box::new(|| Box::new(HashRandPr::new_lazy(8, 3))),
        ),
    ];
    for (alg_name, alg) in &algorithms {
        let sequential = run(&inst, alg().as_mut()).unwrap();
        for threads in THREAD_COUNTS {
            let mut scratch = ReplayScratch::new();
            let parallel = run_source_parallel_with(
                &mut inst.source(),
                alg().as_mut(),
                &ParallelConfig::with_threads(threads),
                &mut scratch,
            )
            .unwrap();
            assert_outcomes_identical(
                &format!("wide star / {alg_name} / {threads} threads"),
                &sequential,
                &parallel,
                inst.num_sets(),
            );
        }
    }
}

#[test]
fn batch_and_intra_replay_parallelism_compose() {
    // The pool's pipelined lane: OSP_REPLAY_SHARDS-style job fan-out ×
    // per-job pipeline threads, against plain sequential run_source.
    let cfg = RandomInstanceConfig::unweighted(30, 200, 4);
    let jobs: Vec<SourceJob> = (0..10)
        .map(|i| SourceJob {
            source: 0,
            algorithm: 0,
            seed: derive_seed(5, i),
        })
        .collect();
    let reference: Vec<Outcome> = jobs
        .iter()
        .map(|job| {
            run_source(
                &mut UniformSource::new(&cfg, job.seed).unwrap(),
                &mut RandPr::from_seed(job.seed),
            )
            .unwrap()
        })
        .collect();
    for shards in [1usize, 2, 4] {
        for threads in THREAD_COUNTS {
            let got = ReplayPool::new(shards).run_sources_pipelined(
                &jobs,
                &|_, seed| Box::new(UniformSource::new(&cfg, seed).unwrap()),
                &|_, seed| Box::new(RandPr::from_seed(seed)),
                &ParallelConfig { threads, chunk: 32 },
            );
            assert_eq!(got.len(), reference.len());
            for (i, (want, got)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    want,
                    got.as_ref().unwrap(),
                    "job {i} diverged at {shards} shards × {threads} threads"
                );
            }
        }
    }
}

#[test]
fn run_parallel_and_run_source_parallel_agree_with_run() {
    // The env-driven entry points themselves (whatever OSP_REPLAY_THREADS
    // happens to be in this test process — the policy maps every value,
    // including unset, to some thread count, and all of them must be
    // bit-identical).
    let (_, instance) = instance_grid().swap_remove(1);
    let want = run(&instance, &mut RandPr::from_seed(9)).unwrap();
    let via_instance = osp_core::run_parallel(&instance, &mut RandPr::from_seed(9)).unwrap();
    assert_eq!(want, via_instance);
    let via_source =
        osp_core::run_source_parallel(&mut instance.source(), &mut RandPr::from_seed(9)).unwrap();
    assert_eq!(want, via_source);
}
