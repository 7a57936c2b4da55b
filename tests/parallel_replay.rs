//! Conformance layer for intra-replay parallelism: the pipelined session.
//!
//! The headline risk is the same silent nondeterminism the batch suite
//! guards against, now *inside* one replay: a chunk boundary dropping or
//! reordering arrivals, or a recycled chunk arena leaking members from
//! one arrival into the next. This suite pins the contract: for every
//! built-in algorithm over the generator-model grid,
//! [`run_source_pipelined`] outcomes are **bit-identical** to sequential
//! [`run`] — completed sets, benefit, the decision digest and `died_at` —
//! with the digest equal to that of a logged sequential run's
//! [`DecisionLog`], including streams that span several chunks and
//! arrivals thousands of members wide. The chunk hand-off edge cases
//! (chunks of 1, partial and exact-boundary tails) are unit tests of the
//! chunked core in `engine::parallel`.

use osp_core::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
use osp_core::gen::{
    biregular_instance, fixed_size_instance, random_instance, BiregularSource, CapacityModel,
    FixedSizeSource, LoadModel, RandomInstanceConfig, UniformSource, WeightModel,
};
use osp_core::source::ArrivalSource;
use osp_core::{
    derive_seed, run, run_source, run_source_logged, run_source_pipelined, DecisionLog, Instance,
    OnlineAlgorithm, Outcome, ReplayPool, ReplayScratch, SetId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    // The acceptance grid: every algorithm family × generator model,
    // against the sequential reference — a logged run, so each digest is
    // also checked against the full decision record. One scratch serves
    // every pipelined run, so recycled buffers are exercised too.
    let mut log = DecisionLog::new();
    let mut scratch = ReplayScratch::new();
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
                let parallel = run_source_pipelined(
                    &mut instance.source(),
                    algorithm(family, seed, &target).as_mut(),
                    &mut scratch,
                )
                .unwrap();
                let label = format!("{model} / {family_name} / trial {trial}");
                assert_outcomes_identical(&label, &sequential, &parallel, instance.num_sets());
                assert_eq!(parallel.digest(), log.digest(), "{label}: logged digest");
            }
        }
    }
}

#[test]
fn pipelined_streamed_sources_match_sequential_run_source() {
    // The fused generator sources (the pipeline's raison d'être). Every stream
    // spans at least three full-size chunks, so the ring recycles an arena
    // that held other capacities and member widths before.
    let uniform_cfg = RandomInstanceConfig::unweighted(200, 2_500, 4);
    let zipf_cfg = RandomInstanceConfig {
        num_sets: 400,
        num_elements: 2_500,
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
            Box::new(|seed| Box::new(BiregularSource::new(5_000, 3, 6, seed).unwrap())),
        ),
        (
            "fixed-size",
            Box::new(|seed| Box::new(FixedSizeSource::new(3_000, 4, 10_000, 0.8, seed).unwrap())),
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
            "random_assign",
            Box::new(|s| Box::new(RandomAssign::from_seed(s))),
        ),
    ];
    let mut scratch = ReplayScratch::new();
    for (source_name, source) in &builders {
        for (alg_name, alg) in &algorithms {
            let seed = derive_seed(77, 0);
            let sequential = run_source(&mut source(seed), alg(seed).as_mut()).unwrap();
            // Two chunks of the pipeline's 1024 arrivals fill the ring.
            assert!(
                sequential.arrivals() > 2 * 1024,
                "{source_name}: {} arrivals",
                sequential.arrivals()
            );
            let parallel =
                run_source_pipelined(&mut source(seed), alg(seed).as_mut(), &mut scratch).unwrap();
            assert_eq!(sequential, parallel, "{source_name} / {alg_name} diverged");
        }
    }
}

/// A star instance with thousands of members per arrival: every arrival
/// lists all `m` sets, so the chunk arenas' member pools must grow far
/// beyond what the narrow grids above ever need.
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
fn pipeline_matches_serial_on_wide_arrivals() {
    // The star's arrivals list 4597 members each; a narrow instance
    // replayed afterwards on the same scratch checks the grown arenas
    // carry nothing over.
    let inst = wide_star(4597);
    let algorithms: Vec<FixedAlgorithm> = vec![
        (
            "greedy",
            Box::new(|| Box::new(GreedyOnline::new(TieBreak::ByWeight))),
        ),
        ("randPr", Box::new(|| Box::new(RandPr::from_seed(3)))),
        ("hashPr", Box::new(|| Box::new(HashRandPr::new(8, 3)))),
        ("hashPr64", Box::new(|| Box::new(HashRandPr::new(64, 3)))),
    ];
    let (_, narrow) = instance_grid().swap_remove(0);
    let mut scratch = ReplayScratch::new();
    for (alg_name, alg) in &algorithms {
        for (label, instance) in [("wide star", &inst), ("narrow", &narrow)] {
            let sequential = run(instance, alg().as_mut()).unwrap();
            let parallel =
                run_source_pipelined(&mut instance.source(), alg().as_mut(), &mut scratch).unwrap();
            assert_outcomes_identical(
                &format!("{label} / {alg_name}"),
                &sequential,
                &parallel,
                instance.num_sets(),
            );
        }
    }
}

#[test]
fn batch_and_intra_replay_parallelism_compose() {
    // Job fan-out over ReplayPool shards, each job pipelined on its
    // shard's scratch, against plain sequential run_source.
    let cfg = RandomInstanceConfig::unweighted(30, 200, 4);
    let seeds: Vec<u64> = (0..10).map(|i| derive_seed(5, i)).collect();
    let reference: Vec<Outcome> = seeds
        .iter()
        .map(|&seed| {
            run_source(
                &mut UniformSource::new(&cfg, seed).unwrap(),
                &mut RandPr::from_seed(seed),
            )
            .unwrap()
        })
        .collect();
    for shards in [1usize, 2, 4] {
        let got = ReplayPool::new(shards).map(&seeds, |scratch, _, &seed| {
            run_source_pipelined(
                &mut UniformSource::new(&cfg, seed).unwrap(),
                &mut RandPr::from_seed(seed),
                scratch,
            )
            .unwrap()
        });
        assert_eq!(got, reference, "{shards} shards");
    }
}
