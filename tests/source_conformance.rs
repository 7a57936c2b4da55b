//! Conformance layer for streaming arrival sources.
//!
//! The tentpole claim of the source-based engine is that *streaming
//! changes nothing*: for every built-in algorithm over every generator
//! model, replaying the fused generate-as-you-stream source
//! ([`UniformSource`], [`BiregularSource`], [`FixedSizeSource`]) produces
//! **bit-identical** [`Outcome`]s — completed sets, benefit, per-arrival
//! decision log and `died_at` — to `engine::run` on the instance the
//! materializing generator builds from the same seed. Likewise for a
//! materialized instance streamed back through [`Instance::source`], for
//! a packet trace streamed through [`TraceSource`] vs the mapped
//! instance, and for streamed jobs fanned out through
//! [`ReplayPool::map`] at shard counts 1, 2 and 8.

use osp::core::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
use osp::core::gen::{
    random_instance, BiregularSource, CapacityModel, FixedSizeSource, LoadModel,
    RandomInstanceConfig, UniformSource, WeightModel,
};
use osp::core::prelude::*;
use osp::core::source::ArrivalSource;
use osp::net::{trace_to_instance, video_trace, TraceSource, VideoTraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const TRIALS: u64 = 5;

/// The uniform-family configs of the generator-model grid.
fn uniform_cfg() -> RandomInstanceConfig {
    RandomInstanceConfig::unweighted(30, 80, 4)
}

fn zipf_cfg() -> RandomInstanceConfig {
    RandomInstanceConfig {
        num_sets: 40,
        num_elements: 100,
        load: LoadModel::Uniform { lo: 1, hi: 6 },
        weights: WeightModel::Zipf { exponent: 1.0 },
        capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
    }
}

/// The generator-model grid: for each model, a materialized instance and
/// the fused source built from the same seed.
fn model_grid(seed: u64) -> Vec<(&'static str, Instance, Box<dyn ArrivalSource>)> {
    let mut grid: Vec<(&'static str, Instance, Box<dyn ArrivalSource>)> = Vec::new();

    let cfg = uniform_cfg();
    grid.push((
        "uniform unweighted (m=30, n=80, σ=4)",
        random_instance(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap(),
        Box::new(UniformSource::new(&cfg, seed).unwrap()),
    ));

    let cfg = zipf_cfg();
    grid.push((
        "zipf weights, variable loads and capacities",
        random_instance(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap(),
        Box::new(UniformSource::new(&cfg, seed).unwrap()),
    ));

    grid.push((
        "bi-regular (m=24, k=3, σ=6)",
        osp::core::gen::biregular_instance(24, 3, 6, &mut StdRng::seed_from_u64(seed)).unwrap(),
        Box::new(BiregularSource::new(24, 3, 6, seed).unwrap()),
    ));

    grid.push((
        "fixed size, skewed loads (m=40, k=4, skew=1.2)",
        osp::core::gen::fixed_size_instance(40, 4, 90, 1.2, &mut StdRng::seed_from_u64(seed))
            .unwrap(),
        Box::new(FixedSizeSource::new(40, 4, 90, 1.2, seed).unwrap()),
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

/// The five algorithm families under test (same roster as
/// `tests/batch_equivalence.rs`).
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

/// Full field-by-field comparison, through the public accessors so an
/// assertion failure names the diverging field.
fn assert_outcomes_identical(label: &str, want: &Outcome, got: &Outcome, sets: usize) {
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
    for i in 0..sets {
        let s = SetId(i as u32);
        assert_eq!(want.died_at(s), got.died_at(s), "{label}: died_at({s:?})");
    }
    assert_eq!(want, got, "{label}: outcome diverged");
}

#[test]
fn streamed_generators_are_bit_identical_to_materialized_replay() {
    // 5 algorithms × 4 generator models × TRIALS seeds: `run` on the
    // materialized instance vs `run_source` on a fresh fused source.
    for trial in 0..TRIALS {
        let gen_seed = derive_seed(400, trial);
        for (model, instance, _) in model_grid(gen_seed) {
            let target = oracle_target(&instance);
            for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
                let alg_seed = derive_seed(500 + family as u64, trial);
                let want = run(&instance, algorithm(family, alg_seed, &target).as_mut()).unwrap();
                // Rebuild the source per run — streaming is single-pass.
                let (_, _, mut source) = model_grid(gen_seed)
                    .into_iter()
                    .find(|(name, _, _)| *name == model)
                    .unwrap();
                let got =
                    run_source(&mut source, algorithm(family, alg_seed, &target).as_mut()).unwrap();
                let label = format!("{model} / {family_name} / trial {trial}");
                assert_outcomes_identical(&label, &want, &got, instance.num_sets());
            }
        }
    }
}

#[test]
fn instance_source_round_trips_through_the_engine() {
    let instance = random_instance(&zipf_cfg(), &mut StdRng::seed_from_u64(3)).unwrap();
    for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
        let target = oracle_target(&instance);
        let seed = derive_seed(600 + family as u64, 0);
        let want = run(&instance, algorithm(family, seed, &target).as_mut()).unwrap();
        let got = run_source(
            &mut instance.source(),
            algorithm(family, seed, &target).as_mut(),
        )
        .unwrap();
        assert_outcomes_identical(family_name, &want, &got, instance.num_sets());
    }
}

#[test]
fn session_drain_source_matches_stepwise_replay() {
    let instance = random_instance(&uniform_cfg(), &mut StdRng::seed_from_u64(8)).unwrap();
    let mut alg = RandPr::from_seed(77);
    let mut session = Session::new(instance.sets(), &mut alg);
    session
        .drain_source(&mut instance.source(), &mut alg)
        .unwrap();
    let drained = session.finish();
    let stepped = run(&instance, &mut RandPr::from_seed(77)).unwrap();
    assert_eq!(drained, stepped);
}

#[test]
fn pool_run_sources_is_shard_count_invariant() {
    // A heterogeneous streamed work-list — every fused source family ×
    // the seeded algorithms — each shard rebuilding its jobs' sources. The
    // sequential reference is run_source on identically-built jobs; the
    // pool must match it bit-for-bit at every shard count.
    let uniform = uniform_cfg();
    let source_factory = move |selector: usize, seed: u64| -> Box<dyn ArrivalSource> {
        match selector {
            0 => Box::new(UniformSource::new(&uniform, seed).unwrap()),
            1 => Box::new(BiregularSource::new(24, 3, 6, seed).unwrap()),
            _ => Box::new(FixedSizeSource::new(40, 4, 90, 1.2, seed).unwrap()),
        }
    };
    let alg_factory =
        |family: usize, seed: u64| -> Box<dyn OnlineAlgorithm> { algorithm(family, seed, &[]) };
    let mut jobs = Vec::new();
    for source in 0..3usize {
        for family in 0..4usize {
            for trial in 0..3u64 {
                let seed = derive_seed(900 + source as u64 * 10 + family as u64, trial);
                jobs.push((source, family, seed));
            }
        }
    }
    let reference: Vec<Outcome> = jobs
        .iter()
        .map(|&(source, family, seed)| {
            let mut source = source_factory(source, seed);
            run_source(&mut source, alg_factory(family, seed).as_mut()).unwrap()
        })
        .collect();
    for shards in SHARD_COUNTS {
        let pooled = ReplayPool::new(shards).map(&jobs, |scratch, _, &(source, family, seed)| {
            run_source_with_scratch(
                &mut source_factory(source, seed),
                alg_factory(family, seed).as_mut(),
                scratch,
            )
        });
        assert_eq!(pooled.len(), reference.len());
        for (i, (want, got)) in reference.iter().zip(&pooled).enumerate() {
            let got = got.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert_eq!(want, got, "job {i} diverged at {shards} shards");
        }
    }
}

#[test]
fn pool_run_source_seeds_matches_materialized_run_seeds() {
    // Replaying the materialized instance and fused sources of the same
    // generator seed through one pool agree.
    let cfg = uniform_cfg();
    let gen_seed = 42u64;
    let instance = random_instance(&cfg, &mut StdRng::seed_from_u64(gen_seed)).unwrap();
    let seeds: Vec<u64> = (0..12).map(|i| derive_seed(7, i)).collect();
    let pool = ReplayPool::new(4);
    let materialized = pool.map(&seeds, |scratch, _, &s| {
        run_source_with_scratch(&mut instance.source(), &mut RandPr::from_seed(s), scratch).unwrap()
    });
    let streamed = pool.map(&seeds, |scratch, _, &s| {
        let mut source = UniformSource::new(&cfg, gen_seed).unwrap();
        run_source_with_scratch(&mut source, &mut RandPr::from_seed(s), scratch).unwrap()
    });
    assert_eq!(materialized, streamed);
}

#[test]
fn trace_source_is_bit_identical_to_mapped_replay() {
    let mut rng = StdRng::seed_from_u64(5);
    let trace = video_trace(&VideoTraceConfig::small(), &mut rng);
    let mapped = trace_to_instance(&trace);
    let target = oracle_target(&mapped.instance);
    for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
        let seed = derive_seed(700 + family as u64, 0);
        let want = run(&mapped.instance, algorithm(family, seed, &target).as_mut()).unwrap();
        let mut source = TraceSource::new(&trace).unwrap();
        let got = run_source(&mut source, algorithm(family, seed, &target).as_mut()).unwrap();
        assert_outcomes_identical(family_name, &want, &got, mapped.instance.num_sets());
    }
}

#[test]
fn try_new_guards_the_untrusted_boundary() {
    let s = [SetId(0), SetId(2), SetId(1)];
    assert!(matches!(
        Arrival::try_new(ElementId(0), 1, &s),
        Err(Error::UnsortedMembers { .. })
    ));
    let s = [SetId(1), SetId(1)];
    assert!(matches!(
        Arrival::try_new(ElementId(0), 1, &s),
        Err(Error::DuplicateMember { .. })
    ));
    let s = [SetId(0)];
    assert!(matches!(
        Arrival::try_new(ElementId(0), 0, &s),
        Err(Error::ZeroCapacity(_))
    ));
    let a = Arrival::try_new(ElementId(3), 2, &s).unwrap();
    assert_eq!(a.element(), ElementId(3));
    assert_eq!(a.capacity(), 2);
    assert_eq!(a.members(), &s);
}
