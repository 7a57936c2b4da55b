//! Conformance layer for the sharded batch-replay engine.
//!
//! The headline risk of parallel replay is *silent nondeterminism*: a
//! shard-count-dependent seed, a racy buffer, a second engine code path
//! drifting from the first. This suite pins the contract: for every
//! built-in algorithm (`greedy`, `randPr`, `hashPr`, `random_assign`,
//! `oracle`) over a grid of generator models, [`ReplayPool`] outcomes are
//! **bit-identical** to sequential [`engine::run`] — completed sets,
//! benefit, the decision digest and counts, and `died_at` — at shard
//! counts 1, 2 and 8.
//!
//! [`engine::run`]: osp_core::engine::run

use osp_core::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
use osp_core::engine::ReplayScratch;
use osp_core::gen::{
    biregular_instance, fixed_size_instance, random_instance, CapacityModel, LoadModel,
    RandomInstanceConfig, WeightModel,
};
use osp_core::{
    derive_seed, run, run_source_logged, run_source_with_scratch, DecisionLog, Instance,
    OnlineAlgorithm, Outcome, ReplayPool, SetId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const TRIALS: u64 = 6;

/// The generator-model grid: one instance per model family.
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

/// The five algorithm families under test. The oracle's target depends on
/// the instance, so the factory receives it.
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
fn assert_outcomes_identical(label: &str, sequential: &Outcome, batched: &Outcome, sets: usize) {
    assert_eq!(
        sequential.completed(),
        batched.completed(),
        "{label}: completed sets diverged"
    );
    assert!(
        sequential.benefit().to_bits() == batched.benefit().to_bits(),
        "{label}: benefit diverged ({} vs {})",
        sequential.benefit(),
        batched.benefit()
    );
    assert_eq!(
        (sequential.arrivals(), sequential.assignments()),
        (batched.arrivals(), batched.assignments()),
        "{label}: decision counts diverged"
    );
    assert_eq!(
        sequential.digest(),
        batched.digest(),
        "{label}: decision digest diverged"
    );
    for i in 0..sets {
        let s = SetId(i as u32);
        assert_eq!(
            sequential.died_at(s),
            batched.died_at(s),
            "{label}: died_at({s:?}) diverged"
        );
    }
    // And the blanket structural equality, in case fields are added later.
    assert_eq!(sequential, batched, "{label}: outcome diverged");
}

#[test]
fn batch_replay_is_bit_identical_to_sequential() {
    for (model, instance) in instance_grid() {
        let target = oracle_target(&instance);
        for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
            // Sequential reference, one run per trial seed.
            let seeds: Vec<u64> = (0..TRIALS).map(|i| derive_seed(family as u64, i)).collect();
            let sequential: Vec<Outcome> = seeds
                .iter()
                .map(|&s| run(&instance, algorithm(family, s, &target).as_mut()).unwrap())
                .collect();
            for shards in SHARD_COUNTS {
                let pool = ReplayPool::new(shards);
                let batched = pool.map(&seeds, |scratch, _, &s| {
                    run_source_with_scratch(
                        &mut instance.source(),
                        algorithm(family, s, &target).as_mut(),
                        scratch,
                    )
                });
                assert_eq!(batched.len(), sequential.len());
                for (trial, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
                    let bat = bat
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{model}/{family_name}: job failed: {e:?}"));
                    let label =
                        format!("{model} / {family_name} / trial {trial} / {shards} shards");
                    assert_outcomes_identical(&label, seq, bat, instance.num_sets());
                }
            }
        }
    }
}

#[test]
fn mixed_worklist_is_order_stable_across_shard_counts() {
    // One big heterogeneous work-list — every instance crossed with the
    // seed-driven families — replayed through a SINGLE map call per
    // shard count. Results must land in job order and agree with the
    // sequential reference job-for-job. (The oracle family needs per-
    // instance context and is covered by the per-family test above.)
    let grid = instance_grid();
    let mut jobs = Vec::new();
    for (gi, (_, instance)) in grid.iter().enumerate() {
        for family in 0..4 {
            for trial in 0..3u64 {
                jobs.push((instance, family, derive_seed(1000 + gi as u64, trial)));
            }
        }
    }
    let factory =
        |family: usize, seed: u64| -> Box<dyn OnlineAlgorithm> { algorithm(family, seed, &[]) };
    let reference: Vec<Outcome> = jobs
        .iter()
        .map(|&(instance, family, seed)| run(instance, factory(family, seed).as_mut()).unwrap())
        .collect();
    for shards in SHARD_COUNTS {
        let batched =
            ReplayPool::new(shards).map(&jobs, |scratch, _, &(instance, family, seed)| {
                run_source_with_scratch(
                    &mut instance.source(),
                    factory(family, seed).as_mut(),
                    scratch,
                )
            });
        assert_eq!(batched.len(), reference.len());
        for (i, (seq, bat)) in reference.iter().zip(&batched).enumerate() {
            assert_eq!(
                seq,
                bat.as_ref().unwrap(),
                "job {i} diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn decision_log_equivalence() {
    // A logged run's flat CSR [`DecisionLog`] must record exactly what the
    // legacy per-arrival path produces: for every algorithm family and
    // generator model, drive a session "by hand" through the allocating
    // `decide` shim (one `Vec<SetId>` per arrival, applied via
    // `apply_external`) and compare it slice-for-slice against the log,
    // and the log's digest against the outcome's.
    for (model, instance) in instance_grid() {
        let target = oracle_target(&instance);
        for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
            let seed = derive_seed(7000 + family as u64, 0);
            let mut log = DecisionLog::new();
            let engine_out = run_source_logged(
                &mut instance.source(),
                algorithm(family, seed, &target).as_mut(),
                &mut ReplayScratch::new(),
                Some(&mut log),
            )
            .unwrap();

            let mut alg = algorithm(family, seed, &target);
            let mut session = osp_core::Session::new(instance.sets(), alg.as_mut());
            let mut legacy: Vec<Vec<SetId>> = Vec::new();
            for arrival in instance.arrivals() {
                let decision = {
                    let view = session.view();
                    alg.decide(&arrival, &view)
                };
                let applied = session.apply_external(&arrival, decision).unwrap();
                legacy.push(applied);
            }
            let manual_out = session.finish();

            let label = format!("{model} / {family_name}");
            assert_eq!(log.len(), legacy.len(), "{label}: log length diverged");
            assert_eq!(
                log.digest(),
                engine_out.digest(),
                "{label}: digest diverged"
            );
            assert_eq!(log.len() as u64, engine_out.arrivals(), "{label}: arrivals");
            assert_eq!(
                log.total_assignments() as u64,
                engine_out.assignments(),
                "{label}: assignments"
            );
            for (i, want) in legacy.iter().enumerate() {
                assert_eq!(
                    log.get(i),
                    Some(want.as_slice()),
                    "{label}: decision {i} diverged"
                );
            }
            // The iterator view agrees with indexed access, and the two
            // paths agree on the whole outcome.
            assert!(log.iter().map(<[SetId]>::to_vec).eq(legacy.iter().cloned()));
            assert_eq!(engine_out, manual_out, "{label}: outcomes diverged");
        }
    }
}

#[test]
fn prologue_shard_counts_build_bit_identical_tables() {
    // The parallel table-build prologue must write the same bytes at
    // every shard count: each priority slot is a pure function of
    // `(seed, index)` (hashPr evaluates a shared polynomial; randPr
    // jumps a counter-based stream to the slot's draw offset). Pin the
    // contract over the whole generator-model grid at the canonical
    // shard counts, through the explicit-thread-count entry points so no
    // test mutates the process environment.
    for (model, instance) in instance_grid() {
        let sets = instance.sets();
        let ids: Vec<SetId> = (0..sets.len()).map(|i| SetId(i as u32)).collect();

        let mut hash_reference = HashRandPr::new(8, 21);
        hash_reference.begin_with_threads(sets, SHARD_COUNTS[0]);
        let mut rand_reference = RandPr::from_seed(21);
        rand_reference.begin_with_threads(sets, SHARD_COUNTS[0]);

        for &shards in &SHARD_COUNTS[1..] {
            let mut hash_sharded = HashRandPr::new(8, 21);
            hash_sharded.begin_with_threads(sets, shards);
            let mut rand_sharded = RandPr::from_seed(21);
            rand_sharded.begin_with_threads(sets, shards);
            for &s in &ids {
                assert_eq!(
                    hash_sharded.priority(s),
                    hash_reference.priority(s),
                    "{model}: hashPr priority({s:?}) diverged at {shards} shards"
                );
                assert_eq!(
                    rand_sharded.priority(s),
                    rand_reference.priority(s),
                    "{model}: randPr priority({s:?}) diverged at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn empty_instance_and_single_job_edge_cases() {
    let empty = osp_core::InstanceBuilder::new().build().unwrap();
    for shards in SHARD_COUNTS {
        let out = ReplayPool::new(shards).map(&[7u64], |scratch, _, &s| {
            run_source_with_scratch(&mut empty.source(), &mut RandPr::from_seed(s), scratch)
                .unwrap()
        });
        assert_eq!(out.len(), 1);
        assert!(out[0].completed().is_empty());
        assert_eq!(out[0].benefit(), 0.0);
    }
}
