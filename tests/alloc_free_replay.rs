//! The flat-memory hot-path contract: a **warm** replay performs zero heap
//! allocations per arrival.
//!
//! A counting global allocator wraps `System`; after one warm-up replay has
//! grown the [`ReplayScratch`] buffers (and the algorithm's own state) to
//! the instance's footprint, replaying the instance's whole arrival loop
//! again must not touch the allocator at all — for every built-in
//! algorithm. This pins the tentpole claim of the CSR arena +
//! `decide_into` pipeline: arrivals are slices into one contiguous pool,
//! decisions go into recycled buffers, and each decision folds into the
//! outcome's digest in place.
//!
//! The target is built with `harness = false` (see `Cargo.toml`) so the
//! process has exactly one thread: the default libtest harness keeps its
//! main thread alive next to the test thread, and under load its
//! bookkeeping allocations can land inside the measured window of the
//! process-global counter — observed as a rare 1–2-allocation flake.

use osp_core::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
use osp_core::gen::{random_instance, CapacityModel, LoadModel, RandomInstanceConfig, WeightModel};
use osp_core::{run, OnlineAlgorithm, ReplayScratch, Session, SetId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    // A non-trivial workload: variable loads and capacities so decisions
    // have mixed sizes, enough arrivals that any per-arrival allocation
    // would show up hundreds of times over.
    let mut rng = StdRng::seed_from_u64(99);
    let instance = random_instance(
        &RandomInstanceConfig {
            num_sets: 80,
            num_elements: 400,
            load: LoadModel::Uniform { lo: 1, hi: 6 },
            weights: WeightModel::Uniform { lo: 0.5, hi: 4.0 },
            capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
        },
        &mut rng,
    )
    .unwrap();
    let oracle_target: Vec<SetId> = run(&instance, &mut GreedyOnline::new(TieBreak::ByWeight))
        .unwrap()
        .completed()
        .to_vec();

    let algorithms: Vec<(&str, Box<dyn OnlineAlgorithm>)> = vec![
        ("randPr", Box::new(RandPr::from_seed(7))),
        ("randPr+active", Box::new(RandPr::with_active_filter(7))),
        ("hashPr", Box::new(HashRandPr::new(8, 7))),
        ("greedy", Box::new(GreedyOnline::new(TieBreak::ByWeight))),
        ("random_assign", Box::new(RandomAssign::from_seed(7))),
        ("oracle", Box::new(OracleOnline::new(oracle_target))),
    ];

    for (name, mut alg) in algorithms {
        let mut scratch = ReplayScratch::new();
        // Warm-up: grows every scratch buffer (and any begin-time state of
        // the algorithm) to this instance's footprint.
        let mut session = Session::with_scratch(instance.sets(), alg.as_mut(), &mut scratch);
        for arrival in instance.arrivals() {
            session.step(&arrival, alg.as_mut()).unwrap();
        }
        let warm = session.finish_into(&mut scratch);

        // Warm shard: the entire arrival loop must not allocate. `begin`
        // happens inside `with_scratch` — per-job state (e.g. randPr's
        // priority table) is allowed to allocate; arrivals are not.
        let mut session = Session::with_scratch(instance.sets(), alg.as_mut(), &mut scratch);
        let before = allocations();
        for arrival in instance.arrivals() {
            session.step(&arrival, alg.as_mut()).unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: {} allocation(s) during {} warm arrivals",
            after - before,
            instance.num_elements()
        );

        // And the replay is still a faithful one (same decisions as the
        // warm-up run of the same deterministic state machine, where the
        // algorithm is deterministic per `begin`).
        let out = session.finish_into(&mut scratch);
        assert_eq!(out.arrivals(), instance.num_elements() as u64, "{name}");
        if !matches!(name, "randPr" | "randPr+active" | "random_assign") {
            assert_eq!(out, warm, "{name}: warm replay diverged");
        }
    }
}
