//! Criterion bench: online engine throughput per algorithm.
//!
//! Measures full instance replays (decisions per second is the router's
//! forwarding-decision budget in the video scenario).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osp_core::algorithms::{GreedyOnline, HashRandPr, RandPr, TieBreak};
use osp_core::gen::{random_instance, RandomInstanceConfig};
use osp_core::{derive_seed, run, run_source_with_scratch, Instance, ReplayPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(m: usize, n: usize, sigma: u32) -> Instance {
    let mut rng = StdRng::seed_from_u64(42);
    random_instance(&RandomInstanceConfig::unweighted(m, n, sigma), &mut rng)
        .expect("feasible bench workload")
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_run");
    for (m, n, sigma) in [
        (100usize, 1_000usize, 4u32),
        (500, 5_000, 8),
        (2_000, 20_000, 16),
    ] {
        let inst = workload(m, n, sigma);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("randPr", format!("m{m}_n{n}_s{sigma}")),
            &inst,
            |b, inst| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    run(inst, &mut RandPr::from_seed(seed)).unwrap().benefit()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hashPr8", format!("m{m}_n{n}_s{sigma}")),
            &inst,
            |b, inst| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    run(inst, &mut HashRandPr::new(8, seed)).unwrap().benefit()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("greedy_fewest_remaining", format!("m{m}_n{n}_s{sigma}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    run(inst, &mut GreedyOnline::new(TieBreak::ByFewestRemaining))
                        .unwrap()
                        .benefit()
                })
            },
        );
        // Batch path: 32 randPr replays per iteration through the pool
        // (scratch-reused shards), the unit the experiment harness spends.
        group.bench_with_input(
            BenchmarkId::new("randPr_batch32", format!("m{m}_n{n}_s{sigma}")),
            &inst,
            |b, inst| {
                let pool = ReplayPool::from_env();
                let mut round = 0u64;
                b.iter(|| {
                    round += 1;
                    let seeds: Vec<u64> = (0..32).map(|i| derive_seed(round, i)).collect();
                    pool.map(&seeds, |scratch, _, &s| {
                        run_source_with_scratch(
                            &mut inst.source(),
                            &mut RandPr::from_seed(s),
                            scratch,
                        )
                        .unwrap()
                    })
                    .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine
}
criterion_main!(benches);
