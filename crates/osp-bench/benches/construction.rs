//! Criterion bench: adversarial construction and generator costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use osp_adversary::gadget_lb::gadget_lower_bound;
use osp_adversary::weak::weak_lower_bound;
use osp_core::gen::{biregular_instance, random_instance, BiregularSource, RandomInstanceConfig};
use osp_core::{sort_members, ArrivalSource, SetId, SORT_NETWORK_MAX};
use osp_net::trace::{video_trace, VideoTraceConfig};
use osp_net::trace_to_instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_constructions(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");

    for ell in [3u64, 4, 5] {
        group.bench_with_input(BenchmarkId::new("gadget_lb", ell), &ell, |b, &ell| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                gadget_lower_bound(ell, &mut rng)
                    .unwrap()
                    .instance
                    .num_elements()
            })
        });
    }

    for t in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("weak_lb", t), &t, |b, &t| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                weak_lower_bound(t, &mut rng)
                    .unwrap()
                    .instance
                    .num_elements()
            })
        });
    }

    group.bench_function("biregular_m60_k5_s4", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            biregular_instance(60, 5, 4, &mut rng)
                .unwrap()
                .num_elements()
        })
    });

    group.bench_function("random_instance_m200_n2000_s8", |b| {
        let cfg = RandomInstanceConfig::unweighted(200, 2000, 8);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            random_instance(&cfg, &mut rng).unwrap().num_elements()
        })
    });

    group.bench_function("video_trace_and_mapping", |b| {
        let cfg = VideoTraceConfig {
            sources: 8,
            frames_per_source: 60,
            gop: osp_net::GopConfig::standard(),
            frame_interval: 8,
            capacity: 4,
            jitter: 0,
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let trace = video_trace(&cfg, &mut rng);
            trace_to_instance(&trace).instance.num_elements()
        })
    });

    group.finish();
}

/// The member-list sort kernel against `sort_unstable`, each timed over
/// the same 65,536 random lists per iteration (copied in first, so every
/// sort sees unsorted ids; fewer lists would let the branch predictor
/// learn `sort_unstable`'s comparisons), then the streamed biregular
/// source of the `replay-biregular` workload built and drained.
fn bench_member_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("member_sort");
    const LISTS: usize = 1 << 16;
    // σ = SORT_NETWORK_MAX is the network's cutoff.
    for sigma in [4usize, 8, SORT_NETWORK_MAX] {
        let mut rng = StdRng::seed_from_u64(sigma as u64);
        let lists: Vec<SetId> = (0..LISTS * sigma)
            .map(|_| SetId(rng.gen_range(0..50_000)))
            .collect();
        let mut work = lists.clone();
        let network: fn(&mut [SetId]) = sort_members;
        for (name, sort) in [
            ("network", network),
            ("sort_unstable", <[SetId]>::sort_unstable),
        ] {
            group.bench_with_input(BenchmarkId::new(name, sigma), &sigma, |b, &sigma| {
                b.iter(|| {
                    work.copy_from_slice(&lists);
                    for list in work.chunks_mut(sigma) {
                        sort(list);
                    }
                    work[0]
                })
            });
        }
    }

    group.bench_function("biregular_source_m50000_k4_s16", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut source = BiregularSource::new(50_000, 4, 16, seed).unwrap();
            let mut members = 0usize;
            while let Some(a) = source.next_arrival() {
                members += a.members().len();
            }
            members
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_constructions, bench_member_sort
}
criterion_main!(benches);
