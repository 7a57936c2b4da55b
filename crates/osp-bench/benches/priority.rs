//! Criterion bench: priority machinery — the per-packet hot path of the
//! distributed implementation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use osp_core::priority::Rw;
use osp_gf::hash::PolyHash;
use osp_gf::Gf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_priority(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority");

    group.bench_function("rw_sample_w3.5", |b| {
        let rw = Rw::new(3.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| rw.sample(&mut rng))
    });

    for independence in [2usize, 8, 64] {
        group.bench_function(format!("poly_hash_eval_{independence}wise"), |b| {
            let h = PolyHash::new(independence, 1);
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(1);
                h.eval(black_box(x))
            })
        });
        // The precomputed-powers reference, kept benched so the fast
        // path's margin is tracked PR-over-PR.
        group.bench_function(format!("poly_hash_eval_naive_{independence}wise"), |b| {
            let h = PolyHash::new(independence, 1);
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(1);
                h.eval_naive(black_box(x))
            })
        });
    }

    // The begin-time table fill's shape: the hash at the set ids
    // 0..5·10⁴ by the range kernel, writing every value into one output
    // buffer.
    const KEYS: usize = 50_000;
    for independence in [4usize, 16, 64] {
        let h = PolyHash::new(independence, 1);
        let mut out = vec![0u64; KEYS];
        group.bench_function(format!("poly_hash_range_{independence}wise"), |b| {
            b.iter(|| {
                let mut slots = out.iter_mut();
                h.eval_range(0, KEYS, |v| *slots.next().unwrap() = v);
                black_box(out[KEYS - 1])
            })
        });
    }

    group.bench_function("alias_table_sample_4096", |b| {
        let weights: Vec<f64> = (0..4096).map(|j| ((j + 1) as f64).powf(-1.2)).collect();
        let table = osp_stats::AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(table.sample(&mut rng)))
    });

    group.bench_function("hash_priority_pipeline", |b| {
        // hash -> unit interval -> R_w quantile: one distributed priority.
        let h = PolyHash::new(8, 2);
        let rw = Rw::new(2.0).unwrap();
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            rw.from_uniform(h.unit(black_box(x)))
        })
    });

    group.bench_function("gf_mul_gf256", |b| {
        let f = Gf::new(256).unwrap();
        let mut x = 1u64;
        b.iter(|| {
            x = (x % 255) + 1;
            f.mul(black_box(x), black_box(193))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_priority
}
criterion_main!(benches);
