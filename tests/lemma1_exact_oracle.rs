//! Lemma 1 as an exact oracle for the expected benefit.
//!
//! Under unit capacity, randPr completes S exactly when S holds the
//! highest priority in its closed neighbourhood N[S], which happens with
//! probability w(S)/w(N[S]) whatever the arrival order (Lemma 1). So
//!
//! E[benefit] = Σ_S w(S)² / w(N[S])
//!
//! exactly, in O(Σ|C(u)|²) time and with no enumeration of outcomes.
//! hashPr has the same expectation wherever the hash ranks N[S]
//! uniformly: a t-wise independent hash does so once |N[S]| ≤ t, up to
//! the 2⁻⁶¹ grid of its values. On the bi-regular class |N[S]| ≤
//! 1 + k(σ − 1), which is why §3.1 asks for k·σ-wise independence.
//!
//! Each job runs through `run_spec`; its own instance is materialized
//! with `biregular_instance` from the same seed, and the exact E is
//! computed for it. Over 64 seeds, the mean of (benefit − E) must lie
//! within 5 standard errors of 0. That catches an engine that lets a
//! set through a contest it lost (one element in eight reads about 14
//! standard errors at m = 2,000) or a hash that ranks neighbourhoods
//! unevenly. Every set here weighs 1, so the rows cannot see a biased
//! `R_w` quantile; that needs a weighted row.

use rand::rngs::StdRng;
use rand::SeedableRng;

use osp::core::gen::biregular_instance;
use osp::core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
use osp::opt::conflict::{closed_neighborhoods, neighborhood_weights};

/// Seeds per row.
const SEEDS: u64 = 64;

/// How far from 0, in standard errors, the mean difference may lie.
const Z_BOUND: f64 = 5.0;

/// Set size and element load of the replay-biregular shape.
const K: u32 = 4;
const SIGMA: u32 = 16;

/// The two rows: randPr, and hashPr at 64-wise independence.
fn algorithms() -> [AlgorithmSpec; 2] {
    [
        AlgorithmSpec::RandPr,
        AlgorithmSpec::HashRandPr { independence: 64 },
    ]
}

/// Runs every row on `biregular m, k = 4, σ = 16` over [`SEEDS`] seeds,
/// asserts each row's mean of (benefit − E) within [`Z_BOUND`] standard
/// errors of 0, and returns each row's mean in standard errors.
fn lemma_1_z_scores(m: usize) -> Vec<f64> {
    let scenario = ScenarioSpec::Biregular {
        num_sets: m,
        set_size: K,
        load: SIGMA,
    };
    let rows = algorithms();
    let mut diffs = vec![Vec::new(); rows.len()];
    for seed in 0..SEEDS {
        let instance = biregular_instance(m, K, SIGMA, &mut StdRng::seed_from_u64(seed))
            .expect("the scenario builds");
        assert!(instance.arrivals().into_iter().all(|a| a.capacity() == 1));
        let widest = closed_neighborhoods(&instance)
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let expected: f64 = instance
            .sets()
            .iter()
            .zip(neighborhood_weights(&instance))
            .map(|(set, nb)| set.weight() * set.weight() / nb)
            .sum();
        for (algorithm, diffs) in rows.iter().zip(&mut diffs) {
            if let AlgorithmSpec::HashRandPr { independence } = *algorithm {
                assert!(
                    widest <= independence,
                    "seed {seed}: |N[S]| = {widest} > t = {independence}, so the row is not exact"
                );
            }
            let job = JobSpec {
                scenario: scenario.clone(),
                algorithm: algorithm.clone(),
                seed,
            };
            let outcome = run_spec(&job, &CoreResolver).expect("the job runs");
            diffs.push(outcome.benefit() - expected);
        }
    }
    rows.iter()
        .zip(&diffs)
        .map(|(algorithm, diffs)| {
            let n = diffs.len() as f64;
            let mean = diffs.iter().sum::<f64>() / n;
            let variance = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1.0);
            let standard_error = (variance / n).sqrt();
            assert!(
                standard_error > 0.0,
                "{}: benefit never varied",
                algorithm.label()
            );
            let z = mean / standard_error;
            assert!(
                z.abs() <= Z_BOUND,
                "{} on biregular m={m}: mean benefit − E = {mean:.3} is {z:.2} standard \
                 errors ({standard_error:.3}) from 0",
                algorithm.label()
            );
            z
        })
        .collect()
}

#[test]
fn mean_benefit_matches_lemma_1_on_biregular() {
    lemma_1_z_scores(2_000);
}

#[test]
#[ignore = "64 replay-biregular-sized jobs per row; run with `cargo test --release -- --ignored`"]
fn mean_benefit_matches_lemma_1_at_the_replay_biregular_shape() {
    for (algorithm, z) in algorithms().iter().zip(lemma_1_z_scores(50_000)) {
        eprintln!("{}: z = {z:.2}", algorithm.label());
    }
}
