//! `thm2` — the randomized lower bound distribution in action.
//!
//! Lemma 9 gives a distribution where `opt ≥ ℓ³` yet every deterministic
//! algorithm completes only `O((log ℓ / log log ℓ)²)` sets in expectation.
//! We sample the distribution for growing `ℓ`, average each deterministic
//! baseline (and `randPr`) over samples, and chart the witnessed ratio
//! against the Theorem 2 trend `k_max (log log k / log k)² sqrt(σ_max)`.
//! The weak §4.2 construction is included as a second table.

use osp_adversary::gadget_lb::gadget_lower_bound;
use osp_adversary::weak::weak_lower_bound;
use osp_core::algorithms::{GreedyOnline, RandPr, TieBreak};
use osp_core::bounds::theorem_2_lower;
use osp_core::stats::InstanceStats;
use osp_core::{run_source_with_scratch, Instance, OnlineAlgorithm};
use osp_stats::{SeedSequence, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::pool;
use crate::report::{NamedTable, Report};
use crate::Scale;

/// Algorithm selectors for the batched replay jobs.
const FIRST_FIT: usize = 0;
const BY_WEIGHT: usize = 1;
const FEWEST_REMAINING: usize = 2;
const RAND_PR: usize = 3;

fn alg_factory(alg: usize, seed: u64) -> Box<dyn OnlineAlgorithm> {
    match alg {
        FIRST_FIT => Box::new(GreedyOnline::new(TieBreak::ByIndex)),
        BY_WEIGHT => Box::new(GreedyOnline::new(TieBreak::ByWeight)),
        FEWEST_REMAINING => Box::new(GreedyOnline::new(TieBreak::ByFewestRemaining)),
        _ => Box::new(RandPr::from_seed(seed)),
    }
}

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let ells: &[u64] = scale.pick(&[3, 4], &[3, 4, 5, 7, 8]);
    let samples: usize = scale.pick(2, 5);
    let mut seeds = SeedSequence::new(seed).child("thm2");

    let mut report = Report::new(
        "thm2",
        "Theorem 2: the randomized lower bound distribution",
        "On the Lemma 9 distribution, opt ≥ ℓ³ while deterministic algorithms complete \
         O((log ℓ/log log ℓ)²) sets in expectation; the induced ratio grows like \
         Ω(k_max (log log k/log k)² sqrt(σ_max)). Polylog-many completions against a \
         cubically growing optimum is the shape to verify.",
    );

    let mut table = NamedTable::new(
        "Lemma 9 distribution — mean completed sets over samples",
        &[
            "ℓ",
            "opt (ℓ³)",
            "first-fit",
            "by-weight",
            "fewest-rem",
            "randPr",
            "ratio (ff)",
            "Thm2 trend",
            "polylog² (log ℓ/log log ℓ)²",
        ],
    );
    for &ell in ells {
        let mut ff = Summary::new();
        let mut bw = Summary::new();
        let mut fr = Summary::new();
        let mut rp = Summary::new();
        let mut trend = 0.0;
        // Draw all seeds sequentially (generation seed, then randPr seed,
        // per sample — the pre-batching order), then fan the replays out.
        let mut instances = Vec::with_capacity(samples);
        let mut rp_seeds = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut rng = StdRng::seed_from_u64(seeds.next_seed());
            let g = gadget_lower_bound(ell, &mut rng).expect("prime power");
            let st = InstanceStats::compute(&g.instance);
            trend = theorem_2_lower(st.k_max, st.sigma_max);
            instances.push(g.instance);
            rp_seeds.push(seeds.next_seed());
        }
        let jobs: Vec<(&Instance, usize, u64)> = instances
            .iter()
            .zip(&rp_seeds)
            .flat_map(|(instance, &seed)| {
                [FIRST_FIT, BY_WEIGHT, FEWEST_REMAINING, RAND_PR]
                    .into_iter()
                    .map(move |algorithm| (instance, algorithm, seed))
            })
            .collect();
        let outcomes = pool().map(&jobs, |scratch, _, &(instance, algorithm, seed)| {
            run_source_with_scratch(
                &mut instance.source(),
                alg_factory(algorithm, seed).as_mut(),
                scratch,
            )
        });
        for (&(_, algorithm, _), out) in jobs.iter().zip(outcomes) {
            let benefit = out.expect("built-in algorithms are valid").benefit();
            match algorithm {
                FIRST_FIT => ff.add(benefit),
                BY_WEIGHT => bw.add(benefit),
                FEWEST_REMAINING => fr.add(benefit),
                _ => rp.add(benefit),
            }
        }
        let opt = ell.pow(3) as f64;
        let l = ell as f64;
        let polylog = (l.ln() / l.ln().ln().max(0.1)).powi(2);
        table.row(vec![
            ell.to_string(),
            format!("{opt:.0}"),
            format!("{:.1}", ff.mean()),
            format!("{:.1}", bw.mean()),
            format!("{:.1}", fr.mean()),
            format!("{:.1}", rp.mean()),
            format!("{:.1}", opt / ff.mean().max(1.0)),
            format!("{trend:.1}"),
            format!("{polylog:.1}"),
        ]);
    }
    report.table(table);

    // Weak construction sweep.
    let ts: &[usize] = scale.pick(&[8, 16], &[8, 16, 32, 64]);
    let mut weak_table = NamedTable::new(
        "Weak §4.2 construction (t² sets, opt = t)",
        &[
            "t",
            "opt",
            "first-fit completed",
            "randPr completed",
            "ratio (ff)",
            "ln t",
        ],
    );
    for &t in ts {
        let mut ff = Summary::new();
        let mut rp = Summary::new();
        let mut instances = Vec::with_capacity(samples);
        let mut rp_seeds = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut rng = StdRng::seed_from_u64(seeds.next_seed());
            let w = weak_lower_bound(t, &mut rng).expect("valid t");
            instances.push(w.instance);
            rp_seeds.push(seeds.next_seed());
        }
        let jobs: Vec<(&Instance, usize, u64)> = instances
            .iter()
            .zip(&rp_seeds)
            .flat_map(|(instance, &seed)| {
                [FIRST_FIT, RAND_PR]
                    .into_iter()
                    .map(move |algorithm| (instance, algorithm, seed))
            })
            .collect();
        let outcomes = pool().map(&jobs, |scratch, _, &(instance, algorithm, seed)| {
            run_source_with_scratch(
                &mut instance.source(),
                alg_factory(algorithm, seed).as_mut(),
                scratch,
            )
        });
        for (&(_, algorithm, _), out) in jobs.iter().zip(outcomes) {
            let benefit = out.expect("built-in algorithms are valid").benefit();
            match algorithm {
                FIRST_FIT => ff.add(benefit),
                _ => rp.add(benefit),
            }
        }
        weak_table.row(vec![
            t.to_string(),
            t.to_string(),
            format!("{:.1}", ff.mean()),
            format!("{:.1}", rp.mean()),
            format!("{:.1}", t as f64 / ff.mean().max(1.0)),
            format!("{:.1}", (t as f64).ln()),
        ]);
    }
    report.table(weak_table);
    report.note(
        "Verdict criteria: completions stay polylogarithmic in ℓ (resp. ~log t for the weak \
         construction) while opt grows as ℓ³ (resp. t), so the witnessed ratio grows with \
         the Theorem 2 trend. randPr is subject to the same distribution — no algorithm, \
         randomized or not, escapes.",
    );
    report
}
