//! `lemma1` — statistical verification of Lemma 1.
//!
//! Lemma 1: under unit capacity, `Pr[S ∈ alg] = w(S)/w(N[S])` for `randPr`.
//! We run many seeded executions on fixed weighted systems and compare the
//! empirical completion frequency of every set to the exact prediction,
//! with 99% confidence intervals.

use osp_core::algorithms::RandPr;
use osp_core::{run_source_with_scratch, Instance, InstanceBuilder, SetId};
use osp_opt::conflict::neighborhood_weights;
use osp_stats::{SeedSequence, Summary};

use crate::pool::{draw_seeds, pool};

use crate::report::{NamedTable, Report};
use crate::Scale;

/// A named fixture instance.
fn fixtures() -> Vec<(&'static str, Instance)> {
    let mut out = Vec::new();

    // Weighted star: four singletons of weights 1..4 on one element.
    let mut b = InstanceBuilder::new();
    let ids: Vec<SetId> = (1..=4).map(|w| b.add_set(f64::from(w), 1)).collect();
    b.add_element(1, &ids);
    out.push(("weighted star (w = 1,2,3,4)", b.build().unwrap()));

    // Chain: s0-{e0}-s1-{e1}-s2, mixed weights and sizes.
    let mut b = InstanceBuilder::new();
    let s0 = b.add_set(2.0, 1);
    let s1 = b.add_set(1.0, 2);
    let s2 = b.add_set(3.0, 1);
    b.add_element(1, &[s0, s1]);
    b.add_element(1, &[s1, s2]);
    out.push(("chain s0–s1–s2 (w = 2,1,3)", b.build().unwrap()));

    // Two-element frame against fresh singletons (the motivating shape).
    let mut b = InstanceBuilder::new();
    let frame = b.add_set(2.0, 2);
    let r0 = b.add_set(1.0, 1);
    let r1 = b.add_set(1.5, 1);
    b.add_element(1, &[frame, r0]);
    b.add_element(1, &[frame, r1]);
    out.push((
        "frame vs fresh rivals (w = 2 vs 1, 1.5)",
        b.build().unwrap(),
    ));

    out
}

/// Runs the experiment.
pub fn run(scale: Scale, seed: u64) -> Report {
    let trials: u32 = scale.pick(20_000, 200_000);
    let mut seeds = SeedSequence::new(seed).child("lemma1");

    let mut report = Report::new(
        "lemma1",
        "Lemma 1: Pr[S ∈ alg] = w(S)/w(N[S])",
        "For randPr on unit-capacity instances, each set completes with probability exactly \
         its weight divided by the total weight of its closed neighborhood.",
    );

    let mut all_ok = true;
    for (name, inst) in fixtures() {
        let nbw = neighborhood_weights(&inst);
        let m = inst.num_sets();
        let mut completions: Vec<Summary> = vec![Summary::new(); m];
        let trial_seeds = draw_seeds(&mut seeds, trials as usize);
        for out in pool().map(&trial_seeds, |scratch, _, &s| {
            run_source_with_scratch(&mut inst.source(), &mut RandPr::from_seed(s), scratch)
                .expect("randPr emits valid decisions")
        }) {
            for (i, s) in completions.iter_mut().enumerate() {
                s.add(if out.is_completed(SetId(i as u32)) {
                    1.0
                } else {
                    0.0
                });
            }
        }

        let mut table = NamedTable::new(
            &format!("{name} — {trials} trials"),
            &[
                "set",
                "w(S)",
                "w(N[S])",
                "predicted",
                "empirical",
                "99% CI",
                "CI hit",
            ],
        );
        for i in 0..m {
            let sid = SetId(i as u32);
            let w = inst.set(sid).weight();
            let predicted = w / nbw[i];
            let ci = completions[i].confidence_interval(0.99);
            let hit = ci.contains(predicted);
            all_ok &= hit;
            table.row(vec![
                sid.to_string(),
                format!("{w:.2}"),
                format!("{:.2}", nbw[i]),
                format!("{predicted:.5}"),
                format!("{:.5}", completions[i].mean()),
                format!("[{:.5}, {:.5}]", ci.lo, ci.hi),
                hit.to_string(),
            ]);
        }
        report.table(table);
    }
    report.note(if all_ok {
        "Verdict: every predicted probability falls inside its 99% confidence interval."
    } else {
        "Verdict: at least one prediction fell outside its 99% CI — inspect the table."
    });
    report
}
