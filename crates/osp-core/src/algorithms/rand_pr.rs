//! Algorithm `randPr` (§3.1): random priorities from `R_w`, highest wins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::algorithm::{EngineView, OnlineAlgorithm};
use crate::instance::{Arrival, SetMeta};
use crate::priority::{Priority, Rw};
use crate::SetId;

use super::retain_top_b_by_key;

/// The paper's randomized algorithm:
///
/// > For each set `S ∈ C`, pick a random priority `r(S)` according to the
/// > distribution `R_{w(S)}`. Upon arrival of element `u` listing parent
/// > sets `C(u)` and capacity `b(u)`: assign `u` to the `b(u)` sets with the
/// > highest priority in `C(u)`.
///
/// Guarantees (all verified empirically by the `osp-bench` experiments):
/// `Pr[S completes] = w(S)/w(N[S])` under unit capacity (Lemma 1), and
/// competitive ratio at most `k_max·sqrt(σ·σ̄$ / σ̄$)` (Theorem 1), hence at
/// most `k_max·sqrt(σ_max)` (Corollary 6).
///
/// The optional *active filter* (an ablation, **not** the paper's
/// algorithm) restricts the choice to still-completable sets; it can only
/// help, and the `A2` experiment quantifies by how much.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// let out = run(&inst, &mut RandPr::from_seed(0))?;
/// assert_eq!(out.benefit(), 1.0); // uncontended element always completes
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandPr {
    rng: StdRng,
    priorities: Vec<Priority>,
    active_filter: bool,
}

impl RandPr {
    /// The paper's algorithm with a seeded RNG.
    pub fn from_seed(seed: u64) -> Self {
        RandPr {
            rng: StdRng::seed_from_u64(seed),
            priorities: Vec::new(),
            active_filter: false,
        }
    }

    /// Ablation variant that only ever assigns to still-active sets.
    pub fn with_active_filter(seed: u64) -> Self {
        RandPr {
            active_filter: true,
            ..RandPr::from_seed(seed)
        }
    }

    /// The priority drawn for `set` (after [`begin`](OnlineAlgorithm::begin)).
    ///
    /// # Panics
    ///
    /// Panics if called before the run started or with an out-of-range id.
    pub fn priority(&self, set: SetId) -> Priority {
        self.priorities[set.index()]
    }
}

impl OnlineAlgorithm for RandPr {
    fn name(&self) -> String {
        if self.active_filter {
            "randPr+active".into()
        } else {
            "randPr".into()
        }
    }

    /// Draws the priority table from `self.rng` in set order: each set
    /// with a valid `R_w` takes the quantile sample, then the tiebreak
    /// token; a set `R_w` rejects draws nothing.
    fn begin(&mut self, sets: &[SetMeta]) {
        self.priorities.clear();
        self.priorities.resize(sets.len(), Priority::zero());
        for (slot, s) in self.priorities.iter_mut().zip(sets) {
            *slot = match Rw::new(s.weight()) {
                // Tiebreak token makes the order total even under f64 ties.
                Ok(rw) => Priority::new(rw.sample(&mut self.rng), self.rng.gen()),
                // Weight-zero sets get the a.s. limit of R_w as w -> 0.
                Err(_) => Priority::zero(),
            };
        }
    }

    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>) {
        let b = arrival.capacity() as usize;
        if self.active_filter {
            // Stage the active members directly in the output buffer — no
            // intermediate `Vec` per query.
            out.extend(
                arrival
                    .members()
                    .iter()
                    .copied()
                    .filter(|&s| view.is_active(s)),
            );
        } else {
            out.extend_from_slice(arrival.members());
        }
        retain_top_b_by_key(out, b, |s| self.priorities[s.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::instance::InstanceBuilder;

    fn star_instance(load: usize) -> (crate::Instance, Vec<SetId>) {
        // `load` singleton sets all sharing one element.
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..load).map(|_| b.add_set(1.0, 1)).collect();
        b.add_element(1, &ids);
        (b.build().unwrap(), ids)
    }

    #[test]
    fn exactly_one_winner_on_a_star() {
        let (inst, _) = star_instance(10);
        for seed in 0..20 {
            let out = run(&inst, &mut RandPr::from_seed(seed)).unwrap();
            assert_eq!(out.completed().len(), 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (inst, _) = star_instance(10);
        let a = run(&inst, &mut RandPr::from_seed(7)).unwrap();
        let b = run(&inst, &mut RandPr::from_seed(7)).unwrap();
        assert_eq!(a.completed(), b.completed());
    }

    #[test]
    fn different_seeds_eventually_pick_different_winners() {
        let (inst, _) = star_instance(10);
        let winners: std::collections::HashSet<SetId> = (0..50)
            .map(|seed| {
                run(&inst, &mut RandPr::from_seed(seed))
                    .unwrap()
                    .completed()[0]
            })
            .collect();
        assert!(winners.len() > 3, "only {} distinct winners", winners.len());
    }

    #[test]
    fn lemma_1_uniform_weights_on_star() {
        // On a star of σ unit-weight singletons, each wins w.p. 1/σ.
        let sigma = 5;
        let (inst, ids) = star_instance(sigma);
        let trials = 20_000;
        let mut wins = vec![0u32; sigma];
        for seed in 0..trials {
            let out = run(&inst, &mut RandPr::from_seed(seed as u64)).unwrap();
            wins[out.completed()[0].index()] += 1;
        }
        let expect = trials as f64 / sigma as f64;
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                (w as f64 - expect).abs() < expect * 0.1,
                "set {} won {} times, expected ~{}",
                ids[i],
                w,
                expect
            );
        }
    }

    #[test]
    fn heavier_sets_win_proportionally_more() {
        // Two sets, weights 1 and 3, sharing one element:
        // Pr[heavy wins] = 3/4 by Lemma 1.
        let mut b = InstanceBuilder::new();
        let light = b.add_set(1.0, 1);
        let heavy = b.add_set(3.0, 1);
        b.add_element(1, &[light, heavy]);
        let inst = b.build().unwrap();
        let trials = 40_000;
        let mut heavy_wins = 0u32;
        for seed in 0..trials {
            let out = run(&inst, &mut RandPr::from_seed(seed as u64)).unwrap();
            if out.completed()[0] == heavy {
                heavy_wins += 1;
            }
        }
        let frac = heavy_wins as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.02, "heavy won {frac}");
    }

    #[test]
    fn zero_weight_set_always_loses_contests() {
        let mut b = InstanceBuilder::new();
        let z = b.add_set(0.0, 1);
        let w = b.add_set(1.0, 1);
        b.add_element(1, &[z, w]);
        let inst = b.build().unwrap();
        for seed in 0..50 {
            let out = run(&inst, &mut RandPr::from_seed(seed)).unwrap();
            assert_eq!(out.completed(), &[w]);
        }
    }

    #[test]
    fn capacity_b_takes_b_sets() {
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..6).map(|_| b.add_set(1.0, 1)).collect();
        b.add_element(3, &ids);
        let inst = b.build().unwrap();
        let out = run(&inst, &mut RandPr::from_seed(2)).unwrap();
        assert_eq!(out.completed().len(), 3);
    }

    #[test]
    fn active_filter_never_wastes_capacity_on_dead_sets() {
        // s0 dies at e0 (loses to s1); at e1, plain randPr may waste the
        // slot on s0, the filtered variant must give it to s2.
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(10.0, 2); // heavy: wins e0 priority-wise... unless
        let s1 = b.add_set(10.0, 1);
        let s2 = b.add_set(0.5, 1);
        b.add_element(1, &[s0, s1]);
        b.add_element(1, &[s0, s2]);
        let inst = b.build().unwrap();
        for seed in 0..100 {
            let mut alg = RandPr::with_active_filter(seed);
            let out = run(&inst, &mut alg).unwrap();
            // Whichever of s0/s1 lost e0 is dead; e1 must then not be
            // wasted: if s0 died, s2 completes.
            let s0_died = !out.is_completed(s0);
            if s0_died {
                assert!(
                    out.is_completed(s2),
                    "seed {seed}: filtered randPr wasted e1"
                );
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(RandPr::from_seed(0).name(), "randPr");
        assert_eq!(RandPr::with_active_filter(0).name(), "randPr+active");
    }

    #[test]
    fn parallel_begin_leaves_the_rng_where_serial_did() {
        // Two consecutive begins against a hand-walked SplitMix64 stream:
        // a set with a valid R_w takes two words (the uniform for the
        // quantile, then the tiebreak), a zero-weight set takes none, and
        // the second begin picks up exactly where the first left off.
        use rand::RngCore;
        let sets: Vec<SetMeta> = (0..37)
            .map(|i| SetMeta::new(if i % 5 == 0 { 0.0 } else { 1.5 }, 1))
            .collect();
        let mut walked = StdRng::seed_from_u64(99);
        let mut walk = |sets: &[SetMeta]| -> Vec<Priority> {
            sets.iter()
                .map(|s| match Rw::new(s.weight()) {
                    Ok(rw) => {
                        let u = (walked.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        Priority::new(rw.quantile(u), walked.next_u64())
                    }
                    Err(_) => Priority::zero(),
                })
                .collect()
        };
        let first = walk(&sets);
        let second = walk(&sets);
        assert_ne!(first, second, "stream must advance between begins");

        let mut alg = RandPr::from_seed(99);
        alg.begin(&sets);
        assert_eq!(alg.priorities, first);
        alg.begin(&sets);
        assert_eq!(alg.priorities, second);
        assert_eq!(alg.rng.next_u64(), walked.next_u64());
    }
}
