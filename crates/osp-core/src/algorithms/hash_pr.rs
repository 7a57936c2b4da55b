//! The distributed implementation of `randPr` via a system-wide hash
//! function (§3.1).
//!
//! > "All we need is a system-wide hash function `h`: applying `h` to the
//! > identifier of each set `S ∈ C(u)`, we can use `h(S)` as the random
//! > priority of `S`. [...] it suffices for the hash function to have
//! > `k_max · σ_max`-wise independence."
//!
//! [`HashRandPr`] derives each set's priority by feeding the hash output
//! (uniform on `[0,1)`) through the `R_w` quantile function. Because the
//! hash is a pure function of the *set identifier* and the shared seed, any
//! number of servers instantiated with the same seed make byte-identical
//! decisions without exchanging a single message — the
//! `multihop` experiment and the `distributed_consistency` integration test
//! demonstrate exactly that.

use osp_gf::hash::{PolyHash, MERSENNE_61};

use crate::algorithm::{EngineView, OnlineAlgorithm};
use crate::instance::{Arrival, SetMeta};
use crate::priority::{Priority, Rw};
use crate::SetId;

use super::retain_top_b_by_key;

/// The one place a raw hash word becomes a [`Priority`]: the hash output
/// mapped to `[0, 1)` is fed through the `R_w` quantile, and the raw word
/// doubles as the deterministic tiebreak so replicas break ties
/// identically too.
#[inline]
fn priority_from_raw(raw: u64, weight: f64) -> Priority {
    match Rw::new(weight) {
        Ok(rw) => {
            let u = raw as f64 / MERSENNE_61 as f64;
            Priority::new(rw.from_uniform(u), raw)
        }
        // Weight-zero sets get the a.s. limit of R_w as w -> 0.
        Err(_) => Priority::zero(),
    }
}

/// Distributed `randPr`: priorities from a shared limited-independence
/// polynomial hash instead of private randomness.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// // Two replicas with the same seed decide identically.
/// let mut b = InstanceBuilder::new();
/// let s0 = b.add_set(1.0, 1);
/// let s1 = b.add_set(1.0, 1);
/// b.add_element(1, &[s0, s1]);
/// let inst = b.build()?;
/// let a = run(&inst, &mut HashRandPr::new(8, 42))?;
/// let b2 = run(&inst, &mut HashRandPr::new(8, 42))?;
/// assert_eq!(a.completed(), b2.completed());
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct HashRandPr {
    hash: PolyHash,
    priorities: Vec<Priority>,
}

impl HashRandPr {
    /// Creates the algorithm with a hash drawn from the `independence`-wise
    /// independent family under `seed`. The paper's analysis wants
    /// `independence ≥ k_max · σ_max`; the `A2` ablation experiment measures
    /// how little independence is enough in practice.
    ///
    /// # Panics
    ///
    /// Panics if `independence == 0`.
    pub fn new(independence: usize, seed: u64) -> Self {
        HashRandPr {
            hash: PolyHash::new(independence, seed),
            priorities: Vec::new(),
        }
    }

    /// The independence level of the underlying hash family.
    pub fn independence(&self) -> usize {
        self.hash.independence()
    }

    /// The priority assigned to `set` (after the run started).
    ///
    /// # Panics
    ///
    /// Panics if called before the run started or with an out-of-range id.
    pub fn priority(&self, set: SetId) -> Priority {
        self.priorities[set.index()]
    }
}

impl OnlineAlgorithm for HashRandPr {
    fn name(&self) -> String {
        format!("hashPr({}-wise)", self.hash.independence())
    }

    /// Hashes the set ids `0..m` in one [`PolyHash::eval_range`] call and
    /// writes each slot straight from the visited value: one polynomial
    /// evaluation per set, no staging buffer.
    fn begin(&mut self, sets: &[SetMeta]) {
        self.priorities.clear();
        self.priorities.resize(sets.len(), Priority::zero());
        let mut targets = self.priorities.iter_mut().zip(sets);
        self.hash.eval_range(0, sets.len(), |raw| {
            let (slot, set) = targets.next().expect("one value per slot");
            *slot = priority_from_raw(raw, set.weight());
        });
    }

    fn decide_into(&mut self, arrival: &Arrival<'_>, _view: &EngineView<'_>, out: &mut Vec<SetId>) {
        out.extend_from_slice(arrival.members());
        retain_top_b_by_key(out, arrival.capacity() as usize, |s| {
            self.priorities[s.index()]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::instance::InstanceBuilder;

    fn star(load: usize) -> crate::Instance {
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..load).map(|_| b.add_set(1.0, 1)).collect();
        b.add_element(1, &ids);
        b.build().unwrap()
    }

    #[test]
    fn replicas_agree() {
        let inst = star(12);
        let out1 = run(&inst, &mut HashRandPr::new(4, 99)).unwrap();
        let out2 = run(&inst, &mut HashRandPr::new(4, 99)).unwrap();
        assert_eq!(out1.completed(), out2.completed());
        assert_eq!(out1.digest(), out2.digest());
    }

    #[test]
    fn different_seeds_give_different_priorities() {
        let inst = star(12);
        let winners: std::collections::HashSet<SetId> = (0..40)
            .map(|seed| {
                run(&inst, &mut HashRandPr::new(4, seed))
                    .unwrap()
                    .completed()[0]
            })
            .collect();
        assert!(winners.len() > 3);
    }

    #[test]
    fn hash_winners_are_roughly_uniform() {
        // Over many seeds, each of the σ sets should win about equally
        // often (the hash family is 4-wise independent).
        let sigma = 4;
        let inst = star(sigma);
        let trials = 4_000u64;
        let mut wins = vec![0u32; sigma];
        for seed in 0..trials {
            let out = run(&inst, &mut HashRandPr::new(4, seed)).unwrap();
            wins[out.completed()[0].index()] += 1;
        }
        let expect = trials as f64 / sigma as f64;
        for &w in &wins {
            assert!((w as f64 - expect).abs() < expect * 0.15, "wins {wins:?}");
        }
    }

    #[test]
    fn weighted_hash_priorities_respect_lemma_1_roughly() {
        let mut b = InstanceBuilder::new();
        let light = b.add_set(1.0, 1);
        let heavy = b.add_set(3.0, 1);
        b.add_element(1, &[light, heavy]);
        let inst = b.build().unwrap();
        let trials = 10_000u64;
        let mut heavy_wins = 0u32;
        for seed in 0..trials {
            let out = run(&inst, &mut HashRandPr::new(8, seed)).unwrap();
            if out.completed()[0] == heavy {
                heavy_wins += 1;
            }
        }
        let frac = heavy_wins as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.03, "heavy won {frac}");
    }

    #[test]
    fn name_reflects_independence() {
        assert_eq!(HashRandPr::new(16, 0).name(), "hashPr(16-wise)");
    }

    fn mixed_weight_sets(m: usize) -> Vec<SetMeta> {
        (0..m)
            .map(|i| {
                let w = match i % 5 {
                    0 => 0.0, // rejected by R_w: Priority::zero()
                    r => r as f64 * 0.7,
                };
                SetMeta::new(w, 1 + (i % 3) as u32)
            })
            .collect()
    }

    #[test]
    fn table_matches_scalar_eval_at_every_shard_count() {
        // Against a reference built key by key with scalar `eval`, at
        // table lengths on both sides of the independence t: ranges
        // shorter than t keys take `eval_range`'s scalar path, longer
        // ones its forward differences.
        for t in [8usize, 64] {
            let hash = PolyHash::new(t, 23);
            for m in [0, 1, t - 1, t, t + 1, 1000] {
                let sets = mixed_weight_sets(m);
                let want: Vec<Priority> = sets
                    .iter()
                    .enumerate()
                    .map(|(i, set)| priority_from_raw(hash.eval(i as u64), set.weight()))
                    .collect();
                let mut alg = HashRandPr::new(t, 23);
                alg.begin(&sets);
                assert_eq!(alg.priorities, want, "t={t}, m={m}");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn begin_evaluates_the_polynomial_exactly_once_per_set() {
        // Regression: `begin` used to call both `unit(i)` and `eval(i)`,
        // evaluating the polynomial twice per set. The raw hash is now
        // computed once and the unit value derived from it.
        use osp_gf::hash::eval_count;
        let sets = mixed_weight_sets(157);
        let mut alg = HashRandPr::new(8, 5);
        eval_count::reset();
        alg.begin(&sets);
        assert_eq!(eval_count::get(), sets.len() as u64);
    }

    fn contested_instance() -> crate::Instance {
        // Several arrivals with overlapping parent lists and capacities
        // above 1, so both the pruning and the no-pruning decide paths run.
        let mut b = InstanceBuilder::new();
        // Each set's declared size = how many of the four elements below
        // list it (the builder checks the two agree).
        let sizes = [1u32, 1, 2, 2, 3, 2, 3, 3, 3, 2, 2, 2, 1, 1];
        let ids: Vec<SetId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| b.add_set(0.5 + (i % 4) as f64, sz))
            .collect();
        b.add_element(2, &ids[0..9]);
        b.add_element(1, &ids[4..12]);
        b.add_element(3, &ids[2..5]); // capacity >= candidates: no pruning
        b.add_element(2, &ids[6..14]);
        b.build().unwrap()
    }

    /// Replays `inst` logging every decision, and checks each one keeps
    /// exactly the `b` candidates with the highest priorities computed key
    /// by key with scalar `eval` (compared as sets; the order within a
    /// decision is the selection's).
    fn assert_decisions_keep_the_top_b(inst: &crate::Instance, independence: usize, seed: u64) {
        use crate::engine::{run_source_logged, DecisionLog};
        let hash = PolyHash::new(independence, seed);
        let mut log = DecisionLog::new();
        let mut alg = HashRandPr::new(independence, seed);
        let mut scratch = crate::ReplayScratch::new();
        run_source_logged(&mut inst.source(), &mut alg, &mut scratch, Some(&mut log)).unwrap();
        assert_eq!(log.len(), inst.arrivals().len());
        for (i, (arrival, decision)) in inst.arrivals().into_iter().zip(&log).enumerate() {
            let mut want = arrival.members().to_vec();
            want.sort_unstable_by_key(|&s| {
                std::cmp::Reverse(priority_from_raw(
                    hash.eval(s.index() as u64),
                    inst.set(s).weight(),
                ))
            });
            want.truncate(arrival.capacity() as usize);
            want.sort_unstable();
            let mut got = decision.to_vec();
            got.sort_unstable();
            assert_eq!(
                got, want,
                "independence {independence}, seed {seed}, arrival {i}"
            );
        }
    }

    #[test]
    fn contested_decisions_keep_the_top_b_scalar_priorities() {
        let inst = contested_instance();
        for seed in 0..25u64 {
            assert_decisions_keep_the_top_b(&inst, 8, seed);
        }
    }

    #[test]
    fn wide_arrival_decisions_keep_the_top_b_scalar_priorities() {
        // Arrivals listing hundreds of candidates, at the default and the
        // paper-realistic independence. Zero-weight sets hit the
        // Priority::zero() lane.
        let m = 209;
        let narrow = 133;
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..m)
            .map(|i| {
                let w = if i % 13 == 0 {
                    0.0
                } else {
                    0.5 + (i % 5) as f64
                };
                b.add_set(w, if i < narrow { 4 } else { 3 })
            })
            .collect();
        b.add_element(2, &ids);
        b.add_element(5, &ids[..narrow]);
        b.add_element(1, &ids);
        b.add_element(3, &ids);
        let inst = b.build().unwrap();
        for independence in [8usize, 64] {
            for seed in 0..4u64 {
                assert_decisions_keep_the_top_b(&inst, independence, seed);
            }
        }
    }
}
