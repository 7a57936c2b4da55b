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
use crate::engine::batch::env_parallelism;
use crate::engine::prologue;
use crate::instance::{Arrival, SetMeta};
use crate::priority::{Priority, Rw};
use crate::SetId;

use super::{retain_top_b_by_key, retain_top_b_scored};

/// Lane-sized staging buffers for the lazy mode's chunked
/// [`PolyHash::eval_batch`] calls: 64 candidate keys per round trip keeps
/// the buffers on the stack (the warm per-arrival path stays
/// allocation-free) while amortizing the batch call overhead.
const BATCH_CHUNK: usize = 64;

/// The one place a raw hash word becomes a [`Priority`]: the hash output
/// mapped to `[0, 1)` is fed through the `R_w` quantile, and the raw word
/// doubles as the deterministic tiebreak so replicas break ties
/// identically too. Both the `begin`-time table fill and the lazy
/// per-arrival scoring path call this, which is what keeps the two modes
/// bit-identical — one polynomial evaluation per key, everywhere.
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
    /// Lazy mode: skip the O(m) `begin`-time table and score each
    /// arrival's candidates on the fly with `eval_batch`.
    lazy: bool,
    /// Recycled candidate-scoring buffer for the lazy path (grows to the
    /// widest arrival once, then the hot path stays allocation-free).
    scored: Vec<(Priority, SetId)>,
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
            lazy: false,
            scored: Vec::new(),
        }
    }

    /// The table-free variant: `begin` builds **no** O(m) priority table;
    /// instead every arrival's candidates are hashed on the spot with
    /// [`PolyHash::eval_batch`] (chunked through stack buffers) and the
    /// top `b` retained — decisions are bit-identical to [`new`](Self::new)
    /// with the same parameters, because both modes derive each priority
    /// from the same single evaluation via the same transform. Trades
    /// per-arrival arithmetic for O(m) memory: the right mode when m is
    /// huge and each replay touches only a sliver of the sets.
    ///
    /// # Panics
    ///
    /// Panics if `independence == 0`.
    pub fn new_lazy(independence: usize, seed: u64) -> Self {
        HashRandPr {
            lazy: true,
            ..HashRandPr::new(independence, seed)
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
    /// Panics if called before the run started, with an out-of-range id,
    /// or on a [`new_lazy`](Self::new_lazy) instance (which builds no
    /// table).
    pub fn priority(&self, set: SetId) -> Priority {
        self.priorities[set.index()]
    }

    /// Builds the priority table over an explicit prologue thread count —
    /// the seam [`begin`](OnlineAlgorithm::begin) rides with the
    /// `OSP_PROLOGUE_THREADS` policy value, exposed so conformance tests
    /// and benchmarks can pin any shard count without touching the
    /// process environment. Each shard hashes its consecutive set ids in
    /// one [`PolyHash::eval_range`] call, seeding its own forward
    /// differences, and writes every slot straight from the visited
    /// value — one polynomial evaluation per set, no staging buffer.
    /// Each slot is a pure function of `(hash, index, weight)` and the
    /// range kernel is exact, so every thread count writes the same bytes.
    pub fn begin_with_threads(&mut self, sets: &[SetMeta], threads: usize) {
        let hash = &self.hash;
        self.priorities = prologue::build_table(
            sets.len(),
            Priority::zero(),
            threads,
            &|start, slots: &mut [Priority]| {
                let len = slots.len();
                let mut targets = slots.iter_mut().zip(&sets[start..]);
                hash.eval_range(start as u64, len, |raw| {
                    let (slot, set) = targets.next().expect("one value per slot");
                    *slot = priority_from_raw(raw, set.weight());
                });
            },
        );
    }
}

impl OnlineAlgorithm for HashRandPr {
    fn name(&self) -> String {
        format!("hashPr({}-wise)", self.hash.independence())
    }

    fn begin(&mut self, sets: &[SetMeta]) {
        if self.lazy {
            self.priorities.clear();
            return;
        }
        self.begin_with_threads(sets, env_parallelism(prologue::PROLOGUE_THREADS_VAR));
    }

    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>) {
        out.extend_from_slice(arrival.members());
        let b = arrival.capacity() as usize;
        if !self.lazy {
            retain_top_b_by_key(out, b, |s| self.priorities[s.index()]);
            return;
        }
        // Table-free path: hash the staged candidates in eval_batch
        // chunks through stack buffers into the recycled `scored` pairs,
        // then retain the top b. `retain_top_b_scored` runs the same
        // selection over the same comparator results as the table path's
        // `retain_top_b_by_key`, so the survivors (and their order) are
        // bit-identical.
        let hash = &self.hash;
        retain_top_b_scored(out, b, &mut self.scored, |candidates, scored| {
            let mut keys = [0u64; BATCH_CHUNK];
            let mut raws = [0u64; BATCH_CHUNK];
            for chunk in candidates.chunks(BATCH_CHUNK) {
                let k = chunk.len();
                for (key, s) in keys.iter_mut().zip(chunk) {
                    *key = s.index() as u64;
                }
                hash.eval_batch(&keys[..k], &mut raws[..k]);
                scored.extend(
                    chunk
                        .iter()
                        .zip(&raws[..k])
                        .map(|(&s, &raw)| (priority_from_raw(raw, view.set(s).weight()), s)),
                );
            }
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
    fn prologue_shard_counts_build_identical_tables() {
        let sets = mixed_weight_sets(193); // prime: uneven chunks everywhere
        let mut reference = HashRandPr::new(8, 11);
        reference.begin_with_threads(&sets, 1);
        for threads in [2usize, 3, 8, 64] {
            let mut sharded = HashRandPr::new(8, 11);
            sharded.begin_with_threads(&sets, threads);
            assert_eq!(
                sharded.priorities, reference.priorities,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn table_matches_scalar_eval_at_every_shard_count() {
        // Against a reference built key by key with scalar `eval`: at
        // t = 64 and m = 1000, shards of 1000/8 keys and more take the
        // difference path, shards of 1000/64 keys the batch path.
        let sets = mixed_weight_sets(1000);
        let hash = PolyHash::new(64, 23);
        let want: Vec<Priority> = sets
            .iter()
            .enumerate()
            .map(|(i, set)| priority_from_raw(hash.eval(i as u64), set.weight()))
            .collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let mut alg = HashRandPr::new(64, 23);
            alg.begin_with_threads(&sets, threads);
            assert_eq!(alg.priorities, want, "threads={threads}");
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
        // One thread: the counter is thread-local, and the table fill is
        // sharded across `OSP_PROLOGUE_THREADS` (the machine's cores) by
        // default.
        alg.begin_with_threads(&sets, 1);
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

    #[test]
    fn lazy_mode_decides_bit_identically_to_eager() {
        let inst = contested_instance();
        for seed in 0..25u64 {
            let eager = run(&inst, &mut HashRandPr::new(8, seed)).unwrap();
            let lazy = run(&inst, &mut HashRandPr::new_lazy(8, seed)).unwrap();
            assert_eq!(eager.digest(), lazy.digest(), "seed {seed}");
            assert_eq!(eager.completed(), lazy.completed(), "seed {seed}");
        }
    }

    #[test]
    fn lazy_mode_matches_eager_on_arrivals_wider_than_a_batch_chunk() {
        // Arrivals listing several full BATCH_CHUNK runs plus a partial
        // one, so the lazy scoring crosses chunk boundaries and the
        // eval_batch lane tails, at the default and the paper-realistic
        // independence. Zero-weight sets hit the Priority::zero() lane.
        let m = 3 * BATCH_CHUNK + 17;
        let narrow = 2 * BATCH_CHUNK + 5;
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
                let eager = run(&inst, &mut HashRandPr::new(independence, seed)).unwrap();
                let lazy = run(&inst, &mut HashRandPr::new_lazy(independence, seed)).unwrap();
                assert_eq!(eager, lazy, "independence {independence}, seed {seed}");
            }
        }
    }

    #[test]
    fn lazy_mode_builds_no_table() {
        let inst = contested_instance();
        let mut alg = HashRandPr::new_lazy(8, 1);
        run(&inst, &mut alg).unwrap();
        assert!(alg.priorities.is_empty());
    }
}
