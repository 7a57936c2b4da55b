//! Online algorithms for OSP: the paper's `randPr` (centralized and
//! distributed) and the baselines it is compared against.
//!
//! | Algorithm | Source | Character |
//! |-----------|--------|-----------|
//! | [`RandPr`] | §3.1 | one random priority per set from `R_w`; provably `k_max√σ_max`-competitive |
//! | [`HashRandPr`] | §3.1 | same, but priorities from a shared limited-independence hash — runs identically on every distributed server |
//! | [`GreedyOnline`] | folklore | deterministic; keeps the best *active* sets under a [`TieBreak`] policy; Theorem 3 victim |
//! | [`RandomAssign`] | ablation | a fresh coin per element; shows why randPr's *consistent* priorities matter |
//!
//! All implementations write their decision through
//! [`OnlineAlgorithm::decide_into`](crate::OnlineAlgorithm::decide_into)
//! directly into the engine's recycled buffer — the per-arrival hot path
//! allocates nothing.

mod greedy;
mod hash_pr;
mod oracle;
mod rand_pr;
mod random_assign;

pub use greedy::{GreedyOnline, TieBreak};
pub use hash_pr::HashRandPr;
pub use oracle::OracleOnline;
pub use rand_pr::RandPr;
pub use random_assign::RandomAssign;

use crate::SetId;

/// Retains the (up to) `b` candidates with the largest keys, in place and
/// without allocating. Callers stage the candidate list in `out` (the
/// engine's recycled decision buffer) and this prunes it to the winners
/// with one `select_nth_unstable_by` call over the descending-key
/// comparator, so the survivors and their order are a deterministic
/// function of the candidate order and the key order alone. Keys must be
/// totally ordered and unique (all callers guarantee uniqueness via
/// tiebreak tokens).
pub(crate) fn retain_top_b_by_key<K: Ord>(
    out: &mut Vec<SetId>,
    b: usize,
    mut key: impl FnMut(SetId) -> K,
) {
    if out.len() <= b {
        return;
    }
    // Highest keys first; selects the top b in O(len) average time.
    out.select_nth_unstable_by(b - 1, |&x, &y| key(y).cmp(&key(x)));
    out.truncate(b);
}

/// In-place partial Fisher–Yates: prunes the staged candidates in `out` to
/// a uniform random `min(b, out.len())`-subset, consuming exactly the RNG
/// stream of the vendored `rand::seq::index::sample` — the
/// allocation-free, seed-compatible replacement for `choose_multiple` that
/// [`RandomAssign`] (and osp-net's `RandomDrop`) use in `decide_into`.
/// Kept as the single canonical copy so the draw sequence cannot drift
/// between call sites.
pub fn sample_in_place<R: rand::RngCore + ?Sized>(out: &mut Vec<SetId>, b: usize, rng: &mut R) {
    let n = out.len();
    let b = b.min(n);
    for i in 0..b {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        out.swap(i, j);
    }
    out.truncate(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_in_place_matches_vendored_choose_multiple() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{RngCore, SeedableRng};
        let pool: Vec<SetId> = (0..9).map(SetId).collect();
        for seed in 0..50u64 {
            for b in [0usize, 1, 4, 9, 12] {
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let want: Vec<SetId> = pool
                    .choose_multiple(&mut reference_rng, b)
                    .copied()
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut got = pool.clone();
                sample_in_place(&mut got, b, &mut rng);
                assert_eq!(got, want, "seed {seed}, b {b}");
                // And the two consumed the same number of draws.
                assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }
    }

    #[test]
    fn top_b_selects_largest() {
        let mut picked: Vec<SetId> = (0..6).map(SetId).collect();
        let keys = [3u64, 9, 1, 7, 5, 2];
        retain_top_b_by_key(&mut picked, 2, |s| keys[s.index()]);
        picked.sort_unstable();
        assert_eq!(picked, vec![SetId(1), SetId(3)]);
    }

    #[test]
    fn top_b_with_fewer_members_keeps_all() {
        let mut picked = vec![SetId(4), SetId(2)];
        retain_top_b_by_key(&mut picked, 5, |s| s.0);
        assert_eq!(picked, vec![SetId(4), SetId(2)]);
    }

    #[test]
    fn top_b_exact_size() {
        let mut picked = vec![SetId(0), SetId(1)];
        retain_top_b_by_key(&mut picked, 2, |s| s.0);
        assert_eq!(picked.len(), 2);
    }
}
