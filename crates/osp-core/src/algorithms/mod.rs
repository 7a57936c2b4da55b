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

/// The one comparator core every top-`b` pruning path rides: partitions
/// `items` so the `b` largest-keyed entries occupy `items[..b]`, via a
/// single `select_nth_unstable_by` call with the descending-key
/// comparator. The resulting permutation is a deterministic function of
/// the item count and the *key order alone* (the selection is purely
/// comparison-based), so both callers that present the same keys in the
/// same positions — a table lookup ([`retain_top_b_by_key`]) and a bulk
/// score pass ([`retain_top_b_scored`]) — get the same survivors in the
/// same order, which is what keeps decisions bit-identical across scoring
/// strategies. Keys must be totally ordered and unique (all callers
/// guarantee uniqueness via tiebreak tokens).
#[inline]
pub(crate) fn select_top_b<T, K: Ord>(items: &mut [T], b: usize, mut key: impl FnMut(&T) -> K) {
    // Highest keys first; selects the top b in O(len) average time.
    items.select_nth_unstable_by(b - 1, |x, y| key(y).cmp(&key(x)));
}

/// Retains the (up to) `b` candidates with the largest keys, in place and
/// without allocating, deterministically ([`select_top_b`]'s contract).
/// Callers stage the candidate list in `out` (the engine's recycled
/// decision buffer) and this prunes it to the winners.
pub(crate) fn retain_top_b_by_key<K: Ord>(
    out: &mut Vec<SetId>,
    b: usize,
    mut key: impl FnMut(SetId) -> K,
) {
    if out.len() <= b {
        return;
    }
    select_top_b(out, b, |&s| key(s));
    out.truncate(b);
}

/// [`retain_top_b_by_key`] for callers that score candidates in bulk
/// instead of looking keys up per comparison. When pruning is needed
/// (`out.len() > b` — the same early-exit as the table path), `score` is
/// called once to push one `(key, id)` pair per candidate into `scored`,
/// position-aligned with `out`; the top `b` pairs are then selected with
/// the *same* [`select_top_b`] comparator decisions the table path makes
/// (keys compare identically regardless of where they are stored), so
/// the surviving ids — and their order — are bit-identical to scoring
/// through a precomputed table. `scored` is caller-owned scratch so the
/// per-arrival hot path stays allocation-free once it has grown to the
/// widest arrival.
pub(crate) fn retain_top_b_scored<K: Ord + Copy>(
    out: &mut Vec<SetId>,
    b: usize,
    scored: &mut Vec<(K, SetId)>,
    score: impl FnOnce(&[SetId], &mut Vec<(K, SetId)>),
) {
    if out.len() <= b {
        return;
    }
    scored.clear();
    score(out, scored);
    debug_assert_eq!(scored.len(), out.len(), "score must cover every candidate");
    select_top_b(scored, b, |p| p.0);
    out.clear();
    out.extend(scored[..b].iter().map(|&(_, s)| s));
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

    proptest::proptest! {
        /// Both callers of the [`select_top_b`] comparator core — the
        /// table-lookup path and the bulk-score path — must produce the
        /// same survivor *sequence* (the order is observable in the
        /// decision digest).
        #[test]
        fn two_retain_paths_pin_the_same_survivor_sequence(
            raw in proptest::collection::vec(0u64..1_000, 1..80),
            b in 1usize..24,
        ) {
            // Make keys unique (the callers' tiebreak-token guarantee)
            // while keeping plenty of near-collisions from the raw draw.
            let keys: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(i, &k)| k * 128 + i as u64)
                .collect();
            let ids: Vec<SetId> = (0..keys.len()).map(|i| SetId(i as u32)).collect();

            let mut by_key = ids.clone();
            retain_top_b_by_key(&mut by_key, b, |s| keys[s.index()]);

            let mut scored_ids = ids.clone();
            let mut scored: Vec<(u64, SetId)> = Vec::new();
            retain_top_b_scored(&mut scored_ids, b, &mut scored, |candidates, scored| {
                scored.extend(candidates.iter().map(|&s| (keys[s.index()], s)));
            });

            proptest::prop_assert_eq!(&scored_ids, &by_key);
        }
    }
}
