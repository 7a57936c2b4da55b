//! Carter–Wegman polynomial hash families over the Mersenne prime `2^61 − 1`.
//!
//! §3.1 of the paper observes that the distributed implementation of
//! `randPr` only needs a *system-wide hash function* of the set identifier:
//! every server evaluates the same hash locally, so the random priorities
//! agree everywhere without communication, and `k_max · σ_max`-wise
//! independence suffices for the analysis. A degree-`d` random polynomial
//! over a prime field is exactly `(d+1)`-wise independent, so
//! [`PolyHash::new(d + 1, seed)`](PolyHash::new) provides the required
//! family; [`PolyHash::unit`] maps the output to `[0, 1)` for use as a
//! priority.

use rand::{Rng, SeedableRng};

/// The Mersenne prime `2^61 − 1`, the modulus of the hash field.
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// Debug-build counter of polynomial evaluations, the regression hook for
/// "evaluate the polynomial once per key" claims (e.g. `HashRandPr::begin`
/// used to pay two evaluations per set — `unit(i)` *and* `eval(i)`).
///
/// Compiled only under `debug_assertions` so the release hot path carries
/// zero bookkeeping; the counter is thread-local, so concurrent table
/// builds don't race it. [`eval`](PolyHash::eval),
/// [`eval_batch`](PolyHash::eval_batch) and
/// [`eval_range`](PolyHash::eval_range) each count one evaluation per
/// key, whichever kernel evaluates it.
#[cfg(debug_assertions)]
pub mod eval_count {
    use std::cell::Cell;

    thread_local! {
        static EVALS: Cell<u64> = const { Cell::new(0) };
    }

    /// Evaluations performed by this thread since the last [`reset`].
    pub fn get() -> u64 {
        EVALS.with(Cell::get)
    }

    /// Zeroes this thread's counter.
    pub fn reset() {
        EVALS.with(|c| c.set(0));
    }

    pub(super) fn bump(n: u64) {
        EVALS.with(|c| c.set(c.get().wrapping_add(n)));
    }
}

/// Records `n` polynomial evaluations (no-op in release builds).
#[inline]
fn count_evals(n: u64) {
    #[cfg(debug_assertions)]
    eval_count::bump(n);
    #[cfg(not(debug_assertions))]
    let _ = n;
}

/// Reduces `x` modulo `2^61 − 1` — branchless Mersenne canonicalization.
///
/// Two fixed [`fold61`] folds bring *any* `u128` below `2^61 + 127`
/// (first fold: `< 2^61 + 2^67`; second: `< 2^61 + 2^7`), after which a
/// single conditional subtract lands in `[0, 2^61 − 1)`. No data-dependent
/// loop: the instruction count is the same for every input, which keeps
/// the hot evaluators' tails predictable.
#[inline]
fn reduce128(x: u128) -> u64 {
    let folded = fold61(fold61(x)); // < 2^61 + 127, fits u64
    let s = folded as u64;
    if s >= MERSENNE_61 {
        s - MERSENNE_61
    } else {
        s
    }
}

/// `a − b` modulo `2^61 − 1` for canonical `a` and `b`.
#[inline]
fn sub_mod(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + MERSENNE_61 - b
    }
}

/// One branchless Mersenne fold: congruent mod `2^61 − 1`, shrinks the
/// value by ~61 bits without the data-dependent loop of [`reduce128`].
#[inline]
fn fold61(x: u128) -> u128 {
    const M: u128 = MERSENNE_61 as u128;
    (x & M) + (x >> 61)
}

/// A member of the polynomial hash family `h(x) = Σ a_i x^i mod (2^61−1)`.
///
/// A family with `independence = t` (polynomial degree `t − 1`) is exactly
/// `t`-wise independent over keys in `[0, 2^61 − 1)`.
///
/// # Examples
///
/// ```
/// use osp_gf::hash::PolyHash;
///
/// let h = PolyHash::new(4, 12345); // 4-wise independent
/// let v = h.unit(42);
/// assert!((0.0..1.0).contains(&v));
/// // Deterministic: same seed, same function.
/// assert_eq!(PolyHash::new(4, 12345).unit(42), v);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Draws a hash function from the `independence`-wise independent family
    /// using the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `independence == 0`.
    pub fn new(independence: usize, seed: u64) -> Self {
        assert!(independence >= 1, "independence must be at least 1");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let coeffs = (0..independence)
            .map(|_| rng.gen_range(0..MERSENNE_61))
            .collect();
        PolyHash { coeffs }
    }

    /// Builds a hash function directly from polynomial coefficients
    /// (`coeffs[i]` multiplies `x^i`); coefficients are reduced modulo
    /// `2^61 − 1`. Mainly for tests that need field-boundary coefficients;
    /// experiments should draw members via [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        assert!(!coeffs.is_empty(), "need at least one coefficient");
        PolyHash {
            coeffs: coeffs.into_iter().map(|c| c % MERSENNE_61).collect(),
        }
    }

    /// The independence level `t` of the family this function was drawn from.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the hash at `x`, returning a value in `[0, 2^61 − 1)`.
    ///
    /// Horner with lazy Mersenne reduction: one lane of the kernel behind
    /// [`eval_batch`](Self::eval_batch) (one branchless fold per step, a
    /// full normalization every 6 steps, canonicalized once at the end),
    /// so the two agree bit for bit by construction.
    /// [`eval_naive`](Self::eval_naive) is the obviously-correct
    /// reference; the osp-gf proptests pin the two to agree everywhere.
    pub fn eval(&self, x: u64) -> u64 {
        count_evals(1);
        let mut out = [0u64];
        Self::eval_lanes::<1>(&self.coeffs, &[x], &mut out);
        out[0]
    }

    /// Evaluates the hash at every key of `xs`, writing `out[i] =
    /// self.eval(xs[i])` — bit-identical to the scalar path for every key,
    /// measurably more than 2× faster at 64-wise independence.
    ///
    /// This is the kernel for arbitrary keys (`&self` and stack-resident
    /// lane state keep it trivially reentrant).
    /// Consecutive keys, such as the set ids `0..m` of the `begin`-time
    /// table fill, go through [`eval_range`](Self::eval_range) instead,
    /// which seeds its forward differences with this kernel.
    ///
    /// Keys are processed in transposed lanes of 8, then 4; the last 1–3
    /// keys run as a 1- or 2-lane group, or (three keys) a 4-lane group
    /// padded with a zero key. Each lane runs its own Horner recurrence
    /// one *shared* coefficient at a time. The cross-key lanes supply the
    /// instruction-level parallelism that a single Horner chain lacks,
    /// and because no lane depends on another, the reduction stays lazy:
    /// accumulators live in `u64`, each step performs a **single**
    /// branchless fold (`(lo & M) + ((lo >> 61) | (hi << 3))`, a
    /// funnel-shift on the 128-bit product halves), and a full
    /// re-normalization runs only once every 6 steps. Bounds: keys are
    /// canonicalized (`< 2^61`) and coefficients are stored canonical, so
    /// from a normalized accumulator (`< 2^61 + 8`) six single-fold steps
    /// grow it to at most `7·2^61 + 14 < 2^64` — never overflowing the
    /// `u64` lane — while the 128-bit product `acc·x + c` stays below
    /// `2^125`, so its high half is below `2^61` and the funnel shift is
    /// exact. Every fold preserves the value modulo `2^61 − 1`, and
    /// `reduce128` canonicalizes each lane at the end, so every lane
    /// count yields the canonical value: the result is *bit*-identical to
    /// [`eval`](Self::eval) (the 1-lane group) rather than merely
    /// congruent.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` have different lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use osp_gf::hash::PolyHash;
    ///
    /// let h = PolyHash::new(64, 7);
    /// let keys: Vec<u64> = (0..13).collect(); // non-multiple of the lane width
    /// let mut out = vec![0u64; 13];
    /// h.eval_batch(&keys, &mut out);
    /// for (&k, &v) in keys.iter().zip(&out) {
    ///     assert_eq!(v, h.eval(k));
    /// }
    /// ```
    pub fn eval_batch(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "eval_batch requires one output slot per key"
        );
        count_evals(xs.len() as u64);
        self.batch(xs, out);
    }

    /// The uncounted body of [`eval_batch`](Self::eval_batch): lane-group
    /// dispatch over equal-length `xs` and `out`.
    fn batch(&self, xs: &[u64], out: &mut [u64]) {
        let n = xs.len();
        let mut i = 0;
        while n - i >= 8 {
            Self::eval_lanes::<8>(&self.coeffs, &xs[i..i + 8], &mut out[i..i + 8]);
            i += 8;
        }
        if n - i >= 4 {
            Self::eval_lanes::<4>(&self.coeffs, &xs[i..i + 4], &mut out[i..i + 4]);
            i += 4;
        }
        match n - i {
            0 => {}
            1 => Self::eval_lanes::<1>(&self.coeffs, &xs[i..], &mut out[i..]),
            2 => Self::eval_lanes::<2>(&self.coeffs, &xs[i..], &mut out[i..]),
            _ => {
                // Three keys ride a 4-lane group padded with a zero key:
                // one more lane costs less than a separate third chain.
                let mut keys = [0u64; 4];
                let mut vals = [0u64; 4];
                keys[..3].copy_from_slice(&xs[i..]);
                Self::eval_lanes::<4>(&self.coeffs, &keys, &mut vals);
                out[i..].copy_from_slice(&vals[..3]);
            }
        }
    }

    /// Evaluates the hash at the `len` consecutive keys `start`,
    /// `start + 1`, …, handing each value to `visit` in key order — the
    /// same values [`eval`](Self::eval) returns, bit for bit.
    ///
    /// A polynomial of degree `t − 1` has a constant `(t−1)`-th forward
    /// difference, so after seeding the `t` differences at `start` the
    /// kernel steps from one key to the next with `t − 1` field additions
    /// instead of `t` multiply-and-fold Horner steps. Seeding evaluates
    /// `h(start..start+t)` with the batch kernel and turns them into
    /// differences in place with `t(t−1)/2` canonical subtractions. Each
    /// step then sets `d[j] ← d[j] + d[j+1]` for ascending `j`, every
    /// addition reading the *old* `d[j+1]`, so the `t − 1` additions are
    /// independent of one another. A sum of two values in `[0, P]` (`P =
    /// 2^61 − 1`) is below `2^62`, and one fold `(s & P) + (s >> 61)`
    /// brings it back into `[0, P]`; `P` stands for 0 there, and each
    /// emitted value is canonicalized. The arithmetic is exact in the
    /// field, so a range that crosses a multiple of `P` (where keys wrap
    /// to 0 modulo `P`) is still exact.
    ///
    /// A range shorter than `t` keys is not worth a difference table and
    /// runs through the batch kernel. Either way this counts one
    /// evaluation per key.
    ///
    /// # Panics
    ///
    /// Panics if the keys would wrap around `u64` (`start + len > 2^64`).
    ///
    /// # Examples
    ///
    /// ```
    /// use osp_gf::hash::PolyHash;
    ///
    /// let h = PolyHash::new(16, 7);
    /// let mut values = Vec::new();
    /// h.eval_range(1000, 50, |v| values.push(v));
    /// for (key, &v) in (1000u64..).zip(&values) {
    ///     assert_eq!(v, h.eval(key));
    /// }
    /// ```
    pub fn eval_range(&self, start: u64, len: usize, mut visit: impl FnMut(u64)) {
        assert!(
            u128::from(start) + len as u128 <= 1 << 64,
            "eval_range keys must not wrap around u64"
        );
        count_evals(len as u64);
        let t = self.coeffs.len();
        let seeds = len.min(t);
        let keys: Vec<u64> = (0..seeds as u64).map(|j| start + j).collect();
        let mut d = vec![0u64; seeds];
        self.batch(&keys, &mut d);
        if len < t {
            d.into_iter().for_each(visit);
            return;
        }
        for level in 1..t {
            for j in (level..t).rev() {
                d[j] = sub_mod(d[j], d[j - 1]);
            }
        }
        for _ in 0..len {
            visit(if d[0] == MERSENNE_61 { 0 } else { d[0] });
            for j in 0..t - 1 {
                let s = d[j] + d[j + 1];
                d[j] = (s & MERSENNE_61) + (s >> 61);
            }
        }
    }

    /// The transposed multi-key kernel behind
    /// [`eval_batch`](Self::eval_batch): `L` independent Horner chains
    /// (manual `u64xL` lanes) advanced one shared coefficient per step
    /// with single-fold lazy reduction. See `eval_batch` for the overflow
    /// bounds that make one fold per step safe.
    #[inline]
    fn eval_lanes<const L: usize>(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
        let mut x = [0u64; L];
        for l in 0..L {
            x[l] = xs[l] % MERSENNE_61;
        }
        let mut acc = [0u64; L];
        let mut since_norm = 0u32;
        for &c in coeffs.iter().rev() {
            for l in 0..L {
                let t = (acc[l] as u128) * (x[l] as u128) + c as u128;
                let lo = t as u64;
                let hi = (t >> 64) as u64;
                // One branchless fold: (t & M) + (t >> 61), with the
                // 61-bit shift assembled as a funnel shift of the two
                // product halves (hi < 2^61, so `hi << 3` is exact).
                acc[l] = (lo & MERSENNE_61) + ((lo >> 61) | (hi << 3));
            }
            since_norm += 1;
            if since_norm == 6 {
                // Re-normalize before the u64 lanes can overflow: each
                // single-fold step grows the bound by ~2^61, and 8 of
                // them would reach 2^64.
                since_norm = 0;
                for lane in &mut acc {
                    *lane = (*lane & MERSENNE_61) + (*lane >> 61);
                }
            }
        }
        for l in 0..L {
            out[l] = reduce128(acc[l] as u128);
        }
    }

    /// Reference evaluation: explicit precomputed powers of `x`, each term
    /// fully reduced — `Σ a_i·x^i mod (2^61 − 1)` the naive way. Slower
    /// than [`eval`](Self::eval) but obviously correct; the proptests
    /// assert the two agree everywhere.
    pub fn eval_naive(&self, x: u64) -> u64 {
        let x = x % MERSENNE_61;
        let mut power = 1u64; // x^i, canonical
        let mut acc = 0u64;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                power = reduce128(power as u128 * x as u128);
            }
            let term = reduce128(c as u128 * power as u128);
            acc = reduce128(acc as u128 + term as u128);
        }
        acc
    }

    /// Evaluates the hash and maps it to the unit interval `[0, 1)`.
    pub fn unit(&self, x: u64) -> f64 {
        self.eval(x) as f64 / MERSENNE_61 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn reduction_is_correct() {
        for x in [
            0u128,
            1,
            MERSENNE_61 as u128,
            MERSENNE_61 as u128 + 1,
            u64::MAX as u128,
            u128::from(u64::MAX) * u128::from(u64::MAX),
        ] {
            assert_eq!(reduce128(x) as u128, x % MERSENNE_61 as u128, "x={x}");
        }
    }

    #[test]
    fn fast_path_agrees_with_naive_on_boundaries() {
        let m = MERSENNE_61;
        // Field-boundary coefficients: 0, 1, p−1 in every position, at
        // short and long lengths.
        let hashes = [
            PolyHash::from_coeffs(vec![m - 1, m - 1, m - 1, m - 1]),
            PolyHash::from_coeffs(vec![0, 0, 0, m - 1]),
            PolyHash::from_coeffs(vec![m - 1]),
            PolyHash::from_coeffs(vec![1, 0, m - 1, 0, 1]),
            PolyHash::from_coeffs(vec![m - 1; 8]),
            PolyHash::from_coeffs(vec![m - 1; 16]),
            PolyHash::from_coeffs(vec![m - 1; 17]),
            PolyHash::from_coeffs(vec![m - 1; 18]),
            PolyHash::from_coeffs(vec![m - 1; 19]),
            PolyHash::from_coeffs([vec![0; 16], vec![m - 1]].concat()),
            PolyHash::from_coeffs([vec![1, 0, m - 1], vec![0; 13], vec![m - 1, 1]].concat()),
        ];
        for h in &hashes {
            for x in [0u64, 1, 2, m - 2, m - 1, m, m + 1, u64::MAX] {
                assert_eq!(h.eval(x), h.eval_naive(x), "{h:?} at {x}");
                assert!(h.eval(x) < m);
            }
        }
    }

    #[test]
    fn eval_agrees_with_naive_at_every_length() {
        // One randomized family per length 1..=20: the two evaluators
        // agree.
        for len in 1usize..=20 {
            let h = PolyHash::new(len, 1000 + len as u64);
            for x in (0..2000u64).step_by(37).chain([MERSENNE_61 - 1, u64::MAX]) {
                assert_eq!(h.eval(x), h.eval_naive(x), "len {len} at {x}");
            }
        }
    }

    #[test]
    fn eval_batch_matches_eval_for_every_remainder() {
        // Key counts covering every lane-dispatch shape (8s, a 4, then a
        // 1-, 2- or padded 3-key tail) at short and long lengths; keys
        // include field boundaries. The naive reference checks each key,
        // since eval is itself the 1-lane kernel.
        for len in [1usize, 4, 8, 15, 16, 17, 19, 64] {
            let h = PolyHash::new(len, 500 + len as u64);
            let keys: Vec<u64> = (0..23u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .chain([0, 1, MERSENNE_61 - 1, MERSENNE_61, u64::MAX])
                .collect();
            for count in [
                0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 21, 28,
            ] {
                let xs = &keys[..count];
                let mut out = vec![0u64; count];
                h.eval_batch(xs, &mut out);
                for (&x, &got) in xs.iter().zip(&out) {
                    assert_eq!(got, h.eval(x), "len {len}, count {count}, key {x}");
                    assert_eq!(got, h.eval_naive(x), "len {len}, count {count}, key {x}");
                }
            }
        }
    }

    #[test]
    fn eval_batch_boundary_coefficients() {
        let m = MERSENNE_61;
        let h = PolyHash::from_coeffs(vec![m - 1; 64]);
        let xs: Vec<u64> = vec![0, 1, m - 2, m - 1, m, m + 1, u64::MAX, 12345, 6, 7, 8, 9];
        let mut out = vec![0u64; xs.len()];
        h.eval_batch(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert_eq!(got, h.eval_naive(x), "key {x}");
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn eval_batch_rejects_mismatched_lengths() {
        let h = PolyHash::new(4, 0);
        let mut out = [0u64; 2];
        h.eval_batch(&[1, 2, 3], &mut out);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn eval_count_hook_counts_each_key_once() {
        let h = PolyHash::new(8, 3);
        let wide = PolyHash::new(64, 3);
        eval_count::reset();
        h.eval(1);
        wide.eval(2);
        h.unit(3);
        assert_eq!(eval_count::get(), 3);
        eval_count::reset();
        let xs: Vec<u64> = (0..15).collect(); // 8 + 4 + a padded 3
        let mut out = vec![0u64; 15];
        h.eval_batch(&xs, &mut out);
        wide.eval_batch(&xs, &mut out);
        assert_eq!(eval_count::get(), 30);
        // One per key on both sides of the short-range cutoff, though
        // the difference path seeds its table through the batch kernel.
        for len in [0usize, 5, 63, 64, 65, 1000] {
            eval_count::reset();
            wide.eval_range(7, len, |_| {});
            assert_eq!(eval_count::get(), len as u64, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "must not wrap around u64")]
    fn eval_range_rejects_keys_past_u64_max() {
        PolyHash::new(4, 0).eval_range(u64::MAX, 2, |_| {});
    }

    #[test]
    fn from_coeffs_reduces_and_rejects_empty() {
        let h = PolyHash::from_coeffs(vec![MERSENNE_61 + 5]);
        assert_eq!(h.eval(123), 5);
        assert!(std::panic::catch_unwind(|| PolyHash::from_coeffs(vec![])).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let h1 = PolyHash::new(3, 9);
        let h2 = PolyHash::new(3, 9);
        let h3 = PolyHash::new(3, 10);
        assert_eq!(h1, h2);
        assert_ne!(h1.eval(12345), h3.eval(12345));
    }

    #[test]
    fn constant_family_is_constant() {
        let h = PolyHash::new(1, 7);
        assert_eq!(h.eval(1), h.eval(2));
    }

    #[test]
    fn unit_in_range() {
        let h = PolyHash::new(8, 3);
        for x in 0..1000 {
            let u = h.unit(x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn outputs_look_uniform() {
        // Bucket 100k hashed keys into 16 bins; each bin should get
        // 6250 ± a generous tolerance. This is a smoke test of uniformity,
        // not a strict statistical test.
        let h = PolyHash::new(4, 42);
        let mut bins = [0u32; 16];
        let n = 100_000u64;
        for x in 0..n {
            let b = (h.unit(x) * 16.0) as usize;
            bins[b.min(15)] += 1;
        }
        let expected = n as f64 / 16.0;
        for (i, &b) in bins.iter().enumerate() {
            assert!(
                (b as f64 - expected).abs() < expected * 0.1,
                "bin {i} has {b}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn pairwise_independence_smoke() {
        // For a 2-wise independent family, Pr[h(x)=h(y)] for x != y should be
        // ~1/p, i.e. essentially zero collisions over a few thousand draws.
        let mut collisions = 0;
        for seed in 0..2000 {
            let h = PolyHash::new(2, seed);
            if h.eval(17) == h.eval(18) {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn different_keys_spread() {
        let h = PolyHash::new(4, 1);
        let mut seen = HashMap::new();
        for x in 0..10_000u64 {
            *seen.entry(h.eval(x)).or_insert(0u32) += 1;
        }
        // No collisions expected for 10k keys in a 2^61 range.
        assert_eq!(seen.len(), 10_000);
    }
}
