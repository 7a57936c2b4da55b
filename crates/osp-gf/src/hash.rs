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
/// builds don't race it. [`eval`](PolyHash::eval) and
/// [`eval_range`](PolyHash::eval_range) each count one evaluation per
/// key; the scalar seeds of a range are not counted twice.
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
    /// Horner with lazy Mersenne reduction: one branchless fold per step,
    /// a full normalization every 6 steps, canonicalized once at the end.
    /// [`eval_naive`](Self::eval_naive) is the obviously-correct
    /// reference; the osp-gf proptests pin the two to agree everywhere.
    pub fn eval(&self, x: u64) -> u64 {
        count_evals(1);
        self.horner(x)
    }

    /// Evaluates the hash at the `len` consecutive keys `start`,
    /// `start + 1`, …, handing each value to `visit` in key order — the
    /// same values [`eval`](Self::eval) returns, bit for bit.
    ///
    /// A polynomial of degree `t − 1` has a constant `(t−1)`-th forward
    /// difference, so after seeding the `t` differences at `start` the
    /// kernel steps from one key to the next with `t − 1` field additions
    /// instead of `t` multiply-and-fold Horner steps. Seeding evaluates
    /// `h(start..start+t)` with the scalar kernel of [`eval`](Self::eval)
    /// and turns them into differences in place with `t(t−1)/2` canonical
    /// subtractions. Each
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
    /// runs through the scalar kernel alone. Either way this counts one
    /// evaluation per key: the seeds are not counted again.
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
        let mut d: Vec<u64> = (0..len.min(t) as u64)
            .map(|j| self.horner(start + j))
            .collect();
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

    /// The uncounted body of [`eval`](Self::eval): one Horner chain
    /// with single-fold lazy reduction.
    ///
    /// The accumulator lives in a `u64`. Each step computes the 128-bit
    /// `t = acc·x + c` and performs a **single** branchless fold,
    /// `(t & M) + (t >> 61)`, with the shift assembled from the product
    /// halves as `(lo >> 61) + (hi << 3)` (the two share no bits; a sum
    /// keeps LLVM off the slower `shld`). A full renormalization runs
    /// once every 6 steps.
    ///
    /// Bounds: the key is canonicalized (`< 2^61`) and the coefficients
    /// are stored canonical, so from a normalized accumulator
    /// (`< 2^61 + 8`) each step adds less than `2^61`, and six steps
    /// stay below `7·2^61 + 8 < 2^64`: the `u64` never overflows. The
    /// product stays below `2^125`, so `hi < 2^61` and `hi << 3` is
    /// exact. Every fold preserves the value modulo `2^61 − 1`, and
    /// `reduce128` canonicalizes it at the end.
    #[inline]
    fn horner(&self, x: u64) -> u64 {
        let x = x % MERSENNE_61;
        let mut acc = 0u64;
        let mut since_norm = 0u32;
        for &c in self.coeffs.iter().rev() {
            let t = (acc as u128) * (x as u128) + c as u128;
            let lo = t as u64;
            let hi = (t >> 64) as u64;
            acc = (lo & MERSENNE_61) + (lo >> 61) + (hi << 3);
            since_norm += 1;
            if since_norm == 6 {
                since_norm = 0;
                acc = (acc & MERSENNE_61) + (acc >> 61);
            }
        }
        reduce128(acc as u128)
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
    fn eval_and_range_boundary_coefficients() {
        // The all-(p−1) coefficients at 64-wise independence keep the
        // accumulator at its largest between renormalizations; the keys
        // sit on the field boundary, and each range starts at one and
        // crosses a multiple of p where it can.
        let m = MERSENNE_61;
        let h = PolyHash::from_coeffs(vec![m - 1; 64]);
        for x in [0, 1, m - 2, m - 1, m, m + 1, u64::MAX, 12345, 6, 7, 8, 9] {
            assert_eq!(h.eval(x), h.eval_naive(x), "key {x}");
        }
        for (start, len) in [
            (0, 70),
            (m - 2, 130),
            (m - 1, 3),
            (m, 64),
            (u64::MAX - 69, 70),
        ] {
            let mut key = start;
            h.eval_range(start, len, |v| {
                assert_eq!(v, h.eval_naive(key), "range from {start}, key {key}");
                key = key.wrapping_add(1);
            });
        }
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
        // One per key on both sides of the short-range cutoff, though
        // the difference path seeds its table through the scalar kernel.
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
