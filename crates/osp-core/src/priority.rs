//! The priority distribution `R_w` of Eq. (2) and a total-order priority
//! type.
//!
//! `randPr` draws for each set `S` a priority `r(S)` distributed according
//! to `R_{w(S)}`, where `Pr[X < x] = x^w` for `x ∈ [0, 1]`. `R_1` is the
//! uniform distribution on the unit interval and, for natural `w`, `R_w` is
//! the distribution of the maximum of `w` i.i.d. uniforms — so heavier sets
//! get stochastically larger priorities, which is exactly what makes
//! Lemma 1 (`Pr[S wins] = w(S)/w(N[S])`) come out.

use std::cmp::Ordering;

use rand::Rng;

/// The distribution `R_w` with CDF `F(x) = x^w` on `[0, 1]`.
///
/// # Examples
///
/// ```
/// use osp_core::priority::Rw;
///
/// let r = Rw::new(2.0)?;
/// assert!((r.cdf(0.5) - 0.25).abs() < 1e-12);
/// assert_eq!(r.quantile(0.25), 0.5);
/// # Ok::<(), osp_core::priority::RwError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rw {
    weight: f64,
}

/// Error constructing an [`Rw`] distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwError;

impl std::fmt::Display for RwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R_w weight must be positive and finite")
    }
}

impl std::error::Error for RwError {}

impl Rw {
    /// Creates `R_w` for weight `w`.
    ///
    /// # Errors
    ///
    /// Returns [`RwError`] unless `w` is positive and finite. (Weight-zero
    /// sets are handled by the algorithms directly: they receive priority
    /// 0, the almost-sure limit of `R_w` as `w → 0`.)
    pub fn new(weight: f64) -> Result<Self, RwError> {
        if weight.is_finite() && weight > 0.0 {
            Ok(Rw { weight })
        } else {
            Err(RwError)
        }
    }

    /// The weight parameter `w`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// CDF `Pr[X < x] = x^w`, clamped outside `[0, 1]`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            x.powf(self.weight)
        }
    }

    /// Quantile function (inverse CDF): `F^{-1}(u) = u^(1/w)`.
    ///
    /// `R_1` is the uniform law, and for `w == 1` this returns `u` itself
    /// without calling `pow`: `pow(u, 1.0)` is exactly `u`, so the
    /// shortcut changes no bit (pinned against `powf` at 0, subnormals,
    /// powers of two and random draws) and saves one libm call per
    /// unit-weight set.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `u ∉ [0, 1]`.
    pub fn quantile(&self, u: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&u));
        if self.weight == 1.0 {
            return u;
        }
        u.powf(1.0 / self.weight)
    }

    /// Samples a priority by inverse transform of a uniform draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }

    /// Deterministically transforms an externally supplied uniform value
    /// (e.g. a hash output in `[0,1)`) into an `R_w` sample — the distributed
    /// implementation path of §3.1.
    pub fn from_uniform(&self, u: f64) -> f64 {
        self.quantile(u.clamp(0.0, 1.0))
    }
}

/// A totally ordered priority: the `R_w` value plus a tiebreak token.
///
/// Ties in the continuous value have probability zero in theory, but f64
/// rounding can produce them in practice; the tiebreak keeps comparisons
/// deterministic and total. Values are finite by construction, so the
/// `Ord` implementation never sees NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priority {
    value: f64,
    tiebreak: u64,
}

impl Priority {
    /// Creates a priority.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite.
    pub fn new(value: f64, tiebreak: u64) -> Self {
        assert!(value.is_finite(), "priority value must be finite");
        Priority { value, tiebreak }
    }

    /// The minimum possible priority (used for weight-zero sets).
    pub fn zero() -> Self {
        Priority {
            value: 0.0,
            tiebreak: 0,
        }
    }

    /// The underlying `R_w` sample.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Eq for Priority {}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        // value is finite, so partial_cmp never fails.
        self.value
            .partial_cmp(&other.value)
            .expect("priority values are finite")
            .then(self.tiebreak.cmp(&other.tiebreak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_weights() {
        assert!(Rw::new(0.0).is_err());
        assert!(Rw::new(-1.0).is_err());
        assert!(Rw::new(f64::NAN).is_err());
        assert!(Rw::new(f64::INFINITY).is_err());
        assert!(Rw::new(1e-9).is_ok());
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let r = Rw::new(3.7).unwrap();
        for u in [0.0, 0.1, 0.33, 0.5, 0.9, 1.0] {
            let x = r.quantile(u);
            assert!((r.cdf(x) - u).abs() < 1e-12, "u={u}");
        }
    }

    #[test]
    fn cdf_clamps() {
        let r = Rw::new(2.0).unwrap();
        assert_eq!(r.cdf(-0.5), 0.0);
        assert_eq!(r.cdf(1.5), 1.0);
    }

    #[test]
    fn r1_is_uniform() {
        let r = Rw::new(1.0).unwrap();
        for x in [0.2, 0.4, 0.8] {
            assert!((r.cdf(x) - x).abs() < 1e-15);
        }
    }

    #[test]
    fn unit_weight_quantile_is_bitwise_pow_one() {
        // The w == 1 shortcut must return exactly what `powf(u, 1.0)`
        // does; `black_box` keeps the compiler from folding the call.
        let r = Rw::new(1.0).unwrap();
        let one = std::hint::black_box(1.0f64);
        let mut inputs = vec![0.0, f64::MIN_POSITIVE, 1.0, 1.0 - f64::EPSILON / 2.0];
        // Subnormals.
        inputs.extend([1u64, 2, 1 << 20, (1 << 52) - 1].map(f64::from_bits));
        // Every power of two 2^-k down to 2^-1074, and each predecessor.
        let mut p = 1.0f64;
        while p > 0.0 {
            inputs.extend([p, f64::from_bits(p.to_bits() - 1)]);
            p /= 2.0;
        }
        let mut rng = StdRng::seed_from_u64(17);
        inputs.extend((0..100_000).map(|_| rng.gen::<f64>()));
        for u in inputs {
            assert_eq!(r.quantile(u).to_bits(), u.powf(one).to_bits(), "u={u:e}");
        }
    }

    #[test]
    fn samples_match_cdf_empirically() {
        // Kolmogorov–Smirnov-style check with a generous tolerance: the
        // empirical CDF of 100k samples should match x^w within ~1%.
        let r = Rw::new(4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| r.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut max_dev: f64 = 0.0;
        for (i, &x) in samples.iter().enumerate() {
            let emp = i as f64 / n as f64;
            max_dev = max_dev.max((emp - r.cdf(x)).abs());
        }
        assert!(max_dev < 0.01, "KS deviation {max_dev}");
    }

    #[test]
    fn heavier_weight_stochastically_larger() {
        let light = Rw::new(1.0).unwrap();
        let heavy = Rw::new(10.0).unwrap();
        // First-order stochastic dominance: CDF of heavy is below light.
        for x in [0.1, 0.5, 0.9] {
            assert!(heavy.cdf(x) <= light.cdf(x));
        }
    }

    #[test]
    fn max_of_w_uniforms_matches_rw() {
        // For integer w, R_w is the law of the max of w uniforms; compare
        // means: E[max of w uniforms] = w/(w+1).
        let w = 5u32;
        let r = Rw::new(w as f64).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.sample(&mut rng)).sum::<f64>() / n as f64;
        let expect = w as f64 / (w as f64 + 1.0);
        assert!((mean - expect).abs() < 0.002, "mean {mean} vs {expect}");
    }

    #[test]
    fn priority_ordering() {
        let a = Priority::new(0.5, 0);
        let b = Priority::new(0.7, 0);
        let c = Priority::new(0.5, 1);
        assert!(a < b);
        assert!(a < c); // tiebreak
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(Priority::zero() <= a);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn priority_rejects_nan() {
        Priority::new(f64::NAN, 0);
    }

    #[test]
    fn from_uniform_clamps() {
        let r = Rw::new(2.0).unwrap();
        assert_eq!(r.from_uniform(-0.1), 0.0);
        assert_eq!(r.from_uniform(1.1), 1.0);
    }
}
