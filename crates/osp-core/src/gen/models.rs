//! Distribution knobs shared by the generators.

use rand::Rng;

/// How element loads `σ(u)` are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "model")]
pub enum LoadModel {
    /// Every element has exactly this load.
    Fixed(#[serde(rename = "value")] u32),
    /// Loads uniform on `lo..=hi`.
    Uniform {
        /// Smallest load.
        lo: u32,
        /// Largest load.
        hi: u32,
    },
}

impl LoadModel {
    /// Draws one load.
    ///
    /// # Panics
    ///
    /// Panics if the model is degenerate (`lo > hi` or a zero load).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let v = match *self {
            LoadModel::Fixed(k) => k,
            LoadModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "LoadModel::Uniform requires lo <= hi");
                rng.gen_range(lo..=hi)
            }
        };
        assert!(v >= 1, "element loads must be at least 1");
        v
    }

    /// The largest load the model can produce.
    pub fn max(&self) -> u32 {
        match *self {
            LoadModel::Fixed(k) => k,
            LoadModel::Uniform { hi, .. } => hi,
        }
    }
}

/// How set weights are drawn.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "model")]
pub enum WeightModel {
    /// All weights 1 (the paper's unweighted case).
    Unit,
    /// Weights uniform on `[lo, hi]`.
    Uniform {
        /// Smallest weight.
        lo: f64,
        /// Largest weight.
        hi: f64,
    },
    /// Zipf-like weights: weight `∝ rank^(−exponent)` with ranks assigned
    /// uniformly at random — a handful of very heavy "I-frames" among many
    /// light ones, mirroring the video motivation.
    Zipf {
        /// Decay exponent `s > 0`.
        exponent: f64,
    },
}

impl WeightModel {
    /// Draws the weight for the set with index `rank` out of `total`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, total: usize) -> f64 {
        match *self {
            WeightModel::Unit => 1.0,
            WeightModel::Uniform { lo, hi } => {
                assert!(lo <= hi && lo >= 0.0, "weight range must be 0 <= lo <= hi");
                rng.gen_range(lo..=hi)
            }
            WeightModel::Zipf { exponent } => {
                assert!(exponent > 0.0, "Zipf exponent must be positive");
                let rank = rng.gen_range(1..=total.max(1)) as f64;
                rank.powf(-exponent) * total.max(1) as f64
            }
        }
    }
}

/// How element capacities `b(u)` are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "model")]
pub enum CapacityModel {
    /// Every element has capacity 1 (the paper's unit-capacity case).
    Unit,
    /// Every element has this fixed capacity.
    Fixed(#[serde(rename = "value")] u32),
    /// Capacities uniform on `lo..=hi`.
    Uniform {
        /// Smallest capacity.
        lo: u32,
        /// Largest capacity.
        hi: u32,
    },
}

impl CapacityModel {
    /// Draws one capacity.
    ///
    /// # Panics
    ///
    /// Panics on degenerate ranges or zero capacities.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let v = match *self {
            CapacityModel::Unit => 1,
            CapacityModel::Fixed(b) => b,
            CapacityModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "CapacityModel::Uniform requires lo <= hi");
                rng.gen_range(lo..=hi)
            }
        };
        assert!(v >= 1, "capacities must be at least 1");
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn load_model_ranges() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(LoadModel::Fixed(3).sample(&mut rng), 3);
        for _ in 0..100 {
            let v = LoadModel::Uniform { lo: 2, hi: 5 }.sample(&mut rng);
            assert!((2..=5).contains(&v));
        }
        assert_eq!(LoadModel::Uniform { lo: 2, hi: 5 }.max(), 5);
    }

    #[test]
    fn weight_models_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(WeightModel::Unit.sample(&mut rng, 10), 1.0);
        for _ in 0..100 {
            let w = WeightModel::Uniform { lo: 0.5, hi: 2.0 }.sample(&mut rng, 10);
            assert!((0.5..=2.0).contains(&w));
            let z = WeightModel::Zipf { exponent: 1.0 }.sample(&mut rng, 10);
            assert!(z > 0.0 && z <= 10.0);
        }
    }

    #[test]
    fn capacity_models() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(CapacityModel::Unit.sample(&mut rng), 1);
        assert_eq!(CapacityModel::Fixed(4).sample(&mut rng), 4);
        for _ in 0..50 {
            let b = CapacityModel::Uniform { lo: 1, hi: 8 }.sample(&mut rng);
            assert!((1..=8).contains(&b));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_load_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        LoadModel::Fixed(0).sample(&mut rng);
    }
}
