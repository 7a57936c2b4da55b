//! Shared measurement machinery: `opt` brackets and algorithm trials.

use osp_core::{run_source_with_scratch, Instance, OnlineAlgorithm};
use osp_opt::dual::density_dual_bound;
use osp_opt::greedy::best_greedy;
use osp_opt::mwu::fractional_packing;
use osp_opt::{branch_and_bound, BnbConfig};
use osp_stats::{ConfidenceInterval, SeedSequence, Summary};

/// A certified bracket `[lower, upper]` around `w(opt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptBracket {
    /// Value of a concrete feasible packing (`≤ w(opt)`).
    pub lower: f64,
    /// A certified upper bound (`≥ w(opt)`).
    pub upper: f64,
    /// Whether `lower == upper == w(opt)` was proven.
    pub exact: bool,
}

impl OptBracket {
    /// Relative width of the bracket (0 when exact).
    pub fn gap(&self) -> f64 {
        if self.upper <= 0.0 {
            0.0
        } else {
            (self.upper - self.lower) / self.upper
        }
    }
}

/// Brackets `w(opt)`: exact branch-and-bound when the instance is small
/// enough (or the budget suffices), otherwise
/// `[best greedy, min(density dual, MWU dual)]`.
pub fn opt_bracket(instance: &Instance) -> OptBracket {
    // Try exact search with a budget scaled to instance size.
    let budget = if instance.num_sets() <= 60 {
        2_000_000
    } else if instance.num_sets() <= 200 {
        400_000
    } else {
        0
    };
    if budget > 0 {
        let sol = branch_and_bound(instance, &BnbConfig { max_nodes: budget });
        if sol.optimal {
            return OptBracket {
                lower: sol.value,
                upper: sol.value,
                exact: true,
            };
        }
    }
    let (greedy, _) = best_greedy(instance);
    let dual = density_dual_bound(instance);
    let mwu = fractional_packing(instance, 0.1).dual;
    OptBracket {
        lower: greedy,
        upper: dual.min(mwu).max(greedy),
        exact: false,
    }
}

/// The measured performance of one algorithm over repeated trials.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgMeasurement {
    /// Algorithm display name (taken from the first trial instance).
    pub name: String,
    /// Mean benefit across trials.
    pub mean: f64,
    /// 95% confidence interval for the mean.
    pub ci: ConfidenceInterval,
    /// Number of trials.
    pub trials: u32,
}

/// Runs `trials` independent executions of the algorithm produced by
/// `factory(seed)` and summarizes the benefit.
///
/// Trials fan out across the shared [`crate::pool`] replay pool; the
/// per-trial seeds are drawn from `seeds` up front in the same order the
/// old sequential loop drew them, so measurements are bit-identical to
/// sequential replay (and to this function's pre-batching behavior).
///
/// # Panics
///
/// Panics if a trial returns an engine error (the built-in algorithms
/// never emit invalid decisions) or if `trials == 0`.
pub fn measure<F>(
    instance: &Instance,
    factory: F,
    trials: u32,
    seeds: &mut SeedSequence,
) -> AlgMeasurement
where
    F: Fn(u64) -> Box<dyn OnlineAlgorithm> + Sync,
{
    assert!(trials >= 1, "need at least one trial");
    let trial_seeds = crate::pool::draw_seeds(seeds, trials as usize);
    let name = factory(trial_seeds[0]).name();
    let outcomes = crate::pool::pool().map(&trial_seeds, |scratch, _, &seed| {
        run_source_with_scratch(&mut instance.source(), factory(seed).as_mut(), scratch)
            .expect("built-in algorithms emit valid decisions")
    });
    let mut summary = Summary::new();
    for outcome in &outcomes {
        summary.add(outcome.benefit());
    }
    AlgMeasurement {
        name,
        mean: summary.mean(),
        ci: summary.confidence_interval(0.95),
        trials,
    }
}

/// Conservative measured competitive ratio: certified `opt` upper bound
/// over the *lower* end of the benefit CI — an upper estimate of the true
/// ratio, so "measured ≤ theoretical bound" statements stay honest.
pub fn conservative_ratio(bracket: &OptBracket, m: &AlgMeasurement) -> f64 {
    let denom = m.ci.lo.max(1e-12);
    bracket.upper / denom
}

/// Point-estimate ratio `opt_lower / mean` — a lower estimate of the true
/// ratio (useful for lower-bound experiments).
pub fn witnessed_ratio(bracket: &OptBracket, m: &AlgMeasurement) -> f64 {
    if m.mean <= 0.0 {
        f64::INFINITY
    } else {
        bracket.lower / m.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osp_core::algorithms::{GreedyOnline, RandPr, TieBreak};
    use osp_core::gen::{random_instance, RandomInstanceConfig};
    use osp_core::InstanceBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> Instance {
        let mut rng = StdRng::seed_from_u64(0);
        random_instance(&RandomInstanceConfig::unweighted(20, 40, 3), &mut rng).unwrap()
    }

    #[test]
    fn bracket_is_exact_on_small_instances() {
        let inst = small_instance();
        let b = opt_bracket(&inst);
        assert!(b.exact);
        assert_eq!(b.lower, b.upper);
        assert_eq!(b.gap(), 0.0);
    }

    #[test]
    fn bracket_orders_hold_on_large_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst =
            random_instance(&RandomInstanceConfig::unweighted(400, 900, 4), &mut rng).unwrap();
        let b = opt_bracket(&inst);
        assert!(b.lower <= b.upper);
        assert!(b.lower > 0.0);
    }

    #[test]
    fn measure_randomized_and_deterministic() {
        let inst = small_instance();
        let mut seeds = SeedSequence::new(7);
        let randpr = measure(&inst, |s| Box::new(RandPr::from_seed(s)), 50, &mut seeds);
        assert_eq!(randpr.name, "randPr");
        assert!(randpr.mean > 0.0);
        assert!(randpr.ci.lo <= randpr.mean && randpr.mean <= randpr.ci.hi);

        let greedy = measure(
            &inst,
            |_| Box::new(GreedyOnline::new(TieBreak::ByWeight)),
            3,
            &mut seeds,
        );
        // Deterministic: zero-width CI.
        assert!(greedy.ci.width() < 1e-12);
    }

    #[test]
    fn ratios_are_ordered() {
        let inst = small_instance();
        let b = opt_bracket(&inst);
        let mut seeds = SeedSequence::new(9);
        let m = measure(&inst, |s| Box::new(RandPr::from_seed(s)), 100, &mut seeds);
        assert!(witnessed_ratio(&b, &m) <= conservative_ratio(&b, &m) + 1e-9);
    }

    #[test]
    fn infinite_ratio_when_algorithm_scores_zero() {
        // A star where greedy-by-index always completes something, but a
        // measurement of zero-benefit is representable.
        let mut b = InstanceBuilder::new();
        let s = b.add_set(1.0, 1);
        b.add_element(1, &[s]);
        let inst = b.build().unwrap();
        let bracket = opt_bracket(&inst);
        let fake = AlgMeasurement {
            name: "null".into(),
            mean: 0.0,
            ci: ConfidenceInterval {
                lo: 0.0,
                hi: 0.0,
                level: 0.95,
            },
            trials: 1,
        };
        assert_eq!(witnessed_ratio(&bracket, &fake), f64::INFINITY);
    }
}
