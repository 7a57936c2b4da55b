//! The general-purpose random instance family.

use rand::Rng;

use crate::instance::{Instance, InstanceBuilder};
use crate::SetId;

use super::models::{CapacityModel, LoadModel, WeightModel};
use super::stream::draw_picks_undo;
use super::GenError;

/// Parameters for [`random_instance`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RandomInstanceConfig {
    /// Number of candidate sets `m` (sets never picked by any element are
    /// dropped, so the realized count may be smaller).
    pub num_sets: usize,
    /// Number of elements `n`.
    pub num_elements: usize,
    /// Per-element load distribution.
    pub load: LoadModel,
    /// Set weight distribution.
    pub weights: WeightModel,
    /// Per-element capacity distribution.
    pub capacities: CapacityModel,
}

impl RandomInstanceConfig {
    /// Unweighted unit-capacity family with fixed load — the workhorse of
    /// the Theorem 1 / Corollary 6 experiments.
    pub fn unweighted(num_sets: usize, num_elements: usize, load: u32) -> Self {
        RandomInstanceConfig {
            num_sets,
            num_elements,
            load: LoadModel::Fixed(load),
            weights: WeightModel::Unit,
            capacities: CapacityModel::Unit,
        }
    }
}

/// Generates a random instance: each element draws `σ(u)` from the load
/// model and picks that many distinct sets uniformly at random; weights and
/// capacities come from their respective models. Sets that end up with no
/// elements are dropped (ids are re-packed), so every set in the result is
/// completable.
///
/// # Errors
///
/// Returns [`GenError::Infeasible`] if a drawn load can exceed `num_sets`
/// or if `num_sets == 0` / `num_elements == 0`.
pub fn random_instance<R: Rng + ?Sized>(
    config: &RandomInstanceConfig,
    rng: &mut R,
) -> Result<Instance, GenError> {
    validate_config(config)?;

    // Draw memberships first so unused sets can be dropped. One persistent
    // pool replays `rand::seq::index::sample`'s exact draws without its
    // O(m) allocation per element; picks go into one flat CSR arena.
    let mut pool: Vec<u32> = (0..config.num_sets as u32).collect();
    let mut swaps: Vec<u32> = Vec::with_capacity(config.load.max() as usize);
    let mut picks: Vec<u32> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(config.num_elements + 1);
    offsets.push(0);
    let mut used = vec![false; config.num_sets];
    for _ in 0..config.num_elements {
        let sigma = config.load.sample(rng) as usize;
        draw_picks_undo(&mut pool, &mut swaps, rng, sigma, |s| {
            used[s as usize] = true;
            picks.push(s);
        });
        offsets.push(picks.len());
    }

    // Re-pack surviving set ids densely.
    let mut remap = vec![usize::MAX; config.num_sets];
    let mut next = 0usize;
    for (s, &u) in used.iter().enumerate() {
        if u {
            remap[s] = next;
            next += 1;
        }
    }

    let mut b = InstanceBuilder::new();
    for _ in 0..next {
        let w = config.weights.sample(rng, next);
        b.add_set_unsized(w);
    }
    let mut members: Vec<SetId> = Vec::with_capacity(config.load.max() as usize);
    for element in offsets.windows(2) {
        members.clear();
        members.extend(
            picks[element[0]..element[1]]
                .iter()
                .map(|&s| SetId(remap[s as usize] as u32)),
        );
        let capacity = config.capacities.sample(rng);
        b.add_element(capacity, &members);
    }
    Ok(b.build().expect("generator invariants guarantee validity"))
}

/// Parameter validation shared by [`random_instance`] and the streaming
/// [`UniformSource`](super::UniformSource).
pub(super) fn validate_config(config: &RandomInstanceConfig) -> Result<(), GenError> {
    if config.num_sets == 0 || config.num_elements == 0 {
        return Err(GenError::Infeasible(
            "need at least one set and one element".into(),
        ));
    }
    if config.load.max() as usize > config.num_sets {
        return Err(GenError::Infeasible(format!(
            "max load {} exceeds set count {}",
            config.load.max(),
            config.num_sets
        )));
    }
    if config.num_elements > u32::MAX as usize {
        return Err(GenError::Infeasible(format!(
            "element count {} exceeds the u32 id space",
            config.num_elements
        )));
    }
    if config.num_sets > u32::MAX as usize {
        return Err(GenError::Infeasible(format!(
            "set count {} exceeds the u32 id space",
            config.num_sets
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::InstanceStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_generation() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = RandomInstanceConfig::unweighted(50, 200, 4);
        let inst = random_instance(&cfg, &mut rng).unwrap();
        assert_eq!(inst.num_elements(), 200);
        assert!(inst.num_sets() <= 50);
        let st = InstanceStats::compute(&inst);
        assert_eq!(st.uniform_load, Some(4));
        assert!(st.unit_capacity);
        assert!(st.unweighted);
    }

    /// The generator as it was written against `index::sample` (one fresh
    /// O(m) pool per element) — the reference the persistent pool must
    /// reproduce draw for draw.
    fn reference_instance<R: Rng + ?Sized>(config: &RandomInstanceConfig, rng: &mut R) -> Instance {
        let mut memberships: Vec<Vec<usize>> = Vec::new();
        let mut used = vec![false; config.num_sets];
        for _ in 0..config.num_elements {
            let sigma = config.load.sample(rng) as usize;
            let picks = rand::seq::index::sample(rng, config.num_sets, sigma).into_vec();
            for &s in &picks {
                used[s] = true;
            }
            memberships.push(picks);
        }
        let mut remap = vec![usize::MAX; config.num_sets];
        let mut next = 0usize;
        for (s, &u) in used.iter().enumerate() {
            if u {
                remap[s] = next;
                next += 1;
            }
        }
        let mut b = InstanceBuilder::new();
        for _ in 0..next {
            b.add_set_unsized(config.weights.sample(rng, next));
        }
        for picks in &memberships {
            let members: Vec<SetId> = picks.iter().map(|&s| SetId(remap[s] as u32)).collect();
            b.add_element(config.capacities.sample(rng), &members);
        }
        b.build().unwrap()
    }

    #[test]
    fn persistent_pool_reproduces_index_sample_draws() {
        let configs = [
            RandomInstanceConfig::unweighted(50, 200, 4),
            RandomInstanceConfig::unweighted(7, 40, 7),
            RandomInstanceConfig {
                num_sets: 40,
                num_elements: 120,
                load: LoadModel::Uniform { lo: 1, hi: 6 },
                weights: WeightModel::Zipf { exponent: 1.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
            },
        ];
        for cfg in &configs {
            for seed in 0..5 {
                let got = random_instance(cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
                let want = reference_instance(cfg, &mut StdRng::seed_from_u64(seed));
                assert_eq!(got, want, "{cfg:?} seed {seed}");
            }
        }
    }

    #[test]
    fn builds_at_a_hundred_thousand_sets() {
        // One O(m) index pool per element made this O(n·m): 2·10¹⁰ steps.
        let start = std::time::Instant::now();
        let cfg = RandomInstanceConfig::unweighted(100_000, 200_000, 4);
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(inst.num_elements(), 200_000);
        assert!(inst.num_sets() > 90_000);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn no_empty_sets_survive() {
        let mut rng = StdRng::seed_from_u64(1);
        // Few elements, many sets: most sets go unused and must be dropped.
        let cfg = RandomInstanceConfig::unweighted(100, 3, 2);
        let inst = random_instance(&cfg, &mut rng).unwrap();
        assert!(inst.num_sets() <= 6);
        for s in inst.sets() {
            assert!(s.size() >= 1);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = RandomInstanceConfig::unweighted(30, 60, 3);
        let a = random_instance(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = random_instance(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn variable_loads_and_capacities() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RandomInstanceConfig {
            num_sets: 40,
            num_elements: 150,
            load: LoadModel::Uniform { lo: 1, hi: 6 },
            weights: WeightModel::Uniform { lo: 0.5, hi: 4.0 },
            capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
        };
        let inst = random_instance(&cfg, &mut rng).unwrap();
        let st = InstanceStats::compute(&inst);
        assert!(st.sigma_max <= 6);
        assert!(st.b_max <= 3);
        assert!(!st.unweighted);
        // Adjusted load never exceeds raw load.
        assert!(st.nu_max <= f64::from(st.sigma_max));
    }

    #[test]
    fn infeasible_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RandomInstanceConfig::unweighted(3, 10, 5);
        assert!(matches!(
            random_instance(&cfg, &mut rng),
            Err(GenError::Infeasible(_))
        ));
        let cfg = RandomInstanceConfig::unweighted(0, 10, 1);
        assert!(random_instance(&cfg, &mut rng).is_err());
    }

    #[test]
    fn members_are_distinct_within_element() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = RandomInstanceConfig::unweighted(10, 100, 7);
        let inst = random_instance(&cfg, &mut rng).unwrap();
        for a in inst.arrivals() {
            let mut seen = std::collections::HashSet::new();
            for &s in a.members() {
                assert!(seen.insert(s), "duplicate member in {:?}", a.element());
            }
        }
    }
}
