//! Fused generate-as-you-replay sources: every generator family as an
//! [`ArrivalSource`], with the **same RNG draw sequence** as its
//! materializing twin.
//!
//! The materializing generators ([`random_instance`](super::random_instance),
//! [`biregular_instance`](super::biregular_instance),
//! [`fixed_size_instance`](super::fixed_size_instance)) build a full CSR
//! [`Instance`](crate::Instance) and hand it to the engine — which caps
//! scenario size at the RAM holding `O(n·σ)` memberships. The sources here
//! feed the engine *while generating*, so `engine::run` on the
//! materialized instance and [`run_source`](crate::engine::run_source) on
//! the fused source produce **bit-identical outcomes** (pinned by
//! `tests/source_conformance.rs`) at very different memory costs:
//!
//! * [`UniformSource`] never holds more than `O(m)` state regardless of
//!   `n`: element draws are independent, so the source replays the
//!   membership stream twice from a cloned RNG — once at construction to
//!   learn which sets survive and their realized sizes (a counter per
//!   set, no membership stored), once while streaming — with weights and
//!   capacities drawn at exactly the positions the materializing path
//!   draws them. A 10⁸-arrival scenario streams in the footprint of its
//!   set count (see `examples/streaming_replay.rs`).
//! * [`BiregularSource`] and [`FixedSizeSource`] must hold their
//!   incidence structure (the configuration-model pairing / the per-set
//!   draws are global, not per-element — that is inherent to their RNG
//!   draw order), but they share the exact drawing core with their
//!   materializing twins and stream straight out of the raw structure:
//!   no [`InstanceBuilder`](crate::InstanceBuilder) pass, no validation
//!   walk, no second CSR copy.
//!
//! All three yield arrivals from internal reused buffers, so the
//! per-arrival streaming path performs **zero heap allocations** (pinned
//! by `tests/alloc_free_streaming.rs`). [`UniformSource`] and
//! [`BiregularSource`] sort each drawn member list with [`sort_members`],
//! the one sort kernel every arrival's `C(u)` goes through (a branch-free
//! network up to [`SORT_NETWORK_MAX`](crate::SORT_NETWORK_MAX) members).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::ids::{ElementId, SetId};
use crate::instance::{sort_members, Arrival, SetMeta};
use crate::source::ArrivalSource;

use super::biregular::biregular_stubs;
use super::fixed_size::fixed_size_memberships;
use super::uniform::validate_config;
use super::{GenError, RandomInstanceConfig};

/// Partial Fisher–Yates over a persistent identity pool, consuming exactly
/// the RNG stream of the vendored `rand::seq::index::sample` — and then
/// *undoing* the swaps (in reverse) so the pool is the identity again for
/// the next arrival. This is what lets [`UniformSource`] and
/// [`random_instance`](super::random_instance) replay
/// `index_sample(rng, m, σ)` bit-for-bit without allocating a fresh
/// `0..m` pool per element.
pub(super) fn draw_picks_undo<R: RngCore + ?Sized>(
    pool: &mut [u32],
    swaps: &mut Vec<u32>,
    rng: &mut R,
    sigma: usize,
    mut visit: impl FnMut(u32),
) {
    let len = pool.len();
    swaps.clear();
    for i in 0..sigma {
        let j = i + (rng.next_u64() % (len - i) as u64) as usize;
        pool.swap(i, j);
        swaps.push(j as u32);
        visit(pool[i]);
    }
    for i in (0..sigma).rev() {
        pool.swap(i, swaps[i] as usize);
    }
}

/// [`random_instance`](super::random_instance) as a constant-memory
/// stream: `O(m)` resident state however large `n` is.
///
/// Same seed ⇒ the exact instance `random_instance` would materialize
/// from `StdRng::seed_from_u64(seed)` — same surviving sets, weights,
/// member lists, capacities, in the same arrival order.
///
/// # Examples
///
/// ```
/// use osp_core::gen::{random_instance, RandomInstanceConfig, UniformSource};
/// use osp_core::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let cfg = RandomInstanceConfig::unweighted(20, 60, 3);
/// let mut rng = StdRng::seed_from_u64(5);
/// let materialized = random_instance(&cfg, &mut rng)?;
/// let mut streamed = UniformSource::new(&cfg, 5)?;
///
/// let a = run(&materialized, &mut RandPr::from_seed(9))?;
/// let b = run_source(&mut streamed, &mut RandPr::from_seed(9))?;
/// assert_eq!(a, b); // bit-identical, without ever building the CSR arena
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct UniformSource {
    config: RandomInstanceConfig,
    sets: Vec<SetMeta>,
    /// Configured set index → dense surviving [`SetId`].
    remap: Vec<u32>,
    /// Identity permutation of `0..m`, restored after every arrival.
    pool: Vec<u32>,
    /// Swap targets of the current partial Fisher–Yates, for the undo.
    swaps: Vec<u32>,
    /// The yielded arrival's member buffer, reused across arrivals.
    members: Vec<SetId>,
    /// Replays the membership draws (clone of the construction RNG).
    member_rng: StdRng,
    /// Positioned after the weight draws; yields the capacity stream.
    cap_rng: StdRng,
    next: u32,
    n: u32,
}

impl UniformSource {
    /// Builds the source: one pass over the membership draws (counting
    /// only — `O(m)` memory) fixes the surviving sets and their realized
    /// sizes, then the weights are drawn. Streaming replays the membership
    /// draws from a cloned RNG.
    ///
    /// # Errors
    ///
    /// Same feasibility conditions as
    /// [`random_instance`](super::random_instance).
    pub fn new(config: &RandomInstanceConfig, seed: u64) -> Result<Self, GenError> {
        validate_config(config)?;
        let m = config.num_sets;
        let mut rng = StdRng::seed_from_u64(seed);
        let member_rng = rng.clone();

        // Pass A: learn which sets survive and how many elements each
        // receives, without storing a single membership list.
        let mut counts = vec![0u32; m];
        let mut pool: Vec<u32> = (0..m as u32).collect();
        let mut swaps: Vec<u32> = Vec::with_capacity(config.load.max() as usize);
        for _ in 0..config.num_elements {
            let sigma = config.load.sample(&mut rng) as usize;
            draw_picks_undo(&mut pool, &mut swaps, &mut rng, sigma, |pick| {
                counts[pick as usize] += 1;
            });
        }

        // Dense remap of surviving sets, ascending by configured id —
        // exactly `random_instance`'s re-packing.
        let mut remap = vec![u32::MAX; m];
        let mut survivors = 0u32;
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 {
                remap[s] = survivors;
                survivors += 1;
            }
        }
        let mut sets = Vec::with_capacity(survivors as usize);
        let mut sizes = counts.iter().filter(|&&c| c > 0).copied();
        for _ in 0..survivors {
            let w = config.weights.sample(&mut rng, survivors as usize);
            let size = sizes.next().expect("one realized size per survivor");
            sets.push(SetMeta::new(w, size));
        }

        Ok(UniformSource {
            config: *config,
            sets,
            remap,
            pool,
            swaps,
            members: Vec::with_capacity(config.load.max() as usize),
            member_rng,
            cap_rng: rng,
            next: 0,
            n: config.num_elements as u32,
        })
    }

    /// Resident heap bytes of the source's state — `O(m)`, independent of
    /// how many arrivals remain. Compare with
    /// [`Instance::heap_bytes`](crate::Instance::heap_bytes).
    pub fn state_bytes(&self) -> usize {
        let u32s = self.remap.len() + self.pool.len() + 2 * self.config.load.max() as usize;
        self.sets.len() * std::mem::size_of::<SetMeta>()
            + u32s * std::mem::size_of::<u32>()
            + 2 * std::mem::size_of::<StdRng>()
    }
}

impl ArrivalSource for UniformSource {
    fn sets(&self) -> &[SetMeta] {
        &self.sets
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        if self.next == self.n {
            return None;
        }
        let sigma = self.config.load.sample(&mut self.member_rng) as usize;
        self.members.clear();
        let members = &mut self.members;
        let remap = &self.remap;
        draw_picks_undo(
            &mut self.pool,
            &mut self.swaps,
            &mut self.member_rng,
            sigma,
            |pick| members.push(SetId(remap[pick as usize])),
        );
        sort_members(&mut self.members);
        let capacity = self.config.capacities.sample(&mut self.cap_rng);
        let element = ElementId(self.next);
        self.next += 1;
        Some(Arrival::new(element, capacity, &self.members))
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some((self.n - self.next) as usize)
    }
}

/// [`biregular_instance`](super::biregular_instance) as a stream: the
/// repaired configuration-model pairing is drawn once (same RNG sequence
/// as the materializing path), then arrivals stream straight out of the
/// flat stub array — no [`Instance`](crate::Instance) is ever built.
#[derive(Debug, Clone)]
pub struct BiregularSource {
    sets: Vec<SetMeta>,
    /// Element `j`'s member sets are `stubs[j*σ..(j+1)*σ]`, unsorted.
    stubs: Vec<u32>,
    sigma: usize,
    /// Sorted copy of the current window, reused across arrivals.
    members: Vec<SetId>,
    next: u32,
    n: u32,
}

impl BiregularSource {
    /// Draws the pairing; parameters and errors as
    /// [`biregular_instance`](super::biregular_instance), seeded from
    /// `StdRng::seed_from_u64(seed)`.
    ///
    /// # Errors
    ///
    /// [`GenError::Infeasible`] or [`GenError::RepairFailed`], exactly as
    /// the materializing path.
    pub fn new(m: usize, k: u32, sigma: u32, seed: u64) -> Result<Self, GenError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let stubs = biregular_stubs(m, k, sigma, &mut rng)?;
        let sigma = sigma as usize;
        let n = (stubs.len() / sigma) as u32;
        Ok(BiregularSource {
            sets: (0..m).map(|_| SetMeta::new(1.0, k)).collect(),
            stubs,
            sigma,
            members: Vec::with_capacity(sigma),
            next: 0,
            n,
        })
    }

    /// Resident heap bytes of the source's state.
    pub fn state_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<SetMeta>()
            + (self.stubs.len() + self.sigma) * std::mem::size_of::<u32>()
    }
}

impl ArrivalSource for BiregularSource {
    fn sets(&self) -> &[SetMeta] {
        &self.sets
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        if self.next == self.n {
            return None;
        }
        let j = self.next as usize;
        self.members.clear();
        self.members.extend(
            self.stubs[j * self.sigma..(j + 1) * self.sigma]
                .iter()
                .map(|&s| SetId(s)),
        );
        sort_members(&mut self.members);
        let element = ElementId(self.next);
        self.next += 1;
        Some(Arrival::new(element, 1, &self.members))
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some((self.n - self.next) as usize)
    }
}

/// [`fixed_size_instance`](super::fixed_size_instance) as a stream: the
/// per-set Zipf draws happen once through the shared core (same RNG
/// sequence as the materializing path), then the surviving elements
/// stream as zero-copy slices of one flat membership array — no
/// [`Instance`](crate::Instance) is ever built.
#[derive(Debug, Clone)]
pub struct FixedSizeSource {
    sets: Vec<SetMeta>,
    /// CSR over the non-empty elements: element `i`'s members are
    /// `members[offsets[i]..offsets[i+1]]`, sorted (sets draw in id
    /// order).
    offsets: Vec<u32>,
    members: Vec<SetId>,
    next: u32,
}

impl FixedSizeSource {
    /// Draws the memberships; parameters and errors as
    /// [`fixed_size_instance`](super::fixed_size_instance), seeded from
    /// `StdRng::seed_from_u64(seed)`.
    ///
    /// # Errors
    ///
    /// [`GenError::Infeasible`], exactly as the materializing path.
    pub fn new(m: usize, k: u32, n: usize, skew: f64, seed: u64) -> Result<Self, GenError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let memberships = fixed_size_memberships(m, k, n, skew, &mut rng)?;
        let mut offsets = vec![0u32];
        let mut members: Vec<SetId> = Vec::with_capacity(m * k as usize);
        for sets in memberships.iter().filter(|s| !s.is_empty()) {
            members.extend(sets.iter().map(|&s| SetId(s)));
            offsets.push(members.len() as u32);
        }
        Ok(FixedSizeSource {
            sets: (0..m).map(|_| SetMeta::new(1.0, k)).collect(),
            offsets,
            members,
            next: 0,
        })
    }

    /// Resident heap bytes of the source's state.
    pub fn state_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<SetMeta>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.members.len() * std::mem::size_of::<SetId>()
    }
}

impl ArrivalSource for FixedSizeSource {
    fn sets(&self) -> &[SetMeta] {
        &self.sets
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        let i = self.next as usize;
        if i + 1 >= self.offsets.len() {
            return None;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        let element = ElementId(self.next);
        self.next += 1;
        Some(Arrival::new(element, 1, &self.members[lo..hi]))
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.offsets.len() - 1 - self.next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        biregular_instance, fixed_size_instance, random_instance, CapacityModel, LoadModel,
        WeightModel,
    };
    use super::*;
    use crate::instance::Instance;

    /// Drains a source into owned `(capacity, members)` rows plus the set
    /// metadata, for comparison against a materialized instance.
    fn drain(source: &mut impl ArrivalSource) -> (Vec<SetMeta>, Vec<(u32, Vec<SetId>)>) {
        let sets = source.sets().to_vec();
        let mut rows = Vec::new();
        let mut next_element = 0u32;
        while let Some(a) = source.next_arrival() {
            assert_eq!(a.element(), ElementId(next_element), "ids consecutive");
            next_element += 1;
            rows.push((a.capacity(), a.members().to_vec()));
        }
        (sets, rows)
    }

    fn assert_stream_equals_instance(source: &mut impl ArrivalSource, instance: &Instance) {
        let (sets, rows) = drain(source);
        assert_eq!(sets.as_slice(), instance.sets(), "set metadata diverged");
        assert_eq!(rows.len(), instance.num_elements(), "length diverged");
        for (i, (capacity, members)) in rows.iter().enumerate() {
            let a = instance.arrival(i);
            assert_eq!(*capacity, a.capacity(), "capacity of element {i}");
            assert_eq!(members.as_slice(), a.members(), "members of element {i}");
        }
    }

    #[test]
    fn uniform_source_streams_the_materialized_instance() {
        let configs = [
            RandomInstanceConfig::unweighted(30, 80, 4),
            RandomInstanceConfig {
                num_sets: 40,
                num_elements: 120,
                load: LoadModel::Uniform { lo: 1, hi: 6 },
                weights: WeightModel::Uniform { lo: 0.5, hi: 4.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
            },
            RandomInstanceConfig {
                num_sets: 25,
                num_elements: 60,
                load: LoadModel::Fixed(3),
                weights: WeightModel::Zipf { exponent: 1.0 },
                capacities: CapacityModel::Fixed(2),
            },
            // Every arrival at the sort network's full width.
            RandomInstanceConfig::unweighted(200, 300, 16),
        ];
        for (ci, cfg) in configs.iter().enumerate() {
            for seed in [0u64, 7, 99] {
                let mut rng = StdRng::seed_from_u64(seed);
                let materialized = random_instance(cfg, &mut rng).unwrap();
                let mut source = UniformSource::new(cfg, seed).unwrap();
                assert_eq!(source.remaining_hint(), Some(cfg.num_elements));
                assert_stream_equals_instance(&mut source, &materialized);
                assert!(
                    source.state_bytes() < materialized.heap_bytes()
                        || cfg.num_elements < cfg.num_sets,
                    "config {ci}: streaming should be smaller than the arena"
                );
            }
        }
    }

    #[test]
    fn uniform_source_drops_unused_sets_like_the_generator() {
        // Few elements, many sets: most sets go unused and must be
        // re-packed identically on both paths.
        let cfg = RandomInstanceConfig::unweighted(100, 3, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let materialized = random_instance(&cfg, &mut rng).unwrap();
        let mut source = UniformSource::new(&cfg, 1).unwrap();
        assert!(source.sets().len() <= 6);
        assert_stream_equals_instance(&mut source, &materialized);
    }

    #[test]
    fn biregular_source_streams_the_materialized_instance() {
        // σ = 4, the `replay-biregular` workload's σ = 16 (the sort
        // network's cutoff) and σ = 20 (the `sort_unstable` fallback).
        for (m, k, sigma) in [(24, 6, 4), (400, 4, 16), (400, 5, 20)] {
            for seed in [0u64, 5, 21] {
                let mut rng = StdRng::seed_from_u64(seed);
                let materialized = biregular_instance(m, k, sigma, &mut rng).unwrap();
                let mut source = BiregularSource::new(m, k, sigma, seed).unwrap();
                let n = m * k as usize / sigma as usize;
                assert_eq!(source.remaining_hint(), Some(n));
                assert_stream_equals_instance(&mut source, &materialized);
            }
        }
    }

    #[test]
    fn fixed_size_source_streams_the_materialized_instance() {
        for seed in [0u64, 3, 17] {
            let mut rng = StdRng::seed_from_u64(seed);
            let materialized = fixed_size_instance(50, 4, 100, 1.2, &mut rng).unwrap();
            let mut source = FixedSizeSource::new(50, 4, 100, 1.2, seed).unwrap();
            assert_eq!(source.remaining_hint(), Some(materialized.num_elements()));
            assert_stream_equals_instance(&mut source, &materialized);
        }
    }

    #[test]
    fn sources_are_deterministic_in_their_seed() {
        let cfg = RandomInstanceConfig::unweighted(20, 50, 3);
        let a = drain(&mut UniformSource::new(&cfg, 9).unwrap());
        let b = drain(&mut UniformSource::new(&cfg, 9).unwrap());
        assert_eq!(a, b);
        let c = drain(&mut UniformSource::new(&cfg, 10).unwrap());
        assert_ne!(a.1, c.1);

        let a = drain(&mut BiregularSource::new(12, 4, 3, 7).unwrap());
        let b = drain(&mut BiregularSource::new(12, 4, 3, 7).unwrap());
        assert_eq!(a, b);

        let a = drain(&mut FixedSizeSource::new(20, 3, 40, 1.0, 9).unwrap());
        let b = drain(&mut FixedSizeSource::new(20, 3, 40, 1.0, 9).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn infeasible_parameters_propagate() {
        let cfg = RandomInstanceConfig::unweighted(3, 10, 5);
        assert!(matches!(
            UniformSource::new(&cfg, 0),
            Err(GenError::Infeasible(_))
        ));
        assert!(matches!(
            BiregularSource::new(5, 3, 2, 0),
            Err(GenError::Infeasible(_))
        ));
        assert!(matches!(
            FixedSizeSource::new(1, 5, 3, 0.0, 0),
            Err(GenError::Infeasible(_))
        ));
    }

    #[test]
    fn exhausted_sources_stay_exhausted() {
        let cfg = RandomInstanceConfig::unweighted(5, 4, 2);
        let mut src = UniformSource::new(&cfg, 0).unwrap();
        while src.next_arrival().is_some() {}
        assert!(src.next_arrival().is_none());
        assert_eq!(src.remaining_hint(), Some(0));
    }
}
