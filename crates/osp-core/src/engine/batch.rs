//! Sharded batch replay: many seeded jobs at once.
//!
//! randPr's and hashPr's priorities are fixed by the seed alone (§3.1),
//! so a batch of replays is a deterministic, order-preserving map over
//! seeded jobs. [`ReplayPool::map`] is that map: it fans a work-list
//! across `std::thread` shards while keeping the results **bit-identical
//! to sequential replay**:
//!
//! * every job's seed is fixed *before* fan-out (either by the caller or
//!   via [`derive_seed`]'s O(1) SplitMix64 stream access), so no job's
//!   randomness depends on which shard runs it or in which order;
//! * every replay runs the one and only engine loop
//!   ([`run_source_with_scratch`](super::run_source_with_scratch) or
//!   [`run_spec_with_scratch`](crate::spec::run_spec_with_scratch)) —
//!   there is no second "parallel" code path to drift;
//! * results are returned in job order regardless of shard interleaving.
//!
//! Each shard owns a [`ReplayScratch`] that `map` hands to the closure,
//! so consecutive jobs on a shard reuse the engine's bookkeeping buffers
//! and the per-arrival hot path performs no allocations of its own.
//!
//! The `tests/batch_equivalence.rs` conformance suite in the workspace
//! root pins the bit-identical claim for every built-in algorithm at shard
//! counts 1, 2 and 8.

use crate::ids::ElementId;
use crate::instance::SetMeta;

/// Reusable engine buffers for one replay shard.
///
/// Holds the per-set bookkeeping (`assigned`, `alive`, `died_at`), the
/// algorithm's decision buffer and the decision validation scratch;
/// [`Session::with_scratch`](super::Session::with_scratch) borrows them for
/// a run and [`Session::finish_into`](super::Session::finish_into) hands
/// them back. With every per-arrival buffer recycled here, a warm shard
/// performs zero heap allocations per arrival.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    pub(super) assigned: Vec<u32>,
    pub(super) alive: Vec<bool>,
    pub(super) died_at: Vec<Option<ElementId>>,
    pub(super) decision_buf: Vec<crate::SetId>,
    pub(super) sorted: Vec<crate::SetId>,
    /// Per-job copy of a source's set metadata
    /// ([`run_source_with_scratch`](super::run_source_with_scratch) fills
    /// it so the source stays free for mutable pulls).
    pub(super) set_metas: Vec<SetMeta>,
}

impl ReplayScratch {
    /// Creates empty scratch buffers (they grow to instance size on first
    /// use and are reused afterwards).
    pub fn new() -> Self {
        ReplayScratch::default()
    }
}

/// The SplitMix64 golden-gamma increment (also used by the vendored
/// `StdRng` seeding and `osp_stats::SeedSequence`).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: the same pre-mix `StdRng::seed_from_u64` applies.
#[inline]
fn splitmix_finalize(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machine default: `std::thread::available_parallelism` (which
/// respects the process's CPU affinity), 1 if the platform cannot say.
pub(crate) fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The one environment-sizing policy every thread-count variable in the
/// workspace routes through — `OSP_REPLAY_SHARDS`
/// ([`ReplayPool::from_env`]) and `OSP_WORKERS` (the process pool's
/// worker count). Reads the named variable and applies, deterministically,
///
/// * unset / empty / non-numeric / out-of-range → the machine default
///   (`available_parallelism`, 1 if unknown) — malformed values are
///   *rejected*, never partially honored;
/// * `0` → clamped to 1 (a zero-lane pool cannot make progress);
/// * any other number → used as-is (whitespace tolerated).
///
/// The clamp/junk/zero policy is pinned by the `parse_parallelism` unit
/// tests below; call sites must not re-implement it.
pub fn env_parallelism(var: &str) -> usize {
    parse_parallelism(std::env::var(var).ok().as_deref(), machine_parallelism())
}

/// Pure core of [`env_parallelism`]: `value` is the raw variable content
/// (or `None` if unset), `fallback` the machine default.
fn parse_parallelism(value: Option<&str>, fallback: usize) -> usize {
    match value.map(str::trim).map(str::parse::<usize>) {
        Some(Ok(0)) => 1,
        Some(Ok(n)) => n,
        Some(Err(_)) | None => fallback.max(1),
    }
}

/// The one scoped-thread splitter in the engine: cuts `slots` into at
/// most `threads` disjoint contiguous ranges and runs `fill(start, range)`
/// on each from its own scoped thread, where `range[j]` is slot
/// `start + j`. [`ReplayPool`]'s shards and the `begin`-time priority
/// tables of `randPr` and `hashPr` all ride it. With one thread (or at
/// most one slot) it is a single `fill(0, slots)` call on the caller's
/// thread — the serial path.
///
/// Every shard count writes the same bytes provided `fill` computes slot
/// `i` as a pure function of `i` and its own captured inputs, with no
/// shared mutable state. The priority tables meet this: `hashPr` evaluates
/// a shared polynomial at the set id (each shard walks its range by
/// forward differences seeded at the range's first id, exact in the hash
/// field), and `randPr` draws from a SplitMix64 stream whose position
/// before set `i` is known without generating, so each shard jumps its
/// clone of the RNG straight there. `tests/batch_equivalence.rs` pins
/// shard counts {1, 2, 8} bit-identical for both.
pub(crate) fn split_ranges<T, F>(slots: &mut [T], threads: usize, fill: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = threads.max(1).min(slots.len().max(1));
    if threads == 1 {
        fill(0, slots);
        return;
    }
    let chunk = slots.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (shard, range) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || fill(shard * chunk, range));
        }
    });
}

/// Derives the seed of job `index` from a `root` seed in O(1).
///
/// This is random access into the SplitMix64 stream rooted at `root`:
/// `derive_seed(root, i)` equals the `(i+1)`-th output of
/// `osp_stats::SeedSequence::new(root)` (the workspace's sequential seed
/// fan-out), so batch work-lists and sequential trial loops can share one
/// seed universe. Crucially the value depends only on `(root, index)` —
/// never on shard count or scheduling.
pub fn derive_seed(root: u64, index: u64) -> u64 {
    splitmix_finalize(root.wrapping_add(GOLDEN_GAMMA.wrapping_mul(index.wrapping_add(1))))
}

/// A sharded replay pool: one deterministic, order-preserving map.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
///
/// let seeds: Vec<u64> = (0..8).map(|i| derive_seed(7, i)).collect();
/// let outcomes = ReplayPool::new(2).map(&seeds, |scratch, _, &seed| {
///     run_source_with_scratch(&mut inst.source(), &mut RandPr::from_seed(seed), scratch)
/// });
/// assert!(outcomes.iter().all(|o| o.as_ref().unwrap().benefit() == 1.0));
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReplayPool {
    shards: usize,
}

impl ReplayPool {
    /// Creates a pool with the given shard (thread) count; zero is treated
    /// as one.
    pub fn new(shards: usize) -> Self {
        ReplayPool {
            shards: shards.max(1),
        }
    }

    /// A pool sized to the machine: the `OSP_REPLAY_SHARDS` environment
    /// variable if set, otherwise `std::thread::available_parallelism`,
    /// under the [`env_parallelism`] hardening policy (`0` clamps to 1,
    /// non-numeric values fall back to the machine default).
    pub fn from_env() -> Self {
        ReplayPool::new(env_parallelism("OSP_REPLAY_SHARDS"))
    }

    /// Number of shards this pool fans work across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Deterministic parallel map: applies `f` to every item and returns
    /// the results **in item order**, regardless of which shard computed
    /// what. The engine's one scoped-thread splitter hands each shard a
    /// contiguous run of items; the shard owns one [`ReplayScratch`] and
    /// passes it to every call, so consecutive replays on a shard reuse
    /// the engine's buffers (closures that do not replay ignore it). `f`
    /// also receives the item's index, so callers can derive per-item
    /// seeds without any shared mutable state. With one shard (or one
    /// item) it is a plain sequential loop on the caller's thread.
    ///
    /// # Examples
    ///
    /// A streamed batch: each shard rebuilds its items' sources from their
    /// seeds, so nothing is materialized and no stream depends on the
    /// shard count.
    ///
    /// ```
    /// use osp_core::gen::{RandomInstanceConfig, UniformSource};
    /// use osp_core::prelude::*;
    ///
    /// let cfg = RandomInstanceConfig::unweighted(20, 50, 3);
    /// let seeds: Vec<u64> = (0..8).map(|i| derive_seed(7, i)).collect();
    /// let outcomes = ReplayPool::new(2).map(&seeds, |scratch, _, &seed| {
    ///     let mut source = UniformSource::new(&cfg, seed).unwrap();
    ///     run_source_with_scratch(&mut source, &mut RandPr::from_seed(seed), scratch)
    /// });
    /// assert_eq!(outcomes.len(), 8);
    /// assert!(outcomes.iter().all(|o| o.is_ok()));
    /// ```
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut ReplayScratch, usize, &T) -> R + Sync,
    {
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        split_ranges(
            &mut results,
            self.shards,
            &|start, slots: &mut [Option<R>]| {
                let mut scratch = ReplayScratch::new();
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(&mut scratch, start + j, &items[start + j]));
                }
            },
        );
        results
            .into_iter()
            .map(|r| r.expect("every slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::OnlineAlgorithm;
    use crate::algorithms::{GreedyOnline, RandPr, TieBreak};
    use crate::engine::{run, run_source_with_scratch, Outcome};
    use crate::error::Error;
    use crate::gen::{random_instance, RandomInstanceConfig};
    use crate::instance::Instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> Instance {
        let mut rng = StdRng::seed_from_u64(5);
        random_instance(&RandomInstanceConfig::unweighted(30, 80, 4), &mut rng).unwrap()
    }

    #[test]
    fn derive_seed_matches_sequential_splitmix_stream() {
        // Reimplementation of SeedSequence's sequential walk.
        let root = 1234u64;
        let mut state = root;
        for i in 0..20u64 {
            state = state.wrapping_add(GOLDEN_GAMMA);
            assert_eq!(derive_seed(root, i), splitmix_finalize(state), "index {i}");
        }
    }

    #[test]
    fn derive_seed_is_index_stable() {
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
        assert_ne!(derive_seed(9, 3), derive_seed(9, 4));
        assert_ne!(derive_seed(9, 3), derive_seed(10, 3));
    }

    #[test]
    fn pool_matches_sequential_for_every_shard_count() {
        let inst = workload();
        let seeds: Vec<u64> = (0..17).map(|i| derive_seed(42, i)).collect();
        let sequential: Vec<Outcome> = seeds
            .iter()
            .map(|&s| run(&inst, &mut RandPr::from_seed(s)).unwrap())
            .collect();
        for shards in [1usize, 2, 3, 8, 32] {
            let pool = ReplayPool::new(shards);
            let batch = pool.map(&seeds, |scratch, _, &s| {
                run_source_with_scratch(&mut inst.source(), &mut RandPr::from_seed(s), scratch)
                    .unwrap()
            });
            assert_eq!(batch, sequential, "shards={shards}");
        }
    }

    #[test]
    fn jobs_can_mix_instances_and_algorithms() {
        let a = workload();
        let b = {
            let mut rng = StdRng::seed_from_u64(6);
            random_instance(&RandomInstanceConfig::unweighted(10, 25, 3), &mut rng).unwrap()
        };
        let jobs: Vec<(&Instance, usize, u64)> =
            vec![(&a, 0, 1), (&b, 1, 0), (&a, 1, 0), (&b, 0, 2)];
        let factory = |alg: usize, seed: u64| -> Box<dyn OnlineAlgorithm> {
            match alg {
                0 => Box::new(RandPr::from_seed(seed)),
                _ => Box::new(GreedyOnline::new(TieBreak::ByWeight)),
            }
        };
        let pooled = ReplayPool::new(3).map(&jobs, |scratch, _, &(inst, alg, seed)| {
            run_source_with_scratch(&mut inst.source(), factory(alg, seed).as_mut(), scratch)
        });
        for (&(inst, alg, seed), got) in jobs.iter().zip(&pooled) {
            let want = run(inst, factory(alg, seed).as_mut()).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want);
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for shards in [1usize, 2, 7, 16] {
            let out = ReplayPool::new(shards).map(&items, |_, i, &x| (i as u64) * 1000 + x);
            let want: Vec<u64> = (0..100).map(|i| i * 1000 + i).collect();
            assert_eq!(out, want, "shards={shards}");
        }
    }

    #[test]
    fn zero_shards_is_one() {
        assert_eq!(ReplayPool::new(0).shards(), 1);
    }

    #[test]
    fn parallelism_policy_is_deterministic() {
        // Unset → machine default (clamped to at least 1).
        assert_eq!(parse_parallelism(None, 8), 8);
        assert_eq!(parse_parallelism(None, 0), 1);
        // Zero → clamped to one lane, not the machine default.
        assert_eq!(parse_parallelism(Some("0"), 8), 1);
        // Honest numbers pass through, whitespace tolerated.
        assert_eq!(parse_parallelism(Some("3"), 8), 3);
        assert_eq!(parse_parallelism(Some(" 4 "), 8), 4);
        // Non-numeric / empty / negative / overflowing → rejected,
        // deterministically back to the machine default.
        for junk in [
            "",
            "  ",
            "abc",
            "-1",
            "3.5",
            "1e3",
            "99999999999999999999999",
        ] {
            assert_eq!(parse_parallelism(Some(junk), 8), 8, "input {junk:?}");
        }
    }

    #[test]
    fn env_parallelism_of_an_unset_variable_is_the_machine_default() {
        // The full policy is pinned on the pure parse_parallelism above;
        // here only the unset lookup path is exercised. Tests must not
        // call set_var: libtest runs threads concurrently, and mutating
        // the process environment while another thread reads it is a
        // getenv/setenv data race.
        assert_eq!(
            env_parallelism("OSP_TEST_VARIABLE_THAT_IS_NEVER_SET"),
            machine_parallelism().max(1)
        );
    }

    #[test]
    fn split_ranges_writes_every_slot_at_any_thread_count() {
        // A sharded fill into a recycled buffer goes through the engine's
        // one splitter; every slot must be written at any fan-out,
        // including more threads than slots.
        let fill = |start: usize, slots: &mut [u64]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u64 * 5 + 2;
            }
        };
        let want: Vec<u64> = (0..101u64).map(|i| i * 5 + 2).collect();
        let mut buf = Vec::new();
        for threads in [0usize, 1, 2, 3, 8, 101, 300] {
            buf.clear();
            buf.resize(101, 0u64);
            split_ranges(&mut buf, threads, &fill);
            assert_eq!(buf, want, "threads={threads}");
        }
    }

    #[test]
    fn split_ranges_over_an_empty_slice_is_fine() {
        let fill = |_: usize, slots: &mut [u8]| assert!(slots.is_empty());
        let mut table: Vec<u8> = Vec::new();
        split_ranges(&mut table, 4, &fill);
        assert!(table.is_empty());
    }

    #[test]
    fn split_ranges_hands_out_disjoint_contiguous_ranges() {
        // Record the (start, len) of every range a 4-thread split hands
        // out; together they must tile 0..m exactly once.
        use std::sync::Mutex;
        let ranges = Mutex::new(Vec::new());
        let fill = |start: usize, slots: &mut [u32]| {
            ranges.lock().unwrap().push((start, slots.len()));
            slots.fill(1);
        };
        let mut table = vec![0u32; 10];
        split_ranges(&mut table, 4, &fill);
        assert_eq!(table, vec![1u32; 10]);
        let mut ranges = ranges.into_inner().unwrap();
        ranges.sort_unstable();
        let mut next = 0;
        for (start, len) in ranges {
            assert_eq!(start, next);
            next = start + len;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn run_specs_matches_sequential_run_spec() {
        use crate::spec::{
            run_spec, run_spec_with_scratch, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec,
        };
        let jobs: Vec<JobSpec> = (0..9)
            .map(|i| JobSpec {
                scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
                algorithm: AlgorithmSpec::RandPr,
                seed: derive_seed(11, i),
            })
            .collect();
        let sequential: Vec<Outcome> = jobs
            .iter()
            .map(|j| run_spec(j, &CoreResolver).unwrap())
            .collect();
        for shards in [1usize, 2, 4] {
            let pooled = ReplayPool::new(shards).map(&jobs, |scratch, _, job| {
                run_spec_with_scratch(job, &CoreResolver, scratch)
            });
            let pooled: Vec<Outcome> = pooled.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(pooled, sequential, "shards={shards}");
        }
    }

    #[test]
    fn empty_job_list_is_empty_result() {
        let pool = ReplayPool::new(4);
        let inst = workload();
        let no_seeds: [u64; 0] = [];
        assert!(pool
            .map(&no_seeds, |scratch, _, &s| {
                run_source_with_scratch(&mut inst.source(), &mut RandPr::from_seed(s), scratch)
            })
            .is_empty());
        let empty: [u8; 0] = [];
        assert!(pool.map(&empty, |_, _, &x| x).is_empty());
    }

    #[test]
    fn invalid_decisions_fail_only_their_job() {
        use crate::algorithms::OracleOnline;
        let mut b = crate::InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(1, &[s0, s1]);
        let inst = b.build().unwrap();
        let picks = vec![
            vec![s0],     // feasible: pick s0 only
            vec![s0, s1], // infeasible: oracle wants both, capacity 1
        ];
        let out = ReplayPool::new(2).map(&picks, |scratch, _, pick| {
            run_source_with_scratch(
                &mut inst.source(),
                &mut OracleOnline::new(pick.clone()),
                scratch,
            )
        });
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(Error::DecisionOverCapacity { .. })));
    }
}
