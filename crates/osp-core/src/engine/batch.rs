//! Sharded batch replay: many `(instance × seed × algorithm)` jobs at once.
//!
//! The experiment harness replays the same frozen [`Instance`]s thousands
//! of times under different seeds and algorithms. [`ReplayPool`] fans such
//! a work-list across `std::thread` shards while keeping the results
//! **bit-identical to sequential replay**:
//!
//! * every job's seed is fixed *before* fan-out (either by the caller or
//!   via [`derive_seed`]'s O(1) SplitMix64 stream access), so no job's
//!   randomness depends on which shard runs it or in which order;
//! * every shard executes the one and only engine implementation
//!   ([`Session`](super::Session), via [`run_with_scratch`]) — there is
//!   no second "parallel" code path to drift;
//! * results are returned in job order regardless of shard interleaving.
//!
//! Each shard owns a [`ReplayScratch`], so consecutive jobs on a shard
//! reuse the engine's bookkeeping buffers and the per-arrival hot path
//! performs no allocations of its own.
//!
//! The `tests/batch_equivalence.rs` conformance suite in the workspace
//! root pins the bit-identical claim for every built-in algorithm at shard
//! counts 1, 2 and 8.

use crate::algorithm::OnlineAlgorithm;
use crate::error::Error;
use crate::ids::ElementId;
use crate::instance::{Instance, SetMeta};
use crate::source::ArrivalSource;
use crate::spec::{run_spec_with_scratch, JobSpec, SpecResolver};

use super::{run_source_with_scratch, run_with_scratch, Outcome};

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

/// The machine default: `std::thread::available_parallelism`, 1 if the
/// platform cannot say.
fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The one environment-sizing policy every thread-count variable in the
/// workspace routes through — `OSP_REPLAY_SHARDS`
/// ([`ReplayPool::from_env`]), `OSP_WORKERS` (the process pool's worker
/// count), `OSP_PROLOGUE_THREADS`
/// ([`prologue::threads_from_env`](super::prologue::threads_from_env))
/// and `OSP_REPLAY_THREADS`
/// ([`parallel::threads_from_env`](super::parallel::threads_from_env)).
/// Reads the named variable and applies, deterministically,
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

/// One replay job: which instance to replay, which algorithm family
/// (an index the caller's factory interprets), and the seed for the
/// algorithm's randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayJob<'a> {
    /// The frozen instance to replay.
    pub instance: &'a Instance,
    /// Caller-defined algorithm selector, passed through to the factory.
    pub algorithm: usize,
    /// Seed handed to the factory (ignore it for deterministic algorithms).
    pub seed: u64,
}

/// One streamed replay job: which arrival source to build (a selector the
/// caller's source factory interprets), which algorithm family, and the
/// seed handed to both factories.
///
/// Unlike [`ReplayJob`] there is no borrowed instance here: each shard
/// *rebuilds* its jobs' sources locally from `(source, seed)`, which is
/// what lets streamed jobs fan out without materializing anything — the
/// [`ArrivalSource`] determinism contract (same construction inputs ⇒ same
/// stream) guarantees the rebuilt stream is the one the caller meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceJob {
    /// Caller-defined source selector, passed through to the source
    /// factory.
    pub source: usize,
    /// Caller-defined algorithm selector, passed through to the algorithm
    /// factory.
    pub algorithm: usize,
    /// Seed handed to both factories (derive per-job values with
    /// [`derive_seed`]; ignore it for deterministic jobs).
    pub seed: u64,
}

/// A sharded replay pool.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
/// use osp_core::engine::batch::{derive_seed, ReplayJob, ReplayPool};
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
///
/// let pool = ReplayPool::new(2);
/// let jobs: Vec<ReplayJob> = (0..8)
///     .map(|i| ReplayJob { instance: &inst, algorithm: 0, seed: derive_seed(7, i) })
///     .collect();
/// let outcomes = pool.run_jobs(&jobs, &|_, seed| Box::new(RandPr::from_seed(seed)));
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

    /// The one sharding kernel both public entry points ride: splits
    /// `items` into contiguous chunks (one per shard), gives every shard
    /// its own state from `init`, applies `f` to each item, and returns
    /// the results **in item order** regardless of which shard computed
    /// what. With one shard (or one item) it degenerates to a plain
    /// sequential loop on the caller's thread.
    fn shard_map<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        if self.shards == 1 || items.len() <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        let chunk = items.len().div_ceil(self.shards);
        let mut results: Vec<Vec<R>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(shard, slice)| {
                    let f = &f;
                    let init = &init;
                    let base = shard * chunk;
                    scope.spawn(move || {
                        let mut state = init();
                        slice
                            .iter()
                            .enumerate()
                            .map(|(j, t)| f(&mut state, base + j, t))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            results = handles
                .into_iter()
                .map(|h| h.join().expect("replay shard panicked"))
                .collect();
        });
        results.into_iter().flatten().collect()
    }

    /// Deterministic parallel map: applies `f` to every item and returns
    /// the results **in item order**, regardless of which shard computed
    /// what. `f` receives the item's index alongside the item, so callers
    /// can derive per-item seeds without any shared mutable state.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.shard_map(items, || (), |(), i, t| f(i, t))
    }

    /// Replays every job and returns the outcomes in job order.
    ///
    /// `factory(algorithm, seed)` constructs the job's algorithm *inside
    /// the shard that runs it*; each shard reuses one [`ReplayScratch`]
    /// across its jobs. A job whose algorithm emits an invalid decision
    /// yields that job's `Err` without disturbing the others.
    pub fn run_jobs<F>(&self, jobs: &[ReplayJob<'_>], factory: &F) -> Vec<Result<Outcome, Error>>
    where
        F: Fn(usize, u64) -> Box<dyn OnlineAlgorithm> + Sync,
    {
        self.shard_map(jobs, ReplayScratch::new, |scratch, _, job| {
            let mut alg = factory(job.algorithm, job.seed);
            run_with_scratch(job.instance, alg.as_mut(), scratch)
        })
    }

    /// The streamed lane: replays every [`SourceJob`] and returns the
    /// outcomes in job order, bit-identical to sequential
    /// [`run_source`](super::run_source) on the same jobs.
    ///
    /// `sources(selector, seed)` and `algorithms(selector, seed)` construct
    /// the job's arrival source and algorithm *inside the shard that runs
    /// it* — nothing about the stream depends on shard count or
    /// scheduling, because every job's seed is fixed before fan-out (the
    /// same [`derive_seed`] discipline as [`run_jobs`](Self::run_jobs))
    /// and sources are deterministic in their construction inputs. Each
    /// shard reuses one [`ReplayScratch`] across its jobs.
    ///
    /// # Examples
    ///
    /// ```
    /// use osp_core::gen::UniformSource;
    /// use osp_core::gen::RandomInstanceConfig;
    /// use osp_core::prelude::*;
    /// use osp_core::engine::batch::SourceJob;
    ///
    /// let cfg = RandomInstanceConfig::unweighted(20, 50, 3);
    /// let jobs: Vec<SourceJob> = (0..8)
    ///     .map(|i| SourceJob { source: 0, algorithm: 0, seed: derive_seed(7, i) })
    ///     .collect();
    /// let outcomes = ReplayPool::new(2).run_sources(
    ///     &jobs,
    ///     &|_, seed| Box::new(UniformSource::new(&cfg, seed).unwrap()),
    ///     &|_, seed| Box::new(RandPr::from_seed(seed)),
    /// );
    /// assert_eq!(outcomes.len(), 8);
    /// assert!(outcomes.iter().all(|o| o.is_ok()));
    /// ```
    pub fn run_sources<'a, SF, AF>(
        &self,
        jobs: &[SourceJob],
        sources: &SF,
        algorithms: &AF,
    ) -> Vec<Result<Outcome, Error>>
    where
        SF: Fn(usize, u64) -> Box<dyn ArrivalSource + 'a> + Sync,
        AF: Fn(usize, u64) -> Box<dyn OnlineAlgorithm> + Sync,
    {
        self.shard_map(jobs, ReplayScratch::new, |scratch, _, job| {
            let mut source = sources(job.source, job.seed);
            let mut alg = algorithms(job.algorithm, job.seed);
            run_source_with_scratch(&mut source, alg.as_mut(), scratch)
        })
    }

    /// The composed lane: batch fan-out × intra-replay parallelism. Every
    /// [`SourceJob`] replays through the pipelined session
    /// ([`run_source_parallel_with`](super::parallel::run_source_parallel_with))
    /// with `config` threads, while this pool still shards the *job list*
    /// — `OSP_REPLAY_SHARDS` jobs in flight, each overlapping its arrival
    /// generation with its decision loop on `OSP_REPLAY_THREADS` threads.
    /// Outcomes are bit-identical to [`run_sources`](Self::run_sources)
    /// (and therefore to sequential [`run_source`](super::run_source)) at
    /// every shard × thread combination, because both axes preserve the
    /// bit-identity contract independently.
    ///
    /// Sources must be `Send`: each job's source crosses into that job's
    /// producer thread.
    pub fn run_sources_pipelined<'a, SF, AF>(
        &self,
        jobs: &[SourceJob],
        sources: &SF,
        algorithms: &AF,
        config: &super::parallel::ParallelConfig,
    ) -> Vec<Result<Outcome, Error>>
    where
        SF: Fn(usize, u64) -> Box<dyn ArrivalSource + Send + 'a> + Sync,
        AF: Fn(usize, u64) -> Box<dyn OnlineAlgorithm> + Sync,
    {
        self.shard_map(jobs, ReplayScratch::new, |scratch, _, job| {
            let mut source = sources(job.source, job.seed);
            let mut alg = algorithms(job.algorithm, job.seed);
            super::parallel::run_source_parallel_with(&mut source, alg.as_mut(), config, scratch)
        })
    }

    /// The data-driven lane: replays every [`JobSpec`] through `resolver`
    /// and returns the outcomes in job order — the thread-backed twin of
    /// the process pool
    /// ([`ProcessPool`](super::dispatch::ProcessPool)), sharing the same
    /// seed and ordering contract: seeds are fixed in the specs before
    /// fan-out, shards resolve their jobs locally, results come back in
    /// submission order. `tests/process_pool_conformance.rs` pins all
    /// three lanes (sequential [`run_spec`](crate::spec::run_spec), this
    /// one, processes) bit-identical.
    pub fn run_specs<R>(&self, jobs: &[JobSpec], resolver: &R) -> Vec<Result<Outcome, Error>>
    where
        R: SpecResolver + Sync,
    {
        self.shard_map(jobs, ReplayScratch::new, |scratch, _, job| {
            run_spec_with_scratch(job, resolver, scratch)
        })
    }

    /// Convenience for the common one-source-family/one-algorithm case:
    /// builds one source per seed and replays each, returning the outcomes
    /// in seed order.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm emits an invalid decision (the built-in
    /// algorithms never do); use [`run_sources`](Self::run_sources) to
    /// observe per-job errors instead.
    pub fn run_source_seeds<'a, SF, AF>(
        &self,
        seeds: &[u64],
        source: &SF,
        algorithm: &AF,
    ) -> Vec<Outcome>
    where
        SF: Fn(u64) -> Box<dyn ArrivalSource + 'a> + Sync,
        AF: Fn(u64) -> Box<dyn OnlineAlgorithm> + Sync,
    {
        let jobs: Vec<SourceJob> = seeds
            .iter()
            .map(|&seed| SourceJob {
                source: 0,
                algorithm: 0,
                seed,
            })
            .collect();
        self.run_sources(&jobs, &|_, seed| source(seed), &|_, seed| algorithm(seed))
            .into_iter()
            .map(|r| r.expect("batch algorithm emitted an invalid decision"))
            .collect()
    }

    /// Convenience for the common one-instance/one-algorithm case: replays
    /// `instance` once per seed and returns the outcomes in seed order.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm emits an invalid decision (the built-in
    /// algorithms never do); use [`run_jobs`](Self::run_jobs) to observe
    /// per-job errors instead.
    pub fn run_seeds<F>(&self, instance: &Instance, seeds: &[u64], factory: &F) -> Vec<Outcome>
    where
        F: Fn(u64) -> Box<dyn OnlineAlgorithm> + Sync,
    {
        let jobs: Vec<ReplayJob<'_>> = seeds
            .iter()
            .map(|&seed| ReplayJob {
                instance,
                algorithm: 0,
                seed,
            })
            .collect();
        self.run_jobs(&jobs, &|_, seed| factory(seed))
            .into_iter()
            .map(|r| r.expect("batch algorithm emitted an invalid decision"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyOnline, RandPr, TieBreak};
    use crate::engine::run;
    use crate::gen::{random_instance, RandomInstanceConfig};
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
            let batch = pool.run_seeds(&inst, &seeds, &|s| Box::new(RandPr::from_seed(s)));
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
        let jobs = vec![
            ReplayJob {
                instance: &a,
                algorithm: 0,
                seed: 1,
            },
            ReplayJob {
                instance: &b,
                algorithm: 1,
                seed: 0,
            },
            ReplayJob {
                instance: &a,
                algorithm: 1,
                seed: 0,
            },
            ReplayJob {
                instance: &b,
                algorithm: 0,
                seed: 2,
            },
        ];
        let factory = |alg: usize, seed: u64| -> Box<dyn OnlineAlgorithm> {
            match alg {
                0 => Box::new(RandPr::from_seed(seed)),
                _ => Box::new(GreedyOnline::new(TieBreak::ByWeight)),
            }
        };
        let pooled = ReplayPool::new(3).run_jobs(&jobs, &factory);
        for (job, got) in jobs.iter().zip(&pooled) {
            let mut alg = factory(job.algorithm, job.seed);
            let want = run(job.instance, alg.as_mut()).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want);
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for shards in [1usize, 2, 7, 16] {
            let out = ReplayPool::new(shards).map(&items, |i, &x| (i as u64) * 1000 + x);
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
    fn run_specs_matches_sequential_run_spec() {
        use crate::gen::RandomInstanceConfig;
        use crate::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
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
            let pooled = ReplayPool::new(shards).run_specs(&jobs, &CoreResolver);
            let pooled: Vec<Outcome> = pooled.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(pooled, sequential, "shards={shards}");
        }
    }

    #[test]
    fn empty_job_list_is_empty_result() {
        let pool = ReplayPool::new(4);
        assert!(pool
            .run_jobs(&[], &|_, s| Box::new(RandPr::from_seed(s)))
            .is_empty());
        let empty: [u8; 0] = [];
        assert!(pool.map(&empty, |_, &x| x).is_empty());
    }

    #[test]
    fn invalid_decisions_fail_only_their_job() {
        use crate::algorithms::OracleOnline;
        let mut b = crate::InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(1, &[s0, s1]);
        let inst = b.build().unwrap();
        let jobs = vec![
            ReplayJob {
                instance: &inst,
                algorithm: 0, // feasible: pick s0 only
                seed: 0,
            },
            ReplayJob {
                instance: &inst,
                algorithm: 1, // infeasible: oracle wants both, capacity 1
                seed: 0,
            },
        ];
        let out = ReplayPool::new(2).run_jobs(&jobs, &|alg, _| match alg {
            0 => Box::new(OracleOnline::new(vec![s0])),
            _ => Box::new(OracleOnline::new(vec![s0, s1])),
        });
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(Error::DecisionOverCapacity { .. })));
    }
}
