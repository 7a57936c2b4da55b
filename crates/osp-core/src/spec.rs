//! Data-driven job specs: serializable descriptions of *what to replay*.
//!
//! The thread pool ([`ReplayPool`](crate::ReplayPool)) describes work with
//! borrowed instances and shard-local closures — perfect in-process,
//! impossible to hand to another process or machine. This module is the
//! load-bearing alternative: a job is **data**,
//!
//! * [`ScenarioSpec`] — which arrival stream to build (a generator family
//!   with its parameters, or an osp-net trace reference), resolved into
//!   the existing fused [`ArrivalSource`] streams;
//! * [`AlgorithmSpec`] — which online algorithm to run, with its
//!   parameters (the five core families here, plus the two osp-net
//!   router baselines resolvable by osp-net's `NetResolver`);
//! * [`JobSpec`] — `(scenario, algorithm, seed)`, the complete replayable
//!   unit. Same spec ⇒ same [`Outcome`], bit for bit, on
//!   any worker — the [`ArrivalSource`] determinism contract extended
//!   across process boundaries.
//!
//! Specs are turned into live sources and algorithms by a registry
//! implementing [`SpecResolver`]. [`CoreResolver`] covers everything this
//! crate defines and rejects the osp-net variants with
//! [`Error::UnsupportedSpec`]; osp-net's `NetResolver` wraps it and covers
//! the full roster. Run one job with [`run_spec`]; fan a work-list out
//! with a [`Dispatcher`](crate::engine::dispatch::Dispatcher) — threads
//! ([`SpecPool`](crate::engine::dispatch::SpecPool)), worker processes
//! ([`ProcessPool`](crate::engine::dispatch::ProcessPool)) or a socket
//! fleet ([`SocketPool`](crate::engine::dispatch::SocketPool)) — and derive
//! per-job seeds with [`derive_seed`](crate::derive_seed) exactly as the
//! in-process lanes do.
//!
//! All spec types derive their serde impls. Each spec enum is one JSON
//! object led by its tag (`{"algorithm":"hash_pr","independence":8}`), so
//! a [`JobSpec`]'s canonical JSON is the job itself: it crosses a socket
//! to a worker process ([`wire`](crate::wire)), is the
//! [`job_digest`](crate::job_digest) cache key and the journal record.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::algorithms::{GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak};
use crate::engine::batch::ReplayScratch;
use crate::engine::{run_source_with_scratch, Outcome};
use crate::error::Error;
use crate::gen::{BiregularSource, FixedSizeSource, GenError, RandomInstanceConfig, UniformSource};
use crate::source::ArrivalSource;
use crate::{OnlineAlgorithm, SetId};

/// The largest `independence` a [`AlgorithmSpec::HashRandPr`] may ask
/// for. The hash holds one coefficient per degree of independence, and a
/// spec may come from any client. §3.1 needs only `k_max·σ_max`-wise
/// independence; the largest any workload in this repository uses is 64.
pub const MAX_INDEPENDENCE: usize = 4096;

/// Serializable description of an online algorithm and its parameters.
///
/// Seeds are *not* part of the spec: the job's seed
/// ([`JobSpec::seed`]) is handed to the resolver at build time, so one
/// spec fans out across a seed range without rewriting.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "algorithm")]
pub enum AlgorithmSpec {
    /// The paper's `randPr` (§3.1): one random priority per set from
    /// `R_w`, seeded per job.
    RandPr,
    /// Distributed `randPr` via a shared `independence`-wise independent
    /// hash (§3.1); every replica with the same seed decides identically.
    #[serde(rename = "hash_pr")]
    HashRandPr {
        /// Independence level of the hash family: at least 1 and at most
        /// [`MAX_INDEPENDENCE`], or the spec is an
        /// [`Error::InvalidSpec`].
        independence: usize,
    },
    /// Deterministic greedy under a [`TieBreak`] ranking policy.
    Greedy {
        /// Ranking policy.
        tie_break: TieBreak,
    },
    /// The ablation baseline: a fresh coin per element.
    RandomAssign,
    /// Scripted oracle committing to a fixed target packing.
    Oracle {
        /// The sets the oracle fights for.
        target: Vec<SetId>,
    },
    /// osp-net's FIFO tail-drop router baseline (resolvable by
    /// `osp_net::spec::NetResolver`, not by [`CoreResolver`]).
    TailDrop,
    /// osp-net's uniform random-drop router baseline (resolvable by
    /// `osp_net::spec::NetResolver`, not by [`CoreResolver`]).
    RandomDrop,
}

impl AlgorithmSpec {
    /// A short stable label for tables and logs (e.g. `"randPr"`,
    /// `"greedy[weight]"`).
    pub fn label(&self) -> String {
        match self {
            AlgorithmSpec::RandPr => "randPr".into(),
            AlgorithmSpec::HashRandPr { independence } => format!("hashPr{independence}"),
            AlgorithmSpec::Greedy { tie_break } => {
                let tag = serde::Serialize::to_value(tie_break);
                format!(
                    "greedy[{}]",
                    serde::variant_tag(&tag, None).unwrap_or_default()
                )
            }
            AlgorithmSpec::RandomAssign => "random-assign".into(),
            AlgorithmSpec::Oracle { .. } => "oracle".into(),
            AlgorithmSpec::TailDrop => "tail-drop".into(),
            AlgorithmSpec::RandomDrop => "random-drop".into(),
        }
    }
}

/// Serializable description of an arrival stream: a generator family with
/// its parameters, or an osp-net trace reference. The job seed picks the
/// concrete stream out of the family.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "scenario")]
pub enum ScenarioSpec {
    /// [`UniformSource`]: the general random family of
    /// [`random_instance`](crate::gen::random_instance), streamed fused.
    Uniform(#[serde(rename = "config")] RandomInstanceConfig),
    /// [`BiregularSource`]: exactly size-`k` sets and load-`σ` elements
    /// (the Theorem 5 instance class).
    Biregular {
        /// Number of sets `m`.
        num_sets: usize,
        /// Exact set size `k`.
        set_size: u32,
        /// Exact element load `σ`.
        load: u32,
    },
    /// [`FixedSizeSource`]: size-`k` sets with Zipf-skewed element loads.
    FixedSize {
        /// Number of sets `m`.
        num_sets: usize,
        /// Exact set size `k`.
        set_size: u32,
        /// Number of elements drawn (empty ones are skipped).
        num_elements: usize,
        /// Zipf skew of the per-set element draws.
        skew: f64,
    },
    /// An osp-net video-trace reference: a multiplexed GOP-patterned
    /// packet trace (standard GOP), reduced to OSP arrivals slot by slot.
    /// Resolvable by `osp_net::spec::NetResolver`, not by
    /// [`CoreResolver`].
    VideoTrace {
        /// Parallel video sources multiplexed onto the link.
        sources: usize,
        /// Frames emitted per source.
        frames_per_source: usize,
        /// Slots between consecutive frames of one source.
        frame_interval: u32,
        /// Link capacity (packets per slot).
        capacity: u32,
        /// Per-packet jitter window (0 = in-order).
        jitter: u32,
    },
}

impl ScenarioSpec {
    /// A short stable label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            ScenarioSpec::Uniform(cfg) => {
                format!(
                    "uniform m={} n={} σmax={}",
                    cfg.num_sets,
                    cfg.num_elements,
                    cfg.load.max()
                )
            }
            ScenarioSpec::Biregular {
                num_sets,
                set_size,
                load,
            } => format!("biregular m={num_sets} k={set_size} σ={load}"),
            ScenarioSpec::FixedSize {
                num_sets,
                set_size,
                num_elements,
                skew,
            } => format!("fixed-size m={num_sets} k={set_size} n={num_elements} skew={skew}"),
            ScenarioSpec::VideoTrace {
                sources,
                frames_per_source,
                ..
            } => format!("video-trace sources={sources} frames={frames_per_source}"),
        }
    }
}

/// One complete replayable unit: which stream, which algorithm, which
/// seed. Everything a worker needs; nothing borrowed.
///
/// The seed feeds *both* factories (scenario and algorithm), and is fixed
/// by the scheduler before fan-out — typically with
/// [`derive_seed`](crate::derive_seed) — so no job's randomness depends on
/// which worker runs it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// The arrival stream to build.
    pub scenario: ScenarioSpec,
    /// The algorithm to run over it.
    pub algorithm: AlgorithmSpec,
    /// Seed handed to both factories.
    pub seed: u64,
}

/// A registry turning specs into live sources and algorithms.
///
/// Implementations must be *pure*: the same `(spec, seed)` must always
/// build the same source/algorithm, because that is what makes a
/// [`JobSpec`] mean the same thing on every thread, process and machine.
/// Resolvers that do not know a variant return
/// [`Error::UnsupportedSpec`] rather than guessing.
pub trait SpecResolver {
    /// Builds the algorithm `spec` describes, seeding it with `seed`.
    fn algorithm(&self, spec: &AlgorithmSpec, seed: u64)
        -> Result<Box<dyn OnlineAlgorithm>, Error>;

    /// Builds the arrival stream `spec` describes, seeding it with `seed`.
    fn scenario(&self, spec: &ScenarioSpec, seed: u64) -> Result<Box<dyn ArrivalSource>, Error>;

    /// The wire tags of every spec variant this resolver can build —
    /// scenario tags plus algorithm tags, as they appear in the JSON
    /// encoding (`"uniform"`, `"rand_pr"`, …). A socket worker announces
    /// this in its [`Hello`](crate::wire::Hello) handshake so a
    /// dispatcher can fail fast on a fleet that cannot run its roster.
    /// The default is empty (announce nothing).
    fn roster(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The core registry: resolves every spec variant defined by this crate's
/// own algorithms and generators, and rejects the osp-net variants
/// ([`AlgorithmSpec::TailDrop`], [`AlgorithmSpec::RandomDrop`],
/// [`ScenarioSpec::VideoTrace`]) with [`Error::UnsupportedSpec`] — use
/// `osp_net::spec::NetResolver` for the full roster.
///
/// # Examples
///
/// ```
/// use osp_core::gen::RandomInstanceConfig;
/// use osp_core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
///
/// let job = JobSpec {
///     scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
///     algorithm: AlgorithmSpec::RandPr,
///     seed: 7,
/// };
/// let a = run_spec(&job, &CoreResolver)?;
/// let b = run_spec(&job, &CoreResolver)?;
/// assert_eq!(a, b); // same spec ⇒ bit-identical outcome
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreResolver;

impl SpecResolver for CoreResolver {
    fn algorithm(
        &self,
        spec: &AlgorithmSpec,
        seed: u64,
    ) -> Result<Box<dyn OnlineAlgorithm>, Error> {
        match spec {
            AlgorithmSpec::RandPr => Ok(Box::new(RandPr::from_seed(seed))),
            AlgorithmSpec::HashRandPr { independence } => {
                if *independence == 0 {
                    return Err(Error::InvalidSpec(
                        "hash_pr independence must be at least 1".into(),
                    ));
                }
                if *independence > MAX_INDEPENDENCE {
                    return Err(Error::InvalidSpec(format!(
                        "hash_pr independence {independence} exceeds the limit of \
                         {MAX_INDEPENDENCE}"
                    )));
                }
                Ok(Box::new(HashRandPr::new(*independence, seed)))
            }
            AlgorithmSpec::Greedy { tie_break } => Ok(Box::new(GreedyOnline::new(*tie_break))),
            AlgorithmSpec::RandomAssign => Ok(Box::new(RandomAssign::from_seed(seed))),
            AlgorithmSpec::Oracle { target } => Ok(Box::new(OracleOnline::new(target.clone()))),
            AlgorithmSpec::TailDrop | AlgorithmSpec::RandomDrop => Err(Error::UnsupportedSpec(
                format!("{} (an osp-net algorithm; use NetResolver)", spec.label()),
            )),
        }
    }

    fn scenario(&self, spec: &ScenarioSpec, seed: u64) -> Result<Box<dyn ArrivalSource>, Error> {
        match spec {
            ScenarioSpec::Uniform(cfg) => {
                Ok(Box::new(UniformSource::new(cfg, seed).map_err(gen_err)?))
            }
            ScenarioSpec::Biregular {
                num_sets,
                set_size,
                load,
            } => Ok(Box::new(
                BiregularSource::new(*num_sets, *set_size, *load, seed).map_err(gen_err)?,
            )),
            ScenarioSpec::FixedSize {
                num_sets,
                set_size,
                num_elements,
                skew,
            } => Ok(Box::new(
                FixedSizeSource::new(*num_sets, *set_size, *num_elements, *skew, seed)
                    .map_err(gen_err)?,
            )),
            ScenarioSpec::VideoTrace { .. } => Err(Error::UnsupportedSpec(format!(
                "{} (an osp-net scenario; use NetResolver)",
                spec.label()
            ))),
        }
    }

    fn roster(&self) -> Vec<String> {
        [
            "uniform",
            "biregular",
            "fixed_size",
            "rand_pr",
            "hash_pr",
            "greedy",
            "random_assign",
            "oracle",
        ]
        .map(String::from)
        .to_vec()
    }
}

fn gen_err(e: GenError) -> Error {
    Error::InvalidSpec(e.to_string())
}

/// Resolves and replays one [`JobSpec`] — the sequential reference every
/// dispatcher must match bit-for-bit.
///
/// # Errors
///
/// [`Error::UnsupportedSpec`] / [`Error::InvalidSpec`] if the resolver
/// cannot build the job, or the engine's usual invalid-decision errors.
pub fn run_spec<R: SpecResolver + ?Sized>(job: &JobSpec, resolver: &R) -> Result<Outcome, Error> {
    let mut scratch = ReplayScratch::new();
    run_spec_with_scratch(job, resolver, &mut scratch)
}

/// [`run_spec`] with caller-provided scratch, so consecutive jobs on one
/// worker reuse the engine's buffers (the worker loop and the dispatcher
/// shards call this).
///
/// This is the one job boundary: a panic anywhere in the job — resolver,
/// source or algorithm — fails this job alone, as
/// [`Error::JobPanicked`] with the panic's message, and the caller's
/// thread goes on to its next job. Reusing `scratch` after an unwind is
/// safe because [`Session::with_scratch`](crate::engine::Session::with_scratch)
/// clears and resizes every buffer before a job reads it.
///
/// # Errors
///
/// Same contract as [`run_spec`], plus [`Error::JobPanicked`].
pub fn run_spec_with_scratch<R: SpecResolver + ?Sized>(
    job: &JobSpec,
    resolver: &R,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut source = resolver.scenario(&job.scenario, job.seed)?;
        let mut algorithm = resolver.algorithm(&job.algorithm, job.seed)?;
        run_source_with_scratch(&mut source, algorithm.as_mut(), scratch)
    }))
    .unwrap_or_else(|payload| Err(Error::JobPanicked(panic_message(payload.as_ref()))))
}

/// The text a panic was raised with (`panic!` with a literal or a format
/// string), or a placeholder for any other payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(text) => (*text).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "a panic without a message".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_source;
    use crate::gen::{CapacityModel, LoadModel, WeightModel};

    fn uniform_job(seed: u64) -> JobSpec {
        JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
            algorithm: AlgorithmSpec::RandPr,
            seed,
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let cases = vec![
            uniform_job(7),
            JobSpec {
                scenario: ScenarioSpec::Uniform(RandomInstanceConfig {
                    num_sets: 40,
                    num_elements: 100,
                    load: LoadModel::Uniform { lo: 1, hi: 6 },
                    weights: WeightModel::Zipf { exponent: 1.0 },
                    capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
                }),
                algorithm: AlgorithmSpec::HashRandPr { independence: 8 },
                seed: 9,
            },
            JobSpec {
                scenario: ScenarioSpec::Biregular {
                    num_sets: 24,
                    set_size: 3,
                    load: 6,
                },
                algorithm: AlgorithmSpec::Greedy {
                    tie_break: TieBreak::ByDensity,
                },
                seed: 1,
            },
            JobSpec {
                scenario: ScenarioSpec::FixedSize {
                    num_sets: 40,
                    set_size: 4,
                    num_elements: 90,
                    skew: 1.2,
                },
                algorithm: AlgorithmSpec::Oracle {
                    target: vec![SetId(1), SetId(4)],
                },
                seed: 2,
            },
            JobSpec {
                scenario: ScenarioSpec::VideoTrace {
                    sources: 4,
                    frames_per_source: 30,
                    frame_interval: 8,
                    capacity: 4,
                    jitter: 2,
                },
                algorithm: AlgorithmSpec::TailDrop,
                seed: 0,
            },
        ];
        for job in cases {
            let json = serde_json::to_string(&job).unwrap();
            let back: JobSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, job, "via {json}");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(serde_json::from_str::<AlgorithmSpec>(r#"{"algorithm":"quantum"}"#).is_err());
        assert!(serde_json::from_str::<ScenarioSpec>(r#"{"scenario":"trust_me"}"#).is_err());
        assert!(serde_json::from_str::<TieBreak>(r#""by-vibes""#).is_err());
        assert!(serde_json::from_str::<LoadModel>(r#"{"model":"gaussian"}"#).is_err());
    }

    #[test]
    fn core_resolver_matches_direct_construction() {
        let cfg = RandomInstanceConfig::unweighted(30, 80, 4);
        let job = JobSpec {
            scenario: ScenarioSpec::Uniform(cfg),
            algorithm: AlgorithmSpec::HashRandPr { independence: 8 },
            seed: 42,
        };
        let via_spec = run_spec(&job, &CoreResolver).unwrap();
        let direct = run_source(
            &mut UniformSource::new(&cfg, 42).unwrap(),
            &mut HashRandPr::new(8, 42),
        )
        .unwrap();
        assert_eq!(via_spec, direct);
    }

    #[test]
    fn core_resolver_rejects_net_specs() {
        assert!(matches!(
            CoreResolver.algorithm(&AlgorithmSpec::TailDrop, 0),
            Err(Error::UnsupportedSpec(_))
        ));
        assert!(matches!(
            CoreResolver.algorithm(&AlgorithmSpec::RandomDrop, 0),
            Err(Error::UnsupportedSpec(_))
        ));
        let video = ScenarioSpec::VideoTrace {
            sources: 1,
            frames_per_source: 1,
            frame_interval: 1,
            capacity: 1,
            jitter: 0,
        };
        assert!(matches!(
            CoreResolver.scenario(&video, 0),
            Err(Error::UnsupportedSpec(_))
        ));
    }

    #[test]
    fn invalid_parameters_surface_as_invalid_spec() {
        let job = JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(3, 10, 5)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 0,
        };
        assert!(matches!(
            run_spec(&job, &CoreResolver),
            Err(Error::InvalidSpec(_))
        ));
        for independence in [0, MAX_INDEPENDENCE + 1, 1 << 62] {
            assert!(matches!(
                CoreResolver.algorithm(&AlgorithmSpec::HashRandPr { independence }, 0),
                Err(Error::InvalidSpec(_))
            ));
        }
        assert!(CoreResolver
            .algorithm(
                &AlgorithmSpec::HashRandPr {
                    independence: MAX_INDEPENDENCE
                },
                0
            )
            .is_ok());
    }

    #[test]
    fn malformed_generator_models_are_invalid_specs_not_panics() {
        // Each of these used to reach an assert in the models' samplers
        // and panic inside run_spec.
        let base = RandomInstanceConfig::unweighted(20, 50, 3);
        let malformed = [
            RandomInstanceConfig {
                capacities: CapacityModel::Fixed(0),
                ..base
            },
            RandomInstanceConfig {
                capacities: CapacityModel::Uniform { lo: 3, hi: 1 },
                ..base
            },
            RandomInstanceConfig {
                capacities: CapacityModel::Uniform { lo: 0, hi: 2 },
                ..base
            },
            RandomInstanceConfig {
                weights: WeightModel::Uniform { lo: 3.0, hi: 1.0 },
                ..base
            },
            RandomInstanceConfig {
                weights: WeightModel::Uniform { lo: -1.0, hi: 1.0 },
                ..base
            },
            RandomInstanceConfig {
                weights: WeightModel::Uniform {
                    lo: f64::NAN,
                    hi: 1.0,
                },
                ..base
            },
            RandomInstanceConfig {
                weights: WeightModel::Zipf { exponent: 0.0 },
                ..base
            },
            RandomInstanceConfig {
                weights: WeightModel::Zipf { exponent: f64::NAN },
                ..base
            },
            RandomInstanceConfig {
                load: LoadModel::Fixed(0),
                ..base
            },
            RandomInstanceConfig {
                load: LoadModel::Uniform { lo: 3, hi: 2 },
                ..base
            },
            RandomInstanceConfig {
                load: LoadModel::Uniform { lo: 0, hi: 2 },
                ..base
            },
        ];
        for cfg in malformed {
            let job = JobSpec {
                scenario: ScenarioSpec::Uniform(cfg),
                algorithm: AlgorithmSpec::RandPr,
                seed: 1,
            };
            assert!(
                matches!(run_spec(&job, &CoreResolver), Err(Error::InvalidSpec(_))),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AlgorithmSpec::RandPr.label(), "randPr");
        assert_eq!(
            AlgorithmSpec::HashRandPr { independence: 8 }.label(),
            "hashPr8"
        );
        assert_eq!(
            AlgorithmSpec::Greedy {
                tie_break: TieBreak::ByWeight
            }
            .label(),
            "greedy[weight]"
        );
        assert_eq!(
            ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(2, 3, 1)).label(),
            "uniform m=2 n=3 σmax=1"
        );
    }
}
