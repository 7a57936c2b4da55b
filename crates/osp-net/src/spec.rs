//! The full spec registry: everything [`CoreResolver`] resolves, plus the
//! osp-net algorithm and scenario variants.
//!
//! [`NetResolver`] is what the `osp-worker` binary (and any dispatcher
//! that may see network workloads) should use: it resolves
//!
//! * [`AlgorithmSpec::TailDrop`] / [`AlgorithmSpec::RandomDrop`] — the
//!   frame-oblivious router baselines ([`policy`](crate::policy));
//! * [`ScenarioSpec::VideoTrace`] — a seeded multiplexed video trace
//!   (standard GOP, [`video_trace`]) reduced
//!   to OSP arrivals through the owning stream
//!   ([`OwnedTraceSource`], the same
//!   reduction `tests/source_conformance.rs` pins bit-identical to the
//!   materializing [`trace_to_instance`](crate::mapping::trace_to_instance));
//!
//! and delegates every core variant to [`CoreResolver`], so the two
//! registries can never drift on the shared roster.

use rand::rngs::StdRng;
use rand::SeedableRng;

use osp_core::source::ArrivalSource;
use osp_core::spec::{AlgorithmSpec, CoreResolver, ScenarioSpec, SpecResolver};
use osp_core::{Error, OnlineAlgorithm};

use crate::frame::GopConfig;
use crate::mapping::OwnedTraceSource;
use crate::policy::{RandomDrop, TailDrop};
use crate::trace::{video_trace, VideoTraceConfig};

/// The workspace-wide registry: core + osp-net spec variants.
///
/// # Examples
///
/// ```
/// use osp_core::spec::{run_spec, AlgorithmSpec, JobSpec, ScenarioSpec};
/// use osp_net::spec::NetResolver;
///
/// let job = JobSpec {
///     scenario: ScenarioSpec::VideoTrace {
///         sources: 4,
///         frames_per_source: 10,
///         frame_interval: 8,
///         capacity: 4,
///         jitter: 0,
///     },
///     algorithm: AlgorithmSpec::TailDrop,
///     seed: 7,
/// };
/// let a = run_spec(&job, &NetResolver)?;
/// let b = run_spec(&job, &NetResolver)?;
/// assert_eq!(a, b); // same spec ⇒ bit-identical outcome
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NetResolver;

impl SpecResolver for NetResolver {
    fn algorithm(
        &self,
        spec: &AlgorithmSpec,
        seed: u64,
    ) -> Result<Box<dyn OnlineAlgorithm>, Error> {
        match spec {
            AlgorithmSpec::TailDrop => Ok(Box::new(TailDrop::new())),
            AlgorithmSpec::RandomDrop => Ok(Box::new(RandomDrop::from_seed(seed))),
            other => CoreResolver.algorithm(other, seed),
        }
    }

    fn scenario(&self, spec: &ScenarioSpec, seed: u64) -> Result<Box<dyn ArrivalSource>, Error> {
        match spec {
            ScenarioSpec::VideoTrace {
                sources,
                frames_per_source,
                frame_interval,
                capacity,
                jitter,
            } => {
                if *sources == 0
                    || *frames_per_source == 0
                    || *frame_interval == 0
                    || *capacity == 0
                {
                    return Err(Error::InvalidSpec(
                        "video trace needs nonzero sources, frames, interval and capacity".into(),
                    ));
                }
                let config = VideoTraceConfig {
                    sources: *sources,
                    frames_per_source: *frames_per_source,
                    gop: GopConfig::standard(),
                    frame_interval: *frame_interval,
                    capacity: *capacity,
                    jitter: *jitter,
                };
                let trace = video_trace(&config, &mut StdRng::seed_from_u64(seed));
                Ok(Box::new(OwnedTraceSource::new(trace)?))
            }
            other => CoreResolver.scenario(other, seed),
        }
    }

    fn roster(&self) -> Vec<String> {
        let mut roster = CoreResolver.roster();
        roster.extend(["video_trace", "tail_drop", "random_drop"].map(String::from));
        roster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::trace_to_instance;
    use osp_core::gen::RandomInstanceConfig;
    use osp_core::run;
    use osp_core::spec::{run_spec, JobSpec};

    fn video_scenario() -> ScenarioSpec {
        ScenarioSpec::VideoTrace {
            sources: 4,
            frames_per_source: 12,
            frame_interval: 8,
            capacity: 4,
            jitter: 2,
        }
    }

    #[test]
    fn net_algorithms_resolve_and_match_direct_construction() {
        let job = JobSpec {
            scenario: video_scenario(),
            algorithm: AlgorithmSpec::RandomDrop,
            seed: 5,
        };
        let via_spec = run_spec(&job, &NetResolver).unwrap();
        // Direct reference: same trace, same reduction, same policy seed.
        let config = VideoTraceConfig {
            sources: 4,
            frames_per_source: 12,
            gop: GopConfig::standard(),
            frame_interval: 8,
            capacity: 4,
            jitter: 2,
        };
        let trace = video_trace(&config, &mut StdRng::seed_from_u64(5));
        let mapped = trace_to_instance(&trace);
        let direct = run(&mapped.instance, &mut RandomDrop::from_seed(5)).unwrap();
        assert_eq!(via_spec, direct);
    }

    #[test]
    fn core_variants_delegate() {
        let job = JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(20, 50, 3)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 9,
        };
        let via_net = run_spec(&job, &NetResolver).unwrap();
        let via_core = run_spec(&job, &CoreResolver).unwrap();
        assert_eq!(via_net, via_core);
    }

    #[test]
    fn video_scenario_can_host_core_algorithms() {
        let job = JobSpec {
            scenario: video_scenario(),
            algorithm: AlgorithmSpec::RandPr,
            seed: 3,
        };
        let a = run_spec(&job, &NetResolver).unwrap();
        let b = run_spec(&job, &NetResolver).unwrap();
        assert_eq!(a, b);
        assert!(a.arrivals() > 0);
    }

    #[test]
    fn degenerate_video_parameters_are_invalid_specs() {
        let job = JobSpec {
            scenario: ScenarioSpec::VideoTrace {
                sources: 0,
                frames_per_source: 1,
                frame_interval: 1,
                capacity: 1,
                jitter: 0,
            },
            algorithm: AlgorithmSpec::TailDrop,
            seed: 0,
        };
        assert!(matches!(
            run_spec(&job, &NetResolver),
            Err(Error::InvalidSpec(_))
        ));
    }
}
