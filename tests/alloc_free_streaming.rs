//! The streaming-path twin of `tests/alloc_free_replay.rs`: pulling
//! arrivals out of a **warm** source and stepping them through a warm
//! [`Session`] performs zero heap allocations per arrival — for every
//! fused generator source, the instance-backed source and the osp-net
//! trace source.
//!
//! Source *construction* may allocate (it is per-job state: the uniform
//! source's O(m) tables, the biregular pairing, the trace validation
//! pass); the arrival loop may not. A counting global allocator wraps
//! `System`; after one warm-up replay has grown the [`ReplayScratch`]
//! buffers and the algorithm's begin-time state, a second replay's entire
//! arrival loop must not touch the allocator.
//!
//! The target is built with `harness = false` (see `Cargo.toml`) so the
//! process has exactly one thread and nothing can race allocations into
//! the measured window of the process-global counter.

use osp::core::algorithms::RandPr;
use osp::core::gen::{
    BiregularSource, CapacityModel, FixedSizeSource, LoadModel, RandomInstanceConfig,
    UniformSource, WeightModel,
};
use osp::core::prelude::*;
use osp::core::source::ArrivalSource;
use osp::core::ReplayScratch;
use osp::net::{video_trace, TraceSource, VideoTraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Replays `source` through a scratch-backed session, measuring allocator
/// calls across the arrival loop only (construction, `begin` and the
/// job-level outcome snapshot are per-job costs and excluded by design).
/// Returns `(allocations_in_loop, arrivals, outcome)`.
fn measured_replay(
    mut source: impl ArrivalSource,
    alg: &mut dyn OnlineAlgorithm,
    scratch: &mut ReplayScratch,
    metas: &mut Vec<SetMeta>,
) -> (u64, usize, Outcome) {
    metas.clear();
    metas.extend_from_slice(source.sets());
    let mut session = Session::with_scratch(metas, alg, scratch);
    let before = allocations();
    let mut arrivals = 0usize;
    while let Some(arrival) = source.next_arrival() {
        session.step(&arrival, alg).unwrap();
        arrivals += 1;
    }
    let after = allocations();
    (after - before, arrivals, session.finish_into(scratch))
}

fn main() {
    let uniform_cfg = RandomInstanceConfig {
        num_sets: 60,
        num_elements: 300,
        load: LoadModel::Uniform { lo: 1, hi: 5 },
        weights: WeightModel::Uniform { lo: 0.5, hi: 4.0 },
        capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
    };
    let materialized =
        osp::core::gen::random_instance(&uniform_cfg, &mut StdRng::seed_from_u64(31)).unwrap();
    let trace = video_trace(&VideoTraceConfig::small(), &mut StdRng::seed_from_u64(31));

    // Streaming is single-pass, so warm-up and measured runs each rebuild
    // the source (construction allocates; the arrival loop must not).
    fn check<S: ArrivalSource>(name: &str, build: impl Fn() -> S) {
        let mut alg = RandPr::from_seed(7);
        let mut scratch = ReplayScratch::new();
        let mut metas: Vec<SetMeta> = Vec::new();
        // Warm-up: grows the scratch buffers, the metas copy and the
        // algorithm's begin-time state to this stream's footprint.
        let (_, warm_arrivals, _) = measured_replay(build(), &mut alg, &mut scratch, &mut metas);
        assert!(warm_arrivals > 0, "{name}: empty stream");
        // Warm run: the arrival loop must not allocate at all.
        let (allocs, arrivals, outcome) =
            measured_replay(build(), &mut alg, &mut scratch, &mut metas);
        assert_eq!(arrivals, warm_arrivals, "{name}: stream length changed");
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} allocation(s) during {arrivals} warm streamed arrivals"
        );
        // And the replay is still a faithful one.
        assert_eq!(outcome.arrivals(), arrivals as u64, "{name}: arrival count");
    }

    check("uniform", || UniformSource::new(&uniform_cfg, 31).unwrap());
    check("biregular", || BiregularSource::new(40, 5, 4, 31).unwrap());
    check("fixed_size", || {
        FixedSizeSource::new(50, 4, 120, 1.2, 31).unwrap()
    });
    check("instance", || materialized.source());
    check("trace", || TraceSource::new(&trace).unwrap());
}
