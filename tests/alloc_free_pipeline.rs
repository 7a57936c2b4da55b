//! Warm-steady-state allocation lane for the **pipelined session**
//! (`run_source_parallel_with`).
//!
//! The serial lanes (`tests/alloc_free_replay.rs`,
//! `tests/alloc_free_streaming.rs`) assert *zero* allocations per warm
//! arrival. The pipeline cannot hit literal zero per run — each run
//! spawns one producer thread, opens two bounded rendezvous channels,
//! rebuilds the priority table and snapshots an [`Outcome`] — but all of
//! that is **per-run** cost, not per-arrival cost: the chunk arenas are
//! recycled through the ring and the session buffers come from a warm
//! [`ReplayScratch`], so the arrival loop itself stays allocation-free
//! once warm. This lane pins exactly that shape: after warm-up, tripling
//! the stream length changes the run's total allocation count by at most
//! a handful (the `completed` collect's doubling schedule may differ by
//! a couple of grows between outcomes), and the whole budget stays under
//! a loose absolute bound.
//!
//! Built with `harness = false` like its siblings; the producer thread
//! is *ours* (its allocations are part of the measured budget and must
//! also be length-independent), and no libtest thread can race extra
//! allocations into the window.

use osp::core::algorithms::RandPr;
use osp::core::engine::parallel::run_source_parallel_with;
use osp::core::gen::{RandomInstanceConfig, UniformSource};
use osp::core::prelude::*;
use osp::core::ReplayScratch;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One pipelined replay of `n` streamed arrivals; returns the allocator
/// calls across the whole run (thread spawn + channels + priority table +
/// replay + outcome snapshot — source construction excluded, as in the
/// serial lanes).
fn measured_pipelined_run(
    cfg: &RandomInstanceConfig,
    n: usize,
    alg: &mut RandPr,
    scratch: &mut ReplayScratch,
) -> (u64, Outcome) {
    let cfg = RandomInstanceConfig {
        num_elements: n,
        ..*cfg
    };
    let mut source = UniformSource::new(&cfg, 31).unwrap();
    let config = ParallelConfig::with_threads(2);
    let before = allocations();
    let outcome = run_source_parallel_with(&mut source, alg, &config, scratch).unwrap();
    let after = allocations();
    (after - before, outcome)
}

fn main() {
    let cfg = RandomInstanceConfig::unweighted(60, 0, 4);
    let mut alg = RandPr::from_seed(7);
    let mut scratch = ReplayScratch::new();

    // Warm-up at the LARGER length first: grows the scratch buffers and
    // the chunk arenas to their steady-state footprint, so neither
    // measured run below sees a first-touch grow.
    let (_, warm) = measured_pipelined_run(&cfg, 6000, &mut alg, &mut scratch);
    assert_eq!(warm.arrivals(), 6000, "warm-up stream length");

    let (allocs_small, out_small) = measured_pipelined_run(&cfg, 2000, &mut alg, &mut scratch);
    let (allocs_large, out_large) = measured_pipelined_run(&cfg, 6000, &mut alg, &mut scratch);
    assert_eq!(out_small.arrivals(), 2000);
    assert_eq!(out_large.arrivals(), 6000);

    // Steady state: the per-run overhead (thread, channels, table,
    // snapshot) is constant — tripling the stream adds no per-arrival
    // allocations, only (at most) a couple of snapshot-side grows.
    let spread = allocs_large.abs_diff(allocs_small);
    assert!(
        spread <= 8,
        "warm pipelined run allocates per arrival \
         ({allocs_small} allocs @ n=2000 vs {allocs_large} @ n=6000)"
    );
    // And the constant itself is small: a thread spawn, two channels, a
    // priority table and an outcome snapshot, not an arena rebuild.
    assert!(
        allocs_large <= 160,
        "warm pipelined run cost too high: {allocs_large} allocations"
    );

    // The measured configuration is still a faithful replay: fresh
    // algorithms on both sides (RandPr's RNG advances across replays, so
    // reusing the warm one would change the draw).
    let check_cfg = RandomInstanceConfig {
        num_elements: 6000,
        ..cfg
    };
    let want = osp::core::run_source(
        &mut UniformSource::new(&check_cfg, 31).unwrap(),
        &mut RandPr::from_seed(7),
    )
    .unwrap();
    let mut fresh_scratch = ReplayScratch::new();
    let got = run_source_parallel_with(
        &mut UniformSource::new(&check_cfg, 31).unwrap(),
        &mut RandPr::from_seed(7),
        &ParallelConfig::with_threads(2),
        &mut fresh_scratch,
    )
    .unwrap();
    assert_eq!(want, got, "pipelined outcome diverged from serial");
}
