//! Intra-replay parallelism on one huge streamed instance: a producer
//! thread generates arrivals into a recycled chunk ring while the
//! consumer thread replays them, with outcomes bit-identical to the
//! sequential path.
//!
//! ```text
//! cargo run --release --example parallel_replay [-- <arrivals>]
//! ```
//!
//! Defaults to 2 × 10⁶ arrivals. The replay runs three times — plain
//! sequential `run_source`, pipelined at 1 thread (the exact serial
//! fallback `OSP_REPLAY_THREADS=1` selects), and pipelined at 2+
//! threads — and asserts all three outcomes equal bit-for-bit:
//! completed sets, benefit bits, the decision digest and every
//! `died_at`. The thread count only moves the wall clock (and on a
//! 1-core box not even that); `tests/parallel_replay.rs` pins the same
//! invariance across the whole algorithm × generator grid.

use std::time::Instant;

use osp::core::engine::parallel::run_source_parallel_with;
use osp::core::gen::{RandomInstanceConfig, UniformSource};
use osp::core::prelude::*;
use osp::core::ReplayScratch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arrivals: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(2_000_000);
    let (m, sigma, seed) = (1_000usize, 4u32, 42u64);
    let cfg = RandomInstanceConfig::unweighted(m, arrivals, sigma);

    // Leg 1: the sequential reference.
    let t = Instant::now();
    let sequential = run_source(
        &mut UniformSource::new(&cfg, seed)?,
        &mut RandPr::from_seed(7),
    )?;
    let t_seq = t.elapsed().as_secs_f64();

    // Leg 2: one thread — the pipelined entry point degenerates to the
    // exact serial replay loop (no producer thread, no chunk ring).
    let mut scratch = ReplayScratch::new();
    let t = Instant::now();
    let serial_fallback = run_source_parallel_with(
        &mut UniformSource::new(&cfg, seed)?,
        &mut RandPr::from_seed(7),
        &ParallelConfig::with_threads(1),
        &mut scratch,
    )?;
    let t_one = t.elapsed().as_secs_f64();

    // Leg 3: the pipelined session proper — generation and replay
    // overlap, chunk arenas recycle through a bounded ring.
    let threads = osp::core::engine::parallel::threads_from_env().max(2);
    let t = Instant::now();
    let pipelined = run_source_parallel_with(
        &mut UniformSource::new(&cfg, seed)?,
        &mut RandPr::from_seed(7),
        &ParallelConfig::with_threads(threads),
        &mut scratch,
    )?;
    let t_pipe = t.elapsed().as_secs_f64();

    // The contract: bit-identical outcomes, thread count be damned.
    assert_eq!(sequential, serial_fallback, "1-thread fallback diverged");
    assert_eq!(sequential, pipelined, "pipelined replay diverged");
    println!("conformance: pipelined ≡ serial at n={arrivals} ✓");

    let rate = |t: f64| arrivals as f64 / t.max(1e-9) / 1e6;
    println!("arrivals:            {arrivals}");
    println!(
        "sequential:          {t_seq:.2}s  ({:.1}M arrivals/s)",
        rate(t_seq)
    );
    println!(
        "pipelined @1 thread: {t_one:.2}s  ({:.1}M arrivals/s, exact serial fallback)",
        rate(t_one)
    );
    println!(
        "pipelined @{threads} threads: {t_pipe:.2}s  ({:.1}M arrivals/s)",
        rate(t_pipe)
    );
    println!(
        "randPr benefit:      {:.0} of {m} sets completed",
        sequential.benefit()
    );
    Ok(())
}
