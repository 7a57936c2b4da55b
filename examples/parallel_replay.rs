//! Intra-replay parallelism on one huge streamed instance: a producer
//! thread generates arrivals into a recycled chunk ring while the
//! consumer thread replays them, with outcomes bit-identical to the
//! serial loop.
//!
//! ```text
//! cargo run --release --example parallel_replay [-- <arrivals>]
//! ```
//!
//! Defaults to 2 × 10⁶ arrivals over m = n/2 sets with σ = 4 members per
//! arrival (so sets have k ≈ 8 elements, the paper's regime). The replay
//! runs twice on one warm `ReplayScratch` — the serial loop
//! (`run_source_with_scratch`) and the pipelined session
//! (`run_source_pipelined`) — and asserts the two outcomes equal
//! bit-for-bit: completed sets, benefit bits, the decision digest and
//! every `died_at`. Only the wall clock differs (and on a 1-core box not
//! even that); `tests/parallel_replay.rs` pins the same invariance
//! across the whole algorithm × generator grid.

use std::time::Instant;

use osp::core::gen::{RandomInstanceConfig, UniformSource};
use osp::core::prelude::*;
use osp::core::ReplayScratch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arrivals: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(2_000_000);
    let (sigma, seed) = (4u32, 42u64);
    // m = n/2, but never fewer sets than one arrival lists.
    let m = (arrivals / 2).max(sigma as usize);
    let cfg = RandomInstanceConfig::unweighted(m, arrivals, sigma);

    // Warm the shared scratch on the same set count, so neither timed
    // leg pays first-touch growth of its O(m) buffers.
    let mut scratch = ReplayScratch::new();
    run_source_with_scratch(
        &mut UniformSource::new(&RandomInstanceConfig::unweighted(m, 1024, sigma), seed)?,
        &mut RandPr::from_seed(7),
        &mut scratch,
    )?;

    // Leg 1: the serial replay loop.
    let mut source = UniformSource::new(&cfg, seed)?;
    let t = Instant::now();
    let serial = run_source_with_scratch(&mut source, &mut RandPr::from_seed(7), &mut scratch)?;
    let t_serial = t.elapsed().as_secs_f64();

    // Leg 2: the pipelined session — generation and replay overlap,
    // chunk arenas recycle through a bounded ring.
    let mut source = UniformSource::new(&cfg, seed)?;
    let t = Instant::now();
    let pipelined = run_source_pipelined(&mut source, &mut RandPr::from_seed(7), &mut scratch)?;
    let t_pipe = t.elapsed().as_secs_f64();

    // The contract: bit-identical outcomes.
    assert_eq!(serial, pipelined, "pipelined replay diverged");
    println!("conformance: pipelined ≡ serial at n={arrivals} ✓");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rate = |t: f64| arrivals as f64 / t.max(1e-9) / 1e6;
    println!("arrivals:   {arrivals} (m={m}, σ={sigma}, {cores} cores)");
    println!(
        "serial:     {t_serial:.2}s  ({:.1}M arrivals/s)",
        rate(t_serial)
    );
    println!(
        "pipelined:  {t_pipe:.2}s  ({:.1}M arrivals/s, {:.2}× serial)",
        rate(t_pipe),
        t_serial / t_pipe.max(1e-9)
    );
    println!(
        "randPr benefit: {:.0} of {m} sets completed",
        serial.benefit()
    );
    Ok(())
}
