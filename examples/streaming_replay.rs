//! Streaming replay at beyond-materialization scale: run the paper's
//! algorithm over tens of millions of arrivals in constant memory.
//!
//! ```text
//! cargo run --release --example streaming_replay [-- <arrivals>]
//! ```
//!
//! Defaults to 10⁷ arrivals; pass `100000000` for the 10⁸ run (a couple
//! of gigabytes *if materialized* — the stream never holds more than the
//! set table either way). The fused `UniformSource` generates each
//! arrival as the engine consumes it: resident state is O(m) — the set
//! metadata, a remap table and one σ-sized member buffer — no matter how
//! long the stream runs, and the outcome is bit-identical to
//! materializing the same seed's instance and replaying it (spot-checked
//! below at a small n; pinned in full by `tests/source_conformance.rs`).

use std::time::Instant;

use osp::core::gen::{random_instance, RandomInstanceConfig, UniformSource};
use osp::core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arrivals: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(10_000_000);
    let (m, sigma, seed) = (1_000usize, 4u32, 42u64);

    // Conformance spot check first, at a size that is cheap to
    // materialize: same seed, both pipelines, bit-identical outcome.
    let small = RandomInstanceConfig::unweighted(m, 10_000, sigma);
    let materialized = {
        let inst = random_instance(&small, &mut StdRng::seed_from_u64(seed))?;
        run(&inst, &mut RandPr::from_seed(7))?
    };
    let streamed = run_source(
        &mut UniformSource::new(&small, seed)?,
        &mut RandPr::from_seed(7),
    )?;
    assert_eq!(materialized, streamed, "pipelines must agree bit-for-bit");
    println!("conformance: streaming ≡ materialized at n=10,000 ✓");

    // The big run: never materialized anywhere.
    let cfg = RandomInstanceConfig::unweighted(m, arrivals, sigma);
    let t = Instant::now();
    let mut source = UniformSource::new(&cfg, seed)?;
    let t_gen = t.elapsed().as_secs_f64();
    let resident = source.state_bytes();

    let t = Instant::now();
    let outcome = run_source(&mut source, &mut RandPr::from_seed(7))?;
    let t_replay = t.elapsed().as_secs_f64();

    // What the materializing pipeline would have had to hold: the CSR
    // arena. The outcome itself is O(m) — a digest stands in for the
    // decision stream.
    let would_be = m * 16 + arrivals * (4 + 4 + sigma as usize * 4);
    println!("arrivals:          {arrivals}");
    println!(
        "source setup:      {t_gen:.2}s (survivor scan over the membership stream, O(m) state)"
    );
    println!(
        "streamed replay:   {t_replay:.2}s  ({:.1}M arrivals/s)",
        arrivals as f64 / t_replay.max(1e-9) / 1e6
    );
    println!(
        "resident source:   {:.1} KiB (constant in n)",
        resident as f64 / 1024.0
    );
    println!(
        "materialized CSR:  {:.2} GiB would have been required",
        would_be as f64 / (1024.0 * 1024.0 * 1024.0)
    );
    println!(
        "randPr benefit:    {:.0} of {} sets completed",
        outcome.benefit(),
        m
    );
    println!(
        "decision digest:   {} over {} arrivals",
        outcome.digest(),
        outcome.arrivals()
    );
    Ok(())
}
