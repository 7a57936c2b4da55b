//! Batch replay: measure an algorithm over thousands of seeds in parallel
//! — and prove the parallelism changes nothing.
//!
//! ```text
//! cargo run --release --example batch_replay
//! ```
//!
//! Generates one random workload, replays `randPr` under 2000 seeds three
//! ways — sequentially, on a 1-shard pool and on an all-cores pool — and
//! shows that all three produce bit-identical outcomes while the parallel
//! run finishes fastest. A fourth leg replays the same trials *streamed*
//! through the same `ReplayPool::map`: every shard regenerates its jobs'
//! scenarios on the fly instead of sharing a materialized instance —
//! same outcomes again. Shard count can be pinned with
//! `OSP_REPLAY_SHARDS=n`.

use std::time::Instant;

use osp::core::gen::{random_instance, RandomInstanceConfig, UniformSource};
use osp::core::prelude::*;
use osp::stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const GEN_SEED: u64 = 42;
    let config = RandomInstanceConfig::unweighted(200, 2_000, 6);
    let mut rng = StdRng::seed_from_u64(GEN_SEED);
    let instance = random_instance(&config, &mut rng)?;
    println!(
        "workload: {} sets, {} elements",
        instance.num_sets(),
        instance.num_elements()
    );

    // Fix every trial's seed up front: this is what makes the batch
    // deterministic no matter how it is sharded.
    const TRIALS: u64 = 2_000;
    let seeds: Vec<u64> = (0..TRIALS).map(|i| derive_seed(7, i)).collect();
    // One replay of the shared instance on a shard's recycled scratch.
    let replay = |scratch: &mut ReplayScratch, _: usize, &s: &u64| {
        run_source_with_scratch(&mut instance.source(), &mut RandPr::from_seed(s), scratch)
            .expect("randPr emits valid decisions")
    };

    let t = Instant::now();
    let sequential: Vec<Outcome> = seeds
        .iter()
        .map(|&s| run(&instance, &mut RandPr::from_seed(s)))
        .collect::<Result<_, _>>()?;
    let t_seq = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let one_shard = ReplayPool::new(1).map(&seeds, replay);
    let t_one = t.elapsed().as_secs_f64();

    let pool = ReplayPool::from_env();
    let t = Instant::now();
    let parallel = pool.map(&seeds, replay);
    let t_par = t.elapsed().as_secs_f64();

    // The streamed leg: no shared instance at all — each shard rebuilds
    // its jobs' scenario from (config, GEN_SEED) as it replays. Sources
    // are deterministic in their construction inputs, so this too is
    // bit-identical to the sequential reference.
    let t = Instant::now();
    let streamed = pool.map(&seeds, |scratch, _, &s| {
        let mut source = UniformSource::new(&config, GEN_SEED).expect("feasible config");
        run_source_with_scratch(&mut source, &mut RandPr::from_seed(s), scratch)
            .expect("randPr emits valid decisions")
    });
    let t_stream = t.elapsed().as_secs_f64();

    assert_eq!(sequential, one_shard, "1-shard pool must match sequential");
    assert_eq!(sequential, parallel, "parallel pool must match sequential");
    assert_eq!(sequential, streamed, "streamed leg must match sequential");

    let benefits: Summary = parallel.iter().map(Outcome::benefit).collect();
    println!("trials:            {TRIALS} (identical outcomes on all paths)");
    println!(
        "mean benefit:      {:.2} ± {:.2}",
        benefits.mean(),
        benefits.confidence_interval(0.95).width() / 2.0
    );
    println!("sequential:        {t_seq:.3}s");
    println!("pool, 1 shard:     {t_one:.3}s");
    println!(
        "pool, {:2} shards:   {t_par:.3}s  ({:.1}× vs sequential)",
        pool.shards(),
        t_seq / t_par.max(1e-9)
    );
    println!("streamed:          {t_stream:.3}s  (regenerates per job, no shared instance)");
    Ok(())
}
