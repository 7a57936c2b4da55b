//! Distributed replay: fan a seed sweep across `osp-worker` processes.
//!
//! ```text
//! cargo run --release --example distributed_replay [-- <arrivals> [workers]]
//! ```
//!
//! Defaults to 10⁶ arrivals per job across 2 workers. The example is
//! self-contained: it re-executes *itself* with `--worker` as the worker
//! command, so no separately built binary is needed. [`ProcessPool`]
//! appends `--listen uds:<path>` to that command, and each child binds a
//! [`SocketServer`] over the full workspace registry ([`NetResolver`])
//! and prints the `listening on <addr>` banner — exactly what the real
//! `osp-worker --listen` does.
//!
//! What crosses the process boundary is **data only**: each job is a
//! framed `(ScenarioSpec, AlgorithmSpec, seed)` triple; each answer is a
//! framed [`Outcome`]. Workers rebuild the fused `UniformSource` stream
//! from the spec locally (constant memory, see
//! `examples/streaming_replay.rs`), so the parent never materializes —
//! or even holds — a single instance. Outcomes are bit-identical to
//! sequential replay of the same specs (spot-checked below; pinned in
//! full by `tests/process_pool_conformance.rs`).

use std::io::Write;
use std::time::Instant;

use osp::core::gen::RandomInstanceConfig;
use osp::core::prelude::*;
use osp::core::{FaultPlan, SocketServer, WorkerAddr};
use osp::net::NetResolver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        // Child mode: serve socket sessions on the address the pool
        // appended until the pool kills us.
        let addr = args
            .iter()
            .skip_while(|a| *a != "--listen")
            .nth(1)
            .ok_or("--worker needs --listen <addr>")?;
        let server = SocketServer::bind(&WorkerAddr::parse(addr)?, NetResolver, FaultPlan::NONE)?;
        println!("listening on {}", server.local_addr());
        std::io::stdout().flush()?;
        loop {
            std::thread::park();
        }
    }
    let arrivals: usize = args
        .first()
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(1_000_000);
    let workers: usize = args.get(1).map(|v| v.parse()).transpose()?.unwrap_or(2);

    let me = std::env::current_exe()?;
    let pool = ProcessPool::with_command(
        workers,
        vec![me.to_string_lossy().into_owned(), "--worker".into()],
    );

    // The work-list: one scenario family, per-job seeds derived with the
    // same SplitMix64 discipline every in-process lane uses.
    let scenario = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(1_000, arrivals, 4));
    let trials = 8u64;
    let jobs = derived_jobs(&scenario, &AlgorithmSpec::RandPr, 42, trials);

    // Conformance spot check at a cheap size: the worker processes must
    // answer exactly what sequential run_spec computes.
    let small_jobs = derived_jobs(
        &ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(1_000, 10_000, 4)),
        &AlgorithmSpec::RandPr,
        42,
        4,
    );
    let sequential: Vec<Outcome> = small_jobs
        .iter()
        .map(|j| run_spec(j, &NetResolver))
        .collect::<Result<_, _>>()?;
    let distributed: Vec<Outcome> = pool
        .run_specs(&small_jobs)
        .into_iter()
        .collect::<Result<_, _>>()?;
    assert_eq!(sequential, distributed, "workers must agree bit-for-bit");
    println!("conformance: {workers} worker processes ≡ sequential at n=10,000 ✓");

    // The big fan-out: streams are generated inside the workers.
    let t = Instant::now();
    let outcomes = pool.run_specs(&jobs);
    let elapsed = t.elapsed().as_secs_f64();
    let total_arrivals = arrivals as f64 * trials as f64;
    let mut completed = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().map_err(|e| format!("job {i}: {e}"))?;
        completed += outcome.completed().len();
    }
    println!(
        "jobs:              {trials} × {arrivals} arrivals (randPr, seeds from derive_seed(42, ·))"
    );
    println!(
        "workers:           {workers} processes ({})",
        pool.backend()
    );
    println!(
        "distributed run:   {elapsed:.2}s  ({:.1}M arrivals/s aggregate)",
        total_arrivals / elapsed.max(1e-9) / 1e6
    );
    println!(
        "completed sets:    {completed} across {trials} jobs (outcomes returned in submission order)"
    );
    println!("wire traffic:      {trials} JobSpec frames out, {trials} Outcome frames back over Unix sockets — no instance ever left a worker");
    Ok(())
}
