//! Cluster replay: fan a spec work-list across a socket worker fleet —
//! and survive losing a worker mid-batch.
//!
//! ```text
//! cargo run --release --example socket_fleet
//! OSP_WORKER_ADDRS=127.0.0.1:7401,127.0.0.1:7402 \
//!     cargo run --release --example socket_fleet
//! ```
//!
//! Without `OSP_WORKER_ADDRS` the example self-hosts: it binds three
//! in-process [`SocketServer`] workers on loopback — the same
//! `serve_session` loop `osp-worker --listen` runs — and plants a
//! deterministic [`FaultPlan`] (`die:5`) on the first, so it dies after
//! answering five jobs with its chunk half done. With `OSP_WORKER_ADDRS`
//! set it dispatches to your already-running fleet instead (CI's
//! `socket-fleet` job drives it this way, killing one worker externally).
//!
//! Either way the claim being demonstrated is the tentpole contract of
//! the socket backend: a [`JobSpec`] is *all* the state a job has, so
//! connect retries, heartbeats, timeouts and mid-batch re-dispatch can
//! shuffle jobs between workers freely while every outcome stays
//! **bit-identical** to sequential [`run_spec`] — the fault changes the
//! wall clock, never a bit of the results.

use std::time::{Duration, Instant};

use osp::core::gen::RandomInstanceConfig;
use osp::core::prelude::*;
use osp::core::spec::run_spec;
use osp::core::wire::socket::{ping, SocketServer, WorkerAddr};
use osp::core::{FaultPlan, SocketPool};
use osp::net::NetResolver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The fleet: ambient (OSP_WORKER_ADDRS) or self-hosted on loopback.
    let mut servers: Vec<SocketServer> = Vec::new();
    let addrs: Vec<WorkerAddr> = match std::env::var("OSP_WORKER_ADDRS") {
        Ok(raw) => {
            let addrs = WorkerAddr::parse_list(&raw)?;
            println!("fleet: {} worker(s) from OSP_WORKER_ADDRS", addrs.len());
            addrs
        }
        Err(_) => {
            let loopback = WorkerAddr::parse("127.0.0.1:0")?;
            // Worker 0 carries the seeded fault: five answers, then death
            // mid-chunk. Workers 1 and 2 inherit its unanswered jobs.
            let doomed = SocketServer::bind(&loopback, NetResolver, FaultPlan::parse("die:5")?)?;
            println!(
                "fleet: self-hosted on loopback, fault plan die:5 on {}",
                doomed.local_addr()
            );
            servers.push(doomed);
            for _ in 0..2 {
                servers.push(SocketServer::bind(
                    &loopback,
                    NetResolver,
                    FaultPlan::default(),
                )?);
            }
            servers.iter().map(|s| s.local_addr().clone()).collect()
        }
    };

    // Fleet bring-up probe: one connect + handshake + heartbeat per
    // worker — what `osp-worker --ping` does, what CI polls on.
    for addr in &addrs {
        let hello = ping(addr, Duration::from_secs(5))?;
        println!(
            "probe: {addr} speaks wire v{} and resolves {} spec variants",
            hello.version,
            hello.roster.len()
        );
    }

    // One mixed work-list: generator scenarios and the video trace, core
    // algorithms and both router baselines, seeds from the shared
    // SplitMix64 stream.
    let uniform = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(200, 2_000, 6));
    let video = ScenarioSpec::VideoTrace {
        sources: 8,
        frames_per_source: 30,
        frame_interval: 8,
        capacity: 4,
        jitter: 2,
    };
    let mut jobs: Vec<JobSpec> = Vec::new();
    for trial in 0..6u64 {
        let seed = derive_seed(71, trial);
        for (scenario, algorithm) in [
            (&uniform, AlgorithmSpec::RandPr),
            (&uniform, AlgorithmSpec::HashRandPr { independence: 8 }),
            (
                &uniform,
                AlgorithmSpec::Greedy {
                    tie_break: TieBreak::ByWeight,
                },
            ),
            (&video, AlgorithmSpec::TailDrop),
            (&video, AlgorithmSpec::RandomDrop),
        ] {
            jobs.push(JobSpec {
                scenario: scenario.clone(),
                algorithm,
                seed,
            });
        }
    }

    // Sequential reference first: the bits every worker must reproduce.
    let t = Instant::now();
    let sequential: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &NetResolver))
        .collect::<Result<_, _>>()?;
    let t_seq = t.elapsed().as_secs_f64();

    let pool = SocketPool::new(addrs);
    let t = Instant::now();
    let distributed = pool.run_specs(&jobs);
    let t_fleet = t.elapsed().as_secs_f64();

    let mut completed = 0usize;
    for (i, (want, got)) in sequential.iter().zip(&distributed).enumerate() {
        let got = got.as_ref().map_err(|e| format!("job {i}: {e}"))?;
        assert_eq!(want, got, "job {i} diverged across the socket boundary");
        completed += got.completed().len();
    }
    println!(
        "jobs:        {} specs (5 algorithm families × 6 trials), answered in order",
        jobs.len()
    );
    println!("identity:    fleet ≡ sequential bit-for-bit ✓ (completed, benefit, decision digest, died_at)");
    println!("completed:   {completed} sets across the work-list");
    println!(
        "wall clock:  sequential {t_seq:.2}s, fleet {t_fleet:.2}s over {} lane(s)",
        pool.lanes()
    );

    if let Some(doomed) = servers.first() {
        println!(
            "fault:       worker 0 killed by its plan after {} job(s) — survivors absorbed the rest{}",
            doomed.jobs_answered(),
            if doomed.fault_killed() { " ✓" } else { " (did not fire: batch too small)" },
        );
    }
    for server in servers.into_iter().skip(1) {
        server.stop();
    }
    Ok(())
}
