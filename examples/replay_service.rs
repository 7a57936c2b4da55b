//! Replay as a service: submit a batch to a long-running replay server,
//! poll it, fetch bit-identical outcomes — then resubmit and watch the
//! results cache answer without recomputing.
//!
//! ```text
//! cargo run --release --example replay_service
//! OSP_SERVE_ADDR=127.0.0.1:7400 \
//!     cargo run --release --example replay_service
//! ```
//!
//! Without `OSP_SERVE_ADDR` the example self-hosts: it binds an
//! in-process [`ServeServer`] on loopback — the same front door
//! `osp-serve --listen` runs — backed by a three-worker self-hosted
//! socket fleet whose first member carries a `die:5` [`FaultPlan`], so
//! the service rides a mid-batch worker death while serving. With
//! `OSP_SERVE_ADDR` set it talks to your already-running `osp-serve`
//! instead (CI's `serve-smoke` job drives it this way), and
//! `OSP_EXAMPLE_SEED` swaps the work-list's seed base so a rerun can
//! submit jobs the server has never cached (CI's `chaos-recovery` job
//! leans on this to force fresh dispatch after a fleet change).
//!
//! Either way the claim being demonstrated is the serve contract: the
//! submit → status → fetch flow returns outcomes **bit-identical** to
//! sequential [`run_spec`] over the same [`JobSpec`]s, whatever backend
//! executes them — and an identical resubmission is answered from the
//! content-addressed results cache (watch `cache hits` move) without a
//! single job recomputed.
//!
//! Self-hosted, the service also runs with a small `cache_bytes` (three
//! batches' worth of outcome bytes) to show retirement: finished batches
//! count against that cap, so once a few more cached batches finish the
//! first one is retired. Fetching it then fails with a typed
//! [`Error::Unavailable`], and resubmitting it is answered entirely from
//! the cache.

use std::time::{Duration, Instant};

use osp::core::gen::RandomInstanceConfig;
use osp::core::prelude::*;
use osp::core::serve::{JobResult, ReplayService, ServeClient, ServeServer, ServiceConfig};
use osp::core::spec::run_spec;
use osp::core::store::OutcomeJson;
use osp::core::wire::socket::{SocketServer, WorkerAddr};
use osp::core::{FaultPlan, SocketPool};
use osp::net::NetResolver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One mixed work-list, and the sequential bits it must reproduce.
    // `OSP_EXAMPLE_SEED` swaps the seed base so repeated runs against a
    // long-lived server can submit *fresh* jobs (the CI chaos-recovery
    // job uses this to force real dispatch rounds after a fleet change
    // instead of pure cache hits).
    let seed_base: u64 = std::env::var("OSP_EXAMPLE_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(73);
    let uniform = ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(120, 1_200, 5));
    let mut jobs: Vec<JobSpec> = Vec::new();
    for trial in 0..6u64 {
        let seed = derive_seed(seed_base, trial);
        for algorithm in [
            AlgorithmSpec::RandPr,
            AlgorithmSpec::HashRandPr { independence: 8 },
            AlgorithmSpec::Greedy {
                tie_break: TieBreak::ByWeight,
            },
        ] {
            jobs.push(JobSpec {
                scenario: uniform.clone(),
                algorithm,
                seed,
            });
        }
    }
    let sequential: Vec<Outcome> = jobs
        .iter()
        .map(|j| run_spec(j, &NetResolver))
        .collect::<Result<_, _>>()?;

    // The server: ambient (OSP_SERVE_ADDR) or self-hosted on loopback
    // over a socket fleet with one doomed worker.
    let mut workers: Vec<SocketServer> = Vec::new();
    let mut hosted: Option<ServeServer> = None;
    let serve_addr: WorkerAddr = match std::env::var("OSP_SERVE_ADDR") {
        Ok(raw) => {
            let addr = WorkerAddr::parse(&raw)?;
            println!("server: external osp-serve at {addr}");
            addr
        }
        Err(_) => {
            let loopback = WorkerAddr::parse("127.0.0.1:0")?;
            workers.push(SocketServer::bind(
                &loopback,
                NetResolver,
                FaultPlan::parse("die:5")?,
            )?);
            for _ in 0..2 {
                workers.push(SocketServer::bind(
                    &loopback,
                    NetResolver,
                    FaultPlan::default(),
                )?);
            }
            let addrs = workers.iter().map(|w| w.local_addr().clone()).collect();
            // Three batches' worth of outcome bytes: the cache holds every
            // outcome, and the third finished batch (each is charged its
            // outcome bytes plus a fixed amount) retires the first.
            let mut outcome_bytes = 0;
            for outcome in &sequential {
                outcome_bytes += OutcomeJson::encode(outcome)?.as_bytes().len() as u64;
            }
            let config = ServiceConfig {
                cache_bytes: 3 * outcome_bytes,
                ..ServiceConfig::default()
            };
            let service = ReplayService::new(Box::new(SocketPool::new(addrs)), config)?;
            let server = ServeServer::bind(&loopback, service)?;
            let addr = server.local_addr().clone();
            println!(
                "server: self-hosted on {addr} over a 3-worker socket fleet \
                 (fault plan die:5 on worker 0)"
            );
            hosted = Some(server);
            addr
        }
    };

    let mut client = ServeClient::connect(&serve_addr, Duration::from_secs(10))?;

    // First pass: everything computed on the backend.
    let t = Instant::now();
    let first = client.submit(&jobs)?;
    let status = client.wait(first, Duration::from_millis(25), Duration::from_secs(300))?;
    let t_first = t.elapsed().as_secs_f64();
    println!(
        "batch {first}: state {}, {}/{} answered ({} from cache) in {t_first:.2}s",
        status.state, status.answered, status.total, status.cached
    );
    let results = client.fetch(first)?;
    verify(&sequential, &results)?;
    println!("identity:    served ≡ sequential bit-for-bit ✓ (completed, benefit, decision digest, died_at)");
    if !status.excluded.is_empty() {
        println!(
            "fleet:       excluded mid-batch: {}",
            status.excluded.join("; ")
        );
    }

    // Second pass: the same bytes, so the same digests — every job is a
    // cache hit, no backend dispatch at all.
    let t = Instant::now();
    let second = client.submit(&jobs)?;
    let status = client.wait(second, Duration::from_millis(25), Duration::from_secs(300))?;
    let t_second = t.elapsed().as_secs_f64();
    let results = client.fetch(second)?;
    verify(&sequential, &results)?;
    assert_eq!(
        status.cached, status.total,
        "identical resubmission must be answered entirely from the cache"
    );
    println!(
        "batch {second}: {} of {} jobs served from cache in {t_second:.2}s \
         (service lifetime: {} hits / {} misses)",
        status.cached, status.total, status.cache_hits, status.cache_misses
    );

    // Retirement, self-hosted only (an external server's cap is its own):
    // resubmit until the first batch is retired, then fetch it.
    if hosted.is_some() {
        let mut more = 0;
        let retired = loop {
            if let Err(e) = client.fetch(first) {
                break e;
            }
            assert!(more < 16, "batch {first} never retired");
            let id = client.submit(&jobs)?;
            client.wait(id, Duration::from_millis(25), Duration::from_secs(300))?;
            more += 1;
        };
        assert!(
            matches!(retired, Error::Unavailable(_)),
            "a retired batch must answer a typed Unavailable, got {retired:?}"
        );
        let again = client.submit(&jobs)?;
        let status = client.wait(again, Duration::from_millis(25), Duration::from_secs(300))?;
        verify(&sequential, &client.fetch(again)?)?;
        assert_eq!(
            status.cached, status.total,
            "a retired batch's resubmission must be answered entirely from the cache"
        );
        println!(
            "retirement:  batch {first} retired after {more} more cached batch{} ({retired}); \
             resubmitted as batch {again}: {} of {} jobs from cache",
            if more == 1 { "" } else { "es" },
            status.cached,
            status.total
        );
    }

    // `OSP_SERVE_SHUTDOWN=1` (CI's serve-smoke teardown): ask the server
    // to drain and exit instead of leaving it running.
    if std::env::var("OSP_SERVE_SHUTDOWN").is_ok() {
        client.shutdown()?;
        println!("server:      shutdown acknowledged, draining");
    }

    if let Some(server) = hosted {
        server.stop();
    }
    for worker in workers {
        worker.stop();
    }
    Ok(())
}

/// Every served result must be an outcome, bit-identical to the
/// sequential reference at the same index.
fn verify(want: &[Outcome], got: &[JobResult]) -> Result<(), Box<dyn std::error::Error>> {
    assert_eq!(want.len(), got.len(), "result count diverged");
    for (i, (want, got)) in want.iter().zip(got).enumerate() {
        match got {
            JobResult::Ok(got) => {
                assert_eq!(want, got, "job {i} diverged across the serve boundary")
            }
            other => return Err(format!("job {i}: expected an outcome, got {other:?}").into()),
        }
    }
    Ok(())
}
