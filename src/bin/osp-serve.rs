//! `osp-serve` — the long-running replay server: the
//! [`ServeServer`] front door over the full
//! workspace registry ([`NetResolver`]), executing submitted batches on
//! any dispatcher backend.
//!
//! ```text
//! osp-serve --listen <addr> [--state-dir <dir>]
//! ```
//!
//! `--listen` takes `host:port`, `[ipv6]:port`, or `uds:/path`. `--state-dir`
//! turns on crash safety: computed outcomes are journaled under `<dir>`,
//! flushed at every chunk boundary, and each batch's manifest is written
//! when it is submitted, so a server killed mid-batch (`kill -9` included) resumes interrupted
//! batches on restart, re-serving journaled results bit-identically and
//! recomputing only the jobs that never made it to disk.
//!
//! Prints `serving on <addr> via <backend>` on stdout once accepting
//! (the resolved address, for harness scripts that block on the banner),
//! then serves framed submit/status/fetch/cancel/fleet requests until a
//! client sends `shutdown` — at which point the server stops accepting,
//! finishes the running batch, and exits 0.
//!
//! Environment:
//!
//! * `OSP_DISPATCH` — `threads` (default) / `processes` / `socket`.
//!   Unlike the bench harness, a junk value here is **fatal** (exit 64):
//!   a long-running service silently falling back to the wrong backend is
//!   a misconfiguration nobody notices until it matters.
//! * `OSP_WORKERS` / `OSP_WORKER_ADDRS` — sizing/fleet for the chosen
//!   backend, exactly as the dispatch layer reads them.
//! * `OSP_SERVE_QUEUE` / `OSP_SERVE_CHUNK` — submission-queue capacity
//!   and per-dispatch chunk size ([`ServiceConfig`]); junk is fatal.
//! * `OSP_SERVE_CACHE_ENTRIES` / `OSP_SERVE_CACHE_BYTES` — results-cache
//!   caps (`0` = unlimited); junk is fatal. Finished batches are held to
//!   the byte cap too: past it the oldest retire, and asking after one
//!   answers "batch N retired" (resubmit it to answer from the cache).
//! * `OSP_FAULT=die-after-chunk:<n>` — crash drill: exit 86 after `n`
//!   dispatched chunks, *after* their results are journaled. Only this
//!   clause is accepted here (`die:`/`stall:` are worker-side; fatal).
//!
//! Determinism: outcomes fetched from this server are bit-identical to
//! sequential `run_spec` over the same specs, whatever backend executes
//! them (pinned by `tests/replay_service.rs`, `tests/crash_recovery.rs`,
//! and the `serve-smoke` / `chaos-recovery` CI jobs).

use std::io::{stdout, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use osp::core::engine::batch::ReplayPool;
use osp::core::serve::{ReplayService, ServeServer, ServiceConfig};
use osp::core::wire::socket::WorkerAddr;
use osp::core::wire::FaultPlan;
use osp::core::{DispatchChoice, Dispatcher, ProcessPool, SocketPool, SpecPool};
use osp::net::NetResolver;

/// Exit code for a misconfigured environment or command line (the
/// conventional `EX_USAGE`) — same discipline as `osp-worker`'s fatal
/// `OSP_FAULT` handling.
const USAGE_EXIT: u8 = 64;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut state_dir = None;
    let mut cursor = args.iter();
    while let Some(flag) = cursor.next() {
        match flag.as_str() {
            "--listen" => match cursor.next() {
                Some(text) => match WorkerAddr::parse(text) {
                    Ok(parsed) => addr = Some(parsed),
                    Err(e) => {
                        eprintln!("osp-serve: {e}");
                        return ExitCode::from(USAGE_EXIT);
                    }
                },
                None => {
                    eprintln!("osp-serve: --listen needs an address (host:port or uds:/path)");
                    return ExitCode::from(USAGE_EXIT);
                }
            },
            "--state-dir" => match cursor.next() {
                Some(dir) => state_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("osp-serve: --state-dir needs a directory");
                    return ExitCode::from(USAGE_EXIT);
                }
            },
            other => {
                eprintln!("osp-serve: unknown argument `{other}`");
                eprintln!("osp-serve: usage: osp-serve --listen <addr> [--state-dir <dir>]");
                return ExitCode::from(USAGE_EXIT);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("osp-serve: usage: osp-serve --listen <addr> [--state-dir <dir>]");
        return ExitCode::from(USAGE_EXIT);
    };

    let dispatcher = match build_dispatcher() {
        Ok(dispatcher) => dispatcher,
        Err(e) => {
            eprintln!("osp-serve: {e}");
            return ExitCode::from(USAGE_EXIT);
        }
    };
    let config = match build_config(state_dir) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("osp-serve: {e}");
            return ExitCode::from(USAGE_EXIT);
        }
    };

    let service = match ReplayService::new(dispatcher, config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("osp-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let backend = service.backend();
    let lanes = service.lanes();
    let server = match ServeServer::bind(&addr, service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("osp-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The resolved address (the OS-assigned port, for TCP `:0`), for the
    // harness that launched us. Flushed now: scripts block on this line.
    println!(
        "serving on {} via {backend} ({lanes} lane{})",
        server.local_addr(),
        if lanes == 1 { "" } else { "s" }
    );
    let _ = stdout().flush();

    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("osp-serve: shutdown requested, draining");
    server.stop();
    ExitCode::SUCCESS
}

/// Builds the backend named by `OSP_DISPATCH`. Junk is an error — the
/// caller exits 64 — never a silent fallback.
fn build_dispatcher() -> Result<Box<dyn Dispatcher + Send>, String> {
    let raw = std::env::var("OSP_DISPATCH").ok();
    match DispatchChoice::parse(raw.as_deref()) {
        DispatchChoice::Threads => Ok(Box::new(SpecPool::new(ReplayPool::from_env(), NetResolver))),
        DispatchChoice::Processes => ProcessPool::from_env()
            .map(|p| Box::new(p) as Box<dyn Dispatcher + Send>)
            .map_err(|e| e.to_string()),
        DispatchChoice::Socket => SocketPool::from_env()
            .map(|p| Box::new(p) as Box<dyn Dispatcher + Send>)
            .map_err(|e| e.to_string()),
        DispatchChoice::Unknown => Err(format!(
            "OSP_DISPATCH=`{}` is not a backend (want threads, processes, or socket)",
            raw.unwrap_or_default().trim()
        )),
    }
}

/// Service tuning from `OSP_SERVE_QUEUE` / `OSP_SERVE_CHUNK` /
/// `OSP_SERVE_CACHE_ENTRIES` / `OSP_SERVE_CACHE_BYTES` / `OSP_FAULT`;
/// unset keeps the defaults, junk is an error.
fn build_config(state_dir: Option<PathBuf>) -> Result<ServiceConfig, String> {
    let mut config = ServiceConfig {
        state_dir,
        ..ServiceConfig::default()
    };
    if let Ok(raw) = std::env::var("OSP_SERVE_QUEUE") {
        config.queue_capacity = raw
            .trim()
            .parse()
            .map_err(|e| format!("OSP_SERVE_QUEUE=`{raw}`: {e}"))?;
    }
    if let Ok(raw) = std::env::var("OSP_SERVE_CHUNK") {
        config.chunk = raw
            .trim()
            .parse()
            .map_err(|e| format!("OSP_SERVE_CHUNK=`{raw}`: {e}"))?;
    }
    if let Ok(raw) = std::env::var("OSP_SERVE_CACHE_ENTRIES") {
        config.cache_entries = raw
            .trim()
            .parse()
            .map_err(|e| format!("OSP_SERVE_CACHE_ENTRIES=`{raw}`: {e}"))?;
    }
    if let Ok(raw) = std::env::var("OSP_SERVE_CACHE_BYTES") {
        config.cache_bytes = raw
            .trim()
            .parse()
            .map_err(|e| format!("OSP_SERVE_CACHE_BYTES=`{raw}`: {e}"))?;
    }
    if let Ok(raw) = std::env::var("OSP_FAULT") {
        let plan = FaultPlan::parse(&raw).map_err(|e| format!("OSP_FAULT: {e}"))?;
        if plan.die_after.is_some() || plan.stall.is_some() {
            return Err(format!(
                "OSP_FAULT=`{raw}`: only die-after-chunk:<n> is a serve-side fault \
                 (die:/stall: belong to osp-worker)"
            ));
        }
        config.die_after_chunk = plan.die_after_chunk;
    }
    Ok(config)
}
