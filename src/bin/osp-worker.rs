//! `osp-worker` — the replay worker process: the fleet member behind
//! [`SocketPool`](osp_core::SocketPool), and the child that
//! [`ProcessPool`](osp_core::ProcessPool) launches for each batch.
//!
//! Two modes:
//!
//! * **socket worker** (`--listen <addr>`): binds `addr` — `host:port`
//!   TCP (port `0` for an OS-assigned port) or `uds:/path` — prints
//!   `listening on <addr>` on stdout (the resolved address, for harness
//!   scripts), and serves framed socket sessions: a
//!   [`Hello`](osp_core::wire::Hello) handshake,
//!   then job/ping requests. Each job is replayed through the full
//!   workspace registry ([`NetResolver`]: all five core algorithms, both
//!   router baselines, every generator family and the video-trace
//!   scenario). The `OSP_FAULT` environment variable loads
//!   a deterministic [`FaultPlan`]
//!   (`die:<n>`, `stall:<job>:<ms>`); a fault kill exits with code 86 so
//!   harnesses can tell an injected death from a crash, and a malformed
//!   plan is fatal at startup with code 64 (`EX_USAGE`) — never silently
//!   ignored.
//! * **probe** (`--ping <addr>`): one connect + handshake + heartbeat
//!   round trip against a listening worker; exits 0 and prints the
//!   worker's roster on success — what CI polls during fleet bring-up.
//!
//! Anything else, no arguments included, prints the usage and exits
//! non-zero.
//!
//! ```text
//! cargo build --release --bin osp-worker
//! osp-worker --listen 127.0.0.1:7401 &
//! osp-worker --ping 127.0.0.1:7401
//! OSP_WORKER_ADDRS=127.0.0.1:7401 OSP_DISPATCH=socket ...
//! ```
//!
//! Determinism: a job spec carries everything — scenario, algorithm,
//! seed — so any worker anywhere produces the same outcome bit for bit
//! (pinned by `tests/process_pool_conformance.rs` and
//! `tests/socket_pool_conformance.rs`).

use std::io::{stdout, Write};
use std::process::ExitCode;
use std::time::Duration;

use osp::core::wire::socket::{ping, SocketServer, WorkerAddr};
use osp::core::FaultPlan;
use osp::net::NetResolver;

/// Exit code of a worker killed by its own [`FaultPlan`] — distinct from
/// success (0) and crash (1) so fleet harnesses can assert the kill was
/// the injected one. Shared with `osp-serve`'s `die-after-chunk` drill.
const FAULT_EXIT: u8 = osp::core::wire::FAULT_EXIT;

/// Exit code for a malformed `OSP_FAULT` value (the conventional
/// `EX_USAGE`). A typo'd plan must kill the worker at startup, loudly —
/// silently running a fault-*free* "fault test" would let the harness
/// believe its injected faults happened.
const USAGE_EXIT: u8 = 64;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--listen") => match parse_addr(args.get(1), "--listen") {
            Ok(addr) => socket_worker(&addr),
            Err(code) => code,
        },
        Some("--ping") => match parse_addr(args.get(1), "--ping") {
            Ok(addr) => probe(&addr),
            Err(code) => code,
        },
        Some(other) => usage(&format!("unknown argument `{other}`")),
        None => usage("no mode given"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("osp-worker: {problem} (want --listen <addr> or --ping <addr>)");
    ExitCode::FAILURE
}

fn parse_addr(arg: Option<&String>, flag: &str) -> Result<WorkerAddr, ExitCode> {
    let Some(text) = arg else {
        eprintln!("osp-worker: {flag} needs an address (host:port or uds:/path)");
        return Err(ExitCode::FAILURE);
    };
    WorkerAddr::parse(text).map_err(|e| {
        eprintln!("osp-worker: {e}");
        ExitCode::FAILURE
    })
}

fn socket_worker(addr: &WorkerAddr) -> ExitCode {
    let fault = match FaultPlan::from_env() {
        Ok(fault) => fault,
        Err(e) => {
            eprintln!("osp-worker: {e}");
            return ExitCode::from(USAGE_EXIT);
        }
    };
    if fault.die_after_chunk.is_some() {
        // Same discipline as a malformed plan: a serve-side clause in a
        // worker's environment means the harness wired its faults to the
        // wrong process — refuse to run rather than silently ignore it.
        eprintln!("osp-worker: OSP_FAULT die-after-chunk is a serve-side fault (use osp-serve)");
        return ExitCode::from(USAGE_EXIT);
    }
    let server = match SocketServer::bind(addr, NetResolver, fault) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("osp-worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The resolved address (the OS-assigned port, for TCP `:0`), for the
    // harness that launched us. Flushed now: scripts block on this line.
    println!("listening on {}", server.local_addr());
    let _ = stdout().flush();
    // Park until the fault plan kills the worker (process death is the
    // point of `die:<n>` — the dispatcher must see connections refused),
    // or forever: the fleet harness owns this process's lifetime.
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if server.fault_killed() {
            eprintln!(
                "osp-worker: fault plan kill after {} job(s)",
                server.jobs_answered()
            );
            return ExitCode::from(FAULT_EXIT);
        }
    }
}

fn probe(addr: &WorkerAddr) -> ExitCode {
    match ping(addr, Duration::from_secs(5)) {
        Ok(hello) => {
            println!(
                "worker at {addr} speaks v{} ({})",
                hello.version,
                hello.roster.join(",")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("osp-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
