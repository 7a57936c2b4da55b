//! The experiments' bridge to the core batch-replay engine.
//!
//! Every experiment follows the same discipline so parallel replay cannot
//! change any number:
//!
//! 1. draw all seeds *sequentially* from the experiment's
//!    [`SeedSequence`] — in exactly the order the old one-at-a-time loops
//!    drew them, so reports stay comparable PR-over-PR;
//! 2. fan the `(instance × seed × algorithm)` work-list across the shared
//!    [`ReplayPool`];
//! 3. consume the outcomes in job order.
//!
//! Shard count comes from `OSP_REPLAY_SHARDS` (default: all cores); the
//! `tests/batch_equivalence.rs` conformance suite proves outcomes are
//! bit-identical at any shard count.
//!
//! Work that is expressible as data-driven
//! [`JobSpec`](osp_core::JobSpec)s (rather than closures over bespoke
//! instances) can additionally choose its backend:
//! [`dispatcher`] returns threads or `osp-worker` processes depending on
//! `OSP_DISPATCH`, behind the common [`Dispatcher`] contract — same
//! seeds, same order, bit-identical outcomes either way (pinned by
//! `tests/process_pool_conformance.rs`).

pub use osp_core::{
    DispatchChoice, Dispatcher, ProcessPool, ReplayJob, ReplayPool, SocketPool, SpecPool,
};
use osp_net::NetResolver;
use osp_stats::SeedSequence;

/// The pool all experiments share: sized by `OSP_REPLAY_SHARDS`, falling
/// back to the machine's available parallelism.
pub fn pool() -> ReplayPool {
    ReplayPool::from_env()
}

/// The spec-job backend the experiments share, selected by
/// `OSP_DISPATCH` (case-insensitive, surrounding whitespace ignored):
///
/// * unset or `threads` — [`SpecPool`] over the shared [`pool`], resolving
///   specs in-process through the full workspace registry
///   ([`NetResolver`]);
/// * `processes` (or `procs`) — a [`ProcessPool`] of `osp-worker`
///   children sized by `OSP_WORKERS` (build the binary first:
///   `cargo build --release --bin osp-worker`);
/// * `socket` (or `sockets`) — a [`SocketPool`] over the fleet named by
///   `OSP_WORKER_ADDRS` (comma-separated `host:port` / `uds:/path`
///   addresses of running `osp-worker --listen` processes).
///
/// The value is parsed by [`DispatchChoice::parse`], the same parser
/// `osp-serve` uses. Unrecognized values fall back to threads with a
/// note on stderr — the same hardened junk-tolerant policy as
/// [`env_parallelism`](osp_core::env_parallelism), because outcomes are
/// bit-identical on every backend, so an experiment never blocks on a
/// typo. Likewise `processes` without a locatable worker binary and
/// `socket` without a reachable `OSP_WORKER_ADDRS` fall back to threads.
pub fn dispatcher() -> Box<dyn Dispatcher> {
    dispatcher_for(std::env::var("OSP_DISPATCH").ok().as_deref())
}

/// Backend construction behind [`dispatcher`]: `choice` is the raw
/// `OSP_DISPATCH` content (or `None` if unset).
fn dispatcher_for(choice: Option<&str>) -> Box<dyn Dispatcher> {
    let threads = || -> Box<dyn Dispatcher> { Box::new(SpecPool::new(pool(), NetResolver)) };
    match DispatchChoice::parse(choice) {
        DispatchChoice::Threads => threads(),
        DispatchChoice::Processes => match ProcessPool::from_env() {
            Ok(pool) => Box::new(pool),
            Err(e) => {
                eprintln!("OSP_DISPATCH=processes unavailable ({e}); falling back to threads");
                threads()
            }
        },
        DispatchChoice::Socket => match SocketPool::from_env() {
            Ok(pool) => Box::new(pool),
            Err(e) => {
                eprintln!("OSP_DISPATCH=socket unavailable ({e}); falling back to threads");
                threads()
            }
        },
        DispatchChoice::Unknown => {
            eprintln!(
                "OSP_DISPATCH={} is not a backend (want threads, processes or socket); \
                 falling back to threads",
                choice.unwrap_or_default()
            );
            threads()
        }
    }
}

/// Draws `n` seeds from the sequence — the batch-side equivalent of `n`
/// sequential `next_seed()` calls, so downstream draws stay aligned with
/// the pre-batching harness.
pub fn draw_seeds(seeds: &mut SeedSequence, n: usize) -> Vec<u64> {
    (0..n).map(|_| seeds.next_seed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_seeds_matches_sequential_draws() {
        let mut a = SeedSequence::new(3);
        let batch = draw_seeds(&mut a, 5);
        let mut b = SeedSequence::new(3);
        let seq: Vec<u64> = (0..5).map(|_| b.next_seed()).collect();
        assert_eq!(batch, seq);
        // The sequence advances identically.
        assert_eq!(a.next_seed(), b.next_seed());
    }

    #[test]
    fn pool_respects_env_override() {
        // from_env is exercised indirectly; at minimum it must build.
        assert!(pool().shards() >= 1);
    }

    #[test]
    fn dispatch_choice_parses_case_insensitively() {
        // The pure parse core: no env, no I/O, every policy branch.
        assert_eq!(DispatchChoice::parse(None), DispatchChoice::Threads);
        assert_eq!(DispatchChoice::parse(Some("")), DispatchChoice::Threads);
        assert_eq!(
            DispatchChoice::parse(Some("threads")),
            DispatchChoice::Threads
        );
        assert_eq!(
            DispatchChoice::parse(Some("THREADS")),
            DispatchChoice::Threads
        );
        assert_eq!(
            DispatchChoice::parse(Some(" Thread ")),
            DispatchChoice::Threads
        );
        assert_eq!(
            DispatchChoice::parse(Some("processes")),
            DispatchChoice::Processes
        );
        assert_eq!(
            DispatchChoice::parse(Some("Processes")),
            DispatchChoice::Processes
        );
        assert_eq!(
            DispatchChoice::parse(Some(" PROCESS ")),
            DispatchChoice::Processes
        );
        assert_eq!(
            DispatchChoice::parse(Some("procs")),
            DispatchChoice::Processes
        );
        assert_eq!(
            DispatchChoice::parse(Some("socket")),
            DispatchChoice::Socket
        );
        assert_eq!(
            DispatchChoice::parse(Some("Sockets")),
            DispatchChoice::Socket
        );
        // Junk is Unknown — the constructor then falls back to threads.
        assert_eq!(
            DispatchChoice::parse(Some("bogus")),
            DispatchChoice::Unknown
        );
        assert_eq!(DispatchChoice::parse(Some("42")), DispatchChoice::Unknown);
    }

    #[test]
    fn dispatcher_selection_policy() {
        // Exercised through the pure core so the assertions do not depend
        // on whatever OSP_DISPATCH happens to be in the ambient
        // environment (and no test ever mutates the process env).
        for unset_or_threads in [None, Some("threads"), Some("bogus"), Some("THReads ")] {
            let d = dispatcher_for(unset_or_threads);
            assert_eq!(d.backend(), "threads", "choice {unset_or_threads:?}");
            assert!(d.lanes() >= 1);
        }
        // `processes` yields the process backend when the worker binary is
        // locatable, and falls back to threads (never panics) otherwise.
        let d = dispatcher_for(Some("processes"));
        assert!(matches!(d.backend(), "processes" | "threads"));
        assert!(d.lanes() >= 1);
        // `socket` needs a live OSP_WORKER_ADDRS fleet; without one the
        // selection falls back to threads rather than failing. (When the
        // ambient env does name a fleet, the socket backend is selected.)
        let d = dispatcher_for(Some("socket"));
        assert!(matches!(d.backend(), "sockets" | "threads"));
        assert!(d.lanes() >= 1);
    }
}
