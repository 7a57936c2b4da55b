//! Intra-replay parallelism: the pipelined session and the sharded
//! decision kernel — parallelism *within* one huge replay, as opposed to
//! the across-jobs lanes ([`ReplayPool`](super::batch::ReplayPool),
//! process/socket pools).
//!
//! Two mechanisms, both preserving the bit-identity contract exactly:
//!
//! 1. **Pipelined session** ([`run_source_parallel`]): a producer thread
//!    drains the [`ArrivalSource`] into a double-buffered ring of chunk
//!    arenas (arrivals copied into a reused CSR arena per chunk — the
//!    same flat layout [`Instance`] uses, so the steady
//!    state allocates nothing) while the consumer thread runs the
//!    existing [`Session::step`] loop over the previous chunk. Decisions
//!    are order-dependent, so the arrival loop itself stays sequential —
//!    but generation cost (20–60% of wall for fused generator sources)
//!    is hidden behind decision cost. The arrivals the consumer replays
//!    are byte-for-byte the arrivals the source yielded, so outcomes are
//!    bit-identical to [`run_source`](super::run_source) by
//!    construction.
//!
//! 2. **Sharded decision kernel** ([`fill_sharded`], threshold
//!    [`SHARDED_DECIDE_MIN`]): when one arrival's candidate count crosses
//!    the threshold, the built-in algorithms score candidates in
//!    disjoint contiguous ranges across scoped threads (the
//!    [`prologue::build_table`](super::prologue::build_table) fan-out
//!    shape, applied per arrival) into one position-aligned scored
//!    buffer, then select the winners over the *full* buffer with the
//!    exact serial
//!    [`select_top_b`](crate::algorithms) comparator sequence. Because
//!    only the score *fill* is sharded — never the selection — survivors
//!    and their order are bit-identical to the serial path at ANY thread
//!    count.
//!
//! Thread counts come from `OSP_REPLAY_THREADS` under the workspace-wide
//! [`env_parallelism`] policy (unset → machine default, `0` → 1, junk →
//! machine default); one thread is exactly the historical serial path
//! ([`run_source_with_scratch`] is called directly — no producer thread,
//! no chunk copies). Batch and intra-replay parallelism compose via
//! [`ReplayPool::run_sources_pipelined`](super::batch::ReplayPool::run_sources_pipelined):
//! `OSP_REPLAY_SHARDS` jobs × `OSP_REPLAY_THREADS` threads per job.
//! `tests/parallel_replay.rs` pins thread counts {1, 2, 8} bit-identical
//! across the full algorithm × generator conformance grid.

use std::sync::mpsc::sync_channel;

use crate::algorithm::OnlineAlgorithm;
use crate::error::Error;
use crate::ids::{ElementId, SetId};
use crate::instance::{Arrival, Instance};
use crate::source::ArrivalSource;

use super::batch::{env_parallelism, ReplayScratch};
use super::{run_source_with_scratch, Outcome, Session};

/// The environment variable sizing intra-replay parallelism.
pub const REPLAY_THREADS_VAR: &str = "OSP_REPLAY_THREADS";

/// Candidate count at which the built-in algorithms switch one decision's
/// score fill from the serial loop to the sharded kernel. Measured on the
/// scoring-bound path (lazy `hashPr`, one polynomial evaluation per
/// candidate): below ~4096 candidates the scoped-thread fan-out costs
/// more than the scoring it parallelizes; table-lookup algorithms cross
/// even later, but dispatching them identically keeps the policy simple —
/// and either path produces bit-identical survivors, so the threshold is
/// a pure performance knob.
pub const SHARDED_DECIDE_MIN: usize = 4096;

/// Arrivals staged per pipeline chunk: large enough to amortize the
/// channel round trip to well under a nanosecond per arrival, small
/// enough that two in-flight chunks stay cache-resident.
const PIPELINE_CHUNK: usize = 1024;

/// Chunk arenas in flight (double buffering: the producer fills one while
/// the consumer drains the other).
const PIPELINE_RING: usize = 2;

/// Tuning for the pipelined entry points, decoupled from the process
/// environment so tests and benchmarks can pin any configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Total threads for one replay: `<= 1` is the exact serial path;
    /// `>= 2` runs the producer/consumer pipeline, and the same value is
    /// announced to the algorithm as its sharded-decide fan-out
    /// ([`OnlineAlgorithm::set_decision_threads`]).
    pub threads: usize,
    /// Arrivals staged per pipeline chunk (clamped to at least 1).
    pub chunk: usize,
}

impl ParallelConfig {
    /// The configuration [`run_source_parallel`] uses: thread count from
    /// `OSP_REPLAY_THREADS` under the [`env_parallelism`] policy, default
    /// chunking.
    pub fn from_env() -> Self {
        ParallelConfig::with_threads(env_parallelism(REPLAY_THREADS_VAR))
    }

    /// An explicit thread count with default chunking.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            chunk: PIPELINE_CHUNK,
        }
    }
}

/// One pipeline chunk: up to `chunk` arrivals copied out of the source
/// into a flat CSR arena (element ids + capacities + an offset-indexed
/// member pool). Chunks ping-pong between producer and consumer over two
/// bounded channels and are never dropped until the replay ends, so after
/// the arenas grow to steady width the pipeline allocates nothing per
/// arrival.
#[derive(Debug, Default)]
struct Chunk {
    elements: Vec<ElementId>,
    capacities: Vec<u32>,
    /// `offsets.len() == elements.len() + 1`; arrival `i`'s members are
    /// `members[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    members: Vec<SetId>,
}

impl Chunk {
    fn clear(&mut self) {
        self.elements.clear();
        self.capacities.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.members.clear();
    }

    fn push(&mut self, arrival: &Arrival<'_>) {
        self.elements.push(arrival.element());
        self.capacities.push(arrival.capacity());
        self.members.extend_from_slice(arrival.members());
        self.offsets.push(self.members.len());
    }

    fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    fn arrivals(&self) -> impl Iterator<Item = Arrival<'_>> {
        (0..self.elements.len()).map(|i| {
            Arrival::new(
                self.elements[i],
                self.capacities[i],
                &self.members[self.offsets[i]..self.offsets[i + 1]],
            )
        })
    }
}

/// Replays a frozen [`Instance`] through the pipelined session with
/// `OSP_REPLAY_THREADS` threads — the intra-replay-parallel twin of
/// [`run`](super::run). Bit-identical to it at every thread count.
///
/// # Errors
///
/// Same contract as [`run`](super::run): the first invalid decision.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// let parallel = run_parallel(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// let serial = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(parallel, serial);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run_parallel<A: OnlineAlgorithm + ?Sized>(
    instance: &Instance,
    algorithm: &mut A,
) -> Result<Outcome, Error> {
    run_source_parallel(&mut instance.source(), algorithm)
}

/// Drives `algorithm` over `source` through the pipelined session with
/// `OSP_REPLAY_THREADS` threads — the intra-replay-parallel twin of
/// [`run_source`](super::run_source). Bit-identical to it at every
/// thread count: the consumer replays exactly the arrivals the producer
/// copied, in order, through the same [`Session`] logic.
///
/// # Errors
///
/// Same contract as [`run_source`](super::run_source): the first invalid
/// decision.
pub fn run_source_parallel<S, A>(source: &mut S, algorithm: &mut A) -> Result<Outcome, Error>
where
    S: ArrivalSource + Send + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    let mut scratch = ReplayScratch::new();
    run_source_parallel_with(source, algorithm, &ParallelConfig::from_env(), &mut scratch)
}

/// [`run_source_parallel`] with an explicit [`ParallelConfig`] and
/// caller-provided [`ReplayScratch`] — the seam conformance tests and the
/// pool's composed lane ride, so any thread count can be pinned without
/// touching the process environment.
///
/// `config.threads <= 1` is **exactly** the serial path: the call
/// degenerates to [`run_source_with_scratch`] (no producer thread, no
/// chunk copies). Otherwise one producer thread fills chunk arenas while
/// the caller's thread consumes them, and `config.threads` is announced
/// to the algorithm via
/// [`OnlineAlgorithm::set_decision_threads`] so wide arrivals can shard
/// their score fill.
///
/// # Errors
///
/// Same contract as [`run_source`](super::run_source).
pub fn run_source_parallel_with<S, A>(
    source: &mut S,
    algorithm: &mut A,
    config: &ParallelConfig,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + Send + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    algorithm.set_decision_threads(config.threads.max(1));
    if config.threads <= 1 {
        return run_source_with_scratch(source, algorithm, scratch);
    }
    let chunk_arrivals = config.chunk.max(1);
    let mut metas = std::mem::take(&mut scratch.set_metas);
    metas.clear();
    metas.extend_from_slice(source.sets());
    // Two bounded channels ping-pong the chunk arenas: `full` carries
    // filled chunks producer → consumer, `empty` returns them. Bounded
    // (array-backed) channels make the steady-state sends allocation-free
    // and cap the arrivals in flight at RING × chunk.
    let (full_tx, full_rx) = sync_channel::<Chunk>(PIPELINE_RING);
    let (empty_tx, empty_rx) = sync_channel::<Chunk>(PIPELINE_RING);
    for _ in 0..PIPELINE_RING {
        empty_tx.send(Chunk::default()).expect("ring has capacity");
    }
    let mut session = Session::with_scratch(&metas, algorithm, scratch);
    let producer_source = &mut *source;
    let replay = std::thread::scope(|scope| {
        scope.spawn(move || {
            // Producer: recycle an empty chunk, refill it, hand it over.
            // Ends when the source is exhausted (dropping `full_tx`
            // signals end-of-stream) or when the consumer bailed on an
            // invalid decision (both channel ends report disconnect).
            while let Ok(mut chunk) = empty_rx.recv() {
                chunk.clear();
                let mut exhausted = false;
                for _ in 0..chunk_arrivals {
                    match producer_source.next_arrival() {
                        Some(arrival) => chunk.push(&arrival),
                        None => {
                            exhausted = true;
                            break;
                        }
                    }
                }
                if !chunk.is_empty() && full_tx.send(chunk).is_err() {
                    return;
                }
                if exhausted {
                    return;
                }
            }
        });
        let consumed = (|| {
            while let Ok(chunk) = full_rx.recv() {
                for arrival in chunk.arrivals() {
                    session.step(&arrival, algorithm)?;
                }
                // A failed return just means the producer already
                // finished and dropped its end; keep draining `full_rx` —
                // the tail chunks may still be queued.
                let _ = empty_tx.send(chunk);
            }
            Ok(())
        })();
        // On error the producer may still be blocked sending or waiting
        // for an empty chunk; dropping both consumer-side endpoints
        // disconnects it so the scope can join.
        drop(full_rx);
        drop(empty_tx);
        consumed
    });
    let outcome = match replay {
        Ok(()) => Ok(session.finish_into(scratch)),
        Err(e) => Err(e),
    };
    scratch.set_metas = metas;
    outcome
}

/// Fills `buf` (cleared and resized to `n`) by sharding disjoint
/// contiguous index ranges across `threads` scoped threads — the
/// in-place, buffer-recycling twin of
/// [`prologue::build_table`](super::prologue::build_table), applied *per
/// decision* instead of per run.
///
/// `fill(start, slots)` must write every slot of `slots`, where
/// `slots[j]` is entry `start + j`, as a pure function of the entry
/// indices — which is what makes the buffer contents independent of the
/// thread count, and therefore the subsequent (serial) selection
/// bit-identical at any fan-out. `buf` is pre-filled with `placeholder`
/// only so the slices exist to hand out; every slot is overwritten.
///
/// `threads <= 1` (or a range too small to split) degenerates to one
/// `fill(0, ..)` call on the caller's thread — the serial path.
pub fn fill_sharded<T, F>(buf: &mut Vec<T>, n: usize, placeholder: T, threads: usize, fill: &F)
where
    T: Copy + Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    buf.clear();
    buf.resize(n, placeholder);
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        fill(0, buf);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (shard, slots) in buf.chunks_mut(chunk).enumerate() {
            scope.spawn(move || fill(shard * chunk, slots));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyOnline, RandPr, TieBreak};
    use crate::engine::{run, run_source};
    use crate::gen::{RandomInstanceConfig, UniformSource};
    use crate::instance::InstanceBuilder;

    fn tiny_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        let s1 = b.add_set(2.0, 1);
        let s2 = b.add_set(0.5, 1);
        b.add_element(1, &[s0, s1]);
        b.add_element(2, &[s0, s2]);
        b.build().unwrap()
    }

    #[test]
    fn chunk_round_trips_arrivals_exactly() {
        let inst = tiny_instance();
        let mut chunk = Chunk::default();
        chunk.clear();
        for arrival in inst.arrivals().iter() {
            chunk.push(&arrival);
        }
        let replayed: Vec<(ElementId, u32, Vec<SetId>)> = chunk
            .arrivals()
            .map(|a| (a.element(), a.capacity(), a.members().to_vec()))
            .collect();
        let want: Vec<(ElementId, u32, Vec<SetId>)> = inst
            .arrivals()
            .iter()
            .map(|a| (a.element(), a.capacity(), a.members().to_vec()))
            .collect();
        assert_eq!(replayed, want);
    }

    #[test]
    fn pipeline_matches_serial_across_chunk_sizes() {
        // Chunk sizes around the stream length exercise the partial-chunk
        // and exact-boundary end conditions.
        let cfg = RandomInstanceConfig::unweighted(20, 60, 3);
        let want = run_source(
            &mut UniformSource::new(&cfg, 7).unwrap(),
            &mut RandPr::from_seed(1),
        )
        .unwrap();
        for chunk in [1usize, 7, 60, 64, 100] {
            let mut scratch = ReplayScratch::new();
            let config = ParallelConfig { threads: 2, chunk };
            let got = run_source_parallel_with(
                &mut UniformSource::new(&cfg, 7).unwrap(),
                &mut RandPr::from_seed(1),
                &config,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(got, want, "chunk={chunk}");
        }
    }

    #[test]
    fn one_thread_is_the_exact_serial_path() {
        let inst = tiny_instance();
        let mut scratch = ReplayScratch::new();
        let got = run_source_parallel_with(
            &mut inst.source(),
            &mut GreedyOnline::new(TieBreak::ByWeight),
            &ParallelConfig::with_threads(1),
            &mut scratch,
        )
        .unwrap();
        let want = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_source_finishes_cleanly() {
        let inst = InstanceBuilder::new().build().unwrap();
        let out = run_parallel(&inst, &mut RandPr::from_seed(0)).unwrap();
        assert_eq!(out.benefit(), 0.0);
        assert_eq!(out.arrivals(), 0);
    }

    #[test]
    fn invalid_decisions_error_and_unblock_the_producer() {
        use crate::algorithms::OracleOnline;
        // Oracle wants both sets; capacity 1 makes that invalid on the
        // very first arrival of a long stream, so the producer is still
        // running when the consumer bails.
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 400);
        let s1 = b.add_set(1.0, 400);
        for _ in 0..400 {
            b.add_element(1, &[s0, s1]);
        }
        let inst = b.build().unwrap();
        let mut scratch = ReplayScratch::new();
        let got = run_source_parallel_with(
            &mut inst.source(),
            &mut OracleOnline::new(vec![s0, s1]),
            &ParallelConfig {
                threads: 2,
                chunk: 8,
            },
            &mut scratch,
        );
        assert!(matches!(got, Err(Error::DecisionOverCapacity { .. })));
    }

    #[test]
    fn fill_sharded_writes_every_slot_at_any_thread_count() {
        let fill = |start: usize, slots: &mut [u64]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u64 * 5 + 2;
            }
        };
        let want: Vec<u64> = (0..101u64).map(|i| i * 5 + 2).collect();
        let mut buf = Vec::new();
        for threads in [0usize, 1, 2, 3, 8, 101, 300] {
            fill_sharded(&mut buf, 101, 0u64, threads, &fill);
            assert_eq!(buf, want, "threads={threads}");
        }
    }

    #[test]
    fn fill_sharded_recycles_without_growing() {
        let fill = |start: usize, slots: &mut [u32]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u32;
            }
        };
        let mut buf = Vec::new();
        fill_sharded(&mut buf, 500, 0u32, 4, &fill);
        let cap = buf.capacity();
        for n in [100usize, 500, 1] {
            fill_sharded(&mut buf, n, 0u32, 4, &fill);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.capacity(), cap, "n={n} must not reallocate");
        }
    }

    #[test]
    fn config_from_threads_keeps_default_chunk() {
        let cfg = ParallelConfig::with_threads(8);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.chunk, PIPELINE_CHUNK);
    }
}
