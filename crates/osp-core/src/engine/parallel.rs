//! Intra-replay parallelism: the pipelined session — parallelism *within*
//! one huge replay, as opposed to the across-jobs lanes
//! ([`ReplayPool`](super::batch::ReplayPool), process/socket pools).
//!
//! A producer thread drains the [`ArrivalSource`] into a double-buffered
//! ring of chunk arenas (arrivals copied into a reused CSR arena per
//! chunk — the same flat layout [`Instance`](crate::Instance) uses, so
//! the steady state allocates nothing) while the caller's thread runs the existing
//! [`Session::step`] loop over the previous chunk. Decisions are
//! order-dependent, so the arrival loop itself stays sequential; what the
//! pipeline hides is generation cost behind decision cost. The arrivals
//! the consumer replays are byte-for-byte the arrivals the source
//! yielded, so outcomes are bit-identical to
//! [`run_source`](super::run_source) by construction.
//!
//! One producer and one consumer is the only shape, and
//! [`run_source_pipelined`] is the one entry: there is no thread count to
//! tune and no core-count switch — it always pipelines, on a
//! caller-provided [`ReplayScratch`]. The serial path is
//! [`run_source_with_scratch`](super::run_source_with_scratch).
//! `tests/parallel_replay.rs` pins the pipeline bit-identical to
//! sequential replay across the full algorithm × generator grid.

use std::sync::mpsc::sync_channel;

use crate::algorithm::OnlineAlgorithm;
use crate::error::Error;
use crate::ids::{ElementId, SetId};
use crate::instance::Arrival;
use crate::source::ArrivalSource;

use super::batch::ReplayScratch;
use super::{Outcome, Session};

/// Arrivals staged per pipeline chunk: large enough to amortize the
/// channel round trip to well under a nanosecond per arrival, small
/// enough that two in-flight chunks stay cache-resident.
const PIPELINE_CHUNK: usize = 1024;

/// Chunk arenas in flight (double buffering: the producer fills one while
/// the consumer drains the other).
const PIPELINE_RING: usize = 2;

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

/// Drives `algorithm` over `source` through the pipelined session, on
/// caller-provided [`ReplayScratch`] — the intra-replay-parallel twin of
/// [`run_source`](super::run_source), bit-identical to it. One producer
/// thread fills chunk arenas while the caller's thread consumes them; the
/// consumer replays exactly the arrivals the producer copied, in order,
/// through the same [`Session`] logic.
///
/// # Errors
///
/// Same contract as [`run_source`](super::run_source): the first invalid
/// decision.
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
/// let mut scratch = ReplayScratch::new();
/// let pipelined = run_source_pipelined(
///     &mut inst.source(),
///     &mut GreedyOnline::new(TieBreak::ByWeight),
///     &mut scratch,
/// )?;
/// let serial = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(pipelined, serial);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run_source_pipelined<S, A>(
    source: &mut S,
    algorithm: &mut A,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + Send + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    pipeline(source, algorithm, scratch, PIPELINE_CHUNK)
}

/// The chunked pipeline behind [`run_source_pipelined`], with the chunk
/// size (arrivals per arena, at least 1) as a parameter so unit tests can
/// force many hand-offs on short streams.
fn pipeline<S, A>(
    source: &mut S,
    algorithm: &mut A,
    scratch: &mut ReplayScratch,
    chunk_arrivals: usize,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + Send + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    let chunk_arrivals = chunk_arrivals.max(1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyOnline, HashRandPr, RandPr, TieBreak};
    use crate::engine::run_source;
    use crate::gen::{
        BiregularSource, CapacityModel, FixedSizeSource, LoadModel, RandomInstanceConfig,
        UniformSource, WeightModel,
    };
    use crate::instance::{Instance, InstanceBuilder};

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
        // Chunk sizes around the stream lengths (60, 90, 100) exercise the
        // partial-chunk and exact-boundary end conditions, and chunk 1
        // hands off every arrival separately. Small chunks recycle each
        // arena many times, so a field a refill fails to reset (capacities
        // drawn from 1..=3, members of varying width) shows up as a
        // diverged outcome. One scratch across all runs also checks that
        // recycled buffers carry nothing from run to run.
        type SourceFn = fn() -> Box<dyn ArrivalSource + Send>;
        let sources: [(&str, SourceFn); 4] = [
            ("uniform", || {
                let cfg = RandomInstanceConfig::unweighted(20, 60, 3);
                Box::new(UniformSource::new(&cfg, 7).unwrap())
            }),
            ("zipf", || {
                let cfg = RandomInstanceConfig {
                    num_sets: 40,
                    num_elements: 100,
                    load: LoadModel::Uniform { lo: 1, hi: 6 },
                    weights: WeightModel::Zipf { exponent: 1.0 },
                    capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
                };
                Box::new(UniformSource::new(&cfg, 7).unwrap())
            }),
            ("bi-regular", || {
                Box::new(BiregularSource::new(120, 3, 6, 7).unwrap())
            }),
            ("fixed-size", || {
                Box::new(FixedSizeSource::new(40, 4, 90, 1.2, 7).unwrap())
            }),
        ];
        let algorithms: [fn() -> Box<dyn OnlineAlgorithm>; 3] = [
            || Box::new(RandPr::from_seed(1)),
            || Box::new(HashRandPr::new_lazy(8, 1)),
            || Box::new(GreedyOnline::new(TieBreak::ByFewestRemaining)),
        ];
        let mut scratch = ReplayScratch::new();
        for (source_name, source) in sources {
            for alg in algorithms {
                let want = run_source(&mut *source(), alg().as_mut()).unwrap();
                for chunk in [1usize, 7, 60, 64, 90, 100] {
                    let got =
                        pipeline(&mut *source(), alg().as_mut(), &mut scratch, chunk).unwrap();
                    assert_eq!(
                        got,
                        want,
                        "{source_name} / {} at chunk={chunk}",
                        alg().name()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_source_finishes_cleanly() {
        let inst = InstanceBuilder::new().build().unwrap();
        let out = run_source_pipelined(
            &mut inst.source(),
            &mut RandPr::from_seed(0),
            &mut ReplayScratch::new(),
        )
        .unwrap();
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
        let got = pipeline(
            &mut inst.source(),
            &mut OracleOnline::new(vec![s0, s1]),
            &mut ReplayScratch::new(),
            8,
        );
        assert!(matches!(got, Err(Error::DecisionOverCapacity { .. })));
    }
}
