//! Streaming arrival sources — the engine's ingestion abstraction.
//!
//! The paper's model (§2) is inherently *online*: elements arrive one at a
//! time, and neither the algorithm nor the engine ever needs the whole
//! hypergraph in memory. An [`ArrivalSource`] captures exactly that: the
//! up-front [`SetMeta`] registration the model grants algorithms, plus a
//! pull-based stream of `(element, b(u), C(u))` arrivals. The engine's
//! source-generic entry points ([`run_source`](crate::engine::run_source),
//! [`Session::drain_source`](crate::engine::Session::drain_source),
//! [`run_source_pipelined`](crate::engine::run_source_pipelined))
//! consume any source, so scenario size is bounded by the *source's*
//! resident state — O(m) for the fused generators in
//! [`gen::stream`](crate::gen) — not by RAM holding a materialized
//! [`Instance`].
//!
//! A materialized [`Instance`] is just one source among many:
//! [`InstanceSource`] (via [`Instance::source`]) streams its CSR arena
//! back out as the same borrowed-slice [`Arrival`] views the indexed
//! replay path uses, so nothing is copied and the hot path stays
//! allocation-free.
//!
//! # Determinism contract
//!
//! A source must be a *pure function of its construction inputs*: two
//! sources built with the same parameters (and, for randomized sources,
//! the same seed) must yield identical streams — same set metadata, same
//! arrivals, in the same order. This is what makes streamed replay
//! reproducible and lets
//! [`ReplayPool::map`](crate::engine::batch::ReplayPool::map)
//! shard streamed jobs with the same SplitMix64 seed derivation and
//! bit-identical outcomes as sequential replay: each shard rebuilds its
//! jobs' sources from `(selector, seed)` locally, so no stream ever
//! depends on shard count or scheduling. The conformance suite
//! (`tests/source_conformance.rs`) pins the contract's strongest form for
//! the built-in generator sources: streaming and materialize-then-replay
//! produce bit-identical [`Outcome`](crate::Outcome)s.

use crate::instance::{Arrival, Instance, SetMeta};

/// A pull-based stream of online arrivals over a declared set system.
///
/// The engine consumes a source in two phases, mirroring §2 of the paper:
///
/// 1. [`sets`](Self::sets) — every set's weight and size, announced to the
///    algorithm before the first arrival;
/// 2. repeated [`next_arrival`](Self::next_arrival) calls until the stream
///    ends. Each yielded [`Arrival`] borrows from the source's internal
///    buffers, so implementations can (and should) reuse one member buffer
///    across arrivals — the engine is done with the view before it pulls
///    the next one, keeping the per-arrival hot path allocation-free.
///
/// Implementations must uphold the module-level determinism contract
/// (same construction inputs ⇒ same stream) and the same member-list
/// invariant [`Arrival::new`] asserts: sorted ascending by set id,
/// duplicate-free, referencing declared sets only. Element ids must be
/// consecutive from zero in arrival order.
pub trait ArrivalSource {
    /// The declared sets' metadata, known up front. Must not change while
    /// the stream is being consumed.
    fn sets(&self) -> &[SetMeta];

    /// Pulls the next arrival, or `None` once the stream is exhausted.
    /// The view borrows the source; it is consumed before the next pull.
    fn next_arrival(&mut self) -> Option<Arrival<'_>>;

    /// How many arrivals remain, if the source knows (generators over a
    /// fixed `n` do).
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for Box<S> {
    fn sets(&self) -> &[SetMeta] {
        (**self).sets()
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        (**self).next_arrival()
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for &mut S {
    fn sets(&self) -> &[SetMeta] {
        (**self).sets()
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        (**self).next_arrival()
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

/// A materialized [`Instance`] replayed as a stream, from the beginning.
///
/// Yields the same zero-copy [`Arrival`] views into the instance's CSR
/// membership arena that [`Instance::arrivals`] provides — streaming an
/// instance costs nothing over indexing it.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
/// use osp_core::source::ArrivalSource;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// let mut src = inst.source();
/// assert_eq!(src.remaining_hint(), Some(1));
/// let outcome = run_source(&mut src, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstanceSource<'a> {
    instance: &'a Instance,
    next: usize,
}

impl<'a> InstanceSource<'a> {
    /// Starts a stream over `instance`'s arrival sequence.
    pub fn new(instance: &'a Instance) -> Self {
        InstanceSource { instance, next: 0 }
    }
}

impl ArrivalSource for InstanceSource<'_> {
    fn sets(&self) -> &[SetMeta] {
        self.instance.sets()
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        let arrival = self.instance.arrivals().get(self.next)?;
        self.next += 1;
        Some(arrival)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.instance.num_elements() - self.next)
    }
}

/// An **owned** [`Instance`] replayed as a stream — [`InstanceSource`]'s
/// `'static` twin for when the stream must outlive the place the instance
/// was built (e.g. a spec resolver returning `Box<dyn ArrivalSource>`,
/// see [`spec`](crate::spec)). Same zero-copy CSR arrival views, same
/// order.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
/// use osp_core::source::ArrivalSource;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let mut src = b.build()?.into_source(); // the instance moves in
/// let outcome = run_source(&mut src, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct OwnedInstanceSource {
    instance: Instance,
    next: usize,
}

impl OwnedInstanceSource {
    /// Starts a stream owning `instance`; see also
    /// [`Instance::into_source`].
    pub fn new(instance: Instance) -> Self {
        OwnedInstanceSource { instance, next: 0 }
    }
}

impl ArrivalSource for OwnedInstanceSource {
    fn sets(&self) -> &[SetMeta] {
        self.instance.sets()
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        let arrival = self.instance.arrivals().get(self.next)?;
        self.next += 1;
        Some(arrival)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.instance.num_elements() - self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ElementId, SetId};
    use crate::instance::InstanceBuilder;

    fn small_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        let s1 = b.add_set(2.0, 1);
        b.add_element(1, &[s0, s1]);
        b.add_element(2, &[s0]);
        b.build().unwrap()
    }

    #[test]
    fn instance_source_streams_every_arrival_in_order() {
        let inst = small_instance();
        let mut src = inst.source();
        assert_eq!(src.sets(), inst.sets());
        assert_eq!(src.remaining_hint(), Some(2));
        let a0 = src.next_arrival().unwrap();
        assert_eq!(a0.element(), ElementId(0));
        assert_eq!(a0.members(), &[SetId(0), SetId(1)]);
        assert_eq!(src.remaining_hint(), Some(1));
        let a1 = src.next_arrival().unwrap();
        assert_eq!(a1.element(), ElementId(1));
        assert_eq!(a1.capacity(), 2);
        assert!(src.next_arrival().is_none());
        assert_eq!(src.remaining_hint(), Some(0));
        // Exhausted stays exhausted.
        assert!(src.next_arrival().is_none());
    }

    #[test]
    fn boxed_and_borrowed_sources_delegate() {
        // Generic driver, so the blanket `Box<S>` / `&mut S` impls are the
        // ones exercised.
        fn consume<S: ArrivalSource>(mut source: S) -> usize {
            assert_eq!(source.sets().len(), 2);
            let mut count = 0;
            while source.next_arrival().is_some() {
                count += 1;
            }
            assert_eq!(source.remaining_hint(), Some(0));
            count
        }
        let inst = small_instance();
        let boxed: Box<dyn ArrivalSource + '_> = Box::new(inst.source());
        assert_eq!(consume(boxed), 2);
        let mut src = inst.source();
        assert_eq!(consume(&mut src), 2);
    }

    #[test]
    fn owned_source_streams_like_the_borrowed_one() {
        let inst = small_instance();
        let mut borrowed = inst.source();
        let mut owned = inst.clone().into_source();
        assert_eq!(owned.sets(), inst.sets());
        assert_eq!(owned.remaining_hint(), Some(2));
        while let Some(want) = borrowed.next_arrival() {
            let got = owned.next_arrival().expect("same stream length");
            assert_eq!(got.element(), want.element());
            assert_eq!(got.capacity(), want.capacity());
            assert_eq!(got.members(), want.members());
        }
        assert!(owned.next_arrival().is_none());
        assert_eq!(owned.remaining_hint(), Some(0));
    }
}
