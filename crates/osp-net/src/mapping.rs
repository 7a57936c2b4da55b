//! The paper's reduction, executable: "elements represent time steps (not
//! packets!), and sets represent data frames. Time step `j` is included in
//! data frame `i` if a packet of frame `i` arrives at time `j`."
//!
//! Empty slots carry no decision and are skipped, so the OSP instance's
//! elements are exactly the non-empty slots, with capacity equal to the
//! link rate.
//!
//! Two executions of the reduction:
//!
//! * [`trace_to_instance`] materializes a full [`Instance`] (plus the
//!   element↔slot bookkeeping) — what the offline solvers and statistics
//!   need;
//! * [`TraceSource`] streams the same reduction as an
//!   [`ArrivalSource`], so a trace replays through the engine without
//!   the intermediate instance ever existing — and, being the boundary
//!   where *untrusted* input enters the engine, it validates every slot
//!   with the checked [`Arrival::try_new`] instead of trusting builder
//!   invariants.

use osp_core::source::ArrivalSource;
use osp_core::{
    sort_members, Arrival, ElementId, Error, Instance, InstanceBuilder, SetId, SetMeta,
};

use crate::trace::Trace;

/// The instance produced by [`trace_to_instance`], plus the bookkeeping
/// needed to translate results back to the network domain.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedTrace {
    /// The OSP instance (set `i` = frame `i`; element order = slot order).
    pub instance: Instance,
    /// For each OSP element (in arrival order), the original slot index.
    pub element_slots: Vec<usize>,
}

/// Reduces a packet [`Trace`] to an OSP [`Instance`].
///
/// Frame `i` becomes set `i` with the frame's weight and packet count;
/// every non-empty slot becomes one element with capacity
/// [`Trace::capacity`] whose members are the frames present in the slot.
///
/// # Examples
///
/// ```
/// use osp_net::frame::{Frame, FrameClass};
/// use osp_net::trace::Trace;
/// use osp_net::mapping::trace_to_instance;
///
/// let f = Frame { class: FrameClass::P, packets: 2, weight: 1.0 };
/// let trace = Trace::new(vec![f], vec![vec![0], vec![], vec![0]], 1).unwrap();
/// let mapped = trace_to_instance(&trace);
/// assert_eq!(mapped.instance.num_sets(), 1);
/// assert_eq!(mapped.instance.num_elements(), 2); // empty slot skipped
/// assert_eq!(mapped.element_slots, vec![0, 2]);
/// ```
pub fn trace_to_instance(trace: &Trace) -> MappedTrace {
    let mut b = InstanceBuilder::new();
    for f in trace.frames() {
        b.add_set(f.weight, f.packets);
    }
    let mut element_slots = Vec::new();
    for (slot_idx, slot) in trace.slots().iter().enumerate() {
        if slot.is_empty() {
            continue;
        }
        let members: Vec<SetId> = slot.iter().map(|&f| SetId(f as u32)).collect();
        b.add_element(trace.capacity(), &members);
        element_slots.push(slot_idx);
    }
    MappedTrace {
        instance: b
            .build()
            .expect("trace invariants imply instance invariants"),
        element_slots,
    }
}

/// The paper's reduction as a stream: each non-empty slot of a packet
/// [`Trace`] becomes one arrival, pulled on demand — no intermediate
/// [`Instance`] is built. Conformant with [`trace_to_instance`]: replaying
/// this source produces bit-identical outcomes to replaying the mapped
/// instance (pinned by `tests/source_conformance.rs`).
///
/// This is the boundary where untrusted input (a parsed capture, a
/// third-party trace) enters the engine, so construction re-validates
/// every slot through the checked [`Arrival::try_new`] — a malformed
/// member list surfaces as an [`Error`] here instead of a panic (or a
/// silently wrong binary search) deep inside a replay.
///
/// # Examples
///
/// ```
/// use osp_net::frame::{Frame, FrameClass};
/// use osp_net::trace::Trace;
/// use osp_net::mapping::TraceSource;
/// use osp_core::prelude::*;
///
/// let f = Frame { class: FrameClass::P, packets: 2, weight: 1.0 };
/// let trace = Trace::new(vec![f], vec![vec![0], vec![], vec![0]], 1).unwrap();
/// let mut source = TraceSource::new(&trace)?;
/// let outcome = run_source(&mut source, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    sets: Vec<SetMeta>,
    /// Sorted member buffer of the current slot, reused across arrivals.
    members: Vec<SetId>,
    /// Next slot index to examine.
    slot: usize,
    /// Next element id to mint (= non-empty slots yielded so far).
    element: u32,
    /// Total non-empty slots (counted once by the validation pass).
    total: u32,
    /// Slot index of the most recently yielded arrival.
    last_yielded: Option<usize>,
}

impl<'a> TraceSource<'a> {
    /// Builds the source, translating frames to [`SetMeta`] and validating
    /// every slot's member list through [`Arrival::try_new`].
    ///
    /// # Errors
    ///
    /// * [`Error::EmptySet`] for a zero-packet frame (it could never
    ///   complete);
    /// * [`Error::BadWeight`] for a non-finite or negative frame weight;
    /// * [`Error::DuplicateMember`] if a slot lists a frame twice
    ///   (unreachable for a validated [`Trace`], load-bearing for anything
    ///   synthesized).
    pub fn new(trace: &'a Trace) -> Result<Self, Error> {
        let mut sets = Vec::with_capacity(trace.frames().len());
        for (i, f) in trace.frames().iter().enumerate() {
            if f.packets == 0 {
                return Err(Error::EmptySet(SetId(i as u32)));
            }
            if !f.weight.is_finite() || f.weight < 0.0 {
                return Err(Error::BadWeight {
                    set: SetId(i as u32),
                    weight: f.weight,
                });
            }
            sets.push(SetMeta::new(f.weight, f.packets));
        }
        let max_burst = trace.max_burst();
        let mut source = TraceSource {
            trace,
            sets,
            members: Vec::with_capacity(max_burst),
            slot: 0,
            element: 0,
            total: 0,
            last_yielded: None,
        };
        // Validation pass: every slot must form a legal arrival (and the
        // walk doubles as the non-empty-slot count).
        while source.advance()?.is_some() {}
        source.total = source.element;
        source.slot = 0;
        source.element = 0;
        source.last_yielded = None;
        Ok(source)
    }

    /// The original slot index of the most recently yielded arrival, or
    /// `None` before the first pull — the streamed, O(1) twin of
    /// [`MappedTrace::element_slots`]: consumers that need the mapping
    /// read it arrival by arrival as they pull (a full random-access table
    /// is exactly what streaming avoids holding).
    pub fn last_slot(&self) -> Option<usize> {
        self.last_yielded
    }

    /// Advances to the next non-empty slot, filling `self.members` sorted,
    /// and returns the arrival (checked); `None` at end of trace.
    fn advance(&mut self) -> Result<Option<Arrival<'_>>, Error> {
        let Some(yielded) = advance_to_nonempty_slot(self.trace, &mut self.slot, &mut self.members)
        else {
            return Ok(None);
        };
        let element = ElementId(self.element);
        self.last_yielded = Some(yielded);
        self.element += 1;
        Arrival::try_new(element, self.trace.capacity(), &self.members).map(Some)
    }
}

/// The one slot-reduction core both trace sources share: skips empty
/// slots, fills `members` with the next non-empty slot's frames (sorted
/// ascending), advances `slot` past it and returns its index — or `None`
/// at end of trace. Keeping this in one place means the borrowed and the
/// owned source cannot drift on what the reduction yields.
fn advance_to_nonempty_slot(
    trace: &Trace,
    slot: &mut usize,
    members: &mut Vec<SetId>,
) -> Option<usize> {
    let slots = trace.slots();
    while *slot < slots.len() && slots[*slot].is_empty() {
        *slot += 1;
    }
    if *slot >= slots.len() {
        return None;
    }
    members.clear();
    members.extend(slots[*slot].iter().map(|&f| SetId(f as u32)));
    sort_members(members);
    let yielded = *slot;
    *slot += 1;
    Some(yielded)
}

impl ArrivalSource for TraceSource<'_> {
    fn sets(&self) -> &[SetMeta] {
        &self.sets
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        // Construction already validated every slot; a failure here would
        // mean the trace mutated under us, which `&'a Trace` rules out.
        self.advance()
            .expect("trace slots validated at construction")
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some((self.total - self.element) as usize)
    }
}

/// [`TraceSource`]'s owning twin: takes the [`Trace`] by value, so the
/// stream can outlive the scope that generated the trace — what the spec
/// registry ([`spec`](crate::spec)) needs when it resolves an
/// [`osp_core::ScenarioSpec::VideoTrace`] into a boxed
/// [`ArrivalSource`]. Construction validates through [`TraceSource::new`]
/// and streaming replays the identical reduction: same set metadata, same
/// arrivals, same order.
#[derive(Debug, Clone)]
pub struct OwnedTraceSource {
    trace: Trace,
    sets: Vec<SetMeta>,
    /// Sorted member buffer of the current slot, reused across arrivals.
    members: Vec<SetId>,
    slot: usize,
    element: u32,
    total: u32,
}

impl OwnedTraceSource {
    /// Builds the source, validating every slot exactly as
    /// [`TraceSource::new`] does.
    ///
    /// # Errors
    ///
    /// Same contract as [`TraceSource::new`].
    pub fn new(trace: Trace) -> Result<Self, Error> {
        let (sets, total) = {
            let probe = TraceSource::new(&trace)?;
            let total = probe
                .remaining_hint()
                .expect("trace sources know their length") as u32;
            (probe.sets, total)
        };
        let max_burst = trace.max_burst();
        Ok(OwnedTraceSource {
            trace,
            sets,
            members: Vec::with_capacity(max_burst),
            slot: 0,
            element: 0,
            total,
        })
    }
}

impl ArrivalSource for OwnedTraceSource {
    fn sets(&self) -> &[SetMeta] {
        &self.sets
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        advance_to_nonempty_slot(&self.trace, &mut self.slot, &mut self.members)?;
        let element = ElementId(self.element);
        self.element += 1;
        // Construction validated every slot via TraceSource::new, and the
        // trace is owned (immutable since), so the unchecked constructor
        // is sound here.
        Some(Arrival::new(element, self.trace.capacity(), &self.members))
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some((self.total - self.element) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameClass};
    use crate::trace::{video_trace, VideoTraceConfig};
    use osp_core::stats::InstanceStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frame(packets: u32, weight: f64) -> Frame {
        Frame {
            class: FrameClass::P,
            packets,
            weight,
        }
    }

    #[test]
    fn weights_and_sizes_carry_over() {
        let trace = Trace::new(
            vec![frame(2, 3.5), frame(1, 1.0)],
            vec![vec![0, 1], vec![0]],
            2,
        )
        .unwrap();
        let mapped = trace_to_instance(&trace);
        let inst = &mapped.instance;
        assert_eq!(inst.set(SetId(0)).weight(), 3.5);
        assert_eq!(inst.set(SetId(0)).size(), 2);
        assert_eq!(inst.set(SetId(1)).size(), 1);
        assert!(!inst.is_unit_capacity());
    }

    #[test]
    fn burst_size_equals_element_load() {
        let mut rng = StdRng::seed_from_u64(0);
        let trace = video_trace(&VideoTraceConfig::small(), &mut rng);
        let mapped = trace_to_instance(&trace);
        let st = InstanceStats::compute(&mapped.instance);
        assert_eq!(st.sigma_max as usize, trace.max_burst());
        // Incidence count is preserved: packets = Σ loads.
        let total_load: u32 = mapped.instance.arrivals().iter().map(|a| a.load()).sum();
        assert_eq!(total_load as usize, trace.total_packets());
    }

    #[test]
    fn trace_source_streams_the_mapped_instance() {
        let mut rng = StdRng::seed_from_u64(2);
        let trace = video_trace(&VideoTraceConfig::small(), &mut rng);
        let mapped = trace_to_instance(&trace);
        let mut source = TraceSource::new(&trace).unwrap();
        assert_eq!(source.sets(), mapped.instance.sets());
        assert_eq!(
            source.remaining_hint(),
            Some(mapped.instance.num_elements())
        );
        assert_eq!(source.last_slot(), None, "no arrival pulled yet");
        for i in 0..mapped.instance.num_elements() {
            let want = mapped.instance.arrival(i);
            let got = source.next_arrival().expect("stream too short");
            assert_eq!(got.element(), want.element(), "element {i}");
            assert_eq!(got.capacity(), want.capacity(), "capacity {i}");
            assert_eq!(got.members(), want.members(), "members {i}");
            // Slot bookkeeping matches MappedTrace's, arrival by arrival.
            assert_eq!(
                source.last_slot(),
                Some(mapped.element_slots[i]),
                "slot {i}"
            );
        }
        assert!(source.next_arrival().is_none());
        assert_eq!(source.remaining_hint(), Some(0));
    }

    #[test]
    fn owned_trace_source_matches_the_borrowing_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let trace = video_trace(&VideoTraceConfig::small(), &mut rng);
        let mut borrowed = TraceSource::new(&trace).unwrap();
        let mut owned = OwnedTraceSource::new(trace.clone()).unwrap();
        assert_eq!(owned.sets(), borrowed.sets());
        assert_eq!(owned.remaining_hint(), borrowed.remaining_hint());
        while let Some(want) = borrowed.next_arrival() {
            let got = owned.next_arrival().expect("same stream length");
            assert_eq!(got.element(), want.element());
            assert_eq!(got.capacity(), want.capacity());
            assert_eq!(got.members(), want.members());
        }
        assert!(owned.next_arrival().is_none());
        assert_eq!(owned.remaining_hint(), Some(0));
        // The validation path is shared too.
        let bad = Trace::new(vec![frame(0, 1.0)], vec![], 1).unwrap();
        assert!(matches!(
            OwnedTraceSource::new(bad),
            Err(osp_core::Error::EmptySet(_))
        ));
    }

    #[test]
    fn trace_source_rejects_malformed_frames() {
        // Zero-packet frame: legal for Trace::new, meaningless for OSP.
        let trace = Trace::new(vec![frame(0, 1.0)], vec![], 1).unwrap();
        assert!(matches!(
            TraceSource::new(&trace),
            Err(osp_core::Error::EmptySet(_))
        ));
        // Non-finite weight.
        let trace = Trace::new(vec![frame(1, f64::NAN)], vec![vec![0]], 1).unwrap();
        assert!(matches!(
            TraceSource::new(&trace),
            Err(osp_core::Error::BadWeight { .. })
        ));
    }

    #[test]
    fn element_slots_monotone() {
        let mut rng = StdRng::seed_from_u64(1);
        let trace = video_trace(&VideoTraceConfig::small(), &mut rng);
        let mapped = trace_to_instance(&trace);
        assert!(mapped.element_slots.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(mapped.element_slots.len(), mapped.instance.num_elements());
    }
}
