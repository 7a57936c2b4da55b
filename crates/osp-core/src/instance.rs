//! The OSP instance model: declared sets plus an online arrival sequence.
//!
//! Per §2 of the paper, the algorithm initially knows each set's *weight and
//! size* only. Elements then arrive one by one; element `u` brings its
//! capacity `b(u)` and the list `C(u)` of sets containing it. An
//! [`Instance`] freezes exactly that information, validated so that every
//! set's declared size matches the number of arrivals that list it — which
//! is what makes "the set received all its elements" a well-defined event.
//!
//! # Flat-memory layout
//!
//! Membership is stored as one CSR arena: a single `Vec<SetId>` pool plus
//! an offset table, so replaying the arrival sequence walks one contiguous
//! buffer instead of chasing a heap pointer per arrival. [`Arrival`] is a
//! cheap borrowed *view* into that arena ([`Arrival::members`] is a slice
//! of the pool), and [`Instance::arrivals`] returns an indexable,
//! sliceable, iterable [`Arrivals`] view over all of them.

use crate::error::Error;
use crate::ids::{ElementId, SetId};

/// What the algorithm knows about a set up front: weight and size (§2).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SetMeta {
    weight: f64,
    size: u32,
}

impl SetMeta {
    /// Creates standalone set metadata for incremental use with
    /// [`Session`](crate::engine::Session) (adaptive adversaries declare
    /// sets before any [`Instance`] exists).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite, or if `size == 0` —
    /// the same invariants [`InstanceBuilder::build`] enforces.
    pub fn new(weight: f64, size: u32) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "set weight must be finite and non-negative, got {weight}"
        );
        assert!(size >= 1, "set size must be at least 1");
        SetMeta { weight, size }
    }

    /// The set's weight `w(S)`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The set's size `|S|` (number of elements it contains).
    pub fn size(&self) -> u32 {
        self.size
    }
}

/// One online arrival: element identity, capacity `b(u)` and the member
/// list `C(u)` (sorted by set id).
///
/// An `Arrival` is a borrowed view — for instance replays the member list
/// is a slice into the [`Instance`]'s CSR membership arena, so handing
/// arrivals to an algorithm allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival<'a> {
    element: ElementId,
    capacity: u32,
    members: &'a [SetId],
}

impl<'a> Arrival<'a> {
    /// Creates a standalone arrival for incremental use with
    /// [`Session`](crate::engine::Session) (adaptive adversaries build
    /// arrivals on the fly, before any [`Instance`] exists).
    ///
    /// # Panics
    ///
    /// Panics unless the member list is sorted ascending by set id and
    /// duplicate-free — the engine's binary searches rely on it, and this
    /// constructor is a cold path (replay arrivals come from the
    /// [`Arrivals`] view, whose arena segments are sorted by
    /// construction).
    pub fn new(element: ElementId, capacity: u32, members: &'a [SetId]) -> Self {
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "arrival member list must be sorted and duplicate-free"
        );
        Arrival {
            element,
            capacity,
            members,
        }
    }

    /// Checked variant of [`new`](Self::new) for *untrusted* input (e.g.
    /// the osp-net trace boundary): instead of panicking it reports exactly
    /// which invariant the member list violates, plus a zero capacity.
    ///
    /// # Errors
    ///
    /// * [`Error::ZeroCapacity`] if `capacity == 0`;
    /// * [`Error::DuplicateMember`] if a set id repeats;
    /// * [`Error::UnsortedMembers`] if the list is not ascending.
    pub fn try_new(element: ElementId, capacity: u32, members: &'a [SetId]) -> Result<Self, Error> {
        if capacity == 0 {
            return Err(Error::ZeroCapacity(element));
        }
        for w in members.windows(2) {
            if w[0] == w[1] {
                return Err(Error::DuplicateMember { element, set: w[0] });
            }
            if w[0] > w[1] {
                return Err(Error::UnsortedMembers { element, set: w[1] });
            }
        }
        Ok(Arrival {
            element,
            capacity,
            members,
        })
    }

    /// The arriving element's id (also its position in arrival order).
    pub fn element(&self) -> ElementId {
        self.element
    }

    /// The element's capacity `b(u)`: how many sets it may be assigned to.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The sets containing this element, `C(u)`, sorted by id.
    pub fn members(&self) -> &'a [SetId] {
        self.members
    }

    /// The element's load `σ(u) = |C(u)|`.
    pub fn load(&self) -> u32 {
        self.members.len() as u32
    }

    /// Whether `set` contains this element (binary search on the sorted
    /// member list).
    pub fn contains(&self, set: SetId) -> bool {
        self.members.binary_search(&set).is_ok()
    }
}

/// A borrowed view of a contiguous run of arrivals (all of an instance's,
/// or a [`slice`](Arrivals::slice) of them). Indexing materializes the
/// [`Arrival`] view on the fly; nothing is copied.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals<'a> {
    capacities: &'a [u32],
    /// Absolute offsets into `pool`; `offsets.len() == capacities.len()+1`.
    offsets: &'a [u32],
    pool: &'a [SetId],
    /// Element id of the first arrival in this view.
    base: u32,
}

impl<'a> Arrivals<'a> {
    /// Number of arrivals in the view.
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// The `i`-th arrival of the view, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Arrival<'a>> {
        if i >= self.capacities.len() {
            return None;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        Some(Arrival {
            element: ElementId(self.base + i as u32),
            capacity: self.capacities[i],
            members: &self.pool[lo..hi],
        })
    }

    /// A sub-view over `range` (arrival indices relative to this view).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Arrivals<'a> {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&b) => b,
            Bound::Excluded(&b) => b + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&b) => b + 1,
            Bound::Excluded(&b) => b,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "arrival range out of bounds");
        Arrivals {
            capacities: &self.capacities[lo..hi],
            offsets: &self.offsets[lo..=hi],
            pool: self.pool,
            base: self.base + lo as u32,
        }
    }

    /// Iterates the arrivals in order.
    pub fn iter(self) -> ArrivalsIter<'a> {
        ArrivalsIter {
            view: self,
            front: 0,
            back: self.len(),
        }
    }
}

impl<'a> IntoIterator for Arrivals<'a> {
    type Item = Arrival<'a>;
    type IntoIter = ArrivalsIter<'a>;

    fn into_iter(self) -> ArrivalsIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Arrivals<'a> {
    type Item = Arrival<'a>;
    type IntoIter = ArrivalsIter<'a>;

    fn into_iter(self) -> ArrivalsIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Arrivals`] view.
#[derive(Debug, Clone)]
pub struct ArrivalsIter<'a> {
    view: Arrivals<'a>,
    front: usize,
    back: usize,
}

impl<'a> Iterator for ArrivalsIter<'a> {
    type Item = Arrival<'a>;

    fn next(&mut self) -> Option<Arrival<'a>> {
        if self.front >= self.back {
            return None;
        }
        let a = self.view.get(self.front);
        self.front += 1;
        a
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for ArrivalsIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        self.view.get(self.back)
    }
}

impl ExactSizeIterator for ArrivalsIter<'_> {}
impl std::iter::FusedIterator for ArrivalsIter<'_> {}

/// A complete, validated OSP instance.
///
/// Construct via [`InstanceBuilder`]. Invariants guaranteed after
/// construction:
///
/// * every weight is finite and non-negative;
/// * every set has size ≥ 1 and its declared size equals the number of
///   arrivals listing it;
/// * every arrival has capacity ≥ 1 and a duplicate-free, sorted member
///   list referencing declared sets only.
///
/// Memberships live in a flat CSR arena (`member_offsets` + `members`),
/// so the replay hot path walks one contiguous `Vec<SetId>`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Instance {
    sets: Vec<SetMeta>,
    capacities: Vec<u32>,
    /// CSR offsets: arrival `i`'s members are `members[offsets[i]..offsets[i+1]]`.
    member_offsets: Vec<u32>,
    /// The CSR membership pool; each arrival's segment is sorted by set id.
    members: Vec<SetId>,
}

impl Instance {
    /// Number of sets `m`.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of elements `n`.
    pub fn num_elements(&self) -> usize {
        self.capacities.len()
    }

    /// Metadata of one set.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&self, id: SetId) -> &SetMeta {
        &self.sets[id.index()]
    }

    /// All set metadata, indexed by [`SetId`].
    pub fn sets(&self) -> &[SetMeta] {
        &self.sets
    }

    /// The arrival sequence in online order, as a zero-copy view into the
    /// CSR arena.
    pub fn arrivals(&self) -> Arrivals<'_> {
        Arrivals {
            capacities: &self.capacities,
            offsets: &self.member_offsets,
            pool: &self.members,
            base: 0,
        }
    }

    /// The `i`-th arrival.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn arrival(&self, i: usize) -> Arrival<'_> {
        self.arrivals()
            .get(i)
            .unwrap_or_else(|| panic!("arrival index {i} out of range"))
    }

    /// A fresh [`ArrivalSource`](crate::source::ArrivalSource) streaming
    /// this instance's arrivals from the start — the bridge from the
    /// materialized world into the source-generic engine entry points
    /// ([`run_source`](crate::engine::run_source) and friends). The yielded
    /// [`Arrival`]s are the same zero-copy views into the CSR arena that
    /// [`arrivals`](Self::arrivals) hands out.
    pub fn source(&self) -> crate::source::InstanceSource<'_> {
        crate::source::InstanceSource::new(self)
    }

    /// Consumes the instance into an owning stream over its arrival
    /// sequence — the `'static` twin of [`source`](Self::source), for
    /// when the stream must outlive the builder scope (e.g. a
    /// [`spec`](crate::spec) resolver returning a boxed source).
    pub fn into_source(self) -> crate::source::OwnedInstanceSource {
        crate::source::OwnedInstanceSource::new(self)
    }

    /// Bytes of heap memory the instance's arrays occupy (set metadata,
    /// capacities, CSR offsets and membership pool) — what a streaming
    /// [`source`](Self::source) pipeline avoids materializing.
    pub fn heap_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<SetMeta>()
            + self.capacities.len() * std::mem::size_of::<u32>()
            + self.member_offsets.len() * std::mem::size_of::<u32>()
            + self.members.len() * std::mem::size_of::<SetId>()
    }

    /// Total weight `w(C)` of all sets.
    pub fn total_weight(&self) -> f64 {
        self.sets.iter().map(|s| s.weight).sum()
    }

    /// Sum of the weights of the given sets.
    pub fn weight_of<I: IntoIterator<Item = SetId>>(&self, ids: I) -> f64 {
        ids.into_iter().map(|id| self.set(id).weight).sum()
    }

    /// Whether all elements have capacity 1 (the paper's *unit capacity*
    /// special case).
    pub fn is_unit_capacity(&self) -> bool {
        self.capacities.iter().all(|&c| c == 1)
    }

    /// Whether all sets have weight 1 (the paper's *unweighted* case).
    pub fn is_unweighted(&self) -> bool {
        self.sets.iter().all(|s| s.weight == 1.0)
    }

    /// For each set, the elements it contains, in arrival order. Computed on
    /// demand (`O(Σ|S|)`); offline solvers and statistics use this view.
    pub fn members_by_set(&self) -> Vec<Vec<ElementId>> {
        let mut by_set = vec![Vec::new(); self.sets.len()];
        for a in self.arrivals() {
            for &s in a.members() {
                by_set[s.index()].push(a.element());
            }
        }
        by_set
    }

    /// Returns a copy of this instance with the arrival order permuted
    /// uniformly at random (elements are renumbered to match their new
    /// positions).
    ///
    /// Arrival order matters to *stateful* algorithms (greedy variants see
    /// different activity histories), but `randPr`'s outcome for a fixed
    /// priority draw is order-invariant: a set completes iff its priority
    /// is in the top `b(u)` of every one of its elements, a condition with
    /// no notion of time. The `arrival_order` property tests exploit this.
    pub fn shuffle_arrivals<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Instance {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..self.num_elements()).collect();
        order.shuffle(rng);
        let mut capacities = Vec::with_capacity(order.len());
        let mut member_offsets = Vec::with_capacity(order.len() + 1);
        let mut members = Vec::with_capacity(self.members.len());
        member_offsets.push(0);
        for &old_idx in &order {
            let a = self.arrival(old_idx);
            capacities.push(a.capacity());
            members.extend_from_slice(a.members());
            member_offsets.push(members.len() as u32);
        }
        Instance {
            sets: self.sets.clone(),
            capacities,
            member_offsets,
            members,
        }
    }
}

/// Longest member list [`sort_members`] sorts with a compare–exchange
/// network; longer lists fall back to `sort_unstable`.
pub const SORT_NETWORK_MAX: usize = 16;

/// Sorts a member list ascending: the one sort kernel behind every
/// arrival's `C(u)` (the streamed sources, [`InstanceBuilder::add_element`],
/// the engine's decision check and osp-net's trace reduction).
///
/// Lists of up to [`SORT_NETWORK_MAX`] ids are padded with `u32::MAX` to
/// width 4, 8 or 16 and run through Batcher's odd–even merge network of
/// that width: a fixed sequence of `min`/`max` pairs, so no branch
/// depends on the ids (`sort_unstable`'s insertion sort mispredicts about
/// once per member on random ids). The length alone picks the width, or
/// the `sort_unstable` fallback above the cutoff. Duplicates are kept, as
/// any sort keeps them.
pub fn sort_members(members: &mut [SetId]) {
    match members.len() {
        0..=4 => through_network::<4>(members, batcher4),
        5..=8 => through_network::<8>(members, batcher8),
        9..=SORT_NETWORK_MAX => through_network::<16>(members, batcher16),
        _ => members.sort_unstable(),
    }
}

/// Pads `members` (at most `W` ids) with `u32::MAX` to width `W`, runs
/// `network` and copies the first `members.len()` outputs back: the
/// padding sorts last, so those are the members in order. The copy loops
/// have the constant trip count `W`, so they unroll.
#[inline(always)]
fn through_network<const W: usize>(
    members: &mut [SetId],
    network: impl FnOnce(&mut [u32; SORT_NETWORK_MAX]),
) {
    let n = members.len();
    let mut v = [u32::MAX; SORT_NETWORK_MAX];
    for i in 0..W {
        if i < n {
            v[i] = members[i].0;
        }
    }
    network(&mut v);
    for i in 0..W {
        if i < n {
            members[i] = SetId(v[i]);
        }
    }
}

#[inline(always)]
fn compare_exchange(v: &mut [u32; SORT_NETWORK_MAX], i: usize, j: usize) {
    let (a, b) = (v[i], v[j]);
    v[i] = a.min(b);
    v[j] = a.max(b);
}

/// Expands to one [`compare_exchange`] per `(i j)` pair, in order.
macro_rules! network {
    ($v:ident; $(($i:literal $j:literal))*) => {
        $(compare_exchange($v, $i, $j);)*
    };
}

// Batcher's odd–even merge sort in recursive order: the width-2w network
// is the width-w network, the same on the upper half, then the merge. So
// each width extends the last one.

#[inline(always)]
fn batcher4(v: &mut [u32; SORT_NETWORK_MAX]) {
    network!(v; (0 1) (2 3) (0 2) (1 3) (1 2));
}

#[inline(always)]
fn batcher8(v: &mut [u32; SORT_NETWORK_MAX]) {
    batcher4(v);
    network!(v;
        (4 5) (6 7) (4 6) (5 7) (5 6)
        (0 4) (2 6) (2 4) (1 5) (3 7) (3 5) (1 2) (3 4) (5 6));
}

#[inline(always)]
fn batcher16(v: &mut [u32; SORT_NETWORK_MAX]) {
    batcher8(v);
    network!(v;
        (8 9) (10 11) (8 10) (9 11) (9 10)
        (12 13) (14 15) (12 14) (13 15) (13 14)
        (8 12) (10 14) (10 12) (9 13) (11 15) (11 13) (9 10) (11 12) (13 14)
        (0 8) (4 12) (4 8) (2 10) (6 14) (6 10) (2 4) (6 8) (10 12)
        (1 9) (5 13) (5 9) (3 11) (7 15) (7 11) (3 5) (7 9) (11 13)
        (1 2) (3 4) (5 6) (7 8) (9 10) (11 12) (13 14));
}

/// Incremental builder for [`Instance`].
///
/// Sets may be declared with a known size ([`add_set`](Self::add_set)) or
/// with the size inferred at build time
/// ([`add_set_unsized`](Self::add_set_unsized)) — the latter is convenient
/// for generators that decide membership element-by-element. Memberships
/// accumulate directly in the CSR arena the built [`Instance`] will own.
///
/// # Examples
///
/// ```
/// use osp_core::InstanceBuilder;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(2.5, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// assert_eq!(inst.num_sets(), 1);
/// assert_eq!(inst.set(s).weight(), 2.5);
/// # Ok::<(), osp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    weights: Vec<f64>,
    declared: Vec<Option<u32>>,
    capacities: Vec<u32>,
    member_offsets: Vec<u32>,
    members: Vec<SetId>,
}

impl Default for InstanceBuilder {
    fn default() -> Self {
        InstanceBuilder {
            weights: Vec::new(),
            declared: Vec::new(),
            capacities: Vec::new(),
            member_offsets: vec![0],
            members: Vec::new(),
        }
    }
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a set with known `weight` and `size`, returning its id.
    pub fn add_set(&mut self, weight: f64, size: u32) -> SetId {
        self.weights.push(weight);
        self.declared.push(Some(size));
        SetId((self.weights.len() - 1) as u32)
    }

    /// Declares a set whose size will be inferred from the elements added
    /// later (it must end up ≥ 1).
    pub fn add_set_unsized(&mut self, weight: f64) -> SetId {
        self.weights.push(weight);
        self.declared.push(None);
        SetId((self.weights.len() - 1) as u32)
    }

    /// Number of sets declared so far.
    pub fn num_sets(&self) -> usize {
        self.weights.len()
    }

    /// Number of elements added so far.
    pub fn num_elements(&self) -> usize {
        self.capacities.len()
    }

    /// Appends the next arriving element with capacity `b(u)` and member
    /// list `C(u)`; returns the element's id. The member list is sorted
    /// internally by [`sort_members`], the one sort kernel every arrival
    /// goes through; order does not matter.
    pub fn add_element(&mut self, capacity: u32, members: &[SetId]) -> ElementId {
        let element = ElementId(self.capacities.len() as u32);
        self.capacities.push(capacity);
        let start = self.members.len();
        self.members.extend_from_slice(members);
        sort_members(&mut self.members[start..]);
        self.member_offsets.push(self.members.len() as u32);
        element
    }

    /// Validates and freezes the instance.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: invalid weight, zero capacity,
    /// duplicate/unknown members, or declared-vs-realized size mismatch
    /// (unsized sets must receive at least one element).
    pub fn build(self) -> Result<Instance, Error> {
        let m = self.weights.len();
        for (i, &w) in self.weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(Error::BadWeight {
                    set: SetId(i as u32),
                    weight: w,
                });
            }
        }
        let mut realized = vec![0u32; m];
        for (i, &capacity) in self.capacities.iter().enumerate() {
            let element = ElementId(i as u32);
            if capacity == 0 {
                return Err(Error::ZeroCapacity(element));
            }
            let segment =
                &self.members[self.member_offsets[i] as usize..self.member_offsets[i + 1] as usize];
            for w in segment.windows(2) {
                if w[0] == w[1] {
                    return Err(Error::DuplicateMember { element, set: w[0] });
                }
            }
            for &s in segment {
                if s.index() >= m {
                    return Err(Error::UnknownSet { element, set: s });
                }
                realized[s.index()] += 1;
            }
        }
        let mut sets = Vec::with_capacity(m);
        for (i, (&w, &d)) in self.weights.iter().zip(&self.declared).enumerate() {
            let id = SetId(i as u32);
            let size = match d {
                Some(declared) => {
                    if declared == 0 {
                        return Err(Error::EmptySet(id));
                    }
                    if declared != realized[i] {
                        return Err(Error::SizeMismatch {
                            set: id,
                            declared,
                            realized: realized[i],
                        });
                    }
                    declared
                }
                None => {
                    if realized[i] == 0 {
                        return Err(Error::EmptySet(id));
                    }
                    realized[i]
                }
            };
            sets.push(SetMeta { weight: w, size });
        }
        Ok(Instance {
            sets,
            capacities: self.capacities,
            member_offsets: self.member_offsets,
            members: self.members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_set_builder() -> (InstanceBuilder, SetId, SetId) {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        let s1 = b.add_set(2.0, 1);
        (b, s0, s1)
    }

    #[test]
    fn happy_path() {
        let (mut b, s0, s1) = two_set_builder();
        b.add_element(1, &[s0, s1]);
        b.add_element(1, &[s0]);
        let inst = b.build().unwrap();
        assert_eq!(inst.num_sets(), 2);
        assert_eq!(inst.num_elements(), 2);
        assert_eq!(inst.set(s0).size(), 2);
        assert_eq!(inst.set(s1).weight(), 2.0);
        assert_eq!(inst.total_weight(), 3.0);
        assert!(inst.is_unit_capacity());
        assert!(!inst.is_unweighted());
        assert_eq!(inst.weight_of([s0, s1]), 3.0);
    }

    #[test]
    fn members_sorted_regardless_of_input_order() {
        let (mut b, s0, s1) = two_set_builder();
        b.add_element(1, &[s1, s0]);
        b.add_element(1, &[s0]);
        let inst = b.build().unwrap();
        assert_eq!(inst.arrival(0).members(), &[s0, s1]);
        assert!(inst.arrival(0).contains(s1));
        assert!(!inst.arrival(1).contains(s1));
    }

    #[test]
    fn arrivals_view_indexes_slices_and_iterates() {
        let (mut b, s0, s1) = two_set_builder();
        b.add_element(1, &[s0, s1]);
        b.add_element(2, &[s0]);
        let inst = b.build().unwrap();
        let arrivals = inst.arrivals();
        assert_eq!(arrivals.len(), 2);
        assert!(!arrivals.is_empty());
        assert_eq!(arrivals.get(0).unwrap().load(), 2);
        assert!(arrivals.get(2).is_none());
        // Elements are numbered by position, including in sub-views.
        let tail = arrivals.slice(1..);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.get(0).unwrap().element(), ElementId(1));
        assert_eq!(tail.get(0).unwrap().capacity(), 2);
        // Iteration, both directions.
        let fwd: Vec<ElementId> = arrivals.iter().map(|a| a.element()).collect();
        assert_eq!(fwd, vec![ElementId(0), ElementId(1)]);
        let bwd: Vec<ElementId> = arrivals.iter().rev().map(|a| a.element()).collect();
        assert_eq!(bwd, vec![ElementId(1), ElementId(0)]);
        assert_eq!(arrivals.iter().len(), 2);
    }

    #[test]
    fn size_mismatch_rejected() {
        let (mut b, s0, _) = two_set_builder();
        b.add_element(1, &[s0]);
        // s0 declared size 2 but gets 1 element; s1 declared 1 but gets 0.
        let err = b.build().unwrap_err();
        assert!(matches!(err, Error::SizeMismatch { .. }));
    }

    #[test]
    fn unsized_sets_infer() {
        let mut b = InstanceBuilder::new();
        let s = b.add_set_unsized(1.0);
        b.add_element(2, &[s]);
        b.add_element(1, &[s]);
        let inst = b.build().unwrap();
        assert_eq!(inst.set(s).size(), 2);
        assert!(!inst.is_unit_capacity());
    }

    #[test]
    fn unsized_set_with_no_elements_rejected() {
        let mut b = InstanceBuilder::new();
        b.add_set_unsized(1.0);
        assert_eq!(b.build().unwrap_err(), Error::EmptySet(SetId(0)));
    }

    #[test]
    fn zero_declared_size_rejected() {
        let mut b = InstanceBuilder::new();
        b.add_set(1.0, 0);
        assert_eq!(b.build().unwrap_err(), Error::EmptySet(SetId(0)));
    }

    #[test]
    fn bad_weights_rejected() {
        for w in [-1.0, f64::NAN, f64::INFINITY] {
            let mut b = InstanceBuilder::new();
            b.add_set(w, 1);
            assert!(matches!(b.build().unwrap_err(), Error::BadWeight { .. }));
        }
    }

    #[test]
    fn zero_weight_allowed() {
        let mut b = InstanceBuilder::new();
        let s = b.add_set(0.0, 1);
        b.add_element(1, &[s]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn zero_capacity_rejected() {
        let (mut b, s0, s1) = two_set_builder();
        b.add_element(0, &[s0, s1]);
        b.add_element(1, &[s0]);
        assert_eq!(b.build().unwrap_err(), Error::ZeroCapacity(ElementId(0)));
    }

    #[test]
    fn duplicate_member_rejected() {
        let mut b = InstanceBuilder::new();
        let s = b.add_set(1.0, 2);
        b.add_element(1, &[s, s]);
        assert!(matches!(
            b.build().unwrap_err(),
            Error::DuplicateMember { .. }
        ));
    }

    #[test]
    fn unknown_set_rejected() {
        let mut b = InstanceBuilder::new();
        b.add_set(1.0, 1);
        b.add_element(1, &[SetId(5)]);
        assert!(matches!(b.build().unwrap_err(), Error::UnknownSet { .. }));
    }

    #[test]
    fn members_by_set_inverts_arrivals() {
        let (mut b, s0, s1) = two_set_builder();
        let e0 = b.add_element(1, &[s0, s1]);
        let e1 = b.add_element(1, &[s0]);
        let inst = b.build().unwrap();
        let by_set = inst.members_by_set();
        assert_eq!(by_set[s0.index()], vec![e0, e1]);
        assert_eq!(by_set[s1.index()], vec![e0]);
    }

    #[test]
    fn empty_instance_is_valid() {
        let inst = InstanceBuilder::new().build().unwrap();
        assert_eq!(inst.num_sets(), 0);
        assert_eq!(inst.num_elements(), 0);
        assert_eq!(inst.total_weight(), 0.0);
        assert!(inst.is_unit_capacity());
        assert!(inst.is_unweighted());
        assert!(inst.arrivals().iter().next().is_none());
    }

    #[test]
    fn shuffle_preserves_structure_and_renumbers() {
        let (mut b, s0, s1) = two_set_builder();
        b.add_element(1, &[s0, s1]);
        b.add_element(2, &[s0]);
        let inst = b.build().unwrap();
        let mut rng = rand::rngs::mock::StepRng::new(1, 7);
        let shuffled = inst.shuffle_arrivals(&mut rng);
        assert_eq!(shuffled.num_elements(), inst.num_elements());
        assert_eq!(shuffled.sets(), inst.sets());
        // Element ids are consecutive in the new order.
        for (i, a) in shuffled.arrivals().iter().enumerate() {
            assert_eq!(a.element(), ElementId(i as u32));
        }
        // The multiset of (capacity, members) is preserved.
        let mut orig: Vec<(u32, Vec<SetId>)> = inst
            .arrivals()
            .iter()
            .map(|a| (a.capacity(), a.members().to_vec()))
            .collect();
        let mut shuf: Vec<(u32, Vec<SetId>)> = shuffled
            .arrivals()
            .iter()
            .map(|a| (a.capacity(), a.members().to_vec()))
            .collect();
        orig.sort();
        shuf.sort();
        assert_eq!(orig, shuf);
    }

    /// The 0–1 principle: a compare–exchange network sorts every input
    /// iff it sorts every 0/1 input. Each length up to the cutoff runs
    /// all 2^n of them (65,536 at n = 16), which covers each width's
    /// network in full and every padded length below it.
    #[test]
    fn sort_members_sorts_every_binary_input_up_to_the_cutoff() {
        let mut v = Vec::with_capacity(SORT_NETWORK_MAX);
        for n in 0..=SORT_NETWORK_MAX {
            for bits in 0u32..1 << n {
                v.clear();
                v.extend((0..n).map(|i| SetId(bits >> i & 1)));
                sort_members(&mut v);
                let ones = bits.count_ones() as usize;
                assert!(
                    v[..n - ones].iter().all(|&s| s == SetId(0))
                        && v[n - ones..].iter().all(|&s| s == SetId(1)),
                    "n={n} bits={bits:#b}: {v:?}"
                );
            }
        }
    }

    mod sort_kernel {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]
            /// Against `sort_unstable` on every length through the
            /// fallback, with few distinct ids so duplicates are common,
            /// and ids at both ends of the range (`u32::MAX` is also the
            /// network's padding).
            #[test]
            fn sort_members_agrees_with_sort_unstable(
                raw in proptest::collection::vec((0u32..6, 0u32..2), 0..=SORT_NETWORK_MAX + 8)
            ) {
                let mut got: Vec<SetId> = raw
                    .iter()
                    .map(|&(v, top)| SetId(if top == 1 { u32::MAX - v } else { v }))
                    .collect();
                let mut want = got.clone();
                want.sort_unstable();
                sort_members(&mut got);
                prop_assert_eq!(got, want);
            }
        }
    }
}
