//! The online execution engine.
//!
//! Nine entry points:
//!
//! * [`run_source`] drives an [`OnlineAlgorithm`] over any
//!   [`ArrivalSource`] — the primary ingestion path. Sources stream
//!   arrivals one at a time (a fused generator, a packet trace, a
//!   materialized instance), so scenario size is bounded by the source's
//!   resident state, not by RAM holding a hypergraph. Its scratch twin
//!   [`run_source_with_scratch`] reuses a caller's
//!   [`batch::ReplayScratch`], and its logged twin [`run_source_logged`]
//!   also keeps every decision in a [`DecisionLog`].
//! * [`run`] replays a frozen [`Instance`]'s arrival sequence — the
//!   standard evaluation path. It is a thin wrapper over [`run_source`]
//!   via [`Instance::source`]: a materialized instance is just one
//!   [`ArrivalSource`] whose arrivals are zero-copy views into its CSR
//!   arena, so there is exactly one engine loop for both worlds.
//! * [`Session`] drives an algorithm *one arrival at a time* without a
//!   pre-built instance, which is what adaptive adversaries (Theorem 3)
//!   need: they decide the next element only after seeing the algorithm's
//!   previous choice. [`Session::drain_source`] feeds it from a source.
//! * [`run_source_pipelined`] replays **one** huge stream with
//!   intra-replay parallelism ([`parallel`]): a producer thread drains
//!   the source into a double-buffered chunk ring while the caller's
//!   thread runs the same [`Session::step`] loop, on a caller's
//!   [`batch::ReplayScratch`]. Bit-identical to [`run_source`].
//! * [`batch::ReplayPool::map`] fans a work-list across threads — the one
//!   way to run many replays at once. Each shard hands its own
//!   [`batch::ReplayScratch`] to the closure, which replays its item
//!   through [`run_source_with_scratch`] (or
//!   [`run_spec_with_scratch`](crate::spec::run_spec_with_scratch));
//!   outcomes are bit-identical to sequential replay because every path
//!   executes this module's [`Session`] logic.
//! * [`dispatch`] runs **data-driven job specs**
//!   ([`JobSpec`](crate::spec::JobSpec)) behind the backend-agnostic
//!   [`dispatch::Dispatcher`] contract: [`dispatch::SpecPool`] resolves
//!   specs on thread shards, [`dispatch::ProcessPool`] ships them to
//!   per-batch `osp-worker --listen` child processes over the framed
//!   wire protocol ([`wire`](crate::wire)) by running a
//!   [`dispatch::SocketPool`] over them. Outcomes stay bit-identical to
//!   sequential [`run_spec`](crate::spec::run_spec) at any lane count.
//! * [`dispatch::SocketPool`] extends the same contract **across the
//!   network**: a fleet of `osp-worker --listen` endpoints
//!   (TCP/Unix-domain) spoken to over the identical frames, with
//!   handshake, heartbeat, connect retry/backoff, read deadlines, and
//!   chunk re-dispatch to surviving workers when one dies mid-batch —
//!   the cluster entry point. Faults move jobs between workers but never
//!   change results, because outcomes are pure functions of the specs
//!   (pinned by `tests/socket_pool_conformance.rs`, including under
//!   injected [`FaultPlan`](crate::wire::FaultPlan) kills).
//! * [`serve`](crate::serve) hosts any [`dispatch::Dispatcher`] behind a
//!   long-running front door: [`ReplayService`](crate::serve::ReplayService)
//!   executes submitted batches from a bounded queue on a background
//!   executor with a content-addressed results cache, and
//!   [`ServeServer`](crate::serve::ServeServer) /
//!   [`ServeClient`](crate::serve::ServeClient) put the
//!   submit → status → fetch → cancel flow on the same framed wire the
//!   workers speak (`osp-serve --listen`) — the service entry point.
//!   Served outcomes stay bit-identical to sequential
//!   [`run_spec`](crate::spec::run_spec) whatever backend executes them
//!   (pinned by `tests/replay_service.rs`, including across a
//!   fault-injected fleet and cache resubmission).
//! * [`store`](crate::store) makes the service **crash-safe**: the
//!   results cache behind a [`ResultStore`](crate::store::ResultStore)
//!   seam — each outcome held once as shared canonical-JSON bytes,
//!   LRU-bounded in memory
//!   ([`MemStore`](crate::store::MemStore)), journaled to disk with
//!   checksummed records, torn-tail recovery, and snapshot compaction
//!   ([`JournalStore`](crate::store::JournalStore)). With
//!   `osp-serve --state-dir`, each batch's manifest is written at submit
//!   and the journal flushed at every chunk boundary, so a `kill -9`
//!   mid-batch resumes on restart recomputing only unjournaled jobs; and the [`dispatch::SocketPool`] fleet is
//!   *supervised* — excluded workers are probed with capped exponential
//!   backoff ([`dispatch::RejoinPolicy`]) and re-admitted when they come
//!   back; the serve wire's `fleet` verb reports the lanes and forces a
//!   probe ([`dispatch::FleetHandle`]). Pinned by
//!   `tests/crash_recovery.rs` against the real binaries.
//!
//! `begin()` is parallel too: `randPr` and `hashPr` build an O(m)
//! per-set priority table whose slot `i` is a pure function of
//! `(seed, i)` (§3.1's system-wide hash for `hashPr`; counter-based
//! SplitMix64 jump-ahead for `randPr`), so they shard disjoint index
//! ranges across the machine's cores through the same scoped-thread
//! splitter as [`batch::ReplayPool`]'s shards, and any shard count writes
//! exactly the same bytes. The arrival loop itself stays
//! sequential — decisions are order-dependent — so the only other
//! thread in one replay is the pipeline's producer, and every golden
//! outcome stays bit-identical.
//!
//! All paths enforce the model's rules (§2): each decision must pick at
//! most `b(u)` distinct sets from `C(u)`. A set is **completed** iff it was
//! chosen for every one of its elements; the [`Outcome`] records the
//! completed sets, the benefit, when each non-surviving set died, and a
//! rolling 128-bit [`DecisionDigest`] of the decision stream together with
//! its arrival and assignment counts. An outcome is therefore O(m) however
//! long the stream is: a 10⁸-arrival replay crosses a process, socket,
//! serve or journal boundary as easily as a 10³-arrival one. The digest is
//! the bit-identity witness; the full per-arrival record is opt-in
//! ([`run_source_logged`] fills a caller's [`DecisionLog`], whose
//! [`digest`](DecisionLog::digest) equals the outcome's).
//!
//! The per-arrival hot path is allocation-free: algorithms write decisions
//! into a recycled buffer ([`OnlineAlgorithm::decide_into`]), the engine
//! validates in another recycled buffer and folds the decision into the
//! digest in place — the buffers are handed from job to job via
//! [`batch::ReplayScratch`], so a warm shard performs zero heap
//! allocations per arrival.

pub mod batch;
pub mod dispatch;
pub mod parallel;

use crate::algorithm::{EngineView, OnlineAlgorithm};
use crate::error::Error;
use crate::ids::{ElementId, SetId};
use crate::instance::{Arrival, Instance, SetMeta};
use crate::source::ArrivalSource;

pub use batch::{derive_seed, ReplayPool, ReplayScratch};
pub use parallel::run_source_pipelined;

/// Lane A's starting state: the FNV-1a 64-bit offset basis.
const DIGEST_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Lane B's starting state: the second basis of
/// [`job_digest`](crate::serve::job_digest).
const DIGEST_BASIS_B: u64 = 0x6c62_272e_07bb_0142;
/// Lane A's multiplier: the FNV-1a 64-bit prime.
const DIGEST_PRIME_A: u64 = 0x0000_0100_0000_01b3;
/// Lane B's multiplier: the (odd) SplitMix64 golden gamma, so the two
/// lanes spread each word differently.
const DIGEST_PRIME_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// A rolling 128-bit digest of a decision stream — the bit-identity
/// witness an [`Outcome`] carries instead of the stream itself.
///
/// Two 64-bit lanes, each running FNV-1a's xor-then-multiply step on
/// whole words (lane A with the FNV-1a constants, lane B with its own
/// basis and multiplier). Every 64-bit word `w` fed in updates both
/// (arithmetic mod 2⁶⁴):
///
/// ```text
/// a ← (a ⊕ w) · 0x0000_0100_0000_01b3     a₀ = 0xcbf2_9ce4_8422_2325
/// b ← (b ⊕ w) · 0x9e37_79b9_7f4a_7c15     b₀ = 0x6c62_272e_07bb_0142
/// ```
///
/// Each accepted decision ([`fold`](Self::fold)) feeds its length, then
/// every chosen [`SetId`] (zero-extended) in the order the algorithm
/// emitted them. The length word keeps the encoding unambiguous
/// (`[s], []` and `[], [s]` fold differently), and each step is a
/// bijection of the lane state, so two equally long streams that differ
/// in one word never collide. It is a witness, not a cryptographic hash.
///
/// Rendered (and serialized) as 32 lowercase hex digits, lane A first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecisionDigest {
    a: u64,
    b: u64,
}

impl Default for DecisionDigest {
    fn default() -> Self {
        DecisionDigest::new()
    }
}

impl DecisionDigest {
    /// The digest of the empty stream.
    pub const fn new() -> Self {
        DecisionDigest {
            a: DIGEST_BASIS_A,
            b: DIGEST_BASIS_B,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(DIGEST_PRIME_A);
        self.b = (self.b ^ w).wrapping_mul(DIGEST_PRIME_B);
    }

    /// Folds one decision in: its length, then each chosen set.
    #[inline]
    pub fn fold(&mut self, decision: &[SetId]) {
        self.word(decision.len() as u64);
        for s in decision {
            self.word(u64::from(s.0));
        }
    }
}

impl std::fmt::Display for DecisionDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.a, self.b)
    }
}

impl std::str::FromStr for DecisionDigest {
    type Err = Error;

    /// Parses the 32-hex-digit rendering.
    fn from_str(hex: &str) -> Result<Self, Error> {
        if hex.len() != 32 || !hex.bytes().all(|c| c.is_ascii_hexdigit()) {
            return Err(Error::Protocol(format!(
                "decision digest must be 32 hex digits, got {hex:?}"
            )));
        }
        let lane = |digits: &str| u64::from_str_radix(digits, 16).expect("16 hex digits fit");
        Ok(DecisionDigest {
            a: lane(&hex[..16]),
            b: lane(&hex[16..]),
        })
    }
}

impl serde::Serialize for DecisionDigest {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for DecisionDigest {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(value)?
            .parse()
            .map_err(|e: Error| serde::Error::msg(e.to_string()))
    }

    fn read_json(reader: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        String::read_json(reader)?
            .parse()
            .map_err(|e: Error| serde::Error::msg(e.to_string()))
    }
}

/// A flat record of every decision of a run: one CSR arena (offsets +
/// data) instead of a `Vec<SetId>` per arrival, so logging a decision is
/// two appends into warm buffers and reading the log back walks one
/// contiguous allocation.
///
/// Outcomes do not carry it — it grows with the stream. A run fills one
/// only when asked ([`run_source_logged`]); [`digest`](Self::digest)
/// checks it against the run's [`Outcome::digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionLog {
    /// `offsets.len() == len() + 1`; arrival `i`'s decision is
    /// `data[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    data: Vec<SetId>,
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog {
            offsets: vec![0],
            data: Vec::new(),
        }
    }
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        DecisionLog::default()
    }

    /// Number of decisions recorded (= arrivals replayed).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decision taken for arrival `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[SetId]> {
        if i >= self.len() {
            return None;
        }
        Some(&self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Total number of `(element, set)` assignments across all decisions.
    pub fn total_assignments(&self) -> usize {
        self.data.len()
    }

    /// Iterates the decisions in arrival order.
    pub fn iter(&self) -> DecisionLogIter<'_> {
        DecisionLogIter { log: self, next: 0 }
    }

    /// The [`DecisionDigest`] of the recorded stream — equal to the
    /// [`Outcome::digest`] of the run that filled the log.
    pub fn digest(&self) -> DecisionDigest {
        let mut digest = DecisionDigest::new();
        for decision in self {
            digest.fold(decision);
        }
        digest
    }

    /// Appends one decision.
    fn push(&mut self, decision: &[SetId]) {
        self.data.extend_from_slice(decision);
        self.offsets.push(self.data.len() as u32);
    }

    /// Clears the log, keeping both buffers' capacity.
    fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.data.clear();
    }

    /// Reassembles a log from its raw CSR parts (the deserialization
    /// entry point).
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] unless `offsets` is non-empty, starts at 0, is
    /// non-decreasing, and ends exactly at `data.len()` — the invariants
    /// every engine-produced log holds.
    pub fn from_parts(offsets: Vec<u32>, data: Vec<SetId>) -> Result<DecisionLog, Error> {
        if offsets.first() != Some(&0) {
            return Err(Error::Protocol(
                "decision log offsets must start at 0".into(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Protocol(
                "decision log offsets must be non-decreasing".into(),
            ));
        }
        if offsets.last().copied() != Some(data.len() as u32) || data.len() > u32::MAX as usize {
            return Err(Error::Protocol(
                "decision log offsets must end at the data length".into(),
            ));
        }
        Ok(DecisionLog { offsets, data })
    }
}

impl serde::Serialize for DecisionLog {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("offsets".to_string(), self.offsets.to_value()),
            ("data".to_string(), self.data.to_value()),
        ])
    }
}

impl serde::Deserialize for DecisionLog {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let offsets = Vec::<u32>::from_value(serde::get_field(value, "offsets")?)?;
        let data = Vec::<SetId>::from_value(serde::get_field(value, "data")?)?;
        DecisionLog::from_parts(offsets, data).map_err(|e| serde::Error::msg(e.to_string()))
    }

    fn read_json(reader: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut offsets, mut data) = (None, None);
        reader.read_fields(&["offsets", "data"], |r, i| {
            match i {
                0 => offsets = Some(Vec::<u32>::read_json(r)?),
                _ => data = Some(Vec::<SetId>::read_json(r)?),
            }
            Ok(())
        })?;
        let offsets = serde::required(offsets, "offsets")?;
        let data = serde::required(data, "data")?;
        DecisionLog::from_parts(offsets, data).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

impl<'a> IntoIterator for &'a DecisionLog {
    type Item = &'a [SetId];
    type IntoIter = DecisionLogIter<'a>;

    fn into_iter(self) -> DecisionLogIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`DecisionLog`]'s per-arrival decision slices.
#[derive(Debug, Clone)]
pub struct DecisionLogIter<'a> {
    log: &'a DecisionLog,
    next: usize,
}

impl<'a> Iterator for DecisionLogIter<'a> {
    type Item = &'a [SetId];

    fn next(&mut self) -> Option<&'a [SetId]> {
        let d = self.log.get(self.next)?;
        self.next += 1;
        Some(d)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.log.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DecisionLogIter<'_> {}
impl std::iter::FusedIterator for DecisionLogIter<'_> {}

/// The result of one online run: the completed sets and their weight
/// (`w(alg)`, §2), when each other set died, and a [`DecisionDigest`] of
/// the decision stream with its arrival and assignment counts. Its size is
/// O(m), independent of the stream length.
///
/// Equality is bit-identity: the same completed sets, benefit bits, death
/// records, counts and digest.
#[derive(Debug, Clone)]
pub struct Outcome {
    completed: Vec<SetId>,
    benefit: f64,
    digest: DecisionDigest,
    arrivals: u64,
    assignments: u64,
    died_at: Vec<Option<ElementId>>,
}

impl PartialEq for Outcome {
    fn eq(&self, other: &Outcome) -> bool {
        self.digest == other.digest
            && self.arrivals == other.arrivals
            && self.assignments == other.assignments
            && self.benefit.to_bits() == other.benefit.to_bits()
            && self.completed == other.completed
            && self.died_at == other.died_at
    }
}

impl Outcome {
    /// The sets the algorithm completed, ascending by id.
    pub fn completed(&self) -> &[SetId] {
        &self.completed
    }

    /// Total weight of completed sets — `w(alg)` in the paper.
    pub fn benefit(&self) -> f64 {
        self.benefit
    }

    /// The [`DecisionDigest`] of every decision taken, in arrival order.
    pub fn digest(&self) -> DecisionDigest {
        self.digest
    }

    /// Number of arrivals replayed (= decisions taken).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total `(element, set)` assignments across all decisions.
    pub fn assignments(&self) -> u64 {
        self.assignments
    }

    /// For each set, the element at which it died (its first element *not*
    /// assigned to it), or `None` if it never missed an element.
    ///
    /// Querying a [`SetId`] that does not belong to the replayed instance
    /// (e.g. an id minted for a different, larger instance) returns `None`
    /// rather than panicking.
    pub fn died_at(&self, set: SetId) -> Option<ElementId> {
        self.died_at.get(set.index()).copied().flatten()
    }

    /// Whether the given set was completed.
    pub fn is_completed(&self, set: SetId) -> bool {
        self.completed.binary_search(&set).is_ok()
    }

    /// Reassembles an outcome from its parts — the deserialization entry
    /// point for outcomes that crossed a process boundary
    /// ([`wire`](crate::wire)). `died_at` is indexed by set, in set-id
    /// order.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if `completed` is not strictly ascending, names
    /// a set outside `died_at` or one with a death record, `benefit` is
    /// not finite, or an empty stream claims assignments (the structural
    /// invariants every engine-produced outcome holds; deeper consistency
    /// would need the instance, which by design is not on the wire).
    pub fn from_parts(
        completed: Vec<SetId>,
        benefit: f64,
        digest: DecisionDigest,
        arrivals: u64,
        assignments: u64,
        died_at: Vec<Option<ElementId>>,
    ) -> Result<Outcome, Error> {
        if completed.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Protocol(
                "completed sets must be strictly ascending".into(),
            ));
        }
        if let Some(set) = completed
            .iter()
            .find(|s| died_at.get(s.index()).is_none_or(Option::is_some))
        {
            return Err(Error::Protocol(format!(
                "completed set {} is outside the {} sets or has a death record",
                set.0,
                died_at.len()
            )));
        }
        if !benefit.is_finite() {
            return Err(Error::Protocol("benefit must be finite".into()));
        }
        if arrivals == 0 && assignments != 0 {
            return Err(Error::Protocol(
                "an empty decision stream has no assignments".into(),
            ));
        }
        Ok(Outcome {
            completed,
            benefit,
            digest,
            arrivals,
            assignments,
            died_at,
        })
    }
}

impl serde::Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("completed".to_string(), self.completed.to_value()),
            ("benefit".to_string(), self.benefit.to_value()),
            ("digest".to_string(), self.digest.to_value()),
            ("arrivals".to_string(), self.arrivals.to_value()),
            ("assignments".to_string(), self.assignments.to_value()),
            ("died_at".to_string(), self.died_at.to_value()),
        ])
    }
}

impl serde::Deserialize for Outcome {
    /// Reads the current shape, and also a pre-v4 outcome that carries its
    /// full `decisions` log instead of a digest: the log is folded into the
    /// digest and counts, so results journaled by an older build still
    /// answer from cache.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let completed = Vec::<SetId>::from_value(serde::get_field(value, "completed")?)?;
        let benefit = f64::from_value(serde::get_field(value, "benefit")?)?;
        let (digest, arrivals, assignments) = match serde::get_field(value, "digest") {
            Ok(digest) => (
                DecisionDigest::from_value(digest)?,
                u64::from_value(serde::get_field(value, "arrivals")?)?,
                u64::from_value(serde::get_field(value, "assignments")?)?,
            ),
            Err(missing) => {
                let Ok(log) = serde::get_field(value, "decisions") else {
                    return Err(missing);
                };
                let log = DecisionLog::from_value(log)?;
                (
                    log.digest(),
                    log.len() as u64,
                    log.total_assignments() as u64,
                )
            }
        };
        let died_at = Vec::<Option<ElementId>>::from_value(serde::get_field(value, "died_at")?)?;
        Outcome::from_parts(completed, benefit, digest, arrivals, assignments, died_at)
            .map_err(|e| serde::Error::msg(e.to_string()))
    }

    /// Reads the same shapes as
    /// [`from_value`](serde::Deserialize::from_value) straight from the
    /// bytes. The counts are used only with a digest and the log only
    /// without one, so their own failures wait until then.
    fn read_json(reader: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut completed, mut benefit, mut digest, mut died_at) = (None, None, None, None);
        let (mut arrivals, mut assignments, mut log) = (None, None, None);
        reader.read_fields(
            &[
                "completed",
                "benefit",
                "digest",
                "arrivals",
                "assignments",
                "decisions",
                "died_at",
            ],
            |r, i| {
                match i {
                    0 => completed = Some(Vec::<SetId>::read_json(r)?),
                    1 => benefit = Some(f64::read_json(r)?),
                    2 => digest = Some(DecisionDigest::read_json(r)?),
                    3 => arrivals = Some(r.read_or_skip(u64::read_json)?),
                    4 => assignments = Some(r.read_or_skip(u64::read_json)?),
                    5 => log = Some(r.read_or_skip(DecisionLog::read_json)?),
                    _ => died_at = Some(Vec::<Option<ElementId>>::read_json(r)?),
                }
                Ok(())
            },
        )?;
        let completed = serde::required(completed, "completed")?;
        let benefit = serde::required(benefit, "benefit")?;
        let (digest, arrivals, assignments) = match (digest, log) {
            (Some(digest), _) => (
                digest,
                serde::required(arrivals, "arrivals")??,
                serde::required(assignments, "assignments")??,
            ),
            (None, Some(log)) => {
                let log = log?;
                (
                    log.digest(),
                    log.len() as u64,
                    log.total_assignments() as u64,
                )
            }
            (None, None) => return Err(serde::Error::missing("digest")),
        };
        let died_at = serde::required(died_at, "died_at")?;
        Outcome::from_parts(completed, benefit, digest, arrivals, assignments, died_at)
            .map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// An incremental online run: feed arrivals one at a time, inspect the
/// algorithm's choices between them.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
/// use osp_core::engine::Session;
///
/// let sets = vec![];
/// let mut alg = RandPr::from_seed(0);
/// let session = Session::new(&sets, &mut alg);
/// let outcome = session.finish();
/// assert_eq!(outcome.benefit(), 0.0);
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    sets: &'a [SetMeta],
    assigned: Vec<u32>,
    alive: Vec<bool>,
    died_at: Vec<Option<ElementId>>,
    digest: DecisionDigest,
    arrivals: u64,
    assignments: u64,
    /// The opt-in full record of the stream ([`run_source_logged`]).
    log: Option<&'a mut DecisionLog>,
    /// The algorithm's decision target, reused across arrivals.
    decision_buf: Vec<SetId>,
    /// Validation scratch reused across arrivals (sorted decision copy),
    /// so the per-arrival hot path allocates nothing of its own.
    sorted: Vec<SetId>,
}

impl<'a> Session<'a> {
    /// Starts a session over the declared sets and announces them to the
    /// algorithm (calls [`OnlineAlgorithm::begin`]).
    pub fn new<A: OnlineAlgorithm + ?Sized>(sets: &'a [SetMeta], algorithm: &mut A) -> Self {
        let mut scratch = ReplayScratch::new();
        Session::with_scratch(sets, algorithm, &mut scratch)
    }

    /// Like [`new`](Self::new), but recycles the buffers held by `scratch`
    /// instead of allocating fresh ones — the batch replay path calls this
    /// once per job so consecutive replays on a shard reuse one set of
    /// buffers. Return them with [`finish_into`](Self::finish_into).
    pub fn with_scratch<A: OnlineAlgorithm + ?Sized>(
        sets: &'a [SetMeta],
        algorithm: &mut A,
        scratch: &mut ReplayScratch,
    ) -> Self {
        algorithm.begin(sets);
        let m = sets.len();
        let mut assigned = std::mem::take(&mut scratch.assigned);
        assigned.clear();
        assigned.resize(m, 0);
        let mut alive = std::mem::take(&mut scratch.alive);
        alive.clear();
        alive.resize(m, true);
        let mut died_at = std::mem::take(&mut scratch.died_at);
        died_at.clear();
        died_at.resize(m, None);
        let mut decision_buf = std::mem::take(&mut scratch.decision_buf);
        decision_buf.clear();
        let mut sorted = std::mem::take(&mut scratch.sorted);
        sorted.clear();
        Session {
            sets,
            assigned,
            alive,
            died_at,
            digest: DecisionDigest::new(),
            arrivals: 0,
            assignments: 0,
            log: None,
            decision_buf,
            sorted,
        }
    }

    /// Number of arrivals processed so far.
    pub fn arrivals_seen(&self) -> usize {
        self.arrivals as usize
    }

    /// Whether `set` is still completable (chosen for every element so far).
    pub fn is_active(&self, set: SetId) -> bool {
        self.alive[set.index()]
    }

    /// How many elements have been assigned to `set`.
    pub fn assigned(&self, set: SetId) -> u32 {
        self.assigned[set.index()]
    }

    /// Number of currently active sets.
    pub fn active_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Iterates the ids of all currently active sets, ascending, without
    /// materializing them.
    pub fn active_sets_iter(&self) -> impl Iterator<Item = SetId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(i, &alive)| alive.then_some(SetId(i as u32)))
    }

    /// A read-only [`EngineView`] of the current session state — what an
    /// algorithm would see if asked to decide right now. Useful when the
    /// decision is computed outside [`offer`](Self::offer) (e.g. by a
    /// remote replica in a distributed setup) and applied via
    /// [`apply_external`](Self::apply_external).
    pub fn view(&self) -> EngineView<'_> {
        EngineView::new(self.sets, &self.assigned, &self.alive)
    }

    /// Offers the next arrival to the algorithm, validates its decision,
    /// applies it, and returns a copy of the decision.
    ///
    /// # Errors
    ///
    /// Returns an error if the decision violates the model: a set not
    /// containing the element, a duplicated set, or more than `b(u)` sets.
    /// The session state is unchanged on error.
    pub fn offer<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        arrival: &Arrival<'_>,
        algorithm: &mut A,
    ) -> Result<Vec<SetId>, Error> {
        self.step(arrival, algorithm)?;
        Ok(self.decision_buf.clone())
    }

    /// Like [`offer`](Self::offer), but does not echo a copy of the
    /// decision back — the replay paths ([`run`], [`batch`]) use this so
    /// a warm session performs zero heap allocations per arrival: the
    /// algorithm writes into the session's recycled decision buffer
    /// ([`OnlineAlgorithm::decide_into`]) and the decision is folded into
    /// the outcome's [`DecisionDigest`].
    ///
    /// # Errors
    ///
    /// Same contract as [`offer`](Self::offer); the session state is
    /// unchanged on error.
    pub fn step<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        arrival: &Arrival<'_>,
        algorithm: &mut A,
    ) -> Result<(), Error> {
        // Take the buffer so the algorithm can borrow a view of `self`
        // while writing into it (`mem::take` on a Vec never allocates).
        let mut buf = std::mem::take(&mut self.decision_buf);
        buf.clear();
        {
            let view = EngineView::new(self.sets, &self.assigned, &self.alive);
            algorithm.decide_into(arrival, &view, &mut buf);
        }
        let verdict = self.validate(arrival, &buf);
        if verdict.is_ok() {
            self.apply_validated(arrival, &buf);
        }
        self.decision_buf = buf;
        verdict
    }

    /// Feeds every remaining arrival of `source` through
    /// [`step`](Self::step) — the source-generic way to drive a session to
    /// the end of a stream. The session must have been created over the
    /// same set metadata the source declares.
    ///
    /// # Errors
    ///
    /// Returns the first invalid decision ([`step`](Self::step)'s
    /// contract); arrivals already applied stay applied, and the source is
    /// left positioned after the offending arrival.
    pub fn drain_source<S, A>(&mut self, source: &mut S, algorithm: &mut A) -> Result<(), Error>
    where
        S: ArrivalSource + ?Sized,
        A: OnlineAlgorithm + ?Sized,
    {
        while let Some(arrival) = source.next_arrival() {
            self.step(&arrival, algorithm)?;
        }
        Ok(())
    }

    /// Validates and applies a decision computed outside this session
    /// (e.g. by a per-hop replica in the distributed implementation).
    /// Returns the decision back on success.
    ///
    /// # Errors
    ///
    /// Same contract as [`offer`](Self::offer); the session state is
    /// unchanged on error.
    pub fn apply_external(
        &mut self,
        arrival: &Arrival<'_>,
        decision: Vec<SetId>,
    ) -> Result<Vec<SetId>, Error> {
        self.validate(arrival, &decision)?;
        self.apply_validated(arrival, &decision);
        Ok(decision)
    }

    /// Checks the model's rules without touching session state. On success
    /// `self.sorted` holds the decision sorted ascending.
    fn validate(&mut self, arrival: &Arrival<'_>, decision: &[SetId]) -> Result<(), Error> {
        if decision.len() > arrival.capacity() as usize {
            return Err(Error::DecisionOverCapacity {
                element: arrival.element(),
                capacity: arrival.capacity(),
                chosen: decision.len(),
            });
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(decision);
        self.sorted.sort_unstable();
        for w in self.sorted.windows(2) {
            if w[0] == w[1] {
                return Err(Error::DecisionDuplicate {
                    element: arrival.element(),
                    set: w[0],
                });
            }
        }
        for &s in &self.sorted {
            if !arrival.contains(s) {
                return Err(Error::DecisionNotMember {
                    element: arrival.element(),
                    set: s,
                });
            }
        }
        Ok(())
    }

    /// Applies a decision that [`validate`](Self::validate) just accepted
    /// (`self.sorted` still holds its sorted copy).
    fn apply_validated(&mut self, arrival: &Arrival<'_>, decision: &[SetId]) {
        // Apply: chosen member sets advance; unchosen member sets die.
        for &s in arrival.members() {
            if self.sorted.binary_search(&s).is_ok() {
                self.assigned[s.index()] += 1;
            } else if self.alive[s.index()] {
                self.alive[s.index()] = false;
                self.died_at[s.index()] = Some(arrival.element());
            }
        }
        self.digest.fold(decision);
        self.arrivals += 1;
        self.assignments += decision.len() as u64;
        if let Some(log) = self.log.as_deref_mut() {
            log.push(decision);
        }
    }

    /// Ends the session: a set is completed iff it is alive *and* has
    /// received its full declared size.
    pub fn finish(self) -> Outcome {
        self.finish_impl(None)
    }

    /// Like [`finish`](Self::finish), but hands the session's reusable
    /// buffers back to `scratch` so the next
    /// [`with_scratch`](Self::with_scratch) session can recycle them. The
    /// returned [`Outcome`] owns right-sized copies of the completed sets
    /// and death records (one exact-size allocation each, per job — never
    /// per arrival).
    pub fn finish_into(self, scratch: &mut ReplayScratch) -> Outcome {
        self.finish_impl(Some(scratch))
    }

    fn finish_impl(mut self, scratch: Option<&mut ReplayScratch>) -> Outcome {
        let completed: Vec<SetId> = (0..self.sets.len())
            .filter(|&i| self.alive[i] && self.assigned[i] == self.sets[i].size())
            .map(|i| SetId(i as u32))
            .collect();
        let benefit = completed
            .iter()
            .map(|&s| self.sets[s.index()].weight())
            .sum();
        let died_at = match scratch {
            Some(scratch) => {
                let died_at = self.died_at.as_slice().to_vec();
                scratch.assigned = std::mem::take(&mut self.assigned);
                scratch.alive = std::mem::take(&mut self.alive);
                scratch.died_at = std::mem::take(&mut self.died_at);
                scratch.decision_buf = std::mem::take(&mut self.decision_buf);
                scratch.sorted = std::mem::take(&mut self.sorted);
                died_at
            }
            None => self.died_at,
        };
        Outcome {
            completed,
            benefit,
            digest: self.digest,
            arrivals: self.arrivals,
            assignments: self.assignments,
            died_at,
        }
    }
}

/// Runs `algorithm` over `instance` and returns the [`Outcome`].
///
/// # Errors
///
/// Returns an error if the algorithm emits an invalid decision: a set not
/// containing the element, a duplicated set, or more than `b(u)` sets.
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
/// let outcome = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run<A: OnlineAlgorithm + ?Sized>(
    instance: &Instance,
    algorithm: &mut A,
) -> Result<Outcome, Error> {
    run_source(&mut instance.source(), algorithm)
}

/// Runs `algorithm` over every arrival `source` yields and returns the
/// [`Outcome`] — the streaming twin of [`run`]. The source's set metadata
/// is announced to the algorithm up front; arrivals are pulled one at a
/// time and never retained, so memory is bounded by the source's resident
/// state (O(m) for the fused generator sources), not the stream length.
///
/// # Errors
///
/// Returns an error if the algorithm emits an invalid decision: a set not
/// containing the element, a duplicated set, or more than `b(u)` sets.
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
/// // A materialized instance is just one kind of source.
/// let outcome = run_source(&mut inst.source(), &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run_source<S, A>(source: &mut S, algorithm: &mut A) -> Result<Outcome, Error>
where
    S: ArrivalSource + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    let mut scratch = ReplayScratch::new();
    run_source_with_scratch(source, algorithm, &mut scratch)
}

/// [`run_source`] with caller-provided [`ReplayScratch`]. The set metadata
/// is copied into a scratch-recycled buffer (one warm `memcpy` of `m`
/// entries per job — never per arrival) so the source stays free for
/// mutable pulls while the [`Session`] borrows the metas.
///
/// # Errors
///
/// Same contract as [`run_source`].
pub fn run_source_with_scratch<S, A>(
    source: &mut S,
    algorithm: &mut A,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    run_source_logged(source, algorithm, scratch, None)
}

/// [`run_source_with_scratch`] with the opt-in decision record: a `Some`
/// log is cleared, then receives every accepted decision in arrival order,
/// so `log.digest() == outcome.digest()`. This is the one path that keeps
/// the O(n) stream — for tests, per-arrival analyses and comparisons on
/// small instances. `None` is exactly [`run_source_with_scratch`].
///
/// # Errors
///
/// Same contract as [`run_source`]; the log then holds the decisions
/// accepted before the invalid one.
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
/// let mut log = DecisionLog::new();
/// let mut alg = GreedyOnline::new(TieBreak::ByWeight);
/// let outcome =
///     run_source_logged(&mut inst.source(), &mut alg, &mut ReplayScratch::new(), Some(&mut log))?;
/// assert_eq!(log.get(0), Some(&[s][..]));
/// assert_eq!(log.digest(), outcome.digest());
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run_source_logged<S, A>(
    source: &mut S,
    algorithm: &mut A,
    scratch: &mut ReplayScratch,
    log: Option<&mut DecisionLog>,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    let mut metas = std::mem::take(&mut scratch.set_metas);
    metas.clear();
    metas.extend_from_slice(source.sets());
    let mut session = Session::with_scratch(&metas, algorithm, scratch);
    if let Some(log) = log {
        log.clear();
        session.log = Some(log);
    }
    let outcome = match session.drain_source(source, algorithm) {
        Ok(()) => Ok(session.finish_into(scratch)),
        Err(e) => Err(e),
    };
    scratch.set_metas = metas;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Arrival, InstanceBuilder, SetMeta};

    /// Scripted algorithm replaying canned decisions (tests only).
    struct Scripted {
        script: Vec<Vec<SetId>>,
        step: usize,
    }

    impl Scripted {
        fn new(script: Vec<Vec<SetId>>) -> Self {
            Scripted { script, step: 0 }
        }
    }

    impl OnlineAlgorithm for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn begin(&mut self, _sets: &[SetMeta]) {
            self.step = 0;
        }

        fn decide_into(
            &mut self,
            _arrival: &Arrival<'_>,
            _view: &EngineView<'_>,
            out: &mut Vec<SetId>,
        ) {
            out.extend_from_slice(&self.script[self.step]);
            self.step += 1;
        }
    }

    fn three_set_instance() -> (crate::Instance, [SetId; 3]) {
        // s0 = {e0, e1}, s1 = {e0, e2}, s2 = {e2}
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        let s1 = b.add_set(5.0, 2);
        let s2 = b.add_set(2.0, 1);
        b.add_element(1, &[s0, s1]);
        b.add_element(1, &[s0]);
        b.add_element(1, &[s1, s2]);
        (b.build().unwrap(), [s0, s1, s2])
    }

    #[test]
    fn completion_requires_every_element() {
        let (inst, [s0, s1, s2]) = three_set_instance();
        // Give e0 to s0, e1 to s0, e2 to s2: s0 and s2 complete.
        let mut alg = Scripted::new(vec![vec![s0], vec![s0], vec![s2]]);
        let out = run(&inst, &mut alg).unwrap();
        assert_eq!(out.completed(), &[s0, s2]);
        assert_eq!(out.benefit(), 3.0);
        assert!(out.is_completed(s0));
        assert!(!out.is_completed(s1));
        assert_eq!(out.died_at(s1), Some(ElementId(0)));
        assert_eq!(out.died_at(s0), None);
    }

    #[test]
    fn losing_any_element_kills_the_set() {
        let (inst, [s0, s1, _s2]) = three_set_instance();
        // Give e0 to s1, then abandon it at e2.
        let mut alg = Scripted::new(vec![vec![s1], vec![s0], vec![]]);
        let out = run(&inst, &mut alg).unwrap();
        // s0 lost e0, s1 lost e2, s2 lost e2: nothing completes.
        assert!(out.completed().is_empty());
        assert_eq!(out.benefit(), 0.0);
        assert_eq!(out.died_at(s1), Some(ElementId(2)));
    }

    #[test]
    fn empty_decision_is_legal() {
        let (inst, _) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![], vec![], vec![]]);
        let out = run(&inst, &mut alg).unwrap();
        assert!(out.completed().is_empty());
        assert_eq!(out.arrivals(), 3);
        assert_eq!(out.assignments(), 0);
    }

    /// A logged run of `script` over `inst`: the outcome and its log.
    fn logged(inst: &Instance, script: Vec<Vec<SetId>>) -> (Outcome, DecisionLog) {
        let mut log = DecisionLog::new();
        let out = run_source_logged(
            &mut inst.source(),
            &mut Scripted::new(script),
            &mut ReplayScratch::new(),
            Some(&mut log),
        )
        .unwrap();
        (out, log)
    }

    #[test]
    fn decision_log_records_per_arrival_slices() {
        let (inst, [s0, _, s2]) = three_set_instance();
        let (out, log) = logged(&inst, vec![vec![s0], vec![], vec![s2]]);
        let log = &log;
        assert_eq!(log.digest(), out.digest());
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.get(0), Some(&[s0][..]));
        assert_eq!(log.get(1), Some(&[][..]));
        assert_eq!(log.get(2), Some(&[s2][..]));
        assert_eq!(log.get(3), None);
        assert_eq!(log.total_assignments(), 2);
        let collected: Vec<&[SetId]> = log.iter().collect();
        assert_eq!(collected, vec![&[s0][..], &[][..], &[s2][..]]);
        // IntoIterator for &DecisionLog drives plain `for` loops.
        let mut count = 0;
        for d in log {
            count += d.len();
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn capacity_two_allows_two_assignments() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(2, &[s0, s1]);
        let inst = b.build().unwrap();
        let mut alg = Scripted::new(vec![vec![s0, s1]]);
        let out = run(&inst, &mut alg).unwrap();
        assert_eq!(out.completed(), &[s0, s1]);
        assert_eq!(out.benefit(), 2.0);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(1, &[s0, s1]);
        let inst = b.build().unwrap();
        let mut alg = Scripted::new(vec![vec![s0, s1]]);
        assert!(matches!(
            run(&inst, &mut alg).unwrap_err(),
            Error::DecisionOverCapacity { .. }
        ));
    }

    #[test]
    fn non_member_choice_rejected() {
        let (inst, [_, _, s2]) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![s2], vec![], vec![]]);
        assert!(matches!(
            run(&inst, &mut alg).unwrap_err(),
            Error::DecisionNotMember { .. }
        ));
    }

    #[test]
    fn duplicate_choice_rejected() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(2, &[s0, s1]);
        let inst = b.build().unwrap();
        let mut alg = Scripted::new(vec![vec![s0, s0]]);
        assert!(matches!(
            run(&inst, &mut alg).unwrap_err(),
            Error::DecisionDuplicate { .. }
        ));
    }

    #[test]
    fn view_reports_progress_and_death() {
        struct Checker {
            seen: Vec<(u32, bool)>,
        }
        impl OnlineAlgorithm for Checker {
            fn name(&self) -> String {
                "checker".into()
            }
            fn begin(&mut self, _s: &[SetMeta]) {}
            fn decide_into(&mut self, a: &Arrival<'_>, v: &EngineView<'_>, _out: &mut Vec<SetId>) {
                let s0 = SetId(0);
                self.seen.push((v.assigned(s0), v.is_active(s0)));
                // Always refuse everything.
                let _ = a;
            }
        }
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        b.add_element(1, &[s0]);
        b.add_element(1, &[s0]);
        let inst = b.build().unwrap();
        let mut alg = Checker { seen: vec![] };
        let _ = run(&inst, &mut alg).unwrap();
        // Before e0: 0 assigned, active. Before e1: still 0 assigned, dead.
        assert_eq!(alg.seen, vec![(0, true), (0, false)]);
    }

    #[test]
    fn outcome_on_empty_instance() {
        let inst = InstanceBuilder::new().build().unwrap();
        let mut alg = Scripted::new(vec![]);
        let out = run(&inst, &mut alg).unwrap();
        assert!(out.completed().is_empty());
        assert_eq!(out.benefit(), 0.0);
    }

    #[test]
    fn session_supports_adaptive_use() {
        // Adversary watches the first decision and reacts.
        let metas: Vec<SetMeta> = {
            let mut b = InstanceBuilder::new();
            let s0 = b.add_set(1.0, 1);
            let s1 = b.add_set(1.0, 2);
            b.add_element(1, &[s0, s1]);
            b.add_element(1, &[s1]);
            b.build().unwrap().sets().to_vec()
        };
        let mut alg = Scripted::new(vec![vec![SetId(1)], vec![SetId(1)]]);
        let mut session = Session::new(&metas, &mut alg);
        let a0 = Arrival::new(ElementId(0), 1, &[SetId(0), SetId(1)]);
        let d0 = session.offer(&a0, &mut alg).unwrap();
        assert_eq!(d0, vec![SetId(1)]);
        assert!(!session.is_active(SetId(0)));
        assert_eq!(session.active_count(), 1);
        assert_eq!(
            session.active_sets_iter().collect::<Vec<_>>(),
            vec![SetId(1)]
        );
        let a1 = Arrival::new(ElementId(1), 1, &[SetId(1)]);
        session.offer(&a1, &mut alg).unwrap();
        assert_eq!(session.assigned(SetId(1)), 2);
        let out = session.finish();
        assert_eq!(out.completed(), &[SetId(1)]);
        assert_eq!(out.benefit(), 1.0);
    }

    #[test]
    fn died_at_foreign_set_id_is_none() {
        // An id minted for a different (larger) instance must not panic.
        let (inst, [s0, _, _]) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![s0], vec![s0], vec![]]);
        let out = run(&inst, &mut alg).unwrap();
        assert_eq!(out.died_at(SetId(999)), None);
        assert_eq!(out.died_at(SetId(3)), None); // one past the end
        assert_eq!(out.died_at(s0), None); // in-range still works
    }

    #[test]
    fn scratch_reuse_is_outcome_identical() {
        let (inst, [s0, _, s2]) = three_set_instance();
        let script = vec![vec![s0], vec![s0], vec![s2]];
        let mut scratch = ReplayScratch::new();
        // Run twice through the same scratch, compare against fresh runs —
        // field by field, covering the recycled died_at and DecisionLog
        // buffers explicitly.
        for _ in 0..2 {
            let fresh = run(&inst, &mut Scripted::new(script.clone())).unwrap();
            let reused = run_source_with_scratch(
                &mut inst.source(),
                &mut Scripted::new(script.clone()),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(fresh.completed(), reused.completed());
            assert_eq!(fresh.benefit().to_bits(), reused.benefit().to_bits());
            assert_eq!(fresh.digest(), reused.digest());
            for i in 0..inst.num_sets() {
                let s = SetId(i as u32);
                assert_eq!(fresh.died_at(s), reused.died_at(s), "died_at({s:?})");
            }
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn scratch_reuse_shrinks_to_smaller_followup_job() {
        // A big job then a small one through the same scratch: the recycled
        // died_at / decision-log buffers must resize down correctly and not
        // leak state from the previous job.
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..8).map(|_| b.add_set(1.0, 1)).collect();
        for &s in &ids {
            b.add_element(1, &[s]);
        }
        let big = b.build().unwrap();
        let big_script: Vec<Vec<SetId>> = ids.iter().map(|&s| vec![s]).collect();

        let (small, [s0, _, s2]) = three_set_instance();
        let small_script = vec![vec![s0], vec![s0], vec![s2]];

        let mut scratch = ReplayScratch::new();
        run_source_with_scratch(
            &mut big.source(),
            &mut Scripted::new(big_script),
            &mut scratch,
        )
        .unwrap();
        let fresh = run(&small, &mut Scripted::new(small_script.clone())).unwrap();
        let reused = run_source_with_scratch(
            &mut small.source(),
            &mut Scripted::new(small_script),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fresh, reused);
        assert_eq!(reused.arrivals(), 3);
    }

    /// The known answer below, computed outside the crate from the
    /// documented lane recurrences (lane A, then lane B).
    const KAT_HEX: &str = "9b45e0cf91de87d2079fe85a1053c4d9";

    #[test]
    fn digest_of_a_scripted_three_set_run_is_pinned() {
        // Known answer: decisions [s0], [s0], [s2] feed the words
        // 1, 0, 1, 0, 1, 2 into both lanes (see `DecisionDigest`).
        let (inst, [s0, _, s2]) = three_set_instance();
        let (out, log) = logged(&inst, vec![vec![s0], vec![s0], vec![s2]]);
        assert_eq!(out.digest().to_string(), KAT_HEX);
        assert_eq!(log.digest(), out.digest());
        assert_eq!(out.arrivals(), 3);
        assert_eq!(out.assignments(), 3);
        // The digest of no decisions is the pair of bases.
        assert_eq!(
            DecisionDigest::new().to_string(),
            format!("{DIGEST_BASIS_A:016x}{DIGEST_BASIS_B:016x}")
        );
        assert_eq!(DecisionLog::new().digest(), DecisionDigest::new());
    }

    #[test]
    fn digest_separates_decision_boundaries() {
        // [s0], [] and [], [s0] carry the same sets in the same order;
        // only the length words tell them apart.
        let mut x = DecisionDigest::new();
        x.fold(&[SetId(0)]);
        x.fold(&[]);
        let mut y = DecisionDigest::new();
        y.fold(&[]);
        y.fold(&[SetId(0)]);
        assert_ne!(x, y);
        // Emission order is part of the stream.
        let mut p = DecisionDigest::new();
        p.fold(&[SetId(1), SetId(2)]);
        let mut q = DecisionDigest::new();
        q.fold(&[SetId(2), SetId(1)]);
        assert_ne!(p, q);
    }

    #[test]
    fn digest_hex_round_trips_and_rejects_junk() {
        let (inst, [s0, _, s2]) = three_set_instance();
        let (out, _) = logged(&inst, vec![vec![s0], vec![], vec![s2]]);
        let hex = out.digest().to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<DecisionDigest>().unwrap(), out.digest());
        for junk in [
            "",
            "abc",
            &hex[1..],
            &format!("{hex}0"),
            &hex.replace('a', "g"),
        ] {
            if junk != hex {
                assert!(junk.parse::<DecisionDigest>().is_err(), "{junk:?}");
            }
        }
        assert!("+0000000000000000000000000000000"
            .parse::<DecisionDigest>()
            .is_err());
    }

    #[test]
    fn logging_does_not_change_the_outcome() {
        let (inst, [s0, s1, _]) = three_set_instance();
        let script = vec![vec![s1], vec![s0], vec![]];
        let plain = run(&inst, &mut Scripted::new(script.clone())).unwrap();
        let (out, log) = logged(&inst, script);
        assert_eq!(plain, out);
        // A reused log is cleared first.
        let mut reused = log.clone();
        run_source_logged(
            &mut inst.source(),
            &mut Scripted::new(vec![vec![s1], vec![s0], vec![]]),
            &mut ReplayScratch::new(),
            Some(&mut reused),
        )
        .unwrap();
        assert_eq!(reused, log);
    }

    #[test]
    fn pre_digest_outcome_json_folds_its_log() {
        // The shape earlier builds wrote: the full log, no digest.
        let legacy = r#"{"completed":[0,2],"benefit":3.0,
            "decisions":{"offsets":[0,1,2,3],"data":[0,0,2]},
            "died_at":[null,0,null]}"#;
        let out: Outcome = serde_json::from_str(legacy).unwrap();
        let (inst, [s0, _, s2]) = three_set_instance();
        let (want, _) = logged(&inst, vec![vec![s0], vec![s0], vec![s2]]);
        assert_eq!(out, want);
        // Neither a digest nor a log: missing field.
        let bare = r#"{"completed":[],"benefit":0.0,"died_at":[]}"#;
        assert!(serde_json::from_str::<Outcome>(bare).is_err());
    }

    #[test]
    fn from_parts_rejects_completed_sets_no_run_can_produce() {
        let parts = |completed: Vec<u32>, died_at: Vec<Option<u32>>| {
            Outcome::from_parts(
                completed.into_iter().map(SetId).collect(),
                1.0,
                DecisionDigest::new(),
                0,
                0,
                died_at.into_iter().map(|d| d.map(ElementId)).collect(),
            )
        };
        assert!(parts(vec![0, 2], vec![None, Some(1), None]).is_ok());
        // A completed id past the sets, and a completed set that died.
        for bad in [
            parts(vec![0, 3], vec![None, Some(1), None]),
            parts(vec![1], vec![None, Some(1), None]),
            parts(vec![0], vec![]),
        ] {
            assert!(matches!(bad, Err(Error::Protocol(_))), "{bad:?}");
        }
        // The same rule holds at the decode boundary.
        let died = r#"{"completed":[1],"benefit":1.0,"digest":"5119084f5912a3174deacdbdf83b1046","arrivals":1,"assignments":1,"died_at":[null,0]}"#;
        assert!(serde_json::from_str::<Outcome>(died).is_err());
    }

    #[test]
    fn session_incomplete_sets_do_not_count() {
        // A set that stays alive but never receives all elements must not
        // be counted as completed by finish().
        let metas: Vec<SetMeta> = {
            let mut b = InstanceBuilder::new();
            let s = b.add_set(1.0, 2);
            b.add_element(1, &[s]);
            b.add_element(1, &[s]);
            b.build().unwrap().sets().to_vec()
        };
        let mut alg = Scripted::new(vec![vec![SetId(0)]]);
        let mut session = Session::new(&metas, &mut alg);
        let a0 = Arrival::new(ElementId(0), 1, &[SetId(0)]);
        session.offer(&a0, &mut alg).unwrap();
        // Stop early: only 1 of 2 elements delivered.
        let out = session.finish();
        assert!(out.completed().is_empty());
    }
}
