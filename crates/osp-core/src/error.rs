//! Error type shared across the crate.

use std::fmt;

use crate::{ElementId, SetId};

/// Errors raised while building instances or running the online engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A set weight was negative, NaN or infinite.
    BadWeight {
        /// The offending set.
        set: SetId,
        /// The rejected weight value.
        weight: f64,
    },
    /// A declared set size was zero.
    EmptySet(SetId),
    /// An element referenced a set id that was never declared.
    UnknownSet {
        /// The element whose member list is invalid.
        element: ElementId,
        /// The undeclared set id.
        set: SetId,
    },
    /// An element listed the same set twice.
    DuplicateMember {
        /// The element whose member list is invalid.
        element: ElementId,
        /// The repeated set id.
        set: SetId,
    },
    /// An element arrived with capacity zero.
    ZeroCapacity(ElementId),
    /// An arrival's member list was not sorted ascending by set id.
    ///
    /// Raised by [`Arrival::try_new`](crate::Arrival::try_new), the checked
    /// constructor for untrusted input (e.g. the osp-net trace boundary).
    UnsortedMembers {
        /// The element whose member list is out of order.
        element: ElementId,
        /// The first set id found out of ascending order.
        set: SetId,
    },
    /// A set's declared size disagrees with the number of elements that
    /// actually listed it.
    SizeMismatch {
        /// The inconsistent set.
        set: SetId,
        /// Size given to [`InstanceBuilder::add_set`](crate::InstanceBuilder::add_set).
        declared: u32,
        /// Number of arrivals listing the set.
        realized: u32,
    },
    /// An algorithm decision included a set that does not contain the
    /// current element.
    DecisionNotMember {
        /// The element being decided.
        element: ElementId,
        /// The invalid set choice.
        set: SetId,
    },
    /// An algorithm decision repeated a set.
    DecisionDuplicate {
        /// The element being decided.
        element: ElementId,
        /// The repeated set choice.
        set: SetId,
    },
    /// An algorithm decision exceeded the element's capacity.
    DecisionOverCapacity {
        /// The element being decided.
        element: ElementId,
        /// The element's capacity `b(u)`.
        capacity: u32,
        /// How many sets the algorithm tried to assign.
        chosen: usize,
    },
    /// A [`JobSpec`](crate::spec::JobSpec) named a variant the resolver in
    /// use cannot build (e.g. an osp-net algorithm handed to the core-only
    /// [`CoreResolver`](crate::spec::CoreResolver)).
    UnsupportedSpec(String),
    /// A spec's parameters are structurally invalid (e.g. an infeasible
    /// generator configuration).
    InvalidSpec(String),
    /// A wire-protocol violation: truncated/oversized frame, or a payload
    /// that does not decode as the expected message.
    Protocol(String),
    /// The service cannot take the work right now: the replay server's
    /// submission queue is full or it is shutting down. Callers should
    /// back off and resubmit — nothing was enqueued.
    Unavailable(String),
    /// A persisted journal record failed its checksum or did not decode.
    ///
    /// Raised (and recorded, never panicked on) by
    /// [`JournalStore`](crate::store::JournalStore) while replaying a
    /// results journal: the offending record is skipped and recovery
    /// continues with the records that survive.
    Corrupt {
        /// Byte offset of the bad record within the journal or snapshot.
        offset: u64,
        /// What failed: checksum mismatch, undecodable payload, …
        cause: String,
    },
    /// A job panicked while it ran; the text is the panic's message.
    /// Caught at the job boundary
    /// ([`run_spec_with_scratch`](crate::spec::run_spec_with_scratch)),
    /// so the job fails alone and its thread, worker or service goes on.
    JobPanicked(String),
    /// A worker failed out-of-band — see [`WorkerError`] for the typed
    /// failure modes (spawn, connect, handshake, timeout, disconnect,
    /// fleet exhaustion, or a remote failure that crossed the boundary as
    /// text).
    Worker(WorkerError),
}

/// Typed out-of-band worker failures, shared by the process and socket
/// dispatch backends.
///
/// The distinction matters operationally: a [`Connect`](Self::Connect) or
/// [`Handshake`](Self::Handshake) failure means the worker never took any
/// jobs (safe to exclude from the fleet immediately), a
/// [`Timeout`](Self::Timeout) or [`Disconnect`](Self::Disconnect) means it
/// died *mid-batch* (its unanswered jobs are re-dispatched to surviving
/// workers by [`SocketPool`](crate::SocketPool), up to a bound per job:
/// [`JobKilledWorker`](Self::JobKilledWorker)), and a
/// [`Remote`](Self::Remote) is a *per-job* answer — the worker is healthy,
/// that one job failed on it — which is final and never re-dispatched.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerError {
    /// The worker binary could not be located, its process not spawned,
    /// or it never announced its listening address.
    Spawn(String),
    /// A worker address could not be connected within the configured
    /// timeout and retry budget.
    Connect {
        /// The address dialed.
        addr: String,
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last I/O failure.
        cause: String,
    },
    /// The connection opened but the hello exchange failed: missing or
    /// malformed hello frame, or a protocol-version mismatch.
    Handshake {
        /// The address dialed.
        addr: String,
        /// What went wrong.
        cause: String,
    },
    /// A read deadline expired mid-conversation — the worker stalled.
    Timeout {
        /// The worker's address.
        addr: String,
        /// The expired deadline's description.
        cause: String,
    },
    /// The byte stream died mid-batch: premature EOF, a reset, or
    /// undecodable frames where replies were expected.
    Disconnect {
        /// The worker's address.
        addr: String,
        /// What the stream did.
        cause: String,
    },
    /// The worker answered with the wrong frame type for the strict
    /// request/reply order — a job reply where a pong was due, or vice
    /// versa. Distinct from [`Disconnect`](Self::Disconnect): the frame
    /// *decoded*, it just was not the one owed next, which points at a
    /// worker answering out of order rather than a corrupted stream.
    FrameOrder {
        /// The worker's address.
        addr: String,
        /// The frame type the protocol owed next (e.g. `"pong"`).
        expected: &'static str,
        /// The frame type actually received (e.g. `"job reply"`).
        got: &'static str,
    },
    /// The job ended its worker's session (a disconnect or a timeout while
    /// it was the oldest unanswered job) this many times, so it is not
    /// re-dispatched again: see
    /// [`MAX_JOB_KILLS`](crate::engine::dispatch::MAX_JOB_KILLS).
    JobKilledWorker {
        /// How many sessions the job ended.
        kills: u32,
    },
    /// Every worker of the fleet is dead and jobs remain unanswered.
    AllWorkersDead {
        /// How many jobs were left undispatched.
        pending: usize,
    },
    /// The job failed *on* the worker; the structured engine error only
    /// survives the boundary as display text.
    Remote(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Spawn(why) => write!(f, "cannot start worker: {why}"),
            WorkerError::Connect {
                addr,
                attempts,
                cause,
            } => write!(
                f,
                "cannot connect to {addr} after {attempts} attempt(s): {cause}"
            ),
            WorkerError::Handshake { addr, cause } => {
                write!(f, "handshake with {addr} failed: {cause}")
            }
            WorkerError::Timeout { addr, cause } => write!(f, "worker {addr} timed out: {cause}"),
            WorkerError::Disconnect { addr, cause } => {
                write!(f, "worker {addr} disconnected: {cause}")
            }
            WorkerError::FrameOrder {
                addr,
                expected,
                got,
            } => write!(
                f,
                "worker {addr} answered out of order: expected a {expected}, got a {got}"
            ),
            WorkerError::JobKilledWorker { kills } => write!(
                f,
                "the job ended its worker's session {kills} times; not re-dispatched"
            ),
            WorkerError::AllWorkersDead { pending } => {
                write!(f, "every worker is dead with {pending} job(s) unanswered")
            }
            WorkerError::Remote(why) => write!(f, "{why}"),
        }
    }
}

impl From<WorkerError> for Error {
    fn from(e: WorkerError) -> Error {
        Error::Worker(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadWeight { set, weight } => {
                write!(f, "set {set} has invalid weight {weight}")
            }
            Error::EmptySet(set) => write!(f, "set {set} has size zero"),
            Error::UnknownSet { element, set } => {
                write!(f, "element {element} references undeclared set {set}")
            }
            Error::DuplicateMember { element, set } => {
                write!(f, "element {element} lists set {set} twice")
            }
            Error::ZeroCapacity(element) => {
                write!(f, "element {element} has capacity zero")
            }
            Error::UnsortedMembers { element, set } => {
                write!(
                    f,
                    "member list of element {element} is not sorted ascending at set {set}"
                )
            }
            Error::SizeMismatch {
                set,
                declared,
                realized,
            } => write!(
                f,
                "set {set} declared size {declared} but {realized} elements list it"
            ),
            Error::DecisionNotMember { element, set } => {
                write!(f, "decision for {element} includes non-member set {set}")
            }
            Error::DecisionDuplicate { element, set } => {
                write!(f, "decision for {element} repeats set {set}")
            }
            Error::DecisionOverCapacity {
                element,
                capacity,
                chosen,
            } => write!(
                f,
                "decision for {element} assigns {chosen} sets, capacity is {capacity}"
            ),
            Error::UnsupportedSpec(what) => {
                write!(f, "spec not supported by this resolver: {what}")
            }
            Error::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            Error::Protocol(why) => write!(f, "wire protocol error: {why}"),
            Error::Unavailable(why) => write!(f, "service unavailable: {why}"),
            Error::Corrupt { offset, cause } => {
                write!(f, "corrupt journal record at byte {offset}: {cause}")
            }
            Error::JobPanicked(why) => write!(f, "job panicked: {why}"),
            Error::Worker(why) => write!(f, "worker error: {why}"),
        }
    }
}

impl std::error::Error for Error {}
