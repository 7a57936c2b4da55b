//! Length-prefixed frame protocol for job specs and outcomes.
//!
//! The distributed replay pool talks to its workers over TCP or
//! Unix-domain sockets ([`socket`]). Framing is deliberately minimal and
//! self-describing:
//!
//! ```text
//! frame   := length payload
//! length  := u32, little-endian, number of payload bytes (≤ 64 MiB)
//! payload := one JSON message (serde_json over the vendored stub)
//! ```
//!
//! One session flavor rides the framing. [`serve_session`] is spoken by
//! `osp-worker --listen` and by [`SocketPool`](crate::SocketPool) (and
//! so by [`ProcessPool`](crate::ProcessPool), which launches such
//! workers): on accept the worker first sends a [`Hello`] handshake frame
//! (protocol version + resolver roster), or a [`Refusal`] when it is at
//! its connection cap; the client then sends
//! [`Request`] frames — `{"job": JobSpec}` answered by `{"ok": Outcome}`
//! or `{"err": "message"}`, or the heartbeat `{"ping": nonce}` answered
//! by `{"pong": nonce}` ([`ServerFrame`]) — strictly in order.
//!
//! A clean end-of-stream *between* frames is the normal shutdown signal
//! ([`read_frame`] returns `None`); anything else — a truncated length or
//! payload, an oversized length, a payload that does not decode — is a
//! hard [`Error::Protocol`], never a panic (pinned by the
//! `wire_round_trip` proptest suite).
//!
//! The `osp-worker` binary is a thin `main` around
//! [`socket::SocketServer`], and `examples/distributed_replay.rs` embeds
//! the same server behind a `--worker` flag.
//!
//! Socket sessions additionally honor a deterministic [`FaultPlan`]
//! (`OSP_FAULT` in the binary): kill or stall the worker at a chosen job
//! index, so dispatcher recovery paths replay bit-for-bit in tests and CI.
//!
//! Every frame is a job spec, a request or a reply: the wire carries no
//! arrival streams. A worker builds each job's stream from its spec and
//! seed, locally.

pub mod socket;

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::engine::batch::ReplayScratch;
use crate::engine::Outcome;
use crate::error::Error;
use crate::spec::{run_spec_with_scratch, JobSpec, SpecResolver};

/// Version of the framed protocol this build speaks:
///
/// * `v2` added the service front door ([`serve`](crate::serve):
///   submit/status/fetch/cancel frames);
/// * `v3` added the `fleet` admin verb (inspect the supervised socket
///   fleet, force a rejoin probe; its membership edits were later
///   removed, and a server answers them as undecodable frames);
/// * `v4` made outcomes O(m): an [`Outcome`] carries a 128-bit
///   [`DecisionDigest`](crate::engine::DecisionDigest) with arrival and
///   assignment counts instead of the full per-arrival `decisions` log.
///
/// Clients accept any [`Hello`] version in
/// `MIN_WIRE_VERSION..=WIRE_VERSION` and fail the handshake
/// ([`WorkerError::Handshake`](crate::error::WorkerError::Handshake))
/// outside that range — mixed-build fleets must fail loudly at connect
/// time, never by misinterpreting frames mid-batch.
pub const WIRE_VERSION: u32 = 4;

/// Oldest protocol version this build still interoperates with: `v4`,
/// because every reply frame changed shape there.
pub const MIN_WIRE_VERSION: u32 = 4;

/// Process exit status for a [`FaultPlan`]-injected death — both
/// `osp-worker` (`die:<n>`) and `osp-serve` (`die-after-chunk:<n>`) die
/// with this code, so harnesses can tell an injected crash from a real
/// one.
pub const FAULT_EXIT: u8 = 86;

/// Hard upper bound on a frame payload (64 MiB). Real messages are far
/// smaller; the cap is what turns a garbage length prefix into a clean
/// [`Error::Protocol`] instead of an absurd allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The most [`read_frame`] reserves before any payload byte has arrived
/// (1 MiB). A longer frame's buffer grows as its bytes come in, so a
/// header alone cannot make the reader allocate [`MAX_FRAME_LEN`].
const FRAME_RESERVE: usize = 1 << 20;

/// Writes one frame: little-endian `u32` payload length, then the payload,
/// handed to the writer as **one** buffer. Writing the length and the
/// payload separately is the write–write–read pattern on which TCP's
/// Nagle algorithm holds the payload back until the peer's delayed ACK
/// (about 40 ms per request on a long-lived connection).
///
/// # Errors
///
/// [`Error::Protocol`] if the payload exceeds [`MAX_FRAME_LEN`] or the
/// underlying writer fails.
pub fn write_frame<W: Write + ?Sized>(writer: &mut W, payload: &[u8]) -> Result<(), Error> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(oversized(payload.len()));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(payload);
    send_frame(writer, frame)
}

/// Fills in the length prefix of `frame` (4 placeholder bytes, then the
/// payload) and writes it in one `write_all`.
pub(crate) fn send_frame<W: Write + ?Sized>(
    writer: &mut W,
    mut frame: Vec<u8>,
) -> Result<(), Error> {
    let len = frame.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(oversized(len));
    }
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    writer
        .write_all(&frame)
        .map_err(|e| Error::Protocol(format!("writing frame: {e}")))
}

fn oversized(len: usize) -> Error {
    Error::Protocol(format!(
        "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
    ))
}

/// Reads one frame's payload; `Ok(None)` on a clean end-of-stream at a
/// frame boundary.
///
/// # Errors
///
/// [`Error::Protocol`] on a truncated length prefix, a length above
/// [`MAX_FRAME_LEN`], or a payload shorter than its declared length.
pub fn read_frame<R: Read + ?Sized>(reader: &mut R) -> Result<Option<Vec<u8>>, Error> {
    let mut len = [0u8; 4];
    // A clean EOF before any length byte ends the stream; EOF *inside*
    // the prefix is a truncation.
    let mut filled = 0usize;
    while filled < len.len() {
        match reader.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::Protocol(format!(
                    "truncated frame: {filled} of 4 length bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::Protocol(format!("reading frame length: {e}"))),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE));
    let read = reader
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| Error::Protocol(format!("truncated frame payload ({len} bytes): {e}")))?;
    if read != len {
        return Err(Error::Protocol(format!(
            "truncated frame payload: {read} of {len} bytes"
        )));
    }
    Ok(Some(payload))
}

/// Serializes a message straight into a frame buffer, behind a 4-byte
/// length placeholder, and writes it as one frame.
///
/// # Errors
///
/// [`Error::Protocol`] on serialization or I/O failure.
pub fn write_message<W: Write + ?Sized, T: Serialize>(
    writer: &mut W,
    message: &T,
) -> Result<(), Error> {
    let mut frame = vec![0; 4];
    serde_json::to_writer(&mut frame, message)
        .map_err(|e| Error::Protocol(format!("encoding: {e}")))?;
    send_frame(writer, frame)
}

/// Reads one frame and deserializes its payload bytes; `Ok(None)` on
/// clean end-of-stream.
///
/// # Errors
///
/// [`Error::Protocol`] on framing, UTF-8 or decode failure.
pub fn read_message<R: Read + ?Sized, T: Deserialize>(reader: &mut R) -> Result<Option<T>, Error> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    serde_json::from_slice(&payload)
        .map(Some)
        .map_err(|e| Error::Protocol(format!("decoding frame: {e}")))
}

/// The handshake frame a socket worker sends immediately after accepting
/// a connection: which protocol version it speaks and which spec variants
/// its resolver can build (the roster, see
/// [`SpecResolver::roster`]). Clients must verify the version falls in
/// [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] before sending any request.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Hello {
    /// The worker's [`WIRE_VERSION`].
    pub version: u32,
    /// Spec tags the worker's resolver supports (informational; lets a
    /// dispatcher fail fast when a fleet cannot run a roster).
    pub roster: Vec<String>,
}

impl Hello {
    /// The handshake this build's workers send for `resolver`.
    pub fn for_resolver<R: SpecResolver + ?Sized>(resolver: &R) -> Hello {
        Hello {
            version: WIRE_VERSION,
            roster: resolver.roster(),
        }
    }
}

/// The frame a server sends where its [`Hello`] would go when it turns a
/// connection away (it is already serving
/// [`MAX_CONNECTIONS`](socket::MAX_CONNECTIONS)); the server then closes
/// the connection. [`read_hello`](socket::read_hello) reports it as a
/// [`WorkerError::Handshake`](crate::error::WorkerError::Handshake) whose
/// cause is `refused`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Refusal {
    /// Why the connection was turned away.
    pub refused: String,
}

/// One client → worker message of a socket session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Replay this job and answer with [`ServerFrame::Ok`] or
    /// [`ServerFrame::Err`].
    Job(JobSpec),
    /// Heartbeat: answer with [`ServerFrame::Pong`] immediately.
    Ping(u64),
}

/// Any one worker → client frame of a socket session after the
/// [`Hello`]: `{"pong": nonce}` answers a [`Request::Ping`], and
/// `{"ok": Outcome}` or `{"err": "message"}` answers a [`Request::Job`].
/// An object holding several of these keys decodes as the first in
/// declaration order. Clients read this whatever frame they expect, so a
/// worker answering out of order (a job reply where a pong is due, or
/// vice versa) surfaces as a typed
/// [`WorkerError::FrameOrder`](crate::error::WorkerError::FrameOrder)
/// naming both sides — not a generic decode failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// A heartbeat answer: the nonce of the ping being answered.
    Pong(u64),
    /// A job's outcome.
    Ok(Outcome),
    /// A job's failure. A structured engine error does not survive the
    /// boundary typed: it crosses as display text, and the dispatcher
    /// reports it as
    /// [`WorkerError::Remote`](crate::error::WorkerError::Remote).
    Err(String),
}

impl ServerFrame {
    /// Human label for the frame type, used in
    /// [`WorkerError::FrameOrder`](crate::error::WorkerError::FrameOrder)
    /// messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerFrame::Pong(_) => "pong",
            ServerFrame::Ok(_) | ServerFrame::Err(_) => "job reply",
        }
    }
}

impl From<Result<Outcome, Error>> for ServerFrame {
    fn from(result: Result<Outcome, Error>) -> Self {
        match result {
            Ok(outcome) => ServerFrame::Ok(outcome),
            Err(e) => ServerFrame::Err(e.to_string()),
        }
    }
}

/// A deterministic fault-injection plan for a socket worker, so
/// dispatcher recovery paths (re-dispatch, timeout, all-dead) are
/// replayable bit-for-bit instead of depending on real crashes.
///
/// Faults are indexed by the worker's *lifetime job counter* (shared
/// across connections of one worker), making "kill worker W after it
/// answered N jobs" a pure function of the plan:
///
/// * `die_after: Some(n)` — the worker answers exactly `n` jobs, then
///   drops the connection without answering (and
///   [`serve_session`] reports [`SessionEnd::FaultKill`], which
///   `osp-worker --listen` turns into process death with exit code 86);
/// * `stall: Some(Stall { job, millis })` — before answering job index
///   `job` (0-based), sleep `millis` — long enough and the client's read
///   deadline expires, exercising the timeout path.
///
/// The `OSP_FAULT` environment variable carries the plan into the
/// `osp-worker` binary: a comma-separated list of `die:<n>` and
/// `stall:<job>:<millis>` clauses (e.g. `OSP_FAULT=die:5` or
/// `OSP_FAULT=stall:2:4000,die:7`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Drop dead after answering this many jobs.
    pub die_after: Option<u64>,
    /// Sleep before answering one chosen job.
    pub stall: Option<Stall>,
    /// Serve-side only: `osp-serve` exits (hard, like `kill -9`) after
    /// its executor finishes this many dispatch chunks — the
    /// deterministic crash for `tests/crash_recovery.rs` and the CI
    /// `chaos-recovery` job. Workers reject plans carrying this clause.
    pub die_after_chunk: Option<u64>,
}

/// The stall clause of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// 0-based lifetime job index to stall on.
    pub job: u64,
    /// How long to sleep before answering it.
    pub millis: u64,
}

impl FaultPlan {
    /// No injected faults — what production workers run.
    pub const NONE: FaultPlan = FaultPlan {
        die_after: None,
        stall: None,
        die_after_chunk: None,
    };

    /// Whether this plan injects anything.
    pub fn is_none(&self) -> bool {
        *self == FaultPlan::NONE
    }

    /// Parses a plan string: comma-separated `die:<n>` /
    /// `stall:<job>:<millis>` / `die-after-chunk:<n>` clauses. Empty
    /// input is [`FaultPlan::NONE`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed clause — fault plans are test
    /// infrastructure, so junk must fail loudly rather than silently
    /// running faultless.
    pub fn parse(plan: &str) -> Result<FaultPlan, String> {
        let mut out = FaultPlan::NONE;
        for clause in plan.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(n) = clause.strip_prefix("die-after-chunk:") {
                out.die_after_chunk = Some(
                    n.trim()
                        .parse()
                        .map_err(|e| format!("bad die-after-chunk clause `{clause}`: {e}"))?,
                );
            } else if let Some(n) = clause.strip_prefix("die:") {
                out.die_after = Some(
                    n.trim()
                        .parse()
                        .map_err(|e| format!("bad die clause `{clause}`: {e}"))?,
                );
            } else if let Some(rest) = clause.strip_prefix("stall:") {
                let (job, millis) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("bad stall clause `{clause}`: want stall:<job>:<ms>"))?;
                out.stall = Some(Stall {
                    job: job
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad stall job in `{clause}`: {e}"))?,
                    millis: millis
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad stall millis in `{clause}`: {e}"))?,
                });
            } else {
                return Err(format!(
                    "unknown fault clause `{clause}` (want die:<n>, stall:<job>:<ms>, \
                     or die-after-chunk:<n>)"
                ));
            }
        }
        Ok(out)
    }

    /// Reads the plan from the `OSP_FAULT` environment variable. Unset is
    /// `Ok(FaultPlan::NONE)`; a malformed value is an error the caller
    /// must treat as fatal (`osp-worker` exits with a usage code) — a
    /// typo'd plan silently running a fault-*free* "fault test" is worse
    /// than a worker that refuses to start, because nothing downstream
    /// can tell the faults never happened.
    ///
    /// # Errors
    ///
    /// The [`FaultPlan::parse`] message for the first malformed clause.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("OSP_FAULT") {
            Err(_) => Ok(FaultPlan::NONE),
            Ok(raw) => {
                FaultPlan::parse(&raw).map_err(|e| format!("malformed OSP_FAULT value: {e}"))
            }
        }
    }
}

/// How a socket session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed the stream cleanly between frames.
    Eof,
    /// The session's [`FaultPlan`] killed the worker mid-conversation.
    /// `osp-worker --listen` exits with code 86 on this; in-process
    /// servers ([`socket::SocketServer`]) stop accepting.
    FaultKill,
}

/// The worker loop: sends the [`Hello`] handshake, then answers
/// [`Request`] frames — jobs through `resolver` (one reused
/// [`ReplayScratch`] across jobs, exactly like a thread shard), pings
/// with [`ServerFrame::Pong`] — until clean end-of-stream, honoring
/// `fault` against the worker-lifetime `jobs_answered` counter (shared
/// across a worker's connections so a multi-connection fleet kill stays
/// a pure function of the plan). Every answer is flushed at once, so the client consumes
/// results as they stream.
///
/// Per-job failures (unsupported spec, invalid decision) are *answered*,
/// not fatal: the worker stays up for the next job.
///
/// # Errors
///
/// [`Error::Protocol`] if the input stream is malformed or the output
/// stream breaks.
pub fn serve_session<R, In, Out>(
    resolver: &R,
    reader: &mut In,
    writer: &mut Out,
    fault: FaultPlan,
    jobs_answered: &AtomicU64,
) -> Result<SessionEnd, Error>
where
    R: SpecResolver + ?Sized,
    In: Read + ?Sized,
    Out: Write + ?Sized,
{
    send(writer, &Hello::for_resolver(resolver))?;
    let mut scratch = ReplayScratch::new();
    while let Some(request) = read_message::<_, Request>(reader)? {
        match request {
            Request::Ping(nonce) => send(writer, &ServerFrame::Pong(nonce))?,
            Request::Job(job) => {
                let index = jobs_answered.load(Ordering::SeqCst);
                if fault.die_after.is_some_and(|n| index >= n) {
                    return Ok(SessionEnd::FaultKill);
                }
                if let Some(stall) = fault.stall {
                    if stall.job == index {
                        std::thread::sleep(std::time::Duration::from_millis(stall.millis));
                    }
                }
                let result = run_spec_with_scratch(&job, resolver, &mut scratch);
                send(writer, &ServerFrame::from(result))?;
                jobs_answered.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    Ok(SessionEnd::Eof)
}

/// Writes `message` as one frame and flushes it, so the peer sees it at
/// once: every hello and reply of both servers, and every serve request.
pub(crate) fn send<W: Write + ?Sized, T: Serialize>(
    writer: &mut W,
    message: &T,
) -> Result<(), Error> {
    write_message(writer, message)?;
    writer
        .flush()
        .map_err(|e| Error::Protocol(format!("flushing frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::RandomInstanceConfig;
    use crate::spec::{AlgorithmSpec, CoreResolver, ScenarioSpec};
    use std::io::Cursor;

    fn job(seed: u64) -> JobSpec {
        JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(15, 40, 3)),
            algorithm: AlgorithmSpec::RandPr,
            seed,
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"world");
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // Exhausted stays exhausted.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Accepts everything, counting `write` calls.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1);
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2);
        let outcome = crate::spec::run_spec(&job(4), &CoreResolver).unwrap();
        write_message(&mut w, &ServerFrame::Ok(outcome)).unwrap();
        assert_eq!(w.writes, 3, "a message is one frame, one write");
        let mut cursor = Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_message::<_, ServerFrame>(&mut cursor)
            .unwrap()
            .is_some());
    }

    #[test]
    fn truncated_and_oversized_frames_error_cleanly() {
        // EOF inside the length prefix.
        let mut cursor = Cursor::new(vec![5u8, 0]);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Protocol(_))));
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(Error::Protocol(_))
        ));
        // Garbage length prefix above the cap.
        let mut cursor = Cursor::new(0xFFFF_FFFFu32.to_le_bytes().to_vec());
        assert!(matches!(read_frame(&mut cursor), Err(Error::Protocol(_))));
        // Oversized write is refused before touching the stream.
        struct NoWrite;
        impl Write for NoWrite {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                panic!("must not write")
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut NoWrite, &huge),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn non_json_payload_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"\x00\xFFnot json").unwrap();
        assert!(matches!(
            read_message::<_, JobSpec>(&mut Cursor::new(buf)),
            Err(Error::Protocol(_))
        ));
    }

    /// Runs one fault-free session over `requests` and returns its end
    /// plus a reader over the output, positioned after the [`Hello`].
    fn session(requests: &[u8]) -> (Result<SessionEnd, Error>, Cursor<Vec<u8>>) {
        let mut output = Vec::new();
        let end = serve_session(
            &CoreResolver,
            &mut Cursor::new(requests),
            &mut output,
            FaultPlan::NONE,
            &AtomicU64::new(0),
        );
        let mut cursor = Cursor::new(output);
        let hello: Hello = read_message(&mut cursor).unwrap().expect("hello first");
        assert_eq!(hello.version, WIRE_VERSION);
        (end, cursor)
    }

    #[test]
    fn serve_answers_every_job_in_order() {
        let mut input = Vec::new();
        let jobs: Vec<JobSpec> = (0..4).map(job).collect();
        for j in &jobs {
            write_message(&mut input, &Request::Job(j.clone())).unwrap();
        }
        let (end, mut cursor) = session(&input);
        assert_eq!(end.unwrap(), SessionEnd::Eof);
        for j in &jobs {
            let got: ServerFrame = read_message(&mut cursor)
                .unwrap()
                .expect("one reply per job");
            let want = crate::spec::run_spec(j, &CoreResolver).unwrap();
            assert_eq!(got, ServerFrame::Ok(want), "seed {}", j.seed);
        }
        assert!(read_message::<_, ServerFrame>(&mut cursor)
            .unwrap()
            .is_none());
    }

    #[test]
    fn serve_reports_per_job_failures_and_continues() {
        let mut input = Vec::new();
        let bad = JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(2, 5, 4)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 0,
        };
        write_message(&mut input, &Request::Job(bad)).unwrap();
        write_message(&mut input, &Request::Job(job(1))).unwrap();
        let (end, mut cursor) = session(&input);
        assert_eq!(end.unwrap(), SessionEnd::Eof);
        let first: ServerFrame = read_message(&mut cursor).unwrap().unwrap();
        assert!(matches!(first, ServerFrame::Err(_)), "got {first:?}");
        let second: ServerFrame = read_message(&mut cursor).unwrap().unwrap();
        assert!(matches!(second, ServerFrame::Ok(_)), "got {second:?}");
    }

    #[test]
    fn malformed_input_stream_stops_serve() {
        let mut input = Vec::new();
        write_frame(&mut input, b"{\"not\": \"a job\"}").unwrap();
        write_message(&mut input, &Request::Job(job(1))).unwrap();
        let (end, mut cursor) = session(&input);
        assert!(matches!(end, Err(Error::Protocol(_))), "got {end:?}");
        assert!(
            read_message::<_, ServerFrame>(&mut cursor)
                .unwrap()
                .is_none(),
            "nothing after the malformed frame is answered"
        );
    }

    #[test]
    fn outcome_survives_the_wire_bit_for_bit() {
        let want = crate::spec::run_spec(&job(9), &CoreResolver).unwrap();
        let mut buf = Vec::new();
        write_message(&mut buf, &ServerFrame::Ok(want.clone())).unwrap();
        let got: ServerFrame = read_message(&mut Cursor::new(buf)).unwrap().unwrap();
        let ServerFrame::Ok(got) = got else {
            panic!("want an ok frame, got {got:?}");
        };
        assert_eq!(got.completed(), want.completed());
        assert_eq!(got.benefit().to_bits(), want.benefit().to_bits());
        assert_eq!(got.digest(), want.digest());
        assert_eq!(got, want);
    }

    #[test]
    fn hello_and_requests_round_trip() {
        let hello = Hello::for_resolver(&CoreResolver);
        assert_eq!(hello.version, WIRE_VERSION);
        assert!(hello.roster.contains(&"uniform".to_string()));
        let mut buf = Vec::new();
        write_message(&mut buf, &hello).unwrap();
        write_message(&mut buf, &Request::Ping(42)).unwrap();
        write_message(&mut buf, &Request::Job(job(7))).unwrap();
        write_message(&mut buf, &ServerFrame::Pong(42)).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_message::<_, Hello>(&mut cursor).unwrap().unwrap(),
            hello
        );
        assert_eq!(
            read_message::<_, Request>(&mut cursor).unwrap().unwrap(),
            Request::Ping(42)
        );
        assert_eq!(
            read_message::<_, Request>(&mut cursor).unwrap().unwrap(),
            Request::Job(job(7))
        );
        assert_eq!(
            read_message::<_, ServerFrame>(&mut cursor)
                .unwrap()
                .unwrap(),
            ServerFrame::Pong(42)
        );
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::NONE);
        assert!(FaultPlan::parse("").unwrap().is_none());
        assert_eq!(
            FaultPlan::parse("die:5").unwrap(),
            FaultPlan {
                die_after: Some(5),
                ..FaultPlan::NONE
            }
        );
        assert_eq!(
            FaultPlan::parse(" stall:2:750 , die:7 ").unwrap(),
            FaultPlan {
                die_after: Some(7),
                stall: Some(Stall {
                    job: 2,
                    millis: 750
                }),
                ..FaultPlan::NONE
            }
        );
        assert_eq!(
            FaultPlan::parse("die-after-chunk:3").unwrap(),
            FaultPlan {
                die_after_chunk: Some(3),
                ..FaultPlan::NONE
            }
        );
        assert!(FaultPlan::parse("die:lots").is_err());
        assert!(FaultPlan::parse("stall:2").is_err());
        assert!(FaultPlan::parse("die-after-chunk:soon").is_err());
        assert!(FaultPlan::parse("explode:now").is_err());
    }

    #[test]
    fn session_speaks_hello_then_answers_jobs_and_pings() {
        let mut input = Vec::new();
        write_message(&mut input, &Request::Ping(11)).unwrap();
        write_message(&mut input, &Request::Job(job(3))).unwrap();
        write_message(&mut input, &Request::Ping(12)).unwrap();
        let mut output = Vec::new();
        let answered = AtomicU64::new(0);
        let end = serve_session(
            &CoreResolver,
            &mut Cursor::new(input),
            &mut output,
            FaultPlan::NONE,
            &answered,
        )
        .unwrap();
        assert_eq!(end, SessionEnd::Eof);
        assert_eq!(answered.load(Ordering::SeqCst), 1);
        let mut cursor = Cursor::new(output);
        let hello: Hello = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(hello.version, WIRE_VERSION);
        let want = crate::spec::run_spec(&job(3), &CoreResolver).unwrap();
        for frame in [
            ServerFrame::Pong(11),
            ServerFrame::Ok(want),
            ServerFrame::Pong(12),
        ] {
            let got: ServerFrame = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(got, frame);
        }
        assert!(read_message::<_, ServerFrame>(&mut cursor)
            .unwrap()
            .is_none());
    }

    #[test]
    fn fault_kill_stops_the_session_before_the_answer() {
        // die:2 — two answers, then the third job gets no reply.
        let mut input = Vec::new();
        for seed in 0..3 {
            write_message(&mut input, &Request::Job(job(seed))).unwrap();
        }
        let mut output = Vec::new();
        let answered = AtomicU64::new(0);
        let end = serve_session(
            &CoreResolver,
            &mut Cursor::new(input),
            &mut output,
            FaultPlan::parse("die:2").unwrap(),
            &answered,
        )
        .unwrap();
        assert_eq!(end, SessionEnd::FaultKill);
        assert_eq!(answered.load(Ordering::SeqCst), 2);
        let mut cursor = Cursor::new(output);
        let _hello: Hello = read_message(&mut cursor).unwrap().unwrap();
        for seed in 0..2 {
            let got: ServerFrame = read_message(&mut cursor).unwrap().unwrap();
            let want = crate::spec::run_spec(&job(seed), &CoreResolver).unwrap();
            assert_eq!(got, ServerFrame::Ok(want), "answer {seed}");
        }
        assert!(
            read_message::<_, ServerFrame>(&mut cursor)
                .unwrap()
                .is_none(),
            "the killed job must not be answered"
        );
    }
}
