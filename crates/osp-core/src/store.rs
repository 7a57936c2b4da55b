//! Crash-safe result persistence for the replay service.
//!
//! The replay server's content-addressed cache ([`job_digest`] →
//! outcome) is persisted and bounded behind one seam. A cached outcome is
//! held as [`OutcomeJson`]: its canonical JSON in one shared buffer. That
//! buffer is the only resident form of a served result. The service's
//! batch records hold clones of the same buffer, `Fetch` splices it into
//! the reply frame, and the journal writes it inside its records, so no
//! layer re-encodes an outcome it already holds.
//!
//! * [`ResultStore`] — the storage trait the service talks to.
//!   `get_json` and `put_json` by digest (plus `get`/`put`, which decode
//!   and encode an [`Outcome`] around them), and the observability
//!   counters surfaced in [`BatchStatus`](crate::serve::BatchStatus)
//!   (entry count, live bytes, evictions).
//! * [`MemStore`] — the in-memory implementation, bounded by an
//!   entry-count cap and a byte cap with LRU eviction ([`StoreLimits`]).
//!   The byte cap counts the buffers actually resident, so a long-running
//!   server without `--state-dir` holds a working set, not an unbounded
//!   history.
//! * [`JournalStore`] — a [`MemStore`] mirrored to disk. Every `put`
//!   appends one length-prefixed, checksummed record (the framed-wire
//!   codec of [`wire`](crate::wire): `u32`-LE length, then an 8-byte
//!   FNV-1a checksum over the payload, then the record's canonical JSON)
//!   to `journal.osp` and flushes, so the OS page cache — which survives
//!   `kill -9` — holds the bytes even if the process dies mid-batch.
//!
//! # Recovery discipline
//!
//! Opening a [`JournalStore`] replays `snapshot.osp` (if present) then
//! `journal.osp`. A record that is *complete but bad* — checksum
//! mismatch, undecodable JSON, a bit flip anywhere in the payload — is
//! skipped and recorded as a typed [`Error::Corrupt`] with its byte
//! offset; recovery never panics and keeps every record that survives. A
//! record that is *incomplete* (the torn tail of a crashed append, or a
//! length field pointing past [`MAX_FRAME_LEN`]) truncates the journal
//! back to the last good record boundary, so the next append starts on a
//! clean frame. Records written before outcomes became O(m) carry the full
//! decision log instead of a digest; they decode by folding the log into
//! the digest, so a state dir written by an older build still answers
//! from cache. Every recovered record is re-encoded once, on open, into
//! the current canonical bytes.
//!
//! # Compaction
//!
//! The journal is append-only, so re-`put`s and evicted entries leave
//! stale bytes behind. When the journal grows past a floor *and* past 4×
//! the live working set, the store compacts: the live entries are framed
//! around their stored bytes, without re-encoding, and written (in LRU
//! order, oldest first, so recency survives a restart) to
//! `snapshot.tmp`, atomically renamed over `snapshot.osp`, and the
//! journal is truncated to zero. A crash anywhere in that sequence leaves
//! either the old snapshot + full journal or the new snapshot + journal
//! tail — never a half-written snapshot in play.
//!
//! [`job_digest`]: crate::serve::job_digest
//! [`MAX_FRAME_LEN`]: crate::wire::MAX_FRAME_LEN

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::engine::Outcome;
use crate::error::Error;
use crate::wire::MAX_FRAME_LEN;

/// FNV-1a 64-bit prime (same constants as [`job_digest`]'s lanes — the
/// checksum is one lane over the record payload).
///
/// [`job_digest`]: crate::serve::job_digest
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The standard FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An outcome's canonical JSON in one shared, immutable buffer.
///
/// The bytes are exactly what `serde_json` renders for the [`Outcome`],
/// so splicing them into a larger document gives the same bytes as
/// serializing the decoded outcome there. Cloning bumps a reference
/// count; it never copies the buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct OutcomeJson(Arc<[u8]>);

impl OutcomeJson {
    /// Renders `outcome` as canonical JSON.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if the outcome does not serialize.
    pub fn encode(outcome: &Outcome) -> Result<OutcomeJson, Error> {
        let mut bytes = Vec::new();
        serde_json::to_writer(&mut bytes, outcome)
            .map_err(|e| Error::Protocol(format!("encoding outcome: {e}")))?;
        Ok(OutcomeJson(bytes.into()))
    }

    /// Decodes the bytes back into the outcome they render.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if the bytes are not an outcome (never the case
    /// for bytes made by [`encode`](Self::encode)).
    pub fn decode(&self) -> Result<Outcome, Error> {
        serde_json::from_slice(&self.0)
            .map_err(|e| Error::Protocol(format!("decoding stored outcome: {e}")))
    }

    /// The canonical JSON bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for OutcomeJson {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OutcomeJson({} bytes)", self.0.len())
    }
}

/// Capacity bounds for a result store. `0` means unlimited on that axis.
///
/// Both axes are enforced on every insert with LRU eviction: the least
/// recently *touched* (`get` or `put`) entry goes first. The byte axis
/// counts each entry as its resident cost: the shared canonical-JSON
/// buffer plus the 16-byte digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLimits {
    /// Maximum live entries (0 = unlimited).
    pub max_entries: usize,
    /// Maximum live bytes (0 = unlimited).
    pub max_bytes: u64,
}

impl Default for StoreLimits {
    /// 4096 entries / 64 MiB — generous for a replay cache of outcomes,
    /// small enough that a week-long server stays flat.
    fn default() -> Self {
        StoreLimits::DEFAULT
    }
}

impl StoreLimits {
    /// No caps on either axis — the pre-PR-8 unbounded behaviour, kept
    /// for tests that assert on exact entry counts.
    pub const UNBOUNDED: StoreLimits = StoreLimits {
        max_entries: 0,
        max_bytes: 0,
    };

    /// The [`Default`] limits as a `const` (4096 entries / 64 MiB), so
    /// other defaults can reference them in const position.
    pub const DEFAULT: StoreLimits = StoreLimits {
        max_entries: 4096,
        max_bytes: 64 << 20,
    };
}

/// Storage seam between [`ReplayService`](crate::serve::ReplayService)
/// and its results cache: content-addressed `get`/`put` plus the
/// counters the service surfaces in batch status.
///
/// `get` takes `&mut self` because a lookup is a *touch* — it moves the
/// entry to the back of the LRU queue.
pub trait ResultStore: Send {
    /// Look up a cached outcome's shared bytes, marking it
    /// most-recently-used.
    fn get_json(&mut self, digest: (u64, u64)) -> Option<OutcomeJson>;
    /// Whether an outcome is cached under `digest`, without touching its
    /// LRU position.
    fn contains(&self, digest: (u64, u64)) -> bool;
    /// Insert (or overwrite) an outcome's bytes, evicting LRU entries if
    /// a cap is exceeded. The store keeps `json` itself, not a copy.
    fn put_json(&mut self, digest: (u64, u64), json: OutcomeJson);
    /// [`get_json`](Self::get_json), decoded.
    fn get(&mut self, digest: (u64, u64)) -> Option<Outcome> {
        self.get_json(digest)?.decode().ok()
    }
    /// [`put_json`](Self::put_json) of the outcome's canonical JSON.
    /// Outcomes that fail to serialize are dropped silently — the cache is
    /// an optimisation, a lost insert only costs a future recompute.
    fn put(&mut self, digest: (u64, u64), outcome: &Outcome) {
        if let Ok(json) = OutcomeJson::encode(outcome) {
            self.put_json(digest, json);
        }
    }
    /// Live entries.
    fn len(&self) -> usize;
    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Live bytes (canonical-JSON length + digest, summed over entries).
    fn bytes(&self) -> u64;
    /// Entries evicted by the LRU caps over the store's lifetime.
    fn evictions(&self) -> u64;
    /// Corrupt records skipped while opening a persistent store (empty
    /// for a memory store).
    fn corrupt(&self) -> &[Error] {
        &[]
    }
    /// Flush buffered writes toward the OS (no-op for a memory store).
    fn flush(&mut self) {}
    /// Backend label for banners and status: `"memory"` / `"journal"`.
    fn kind(&self) -> &'static str;
}

/// One cached outcome plus its LRU bookkeeping.
struct Entry {
    json: OutcomeJson,
    /// Logical clock of the last touch; pairs with the lazy LRU queue.
    tick: u64,
}

impl Entry {
    /// The entry's cost against [`StoreLimits::max_bytes`]: the shared
    /// buffer plus 16 digest bytes.
    fn bytes(&self) -> u64 {
        self.json.as_bytes().len() as u64 + 16
    }
}

/// Stale LRU queue slots allowed beyond twice the live entries before
/// the queue is swept.
const LRU_SLACK: usize = 64;

/// The bounded in-memory result store.
///
/// LRU is tracked lazily: every touch pushes `(digest, tick)` onto a
/// queue and stamps the entry with the same tick. Eviction pops from the
/// front and only acts when the popped tick is still the entry's current
/// tick — stale queue entries (from earlier touches) are skipped. Each
/// touch is O(1) amortized: when stale slots outnumber live entries (a
/// hot working set under the caps evicts nothing), one sweep drops them,
/// so the queue stays within twice the live entries plus a constant.
pub struct MemStore {
    limits: StoreLimits,
    entries: HashMap<(u64, u64), Entry>,
    lru: VecDeque<((u64, u64), u64)>,
    bytes: u64,
    evictions: u64,
    tick: u64,
}

impl MemStore {
    /// An empty store with the given caps.
    pub fn new(limits: StoreLimits) -> MemStore {
        MemStore {
            limits,
            entries: HashMap::new(),
            lru: VecDeque::new(),
            bytes: 0,
            evictions: 0,
            tick: 0,
        }
    }

    fn touch(&mut self, digest: (u64, u64)) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(&digest) {
            entry.tick = tick;
        }
        self.lru.push_back((digest, tick));
        if self.lru.len() > 2 * self.entries.len() + LRU_SLACK {
            let entries = &self.entries;
            self.lru
                .retain(|(digest, tick)| entries.get(digest).is_some_and(|e| e.tick == *tick));
        }
    }

    /// Pops LRU entries until both caps hold. Returns evicted digests so
    /// [`JournalStore`] can decide whether a compaction is due.
    fn enforce_caps(&mut self) -> u64 {
        let mut evicted = 0;
        while self.over_cap() {
            let Some((digest, tick)) = self.lru.pop_front() else {
                break;
            };
            let live = self
                .entries
                .get(&digest)
                .is_some_and(|entry| entry.tick == tick);
            if live {
                let entry = self.entries.remove(&digest).expect("checked live");
                self.bytes -= entry.bytes();
                self.evictions += 1;
                evicted += 1;
            }
        }
        evicted
    }

    fn over_cap(&self) -> bool {
        (self.limits.max_entries != 0 && self.entries.len() > self.limits.max_entries)
            || (self.limits.max_bytes != 0 && self.bytes > self.limits.max_bytes)
    }

    /// Live entries ordered by last touch, oldest first — the order a
    /// snapshot is written in, so LRU recency survives a restart.
    fn entries_by_tick(&self) -> Vec<((u64, u64), &OutcomeJson)> {
        let mut live: Vec<_> = self.entries.iter().collect();
        live.sort_by_key(|(_, entry)| entry.tick);
        live.into_iter()
            .map(|(digest, entry)| (*digest, &entry.json))
            .collect()
    }
}

impl ResultStore for MemStore {
    fn get_json(&mut self, digest: (u64, u64)) -> Option<OutcomeJson> {
        if !self.entries.contains_key(&digest) {
            return None;
        }
        self.touch(digest);
        self.entries.get(&digest).map(|entry| entry.json.clone())
    }

    fn put_json(&mut self, digest: (u64, u64), json: OutcomeJson) {
        let entry = Entry { json, tick: 0 };
        self.bytes += entry.bytes();
        if let Some(old) = self.entries.insert(digest, entry) {
            self.bytes -= old.bytes();
        }
        self.touch(digest);
        self.enforce_caps();
    }

    fn contains(&self, digest: (u64, u64)) -> bool {
        self.entries.contains_key(&digest)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

/// One journal record: the digest lanes plus the outcome, serialized as
/// canonical JSON inside a checksummed frame. [`encode_record`] writes
/// this shape by hand around the outcome's stored JSON, so a record never
/// renders the outcome again.
#[derive(Serialize, Deserialize)]
struct Record {
    a: u64,
    b: u64,
    outcome: Outcome,
}

/// Journal grows past this before compaction is even considered.
const COMPACT_FLOOR: u64 = 64 << 10;
/// …and past this multiple of the live working set.
const COMPACT_RATIO: u64 = 4;

/// A [`MemStore`] mirrored to an append-only journal on disk.
///
/// Layout under the state dir: `journal.osp` (the append log) and
/// `snapshot.osp` (the last compaction). See the
/// [module docs](self) for the record format, recovery discipline, and
/// compaction policy.
pub struct JournalStore {
    mem: MemStore,
    dir: PathBuf,
    journal: File,
    journal_bytes: u64,
    corrupt: Vec<Error>,
    compactions: u64,
}

impl JournalStore {
    /// Opens (creating if absent) the store under `dir`, replaying
    /// snapshot + journal into memory and truncating any torn journal
    /// tail left by a crash.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] if the directory or files cannot be
    /// created/read — *corruption* is never an open error, it is
    /// recorded per-record in [`ResultStore::corrupt`].
    pub fn open(dir: &Path, limits: StoreLimits) -> Result<JournalStore, Error> {
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::Unavailable(format!("creating state dir {}: {e}", dir.display()))
        })?;
        let mut mem = MemStore::new(limits);
        let mut corrupt = Vec::new();

        let snapshot_path = dir.join("snapshot.osp");
        if let Ok(bytes) = std::fs::read(&snapshot_path) {
            let scan = scan_records(&bytes);
            for (digest, outcome) in scan.records {
                mem.put(digest, &outcome);
            }
            corrupt.extend(scan.corrupt);
            // A torn snapshot tail (possible only if a pre-rename crash
            // raced something unexpected) is recorded but not truncated:
            // the snapshot is replaced wholesale at the next compaction.
            corrupt.extend(scan.torn);
        }

        let journal_path = dir.join("journal.osp");
        let mut journal = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| Error::Unavailable(format!("opening {}: {e}", journal_path.display())))?;
        let mut bytes = Vec::new();
        journal
            .read_to_end(&mut bytes)
            .map_err(|e| Error::Unavailable(format!("reading {}: {e}", journal_path.display())))?;
        let scan = scan_records(&bytes);
        for (digest, outcome) in scan.records {
            mem.put(digest, &outcome);
        }
        corrupt.extend(scan.corrupt);
        let mut journal_bytes = bytes.len() as u64;
        if let Some(err) = scan.torn {
            // The torn tail of a crashed append: cut the journal back to
            // the last good record boundary so the next append starts on
            // a clean frame.
            corrupt.push(err);
            journal
                .set_len(scan.tail_offset)
                .map_err(|e| Error::Unavailable(format!("truncating torn journal tail: {e}")))?;
            journal
                .seek(SeekFrom::End(0))
                .map_err(|e| Error::Unavailable(format!("seeking journal: {e}")))?;
            journal_bytes = scan.tail_offset;
        }

        Ok(JournalStore {
            mem,
            dir: dir.to_path_buf(),
            journal,
            journal_bytes,
            corrupt,
            compactions: 0,
        })
    }

    /// Compactions performed over this handle's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Bytes currently in the on-disk journal (not the live set).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    fn maybe_compact(&mut self) {
        if self.journal_bytes <= COMPACT_FLOOR
            || self.journal_bytes <= COMPACT_RATIO * self.mem.bytes().max(1)
        {
            return;
        }
        if self.compact().is_err() {
            // Compaction is an optimisation; a failed one leaves the
            // journal intact and correct, just longer than ideal.
        }
    }

    /// Rewrites the live set as `snapshot.osp` (atomically, via a tmp
    /// file + rename) and truncates the journal to zero.
    fn compact(&mut self) -> std::io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut out = File::create(&tmp)?;
            for (digest, json) in self.mem.entries_by_tick() {
                if let Some(frame) = encode_record(digest, json) {
                    out.write_all(&frame)?;
                }
            }
            out.flush()?;
        }
        std::fs::rename(&tmp, self.dir.join("snapshot.osp"))?;
        self.journal.set_len(0)?;
        self.journal.seek(SeekFrom::End(0))?;
        self.journal_bytes = 0;
        self.compactions += 1;
        Ok(())
    }
}

impl ResultStore for JournalStore {
    fn get_json(&mut self, digest: (u64, u64)) -> Option<OutcomeJson> {
        self.mem.get_json(digest)
    }

    fn put_json(&mut self, digest: (u64, u64), json: OutcomeJson) {
        if let Some(frame) = encode_record(digest, &json) {
            self.mem.put_json(digest, json);
            if self.journal.write_all(&frame).is_ok() {
                self.journal_bytes += frame.len() as u64;
                // Push the bytes to the OS now: the page cache survives
                // `kill -9`, which is the crash model here. (Power-loss
                // durability would need fsync; the replay cache does not
                // warrant that cost — a lost record is a recompute.)
                let _ = self.journal.flush();
            }
        }
        self.maybe_compact();
    }

    fn contains(&self, digest: (u64, u64)) -> bool {
        self.mem.contains(digest)
    }

    fn len(&self) -> usize {
        self.mem.len()
    }

    fn bytes(&self) -> u64 {
        self.mem.bytes()
    }

    fn evictions(&self) -> u64 {
        self.mem.evictions()
    }

    fn corrupt(&self) -> &[Error] {
        &self.corrupt
    }

    fn flush(&mut self) {
        let _ = self.journal.flush();
    }

    fn kind(&self) -> &'static str {
        "journal"
    }
}

/// Encodes one record as its on-disk frame: `u32`-LE payload length,
/// then 8-byte LE FNV-1a checksum over the JSON, then the JSON bytes of a
/// [`Record`], with the outcome's stored bytes copied in. `None` if the
/// record would exceed [`MAX_FRAME_LEN`] (dropped, never panicked on).
fn encode_record(digest: (u64, u64), json: &OutcomeJson) -> Option<Vec<u8>> {
    let json = json.as_bytes();
    // Length and checksum placeholders, then the record's JSON.
    let mut frame = Vec::with_capacity(60 + json.len());
    frame.extend_from_slice(&[0; 12]);
    write!(frame, r#"{{"a":{},"b":{},"outcome":"#, digest.0, digest.1).ok()?;
    frame.extend_from_slice(json);
    frame.push(b'}');
    let payload_len = frame.len() - 4;
    if payload_len > MAX_FRAME_LEN {
        return None;
    }
    let checksum = fnv1a(&frame[12..]);
    frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    frame[4..12].copy_from_slice(&checksum.to_le_bytes());
    Some(frame)
}

/// The result of scanning a journal byte-for-byte.
struct Scan {
    /// Records that decoded and passed their checksum, in file order.
    records: Vec<((u64, u64), Outcome)>,
    /// Complete-but-bad records, skipped.
    corrupt: Vec<Error>,
    /// The torn-tail error, if the file ends mid-record.
    torn: Option<Error>,
    /// Offset of the last good record boundary — where a torn tail is
    /// truncated to.
    tail_offset: u64,
}

/// Walks `bytes` frame by frame. Never panics, whatever the input: a
/// frame whose checksum or JSON fails is skipped (recorded as
/// [`Error::Corrupt`] at its offset) and scanning continues at the next
/// frame boundary; a frame that runs past the end of the buffer — or
/// claims a length over [`MAX_FRAME_LEN`], which destroys framing — is a
/// torn tail and ends the scan.
fn scan_records(bytes: &[u8]) -> Scan {
    let mut scan = Scan {
        records: Vec::new(),
        corrupt: Vec::new(),
        torn: None,
        tail_offset: 0,
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(header) = bytes.get(offset..offset + 4) else {
            scan.torn = Some(Error::Corrupt {
                offset: offset as u64,
                cause: format!(
                    "torn record header ({} trailing bytes)",
                    bytes.len() - offset
                ),
            });
            return scan;
        };
        let len = u32::from_le_bytes(header.try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME_LEN {
            scan.torn = Some(Error::Corrupt {
                offset: offset as u64,
                cause: format!("record length {len} exceeds frame cap"),
            });
            return scan;
        }
        let Some(payload) = bytes.get(offset + 4..offset + 4 + len) else {
            scan.torn = Some(Error::Corrupt {
                offset: offset as u64,
                cause: format!(
                    "torn record body (want {len} bytes, {} remain)",
                    bytes.len() - offset - 4
                ),
            });
            return scan;
        };
        match decode_payload(payload) {
            Ok((digest, outcome)) => scan.records.push((digest, outcome)),
            Err(cause) => scan.corrupt.push(Error::Corrupt {
                offset: offset as u64,
                cause,
            }),
        }
        offset += 4 + len;
        scan.tail_offset = offset as u64;
    }
    scan
}

/// Checks the payload's checksum and decodes its JSON into a record.
fn decode_payload(payload: &[u8]) -> Result<((u64, u64), Outcome), String> {
    if payload.len() < 8 {
        return Err(format!(
            "payload too short for checksum ({} bytes)",
            payload.len()
        ));
    }
    let (sum, json) = payload.split_at(8);
    let want = u64::from_le_bytes(sum.try_into().expect("8-byte slice"));
    let got = fnv1a(json);
    if want != got {
        return Err(format!(
            "checksum mismatch (stored {want:#018x}, computed {got:#018x})"
        ));
    }
    let record: Record =
        serde_json::from_slice(json).map_err(|e| format!("payload not a record: {e}"))?;
    Ok(((record.a, record.b), record.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::RandomInstanceConfig;
    use crate::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};

    /// A few distinct real outcomes (digest, outcome) to exercise stores
    /// with — produced by the actual engine so JSON shape is realistic.
    fn samples(n: u64) -> Vec<((u64, u64), Outcome)> {
        (0..n)
            .map(|trial| {
                let job = JobSpec {
                    scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(12, 30, 3)),
                    algorithm: AlgorithmSpec::RandPr,
                    seed: 7000 + trial,
                };
                let outcome = run_spec(&job, &CoreResolver).expect("sample outcome");
                (crate::serve::job_digest(&job).expect("digest"), outcome)
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_store_round_trips_and_counts_bytes() {
        let mut store = MemStore::new(StoreLimits::UNBOUNDED);
        let samples = samples(3);
        for (digest, outcome) in &samples {
            store.put(*digest, outcome);
        }
        assert_eq!(store.len(), 3);
        assert!(store.bytes() > 0);
        assert_eq!(store.evictions(), 0);
        for (digest, outcome) in &samples {
            assert_eq!(store.get(*digest).as_ref(), Some(outcome));
        }
        assert!(store.get((1, 2)).is_none());
        // Overwriting the same digest does not double-count bytes.
        let before = store.bytes();
        store.put(samples[0].0, &samples[0].1);
        assert_eq!(store.bytes(), before);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn stored_outcomes_are_shared_not_copied() {
        let mut store = MemStore::new(StoreLimits::UNBOUNDED);
        let (digest, outcome) = samples(1).remove(0);
        let json = OutcomeJson::encode(&outcome).expect("encode");
        store.put_json(digest, json.clone());
        let got = store.get_json(digest).expect("hit");
        assert_eq!(got.as_bytes().as_ptr(), json.as_bytes().as_ptr());
        assert_eq!(got.decode().expect("decode"), outcome);
        assert_eq!(store.bytes(), json.as_bytes().len() as u64 + 16);
    }

    #[test]
    fn lru_queue_stays_bounded_when_nothing_is_evicted() {
        let mut store = MemStore::new(StoreLimits::DEFAULT);
        let samples = samples(4);
        for (digest, outcome) in &samples {
            store.put(*digest, outcome);
        }
        for _ in 0..10_000 {
            for (digest, _) in &samples {
                assert!(store.get_json(*digest).is_some());
            }
        }
        assert!(store.lru.len() <= 2 * store.len() + LRU_SLACK);
        assert_eq!(store.evictions(), 0);
        // The sweep keeps recency: the least recently touched goes first.
        let mut capped = MemStore::new(StoreLimits {
            max_entries: 3,
            max_bytes: 0,
        });
        for (digest, outcome) in &samples[..3] {
            capped.put(*digest, outcome);
        }
        for _ in 0..1000 {
            capped.get_json(samples[0].0);
            capped.get_json(samples[2].0);
        }
        capped.put(samples[3].0, &samples[3].1);
        assert!(capped.get_json(samples[1].0).is_none());
        assert!(capped.get_json(samples[0].0).is_some());
    }

    #[test]
    fn journal_records_keep_the_derived_record_bytes() {
        for (digest, outcome) in samples(3)
            .into_iter()
            .chain([((u64::MAX, 0), samples(1)[0].1.clone())])
        {
            let json = OutcomeJson::encode(&outcome).expect("encode");
            let frame = encode_record(digest, &json).expect("frame");
            let json_len = json.as_bytes().len();
            let record = Record {
                a: digest.0,
                b: digest.1,
                outcome: outcome.clone(),
            };
            let want = serde_json::to_string(&record).unwrap();
            assert_eq!(&frame[12..], want.as_bytes());
            assert_eq!(frame[..4], ((want.len() + 8) as u32).to_le_bytes());
            assert_eq!(frame[4..12], fnv1a(want.as_bytes()).to_le_bytes());
            assert_eq!(json_len, serde_json::to_string(&outcome).unwrap().len());
            // A journaled entry weighs what a memory-only one does.
            let mut mem = MemStore::new(StoreLimits::UNBOUNDED);
            mem.put(digest, &outcome);
            assert_eq!(mem.bytes(), json_len as u64 + 16);
        }
    }

    #[test]
    fn mem_store_evicts_least_recently_touched_first() {
        let mut store = MemStore::new(StoreLimits {
            max_entries: 2,
            max_bytes: 0,
        });
        let samples = samples(3);
        store.put(samples[0].0, &samples[0].1);
        store.put(samples[1].0, &samples[1].1);
        // Touch [0] so [1] becomes the LRU entry…
        assert!(store.get(samples[0].0).is_some());
        // …then a third insert must evict [1], not [0].
        store.put(samples[2].0, &samples[2].1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(
            store.get(samples[0].0).is_some(),
            "recently touched survives"
        );
        assert!(store.get(samples[1].0).is_none(), "LRU entry evicted");
        assert!(store.get(samples[2].0).is_some());
    }

    #[test]
    fn mem_store_byte_cap_evicts() {
        let samples = samples(4);
        let one = {
            let mut probe = MemStore::new(StoreLimits::UNBOUNDED);
            probe.put(samples[0].0, &samples[0].1);
            probe.bytes()
        };
        // Cap at roughly two entries' worth of bytes.
        let mut store = MemStore::new(StoreLimits {
            max_entries: 0,
            max_bytes: one * 2 + one / 2,
        });
        for (digest, outcome) in &samples {
            store.put(*digest, outcome);
        }
        assert!(
            store.len() < 4,
            "byte cap must evict ({} live)",
            store.len()
        );
        assert!(store.bytes() <= one * 2 + one / 2);
        assert_eq!(store.evictions() as usize, 4 - store.len());
    }

    #[test]
    fn journal_store_survives_reopen_bit_identically() {
        let dir = tmp_dir("reopen");
        let samples = samples(3);
        {
            let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("open");
            assert_eq!(store.kind(), "journal");
            for (digest, outcome) in &samples {
                store.put(*digest, outcome);
            }
            // No clean shutdown: the handle is dropped mid-flight, as a
            // `kill -9` would leave it.
        }
        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("reopen");
        assert_eq!(store.len(), 3);
        assert!(store.corrupt().is_empty(), "{:?}", store.corrupt());
        for (digest, outcome) in &samples {
            assert_eq!(
                store.get(*digest).as_ref(),
                Some(outcome),
                "bit-identical reload"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_store_truncates_torn_tail_and_keeps_good_prefix() {
        let dir = tmp_dir("torn");
        let samples = samples(2);
        {
            let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("open");
            for (digest, outcome) in &samples {
                store.put(*digest, outcome);
            }
        }
        // Simulate a crash mid-append: chop the last record in half.
        let path = dir.join("journal.osp");
        let bytes = std::fs::read(&path).expect("read journal");
        std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("tear tail");

        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("reopen");
        assert_eq!(store.len(), 1, "good prefix survives");
        assert_eq!(store.get(samples[0].0).as_ref(), Some(&samples[0].1));
        assert_eq!(store.corrupt().len(), 1);
        assert!(
            matches!(store.corrupt()[0], Error::Corrupt { .. }),
            "{:?}",
            store.corrupt()
        );
        // The tail was truncated: a fresh append lands on a clean frame.
        store.put(samples[1].0, &samples[1].1);
        drop(store);
        let store = JournalStore::open(&dir, StoreLimits::default()).expect("re-reopen");
        assert_eq!(store.len(), 2);
        assert!(store.corrupt().is_empty(), "{:?}", store.corrupt());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_store_skips_bit_flipped_record_with_typed_error() {
        let dir = tmp_dir("flip");
        let samples = samples(3);
        {
            let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("open");
            for (digest, outcome) in &samples {
                store.put(*digest, outcome);
            }
        }
        // Flip one byte inside the *second* record's payload.
        let path = dir.join("journal.osp");
        let mut bytes = std::fs::read(&path).expect("read journal");
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let target = 4 + first_len + 4 + 20;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).expect("flip");

        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("reopen");
        assert_eq!(store.len(), 2, "flipped record skipped, neighbours kept");
        assert_eq!(store.get(samples[0].0).as_ref(), Some(&samples[0].1));
        assert!(store.get(samples[1].0).is_none());
        assert_eq!(store.get(samples[2].0).as_ref(), Some(&samples[2].1));
        match &store.corrupt()[0] {
            Error::Corrupt { offset, cause } => {
                assert_eq!(*offset, (4 + first_len) as u64);
                assert!(cause.contains("checksum"), "{cause}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_store_compacts_into_snapshot() {
        let dir = tmp_dir("compact");
        let samples = samples(2);
        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("open");
        // Hammer the same two digests until the journal passes the
        // compaction floor — stale bytes pile up, live set stays tiny.
        let mut compacted = false;
        for _ in 0..4000 {
            for (digest, outcome) in &samples {
                store.put(*digest, outcome);
            }
            if store.compactions() > 0 {
                compacted = true;
                break;
            }
        }
        assert!(compacted, "journal never compacted");
        assert!(store.journal_bytes() < COMPACT_FLOOR);
        assert!(dir.join("snapshot.osp").exists());
        drop(store);
        // The snapshot + journal pair reload to the same live set.
        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("reopen");
        assert_eq!(store.len(), 2);
        for (digest, outcome) in &samples {
            assert_eq!(store.get(*digest).as_ref(), Some(outcome));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_store_applies_lru_caps_on_replay() {
        let dir = tmp_dir("caps");
        let samples = samples(4);
        {
            let mut store = JournalStore::open(&dir, StoreLimits::UNBOUNDED).expect("open");
            for (digest, outcome) in &samples {
                store.put(*digest, outcome);
            }
        }
        // Reopen with a 2-entry cap: replay itself enforces LRU, keeping
        // the most recently written entries.
        let mut store = JournalStore::open(
            &dir,
            StoreLimits {
                max_entries: 2,
                max_bytes: 0,
            },
        )
        .expect("reopen");
        assert_eq!(store.len(), 2);
        assert!(store.get(samples[2].0).is_some());
        assert!(store.get(samples[3].0).is_some());
        assert!(store.get(samples[0].0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_digest_journal_records_still_answer_from_cache() {
        // A record exactly as earlier builds journaled it: the outcome
        // carries its full `decisions` log and no digest.
        let dir = tmp_dir("legacy");
        std::fs::create_dir_all(&dir).expect("state dir");
        let json = r#"{"a":11,"b":22,"outcome":{"completed":[0,2],"benefit":3.0,"decisions":{"offsets":[0,1,2,3],"data":[0,0,2]},"died_at":[null,0,null]}}"#;
        let mut frame = Vec::new();
        frame.extend_from_slice(&((json.len() + 8) as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(json.as_bytes()).to_le_bytes());
        frame.extend_from_slice(json.as_bytes());
        std::fs::write(dir.join("journal.osp"), &frame).expect("write legacy journal");

        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("open");
        assert!(store.corrupt().is_empty(), "{:?}", store.corrupt());
        let got = store.get((11, 22)).expect("the legacy record answers");
        let log = crate::engine::DecisionLog::from_parts(
            vec![0, 1, 2, 3],
            vec![crate::SetId(0), crate::SetId(0), crate::SetId(2)],
        )
        .expect("valid log");
        assert_eq!(got.digest(), log.digest(), "the log folds into the digest");
        assert_eq!((got.arrivals(), got.assignments()), (3, 3));
        assert_eq!(got.completed(), &[crate::SetId(0), crate::SetId(2)]);
        assert_eq!(got.benefit(), 3.0);
        assert_eq!(got.died_at(crate::SetId(1)), Some(crate::ElementId(0)));

        // Re-journaled in the current shape, it reloads to the same outcome.
        store.put((11, 22), &got);
        drop(store);
        let mut store = JournalStore::open(&dir, StoreLimits::default()).expect("reopen");
        assert!(store.corrupt().is_empty(), "{:?}", store.corrupt());
        assert_eq!(store.get((11, 22)).as_ref(), Some(&got));
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        type JournalSamples = Vec<((u64, u64), Outcome)>;

        /// A valid journal's bytes plus the records it encodes.
        fn valid_journal() -> (Vec<u8>, JournalSamples) {
            let samples = samples(4);
            let mut bytes = Vec::new();
            for (digest, outcome) in &samples {
                let json = OutcomeJson::encode(outcome).expect("encode");
                bytes.extend_from_slice(&encode_record(*digest, &json).expect("frame"));
            }
            (bytes, samples)
        }

        proptest! {
            /// Random byte flips over a valid journal: scanning never
            /// panics, and every record that *does* survive is
            /// bit-identical to one of the originals (the checksum
            /// gate).
            #[test]
            fn scan_survives_random_bit_flips(
                flips in proptest::collection::vec((0usize..4096, 0u8..=255u8), 1..8)
            ) {
                let (mut bytes, originals) = valid_journal();
                for (pos, mask) in flips {
                    let pos = pos % bytes.len();
                    bytes[pos] ^= mask;
                }
                let scan = scan_records(&bytes);
                for (digest, outcome) in &scan.records {
                    let original = originals
                        .iter()
                        .find(|(d, _)| d == digest)
                        .map(|(_, o)| o);
                    prop_assert_eq!(original, Some(outcome));
                }
                prop_assert!(scan.tail_offset <= bytes.len() as u64);
            }

            /// Random truncations: the scan keeps the whole-record
            /// prefix and flags the torn tail, never panicking.
            #[test]
            fn scan_survives_random_truncation(cut in 0usize..2048) {
                let (bytes, originals) = valid_journal();
                let cut = cut % (bytes.len() + 1);
                let scan = scan_records(&bytes[..cut]);
                prop_assert!(scan.records.len() <= originals.len());
                for (i, (digest, outcome)) in scan.records.iter().enumerate() {
                    prop_assert_eq!(digest, &originals[i].0);
                    prop_assert_eq!(outcome, &originals[i].1);
                }
                prop_assert!(scan.corrupt.is_empty());
                if cut < bytes.len() {
                    prop_assert!(scan.torn.is_some() || scan.tail_offset == cut as u64);
                }
            }

            /// Arbitrary garbage bytes: never a panic, never a record.
            #[test]
            fn scan_survives_garbage(bytes in proptest::collection::vec(0u8..=255u8, 0..512)) {
                let scan = scan_records(&bytes);
                prop_assert!(scan.records.is_empty() || !bytes.is_empty());
            }
        }
    }
}
