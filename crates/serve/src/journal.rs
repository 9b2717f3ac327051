//! Per-shard write-ahead journal: the daemon's durability layer.
//!
//! Sessions are event-sourced. The
//! [`OnlineController`](perpetuum_online::OnlineController) is a pure,
//! deterministic state machine (see `perpetuum_online::snapshot`), so a
//! session's complete state is its genesis — the [`ControllerSeed`]
//! captured at `POST /session` — plus every telemetry batch it has
//! *accepted* since. The journal appends exactly those events:
//!
//! * `Create` — session id + seed, written **before** the session becomes
//!   visible in the store, so no accepted frame can ever precede its
//!   genesis in the log;
//! * `Frames` — the accepted telemetry frames of one ingest, encoded with
//!   the existing PBT1 codec ([`wire::encode_frames`]), appended while
//!   the session's slot lock is still held so the journal order of one
//!   session equals its ingest order;
//! * `End` — the session was deleted, LRU-evicted, or quarantined after a
//!   panic; replay stops resurrecting it, and a later session at a new id
//!   can never inherit its state (ids are never reused).
//!
//! There is one `shard-<i>.wal` per session-store shard, selected by the
//! same multiplicative hash the store uses — all records of one session
//! live in one file in ingest order, and concurrent sessions on different
//! shards never contend on a journal lock. Each record is framed
//! `u32 len · u32 crc32 · u8 tag · body`; replay verifies the CRC and
//! stops at the first incomplete or corrupt record, so a crash mid-append
//! (or a `kill -9` mid-`write`) costs at most the unacknowledged tail —
//! every record whose `200` the client saw is intact, because the append
//! happens before the response is written.
//!
//! **Snapshots** are log compaction, not state dumps: when a shard's WAL
//! grows past `compact_every` records (and on graceful drain), the shard
//! rewrites `snap` + `wal` into a fresh `shard-<i>.snap` keeping only the
//! records of sessions that are still live, then truncates the WAL. The
//! snapshot replacement is atomic (tmp-file + rename), but the *pair* of
//! steps is not — a `kill -9` between the rename and the truncation
//! leaves a snapshot that already folds the WAL's records next to the
//! un-truncated WAL, and replaying both would double-ingest the tail.
//! `Epoch` records close that window: every WAL opens with the
//! generation it belongs to, every snapshot opens with the highest
//! generation it has folded in, and recovery (and a retried compaction)
//! skips any WAL whose generation is not strictly newer than its
//! snapshot's. A byte-identical recovery *must* replay the accepted
//! stream (a field dump of controller internals could not be proven
//! faithful); compaction merely drops the streams of dead sessions.
//! After a clean drain every WAL holds only its epoch marker and restart
//! replays zero WAL records.
//!
//! `--fsync-policy` trades durability for throughput: `always` fsyncs
//! every append inline (power-loss safe), `batch` hands fsync to a
//! background flusher thread — kicked once a shard accumulates
//! [`BATCH_FSYNC_RECORDS`] unsynced appends, sweeping at least every
//! `FLUSH_INTERVAL` while anything is dirty — so the request path never
//! waits on the disk; `never` only fsyncs on drain. Appends are *group
//! committed*: they stage encoded records in a per-shard buffer, and
//! handlers [`flush`](JournalSet::flush) — one `write()` per dirty shard
//! — before acknowledging the request, so every acknowledged record is
//! in the kernel and a daemon crash (`kill -9`) loses nothing under any
//! policy; the page cache survives the process, and the policy only
//! governs what an OS/power failure can take.

use crate::metrics::Metrics;
use crate::session::shard_index;
use crate::wire::{self, Frame, Reader, WireError, Writer};
use perpetuum_online::{ControllerSeed, OnlineConfig};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Unsynced appends that make a shard kick the background flusher under
/// [`FsyncPolicy::Batch`].
pub const BATCH_FSYNC_RECORDS: u64 = 64;

/// How long the batch flusher sleeps between sweeps when nobody kicks it.
const FLUSH_INTERVAL: Duration = Duration::from_millis(50);

/// Minimum spacing between flusher sweeps, kicks included: under a hot
/// ingest load, shards cross [`BATCH_FSYNC_RECORDS`] constantly, and
/// fsync storms stall the appenders' `write()`s on the same inodes.
const FLUSH_MIN_SPACING: Duration = Duration::from_millis(10);

/// Default WAL records per shard before an automatic compaction.
pub const DEFAULT_COMPACT_EVERY: u64 = 4096;

/// Bytes of record framing before the body: length, CRC, tag.
const HEADER_BYTES: usize = 4 + 4 + 1;

const TAG_CREATE: u8 = 1;
const TAG_FRAMES: u8 = 2;
const TAG_END: u8 = 3;
const TAG_EPOCH: u8 = 4;

/// Encoded size of an `Epoch` record (header + `u64` body) — enough
/// bytes to sniff a file's leading generation marker without reading the
/// whole file.
/// On-disk size of an [`Record::Epoch`] marker — what a drained WAL
/// holds instead of being empty.
pub const EPOCH_RECORD_BYTES: usize = HEADER_BYTES + 8;

// --- fsync policy --------------------------------------------------------

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged frame survives power
    /// loss.
    Always,
    /// A background thread fsyncs dirty shards — kicked every
    /// [`BATCH_FSYNC_RECORDS`] appends, sweeping at least every
    /// `FLUSH_INTERVAL` — and drain fsyncs everything: an acknowledged
    /// frame survives any daemon crash; power loss can cost the unsynced
    /// tail (bounded by the kick threshold plus one sweep interval).
    #[default]
    Batch,
    /// No explicit `fsync` until drain: durability is whatever the OS
    /// page cache gives.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync-policy` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(Self::Always),
            "batch" => Some(Self::Batch),
            "never" => Some(Self::Never),
            _ => None,
        }
    }

    /// The flag spelling of this policy.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Batch => "batch",
            Self::Never => "never",
        }
    }
}

// --- CRC32 (IEEE, reflected) --------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3) over `bytes` — guards every journal record against
/// torn writes and bit rot without any new dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// --- records -------------------------------------------------------------

/// Why a session's journal stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// `DELETE /session/{id}`.
    Deleted,
    /// LRU eviction made room for a newer session.
    Evicted,
    /// A panic during ingest poisoned the session; it was quarantined.
    Quarantined,
}

impl EndReason {
    fn tag(self) -> u8 {
        match self {
            Self::Deleted => 0,
            Self::Evicted => 1,
            Self::Quarantined => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Self::Deleted),
            1 => Ok(Self::Evicted),
            2 => Ok(Self::Quarantined),
            other => Err(WireError::BadTag { field: "end reason", value: other }),
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A session was created: its id and everything needed to rebuild its
    /// controller from scratch.
    Create {
        /// The session id the store assigned.
        id: u64,
        /// The controller's construction arguments.
        seed: ControllerSeed,
    },
    /// Accepted telemetry frames (PBT1 body), in ingest order.
    Frames(Vec<Frame>),
    /// A session's stream ended; replay must not resurrect it.
    End {
        /// The ended session.
        id: u64,
        /// Why it ended.
        reason: EndReason,
    },
    /// Generation marker, always the first record of a file. In a WAL it
    /// names the generation its records belong to; in a snapshot it names
    /// the highest WAL generation the snapshot has folded in. Recovery
    /// replays a WAL only when its generation is strictly newer than its
    /// snapshot's — the equal/older case is exactly what a crash between
    /// a compaction's snapshot rename and its WAL truncation leaves
    /// behind, and replaying it would duplicate the folded records.
    Epoch {
        /// The monotonically increasing compaction generation.
        generation: u64,
    },
}

fn encode_seed(w: &mut Writer, seed: &ControllerSeed) {
    w.put_u32(seed.sensors.len() as u32);
    for &(x, y) in &seed.sensors {
        w.put_f64(x);
        w.put_f64(y);
    }
    w.put_u32(seed.depots.len() as u32);
    for &(x, y) in &seed.depots {
        w.put_f64(x);
        w.put_f64(y);
    }
    for &c in &seed.capacities {
        w.put_f64(c);
    }
    for &r in &seed.initial_rates {
        w.put_f64(r);
    }
    let cfg = &seed.config;
    w.put_f64(cfg.horizon);
    w.put_f64(cfg.gamma);
    // Reserved: the slot once held a tour-polish round count. Writing 0
    // keeps every record byte-identical to journals that predate its
    // removal.
    w.put_u64(0);
    w.put_f64(cfg.margin);
    w.put_f64(cfg.emergency_slack);
}

fn decode_seed(r: &mut Reader<'_>) -> Result<ControllerSeed, WireError> {
    let n = r.get_count("seed sensors", 16)?;
    let mut sensors = Vec::with_capacity(n);
    for _ in 0..n {
        sensors.push((r.get_f64()?, r.get_f64()?));
    }
    let q = r.get_count("seed depots", 16)?;
    let mut depots = Vec::with_capacity(q);
    for _ in 0..q {
        depots.push((r.get_f64()?, r.get_f64()?));
    }
    let mut capacities = Vec::with_capacity(n);
    for _ in 0..n {
        capacities.push(r.get_f64()?);
    }
    let mut initial_rates = Vec::with_capacity(n);
    for _ in 0..n {
        initial_rates.push(r.get_f64()?);
    }
    let mut config = OnlineConfig::new(r.get_f64()?);
    config.gamma = r.get_f64()?;
    r.get_u64()?; // reserved slot, see `encode_seed`
    config.margin = r.get_f64()?;
    config.emergency_slack = r.get_f64()?;
    Ok(ControllerSeed { sensors, depots, capacities, initial_rates, config })
}

/// Frames the record as `u32 len · u32 crc · u8 tag · body`.
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut body = Writer::default();
    let tag = match record {
        Record::Create { id, seed } => {
            body.put_u64(*id);
            encode_seed(&mut body, seed);
            TAG_CREATE
        }
        Record::Frames(frames) => {
            body.put_bytes(&wire::encode_frames(frames));
            TAG_FRAMES
        }
        Record::End { id, reason } => {
            body.put_u64(*id);
            body.put_u8(reason.tag());
            TAG_END
        }
        Record::Epoch { generation } => {
            body.put_u64(*generation);
            TAG_EPOCH
        }
    };
    let body = body.into_bytes();
    let mut framed = Writer::with_capacity(HEADER_BYTES + body.len());
    framed.put_u32((1 + body.len()) as u32);
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(tag);
    payload.extend_from_slice(&body);
    framed.put_u32(crc32(&payload));
    framed.put_bytes(&payload);
    framed.into_bytes()
}

fn decode_body(tag: u8, body: &[u8]) -> Result<Record, WireError> {
    match tag {
        TAG_CREATE => {
            let mut r = Reader::new(body);
            let id = r.get_u64()?;
            let seed = decode_seed(&mut r)?;
            r.finish()?;
            Ok(Record::Create { id, seed })
        }
        TAG_FRAMES => Ok(Record::Frames(wire::decode_frames(body)?)),
        TAG_END => {
            let mut r = Reader::new(body);
            let id = r.get_u64()?;
            let reason = EndReason::from_tag(r.get_u8()?)?;
            r.finish()?;
            Ok(Record::End { id, reason })
        }
        TAG_EPOCH => {
            let mut r = Reader::new(body);
            let generation = r.get_u64()?;
            r.finish()?;
            Ok(Record::Epoch { generation })
        }
        other => Err(WireError::BadTag { field: "record tag", value: other }),
    }
}

/// A decoded journal file: every record up to the first incomplete or
/// corrupt one.
#[derive(Debug, Default)]
pub struct DecodedLog {
    /// The intact records, in file order.
    pub records: Vec<Record>,
    /// Bytes consumed by the intact prefix.
    pub clean_bytes: usize,
    /// True when the file carried a torn/corrupt tail that was dropped.
    pub truncated: bool,
}

/// Decodes a journal file with crash-tolerant tail semantics: a record
/// whose header, body, or CRC is incomplete or wrong ends the scan. That
/// is exactly the state a `kill -9` mid-append leaves behind — everything
/// before the tear was acknowledged and is kept, the tear itself never
/// was and is dropped.
pub fn decode_log(bytes: &[u8]) -> DecodedLog {
    let mut out = DecodedLog::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < HEADER_BYTES {
            out.truncated = true;
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        let payload_start = pos + 8;
        if len == 0 || bytes.len() - payload_start < len {
            out.truncated = true;
            break;
        }
        let payload = &bytes[payload_start..payload_start + len];
        if crc32(payload) != crc {
            out.truncated = true;
            break;
        }
        match decode_body(payload[0], &payload[1..]) {
            Ok(record) => out.records.push(record),
            Err(_) => {
                // A CRC-valid but undecodable record: treat like any other
                // tail corruption — keep the clean prefix, stop here.
                out.truncated = true;
                break;
            }
        }
        pos = payload_start + len;
        out.clean_bytes = pos;
    }
    out
}

// --- the journal set -----------------------------------------------------

/// One shard's WAL file plus its flush/compaction bookkeeping.
struct ShardFile {
    wal: File,
    /// Encoded records staged since the last [`JournalSet::flush`] —
    /// group commit: appends memcpy here, flush issues one `write()`.
    staged: Vec<u8>,
    /// Records inside `staged`.
    staged_records: u64,
    /// Bytes known written at a record boundary — the rollback point if
    /// a flush `write()` fails partway.
    wal_len: u64,
    /// Flushed records since the last fsync (drives [`FsyncPolicy::Batch`]).
    unsynced: u64,
    /// Whether this shard has already kicked the flusher since its last
    /// sync (so a hot shard kicks once per batch, not once per append).
    flush_pending: bool,
    /// WAL records since the last compaction (drives auto-compaction).
    wal_records: u64,
    /// The generation the WAL currently belongs to — always strictly
    /// greater than the on-disk snapshot's, which is what lets recovery
    /// and compaction retries tell a live WAL from one whose records a
    /// crashed compaction already folded into the snapshot.
    epoch: u64,
}

/// Truncates a shard's WAL and writes `generation`'s epoch marker as its
/// first record, fsyncing so a power loss cannot persist later records
/// without the marker that scopes them. Called with the shard lock held
/// (or before the shard is shared).
fn stamp_wal(shard: &mut ShardFile, generation: u64, metrics: &Metrics) -> std::io::Result<()> {
    let header = encode_record(&Record::Epoch { generation });
    shard.wal.set_len(0)?;
    shard.wal.seek(std::io::SeekFrom::Start(0))?;
    shard.wal.write_all(&header)?;
    shard.wal.sync_data()?;
    metrics.journal_bytes_written.fetch_add(header.len() as u64, Relaxed);
    metrics.journal_fsyncs.fetch_add(1, Relaxed);
    shard.wal_len = header.len() as u64;
    shard.epoch = generation;
    shard.wal_records = 0;
    shard.unsynced = 0;
    shard.flush_pending = false;
    Ok(())
}

/// Wakes the batch flusher and tells it when to stop.
#[derive(Default)]
struct FlushSignal {
    state: Mutex<FlushState>,
    wake: Condvar,
}

#[derive(Default)]
struct FlushState {
    stop: bool,
    kicked: bool,
}

/// Background fsync for [`FsyncPolicy::Batch`]: the request path only
/// `write()`s; this thread clones each dirty shard's file handle under
/// the shard lock and fsyncs *outside* it, so appenders never wait on
/// the disk.
struct Flusher {
    signal: Arc<FlushSignal>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    fn spawn(shards: Arc<Vec<Mutex<ShardFile>>>, metrics: Arc<Metrics>) -> Self {
        let signal = Arc::new(FlushSignal::default());
        let sig = Arc::clone(&signal);
        let thread = std::thread::Builder::new()
            .name("journal-flush".into())
            .spawn(move || loop {
                let stop = {
                    let state = sig.state.lock().unwrap_or_else(|e| e.into_inner());
                    let (mut state, _) = sig
                        .wake
                        .wait_timeout_while(state, FLUSH_INTERVAL, |s| !s.stop && !s.kicked)
                        .unwrap_or_else(|e| e.into_inner());
                    state.kicked = false;
                    state.stop
                };
                for shard in shards.iter() {
                    let dirty = {
                        let mut shard = match shard.lock() {
                            Ok(guard) => guard,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        if shard.unsynced == 0 {
                            None
                        } else {
                            shard.unsynced = 0;
                            shard.flush_pending = false;
                            shard.wal.try_clone().ok()
                        }
                    };
                    if let Some(file) = dirty {
                        if file.sync_data().is_ok() {
                            metrics.journal_fsyncs.fetch_add(1, Relaxed);
                        }
                    }
                }
                if stop {
                    break;
                }
                std::thread::sleep(FLUSH_MIN_SPACING);
            })
            .expect("spawn journal-flush thread");
        Self { signal, thread: Some(thread) }
    }

    /// Asks for a sweep soon (a shard crossed the batch threshold).
    fn kick(&self) {
        let mut state = self.signal.state.lock().unwrap_or_else(|e| e.into_inner());
        state.kicked = true;
        self.signal.wake.notify_one();
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        {
            let mut state = self.signal.state.lock().unwrap_or_else(|e| e.into_inner());
            state.stop = true;
        }
        self.signal.wake.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The daemon's journal: one WAL + snapshot pair per session-store shard
/// under `--data-dir`.
pub struct JournalSet {
    dir: PathBuf,
    shard_count: usize,
    policy: FsyncPolicy,
    compact_every: u64,
    shards: Arc<Vec<Mutex<ShardFile>>>,
    /// One flag per shard: set when records are staged, cleared by flush.
    /// Lets [`flush`](Self::flush) skip clean shards without locking them
    /// — a single-session request touches one shard, not all of them.
    dirty: Vec<std::sync::atomic::AtomicBool>,
    metrics: Arc<Metrics>,
    flusher: Option<Flusher>,
    /// Test hook: when set, [`flush`](Self::flush) fails without touching
    /// the files — exercises the handlers' fail-stop paths.
    #[cfg(test)]
    pub(crate) fail_flush: std::sync::atomic::AtomicBool,
}

/// What a recovery pass reconstructed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sessions restored into the store.
    pub sessions: usize,
    /// Records replayed from WAL files (0 after a clean drain).
    pub wal_records: u64,
    /// Records replayed from snapshot files.
    pub snap_records: u64,
    /// Seeds or frames dropped because they failed to rebuild/apply
    /// (corrupt-but-CRC-valid data; should stay 0).
    pub skipped: u64,
    /// True when any file carried a torn tail.
    pub truncated_tail: bool,
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

fn snap_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

fn read_file_if_exists(path: &Path) -> std::io::Result<Vec<u8>> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Fsyncs the directory itself so renames/truncations survive power loss.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Splits a decoded file into its leading generation marker (if any) and
/// its data records. `Epoch` records are markers, not session events, so
/// they are removed wholesale — a marker anywhere past position 0 would
/// be a bug, but tolerating it beats corrupting replay.
fn strip_epoch(records: Vec<Record>) -> (Option<u64>, Vec<Record>) {
    let epoch = match records.first() {
        Some(Record::Epoch { generation }) => Some(*generation),
        _ => None,
    };
    let data = records.into_iter().filter(|r| !matches!(r, Record::Epoch { .. })).collect();
    (epoch, data)
}

/// Reads just enough of `path` to learn its length and leading `Epoch`
/// marker: `(len, Some(generation))` for a stamped file, `(len, None)`
/// for a pre-epoch legacy file, `(0, None)` when the file is missing.
fn leading_epoch(path: &Path) -> std::io::Result<(u64, Option<u64>)> {
    use std::io::Read as _;
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, None)),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    let mut head = [0u8; EPOCH_RECORD_BYTES];
    let mut read = 0;
    while read < head.len() {
        match file.read(&mut head[read..])? {
            0 => break,
            n => read += n,
        }
    }
    let log = decode_log(&head[..read]);
    match log.records.first() {
        Some(Record::Epoch { generation }) => Ok((len, Some(*generation))),
        _ => Ok((len, None)),
    }
}

impl JournalSet {
    /// Opens (creating if needed) the journal directory with one WAL per
    /// shard. `shard_count` must equal the session store's
    /// [`shard_count`](crate::session::SessionStore::shard_count) so both
    /// agree on which shard owns a session. `compact_every = 0` disables
    /// auto-compaction (drain still compacts).
    pub fn open(
        dir: impl Into<PathBuf>,
        shard_count: usize,
        policy: FsyncPolicy,
        compact_every: u64,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let wal = OpenOptions::new().create(true).append(true).open(wal_path(&dir, i))?;
            let existing = wal.metadata()?.len();
            let snap_epoch = leading_epoch(&snap_path(&dir, i))?.1.unwrap_or(0);
            let (_, wal_epoch) = leading_epoch(&wal_path(&dir, i))?;
            let mut shard = ShardFile {
                wal,
                staged: Vec::new(),
                staged_records: 0,
                wal_len: existing,
                unsynced: 0,
                flush_pending: false,
                wal_records: 0,
                epoch: 0,
            };
            match wal_epoch {
                Some(w) if w > snap_epoch => {
                    // Live WAL, strictly newer than the snapshot. Unknown
                    // record count: treat bytes as records so a fat WAL
                    // still compacts promptly.
                    shard.epoch = w;
                    shard.wal_records = existing.saturating_sub(EPOCH_RECORD_BYTES as u64) / 64;
                }
                Some(_) => {
                    // The WAL's generation is already folded into the
                    // snapshot — a compaction renamed its snapshot and
                    // crashed before truncating. Heal: truncate into a
                    // fresh generation.
                    stamp_wal(&mut shard, snap_epoch + 1, &metrics)?;
                }
                None if existing == 0 => {
                    // Fresh WAL: stamp it so even the very first
                    // compaction's crash window is detectable.
                    stamp_wal(&mut shard, snap_epoch + 1, &metrics)?;
                }
                None => {
                    // Pre-epoch legacy WAL, no marker to compare: treat
                    // its records as newer than the snapshot (legacy
                    // compaction truncated inline, so in the absence of a
                    // crash mid-upgrade the WAL tail really is newer).
                    shard.epoch = snap_epoch + 1;
                    shard.wal_records = existing / 64;
                }
            }
            shards.push(Mutex::new(shard));
        }
        let shards = Arc::new(shards);
        let dirty = (0..shard_count).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
        let flusher = (policy == FsyncPolicy::Batch)
            .then(|| Flusher::spawn(Arc::clone(&shards), Arc::clone(&metrics)));
        Ok(Self {
            dir,
            shard_count,
            policy,
            compact_every,
            shards,
            dirty,
            metrics,
            flusher,
            #[cfg(test)]
            fail_flush: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard whose files own session `id` (same hash as the store).
    pub fn shard_of(&self, id: u64) -> usize {
        shard_index(id, self.shard_count)
    }

    fn shard(&self, idx: usize) -> MutexGuard<'_, ShardFile> {
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Stages one encoded record in the shard's in-memory buffer. Nothing
    /// reaches the kernel until [`flush`](Self::flush) — callers MUST
    /// flush before acknowledging the request the record belongs to.
    fn append_to(&self, shard_idx: usize, record: &Record) {
        let bytes = encode_record(record);
        let mut shard = self.shard(shard_idx);
        shard.staged.extend_from_slice(&bytes);
        shard.staged_records += 1;
        self.metrics.journal_bytes_written.fetch_add(bytes.len() as u64, Relaxed);
        // Publish after staging (still under the lock): any flush() that
        // starts after this append returns is guaranteed to see the flag.
        self.dirty[shard_idx].store(true, std::sync::atomic::Ordering::Release);
    }

    /// Writes every staged record through to the kernel (one `write()`
    /// per dirty shard — group commit), making them `kill -9`-durable.
    /// Call after a request's appends and **before** its acknowledgement;
    /// a flush covers everything staged so far across all requests, and
    /// staging order per shard is append order, so the ack invariant
    /// holds no matter which thread's flush lands first. Under `always`
    /// the flush also fsyncs; under `batch` it kicks the background
    /// flusher once a shard crosses [`BATCH_FSYNC_RECORDS`].
    pub fn flush(&self) -> std::io::Result<()> {
        #[cfg(test)]
        if self.fail_flush.load(Relaxed) {
            return Err(std::io::Error::other("injected flush failure"));
        }
        let mut kick = false;
        for idx in 0..self.shard_count {
            // Claim-then-flush: if a racing append stages right after the
            // swap, it re-sets the flag and its own pre-ack flush covers
            // it — nothing acknowledged can be left behind.
            if !self.dirty[idx].swap(false, std::sync::atomic::Ordering::Acquire) {
                continue;
            }
            let mut shard = self.shard(idx);
            match self.flush_locked(idx, &mut shard) {
                Ok(k) => kick |= k,
                Err(e) => {
                    // The records were re-staged; re-flag the shard so a
                    // later flush retries them.
                    self.dirty[idx].store(true, std::sync::atomic::Ordering::Release);
                    return Err(e);
                }
            }
        }
        if kick {
            if let Some(flusher) = &self.flusher {
                flusher.kick();
            }
        }
        Ok(())
    }

    /// Writes one shard's staged bytes to its WAL file. Returns whether
    /// the caller should kick the background flusher.
    fn flush_locked(&self, idx: usize, shard: &mut ShardFile) -> std::io::Result<bool> {
        if shard.staged.is_empty() {
            return Ok(false);
        }
        let staged = std::mem::take(&mut shard.staged);
        if let Err(e) = shard.wal.write_all(&staged) {
            // A partial write would leave a torn record that the prefix
            // rule at recovery discards *along with everything after it*
            // — so roll the file back to the last record boundary and
            // re-stage the batch for the next flush to retry whole.
            let _ = shard.wal.set_len(shard.wal_len);
            shard.staged = staged;
            return Err(e);
        }
        shard.wal_len += staged.len() as u64;
        // Hand the allocation back so steady-state flushing never
        // re-allocates the staging buffer.
        let mut staged = staged;
        staged.clear();
        shard.staged = staged;
        shard.unsynced += shard.staged_records;
        shard.wal_records += shard.staged_records;
        shard.staged_records = 0;
        let mut kick = false;
        match self.policy {
            FsyncPolicy::Always => {
                shard.wal.sync_data()?;
                shard.unsynced = 0;
                self.metrics.journal_fsyncs.fetch_add(1, Relaxed);
            }
            FsyncPolicy::Batch => {
                if shard.unsynced >= BATCH_FSYNC_RECORDS && !shard.flush_pending {
                    shard.flush_pending = true;
                    kick = true;
                }
            }
            FsyncPolicy::Never => {}
        }
        if self.compact_every > 0 && shard.wal_records >= self.compact_every {
            self.compact_locked(idx, shard)?;
        }
        Ok(kick)
    }

    /// Stages a session's genesis. Call **before** the session becomes
    /// visible in the store, and [`flush`](Self::flush) before the ack.
    pub fn append_create(&self, id: u64, seed: &ControllerSeed) {
        self.append_to(self.shard_of(id), &Record::Create { id, seed: seed.clone() });
    }

    /// Stages accepted telemetry frames (all for one session — callers
    /// hold that session's slot lock, which makes the staging order equal
    /// the ingest order). [`flush`](Self::flush) before the ack.
    pub fn append_frames(&self, session: u64, frames: Vec<Frame>) {
        debug_assert!(frames.iter().all(|f| f.session == session));
        self.append_to(self.shard_of(session), &Record::Frames(frames));
    }

    /// Stages the end of a session's stream.
    pub fn append_end(&self, id: u64, reason: EndReason) {
        self.append_to(self.shard_of(id), &Record::End { id, reason });
    }

    /// Rewrites one shard's snapshot to only the records of live sessions
    /// and moves its WAL to the next generation. Called with the shard
    /// lock held. Crash-safe: the snapshot carries the generation it
    /// folded in, so if the rename lands but the WAL stamp does not, the
    /// next open/recovery (and a retry of this very call) sees
    /// `wal epoch <= snap epoch` and skips the already-folded records
    /// instead of replaying them twice.
    fn compact_locked(&self, idx: usize, shard: &mut ShardFile) -> std::io::Result<()> {
        let (snap_epoch, snap_records) =
            strip_epoch(decode_log(&read_file_if_exists(&snap_path(&self.dir, idx))?).records);
        let mut records = snap_records;
        // Fold the WAL only when the on-disk snapshot has not already
        // done so — a retry after a crashed/failed truncation must not
        // fold the same records twice.
        if snap_epoch.unwrap_or(0) < shard.epoch {
            let (_, wal_records) =
                strip_epoch(decode_log(&read_file_if_exists(&wal_path(&self.dir, idx))?).records);
            records.extend(wal_records);
        }
        self.write_snapshot(idx, shard.epoch, live_records(records))?;
        let next = shard.epoch + 1;
        stamp_wal(shard, next, &self.metrics)?;
        Ok(())
    }

    /// Atomically replaces shard `idx`'s snapshot with `records` under an
    /// `Epoch(epoch)` header (tmp-file + fsync + rename + dir fsync). An
    /// empty record set removes the snapshot — safe without a marker,
    /// because the WAL records a missing snapshot would "re-replay" are
    /// by construction all from dead sessions.
    fn write_snapshot(&self, idx: usize, epoch: u64, records: Vec<Record>) -> std::io::Result<()> {
        let path = snap_path(&self.dir, idx);
        if records.is_empty() {
            match fs::remove_file(&path) {
                Ok(()) => sync_dir(&self.dir)?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            return Ok(());
        }
        let tmp = self.dir.join(format!("shard-{idx}.snap.tmp"));
        let mut file = File::create(&tmp)?;
        let mut written = 0u64;
        let header = encode_record(&Record::Epoch { generation: epoch });
        file.write_all(&header)?;
        written += header.len() as u64;
        for record in &records {
            let bytes = encode_record(record);
            file.write_all(&bytes)?;
            written += bytes.len() as u64;
        }
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        sync_dir(&self.dir)?;
        self.metrics.journal_bytes_written.fetch_add(written, Relaxed);
        self.metrics.journal_fsyncs.fetch_add(2, Relaxed);
        Ok(())
    }

    /// Flushes and fsyncs every shard, then compacts: after `drain`,
    /// every WAL holds only its epoch marker and every live session sits
    /// in its snapshot — a clean restart replays zero WAL records.
    pub fn drain(&self) -> std::io::Result<()> {
        for idx in 0..self.shard_count {
            let mut shard = self.shard(idx);
            self.flush_locked(idx, &mut shard)?;
            shard.wal.sync_data()?;
            self.metrics.journal_fsyncs.fetch_add(1, Relaxed);
            shard.unsynced = 0;
            shard.flush_pending = false;
            self.compact_locked(idx, &mut shard)?;
        }
        Ok(())
    }

    /// Replays snapshots + WALs into `store`, restoring every live
    /// session byte-identically (same seed, same accepted stream, same
    /// ids — the id counter resumes past the highest ever assigned).
    /// Reads *every* `shard-*.{snap,wal}` present — including files from
    /// a run with a different `--shards` value — then rewrites the
    /// snapshots under the current shard mapping and truncates all WALs,
    /// so subsequent appends land in the right files.
    pub fn recover(&self, store: &crate::session::SessionStore) -> std::io::Result<RecoveryStats> {
        let started = std::time::Instant::now();
        let mut stats = RecoveryStats::default();

        // Gather each shard's snapshot + WAL as one record stream, in
        // file order. Per-session order holds within a stream; sessions
        // never span streams under a fixed shard count, and after a
        // shard-count change the ownership rule below plus the rebase
        // compaction restore the invariant before any new append.
        let mut streams: Vec<Vec<Record>> = Vec::new();
        let mut max_epoch = 0u64;
        for idx in self.shard_indices()? {
            let snap = decode_log(&read_file_if_exists(&snap_path(&self.dir, idx))?);
            let wal = decode_log(&read_file_if_exists(&wal_path(&self.dir, idx))?);
            stats.truncated_tail |= snap.truncated;
            let (snap_epoch, snap_records) = strip_epoch(snap.records);
            let (wal_epoch, wal_records) = strip_epoch(wal.records);
            let snap_epoch = snap_epoch.unwrap_or(0);
            max_epoch = max_epoch.max(snap_epoch).max(wal_epoch.unwrap_or(0));
            stats.snap_records += snap_records.len() as u64;
            let mut stream = snap_records;
            // Replay the WAL only when it is strictly newer than the
            // snapshot next to it: equal/older means a compaction renamed
            // a snapshot that already folds these records, then crashed
            // before truncating. A legacy WAL without a marker predates
            // epochs (whose compactions truncated inline) and is always
            // replayed.
            let fresh = match wal_epoch {
                Some(w) => w > snap_epoch,
                None => true,
            };
            if fresh {
                stats.truncated_tail |= wal.truncated;
                stats.wal_records += wal_records.len() as u64;
                stream.extend(wal_records);
            }
            streams.push(stream);
        }

        // Replay: rebuild each live session's controller from its seed
        // and re-ingest its accepted stream. The first stream carrying a
        // session's `Create` *owns* it — a crash mid-rebase (after a
        // shard-count change) can leave the same session duplicated
        // across old and new files, and a duplicate `Create` must not
        // reset the accumulated stream nor its frames be ingested twice.
        let mut order: Vec<u64> = Vec::new();
        let mut live: std::collections::HashMap<u64, (ControllerSeed, Vec<Frame>)> =
            std::collections::HashMap::new();
        let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut max_id = 0u64;
        for (stream_idx, stream) in streams.into_iter().enumerate() {
            for record in stream {
                match record {
                    Record::Create { id, seed } => {
                        max_id = max_id.max(id);
                        if let std::collections::hash_map::Entry::Vacant(slot) = owner.entry(id) {
                            slot.insert(stream_idx);
                            live.insert(id, (seed, Vec::new()));
                            order.push(id);
                        }
                    }
                    Record::Frames(frames) => {
                        for frame in frames {
                            // Only the owning stream's frames count; a
                            // frame whose session already ended (raced an
                            // eviction) is dropped — its state is gone
                            // either way.
                            if owner.get(&frame.session) != Some(&stream_idx) {
                                continue;
                            }
                            if let Some((_, stream)) = live.get_mut(&frame.session) {
                                stream.push(frame);
                            }
                        }
                    }
                    Record::End { id, .. } => {
                        max_id = max_id.max(id);
                        if owner.get(&id) == Some(&stream_idx) {
                            live.remove(&id);
                        }
                    }
                    Record::Epoch { .. } => {}
                }
            }
        }
        order.retain(|id| live.contains_key(id));

        let mut restored: Vec<(u64, Vec<Record>)> = Vec::new();
        for id in order {
            let Some((seed, stream)) = live.remove(&id) else { continue };
            let mut controller = match seed.build() {
                Ok(c) => c,
                Err(_) => {
                    stats.skipped += 1;
                    continue;
                }
            };
            let mut kept: Vec<Frame> = Vec::new();
            for frame in stream {
                let outcome = match &frame.payload {
                    wire::FramePayload::Telemetry(batch) => controller.ingest(batch).map(|_| ()),
                    wire::FramePayload::Events(batch) => {
                        controller.ingest_events(batch).map(|_| ())
                    }
                };
                match outcome {
                    Ok(()) => kept.push(frame),
                    Err(_) => stats.skipped += 1,
                }
            }
            if let Some(evicted) = store.insert_with_id(id, controller) {
                // The store is smaller than the journaled fleet: the LRU
                // (oldest-restored) session goes, exactly as a live insert
                // would evict it.
                self.metrics.session_evictions.fetch_add(1, Relaxed);
                restored.retain(|(rid, _)| *rid != evicted);
            }
            let mut records = vec![Record::Create { id, seed }];
            if !kept.is_empty() {
                records.push(Record::Frames(kept));
            }
            restored.push((id, records));
        }
        store.bump_next_id(max_id);
        stats.sessions = restored.len();

        // Rebase: rewrite snapshots under the *current* shard mapping,
        // stamp every WAL into a fresh generation, and drop stray files
        // from a previous shard-count configuration. Every rebased
        // snapshot gets one generation past anything seen on disk, so a
        // crash part-way through leaves any not-yet-stamped WAL at an
        // equal-or-older generation — skipped on the next recovery, not
        // replayed on top of the snapshot that already folds it.
        let rebased_epoch = max_epoch + 1;
        let mut by_shard: Vec<Vec<Record>> = (0..self.shard_count).map(|_| Vec::new()).collect();
        for (id, records) in restored {
            by_shard[self.shard_of(id)].extend(records);
        }
        for (idx, records) in by_shard.into_iter().enumerate() {
            let mut shard = self.shard(idx);
            self.write_snapshot(idx, rebased_epoch, records)?;
            shard.epoch = rebased_epoch;
            stamp_wal(&mut shard, rebased_epoch + 1, &self.metrics)?;
        }
        for idx in self.shard_indices()? {
            if idx >= self.shard_count {
                let _ = fs::remove_file(snap_path(&self.dir, idx));
                let _ = fs::remove_file(wal_path(&self.dir, idx));
            }
        }

        self.metrics.sessions_recovered.fetch_add(stats.sessions as u64, Relaxed);
        self.metrics.journal_replayed_wal_records.fetch_add(stats.wal_records, Relaxed);
        self.metrics.recovery_seconds.observe(started.elapsed().as_secs_f64());
        Ok(stats)
    }

    /// Every shard index with a `shard-<i>.snap` or `shard-<i>.wal` file
    /// in the directory, sorted and deduplicated. Each index's snapshot
    /// holds the compacted past and its WAL the tail that follows it.
    fn shard_indices(&self) -> std::io::Result<Vec<usize>> {
        let mut indices: Vec<usize> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("shard-") else { continue };
            if let Some(idx) = rest
                .strip_suffix(".snap")
                .or_else(|| rest.strip_suffix(".wal"))
                .and_then(|i| i.parse().ok())
            {
                indices.push(idx);
            }
        }
        indices.sort_unstable();
        indices.dedup();
        Ok(indices)
    }

    /// Current WAL size in bytes of every shard (test/ops visibility).
    pub fn wal_bytes(&self) -> std::io::Result<Vec<u64>> {
        self.flush()?;
        (0..self.shard_count)
            .map(|i| Ok(fs::metadata(wal_path(&self.dir, i)).map(|m| m.len()).unwrap_or(0)))
            .collect()
    }
}

impl Drop for JournalSet {
    /// Best-effort flush of staged records, mirroring `BufWriter`: acks
    /// never depend on this (handlers flush before every ack), but a
    /// journal dropped without `drain` — tests, benches, error paths —
    /// should not silently shed staged bytes.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Filters a record stream down to live sessions: a session with an
/// `End` record — or no `Create` — contributes nothing.
fn live_records(records: Vec<Record>) -> Vec<Record> {
    use std::collections::HashSet;
    let mut created: HashSet<u64> = HashSet::new();
    let mut ended: HashSet<u64> = HashSet::new();
    for record in &records {
        match record {
            Record::Create { id, .. } => {
                created.insert(*id);
            }
            Record::End { id, .. } => {
                ended.insert(*id);
            }
            Record::Frames(_) | Record::Epoch { .. } => {}
        }
    }
    let alive = |id: &u64| created.contains(id) && !ended.contains(id);
    records
        .into_iter()
        .filter_map(|record| match record {
            Record::Create { id, seed } if alive(&id) => Some(Record::Create { id, seed }),
            Record::Frames(frames) => {
                let kept: Vec<Frame> = frames.into_iter().filter(|f| alive(&f.session)).collect();
                (!kept.is_empty()).then_some(Record::Frames(kept))
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionStore;
    use perpetuum_online::{ClassEvent, EventBatch, TelemetryBatch};

    fn seed() -> ControllerSeed {
        ControllerSeed {
            sensors: vec![(10.0, 20.0), (40.0, 20.0)],
            depots: vec![(25.0, 60.0)],
            capacities: vec![1.0, 1.0],
            initial_rates: vec![0.25, 0.125],
            config: OnlineConfig::new(100.0),
        }
    }

    fn frame(session: u64, time: f64) -> Frame {
        Frame::telemetry(session, TelemetryBatch::tick(time))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perpetuum-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, shards: usize) -> JournalSet {
        JournalSet::open(dir, shards, FsyncPolicy::Batch, 0, Arc::new(Metrics::default()))
            .expect("open journal")
    }

    #[test]
    fn records_round_trip_through_the_framing() {
        for record in [
            Record::Create { id: 7, seed: seed() },
            Record::Frames(vec![frame(7, 1.0), frame(9, 2.0)]),
            Record::End { id: 7, reason: EndReason::Quarantined },
            Record::Epoch { generation: 42 },
        ] {
            let bytes = encode_record(&record);
            let log = decode_log(&bytes);
            assert!(!log.truncated);
            assert_eq!(log.records, vec![record]);
            assert_eq!(log.clean_bytes, bytes.len());
        }
    }

    /// A `Create` record laid out field by field as journals have always
    /// written it, with `slot` in the reserved u64 between `gamma` and
    /// `margin`.
    fn create_bytes(id: u64, seed: &ControllerSeed, slot: u64) -> Vec<u8> {
        let mut body = Writer::default();
        body.put_u64(id);
        body.put_u32(seed.sensors.len() as u32);
        for &(x, y) in &seed.sensors {
            body.put_f64(x);
            body.put_f64(y);
        }
        body.put_u32(seed.depots.len() as u32);
        for &(x, y) in &seed.depots {
            body.put_f64(x);
            body.put_f64(y);
        }
        seed.capacities.iter().chain(&seed.initial_rates).for_each(|&v| body.put_f64(v));
        body.put_f64(seed.config.horizon);
        body.put_f64(seed.config.gamma);
        body.put_u64(slot);
        body.put_f64(seed.config.margin);
        body.put_f64(seed.config.emergency_slack);
        let mut payload = vec![TAG_CREATE];
        payload.extend_from_slice(&body.into_bytes());
        let mut framed = Writer::default();
        framed.put_u32(payload.len() as u32);
        framed.put_u32(crc32(&payload));
        framed.put_bytes(&payload);
        framed.into_bytes()
    }

    #[test]
    fn create_records_keep_the_reserved_polish_slot() {
        let record = Record::Create { id: 7, seed: seed() };
        // Encoding writes 0 into the slot, byte-identical to older journals.
        assert_eq!(encode_record(&record), create_bytes(7, &seed(), 0));
        // Decoding reads the slot and ignores whatever an older writer put there.
        for slot in [0, 10] {
            let log = decode_log(&create_bytes(7, &seed(), slot));
            assert!(!log.truncated, "slot {slot}");
            assert_eq!(log.records, vec![record.clone()], "slot {slot}");
        }
    }

    #[test]
    fn every_cut_of_a_log_keeps_exactly_the_complete_prefix() {
        let records = [
            Record::Create { id: 1, seed: seed() },
            Record::Frames(vec![frame(1, 1.0)]),
            Record::End { id: 1, reason: EndReason::Deleted },
        ];
        let encoded: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
        let bytes: Vec<u8> = encoded.concat();
        // Complete-record boundaries: cumulative lengths.
        let mut boundaries = vec![0usize];
        for e in &encoded {
            boundaries.push(boundaries.last().unwrap() + e.len());
        }
        for cut in 0..=bytes.len() {
            let log = decode_log(&bytes[..cut]);
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(log.records.len(), complete, "cut {cut}");
            assert_eq!(log.records[..], records[..complete], "cut {cut}");
            assert_eq!(log.truncated, cut != boundaries[complete], "cut {cut}");
        }
    }

    #[test]
    fn corrupt_bytes_stop_the_scan_without_panicking() {
        let records = [Record::Create { id: 1, seed: seed() }, Record::Frames(vec![frame(1, 1.0)])];
        let clean: Vec<u8> = records.iter().map(encode_record).collect::<Vec<_>>().concat();
        let first_len = encode_record(&records[0]).len();
        // Flip one byte in every position of the second record.
        for pos in first_len..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0xA5;
            let log = decode_log(&bytes);
            assert!(log.truncated, "pos {pos}");
            assert_eq!(log.records, records[..1], "pos {pos}");
        }
    }

    #[test]
    fn append_recover_restores_sessions_and_id_counter() {
        let dir = tmp_dir("roundtrip");
        let journal = open(&dir, 4);
        let store = SessionStore::new(16, 4);
        let s = seed();
        let ctl = s.build().expect("build");
        let id = store.allocate_id();
        journal.append_create(id, &s);
        assert!(store.insert_with_id(id, ctl).is_none());
        let slot = store.get(id).expect("slot");
        {
            let mut guard = slot.lock().expect("not poisoned");
            guard.ingest(&TelemetryBatch::tick(1.5)).expect("ingest");
            journal.append_frames(id, vec![frame(id, 1.5)]);
        }
        let expected_plan = slot.lock().expect("lock").plan_json();
        drop(journal);

        let journal = open(&dir, 4);
        let recovered = SessionStore::new(16, 4);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.wal_records, 2);
        assert!(!stats.truncated_tail);
        let slot = recovered.get(id).expect("recovered session");
        assert_eq!(slot.lock().expect("lock").plan_json(), expected_plan, "byte-identical plan");
        // Ids never reused: the next allocation is past the recovered id.
        assert!(recovered.allocate_id() > id);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_frames_replay_through_recovery() {
        let dir = tmp_dir("events");
        let journal = open(&dir, 2);
        let store = SessionStore::new(8, 2);
        let s = seed();
        let id = store.allocate_id();
        journal.append_create(id, &s);
        assert!(store.insert_with_id(id, s.build().expect("build")).is_none());
        let slot = store.get(id).expect("slot");
        {
            let mut guard = slot.lock().expect("not poisoned");
            guard.ingest(&TelemetryBatch::tick(1.0)).expect("tick");
            journal.append_frames(id, vec![frame(id, 1.0)]);
            // An in-band suppressed event (sensor 1: τ̂ = 10 inside the
            // [8, 16) band) — accepted, so journaled, so replayed.
            let batch = EventBatch::new(2.0, vec![ClassEvent::new(1, 0.1, 0.1, 0.9)]);
            guard.ingest_events(&batch).expect("in-band event");
            journal.append_frames(id, vec![Frame::events(id, batch)]);
        }
        let expected_plan = slot.lock().expect("lock").plan_json();
        let expected_level = slot.lock().expect("lock").level_estimate(1);
        drop(journal);

        let journal = open(&dir, 2);
        let recovered = SessionStore::new(8, 2);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.skipped, 0, "both frame kinds must replay");
        let slot = recovered.get(id).expect("recovered session");
        let guard = slot.lock().expect("lock");
        assert_eq!(guard.plan_json(), expected_plan, "byte-identical plan");
        assert!((guard.level_estimate(1) - expected_level).abs() < 1e-12, "event state replayed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ended_sessions_do_not_resurrect() {
        let dir = tmp_dir("ended");
        let journal = open(&dir, 2);
        let store = SessionStore::new(8, 2);
        let s = seed();
        let a = store.allocate_id();
        journal.append_create(a, &s);
        store.insert_with_id(a, s.build().expect("a"));
        journal.append_frames(a, vec![frame(a, 1.0)]);
        journal.append_end(a, EndReason::Evicted);
        let b = store.allocate_id();
        journal.append_create(b, &s);
        store.insert_with_id(b, s.build().expect("b"));
        drop(journal);

        let journal = open(&dir, 2);
        let recovered = SessionStore::new(8, 2);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.sessions, 1, "only b survives");
        assert!(recovered.get(a).is_none(), "evicted session stays dead");
        assert!(recovered.get(b).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_compacts_so_restart_replays_zero_wal_records() {
        let dir = tmp_dir("drain");
        let journal = open(&dir, 2);
        let store = SessionStore::new(8, 2);
        let s = seed();
        let dead = store.allocate_id();
        journal.append_create(dead, &s);
        store.insert_with_id(dead, s.build().expect("dead"));
        journal.append_end(dead, EndReason::Deleted);
        let live = store.allocate_id();
        journal.append_create(live, &s);
        store.insert_with_id(live, s.build().expect("live"));
        journal.append_frames(live, vec![frame(live, 2.0)]);
        journal.drain().expect("drain");
        assert!(
            journal.wal_bytes().expect("sizes").iter().all(|&b| b == EPOCH_RECORD_BYTES as u64),
            "WALs truncated down to their epoch marker"
        );
        drop(journal);

        let journal = open(&dir, 2);
        let recovered = SessionStore::new(8, 2);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.wal_records, 0, "clean shutdown needs no WAL replay");
        assert_eq!(stats.sessions, 1);
        assert!(stats.snap_records > 0, "state came from the snapshot");
        assert!(recovered.get(dead).is_none(), "compaction dropped the dead session");
        assert!(recovered.get(live).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_triggers_and_preserves_state() {
        let dir = tmp_dir("auto");
        let metrics = Arc::new(Metrics::default());
        let journal =
            JournalSet::open(&dir, 1, FsyncPolicy::Never, 8, Arc::clone(&metrics)).expect("open");
        let store = SessionStore::new(8, 1);
        let s = seed();
        let id = store.allocate_id();
        journal.append_create(id, &s);
        store.insert_with_id(id, s.build().expect("build"));
        let slot = store.get(id).expect("slot");
        for i in 0..20u32 {
            let t = f64::from(i) + 1.0;
            slot.lock().expect("lock").ingest(&TelemetryBatch::tick(t)).expect("ingest");
            journal.append_frames(id, vec![frame(id, t)]);
        }
        // 21 appends with compact_every=8: at least two compactions ran.
        assert!(journal.wal_bytes().expect("sizes")[0] < 21 * 20, "WAL was compacted");
        let expected = slot.lock().expect("lock").plan_json();
        drop(journal);

        let journal = open(&dir, 1);
        let recovered = SessionStore::new(8, 1);
        journal.recover(&recovered).expect("recover");
        let got = recovered.get(id).expect("session").lock().expect("lock").plan_json();
        assert_eq!(got, expected, "compaction preserved the byte-identical stream");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The compaction crash window: a `kill -9` after the snapshot
    /// rename but before the WAL truncation leaves a snapshot that
    /// already folds the WAL's records next to the un-truncated WAL.
    /// The shared generation marker must keep the WAL from replaying on
    /// top of the snapshot.
    #[test]
    fn crashed_compaction_window_does_not_double_ingest() {
        let dir = tmp_dir("crashwin");
        fs::create_dir_all(&dir).expect("mkdir");
        let s = seed();
        let id = 1u64;
        let records =
            [Record::Create { id, seed: s.clone() }, Record::Frames(vec![frame(id, 1.0)])];
        let mut snap_bytes = encode_record(&Record::Epoch { generation: 3 });
        let mut wal_bytes = encode_record(&Record::Epoch { generation: 3 });
        for r in &records {
            snap_bytes.extend(encode_record(r));
            wal_bytes.extend(encode_record(r));
        }
        fs::write(snap_path(&dir, 0), &snap_bytes).expect("snap");
        fs::write(wal_path(&dir, 0), &wal_bytes).expect("wal");

        let journal = open(&dir, 1);
        let recovered = SessionStore::new(8, 1);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.wal_records, 0, "already-folded WAL must be skipped");
        let mut expected = s.build().expect("build");
        expected.ingest(&TelemetryBatch::tick(1.0)).expect("ingest");
        let got = recovered.get(id).expect("session").lock().expect("lock").plan_json();
        assert_eq!(got, expected.plan_json(), "frame ingested once, not twice");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A duplicate `Create` (same id, same stream) must not reset the
    /// session's accumulated frame stream during replay.
    #[test]
    fn duplicate_create_does_not_reset_the_stream() {
        let dir = tmp_dir("dupcreate");
        fs::create_dir_all(&dir).expect("mkdir");
        let s = seed();
        let id = 1u64;
        let mut wal_bytes = encode_record(&Record::Epoch { generation: 1 });
        wal_bytes.extend(encode_record(&Record::Create { id, seed: s.clone() }));
        wal_bytes.extend(encode_record(&Record::Frames(vec![frame(id, 1.0)])));
        wal_bytes.extend(encode_record(&Record::Create { id, seed: s.clone() }));
        wal_bytes.extend(encode_record(&Record::Frames(vec![frame(id, 2.0)])));
        fs::write(wal_path(&dir, 0), &wal_bytes).expect("wal");

        let journal = open(&dir, 1);
        let recovered = SessionStore::new(8, 1);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.sessions, 1);
        let mut expected = s.build().expect("build");
        expected.ingest(&TelemetryBatch::tick(1.0)).expect("ingest 1");
        expected.ingest(&TelemetryBatch::tick(2.0)).expect("ingest 2");
        let got = recovered.get(id).expect("session").lock().expect("lock").plan_json();
        assert_eq!(got, expected.plan_json(), "both frames kept despite the duplicate Create");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash part-way through a shard-count rebase can leave the same
    /// session's stream in a new snapshot *and* a stray old-shard file.
    /// Only the owning (first) stream may contribute its records.
    #[test]
    fn crashed_rebase_duplicate_streams_ingest_once() {
        let dir = tmp_dir("duprebase");
        fs::create_dir_all(&dir).expect("mkdir");
        let s = seed();
        let id = 1u64;
        let records =
            [Record::Create { id, seed: s.clone() }, Record::Frames(vec![frame(id, 1.0)])];
        let mut snap_bytes = encode_record(&Record::Epoch { generation: 4 });
        let mut old_wal = encode_record(&Record::Epoch { generation: 1 });
        for r in &records {
            snap_bytes.extend(encode_record(r));
            old_wal.extend(encode_record(r));
        }
        fs::write(snap_path(&dir, 0), &snap_bytes).expect("snap");
        fs::write(wal_path(&dir, 5), &old_wal).expect("stray wal");

        let journal = open(&dir, 2);
        let recovered = SessionStore::new(8, 2);
        let stats = journal.recover(&recovered).expect("recover");
        assert_eq!(stats.sessions, 1, "one session despite two copies of its stream");
        let mut expected = s.build().expect("build");
        expected.ingest(&TelemetryBatch::tick(1.0)).expect("ingest");
        let got = recovered.get(id).expect("session").lock().expect("lock").plan_json();
        assert_eq!(got, expected.plan_json(), "frame ingested once, not twice");
        assert!(!wal_path(&dir, 5).exists(), "stray old-shard file removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rebases_across_a_shard_count_change() {
        let dir = tmp_dir("rebase");
        let journal = open(&dir, 8);
        let store = SessionStore::new(32, 8);
        let s = seed();
        let mut ids = Vec::new();
        for _ in 0..6 {
            let id = store.allocate_id();
            journal.append_create(id, &s);
            store.insert_with_id(id, s.build().expect("build"));
            journal.append_frames(id, vec![frame(id, 1.0)]);
            ids.push(id);
        }
        drop(journal);

        // Restart with 2 shards: every session must come back, and the
        // rebased files must survive another restart.
        for _ in 0..2 {
            let journal = open(&dir, 2);
            let recovered = SessionStore::new(32, 2);
            let stats = journal.recover(&recovered).expect("recover");
            assert_eq!(stats.sessions, ids.len());
            for &id in &ids {
                assert!(recovered.get(id).is_some(), "session {id} lost in rebase");
            }
        }
        assert!(
            !snap_path(&dir, 5).exists() && !wal_path(&dir, 5).exists(),
            "stray high-shard files removed"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Manual micro-benchmark of the raw append path (no HTTP): run with
    /// `cargo test --release -p perpetuum-serve journal_append_micro -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn journal_append_micro() {
        const APPENDS: u64 = 10_000;
        const THREADS: u64 = 8;
        for policy in [FsyncPolicy::Never, FsyncPolicy::Batch, FsyncPolicy::Always] {
            let dir = tmp_dir(&format!("micro-{}", policy.as_str()));
            let journal = Arc::new(
                JournalSet::open(&dir, 16, policy, 0, Arc::new(Metrics::default())).expect("open"),
            );
            let started = std::time::Instant::now();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let journal = Arc::clone(&journal);
                    scope.spawn(move || {
                        // Flush per append: the worst case (one record
                        // per request, no batching to amortize).
                        for i in 0..APPENDS / THREADS {
                            let id = t * 10_000 + i % 2_000;
                            journal.append_frames(id, vec![frame(id, i as f64)]);
                            journal.flush().expect("flush");
                        }
                    });
                }
            });
            println!(
                "{:6}: {} appends / {} threads in {:?}",
                policy.as_str(),
                APPENDS,
                THREADS,
                started.elapsed()
            );
            drop(journal);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn batch_policy_fsyncs_in_the_background_off_the_append_path() {
        let dir = tmp_dir("flusher");
        let metrics = Arc::new(Metrics::default());
        let journal =
            JournalSet::open(&dir, 1, FsyncPolicy::Batch, 0, Arc::clone(&metrics)).expect("open");
        // open() fsyncs once per shard stamping fresh WALs — measure the
        // flusher's work relative to that baseline.
        let baseline = metrics.journal_fsyncs.load(Relaxed);
        let id = 1;
        journal.append_create(id, &seed());
        for t in 0..(2 * BATCH_FSYNC_RECORDS) {
            journal.append_frames(id, vec![frame(id, t as f64 + 0.5)]);
        }
        journal.flush().expect("flush");
        // The flush crossed the threshold and kicked the flusher; the
        // fsync lands asynchronously, so poll rather than assert.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while metrics.journal_fsyncs.load(Relaxed) == baseline {
            assert!(std::time::Instant::now() < deadline, "flusher never fsynced");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(journal); // joins the flusher thread
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses_and_prints() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(policy.as_str()), Some(policy));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
