//! The crash-resumable experiment journal.
//!
//! An [`ExperimentJournal`] makes `Lab::run` durable: every finished
//! [`Cell`] is persisted as one content-addressed result file plus one
//! fsync'd record in an append-only write-ahead log (WAL), keyed by a
//! [`cell_fingerprint`] covering everything that determines the cell's
//! statistics — workload identity, effective machine configuration,
//! instruction budget, sampling plan and the journal format version. A
//! sweep interrupted at *any* point (SIGKILL, OOM, CI timeout) resumes by
//! replaying journaled cells bit-identically and recomputing only the
//! rest.
//!
//! # On-disk layout
//!
//! The journal directory (`MSP_BENCH_JOURNAL_DIR`) holds:
//!
//! ```text
//! journal.wal              header (magic "MSPJRNLW", version u32) then
//!                          records: [payload_len u32][payload]
//!                          [FNV-1a(payload) u64]; payload v1 = cell
//!                          fingerprint u64. All little-endian.
//! {fingerprint:016x}.mspcell
//!                          magic "MSPCELLF", version u32, fingerprint u64,
//!                          encoded Cell, trailing FNV-1a checksum over
//!                          every preceding byte.
//! ```
//!
//! The encoded cell holds its labels, then every `SimStats` counter as one
//! varint in the order of `SimStats::counters` (bank stalls included, as a
//! fixed per-register block), then the sampled estimates. That counter
//! list is the cell format of version 3 ([`JOURNAL_FORMAT_VERSION`]).
//! A WAL whose header is unrecognisable or names another version starts
//! over empty, and the cell files beside it are deleted: no record of the
//! new log can reach them.
//!
//! # Commit discipline (the murodb-style WAL rules)
//!
//! A cell commits in two ordered durable steps: the result file is written
//! first (temp + fsync + atomic rename), **then** the WAL record is
//! appended and fsync'd. The WAL record is the commit point — replay
//! trusts only fingerprints whose record checksums verify, and truncates
//! the WAL at the first torn or corrupt record, never reading past it. A
//! crash between the two steps leaves an orphaned result file that is
//! simply overwritten when the cell is recomputed; a crash mid-result
//! leaves a `.tmp` file swept on the next open. Every crash point is
//! therefore idempotent: replay or recompute, nothing in between — proved
//! by the deterministic kill-point harness below (`MSP_BENCH_KILL_POINT`)
//! and the kill-matrix integration test.
//!
//! # Degradation policy
//!
//! Journal I/O never fails a sweep. An unopenable directory, a write
//! error, a full disk: one warning on stderr, then the journal continues
//! in-memory only (cells computed this session are still deduplicated, but
//! nothing persists). A corrupt result file is deleted and its cell
//! recomputed, exactly like a corrupt trace-store file.

use crate::energy::SampledEnergy;
use crate::experiment::Cell;
use crate::{Placement, SampledStats, SamplingPlan};
use msp_branch::PredictorKind;
use msp_isa::wire::{fnv1a, put_varint, Reader, FNV_OFFSET};
use msp_pipeline::{
    CacheConfig, FrontendConfig, LatencyConfig, MachineKind, MemoryConfig, ResourceConfig,
    SimConfig, SimResult, SimStats,
};
use msp_workloads::Variant;
use std::collections::HashSet;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Version written into (and required of) the WAL header, every cell file,
/// and the [`cell_fingerprint`] preimage — so a format change invalidates
/// every old record instead of misdecoding it. Version 2: a sampled
/// window that ends the budget inside its interval stands for the clipped
/// part only, so version-1 estimates of such cells recompute. Version 3:
/// a cell's statistics are every counter of `SimStats::counters` as one
/// varint each, in that list's order (no sparse bank-stall map).
pub const JOURNAL_FORMAT_VERSION: u32 = 3;

/// File name of the write-ahead log inside the journal directory.
pub const WAL_FILE_NAME: &str = "journal.wal";

/// File extension of content-addressed cell result files.
pub const CELL_FILE_EXT: &str = "mspcell";

const WAL_MAGIC: &[u8; 8] = b"MSPJRNLW";
const CELL_MAGIC: &[u8; 8] = b"MSPCELLF";
const FINGERPRINT_MAGIC: &[u8; 8] = b"MSPJRNFP";
/// WAL header: magic + format version.
const WAL_HEADER_LEN: usize = 12;
/// WAL payload v1 is exactly one cell fingerprint.
const WAL_PAYLOAD_LEN: usize = 8;

// ------------------------------------------------------- fault injection

/// Environment knob of the deterministic kill-point harness:
/// `MSP_BENCH_KILL_POINT=<site>[:<n>]` delivers a real SIGKILL to this
/// process at the `n`-th (default first) execution of the named crash site.
/// The sites are [`KILL_POINTS`]. A value naming another site, or a count
/// that is not a positive integer, ends the process with a message before
/// any cell commits: [`ExperimentJournal::open`] reads the variable, and so
/// does the first window to finish. Test-only in spirit, but compiled in
/// unconditionally: the env var is read once and the disarmed fast path is
/// one atomic-free `OnceLock` read.
pub const KILL_POINT_ENV: &str = "MSP_BENCH_KILL_POINT";

/// Crash site: a window's simulation has returned, and its cell is not yet
/// committed (an exact cell has one window, a sampled cell several).
pub const KILL_WINDOW_DONE: &str = "window-done";
/// Crash site: the cell result temp file is written and fsync'd, but not
/// yet renamed into place (leaves a `.tmp` orphan).
pub const KILL_CELL_TEMP_WRITTEN: &str = "cell-temp-written";
/// Crash site: the cell result file is renamed into place, but its WAL
/// record is not yet appended (leaves an un-journaled orphan result).
pub const KILL_CELL_RENAMED: &str = "cell-renamed";
/// Crash site: half of the WAL record is written and fsync'd, then the
/// process dies — the torn-tail case replay must truncate.
pub const KILL_WAL_TORN: &str = "wal-torn";
/// Crash site: the WAL record is fully appended and fsync'd (the cell is
/// committed; everything after is bookkeeping).
pub const KILL_WAL_APPENDED: &str = "wal-appended";

/// Every injectable crash site, in commit order.
pub const KILL_POINTS: [&str; 5] = [
    KILL_WINDOW_DONE,
    KILL_CELL_TEMP_WRITTEN,
    KILL_CELL_RENAMED,
    KILL_WAL_TORN,
    KILL_WAL_APPENDED,
];

static KILL_SPEC: OnceLock<Option<(&'static str, u64)>> = OnceLock::new();
static KILL_HITS: AtomicU64 = AtomicU64::new(0);

fn kill_spec() -> Option<&'static (&'static str, u64)> {
    KILL_SPEC
        .get_or_init(|| {
            let raw = std::env::var(KILL_POINT_ENV).ok()?;
            let spec = parse_kill_spec(&raw);
            if spec.is_none() {
                eprintln!(
                    "msp-bench: invalid {KILL_POINT_ENV}={raw:?}: expected <site>[:<n>] \
                     with n a positive integer and <site> one of {}",
                    KILL_POINTS.join(", ")
                );
                std::process::exit(1);
            }
            spec
        })
        .as_ref()
}

/// Parses `<site>[:<n>]`: `None` unless the site is one of [`KILL_POINTS`]
/// and the count, when given, is a positive integer.
fn parse_kill_spec(raw: &str) -> Option<(&'static str, u64)> {
    let (site, nth) = match raw.split_once(':') {
        Some((site, n)) => (site, n.trim().parse().ok().filter(|&n| n > 0)?),
        None => (raw, 1),
    };
    let site = KILL_POINTS.into_iter().find(|&known| known == site)?;
    Some((site, nth))
}

/// True when this call is the configured occurrence of `site` — the caller
/// is about to die (used by the torn-write site, which must corrupt the WAL
/// itself before dying).
fn kill_armed(site: &str) -> bool {
    match kill_spec() {
        Some((armed, nth)) if *armed == site => {
            KILL_HITS.fetch_add(1, Ordering::Relaxed) + 1 == *nth
        }
        _ => false,
    }
}

pub(crate) fn maybe_kill(site: &str) {
    if kill_armed(site) {
        die();
    }
}

/// Dies by a genuine SIGKILL (no atexit handlers, no unwinding, no Drop —
/// exactly what an OOM kill or `kill -9` delivers), via the external `kill`
/// utility since this crate forbids unsafe code. The exit fallback only
/// runs if the signal somehow failed to land.
fn die() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::exit(137);
}

// ------------------------------------------------------- cell fingerprint

/// The stable identity of one experiment cell: an FNV-1a hash over a
/// versioned encoding of everything that determines the cell's statistics —
/// the program fingerprint, workload name and variant, the override hook's
/// *name*, the **effective** [`SimConfig`] (after the hook applied, every
/// field), the committed-instruction budget and the sampling plan. Two runs
/// produce bit-identical [`Cell`]s iff their fingerprints match, so a
/// journaled fingerprint licenses replay without re-simulation.
///
/// The hook name participates alongside the effective config because the
/// rehydrated `Cell` must round-trip the hook *label*, and because two
/// differently-named hooks with identical effects are still distinct
/// experiment columns.
pub fn cell_fingerprint(
    program_fingerprint: u64,
    workload: &str,
    variant: Variant,
    hook: Option<&str>,
    config: &SimConfig,
    instructions: u64,
    sampling: Option<SamplingPlan>,
) -> u64 {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(FINGERPRINT_MAGIC);
    buf.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    put_u64(&mut buf, program_fingerprint);
    put_string(&mut buf, workload);
    put_variant(&mut buf, variant);
    put_opt_string(&mut buf, hook);
    put_varint(&mut buf, instructions);
    // Rest-pattern-free destructures on purpose: adding a field to the plan
    // or to a placement without fingerprinting it is a compile error here,
    // not a silent replay of stale cells. The tag names the placement, and
    // tag 1 (periodic) keeps the exact encoding of the old three-field
    // `SamplingSpec`.
    match sampling {
        None => buf.push(0),
        Some(SamplingPlan {
            interval,
            detail_len,
            warmup_len,
            placement,
        }) => {
            buf.push(match placement {
                Placement::Periodic => 1,
                Placement::Phases { .. } => 2,
                Placement::Adaptive { .. } => 3,
            });
            put_varint(&mut buf, interval);
            put_varint(&mut buf, detail_len);
            put_varint(&mut buf, warmup_len);
            match placement {
                Placement::Periodic => {}
                Placement::Phases { max_phases, seed } => {
                    put_varint(&mut buf, max_phases as u64);
                    put_varint(&mut buf, seed);
                }
                Placement::Adaptive {
                    target_rel_stderr,
                    max_windows,
                } => {
                    put_u64(&mut buf, target_rel_stderr.to_bits());
                    put_varint(&mut buf, max_windows as u64);
                }
            }
        }
    }
    put_sim_config(&mut buf, config);
    fnv1a(FNV_OFFSET, &buf)
}

// ------------------------------------------------------------ WAL format

fn wal_header() -> Vec<u8> {
    let mut header = Vec::with_capacity(WAL_HEADER_LEN);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    header
}

/// The encoded WAL record of one committed cell fingerprint (exposed for
/// the torn-tail tests, which build and mutilate records byte-level).
pub fn wal_record(fingerprint: u64) -> Vec<u8> {
    let payload = fingerprint.to_le_bytes();
    let mut record = Vec::with_capacity(4 + WAL_PAYLOAD_LEN + 8);
    record.extend_from_slice(&(WAL_PAYLOAD_LEN as u32).to_le_bytes());
    record.extend_from_slice(&payload);
    record.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
    record
}

/// Replays WAL bytes: the set of committed fingerprints plus the byte
/// length of the valid prefix. Reading stops — permanently — at the first
/// structural problem: short header, wrong magic or version, torn record,
/// bad checksum, unknown payload length. Nothing past a bad record is ever
/// trusted, even if later bytes happen to look well-formed.
fn replay_wal(bytes: &[u8]) -> (HashSet<u64>, u64) {
    let mut known = HashSet::new();
    if bytes.len() < WAL_HEADER_LEN
        || &bytes[..8] != WAL_MAGIC
        || bytes[8..WAL_HEADER_LEN] != JOURNAL_FORMAT_VERSION.to_le_bytes()
    {
        return (known, 0);
    }
    let mut pos = WAL_HEADER_LEN;
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let payload_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if payload_len != WAL_PAYLOAD_LEN {
            break;
        }
        let record_end = pos + 4 + payload_len + 8;
        let Some(rest) = bytes.get(pos + 4..record_end) else {
            break;
        };
        let (payload, checksum) = rest.split_at(payload_len);
        if fnv1a(FNV_OFFSET, payload) != u64::from_le_bytes(checksum.try_into().expect("8 bytes")) {
            break;
        }
        known.insert(u64::from_le_bytes(payload.try_into().expect("8 bytes")));
        pos = record_end;
    }
    (known, pos as u64)
}

// ------------------------------------------------------------ the journal

/// Distinguishes temp files of concurrent writers in the journal directory.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A crash-resumable journal of finished experiment cells (see the module
/// docs for the format, commit discipline and degradation policy). All
/// methods take `&self`; the state is internally synchronised, so one
/// journal serves every worker thread of a sweep.
pub struct ExperimentJournal {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

struct Inner {
    wal: Option<File>,
    known: HashSet<u64>,
    replayed: u64,
    recorded: u64,
    degraded: bool,
    warned: bool,
}

impl fmt::Debug for ExperimentJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("ExperimentJournal")
            .field("dir", &self.dir)
            .field("known", &inner.known.len())
            .field("replayed", &inner.replayed)
            .field("recorded", &inner.recorded)
            .field("degraded", &inner.degraded)
            .finish()
    }
}

impl ExperimentJournal {
    /// Opens (creating if necessary) the journal directory, sweeps stale
    /// temp files, and replays the WAL — truncating any torn tail. Never
    /// fails: an unopenable or unreadable journal warns on stderr and
    /// degrades to in-memory operation (the sweep still runs, nothing
    /// persists).
    pub fn open(dir: impl Into<PathBuf>) -> ExperimentJournal {
        // A malformed kill point ends the process here, before any work.
        kill_spec();
        let dir = dir.into();
        let (wal, known, degraded) = match open_wal(&dir) {
            Ok((wal, known)) => (Some(wal), known, false),
            Err(e) => {
                eprintln!(
                    "msp-bench: cannot open experiment journal at {}: {e}; \
                     continuing without crash resumption",
                    dir.display()
                );
                (None, HashSet::new(), true)
            }
        };
        ExperimentJournal {
            dir,
            inner: Mutex::new(Inner {
                wal,
                known,
                replayed: 0,
                recorded: 0,
                degraded,
                warned: degraded,
            }),
        }
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The result-file path of a cell fingerprint.
    pub fn cell_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.{CELL_FILE_EXT}"))
    }

    /// Whether `fingerprint` has a committed WAL record.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.lock().known.contains(&fingerprint)
    }

    /// Number of committed fingerprints currently known.
    pub fn known_count(&self) -> usize {
        self.lock().known.len()
    }

    /// Cells rehydrated from the journal by this session (each one a
    /// simulation *not* re-run).
    pub fn replayed_count(&self) -> u64 {
        self.lock().replayed
    }

    /// Cells durably recorded by this session.
    pub fn recorded_count(&self) -> u64 {
        self.lock().recorded
    }

    /// Whether the journal has fallen back to in-memory operation after an
    /// I/O failure (nothing persists, but the session still deduplicates).
    pub fn is_degraded(&self) -> bool {
        self.lock().degraded
    }

    /// Rehydrates a journaled cell, bit-identical to the run that recorded
    /// it. `None` means the cell must be computed: it was never journaled,
    /// or its result file is missing/corrupt — in which case the file is
    /// deleted, the fingerprint forgotten, and the recomputation will
    /// re-journal it.
    pub fn load_cell(&self, fingerprint: u64) -> Option<Cell> {
        let mut inner = self.lock();
        if !inner.known.contains(&fingerprint) {
            return None;
        }
        let path = self.cell_path(fingerprint);
        let decoded = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| decode_cell_file(fingerprint, &bytes));
        match decoded {
            Ok(cell) => {
                inner.replayed += 1;
                Some(cell)
            }
            Err(e) => {
                eprintln!(
                    "msp-bench: discarding unreadable journaled cell {}: {e}",
                    path.display()
                );
                let _ = fs::remove_file(&path);
                inner.known.remove(&fingerprint);
                None
            }
        }
    }

    /// Durably records a finished cell: result file first (temp + fsync +
    /// rename), WAL record second (append + fsync; the commit point). A
    /// fingerprint already committed is a no-op, so recording is idempotent
    /// across crash/resume. I/O failure warns once and degrades to
    /// in-memory deduplication — it never fails the sweep.
    pub fn record_cell(&self, fingerprint: u64, cell: &Cell) {
        let mut inner = self.lock();
        if inner.known.contains(&fingerprint) {
            return;
        }
        if !inner.degraded {
            match record_durable(&self.dir, inner.wal.as_mut(), fingerprint, cell) {
                Ok(()) => inner.recorded += 1,
                Err(e) => {
                    if !inner.warned {
                        eprintln!(
                            "msp-bench: experiment journal at {} failed ({e}); \
                             continuing without crash resumption",
                            self.dir.display()
                        );
                        inner.warned = true;
                    }
                    inner.degraded = true;
                    inner.wal = None;
                }
            }
        }
        inner.known.insert(fingerprint);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("experiment journal poisoned")
    }
}

fn open_wal(dir: &Path) -> io::Result<(File, HashSet<u64>)> {
    fs::create_dir_all(dir)?;
    crate::store::sweep_stale_temps(dir);
    let path = dir.join(WAL_FILE_NAME);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let (known, valid_len) = replay_wal(&bytes);
    if valid_len < WAL_HEADER_LEN as u64 {
        // Empty, unrecognisable or another format version: start a fresh
        // log. No record of it can reach the cell files already here.
        if !bytes.is_empty() {
            eprintln!(
                "msp-bench: restarting experiment journal {} ({}) and removing its cell files",
                path.display(),
                describe_header(&bytes)
            );
        }
        remove_cell_files(dir);
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&wal_header())?;
        file.sync_data()?;
    } else if (valid_len as usize) < bytes.len() {
        eprintln!(
            "msp-bench: truncating torn experiment journal tail ({} of {} bytes valid) in {}",
            valid_len,
            bytes.len(),
            path.display()
        );
        file.set_len(valid_len)?;
    }
    file.seek(SeekFrom::End(0))?;
    Ok((file, known))
}

/// Why a WAL header failed replay: the format version it names, or that it
/// is not a journal header at all.
fn describe_header(bytes: &[u8]) -> String {
    match bytes.get(8..WAL_HEADER_LEN) {
        Some(version) if bytes.starts_with(WAL_MAGIC) => format!(
            "format version {}, this build writes {JOURNAL_FORMAT_VERSION}",
            u32::from_le_bytes(version.try_into().expect("4 bytes"))
        ),
        _ => "unrecognisable header".to_string(),
    }
}

/// Removes every cell file in `dir`. A file that cannot be removed only
/// wastes space: a cell recorded later overwrites its file before its WAL
/// record lands.
fn remove_cell_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|dirent| dirent.path()) {
        if path.extension().is_some_and(|ext| ext == CELL_FILE_EXT) {
            let _ = fs::remove_file(path);
        }
    }
}

fn record_durable(
    dir: &Path,
    wal: Option<&mut File>,
    fingerprint: u64,
    cell: &Cell,
) -> io::Result<()> {
    let Some(wal) = wal else {
        return Err(io::Error::other("journal WAL unavailable"));
    };
    let bytes = encode_cell_file(fingerprint, cell);
    let temp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let write_temp = (|| -> io::Result<()> {
        let mut file = File::create(&temp)?;
        file.write_all(&bytes)?;
        file.sync_data()
    })();
    if let Err(e) = write_temp {
        let _ = fs::remove_file(&temp);
        return Err(e);
    }
    maybe_kill(KILL_CELL_TEMP_WRITTEN);
    let path = dir.join(format!("{fingerprint:016x}.{CELL_FILE_EXT}"));
    if let Err(e) = fs::rename(&temp, &path) {
        let _ = fs::remove_file(&temp);
        return Err(e);
    }
    maybe_kill(KILL_CELL_RENAMED);
    let record = wal_record(fingerprint);
    if kill_armed(KILL_WAL_TORN) {
        // The injected torn write: half a record, made durable, then death
        // — the exact crash the replay truncation rule exists for.
        let _ = wal.write_all(&record[..record.len() / 2]);
        let _ = wal.sync_data();
        die();
    }
    wal.write_all(&record)?;
    wal.sync_data()?;
    maybe_kill(KILL_WAL_APPENDED);
    Ok(())
}

// -------------------------------------------------------- cell file codec

/// Encodes a cell result file: magic, version, fingerprint, payload,
/// trailing FNV-1a checksum over every preceding byte.
fn encode_cell_file(fingerprint: u64, cell: &Cell) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    buf.extend_from_slice(CELL_MAGIC);
    buf.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    put_u64(&mut buf, fingerprint);
    put_cell(&mut buf, cell);
    let checksum = fnv1a(FNV_OFFSET, &buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Decodes (and fully verifies) a cell result file written by
/// [`encode_cell_file`] for the same fingerprint.
fn decode_cell_file(fingerprint: u64, bytes: &[u8]) -> Result<Cell, String> {
    const PREFIX: usize = 8 + 4 + 8;
    if bytes.len() < PREFIX + 8 {
        return Err(format!("file too short ({} bytes)", bytes.len()));
    }
    if &bytes[..8] != CELL_MAGIC {
        return Err("bad magic".to_string());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != JOURNAL_FORMAT_VERSION {
        return Err(format!(
            "format version {version} (expected {JOURNAL_FORMAT_VERSION})"
        ));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a(FNV_OFFSET, body) != stored {
        return Err("checksum mismatch".to_string());
    }
    let file_fp = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if file_fp != fingerprint {
        return Err(format!(
            "fingerprint mismatch (file {file_fp:016x}, expected {fingerprint:016x})"
        ));
    }
    let mut reader = Reader::new(&body[PREFIX..]);
    let cell = get_cell(&mut reader)?;
    reader.expect_end()?;
    Ok(cell)
}

// Primitive writers. Fingerprints, checksums and f64 bit patterns are raw
// 8-byte little-endian; counters and sizes are varints (see msp_isa::wire).

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_varint(buf, v as u64);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_usize(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_string(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_string(buf, s);
        }
    }
}

fn put_variant(buf: &mut Vec<u8>, variant: Variant) {
    buf.push(match variant {
        Variant::Original => 0,
        Variant::Modified => 1,
    });
}

fn put_machine(buf: &mut Vec<u8>, machine: MachineKind) {
    match machine {
        MachineKind::Baseline => buf.push(0),
        MachineKind::Cpr { regs_per_class } => {
            buf.push(1);
            put_usize(buf, regs_per_class);
        }
        MachineKind::Msp { regs_per_bank } => {
            buf.push(2);
            put_usize(buf, regs_per_bank);
        }
        MachineKind::IdealMsp => buf.push(3),
    }
}

fn put_predictor(buf: &mut Vec<u8>, predictor: PredictorKind) {
    buf.push(match predictor {
        PredictorKind::Bimodal => 0,
        PredictorKind::Gshare => 1,
        PredictorKind::Tage => 2,
    });
}

/// Every field of the effective configuration, destructured without rest
/// patterns (like `SimStats::accumulate`): adding a field anywhere in the
/// config tree is a compile error here until it joins the fingerprint — a
/// silently-excluded knob would alias distinct cells.
fn put_sim_config(buf: &mut Vec<u8>, config: &SimConfig) {
    let SimConfig {
        machine,
        predictor,
        frontend,
        resources,
        latency,
        memory,
        lcs_delay,
        max_same_reg_renames,
        arbitration,
    } = config;
    put_machine(buf, *machine);
    put_predictor(buf, *predictor);
    let FrontendConfig {
        fetch_width,
        rename_width,
        issue_width,
        retire_width,
        frontend_depth,
    } = frontend;
    put_usize(buf, *fetch_width);
    put_usize(buf, *rename_width);
    put_usize(buf, *issue_width);
    put_usize(buf, *retire_width);
    put_varint(buf, *frontend_depth);
    let ResourceConfig {
        iq_size,
        rob_size,
        lq_size,
        sq_l1_size,
        sq_l2_size,
        sq_l2_scan_latency,
        regs_per_class,
        checkpoints,
        max_insts_per_checkpoint,
        int_units,
        fp_units,
        ldst_units,
    } = resources;
    put_usize(buf, *iq_size);
    put_usize(buf, *rob_size);
    put_usize(buf, *lq_size);
    put_usize(buf, *sq_l1_size);
    put_usize(buf, *sq_l2_size);
    put_varint(buf, *sq_l2_scan_latency);
    put_usize(buf, *regs_per_class);
    put_usize(buf, *checkpoints);
    put_varint(buf, *max_insts_per_checkpoint);
    put_usize(buf, *int_units);
    put_usize(buf, *fp_units);
    put_usize(buf, *ldst_units);
    let LatencyConfig {
        int_alu,
        int_mul,
        fp_alu,
        fp_mul,
        fp_div,
        branch,
        agen,
    } = latency;
    put_varint(buf, *int_alu);
    put_varint(buf, *int_mul);
    put_varint(buf, *fp_alu);
    put_varint(buf, *fp_mul);
    put_varint(buf, *fp_div);
    put_varint(buf, *branch);
    put_varint(buf, *agen);
    let MemoryConfig {
        il1,
        dl1,
        l2,
        memory_latency,
    } = memory;
    for cache in [il1, dl1, l2] {
        let CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            hit_latency,
        } = cache;
        put_usize(buf, *size_bytes);
        put_usize(buf, *ways);
        put_usize(buf, *line_bytes);
        put_varint(buf, *hit_latency);
    }
    put_varint(buf, *memory_latency);
    match lcs_delay {
        None => buf.push(0),
        Some(delay) => {
            buf.push(1);
            put_usize(buf, *delay);
        }
    }
    put_usize(buf, *max_same_reg_renames);
    put_bool(buf, *arbitration);
}

/// Every counter, in `SimStats::counters` order (see the module docs).
fn put_sim_stats(buf: &mut Vec<u8>, stats: &SimStats) {
    for counter in stats.counters() {
        put_varint(buf, *counter);
    }
}

fn put_cell(buf: &mut Vec<u8>, cell: &Cell) {
    let Cell {
        workload,
        variant,
        machine,
        predictor,
        hook,
        result,
        sampled,
        sampled_energy,
    } = cell;
    put_string(buf, workload);
    put_variant(buf, *variant);
    put_machine(buf, *machine);
    put_predictor(buf, *predictor);
    put_opt_string(buf, hook.as_deref());
    let SimResult {
        machine: machine_label,
        predictor: predictor_label,
        truncated_by_watchdog,
        stats,
    } = result;
    put_string(buf, machine_label);
    put_string(buf, predictor_label);
    put_bool(buf, *truncated_by_watchdog);
    put_sim_stats(buf, stats);
    match sampled {
        None => buf.push(0),
        Some(SampledStats {
            intervals,
            measured_instructions,
            measured_cycles,
            mean_ipc,
            ipc_rel_stderr,
        }) => {
            buf.push(1);
            put_usize(buf, *intervals);
            put_varint(buf, *measured_instructions);
            put_varint(buf, *measured_cycles);
            put_f64(buf, *mean_ipc);
            match ipc_rel_stderr {
                None => buf.push(0),
                Some(stderr) => {
                    buf.push(1);
                    put_f64(buf, *stderr);
                }
            }
        }
    }
    match sampled_energy {
        None => buf.push(0),
        Some(SampledEnergy {
            intervals,
            measured_pj,
            mean_epi_pj,
            mean_rf_epi_pj,
        }) => {
            buf.push(1);
            put_usize(buf, *intervals);
            put_f64(buf, *measured_pj);
            put_f64(buf, *mean_epi_pj);
            put_f64(buf, *mean_rf_epi_pj);
        }
    }
}

// Primitive readers over the shared bounds-checked `Reader`, mirroring the
// writers above.

fn get_f64(r: &mut Reader<'_>) -> Result<f64, String> {
    Ok(f64::from_bits(r.u64()?))
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, String> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(format!("bad bool tag {t}")),
    }
}

fn get_usize(r: &mut Reader<'_>) -> Result<usize, String> {
    usize::try_from(r.varint()?).map_err(|_| "size overflows usize".to_string())
}

fn get_string(r: &mut Reader<'_>) -> Result<String, String> {
    let len = get_usize(r)?;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
}

fn get_opt_string(r: &mut Reader<'_>) -> Result<Option<String>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_string(r)?)),
        t => Err(format!("bad option tag {t}")),
    }
}

fn get_variant(r: &mut Reader<'_>) -> Result<Variant, String> {
    match r.u8()? {
        0 => Ok(Variant::Original),
        1 => Ok(Variant::Modified),
        t => Err(format!("bad variant tag {t}")),
    }
}

fn get_machine(r: &mut Reader<'_>) -> Result<MachineKind, String> {
    match r.u8()? {
        0 => Ok(MachineKind::Baseline),
        1 => Ok(MachineKind::Cpr {
            regs_per_class: get_usize(r)?,
        }),
        2 => Ok(MachineKind::Msp {
            regs_per_bank: get_usize(r)?,
        }),
        3 => Ok(MachineKind::IdealMsp),
        t => Err(format!("bad machine tag {t}")),
    }
}

fn get_predictor(r: &mut Reader<'_>) -> Result<PredictorKind, String> {
    match r.u8()? {
        0 => Ok(PredictorKind::Bimodal),
        1 => Ok(PredictorKind::Gshare),
        2 => Ok(PredictorKind::Tage),
        t => Err(format!("bad predictor tag {t}")),
    }
}

fn get_sim_stats(r: &mut Reader<'_>) -> Result<SimStats, String> {
    let mut stats = SimStats::default();
    for counter in stats.counters_mut() {
        *counter = r.varint()?;
    }
    Ok(stats)
}

fn get_cell(r: &mut Reader<'_>) -> Result<Cell, String> {
    let workload = get_string(r)?;
    let variant = get_variant(r)?;
    let machine = get_machine(r)?;
    let predictor = get_predictor(r)?;
    let hook = get_opt_string(r)?;
    let machine_label = get_string(r)?;
    let predictor_label = get_string(r)?;
    let truncated_by_watchdog = get_bool(r)?;
    let stats = get_sim_stats(r)?;
    let sampled = match r.u8()? {
        0 => None,
        1 => Some(SampledStats {
            intervals: get_usize(r)?,
            measured_instructions: r.varint()?,
            measured_cycles: r.varint()?,
            mean_ipc: get_f64(r)?,
            ipc_rel_stderr: match r.u8()? {
                0 => None,
                1 => Some(get_f64(r)?),
                t => return Err(format!("bad option tag {t}")),
            },
        }),
        t => return Err(format!("bad option tag {t}")),
    };
    let sampled_energy = match r.u8()? {
        0 => None,
        1 => Some(SampledEnergy {
            intervals: get_usize(r)?,
            measured_pj: get_f64(r)?,
            mean_epi_pj: get_f64(r)?,
            mean_rf_epi_pj: get_f64(r)?,
        }),
        t => return Err(format!("bad option tag {t}")),
    };
    Ok(Cell {
        workload,
        variant,
        machine,
        predictor,
        hook,
        result: SimResult {
            machine: machine_label,
            predictor: predictor_label,
            truncated_by_watchdog,
            stats,
        },
        sampled,
        sampled_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "msp-journal-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_config() -> SimConfig {
        SimConfig::machine(MachineKind::msp(16), PredictorKind::Gshare)
    }

    fn sample_cell() -> Cell {
        // Every counter distinct and nonzero, most of them multi-byte
        // varints and `cycles` the longest one, so the round-trip and
        // corruption tests cover the whole counter list.
        let mut stats = SimStats::default();
        for (i, counter) in (1u64..).zip(stats.counters_mut()) {
            *counter = i * 97;
        }
        stats.cycles = u64::MAX;
        Cell {
            workload: "gzip".to_string(),
            variant: Variant::Original,
            machine: MachineKind::msp(16),
            predictor: PredictorKind::Gshare,
            hook: Some("lcs=2".to_string()),
            result: SimResult {
                machine: "16-SP".to_string(),
                predictor: "gshare".to_string(),
                truncated_by_watchdog: false,
                stats,
            },
            sampled: Some(SampledStats {
                intervals: 8,
                measured_instructions: 4_000,
                measured_cycles: 2_500,
                mean_ipc: 0.1 + 0.2, // a bit pattern decimal rendering loses
                ipc_rel_stderr: Some(0.012_345_678_9),
            }),
            sampled_energy: Some(SampledEnergy {
                intervals: 8,
                measured_pj: 1.0e7 / 3.0,
                mean_epi_pj: 123.456_789,
                mean_rf_epi_pj: 23.9,
            }),
        }
    }

    fn assert_cells_bit_identical(a: &Cell, b: &Cell) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.variant, b.variant);
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.predictor, b.predictor);
        assert_eq!(a.hook, b.hook);
        assert_eq!(a.result.machine, b.result.machine);
        assert_eq!(a.result.predictor, b.result.predictor);
        assert_eq!(
            a.result.truncated_by_watchdog,
            b.result.truncated_by_watchdog
        );
        assert_eq!(a.result.stats, b.result.stats);
        assert_eq!(a.sampled, b.sampled);
        match (&a.sampled, &b.sampled) {
            (Some(x), Some(y)) => {
                // PartialEq on f64 passes for equal values; pin *bit*
                // identity explicitly (the resumability contract).
                assert_eq!(x.mean_ipc.to_bits(), y.mean_ipc.to_bits());
                assert_eq!(
                    x.ipc_rel_stderr.map(f64::to_bits),
                    y.ipc_rel_stderr.map(f64::to_bits)
                );
            }
            (None, None) => {}
            _ => panic!("sampled presence diverged"),
        }
        assert_eq!(a.sampled_energy, b.sampled_energy);
    }

    #[test]
    fn cell_file_roundtrip_is_bit_identical() {
        assert_eq!(
            (
                JOURNAL_FORMAT_VERSION,
                SimStats::default().counters().count()
            ),
            (3, 228),
            "the counter list is the cell format: a change to it must bump \
             JOURNAL_FORMAT_VERSION (and this pin)"
        );
        let cell = sample_cell();
        let fp = 0xfeed_face_cafe_beef;
        let bytes = encode_cell_file(fp, &cell);
        let decoded = decode_cell_file(fp, &bytes).expect("roundtrip");
        assert_cells_bit_identical(&cell, &decoded);
    }

    #[test]
    fn corrupt_cell_file_is_rejected_at_every_byte() {
        let cell = sample_cell();
        let fp = 0x0123_4567_89ab_cdef;
        let bytes = encode_cell_file(fp, &cell);
        // Any single flipped byte anywhere must be rejected (FNV-1a's
        // substitution guarantee), sampled across the file.
        for pos in (0..bytes.len()).step_by(7) {
            let mut copy = bytes.clone();
            copy[pos] ^= 0x40;
            assert!(
                decode_cell_file(fp, &copy).is_err(),
                "flipped byte {pos} went undetected"
            );
        }
        // A wrong expected fingerprint is rejected even with a valid file.
        assert!(decode_cell_file(fp + 1, &bytes).is_err());
        // So is a checksum-valid file of the previous format version.
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        let checksum = fnv1a(FNV_OFFSET, &old);
        put_u64(&mut old, checksum);
        assert_eq!(
            decode_cell_file(fp, &old).map(|_| ()),
            Err(format!(
                "format version 2 (expected {JOURNAL_FORMAT_VERSION})"
            ))
        );
    }

    #[test]
    fn fingerprint_covers_every_axis() {
        let config = sample_config();
        let base = cell_fingerprint(1, "gzip", Variant::Original, None, &config, 20_000, None);
        let spec = SamplingPlan::periodic(1_000).with_window(100, 50);
        let mut hooked = config.clone();
        hooked.latency.int_mul = 5;
        let others = [
            cell_fingerprint(2, "gzip", Variant::Original, None, &config, 20_000, None),
            cell_fingerprint(1, "vpr", Variant::Original, None, &config, 20_000, None),
            cell_fingerprint(1, "gzip", Variant::Modified, None, &config, 20_000, None),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                Some("h"),
                &config,
                20_000,
                None,
            ),
            cell_fingerprint(1, "gzip", Variant::Original, None, &config, 30_000, None),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(spec),
            ),
            // The plan *variant* and every plan-specific field are axes of
            // their own: a phase-aware or adaptive run must never replay a
            // periodic cell with the same window shape (or vice versa).
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan {
                    placement: Placement::Phases {
                        max_phases: 8,
                        seed: 1,
                    },
                    ..spec
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan {
                    placement: Placement::Phases {
                        max_phases: 8,
                        seed: 2,
                    },
                    ..spec
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan {
                    placement: Placement::Phases {
                        max_phases: 4,
                        seed: 1,
                    },
                    ..spec
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan {
                    placement: Placement::Adaptive {
                        target_rel_stderr: 0.01,
                        max_windows: 64,
                    },
                    ..spec
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan {
                    placement: Placement::Adaptive {
                        target_rel_stderr: 0.02,
                        max_windows: 64,
                    },
                    ..spec
                }),
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &config,
                20_000,
                Some(SamplingPlan {
                    placement: Placement::Adaptive {
                        target_rel_stderr: 0.01,
                        max_windows: 32,
                    },
                    ..spec
                }),
            ),
            cell_fingerprint(1, "gzip", Variant::Original, None, &hooked, 20_000, None),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &SimConfig::machine(MachineKind::Baseline, PredictorKind::Gshare),
                20_000,
                None,
            ),
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &SimConfig::machine(MachineKind::msp(16), PredictorKind::Tage),
                20_000,
                None,
            ),
        ];
        for (i, other) in others.iter().enumerate() {
            assert_ne!(base, *other, "axis {i} did not change the fingerprint");
        }
        // Pairwise too: plan-specific fields (seed, max_phases, target,
        // max_windows) must separate plans that agree on everything else.
        for i in 0..others.len() {
            for j in i + 1..others.len() {
                assert_ne!(others[i], others[j], "axes {i} and {j} collided");
            }
        }
        // And it is stable: same inputs, same fingerprint.
        assert_eq!(
            base,
            cell_fingerprint(1, "gzip", Variant::Original, None, &config, 20_000, None)
        );
    }

    /// Literal fingerprints of one cell, exact and under one plan of each
    /// placement: a journal written by any earlier build of this format
    /// version replays only while these values hold.
    #[test]
    fn fingerprints_are_stable_across_builds() {
        let fingerprint = |plan| {
            cell_fingerprint(
                1,
                "gzip",
                Variant::Original,
                None,
                &sample_config(),
                20_000,
                plan,
            )
        };
        assert_eq!(JOURNAL_FORMAT_VERSION, 3);
        assert_eq!(fingerprint(None), 0xf5df_ce02_9b23_0248);
        assert_eq!(
            fingerprint(Some(SamplingPlan::periodic(1_000).with_window(100, 50))),
            0x007b_edea_d809_64f8
        );
        assert_eq!(
            fingerprint(Some(SamplingPlan::phase_aware(1_000))),
            0xcc4c_0544_f6cc_8b6c
        );
        assert_eq!(
            fingerprint(Some(SamplingPlan::adaptive(0.01).with_interval(1_000))),
            0xc1ec_e706_f283_71bf
        );
    }

    #[test]
    fn journal_records_survive_reopen_and_replay_bit_identically() {
        let dir = temp_dir("reopen");
        let cell = sample_cell();
        let fp = cell_fingerprint(
            7,
            "gzip",
            Variant::Original,
            Some("lcs=2"),
            &sample_config(),
            20_000,
            None,
        );
        {
            let journal = ExperimentJournal::open(&dir);
            assert!(!journal.is_degraded());
            assert!(!journal.contains(fp));
            journal.record_cell(fp, &cell);
            assert_eq!(journal.recorded_count(), 1);
            // Recording the same fingerprint again is a no-op.
            journal.record_cell(fp, &cell);
            assert_eq!(journal.recorded_count(), 1);
        }
        let journal = ExperimentJournal::open(&dir);
        assert!(journal.contains(fp));
        assert_eq!(journal.known_count(), 1);
        let replayed = journal.load_cell(fp).expect("journaled cell replays");
        assert_cells_bit_identical(&cell, &replayed);
        assert_eq!(journal.replayed_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_never_trusted() {
        let dir = temp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let wal = dir.join(WAL_FILE_NAME);
        let mut bytes = wal_header();
        bytes.extend_from_slice(&wal_record(0x1111));
        bytes.extend_from_slice(&wal_record(0x2222));
        let valid_len = bytes.len() as u64;
        // A torn third record, then a byte-wise *valid* fourth record after
        // the tear: replay must keep 2 records, drop the tear, and never
        // resynchronise onto the record past it.
        let torn = wal_record(0x3333);
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        bytes.extend_from_slice(&wal_record(0x4444));
        fs::write(&wal, &bytes).unwrap();
        let journal = ExperimentJournal::open(&dir);
        assert!(journal.contains(0x1111));
        assert!(journal.contains(0x2222));
        assert!(!journal.contains(0x3333));
        assert!(!journal.contains(0x4444), "no resync past a torn record");
        assert_eq!(fs::metadata(&wal).unwrap().len(), valid_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_wal_record_truncates_from_the_corruption() {
        let dir = temp_dir("corrupt-wal");
        fs::create_dir_all(&dir).unwrap();
        let wal = dir.join(WAL_FILE_NAME);
        let mut bytes = wal_header();
        bytes.extend_from_slice(&wal_record(0xaaaa));
        let valid_len = bytes.len() as u64;
        let mut bad = wal_record(0xbbbb);
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        bytes.extend_from_slice(&bad);
        fs::write(&wal, &bytes).unwrap();
        let journal = ExperimentJournal::open(&dir);
        assert!(journal.contains(0xaaaa));
        assert!(!journal.contains(0xbbbb));
        assert_eq!(fs::metadata(&wal).unwrap().len(), valid_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_corruption_restarts_the_log() {
        let dir = temp_dir("header");
        fs::create_dir_all(&dir).unwrap();
        let wal = dir.join(WAL_FILE_NAME);
        fs::write(&wal, b"NOTAJRNL-garbage-garbage").unwrap();
        let journal = ExperimentJournal::open(&dir);
        assert!(!journal.is_degraded());
        assert_eq!(journal.known_count(), 0);
        assert_eq!(
            fs::read(&wal).unwrap(),
            wal_header(),
            "unrecognisable log restarts fresh"
        );
        // A well-formed log of the previous format version replays nothing:
        // its cells were encoded in the old format, so their files go too.
        let mut old = WAL_MAGIC.to_vec();
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&wal_record(0x5555));
        fs::write(&wal, &old).unwrap();
        let old_cell = journal.cell_path(0x5555);
        fs::write(&old_cell, b"a version-2 cell").unwrap();
        let journal = ExperimentJournal::open(&dir);
        assert_eq!(journal.known_count(), 0);
        assert_eq!(fs::read(&wal).unwrap(), wal_header());
        assert!(!old_cell.exists(), "the restart removes unreachable cells");
        assert_eq!(
            describe_header(&old),
            format!("format version 2, this build writes {JOURNAL_FORMAT_VERSION}")
        );
        assert_eq!(describe_header(b"NOTAJRNL"), "unrecognisable header");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unopenable_journal_degrades_without_failing() {
        // A regular *file* where the directory should be: create_dir_all
        // fails even for root (permission bits would not).
        let dir = temp_dir("degraded");
        fs::write(&dir, b"not a directory").unwrap();
        let journal = ExperimentJournal::open(&dir);
        assert!(journal.is_degraded());
        let cell = sample_cell();
        journal.record_cell(0x77, &cell);
        assert!(journal.contains(0x77), "session-local dedup still works");
        assert_eq!(journal.recorded_count(), 0, "nothing durably recorded");
        assert!(journal.load_cell(0x77).is_none());
        fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn missing_cell_file_forgets_the_fingerprint_for_recompute() {
        let dir = temp_dir("missing-cell");
        let cell = sample_cell();
        let journal = ExperimentJournal::open(&dir);
        journal.record_cell(0xabc, &cell);
        fs::remove_file(journal.cell_path(0xabc)).unwrap();
        let reopened = ExperimentJournal::open(&dir);
        assert!(reopened.contains(0xabc), "WAL still lists it");
        assert!(reopened.load_cell(0xabc).is_none(), "file is gone");
        assert!(
            !reopened.contains(0xabc),
            "fingerprint forgotten so the cell recomputes and re-records"
        );
        reopened.record_cell(0xabc, &cell);
        assert!(reopened.load_cell(0xabc).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
