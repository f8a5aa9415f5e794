//! The persistent on-disk trace store.
//!
//! A [`TraceStore`] is a flat directory of compressed `.msptrace` files (the
//! msp-isa trace file format), shared by every process pointed at it via
//! `MSP_BENCH_TRACE_DIR`. It is the second tier of the [`Lab`](crate::Lab)
//! trace cache: a workload's functional trace is captured **once**, persisted,
//! and every later run — in this process or any other — resolves it from disk
//! instead of re-executing the workload.
//!
//! Files are keyed purely by content-derived identity:
//!
//! ```text
//! {program_fingerprint:016x}-{record_budget}-{checkpoint_interval}.msptrace
//! ```
//!
//! so the name alone answers a cache probe (no manifest file, no lock file —
//! concurrent writers race benignly through atomic rename, and identical keys
//! hold bit-identical content because functional execution is deterministic).
//! The store is byte-bounded: after every write the least-recently-*used*
//! files (by modification time, which hits refresh) are deleted until the
//! directory fits [`TraceStore::budget_bytes`], always retaining the newest
//! file.
//!
//! A file that fails verification (truncated copy, version bump, flipped bit —
//! the format checksums everything) is **deleted and treated as a miss**: the
//! trace is re-captured, never trusted.

use crate::report::{Block, Report};
use crate::TextTable;
use msp_isa::{
    capture_trace_to_path, program_fingerprint, write_trace_to_path, Program, Trace, TraceReader,
};
use msp_workloads::{spec_fp_like, spec_int_like, Variant};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Default byte budget for the on-disk store: room for dozens of
/// multi-million-instruction compressed traces (a 2M-instruction trace is a
/// few MiB on disk; see DESIGN.md).
pub const DEFAULT_TRACE_STORE_BYTES: u64 = 4 * 1024 * 1024 * 1024;

/// File extension of stored traces.
pub const TRACE_FILE_EXT: &str = "msptrace";

/// A bounded directory of persistent compressed trace files.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    budget_bytes: u64,
}

/// One stored trace file, as parsed from its (content-keyed) file name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Absolute path of the file.
    pub path: PathBuf,
    /// File name (`{fingerprint:016x}-{budget}-{interval}.msptrace`).
    pub file_name: String,
    /// Program fingerprint ([`msp_isa::program_fingerprint`]).
    pub fingerprint: u64,
    /// Record budget the trace was captured with (instructions + margin).
    pub budget: u64,
    /// Checkpoint interval (`0` = captured without checkpoints).
    pub checkpoint_interval: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-used time (modification time; refreshed on every cache hit).
    pub modified: SystemTime,
}

/// What one [`TraceStore::gc`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Files deleted.
    pub deleted: usize,
    /// Bytes those files occupied.
    pub freed_bytes: u64,
    /// Files retained.
    pub retained: usize,
    /// Bytes the retained files occupy.
    pub retained_bytes: u64,
}

/// Distinguishes temp files of concurrent writers in the same directory.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TraceStore {
    /// Opens (creating if necessary) the store directory, sweeping any
    /// stale `.tmp-*` files a crashed writer left behind mid-commit.
    pub fn open(dir: impl Into<PathBuf>, budget_bytes: u64) -> io::Result<TraceStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sweep_stale_temps(&dir);
        Ok(TraceStore { dir, budget_bytes })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte budget [`TraceStore::gc`] enforces.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The content-derived file name of a `(program, budget, interval)` key.
    pub fn file_name(fingerprint: u64, budget: u64, checkpoint_interval: u64) -> String {
        format!("{fingerprint:016x}-{budget}-{checkpoint_interval}.{TRACE_FILE_EXT}")
    }

    /// The path a `(program, budget, interval)` key resolves to.
    pub fn path_for(&self, program: &Program, budget: u64, checkpoint_interval: u64) -> PathBuf {
        self.dir.join(Self::file_name(
            program_fingerprint(program),
            budget,
            checkpoint_interval,
        ))
    }

    /// Probes the store for a `(program, budget, interval)` key. A hit opens
    /// (and fully verifies) the file and refreshes its modification time; a
    /// file that fails verification is deleted — with a warning on stderr —
    /// and reported as a miss, so the caller re-captures.
    pub fn open_reader(
        &self,
        program: &Program,
        budget: u64,
        checkpoint_interval: u64,
    ) -> Option<Arc<TraceReader>> {
        let path = self.path_for(program, budget, checkpoint_interval);
        if !path.exists() {
            return None;
        }
        match TraceReader::open(&path, program) {
            Ok(reader) => {
                touch(&path);
                Some(Arc::new(reader))
            }
            Err(e) => {
                eprintln!(
                    "msp-bench: discarding unreadable trace {}: {e}",
                    path.display()
                );
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists an already-materialised trace under its content key, then
    /// GCs. Atomic (temp file + rename): a concurrent reader never observes
    /// a partial file, and racing writers of the same key both win (the
    /// contents are bit-identical).
    pub fn save(&self, program: &Program, budget: u64, trace: &Trace) -> io::Result<PathBuf> {
        let path = self.path_for(program, budget, trace.checkpoint_interval());
        self.commit(&path, |temp| {
            write_trace_to_path(temp, program, trace).map_err(io::Error::other)
        })?;
        self.gc()?;
        Ok(path)
    }

    /// Captures a trace by functional execution **streamed straight to
    /// disk** — the trace is never materialised in memory, so the budget can
    /// exceed RAM — then GCs. Atomic like [`TraceStore::save`].
    pub fn capture(
        &self,
        program: &Program,
        budget: u64,
        checkpoint_interval: u64,
    ) -> io::Result<PathBuf> {
        let path = self.path_for(program, budget, checkpoint_interval);
        self.commit(&path, |temp| {
            capture_trace_to_path(temp, program, budget, checkpoint_interval)
                .map_err(io::Error::other)
        })?;
        self.gc()?;
        Ok(path)
    }

    fn commit(&self, path: &Path, write: impl FnOnce(&Path) -> io::Result<()>) -> io::Result<()> {
        let temp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = write(&temp) {
            let _ = fs::remove_file(&temp);
            return Err(e);
        }
        match fs::rename(&temp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&temp);
                Err(e)
            }
        }
    }

    /// Every stored trace, sorted by file name (deterministic across
    /// platforms and directory-iteration orders). Files whose names do not
    /// parse as store keys — including in-flight temp files — are ignored.
    pub fn entries(&self) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let file_name = dirent.file_name();
            let Some(name) = file_name.to_str() else {
                continue;
            };
            let Some((fingerprint, budget, interval)) = parse_file_name(name) else {
                continue;
            };
            let meta = dirent.metadata()?;
            if !meta.is_file() {
                continue;
            }
            entries.push(StoreEntry {
                path: dirent.path(),
                file_name: name.to_string(),
                fingerprint,
                budget,
                checkpoint_interval: interval,
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        entries.sort_by(|a, b| a.file_name.cmp(&b.file_name));
        Ok(entries)
    }

    /// Deletes least-recently-used files (oldest modification time first —
    /// hits refresh it) until the directory fits the byte budget. The newest
    /// file is always retained, so even a zero budget keeps the trace the
    /// current sweep just wrote.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut entries = self.entries()?;
        entries.sort_by(|a, b| (a.modified, &a.file_name).cmp(&(b.modified, &b.file_name)));
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport::default();
        let mut survivors = entries.len();
        for entry in &entries {
            if total <= self.budget_bytes || survivors <= 1 {
                break;
            }
            fs::remove_file(&entry.path)?;
            total -= entry.bytes;
            survivors -= 1;
            report.deleted += 1;
            report.freed_bytes += entry.bytes;
        }
        report.retained = survivors;
        report.retained_bytes = total;
        Ok(report)
    }
}

/// Age beyond which a temp file is considered abandoned when the owning
/// process cannot be identified (no `/proc`, unparseable name).
const STALE_TEMP_SECS: u64 = 3600;

/// Deletes orphaned `.tmp-{pid}-{counter}` files: atomic temp+rename commits
/// leak their temp when the writing process dies between the write and the
/// rename. A temp is stale when its owning process is provably gone
/// (`/proc/{pid}` absent) or, without a liveness oracle, when it is over an
/// hour old. Best-effort and shared by every temp+rename directory in the
/// crate (trace store and experiment journal). Returns the number deleted.
pub(crate) fn sweep_stale_temps(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for dirent in entries.flatten() {
        let file_name = dirent.file_name();
        let Some(name) = file_name.to_str() else {
            continue;
        };
        if !name.starts_with(".tmp-") {
            continue;
        }
        if temp_is_stale(name, &dirent.path()) && fs::remove_file(dirent.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

fn temp_is_stale(name: &str, path: &Path) -> bool {
    let owner = name
        .strip_prefix(".tmp-")
        .and_then(|rest| rest.split('-').next())
        .and_then(|pid| pid.parse::<u32>().ok());
    if let Some(pid) = owner {
        if pid == std::process::id() {
            return false;
        }
        if Path::new("/proc").is_dir() {
            return !Path::new(&format!("/proc/{pid}")).exists();
        }
    }
    // No liveness oracle: fall back to age (a live writer finishes its
    // commit in well under an hour).
    fs::metadata(path)
        .and_then(|meta| meta.modified())
        .ok()
        .and_then(|modified| SystemTime::now().duration_since(modified).ok())
        .is_some_and(|age| age.as_secs() > STALE_TEMP_SECS)
}

/// Refreshes a file's modification time (a disk-cache hit marks the file
/// recently used, so GC evicts cold traces first). Best-effort: a read-only
/// store still serves hits.
fn touch(path: &Path) {
    if let Ok(file) = fs::OpenOptions::new().append(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

/// Parses `{fingerprint:016x}-{budget}-{interval}.msptrace`.
fn parse_file_name(name: &str) -> Option<(u64, u64, u64)> {
    let stem = name.strip_suffix(&format!(".{TRACE_FILE_EXT}"))?;
    let mut parts = stem.split('-');
    let fp_hex = parts.next()?;
    if fp_hex.len() != 16 {
        return None;
    }
    let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
    let budget = parts.next()?.parse::<u64>().ok()?;
    let interval = parts.next()?.parse::<u64>().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((fingerprint, budget, interval))
}

// --------------------------------------------------------------- trace ls

/// Resolves a program fingerprint to `workload/variant` via the workload
/// registry (the store itself only knows fingerprints). Unknown fingerprints
/// — hand-built programs, renamed kernels — render as the raw hex.
fn workload_label(fingerprint: u64) -> String {
    for variant in [Variant::Original, Variant::Modified] {
        for w in spec_int_like(variant)
            .into_iter()
            .chain(spec_fp_like(variant))
        {
            if program_fingerprint(w.program()) == fingerprint {
                return format!("{}/{}", w.name(), variant);
            }
        }
    }
    format!("{fingerprint:016x}")
}

/// Builds the `msp-lab trace ls` report over a store.
///
/// The rows are deterministic for a given set of stored traces: sorted by
/// file name, no absolute paths, no timestamps — so the report of the
/// [canonical demo store](demo_store) is golden-pinned byte-for-byte.
pub fn trace_ls_report(store: &TraceStore) -> io::Result<Report> {
    let entries = store.entries()?;
    let mut table = TextTable::new(&[
        "file",
        "workload",
        "records",
        "interval",
        "checkpoints",
        "complete",
        "bytes",
    ]);
    for entry in &entries {
        let meta = msp_isa::read_trace_meta(&entry.path).map_err(io::Error::other)?;
        table.row(vec![
            entry.file_name.clone(),
            workload_label(entry.fingerprint),
            meta.record_count.to_string(),
            meta.checkpoint_interval.to_string(),
            meta.checkpoint_count.to_string(),
            if meta.complete { "yes" } else { "no" }.to_string(),
            entry.bytes.to_string(),
        ]);
    }
    let total: u64 = entries.iter().map(|e| e.bytes).sum();
    Ok(Report {
        name: "trace-ls",
        title: "Persistent trace store contents".to_string(),
        instructions: None,
        blocks: vec![
            Block::Table(table),
            Block::Lines(vec![format!(
                "{} trace file(s), {} bytes (format v{})",
                entries.len(),
                total,
                msp_isa::TRACE_FORMAT_VERSION
            )]),
        ],
    })
}

/// Populates `dir` with the canonical demo store used to pin the `trace ls`
/// golden: three reference kernels at small fixed budgets, one of them
/// checkpointed. Deterministic byte-for-byte (functional execution and the
/// trace encoding both are).
pub fn demo_store(dir: impl Into<PathBuf>) -> io::Result<TraceStore> {
    let store = TraceStore::open(dir, DEFAULT_TRACE_STORE_BYTES)?;
    for (name, budget, interval) in [("gzip", 2_000, 0), ("vpr", 2_000, 500), ("swim", 1_000, 0)] {
        let w = msp_workloads::by_name(name, Variant::Original).expect("reference kernel exists");
        store.capture(w.program(), budget, interval)?;
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "msp-store-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_names_round_trip() {
        let name = TraceStore::file_name(0xdead_beef_0123_4567, 20_480, 250);
        assert_eq!(name, "deadbeef01234567-20480-250.msptrace");
        assert_eq!(
            parse_file_name(&name),
            Some((0xdead_beef_0123_4567, 20_480, 250))
        );
        assert_eq!(parse_file_name("notatrace.txt"), None);
        assert_eq!(parse_file_name(".tmp-12-3"), None);
        assert_eq!(parse_file_name("beef-1-2.msptrace"), None); // short fp
    }

    #[test]
    fn capture_hit_and_corruption_recovery() {
        let dir = temp_dir("hit");
        let store = TraceStore::open(&dir, DEFAULT_TRACE_STORE_BYTES).unwrap();
        let w = msp_workloads::by_name("gzip", Variant::Original).unwrap();
        assert!(store.open_reader(w.program(), 1_000, 0).is_none());
        let path = store.capture(w.program(), 1_000, 0).unwrap();
        assert!(path.exists());
        let reader = store.open_reader(w.program(), 1_000, 0).expect("stored");
        assert_eq!(reader.meta().record_count, 1_000);
        assert_eq!(store.entries().unwrap().len(), 1);
        // A flipped byte must be detected, deleted, and reported as a miss.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.open_reader(w.program(), 1_000, 0).is_none());
        assert!(!path.exists(), "corrupt file is deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_dead_writers_temps_and_keeps_live_ones() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // A temp owned by a provably-dead pid (u32::MAX is far above any
        // real pid_max) must be swept; one owned by this live process must
        // survive; completed store files are untouched.
        let dead = dir.join(format!(".tmp-{}-0", u32::MAX));
        let live = dir.join(format!(".tmp-{}-0", std::process::id()));
        fs::write(&dead, b"partial capture").unwrap();
        fs::write(&live, b"in-flight capture").unwrap();
        let store = TraceStore::open(&dir, DEFAULT_TRACE_STORE_BYTES).unwrap();
        assert!(!dead.exists(), "dead writer's temp is swept on open");
        assert!(live.exists(), "live writer's temp is preserved");
        let w = msp_workloads::by_name("gzip", Variant::Original).unwrap();
        let path = store.capture(w.program(), 500, 0).unwrap();
        let _ = TraceStore::open(&dir, DEFAULT_TRACE_STORE_BYTES).unwrap();
        assert!(path.exists(), "committed files are never swept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_deletes_oldest_first_and_retains_newest() {
        let dir = temp_dir("gc");
        let store = TraceStore::open(&dir, DEFAULT_TRACE_STORE_BYTES).unwrap();
        let w = msp_workloads::by_name("gzip", Variant::Original).unwrap();
        let old = store.capture(w.program(), 500, 0).unwrap();
        let newer = store.capture(w.program(), 600, 0).unwrap();
        // Order by mtime explicitly: coarse filesystem clocks can stamp both
        // captures identically.
        let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000);
        fs::OpenOptions::new()
            .append(true)
            .open(&old)
            .unwrap()
            .set_modified(t)
            .unwrap();
        let tight = TraceStore::open(&dir, 1).unwrap();
        let report = tight.gc().unwrap();
        assert_eq!(report.deleted, 1);
        assert_eq!(report.retained, 1);
        assert!(!old.exists(), "oldest file evicted");
        assert!(newer.exists(), "newest file always retained");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn demo_store_report_is_deterministic() {
        let dir_a = temp_dir("demo-a");
        let dir_b = temp_dir("demo-b");
        let a = trace_ls_report(&demo_store(&dir_a).unwrap()).unwrap();
        let b = trace_ls_report(&demo_store(&dir_b).unwrap()).unwrap();
        assert_eq!(
            a.render(crate::OutputFormat::Json),
            b.render(crate::OutputFormat::Json)
        );
        let text = a.render(crate::OutputFormat::Text);
        assert!(text.contains("gzip/original"), "{text}");
        assert!(text.contains("vpr/original"), "{text}");
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}
