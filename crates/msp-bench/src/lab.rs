//! The [`Lab`] session: owns everything the harness used to keep in
//! process-global state — the shared trace cache, the worker-thread count
//! and the instruction budget — and executes declarative
//! [`Experiment`](crate::Experiment) specs into
//! [`ResultSet`](crate::ResultSet)s.
//!
//! # Configuration
//!
//! A [`LabConfig`] is plain data with a [`Default`]. The environment is read
//! in exactly one place, [`LabConfig::from_env`], and **strictly**: an
//! unparseable (or zero) `MSP_BENCH_INSTRUCTIONS`, `MSP_BENCH_THREADS`,
//! `MSP_BENCH_TRACE_CACHE_BYTES` or `MSP_BENCH_SAMPLE_INTERVAL` is a
//! [`LabConfigError`], never a silent fall-back to the default.
//!
//! # The two-tier trace cache
//!
//! Every simulation a `Lab` runs goes through its trace cache: the
//! committed-path [`Trace`] of a `(workload, instruction budget)` pair is
//! captured by one functional execution and then shared read-only by every
//! machine configuration, predictor, override hook and worker thread
//! simulating that workload. There is **no** uncached execution path: the
//! reference private-oracle comparison lives in the determinism tests,
//! which construct `Simulator`s directly.
//!
//! The cache has two tiers:
//!
//! 1. **Memory** — an LRU of materialised `Arc<Trace>`s, bounded by
//!    [`LabConfig::trace_cache_bytes`]. The most recently inserted trace is
//!    always retained (it is in use by the sweep that requested it);
//!    eviction only sheds older, idle traces.
//! 2. **Disk** (optional) — a persistent [`TraceStore`] directory of
//!    compressed trace files shared across processes, enabled by
//!    [`LabConfig::trace_dir`] (`MSP_BENCH_TRACE_DIR`). A memory miss
//!    probes the store before capturing; a capture is written through to
//!    it. A warm store means a **cold process performs zero functional
//!    executions**.
//!
//! Budgets whose materialised trace would overflow the memory tier are not
//! materialised at all when a store is present: the trace is captured
//! *streaming* straight to disk ([`msp_isa::capture_trace_to_path`]) and
//! simulated through a bounded-memory [`TraceSource`] cursor — bit-identical
//! to the materialised path (pinned by the msp-pipeline streaming tests),
//! so RAM bounds simulation budgets no more. Either way a re-resolved trace
//! is identical: functional execution and the trace encoding are both
//! deterministic.

use crate::energy::{energy_model_for, SampledEnergy, REFERENCE_NODE};
use crate::experiment::{Axes, Cell, Experiment, ResultSet};
use crate::journal::{cell_fingerprint, maybe_kill, ExperimentJournal, KILL_WINDOW_DONE};
use crate::sampling::{adaptive_window_order, cluster_phases};
use crate::store::TraceStore;
use crate::{parallel_map, Placement, SampledStats, SamplingPlan};
use msp_isa::{BbvAccumulator, BbvSignature, ExecutedInst, Program, Trace, TraceReader};
use msp_pipeline::{SimConfig, SimResult, SimStats, Simulator, TraceSource, WarmState};
use msp_workloads::{Variant, Workload};
use std::ffi::OsString;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default number of committed instructions per simulation.
pub const DEFAULT_INSTRUCTIONS: u64 = 20_000;

/// Default sampling interval for `--sample` runs (one detailed window per
/// this many committed instructions; see [`SamplingPlan::periodic`]).
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 250_000;

/// Default adaptive-stopping target for `--sample-plan adaptive` runs when
/// no explicit `--sample-target-stderr` is given: stop once the estimate's
/// relative standard error reaches 2%.
pub const DEFAULT_SAMPLE_TARGET_STDERR: f64 = 0.02;

/// Default trace-cache byte budget: room for a handful of 200k-instruction
/// traces (~20 MiB each) or dozens of 20k ones.
pub const DEFAULT_TRACE_CACHE_BYTES: usize = 256 * 1024 * 1024;

/// Extra records a cached trace materialises beyond the requested budget.
///
/// A simulator's front end fetches ahead of commit by at most the in-flight
/// window (issue queue + fetch buffer, a few hundred instructions), so this
/// margin keeps the overfetch inside the shared prefix; anything beyond it
/// falls back to the oracle's (bit-identical) lazy extension.
const TRACE_MARGIN: u64 = 4_096;

/// Configuration of a [`Lab`] session: plain data, no hidden environment
/// reads. Construct with [`Default`] (or struct update syntax) for
/// programmatic use, or with [`LabConfig::from_env`] for the documented
/// `MSP_BENCH_*` environment knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct LabConfig {
    /// Committed-instruction budget per simulation (default
    /// [`DEFAULT_INSTRUCTIONS`]). An [`Experiment`] can override it per
    /// spec.
    pub instructions: u64,
    /// Worker threads for sweep execution (default: one per available
    /// hardware thread). Results are identical and identically ordered for
    /// every thread count.
    pub threads: usize,
    /// Byte budget for retained traces (default
    /// [`DEFAULT_TRACE_CACHE_BYTES`]); least-recently-used traces are
    /// evicted above it.
    pub trace_cache_bytes: usize,
    /// The plan flag-driven `--sample` runs use (default
    /// [`SamplingPlan::periodic`] at [`DEFAULT_SAMPLE_INTERVAL`]; the
    /// `MSP_BENCH_SAMPLE_*` knobs of [`LabConfig::from_env`] build others).
    /// Experiments attach their own plan with [`Experiment::sampling`].
    pub sampling: SamplingPlan,
    /// Directory of the persistent on-disk trace store (default `None` =
    /// memory tier only). Shared across processes; see [`TraceStore`].
    pub trace_dir: Option<PathBuf>,
    /// Byte budget of the on-disk store (default
    /// [`DEFAULT_TRACE_STORE_BYTES`](crate::store::DEFAULT_TRACE_STORE_BYTES));
    /// least-recently-used files are garbage-collected above it. Ignored
    /// without [`LabConfig::trace_dir`].
    pub trace_store_bytes: u64,
    /// Directory of the crash-resumable experiment journal (default `None`
    /// = no journalling). With it set, every finished cell of a
    /// [`Lab::run`] is durably recorded, and a re-run **replays** journaled
    /// cells bit-identically instead of re-simulating them — see
    /// [`ExperimentJournal`] and the `msp-lab --resume` / `batch` modes.
    pub journal_dir: Option<PathBuf>,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            instructions: DEFAULT_INSTRUCTIONS,
            threads: default_threads(),
            trace_cache_bytes: DEFAULT_TRACE_CACHE_BYTES,
            sampling: SamplingPlan::periodic(DEFAULT_SAMPLE_INTERVAL),
            trace_dir: None,
            trace_store_bytes: crate::store::DEFAULT_TRACE_STORE_BYTES,
            journal_dir: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A rejected `MSP_BENCH_*` environment value.
///
/// [`LabConfig::from_env`] is strict: a set-but-invalid variable is this
/// error, never a silent fall-back to the default (a typo like
/// `MSP_BENCH_INSTRUCTIONS=20_000` used to quietly run 20k-instruction
/// sweeps labelled as something else).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabConfigError {
    /// The offending environment variable.
    pub var: &'static str,
    /// The value it held.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for LabConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {} (unset the variable to use the default)",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for LabConfigError {}

impl LabConfig {
    /// Reads the documented environment knobs, strictly:
    ///
    /// * `MSP_BENCH_INSTRUCTIONS` — committed-instruction budget per
    ///   simulation; a positive integer.
    /// * `MSP_BENCH_THREADS` — sweep worker threads; a positive integer.
    /// * `MSP_BENCH_TRACE_CACHE_BYTES` — trace-cache byte budget; a
    ///   non-negative integer (`0` disables retention beyond the trace in
    ///   use).
    /// * `MSP_BENCH_SAMPLE_INTERVAL` — sampling interval for `--sample`
    ///   runs; a positive integer.
    /// * `MSP_BENCH_SAMPLE_PLAN` — sampling plan for `--sample` runs; one
    ///   of `periodic`, `phases`, `adaptive`.
    /// * `MSP_BENCH_SAMPLE_TARGET_STDERR` — adaptive stopping target for
    ///   `--sample` runs; a number strictly between 0 and 1, checked
    ///   whichever plan is chosen.
    /// * `MSP_BENCH_TRACE_DIR` — directory of the persistent trace store;
    ///   a non-empty path (created if missing).
    /// * `MSP_BENCH_TRACE_STORE_BYTES` — byte budget of the on-disk store;
    ///   a non-negative integer (`0` retains only the newest file).
    /// * `MSP_BENCH_JOURNAL_DIR` — directory of the crash-resumable
    ///   experiment journal; a non-empty path (created if missing).
    ///
    /// The three sampling knobs build [`LabConfig::sampling`]. Unset
    /// variables use the [`Default`] values; set-but-invalid ones are a
    /// [`LabConfigError`].
    pub fn from_env() -> Result<LabConfig, LabConfigError> {
        Self::from_vars(std::env::var_os)
    }

    /// [`LabConfig::from_env`] reading each variable through `var` (`None` =
    /// unset), so the parsing rules are testable without mutating the
    /// process environment, and `msp-lab`'s sampling flags reach them as
    /// the values of the variables they override.
    pub fn from_vars(
        var: impl Fn(&'static str) -> Option<OsString>,
    ) -> Result<LabConfig, LabConfigError> {
        // A non-UTF-8 value must surface as an error like any other garbage,
        // not be treated as unset.
        let read = |name: &'static str| -> Result<Option<String>, LabConfigError> {
            var(name)
                .map(|value| {
                    value.into_string().map_err(|raw| LabConfigError {
                        var: name,
                        value: raw.to_string_lossy().into_owned(),
                        reason: "not valid UTF-8",
                    })
                })
                .transpose()
        };
        let parse_dir = |name: &'static str| -> Result<Option<PathBuf>, LabConfigError> {
            match read(name)? {
                Some(value) if value.trim().is_empty() => Err(LabConfigError {
                    var: name,
                    value,
                    reason: "must be a non-empty directory path",
                }),
                value => Ok(value.map(PathBuf::from)),
            }
        };
        let number = |name: &'static str, default: u64, require_nonzero: bool| {
            parse_var(name, read(name)?.as_deref(), default, require_nonzero)
        };
        let defaults = LabConfig::default();
        let interval = number("MSP_BENCH_SAMPLE_INTERVAL", DEFAULT_SAMPLE_INTERVAL, true)?;
        let target = match read("MSP_BENCH_SAMPLE_TARGET_STDERR")? {
            None => DEFAULT_SAMPLE_TARGET_STDERR,
            Some(value) => value
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t > 0.0 && *t < 1.0)
                .ok_or(LabConfigError {
                    var: "MSP_BENCH_SAMPLE_TARGET_STDERR",
                    value,
                    reason: "must be a number strictly between 0 and 1",
                })?,
        };
        let plan = read("MSP_BENCH_SAMPLE_PLAN")?;
        let sampling = match plan.as_deref().map(str::trim) {
            None | Some("periodic") => SamplingPlan::periodic(interval),
            Some("phases") => SamplingPlan::phase_aware(interval),
            Some("adaptive") => SamplingPlan::adaptive(target).with_interval(interval),
            Some(other) => {
                return Err(LabConfigError {
                    var: "MSP_BENCH_SAMPLE_PLAN",
                    value: other.to_string(),
                    reason: "must be one of: periodic, phases, adaptive",
                })
            }
        };
        Ok(LabConfig {
            instructions: number("MSP_BENCH_INSTRUCTIONS", defaults.instructions, true)?,
            threads: number("MSP_BENCH_THREADS", defaults.threads as u64, true)? as usize,
            trace_cache_bytes: number(
                "MSP_BENCH_TRACE_CACHE_BYTES",
                defaults.trace_cache_bytes as u64,
                false,
            )? as usize,
            sampling,
            trace_dir: parse_dir("MSP_BENCH_TRACE_DIR")?,
            trace_store_bytes: number(
                "MSP_BENCH_TRACE_STORE_BYTES",
                defaults.trace_store_bytes,
                false,
            )?,
            journal_dir: parse_dir("MSP_BENCH_JOURNAL_DIR")?,
        })
    }
}

fn parse_var(
    var: &'static str,
    value: Option<&str>,
    default: u64,
    require_nonzero: bool,
) -> Result<u64, LabConfigError> {
    let Some(value) = value else {
        return Ok(default);
    };
    let parsed = value.trim().parse::<u64>().map_err(|_| LabConfigError {
        var,
        value: value.to_string(),
        reason: "not an unsigned integer",
    })?;
    if require_nonzero && parsed == 0 {
        return Err(LabConfigError {
            var,
            value: value.to_string(),
            reason: "must be positive",
        });
    }
    Ok(parsed)
}

// ------------------------------------------------------------- trace cache

/// Cache key: workload identity plus a structural fingerprint of the
/// program (so a hand-built `Workload` reusing a SPEC name can never alias
/// a cached kernel), plus the instruction budget and the checkpoint
/// interval (`0` = captured without checkpoints).
///
/// The fingerprint is [`msp_isa::program_fingerprint`] — stable across
/// processes, platforms and Rust releases — so the same value keys both the
/// in-memory tier and the on-disk store's file names.
type TraceKey = (String, Variant, u64, u64, u64);

/// Structural fingerprint of a workload's program (see [`TraceKey`]). Cheap
/// (programs are a few hundred static instructions) and computed once per
/// cache probe, not per record.
fn program_fingerprint(workload: &Workload) -> u64 {
    msp_isa::program_fingerprint(workload.program())
}

struct CacheEntry {
    key: TraceKey,
    trace: Arc<Trace>,
    bytes: usize,
    last_used: u64,
}

/// LRU-by-bytes trace store. The entry count is small (one per distinct
/// `(workload, budget)` pair a session touches), so lookups are a linear
/// scan and eviction is a scan for the minimum `last_used`.
#[derive(Default)]
struct TraceCache {
    entries: Vec<CacheEntry>,
    clock: u64,
    bytes: usize,
    captures: u64,
    evictions: u64,
    mem_hits: u64,
    disk_hits: u64,
}

impl TraceCache {
    fn get(&mut self, key: &TraceKey) -> Option<Arc<Trace>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.iter_mut().find(|e| &e.key == key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.trace)
        })
    }

    fn insert(&mut self, key: TraceKey, trace: Arc<Trace>, budget: usize) -> Arc<Trace> {
        // A racing capture may have inserted the same key while this one
        // ran unlocked; traces are deterministic, so keep the incumbent.
        if let Some(existing) = self.get(&key) {
            return existing;
        }
        self.clock += 1;
        let bytes = trace.footprint_bytes();
        self.bytes += bytes;
        self.entries.push(CacheEntry {
            key,
            trace: Arc::clone(&trace),
            bytes,
            last_used: self.clock,
        });
        // Shed least-recently-used entries until the budget holds. The
        // just-inserted entry (maximal `last_used`) is always retained:
        // the sweep that requested it is about to use it, and keeping it
        // caps the cache at one trace even under a zero budget.
        while self.bytes > budget && self.entries.len() > 1 {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache has at least two entries");
            let evicted = self.entries.swap_remove(lru);
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        trace
    }
}

/// The per-interval basic-block vectors of a resolved trace, for phase
/// clustering. Materialised traces carry them and streamed ones read the
/// stored chunk. The file verified at open, so a failed read is I/O
/// trouble: it warns and derives them with one streaming pass over the
/// records, through the same [`BbvAccumulator`] the capture ran, so every
/// route produces identical signatures.
fn trace_bbvs(trace: &TraceSource, program: &Program, interval: u64) -> Vec<BbvSignature> {
    match trace {
        TraceSource::Materialised(trace) => trace.bbvs().to_vec(),
        TraceSource::Streaming(cursor) => cursor.reader().read_bbvs().unwrap_or_else(|e| {
            eprintln!(
                "msp-bench: failed to read the BBVs of stored trace {} ({e}); \
                 deriving them from its records",
                cursor.reader().path().display()
            );
            let mut acc = BbvAccumulator::new(interval);
            let mut source = trace.clone();
            let mut index = 0;
            while let Some(rec) = source.get(program, index) {
                acc.observe(rec);
                index += 1;
            }
            acc.finish()
        }),
    }
}

// --------------------------------------------------------------------- Lab

/// An experiment session: the owner of the trace cache and of the execution
/// policy (threads, default instruction budget) that used to be process-
/// global. Construct one per program (or per test), share it by reference —
/// all methods take `&self`; the cache is internally synchronised.
pub struct Lab {
    config: LabConfig,
    cache: Mutex<TraceCache>,
    store: Option<TraceStore>,
    journal: Option<ExperimentJournal>,
    /// Disk trouble in the store/streaming paths warns once per session,
    /// not once per cell (a 96-cell sweep on a full disk would otherwise
    /// print 96 identical warnings).
    store_warned: AtomicBool,
    /// Warm-pass diagnostics over every run of the session.
    warm: WarmTally,
}

impl fmt::Debug for Lab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lab")
            .field("config", &self.config)
            .field("cached_traces", &self.cached_trace_count())
            .finish()
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new(LabConfig::default())
    }
}

impl Lab {
    /// Creates a session with the given configuration.
    ///
    /// Disk-backed layers degrade gracefully: a [`LabConfig::trace_dir`]
    /// that cannot be created or entered warns on stderr and the session
    /// continues memory-only (every workload re-executes, nothing
    /// persists); likewise an unopenable [`LabConfig::journal_dir`]
    /// continues without crash resumption. I/O trouble never takes down a
    /// sweep.
    pub fn new(config: LabConfig) -> Lab {
        let store = config.trace_dir.as_ref().and_then(|dir| {
            match TraceStore::open(dir, config.trace_store_bytes) {
                Ok(store) => Some(store),
                Err(e) => {
                    eprintln!(
                        "msp-bench: cannot open trace store at {}: {e}; \
                         continuing without trace persistence",
                        dir.display()
                    );
                    None
                }
            }
        });
        let journal = config
            .journal_dir
            .as_ref()
            .map(|dir| ExperimentJournal::open(dir.clone()));
        Lab {
            config,
            cache: Mutex::new(TraceCache::default()),
            store,
            journal,
            store_warned: AtomicBool::new(false),
            warm: WarmTally::default(),
        }
    }

    /// Creates a session configured from the environment
    /// ([`LabConfig::from_env`] — strict parsing).
    pub fn from_env() -> Result<Lab, LabConfigError> {
        Ok(Lab::new(LabConfig::from_env()?))
    }

    /// The session configuration.
    pub fn config(&self) -> &LabConfig {
        &self.config
    }

    /// The shared functional trace of `(workload, instructions)`:
    /// resolved disk-first (memory LRU, then the persistent store, then one
    /// [`Trace::capture`] with a small overfetch margin, written through to
    /// the store), retained under the LRU byte budget, and served as a
    /// cheap `Arc` clone while retained. Always materialised — the
    /// streaming tier is internal to [`Lab::run`].
    ///
    /// Concurrent first requests for the same key may both capture; the
    /// traces are identical (functional execution is deterministic) so the
    /// first insert wins and the duplicate is dropped.
    pub fn trace(&self, workload: &Workload, instructions: u64) -> Arc<Trace> {
        self.trace_inner(workload, instructions, 0)
    }

    /// [`Lab::trace`] with architectural checkpoints recorded every
    /// `checkpoint_interval` committed instructions (the substrate of
    /// sampled execution; see [`Trace::checkpoint_at`]). Cached separately
    /// from the plain trace of the same `(workload, instructions)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_interval` is zero.
    pub fn trace_with_checkpoints(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
    ) -> Arc<Trace> {
        assert!(
            checkpoint_interval > 0,
            "checkpoint interval must be positive (use Lab::trace for a plain trace)"
        );
        self.trace_inner(workload, instructions, checkpoint_interval)
    }

    fn trace_inner(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
    ) -> Arc<Trace> {
        match self.resolve_trace(workload, instructions, checkpoint_interval, false) {
            TraceSource::Materialised(trace) => trace,
            TraceSource::Streaming(_) => unreachable!("materialised resolution never streams"),
        }
    }

    /// Resolves the shared trace of a `(workload, budget, interval)` key
    /// through the cache tiers, in order: memory LRU (cheap `Arc` clone),
    /// on-disk store (decode, or stream), functional capture (written
    /// through to the store). With `allow_streaming`, a trace whose
    /// materialised footprint would overflow the memory tier stays on disk
    /// and is simulated through a bounded-memory cursor; it is captured
    /// straight to disk if absent, so such budgets never materialise at
    /// all.
    fn resolve_trace(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
        allow_streaming: bool,
    ) -> TraceSource {
        let key = (
            workload.name().to_string(),
            workload.variant(),
            program_fingerprint(workload),
            instructions,
            checkpoint_interval,
        );
        {
            let mut cache = self.lock_cache();
            if let Some(trace) = cache.get(&key) {
                cache.mem_hits += 1;
                return TraceSource::Materialised(trace);
            }
        }
        let program = workload.program();
        let budget = instructions.saturating_add(TRACE_MARGIN);
        let estimated_bytes = budget.saturating_mul(std::mem::size_of::<ExecutedInst>() as u64);
        let stream = allow_streaming
            && self.store.is_some()
            && estimated_bytes > self.config.trace_cache_bytes as u64;
        // All store and capture work happens outside the lock: a capture
        // takes milliseconds to minutes and must not serialise other
        // workloads' hits.
        if let Some(store) = &self.store {
            if let Some(reader) = store.open_reader(program, budget, checkpoint_interval) {
                self.lock_cache().disk_hits += 1;
                if stream {
                    let cursor = reader.cursor();
                    return cursor
                        .expect("trace store file vanished while in use")
                        .into();
                }
                match reader.read_trace(program) {
                    Ok(trace) => {
                        return TraceSource::Materialised(self.lock_cache().insert(
                            key,
                            Arc::new(trace),
                            self.config.trace_cache_bytes,
                        ));
                    }
                    Err(e) => {
                        // The file verified at open, so this is I/O trouble
                        // mid-read; fall through and re-capture.
                        eprintln!(
                            "msp-bench: failed to decode stored trace {}: {e}",
                            reader.path().display()
                        );
                    }
                }
            }
            if stream {
                // Streaming capture straight to disk. Disk trouble here is
                // not fatal: warn once and fall through to a materialised
                // in-memory capture — slower and bigger, but the run
                // finishes.
                let streamed = store
                    .capture(program, budget, checkpoint_interval)
                    .map_err(|e| format!("cannot capture streaming trace: {e}"))
                    .and_then(|path| {
                        TraceReader::open(&path, program).map_err(|e| {
                            format!("just-captured trace {} unreadable: {e}", path.display())
                        })
                    });
                match streamed {
                    Ok(reader) => {
                        self.lock_cache().captures += 1;
                        let cursor = Arc::new(reader).cursor();
                        return cursor
                            .expect("trace store file vanished while in use")
                            .into();
                    }
                    Err(e) => self.warn_store_once(&format!(
                        "trace store at {} failed ({e}); continuing memory-only",
                        store.dir().display()
                    )),
                }
            }
        }
        let trace = Arc::new(if checkpoint_interval == 0 {
            Trace::capture(program, budget)
        } else {
            Trace::capture_with_checkpoints(program, budget, checkpoint_interval)
        });
        if let Some(store) = &self.store {
            // Write-through, best-effort: a full disk loses persistence,
            // not the run.
            if let Err(e) = store.save(program, budget, &trace) {
                eprintln!(
                    "msp-bench: failed to persist trace into {}: {e}",
                    store.dir().display()
                );
            }
        }
        let mut cache = self.lock_cache();
        cache.captures += 1;
        TraceSource::Materialised(cache.insert(key, trace, self.config.trace_cache_bytes))
    }

    /// Ensures the trace of `(workload, instructions)` — checkpointed every
    /// `checkpoint_interval` instructions if non-zero — is resolvable
    /// without a functional execution: memory hit, disk hit, or a capture
    /// written through to the store. Unlike [`Lab::trace`] this never
    /// materialises a trace the memory tier could not hold (such budgets
    /// are captured streaming to disk), so it is the `msp-lab trace
    /// capture` pre-warming path for arbitrarily large budgets. Returns
    /// `true` if a functional capture was performed.
    pub fn prefetch_trace(
        &self,
        workload: &Workload,
        instructions: u64,
        checkpoint_interval: u64,
    ) -> bool {
        let before = self.capture_count();
        self.resolve_trace(workload, instructions, checkpoint_interval, true);
        self.capture_count() > before
    }

    /// Drops every retained trace (outstanding `Arc`s stay valid; the next
    /// request re-captures).
    pub fn purge_traces(&self) {
        let mut cache = self.lock_cache();
        cache.entries.clear();
        cache.bytes = 0;
    }

    /// Number of traces currently retained.
    pub fn cached_trace_count(&self) -> usize {
        self.lock_cache().entries.len()
    }

    /// Total footprint of the retained traces, in bytes.
    pub fn cached_trace_bytes(&self) -> usize {
        self.lock_cache().bytes
    }

    /// Number of functional executions this session has performed
    /// (diagnostics: a warm re-run of the same experiment adds none, and
    /// with a warm persistent store even a fresh process adds none).
    pub fn capture_count(&self) -> u64 {
        self.lock_cache().captures
    }

    /// Number of warm passes this session has run: one per group of
    /// warm-compatible cells that resumed a window past 0 (diagnostics).
    pub fn warm_pass_count(&self) -> u64 {
        self.warm.passes.load(Ordering::Relaxed)
    }

    /// The most warm trajectories this session has held at once
    /// (diagnostics). A [`Lab::run`] holds the trajectories of at most as
    /// many workloads as it has worker threads.
    pub fn peak_trajectory_count(&self) -> usize {
        self.warm.peak.load(Ordering::Relaxed)
    }

    /// Number of traces evicted by the byte budget (diagnostics).
    pub fn eviction_count(&self) -> u64 {
        self.lock_cache().evictions
    }

    /// Number of trace requests served by the in-memory tier (diagnostics).
    pub fn mem_hit_count(&self) -> u64 {
        self.lock_cache().mem_hits
    }

    /// Number of trace requests served by the on-disk store — as a decode
    /// or as a streaming cursor — instead of a functional re-execution
    /// (diagnostics).
    pub fn disk_hit_count(&self) -> u64 {
        self.lock_cache().disk_hits
    }

    /// The persistent on-disk store, if [`LabConfig::trace_dir`] is set
    /// and its directory opened.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// The crash-resumable experiment journal, if
    /// [`LabConfig::journal_dir`] is set.
    pub fn journal(&self) -> Option<&ExperimentJournal> {
        self.journal.as_ref()
    }

    /// Cells this session rehydrated from the journal instead of
    /// simulating (diagnostics; `0` without a journal).
    pub fn journal_replayed_count(&self) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, ExperimentJournal::replayed_count)
    }

    /// Cells this session durably recorded into the journal (diagnostics;
    /// `0` without a journal).
    pub fn journal_recorded_count(&self) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, ExperimentJournal::recorded_count)
    }

    fn warn_store_once(&self, message: &str) {
        if !self.store_warned.swap(true, Ordering::Relaxed) {
            eprintln!("msp-bench: {message}");
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, TraceCache> {
        self.cache.lock().expect("trace cache poisoned")
    }

    /// Executes an [`Experiment`]: every `workload × machine × predictor ×
    /// override` cell is simulated (in parallel, up to
    /// [`LabConfig::threads`] workers) against the workload's shared cached
    /// trace, and the results are collected into a [`ResultSet`] in
    /// deterministic cell order.
    ///
    /// Every run takes one path: each pending cell's detailed **windows**
    /// are planned, the windows run across the workers, and the worker that
    /// finishes a cell's last window folds the cell and journals it. An
    /// exact run plans one cold window over the whole budget. A spec
    /// carrying a [`SamplingPlan`] runs **sampled**: a cold head window,
    /// then windows that resume at the trace's checkpoints from snapshots
    /// of a functional warm trajectory (`Simulator::resume_warmed`), folded
    /// into the cell's [`SampledStats`] estimate. Cells configured alike
    /// for warming share a trajectory; it is warmed by the first work unit
    /// that resumes one of its windows and dropped when the last such unit
    /// finishes, so the run holds the trajectories of at most as many
    /// workloads as it has workers ([`Lab::peak_trajectory_count`]). The
    /// plan's [`Placement`] decides where the windows go: one per interval
    /// ([`Placement::Periodic`]), one per clustered program phase
    /// ([`Placement::Phases`]), or incrementally until a target confidence
    /// ([`Placement::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if the experiment has no workloads or no machines (an empty
    /// axis is a spec bug, not an empty result), or if its sampling plan is
    /// inconsistent ([`SamplingPlan::assert_valid`]).
    pub fn run(&self, experiment: &Experiment) -> ResultSet {
        let axes = experiment.axes();
        let plan = experiment.sampling_plan();
        if let Some(plan) = plan {
            plan.assert_valid();
        }
        // Per-cell effective configurations (hooks applied), built up front
        // so cells can share warm trajectories and journal fingerprints
        // cover exactly what each cell will run.
        let configs = (0..axes.len())
            .map(|flat| {
                let (_, m, p, h) = axes.coordinates(flat);
                let mut config = SimConfig::machine(axes.machines[m], axes.predictors[p]);
                axes.hooks[h].apply(&mut config);
                config
            })
            .collect();
        let sweep = Sweep {
            axes,
            configs,
            instructions: experiment
                .instructions_override()
                .unwrap_or(self.config.instructions),
            plan,
        };
        let (axes, instructions) = (&sweep.axes, sweep.instructions);

        // Prepare. Journaled cells replay outright: no trace, no warming,
        // no windows. Everything below works on the pending cells only. An
        // exact run reads a trace without checkpoints (interval 0).
        let (mut cells, pending) = self.replay_journaled(&sweep);
        let interval = plan.map_or(0, |plan| plan.interval);
        let traces = self.resolve_pending_traces(&sweep, &pending, interval);
        let trace_of = |flat: usize| {
            traces[axes.coordinates(flat).0]
                .as_ref()
                .expect("pending workload resolved")
        };
        let (trajectories, group_of_flat) = group_trajectories(&sweep, &pending, interval);

        // Plan: each pending cell's windows, head first.
        let plans: Vec<CellPlan> = match plan {
            None => pending
                .iter()
                .map(|&flat| CellPlan {
                    flat,
                    windows: vec![Window::cold(instructions)],
                    adaptive: None,
                })
                .collect(),
            Some(plan) => {
                let (detail_len, warmup_len) = (plan.detail_len, plan.warmup_len);
                // The head stratum, measured exactly from a cold machine: it
                // counts the one-time cold-start transient that sampled
                // windows would misrepresent. A third of an interval bounds
                // that transient at a fraction of a full interval's detailed
                // cost; a full-detail plan (detail == interval) keeps
                // complete coverage.
                let head = Window::cold((interval / 3).max(detail_len).min(instructions));
                // The budget share a window at an interval start stands for:
                // its interval, clipped where the budget ends inside it.
                let span_at = |start: u64| interval.min(instructions - start);
                // The window at an interval start past the head, clipped to
                // the budget: `warmup_len` of detailed pipeline fill (it
                // re-establishes the occupancy no snapshot carries), then
                // `detail_len` measured.
                let window_at = |start: u64| {
                    let left = instructions - start;
                    let warmup = warmup_len.min(left);
                    Window {
                        start,
                        warmup,
                        detail: detail_len.min(left - warmup),
                        span: span_at(start),
                    }
                };
                // A cell's interval starts past the head that are backed by
                // a trace checkpoint. A missing one means the program ended
                // before that start. A checkpoint at `k` is recorded only
                // with record `k`, so the warm pass reaches every listed
                // start and each has a snapshot.
                let tail_starts = |flat: usize| -> Vec<u64> {
                    (1..)
                        .map(|k| k * interval)
                        .take_while(|&start| {
                            start < instructions && trace_of(flat).has_checkpoint_at(start)
                        })
                        .collect()
                };
                // Phase-aware placement is per workload: every cell of a
                // workload shares the trace, hence the BBVs and the
                // clustering.
                let mut phases: Vec<Option<Vec<(u64, u64)>>> = vec![None; axes.workloads.len()];
                pending
                    .iter()
                    .map(|&flat| {
                        let mut adaptive = None;
                        let tail: Vec<Window> = match plan.placement {
                            Placement::Periodic => {
                                tail_starts(flat).into_iter().map(window_at).collect()
                            }
                            Placement::Phases { max_phases, seed } => {
                                let (w, ..) = axes.coordinates(flat);
                                let program = axes.workloads[w].program();
                                let representatives = phases[w].get_or_insert_with(|| {
                                    let bbvs = trace_bbvs(trace_of(flat), program, interval);
                                    let starts = tail_starts(flat);
                                    phase_representatives(
                                        &bbvs, &starts, interval, span_at, max_phases, seed,
                                    )
                                });
                                representatives
                                    .iter()
                                    .map(|&(start, span)| Window {
                                        span,
                                        ..window_at(start)
                                    })
                                    .collect()
                            }
                            Placement::Adaptive {
                                target_rel_stderr,
                                max_windows,
                            } => {
                                // Candidates in bit-reversed (low-discrepancy)
                                // order, so every prefix spreads over the
                                // whole budget; the measured ones split the
                                // whole tail span.
                                let starts = tail_starts(flat);
                                let tail_span = starts.iter().map(|&start| span_at(start)).sum();
                                adaptive = Some((target_rel_stderr, tail_span));
                                adaptive_window_order(starts.len())
                                    .into_iter()
                                    .map(|i| window_at(starts[i]))
                                    .filter(|window| window.detail > 0)
                                    .take(max_windows)
                                    .collect()
                            }
                        };
                        CellPlan {
                            flat,
                            windows: std::iter::once(head)
                                .chain(tail)
                                .filter(|window| window.detail > 0)
                                .collect(),
                            adaptive,
                        }
                    })
                    .collect()
            }
        };
        // A sampled cell with no window past the head estimates its whole
        // budget from the cold start alone, with no error figure. (An exact
        // cell is all head.)
        let head_only = plans.iter().filter(|cell| cell.windows.len() == 1).count();
        if let (Some(plan), 1..) = (plan, head_only) {
            let name = match plan.placement {
                Placement::Periodic => "periodic",
                Placement::Phases { .. } => "phases",
                Placement::Adaptive { .. } => "adaptive",
            };
            eprintln!(
                "msp-bench: warning: {name} sampling measures only the head window in \
                 {head_only} of {} cells at a {instructions}-instruction budget with a \
                 {interval}-instruction interval: their estimates cover the cold start \
                 alone and have no error figure (use an interval below the budget)",
                plans.len()
            );
        }

        // Execute. One window function for every plan: a window at 0 is a
        // cold run, which needs no checkpoint (`Simulator::with_trace` is
        // pinned bit-identical to `resume_from(trace, 0, 0)`); a window past
        // 0 resumes at its checkpoint from its warm snapshot, warming the
        // cell's trajectory if no earlier unit has.
        let simulate = |flat: usize, window: &Window| -> SimResult {
            let (w, ..) = axes.coordinates(flat);
            let program = axes.workloads[w].program();
            let config = sweep.configs[flat].clone();
            let source = trace_of(flat).clone();
            if window.start == 0 {
                return Simulator::with_trace(program, config, source).run(window.detail);
            }
            let snapshot = trajectories[group_of_flat[flat]]
                .snapshots(&sweep, trace_of(flat), interval, &self.warm)
                .get((window.start / interval) as usize - 1)
                .expect("a checkpointed start has a warm snapshot")
                .clone();
            let mut sim = Simulator::resume_warmed(program, config, source, window.start, snapshot);
            if window.warmup == 0 {
                return sim.run(window.detail);
            }
            // Detailed pipeline fill, excluded from the measured window.
            // Bulk-commit machines can overshoot the fill request by a whole
            // commit group, so the measured window is anchored at wherever
            // the fill actually stopped.
            sim.run(window.warmup);
            let prefix = sim.stats().clone();
            let mut result = sim.run(prefix.committed + window.detail);
            result.stats = result.stats.subtracting(&prefix);
            result
        };
        // Work units, each a range of one cell's windows, cell-major. The
        // windows of a periodic or phase-aware cell are independent, so each
        // is a unit and even a one-cell sweep parallelises; an adaptive cell
        // runs its windows in order until its stop rule fires, so it is one
        // unit, as is an exact cell's single window. Per cell, `progress`
        // counts the units still running and collects the measured windows.
        // Per trajectory, `users` counts the units with a window past 0; the
        // last of them to finish drops the snapshots. Units of one workload
        // are contiguous, so at most `threads` workloads' trajectories are
        // alive at once.
        let mut units: Vec<(usize, Range<usize>)> = Vec::new();
        let mut progress: Vec<Mutex<(usize, Vec<Option<SimResult>>)>> = Vec::new();
        for (c, cell) in plans.iter().enumerate() {
            let n = cell.windows.len();
            let width = if cell.adaptive.is_some() { n.max(1) } else { 1 };
            let before = units.len();
            units.extend(
                (0..n.max(1))
                    .step_by(width)
                    .map(|i| (c, i..n.min(i + width))),
            );
            progress.push(Mutex::new((units.len() - before, vec![None; n])));
        }
        let warm_group = |(c, range): &(usize, Range<usize>)| {
            let cell = &plans[*c];
            let resumes = cell.windows[range.clone()].iter().any(|w| w.start > 0);
            resumes.then(|| group_of_flat[cell.flat])
        };
        for g in units.iter().filter_map(warm_group) {
            trajectories[g].users.fetch_add(1, Ordering::SeqCst);
        }
        let folded = parallel_map(self.config.threads, &units, |unit| {
            let (c, range) = unit;
            let cell = &plans[*c];
            // Released once the windows are done, also if one panics.
            let user = warm_group(unit).map(|g| TrajectoryUser {
                trajectory: &trajectories[g],
                tally: &self.warm,
            });
            let mut measured = Vec::with_capacity(range.len());
            for window in &cell.windows[range.clone()] {
                measured.push(simulate(cell.flat, window));
                maybe_kill(KILL_WINDOW_DONE);
                if let Some((target, _)) = cell.adaptive {
                    let estimate = SampledStats::from_intervals(&cell.weighted(&measured));
                    if estimate.ipc_rel_stderr.is_some_and(|e| e <= target) {
                        break;
                    }
                }
            }
            drop(user);
            let mut guard = progress[*c].lock().expect("cell progress poisoned");
            let (running, results) = &mut *guard;
            for (slot, result) in results[range.start..].iter_mut().zip(measured) {
                *slot = Some(result);
            }
            *running -= 1;
            if *running > 0 {
                return None;
            }
            // Fold and commit. An adaptive cell that stopped early measured
            // a prefix of its windows.
            let measured = std::mem::take(results)
                .into_iter()
                .map_while(|r| r)
                .collect();
            drop(guard);
            Some(self.fold_cell(&sweep, cell, measured))
        });
        for ((c, _), cell) in units.iter().zip(folded) {
            if let Some(cell) = cell {
                cells[plans[*c].flat] = Some(cell);
            }
        }
        let cells = cells
            .into_iter()
            .map(|cell| cell.expect("every cell replayed or computed"))
            .collect();
        ResultSet::new(
            experiment.name().to_string(),
            instructions,
            plan,
            axes,
            cells,
        )
    }

    /// Rehydrates every journaled cell of a sweep: the partially-filled
    /// cell vector (flat order) plus the flat indices still to compute.
    /// Without a journal everything is pending.
    fn replay_journaled(&self, sweep: &Sweep<'_>) -> (Vec<Option<Cell>>, Vec<usize>) {
        let mut cells: Vec<Option<Cell>> = vec![None; sweep.axes.len()];
        if let Some(journal) = &self.journal {
            for (flat, slot) in cells.iter_mut().enumerate() {
                *slot = journal.load_cell(sweep.fingerprint(flat));
            }
        }
        let pending = (0..cells.len()).filter(|&f| cells[f].is_none()).collect();
        (cells, pending)
    }

    /// Resolves shared traces for exactly the workloads that still have a
    /// cell to compute — so a fully-journaled resume performs **zero**
    /// functional executions, not just zero timing simulations.
    fn resolve_pending_traces(
        &self,
        sweep: &Sweep<'_>,
        pending: &[usize],
        checkpoint_interval: u64,
    ) -> Vec<Option<TraceSource>> {
        let axes = &sweep.axes;
        let mut traces: Vec<Option<TraceSource>> = vec![None; axes.workloads.len()];
        for &flat in pending {
            let (w, ..) = axes.coordinates(flat);
            if traces[w].is_none() {
                traces[w] = Some(self.resolve_trace(
                    &axes.workloads[w],
                    sweep.instructions,
                    checkpoint_interval,
                    true,
                ));
            }
        }
        traces
    }

    /// Folds a finished cell's measured windows into its [`Cell`] and
    /// journals it. An exact cell is its one window verbatim; a sampled
    /// cell sums its windows and carries their span-weighted
    /// [`SampledStats`] and [`SampledEnergy`] estimates.
    fn fold_cell(&self, sweep: &Sweep<'_>, cell: &CellPlan, measured: Vec<SimResult>) -> Cell {
        let axes = &sweep.axes;
        let (w, m, p, h) = axes.coordinates(cell.flat);
        let (result, sampled, sampled_energy) = if sweep.plan.is_none() {
            let result = measured.into_iter().next();
            (result.expect("an exact cell runs one window"), None, None)
        } else {
            let per_interval = cell.weighted(&measured);
            let mut aggregate = SimStats::default();
            for (stats, _) in &per_interval {
                aggregate.accumulate(stats);
            }
            let energy_model = energy_model_for(axes.machines[m], REFERENCE_NODE);
            let result = SimResult {
                machine: axes.machines[m].label(),
                predictor: axes.predictors[p].label().to_string(),
                truncated_by_watchdog: measured.iter().any(|r| r.truncated_by_watchdog),
                stats: aggregate,
            };
            (
                result,
                Some(SampledStats::from_intervals(&per_interval)),
                Some(SampledEnergy::from_intervals(&per_interval, &energy_model)),
            )
        };
        let folded = Cell {
            workload: axes.workloads[w].name().to_string(),
            variant: axes.workloads[w].variant(),
            machine: axes.machines[m],
            predictor: axes.predictors[p],
            hook: axes.hooks[h].name().map(str::to_string),
            result,
            sampled,
            sampled_energy,
        };
        if let Some(journal) = &self.journal {
            journal.record_cell(sweep.fingerprint(cell.flat), &folded);
        }
        folded
    }
}

/// What every stage of [`Lab::run`] needs to know about the sweep.
struct Sweep<'a> {
    axes: Axes<'a>,
    /// Per-cell effective configurations, in flat order.
    configs: Vec<SimConfig>,
    instructions: u64,
    plan: Option<SamplingPlan>,
}

impl Sweep<'_> {
    /// The journal fingerprint of one cell: the workload's program
    /// fingerprint plus its identity, the hook *name*, the effective
    /// configuration, the budget and the sampling plan (see
    /// [`cell_fingerprint`]).
    fn fingerprint(&self, flat: usize) -> u64 {
        let (w, _, _, h) = self.axes.coordinates(flat);
        let workload = &self.axes.workloads[w];
        cell_fingerprint(
            program_fingerprint(workload),
            workload.name(),
            workload.variant(),
            self.axes.hooks[h].name(),
            &self.configs[flat],
            self.instructions,
            self.plan,
        )
    }
}

/// Groups the pending cells of a sampled sweep into warm trajectories, plus
/// each cell's trajectory index (flat order). Cells whose warm structures
/// are configured alike (same workload, predictor and memory geometry; in
/// the reference table1 sweep, all four machines) share one trajectory.
/// Only windows past 0 resume warm, so a sweep with none — every exact run,
/// and a sampled budget within one interval — forms no group. Grouping
/// warms nothing: see [`Trajectory::snapshots`].
fn group_trajectories(
    sweep: &Sweep<'_>,
    pending: &[usize],
    interval: u64,
) -> (Vec<Trajectory>, Vec<usize>) {
    let configs = &sweep.configs;
    let mut groups: Vec<Trajectory> = Vec::new();
    // Replayed cells have no trajectory; nothing indexes theirs.
    let mut group_of_flat = vec![usize::MAX; configs.len()];
    if interval > 0 && interval < sweep.instructions {
        for &flat in pending {
            let (w, ..) = sweep.axes.coordinates(flat);
            let alike = |group: &Trajectory| {
                group.workload == w
                    && configs[group.first].predictor == configs[flat].predictor
                    && configs[group.first].memory == configs[flat].memory
            };
            group_of_flat[flat] = match groups.iter().position(alike) {
                Some(g) => g,
                None => {
                    groups.push(Trajectory {
                        workload: w,
                        first: flat,
                        users: AtomicUsize::new(0),
                        snapshots: Mutex::new(None),
                    });
                    groups.len() - 1
                }
            };
        }
    }
    (groups, group_of_flat)
}

/// The cumulative warm trajectory of a group of warm-compatible cells. A
/// bounded warm window systematically under-trains slow-converging
/// predictors and large working sets, so one functional pass absorbs the
/// trace from the head and snapshots at every interval start ≥ 1: snapshot
/// `s` seeds the window at `(s + 1) · interval` with the history of its
/// *entire* prefix. The pass runs when the first work unit needs a
/// snapshot; the group's later units share it, and the last one to finish
/// drops the snapshots.
struct Trajectory {
    workload: usize,
    /// The member whose configuration seeds the warm state.
    first: usize,
    /// Work units with a window past 0 that have not finished.
    users: AtomicUsize,
    snapshots: Mutex<Option<Arc<Vec<WarmState>>>>,
}

impl Trajectory {
    /// The snapshots, warmed under the lock if no unit has warmed them
    /// yet, so concurrent first users wait for one pass.
    fn snapshots(
        &self,
        sweep: &Sweep<'_>,
        trace: &TraceSource,
        interval: u64,
        tally: &WarmTally,
    ) -> Arc<Vec<WarmState>> {
        let mut snapshots = self.snapshots.lock().expect("warm trajectory poisoned");
        let snapshots = snapshots.get_or_insert_with(|| {
            let built = Arc::new(self.warm(sweep, trace, interval));
            tally.passes.fetch_add(1, Ordering::Relaxed);
            let live = tally.live.fetch_add(1, Ordering::Relaxed) + 1;
            tally.peak.fetch_max(live, Ordering::Relaxed);
            built
        });
        Arc::clone(snapshots)
    }

    /// The warm pass: streams the trace through its own source view, so a
    /// disk-resident trace costs one cursor window, not a materialisation.
    /// It stops early where the program ends.
    fn warm(&self, sweep: &Sweep<'_>, trace: &TraceSource, interval: u64) -> Vec<WarmState> {
        let program = sweep.axes.workloads[self.workload].program();
        let mut source = trace.clone();
        let mut warm = WarmState::for_config(program, &sweep.configs[self.first]);
        let mut snapshots = Vec::new();
        let mut index = 0;
        let mut start = interval;
        while start < sweep.instructions {
            while index < start {
                let Some(rec) = source.get(program, index) else {
                    return snapshots;
                };
                warm.absorb(rec);
                index += 1;
            }
            snapshots.push(warm.clone());
            start += interval;
        }
        snapshots
    }
}

/// A work unit's use of its cell's trajectory. Dropping it ends the use;
/// the last user's drop frees the snapshots.
struct TrajectoryUser<'a> {
    trajectory: &'a Trajectory,
    tally: &'a WarmTally,
}

impl Drop for TrajectoryUser<'_> {
    fn drop(&mut self) {
        if self.trajectory.users.fetch_sub(1, Ordering::SeqCst) > 1 {
            return;
        }
        // A unit that panicked mid-pass poisoned the lock; release anyway.
        let mut snapshots = self
            .trajectory
            .snapshots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if snapshots.take().is_some() {
            self.tally.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A session's warm-pass diagnostics.
#[derive(Default)]
struct WarmTally {
    /// Warm passes run.
    passes: AtomicU64,
    /// Trajectories whose snapshots are held now.
    live: AtomicUsize,
    /// The most trajectories held at once.
    peak: AtomicUsize,
}

/// SimPoint placement over one workload's tail interval starts: clusters
/// their basic-block vectors into phases and returns each phase's
/// representative start with the span of its whole population,
/// start-ascending. Only starts with a recorded BBV (the program ran into
/// them) take part; interval k covers `[k·interval, (k+1)·interval)`.
fn phase_representatives(
    bbvs: &[BbvSignature],
    starts: &[u64],
    interval: u64,
    span_at: impl Fn(u64) -> u64,
    max_phases: usize,
    seed: u64,
) -> Vec<(u64, u64)> {
    let tail: Vec<u64> = starts
        .iter()
        .copied()
        .filter(|&start| ((start / interval) as usize) < bbvs.len())
        .collect();
    let tail_bbvs: Vec<BbvSignature> = tail
        .iter()
        .map(|&start| bbvs[(start / interval) as usize].clone())
        .collect();
    let phases = cluster_phases(&tail_bbvs, max_phases, seed);
    let mut representatives: Vec<(u64, u64)> = phases
        .representatives
        .iter()
        .enumerate()
        .map(|(phase, &rep)| {
            let members = phases.assignment.iter().zip(&tail);
            let span = members
                .filter(|&(&assigned, _)| assigned == phase)
                .map(|(_, &start)| span_at(start))
                .sum();
            (tail[rep], span)
        })
        .collect();
    representatives.sort_unstable();
    representatives
}

/// One detailed simulation of a cell: resume at trace index `start`, run
/// `warmup` committed instructions of pipeline fill that are not measured,
/// then measure `detail`. `span` is how many budget instructions the window
/// stands for in the cell's estimate.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: u64,
    warmup: u64,
    detail: u64,
    span: u64,
}

impl Window {
    /// A cold run from the head of the trace, measuring `len` instructions
    /// and standing for them.
    fn cold(len: u64) -> Window {
        Window {
            start: 0,
            warmup: 0,
            detail: len,
            span: len,
        }
    }
}

/// A pending cell's windows, head first, in execution order.
struct CellPlan {
    flat: usize,
    windows: Vec<Window>,
    /// Adaptive plans only: the stopping target, and the tail span that
    /// the measured tail windows split evenly.
    adaptive: Option<(f64, u64)>,
}

impl CellPlan {
    /// The `(stats, span)` pairs the cell's estimate folds, for the measured
    /// prefix of its windows. Each window stands for its own span, except
    /// that an adaptive cell's measured tail windows split the whole tail
    /// span evenly (the first `total % m` carry the remainder).
    fn weighted(&self, measured: &[SimResult]) -> Vec<(SimStats, u64)> {
        let mut weighted: Vec<(SimStats, u64)> = measured
            .iter()
            .zip(&self.windows)
            .map(|(result, window)| (result.stats.clone(), window.span))
            .collect();
        if let (Some((_, total)), Some((_, tail))) = (self.adaptive, weighted.split_first_mut()) {
            let m = tail.len() as u64;
            for (i, (_, span)) in (0..).zip(tail) {
                *span = total / m + u64::from(i < total % m);
            }
        }
        weighted
    }
}
