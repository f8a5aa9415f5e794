//! The traced run: it re-drives each workload's work through the layers'
//! public functions with a span around every call, checks that the re-driven
//! work reproduces the untraced run bit-identically, and turns the spans and
//! the counts recorded at the same boundaries into the per-layer metrics.

use crate::spans::{self_times, Recorder};
use crate::workloads::{
    cells_digest, check_rep, exact_config, exact_rep, fresh_dir, journal_dir, reports_digest,
    same_cell, store_dir, stream_plan, stream_rep, table1, BenchWorkload, Checks, EXACT_BUDGET,
    STREAM_BUDGET,
};
use msp_bench::{
    cell_fingerprint, energy_model_for, Cell, ExperimentJournal, Lab, SampledEnergy, SampledStats,
    TraceStore, DEFAULT_TRACE_STORE_BYTES, REFERENCE_NODE,
};
use msp_branch::PredictorKind;
use msp_check::{check_cpr, check_msp, CheckConfig, CheckReport, CprConfig, ExploreLimits};
use msp_isa::{
    execute_step, program_fingerprint, ArchState, BbvAccumulator, ExecutedInst, Program,
    TraceReader, TraceWriter,
};
use msp_pipeline::{SimConfig, SimResult, SimStats, Simulator, TraceSource, WarmState};
use msp_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Records the Lab captures beyond a cell's budget (its private
/// `TRACE_MARGIN`); part of the store's file names, so a drift shows up as
/// a failed file-identity check.
const TRACE_MARGIN: u64 = 4_096;

/// Records per capture, decode and absorb span: one trace-file block.
const BATCH: u64 = msp_isa::DEFAULT_BLOCK_RECORDS as u64;

/// Span names that belong to the benchmark's own control flow rather than a
/// layer; their self time is `lab.unattributed_s`.
const GLUE: [&str; 4] = ["pass", "setup", "timed", "replay"];

fn sim_span(slug: &str) -> &'static str {
    match slug {
        "baseline" => "sim.baseline",
        "cpr" => "sim.cpr",
        "sp16" => "sim.sp16",
        "ideal" => "sim.ideal",
        other => unreachable!("no Table I machine {other}"),
    }
}

/// One traced pass: its spans, the counts recorded at the layer boundaries
/// (identical from pass to pass) and its output digest.
pub struct Pass {
    pub rec: Recorder,
    pub counts: BTreeMap<String, f64>,
    pub digest: u64,
}

impl Pass {
    fn span_secs(&self, name: &str) -> f64 {
        let spans = self.rec.spans();
        let id = spans
            .iter()
            .position(|s| s.name == name)
            .expect("every pass records its phases");
        (spans[id].end_ns - spans[id].start_ns) as f64 * 1e-9
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counts from the cells: the MSP state-management events, the memory and
/// branch activity and, for `long_runs` (exact cells, one simulation each),
/// the per-machine simulation totals.
fn cell_counts(cells: &[Cell], long_runs: bool, counts: &mut BTreeMap<String, f64>) {
    for (slug, machine) in table1() {
        let mine: Vec<&SimStats> = cells
            .iter()
            .filter(|c| c.machine == machine)
            .map(|c| &c.result.stats)
            .collect();
        let sum = |f: &dyn Fn(&SimStats) -> u64| mine.iter().map(|s| f(s)).sum::<u64>() as f64;
        if long_runs {
            let committed = sum(&|s| s.committed);
            counts.insert(format!("sim.{slug}.cycles"), sum(&|s| s.cycles));
            counts.insert(format!("sim.{slug}.committed"), committed);
            counts.insert(
                format!("sim.{slug}.useful_ratio"),
                ratio(committed, sum(&|s| s.executed.total())),
            );
        }
        if matches!(slug, "sp16" | "ideal") {
            counts.insert(
                format!("state.{slug}.sct_lookups"),
                sum(&|s| s.activity.sct_lookups),
            );
            counts.insert(
                format!("state.{slug}.lcs_propagations"),
                sum(&|s| s.activity.lcs_propagations),
            );
            counts.insert(
                format!("state.{slug}.reliq_wakeups"),
                sum(&|s| s.activity.reliq_wakeups),
            );
            counts.insert(
                format!("state.{slug}.bank_full_cycles"),
                sum(&|s| s.stalls.bank_full_total()),
            );
        }
    }
    let all =
        |f: &dyn Fn(&SimStats) -> u64| cells.iter().map(|c| f(&c.result.stats)).sum::<u64>() as f64;
    counts.insert(
        "mem.dcache_accesses".into(),
        all(&|s| s.activity.dcache_accesses),
    );
    counts.insert("mem.l2_accesses".into(), all(&|s| s.activity.l2_accesses));
    counts.insert("mem.dcache_misses".into(), all(&|s| s.dcache_misses));
    counts.insert(
        "branch.lookups".into(),
        all(&|s| s.activity.predictor_lookups),
    );
    counts.insert("branch.mispredictions".into(), all(&|s| s.mispredictions));
}

// ------------------------------------------------------------ exact_table1

fn exact_pass(run: u64, kernels: &[Workload]) -> (Pass, Vec<Cell>) {
    let mut rec = Recorder::new(run);
    let root = rec.enter("pass");
    let setup = rec.enter("setup");
    let lab = Lab::new(exact_config());
    let traces: Vec<_> = kernels
        .iter()
        .map(|k| rec.time("capture", || lab.trace(k, EXACT_BUDGET), |t| t.len()))
        .collect();
    rec.exit(setup, 0);
    let timed = rec.enter("timed");
    let mut cells = Vec::new();
    for (kernel, trace) in kernels.iter().zip(&traces) {
        for (slug, machine) in table1() {
            let config = SimConfig::machine(machine, PredictorKind::Gshare);
            let result = rec.time(
                sim_span(slug),
                || {
                    Simulator::with_trace(kernel.program(), config, Arc::clone(trace))
                        .run(EXACT_BUDGET)
                },
                |r| r.stats.committed,
            );
            cells.push(Cell {
                workload: kernel.name().to_string(),
                variant: kernel.variant(),
                machine,
                predictor: PredictorKind::Gshare,
                hook: None,
                result,
                sampled: None,
                sampled_energy: None,
            });
        }
    }
    rec.exit(timed, 0);
    rec.exit(root, 0);
    let mut counts = BTreeMap::new();
    cell_counts(&cells, true, &mut counts);
    let digest = cells_digest(&cells);
    (
        Pass {
            rec,
            counts,
            digest,
        },
        cells,
    )
}

// ---------------------------------------------------------- sampled_stream

/// `capture_trace_to_path`'s loop with the functional execution (capture)
/// and the trace-file writing (encode) in separate spans, one block of
/// records at a time. Writes a file byte-identical to the Lab's streaming
/// capture. Returns the records captured.
fn capture_streaming(
    rec: &mut Recorder,
    path: &Path,
    program: &Program,
    budget: u64,
    interval: u64,
) -> u64 {
    let mut writer = rec.time(
        "tracefile.encode",
        || TraceWriter::create(path, program, interval).expect("create the trace file"),
        |_| 0,
    );
    let mut state = ArchState::new(program);
    let mut bbv = BbvAccumulator::new(interval);
    let mut batch: Vec<ExecutedInst> = Vec::with_capacity(BATCH as usize);
    let mut snapshots: Vec<ArchState> = Vec::new();
    let (mut records, mut checkpoints, mut complete) = (0u64, 0u64, false);
    while records < budget && !complete {
        let id = rec.enter("capture");
        batch.clear();
        while (batch.len() as u64) < BATCH && records < budget {
            let snapshot = (records == checkpoints * interval).then(|| state.clone());
            match execute_step(&mut state, program) {
                Ok(r) => {
                    if let Some(snapshot) = snapshot {
                        snapshots.push(snapshot);
                        checkpoints += 1;
                    }
                    bbv.observe(&r);
                    batch.push(r);
                    records += 1;
                    if r.halted {
                        complete = true;
                        break;
                    }
                }
                Err(_) => {
                    complete = true;
                    break;
                }
            }
        }
        rec.exit(id, batch.len() as u64);
        let id = rec.enter("tracefile.encode");
        for snapshot in snapshots.drain(..) {
            writer.add_checkpoint(&snapshot);
        }
        for r in &batch {
            writer.append(r).expect("append to the trace file");
        }
        rec.exit(id, batch.len() as u64);
    }
    let signatures = rec.time("capture", || bbv.finish(), |_| 0);
    rec.time(
        "tracefile.encode",
        || {
            for signature in &signatures {
                writer.add_bbv(signature);
            }
            writer
                .finish(&state, complete)
                .expect("finish the trace file");
        },
        |_| 0,
    );
    records
}

/// The Lab's cumulative warm trajectory over one trace: absorb from the
/// head, snapshot at every interval start ≥ 1. Decoding and absorbing are
/// separate spans.
fn warm_pass(
    rec: &mut Recorder,
    reader: &Arc<TraceReader>,
    program: &Program,
    config: &SimConfig,
    interval: u64,
) -> Vec<WarmState> {
    let mut source = TraceSource::from(reader.cursor().expect("open a trace cursor"));
    let mut warm = rec.time("warm", || WarmState::for_config(program, config), |_| 0);
    let mut snapshots = Vec::new();
    let mut batch: Vec<ExecutedInst> = Vec::with_capacity(BATCH as usize);
    let (mut index, mut start) = (0u64, interval);
    while start < STREAM_BUDGET {
        while index < start {
            let end = (index + BATCH).min(start);
            let id = rec.enter("tracefile.decode");
            batch.clear();
            for i in index..end {
                match source.get(program, i) {
                    Some(r) => batch.push(*r),
                    None => break,
                }
            }
            rec.exit(id, batch.len() as u64);
            let id = rec.enter("warm");
            for r in &batch {
                warm.absorb(r);
            }
            rec.exit(id, batch.len() as u64);
            if (batch.len() as u64) < end - index {
                return snapshots;
            }
            index = end;
        }
        rec.time("warm", || snapshots.push(warm.clone()), |_| 0);
        start += interval;
    }
    snapshots
}

/// One detailed window, as the Lab runs it: the head from a cold machine,
/// every other window from its checkpoint and warm snapshot with a detailed
/// pipeline fill excluded from measurement. Returns the measured result and
/// the committed instructions of the fill.
#[allow(clippy::too_many_arguments)]
fn simulate_window(
    program: &Program,
    config: SimConfig,
    reader: &Arc<TraceReader>,
    snapshots: &[WarmState],
    start: u64,
    warmup: u64,
    detail: u64,
    interval: u64,
) -> (SimResult, u64) {
    let source = TraceSource::from(reader.cursor().expect("open a trace cursor"));
    if start == 0 {
        return (
            Simulator::resume_from(program, config, source, 0, 0).run(detail),
            0,
        );
    }
    let snapshot = &snapshots[(start / interval) as usize - 1];
    let mut sim = Simulator::resume_warmed(program, config, source, start, snapshot.clone());
    if warmup == 0 {
        return (sim.run(detail), 0);
    }
    sim.run(warmup);
    let prefix = sim.stats().clone();
    let mut result = sim.run(prefix.committed + detail);
    result.stats = result.stats.subtracting(&prefix);
    (result, prefix.committed)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list a benchmark directory")
        .map(|e| {
            e.expect("read a directory entry")
                .metadata()
                .expect("stat")
                .len()
        })
        .sum()
}

fn stream_pass(run: u64, kernels: &[Workload], dir: &Path) -> (Pass, Vec<Cell>) {
    let plan = stream_plan();
    let interval = plan.interval();
    let (detail_len, warmup_len) = (plan.detail_len(), plan.warmup_len());
    let budget = STREAM_BUDGET + TRACE_MARGIN;
    let configs: Vec<SimConfig> = table1()
        .iter()
        .map(|&(_, m)| SimConfig::machine(m, PredictorKind::Gshare))
        .collect();
    fresh_dir(dir);
    let mut counts = BTreeMap::new();
    let mut rec = Recorder::new(run);
    let root = rec.enter("pass");

    let setup = rec.enter("setup");
    let store =
        TraceStore::open(store_dir(dir), DEFAULT_TRACE_STORE_BYTES).expect("open the store");
    let journal = ExperimentJournal::open(journal_dir(dir));
    let mut records = 0;
    for kernel in kernels {
        let path = store.path_for(kernel.program(), budget, interval);
        records += capture_streaming(&mut rec, &path, kernel.program(), budget, interval);
    }
    rec.exit(setup, 0);
    counts.insert(
        "tracefile.bytes_per_rec".to_string(),
        ratio(dir_bytes(&store_dir(dir)) as f64, records as f64),
    );

    let timed = rec.enter("timed");
    let readers: Vec<Arc<TraceReader>> = kernels
        .iter()
        .map(|k| {
            rec.time(
                "tracefile.open",
                || {
                    store
                        .open_reader(k.program(), budget, interval)
                        .expect("the captured trace opens")
                },
                |r| r.meta().record_count,
            )
        })
        .collect();
    // Machines whose warm structures (predictor, memory) are configured
    // alike share one warm trajectory per kernel, as the Lab groups them:
    // `leader[m]` is the first machine configured like machine m.
    let leader: Vec<usize> = configs
        .iter()
        .map(|c| {
            configs
                .iter()
                .position(|l| l.memory == c.memory && l.predictor == c.predictor)
                .expect("a configuration matches itself")
        })
        .collect();
    let mut trajectories: Vec<BTreeMap<usize, Vec<WarmState>>> = Vec::new();
    for (kernel, reader) in kernels.iter().zip(&readers) {
        let mut per_leader = BTreeMap::new();
        for &l in &leader {
            per_leader.entry(l).or_insert_with(|| {
                warm_pass(&mut rec, reader, kernel.program(), &configs[l], interval)
            });
        }
        trajectories.push(per_leader);
    }
    let snapshots: usize = trajectories
        .iter()
        .flat_map(|t| t.values())
        .map(Vec::len)
        .sum();
    counts.insert("warm.snapshots".to_string(), snapshots as f64);

    let head_len = (interval / 3).max(detail_len).min(STREAM_BUDGET);
    let mut per_cell: Vec<(Vec<(SimStats, u64)>, bool)> = Vec::new();
    let (mut measured, mut filled, mut windows) = (0u64, 0u64, 0u64);
    for (w, kernel) in kernels.iter().enumerate() {
        for (m, config) in configs.iter().enumerate() {
            let snaps = &trajectories[w][&leader[m]];
            let mut per_interval = Vec::new();
            let mut truncated = false;
            let mut start = 0;
            while start < STREAM_BUDGET
                && readers[w].has_checkpoint_at(start)
                && (start == 0 || snaps.len() >= (start / interval) as usize)
            {
                let (warmup, detail, span) = if start == 0 {
                    (0, head_len, head_len)
                } else {
                    let warmup = warmup_len.min(STREAM_BUDGET - start);
                    (
                        warmup,
                        detail_len.min(STREAM_BUDGET - start - warmup),
                        interval,
                    )
                };
                if detail > 0 {
                    let (result, fill) = rec.time(
                        "window",
                        || {
                            simulate_window(
                                kernel.program(),
                                config.clone(),
                                &readers[w],
                                snaps,
                                start,
                                warmup,
                                detail,
                                interval,
                            )
                        },
                        |(r, _)| r.stats.committed,
                    );
                    truncated |= result.truncated_by_watchdog;
                    measured += result.stats.committed;
                    filled += fill;
                    windows += 1;
                    per_interval.push((result.stats, span));
                }
                start += interval;
            }
            per_cell.push((per_interval, truncated));
        }
    }
    counts.insert("window.count".to_string(), windows as f64);
    counts.insert(
        "window.measured_ratio".to_string(),
        ratio(measured as f64, (measured + filled) as f64),
    );

    let mut cells = Vec::new();
    let mut fingerprints = Vec::new();
    let mut per_cell = per_cell.into_iter();
    for kernel in kernels {
        for (m, &(_, machine)) in table1().iter().enumerate() {
            let (per_interval, truncated) = per_cell.next().expect("one entry per cell");
            let (stats, sampled, sampled_energy) = rec.time(
                "sampling.fold",
                || {
                    let mut aggregate = SimStats::default();
                    for (stats, _) in &per_interval {
                        aggregate.accumulate(stats);
                    }
                    let model = energy_model_for(machine, REFERENCE_NODE);
                    (
                        aggregate,
                        SampledStats::from_intervals(&per_interval),
                        SampledEnergy::from_intervals(&per_interval, &model),
                    )
                },
                |_| per_interval.len() as u64,
            );
            let cell = Cell {
                workload: kernel.name().to_string(),
                variant: kernel.variant(),
                machine,
                predictor: PredictorKind::Gshare,
                hook: None,
                result: SimResult {
                    machine: machine.label(),
                    predictor: PredictorKind::Gshare.label().to_string(),
                    truncated_by_watchdog: truncated,
                    stats,
                },
                sampled: Some(sampled),
                sampled_energy: Some(sampled_energy),
            };
            let fingerprint = cell_fingerprint(
                program_fingerprint(kernel.program()),
                kernel.name(),
                kernel.variant(),
                None,
                &configs[m],
                STREAM_BUDGET,
                Some(plan),
            );
            rec.time(
                "journal.record",
                || journal.record_cell(fingerprint, &cell),
                |_| 1,
            );
            fingerprints.push(fingerprint);
            cells.push(cell);
        }
    }
    rec.exit(timed, 0);
    counts.insert("journal.cells".to_string(), journal.recorded_count() as f64);
    counts.insert(
        "journal.bytes".to_string(),
        dir_bytes(&journal_dir(dir)) as f64,
    );

    let replay = rec.enter("replay");
    let reopened = ExperimentJournal::open(journal_dir(dir));
    let mut replayed_identical = 0u64;
    for (fingerprint, cell) in fingerprints.iter().zip(&cells) {
        let loaded = rec.time(
            "journal.replay",
            || reopened.load_cell(*fingerprint),
            |c| u64::from(c.is_some()),
        );
        replayed_identical += u64::from(loaded.is_some_and(|l| same_cell(&l, cell)));
    }
    rec.exit(replay, 0);
    rec.exit(root, 0);

    counts.insert(
        "journal.replayed_identical".to_string(),
        replayed_identical as f64,
    );
    counts.insert(
        "sampling.measured_insts".to_string(),
        cells
            .iter()
            .filter_map(|c| c.sampled.as_ref())
            .map(|s| s.measured_instructions as f64)
            .sum(),
    );
    counts.insert(
        "sampling.ipc_stderr_pct".to_string(),
        cells
            .iter()
            .filter_map(|c| c.sampled.as_ref()?.ipc_rel_stderr)
            .fold(0.0, f64::max)
            * 100.0,
    );
    cell_counts(&cells, false, &mut counts);
    let digest = cells_digest(&cells);
    (
        Pass {
            rec,
            counts,
            digest,
        },
        cells,
    )
}

/// Whether two directories hold the same file names with the same bytes.
fn same_files(a: &Path, b: &Path) -> bool {
    let list = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("list a benchmark directory")
            .map(|e| {
                let e = e.expect("read a directory entry");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("read a benchmark file"),
                )
            })
            .collect();
        files.sort();
        files
    };
    list(a) == list(b)
}

// ------------------------------------------------------------- model_check

fn check_pass(run: u64) -> (Pass, (CheckReport, CheckReport)) {
    let mut rec = Recorder::new(run);
    let root = rec.enter("pass");
    let setup = rec.enter("setup");
    let (msp_config, cpr_config) = (CheckConfig::default(), CprConfig::default());
    rec.exit(setup, 0);
    let timed = rec.enter("timed");
    let msp = rec.time(
        "check.msp",
        || check_msp(msp_config, ExploreLimits::default()),
        |r| r.visited,
    );
    let cpr = rec.time(
        "check.cpr",
        || check_cpr(cpr_config, ExploreLimits::default()),
        |r| r.visited,
    );
    rec.exit(timed, 0);
    rec.exit(root, 0);
    let mut counts = BTreeMap::new();
    counts.insert("check.msp_states".to_string(), msp.visited as f64);
    counts.insert("check.msp_depth".to_string(), msp.max_depth as f64);
    counts.insert("check.cpr_states".to_string(), cpr.visited as f64);
    let digest = reports_digest(&msp, &cpr);
    (
        Pass {
            rec,
            counts,
            digest,
        },
        (msp, cpr),
    )
}

// ------------------------------------------------------------------ metrics

/// Self time, work and span count per span name.
fn by_name(pass: &Pass) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let spans = pass.rec.spans();
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += self_ns;
        entry.1 += span.work;
        entry.2 += 1;
    }
    totals
}

/// The per-layer metrics of one traced pass. `untraced_wall_s` is the
/// untraced timed phase the tracing overhead is measured against.
fn layer_metrics(pass: &Pass, untraced_wall_s: f64) -> BTreeMap<String, f64> {
    let totals = by_name(pass);
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 * 1e-9);
    let work = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64);
    let count = |name: &str| pass.counts.get(name).copied().unwrap_or(0.0);
    let mut m: BTreeMap<String, f64> = pass.counts.clone();
    m.remove("journal.replayed_identical");
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("capture.s", secs("capture"));
    put(
        "capture.mrec_per_s",
        ratio(work("capture"), secs("capture")) / 1e6,
    );
    put("tracefile.encode_s", secs("tracefile.encode"));
    put("tracefile.open_s", secs("tracefile.open"));
    put("tracefile.decode_s", secs("tracefile.decode"));
    put(
        "tracefile.decode_mrec_per_s",
        ratio(work("tracefile.decode"), secs("tracefile.decode")) / 1e6,
    );
    for (slug, _) in table1() {
        let s = secs(sim_span(slug));
        put(&format!("sim.{slug}.s"), s);
        put(
            &format!("sim.{slug}.mips"),
            ratio(count(&format!("sim.{slug}.committed")), s) / 1e6,
        );
        put(
            &format!("sim.{slug}.ns_per_cycle"),
            ratio(s * 1e9, count(&format!("sim.{slug}.cycles"))),
        );
    }
    let mut windows: Vec<u64> = pass
        .rec
        .spans()
        .iter()
        .filter(|s| s.name == "window")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    windows.sort_unstable();
    let percentile_ms = |p: f64| -> f64 {
        if windows.is_empty() {
            return 0.0;
        }
        let rank = ((p * windows.len() as f64).ceil() as usize).clamp(1, windows.len());
        windows[rank - 1] as f64 * 1e-6
    };
    put("window.s", secs("window"));
    put("window.p50_ms", percentile_ms(0.5));
    put("window.p90_ms", percentile_ms(0.9));
    put("warm.s", secs("warm"));
    put("warm.mrec_per_s", ratio(work("warm"), secs("warm")) / 1e6);
    put("sampling.fold_s", secs("sampling.fold"));
    put(
        "journal.record_ms",
        ratio(secs("journal.record"), calls("journal.record")) * 1e3,
    );
    put(
        "journal.replay_ms",
        ratio(secs("journal.replay"), calls("journal.replay")) * 1e3,
    );
    put("check.msp_s", secs("check.msp"));
    put(
        "check.msp_states_per_s",
        ratio(work("check.msp"), secs("check.msp")),
    );
    put("check.cpr_s", secs("check.cpr"));
    put("lab.unattributed_s", GLUE.iter().map(|g| secs(g)).sum());
    put(
        "trace.overhead_pct",
        ratio(pass.span_secs("timed") - untraced_wall_s, untraced_wall_s) * 100.0,
    );
    m
}

/// Runs untraced repetitions and traced passes alternately until `seconds`
/// have passed (at least two traced passes), checks each traced pass
/// against the untraced output, and returns the per-layer metrics of the
/// fastest traced pass, its output digest and every pass's spans.
pub fn run(
    workload: BenchWorkload,
    kernels: &[Workload],
    seconds: f64,
    dir: &Path,
    checks: &mut Checks,
) -> (BTreeMap<String, f64>, u64, Vec<Recorder>) {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut untraced_wall = f64::INFINITY;
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let run = passes.len() as u64;
        let pass = match workload {
            BenchWorkload::ExactTable1 => {
                let (timing, reference) = exact_rep(kernels, checks);
                untraced_wall = untraced_wall.min(timing.wall_s);
                let (pass, cells) = exact_pass(run, kernels);
                check_cells(checks, workload, reference.cells(), &cells);
                pass
            }
            BenchWorkload::SampledStream => {
                let (untraced_dir, traced_dir) = (dir.join("untraced"), dir.join("traced"));
                fresh_dir(&untraced_dir);
                let (timing, reference) = stream_rep(kernels, &untraced_dir, checks);
                untraced_wall = untraced_wall.min(timing.wall_s);
                let (pass, cells) = stream_pass(run, kernels, &traced_dir);
                check_cells(checks, workload, reference.cells(), &cells);
                checks.expect(
                    pass.counts["journal.replayed_identical"] == cells.len() as f64,
                    || "sampled_stream traced: journal replay differs".to_string(),
                );
                for sub in ["store", "journal"] {
                    checks.expect(
                        same_files(&untraced_dir.join(sub), &traced_dir.join(sub)),
                        || format!("sampled_stream traced: {sub} files differ from the Lab's"),
                    );
                }
                pass
            }
            BenchWorkload::ModelCheck => {
                let (timing, (msp, cpr)) = check_rep(checks);
                untraced_wall = untraced_wall.min(timing.wall_s);
                let (pass, _) = check_pass(run);
                checks.expect(pass.digest == reports_digest(&msp, &cpr), || {
                    "model_check traced: reports differ from the untraced run".to_string()
                });
                pass
            }
        };
        let spans = pass.rec.spans();
        let total: u64 = self_times(spans).iter().sum();
        checks.expect(total == spans[0].end_ns - spans[0].start_ns, || {
            format!(
                "{} traced: self times do not add up to the total",
                workload.name()
            )
        });
        if let Some(first) = passes.first() {
            checks.expect(first.counts == pass.counts, || {
                format!("{} traced: counts differ between passes", workload.name())
            });
        }
        passes.push(pass);
    }
    let fastest = passes
        .iter()
        .min_by(|a, b| a.span_secs("pass").total_cmp(&b.span_secs("pass")))
        .expect("at least two passes");
    let metrics = layer_metrics(fastest, untraced_wall);
    let digest = fastest.digest;
    (metrics, digest, passes.into_iter().map(|p| p.rec).collect())
}

fn check_cells(checks: &mut Checks, workload: BenchWorkload, reference: &[Cell], traced: &[Cell]) {
    let identical = reference.len() == traced.len()
        && reference.iter().zip(traced).all(|(a, b)| same_cell(a, b));
    checks.expect(identical, || {
        format!(
            "{} traced: cells differ from the untraced run (digests {:016x} vs {:016x})",
            workload.name(),
            cells_digest(reference),
            cells_digest(traced)
        )
    });
}
