//! Sampling-correctness fences for the checkpointed warm-up subsystem.
//!
//! What can and cannot be bit-identical: `resume_from(trace, 0, 0)` *is*
//! bit-identical to an exact run (pinned here and in `msp-pipeline`'s unit
//! tests), and the architectural checkpoint at index `k` *is* bit-identical
//! to functionally executing `k` instructions from scratch (pinned in
//! `msp-isa`). Resuming mid-trace, however, intentionally starts with an
//! empty pipeline — that cold-start bias is the quantity sampling trades
//! for speed — so the fences for `k > 0` are: the `Lab`'s fan-out is
//! bit-identical to driving `Simulator::resume_from` by hand, results are
//! thread-count-invariant and deterministic, full-detail sampling covers
//! every committed instruction, and the sampled IPC estimate tracks the
//! exact IPC closely (a deterministic accuracy canary, not a statistical
//! test).

use msp_bench::{
    Experiment, Lab, LabConfig, ResultSet, SampledStats, SamplingPlan, DEFAULT_SAMPLE_INTERVAL,
    DEFAULT_SAMPLE_TARGET_STDERR,
};
use msp_branch::PredictorKind;
use msp_pipeline::{MachineKind, SimConfig, SimStats, Simulator, WarmState};
use msp_workloads::{by_name, Variant};
use std::sync::Arc;

fn reference_machines() -> [MachineKind; 4] {
    [
        MachineKind::Baseline,
        MachineKind::cpr(),
        MachineKind::msp(16),
        MachineKind::IdealMsp,
    ]
}

fn lab(instructions: u64, threads: usize) -> Lab {
    Lab::new(LabConfig {
        instructions,
        threads,
        ..LabConfig::default()
    })
}

/// The `Lab`'s sampled fan-out is bit-identical to driving the
/// checkpoint/warm-state machinery by hand over the same intervals, on
/// every machine kind: same per-interval statistics, same aggregate, same
/// estimate. This is the sampled analog of the determinism suite's
/// lab-vs-private-oracle fence. The second budget ends inside its last
/// interval: that window is clipped to the budget and stands only for the
/// part of the interval the budget covers.
#[test]
fn lab_sampled_cells_match_manual_resume_simulation() {
    let (interval, detail_len, warmup_len) = (3_000u64, 1_000u64, 500u64);
    let spec = SamplingPlan::Periodic {
        interval,
        detail_len,
        warmup_len,
    };
    let workload = by_name("gzip", Variant::Original).unwrap();
    for budget in [12_000u64, 13_000] {
        let lab = lab(budget, 4);
        let results = lab.run(
            &Experiment::new("sampled")
                .workload(workload.clone())
                .machines(reference_machines())
                .predictor(PredictorKind::Gshare)
                .sampling(spec),
        );
        let trace = lab.trace_with_checkpoints(&workload, budget, interval);
        for (m, machine) in reference_machines().iter().enumerate() {
            let config = SimConfig::machine(*machine, PredictorKind::Gshare);
            // The cumulative warm trajectory: absorb the trace from the
            // head, snapshotting at every interval start ≥ 1.
            let mut warm = WarmState::for_config(workload.program(), &config);
            let mut snapshots = Vec::new();
            for index in 0..(budget - 1) / interval * interval {
                warm.absorb(trace.get(index).unwrap());
                if (index + 1) % interval == 0 {
                    snapshots.push(warm.clone());
                }
            }
            let mut per_interval: Vec<(SimStats, u64)> = Vec::new();
            let mut aggregate = SimStats::default();
            let head_len = (interval / 3).max(detail_len);
            let mut start = 0;
            while start < budget {
                // The head stratum measures `max(interval/3, detail_len)`
                // exactly from a cold machine; later intervals run
                // `warmup_len` of detailed pipeline fill from their warm
                // snapshot (excluded from measurement), then measure
                // `detail_len`, all clipped to the budget.
                let (stats, span) = if start == 0 {
                    (
                        Simulator::resume_from(
                            workload.program(),
                            config.clone(),
                            Arc::clone(&trace),
                            0,
                            0,
                        )
                        .run(head_len)
                        .stats,
                        head_len,
                    )
                } else {
                    let left = budget - start;
                    let warmup = warmup_len.min(left);
                    let snapshot = snapshots[(start / interval) as usize - 1].clone();
                    let mut sim = Simulator::resume_warmed(
                        workload.program(),
                        config.clone(),
                        Arc::clone(&trace),
                        start,
                        snapshot,
                    );
                    sim.run(warmup);
                    let prefix = sim.stats().clone();
                    (
                        sim.run(prefix.committed + detail_len.min(left - warmup))
                            .stats
                            .subtracting(&prefix),
                        interval.min(left),
                    )
                };
                aggregate.accumulate(&stats);
                per_interval.push((stats, span));
                start += interval;
            }
            let cell = results.get(0, m, 0, 0);
            assert_eq!(
                cell.result.stats, aggregate,
                "{machine:?} at {budget}: Lab aggregate must equal manual resume_from runs"
            );
            assert_eq!(
                cell.sampled.as_ref().unwrap(),
                &SampledStats::from_intervals(&per_interval),
                "{machine:?} at {budget}: Lab estimate must equal the manual aggregation"
            );
            assert_eq!(
                cell.sampled.as_ref().unwrap().intervals as u64,
                budget.div_ceil(interval)
            );
        }
    }
}

/// Sampled results are identical for every worker-thread count and
/// run-to-run (the interval fan-out must not introduce nondeterminism).
#[test]
fn sampled_runs_are_thread_count_invariant() {
    const BUDGET: u64 = 8_000;
    let spec = Experiment::new("threads")
        .workloads(
            ["gzip", "vpr"]
                .iter()
                .map(|n| by_name(n, Variant::Original).unwrap()),
        )
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .sampling(SamplingPlan::Periodic {
            interval: 2_000,
            detail_len: 600,
            warmup_len: 200,
        });
    let a = lab(BUDGET, 1).run(&spec);
    let b = lab(BUDGET, 16).run(&spec);
    let c = lab(BUDGET, 16).run(&spec);
    assert_eq!(a.cells().len(), b.cells().len());
    for ((left, mid), right) in a.cells().iter().zip(b.cells()).zip(c.cells()) {
        assert_eq!(left.workload, mid.workload);
        assert_eq!(left.result.stats, mid.result.stats, "1 vs 16 threads");
        assert_eq!(left.sampled, mid.sampled, "1 vs 16 threads estimate");
        assert_eq!(mid.result.stats, right.result.stats, "run-to-run");
        assert_eq!(mid.sampled, right.sampled, "run-to-run estimate");
        // The structural stats equality above covers the activity counters;
        // the derived energy estimate must agree too (and be non-trivial).
        assert_eq!(left.sampled_energy, mid.sampled_energy, "1 vs 16 threads");
        assert!(left.result.stats.activity.rf_reads_total() > 0);
        assert!(left.sampled_energy.as_ref().unwrap().mean_epi_pj > 0.0);
    }
}

/// Warm trajectories live only while their windows run: each group of
/// warm-compatible cells (here one per workload) is warmed once, by the
/// first unit that resumes a window past 0, and dropped when its last such
/// unit finishes. Units run cell-major, so one worker holds one trajectory
/// at a time and two hold at most two, where warming every workload up
/// front held all three. Exact runs warm nothing.
#[test]
fn warm_trajectories_live_only_while_their_windows_run() {
    const BUDGET: u64 = 8_000;
    let spec = Experiment::new("trajectory-bound")
        .workloads(
            ["gzip", "vpr", "swim"]
                .iter()
                .map(|n| by_name(n, Variant::Original).unwrap()),
        )
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .sampling(SamplingPlan::Periodic {
            interval: 2_000,
            detail_len: 600,
            warmup_len: 200,
        });
    let (one, two) = (lab(BUDGET, 1), lab(BUDGET, 2));
    let a = one.run(&spec);
    let b = two.run(&spec);
    for cell in a.cells() {
        assert_eq!(
            cell.sampled.as_ref().unwrap().intervals,
            4,
            "head + 3 tail windows"
        );
    }
    assert_eq!(one.warm_pass_count(), 3, "one pass per workload, 1 worker");
    assert_eq!(two.warm_pass_count(), 3, "one pass per workload, 2 workers");
    assert_eq!(one.peak_trajectory_count(), 1);
    assert!((1..=2).contains(&two.peak_trajectory_count()));
    assert_eq!(a.cells().len(), b.cells().len());
    for (left, right) in a.cells().iter().zip(b.cells()) {
        assert_eq!(left.result.stats, right.result.stats, "1 vs 2 workers");
        assert_eq!(left.sampled, right.sampled, "1 vs 2 workers estimate");
    }
    one.run(&spec.clone().instructions(2_000).sampling_opt(None));
    assert_eq!(one.warm_pass_count(), 3, "an exact run warms nothing");
}

/// With `detail_len == interval` and no warm-up, every committed
/// instruction of the budget is measured in detail exactly once per cell:
/// the sampled aggregate covers at least the full budget (detailed runs
/// can overshoot their request by a commit group, exactly as exact runs
/// do), and the estimate reflects every interval.
#[test]
fn full_detail_sampling_covers_the_whole_budget() {
    const BUDGET: u64 = 4_000;
    let workload = by_name("swim", Variant::Original).unwrap();
    let results = lab(BUDGET, 2).run(
        &Experiment::new("full-detail")
            .workload(workload)
            .machines(reference_machines())
            .sampling(SamplingPlan::Periodic {
                interval: 1_000,
                detail_len: 1_000,
                warmup_len: 0,
            }),
    );
    for (m, machine) in reference_machines().iter().enumerate() {
        let cell = results.get(0, m, 0, 0);
        let sampled = cell.sampled.as_ref().unwrap();
        assert_eq!(sampled.intervals, 4, "{machine:?}");
        assert!(
            sampled.measured_instructions >= BUDGET,
            "{machine:?}: measured {} of {BUDGET}",
            sampled.measured_instructions
        );
        assert_eq!(cell.result.stats.committed, sampled.measured_instructions);
        assert!(!cell.result.truncated_by_watchdog, "{machine:?}");
    }
}

/// The Table I reference sweep the 2M fences measure: the four Table I
/// machines on gzip, vpr and swim with the gshare predictor.
fn reference_sweep() -> Experiment {
    Experiment::new("table1-sweep")
        .workloads(
            ["gzip", "vpr", "swim"]
                .iter()
                .map(|n| by_name(n, Variant::Original).unwrap()),
        )
        .machines(reference_machines())
        .predictor(PredictorKind::Gshare)
}

/// The worst cell of a sampled sweep against the exact sweep.
struct WorstCell {
    /// Largest relative error of a sampled IPC against the exact IPC.
    ipc_error: f64,
    /// Largest IPC relative standard error a cell reported.
    rel_stderr: f64,
    /// Most windows any cell measured.
    windows: usize,
}

/// Judges every cell of `sampled` against its exact twin. Fails closed on
/// the confidence figure: a cell that measured two or more windows besides
/// the head stratum (which [`SampledStats::ipc_rel_stderr`] excludes) has a
/// spread, so it must report a finite relative standard error.
fn worst_cell(exact: &ResultSet, sampled: &ResultSet, plan: &str) -> WorstCell {
    let mut worst = WorstCell {
        ipc_error: 0.0,
        rel_stderr: 0.0,
        windows: 0,
    };
    for (e, s) in exact.cells().iter().zip(sampled.cells()) {
        assert!(!s.result.truncated_by_watchdog, "{plan}: a window wedged");
        let estimate = s.sampled.as_ref().unwrap();
        let label = format!("{plan} {}/{}", e.workload, e.machine.label());
        if estimate.intervals > 2 {
            assert!(
                estimate.ipc_rel_stderr.is_some_and(f64::is_finite),
                "{label}: {} windows but IPC relative stderr {:?}",
                estimate.intervals,
                estimate.ipc_rel_stderr
            );
        }
        worst.ipc_error = worst
            .ipc_error
            .max((estimate.mean_ipc - e.ipc()).abs() / e.ipc());
        worst.rel_stderr = worst.rel_stderr.max(estimate.ipc_rel_stderr.unwrap_or(0.0));
        worst.windows = worst.windows.max(estimate.intervals);
    }
    worst
}

/// The deterministic accuracy canary — the acceptance shape itself — over
/// the reference sweep at a 2M-instruction budget. Simulation is
/// deterministic, so every figure here is fixed, not a flaky statistical
/// bound; one moving past its fence means the warm-up, checkpoint,
/// clustering or estimator logic regressed.
///
/// * The default `SamplingPlan::periodic` plan (SMARTS-style): every cell's
///   sampled IPC and energy per instruction are within 2% of exact, and
///   every cell with a spread reports a finite confidence figure.
/// * The phase-aware plan (SimPoint-style) at the same interval measures
///   no more windows per cell than periodic and its worst cell is no
///   further off.
/// * The adaptive plan, at half the interval with the periodic window
///   shape, lands its worst achieved IPC relative stderr within 20% of the
///   2% default target.
#[test]
#[ignore = "12 exact 2M-instruction sims; run in release via --ignored"]
fn sampled_ipc_tracks_exact_ipc_at_2m() {
    const BUDGET: u64 = 2_000_000;
    let exact_lab = Lab::new(LabConfig {
        instructions: BUDGET,
        threads: 1,
        trace_cache_bytes: 4 << 30,
        ..LabConfig::default()
    });
    let spec = reference_sweep();
    let exact = exact_lab.run(&spec);
    let periodic = SamplingPlan::periodic(DEFAULT_SAMPLE_INTERVAL);
    let sampled = exact_lab.run(&spec.clone().sampling(periodic));
    for (e, s) in exact.cells().iter().zip(sampled.cells()) {
        let exact_ipc = e.ipc();
        let est = s.sampled.as_ref().unwrap().mean_ipc;
        let rel = (est - exact_ipc).abs() / exact_ipc;
        assert!(
            rel < 0.02,
            "{}/{}: sampled IPC {est:.4} vs exact {exact_ipc:.4} ({:.2}% off)",
            e.workload,
            e.machine.label(),
            100.0 * rel
        );
        // The energy canary: the span-weighted sampled energy-per-
        // instruction must land within 2% of the exact fold as well.
        let exact_epi = e.epi_pj();
        let est_epi = s.sampled_energy.as_ref().unwrap().mean_epi_pj;
        let rel_epi = (est_epi - exact_epi).abs() / exact_epi;
        assert!(
            rel_epi < 0.02,
            "{}/{}: sampled EPI {est_epi:.3} pJ vs exact {exact_epi:.3} pJ ({:.2}% off)",
            e.workload,
            e.machine.label(),
            100.0 * rel_epi
        );
    }
    let periodic_worst = worst_cell(&exact, &sampled, "periodic");

    let phases = exact_lab.run(
        &spec
            .clone()
            .sampling(SamplingPlan::phase_aware(DEFAULT_SAMPLE_INTERVAL)),
    );
    let phase_worst = worst_cell(&exact, &phases, "phase-aware");
    assert!(
        phase_worst.windows <= periodic_worst.windows,
        "phase-aware measured up to {} windows per cell, periodic {}",
        phase_worst.windows,
        periodic_worst.windows
    );
    assert!(
        phase_worst.ipc_error <= periodic_worst.ipc_error,
        "phase-aware worst IPC error {:.3}% above periodic's {:.3}%",
        100.0 * phase_worst.ipc_error,
        100.0 * periodic_worst.ipc_error
    );

    // A 2x finer interval doubles the pool the stopping rule draws from;
    // the periodic window shape (6,250 detail after 2,083 warm-up) keeps
    // the windows as well warmed as the periodic plan's.
    let adaptive = exact_lab.run(
        &spec.clone().sampling(
            SamplingPlan::adaptive(DEFAULT_SAMPLE_TARGET_STDERR)
                .with_interval(DEFAULT_SAMPLE_INTERVAL / 2)
                .with_window(periodic.detail_len(), periodic.warmup_len()),
        ),
    );
    let adaptive_worst = worst_cell(&exact, &adaptive, "adaptive");
    assert!(
        adaptive_worst.rel_stderr <= 1.2 * DEFAULT_SAMPLE_TARGET_STDERR,
        "adaptive worst IPC relative stderr {:.3}% overshoots 1.2 x the {:.3}% target",
        100.0 * adaptive_worst.rel_stderr,
        100.0 * DEFAULT_SAMPLE_TARGET_STDERR
    );
    println!(
        "periodic: worst IPC error {:.3}%, worst stderr {:.3}%, {} windows/cell; \
         phase-aware: {:.3}%, {} windows/cell; adaptive: worst stderr {:.3}%",
        100.0 * periodic_worst.ipc_error,
        100.0 * periodic_worst.rel_stderr,
        periodic_worst.windows,
        100.0 * phase_worst.ipc_error,
        phase_worst.windows,
        100.0 * adaptive_worst.rel_stderr
    );
}

/// The timing fences, measured in one process on one worker thread at the
/// 2M reference budget, each Lab fresh (empty trace cache):
///
/// * the exact sweep, its three trace captures included, runs at no less
///   than 75% of 2.963 simulated MIPS, the cold-sweep baseline recorded at
///   2M on a one-thread host;
/// * the default periodic plan is at least 4x faster than that exact sweep
///   (an unmeasured sampled pass first warms the process, so both timed
///   passes start from the same footing);
/// * opening a fresh journal and durably recording the sweep's 12 cells
///   costs at most 2% of the exact sweep. It is timed directly: the
///   difference of two whole-sweep timings is mostly host noise.
///
/// Wall-clock fences belong to a quiet release build, so this test exists
/// only without debug assertions.
#[test]
#[cfg(not(debug_assertions))]
#[ignore = "times 2M-instruction sweeps; run alone in release via --ignored"]
fn sweep_timing_fences_at_2m() {
    use msp_bench::ExperimentJournal;
    use std::time::Instant;
    const BUDGET: u64 = 2_000_000;
    const MIN_EXACT_MIPS: f64 = 0.75 * 2.963;
    const MIN_SAMPLED_SPEEDUP: f64 = 4.0;
    const MAX_JOURNAL_SHARE: f64 = 0.02;
    let timed = |spec: &Experiment| {
        let lab = lab(BUDGET, 1);
        let start = Instant::now();
        let results = lab.run(spec);
        let wall_s = start.elapsed().as_secs_f64();
        assert_eq!(lab.capture_count(), 3, "one capture per workload");
        (wall_s, results)
    };
    let spec = reference_sweep();
    let sampled_spec = spec
        .clone()
        .sampling(SamplingPlan::periodic(DEFAULT_SAMPLE_INTERVAL));
    timed(&sampled_spec); // warms the process; not measured
    let (sampled_s, _) = timed(&sampled_spec);
    let (exact_s, exact) = timed(&spec);

    let committed: u64 = exact.cells().iter().map(|c| c.result.stats.committed).sum();
    let mips = committed as f64 / exact_s / 1e6;
    let speedup = exact_s / sampled_s;

    let dir = std::env::temp_dir().join(format!("msp-bench-journal-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let journal = ExperimentJournal::open(&dir);
    for (fingerprint, cell) in (0u64..).zip(exact.cells()) {
        journal.record_cell(fingerprint, cell);
    }
    let journal_s = start.elapsed().as_secs_f64();
    assert!(
        !journal.is_degraded(),
        "the journal at {} degraded",
        dir.display()
    );
    assert_eq!(journal.recorded_count(), exact.cells().len() as u64);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    let journal_share = journal_s / exact_s;

    println!(
        "exact: {exact_s:.3} s, {mips:.3} MIPS; sampled: {sampled_s:.3} s, {speedup:.2}x; \
         journal: {:.2} ms, {:.3}% of exact",
        1e3 * journal_s,
        100.0 * journal_share
    );
    assert!(
        mips >= MIN_EXACT_MIPS,
        "exact sweep ran at {mips:.3} MIPS ({exact_s:.3} s), below the {MIN_EXACT_MIPS:.3} floor"
    );
    assert!(
        speedup >= MIN_SAMPLED_SPEEDUP,
        "sampled sweep took {sampled_s:.3} s, {speedup:.2}x faster than exact's {exact_s:.3} s \
         (fence {MIN_SAMPLED_SPEEDUP}x)"
    );
    assert!(
        journal_share <= MAX_JOURNAL_SHARE,
        "recording 12 cells took {:.2} ms, {:.3}% of the {exact_s:.3} s exact sweep (fence {}%)",
        1e3 * journal_s,
        100.0 * journal_share,
        100.0 * MAX_JOURNAL_SHARE
    );
}

/// A sampled run whose cells measured fewer than two periodic windows has
/// an *undefined* confidence figure, and every emitter must say `n/a`
/// instead of the historical silent `0.00%` (the perfect-confidence bug).
#[test]
fn undefined_rel_stderr_renders_as_na_in_every_format() {
    use msp_bench::{OutputFormat, ReportKind};
    let lab = lab(2_000, 1);
    // interval 1500 on a 2000-instruction budget: a head stratum plus one
    // periodic window — no measurable spread.
    let report = ReportKind::Table1.build_sampled(&lab, Some(SamplingPlan::periodic(1_500)));
    let text = report.render(OutputFormat::Text);
    assert!(
        text.contains("worst-cell IPC rel. std. error: n/a"),
        "text must render n/a, got:\n{text}"
    );
    assert!(
        !text.contains("error: 0.00%"),
        "no silent perfect confidence"
    );
    // The note block is shared verbatim by the JSON emitter.
    let json = report.render(OutputFormat::Json);
    assert!(json.contains("worst-cell IPC rel. std. error: n/a"));
    // CSV omits note blocks by design; the guarantee there is that no
    // fabricated 0.00% figure appears anywhere.
    assert!(!report.render(OutputFormat::Csv).contains("0.00%"));
}

/// A plan that places no window past the head estimates every cell from
/// its cold start alone; `msp-lab` warns once on stderr, naming the plan,
/// budget, interval and head-only cell count, and stays silent when the
/// interval leaves room for tail windows.
#[test]
fn head_only_plans_warn_once_on_stderr() {
    let stderr = |interval: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_msp-lab"))
            .env_remove("MSP_BENCH_TRACE_DIR")
            .env_remove("MSP_BENCH_JOURNAL_DIR")
            .env_remove("MSP_BENCH_SAMPLE_PLAN")
            .env("MSP_BENCH_INSTRUCTIONS", "2000")
            .env("MSP_BENCH_SAMPLE_INTERVAL", interval)
            .args(["table1", "--sample"])
            .output()
            .expect("run msp-lab");
        assert!(out.status.success(), "msp-lab failed");
        String::from_utf8(out.stderr).expect("UTF-8 stderr")
    };
    let warned = stderr("5000");
    assert_eq!(
        warned.matches("warning:").count(),
        1,
        "one warning per run:\n{warned}"
    );
    assert!(
        warned.contains(
            "periodic sampling measures only the head window in 12 of 12 cells \
             at a 2000-instruction budget with a 5000-instruction interval"
        ),
        "{warned}"
    );
    let silent = stderr("500");
    assert!(!silent.contains("warning:"), "{silent}");
}

/// LRU eviction at a checkpoint-heavy budget: `Trace::footprint_bytes`
/// accounts every checkpoint's full heap (pages + page-table), so a cache
/// sized for one-and-a-half such traces must evict on the second insert
/// and stay within its byte bound.
#[test]
fn checkpoint_heavy_traces_respect_the_lru_byte_bound() {
    let gzip = by_name("gzip", Variant::Original).unwrap();
    let vpr = by_name("vpr", Variant::Original).unwrap();
    let probe = lab(4_000, 1);
    let gzip_trace = probe.trace_with_checkpoints(&gzip, 4_000, 200);
    let vpr_trace = probe.trace_with_checkpoints(&vpr, 4_000, 200);
    assert!(gzip_trace.checkpoint_count() >= 20, "checkpoint-heavy");
    // The checkpoints must dominate the plain trace's footprint for this
    // budget to be meaningfully "checkpoint-heavy".
    let plain = probe.trace(&gzip, 4_000);
    assert!(gzip_trace.footprint_bytes() > plain.footprint_bytes());
    // Room for the larger trace alone, but not for both: the second insert
    // must evict the first yet still fit under the bound by itself.
    let budget = vpr_trace.footprint_bytes() + gzip_trace.footprint_bytes() / 2;
    let tight = Lab::new(LabConfig {
        instructions: 4_000,
        threads: 1,
        trace_cache_bytes: budget,
        ..LabConfig::default()
    });
    tight.trace_with_checkpoints(&gzip, 4_000, 200);
    assert_eq!(tight.cached_trace_count(), 1);
    tight.trace_with_checkpoints(&vpr, 4_000, 200);
    assert_eq!(
        tight.cached_trace_count(),
        1,
        "the second checkpointed trace must evict the first"
    );
    assert_eq!(tight.eviction_count(), 1);
    assert!(
        tight.cached_trace_bytes() <= budget,
        "retained bytes {} exceed the configured bound {}",
        tight.cached_trace_bytes(),
        budget
    );
}

/// `MSP_BENCH_SAMPLE_INTERVAL` follows the strict-env contract: unset uses
/// the default, garbage and zero are errors naming the variable.
#[test]
fn sample_interval_env_is_strict() {
    assert_eq!(
        LabConfig::from_vars(None, None, None, None, None, None, None, None, None)
            .unwrap()
            .sample_interval,
        DEFAULT_SAMPLE_INTERVAL
    );
    assert_eq!(
        LabConfig::from_vars(
            None,
            None,
            None,
            Some("25000"),
            None,
            None,
            None,
            None,
            None
        )
        .unwrap()
        .sample_interval,
        25_000
    );
    for bad in ["0", "", "abc", "-5", "1e6", "100_000"] {
        let err = LabConfig::from_vars(None, None, None, Some(bad), None, None, None, None, None)
            .unwrap_err();
        assert_eq!(err.var, "MSP_BENCH_SAMPLE_INTERVAL", "value {bad:?}");
        assert!(err.to_string().contains("MSP_BENCH_SAMPLE_INTERVAL"));
    }
}

/// Checkpointed and plain traces of the same `(workload, budget)` pair are
/// cached under distinct keys, carry identical records, and are shared on
/// repeated requests.
#[test]
fn checkpointed_traces_cache_separately_from_plain_ones() {
    let workload = by_name("gzip", Variant::Original).unwrap();
    let lab = lab(2_000, 1);
    let plain = lab.trace(&workload, 2_000);
    let checkpointed = lab.trace_with_checkpoints(&workload, 2_000, 500);
    assert!(!Arc::ptr_eq(&plain, &checkpointed));
    assert_eq!(plain.records(), checkpointed.records());
    assert_eq!(plain.checkpoint_count(), 0);
    assert!(checkpointed.checkpoint_count() >= 4);
    assert_eq!(lab.cached_trace_count(), 2);
    // Same key → same materialisation, no re-capture.
    let again = lab.trace_with_checkpoints(&workload, 2_000, 500);
    assert!(Arc::ptr_eq(&checkpointed, &again));
    assert_eq!(lab.capture_count(), 2);
    // A different interval is a different materialisation.
    let other = lab.trace_with_checkpoints(&workload, 2_000, 250);
    assert!(!Arc::ptr_eq(&checkpointed, &other));
    assert_eq!(lab.cached_trace_count(), 3);
}

/// An invalid sampling plan is rejected loudly at `Lab::run` time.
#[test]
#[should_panic(expected = "must fit in the interval")]
fn overlapping_sampling_windows_are_rejected_by_run() {
    let workload = by_name("gzip", Variant::Original).unwrap();
    lab(4_000, 1).run(
        &Experiment::new("bad")
            .workload(workload)
            .machine(MachineKind::Baseline)
            .sampling(SamplingPlan::Periodic {
                interval: 100,
                detail_len: 90,
                warmup_len: 20,
            }),
    );
}

/// Phase-aware sampled results are identical for every worker-thread count
/// and run-to-run: clustering is seeded from the plan, so the whole
/// BBV → phases → representative-windows path must be deterministic.
#[test]
fn phase_aware_runs_are_thread_count_invariant() {
    const BUDGET: u64 = 12_000;
    let spec = Experiment::new("phases-threads")
        .workloads(
            ["gzip", "swim"]
                .iter()
                .map(|n| by_name(n, Variant::Original).unwrap()),
        )
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .sampling(SamplingPlan::phase_aware(2_000));
    let a = lab(BUDGET, 1).run(&spec);
    let b = lab(BUDGET, 16).run(&spec);
    let c = lab(BUDGET, 16).run(&spec);
    assert_eq!(a.cells().len(), b.cells().len());
    for ((left, mid), right) in a.cells().iter().zip(b.cells()).zip(c.cells()) {
        assert_eq!(left.result.stats, mid.result.stats, "1 vs 16 threads");
        assert_eq!(left.sampled, mid.sampled, "1 vs 16 threads estimate");
        assert_eq!(mid.result.stats, right.result.stats, "run-to-run");
        assert_eq!(mid.sampled, right.sampled, "run-to-run estimate");
        let sampled = left.sampled.as_ref().unwrap();
        assert!(sampled.intervals >= 2, "head plus at least one phase");
        assert!(sampled.mean_ipc > 0.0);
    }
}

/// Phase-aware estimates are identical whether the checkpointed trace (and
/// its basic-block vectors) lives in memory or is streamed back from the
/// persistent store's v2 trace files: the BBVs a fresh process reads from
/// disk must cluster exactly like the ones the capturing process computed.
#[test]
fn phase_aware_estimates_match_between_memory_and_disk_traces() {
    const BUDGET: u64 = 10_000;
    let dir = std::env::temp_dir().join(format!(
        "msp-bench-phase-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = LabConfig {
        instructions: BUDGET,
        threads: 2,
        trace_dir: Some(dir.clone()),
        ..LabConfig::default()
    };
    let spec = Experiment::new("phases-store")
        .workload(by_name("vpr", Variant::Original).unwrap())
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .sampling(SamplingPlan::phase_aware(2_000));
    let capturing = Lab::new(config.clone());
    let from_memory = capturing.run(&spec);
    assert!(capturing.capture_count() > 0, "cold store must capture");
    drop(capturing);
    let resolving = Lab::new(config);
    let from_disk = resolving.run(&spec);
    assert_eq!(
        resolving.capture_count(),
        0,
        "a warm store must serve the BBVs without functional re-execution"
    );
    for (m, d) in from_memory.cells().iter().zip(from_disk.cells()) {
        assert_eq!(m.result.stats, d.result.stats, "memory vs disk trace");
        assert_eq!(m.sampled, d.sampled, "memory vs disk estimate");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An adaptive plan whose target is unreachable stops at `max_windows`
/// (plus the head stratum) instead of looping; one with a trivially
/// generous target stops as soon as the spread is defined at all.
#[test]
fn adaptive_stops_at_max_windows_or_at_the_target() {
    const BUDGET: u64 = 12_000;
    let workload = by_name("gzip", Variant::Original).unwrap();
    // 12 intervals of 1000 → 11 tail starts, capped at 3 windows. A 0.01%
    // relative standard error is unreachable for this workload.
    let capped = lab(BUDGET, 2).run(
        &Experiment::new("adaptive-capped")
            .workload(workload.clone())
            .machine(MachineKind::msp(16))
            .sampling(
                SamplingPlan::adaptive(0.000_1)
                    .with_interval(1_000)
                    .with_max_windows(3),
            ),
    );
    let sampled = capped.cells()[0].sampled.as_ref().unwrap();
    assert_eq!(sampled.intervals, 4, "head + max_windows windows");
    assert!(sampled.ipc_rel_stderr.unwrap() > 0.000_1, "target unmet");
    // A 90% target is met by the first defined spread: head + 2 windows.
    let generous = lab(BUDGET, 2).run(
        &Experiment::new("adaptive-generous")
            .workload(workload)
            .machine(MachineKind::msp(16))
            .sampling(SamplingPlan::adaptive(0.9).with_interval(1_000)),
    );
    let sampled = generous.cells()[0].sampled.as_ref().unwrap();
    assert_eq!(sampled.intervals, 3, "stops at the first defined stderr");
    assert!(sampled.ipc_rel_stderr.unwrap() <= 0.9);
}

/// Adaptive sampled results are thread-count invariant too: each cell's
/// stop-when-confident loop is sequential, and cells fan out cell-per-task.
#[test]
fn adaptive_runs_are_thread_count_invariant() {
    const BUDGET: u64 = 8_000;
    let spec = Experiment::new("adaptive-threads")
        .workloads(
            ["gzip", "vpr"]
                .iter()
                .map(|n| by_name(n, Variant::Original).unwrap()),
        )
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .sampling(SamplingPlan::adaptive(0.05).with_interval(1_000));
    let a = lab(BUDGET, 1).run(&spec);
    let b = lab(BUDGET, 16).run(&spec);
    for (left, mid) in a.cells().iter().zip(b.cells()) {
        assert_eq!(left.result.stats, mid.result.stats, "1 vs 16 threads");
        assert_eq!(left.sampled, mid.sampled, "1 vs 16 threads estimate");
    }
}
