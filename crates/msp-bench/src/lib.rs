//! Experiment harness for the MSP reproduction.
//!
//! The harness is organised around three typed pieces (see DESIGN.md):
//!
//! * [`Lab`] — an experiment **session** owning the shared trace cache
//!   (byte-bounded, LRU-evicted), the worker-thread count and the default
//!   instruction budget. The `MSP_BENCH_*` environment knobs are read in
//!   exactly one place, [`LabConfig::from_env`], and strictly — an
//!   unparseable value is an error, never a silent default.
//! * [`Experiment`] — a **declarative spec**: workloads × machines ×
//!   predictors × named [`SimConfig`](msp_pipeline::SimConfig) override
//!   hooks, plus an optional per-spec budget. [`Lab::run`] executes the
//!   cross product in parallel against shared functional traces and
//!   returns a [`ResultSet`] supporting coordinate indexing, filtering,
//!   group-by and pivoting.
//! * [`Report`] / [`ReportKind`] — each table, figure and ablation of the
//!   paper as an experiment recipe rendering to plain text, JSON or CSV,
//!   all served by the single `msp-lab` CLI binary.
//!
//! # The shared trace layer
//!
//! Every simulation a `Lab` runs goes through its **two-tier trace
//! cache** ([`Lab::trace`]): the committed-path [`Trace`](msp_isa::Trace)
//! of a `(workload, instruction budget)` pair is captured by one
//! functional execution and then shared read-only by every machine
//! configuration, predictor, override hook and worker thread simulating
//! that workload. A 4-machine × 3-kernel sweep therefore performs 3
//! functional executions instead of 12, and repeated runs in the same
//! session perform none at all. With `MSP_BENCH_TRACE_DIR` set, captures
//! also persist to an on-disk [`TraceStore`] of compressed trace files
//! shared **across processes** — a warm store means a cold process
//! performs zero functional executions, and budgets too large for the
//! memory tier are streamed from disk instead of materialised (see
//! DESIGN.md's persistent-trace-store section and the `msp-lab trace`
//! subcommands).
//!
//! # Sampled simulation
//!
//! An [`Experiment`] carrying a [`SamplingPlan`] estimates its full-budget
//! statistics from detailed simulation of **short windows**: the trace is
//! captured with architectural checkpoints (and per-interval basic-block
//! vectors), a head window runs cold from instruction 0, and every later
//! window resumes at its checkpoint (`Simulator::resume_warmed`) from a
//! snapshot of one functional warm trajectory over the whole prefix
//! (caches and branch predictors; warmed by the first window that needs
//! it and dropped after the last, so a sweep holds the trajectories of at
//! most as many workloads as it has workers), runs a short unmeasured
//! pipeline fill, measures `detail_len` committed instructions in detail,
//! and the per-window statistics fold into a [`SampledStats`] mean-IPC
//! estimate with a relative-error figure. An exact run is the same pipeline with
//! one cold window spanning the budget. The plan's [`Placement`] picks the
//! windows: [`Placement::Periodic`] measures every interval (SMARTS),
//! [`Placement::Phases`] clusters the interval BBVs and measures one
//! weighted representative per program phase (SimPoint), and
//! [`Placement::Adaptive`] keeps adding windows until the estimate's
//! relative standard error reaches a target. This is what makes
//! multi-million-instruction budgets tractable — see the `msp-lab
//! --sample` flag and DESIGN.md's phase-aware-sampling section.
//!
//! # Activity-driven energy accounting
//!
//! Every simulation counts its energy-relevant events (register-file bank
//! reads/writes, rename/SCT lookups, cache and predictor accesses, ... —
//! the `ActivityCounters` block on
//! [`SimStats`](msp_pipeline::SimStats)), and the energy layer folds those
//! counts through the `msp-power` Table III model:
//! [`Cell::energy`]/[`Cell::epi_pj`] price any cell, sampled runs carry a
//! span-weighted [`SampledEnergy`] estimate, and the `msp-lab energy`
//! subcommand renders the CPR-vs-n-SP energy-per-instruction and EDP
//! comparison from measured activity.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod energy;
mod experiment;
pub mod journal;
mod lab;
mod report;
pub mod reports;
mod sampling;
pub mod store;

pub use energy::{energy_model_for, EnergyStats, SampledEnergy, REFERENCE_NODE};
pub use experiment::{Cell, ConfigHook, Experiment, ResultSet};
pub use journal::{cell_fingerprint, ExperimentJournal, JOURNAL_FORMAT_VERSION};
pub use lab::{
    Lab, LabConfig, LabConfigError, DEFAULT_INSTRUCTIONS, DEFAULT_SAMPLE_INTERVAL,
    DEFAULT_SAMPLE_TARGET_STDERR, DEFAULT_TRACE_CACHE_BYTES,
};
pub use report::{csv_row, json_string, parse_csv_record, Block, OutputFormat, Report};
pub use reports::{GoldenSpec, ReportKind};
pub use sampling::{
    adaptive_window_order, cluster_phases, PhaseAssignment, Placement, SampledStats, SamplingPlan,
    DEFAULT_CLUSTER_SEED, DEFAULT_MAX_PHASES, DEFAULT_MAX_WINDOWS,
};
pub use store::{GcReport, StoreEntry, TraceStore, DEFAULT_TRACE_STORE_BYTES};

use msp_pipeline::MachineKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine configurations swept in Figs. 6–8: Baseline, CPR, n-SP for
/// n in {8, 16, 32, 64, 128}, and the ideal MSP.
pub fn figure_machines() -> Vec<MachineKind> {
    vec![
        MachineKind::Baseline,
        MachineKind::cpr(),
        MachineKind::msp(8),
        MachineKind::msp(16),
        MachineKind::msp(32),
        MachineKind::msp(64),
        MachineKind::msp(128),
        MachineKind::IdealMsp,
    ]
}

/// Applies `f` to every item, running up to `threads` invocations
/// concurrently, and returns the results **in input order**. Work is
/// distributed dynamically (an atomic cursor), so long and short
/// simulations mix freely without load imbalance. With one thread (or one
/// item) this degenerates to a plain sequential map — the results are
/// identical either way, which the determinism tests rely on.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        produced.push((index, f(&items[index])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("sweep worker panicked") {
                results[index] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// A plain-text table printer with right-aligned numeric columns. Also the
/// structured payload of [`Report`] table blocks: the JSON and CSV emitters
/// read the same `columns`/`data_rows` the text renderer prints.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Creates a table from owned column headers.
    pub fn from_columns(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.header
    }

    /// The data rows (header excluded).
    pub fn data_rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row (must have as many cells as the header).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        format!("{:<width$}", c, width = widths[i])
                    } else {
                        format!("{:>width$}", c, width = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats an IPC value the way the paper's tables do.
pub fn fmt_ipc(ipc: f64) -> String {
    format!("{ipc:.2}")
}

/// Geometric-mean helper used for suite averages.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_branch::PredictorKind;
    use msp_workloads::{by_name, Variant};

    #[test]
    fn figure_machine_sweep_matches_paper() {
        let machines = figure_machines();
        assert_eq!(machines.len(), 8);
        assert_eq!(machines[0], MachineKind::Baseline);
        assert_eq!(machines[7], MachineKind::IdealMsp);
    }

    #[test]
    fn lab_runs_a_single_cell_experiment() {
        let lab = Lab::new(LabConfig {
            instructions: 2_000,
            threads: 1,
            ..LabConfig::default()
        });
        let spec = Experiment::new("smoke")
            .workload(by_name("crafty", Variant::Original).unwrap())
            .machine(MachineKind::msp(16))
            .predictor(PredictorKind::Gshare);
        let results = lab.run(&spec);
        assert_eq!(results.cells().len(), 1);
        let cell = results.get(0, 0, 0, 0);
        assert!(cell.result.stats.committed >= 2_000);
        assert!(cell.ipc() > 0.0);
        assert_eq!(lab.cached_trace_count(), 1);
    }

    #[test]
    fn text_table_renders_aligned_columns() {
        let mut t = TextTable::new(&["bench", "CPR", "16-SP"]);
        t.row(vec!["gzip".into(), "1.00".into(), "1.10".into()]);
        t.row(vec!["mcf".into(), "0.20".into(), "0.25".into()]);
        let rendered = t.render();
        assert!(rendered.contains("bench"));
        assert_eq!(rendered.lines().count(), 4);
        assert_eq!(t.columns().len(), 3);
        assert_eq!(t.data_rows().len(), 2);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(4, &items, |x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert!(parallel_map::<u64, u64, _>(4, &[], |x| *x).is_empty());
    }

    #[test]
    fn geometric_mean_behaviour() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    /// `LabConfig::from_vars` with every variable unset except the named
    /// overrides.
    fn vars(overrides: &[(&'static str, &str)]) -> Result<LabConfig, LabConfigError> {
        LabConfig::from_vars(|var| {
            let value = overrides.iter().find(|(v, _)| *v == var);
            value.map(|(_, value)| value.into())
        })
    }

    #[test]
    fn strict_env_parsing_rejects_garbage() {
        assert!(vars(&[]).is_ok());
        assert_eq!(
            vars(&[
                ("MSP_BENCH_INSTRUCTIONS", "20000"),
                ("MSP_BENCH_THREADS", "4"),
                ("MSP_BENCH_TRACE_CACHE_BYTES", "0"),
            ])
            .unwrap()
            .instructions,
            20_000
        );
        // Unparseable values are errors, not silent defaults.
        for bad in ["20_000", "", "abc", "-1", "1.5"] {
            let err = vars(&[("MSP_BENCH_INSTRUCTIONS", bad)]).unwrap_err();
            assert_eq!(err.var, "MSP_BENCH_INSTRUCTIONS");
            assert!(err.to_string().contains("MSP_BENCH_INSTRUCTIONS"));
        }
        assert!(vars(&[("MSP_BENCH_THREADS", "zero")]).is_err());
        assert!(vars(&[("MSP_BENCH_TRACE_CACHE_BYTES", "x")]).is_err());
        // Zero budgets/threads are rejected; a zero cache budget is legal.
        assert!(vars(&[("MSP_BENCH_INSTRUCTIONS", "0")]).is_err());
        assert!(vars(&[("MSP_BENCH_THREADS", "0")]).is_err());
        assert_eq!(
            vars(&[("MSP_BENCH_TRACE_CACHE_BYTES", "0")])
                .unwrap()
                .trace_cache_bytes,
            0
        );
        // The store knobs: an empty dir is garbage, a zero byte budget is
        // legal, and a garbage byte budget is an error.
        let err = vars(&[("MSP_BENCH_TRACE_DIR", "  ")]).unwrap_err();
        assert_eq!(err.var, "MSP_BENCH_TRACE_DIR");
        assert_eq!(
            vars(&[
                ("MSP_BENCH_TRACE_DIR", "/tmp/traces"),
                ("MSP_BENCH_TRACE_STORE_BYTES", "0"),
            ])
            .unwrap()
            .trace_store_bytes,
            0
        );
        assert!(vars(&[("MSP_BENCH_TRACE_STORE_BYTES", "big")]).is_err());
        // The sampling-plan knobs parse strictly too: only the three
        // documented spellings, and only targets strictly inside (0, 1).
        let default_interval = DEFAULT_SAMPLE_INTERVAL;
        assert_eq!(
            vars(&[("MSP_BENCH_SAMPLE_PLAN", "periodic")])
                .unwrap()
                .sampling,
            SamplingPlan::periodic(default_interval)
        );
        assert_eq!(
            vars(&[("MSP_BENCH_SAMPLE_PLAN", " phases ")])
                .unwrap()
                .sampling,
            SamplingPlan::phase_aware(default_interval)
        );
        assert_eq!(
            vars(&[("MSP_BENCH_SAMPLE_PLAN", "adaptive")])
                .unwrap()
                .sampling,
            SamplingPlan::adaptive(DEFAULT_SAMPLE_TARGET_STDERR)
        );
        for bad in ["simpoint", "Periodic", "", "phase"] {
            let err = vars(&[("MSP_BENCH_SAMPLE_PLAN", bad)]).unwrap_err();
            assert_eq!(err.var, "MSP_BENCH_SAMPLE_PLAN");
        }
        // A target is checked, and kept, whichever plan the variables name.
        assert_eq!(
            vars(&[("MSP_BENCH_SAMPLE_TARGET_STDERR", "0.05")])
                .unwrap()
                .sampling,
            SamplingPlan::periodic(default_interval)
        );
        assert_eq!(
            vars(&[
                ("MSP_BENCH_SAMPLE_TARGET_STDERR", "0.05"),
                ("MSP_BENCH_SAMPLE_PLAN", "adaptive"),
            ])
            .unwrap()
            .sampling,
            SamplingPlan::adaptive(0.05)
        );
        for bad in ["0", "1", "1.5", "-0.1", "NaN", "inf", "five%", ""] {
            let err = vars(&[("MSP_BENCH_SAMPLE_TARGET_STDERR", bad)]).unwrap_err();
            assert_eq!(err.var, "MSP_BENCH_SAMPLE_TARGET_STDERR");
        }
        // The plan reflects every sampling knob at once.
        let config = vars(&[
            ("MSP_BENCH_SAMPLE_PLAN", "adaptive"),
            ("MSP_BENCH_SAMPLE_TARGET_STDERR", "0.03"),
            ("MSP_BENCH_SAMPLE_INTERVAL", "1000"),
        ])
        .unwrap();
        assert_eq!(
            config.sampling,
            SamplingPlan::adaptive(0.03).with_interval(1_000)
        );
        // A non-UTF-8 value is an error naming its variable, not "unset".
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let err = LabConfig::from_vars(|var| {
                (var == "MSP_BENCH_TRACE_DIR").then(|| std::ffi::OsString::from_vec(vec![0xff]))
            })
            .unwrap_err();
            assert_eq!(err.var, "MSP_BENCH_TRACE_DIR");
        }
    }

    #[test]
    fn experiment_cross_product_order_is_workload_major() {
        let lab = Lab::new(LabConfig {
            instructions: 1_000,
            threads: 2,
            ..LabConfig::default()
        });
        let spec = Experiment::new("order")
            .workloads([
                by_name("gzip", Variant::Original).unwrap(),
                by_name("vpr", Variant::Original).unwrap(),
            ])
            .machines([MachineKind::cpr(), MachineKind::msp(8)])
            .predictors([PredictorKind::Gshare, PredictorKind::Tage]);
        let results = lab.run(&spec);
        assert_eq!(results.cells().len(), 8);
        let first = &results.cells()[0];
        assert_eq!(first.workload, "gzip");
        assert_eq!(first.machine, MachineKind::cpr());
        assert_eq!(first.predictor, PredictorKind::Gshare);
        let last = results.cells().last().unwrap();
        assert_eq!(last.workload, "vpr");
        assert_eq!(last.machine, MachineKind::msp(8));
        assert_eq!(last.predictor, PredictorKind::Tage);
        // get() agrees with the flat order.
        assert_eq!(results.get(1, 1, 1, 0).workload, "vpr");
        assert_eq!(results.get(1, 1, 1, 0).result.stats, last.result.stats);
    }

    #[test]
    fn group_by_and_pivot_shapes() {
        let lab = Lab::new(LabConfig {
            instructions: 1_000,
            threads: 1,
            ..LabConfig::default()
        });
        let spec = Experiment::new("pivot")
            .workloads([
                by_name("gzip", Variant::Original).unwrap(),
                by_name("vpr", Variant::Original).unwrap(),
            ])
            .machines([MachineKind::cpr(), MachineKind::msp(16)]);
        let results = lab.run(&spec);
        let by_machine = results.group_by(|c| c.machine.label());
        assert_eq!(by_machine.len(), 2);
        assert_eq!(by_machine[0].0, "CPR");
        assert_eq!(by_machine[0].1.len(), 2);
        let table = results.pivot(
            "benchmark",
            |c| c.workload.clone(),
            |c| c.machine.label(),
            |cells| fmt_ipc(cells[0].ipc()),
        );
        assert_eq!(table.columns(), &["benchmark", "CPR", "16-SP"]);
        assert_eq!(table.data_rows().len(), 2);
        assert_eq!(table.data_rows()[0][0], "gzip");
    }
}
