//! Facade crate for the Multi-State Processor (MSP) reproduction.
//!
//! This crate re-exports the whole public API of the reproduction of
//! González et al., *A Distributed Processor State Management Architecture
//! for Large-Window Processors* (MICRO 2008), so applications can depend on a
//! single crate:
//!
//! * [`isa`] — the RISC ISA, programs and the functional executor,
//! * [`workloads`] — synthetic SPEC CPU2000-like kernels,
//! * [`branch`] — gshare, TAGE, the confidence estimator, BTB and RAS,
//! * [`mem`] — the cache hierarchy and (hierarchical) store queues,
//! * [`state`] — the paper's contribution: StateIds, SCTs, the LCS unit,
//!   the RelIQ matrix, the banked register file and precise recovery,
//! * [`pipeline`] — the cycle-level timing simulator with one
//!   state-management component per scheme (Baseline, CPR and MSP),
//! * [`power`] — the analytical register-file power/area model plus the
//!   per-event [`EnergyModel`](power::EnergyModel) behind activity-driven
//!   energy accounting,
//! * [`mod@bench`] — the experiment layer: [`Lab`](bench::Lab) sessions run
//!   declarative [`Experiment`](bench::Experiment) specs against shared
//!   functional traces and render the paper's tables and figures (also
//!   available as the `msp-lab` CLI).
//!
//! # Quickstart
//!
//! Describe *what* to simulate as an [`Experiment`](bench::Experiment) and
//! let a [`Lab`](bench::Lab) session run the cross product — every workload
//! is functionally executed once, shared by all machines and worker
//! threads:
//!
//! ```
//! use msp::prelude::*;
//!
//! let lab = Lab::new(LabConfig { instructions: 2_000, ..LabConfig::default() });
//! let spec = Experiment::new("quickstart")
//!     .workload(msp::workloads::by_name("crafty", Variant::Original).expect("kernel exists"))
//!     .machines([MachineKind::cpr(), MachineKind::msp(16)])
//!     .predictor(PredictorKind::Gshare);
//! let results = lab.run(&spec);
//! assert_eq!(results.cells().len(), 2);
//! assert!(results.get(0, 1, 0, 0).ipc() > 0.0);
//! ```
//!
//! Every cell also carries activity-driven **energy**: the pipeline counts
//! per-event activity (register-file bank accesses, cache and predictor
//! lookups, ...) and the `msp-power` model prices it —
//! [`Cell::epi_pj`](bench::Cell::epi_pj) /
//! [`Cell::rf_epi_pj`](bench::Cell::rf_epi_pj) on any result, and
//! `msp-lab energy` for the CPR-vs-n-SP energy/EDP comparison of Section 5:
//!
//! ```
//! use msp::prelude::*;
//!
//! let lab = Lab::new(LabConfig { instructions: 2_000, ..LabConfig::default() });
//! let spec = Experiment::new("energy")
//!     .workload(msp::workloads::by_name("vpr", Variant::Original).expect("kernel exists"))
//!     .machines([MachineKind::cpr(), MachineKind::msp(16)]);
//! let results = lab.run(&spec);
//! let (cpr, msp16) = (results.get(0, 0, 0, 0), results.get(0, 1, 0, 0));
//! assert!(msp16.rf_epi_pj() < cpr.rf_epi_pj(), "the Table III trend, measured");
//! ```
//!
//! Large budgets run **sampled**: attach a [`SamplingPlan`](bench::SamplingPlan)
//! and every cell estimates its full-budget statistics from detailed
//! simulation of checkpoint-resumed windows (at a 2M-instruction budget at
//! least 4× faster than exact with per-cell IPC within 2%, fenced by
//! `msp-bench`'s `tests/sampling.rs`; see DESIGN.md). Three plans are
//! available:
//! [`SamplingPlan::periodic`](bench::SamplingPlan::periodic) (one window per
//! fixed interval), [`SamplingPlan::phase_aware`](bench::SamplingPlan::phase_aware)
//! (SimPoint-style — cluster per-interval basic-block vectors and simulate
//! one weighted representative window per program phase) and
//! [`SamplingPlan::adaptive`](bench::SamplingPlan::adaptive) (keep adding
//! windows until the IPC relative standard error reaches a target):
//!
//! ```
//! use msp::prelude::*;
//!
//! let lab = Lab::new(LabConfig { instructions: 40_000, ..LabConfig::default() });
//! let spec = Experiment::new("sampled")
//!     .workload(msp::workloads::by_name("gzip", Variant::Original).expect("kernel exists"))
//!     .machine(MachineKind::msp(16))
//!     .sampling(SamplingPlan::periodic(10_000));
//! let results = lab.run(&spec);
//! let estimate = results.cells()[0].sampled.as_ref().expect("sampled cell");
//! assert!(estimate.intervals >= 2);
//! assert!(estimate.mean_ipc > 0.0);
//! ```
//!
//! A plan states its window shape once (`interval`, `detail_len`,
//! `warmup_len`) next to a [`Placement`](bench::Placement); the
//! constructors pick the placement, and a struct update such as
//! `SamplingPlan { placement: Placement::Phases { max_phases: 4, seed: 1 }, ..plan }`
//! sets its parameters. `msp-lab --sample` runs
//! [`LabConfig::sampling`](bench::LabConfig::sampling), which the
//! `MSP_BENCH_SAMPLE_*` variables and the `--sample-plan` /
//! `--sample-target-stderr` flags build through one strict parser.
//!
//! The adaptive plan self-tunes the window count to an accuracy budget
//! instead of a fixed schedule — ask for a 1% relative standard error with
//! `SamplingPlan::adaptive(0.01).with_interval(10_000)`:
//!
//! ```
//! use msp::prelude::*;
//!
//! let lab = Lab::new(LabConfig { instructions: 40_000, ..LabConfig::default() });
//! let spec = Experiment::new("adaptive")
//!     .workload(msp::workloads::by_name("gzip", Variant::Original).expect("kernel exists"))
//!     .machine(MachineKind::msp(16))
//!     .sampling(SamplingPlan::adaptive(0.01).with_interval(10_000));
//! let results = lab.run(&spec);
//! let estimate = results.cells()[0].sampled.as_ref().expect("sampled cell");
//! assert!(estimate.intervals >= 2);
//! ```
//!
//! Long sweeps are **crash-resumable**: point `MSP_BENCH_JOURNAL_DIR` at a
//! directory and run `msp-lab table1 --sample --resume` — every finished
//! cell commits to an append-only, checksummed journal, so a killed run
//! resumes bit-identically, recomputing only unfinished cells. A whole
//! manifest of runs journals incrementally via `msp-lab batch
//! experiments.txt` (see the experiment-journal section of
//! `crates/msp-bench/DESIGN.md`).
//!
//! Recovery correctness is **model-checked**: `msp-lab check` exhaustively
//! enumerates every legal dispatch/issue/complete/commit/mispredict
//! interleaving of a tiny machine built from the real state-management
//! structures, auditing occupancy, architectural-equivalence and StateId
//! invariants in every reachable state (and `--mutation-matrix` proves the
//! invariants catch seeded recovery defects — see the recovery-correctness
//! section of `crates/msp-bench/DESIGN.md`).
//!
//! The underlying `Simulator` remains available for single bespoke runs:
//!
//! ```
//! use msp::prelude::*;
//!
//! let workload = msp::workloads::by_name("crafty", Variant::Original).expect("kernel exists");
//! let config = SimConfig::machine(MachineKind::msp(16), PredictorKind::Gshare);
//! let mut simulator = Simulator::new(workload.program(), config);
//! let result = simulator.run(2_000);
//! assert!(result.ipc() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use msp_bench as bench;
pub use msp_branch as branch;
pub use msp_isa as isa;
pub use msp_mem as mem;
pub use msp_pipeline as pipeline;
pub use msp_power as power;
pub use msp_state as state;
pub use msp_workloads as workloads;

/// The most commonly used types, importable with `use msp::prelude::*`.
pub mod prelude {
    pub use msp_bench::{
        Experiment, Lab, LabConfig, OutputFormat, Placement, Report, ReportKind, ResultSet,
        SampledStats, SamplingPlan,
    };
    pub use msp_branch::{DirectionPredictor, PredictorKind};
    pub use msp_isa::{ArchReg, ArchState, Instruction, Program, Trace};
    pub use msp_pipeline::{MachineKind, SimConfig, SimResult, Simulator, WarmState};
    pub use msp_state::{MspConfig, MspStateManager, RenameRequest, StateId};
    pub use msp_workloads::{BenchCategory, Variant, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let program = crate::workloads::microbenchmark();
        assert!(!program.is_empty());
        let config = crate::pipeline::SimConfig::machine(
            crate::pipeline::MachineKind::msp(16),
            crate::branch::PredictorKind::Gshare,
        );
        assert!(config.arbitration);
        let _ = crate::power::RegFileConfig::msp_16sp();
        let _ = crate::state::MspConfig::default();
        let lab = crate::bench::Lab::default();
        assert_eq!(lab.cached_trace_count(), 0);
        assert!(crate::bench::ReportKind::from_name("stats-dump").is_some());
    }
}
