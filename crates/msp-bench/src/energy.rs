//! Activity-driven energy accounting over simulated [`SimStats`].
//!
//! The `msp-power` crate prices individual microarchitectural events
//! ([`ActivityEvent`]) and register-file leakage; the pipeline counts how
//! often each event fired ([`ActivityCounters`](msp_pipeline::ActivityCounters)
//! on `SimStats`). This module joins the two: [`energy_model_for`] maps a
//! simulated [`MachineKind`] onto the Table III register-file organisation
//! it implies, [`EnergyStats::from_stats`] folds one run's counters into
//! dynamic + leakage picojoules, and [`SampledEnergy::from_intervals`]
//! produces the span-weighted sampled estimate the `--sample` path renders.
//! Every existing sweep, ablation and sampled run thereby becomes an
//! energy/EDP scenario at zero extra simulation cost.

use msp_pipeline::{MachineKind, SimStats};
use msp_power::{ActivityEvent, EnergyModel, RegFileConfig, TechNode};

/// The technology node energy reports and sampled estimates default to
/// (Table III's headline 65 nm column).
pub const REFERENCE_NODE: TechNode = TechNode::Nm65;

/// The register-file energy model a simulated machine implies:
///
/// * `Baseline` — a fully-ported 8R/4W file sized to its 96+96 registers,
/// * `CPR { regs_per_class }` — the Table III fully-ported organisation
///   (the 192-register configuration is exactly Table III column 1),
/// * `Msp { regs_per_bank }` — the banked 1R/1W `n`-SP organisation
///   ([`RegFileConfig::msp_sp`]; `msp(16)` is Table III column 3),
/// * `IdealMsp` — the banked organisation at a nominal 64-entry bank bound
///   (its banks are architecturally unbounded; 64 entries covers the
///   occupancy exact reference runs actually reach).
pub fn energy_model_for(machine: MachineKind, node: TechNode) -> EnergyModel {
    let regfile = match machine {
        MachineKind::Baseline => RegFileConfig {
            name: "Baseline 192x64b, 4 banks, 8Rd/4Wr",
            total_entries: 192,
            bits_per_entry: 64,
            banks: 4,
            read_ports: 8,
            write_ports: 4,
        },
        MachineKind::Cpr {
            regs_per_class: 192,
        } => RegFileConfig::cpr_4_banks(),
        MachineKind::Cpr { regs_per_class } => RegFileConfig {
            name: "CPR 64b, 4 banks, 8Rd/4Wr",
            total_entries: 2 * regs_per_class,
            bits_per_entry: 64,
            banks: 4,
            read_ports: 8,
            write_ports: 4,
        },
        MachineKind::Msp { regs_per_bank } => RegFileConfig::msp_sp(regs_per_bank),
        MachineKind::IdealMsp => RegFileConfig::msp_sp(64),
    };
    EnergyModel::new(regfile, node)
}

/// The energy fold of one simulation run (or one measured sampled window):
/// per-event dynamic energy from the activity counters plus per-cycle
/// register-file leakage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyStats {
    /// Dynamic (activity-proportional) energy, picojoules, all structures.
    pub dynamic_pj: f64,
    /// The register-file share of `dynamic_pj` (bank reads + writes),
    /// picojoules — the component Table III compares across organisations.
    pub rf_dynamic_pj: f64,
    /// Register-file leakage energy, picojoules (`cycles ×` per-cycle
    /// leakage).
    pub leakage_pj: f64,
    /// Committed instructions the energy covers.
    pub committed: u64,
    /// Simulated cycles the energy covers.
    pub cycles: u64,
}

impl EnergyStats {
    /// Folds one run's statistics through `model`. The counters are
    /// destructured by name without a rest pattern, so adding a counter to
    /// `ActivityCounters` is a compile error here until it is priced (a
    /// counter silently excluded from the fold would underreport energy
    /// with nothing to catch it).
    pub fn from_stats(stats: &SimStats, model: &EnergyModel) -> EnergyStats {
        let msp_pipeline::ActivityCounters {
            rf_reads: _,
            rf_writes: _,
            rename_lookups,
            sct_lookups,
            lcs_propagations,
            checkpoint_allocs,
            checkpoint_releases,
            reliq_wakeups,
            lq_searches,
            sq_searches,
            icache_accesses,
            dcache_accesses,
            l2_accesses,
            predictor_lookups,
            btb_lookups,
            ras_ops,
        } = &*stats.activity;
        let a = &stats.activity;
        let events: [(ActivityEvent, u64); 16] = [
            (ActivityEvent::RegFileRead, a.rf_reads_total()),
            (ActivityEvent::RegFileWrite, a.rf_writes_total()),
            (ActivityEvent::RenameLookup, *rename_lookups),
            (ActivityEvent::SctLookup, *sct_lookups),
            (ActivityEvent::LcsPropagation, *lcs_propagations),
            (ActivityEvent::CheckpointAlloc, *checkpoint_allocs),
            (ActivityEvent::CheckpointRelease, *checkpoint_releases),
            (ActivityEvent::ReliqWakeup, *reliq_wakeups),
            (ActivityEvent::LqSearch, *lq_searches),
            (ActivityEvent::SqSearch, *sq_searches),
            (ActivityEvent::IcacheAccess, *icache_accesses),
            (ActivityEvent::DcacheAccess, *dcache_accesses),
            (ActivityEvent::L2Access, *l2_accesses),
            (ActivityEvent::PredictorLookup, *predictor_lookups),
            (ActivityEvent::BtbLookup, *btb_lookups),
            (ActivityEvent::RasOp, *ras_ops),
        ];
        let dynamic_pj = events
            .iter()
            .map(|(event, count)| *count as f64 * model.cost_of(*event))
            .sum();
        EnergyStats {
            dynamic_pj,
            rf_dynamic_pj: a.rf_reads_total() as f64 * model.cost_of(ActivityEvent::RegFileRead)
                + a.rf_writes_total() as f64 * model.cost_of(ActivityEvent::RegFileWrite),
            leakage_pj: stats.cycles as f64 * model.leakage_pj_per_cycle(),
            committed: stats.committed,
            cycles: stats.cycles,
        }
    }

    /// Total energy (dynamic + leakage), picojoules.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj + self.leakage_pj
    }

    /// Energy per committed instruction, picojoules.
    pub fn epi_pj(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.total_pj() / self.committed as f64
        }
    }

    /// **Register-file** energy per committed instruction, picojoules:
    /// bank read/write dynamic energy plus the file's leakage. This is the
    /// quantity Table III's trend is stated over — the banked 1R/1W MSP
    /// file must undercut the fully-ported CPR file here on every
    /// workload, regardless of how much wrong-path fetch energy the rest
    /// of the core burns.
    pub fn rf_epi_pj(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            (self.rf_dynamic_pj + self.leakage_pj) / self.committed as f64
        }
    }

    /// Normalised energy-delay product per instruction: energy per
    /// instruction × cycles per instruction (pJ·cycle). Lower is better on
    /// both axes, so this is the figure that rewards the MSP's combination
    /// of cheap accesses *and* CPR-class IPC.
    pub fn edp_pj_cycles(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.epi_pj() * (self.cycles as f64 / self.committed as f64)
        }
    }
}

/// The sampled-execution energy estimate of one cell: the span-weighted
/// mean of per-window energy-per-instruction, the same ratio-of-sums
/// estimator shape [`SampledStats`](crate::SampledStats) uses for CPI (a
/// plain mean of window EPIs would overweight short windows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledEnergy {
    /// Measured windows that committed at least one instruction.
    pub intervals: usize,
    /// Total energy of the measured windows, picojoules.
    pub measured_pj: f64,
    /// The full-budget energy-per-instruction estimate, picojoules, at
    /// [`REFERENCE_NODE`].
    pub mean_epi_pj: f64,
    /// The full-budget **register-file** energy-per-instruction estimate
    /// ([`EnergyStats::rf_epi_pj`]), picojoules, at [`REFERENCE_NODE`].
    pub mean_rf_epi_pj: f64,
}

impl SampledEnergy {
    /// Folds per-window `(statistics, represented span)` pairs through
    /// `model` into the sampled estimate. Windows with no committed
    /// instructions are excluded, mirroring `SampledStats`.
    pub fn from_intervals(per_interval: &[(SimStats, u64)], model: &EnergyModel) -> SampledEnergy {
        let mut intervals = 0;
        let mut measured_pj = 0.0;
        let mut weighted_epi = 0.0;
        let mut weighted_rf_epi = 0.0;
        let mut total_span = 0u64;
        for (stats, span) in per_interval {
            if stats.committed == 0 {
                continue;
            }
            let energy = EnergyStats::from_stats(stats, model);
            intervals += 1;
            measured_pj += energy.total_pj();
            weighted_epi += *span as f64 * energy.epi_pj();
            weighted_rf_epi += *span as f64 * energy.rf_epi_pj();
            total_span += span;
        }
        let span_mean = |weighted: f64| {
            if total_span == 0 {
                0.0
            } else {
                weighted / total_span as f64
            }
        };
        SampledEnergy {
            intervals,
            measured_pj,
            mean_epi_pj: span_mean(weighted_epi),
            mean_rf_epi_pj: span_mean(weighted_rf_epi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_activity(committed: u64, cycles: u64, reads: u64, dcache: u64) -> SimStats {
        let mut stats = SimStats {
            committed,
            cycles,
            ..SimStats::default()
        };
        stats.activity.rf_reads[5] = reads;
        stats.activity.dcache_accesses = dcache;
        stats
    }

    #[test]
    fn energy_fold_prices_counters_and_leakage() {
        let model = energy_model_for(MachineKind::msp(16), REFERENCE_NODE);
        let stats = stats_with_activity(100, 200, 50, 10);
        let energy = EnergyStats::from_stats(&stats, &model);
        let expected_dynamic = 50.0 * model.cost_of(ActivityEvent::RegFileRead)
            + 10.0 * model.cost_of(ActivityEvent::DcacheAccess);
        assert!((energy.dynamic_pj - expected_dynamic).abs() < 1e-9);
        assert!((energy.leakage_pj - 200.0 * model.leakage_pj_per_cycle()).abs() < 1e-9);
        assert!((energy.epi_pj() - energy.total_pj() / 100.0).abs() < 1e-12);
        assert!((energy.edp_pj_cycles() - energy.epi_pj() * 2.0).abs() < 1e-12);
        // Degenerate: no committed instructions.
        let empty = EnergyStats::from_stats(&SimStats::default(), &model);
        assert_eq!(empty.epi_pj(), 0.0);
        assert_eq!(empty.edp_pj_cycles(), 0.0);
    }

    #[test]
    fn machine_mapping_matches_table3_organisations() {
        let cpr = energy_model_for(MachineKind::cpr(), REFERENCE_NODE);
        assert_eq!(cpr.regfile, msp_power::RegFileConfig::cpr_4_banks());
        let msp = energy_model_for(MachineKind::msp(16), REFERENCE_NODE);
        assert_eq!(msp.regfile, msp_power::RegFileConfig::msp_16sp());
        let big_cpr = energy_model_for(
            MachineKind::Cpr {
                regs_per_class: 512,
            },
            REFERENCE_NODE,
        );
        assert_eq!(big_cpr.regfile.total_entries, 1024);
        let ideal = energy_model_for(MachineKind::IdealMsp, REFERENCE_NODE);
        assert_eq!(ideal.regfile.entries_per_bank(), 64);
        let baseline = energy_model_for(MachineKind::Baseline, REFERENCE_NODE);
        assert_eq!(baseline.regfile.total_entries, 192);
        assert_eq!(baseline.regfile.read_ports, 8);
    }

    #[test]
    fn sampled_energy_weights_windows_by_span() {
        let model = energy_model_for(MachineKind::cpr(), REFERENCE_NODE);
        let a = stats_with_activity(10, 20, 100, 0);
        let b = stats_with_activity(20, 10, 10, 0);
        let epi_a = EnergyStats::from_stats(&a, &model).epi_pj();
        let epi_b = EnergyStats::from_stats(&b, &model).epi_pj();
        let folded = SampledEnergy::from_intervals(
            &[
                (a, 30),
                (b, 90),
                (SimStats::default(), 50), // empty window: excluded
            ],
            &model,
        );
        assert_eq!(folded.intervals, 2);
        let expected = (30.0 * epi_a + 90.0 * epi_b) / 120.0;
        assert!((folded.mean_epi_pj - expected).abs() < 1e-9);
        // Degenerate: nothing measured.
        let empty = SampledEnergy::from_intervals(&[], &model);
        assert_eq!(empty.intervals, 0);
        assert_eq!(empty.mean_epi_pj, 0.0);
    }
}
