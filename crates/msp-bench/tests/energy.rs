//! Fences for the activity-driven energy subsystem: the Table III trend
//! must emerge from *measured* pipeline activity (not from the analytical
//! model alone), the sampled energy estimate must track the exact fold,
//! and the `energy` report must render the comparison in every format.

use msp_bench::{
    energy_model_for, Experiment, Lab, LabConfig, OutputFormat, ReportKind, SamplingPlan,
    REFERENCE_NODE,
};
use msp_branch::PredictorKind;
use msp_pipeline::MachineKind;
use msp_workloads::{spec_int_like, Variant};

fn lab(instructions: u64) -> Lab {
    Lab::new(LabConfig {
        instructions,
        threads: 2,
        ..LabConfig::default()
    })
}

/// The acceptance shape: on every SPECint kernel, the 16-SP's banked
/// 1R/1W register file yields lower measured register-file energy per
/// instruction than the fully-ported CPR file — Table III's trend
/// reproduced from activity counts rather than asserted analytically —
/// and the suite-level total core energy also favours the 16-SP.
#[test]
fn measured_energy_reproduces_the_table3_trend() {
    let lab = lab(4_000);
    let spec = Experiment::new("energy-trend")
        .workloads(spec_int_like(Variant::Original))
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .predictor(PredictorKind::Gshare);
    let results = lab.run(&spec);
    let mut epi_ratio_ln_sum = 0.0;
    for w in 0..results.workloads().len() {
        let cpr = results.get(w, 0, 0, 0);
        let msp = results.get(w, 1, 0, 0);
        assert!(cpr.epi_pj() > 0.0 && msp.epi_pj() > 0.0);
        assert!(
            msp.rf_epi_pj() < cpr.rf_epi_pj(),
            "{}: 16-SP register-file EPI {:.2} pJ must undercut CPR {:.2} pJ",
            cpr.workload,
            msp.rf_epi_pj(),
            cpr.rf_epi_pj()
        );
        epi_ratio_ln_sum += (msp.epi_pj() / cpr.epi_pj()).ln();
        // The fold decomposes into positive parts, with the register-file
        // share bounded by the whole dynamic budget.
        let energy = msp.energy(REFERENCE_NODE);
        assert!(energy.dynamic_pj > 0.0 && energy.leakage_pj > 0.0);
        assert!(energy.rf_dynamic_pj > 0.0 && energy.rf_dynamic_pj < energy.dynamic_pj);
        assert!((energy.total_pj() - energy.dynamic_pj - energy.leakage_pj).abs() < 1e-9);
        // EDP is energy x delay per instruction.
        let expected_edp = msp.epi_pj() / msp.ipc();
        assert!((msp.edp_pj_cycles() - expected_edp).abs() < 1e-9);
    }
    // Geometric-mean total core energy across the suite: 16-SP below CPR
    // (individual memory-bound kernels may invert via wrong-path fetch).
    let geo_ratio = (epi_ratio_ln_sum / results.workloads().len() as f64).exp();
    assert!(
        geo_ratio < 1.0,
        "suite geo-mean 16-SP/CPR total EPI ratio {geo_ratio:.3} must be below 1"
    );
}

/// Sampled cells carry a span-weighted energy estimate that is consistent
/// with its own measured windows: with full-detail coverage and equal
/// spans, the weighted mean of window EPIs must land within a few percent
/// of the aggregate-fold EPI of the same cell (ratio-of-sums), and the
/// register-file component must stay below the total. Accuracy against an
/// *exact continuous* run is the 2M canary's job (`tests/sampling.rs`) —
/// at tiny budgets window-resumed wrong-path behaviour legitimately
/// differs.
#[test]
fn sampled_energy_estimate_is_consistent_with_its_windows() {
    let sampled = lab(6_000).run(
        &Experiment::new("sampled")
            .workloads(
                ["gzip", "swim"]
                    .iter()
                    .map(|n| msp_workloads::by_name(n, Variant::Original).unwrap()),
            )
            .machines([MachineKind::cpr(), MachineKind::msp(16)])
            .predictor(PredictorKind::Gshare)
            .sampling(SamplingPlan::periodic(1_500).with_window(1_500, 0)),
    );
    for cell in sampled.cells() {
        let estimate = cell
            .sampled_energy
            .as_ref()
            .expect("sampled cells fold energy");
        assert_eq!(estimate.intervals, 4, "{}", cell.workload);
        assert!(estimate.measured_pj > 0.0);
        assert!(estimate.mean_rf_epi_pj > 0.0);
        assert!(estimate.mean_rf_epi_pj < estimate.mean_epi_pj);
        // The aggregate fold over the same measured windows (the cell's
        // result stats are the summed window stats).
        let aggregate_epi = cell.energy(REFERENCE_NODE).epi_pj();
        let rel = (estimate.mean_epi_pj - aggregate_epi).abs() / aggregate_epi;
        assert!(
            rel < 0.05,
            "{}/{}: span-weighted EPI {:.2} vs aggregate {:.2} ({:.1}% apart)",
            cell.workload,
            cell.machine.label(),
            estimate.mean_epi_pj,
            aggregate_epi,
            100.0 * rel
        );
    }
}

/// The `energy` report renders in all three formats, names every swept
/// machine, and its geometric-mean row preserves the trend ordering.
#[test]
fn energy_report_renders_all_formats() {
    let lab = lab(2_000);
    let report = ReportKind::Energy.build(&lab);
    assert_eq!(report.name, "energy");
    let text = report.render(OutputFormat::Text);
    for label in ["CPR", "4-SP", "8-SP", "16-SP", "geo. mean"] {
        assert!(text.contains(label), "text rendering must name {label}");
    }
    assert!(text.contains("Register files:"));
    let json = report.render(OutputFormat::Json);
    assert!(json.contains("\"report\": \"energy\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let csv = report.render(OutputFormat::Csv);
    // Three table sections: register-file EPI, total EPI, EDP.
    assert_eq!(csv.split("\n\n").count(), 3);
    for section in csv.split("\n\n") {
        assert!(section.starts_with("benchmark,CPR,4-SP,8-SP,16-SP"));
    }
}

/// The machine → register-file mapping exposed to report consumers stays
/// consistent with the Table III organisations.
#[test]
fn energy_models_are_exposed_for_pivot_consumers() {
    let cpr = energy_model_for(MachineKind::cpr(), REFERENCE_NODE);
    let msp = energy_model_for(MachineKind::msp(16), REFERENCE_NODE);
    assert!(cpr.regfile.name.contains("CPR"));
    assert!(msp.regfile.name.contains("16-SP"));
    assert!(cpr.leakage_pj_per_cycle() > 0.0);
}
