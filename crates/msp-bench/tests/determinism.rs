//! Determinism regression tests guarding the indexed-window refactor, the
//! shared-trace layer and the `Lab` session API: the simulator must produce
//! bit-identical `SimStats` run-to-run, every `Lab`-executed cell must
//! produce exactly a seed-style private-oracle simulation's statistics (the
//! `Lab` has no uncached execution path — this is the fence that keeps its
//! cache honest), and the parallel sweep must produce exactly the
//! sequential results.

use msp_bench::{Experiment, Lab, LabConfig};
use msp_branch::PredictorKind;
use msp_isa::Trace;
use msp_pipeline::{MachineKind, SimConfig, SimResult, SimStats, Simulator};
use msp_workloads::{by_name, Variant, Workload};
use std::sync::Arc;

const BUDGET: u64 = 4_000;

fn reference_machines() -> [MachineKind; 4] {
    [
        MachineKind::Baseline,
        MachineKind::cpr(),
        MachineKind::msp(16),
        MachineKind::IdealMsp,
    ]
}

fn lab(threads: usize) -> Lab {
    Lab::new(LabConfig {
        instructions: BUDGET,
        threads,
        ..LabConfig::default()
    })
}

/// The seed implementation's execution path: a fresh `Simulator` with a
/// **private** functional oracle, no trace sharing anywhere.
fn private_oracle_run(
    workload: &Workload,
    machine: MachineKind,
    predictor: PredictorKind,
    instructions: u64,
) -> SimResult {
    let config = SimConfig::machine(machine, predictor);
    Simulator::new(workload.program(), config).run(instructions)
}

fn assert_identical(a: &SimStats, b: &SimStats, context: &str) {
    assert_eq!(a, b, "{context}: stats diverged");
    // The canonical rendering is what cross-process golden comparisons use;
    // it must agree with structural equality.
    assert_eq!(a.canonical_string(), b.canonical_string(), "{context}");
}

/// Two sequential private-oracle runs of every machine kind produce
/// bit-identical statistics on several workloads.
#[test]
fn repeated_runs_are_bit_identical() {
    for name in ["gzip", "vpr", "swim"] {
        let workload = by_name(name, Variant::Original).unwrap();
        for machine in reference_machines() {
            for predictor in [PredictorKind::Gshare, PredictorKind::Tage] {
                let a = private_oracle_run(&workload, machine, predictor, BUDGET);
                let b = private_oracle_run(&workload, machine, predictor, BUDGET);
                assert_identical(&a.stats, &b.stats, &format!("{name}/{machine:?}"));
            }
        }
    }
}

/// Every cell a `Lab` produces — shared cached trace, parallel workers and
/// all — is bit-identical to the seed-style private-oracle simulation of
/// the same `(workload, machine, predictor)` triple, on every machine kind
/// and both predictors.
#[test]
fn lab_results_match_private_oracle_on_every_machine_kind() {
    let lab = lab(4);
    let workloads: Vec<Workload> = ["gzip", "vpr", "swim"]
        .iter()
        .map(|n| by_name(n, Variant::Original).unwrap())
        .collect();
    let spec = Experiment::new("lab-vs-private")
        .workloads(workloads.clone())
        .machines(reference_machines())
        .predictors([PredictorKind::Gshare, PredictorKind::Tage]);
    let results = lab.run(&spec);
    assert_eq!(results.cells().len(), 3 * 4 * 2);
    for (w, workload) in workloads.iter().enumerate() {
        for (m, machine) in reference_machines().iter().enumerate() {
            for (p, predictor) in [PredictorKind::Gshare, PredictorKind::Tage]
                .iter()
                .enumerate()
            {
                let cell = results.get(w, m, p, 0);
                let private = private_oracle_run(workload, *machine, *predictor, BUDGET);
                assert_eq!(cell.result.machine, machine.label());
                assert_identical(
                    &cell.result.stats,
                    &private.stats,
                    &format!("{}/{machine:?}/{predictor:?} via Lab", workload.name()),
                );
            }
        }
    }
    // The whole matrix cost exactly one functional execution per workload.
    assert_eq!(lab.capture_count(), 3);
}

/// The parallel sweep produces exactly the sequential results, in order,
/// even with many more workers than items.
#[test]
fn parallel_lab_matches_sequential_lab() {
    let sequential = lab(1);
    let parallel = lab(16);
    let spec = Experiment::new("threads")
        .workloads(
            ["gzip", "vpr", "swim"]
                .iter()
                .map(|n| by_name(n, Variant::Original).unwrap()),
        )
        .machines(reference_machines());
    let a = sequential.run(&spec);
    let b = parallel.run(&spec);
    assert_eq!(a.cells().len(), b.cells().len());
    for (left, right) in a.cells().iter().zip(b.cells()) {
        assert_eq!(left.workload, right.workload);
        assert_eq!(left.machine, right.machine);
        assert_identical(
            &left.result.stats,
            &right.result.stats,
            &format!(
                "{}/{:?} parallel vs sequential",
                left.workload, left.machine
            ),
        );
    }
}

/// An experiment's named override hooks apply per column: the identity-like
/// hook reproduces the unhooked result, a real adjustment changes the
/// configuration deterministically.
#[test]
fn override_hooks_are_deterministic_and_scoped() {
    let lab = lab(2);
    let workload = by_name("gzip", Variant::Original).unwrap();
    let plain = lab.run(
        &Experiment::new("plain")
            .workload(workload.clone())
            .machine(MachineKind::msp(16))
            .predictor(PredictorKind::Tage),
    );
    let hooked = lab.run(
        &Experiment::new("hooked")
            .workload(workload)
            .machine(MachineKind::msp(16))
            .predictor(PredictorKind::Tage)
            .override_config("default delay", |config| config.lcs_delay = Some(1))
            .override_config("slow lcs", |config| config.lcs_delay = Some(4)),
    );
    assert_eq!(hooked.hooks().len(), 2);
    // The 16-SP default LCS delay is 1 cycle, so pinning it explicitly
    // reproduces the unhooked statistics bit-for-bit.
    assert_identical(
        &plain.get(0, 0, 0, 0).result.stats,
        &hooked.get(0, 0, 0, 0).result.stats,
        "explicit default-delay hook",
    );
    assert_eq!(
        hooked.get(0, 0, 0, 1).hook.as_deref(),
        Some("slow lcs"),
        "hook name is carried into the cell"
    );
}

/// A trace shorter than the simulation budget forces the oracle's lazy
/// extension past the materialised end; the statistics must still be
/// bit-identical to private functional execution.
#[test]
fn truncated_trace_lazy_extension_is_bit_identical() {
    let workload = by_name("vpr", Variant::Original).unwrap();
    // Far too short on purpose: most of the run extends past the trace.
    let short = Arc::new(Trace::capture(workload.program(), BUDGET / 8));
    assert!(!short.is_complete());
    for machine in reference_machines() {
        let config = SimConfig::machine(machine, PredictorKind::Gshare);
        let private = Simulator::new(workload.program(), config.clone()).run(BUDGET);
        let shared =
            Simulator::with_trace(workload.program(), config, Arc::clone(&short)).run(BUDGET);
        assert_identical(
            &private.stats,
            &shared.stats,
            &format!("{machine:?} lazy extension"),
        );
    }
}

/// The lab's trace cache hands back the same shared trace (no
/// re-execution) while retained, and distinct budgets are distinct
/// materialisations.
#[test]
fn trace_cache_shares_one_capture() {
    let lab = lab(1);
    let workload = by_name("swim", Variant::Original).unwrap();
    let a = lab.trace(&workload, 2_000);
    let b = lab.trace(&workload, 2_000);
    assert!(
        Arc::ptr_eq(&a, &b),
        "same key must share one materialisation"
    );
    // Different budgets are distinct materialisations.
    let c = lab.trace(&workload, 1_000);
    assert!(!Arc::ptr_eq(&a, &c));
    assert!(c.len() >= 1_000);
    assert_eq!(lab.cached_trace_count(), 2);
    lab.purge_traces();
    assert_eq!(lab.cached_trace_count(), 0);
    assert_eq!(lab.cached_trace_bytes(), 0);
    // Purged traces re-capture deterministically.
    let d = lab.trace(&workload, 2_000);
    assert!(!Arc::ptr_eq(&a, &d));
    assert_eq!(a.records(), d.records());
}

/// LRU eviction under a tight byte budget: older traces are shed, the
/// most recent is retained, and an evicted trace's re-capture — and the
/// simulations run against it — are bit-identical.
#[test]
fn lru_eviction_and_recapture_are_bit_identical() {
    let gzip = by_name("gzip", Variant::Original).unwrap();
    let vpr = by_name("vpr", Variant::Original).unwrap();
    let unbounded = lab(1);
    let first = unbounded.trace(&gzip, 2_000);
    // A budget big enough for one trace but not two.
    let tight = Lab::new(LabConfig {
        instructions: 2_000,
        threads: 1,
        trace_cache_bytes: first.footprint_bytes() + first.footprint_bytes() / 2,
        ..LabConfig::default()
    });
    let a = tight.trace(&gzip, 2_000);
    assert_eq!(tight.cached_trace_count(), 1);
    let _b = tight.trace(&vpr, 2_000);
    assert_eq!(
        tight.cached_trace_count(),
        1,
        "inserting vpr must evict the least-recently-used gzip trace"
    );
    assert_eq!(tight.eviction_count(), 1);
    assert!(tight.cached_trace_bytes() <= tight.config().trace_cache_bytes);
    // Re-requesting the evicted workload re-captures bit-identically...
    let a2 = tight.trace(&gzip, 2_000);
    assert!(!Arc::ptr_eq(&a, &a2));
    assert_eq!(a.records(), a2.records());
    // ...and a full experiment run through the thrashing cache still
    // matches the unbounded lab's statistics bit-for-bit.
    let spec = Experiment::new("thrash")
        .workloads([gzip, vpr])
        .machines([MachineKind::cpr(), MachineKind::msp(16)])
        .predictor(PredictorKind::Tage)
        // Pin the budget per spec: the unbounded lab defaults to a
        // different one, and the comparison must simulate identical runs.
        .instructions(2_000);
    let bounded_results = tight.run(&spec);
    let unbounded_results = unbounded.run(&spec);
    for (bounded, reference) in bounded_results
        .cells()
        .iter()
        .zip(unbounded_results.cells())
    {
        assert_identical(
            &bounded.result.stats,
            &reference.result.stats,
            &format!(
                "{}/{:?} through evicting cache",
                bounded.workload, bounded.machine
            ),
        );
    }
    // A zero budget degenerates to "retain only the trace in use".
    let zero = Lab::new(LabConfig {
        instructions: 2_000,
        threads: 1,
        trace_cache_bytes: 0,
        ..LabConfig::default()
    });
    let spec_small = Experiment::new("zero")
        .workload(by_name("swim", Variant::Original).unwrap())
        .machine(MachineKind::Baseline);
    let run0 = zero.run(&spec_small);
    assert!(zero.cached_trace_count() <= 1);
    let reference = private_oracle_run(
        &by_name("swim", Variant::Original).unwrap(),
        MachineKind::Baseline,
        PredictorKind::Gshare,
        2_000,
    );
    assert_identical(
        &run0.get(0, 0, 0, 0).result.stats,
        &reference.stats,
        "zero-budget cache",
    );
}

/// Dynamic work distribution never reorders or drops results.
#[test]
fn parallel_map_is_order_stable_under_contention() {
    let items: Vec<usize> = (0..500).collect();
    let squares = msp_bench::parallel_map(4, &items, |&x| x * x);
    assert_eq!(squares.len(), 500);
    for (i, sq) in squares.iter().enumerate() {
        assert_eq!(*sq, i * i);
    }
}

/// Every kernel on every state-management scheme, pinned: one FNV-1a digest
/// of the 18 kernels' canonical statistics per (machine, predictor) at 2,000
/// instructions, all simulated through one `Lab`. The goldens pin only gzip,
/// vpr and swim; this fence covers the other fifteen kernels and CPR with a
/// 512-register file too. A mismatch prints that pair's 18 canonical
/// strings.
#[test]
fn every_kernel_and_scheme_matches_its_pinned_digest() {
    const PINNED: [(&str, &str, u64); 10] = [
        ("Baseline", "gshare", 0x8a56_9280_a621_fefb),
        ("Baseline", "TAGE", 0x403f_5a8f_41d1_1fcb),
        ("CPR", "gshare", 0x21bd_4fae_9323_c036),
        ("CPR", "TAGE", 0x09c2_aa76_a6b1_c6f8),
        ("CPR-512", "gshare", 0xddd0_4210_426b_8f83),
        ("CPR-512", "TAGE", 0x8184_9f50_4baa_dfb3),
        ("16-SP", "gshare", 0xc614_bbc1_5032_f52b),
        ("16-SP", "TAGE", 0x3494_9808_376f_6735),
        ("ideal MSP", "gshare", 0xc414_fd4e_a4db_445c),
        ("ideal MSP", "TAGE", 0xd663_8e34_f33b_1c0b),
    ];
    let workloads: Vec<Workload> = msp_workloads::spec_int_like(Variant::Original)
        .into_iter()
        .chain(msp_workloads::spec_fp_like(Variant::Original))
        .collect();
    assert_eq!(workloads.len(), 18);
    let machines = [
        MachineKind::Baseline,
        MachineKind::cpr(),
        MachineKind::Cpr {
            regs_per_class: 512,
        },
        MachineKind::msp(16),
        MachineKind::IdealMsp,
    ];
    let predictors = [PredictorKind::Gshare, PredictorKind::Tage];
    let lab = Lab::new(LabConfig {
        instructions: 2_000,
        threads: 2,
        ..LabConfig::default()
    });
    let results = lab.run(
        &Experiment::new("scheme-pins")
            .workloads(workloads.clone())
            .machines(machines)
            .predictors(predictors),
    );
    let mut failures = Vec::new();
    for (m, machine) in machines.iter().enumerate() {
        for (p, predictor) in predictors.iter().enumerate() {
            let strings: Vec<String> = (0..workloads.len())
                .map(|w| results.get(w, m, p, 0).result.stats.canonical_string())
                .collect();
            let digest = strings.iter().fold(msp_isa::wire::FNV_OFFSET, |hash, s| {
                msp_isa::wire::fnv1a(hash, s.as_bytes())
            });
            let pair = (machine.label(), predictor.label());
            let pinned = PINNED
                .iter()
                .find(|(m, p, _)| (*m, *p) == (pair.0.as_str(), pair.1))
                .map(|&(_, _, digest)| digest);
            if pinned != Some(digest) {
                let mut report = format!("{} / {}: digest {digest:#018x}\n", pair.0, pair.1);
                for (workload, s) in workloads.iter().zip(&strings) {
                    report += &format!("--- {}\n{s}\n", workload.name());
                }
                failures.push(report);
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
