//! The benchmark's three workloads, their untraced repetitions and their
//! correctness checks. Why each workload exists, the layer → end-to-end map
//! and the traps found while sizing them are recorded in `README.md` beside
//! this file.

use msp_bench::{
    Cell, Experiment, Lab, LabConfig, ResultSet, SamplingPlan, DEFAULT_SAMPLE_INTERVAL,
};
use msp_branch::PredictorKind;
use msp_check::{
    check_cpr, check_msp, CheckConfig, CheckReport, CprConfig, CprMachine, ExploreLimits,
    MspMachine,
};
use msp_pipeline::MachineKind;
use msp_workloads::{by_name, Variant, Workload};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Committed instructions per `exact_table1` cell. Below ≈0.86M, so the
/// three materialised traces (104 B per record) fit the Lab's default
/// 256 MiB trace cache together and are still resident when timing starts.
pub const EXACT_BUDGET: u64 = 500_000;

/// Committed instructions per `sampled_stream` cell. Above the Lab's
/// streaming threshold (≈2.6M at the default cache and 104 B per record),
/// so every trace streams from the store through a `TraceCursor`.
pub const STREAM_BUDGET: u64 = 4_000_000;

/// Table I's four machines, with the slugs the per-layer metrics use.
pub fn table1() -> [(&'static str, MachineKind); 4] {
    [
        ("baseline", MachineKind::Baseline),
        ("cpr", MachineKind::cpr()),
        ("sp16", MachineKind::msp(16)),
        ("ideal", MachineKind::IdealMsp),
    ]
}

/// The kernel triples a seed picks from, each two SPECint kernels and one
/// SPECfp kernel. Every triple's wall time lies within ±5% of the reference
/// triple's on both Lab workloads (README.md has the measurements): across
/// all 18 kernels one kernel's cost spans 17×, which would make the seed,
/// not the code, the largest term in every end-to-end figure.
const TRIPLES: [[&str; 3]; 8] = [
    ["gzip", "vpr", "swim"],
    ["vpr", "eon", "equake"],
    ["gap", "crafty", "equake"],
    ["gzip", "vpr", "fma3d"],
    ["gap", "bzip2", "fma3d"],
    ["vpr", "bzip2", "applu"],
    ["gap", "bzip2", "applu"],
    ["gzip", "vpr", "mgrid"],
];

/// The seed used when none is given; it picks the reference kernels gzip,
/// vpr and swim (the `msp-lab table1` and `BENCH_pipeline.json` sweep).
pub const DEFAULT_SEED: u64 = 0;

/// The three kernels of a seed; consecutive seeds visit every triple.
pub fn kernels(seed: u64) -> Vec<Workload> {
    TRIPLES[(seed % TRIPLES.len() as u64) as usize]
        .iter()
        .map(|name| by_name(name, Variant::Original).expect("triple kernels exist"))
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    ExactTable1,
    SampledStream,
    ModelCheck,
}

impl BenchWorkload {
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::ExactTable1,
        BenchWorkload::SampledStream,
        BenchWorkload::ModelCheck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::ExactTable1 => "exact_table1",
            BenchWorkload::SampledStream => "sampled_stream",
            BenchWorkload::ModelCheck => "model_check",
        }
    }
}

/// Correctness checks, each one counted as an attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("msp-perfbench: check failed: {}", what());
        }
    }
}

/// The set-up and timed-phase durations of one repetition, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub setup_s: f64,
    pub wall_s: f64,
}

/// 64-bit FNV-1a, used for the output digest.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The digest of every cell's simulated output: the canonical statistics,
/// the activity counters and the sampled estimate.
pub fn cells_digest(cells: &[Cell]) -> u64 {
    cells.iter().fold(FNV_OFFSET, |hash, cell| {
        let sampled = cell.sampled.as_ref().map_or(String::new(), |s| {
            format!(
                "{} {} {} {:016x} {:?}",
                s.intervals,
                s.measured_instructions,
                s.measured_cycles,
                s.mean_ipc.to_bits(),
                s.ipc_rel_stderr.map(f64::to_bits)
            )
        });
        let text = format!(
            "{} {} {}\n{}\n{:?}\n{sampled}\n",
            cell.workload,
            cell.machine.label(),
            cell.predictor.label(),
            cell.result.stats.canonical_string(),
            cell.result.stats.activity,
        );
        fnv1a(hash, text.as_bytes())
    })
}

/// Whether two cells hold bit-identical simulated output.
pub fn same_cell(a: &Cell, b: &Cell) -> bool {
    a.workload == b.workload
        && a.variant == b.variant
        && a.machine == b.machine
        && a.predictor == b.predictor
        && a.hook == b.hook
        && a.result.truncated_by_watchdog == b.result.truncated_by_watchdog
        && a.result.stats == b.result.stats
        && a.sampled == b.sampled
        && a.sampled_energy == b.sampled_energy
}

// ------------------------------------------------------------ exact_table1

pub fn exact_config() -> LabConfig {
    LabConfig {
        instructions: EXACT_BUDGET,
        threads: 1,
        ..LabConfig::default()
    }
}

pub fn table1_experiment(name: &str, kernels: &[Workload]) -> Experiment {
    Experiment::new(name)
        .workloads(kernels.iter().cloned())
        .machines(table1().map(|(_, m)| m))
        .predictor(PredictorKind::Gshare)
}

/// One `exact_table1` repetition. Set-up: a fresh `Lab` captures the three
/// materialised traces; timed phase: `Lab::run` over the 12 cells.
pub fn exact_rep(kernels: &[Workload], checks: &mut Checks) -> (Timing, ResultSet) {
    let experiment = table1_experiment("exact_table1", kernels).instructions(EXACT_BUDGET);
    let start = Instant::now();
    let lab = Lab::new(exact_config());
    for kernel in kernels {
        black_box(lab.trace(kernel, EXACT_BUDGET));
    }
    let setup_s = start.elapsed().as_secs_f64();
    let captures = lab.capture_count();
    let start = Instant::now();
    let results = lab.run(&experiment);
    let wall_s = start.elapsed().as_secs_f64();
    checks.expect(lab.capture_count() == captures, || {
        format!(
            "exact_table1: {} functional capture(s) in the timed phase",
            lab.capture_count() - captures
        )
    });
    for cell in results.cells() {
        let label = || format!("exact_table1 {} {}", cell.workload, cell.machine.label());
        checks.expect(!cell.result.truncated_by_watchdog, || {
            format!("{}: watchdog truncation", label())
        });
        checks.expect(cell.result.stats.committed >= EXACT_BUDGET, || {
            format!(
                "{}: committed {} < budget {EXACT_BUDGET}",
                label(),
                cell.result.stats.committed
            )
        });
    }
    (Timing { setup_s, wall_s }, results)
}

// ---------------------------------------------------------- sampled_stream

pub fn stream_plan() -> SamplingPlan {
    SamplingPlan::periodic(DEFAULT_SAMPLE_INTERVAL)
}

pub fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

pub fn journal_dir(dir: &Path) -> PathBuf {
    dir.join("journal")
}

pub fn stream_config(dir: &Path) -> LabConfig {
    LabConfig {
        instructions: STREAM_BUDGET,
        threads: 1,
        trace_dir: Some(store_dir(dir)),
        journal_dir: Some(journal_dir(dir)),
        ..LabConfig::default()
    }
}

pub fn stream_experiment(kernels: &[Workload]) -> Experiment {
    table1_experiment("sampled_stream", kernels)
        .instructions(STREAM_BUDGET)
        .sampling(stream_plan())
}

/// Removes and recreates `dir`, so a repetition starts from an empty store
/// and an empty journal.
pub fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the previous repetition's files");
    }
    std::fs::create_dir_all(dir).expect("create the repetition directory");
}

/// One `sampled_stream` repetition in the empty directory `dir`. Set-up: a
/// fresh `Lab` with a store and a journal streams the three checkpointed
/// captures into the store; timed phase: `Lab::run`. Afterwards a second
/// fresh `Lab` over the same journal must replay all 12 cells.
pub fn stream_rep(kernels: &[Workload], dir: &Path, checks: &mut Checks) -> (Timing, ResultSet) {
    let experiment = stream_experiment(kernels);
    let plan = stream_plan();
    let start = Instant::now();
    let lab = Lab::new(stream_config(dir));
    for kernel in kernels {
        lab.prefetch_trace(kernel, STREAM_BUDGET, plan.interval());
    }
    let setup_s = start.elapsed().as_secs_f64();
    let captures = lab.capture_count();
    let start = Instant::now();
    let results = lab.run(&experiment);
    let wall_s = start.elapsed().as_secs_f64();
    checks.expect(lab.capture_count() == captures, || {
        "sampled_stream: functional capture in the timed phase".to_string()
    });
    checks.expect(lab.mem_hit_count() == 0, || {
        format!(
            "sampled_stream: {} memory-tier hit(s); every trace must stream",
            lab.mem_hit_count()
        )
    });
    checks.expect(lab.journal_recorded_count() == 12, || {
        format!(
            "sampled_stream: {} journal commits, expected 12",
            lab.journal_recorded_count()
        )
    });
    for cell in results.cells() {
        let sampled = cell.sampled.as_ref();
        let windows = sampled.map_or(0, |s| s.intervals.saturating_sub(1));
        let finite = sampled.is_some_and(|s| {
            s.mean_ipc.is_finite()
                && s.mean_ipc > 0.0
                && s.ipc_rel_stderr.is_some_and(f64::is_finite)
        });
        checks.expect(windows >= 2 && finite, || {
            format!(
                "sampled_stream {} {}: {windows} sampled windows, finite estimate {finite}",
                cell.workload,
                cell.machine.label()
            )
        });
    }
    drop(lab);
    let replay_lab = Lab::new(stream_config(dir));
    let replayed = replay_lab.run(&experiment);
    let identical = replayed.cells().len() == results.cells().len()
        && replayed
            .cells()
            .iter()
            .zip(results.cells())
            .all(|(a, b)| same_cell(a, b));
    checks.expect(
        replay_lab.journal_replayed_count() == 12 && replay_lab.capture_count() == 0 && identical,
        || {
            format!(
                "sampled_stream: journal replay gave {} cells, {} captures, identical {identical}",
                replay_lab.journal_replayed_count(),
                replay_lab.capture_count()
            )
        },
    );
    (Timing { setup_s, wall_s }, results)
}

// ------------------------------------------------------------- model_check

/// The two machines the model checker explores, built as `check_msp` and
/// `check_cpr` build them.
fn build_machines() -> (MspMachine, CprMachine) {
    (
        MspMachine::new(CheckConfig::default()),
        CprMachine::new(CprConfig::default()),
    )
}

/// Set-up takes microseconds, below what one timer reading resolves, so it
/// is timed over a batch of this length and divided by the batch size.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// One `model_check` repetition. Set-up: the two tiny machines; timed
/// phase: exhaustive exploration of both, as `msp-lab check` runs them.
pub fn check_rep(checks: &mut Checks) -> (Timing, (CheckReport, CheckReport)) {
    let start = Instant::now();
    let mut built = 0u32;
    while start.elapsed() < SETUP_BATCH {
        black_box(build_machines());
        built += 1;
    }
    let setup_s = start.elapsed().as_secs_f64() / f64::from(built);
    let start = Instant::now();
    let msp = check_msp(CheckConfig::default(), ExploreLimits::default());
    let cpr = check_cpr(CprConfig::default(), ExploreLimits::default());
    let wall_s = start.elapsed().as_secs_f64();
    for (machine, report) in [("MSP", &msp), ("CPR", &cpr)] {
        checks.expect(report.is_clean(), || {
            format!("model_check {machine}: {report}")
        });
    }
    (Timing { setup_s, wall_s }, (msp, cpr))
}

/// The digest of both exploration reports.
pub fn reports_digest(msp: &CheckReport, cpr: &CheckReport) -> u64 {
    [msp, cpr].iter().fold(FNV_OFFSET, |hash, r| {
        let text = format!(
            "{} {} {} {} {}\n",
            r.visited,
            r.terminal_states,
            r.max_depth,
            r.complete,
            r.violation.is_some()
        );
        fnv1a(hash, text.as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_isa::{execute_step, ArchState};
    use msp_workloads::BenchCategory;

    #[test]
    fn the_default_seed_picks_the_reference_kernels() {
        let names: Vec<String> = kernels(DEFAULT_SEED)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ["gzip", "vpr", "swim"]);
    }

    #[test]
    fn every_seed_picks_three_distinct_kernels_with_one_specfp() {
        let mut triples = std::collections::BTreeSet::new();
        for seed in 0..2 * TRIPLES.len() as u64 {
            let ks = kernels(seed);
            let fp = ks
                .iter()
                .filter(|w| w.category() == BenchCategory::SpecFp)
                .count();
            assert_eq!(fp, 1, "seed {seed}");
            let mut names: Vec<&str> = ks.iter().map(|w| w.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 3, "seed {seed}");
            triples.insert(names.join(","));
        }
        assert_eq!(triples.len(), TRIPLES.len(), "the triples are distinct");
    }

    /// Every kernel of every triple runs past `sampled_stream`'s budget plus
    /// the Lab's overfetch margin without halting, so every seed keeps every
    /// cell at its exact budget.
    #[test]
    fn triple_kernels_run_past_the_stream_budget() {
        let names: std::collections::BTreeSet<&str> = TRIPLES.iter().flatten().copied().collect();
        for name in names {
            let kernel = by_name(name, Variant::Original).expect("triple kernel");
            let mut state = ArchState::new(kernel.program());
            for i in 0..STREAM_BUDGET + 4096 {
                let rec = execute_step(&mut state, kernel.program())
                    .unwrap_or_else(|e| panic!("{name} failed at instruction {i}: {e}"));
                assert!(!rec.halted, "{name} halted after {i} instructions");
            }
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
