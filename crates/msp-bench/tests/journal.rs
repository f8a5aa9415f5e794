//! Fences for the crash-resumable experiment journal.
//!
//! The invariants under test:
//!
//! * a journaled re-run **replays** every recorded cell bit-identically,
//!   performing zero timing simulations *and* zero functional executions;
//! * a process SIGKILLed at **any** injected fault point of the journal
//!   commit path (`MSP_BENCH_KILL_POINT`) resumes to a bit-identical
//!   result, recomputing only the cells whose WAL records never landed —
//!   the kill matrix walks every site at several occurrence depths, and a
//!   sampled sweep killed between windows keeps every finished cell;
//! * a torn WAL tail of *any* length replays exactly the complete record
//!   prefix and is truncated, never trusted (property-based);
//! * journal or trace-store directories that cannot be opened degrade to
//!   warnings and in-memory operation — I/O trouble never fails a sweep.

use msp_bench::journal::{
    wal_record, KILL_POINTS, KILL_POINT_ENV, KILL_WAL_APPENDED, KILL_WINDOW_DONE, WAL_FILE_NAME,
};
use msp_bench::{Experiment, ExperimentJournal, Lab, LabConfig, ResultSet, SamplingPlan};
use msp_branch::PredictorKind;
use msp_pipeline::MachineKind;
use msp_workloads::{by_name, Variant};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique, self-cleaning journal directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "msp-bench-journal-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn journal_lab(dir: &TempDir, instructions: u64) -> Lab {
    Lab::new(LabConfig {
        instructions,
        threads: 2,
        journal_dir: Some(dir.path()),
        ..LabConfig::default()
    })
}

fn small_experiment() -> Experiment {
    Experiment::new("journal-fence")
        .workload(by_name("gzip", Variant::Original).unwrap())
        .workload(by_name("vpr", Variant::Original).unwrap())
        .machines([MachineKind::Baseline, MachineKind::msp(16)])
        .predictor(PredictorKind::Gshare)
}

/// Bit-identity over every field a cell carries — `f64`s compared as raw
/// bit patterns, which is the resumability contract (not mere numeric
/// equality).
fn assert_bit_identical(a: &ResultSet, b: &ResultSet, context: &str) {
    assert_eq!(a.cells().len(), b.cells().len(), "{context}: cell count");
    for (left, right) in a.cells().iter().zip(b.cells()) {
        assert_eq!(left.workload, right.workload, "{context}");
        assert_eq!(left.variant, right.variant, "{context}");
        assert_eq!(left.machine, right.machine, "{context}");
        assert_eq!(left.predictor, right.predictor, "{context}");
        assert_eq!(left.hook, right.hook, "{context}");
        assert_eq!(left.result.machine, right.result.machine, "{context}");
        assert_eq!(left.result.predictor, right.result.predictor, "{context}");
        assert_eq!(
            left.result.truncated_by_watchdog, right.result.truncated_by_watchdog,
            "{context}"
        );
        assert_eq!(
            left.result.stats, right.result.stats,
            "{context}: stats diverged for {}/{:?}",
            left.workload, left.machine
        );
        match (&left.sampled, &right.sampled) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.intervals, y.intervals, "{context}");
                assert_eq!(
                    x.measured_instructions, y.measured_instructions,
                    "{context}"
                );
                assert_eq!(x.measured_cycles, y.measured_cycles, "{context}");
                assert_eq!(x.mean_ipc.to_bits(), y.mean_ipc.to_bits(), "{context}");
                assert_eq!(
                    x.ipc_rel_stderr.map(f64::to_bits),
                    y.ipc_rel_stderr.map(f64::to_bits),
                    "{context}"
                );
            }
            _ => panic!("{context}: sampled presence diverged"),
        }
        match (&left.sampled_energy, &right.sampled_energy) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.intervals, y.intervals, "{context}");
                assert_eq!(
                    x.measured_pj.to_bits(),
                    y.measured_pj.to_bits(),
                    "{context}"
                );
                assert_eq!(
                    x.mean_epi_pj.to_bits(),
                    y.mean_epi_pj.to_bits(),
                    "{context}"
                );
                assert_eq!(
                    x.mean_rf_epi_pj.to_bits(),
                    y.mean_rf_epi_pj.to_bits(),
                    "{context}"
                );
            }
            _ => panic!("{context}: sampled energy presence diverged"),
        }
    }
}

/// The headline guarantee, exact path: a fresh `Lab` over a fully-journaled
/// directory replays everything — zero simulations, zero functional
/// executions — bit-identically.
#[test]
fn journaled_rerun_replays_bit_identically_with_zero_work() {
    let dir = TempDir::new("replay");
    let experiment = small_experiment();

    let first = journal_lab(&dir, 2_000);
    let cold = first.run(&experiment);
    let cells = cold.cells().len() as u64;
    assert_eq!(first.journal_recorded_count(), cells);
    assert_eq!(first.journal_replayed_count(), 0);

    let second = journal_lab(&dir, 2_000);
    let warm = second.run(&experiment);
    assert_eq!(
        second.capture_count(),
        0,
        "a fully-journaled resume performs zero functional executions"
    );
    assert_eq!(second.journal_replayed_count(), cells);
    assert_eq!(second.journal_recorded_count(), 0);
    assert_bit_identical(&cold, &warm, "exact replay");
}

/// Same guarantee on the sampled path — the sampled/energy estimates with
/// their `f64`s round-trip as exact bit patterns, and the sampling plan is
/// part of the fingerprint (an exact run of the same spec shares nothing).
#[test]
fn sampled_journaled_rerun_replays_bit_identically() {
    let dir = TempDir::new("sampled");
    let spec = SamplingPlan::periodic(1_000).with_window(300, 100);
    let experiment = small_experiment().sampling(spec);

    let first = journal_lab(&dir, 4_000);
    let cold = first.run(&experiment);
    let cells = cold.cells().len() as u64;
    assert_eq!(first.journal_recorded_count(), cells);

    let second = journal_lab(&dir, 4_000);
    let warm = second.run(&experiment);
    assert_eq!(second.capture_count(), 0);
    assert_eq!(second.journal_replayed_count(), cells);
    assert_bit_identical(&cold, &warm, "sampled replay");

    // The exact variant of the same experiment shares no fingerprints with
    // the sampled one: nothing replays, everything recomputes.
    let exact = journal_lab(&dir, 4_000);
    exact.run(&small_experiment().instructions(4_000));
    assert_eq!(exact.journal_replayed_count(), 0);
    assert_eq!(exact.journal_recorded_count(), cells);
}

/// Journal and trace-store directories that cannot be opened (a regular
/// file sits at the path — robust even as root, unlike permission bits)
/// degrade to warnings: the sweep completes, bit-identical to a plain run.
#[test]
fn unopenable_journal_and_store_degrade_gracefully() {
    let scratch = TempDir::new("degrade");
    std::fs::create_dir_all(scratch.path()).unwrap();
    let journal_file = scratch.path().join("journal-as-file");
    let store_file = scratch.path().join("store-as-file");
    std::fs::write(&journal_file, b"not a directory").unwrap();
    std::fs::write(&store_file, b"not a directory").unwrap();

    let lab = Lab::new(LabConfig {
        instructions: 2_000,
        threads: 2,
        trace_dir: Some(store_file),
        journal_dir: Some(journal_file),
        ..LabConfig::default()
    });
    assert!(lab.trace_store().is_none(), "store degraded to None");
    let journal = lab.journal().expect("journal present but degraded");
    assert!(journal.is_degraded());

    let degraded = lab.run(&small_experiment());
    assert_eq!(lab.journal_recorded_count(), 0, "nothing durably recorded");

    let plain = Lab::new(LabConfig {
        instructions: 2_000,
        threads: 2,
        ..LabConfig::default()
    })
    .run(&small_experiment());
    assert_bit_identical(&degraded, &plain, "degraded run");
}

proptest! {
    /// A WAL with a torn tail of *any* length — zero bytes up to one byte
    /// short of a whole record — replays exactly the complete record
    /// prefix, truncates the tear, and never trusts a fingerprint past it.
    #[test]
    fn torn_wal_tail_replays_exactly_the_complete_prefix(
        fps in proptest::collection::vec(0u64..u64::MAX, 0..10),
        torn_fp in 0u64..u64::MAX,
        cut in 0usize..20,
    ) {
        let dir = TempDir::new("prop-torn");
        // Opening once writes the header (and nothing else).
        drop(ExperimentJournal::open(dir.path()));
        let wal = dir.path().join(WAL_FILE_NAME);
        let header_len = std::fs::metadata(&wal).unwrap().len();
        let mut bytes = std::fs::read(&wal).unwrap();
        for fp in &fps {
            bytes.extend_from_slice(&wal_record(*fp));
        }
        let torn = wal_record(torn_fp);
        // 20 bytes per record; a layout change must update the cut range.
        prop_assert_eq!(torn.len(), 20);
        bytes.extend_from_slice(&torn[..cut]);
        std::fs::write(&wal, &bytes).unwrap();

        let journal = ExperimentJournal::open(dir.path());
        prop_assert!(!journal.is_degraded());
        let expected: HashSet<u64> = fps.iter().copied().collect();
        prop_assert_eq!(journal.known_count(), expected.len());
        for fp in &expected {
            prop_assert!(journal.contains(*fp));
        }
        if cut > 0 && !expected.contains(&torn_fp) {
            prop_assert!(!journal.contains(torn_fp), "torn record must not replay");
        }
        prop_assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            header_len + 20 * fps.len() as u64
        );
    }
}

// ------------------------------------------------------- the kill matrix

/// Cells in the `table1` report at any budget: 3 workloads × 4 machines.
const TABLE1_CELLS: u64 = 12;

/// A `msp-lab` invocation with a hermetic journal-relevant environment.
fn msp_lab_cmd(journal_dir: &TempDir) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_msp-lab"));
    cmd.env_remove("MSP_BENCH_TRACE_DIR")
        .env_remove(KILL_POINT_ENV)
        .env("MSP_BENCH_INSTRUCTIONS", "2000")
        // One worker makes the record order — and therefore the number of
        // cells committed before each kill — exactly predictable.
        .env("MSP_BENCH_THREADS", "1")
        .env("MSP_BENCH_JOURNAL_DIR", journal_dir.path());
    cmd
}

/// Extracts `(replayed, recorded)` from the `--verbose` journal line.
fn parse_journal_line(stderr: &str) -> (u64, u64) {
    for line in stderr.lines() {
        if let Some(rest) = line.strip_prefix("msp-lab: journal: ") {
            let mut numbers = rest
                .split_whitespace()
                .filter_map(|word| word.parse::<u64>().ok());
            let replayed = numbers.next().expect("replayed count");
            let recorded = numbers.next().expect("recorded count");
            return (replayed, recorded);
        }
    }
    panic!("no journal line in stderr:\n{stderr}");
}

fn assert_killed(status: std::process::ExitStatus, context: &str) {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if status.signal() == Some(9) {
            return;
        }
    }
    // `die()` falls back to exit(137) if the external `kill` is missing.
    assert_eq!(
        status.code(),
        Some(137),
        "{context}: expected a SIGKILL death, got {status}"
    );
}

/// The kill matrix: a `table1` sweep is murdered at every injected fault
/// point of the journal commit path, at several occurrence depths, and a
/// plain `--resume` run afterwards must (a) produce stdout byte-identical
/// to an unjournaled reference run, (b) replay **exactly** the cells whose
/// WAL records committed before the kill, and (c) leave the journal fully
/// warm — a third run replays all 12 cells with zero functional work.
#[test]
fn kill_matrix_every_fault_point_resumes_bit_identically() {
    // The unjournaled reference output (full float precision via JSON).
    let reference_dir = TempDir::new("kill-ref");
    let reference = msp_lab_cmd(&reference_dir)
        .env_remove("MSP_BENCH_JOURNAL_DIR")
        .args(["table1", "--format", "json"])
        .output()
        .expect("reference run");
    assert!(reference.status.success(), "reference run failed");

    for site in KILL_POINTS {
        for nth in [1u64, 5] {
            let context = format!("kill at {site}:{nth}");
            let dir = TempDir::new("kill-matrix");

            let killed = msp_lab_cmd(&dir)
                .env(KILL_POINT_ENV, format!("{site}:{nth}"))
                .args(["table1", "--format", "json", "--resume"])
                .output()
                .expect("killed run");
            assert_killed(killed.status, &context);

            // With one worker the commit order is deterministic: the n-th
            // occurrence of a pre-commit site leaves n-1 records; the
            // post-commit site leaves n.
            let committed = if site == KILL_WAL_APPENDED {
                nth
            } else {
                nth - 1
            };

            let resumed = msp_lab_cmd(&dir)
                .args(["table1", "--format", "json", "--resume", "--verbose"])
                .output()
                .expect("resumed run");
            assert!(
                resumed.status.success(),
                "{context}: resume failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            );
            assert_eq!(
                resumed.stdout, reference.stdout,
                "{context}: resumed output diverged from the reference"
            );
            let (replayed, recorded) =
                parse_journal_line(&String::from_utf8_lossy(&resumed.stderr));
            assert_eq!(
                replayed, committed,
                "{context}: replayed exactly the committed cells"
            );
            assert_eq!(
                recorded,
                TABLE1_CELLS - committed,
                "{context}: recomputed exactly the uncommitted cells"
            );

            // Third pass: everything replays, nothing is re-simulated or
            // re-captured.
            let warm = msp_lab_cmd(&dir)
                .args(["table1", "--format", "json", "--resume", "--verbose"])
                .output()
                .expect("warm run");
            assert!(warm.status.success(), "{context}: warm run failed");
            assert_eq!(warm.stdout, reference.stdout, "{context}: warm output");
            let warm_stderr = String::from_utf8_lossy(&warm.stderr);
            let (replayed, recorded) = parse_journal_line(&warm_stderr);
            assert_eq!(
                (replayed, recorded),
                (TABLE1_CELLS, 0),
                "{context}: warm journal"
            );
            assert!(
                warm_stderr.contains("/ 0 captures"),
                "{context}: warm run performed functional executions:\n{warm_stderr}"
            );
        }
    }
}

/// A sampled sweep killed partway through its windows keeps every cell
/// whose last window finished. With one worker the cells finish in flat
/// order, so a kill at a window inside cell k+1 leaves exactly k cells
/// committed, and the resume recomputes the rest byte-identically.
#[test]
fn sampled_kill_mid_windows_keeps_every_finished_cell() {
    // 2,000 instructions at a 500-instruction interval: the head window
    // plus windows at 500, 1,000 and 1,500 in every cell.
    const WINDOWS_PER_CELL: u64 = 4;
    const FINISHED: u64 = 2;
    let sampled = |dir: &TempDir| {
        let mut cmd = msp_lab_cmd(dir);
        cmd.env("MSP_BENCH_SAMPLE_INTERVAL", "500")
            .env_remove("MSP_BENCH_SAMPLE_PLAN")
            .args(["table1", "--sample", "--format", "json"]);
        cmd
    };
    let reference_dir = TempDir::new("window-ref");
    let reference = sampled(&reference_dir)
        .env_remove("MSP_BENCH_JOURNAL_DIR")
        .output()
        .expect("reference run");
    assert!(reference.status.success(), "reference run failed");

    let dir = TempDir::new("window-kill");
    let nth = FINISHED * WINDOWS_PER_CELL + 2;
    let killed = sampled(&dir)
        .env(KILL_POINT_ENV, format!("{KILL_WINDOW_DONE}:{nth}"))
        .arg("--resume")
        .output()
        .expect("killed run");
    assert_killed(killed.status, "kill at a window of the third cell");

    let resumed = sampled(&dir)
        .args(["--resume", "--verbose"])
        .output()
        .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        parse_journal_line(&String::from_utf8_lossy(&resumed.stderr)),
        (FINISHED, TABLE1_CELLS - FINISHED),
        "replayed exactly the cells whose windows all finished"
    );
    assert_eq!(
        resumed.stdout, reference.stdout,
        "resumed output diverged from the reference"
    );
}

/// A malformed kill point is rejected, not guessed at: an unparsable or
/// zero count, or an unknown site, fails the run with a message naming the
/// variable and its value, without a SIGKILL and before any cell commits.
#[test]
fn malformed_kill_point_fails_before_any_commit() {
    for value in ["wal-appended:x", "wal-appended:0", "wal-apended:1"] {
        let dir = TempDir::new("bad-kill-point");
        let run = msp_lab_cmd(&dir)
            .env(KILL_POINT_ENV, value)
            .args(["table1", "--resume"])
            .output()
            .expect("run with a malformed kill point");
        assert_eq!(run.status.code(), Some(1), "{value}: exit status");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(&format!("{KILL_POINT_ENV}={value:?}")),
            "{value}: the message names the variable and its value:\n{stderr}"
        );
        assert_eq!(
            ExperimentJournal::open(dir.path()).known_count(),
            0,
            "{value}: no cell committed"
        );
    }
}

/// `msp-lab batch` is the same machinery end-to-end: kill a batch run
/// mid-manifest, re-run it, and the concatenated reports must be identical
/// to an uninterrupted batch over a fresh journal.
#[test]
fn batch_mode_resumes_after_a_kill() {
    let manifest = TempDir::new("batch-manifest");
    std::fs::create_dir_all(manifest.path()).unwrap();
    let manifest_path = manifest.path().join("experiments.txt");
    std::fs::write(
        &manifest_path,
        "# journal fence manifest\ntable1 --format json\n\nenergy --format json\n",
    )
    .unwrap();

    let clean_dir = TempDir::new("batch-clean");
    let clean = msp_lab_cmd(&clean_dir)
        .args(["batch"])
        .arg(&manifest_path)
        .output()
        .expect("clean batch");
    assert!(clean.status.success(), "clean batch failed");

    let dir = TempDir::new("batch-kill");
    let killed = msp_lab_cmd(&dir)
        .env(KILL_POINT_ENV, format!("{KILL_WAL_APPENDED}:15"))
        .args(["batch"])
        .arg(&manifest_path)
        .output()
        .expect("killed batch");
    assert_killed(killed.status, "batch kill");

    let resumed = msp_lab_cmd(&dir)
        .args(["batch"])
        .arg(&manifest_path)
        .output()
        .expect("resumed batch");
    assert!(
        resumed.status.success(),
        "batch resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, clean.stdout,
        "resumed batch output diverged from an uninterrupted batch"
    );
}
