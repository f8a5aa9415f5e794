//! `msp-lab` — the single experiment CLI of the MSP reproduction.
//!
//! One subcommand per paper artefact, one `--format` flag for the output:
//!
//! ```text
//! msp-lab <subcommand> [--format text|json|csv] [--sample]
//! msp-lab <subcommand> --bless
//! msp-lab --list
//! ```
//!
//! Subcommands: `table1 table2 table3 energy fig6 fig7 fig8 fig9
//! ablate-lcs ablate-rename ablate-cpr-regs stats-dump`. The session is
//! configured
//! from the environment (`MSP_BENCH_INSTRUCTIONS`, `MSP_BENCH_THREADS`,
//! `MSP_BENCH_TRACE_CACHE_BYTES`, `MSP_BENCH_SAMPLE_INTERVAL` — strictly
//! parsed; see `LabConfig::from_env`). Two builds of the simulator can be
//! diffed for bit-identical behaviour:
//!
//! ```text
//! MSP_BENCH_INSTRUCTIONS=20000 msp-lab stats-dump > before.txt
//! # ... change the simulator ...
//! MSP_BENCH_INSTRUCTIONS=20000 msp-lab stats-dump | diff before.txt -
//! ```
//!
//! `--sample` runs the subcommand's experiment **sampled** (checkpointed
//! resume + cumulative functional warming over the shared trace) instead
//! of simulating every instruction in detail — the way to run
//! multi-million-instruction budgets. `--sample-plan` picks where the
//! detailed windows go: `periodic` (one per `MSP_BENCH_SAMPLE_INTERVAL`
//! committed instructions), `phases` (SimPoint-style — one weighted window
//! per clustered program phase), or `adaptive` (windows added until the
//! estimate's relative standard error reaches `--sample-target-stderr`):
//!
//! ```text
//! MSP_BENCH_INSTRUCTIONS=2000000 msp-lab table1 --sample
//! MSP_BENCH_INSTRUCTIONS=2000000 msp-lab table1 --sample --sample-plan phases
//! MSP_BENCH_INSTRUCTIONS=2000000 msp-lab table1 --sample --sample-plan adaptive \
//!     --sample-target-stderr 0.01
//! ```
//!
//! With `MSP_BENCH_JOURNAL_DIR` set and `--resume` passed, every finished
//! cell is durably journaled (fsync'd WAL + content-addressed result
//! files) and a re-run after a crash — SIGKILL, OOM, CI timeout —
//! **replays** the journaled cells bit-identically and recomputes only the
//! rest. `msp-lab batch <manifest>` runs a whole experiment list that way,
//! incrementally:
//!
//! ```text
//! MSP_BENCH_JOURNAL_DIR=journal msp-lab table1 --sample --resume
//! MSP_BENCH_JOURNAL_DIR=journal msp-lab batch experiments.txt
//! ```
//!
//! With `MSP_BENCH_TRACE_DIR` set, functional traces persist to a
//! compressed on-disk store shared across processes — a warm store means a
//! cold `msp-lab` run re-executes nothing — and the `trace` subcommand
//! family manages it:
//!
//! ```text
//! msp-lab trace ls [--format text|json|csv]   # list stored traces
//! msp-lab trace stat                          # store summary
//! msp-lab trace gc                            # enforce the byte budget now
//! msp-lab trace capture <workload> [--variant modified] [--interval N]
//! ```
//!
//! The checked-in goldens under `tests/golden/` pin the 20k/200k
//! `stats-dump` text renderings, the `table1` text and JSON renderings,
//! the `energy` renderings in all three formats and the `trace ls` JSON
//! schema; the golden tests and the CI bench-smoke job both diff against
//! them. `msp-lab <sub> --bless` (and `msp-lab trace ls --bless`)
//! regenerates the relevant goldens in place (deterministically — CI
//! blesses twice and diffs), so a schema change is one command instead of
//! four hand-edited files.

use msp_bench::store::{demo_store, trace_ls_report};
use msp_bench::{
    Lab, LabConfig, OutputFormat, ReportKind, SamplePlanKind, SamplingPlan, TraceStore,
};
use msp_workloads::Variant;
use std::process::ExitCode;

fn usage() -> String {
    let mut out = String::from(
        "usage: msp-lab <subcommand> [--format text|json|csv] [--sample] [--sample-plan plan]\n\
         \x20                        [--sample-target-stderr x] [--resume] [--verbose]\n\
         \x20      msp-lab <subcommand> --bless\n\
         \x20      msp-lab batch <manifest> [--verbose]\n\
         \x20      msp-lab trace <ls|stat|gc|capture> [...]\n\
         \x20      msp-lab check [--cpr] [--max-states N] [--mutation <name>|--mutation-matrix]\n\
         \n\
         Runs one experiment of the González et al. (MICRO 2008) reproduction\n\
         and prints the report.\n\
         \n\
         subcommands:\n",
    );
    for kind in ReportKind::ALL {
        out.push_str(&format!("  {:16} {}\n", kind.name(), kind.description()));
    }
    out.push_str(
        "\n\
         batch mode (needs MSP_BENCH_JOURNAL_DIR):\n\
         \x20 batch <manifest>  run every experiment listed in <manifest> with the\n\
         \x20                  crash-resumable journal: one `<subcommand> [--sample]\n\
         \x20                  [--sample-plan p] [--sample-target-stderr x]\n\
         \x20                  [--format fmt]` per line (# comments and blank lines\n\
         \x20                  skipped), journaled cells replayed, the rest computed\n\
         \x20                  and journaled — re-run the same command after a crash\n\
         \x20                  to continue where it died\n\
         \n\
         trace-store subcommands (need MSP_BENCH_TRACE_DIR):\n\
         \x20 trace ls         list the stored traces [--format text|json|csv; --bless\n\
         \x20                  regenerates the trace-ls JSON golden from the demo store]\n\
         \x20 trace stat       one-line store summary (files, bytes, budget)\n\
         \x20 trace gc         enforce the store byte budget now\n\
         \x20 trace capture <workload>  pre-capture one workload's trace into the store\n\
         \x20                  [--variant original|modified, --interval N checkpoints;\n\
         \x20                  budget from MSP_BENCH_INSTRUCTIONS]\n\
         \n\
         model-checker subcommand:\n\
         \x20 check            exhaustively enumerate every legal event interleaving of a\n\
         \x20                  tiny MSP machine built from the real msp-state structures,\n\
         \x20                  auditing occupancy/architectural/StateId invariants at every\n\
         \x20                  step; fails if any violation is found or the state budget\n\
         \x20                  runs out [--cpr checks the CPR comparison machine instead;\n\
         \x20                  --max-states N caps the search (default 4000000);\n\
         \x20                  --mutation <name> arms one seeded recovery defect and\n\
         \x20                  requires the explorer to catch it (needs a build with\n\
         \x20                  RUSTFLAGS=\"--cfg msp_check_mutation\"); --mutation-matrix\n\
         \x20                  runs every seeded defect and requires all kills;\n\
         \x20                  --list-mutations prints the defect names]\n\
         \n\
         options:\n\
         \x20 --format <fmt>   output format: text (default), json or csv\n\
         \x20 --sample         sampled execution: estimate the full budget from detailed\n\
         \x20                  windows (checkpointed resume + cumulative warming;\n\
         \x20                  interval from MSP_BENCH_SAMPLE_INTERVAL, 2.5% detail)\n\
         \x20 --sample-plan <p> where the windows go (needs --sample): periodic (default;\n\
         \x20                  one window per interval), phases (SimPoint-style — one\n\
         \x20                  weighted window per clustered program phase), or adaptive\n\
         \x20                  (windows added until the IPC relative standard error\n\
         \x20                  reaches the target)\n\
         \x20 --sample-target-stderr <x>  adaptive stopping target, strictly between 0\n\
         \x20                  and 1 (needs --sample; default 0.02)\n\
         \x20 --resume         journal every finished cell into MSP_BENCH_JOURNAL_DIR and\n\
         \x20                  replay already-journaled cells instead of re-simulating\n\
         \x20 --verbose        print a trace-cache summary (mem/disk hits, captures) to stderr\n\
         \x20                  (and a journal replay/record summary under --resume)\n\
         \x20 --bless          regenerate this subcommand's checked-in goldens in place\n\
         \x20 --list           list the subcommand names, one per line\n\
         \x20 --help           this help\n\
         \n\
         environment (strictly parsed; invalid values are errors):\n\
         \x20 MSP_BENCH_INSTRUCTIONS      committed instructions per simulation (default 20000)\n\
         \x20 MSP_BENCH_THREADS           sweep worker threads (default: hardware threads)\n\
         \x20 MSP_BENCH_TRACE_CACHE_BYTES trace-cache byte budget (default 268435456)\n\
         \x20 MSP_BENCH_SAMPLE_INTERVAL   --sample interval in instructions (default 250000)\n\
         \x20 MSP_BENCH_SAMPLE_PLAN       default --sample-plan: periodic, phases or adaptive\n\
         \x20 MSP_BENCH_SAMPLE_TARGET_STDERR  default --sample-target-stderr (default 0.02)\n\
         \x20 MSP_BENCH_TRACE_DIR         persistent trace-store directory (default: none)\n\
         \x20 MSP_BENCH_TRACE_STORE_BYTES on-disk store byte budget (default 4294967296)\n\
         \x20 MSP_BENCH_JOURNAL_DIR       crash-resumable journal directory (default: none;\n\
         \x20                             used by --resume and batch)\n",
    );
    out
}

enum Invocation {
    Run {
        kind: ReportKind,
        format: OutputFormat,
        sample: bool,
        plan: Option<SamplePlanKind>,
        target_stderr: Option<f64>,
        resume: bool,
        verbose: bool,
    },
    Batch {
        manifest: String,
        verbose: bool,
    },
    Bless(ReportKind),
    Trace(TraceCmd),
    Check(CheckCmd),
    Help,
    List,
}

/// `msp-lab check`: which machine to enumerate and whether to prove the
/// invariants' teeth against the seeded defects.
struct CheckCmd {
    cpr: bool,
    max_states: u64,
    mode: CheckMode,
}

enum CheckMode {
    /// Plain exhaustive run; fails on any violation or an exhausted budget.
    Clean,
    /// Arm one seeded defect; fails unless the explorer catches it.
    Mutation(String),
    /// Run every seeded defect in turn; fails unless all are caught.
    Matrix,
    /// Print the seeded defect names, one per line.
    ListMutations,
}

enum TraceCmd {
    Ls {
        format: OutputFormat,
        bless: bool,
    },
    Stat,
    Gc,
    Capture {
        workload: String,
        variant: Variant,
        interval: u64,
    },
}

fn parse_format(value: &str) -> Result<OutputFormat, String> {
    OutputFormat::parse(value)
        .ok_or_else(|| format!("unknown format {value:?} (text, json or csv)"))
}

fn parse_plan_kind(value: &str) -> Result<SamplePlanKind, String> {
    match value {
        "periodic" => Ok(SamplePlanKind::Periodic),
        "phases" => Ok(SamplePlanKind::PhaseAware),
        "adaptive" => Ok(SamplePlanKind::Adaptive),
        other => Err(format!(
            "unknown sample plan {other:?} (periodic, phases or adaptive)"
        )),
    }
}

fn parse_target_stderr(value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t > 0.0 && *t < 1.0)
        .ok_or_else(|| {
            format!("--sample-target-stderr {value:?} must be a number strictly between 0 and 1")
        })
}

/// Parses the `trace <ls|stat|gc|capture>` family (everything after the
/// `trace` token).
fn parse_trace_args(args: &[String]) -> Result<TraceCmd, String> {
    let mut iter = args.iter();
    let action = iter
        .next()
        .ok_or_else(|| "trace needs an action: ls, stat, gc or capture".to_string())?;
    match action.as_str() {
        "ls" => {
            let mut format = OutputFormat::Text;
            let mut bless = false;
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--bless" => bless = true,
                    "--format" => {
                        let value = iter.next().ok_or_else(|| {
                            "--format needs a value (text, json or csv)".to_string()
                        })?;
                        format = parse_format(value)?;
                    }
                    flag if flag.starts_with("--format=") => {
                        format = parse_format(&flag["--format=".len()..])?;
                    }
                    other => return Err(format!("unexpected trace ls argument {other:?}")),
                }
            }
            Ok(TraceCmd::Ls { format, bless })
        }
        "stat" => match iter.next() {
            None => Ok(TraceCmd::Stat),
            Some(other) => Err(format!("unexpected trace stat argument {other:?}")),
        },
        "gc" => match iter.next() {
            None => Ok(TraceCmd::Gc),
            Some(other) => Err(format!("unexpected trace gc argument {other:?}")),
        },
        "capture" => {
            let mut workload: Option<String> = None;
            let mut variant = Variant::Original;
            let mut interval = 0u64;
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--variant" => {
                        let value = iter
                            .next()
                            .ok_or_else(|| "--variant needs a value".to_string())?;
                        variant = match value.as_str() {
                            "original" => Variant::Original,
                            "modified" => Variant::Modified,
                            other => {
                                return Err(format!(
                                    "unknown variant {other:?} (original or modified)"
                                ))
                            }
                        };
                    }
                    "--interval" => {
                        let value = iter
                            .next()
                            .ok_or_else(|| "--interval needs a value".to_string())?;
                        interval = value.parse::<u64>().map_err(|_| {
                            format!("--interval {value:?} is not an unsigned integer")
                        })?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown trace capture option {flag:?}"));
                    }
                    name => {
                        if workload.is_some() {
                            return Err(format!("unexpected extra argument {name:?}"));
                        }
                        workload = Some(name.to_string());
                    }
                }
            }
            let workload =
                workload.ok_or_else(|| "trace capture needs a workload name".to_string())?;
            Ok(TraceCmd::Capture {
                workload,
                variant,
                interval,
            })
        }
        other => Err(format!(
            "unknown trace action {other:?} (ls, stat, gc or capture)"
        )),
    }
}

/// Parses the `check` family (everything after the `check` token).
fn parse_check_args(args: &[String]) -> Result<CheckCmd, String> {
    let mut cpr = false;
    let mut max_states: u64 = msp_check::ExploreLimits::default().max_states;
    let mut mode = CheckMode::Clean;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cpr" => cpr = true,
            "--list-mutations" => mode = CheckMode::ListMutations,
            "--mutation-matrix" => {
                if matches!(mode, CheckMode::Mutation(_)) {
                    return Err("--mutation and --mutation-matrix are mutually exclusive".into());
                }
                mode = CheckMode::Matrix;
            }
            "--mutation" => {
                if matches!(mode, CheckMode::Matrix) {
                    return Err("--mutation and --mutation-matrix are mutually exclusive".into());
                }
                let value = iter.next().ok_or_else(|| {
                    "--mutation needs a defect name (see --list-mutations)".to_string()
                })?;
                mode = CheckMode::Mutation(value.clone());
            }
            "--max-states" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--max-states needs an unsigned integer".to_string())?;
                max_states = value
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--max-states {value:?} is not a positive integer"))?;
            }
            other => return Err(format!("unexpected check argument {other:?}")),
        }
    }
    Ok(CheckCmd {
        cpr,
        max_states,
        mode,
    })
}

fn parse_batch_args(args: &[String]) -> Result<Invocation, String> {
    let mut manifest: Option<String> = None;
    let mut verbose = false;
    for arg in args {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown batch option {flag:?}"));
            }
            path => {
                if manifest.is_some() {
                    return Err(format!("unexpected extra argument {path:?}"));
                }
                manifest = Some(path.to_string());
            }
        }
    }
    let manifest = manifest.ok_or_else(|| "batch needs a manifest file path".to_string())?;
    Ok(Invocation::Batch { manifest, verbose })
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    if args.first().map(String::as_str) == Some("trace") {
        return Ok(Invocation::Trace(parse_trace_args(&args[1..])?));
    }
    if args.first().map(String::as_str) == Some("batch") {
        return parse_batch_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("check") {
        return Ok(Invocation::Check(parse_check_args(&args[1..])?));
    }
    let mut kind: Option<ReportKind> = None;
    let mut format = OutputFormat::Text;
    let mut sample = false;
    let mut plan: Option<SamplePlanKind> = None;
    let mut target_stderr: Option<f64> = None;
    let mut bless = false;
    let mut resume = false;
    let mut verbose = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Invocation::Help),
            "--list" => return Ok(Invocation::List),
            "--sample" => sample = true,
            "--bless" => bless = true,
            "--resume" => resume = true,
            "--verbose" | "-v" => verbose = true,
            "--format" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--format needs a value (text, json or csv)".to_string())?;
                format = parse_format(value)?;
            }
            flag if flag.starts_with("--format=") => {
                format = parse_format(&flag["--format=".len()..])?;
            }
            "--sample-plan" => {
                let value = iter.next().ok_or_else(|| {
                    "--sample-plan needs a value (periodic, phases or adaptive)".to_string()
                })?;
                plan = Some(parse_plan_kind(value)?);
            }
            flag if flag.starts_with("--sample-plan=") => {
                plan = Some(parse_plan_kind(&flag["--sample-plan=".len()..])?);
            }
            "--sample-target-stderr" => {
                let value = iter.next().ok_or_else(|| {
                    "--sample-target-stderr needs a value strictly between 0 and 1".to_string()
                })?;
                target_stderr = Some(parse_target_stderr(value)?);
            }
            flag if flag.starts_with("--sample-target-stderr=") => {
                target_stderr = Some(parse_target_stderr(
                    &flag["--sample-target-stderr=".len()..],
                )?);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option {flag:?}"));
            }
            name => {
                if kind.is_some() {
                    return Err(format!("unexpected extra argument {name:?}"));
                }
                kind = Some(
                    ReportKind::from_name(name)
                        .ok_or_else(|| format!("unknown subcommand {name:?} (see --list)"))?,
                );
            }
        }
    }
    let kind = kind.ok_or_else(|| "missing subcommand".to_string())?;
    if !sample {
        if plan.is_some() {
            return Err("--sample-plan needs --sample".to_string());
        }
        if target_stderr.is_some() {
            return Err("--sample-target-stderr needs --sample".to_string());
        }
    }
    if bless {
        if sample {
            return Err(
                "--bless and --sample are mutually exclusive (goldens pin exact runs)".to_string(),
            );
        }
        if resume {
            return Err(
                "--bless and --resume are mutually exclusive (goldens pin exact runs)".to_string(),
            );
        }
        if kind.goldens().is_empty() {
            return Err(format!(
                "{:?} has no checked-in goldens to bless (see tests/golden/)",
                kind.name()
            ));
        }
        return Ok(Invocation::Bless(kind));
    }
    Ok(Invocation::Run {
        kind,
        format,
        sample,
        plan,
        target_stderr,
        resume,
        verbose,
    })
}

/// Resolves the effective `SamplingPlan` for one `--sample` run: the session
/// configuration (environment) provides the defaults, the command-line flags
/// override them.
fn resolve_plan(
    config: &LabConfig,
    plan: Option<SamplePlanKind>,
    target_stderr: Option<f64>,
) -> SamplingPlan {
    let mut config = config.clone();
    if let Some(plan) = plan {
        config.sample_plan = plan;
    }
    if let Some(target) = target_stderr {
        config.sample_target_stderr = target;
    }
    config.sampling_plan()
}

/// Regenerates every golden of `kind` in place. The golden directory is
/// resolved from this crate's manifest directory, so bless runs from a
/// source checkout (`cargo run -p msp-bench --bin msp-lab`), which is the
/// only place goldens live.
fn bless(kind: ReportKind) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for golden in kind.goldens() {
        // Goldens are defined at pinned budgets, independent of the
        // environment; only the budget is forced, the rest of the session
        // configuration is irrelevant to the rendering.
        let lab = Lab::new(LabConfig {
            instructions: golden.instructions,
            ..LabConfig::default()
        });
        let rendered = kind.build(&lab).render(golden.format);
        let path = format!("{dir}/{}", golden.file);
        std::fs::write(&path, rendered).map_err(|err| format!("cannot write {path}: {err}"))?;
        println!(
            "blessed {path} ({} instructions, {})",
            golden.instructions, golden.format
        );
    }
    Ok(())
}

/// The trace-ls golden file, relative to this crate's golden directory.
const TRACE_LS_GOLDEN: &str = "trace_ls.json";

/// Regenerates the `trace ls --format json` golden from the canonical demo
/// store (built in a scratch directory — the golden must not depend on
/// whatever the local `MSP_BENCH_TRACE_DIR` happens to hold).
fn bless_trace_ls() -> Result<(), String> {
    let scratch =
        std::env::temp_dir().join(format!("msp-lab-trace-ls-bless-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = (|| {
        let store = demo_store(&scratch).map_err(|e| format!("cannot build demo store: {e}"))?;
        let report =
            trace_ls_report(&store).map_err(|e| format!("cannot render demo store: {e}"))?;
        let path = format!(
            "{}/{TRACE_LS_GOLDEN}",
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")
        );
        std::fs::write(&path, report.render(OutputFormat::Json))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("blessed {path} (canonical demo store, json)");
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Opens the persistent store the environment points at. The trace
/// subcommands manage an on-disk resource, so an unset `MSP_BENCH_TRACE_DIR`
/// is an explicit error, not a silent no-op.
fn open_store_from_env() -> Result<TraceStore, String> {
    let config = LabConfig::from_env().map_err(|e| e.to_string())?;
    let dir = config.trace_dir.ok_or_else(|| {
        "the trace subcommands need MSP_BENCH_TRACE_DIR to point at the store directory".to_string()
    })?;
    TraceStore::open(&dir, config.trace_store_bytes)
        .map_err(|e| format!("cannot open trace store at {}: {e}", dir.display()))
}

fn run_trace(cmd: TraceCmd) -> Result<(), String> {
    match cmd {
        TraceCmd::Ls { bless: true, .. } => bless_trace_ls(),
        TraceCmd::Ls { format, .. } => {
            let store = open_store_from_env()?;
            let report = trace_ls_report(&store)
                .map_err(|e| format!("cannot list {}: {e}", store.dir().display()))?;
            print!("{}", report.render(format));
            Ok(())
        }
        TraceCmd::Stat => {
            let store = open_store_from_env()?;
            let entries = store
                .entries()
                .map_err(|e| format!("cannot read {}: {e}", store.dir().display()))?;
            let total: u64 = entries.iter().map(|e| e.bytes).sum();
            println!(
                "{}: {} trace file(s), {} bytes used of {} budget",
                store.dir().display(),
                entries.len(),
                total,
                store.budget_bytes()
            );
            Ok(())
        }
        TraceCmd::Gc => {
            let store = open_store_from_env()?;
            let report = store
                .gc()
                .map_err(|e| format!("gc failed in {}: {e}", store.dir().display()))?;
            println!(
                "deleted {} file(s) ({} bytes); retained {} file(s) ({} bytes) under {} budget",
                report.deleted,
                report.freed_bytes,
                report.retained,
                report.retained_bytes,
                store.budget_bytes()
            );
            Ok(())
        }
        TraceCmd::Capture {
            workload,
            variant,
            interval,
        } => {
            let lab = Lab::from_env().map_err(|e| e.to_string())?;
            if lab.trace_store().is_none() {
                return Err(
                    "the trace subcommands need MSP_BENCH_TRACE_DIR to point at the store directory"
                        .to_string(),
                );
            }
            let w = msp_workloads::by_name(&workload, variant)
                .ok_or_else(|| format!("unknown workload {workload:?} (variant {variant})"))?;
            let instructions = lab.config().instructions;
            let captured = lab.prefetch_trace(&w, instructions, interval);
            println!(
                "{} {workload}/{variant} at {instructions} instructions (interval {interval})",
                if captured {
                    "captured"
                } else {
                    "already stored:"
                }
            );
            Ok(())
        }
    }
}

/// One exploration of the selected machine under the current thread's armed
/// mutation (if any). The default geometries are the checked-in CI
/// configurations: small enough to exhaust in seconds, rich enough to reach
/// every squash path.
fn run_one_check(cpr: bool, max_states: u64) -> msp_check::CheckReport {
    let limits = msp_check::ExploreLimits { max_states };
    if cpr {
        msp_check::check_cpr(msp_check::CprConfig::default(), limits)
    } else {
        msp_check::check_msp(msp_check::CheckConfig::default(), limits)
    }
}

/// `msp-lab check`: exhaustive model checking of the recovery paths. Clean
/// runs must complete without violations; mutation runs must violate (the
/// seeded defect must be caught) — either failure mode is a non-zero exit.
fn run_check(cmd: CheckCmd) -> Result<(), String> {
    let machine = if cmd.cpr { "cpr" } else { "msp" };
    match cmd.mode {
        CheckMode::ListMutations => {
            for name in msp_check::MUTATIONS {
                println!("{name}");
            }
            Ok(())
        }
        CheckMode::Clean => {
            let report = run_one_check(cmd.cpr, cmd.max_states);
            // The report's rendering already ends in any counterexample.
            println!("check {machine}: {report}");
            if report.violation.is_some() {
                return Err("invariant violation found".to_string());
            }
            if !report.complete {
                return Err(format!(
                    "state budget exhausted before the space was enumerated \
                     (raise --max-states above {})",
                    cmd.max_states
                ));
            }
            Ok(())
        }
        CheckMode::Mutation(name) => {
            msp_check::arm_mutation(&name)?;
            let report = run_one_check(cmd.cpr, cmd.max_states);
            msp_check::disarm_mutation();
            match &report.violation {
                Some(_) => {
                    println!("check {machine}: mutation '{name}' KILLED — {report}");
                    Ok(())
                }
                None => Err(format!(
                    "mutation '{name}' SURVIVED the explorer ({report}) — the invariants \
                     have lost their teeth"
                )),
            }
        }
        CheckMode::Matrix => {
            if !msp_check::mutations_compiled_in() {
                return Err("the mutation matrix needs a build with \
                     RUSTFLAGS=\"--cfg msp_check_mutation\""
                    .to_string());
            }
            let mut survivors = Vec::new();
            for &name in msp_check::MUTATIONS {
                // The CPR leak lives in the CPR machine; everything else is
                // an MSP-side defect.
                let cpr = name == "leak-cpr-checkpoint";
                msp_check::arm_mutation(name)?;
                let report = run_one_check(cpr, cmd.max_states);
                msp_check::disarm_mutation();
                match &report.violation {
                    Some(cx) => println!(
                        "check matrix: {name:28} KILLED after {} events ({} states visited)",
                        cx.events.len(),
                        report.visited
                    ),
                    None => {
                        println!("check matrix: {name:28} SURVIVED ({report})");
                        survivors.push(name);
                    }
                }
            }
            if survivors.is_empty() {
                println!(
                    "check matrix: all {} seeded defects killed",
                    msp_check::MUTATIONS.len()
                );
                Ok(())
            } else {
                Err(format!("surviving mutations: {}", survivors.join(", ")))
            }
        }
    }
}

/// Builds the session `Lab`. Journalling is opt-in per invocation: a plain
/// run ignores any ambient `MSP_BENCH_JOURNAL_DIR` (its cells are not
/// journaled and nothing replays), while `--resume` requires it.
fn lab_from_env(resume: bool) -> Result<Lab, String> {
    let mut config = LabConfig::from_env().map_err(|e| e.to_string())?;
    if resume {
        if config.journal_dir.is_none() {
            return Err(
                "--resume needs MSP_BENCH_JOURNAL_DIR to point at the journal directory"
                    .to_string(),
            );
        }
    } else {
        config.journal_dir = None;
    }
    Ok(Lab::new(config))
}

/// One parsed manifest entry: `<subcommand> [--sample] [--sample-plan p]
/// [--sample-target-stderr x] [--format fmt]`.
struct BatchEntry {
    kind: ReportKind,
    format: OutputFormat,
    sample: bool,
    plan: Option<SamplePlanKind>,
    target_stderr: Option<f64>,
}

/// Parses a batch manifest: one experiment per line, `#` comments and
/// blank lines skipped. Each entry uses the normal run grammar (the parser
/// is shared), but only plain runs are allowed — no nested `batch`, no
/// `--bless`, no `trace`.
fn parse_manifest(text: &str) -> Result<Vec<BatchEntry>, String> {
    let mut entries = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        match parse_args(&tokens) {
            Ok(Invocation::Run {
                kind,
                format,
                sample,
                plan,
                target_stderr,
                ..
            }) => entries.push(BatchEntry {
                kind,
                format,
                sample,
                plan,
                target_stderr,
            }),
            Ok(_) => {
                return Err(format!(
                    "manifest line {}: only `<subcommand> [--sample] [--sample-plan p] \
                     [--sample-target-stderr x] [--format fmt]` entries are allowed",
                    index + 1
                ));
            }
            Err(e) => return Err(format!("manifest line {}: {e}", index + 1)),
        }
    }
    Ok(entries)
}

/// `msp-lab batch <manifest>`: every listed experiment runs through one
/// journaled session — already-journaled cells replay, the rest compute
/// and journal — so re-running the same command after a crash (or after
/// editing the manifest) continues incrementally instead of starting over.
fn run_batch(manifest: &str, verbose: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read manifest {manifest}: {e}"))?;
    let entries = parse_manifest(&text)?;
    if entries.is_empty() {
        return Err(format!("manifest {manifest} lists no experiments"));
    }
    let config = LabConfig::from_env().map_err(|e| e.to_string())?;
    if config.journal_dir.is_none() {
        return Err(
            "batch needs MSP_BENCH_JOURNAL_DIR to point at the journal directory".to_string(),
        );
    }
    let lab = Lab::new(config);
    let total = entries.len();
    for (index, entry) in entries.iter().enumerate() {
        let replayed_before = lab.journal_replayed_count();
        let recorded_before = lab.journal_recorded_count();
        let sampling = entry
            .sample
            .then(|| resolve_plan(lab.config(), entry.plan, entry.target_stderr));
        print!(
            "{}",
            entry
                .kind
                .build_sampled(&lab, sampling)
                .render(entry.format)
        );
        eprintln!(
            "msp-lab: batch [{}/{total}] {}: {} replayed / {} recorded",
            index + 1,
            entry.kind.name(),
            lab.journal_replayed_count() - replayed_before,
            lab.journal_recorded_count() - recorded_before,
        );
    }
    if verbose {
        eprintln!(
            "msp-lab: trace cache: {} hits mem / {} hits disk / {} captures",
            lab.mem_hit_count(),
            lab.disk_hit_count(),
            lab.capture_count()
        );
        eprintln!(
            "msp-lab: journal: {} replayed / {} recorded",
            lab.journal_replayed_count(),
            lab.journal_recorded_count()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse_args(&args) {
        Ok(invocation) => invocation,
        Err(message) => {
            eprintln!("msp-lab: {message}");
            eprintln!();
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match invocation {
        Invocation::Help => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Invocation::List => {
            for kind in ReportKind::ALL {
                println!("{}", kind.name());
            }
            ExitCode::SUCCESS
        }
        Invocation::Bless(kind) => match bless(kind) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("msp-lab: {message}");
                ExitCode::FAILURE
            }
        },
        Invocation::Trace(cmd) => match run_trace(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("msp-lab: {message}");
                ExitCode::FAILURE
            }
        },
        Invocation::Check(cmd) => match run_check(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("msp-lab: {message}");
                ExitCode::FAILURE
            }
        },
        Invocation::Batch { manifest, verbose } => match run_batch(&manifest, verbose) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("msp-lab: {message}");
                ExitCode::FAILURE
            }
        },
        Invocation::Run {
            kind,
            format,
            sample,
            plan,
            target_stderr,
            resume,
            verbose,
        } => {
            let lab = match lab_from_env(resume) {
                Ok(lab) => lab,
                Err(error) => {
                    eprintln!("msp-lab: {error}");
                    return ExitCode::FAILURE;
                }
            };
            let sampling = sample.then(|| resolve_plan(lab.config(), plan, target_stderr));
            print!("{}", kind.build_sampled(&lab, sampling).render(format));
            if verbose {
                eprintln!(
                    "msp-lab: trace cache: {} hits mem / {} hits disk / {} captures",
                    lab.mem_hit_count(),
                    lab.disk_hit_count(),
                    lab.capture_count()
                );
                if lab.journal().is_some() {
                    eprintln!(
                        "msp-lab: journal: {} replayed / {} recorded",
                        lab.journal_replayed_count(),
                        lab.journal_recorded_count()
                    );
                }
            }
            ExitCode::SUCCESS
        }
    }
}
