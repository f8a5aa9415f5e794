//! The repository's benchmark: three workloads driven through the public
//! APIs of the MSP simulator and its experiment harness.
//!
//! ```text
//! msp-perfbench --workload exact_table1|sampled_stream|model_check \
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload's set-up and timed
//! phase for `--seconds`, runs the correctness checks on every repetition
//! and prints the end-to-end metrics. A traced run (`--trace 1`) alternates
//! untraced repetitions with traced passes that re-drive the same work with a
//! span around every layer call, and prints the per-layer metrics. Either
//! way the last line of standard output is one JSON object; `perfbench/run.py`
//! builds this binary and runs it. See `README.md` for the rationale.

mod spans;
mod traced;
mod workloads;

use msp_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    cells_digest, check_rep, exact_rep, fresh_dir, kernels, reports_digest, stream_rep,
    BenchWorkload, Checks, DEFAULT_SEED,
};

const USAGE: &str = "usage: msp-perfbench --workload exact_table1|sampled_stream|model_check \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Repetitions an untraced run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

/// The end-to-end metrics, printed by an untraced run.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// The per-layer metrics, printed by a traced run (0 for a layer the
/// workload does not exercise).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("capture.s", "s"),
        ("capture.mrec_per_s", "Mrec/s"),
        ("tracefile.encode_s", "s"),
        ("tracefile.bytes_per_rec", "B/rec"),
        ("tracefile.open_s", "s"),
        ("tracefile.decode_s", "s"),
        ("tracefile.decode_mrec_per_s", "Mrec/s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (slug, _) in workloads::table1() {
        for (suffix, unit) in [
            ("s", "s"),
            ("mips", "MIPS"),
            ("ns_per_cycle", "ns"),
            ("cycles", "count"),
            ("committed", "count"),
            ("useful_ratio", "ratio"),
        ] {
            names.push((format!("sim.{slug}.{suffix}"), unit));
        }
    }
    names.extend(
        [
            ("window.s", "s"),
            ("window.count", "count"),
            ("window.p50_ms", "ms"),
            ("window.p90_ms", "ms"),
            ("window.measured_ratio", "ratio"),
            ("warm.s", "s"),
            ("warm.mrec_per_s", "Mrec/s"),
            ("warm.snapshots", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    for slug in ["sp16", "ideal"] {
        for event in [
            "sct_lookups",
            "lcs_propagations",
            "reliq_wakeups",
            "bank_full_cycles",
        ] {
            names.push((format!("state.{slug}.{event}"), "count"));
        }
    }
    names.extend(
        [
            ("mem.dcache_accesses", "count"),
            ("mem.l2_accesses", "count"),
            ("mem.dcache_misses", "count"),
            ("branch.lookups", "count"),
            ("branch.mispredictions", "count"),
            ("sampling.fold_s", "s"),
            ("sampling.measured_insts", "count"),
            ("sampling.ipc_stderr_pct", "%"),
            ("journal.record_ms", "ms"),
            ("journal.replay_ms", "ms"),
            ("journal.cells", "count"),
            ("journal.bytes", "B"),
            ("lab.unattributed_s", "s"),
            ("trace.overhead_pct", "%"),
            ("check.msp_s", "s"),
            ("check.msp_states", "count"),
            ("check.msp_states_per_s", "states/s"),
            ("check.msp_depth", "count"),
            ("check.cpr_s", "s"),
            ("check.cpr_states", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    names
}

struct Args {
    workload: BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        BenchWorkload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The run's scratch directory (trace stores, journals), removed on exit.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The process's high-water resident set size, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Repeats the workload's set-up and timed phase until `seconds` have
/// passed (at least [`MIN_REPS`] times) and returns the end-to-end metrics
/// and the output digest.
fn untraced(
    workload: BenchWorkload,
    kernels: &[Workload],
    seconds: f64,
    dir: &Path,
    checks: &mut Checks,
) -> (BTreeMap<String, f64>, u64) {
    let start = Instant::now();
    let (mut setup, mut wall, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    while setup.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (timing, digest) = match workload {
            BenchWorkload::ExactTable1 => {
                let (timing, results) = exact_rep(kernels, checks);
                (timing, cells_digest(results.cells()))
            }
            BenchWorkload::SampledStream => {
                fresh_dir(dir);
                let (timing, results) = stream_rep(kernels, dir, checks);
                (timing, cells_digest(results.cells()))
            }
            BenchWorkload::ModelCheck => {
                let (timing, (msp, cpr)) = check_rep(checks);
                (timing, reports_digest(&msp, &cpr))
            }
        };
        eprintln!(
            "msp-perfbench: {} repetition {}: setup_s {:.6} wall_s {:.6}",
            workload.name(),
            setup.len() + 1,
            timing.setup_s,
            timing.wall_s
        );
        setup.push(timing.setup_s);
        wall.push(timing.wall_s);
        digests.push(digest);
    }
    checks.expect(digests.iter().all(|&d| d == digests[0]), || {
        format!("{}: repetitions disagree on their output", workload.name())
    });
    let metrics = BTreeMap::from([
        ("setup_s".to_string(), median(&mut setup)),
        ("wall_s".to_string(), median(&mut wall)),
        ("peak_rss_mib".to_string(), peak_rss_mib()),
    ]);
    (metrics, digests[0])
}

fn result_json(
    checks: &Checks,
    names: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("msp-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = WorkDir(root.join(format!("{}-{}", args.workload.name(), std::process::id())));
    fresh_dir(&work.0);
    let mut checks = Checks::default();
    let kernels = kernels(args.seed);
    let (names, values, digest) = if args.trace {
        let (values, digest, passes) =
            traced::run(args.workload, &kernels, args.seconds, &work.0, &mut checks);
        let spans_dir = root.join("spans");
        std::fs::create_dir_all(&spans_dir).expect("create the spans directory");
        let path = spans_dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
        std::fs::write(
            &path,
            spans::to_json(args.workload.name(), args.seed, &passes),
        )
        .expect("write the spans");
        eprintln!("msp-perfbench: spans written to {}", path.display());
        (per_layer(), values, digest)
    } else {
        let (values, digest) =
            untraced(args.workload, &kernels, args.seconds, &work.0, &mut checks);
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (names, values, digest)
    };
    let kernels = match args.workload {
        BenchWorkload::ModelCheck => "-".to_string(),
        _ => kernels
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(","),
    };
    println!(
        "digest {} seed={} kernels={kernels} fnv1a={digest:016x}",
        args.workload.name(),
        args.seed
    );
    println!("{}", result_json(&checks, &names, &values));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in names
            .iter()
            .map(|(n, u)| (n.as_str(), *u))
            .chain(END_TO_END)
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let args = parse("--workload model_check --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, BenchWorkload::ModelCheck);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
        assert_eq!(parse("--workload exact_table1").unwrap().seed, DEFAULT_SEED);
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload exact_table1 --trace 2").is_err());
        assert!(parse("--workload exact_table1 --seconds 0").is_err());
        assert!(parse("--workload exact_table1 --seed").is_err());
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
