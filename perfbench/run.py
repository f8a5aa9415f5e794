#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload exact_table1 --seed 0 --seconds 35 --trace 0

The arguments go to the `msp-perfbench` binary unchanged (see
perfbench/src/main.rs). The binary is built with `cargo build --release
--offline` into $CARGO_TARGET_DIR, or `.bench_build` at the repository root
when that is unset. The last line of standard output is the binary's JSON
result, after this script has checked that its metrics are exactly the ones
BENCHMARK.json lists for the mode (`--trace 0`: end_to_end, `--trace 1`:
per_layer). Exits non-zero, printing no result, if the repository's sources
are missing, the build fails, or the binary fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"the last output line is not JSON ({e})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")


def main():
    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("the build failed")
    args = sys.argv[1:]
    run = subprocess.run([os.path.join(target, "release", "msp-perfbench"), *args],
                         cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"the benchmark exited with code {run.returncode}")
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    check_result(lines[-1], trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
