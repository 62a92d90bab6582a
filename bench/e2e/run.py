#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload catchup --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/bench_e2e under the repository root,
durable stores to .bench_build/e2e-data/ (removed afterwards), and the
detailed record compare.py reads to .bench_build/e2e-results/ (or
--out). The last line of stdout is the benchmark's JSON result.

    python3 bench/e2e/run.py --smoke [--binary PATH]

runs every workload at tiny sizes, traced and untraced, checks each
result against BENCHMARK.json and the detailed-record schema, then runs
compare.py --selftest. This is the bench.e2e_smoke test.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("catchup", "local_write", "restart", "field")
BUILD_ROOT = ROOT / ".bench_build"
# The compiler's temporary files stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(BUILD_ROOT / "tmp"))
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no Vegvisir sources under {ROOT}; cannot build")
        return None
    out = BUILD_ROOT / "bench_e2e"
    Path(ENV["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            log("run.py: build failed:", " ".join(cmd))
            return None
    return out / "bench_e2e"


def run(binary, workload, seed, seconds, trace, out, smoke=False, capture=False):
    data = BUILD_ROOT / "e2e-data" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", str(data), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return proc.returncode, proc.stdout or ""


def check_line(line, spec, trace):
    """Problems with one result line, judged against BENCHMARK.json."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append("outputs not correct")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted < 1")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}"
                        f", extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import compare  # noqa: E402  (lives beside this file)

    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = BUILD_ROOT / "e2e-results" / f"smoke-{workload}-t{trace}.json"
            code, stdout = run(binary, workload, 1, 0.1, trace, out,
                               smoke=True, capture=True)
            lines = stdout.strip().splitlines()
            problems = [f"exit code {code}"] if code else []
            problems += check_line(lines[-1], spec, trace) if lines else ["no output"]
            try:
                problems += compare.schema_problems(json.loads(out.read_text()))
            except (OSError, json.JSONDecodeError) as e:
                problems.append(f"detailed record: {e}")
            status = "ok" if not problems else "; ".join(problems)
            log(f"smoke {workload} trace={trace}: {status}")
            if problems:
                failures.append(workload)
    if compare.selftest() != 0:
        failures.append("compare.py --selftest")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", type=Path, help="use this bench_e2e; skip the build")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    binary = args.binary or build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    out = args.out or (BUILD_ROOT / "e2e-results" /
                       f"{args.workload}-s{args.seed}-t{args.trace}.json")
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace,
                  out.resolve())
    return code


if __name__ == "__main__":
    sys.exit(main())
