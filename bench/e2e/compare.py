#!/usr/bin/env python3
"""Compares two sets of bench_e2e records: one verdict per workload x metric.

    python3 bench/e2e/compare.py --base BASE... --new NEW... [--json]
    python3 bench/e2e/compare.py --selftest

BASE and NEW are detailed records (run.py writes them to
.bench_build/e2e-results/), files holding a list of records (like
baselines/host4c.json), or directories of either. Traced and untraced
records are compared separately. List the runs in the order they were
made: the i-th base and the i-th new run form a pair, so alternate
which side runs first.

Verdicts, per metric kind (each record states it):

  sim / count   A pure function of the seed, compared exactly on the
                seeds both sides ran: unchanged when equal everywhere,
                regressed when worse on any seed, improved otherwise.
                Unresolved when no seed is shared.
  wall          unchanged when every reading on both sides is the same
                (a stage a workload never enters reads 0).
                improved: at least 10 pairs, the new run wins at least
                9 in 10 of them (ties count for neither), and the
                medians differ by more than the base runs' IQR.
                unresolved: fewer than 2 runs on a side; the base
                spread (IQR / median) exceeds the metric's bound and not
                every new run beats every base run; or the two sides ran
                on hosts with a different hardware_concurrency.
                regressed: the new median is worse than the base median
                by more than the metric's bound. When the host-noise
                canary drifted more than 10% (within a run, or between
                the two sides) this is reported as unresolved instead.
                unchanged: anything else.

Exit status 1 when any metric regressed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
CANARY_DRIFT = 0.10

RECORD_KEYS = {"schema", "workload", "seed", "seconds", "trace", "smoke",
               "host", "correct", "attempted", "failed", "failures",
               "metrics", "summary"}
HOST_KEYS = {"hardware_concurrency", "width_n", "fs_type",
             "verify_per_s_start", "verify_per_s_end"}
METRIC_KEYS = {"value", "unit", "kind", "better", "bound", "samples"}


def schema_problems(rec):
    """What is wrong with one detailed record (empty when it is valid)."""
    if not isinstance(rec, dict):
        return ["record is not an object"]
    problems = []
    if set(rec) != RECORD_KEYS:
        problems.append(f"record keys {sorted(set(rec) ^ RECORD_KEYS)} differ")
    if rec.get("schema") != "vegvisir-bench-e2e/1":
        problems.append("unknown schema")
    host = rec.get("host", {})
    if not isinstance(host, dict) or set(host) != HOST_KEYS:
        problems.append("host keys differ")
    metrics = rec.get("metrics", {})
    if not isinstance(metrics, dict) or not metrics:
        problems.append("no metrics")
        metrics = {}
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != METRIC_KEYS:
            problems.append(f"{name}: keys differ")
            continue
        if m["kind"] not in ("wall", "sim", "count"):
            problems.append(f"{name}: kind {m['kind']}")
        if m["better"] not in ("higher", "lower"):
            problems.append(f"{name}: better {m['better']}")
        if not all(isinstance(m[k], (int, float)) for k in ("value", "bound", "samples")):
            problems.append(f"{name}: non-numeric field")
    if "failed_frac" not in metrics:
        problems.append("no failed_frac")
    return problems


def load(paths):
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            data = json.loads(f.read_text())
            records.extend(data if isinstance(data, list) else [data])
    return records


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def _better(a, b, higher):
    """True when value a reads better than value b."""
    return a > b if higher else a < b


def _drifted(base, new):
    def start(r):
        return r["host"]["verify_per_s_start"]

    for r in base + new:
        s, e = start(r), r["host"]["verify_per_s_end"]
        if s <= 0 or abs(e / s - 1) > CANARY_DRIFT:
            return True
    b = statistics.median(map(start, base))
    n = statistics.median(map(start, new))
    return b <= 0 or abs(n / b - 1) > CANARY_DRIFT


def judge_exact(base, new, name, higher):
    def by_seed(records):
        out = {}
        for r in records:
            out.setdefault(r["seed"], set()).add(r["metrics"][name]["value"])
        return out

    b, n = by_seed(base), by_seed(new)
    if any(len(v) > 1 for v in list(b.values()) + list(n.values())):
        return "unresolved", "differs between runs of one seed"
    shared = sorted(set(b) & set(n))
    if not shared:
        return "unresolved", "no seed run on both sides"
    diffs = [(next(iter(b[s])), next(iter(n[s]))) for s in shared]
    if all(x == y for x, y in diffs):
        return "unchanged", f"equal on {len(shared)} seeds"
    if any(_better(x, y, higher) for x, y in diffs):
        return "regressed", "worse on some seed"
    return "improved", f"better on seeds {shared}"


def judge_wall(base, new, name, higher, bound, drift):
    b = [r["metrics"][name]["value"] for r in base]
    n = [r["metrics"][name]["value"] for r in new]
    if len(set(b + n)) == 1:
        return "unchanged", f"{b[0]:.6g} in every run"
    if len(b) < 2 or len(n) < 2:
        return "unresolved", "needs at least 2 runs on each side"
    bmed, nmed = statistics.median(b), statistics.median(n)
    iqr = _iqr(b)
    spread = iqr / abs(bmed) if bmed else float("inf")
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    worse = -change if higher else change
    pairs = list(zip(b, n))
    wins = sum(1 for x, y in pairs if _better(y, x, higher))
    all_better = all(_better(y, x, higher) for x in b for y in n)
    note = f"{bmed:.6g} -> {nmed:.6g} ({change:+.1%}), base spread {spread:.1%}, bound {bound:.0%}"
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and _better(nmed, bmed, higher) and abs(nmed - bmed) > iqr):
        return "improved", note + f", won {wins}/{len(pairs)} pairs"
    if spread > bound and not all_better:
        return "unresolved", note + ": base spread exceeds the bound"
    if worse > bound:
        if drift:
            return "unresolved", note + ": host canary drifted over 10%"
        return "regressed", note
    return "unchanged", note


def compare(base_records, new_records):
    """[(workload, trace, metric, verdict, note)] for every shared metric."""
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in base_records}
                    & {(r["workload"], r["trace"]) for r in new_records})
    for workload, trace in groups:
        base = [r for r in base_records
                if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_records
               if (r["workload"], r["trace"]) == (workload, trace)]
        same_host = ({r["host"]["hardware_concurrency"] for r in base}
                     == {r["host"]["hardware_concurrency"] for r in new})
        drift = _drifted(base, new)
        names = set(base[0]["metrics"])
        for r in base + new:
            names &= set(r["metrics"])
        for name in sorted(names):
            m = base[0]["metrics"][name]
            higher = m["better"] == "higher"
            if m["kind"] != "wall":
                verdict, note = judge_exact(base, new, name, higher)
            elif not same_host:
                verdict, note = "unresolved", "hosts differ in hardware_concurrency"
            else:
                verdict, note = judge_wall(base, new, name, higher, m["bound"], drift)
            rows.append((workload, trace, name, verdict, note))
    return rows


def _expand(case, side):
    """Full records from one compact selftest case side."""
    records = []
    count = len(next(iter(case["metrics"].values()))[side])
    for i in range(count):
        start, end = case.get(f"{side}_canary", [5000, 5000])
        metrics = {}
        for name, m in case["metrics"].items():
            metrics[name] = {"value": m[side][i], "unit": m["unit"],
                             "kind": m["kind"], "better": m["better"],
                             "bound": m.get("bound", 0), "samples": 1}
        metrics["failed_frac"] = {"value": 0, "unit": "frac", "kind": "count",
                                  "better": "lower", "bound": 0, "samples": 1}
        records.append({
            "schema": "vegvisir-bench-e2e/1", "workload": "w", "seed": i + 1,
            "seconds": 10, "trace": 0, "smoke": False,
            "host": {"hardware_concurrency": case.get(f"{side}_hc", 4),
                     "width_n": 2, "fs_type": "ext4",
                     "verify_per_s_start": start, "verify_per_s_end": end},
            "correct": True, "attempted": 1, "failed": 0, "failures": [],
            "metrics": metrics, "summary": {}})
    return records


def selftest():
    cases = json.loads((HERE / "testdata" / "selftest_cases.json").read_text())
    failures = 0
    for case in cases:
        base, new = _expand(case, "base"), _expand(case, "new")
        for rec in base + new:
            if schema_problems(rec):
                print(f"FAIL {case['name']}: fixture record invalid: "
                      f"{schema_problems(rec)}")
                failures += 1
        got = {name: verdict for _, _, name, verdict, _ in compare(base, new)}
        for name, want in case["expect"].items():
            if got.get(name) != want:
                print(f"FAIL {case['name']}: {name} is {got.get(name)}, want {want}")
                failures += 1
    broken = _expand(cases[0], "base")[0]
    del broken["host"]
    if not schema_problems(broken):
        print("FAIL schema_problems accepts a record without host")
        failures += 1
    print(f"compare.py selftest: {len(cases)} cases, "
          f"{'ok' if not failures else f'{failures} failures'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--new", nargs="+", default=[])
    ap.add_argument("--json", action="store_true", help="print rows as JSON")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base or not args.new:
        ap.error("--base and --new are required")
    base, new = load(args.base), load(args.new)
    for rec in base + new:
        if schema_problems(rec):
            print(f"invalid record: {schema_problems(rec)}", file=sys.stderr)
            return 2
    rows = compare(base, new)
    if args.json:
        print(json.dumps([dict(zip(("workload", "trace", "metric", "verdict",
                                    "note"), r)) for r in rows], indent=1))
    else:
        for workload, trace, name, verdict, note in rows:
            print(f"{workload:12s} {'traced ' if trace else ''}{name:32s} "
                  f"{verdict:10s} {note}")
    return 1 if any(r[3] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
