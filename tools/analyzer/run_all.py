#!/usr/bin/env python3
"""One-process driver for the analyzer wall.

Runs every static pass that gates CI — wire_taint, det_taint,
lock_graph (each: fixture selftest + full src sweep) and
vegvisir_lint — with the compile database parsed ONCE and shared
across analyzers, and per-pass wall-time printed so a slow pass is
visible before it becomes a CI budget problem.

The individual tools remain runnable on their own (same findings,
same exit codes); this driver exists so the CI jobs and a developer's
pre-push check are one command:

    tools/analyzer/run_all.sh --compile-commands build/compile_commands.json

Exit 0 only when every pass is green.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import time

TOOL_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOL_DIR))

import det_taint as dt  # noqa: E402
import lock_graph as lg  # noqa: E402
import wire_taint as wt  # noqa: E402

ROOT = TOOL_DIR.parent.parent


def load_compile_db(path, root):
    """Parses compile_commands.json once into repo-relative paths.

    Returns None when there is no database (callers fall back to a
    src/ sweep), else the sorted list of TU paths under the repo."""
    if path is None or not pathlib.Path(path).exists():
        return None
    rels = set()
    for entry in json.loads(pathlib.Path(path).read_text()):
        p = pathlib.Path(entry["file"])
        if not p.is_absolute():
            p = pathlib.Path(entry["directory"]) / p
        try:
            rels.add(p.resolve().relative_to(root))
        except ValueError:
            continue
    return sorted(rels)


def scoped_files(db_rels, root, scope):
    """Applies one analyzer's in_scope predicate to the shared DB
    load, mirroring wire_taint.collect_files: DB names only .cpp TUs,
    so sibling headers in scanned directories are swept in too."""
    if db_rels is None:
        return sorted(
            p.resolve().relative_to(root)
            for p in (root / "src").rglob("*")
            if p.suffix in (".h", ".cpp")
            and scope(p.resolve().relative_to(root)))
    files = {rel for rel in db_rels if scope(rel)}
    for rel in sorted(files):
        for p in sorted((root / rel.parent).glob("*.h")):
            prel = p.resolve().relative_to(root)
            if scope(prel):
                files.add(prel)
    return sorted(files)


def src_pass(mod, name, files, frontend, compile_commands):
    """Full-tree sweep for one analyzer; prints that analyzer's own
    clean line / findings. Returns 0 when clean."""
    allow_path = TOOL_DIR / f"{name}_allow.txt"
    tcb, allows = wt.load_allow(allow_path)
    if mod is lg:
        findings, _prog = lg.analyze_tree(files, ROOT, tcb)
    else:
        findings = mod.analyze_tree(files, ROOT, tcb, frontend,
                                    compile_commands)
    visible = [f for f in findings if not wt.allowed(f, allows)]
    stale = wt.stale_entries(findings, tcb, allows, ROOT)
    for finding in sorted(visible, key=lambda f: (f.path, f.line)):
        print(finding)
    for entry in stale:
        print(f"{allow_path}: stale entry: {entry}")
    if visible or stale:
        print(f"{len(visible)} finding(s) ({len(findings) - len(visible)} "
              f"suppressed by {allow_path}), {len(stale)} stale "
              f"entry(ies)", file=sys.stderr)
        return 1
    print(f"{name}: {len(files)} files clean "
          f"({len(findings) - len(visible)} suppressed, "
          f"{len(tcb)} TCB files)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compile-commands",
                        default=str(ROOT / "build/compile_commands.json"),
                        help="shared compile DB (parsed once); falls back "
                             "to a src/ sweep when absent")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "clang", "tokens"))
    parser.add_argument("--skip-selftests", action="store_true",
                        help="src sweeps and lint only")
    args = parser.parse_args()

    frontend = args.frontend
    if frontend == "auto":
        import shutil
        frontend = "clang" if shutil.which("clang") else "tokens"

    db_rels = load_compile_db(args.compile_commands, ROOT)
    cc = args.compile_commands if db_rels is not None else None
    if db_rels is None:
        print("run_all: no compile DB, sweeping src/ directly",
              file=sys.stderr)

    passes = []
    if not args.skip_selftests:
        passes += [
            ("wire_taint selftest",
             lambda: wt.run_selftest(TOOL_DIR / "fixtures", ROOT)),
            ("det_taint selftest",
             lambda: dt.run_selftest(TOOL_DIR / "fixtures" / "det", ROOT)),
            ("lock_graph selftest",
             lambda: lg.run_selftest(TOOL_DIR / "fixtures" / "lock", ROOT)),
        ]
    passes += [
        ("wire_taint src",
         lambda: src_pass(wt, "wire_taint",
                          scoped_files(db_rels, ROOT, wt.in_scope),
                          frontend, cc)),
        ("det_taint src",
         lambda: src_pass(dt, "det_taint",
                          scoped_files(db_rels, ROOT, dt.in_scope),
                          frontend, cc)),
        ("lock_graph src",
         lambda: src_pass(lg, "lock_graph",
                          scoped_files(db_rels, ROOT, lg.in_scope),
                          frontend, cc)),
        ("vegvisir_lint",
         lambda: subprocess.call(
             [sys.executable,
              str(ROOT / "tools" / "lint" / "vegvisir_lint.py"),
              str(ROOT)])),
    ]

    failures = []
    t_all = time.monotonic()
    for i, (name, run) in enumerate(passes, 1):
        print(f"--- [{i}/{len(passes)}] {name}", flush=True)
        t0 = time.monotonic()
        rc = run()
        dt_s = time.monotonic() - t0
        status = "PASS" if rc == 0 else f"FAIL (exit {rc})"
        print(f"--- [{i}/{len(passes)}] {name}: {status} [{dt_s:.2f}s]",
              flush=True)
        if rc != 0:
            failures.append(name)
    total = time.monotonic() - t_all
    if failures:
        print(f"run_all: {len(failures)}/{len(passes)} pass(es) FAILED "
              f"in {total:.2f}s: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"run_all: {len(passes)}/{len(passes)} passes green "
          f"in {total:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
