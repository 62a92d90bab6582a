#!/usr/bin/env python3
"""Determinism-taint dataflow analyzer: proves no nondeterministic
ordering reaches an order-sensitive sink.

Vegvisir's convergence guarantee is byte-level: two partitions that
reconcile must hold identical DAGs, digests and CSM fingerprints, and
tools/determinism_check verifies that *dynamically* for the seeds it
happens to run. This tool makes the complementary guarantee *static*:
no value whose ordering depends on hash-table layout, pointer values
or the wall clock may flow into a serializer, digest, exported
snapshot or file without being canonicalized first.

Taxonomy (DESIGN.md section 14):

  sources     iteration over std::unordered_map/unordered_set (bucket
              order is salt- and history-dependent), iteration over a
              pointer-keyed std::map/std::set (ordered by address),
              reinterpret_cast of a pointer to an integer, and
              wall-clock/rand reads outside src/sim.
  sinks       serializer Write* calls, hasher Update / Sha256::Hash,
              stream/printf emission, file writes, invoking a caller-
              supplied callback with a tainted argument, and returning
              an order-tainted sequence to the caller.
  sanitizers  std::sort/std::stable_sort over the tainted sequence,
              or inserting into an ordered std::set/std::map (sorted
              containers canonicalize on the way in; a subscript or
              insert is a keyed store, not an ordered emission).

The analysis is intraprocedural over each function body in statement
order (the same tokens front-end as wire_taint.py), with one-level
helper summaries: a helper whose parameter reaches an ordered sink
propagates the finding to callers passing it order-tainted arguments,
and a helper that sorts a parameter sanitizes the caller's argument.

Suppressions live ONLY in tools/analyzer/det_taint_allow.txt (one
reviewed file; every entry must argue order-insensitivity, e.g. a
commutative sum/count fold). Inline annotations in src/ are rejected
by tools/lint/vegvisir_lint.py.

Usage:
  det_taint.py [--compile-commands build/compile_commands.json]
               [--src-root src] [--allow tools/analyzer/det_taint_allow.txt]
               [--frontend auto|clang|tokens] [--json FILE] [--selftest]

Exit 0 when clean; 1 with one `file:line: [sink] message` per finding.
"""

import argparse
import json
import pathlib
import re
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import wire_taint as wt  # noqa: E402  (tokens front-end + allow-file)

# Every directory under src/ is in scope: ordering leaks are not
# confined to the wire layer (telemetry export and sim report files
# are sinks too).
SCAN_DIRS = ("baseline", "chain", "crdt", "crypto", "csm", "exec", "node",
             "recon", "serial", "setdiff", "sim", "storage", "support",
             "telemetry", "util")

UNORDERED_DECL = re.compile(
    r"\b(?:std\s*::\s*)?(unordered_(?:map|set|multimap|multiset))\s*<")
POINTER_KEYED_DECL = re.compile(
    r"\b(?:std\s*::\s*)?(map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*")
# Wall-clock / entropy reads. src/sim owns the *simulated* clock and
# the seeded Drbg, so these only fire outside it (vegvisir_lint rule 1
# bans the raw calls everywhere; this adds the flow to a sink).
NONDET_CALLS = re.compile(
    r"\b(?:std\s*::\s*)?(?:chrono\s*::\s*(?:system_clock|steady_clock|"
    r"high_resolution_clock)\s*::\s*now|time|gettimeofday|clock_gettime|"
    r"rand|random_device)\s*(?:\(|\{)")

# Callable parameter heuristics: a parameter whose type mentions
# std::function (or an obvious callback alias) is a caller-visible
# emission channel — invoking it with order-tainted data leaks bucket
# order across the API boundary.
CALLABLE_TYPE = re.compile(r"\bfunction\s*<|\bCallback\b|\bVisitor\b")

SORT_CALLS = r"sort|stable_sort"
SEQ_APPEND = r"push_back|emplace_back|push_front|append"


def match_angle(text, open_pos):
    """Index just past the template-argument list opening at open_pos."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def collect_unordered_vars(stripped):
    """Names declared with an unordered or pointer-keyed container
    type anywhere in the file (members and locals alike — the
    analysis is per function, so over-collecting is harmless)."""
    out = {}
    for m in UNORDERED_DECL.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        nm = re.match(r"\s*(\w+)\s*[;={(]", stripped[close:])
        if nm:
            out[nm.group(1)] = f"unordered-iter({nm.group(1)})"
    for m in POINTER_KEYED_DECL.finditer(stripped):
        close = match_angle(stripped, m.start() + stripped[m.start():].index("<"))
        nm = re.match(r"\s*(\w+)\s*[;={(]", stripped[close:])
        if nm:
            out[nm.group(1)] = f"pointer-key-iter({nm.group(1)})"
    return out


def callable_params(params_text):
    """Names of parameters with a callable type."""
    names = set()
    depth = 0
    current = []
    parts = []
    for ch in params_text:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    for part in parts:
        part = part.split("=")[0].strip()
        m = re.search(r"([\w]+)\s*$", part)
        if m and CALLABLE_TYPE.search(part[:m.start()]):
            names.add(m.group(1))
    return names


def loop_vars(decl):
    """Loop variable names from a range-for declaration, handling
    structured bindings (`const auto& [k, v]`)."""
    binding = re.search(r"\[([^\]]*)\]", decl)
    if binding:
        return [v.strip() for v in binding.group(1).split(",") if v.strip()]
    m = re.search(r"([\w]+)\s*$", decl)
    return [m.group(1)] if m else []


class Summary:
    def __init__(self):
        self.sink_params = {}   # index -> sink kind
        self.sort_params = set()


class Analyzer:
    def __init__(self, summaries=None, wall_clock_sources=True):
        self.summaries = summaries or {}
        self.wall_clock_sources = wall_clock_sources

    # -- expression taint ------------------------------------------------
    def expr_taint(self, expr, taint):
        """Returns (var, source) of the first order taint reachable in
        `expr` outside a key position, else None."""
        flat = re.sub(r"\s+", " ", expr)
        for name, (source, _line) in taint.items():
            pat = re.escape(name).replace(r"\.", r"(?:\.|->)\s*")
            for m in re.finditer(r"\b" + pat + r"\b", flat):
                if wt.in_key_context(flat, m.start()):
                    continue  # key position: selects an entry, no flow
                return (name, source)
        return None

    def any_arg_taint(self, flat, open_paren, taint):
        for arg in wt.split_args(flat, open_paren):
            hit = self.expr_taint(arg, taint)
            if hit:
                return hit
        return None

    # -- one function ----------------------------------------------------
    def analyze(self, fn, unordered, seed_params=False):
        taint = {}      # name -> (source-desc, line)
        findings = []
        param_names = {}
        sorted_params = set()
        callables = callable_params(fn.params)

        if seed_params:
            for idx, (pname, _pint, _out) in enumerate(
                    wt.parse_params(fn.params)):
                if pname and pname not in callables:
                    param_names[pname] = idx
                    taint[pname] = (f"param #{idx}", fn.line)

        def add_finding(stmt, line, sink, var, source):
            findings.append(wt.Finding(
                fn.path, line, fn.name, sink, var, source,
                f"order-tainted '{var}' (from {source}) reaches {sink} "
                f"without canonicalization: `{wt.snip(stmt)}`"))

        for stmt, line in wt.split_statements(fn.body, fn.line):
            flat = re.sub(r"\s+", " ", stmt)

            # --- sanitizers first: sorting a sequence canonicalizes it
            # for every later statement (and, via summaries, for the
            # caller when the sequence is a parameter).
            for m in re.finditer(
                    r"\bstd\s*::\s*(?:" + SORT_CALLS +
                    r")\s*\(\s*([\w.\->\[\]]+?)\s*(?:\.|->)\s*c?begin\b",
                    flat):
                name = wt.norm(m.group(1))
                for key in [k for k in taint
                            if k == name or wt.base_of(k) == name]:
                    taint.pop(key, None)
                if name in param_names:
                    sorted_params.add(name)

            # helper summaries: calls that sort or sink their params
            for m in re.finditer(r"\b(\w+)\s*\(", flat):
                callee = m.group(1)
                summary = self.summaries.get(callee)
                if summary is None:
                    continue
                args = wt.split_args(flat, m.end() - 1)
                for idx in summary.sort_params:
                    if idx < len(args):
                        hit = self.expr_taint(args[idx], taint)
                        if hit:
                            var = hit[0]
                            for key in [k for k in taint
                                        if k == var or wt.base_of(k) == var]:
                                taint.pop(key, None)
                            if var in param_names:
                                sorted_params.add(var)
                for idx, sink in summary.sink_params.items():
                    if idx < len(args):
                        hit = self.expr_taint(args[idx], taint)
                        if hit:
                            add_finding(stmt, line, f"helper-sink:{callee}",
                                        hit[0], hit[1])

            # --- sinks
            for m in re.finditer(r"\b(Write[A-Z]\w*)\s*\(", flat):
                hit = self.any_arg_taint(flat, m.end() - 1, taint)
                if hit:
                    add_finding(stmt, line, "serialize", hit[0], hit[1])
            for m in re.finditer(
                    r"(?:(?:\.|->)\s*Update|\bSha256\s*::\s*Hash)\s*\(",
                    flat):
                hit = self.any_arg_taint(
                    flat, flat.index("(", m.start()), taint)
                if hit:
                    add_finding(stmt, line, "digest", hit[0], hit[1])
            if re.search(r"\b(?:os|out|oss|ss|stream|std\s*::\s*cout|"
                         r"std\s*::\s*cerr)\b[^;]*<<", flat):
                hit = self.expr_taint(flat.split("<<", 1)[1], taint)
                if hit:
                    add_finding(stmt, line, "emit", hit[0], hit[1])
            for m in re.finditer(
                    r"\b(?:printf|fprintf|snprintf|sprintf)\s*\(", flat):
                hit = self.any_arg_taint(flat, m.end() - 1, taint)
                if hit:
                    add_finding(stmt, line, "emit", hit[0], hit[1])
            for m in re.finditer(
                    r"\b(?:fwrite|fputs|DurableWriteFile|AppendToFile|"
                    r"WriteFile)\s*\(", flat):
                hit = self.any_arg_taint(flat, m.end() - 1, taint)
                if hit:
                    add_finding(stmt, line, "file-write", hit[0], hit[1])
            for name in callables:
                for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(",
                                     flat):
                    hit = self.any_arg_taint(flat, m.end() - 1, taint)
                    if hit:
                        add_finding(stmt, line, "callback-emit",
                                    hit[0], hit[1])
            rm = re.match(r"return\b(.*)$", flat)
            if rm:
                hit = self.expr_taint(rm.group(1), taint)
                if hit is None:
                    # A returned aggregate leaks through any tainted
                    # member (`result.items` tainted, `return result`).
                    ret = re.match(r"\s*([\w]+)\s*$", rm.group(1))
                    if ret:
                        for key, (source, _l) in taint.items():
                            if wt.base_of(key) == ret.group(1):
                                hit = (key, source)
                                break
                if hit:
                    add_finding(stmt, line, "unordered-return",
                                hit[0], hit[1])

            # --- sources (taint introduced for subsequent statements)
            fresh = set()  # tainted by THIS statement's source scan
            # `\b...search`, not match: the statement splitter glues a
            # method's trailing `const` onto the loop header.
            fm = re.search(r"\bfor\s*\((.*)\)\s*$", flat)
            if fm and ";" not in fm.group(1):
                # Range-for. Split declaration from container at the
                # lone colon (`::` scope qualifiers have neighbours).
                parts = re.split(r"(?<!:):(?!:)", fm.group(1), maxsplit=1)
                if len(parts) == 2:
                    decl, container = parts
                    base = wt.base_of(wt.norm(container))
                    hit = self.expr_taint(container, taint)
                    for v in loop_vars(decl):
                        if base in unordered:
                            taint[v] = (unordered[base], line)
                        elif hit:
                            # Iterating a sequence filled in
                            # nondeterministic order yields its
                            # elements in that order.
                            taint[v] = (hit[1], line)
                        else:
                            # Rebinding over a clean container kills
                            # any taint a previous loop left on the
                            # same variable name.
                            taint.pop(v, None)
            for m in re.finditer(
                    r"(\w+)\s*=\s*([\w.\->]+)\s*(?:\.|->)\s*c?begin\s*\(",
                    flat):
                if wt.base_of(m.group(2)) in unordered:
                    taint[m.group(1)] = (
                        unordered[wt.base_of(m.group(2))], line)
                    fresh.add(m.group(1))
            for m in re.finditer(
                    r"([\w.\->\[\]]+)\s*=[^=].*?reinterpret_cast\s*<\s*"
                    r"(?:std\s*::\s*)?u?intptr_t\s*>", flat):
                taint[wt.norm(m.group(1))] = ("pointer-value", line)
                fresh.add(wt.norm(m.group(1)))
            if self.wall_clock_sources and NONDET_CALLS.search(flat):
                am = re.match(
                    r"(?:[\w:<>,\s&*]+?\s)?([\w.\->\[\]]+)\s*=[^=]", flat)
                if am:
                    taint[wt.norm(am.group(1))] = ("wall-clock", line)
                    fresh.add(wt.norm(am.group(1)))

            # --- propagation
            for m in re.finditer(
                    r"([\w.\->\[\]]+)\s*(?:\.|->)\s*(?:" + SEQ_APPEND +
                    r")\s*\(", flat):
                hit = self.any_arg_taint(flat, flat.index("(", m.end() - 2),
                                         taint)
                if hit:
                    target = wt.norm(m.group(1))
                    if "[" not in target:
                        taint.setdefault(target, (hit[1], line))
            am = re.match(
                r"(?:[\w:<>,\s&*]+?\s)?([\w.\->\[\]]+)\s*([+\-|&^]?)="
                r"([^=].*)$", flat)
            if am and "==" not in flat[:am.end(2) + 2]:
                lhs = wt.norm(am.group(1))
                # Subscript writes are keyed stores (order-insensitive
                # into a map), so they neither taint nor clean.
                if "[" not in lhs:
                    hit = self.expr_taint(am.group(3), taint)
                    if hit:
                        taint[lhs] = (hit[1], line)
                    elif am.group(2) == "" and lhs not in fresh:
                        # Plain `=` from a clean RHS is a strong
                        # update; compound assignment keeps whatever
                        # taint the accumulator already carries.
                        taint.pop(lhs, None)

        return findings, param_names, sorted_params


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def in_scope(rel):
    parts = rel.parts
    return len(parts) >= 2 and parts[0] == "src" and parts[1] in SCAN_DIRS


def collect_files(args, root):
    """wire_taint.collect_files with this tool's broader scope."""
    saved = wt.in_scope
    wt.in_scope = in_scope
    try:
        return wt.collect_files(args, root)
    finally:
        wt.in_scope = saved


def build_summaries(functions, unordered_by_path, wall_clock_by_path):
    summaries = {}
    for _ in range(2):
        next_summaries = {}
        analyzer = Analyzer(summaries)
        for fn in functions:
            analyzer.wall_clock_sources = wall_clock_by_path.get(
                fn.path, True)
            findings, param_names, sorted_params = analyzer.analyze(
                fn, unordered_by_path.get(fn.path, {}), seed_params=True)
            summary = Summary()
            for finding in findings:
                if finding.source.startswith("param #"):
                    idx = int(finding.source.split("#")[1])
                    summary.sink_params.setdefault(idx, finding.sink)
            for pname in sorted_params:
                summary.sort_params.add(param_names[pname])
            if summary.sink_params or summary.sort_params:
                prev = next_summaries.get(fn.name)
                if prev:  # same-named helpers: union conservatively
                    prev.sink_params.update(summary.sink_params)
                    prev.sort_params &= summary.sort_params
                else:
                    next_summaries[fn.name] = summary
        summaries = next_summaries
    return summaries


def analyze_tree(files, root, tcb, frontend, compile_commands):
    all_functions = []
    unordered_by_path = {}
    wall_clock_by_path = {}
    for rel in files:
        if str(rel) in tcb:
            continue
        text = (root / rel).read_text()
        stripped = wt.strip_code(text)
        unordered = collect_unordered_vars(stripped)
        # Members live in the paired header (dag.cpp's entries_ is
        # declared in dag.h); method bodies in the .cpp iterate them.
        if rel.suffix == ".cpp":
            header = rel.with_suffix(".h")
            if (root / header).exists():
                merged = collect_unordered_vars(
                    wt.strip_code((root / header).read_text()))
                merged.update(unordered)  # own decls shadow the header
                unordered = merged
        unordered_by_path[str(rel)] = unordered
        wall_clock_by_path[str(rel)] = rel.parts[:2] != ("src", "sim")
        if frontend == "clang":
            ranges = wt.clang_function_ranges(rel, root, compile_commands)
            if ranges is not None:
                for _name, begin, end in ranges:
                    segment = stripped[begin:end]
                    fns = wt.extract_functions(str(rel), segment)
                    for fn in fns:
                        fn.line += stripped.count("\n", 0, begin)
                    all_functions.extend(fns)
                continue
        all_functions.extend(wt.extract_functions(str(rel), stripped))

    summaries = build_summaries(all_functions, unordered_by_path,
                                wall_clock_by_path)
    analyzer = Analyzer(summaries)
    findings = []
    for fn in all_functions:
        analyzer.wall_clock_sources = wall_clock_by_path.get(fn.path, True)
        fn_findings, _p, _s = analyzer.analyze(
            fn, unordered_by_path.get(fn.path, {}), seed_params=False)
        findings.extend(fn_findings)
    return findings


# ---------------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------------

def run_selftest(fixtures_dir, root):
    failures = []
    checked = 0
    for kind in ("good", "bad"):
        for path in sorted((fixtures_dir / kind).glob("*.cpp")):
            text = path.read_text()
            expect = re.search(r"//\s*det-expect:\s*(.+)", text)
            if not expect:
                failures.append(f"{path}: missing `// det-expect:` header")
                continue
            spec = expect.group(1).strip()
            rel = str(path.relative_to(root))
            stripped = wt.strip_code(text)
            functions = wt.extract_functions(rel, stripped)
            unordered = {rel: collect_unordered_vars(stripped)}
            summaries = build_summaries(functions, unordered, {rel: True})
            analyzer = Analyzer(summaries)
            findings = []
            for fn in functions:
                findings.extend(analyzer.analyze(
                    fn, unordered[rel], seed_params=False)[0])
            checked += 1
            if spec == "clean":
                if kind != "good":
                    failures.append(f"{rel}: `clean` belongs in good/")
                for finding in findings:
                    failures.append(f"{rel}: expected clean, got: {finding}")
                continue
            if kind != "bad":
                failures.append(f"{rel}: expectation {spec} belongs in bad/")
            for clause in spec.split(";"):
                want = dict(kv.split("=") for kv in clause.strip().split())
                hit = any(
                    (("source" not in want or
                      want["source"] in finding.source) and
                     ("sink" not in want or want["sink"] == finding.sink))
                    for finding in findings)
                if not hit:
                    got = ", ".join(f"{f.source}->{f.sink}"
                                    for f in findings) or "no findings"
                    failures.append(
                        f"{rel}: expected {clause.strip()}, got: {got}")
    for failure in failures:
        print(failure)
    if failures:
        print(f"selftest: {len(failures)} failure(s) over {checked} "
              f"fixtures", file=sys.stderr)
        return 1
    print(f"det_taint selftest: {checked} fixtures behaved")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compile-commands", default=None)
    parser.add_argument("--src-root", default=None)
    parser.add_argument("--allow", default=None)
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "clang", "tokens"))
    parser.add_argument("--json", default=None,
                        help="write findings as JSON to FILE")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture suite instead of src/")
    args = parser.parse_args()

    tool_dir = pathlib.Path(__file__).resolve().parent
    root = tool_dir.parent.parent

    if args.selftest:
        return run_selftest(tool_dir / "fixtures" / "det", root)

    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if shutil.which("clang") else "tokens"

    allow_path = args.allow or tool_dir / "det_taint_allow.txt"
    tcb, allows = wt.load_allow(allow_path)

    files = collect_files(args, root)
    if not files:
        sys.exit("no files to analyze (check --compile-commands/--src-root)")

    findings = analyze_tree(files, root, tcb, frontend,
                            args.compile_commands)
    visible = [f for f in findings if not wt.allowed(f, allows)]
    suppressed = len(findings) - len(visible)

    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            [vars(f) for f in findings], indent=2) + "\n")

    for finding in sorted(visible, key=lambda f: (f.path, f.line)):
        print(finding)
    if visible:
        print(f"{len(visible)} finding(s) ({suppressed} suppressed by "
              f"{allow_path})", file=sys.stderr)
        return 1
    print(f"det_taint: {len(files)} files clean under frontend="
          f"{frontend} ({suppressed} suppressed, {len(tcb)} TCB files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
