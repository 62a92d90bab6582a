#!/usr/bin/env python3
"""Custom invariant linter for the Vegvisir codebase.

Seven repo-specific invariants that clang-tidy cannot express:

  1. no-wall-clock: determinism depends on every timestamp and random
     draw flowing from the seeded simulator. Wall-clock and ambient-
     entropy APIs (std::chrono::system_clock, time(), rand(),
     std::random_device, ...) are banned everywhere under src/ except
     src/sim/ (the only layer allowed to own a clock, simulated or
     otherwise).

  2. metric-names: every metric name passed to
     GetCounter/GetGauge/GetHistogram/CounterValue (and every trace
     name passed to RecordSpan/RecordInstant) as a string literal must
     be declared in the single registry table
     src/telemetry/metric_names.h. Call sites that build names
     dynamically must carry a `// lint: metric-name <pattern>...`
     annotation on one of the three preceding lines naming the
     patterns they can produce (each pattern must itself resolve
     against the table, `*` matching a suffix). This is the one rule
     that also scans tests/: CounterValue returns 0 for a name that
     was never registered, so a misspelt name in an `EXPECT_EQ(...,
     0u)` would otherwise pass silently.

  3. checked-decode: every function named Decode*/Parse*/Deserialize*
     must return Status or StatusOr (decoding hostile bytes must not
     be able to fail silently), and no call to one may discard the
     result: a bare `Foo::Decode(...);` statement is an error. Consume
     it (assign, return, wrap in VEGVISIR_RETURN_IF_ERROR/if/EXPECT)
     or cast to void explicitly.

  4. decode-literal-clamp: inside a Decode*/Parse*/Deserialize* body,
     comparing a value against a bare integer literal (> 8) is an
     error. Ad-hoc clamps drift apart and dodge both the taint
     analyzer and the bomb tests; every decode bound must be a named
     constant in src/serial/limits.h (lines mentioning `limits::` or
     `sizeof` are exempt — those ARE the sanctioned forms).

  5. no-inline-taint-suppression: wire_taint.py findings may only be
     suppressed in tools/analyzer/wire_taint_allow.txt (one reviewed
     file). Any `taint-expect` / NOLINT(...taint...) marker inside
     src/ is an error, even in a comment.

  6. thread-containment: concurrency lives in src/exec/ and nowhere
     else. `std::thread`/`std::jthread`/`std::async` and `.detach()`
     are banned everywhere else under src/ (determinism depends on
     the pool being the single scheduling authority; DESIGN.md §12).
     Inside src/exec/, `std::async` and `.detach()` stay banned, and
     every `std::thread` CONSTRUCTION must carry a
     `// lint: thread-owner` annotation on one of the three preceding
     lines — there is exactly one sanctioned site (the pool's worker
     spawn loop).

  7. mutex-annotation: locks must be visible to clang's thread-safety
     analysis. Raw std::mutex/std::shared_mutex (and friends) are
     banned in src/ — locking state is declared through the
     util::Mutex shim in src/util/thread_annotations.h, every
     util::Mutex member must have at least one
     VEGVISIR_GUARDED_BY/PT_GUARDED_BY/REQUIRES/ACQUIRE user in the
     same file (an unused lock protects nothing and the analysis
     proves nothing), and inline
     VEGVISIR_NO_THREAD_SAFETY_ANALYSIS / [[clang::no_thread_safety_
     analysis]] escapes are rejected outside the shim itself —
     restructure the code so the analysis passes (mirrors rule 5's
     no-inline-suppression policy).

  8. mutex-rank: every util::Mutex member in src/ must declare its
     LockRank via brace-init (`util::Mutex mu_{util::LockRank::...};`)
     so it participates in the lock hierarchy that lock_graph.py and
     the VEGVISIR_LOCK_DEBUG runtime enforcer check
     (src/util/lock_ranks.h, DESIGN.md §15). An unranked mutex is
     invisible to the ordering wall.

Allowlist: suppressions live HERE, in the tables below, one entry per
line with a justification — never inline in the source (the lint CI
job greps for NOLINT to enforce that). `// lint: metric-name` and
`// lint: allow-wall-clock` annotations are declarations the linter
verifies, not suppressions.

Usage: tools/lint/vegvisir_lint.py [repo-root]
Exit 0 when clean; 1 with one `file:line: rule: message` per finding.
"""

import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# Documented allowlist (the only sanctioned suppressions).
# ---------------------------------------------------------------------------

# checked-decode, rule 3a: functions that merely look like decoders.
NOT_A_DECODER = {
    # Maps a failed decode Status to a reject-counter suffix; it
    # classifies errors, it does not parse bytes.
    "DecodeRejectName",
}

# metric-names: files implementing the registry machinery itself,
# where the `name` parameter is by definition not a literal.
METRIC_MACHINERY = {
    "src/telemetry/metrics.h",
    "src/telemetry/metrics.cpp",
    "src/telemetry/trace.h",
    "src/telemetry/trace.cpp",
}

# metric-names: test files that exercise the registry itself with
# synthetic names (not the declared production series).
METRIC_TEST_FIXTURES = {
    "tests/telemetry_test.cpp",  # registry/tracer/exporter unit tests
    "tests/exec_test.cpp",       # concurrent counter hammer
}

# no-wall-clock: directory allowed to own time (trailing slash).
CLOCK_OWNER = "src/sim/"

WALL_CLOCK_PATTERNS = [
    (re.compile(p), what)
    for p, what in [
        (r"\bsystem_clock\b", "std::chrono::system_clock"),
        (r"\bsteady_clock\b", "std::chrono::steady_clock"),
        (r"\bhigh_resolution_clock\b", "std::chrono::high_resolution_clock"),
        (r"\brandom_device\b", "std::random_device"),
        (r"\bmt19937(_64)?\b", "std::mt19937"),
        (r"\bdefault_random_engine\b", "std::default_random_engine"),
        (r"\bminstd_rand0?\b", "std::minstd_rand"),
        (r"\bsrand\s*\(", "srand()"),
        (r"(?<![\w.])rand\s*\(\s*\)", "rand()"),
        (r"(?<![\w.])time\s*\(\s*(NULL|nullptr|0|\&|\))", "time()"),
        (r"\bstd::time\s*\(", "std::time()"),
        (r"(?<![\w.])clock\s*\(\s*\)", "clock()"),
        (r"\bgettimeofday\b", "gettimeofday()"),
        (r"\bclock_gettime\b", "clock_gettime()"),
        (r"\blocaltime(_r)?\b", "localtime()"),
        (r"\bgmtime(_r)?\b", "gmtime()"),
    ]
]

METRIC_METHODS = {
    "GetCounter": "counter",
    "CounterValue": "counter",
    "GetGauge": "gauge",
    "GetHistogram": "histogram",
    "RecordSpan": "trace",
    "RecordInstant": "trace",
}

DECODER_NAME = re.compile(r"\b(Decode|Parse|Deserialize)\w*\s*\(")
STATUS_RETURN = re.compile(r"\b(Status|StatusOr)\b")

# decode-literal-clamp: `value > 1234` style comparisons (relational
# only; == against small structural tags is fine). The operand class
# before the operator keeps shifts (`x >> 7`) and template argument
# lists from matching.
LITERAL_CLAMP = re.compile(
    r"[\w\)\]]\s*(?:<=|>=|<|>)\s*(0x[0-9a-fA-F]+|\d+)\b")

# Largest literal a decoder may compare against without a named
# limit: small structural values (tag ranges, varint continuation
# groups) stay legal, anything bound-sized must come from limits.h.
MAX_BARE_LITERAL = 8

TAINT_SUPPRESSION = re.compile(
    r"taint-expect|wire-taint-allow|NOLINT\([^)]*taint")

# thread-containment: directory allowed to own threads (trailing
# slash). Everywhere else these constructs are banned outright; inside
# it, std::thread construction needs a `// lint: thread-owner`
# annotation and async/detach stay banned.
THREAD_OWNER = "src/exec/"

THREAD_API_BANNED = [
    (re.compile(p), what)
    for p, what in [
        (r"\bstd::thread\b", "std::thread"),
        (r"\bstd::jthread\b", "std::jthread"),
        (r"\bstd::async\b", "std::async"),
        (r"(\.|->)\s*detach\s*\(", ".detach()"),
    ]
]

# Inside src/exec/: uninitialised members may mention std::thread, but
# actually constructing one — `std::thread(...)`, `std::thread{...}`,
# or a named declaration `std::thread t(...)` / `= ...` — requires the
# annotation.
THREAD_CONSTRUCTION = re.compile(r"\bstd::thread\s*(\w+\s*)?[({=]")

THREAD_API_BANNED_IN_OWNER = [
    (re.compile(p), what)
    for p, what in [
        (r"\bstd::async\b", "std::async"),
        (r"(\.|->)\s*detach\s*\(", ".detach()"),
    ]
]


# mutex-annotation: the one file allowed to name raw lock types (it
# wraps them) and to define the escape-hatch macro.
ANNOTATION_SHIM = "src/util/thread_annotations.h"

RAW_MUTEX = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex)\b")

MUTEX_MEMBER = re.compile(r"\butil::Mutex\s+(\w+)\s*(\{[^;]*\})?\s*;")

TSA_ESCAPE = re.compile(
    r"\bVEGVISIR_NO_THREAD_SAFETY_ANALYSIS\b|"
    r"\bno_thread_safety_analysis\b")


def strip_code(text):
    """Blanks comments and string/char literals, preserving newlines
    and length so match offsets map back to real positions."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            # Keep the quotes so literal args remain recognisable.
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_metric_tables(root):
    """Reads the declared-name tables out of metric_names.h."""
    text = (root / "src/telemetry/metric_names.h").read_text()
    tables = {}
    for array, kind in [
        ("kCounters", "counter"),
        ("kGauges", "gauge"),
        ("kHistograms", "histogram"),
        ("kTraceNames", "trace"),
    ]:
        m = re.search(array + r"\[\]\s*=\s*\{(.*?)\};", text, re.S)
        if not m:
            sys.exit(f"metric_names.h: table {array} not found")
        tables[kind] = set(re.findall(r'"([^"]+)"', m.group(1)))
    return tables


def declared(tables, kind, name):
    return name in tables[kind]


def pattern_resolves(tables, kind, pattern):
    """A `lint: metric-name` pattern: exact name or `prefix.*`."""
    if pattern.endswith(".*"):
        prefix = pattern[:-1]  # keep the dot
        return any(n.startswith(prefix) for n in tables[kind])
    return declared(tables, kind, pattern)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def check_wall_clock(rel, stripped, findings):
    if rel.startswith(CLOCK_OWNER):
        return
    lines = stripped.splitlines()
    raw_lines = None
    for regex, what in WALL_CLOCK_PATTERNS:
        for m in regex.finditer(stripped):
            line = line_of(stripped, m.start())
            if raw_lines is None:
                raw_lines = lines
            findings.append(
                (rel, line, "no-wall-clock",
                 f"{what} is banned outside {CLOCK_OWNER}; draw time from "
                 "the Simulator and randomness from util/rng.h")
            )


def check_metric_names(rel, text, stripped, tables, findings):
    if rel in METRIC_MACHINERY or rel in METRIC_TEST_FIXTURES:
        return
    raw_lines = text.splitlines()
    for m in re.finditer(r"\b(" + "|".join(METRIC_METHODS) + r")\s*\(",
                         stripped):
        method = m.group(1)
        kind = METRIC_METHODS[method]
        line = line_of(stripped, m.start())
        arg = stripped[m.end():m.end() + 200].lstrip()
        if arg.startswith('"'):
            # Literal name: read it from the unstripped text.
            lit = re.match(r'\s*"((?:[^"\\]|\\.)*)"',
                           text[m.end():m.end() + 200].lstrip("\n"))
            lit = lit or re.search(r'"((?:[^"\\]|\\.)*)"',
                                   text[m.end():m.end() + 200])
            name = lit.group(1) if lit else ""
            if not declared(tables, kind, name):
                findings.append(
                    (rel, line, "metric-names",
                     f'{method}("{name}") is not declared in '
                     "src/telemetry/metric_names.h")
                )
        elif re.match(r"^(const\s|std::string|\s*\))", arg):
            continue  # parameter declaration, not a call
        else:
            # Dynamic name: require an annotation in the same paragraph
            # (scanning upward until a blank line) above the call.
            ann = None
            i = line - 2  # 0-based index of the line above the call
            while i >= 0 and raw_lines[i].strip():
                am = re.search(r"//\s*lint:\s*metric-name\s+(.*)$",
                               raw_lines[i])
                if am:
                    ann = am.group(1).split()
                    break
                i -= 1
            if ann is None:
                findings.append(
                    (rel, line, "metric-names",
                     f"dynamic name passed to {method} without a "
                     "`// lint: metric-name <pattern>...` annotation")
                )
                continue
            for pattern in ann:
                if not pattern_resolves(tables, kind, pattern):
                    findings.append(
                        (rel, line, "metric-names",
                         f"annotation pattern '{pattern}' matches nothing "
                         "in src/telemetry/metric_names.h")
                    )


def check_decode_status(rel, stripped, findings):
    for m in DECODER_NAME.finditer(stripped):
        name = stripped[m.start():stripped.index("(", m.start())].strip()
        if name in NOT_A_DECODER:
            continue
        line = line_of(stripped, m.start())
        # The segment from the previous statement boundary to the call.
        seg_start = max(
            stripped.rfind(c, 0, m.start()) for c in ";{}")
        seg = stripped[seg_start + 1:m.start()]
        # Consumed: assigned, returned, nested in an expression, or
        # wrapped in a macro/condition (all introduce one of these).
        if re.search(r"[=(!]|\breturn\b|\bco_return\b", seg):
            continue
        prefix = seg.strip()
        # A qualifier chain right before the name belongs to the callee
        # (`Transaction::Decode(...)` call) unless a return type
        # precedes it (`Status Transaction::Decode(...)` definition).
        head = re.sub(r"[\w~]+(::[\w~]+)*(::)?$", "", prefix).strip()
        if prefix == "" or prefix.endswith((".", "->")) or (
                prefix.endswith("::") and head == ""):
            findings.append(
                (rel, line, "checked-decode",
                 f"result of {name}() is discarded; decode/parse results "
                 "must be consumed (assign, return, wrap, or (void)-cast)")
            )
            continue
        # Otherwise this is a declaration or definition: its return
        # type (in `prefix`) must be Status/StatusOr.
        if not STATUS_RETURN.search(prefix):
            findings.append(
                (rel, line, "checked-decode",
                 f"{name}() must return Status or StatusOr "
                 "(add it to the allowlist in vegvisir_lint.py if it is "
                 "not a byte decoder)")
            )


def match_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def decoder_bodies(stripped):
    """Yields (name, body_start, body_end) for each Decode*/Parse*/
    Deserialize* function DEFINITION (call sites and declarations are
    followed by `;`/`)` rather than a brace)."""
    for m in DECODER_NAME.finditer(stripped):
        open_paren = stripped.index("(", m.start())
        depth = 0
        close = None
        for i in range(open_paren, len(stripped)):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i + 1
                    break
        if close is None:
            continue
        after = re.match(r"\s*(?:const\s*)?\{", stripped[close:])
        if not after:
            continue
        body_start = close + after.end()
        yield (m.group(0).rstrip("( \t"), body_start,
               match_brace(stripped, body_start - 1))


def check_literal_clamps(rel, stripped, findings):
    for name, start, end in decoder_bodies(stripped):
        body = stripped[start:end]
        for line_text in body.split("\n"):
            if "limits::" in line_text or "sizeof" in line_text:
                continue
            for cm in LITERAL_CLAMP.finditer(line_text):
                value = int(cm.group(1), 0)
                if value <= MAX_BARE_LITERAL:
                    continue
                line = line_of(stripped, start + body.index(line_text))
                findings.append(
                    (rel, line, "decode-literal-clamp",
                     f"{name}() compares against bare literal "
                     f"{cm.group(1)}; decode bounds must be named "
                     "constants in src/serial/limits.h")
                )


def check_thread_containment(rel, text, stripped, findings):
    if not rel.startswith(THREAD_OWNER):
        for regex, what in THREAD_API_BANNED:
            for m in regex.finditer(stripped):
                findings.append(
                    (rel, line_of(stripped, m.start()), "thread-containment",
                     f"{what} is banned outside {THREAD_OWNER}; submit work "
                     "to exec::ThreadPool instead")
                )
        return
    for regex, what in THREAD_API_BANNED_IN_OWNER:
        for m in regex.finditer(stripped):
            findings.append(
                (rel, line_of(stripped, m.start()), "thread-containment",
                 f"{what} is banned even in {THREAD_OWNER}; workers are "
                 "joined std::threads owned by the pool")
            )
    raw_lines = text.splitlines()
    for m in THREAD_CONSTRUCTION.finditer(stripped):
        line = line_of(stripped, m.start())
        annotated = any(
            re.search(r"//\s*lint:\s*thread-owner\b", raw_lines[i])
            for i in range(max(0, line - 4), line)
            if i < len(raw_lines)
        )
        if not annotated:
            findings.append(
                (rel, line, "thread-containment",
                 "std::thread construction without a "
                 "`// lint: thread-owner` annotation on one of the three "
                 "preceding lines")
            )


def check_mutex_annotation(rel, text, stripped, findings):
    if rel == ANNOTATION_SHIM:
        return
    for m in RAW_MUTEX.finditer(stripped):
        findings.append(
            (rel, line_of(stripped, m.start()), "mutex-annotation",
             f"std::{m.group(1)} is banned in src/; declare the lock as "
             "util::Mutex (src/util/thread_annotations.h) so clang's "
             "thread-safety analysis sees it")
        )
    # Scans RAW text, like rule 5: escapes hide in macros and comments.
    for m in TSA_ESCAPE.finditer(text):
        findings.append(
            (rel, line_of(text, m.start()), "mutex-annotation",
             "inline thread-safety-analysis suppression is banned in "
             "src/; restructure the code so the analysis passes "
             "(see the shim header for the sanctioned idioms)")
        )
    for m in MUTEX_MEMBER.finditer(stripped):
        name = m.group(1)
        init = m.group(2) or ""
        if "LockRank::" not in init:
            findings.append(
                (rel, line_of(stripped, m.start()), "mutex-rank",
                 f"util::Mutex member '{name}' declares no LockRank; "
                 "every mutex in src/ takes its place in the hierarchy "
                 "via brace-init, e.g. util::Mutex mu_{util::LockRank::"
                 "kExecPool}; (src/util/lock_ranks.h)")
            )
        user = re.search(
            r"VEGVISIR_(?:PT_)?GUARDED_BY\s*\(\s*" + re.escape(name) +
            r"\s*\)|VEGVISIR_(?:REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE|"
            r"EXCLUDES|ASSERT_CAPABILITY)(?:_SHARED)?\s*\([^)]*\b" +
            re.escape(name) + r"\b", stripped)
        if user is None:
            findings.append(
                (rel, line_of(stripped, m.start()), "mutex-annotation",
                 f"util::Mutex member '{name}' has no GUARDED_BY/"
                 "REQUIRES/ACQUIRE user in this file; an unannotated "
                 "lock protects nothing the analysis can check")
            )


def check_taint_suppressions(rel, text, findings):
    # Scans RAW text: suppressions hide in comments by design.
    for m in TAINT_SUPPRESSION.finditer(text):
        findings.append(
            (rel, line_of(text, m.start()), "no-inline-taint-suppression",
             "inline wire-taint suppressions are banned in src/; add a "
             "justified entry to tools/analyzer/wire_taint_allow.txt")
        )


def sources(root, subdir):
    """Yields (rel, text, stripped) for every C++ file under subdir."""
    for path in sorted((root / subdir).rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        text = path.read_text()
        yield str(path.relative_to(root)), text, strip_code(text)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    if not (root / "src/telemetry/metric_names.h").exists():
        sys.exit(f"{root} does not look like the repo root")
    tables = parse_metric_tables(root)
    findings = []
    for rel, text, stripped in sources(root, "src"):
        check_wall_clock(rel, stripped, findings)
        check_metric_names(rel, text, stripped, tables, findings)
        check_decode_status(rel, stripped, findings)
        check_literal_clamps(rel, stripped, findings)
        check_thread_containment(rel, text, stripped, findings)
        check_mutex_annotation(rel, text, stripped, findings)
        check_taint_suppressions(rel, text, findings)
    for rel, text, stripped in sources(root, "tests"):
        check_metric_names(rel, text, stripped, tables, findings)
    for rel, line, rule, message in sorted(findings):
        print(f"{rel}:{line}: {rule}: {message}")
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"vegvisir_lint: src/ and tests/ clean "
          f"({sum(len(v) for v in tables.values())} declared metric names)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
