#!/usr/bin/env python3
"""Wire-taint dataflow analyzer: proves every attacker-controlled
integer is bounded before it allocates.

Vegvisir nodes decode blocks, frontier sets and certificates received
from arbitrary physical neighbours, so the wire decoders are the
permissioned system's real attack surface. The fuzzers in fuzz/ hunt
allocation bombs *dynamically*; this tool makes the guarantee
*static*: an integer read off the wire must pass through a bound
check against serial/limits.h before it reaches an allocation, a
container resize, or a loop trip count.

Taxonomy (DESIGN.md section 11 has the full threat model):

  sources     serial::Reader Read{U8,U16,U32,U64,I64,Varint} -> a
              wire integer ("int" taint: attacker chooses the value);
              Read{Bytes,String,Fixed,Bool}, DecodeMessage,
              T::Decode/Deserialize out-params, GetVarint -> wire
              data ("data" taint: sizes are input-bounded, but any
              integer *field* plucked out of it is attacker-chosen
              and degrades to int taint).
  sinks       .reserve(n) / .resize(n), new T[n], vector/Bytes
              construction with a size, loop trip counts, and
              multiplicative/shift arithmetic that can wrap a size
              computation past a later comparison.
  sanitizers  serial::CheckWireCount(n, limits::kMax*, ...), an
              explicit comparison against a limits::kMax* constant
              that guards an early return, or std::min/std::clamp
              with a limits::kMax* ceiling.

The analysis is intraprocedural over each function body in statement
order, with one-level summaries for the small decoder helpers: a
helper whose parameter reaches a sink unsanitized ("sink param")
propagates the finding to any caller passing it a tainted argument,
a helper that bounds a parameter against limits.h ("bounds param")
sanitizes the caller's argument, and a helper that writes wire data
through a pointer or non-const reference parameter and returns it
unbounded ("out param", e.g. a record header parser's length) taints
the caller's argument from the call on.

Front-ends: --frontend=tokens (default, dependency-free lexical
front-end over the files named by compile_commands.json or
--src-root) or --frontend=clang, which runs
`clang -Xclang -ast-dump=json -fsyntax-only` per translation unit and
analyzes the exact function extents the AST reports. `auto` picks
clang when a clang binary exists, tokens otherwise; CI pins `tokens`
so the wall is identical on every machine.

Suppressions live ONLY in tools/analyzer/wire_taint_allow.txt (one
reviewed file, entries carry justifications); inline annotations in
src/ are rejected by tools/lint/vegvisir_lint.py. A stale entry — an
`allow` that suppresses no finding, or a `tcb` naming a missing file —
fails the src sweep, so dead suppressions cannot pile up.

Usage:
  wire_taint.py [--compile-commands build/compile_commands.json]
                [--src-root src] [--allow tools/analyzer/wire_taint_allow.txt]
                [--frontend auto|clang|tokens] [--json FILE] [--selftest]

Exit 0 when clean; 1 with one `file:line: [sink] message` per finding.
"""

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys

# Directories under src/ that contain wire decoders or code that
# consumes decoded wire structures. sim/, telemetry/, crypto/,
# support/ and baseline/ never touch a serial::Reader (grep-verified;
# widen here the day one does).
SCAN_DIRS = ("serial", "recon", "node", "chain", "csm", "crdt", "util",
             "storage", "setdiff")

INT_SOURCES = r"ReadU8|ReadU16|ReadU32|ReadU64|ReadI64|ReadVarint"
DATA_SOURCES = r"ReadBytes|ReadString|ReadFixed|ReadBool"

# Accessors on wire data whose result is bounded by the physical
# input (a container can only be as large as the bytes that built
# it), hence safe as a loop bound or allocation size.
SAFE_ACCESSORS = {
    "size", "length", "empty", "begin", "end", "rbegin", "rend",
    "data", "find", "rfind", "find_first_of", "find_last_of",
    "substr", "c_str", "back", "front", "ok", "status", "count",
    "at", "capacity", "remaining", "AtEnd", "clear", "push_back",
    "emplace", "emplace_back", "insert", "erase", "pop_back",
}

INT_TYPE = re.compile(
    r"\b(u?int(8|16|32|64)?(_t)?|size_t|unsigned|long|short|uint64_t|"
    r"uint32_t|uint16_t|uint8_t|int64_t|int32_t)\b")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "static_assert", "decltype", "alignof", "assert",
}


# ---------------------------------------------------------------------------
# Lexical front-end
# ---------------------------------------------------------------------------

def strip_code(text):
    """Blanks comments and string/char literals, preserving newlines
    and offsets (same contract as tools/lint/vegvisir_lint.py)."""
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
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_paren(text, open_pos):
    """Index just past the parenthesis group opening at open_pos."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


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


class Function:
    def __init__(self, path, name, params, body, line, header=""):
        self.path = path          # repo-relative file
        self.name = name          # unqualified name
        self.params = params      # raw parameter list text
        self.body = body          # body text (stripped), incl. init list
        self.line = line          # 1-based line of the definition
        self.header = header      # full header text


def extract_functions(path, stripped):
    """Finds function definitions by scanning `header { body }` shapes.

    Namespace/class/struct blocks are descended into; function bodies
    are consumed whole (nested lambdas and control blocks stay inline
    — the linear analysis walks them in statement order anyway).
    """
    functions = []
    i = 0
    boundary = 0  # start of the current header candidate
    n = len(stripped)
    while i < n:
        c = stripped[i]
        if c in ";}":
            boundary = i + 1
            i += 1
        elif c == "(":
            i = match_paren(stripped, i)
        elif c == "{":
            header = stripped[boundary:i]
            fn = classify_header(header)
            if fn is None:
                # namespace / class / enum / array-init: descend.
                boundary = i + 1
                i += 1
                continue
            name, params = fn
            end = match_brace(stripped, i)
            # Include a constructor's member-init list (between the
            # param list and the brace) in the analyzed body.
            init = header[header.rfind(")") + 1:]
            body = init + " " + stripped[i + 1:end - 1]
            line = stripped.count("\n", 0, boundary) + 1
            functions.append(Function(path, name, params, body, line,
                                      header.strip()))
            boundary = end
            i = end
        else:
            i += 1
    return functions


def classify_header(header):
    """Returns (name, params) when `header` looks like a function
    definition, else None."""
    first_paren = header.find("(")
    if first_paren < 0:
        return None
    head = header[:first_paren].rstrip()
    m = re.search(r"([\w~]+)\s*$", head)
    if not m:
        return None  # lambda or operator soup; not a named function
    name = m.group(1)
    if name in CONTROL_KEYWORDS or not name:
        return None
    # `= [...]` initializers and control statements are not defs.
    depth = 0
    for ch in header:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "=" and depth == 0:
            return None
    params_end = match_paren(header, first_paren)
    params = header[first_paren + 1:params_end - 1]
    return name, params


def split_statements(body, base_line):
    """Splits a body into (text, line) statements at `;`/`{`/`}` that
    sit outside parentheses, so `for(a;b;c)` headers stay whole."""
    statements = []
    start = 0
    depth = 0
    for i, c in enumerate(body):
        if c == "(":
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
        elif c in ";{}" and depth == 0:
            stmt = body[start:i].strip()
            if stmt:
                line = base_line + body.count("\n", 0, start)
                statements.append((stmt, line))
            start = i + 1
    stmt = body[start:].strip()
    if stmt:
        statements.append((stmt, base_line + body.count("\n", 0, start)))
    return statements


# ---------------------------------------------------------------------------
# Taint analysis
# ---------------------------------------------------------------------------

def norm(name):
    """Normalizes `a->b` / `a.b` access paths to dotted form."""
    return re.sub(r"\s*->\s*|\s*\.\s*", ".", name.strip()).strip(".")


# Lookup calls whose argument is a *key*: `sessions_.find(id)` selects
# which of OUR entries to touch; the entry's contents stay ours, so
# key taint must not flow into the result (classic map-lookup FP).
LOOKUP_CALLS = {
    "find", "count", "at", "erase", "contains", "lower_bound",
    "upper_bound", "equal_range", "bucket",
}


def in_key_context(expr, pos):
    """True when expr[pos] sits in a subscript or the argument list of
    a pure lookup call — a key position, not a data position."""
    stack = []
    for i in range(pos):
        c = expr[i]
        if c == "[":
            stack.append("[")
        elif c == "(":
            m = re.search(r"(?:\.|->)\s*(\w+)\s*$", expr[:i])
            stack.append(m.group(1)
                         if m and m.group(1) in LOOKUP_CALLS else "(")
        elif c in ")]" and stack:
            stack.pop()
    return any(s == "[" or s in LOOKUP_CALLS for s in stack)


def base_of(name):
    return norm(name).split(".")[0]


class Finding:
    def __init__(self, path, line, function, sink, var, source, message):
        self.path = path
        self.line = line
        self.function = function
        self.sink = sink
        self.var = var
        self.source = source
        self.message = message

    def key(self):
        return (self.path, self.function, self.sink, self.var)

    def __str__(self):
        return (f"{self.path}:{self.line}: [{self.sink}] in "
                f"{self.function}(): {self.message}")


class Summary:
    def __init__(self):
        self.sink_params = {}    # index -> sink kind
        self.bounds_params = set()
        self.out_params = {}     # index -> (flavor, wire source)

    def empty(self):
        return not (self.sink_params or self.bounds_params or
                    self.out_params)


class Analyzer:
    def __init__(self, summaries=None):
        self.summaries = summaries or {}

    # -- expression taint ------------------------------------------------
    def expr_taint(self, expr, taint):
        """Returns (flavor, var, source) of the strongest taint
        reachable in `expr`, where flavor is 'int' | 'data' | None."""
        best = (None, None, None)
        flat_expr = re.sub(r"\s+", " ", expr)
        for name, (flavor, source, _line) in taint.items():
            pat = re.escape(name).replace(r"\.", r"(?:\.|->)\s*")
            for m in re.finditer(r"\b" + pat + r"\b", flat_expr):
                if in_key_context(flat_expr, m.start()):
                    continue  # key position: selects an entry, no flow
                if flavor == "int":
                    return ("int", name, source)
                # data taint: plucking a non-safe field out of it yields
                # an attacker-chosen scalar -> int taint.
                tail = flat_expr[m.end():]
                fm = re.match(r"\s*(?:\.|->)\s*(\w+)\s*(\(?)", tail)
                if fm and fm.group(1) not in SAFE_ACCESSORS \
                        and not fm.group(2):
                    return ("int", f"{name}.{fm.group(1)}", source)
                if best[0] is None:
                    best = ("data", name, source)
        return best

    # -- one function ----------------------------------------------------
    def analyze(self, fn, seed_params=False):
        taint = {}     # name -> (flavor, source-desc, line)
        findings = []
        param_names = {}
        cleaned_params = set()
        params = parse_params(fn.params)
        out_names = {pname: idx for idx, (pname, _i, out) in
                     enumerate(params) if pname and out}

        if seed_params:
            for idx, (pname, pint, _out) in enumerate(params):
                if pname:
                    param_names[pname] = idx
                    taint[pname] = ("int" if pint else "data",
                                    f"param #{idx}", fn.line)

        def seeded(name):
            return name in taint and taint[name][1].startswith("param #")

        def add_finding(stmt, line, sink, tainted_var, source):
            findings.append(Finding(
                fn.path, line, fn.name, sink, tainted_var, source,
                f"wire-tainted '{tainted_var}' (from {source}) reaches "
                f"{sink} without a serial/limits.h bound: `{snip(stmt)}`"))

        for stmt, line in split_statements(fn.body, fn.line):
            flat = re.sub(r"\s+", " ", stmt)

            # --- sanitizers first: a guard and a use can share one
            # statement only in the guard-first idioms below.
            for m in re.finditer(
                    r"CheckWireCount\s*\(\s*([\w.\->\[\]]+)", flat):
                name = norm(m.group(1))
                taint.pop(name, None)
                taint.pop(base_of(name), None)
                if name in param_names:
                    cleaned_params.add(name)
            for m in re.finditer(
                    r"\b([\w.\->\[\]]+)\s*(?:>=?|==)\s*(?:[\w:]*limits::)?"
                    r"(k[A-Z]\w*)", flat):
                if m.group(2).startswith("kMax") or "limits::" in flat:
                    name = norm(m.group(1))
                    taint.pop(name, None)
                    if name in param_names:
                        cleaned_params.add(name)
            for m in re.finditer(
                    r"\b(?:[\w:]*limits::)?(kMax\w*)\s*(?:<=?)\s*"
                    r"([\w.\->\[\]]+)", flat):
                name = norm(m.group(2))
                taint.pop(name, None)
                if name in param_names:
                    cleaned_params.add(name)
            clamped_lhs = None
            clamp = re.search(
                r"([\w.\->\[\]]+)\s*=\s*(?:std::)?(?:min|clamp)\s*\(", flat)
            if clamp and re.search(r"limits::|kMax\w+", flat):
                clamped_lhs = norm(clamp.group(1))
                taint.pop(clamped_lhs, None)

            # helper summaries: calls that bound or sink their params
            for m in re.finditer(r"\b(\w+)\s*\(", flat):
                callee = m.group(1)
                summary = self.summaries.get(callee)
                if summary is None:
                    continue
                args = split_args(flat, m.end() - 1)
                for idx in summary.bounds_params:
                    if idx < len(args):
                        flavor, var, _src = self.expr_taint(args[idx], taint)
                        if flavor:
                            taint.pop(var, None)
                            taint.pop(base_of(var), None)
                            if var in param_names:
                                cleaned_params.add(var)
                for idx, sink in summary.sink_params.items():
                    if idx < len(args):
                        flavor, var, src = self.expr_taint(args[idx], taint)
                        if flavor == "int":
                            add_finding(stmt, line, f"helper-sink:{callee}",
                                        var, src)

            # --- sinks
            for m in re.finditer(r"(?:\.|->)\s*(reserve|resize)\s*\(", flat):
                args = split_args(flat, flat.index("(", m.start()))
                if args:
                    flavor, var, src = self.expr_taint(args[0], taint)
                    if flavor == "int":
                        add_finding(stmt, line, m.group(1), var, src)
            for m in re.finditer(r"\bnew\s+[\w:<>]+\s*\[([^\]]+)\]", flat):
                flavor, var, src = self.expr_taint(m.group(1), taint)
                if flavor == "int":
                    add_finding(stmt, line, "new-array", var, src)
            ctor = re.search(
                r"\b(?:std::vector\s*<[^;=]*?>|Bytes|std::string)\s+\w+"
                r"\s*\(([^;]*)\)", flat)
            if ctor:
                flavor, var, src = self.expr_taint(
                    ctor.group(1).split(",")[0], taint)
                if flavor == "int":
                    add_finding(stmt, line, "size-construction", var, src)
            if flat.startswith("for (") or flat.startswith("for("):
                inner = flat[flat.index("(") + 1:]
                parts = inner.split(";")
                if len(parts) >= 2:  # not a range-for
                    flavor, var, src = self.expr_taint(parts[1], taint)
                    if flavor == "int":
                        add_finding(stmt, line, "loop-bound", var, src)
            wm = re.match(r"(?:do\s*)?while\s*\((.*)\)$", flat) or \
                re.match(r"while\s*\((.*)", flat)
            if wm:
                flavor, var, src = self.expr_taint(wm.group(1), taint)
                if flavor == "int":
                    add_finding(stmt, line, "loop-bound", var, src)
            for name, (flavor, src, _l) in list(taint.items()):
                if flavor != "int":
                    continue
                pat = re.escape(name).replace(r"\.", r"(?:\.|->)\s*")
                if re.search(r"\b" + pat + r"\s*(\*|<<)\s*[\w(]", flat) or \
                        re.search(r"[\w)\]]\s*(\*|<<)\s*" + pat + r"\b",
                                  flat):
                    add_finding(stmt, line, "overflow-arith", name, src)

            # --- sources (taint introduced for *subsequent* statements,
            # but Read*(&x) guarded in the same statement stays tainted).
            # An out param is already a pointer, so Read*(p) writes it.
            for m in re.finditer(
                    r"\b(" + INT_SOURCES + r")\s*\(\s*(&)?\s*"
                    r"([\w.\->\[\]]+)", flat):
                name = norm(m.group(3))
                if m.group(2) or name in out_names:
                    taint[name] = ("int", m.group(1), line)
            for m in re.finditer(
                    r"\b(" + DATA_SOURCES + r")\s*(?:<[^>(]*>)?\s*"
                    r"\(\s*&?\s*([\w.\->\[\]]+)", flat):
                name = norm(m.group(2))
                if name not in taint or (name in out_names and seeded(name)):
                    taint[name] = ("data", m.group(1), line)
            # helper out params: the argument holds what the helper
            # wrote from the wire, unbounded.
            for m in re.finditer(r"\b(\w+)\s*\(", flat):
                summary = self.summaries.get(m.group(1))
                if summary is None or not summary.out_params:
                    continue
                args = split_args(flat, m.end() - 1)
                for idx, (flavor, src) in summary.out_params.items():
                    if idx >= len(args):
                        continue
                    am = re.fullmatch(r"&?\s*([\w.\->\[\]]+)", args[idx])
                    if am:
                        taint[norm(am.group(1))] = (
                            flavor, f"{src} via {m.group(1)}", line)
            for m in re.finditer(
                    r"\b(DecodeMessage|ParseEnvelope)\s*\([^,]+,\s*&\s*"
                    r"([\w.\->]+)", flat):
                taint[norm(m.group(2))] = ("data", m.group(1), line)
            for m in re.finditer(
                    r"\b(\w+)::(Decode|DecodeState)\s*\(\s*&?\w+\s*,\s*&\s*"
                    r"([\w.\->]+)", flat):
                taint[norm(m.group(3))] = ("data", f"{m.group(1)}::Decode",
                                           line)
            for m in re.finditer(
                    r"\bGetVarint\s*\([^,]+,[^,]+,\s*&\s*([\w.\->]+)", flat):
                taint[norm(m.group(1))] = ("int", "GetVarint", line)
            dm = re.search(
                r"(?:auto|Bytes|std::string)?\s*&?\s*([\w]+)\s*=\s*"
                r"[\w:]*\b(Deserialize|Parse)\w*\s*\(", flat)
            if dm:
                taint[dm.group(1)] = ("data", dm.group(2), line)

            # --- assignment propagation (after sources so `x = y + z`
            # with tainted y taints x from this statement on)
            am = re.match(
                r"(?:[\w:<>,\s&*]+?\s)?\*?\s*([\w.\->\[\]]+)\s*"
                r"[+\-*/|&^]?=([^=].*)$", flat)
            if am and "==" not in flat[:am.end(1) + 2]:
                lhs = norm(am.group(1))
                fresh = lhs not in taint or (lhs in out_names and seeded(lhs))
                if fresh and lhs != clamped_lhs:
                    flavor, _var, src = self.expr_taint(am.group(2), taint)
                    if flavor:
                        taint[lhs] = (flavor, src, line)

        # Out params still holding wire data nothing bounded.
        out_tainted = {idx: taint[name][:2] for name, idx in out_names.items()
                       if name in taint and not seeded(name)}
        return findings, param_names, cleaned_params, out_tainted


def snip(stmt, width=60):
    flat = re.sub(r"\s+", " ", stmt).strip()
    return flat if len(flat) <= width else flat[:width - 3] + "..."


def parse_params(params_text):
    """Yields (name, is_integer, is_out) per parameter; an out param is
    a pointer or a non-const lvalue reference the body may write."""
    out = []
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
        if not m or part in ("void",):
            out.append((None, False, False))
            continue
        name = m.group(1)
        typ = part[:m.start()]
        is_int = bool(INT_TYPE.search(typ)) and "*" not in typ \
            and "&" not in typ
        is_out = "*" in typ or ("&" in typ and "&&" not in typ and
                                not re.search(r"\bconst\b", typ))
        out.append((name, is_int, is_out))
    return out


def split_args(flat, open_paren):
    """Splits the argument list opening at `open_paren` in `flat`."""
    end = match_paren(flat, open_paren)
    inner = flat[open_paren + 1:end - 1]
    args = []
    depth = 0
    current = []
    for ch in inner:
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        args.append("".join(current).strip())
    return args


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(args, root):
    files = set()
    if args.compile_commands:
        db = json.loads(pathlib.Path(args.compile_commands).read_text())
        for entry in db:
            p = pathlib.Path(entry["file"])
            if not p.is_absolute():
                p = pathlib.Path(entry["directory"]) / p
            p = p.resolve()
            try:
                rel = p.relative_to(root)
            except ValueError:
                continue
            if in_scope(rel):
                files.add(rel)
    src_root = pathlib.Path(args.src_root) if args.src_root else None
    if src_root is None and not files:
        src_root = root / "src"
    if src_root is not None:
        for p in sorted(src_root.rglob("*")):
            if p.suffix in (".h", ".cpp"):
                rel = p.resolve().relative_to(root)
                if in_scope(rel):
                    files.add(rel)
    if args.compile_commands and files:
        # The DB names only .cpp TUs; headers under the scanned
        # directories carry inline decoders (codec.h templates), so
        # sweep them in too.
        for rel in list(files):
            for p in sorted((root / rel.parent).glob("*.h")):
                prel = p.resolve().relative_to(root)
                if in_scope(prel):
                    files.add(prel)
    return sorted(files)


def in_scope(rel):
    parts = rel.parts
    return len(parts) >= 2 and parts[0] == "src" and parts[1] in SCAN_DIRS


def clang_function_ranges(path, root, compile_commands):
    """clang front-end: asks `clang -Xclang -ast-dump=json` for the
    function extents of one TU, returning [(name, begin, end), ...]
    byte offsets, or None when clang cannot be used."""
    clang = shutil.which("clang++") or shutil.which("clang")
    if clang is None:
        return None
    flags = []
    if compile_commands:
        db = json.loads(pathlib.Path(compile_commands).read_text())
        for entry in db:
            if entry["file"].endswith(str(path)):
                raw = entry.get("arguments") or entry["command"].split()
                flags = [a for a in raw[1:]
                         if a.startswith(("-I", "-D", "-std", "-isystem"))]
                break
    cmd = [clang, "-fsyntax-only", "-Xclang", "-ast-dump=json",
           *flags, str(root / path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        ast = json.loads(proc.stdout)
    except Exception:
        return None
    ranges = []

    def walk(node):
        kind = node.get("kind", "")
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl"):
            rng = node.get("range", {})
            begin = rng.get("begin", {}).get("offset")
            end = rng.get("end", {}).get("offset")
            has_body = any(ch.get("kind") == "CompoundStmt"
                           for ch in node.get("inner", []))
            if begin is not None and end is not None and has_body:
                ranges.append((node.get("name", "?"), begin, end + 1))
        for child in node.get("inner", []):
            if isinstance(child, dict):
                walk(child)

    walk(ast)
    return ranges


def load_allow(path):
    tcb, allows = set(), []
    if path and pathlib.Path(path).exists():
        for raw in pathlib.Path(path).read_text().splitlines():
            entry = raw.split("#")[0].strip()
            if not entry:
                continue
            fields = entry.split()
            if fields[0] == "tcb" and len(fields) == 2:
                tcb.add(fields[1])
            elif fields[0] == "allow" and len(fields) >= 4:
                allows.append(tuple(fields[1:5]))
            else:
                sys.exit(f"{path}: malformed entry: {raw}")
    return tcb, allows


def matches(entry, finding):
    path, function, sink = entry[0], entry[1], entry[2]
    var = entry[3] if len(entry) > 3 else "*"
    return (path in ("*", finding.path) and
            function in ("*", finding.function) and
            sink in ("*", finding.sink) and
            var in ("*", finding.var))


def allowed(finding, allows):
    return any(matches(entry, finding) for entry in allows)


def stale_entries(findings, tcb, allows, root):
    """Allow-file entries that no longer do anything: a `tcb` naming a
    file that is gone, or an `allow` that suppresses no finding. Left
    in place, either could silence a future finding by accident."""
    stale = [f"tcb {path}: no such file" for path in sorted(tcb)
             if not (root / path).is_file()]
    stale += [f"allow {' '.join(entry)}: suppresses no finding"
              for entry in allows
              if not any(matches(entry, f) for f in findings)]
    return stale


def summarize(analyzer, fn):
    """The one-level summary of `fn`, analyzed with tainted params."""
    findings, param_names, cleaned, out_tainted = analyzer.analyze(
        fn, seed_params=True)
    summary = Summary()
    for finding in findings:
        if finding.source.startswith("param #"):
            idx = int(finding.source.split("#")[1])
            summary.sink_params.setdefault(idx, finding.sink)
    for pname in cleaned:
        summary.bounds_params.add(param_names[pname])
    summary.out_params = out_tainted
    return summary


def analyze_tree(files, root, tcb, frontend, compile_commands):
    # Pass 1: summaries for every function (helpers included), seeded
    # with tainted params; iterate once more so helper-of-helper
    # chains converge.
    all_functions = []
    for rel in files:
        if str(rel) in tcb:
            continue
        text = (root / rel).read_text()
        stripped = strip_code(text)
        if frontend == "clang":
            ranges = clang_function_ranges(rel, root, compile_commands)
            if ranges is not None:
                for name, begin, end in ranges:
                    segment = stripped[begin:end]
                    fns = extract_functions(str(rel), segment)
                    for fn in fns:
                        fn.line += stripped.count("\n", 0, begin)
                    all_functions.extend(fns)
                continue  # clang handled this file
        all_functions.extend(extract_functions(str(rel), stripped))

    summaries = {}
    for _ in range(2):
        analyzer = Analyzer(summaries)
        next_summaries = {}
        for fn in all_functions:
            summary = summarize(analyzer, fn)
            if summary.empty():
                continue
            prev = next_summaries.get(fn.name)
            if prev:  # same-named helpers: union conservatively
                prev.sink_params.update(summary.sink_params)
                prev.bounds_params &= summary.bounds_params
                prev.out_params.update(summary.out_params)
            else:
                next_summaries[fn.name] = summary
        summaries = next_summaries

    # Pass 2: the real check — only wire reads introduce taint.
    analyzer = Analyzer(summaries)
    findings = []
    for fn in all_functions:
        findings.extend(analyzer.analyze(fn, seed_params=False)[0])
    return findings


# ---------------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------------

def fixture_findings(rel, text):
    functions = extract_functions(rel, strip_code(text))
    # fixtures are self-contained: build local summaries too
    summaries = {}
    analyzer = Analyzer({})
    for fn in functions:
        summary = summarize(analyzer, fn)
        if not summary.empty():
            summaries[fn.name] = summary
    analyzer = Analyzer(summaries)
    findings = []
    for fn in functions:
        findings.extend(analyzer.analyze(fn, seed_params=False)[0])
    return findings


def stale_selftest(fixtures_dir, root):
    """Failures of the stale-entry check against one bad fixture: only
    the entry that matches its finding and the file that exists may
    pass."""
    path = fixtures_dir / "bad" / "loop_unchecked.cpp"
    rel = str(path.relative_to(root))
    findings = fixture_findings(rel, path.read_text())
    tcb = {rel, "src/no_such_file.cpp"}
    allows = [(rel, "DecodeEntries", "loop-bound", "*"),
              (rel, "DecodeEntries", "new-array", "*"),
              ("*", "NoSuchFunction", "*", "*")]
    want = ["tcb src/no_such_file.cpp: no such file",
            f"allow {rel} DecodeEntries new-array *: suppresses no finding",
            "allow * NoSuchFunction * *: suppresses no finding"]
    got = stale_entries(findings, tcb, allows, root)
    if got != want:
        return [f"stale entries: expected {want}, got {got}"]
    return []


def run_selftest(fixtures_dir, root):
    failures = []
    checked = 0
    for kind in ("good", "bad"):
        for path in sorted((fixtures_dir / kind).glob("*.cpp")):
            text = path.read_text()
            expect = re.search(r"//\s*taint-expect:\s*(.+)", text)
            if not expect:
                failures.append(f"{path}: missing `// taint-expect:` header")
                continue
            spec = expect.group(1).strip()
            rel = str(path.relative_to(root))
            findings = fixture_findings(rel, text)
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
    failures += stale_selftest(fixtures_dir, root)
    checked += 1
    for failure in failures:
        print(failure)
    if failures:
        print(f"selftest: {len(failures)} failure(s) over {checked} "
              f"fixtures", file=sys.stderr)
        return 1
    print(f"wire_taint selftest: {checked} fixtures behaved")
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
        return run_selftest(tool_dir / "fixtures", root)

    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if shutil.which("clang") else "tokens"

    allow_path = args.allow or tool_dir / "wire_taint_allow.txt"
    tcb, allows = load_allow(allow_path)

    files = collect_files(args, root)
    if not files:
        sys.exit("no files to analyze (check --compile-commands/--src-root)")

    findings = analyze_tree(files, root, tcb, frontend,
                            args.compile_commands)
    visible = [f for f in findings if not allowed(f, allows)]
    suppressed = len(findings) - len(visible)
    stale = stale_entries(findings, tcb, allows, root)

    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            [vars(f) for f in findings], indent=2) + "\n")

    for finding in sorted(visible, key=lambda f: (f.path, f.line)):
        print(finding)
    for entry in stale:
        print(f"{allow_path}: stale entry: {entry}")
    if visible or stale:
        print(f"{len(visible)} finding(s) ({suppressed} suppressed by "
              f"{allow_path}), {len(stale)} stale entry(ies)",
              file=sys.stderr)
        return 1
    print(f"wire_taint: {len(files)} files clean under frontend="
          f"{frontend} ({suppressed} suppressed, {len(tcb)} TCB files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
