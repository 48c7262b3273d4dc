#!/usr/bin/env python3
"""escort_lint: the static checker for the Escort tree.

Generic linters cannot express the invariants this reproduction depends on
(resource-conservation accounting, bit-for-bit deterministic simulation),
so this tool checks them statically. The EL rules are token-level checks
over comment- and string-stripped source; the EA rules need structure
(scopes, capture lists, control flow) and run over a small model of src/
built by a pure-Python C++ parser. tools/lint/README.md has the catalogue.

  EL001  include guard must match the file path (SRC_KERNEL_OWNER_H_ style)
         and the closing #endif must carry the guard comment.
  EL002  header hygiene: no `using namespace` at file scope in headers, no
         `#pragma once` (the tree uses path-derived guards).
  EL003  simulation determinism: no ambient randomness or wall-clock time
         in src/ — rand(), srand(), std::random_device, std::mt19937,
         time(), clock(), gettimeofday(), chrono clocks, including clock
         access laundered through a type alias (`using Clock =
         std::chrono::steady_clock;` in one file, `Clock::now()` in
         another — aliases are resolved tree-wide). All randomness flows
         through src/sim/rng.h, all time through src/sim/event_queue.h.
  EL004  no std::unordered_map / std::unordered_set in src/: iteration
         order is implementation-defined and anything feeding the event
         queue must be deterministic.
  EL005  no naked new/delete outside the kernel allocators: allocation
         goes through std::unique_ptr/std::make_unique (a `new` directly
         wrapped in a smart-pointer constructor is fine).
  EL006  charge/release bookkeeping is kernel-only: code outside
         src/kernel must not mutate Owner::usage() counters or the owner
         tracking lists directly.
  EL007  charge/release pairing: every ResourceUsage counter charged
         (`usage().x +=`) somewhere in src/kernel must also be released
         (`usage().x -=` or zeroed) somewhere in src/kernel, and vice
         versa. `cycles` is exempt (monotonic; retired at destruction).
  EL008  reclamation/audit completeness: every tracking list declared in
         class Owner must be reclaimed in Kernel::DestroyOwner, and every
         tracking list and ResourceUsage counter (except cycles) must be
         drain-checked in Auditor::CheckOwnerDrained.
  EL009  cell isolation: no mutable static state in src/ (file-scope or
         function-local). The sweep runner runs one simulation cell per
         worker thread, and a mutable static is state two cells share.
         `static const` / `static constexpr` / constexpr are fine.
  EL011  diagnostics funnel through Tracer::Diag: no printf/fprintf/
         fputs/puts, no std::cout/cerr/clog, and no bare stdout/stderr
         anywhere in src/ except src/sim/trace.cc (the funnel itself)
         and src/workload/sweep.cc (the bench CLI layer, whose tables
         ARE its output). snprintf (formatting into a buffer) is fine.
  EL013  slab-slot hygiene: a type marked ESCORT_SLAB_SLOT (stored by
         value in a generation-tagged Slab<T>, src/elib/slab.h) must not
         own shared_ptr members: a slot is recycled under a generation
         tag, and a shared_ptr member keeps its referent alive past
         Release.
  EL014  detection-accumulator determinism: a type marked
         ESCORT_DETECT_ACCUMULATOR (src/server/detect.h) holds only
         integer state. float/double members accumulate in arrival order
         and leak scheduling into decisions that must be bit-identical at
         any --jobs; derive float views at compare time instead.
  EL015  metric registration goes through the ESCORT_METRIC_* macros
         (src/sim/metrics.h): no direct MetricsRegistry::Register* calls
         in src/ outside the metrics module itself.
  EA001  deferred-capture safety: a lambda literal passed to an
         ESCORT_DEFERRED_API must not capture `this` of a kernel-lifetime
         class, a pointer/reference to a kernel-lifetime object, or use a
         capture-default ([=] / [&]). Capture a value key (ConnKey, owner
         id, stage index) and revalidate at fire time.
  EA003  charge/release flow pairing: a resource handle acquired from
         AllocPage / AllocIoBuffer must, on every exit path of the
         acquiring function, be released (FreePage / UnlockIoBuffer),
         transferred (passed to a call, stored into a field or container,
         returned), or provably null.
  EA005  determinism: no iteration over a pointer-keyed std::map/std::set
         (range-for or begin()): its order follows the allocator.

The EA rules read two markers, comments on the line(s) directly above a
declaration: ESCORT_KERNEL_LIFETIME (a class whose instances pathKill or
owner teardown reclaims at arbitrary times) and ESCORT_DEFERRED_API (a
function whose callable argument runs after the current event).

Suppression: `// NOLINT-EA00x(reason)` on the flagged line, or alone on the
line above, suppresses that EA rule there. The reason is mandatory; an
empty reason is itself reported (EA000).

Self-test: tools/lint/fixtures/ is a miniature tree whose files carry
`// EXPECT: RULE` on every line a rule must flag. --self-test requires
exact (file, line, rule) agreement and at least one expectation per rule.

Usage:
  escort_lint.py [--root DIR] [-q]
  escort_lint.py --self-test

Exit status: 0 clean (or self-test passed), 1 findings, 2 error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# Directories scanned relative to the repository root; the EA rules see
# only the src/ headers and sources among them.
SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_EXTS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")
MODEL_EXTS = (".h", ".cc")

# Every rule the self-test fixtures must exercise.
RULES = ("EL001", "EL002", "EL003", "EL004", "EL005", "EL006", "EL007",
         "EL008", "EL009", "EL011", "EL013", "EL014", "EL015",
         "EA000", "EA001", "EA003", "EA005")

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*((?:E[LA]\d{3}[ \t]*)+)")

# EL005: files allowed to use naked new/delete (the kernel's own
# allocators, which hand out raw objects by design).
NAKED_NEW_ALLOWLIST = ("src/kernel/iobuffer.cc",)

# EL008: alternate reclamation markers for lists not drained by name in
# DestroyOwner (the IOBuffer locks are released through the manager).
RECLAIM_MARKERS = {"iobuffer_locks": ("iobuffer_locks()", "ReleaseAllFor")}

# Counters that are charged but intentionally never released.
PAIRING_EXEMPT_COUNTERS = {"cycles"}

# EL011: the only files in src/ allowed to write to the console — the
# diagnostics funnel itself and the bench CLI layer (its tables are the
# product, not diagnostics).
DIAG_ALLOWLIST = ("src/sim/trace.cc", "src/workload/sweep.cc")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                # A quote directly after an identifier/number character is a
                # C++14 digit separator (50'000), not a char literal.
                prev = out[-1] if out else ""
                if prev.isalnum() or prev == "_":
                    out.append(" ")
                    i += 1
                    continue
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            out.append(c if c == "\n" else " ")
            if c == "\n":
                state = "code"
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string | char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def match_brace(code: str, open_idx: int, open_ch: str = "{", close_ch: str = "}") -> int:
    """Index of the bracket closing code[open_idx], or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def block_after(code: str, start: int):
    """(open, end) offsets of the first brace-matched {...} block at or after
    `start`, end exclusive; None when there is none."""
    i = code.find("{", start)
    j = match_brace(code, i) if i >= 0 else -1
    return (i, j + 1) if j >= 0 else None


def line_of(code: str, offset: int) -> int:
    return code.count("\n", 0, offset) + 1


# --- EL rules: token-level checks ---------------------------------------------

def guard_for(relpath: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", relpath).upper() + "_"


def check_include_guard(relpath: str, raw: str, code: str, findings: list) -> None:
    # The #ifndef/#define search runs on stripped text so a trailing comment
    # does not hide the guard; the #endif check needs the comment itself.
    want = guard_for(relpath)
    ifndef = re.search(r"^#ifndef\s+(\S+)\s*$", code, re.M)
    if ifndef is None:
        findings.append(Finding(relpath, 1, "EL001", f"missing include guard (expected {want})"))
        return
    line = line_of(code, ifndef.start())
    if ifndef.group(1) != want:
        findings.append(Finding(relpath, line, "EL001",
                                f"include guard {ifndef.group(1)} does not match path (expected {want})"))
        return
    if re.search(rf"^#define\s+{re.escape(want)}\s*$", code, re.M) is None:
        findings.append(Finding(relpath, line, "EL001", f"#ifndef {want} without matching #define"))
    if re.search(rf"^#endif\s*//\s*{re.escape(want)}\s*$", raw, re.M) is None:
        last = line_of(raw, raw.rstrip().rfind("\n") + 1)
        findings.append(Finding(relpath, last, "EL001",
                                f"closing #endif must carry the guard comment: '#endif  // {want}'"))


def check_header_hygiene(relpath: str, code: str, findings: list) -> None:
    for m in re.finditer(r"^\s*#pragma\s+once", code, re.M):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL002",
                                "#pragma once: this tree uses path-derived include guards"))
    for m in re.finditer(r"^\s*using\s+namespace\s+[\w:]+\s*;", code, re.M):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL002",
                                "file-scope 'using namespace' in a header leaks into every includer"))


NONDET_PATTERNS = (
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand(): seed an escort::Rng instead (src/sim/rng.h)"),
    (re.compile(r"\brandom_device\b"), "std::random_device is nondeterministic; use escort::Rng (src/sim/rng.h)"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937: use escort::Rng so runs stay reproducible"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "wall-clock time(): simulated time comes from EventQueue::now()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday(): simulated time comes from EventQueue::now()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock(): simulated time comes from EventQueue::now()"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "chrono clocks are wall-clock; simulated time comes from EventQueue::now()"),
)

# src/sim/rng.* implements the deterministic generator itself;
# src/sim/parallel.cc additionally owns MonotonicMillis(), the *host*
# wall-clock used only for the bench perf trajectory (never for
# simulated time — the JSON perf block is determinism-exempt).
NONDET_ALLOWLIST = ("src/sim/rng.h", "src/sim/rng.cc", "src/sim/parallel.cc")

CLOCK_ALIAS_USING_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*[^;]*\b(?:system_clock|steady_clock|high_resolution_clock)\b")
CLOCK_ALIAS_TYPEDEF_RE = re.compile(
    r"\btypedef\s+[^;]*\b(?:system_clock|steady_clock|high_resolution_clock)\b[^;]*?([A-Za-z_]\w*)\s*;")


def check_clock_aliases(files: dict, findings: list) -> None:
    """EL003 second pass: wall-clock access laundered through a type alias.

    The alias declaration itself carries a clock token and is flagged by
    NONDET_PATTERNS where it stands, but a use site in another file
    (`Clock::now()`) has no token of its own — so aliases are collected
    tree-wide first and their qualified uses flagged per file.
    """
    aliases = set()
    for _raw, code in files.values():
        for m in CLOCK_ALIAS_USING_RE.finditer(code):
            aliases.add(m.group(1))
        for m in CLOCK_ALIAS_TYPEDEF_RE.finditer(code):
            aliases.add(m.group(1))
    if not aliases:
        return
    use_re = re.compile(r"\b(" + "|".join(sorted(aliases)) + r")\s*::\s*\w+")
    for relpath, (_raw, code) in files.items():
        if not relpath.startswith("src/") or relpath in NONDET_ALLOWLIST:
            continue
        for m in use_re.finditer(code):
            findings.append(Finding(relpath, line_of(code, m.start()), "EL003",
                                    f"'{m.group(1)}' aliases a wall-clock chrono clock; "
                                    "simulated time comes from EventQueue::now()"))


def check_determinism(relpath: str, code: str, findings: list) -> None:
    if not relpath.startswith("src/") or relpath in NONDET_ALLOWLIST:
        return
    for pattern, why in NONDET_PATTERNS:
        for m in pattern.finditer(code):
            findings.append(Finding(relpath, line_of(code, m.start()), "EL003", why))
    for m in re.finditer(r"\bunordered_(?:map|set|multimap|multiset)\b", code):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL004",
                                "unordered containers have implementation-defined iteration order; "
                                "use std::map/std::set (the event queue must stay deterministic)"))


def check_allocation(relpath: str, code: str, findings: list) -> None:
    if relpath in NAKED_NEW_ALLOWLIST:
        return
    lines = code.split("\n")
    for m in re.finditer(r"\bnew\b(?!\s*\()", code):
        lineno = line_of(code, m.start())
        # A `new` directly inside a smart-pointer constructor is fine; the
        # wrap may start on the same line or the line above (clang-format
        # wraps long constructor calls).
        before = code[: m.start()]
        window = "".join(lines[max(0, lineno - 2): lineno])
        if re.search(r"(?:unique_ptr|shared_ptr)\s*<[^\n]*\(\s*new\b", window) or \
           re.search(r"(?:unique_ptr|shared_ptr)\s*<[^\n]*>\s*\(\s*$", "".join(before.split("\n")[-2:])):
            continue
        findings.append(Finding(relpath, lineno, "EL005",
                                "naked `new` outside the kernel allocators; use std::make_unique "
                                "or wrap the result in a smart pointer on the same statement"))
    for m in re.finditer(r"\bdelete(?:\[\])?\s+\w", code):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL005",
                                "naked `delete` outside the kernel allocators; owning smart "
                                "pointers release automatically"))


TRACK_LISTS_MUTATION = re.compile(
    r"\b(?:threads|iobuffer_locks|events|pages)\(\)\s*\.\s*"
    r"(?:push_front|push_back|erase|pop_front|pop_back|clear|insert|emplace\w*)\s*\(")
USAGE_MUTATION = re.compile(r"\busage\(\)\s*\.\s*(\w+)\s*(\+=|-=|=)")


def check_kernel_only_bookkeeping(relpath: str, code: str, findings: list) -> None:
    if not relpath.startswith("src/") or relpath.startswith("src/kernel/"):
        return
    for m in USAGE_MUTATION.finditer(code):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL006",
                                f"direct mutation of Owner::usage().{m.group(1)} outside src/kernel; "
                                "charge through the Kernel API so the auditor can pair it"))
    for m in TRACK_LISTS_MUTATION.finditer(code):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL006",
                                "direct mutation of an Owner tracking list outside src/kernel; "
                                "objects insert/remove themselves via the kernel only"))


STATIC_KEYWORD = re.compile(r"\bstatic\b")


def check_thread_hygiene(relpath: str, code: str, findings: list) -> None:
    """EL009 — no mutable static state in src/ (tests and benches may use
    statics freely)."""
    if not relpath.startswith("src/"):
        return
    for m in STATIC_KEYWORD.finditer(code):
        # `constexpr static int k = ...` — qualifier may precede the keyword.
        line_start = code.rfind("\n", 0, m.start()) + 1
        prefix = code[line_start: m.start()]
        if "constexpr" in prefix or re.search(r"\bconst\b", prefix):
            continue
        # Statement snippet: up to the first `;` or `{`, whichever is nearer.
        stop = len(code)
        for terminator in (";", "{"):
            j = code.find(terminator, m.start())
            if 0 <= j < stop:
                stop = j
        snippet = code[m.start(): min(stop, m.start() + 400)]
        if re.match(r"static\s+(?:inline\s+)?(?:const\b|constexpr\b)", snippet):
            continue
        # A `(` before any `=` means a function declaration/definition
        # (default arguments put their `=` inside the parens), not data.
        paren = snippet.find("(")
        eq = snippet.find("=")
        if paren != -1 and (eq == -1 or paren < eq):
            continue
        findings.append(Finding(relpath, line_of(code, m.start()), "EL009",
                                "mutable static state in simulation code: sweep cells run "
                                "concurrently and must share nothing mutable — make it "
                                "`static const`/`constexpr`, or move it into per-cell state"))


DIAG_PATTERNS = (
    # \b keeps snprintf/sprintf (buffer formatting) out of scope.
    (re.compile(r"\b(?:printf|fprintf|vfprintf|fputs|puts|fputc|putchar|perror)\s*\("),
     "console I/O call in simulation code; route diagnostics through Tracer::Diag "
     "(src/sim/trace.h) so output stays deterministic and redirectable"),
    (re.compile(r"\bstd\s*::\s*(?:cout|cerr|clog)\b"),
     "iostream console object in simulation code; route diagnostics through "
     "Tracer::Diag (src/sim/trace.h)"),
    (re.compile(r"\bstd(?:out|err)\b"),
     "bare stdout/stderr in simulation code; route diagnostics through "
     "Tracer::Diag (src/sim/trace.h)"),
)


def check_diagnostics(relpath: str, code: str, findings: list) -> None:
    """EL011 — console output is confined to the Tracer::Diag funnel."""
    if not relpath.startswith("src/") or relpath in DIAG_ALLOWLIST:
        return
    for pattern, why in DIAG_PATTERNS:
        for m in pattern.finditer(code):
            findings.append(Finding(relpath, line_of(code, m.start()), "EL011", why))


def marked_bodies(marker: str, raw: str, code: str):
    """(open, end) body spans of the types marked `marker`.

    The marker lives in the doc comment above the class, so it is located
    in the raw text; the marked type is the next class/struct definition
    after it, found in the stripped text (same offsets — stripping is
    length-preserving) so commented-out members do not count.
    """
    for m in re.finditer(r"\b" + marker + r"\b", raw):
        decl = re.compile(r"\b(?:class|struct)\s+\w+").search(code, m.end())
        span = block_after(code, decl.end()) if decl is not None else None
        if span is not None:
            yield span


SHARED_PTR_MEMBER = re.compile(r"\b(?:std\s*::\s*)?shared_ptr\s*<")
FLOAT_MEMBER = re.compile(r"^\s*(?:float|double)\s+\w+", re.MULTILINE)


def check_marked_types(relpath: str, raw: str, code: str, findings: list) -> None:
    """EL013 (slab slots own no shared_ptr) and EL014 (detection
    accumulators hold no float/double)."""
    for start, end in marked_bodies("ESCORT_SLAB_SLOT", raw, code):
        for m in SHARED_PTR_MEMBER.finditer(code, start, end):
            findings.append(Finding(relpath, line_of(code, m.start()), "EL013",
                                    "shared_ptr member in an ESCORT_SLAB_SLOT type: slab slots "
                                    "are recycled under a generation tag, and shared ownership "
                                    "keeps the referent alive past Release — store a ConnHandle "
                                    "(or a plain value) and revalidate at use"))
    for start, end in marked_bodies("ESCORT_DETECT_ACCUMULATOR", raw, code):
        for m in FLOAT_MEMBER.finditer(code[start:end]):
            findings.append(Finding(relpath, line_of(code, start + m.start()), "EL014",
                                    "float/double member in an ESCORT_DETECT_ACCUMULATOR type: "
                                    "float accumulation order leaks scheduling into detection "
                                    "decisions — keep integer moments (fixed-point / sum + "
                                    "sum-of-squares) and derive float views at compare time"))


METRIC_REGISTER = re.compile(r"\bRegister(?:Counter|Gauge|Histogram)\s*\(")
# The metrics module declares/defines Register* and the macros that wrap
# them; everything else in src/ must call through the macros.
METRICS_ALLOWLIST = ("src/sim/metrics.h", "src/sim/metrics.cc")


def check_metric_registration(relpath: str, code: str, findings: list) -> None:
    """EL015 — a direct Register* call is invisible to a grep for
    ESCORT_METRIC_ and tends to skip the null-registry guard. Macro call
    sites carry no Register* token, so a token match suffices."""
    if not relpath.startswith("src/") or relpath in METRICS_ALLOWLIST:
        return
    for m in METRIC_REGISTER.finditer(code):
        findings.append(Finding(relpath, line_of(code, m.start()), "EL015",
                                "direct MetricsRegistry::Register* call; register through "
                                "the ESCORT_METRIC_* macros (src/sim/metrics.h) so every "
                                "instrumentation site is greppable and null-registry safe"))


def body_of(code: str, signature_re: str) -> str:
    """The brace-matched body of the first definition matching
    `signature_re`, or ''."""
    m = re.search(signature_re, code)
    span = block_after(code, m.end()) if m is not None else None
    return code[span[0]:span[1]] if span is not None else ""


def check_pairing_and_completeness(files: dict, findings: list) -> None:
    """EL007 (charge/release pairing) + EL008 (reclamation/audit coverage)."""
    owner_h = files.get("src/kernel/owner.h", ("", ""))[1]
    kernel_cc = files.get("src/kernel/kernel.cc", ("", ""))[1]
    audit_cc = files.get("src/kernel/audit.cc", ("", ""))[1]
    if not owner_h:
        return  # a tree without the kernel

    # Discover the Owner tracking lists and ResourceUsage counters.
    lists = [m.group(1).rstrip("_") for m in
             re.finditer(r"std::list<[^>]+>\s+(\w+_)\s*;", owner_h)]
    usage_body = body_of(owner_h, r"struct\s+ResourceUsage")
    counters = [m.group(1) for m in
                re.finditer(r"(?:uint64_t|Cycles)\s+(\w+)\s*=", usage_body)]

    # EL007: each counter must be both charged and released in src/kernel.
    charged, released = {}, {}
    for path, (_raw, text) in files.items():
        if not path.startswith("src/kernel/"):
            continue
        for m in USAGE_MUTATION.finditer(text):
            counter, op = m.group(1), m.group(2)
            line = line_of(text, m.start())
            if op == "+=":
                charged.setdefault(counter, (path, line))
            elif op == "-=" or (op == "=" and re.match(r"=\s*0", text[m.end(2) - 1:])):
                released.setdefault(counter, (path, line))
    for counter in sorted(set(charged) | set(released)):
        if counter in PAIRING_EXEMPT_COUNTERS:
            continue
        if counter in charged and counter not in released:
            path, line = charged[counter]
            findings.append(Finding(path, line, "EL007",
                                    f"usage().{counter} is charged but never released anywhere in "
                                    "src/kernel (leaked charge)"))
        if counter in released and counter not in charged:
            path, line = released[counter]
            findings.append(Finding(path, line, "EL007",
                                    f"usage().{counter} is released but never charged anywhere in "
                                    "src/kernel (double release / dead counter)"))

    # EL008a: every tracking list must be reclaimed in Kernel::DestroyOwner.
    destroy_body = body_of(kernel_cc, r"Cycles\s+Kernel::DestroyOwner\s*\(")
    if destroy_body:
        for name in lists:
            markers = RECLAIM_MARKERS.get(name, (f"{name}()",))
            if not any(marker in destroy_body for marker in markers):
                findings.append(Finding("src/kernel/kernel.cc", 1, "EL008",
                                        f"Owner tracking list '{name}' is not reclaimed in "
                                        "Kernel::DestroyOwner — a destroyed owner would leak it"))
    # EL008b: every list and counter must be drain-checked by the auditor.
    drain_body = body_of(audit_cc, r"void\s+Auditor::CheckOwnerDrained\s*\(")
    if drain_body:
        for counter in counters:
            if counter in PAIRING_EXEMPT_COUNTERS:
                continue
            if not re.search(rf"\b(?:drained|empty)\(\s*{counter}|u\.{counter}\b", drain_body):
                findings.append(Finding("src/kernel/audit.cc", 1, "EL008",
                                        f"ResourceUsage::{counter} is not drain-checked in "
                                        "Auditor::CheckOwnerDrained"))
        for name in lists:
            if f'"{name}"' not in drain_body and f".{name}()" not in drain_body:
                findings.append(Finding("src/kernel/audit.cc", 1, "EL008",
                                        f"Owner tracking list '{name}' is not drain-checked in "
                                        "Auditor::CheckOwnerDrained"))


# --- EA rules: the model of src/ ----------------------------------------------

MARKERS = ("ESCORT_KERNEL_LIFETIME", "ESCORT_DEFERRED_API")

# EA003 acquire -> releases. "Transfer" covers PageAllocator::Transfer; any
# other escape is recognized structurally.
CHARGE_PAIRS = {
    "AllocPage": ("FreePage", "Transfer"),
    "AllocIoBuffer": ("UnlockIoBuffer",),
}

CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "return", "break",
    "continue", "goto", "sizeof", "new", "delete", "throw", "catch", "try",
    "static_assert", "alignas", "alignof", "decltype", "using", "typedef",
    "namespace", "template", "typename", "public", "private", "protected",
    "friend", "class", "struct", "enum", "union", "operator", "default",
}

TYPE_NOT_KEYWORDS = CONTROL_KEYWORDS | {"const", "constexpr", "mutable",
                                        "static", "inline", "virtual",
                                        "explicit", "volatile", "register"}


class ClassInfo:
    def __init__(self, name, path, line):
        self.name = name
        self.path = path
        self.line = line
        self.bases = []          # base class names
        self.members = {}        # var name -> (type, ptrness)
        self.span = (0, 0)       # offset span of the body in the file


class FuncDef:
    def __init__(self, path, cls, name, line):
        self.path = path
        self.cls = cls           # enclosing/qualifying class name or None
        self.name = name
        self.line = line
        self.params = {}         # name -> (type, ptrness)
        self.locals = []         # (offset_in_body, name, type, ptrness)
        self.body = ""           # masked body text (between braces)
        self.body_off = 0        # file offset of the opening brace + 1


class Model:
    """Type facts the EA rules consume, built from stripped source text."""

    def __init__(self, files: dict, findings: list):
        self.files = files           # relpath -> (raw, masked), sorted
        self.classes = {}            # name -> ClassInfo
        self.functions = []          # FuncDef, definition order
        self.kernel_lifetime = set()     # class names
        self.deferred_apis = set()       # method names
        self.nolint = {}             # (relpath, line) -> set of rules
        self.findings = findings

    def add(self, path, line, rule, message):
        self.findings.append(Finding(path, line, rule, message))

    def func_at(self, path, offset):
        """Innermost function definition containing a file offset."""
        best = None
        for f in self.functions:
            if f.path != path:
                continue
            if f.body_off <= offset < f.body_off + len(f.body):
                if best is None or f.body_off > best.body_off:
                    best = f
        return best

    def is_kernel_lifetime(self, type_name):
        """Transitive through known bases (Path : Owner)."""
        seen = set()
        stack = [type_name]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            if t in self.kernel_lifetime:
                return True
            ci = self.classes.get(t)
            if ci is not None:
                stack.extend(ci.bases)
        return False


CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(:\s*[^{;]+)?\{")

MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|const\s+|constexpr\s+)*"
    r"((?:std::)?[A-Za-z_][\w:]*(?:<[^;]*>)?)\s*([*&]*)\s*"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;")

FUNC_RE = re.compile(
    r"(?:^|[;{}\n])[ \t]*(?:template\s*<[^>]*>\s*)?"
    r"(?:inline\s+|static\s+|virtual\s+|constexpr\s+|explicit\s+)*"
    r"(?:[A-Za-z_][\w:<>,*&\s]*?[\s*&])??"
    r"((?:[A-Za-z_]\w*::)*)([A-Za-z_~]\w*)\s*\(([^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)\s*"
    r"(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?(?:final\s*)?(?::[^{;]*?)?\{",
    re.S)

PARAM_RE = re.compile(
    r"((?:const\s+)?(?:std::)?[A-Za-z_][\w:]*(?:<[^<>]*(?:<[^<>]*>[^<>]*)*>)?)"
    r"\s*((?:\s*(?:const|[*&]))*)\s*([A-Za-z_]\w*)\s*(?:=[^,]*)?$")

LOCAL_RE = re.compile(
    r"^\s*(?:const\s+|constexpr\s+|static\s+)*"
    r"((?:std::)?[A-Za-z_][\w:]*(?:<[^;=]*>)?)\s*([*&]*)\s*"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;")

COND_DECL_RE = re.compile(
    r"\b(?:if|while|for)\s*\(\s*((?:std::)?[A-Za-z_][\w:]*)\s*([*&])\s*"
    r"([A-Za-z_]\w*)\s*[=:]")


def normalize_type(t: str) -> str:
    t = t.strip()
    for prefix in ("const ", "std::"):
        if t.startswith(prefix):
            t = t[len(prefix):]
    return t.split("<")[0].strip()


def parse_params(args_text: str):
    """name -> (type, ptrness) from a signature's argument text."""
    params = {}
    for part in split_top_level(args_text):
        m = PARAM_RE.match(part.strip())
        if m is None:
            continue
        typ, ptr, name = m.groups()
        base = normalize_type(typ)
        if base in TYPE_NOT_KEYWORDS:
            continue
        params[name] = (base, "*" in (ptr or "") or "&" in (ptr or ""))
    return params


def build_model(model: Model) -> None:
    for path, (raw, code) in model.files.items():
        scan_annotations(model, path, raw, code)
    for path, (_raw, code) in model.files.items():
        scan_classes(model, path, code)
    for path, (_raw, code) in model.files.items():
        scan_functions(model, path, code)


def scan_annotations(model, path, raw, code):
    lines = raw.split("\n")
    pending = []  # markers awaiting their declaration
    for idx, line in enumerate(lines):
        lineno = idx + 1
        nol = re.search(r"//\s*NOLINT-(EA\d{3})\s*\(([^)]*)\)", line)
        if nol is not None:
            rule, reason = nol.group(1), nol.group(2).strip()
            if not reason:
                model.add(path, lineno, "EA000", f"NOLINT-{rule} without a reason — say why")
            target = lineno + 1 if line.strip().startswith("//") else lineno
            model.nolint.setdefault((path, target), set()).add(rule)
            model.nolint.setdefault((path, lineno), set()).add(rule)
        for marker in MARKERS:
            if re.search(r"//.*\b" + marker + r"\b", line):
                pending.append(marker)
        if pending and not line.strip().startswith("//") \
                and not re.search(r"//.*\bESCORT_\w+", line) \
                and code.split("\n")[idx].strip():
            bind_annotation(model, code, idx, pending)
            pending = []


def bind_annotation(model, code, line_idx, pending):
    """Attach pending markers to the declaration starting at line_idx."""
    lines = code.split("\n")
    # Gather continuation lines until we see { ; or ( — enough to name it.
    probe = lines[line_idx]
    j = line_idx
    while "(" not in probe and "{" not in probe and ";" not in probe \
            and j + 1 < len(lines) and j - line_idx < 4:
        j += 1
        probe += " " + lines[j]
    cm = re.search(r"\b(?:class|struct)\s+([A-Za-z_]\w*)", probe)
    fm = re.search(r"\b([A-Za-z_~]\w*)\s*\(", probe)
    for marker in pending:
        if marker == "ESCORT_KERNEL_LIFETIME":
            if cm is not None:
                model.kernel_lifetime.add(cm.group(1))
        elif fm is not None:  # ESCORT_DEFERRED_API
            model.deferred_apis.add(fm.group(1))


def scan_classes(model, path, code):
    for m in CLASS_RE.finditer(code):
        name = m.group(1)
        brace = code.index("{", m.start())
        close = match_brace(code, brace)
        if close < 0:
            continue
        ci = model.classes.get(name)
        if ci is None:
            ci = ClassInfo(name, path, line_of(code, m.start()))
            model.classes[name] = ci
        ci.span = (brace, close)
        if m.group(2):
            for b in m.group(2).lstrip(":").split(","):
                b = re.sub(r"^(public|private|protected|virtual)\s+", "", b.strip())
                b = b.split("<")[0].strip().split("::")[-1]
                if b:
                    ci.bases.append(b)
        # Members: the depth-0 statements of the class body; an inline
        # method's signature ends at its `{` and is not a member.
        depth = 0
        stmt = ""
        for c in code[brace + 1:close]:
            if c == "{":
                depth += 1
                stmt = ""
            elif c == "}":
                depth -= 1
                stmt = ""
            elif depth == 0:
                stmt += c
                if c == ";":
                    stmt = re.sub(r"^\s*(?:public|private|protected)\s*:", "", stmt).strip()
                    mm = MEMBER_RE.match(stmt)
                    if mm is not None:
                        typ = normalize_type(mm.group(1))
                        if typ not in TYPE_NOT_KEYWORDS:
                            ci.members[mm.group(3)] = (typ, bool(mm.group(2)))
                    stmt = ""


def scan_functions(model, path, code):
    for m in FUNC_RE.finditer(code):
        qual, name, args = m.group(1), m.group(2), m.group(3)
        if name in CONTROL_KEYWORDS:
            continue
        brace = m.end() - 1
        close = match_brace(code, brace)
        if close < 0:
            continue
        cls = qual.rstrip(":").split("::")[-1] if qual else None
        if cls is None:
            # Inline method? attach the innermost class whose span covers us.
            for ci in model.classes.values():
                if ci.path != path:
                    continue
                lo, hi = ci.span
                if lo < m.start() < hi:
                    if cls is None or lo > model.classes[cls].span[0]:
                        cls = ci.name
        f = FuncDef(path, cls, name, line_of(code, m.start(2)))
        f.params = parse_params(args)
        f.body = code[brace + 1:close]
        f.body_off = brace + 1
        scan_locals(f)
        model.functions.append(f)


def scan_locals(f):
    offset = 0
    for stmt_line in f.body.split("\n"):
        m = LOCAL_RE.match(stmt_line)
        if m is not None:
            typ = normalize_type(m.group(1))
            if typ not in TYPE_NOT_KEYWORDS:
                f.locals.append((offset, m.group(3), typ, bool(m.group(2))))
        for cm in COND_DECL_RE.finditer(stmt_line):
            typ = normalize_type(cm.group(1))
            if typ not in TYPE_NOT_KEYWORDS:
                f.locals.append((offset, cm.group(3), typ, True))
        offset += len(stmt_line) + 1


def resolve_var(model, func, name, at_offset=None):
    """(type, is_ptr) for `name` visible in `func` at body offset, or None."""
    if func is None:
        return None
    best = None
    for off, n, typ, ptr in func.locals:
        if n != name:
            continue
        if at_offset is not None and off > at_offset:
            continue
        if best is None or off >= best[0]:
            best = (off, typ, ptr)
    if best is not None:
        return (best[1], best[2])
    if name in func.params:
        return func.params[name]
    cls = func.cls
    seen = set()
    while cls and cls not in seen:
        seen.add(cls)
        ci = model.classes.get(cls)
        if ci is None:
            break
        if name in ci.members:
            return ci.members[name]
        cls = ci.bases[0] if ci.bases else None
    return None


# --- EA001: deferred-capture safety --------------------------------------------

def split_top_level(text, sep=","):
    parts, depth, cur, prev = [], 0, "", ""
    for c in text:
        if c in "([{<":
            depth += 1
        elif c == ">" and prev == "-":
            pass  # `->` is not a closing angle bracket
        elif c in ")]}>":
            depth -= 1
        prev = c
        if c == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += c
    parts.append(cur)
    return parts


def find_lambdas_in_args(code, open_paren):
    """Offsets of '[' starting lambda literals that are arguments of the
    call whose '(' is at open_paren. A lambda inside this argument list at
    any paren depth still belongs to a callable being built for this call,
    so every argument-position '[' in the span is returned."""
    close = match_brace(code, open_paren, "(", ")")
    if close < 0:
        return []
    out = []
    i = open_paren + 1
    while i < close:
        if code[i] == "[":
            j = i - 1
            while j > open_paren and code[j].isspace():
                j -= 1
            if code[j] in "(,":
                out.append(i)
            # skip the capture list either way (avoid [] inside it)
            end = match_brace(code, i, "[", "]")
            i = (end if end > 0 else i) + 1
            continue
        i += 1
    return out


def check_ea001(model):
    if not model.deferred_apis:
        return
    call_re = re.compile(r"\b(" + "|".join(sorted(model.deferred_apis)) + r")\s*\(")
    for path, (_raw, code) in model.files.items():
        for cm in call_re.finditer(code):
            api = cm.group(1)
            for lb in find_lambdas_in_args(code, cm.end() - 1):
                rb = match_brace(code, lb, "[", "]")
                if rb < 0:
                    continue
                func = model.func_at(path, lb)
                for cap in split_top_level(code[lb + 1:rb]):
                    cap = cap.strip()
                    if not cap:
                        continue
                    bad = classify_capture(model, func, cap, lb)
                    if bad is not None:
                        model.add(path, line_of(code, lb), "EA001",
                                  f"deferred closure passed to {api}() {bad}; "
                                  "capture a value key (owner id / ConnKey / "
                                  "index) and revalidate at fire time")


def classify_capture(model, func, cap, at_offset):
    """Reason string if the capture violates EA001, else None."""
    if cap in ("=", "&"):
        return f"uses capture-default [{cap}] (explicit captures required)"
    if cap in ("this", "*this"):
        cls = func.cls if func is not None else None
        if cls is not None and model.is_kernel_lifetime(cls):
            return f"captures `this` of kernel-lifetime class {cls}"
        return None
    body_offset = at_offset - (func.body_off if func else 0)
    m = re.match(r"^&\s*([A-Za-z_]\w*)$", cap)
    if m is not None:
        name = m.group(1)
        fact = resolve_var(model, func, name, body_offset)
        if fact is not None and model.is_kernel_lifetime(fact[0]):
            return f"captures `&{name}` referencing kernel-lifetime {fact[0]}"
        return None
    m = re.match(r"^([A-Za-z_]\w*)\s*=\s*(.+)$", cap, re.S)
    if m is not None:
        im = re.match(r"^(?:std::move\(\s*)?([A-Za-z_]\w*)\s*\)?$", m.group(2).strip())
        if im is None:
            return None  # computed initializer (ids, keys) — fine
        name = im.group(1)
    else:
        if not re.match(r"^[A-Za-z_]\w*$", cap):
            return None
        name = cap
    fact = resolve_var(model, func, name, body_offset)
    if fact is not None and fact[1] and model.is_kernel_lifetime(fact[0]):
        return f"captures raw `{fact[0]}*` `{name}`"
    return None


# --- EA003: charge/release flow pairing ----------------------------------------

class Stmt:
    def __init__(self, kind, text, line, then=None, els=None):
        self.kind = kind      # plain | if | loop | block
        self.text = text      # statement or control-header text
        self.line = line
        self.then = then or []
        self.els = els


def parse_stmts(code, body, body_off):
    """Flat-ish statement tree for one function body. Splits only at paren
    depth 0, so for(;;) headers and lambda-literal arguments stay inside one
    statement."""
    stmts = []
    i, n = 0, len(body)
    start = 0
    pdepth = 0
    while i < n:
        c = body[i]
        if c == "(":
            pdepth += 1
        elif c == ")":
            pdepth = max(0, pdepth - 1)
        elif pdepth > 0:
            pass
        elif c == ";":
            seg = body[start:i]
            text = seg.strip()
            if text:
                lead = len(seg) - len(seg.lstrip())
                stmts.append(Stmt("plain", text, line_of(code, body_off + start + lead)))
            start = i + 1
        elif c == "{":
            seg = body[start:i]
            header = seg.strip()
            close = match_brace(body, i)
            if close < 0:
                break
            inner = parse_stmts(code, body[i + 1:close], body_off + i + 1)
            hline = line_of(code, body_off + start + len(seg) - len(seg.lstrip()))
            if re.match(r"^(else\s+if|if)\b", header):
                stmts.append(Stmt("if", header, hline, then=inner))
            elif re.match(r"^(for|while|do|switch)\b", header):
                stmts.append(Stmt("loop", header, hline, then=inner))
            elif header.startswith("else") and stmts and stmts[-1].kind == "if":
                stmts[-1].els = inner
            else:
                stmts.append(Stmt("block", header, hline, then=inner))
            i = close
            start = i + 1
        i += 1
    seg = body[start:]
    tail = seg.strip()
    if tail:
        stmts.append(Stmt("plain", tail,
                          line_of(code, body_off + start + len(seg) - len(seg.lstrip()))))
    return stmts


def stmt_guard(text, handle):
    """'null' / 'nonnull' if the if-header tests the handle, else None."""
    if re.search(r"\b" + handle + r"\s*==\s*nullptr", text) or \
            re.search(r"!\s*" + handle + r"\b", text):
        return "null"
    if re.search(r"\b" + handle + r"\s*!=\s*nullptr", text) or \
            re.search(r"\(\s*" + handle + r"\s*\)", text):
        return "nonnull"
    return None


def stmt_discharges(text, handle, releases):
    """True if the statement releases or transfers the handle."""
    for rel in releases:
        if re.search(r"\b" + rel + r"\s*\([^;]*\b" + handle + r"\b", text):
            return True
    if re.search(r"\breturn\s+(?:std::move\(\s*)?" + handle + r"\b", text):
        return True
    if re.search(r"\bstd::move\(\s*" + handle + r"\s*\)", text):
        return True
    # Stored: assigned into a field/container/deref (escapes the function).
    if re.search(r"[\w\])\]]\s*(?:\[[^\]]*\]\s*)?=\s*" + handle + r"\s*(?:[;,)]|$)", text):
        return True
    # Passed to any call as an argument (ownership handed over).
    if re.search(r"\w\s*\([^;]*[(,]\s*" + handle + r"\s*[,)]", text) or \
            re.search(r"\w\s*\(\s*" + handle + r"\s*[,)]", text):
        return True
    return False


def exits_without(seq, handle, releases):
    """Line number of an exit path that drops the handle, 0 for the function
    end, or None. `seq` is every statement that may run after the charge."""
    if not seq:
        return 0  # fell off the end of the function holding the handle
    s, rest = seq[0], seq[1:]
    if s.kind == "plain":
        if stmt_discharges(s.text, handle, releases):
            return None
        if re.match(r"^return\b", s.text):
            return s.line
        return exits_without(rest, handle, releases)
    if s.kind == "if":
        guard = stmt_guard(s.text, handle)
        if guard == "null":
            # Then-branch runs with no resource; else/fallthrough holds it.
            return exits_without((s.els or []) + rest, handle, releases)
        if guard == "nonnull":
            # Else/fallthrough is the null case — exempt.
            return exits_without(s.then + rest, handle, releases)
        leak = exits_without(s.then + rest, handle, releases)
        if leak is not None:
            return leak
        return exits_without((s.els or []) + rest, handle, releases)
    if s.kind == "loop":
        # Zero-iteration path first; then one pass through the body.
        leak = exits_without(rest, handle, releases)
        if leak is not None and not any(
                stmt_discharges(t.text, handle, releases) for t in s.then):
            return leak
    return exits_without(s.then + rest, handle, releases)


def check_ea003(model):
    charge_re = re.compile(
        r"(?:([A-Za-z_]\w*)\s*=\s*[^;=]*?)?\b(" + "|".join(CHARGE_PAIRS) + r")\s*\(")

    def flatten(seq, trail):
        for idx, s in enumerate(seq):
            yield (s, seq[idx + 1:], trail)
            if s.kind in ("if", "loop", "block"):
                yield from flatten(s.then, seq[idx + 1:] + trail)
                if s.els:
                    yield from flatten(s.els, seq[idx + 1:] + trail)

    for f in model.functions:
        code = model.files[f.path][1]
        for s, rest, trail in flatten(parse_stmts(code, f.body, f.body_off), []):
            if s.kind != "plain":
                continue
            for m in charge_re.finditer(s.text):
                handle, api = m.group(1), m.group(2)
                if handle is None:
                    continue  # result unused — the decl site, not a call
                if f.name == api:
                    continue  # the kernel wrapper itself
                releases = CHARGE_PAIRS[api]
                leak = exits_without(rest + trail, handle, releases)
                if stmt_discharges(s.text[m.end():], handle, releases):
                    leak = None
                if leak is not None:
                    where = f"line {leak}" if leak else "function end"
                    model.add(f.path, s.line, "EA003",
                              f"{api}() handle `{handle}` not released "
                              f"({'/'.join(releases)}) or transferred on the "
                              f"exit path reaching {where}")


# --- EA005: pointer-keyed iteration --------------------------------------------

CONTAINER_DECL_RE = re.compile(
    r"\bstd::(map|set|multimap|multiset)\s*<([^;{}()=]*)>\s*([A-Za-z_]\w*)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^:;()]*:\s*([A-Za-z_]\w*(?:\(\))?)\s*\)")


def check_ea005(model):
    containers = {}  # (path, name) -> (kind, pointer-keyed?)
    for path, (_raw, code) in model.files.items():
        for m in CONTAINER_DECL_RE.finditer(code):
            kind, args, name = m.groups()
            containers[(path, name)] = (kind, split_top_level(args)[0].strip().endswith("*"))

    def lookup(path, name):
        hit = containers.get((path, name))
        if hit is not None:
            return hit
        # Member declared in a header: search every indexed file.
        return next((v for (_p, n), v in containers.items() if n == name), None)

    for f in model.functions:
        code = model.files[f.path][1]
        for m in RANGE_FOR_RE.finditer(f.body):
            base = m.group(1).replace("()", "")
            info = lookup(f.path, base)
            if info is not None and info[1]:
                model.add(f.path, line_of(code, f.body_off + m.start()), "EA005",
                          f"iteration over pointer-keyed std::{info[0]} `{base}` "
                          "— order follows the allocator, not the program; "
                          "key by owner id instead")
        # The while (!m.empty()) Kill(m.begin()->first) teardown pattern.
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\.\s*begin\s*\(\)", f.body):
            info = lookup(f.path, m.group(1))
            if info is not None and info[1]:
                model.add(f.path, line_of(code, f.body_off + m.start()), "EA005",
                          f"begin() on pointer-keyed std::{info[0]} "
                          f"`{m.group(1)}` selects by address order")


# --- Tree walk and entry points ----------------------------------------------

def read_tree(root: str) -> dict:
    """relpath -> (raw, stripped) for every C++ file under SCAN_DIRS, sorted."""
    paths = []
    for scan_dir in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, scan_dir)):
            paths += [os.path.join(dirpath, f) for f in filenames if f.endswith(CXX_EXTS)]
    files = {}
    for path in sorted(paths, key=lambda p: os.path.relpath(p, root)):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        files[os.path.relpath(path, root).replace(os.sep, "/")] = \
            (raw, strip_comments_and_strings(raw))
    return files


def check_files(files: dict):
    """(findings, suppressed): unsuppressed findings sorted by location,
    and the number of findings a NOLINT-EA00x comment suppressed."""
    findings: list = []
    for relpath, (raw, code) in files.items():
        if relpath.endswith((".h", ".hh", ".hpp")):
            check_include_guard(relpath, raw, code, findings)
            check_header_hygiene(relpath, code, findings)
        check_determinism(relpath, code, findings)
        check_allocation(relpath, code, findings)
        check_kernel_only_bookkeeping(relpath, code, findings)
        check_thread_hygiene(relpath, code, findings)
        check_diagnostics(relpath, code, findings)
        check_marked_types(relpath, raw, code, findings)
        check_metric_registration(relpath, code, findings)
    check_clock_aliases(files, findings)
    check_pairing_and_completeness(files, findings)

    model = Model({p: t for p, t in files.items()
                   if p.startswith("src/") and p.endswith(MODEL_EXTS)}, findings)
    build_model(model)
    check_ea001(model)
    check_ea003(model)
    check_ea005(model)

    # Several detectors can anchor the same line: dedup, then suppress.
    unique = {(f.path, f.line, f.rule, f.message): f for f in findings}.values()
    active = [f for f in unique if f.rule not in model.nolint.get((f.path, f.line), ())]
    active.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return active, len(unique) - len(active)


def expected_findings(files: dict) -> set:
    """(relpath, line, rule) for every `// EXPECT: RULE` marker."""
    expected = set()
    for relpath, (raw, _code) in files.items():
        for lineno, line in enumerate(raw.split("\n"), start=1):
            m = EXPECT_RE.search(line)
            if m is not None:
                expected |= {(relpath, lineno, rule) for rule in m.group(1).split()}
    return expected


def run_self_test() -> int:
    files = read_tree(FIXTURES)
    expected = expected_findings(files)
    findings, _ = check_files(files)
    got = {f.key() for f in findings}
    for path, line, rule in sorted(expected - got):
        print(f"self-test MISSING  {path}:{line}: expected {rule}, not reported")
    for f in findings:
        if f.key() not in expected:
            print(f"self-test SPURIOUS {f}")
    uncovered = sorted(set(RULES) - {rule for _, _, rule in expected})
    for rule in uncovered:
        print(f"self-test UNCOVERED {rule}: no fixture expects it")
    ok = expected == got and not uncovered
    print(f"escort_lint self-test: {'PASS' if ok else 'FAIL'} "
          f"({len(expected)} expected findings, {len(got)} produced, {len(RULES)} rules)")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the fixtures against their EXPECT markers, then exit")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not any(os.path.isdir(os.path.join(root, d)) for d in SCAN_DIRS):
        print(f"escort_lint: {root} contains none of {'/'.join(SCAN_DIRS)} — "
              "wrong --root? refusing to report a vacuously clean tree", file=sys.stderr)
        return 2
    files = read_tree(root)
    findings, suppressed = check_files(files)
    for f in findings:
        print(f)
    if not args.quiet:
        print(f"escort_lint: files={len(files)} findings={len(findings)} suppressed={suppressed}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
