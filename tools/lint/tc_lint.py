#!/usr/bin/env python3
"""Repo-invariant linter (registered as a CTest test).

Checks cross-file invariants the compiler cannot see:

  R1  every net::MessageType enumerator has a row in net::kFrameTypes (the
      frame-type table in src/net/wire.hpp) — a frame type without a row
      reads as "unknown" and loses its name, ordering and routing. A
      static_assert beside the table keeps row i describing type i, so a
      row deleted mid-table fails the build and one deleted at the end
      fails here.
  R2  every wire frame type has fuzz coverage: its enumerator (or a known
      alias) appears in tests/wire_fuzz_test.cpp.
  R3  every decode path goes through the bounded DecodeFrameHeader: a file
      that touches kFrameHeaderBytes must also call DecodeFrameHeader —
      hand-rolled header parsing would bypass the body-length bound.
  R4  no naked std synchronization primitives in src/ outside
      common/thread_annotations.hpp: the annotated tc:: wrappers are the
      only way Clang's thread-safety analysis sees the locking.
  R5  src/crypto/ never compares secret material with memcmp/std::equal,
      and secret-suffixed identifiers (key/digest/mac/tag/secret) are
      compared with ConstantTimeEqual, not ==.
  R6  every metric name literal passed to GetCounter/GetGauge/GetHistogram
      is snake_case starting with tc_ (the Prometheus exposition contract),
      and no name is registered as two different metric kinds — the
      registry keys (name, labels) per kind, so a collision would render
      one family under two TYPE lines.
  R7  (kMetricsInfo is a read: a static_assert beside the frame-type table
      in src/net/wire.hpp checks it at compile time.)
  R8  span-op and event-kind literals (TraceSpan constructions and
      RecordEvent calls) form one flat vocabulary: snake_case, globally
      unique, exactly one call site each — `tccli trace`/`tccli events`
      output stays grep-able back to its single origin, and a kind never
      means two different things. (New MessageTypes like kTraceInfo get
      fuzz coverage through R2 automatically.)
  R9  key-material members in src/crypto/*.hpp carry TC_SECRET: a data
      member whose name mentions key/seed/secret must be annotated so
      tools/analyze/tc_analyze.py sees it as a taint source and holds its
      record to the zeroize-on-destruction rule. Members named *public*
      (the public half of a keypair) are exempt.
  R10 TC_BLOCKING annotates declarations, not call sites: outside
      common/thread_annotations.hpp it may only appear in a header,
      leading its declaration line — tc_analyze seeds interprocedural
      may-block summaries from declarations, and an annotation in a .cpp
      is invisible to callers in other TUs. Every tc_analyze:allow
      suppression must name only known rules and carry a justification;
      a typo'd or bare suppression is inert in the analyzer, so it is
      rejected here instead.
  R11 one module decides which crypto kernels run: in src/, <cpuid.h>,
      __get_cpuid and xgetbv/_xgetbv appear only in src/crypto/cpu.cpp,
      the CPU feature table's one probe, and nothing under src/crypto/
      calls getenv — a kernel choice is never made by a second probe or by
      the environment (tests reach the portable side through
      ScopedCpuFeatureMask).

Run from anywhere: paths are resolved relative to the repo root (this
file's grandparent directory). Exit code 0 = clean, 1 = violations (each
printed as file:line: message).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"

failures = []


def fail(path, line, message):
    failures.append(f"{path.relative_to(REPO)}:{line}: {message}")


def read(path):
    return path.read_text(encoding="utf-8")


# --------------------------------------------------------------------- R1
def message_types():
    """Enumerator names of net::MessageType, from src/net/wire.hpp."""
    text = read(SRC / "net" / "wire.hpp")
    match = re.search(r"enum class MessageType[^{]*\{(.*?)\};", text,
                      re.DOTALL)
    if not match:
        fail(SRC / "net" / "wire.hpp", 1, "MessageType enum not found")
        return []
    body = re.sub(r"//[^\n]*", "", match.group(1))
    return re.findall(r"\b(k[A-Za-z0-9]+)\s*=", body)


def check_frame_table(enumerators):
    path = SRC / "net" / "wire.hpp"
    text = read(path)
    match = re.search(r"kRows\[\]\s*=\s*\{(.*?)\n\};", text,
                      re.DOTALL)
    if not match:
        fail(path, 1, "frame-type table frame_table::kRows not found")
        return
    body = re.sub(r"//[^\n]*", "", match.group(1))
    line = text[:match.start()].count("\n") + 1
    for name in enumerators:
        if not re.search(rf"\b{name}\b", body):
            fail(path, line,
                 f"MessageType::{name} has no row in kFrameTypes; add one "
                 "(name, mutation, route, replica_read) at its enum value")


# --------------------------------------------------------------------- R2
# Frame types whose fuzz coverage runs under a different name than the
# enumerator (the response decoder is the interesting surface for these).
FUZZ_ALIASES = {
    "kResponse": "ResponseBody",
    "kGetStatRange": "StatRange",
    "kGetStatSeries": "StatSeries",
    "kGetStreamInfo": "StreamInfo",
}


def check_fuzz_coverage(enumerators):
    path = TESTS / "wire_fuzz_test.cpp"
    text = read(path)
    for name in enumerators:
        token = FUZZ_ALIASES.get(name, name[1:])  # strip the 'k'
        if token not in text:
            fail(path, 1,
                 f"wire frame type {name} has no fuzz coverage "
                 f"(expected '{token}' to appear in this file)")


# --------------------------------------------------------------------- R3
def check_bounded_decode():
    # The definers of the constant and the decoder are exempt.
    exempt = {SRC / "net" / "wire.hpp", SRC / "net" / "wire.cpp"}
    for path in sorted(SRC.rglob("*.[ch]pp")) + sorted(
            TESTS.rglob("*.[ch]pp")):
        if path in exempt:
            continue
        text = read(path)
        if "kFrameHeaderBytes" in text and "DecodeFrameHeader(" not in text:
            line = text[:text.index("kFrameHeaderBytes")].count("\n") + 1
            fail(path, line,
                 "reads a frame header without DecodeFrameHeader; "
                 "hand-rolled parsing bypasses the body-length bound")


# --------------------------------------------------------------------- R4
NAKED_SYNC = re.compile(
    r"\bstd::(mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b")


def check_no_naked_mutexes():
    allowed = SRC / "common" / "thread_annotations.hpp"
    for path in sorted(SRC.rglob("*.[ch]pp")):
        if path == allowed:
            continue
        for number, line in enumerate(read(path).splitlines(), 1):
            code = line.split("//")[0]
            match = NAKED_SYNC.search(code)
            if match:
                fail(path, number,
                     f"naked std::{match.group(1)}; use the annotated "
                     "tc:: wrappers from common/thread_annotations.hpp")


# --------------------------------------------------------------------- R5
SECRET_IDENT = re.compile(
    r"[A-Za-z_][A-Za-z0-9_.\->]*(?:key|digest|mac|tag|secret)_?\b",
    re.IGNORECASE)
EQ_COMPARE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_.]*(?:->[A-Za-z0-9_.]+)*)\s*[!=]=\s*"
    r"([A-Za-z_][A-Za-z0-9_.]*(?:->[A-Za-z0-9_.]+)*)")


def is_secret(expr):
    leaf = expr.split(".")[-1].split("->")[-1]
    return bool(re.search(r"(?:^|_)(?:key|digest|mac|tag|secret)_?$",
                          leaf, re.IGNORECASE))


def check_crypto_constant_time():
    for path in sorted((SRC / "crypto").rglob("*.[ch]pp")):
        text = read(path)
        for number, line in enumerate(text.splitlines(), 1):
            code = line.split("//")[0]
            if re.search(r"\bmemcmp\s*\(|\bstd::equal\s*\(", code):
                fail(path, number,
                     "memcmp/std::equal in crypto code; use "
                     "ConstantTimeEqual from crypto/constant_time.hpp")
                continue
            for match in EQ_COMPARE.finditer(code):
                lhs, rhs = match.group(1), match.group(2)
                if (is_secret(lhs) or is_secret(rhs)) and \
                        "ConstantTimeEqual" not in code:
                    fail(path, number,
                         f"secret-material comparison '{lhs} == {rhs}' "
                         "must use ConstantTimeEqual "
                         "(crypto/constant_time.hpp)")


# --------------------------------------------------------------------- R6
METRIC_CALL = re.compile(
    r"Get(Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME = re.compile(r"^tc_[a-z0-9_]+$")


def check_metric_names():
    # name -> (kind, first path, first line); scans src/ and tests/ so a
    # test registering a colliding family fails the same gate.
    seen = {}
    for path in sorted(SRC.rglob("*.[ch]pp")) + sorted(
            TESTS.rglob("*.[ch]pp")):
        text = read(path)
        for number, line in enumerate(text.splitlines(), 1):
            code = line.split("//")[0]
            for match in METRIC_CALL.finditer(code):
                kind, name = match.group(1), match.group(2)
                if not METRIC_NAME.match(name):
                    fail(path, number,
                         f"metric name '{name}' must be snake_case and "
                         "start with tc_ (Prometheus exposition contract)")
                    continue
                prior = seen.get(name)
                if prior is None:
                    seen[name] = (kind, path, number)
                elif prior[0] != kind:
                    fail(path, number,
                         f"metric '{name}' registered as {kind} here but "
                         f"as {prior[0]} at "
                         f"{prior[1].relative_to(REPO)}:{prior[2]}; one "
                         "family must have one kind")


# --------------------------------------------------------------------- R8
SPAN_OP = re.compile(r"TraceSpan\s+\w+\s*\(\s*\"([^\"]*)\"")
EVENT_KIND = re.compile(r"RecordEvent\s*\(\s*\"([^\"]*)\"")
VOCAB_NAME = re.compile(r"^[a-z][a-z0-9_]*$")


def check_trace_vocabulary():
    # literal -> (what, first path, first line); spans and events share one
    # namespace so a name can never mean two different things in a trace.
    seen = {}
    roots = [SRC, REPO / "bench", REPO / "tools"]
    for root in roots:
        for path in sorted(root.rglob("*.[ch]pp")):
            text = read(path)
            for pattern, what in ((SPAN_OP, "span op"),
                                  (EVENT_KIND, "event kind")):
                for match in pattern.finditer(text):
                    name = match.group(1)
                    line = text[:match.start()].count("\n") + 1
                    if not VOCAB_NAME.match(name):
                        fail(path, line,
                             f"{what} '{name}' must be snake_case "
                             "(trace/event output is a grep surface)")
                        continue
                    prior = seen.get(name)
                    if prior is None:
                        seen[name] = (what, path, line)
                    else:
                        fail(path, line,
                             f"{what} '{name}' already recorded as "
                             f"{prior[0]} at "
                             f"{prior[1].relative_to(REPO)}:{prior[2]}; "
                             "span-op/event-kind literals have exactly one "
                             "call site so output greps back to one origin")


# --------------------------------------------------------------------- R9
# A data-member declaration: optional TC_SECRET, a type, one identifier,
# optional brace-init, semicolon. Initialized constants (`= 32;`) and
# function declarations never match the identifier-before-semicolon shape.
R9_MEMBER = re.compile(
    r"^\s*(?:TC_SECRET\s+)?[\w:<>,*&\s\[\]]+?\s"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\{[^{}]*\})?\s*;")
R9_NAME = re.compile(r"(?:key|seed|secret)", re.IGNORECASE)


def check_crypto_secret_annotations():
    for path in sorted((SRC / "crypto").glob("*.hpp")):
        for number, line in enumerate(read(path).splitlines(), 1):
            code = line.split("//")[0]
            code = re.sub(r"\balignas\s*\([^)]*\)", "", code)
            if "(" in code or "using " in code or "typedef " in code:
                continue  # function/param/alias, not a data member
            match = R9_MEMBER.match(code)
            if not match:
                continue
            name = match.group(1)
            if not R9_NAME.search(name) or "public" in name.lower():
                continue
            if "TC_SECRET" not in code:
                fail(path, number,
                     f"crypto member '{name}' looks like key material but "
                     "is not annotated TC_SECRET (common/secret.hpp); "
                     "tc_analyze cannot track or enforce zeroization "
                     "without it")


# -------------------------------------------------------------------- R10
R10_KNOWN_RULES = {
    "secret-leak", "zeroize", "constant-time", "bounded-decode",
    "blocking-under-lock", "blocking-in-executor", "status-discard",
}
R10_ALLOW = re.compile(r"//\s*tc_analyze:allow\(([^)]*)\)\s*(.*)$")


def check_blocking_annotations():
    annotations_hpp = SRC / "common" / "thread_annotations.hpp"
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or path == annotations_hpp:
            continue
        for number, line in enumerate(read(path).splitlines(), 1):
            code = line.split("//")[0]
            if "TC_BLOCKING" in code:
                if path.suffix != ".hpp":
                    fail(path, number,
                         "TC_BLOCKING belongs on the declaration in the "
                         "header — an annotation in a .cpp is invisible to "
                         "callers in other TUs")
                elif not code.lstrip().startswith("TC_BLOCKING"):
                    fail(path, number,
                         "TC_BLOCKING must lead its declaration line "
                         "(annotate declarations, not call sites)")
            match = R10_ALLOW.search(line)
            if match:
                rules = [r.strip() for r in match.group(1).split(",")]
                unknown = [r for r in rules if r not in R10_KNOWN_RULES]
                if unknown:
                    fail(path, number,
                         "tc_analyze:allow names unknown rule(s) "
                         f"{unknown}; the analyzer silently ignores such "
                         "a suppression")
                if not match.group(2).strip():
                    fail(path, number,
                         "tc_analyze:allow without a justification; say "
                         "why this hazard is safe here")


# -------------------------------------------------------------------- R11
R11_CPUID = re.compile(r"<cpuid\.h>|\b__get_cpuid|\b_?xgetbv\b")
R11_GETENV = re.compile(r"\bgetenv\s*\(")


def check_one_cpu_probe():
    probe = SRC / "crypto" / "cpu.cpp"
    for path in sorted(SRC.rglob("*.[ch]pp")):
        in_crypto = (SRC / "crypto") in path.parents
        for number, line in enumerate(read(path).splitlines(), 1):
            code = line.split("//")[0]
            if path != probe and R11_CPUID.search(code):
                fail(path, number,
                     "CPUID or XGETBV outside src/crypto/cpu.cpp; extend "
                     "the CPU feature table (crypto/cpu.hpp) instead of "
                     "probing again")
            if in_crypto and R11_GETENV.search(code):
                fail(path, number,
                     "getenv in src/crypto/; kernel dispatch reads only "
                     "the CPU feature table (crypto/cpu.hpp)")


def main():
    enumerators = message_types()
    if not enumerators:
        print("tc_lint: could not parse MessageType enum", file=sys.stderr)
        return 1
    check_frame_table(enumerators)
    check_fuzz_coverage(enumerators)
    check_bounded_decode()
    check_no_naked_mutexes()
    check_crypto_constant_time()
    check_metric_names()
    check_trace_vocabulary()
    check_crypto_secret_annotations()
    check_blocking_annotations()
    check_one_cpu_probe()
    if failures:
        for failure in failures:
            print(failure)
        print(f"tc_lint: {len(failures)} violation(s)", file=sys.stderr)
        return 1
    print(f"tc_lint: clean ({len(enumerators)} frame types, "
          "10 invariants)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
