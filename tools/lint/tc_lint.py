#!/usr/bin/env python3
"""Repo-invariant linter (registered as a CTest test).

Checks cross-file invariants the compiler cannot see:

  R1  every net::MessageType enumerator has a row in net::kFrameTypes (the
      frame-type table in src/net/wire.hpp) — a frame type without a row
      reads as "unknown" and loses its name, read/mutation class and
      routing. A static_assert beside the table keeps row i describing
      type i, so a row deleted mid-table fails the build and one deleted
      at the end fails here.
  R2  every wire frame type has fuzz coverage: its enumerator (or a known
      alias) appears in tests/wire_fuzz_test.cpp.
  R3  every decode path goes through the bounded DecodeFrameHeader: a file
      that touches kFrameHeaderBytes must also call DecodeFrameHeader —
      hand-rolled header parsing would bypass the body-length bound.
  R4  no naked std synchronization primitives in src/ outside
      common/thread_annotations.hpp: the annotated tc:: wrappers are the
      only way Clang's thread-safety analysis sees the locking, and the
      Debug-build blocking checks count lock holds through them.
  R5  src/crypto/ never compares secret material with memcmp/std::equal,
      and secret-suffixed identifiers (key/digest/mac/tag/secret) are
      compared with ConstantTimeEqual, not ==.
  R6  every metric name literal passed to GetCounter/GetGauge/GetHistogram
      is snake_case starting with tc_ (the Prometheus exposition contract),
      and no name is registered as two different metric kinds — the
      registry keys (name, labels) per kind, so a collision would render
      one family under two TYPE lines.
  R7  (kMetricsInfo is a read — a scrape changes no server state — and a
      static_assert beside the frame-type table in src/net/wire.hpp checks
      it at compile time. The TCP server answers each connection in send
      order whatever the class, so the column no longer orders anything.)
  R8  span-op and event-kind literals (TraceSpan constructions and
      RecordEvent calls) form one flat vocabulary: snake_case, globally
      unique, exactly one call site each — `tccli trace`/`tccli events`
      output stays grep-able back to its single origin, and a kind never
      means two different things. (New MessageTypes like kTraceInfo get
      fuzz coverage through R2 automatically.)
  R9  key material held by an object lives in a scrubbing type: a data
      member of a header in src/crypto/, src/client/ or tools/ whose name
      mentions key/seed/secret/master/state (not *public*) is a
      Scrubbed<T>, a SecretBuffer/SecretBytes/SecretKeys, a
      ZeroizingAllocator vector, or a record that holds its own keys that
      way — so no owner needs a scrubbing destructor of its own.
  R10 (B3) a discarded value says why: every cast to void in src/ and the
      CLI sources carries a reason comment on its line or the line above,
      and a function returning a Status or Result by reference is
      [[nodiscard]] (the class attribute does not reach references).
  R11 one module decides which crypto kernels run: in src/, <cpuid.h>,
      __get_cpuid and xgetbv/_xgetbv appear only in src/crypto/cpu.cpp,
      the CPU feature table's one probe, and nothing under src/crypto/
      calls getenv — a kernel choice is never made by a second probe or by
      the environment (tests reach the portable side through
      ScopedCpuFeatureMask).
  R12 key bytes stay in the crypto layer: secret_bytes(), the one byte
      accessor of crypto::Key128 and SecretBuffer, is called only in
      src/crypto/, in common/secret.hpp and in the key serialisers
      (net/codec.hpp, client/grants.cpp, tools/cli_common.hpp). Everywhere
      else a key is an opaque value that no log line, Status message or
      early-exit compare can reach.
  R13 the product links no libcrypto: no file in src/ or tools/ includes
      an <openssl/...> header. Only the benchmarks' strawman ciphers
      (bench/strawman/) and the tests' cross-checks use OpenSSL.
  R14 no secret-indexed table can come back into the crypto layer: no
      256-entry byte table (an S-box's shape: static storage or a brace
      initializer) in src/crypto/. Indexing one
      with key or data bytes leaks them through the cache (Bernstein,
      "Cache-timing attacks on AES", 2005); the portable AES is bitsliced.

lint_file(path, text) runs the per-file rules on one file as if it lived
at the repo-relative `path`; tools/lint/lint_fixture.py feeds it the
negative fixtures in tools/lint/fixtures/.

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
def check_bounded_decode(rel, text):
    # The definers of the constant and the decoder are exempt.
    if not rel.startswith(("src/", "tests/")) or rel in (
            "src/net/wire.hpp", "src/net/wire.cpp"):
        return
    if "kFrameHeaderBytes" in text and "DecodeFrameHeader(" not in text:
        yield (text[:text.index("kFrameHeaderBytes")].count("\n") + 1,
               "reads a frame header without DecodeFrameHeader; "
               "hand-rolled parsing bypasses the body-length bound")


# --------------------------------------------------------------------- R4
NAKED_SYNC = re.compile(
    r"\bstd::(mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b")


def check_no_naked_mutexes(rel, text):
    if not rel.startswith("src/") or rel == "src/common/thread_annotations.hpp":
        return
    for number, line in enumerate(text.splitlines(), 1):
        match = NAKED_SYNC.search(line.split("//")[0])
        if match:
            yield number, (f"naked std::{match.group(1)}; use the annotated "
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


def check_crypto_constant_time(rel, text):
    if not rel.startswith("src/crypto/"):
        return
    for number, line in enumerate(text.splitlines(), 1):
        code = line.split("//")[0]
        if re.search(r"\bmemcmp\s*\(|\bstd::equal\s*\(", code):
            yield number, ("memcmp/std::equal in crypto code; use "
                           "ConstantTimeEqual from crypto/constant_time.hpp")
            continue
        for match in EQ_COMPARE.finditer(code):
            lhs, rhs = match.group(1), match.group(2)
            if (is_secret(lhs) or is_secret(rhs)) and \
                    "ConstantTimeEqual" not in code:
                yield number, (f"secret-material comparison '{lhs} == {rhs}' "
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
# A data-member declaration: a type, one identifier, optional brace-init,
# semicolon. Initialized constants (`= 32;`) and function declarations never
# match the identifier-before-semicolon shape.
R9_MEMBER = re.compile(
    r"^\s*[\w:<>,*&\s\[\]]+?\s"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\{[^{}]*\})?\s*;")
R9_NAME = re.compile(r"(?:key|seed|secret|master|state)", re.IGNORECASE)
R9_SCRUBBING = re.compile(
    r"\b(?:Scrubbed|SecretBuffer|SecretBytes|SecretKeys|ZeroizingAllocator|"
    # Records whose own key members this rule holds to the same standard.
    r"FieldKeys|StreamKeys|AccessToken|KeyRegressionState|HashChain|"
    r"SequentialLeafIterator|BoxKeyPair|SigningKeyPair)\b")
# Settings that only name key material: configs, options, counters, flags.
R9_NOT_KEYS = re.compile(
    r"\b(?:\w*Config|\w*Options|std::string|u?int\d+_t|size_t|bool)\s+\w+"
    r"\s*(?:=|\{|;)")
R9_SCOPE = ("src/crypto/", "src/client/", "tools/")


def check_key_members(rel, text):
    if not rel.endswith(".hpp") or not rel.startswith(R9_SCOPE):
        return
    for number, line in enumerate(text.splitlines(), 1):
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
        if not R9_SCRUBBING.search(code) and not R9_NOT_KEYS.search(code):
            yield number, (
                f"member '{name}' looks like key material but is not held "
                "in a scrubbing type (Scrubbed<T>, SecretBuffer, SecretKeys "
                "or a ZeroizingAllocator vector, common/secret.hpp)")


# --------------------------------------------------------------------- R10
R10_VOID = re.compile(r"\(void\)\s*[A-Za-z_(]")
R10_REF_RETURN = re.compile(
    r"^\s*(?:static\s+|virtual\s+|inline\s+)*(?:const\s+)?"
    r"(?:Status|Result<[^;{}]*>)\s*&\s*[A-Za-z_]\w*\s*\(")


def check_discards(rel, text):
    if not rel.startswith(("src/", "tools/")):
        return
    lines = text.splitlines()
    for number, line in enumerate(lines, 1):
        code, _, comment = line.partition("//")
        if R10_VOID.search(code):
            above = lines[number - 2].strip() if number > 1 else ""
            if not comment.strip() and not above.startswith("//"):
                yield number, (
                    "cast to void without a reason comment; say why the "
                    "value may be dropped, on this line or the one above")
        if R10_REF_RETURN.search(code):
            above = lines[number - 2] if number > 1 else ""
            if "[[nodiscard]]" not in code + above:
                yield number, (
                    "a Status or Result returned by reference must be "
                    "[[nodiscard]]: the class attribute does not reach "
                    "references")


# -------------------------------------------------------------------- R11
R11_CPUID = re.compile(r"<cpuid\.h>|\b__get_cpuid|\b_?xgetbv\b")
R11_GETENV = re.compile(r"\bgetenv\s*\(")


def check_one_cpu_probe(rel, text):
    if not rel.startswith("src/"):
        return
    for number, line in enumerate(text.splitlines(), 1):
        code = line.split("//")[0]
        if rel != "src/crypto/cpu.cpp" and R11_CPUID.search(code):
            yield number, ("CPUID or XGETBV outside src/crypto/cpu.cpp; "
                           "extend the CPU feature table (crypto/cpu.hpp) "
                           "instead of probing again")
        if rel.startswith("src/crypto/") and R11_GETENV.search(code):
            yield number, ("getenv in src/crypto/; kernel dispatch reads "
                           "only the CPU feature table (crypto/cpu.hpp)")


# -------------------------------------------------------------------- R12
R12_ACCESSOR = re.compile(r"\bsecret_bytes\s*\(")
R12_ALLOWED = ("src/crypto/", "src/common/secret.hpp", "src/net/codec.hpp",
               "src/client/grants.cpp", "tools/cli_common.hpp")


def check_key_bytes(rel, text):
    if not rel.startswith(("src/", "tools/")) or rel.startswith(R12_ALLOWED):
        return
    for number, line in enumerate(text.splitlines(), 1):
        if R12_ACCESSOR.search(line.split("//")[0]):
            yield number, ("secret_bytes() outside src/crypto/ and the key "
                           "serialisers; keep keys opaque here (a crypto "
                           "function can take the Key128 or SecretBuffer)")


# -------------------------------------------------------------------- R13
R13_OPENSSL = re.compile(r"#\s*include\s*<openssl/")


def check_no_openssl(rel, text):
    if not rel.startswith(("src/", "tools/")):
        return
    for number, line in enumerate(text.splitlines(), 1):
        if R13_OPENSSL.search(line):
            yield number, ("OpenSSL header in src/ or tools/; the product "
                           "links no libcrypto (only bench/strawman/ and "
                           "the tests' cross-checks may)")


# -------------------------------------------------------------------- R14
R14_BYTE = r"(?:std::)?(?:u?int8_t|(?:un)?signed\s+char|char|std::byte|byte)"
R14_C_ARRAY = re.compile(R14_BYTE + r"\s+\w+\s*\[\s*(\w*)\s*\]")
R14_STD_ARRAY = re.compile(r"std::array\s*<\s*" + R14_BYTE +
                           r"\s*,\s*256\s*>")
R14_MESSAGE = ("256-entry byte table in src/crypto/ (an S-box's shape); a "
               "secret-indexed table load leaks through the cache, so "
               "compute the function in constant time instead")


def initializer_entries(text, start):
    """The number of entries in the brace initializer after `start`, or 0
    when a ';' comes first."""
    brace = text.find("{", start)
    semi = text.find(";", start)
    if (brace < 0 or (0 <= semi < brace) or
            not re.fullmatch(r"\s*\w*\s*=?\s*", text[start:brace])):
        return 0
    end = text.find("}", brace)
    body = re.sub(r"//[^\n]*", "", text[brace + 1:end])
    return len([e for e in body.split(",") if e.strip()])


R14_TABLE = re.compile(r"\b(?:constexpr|static|extern)\b")


def is_table(text, match):
    """A table has static storage or a brace initializer; a local work
    array of 256 digits filled by code is not one."""
    line_start = text.rfind("\n", 0, match.start()) + 1
    return (R14_TABLE.search(text[line_start:match.start()]) is not None
            or initializer_entries(text, match.end()) > 0)


def check_no_byte_tables(rel, text):
    if not rel.startswith("src/crypto/"):
        return
    for match in R14_C_ARRAY.finditer(text):
        size = match.group(1)
        entries = initializer_entries(text, match.end())
        if (size == "256" and is_table(text, match)) or entries >= 256:
            yield text.count("\n", 0, match.start()) + 1, R14_MESSAGE
    for match in R14_STD_ARRAY.finditer(text):
        if is_table(text, match):
            yield text.count("\n", 0, match.start()) + 1, R14_MESSAGE


FILE_RULES = (check_bounded_decode, check_no_naked_mutexes,
              check_crypto_constant_time, check_key_members, check_discards,
              check_one_cpu_probe, check_key_bytes, check_no_openssl,
              check_no_byte_tables)


def lint_file(rel, text):
    """(line, message) for each per-file rule violation in `text`, read as
    the repo-relative path `rel`."""
    return [v for rule in FILE_RULES for v in rule(rel, text)]


def lint_tree():
    sources = [SRC.rglob("*.[ch]pp"), TESTS.rglob("*.[ch]pp"),
               (REPO / "tools").glob("*.[ch]pp")]
    for path in sorted(p for group in sources for p in group):
        for line, message in lint_file(
                path.relative_to(REPO).as_posix(), read(path)):
            fail(path, line, message)


def main():
    enumerators = message_types()
    if not enumerators:
        print("tc_lint: could not parse MessageType enum", file=sys.stderr)
        return 1
    check_frame_table(enumerators)
    check_fuzz_coverage(enumerators)
    check_metric_names()
    check_trace_vocabulary()
    lint_tree()
    if failures:
        for failure in failures:
            print(failure)
        print(f"tc_lint: {len(failures)} violation(s)", file=sys.stderr)
        return 1
    print(f"tc_lint: clean ({len(enumerators)} frame types, "
          "13 invariants)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
