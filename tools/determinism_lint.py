#!/usr/bin/env python3
"""Nondeterminism-hazard lints for placement-affecting code.

Every correctness contract in this repo — bit-identical placement streams
between the incremental cores and the ReferenceScheduler, golden FNV-1a
stream hashes, ddmin-shrinkable chaos repros — requires the scheduling pipeline to be deterministic *by
construction*. These rules statically flag the constructs that silently break
that (see DESIGN.md §12 for the catalog and suppression policy):

  unordered-iteration  iterating a std::unordered_{map,set} (range-for or
                       explicit .begin() loops). Hash-map iteration order is
                       implementation-defined; one such loop in a
                       placement-affecting path ties golden streams to the
                       stdlib. Fix: iterate a sorted/indexed mirror, switch
                       to std::map, or suppress with a reason.
  nondet-source        rand()/srand(), std::random_device, time(...),
                       {steady,system,high_resolution}_clock::now(),
                       clock_gettime/gettimeofday. Randomness must come from
                       util/rng.h seeded streams; time must be virtual.
                       Lines inside `#if defined(TSF_TELEMETRY)` regions are
                       exempt (measurement-only by the telemetry-macros rule
                       in lint_repo.py; compiled out under TELEMETRY=OFF).
  pointer-keyed        std::map/set (ordered or unordered) keyed on a pointer
                       type, or std::less<T*> comparators: iteration order
                       becomes allocation order, which varies run to run.
                       Key on a stable id instead.
  address-hash         std::hash<T*> specializations/instantiations and
                       reinterpret_cast to (u)intptr_t — address-derived
                       values change across runs under ASLR.
  bad-suppression      a NOLINT-determinism marker without a reason; every
                       suppression is ledger material and must say why the
                       site is benign.
  stale-suppression    a NOLINT-determinism marker that no longer covers any
                       hazard — burn it down instead of letting it rot.
  build-flags          -ffast-math, -Ofast or -march=native in a CMake file
                       (CMakeLists.txt, *.cmake, CMakePresets.json). The
                       first two let the compiler reassociate and fuse
                       floating-point operations; the last ties the code to
                       the build host's FMA support. Either moves the golden
                       streams (src/telemetry/CMakeLists.txt turns
                       contraction off for every target).

Suppression: append `// NOLINT-determinism(<reason>)` to the hazard line or
the line directly above it. `--list-suppressions` prints the audited ledger.

Scope: src/core, src/sim, src/mesos, src/load, src/lp, src/chaos — the code
whose outputs feed placement streams, golden hashes, or committed repros.
tools/, bench/, tests/ may read clocks and print freely. build-flags reads
every first-party CMake file.

Usage:
  tools/determinism_lint.py [--root DIR] [--format=text|github]
  tools/determinism_lint.py --self-test
  tools/determinism_lint.py --list-suppressions
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_common  # noqa: E402
from lint_common import Finding  # noqa: E402

SCOPE_DIRS = ("src/core/", "src/sim/", "src/mesos/", "src/load/", "src/lp/",
              "src/chaos/")

SUPPRESS_RE = re.compile(r"//\s*NOLINT-determinism\b(?:\(([^)]*)\))?")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<")

TELEMETRY_IF_RE = re.compile(
    r"#\s*if\s+defined\s*\(\s*TSF_TELEMETRY\s*\)|#\s*ifdef\s+TSF_TELEMETRY")

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*?:\s*\*?([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*\)")

BEGIN_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*\.\s*c?begin\s*\(")

NONDET_SOURCE_RES = (
    (re.compile(r"(?<![\w.])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w.])srand\s*\("), "srand()"),
    (re.compile(r"std::random_device|(?<!\w)random_device\s+\w"),
     "std::random_device"),
    (re.compile(r"(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
    (re.compile(
        r"(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now"),
     "wall-clock read"),
    (re.compile(r"(?<![\w.])(?:clock_gettime|gettimeofday)\s*\("),
     "wall-clock read"),
    (re.compile(r"std::random_shuffle"), "std::random_shuffle"),
)

POINTER_KEY_RES = (
    re.compile(r"std::(?:unordered_)?(?:map|multimap)\s*<\s*"
               r"(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*"
               r"(?:const\s*)?\*"),
    re.compile(r"std::(?:unordered_)?(?:set|multiset)\s*<\s*"
               r"(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*"
               r"(?:const\s*)?\*"),
    re.compile(r"std::less\s*<[^<>]*\*\s*>"),
)

ADDRESS_HASH_RES = (
    re.compile(r"std::hash\s*<[^<>]*\*\s*>"),
    re.compile(r"reinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
)


BUILD_FILE_DIRS = ("src", "tests", "bench", "tools", "examples", "perfbench")

BUILD_FLAG_RE = re.compile(r"-ffast-math\b|-Ofast\b|-march=native\b")


def is_build_file(path):
    name = os.path.basename(path)
    return (name in ("CMakeLists.txt", "CMakePresets.json")
            or name.endswith(".cmake"))


def load_build_files(root):
    files = {}
    candidates = ["CMakeLists.txt", "CMakePresets.json"] + list(
        lint_common.walk_sources(root, BUILD_FILE_DIRS, {".txt", ".cmake"}))
    for rel in candidates:
        path = os.path.join(root, rel)
        if is_build_file(rel) and os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                files[rel] = f.read()
    return files


def in_scope(path):
    return (any(path.startswith(d) for d in SCOPE_DIRS)
            and not is_build_file(path))


# ---------------------------------------------------------- suppressions --


def suppression_for(raw_lines, lineno):
    """Returns the NOLINT-determinism reason covering 1-based `lineno` (its
    own line or the line directly above), or None."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(raw_lines):
            m = SUPPRESS_RE.search(raw_lines[candidate - 1])
            if m:
                return m.group(1) or ""
    return None


def iter_suppressions(text):
    """Yields (lineno, reason_or_None) for every marker in `text`."""
    for lineno, line in enumerate(text.splitlines(), 1):
        m = SUPPRESS_RE.search(line)
        if m:
            yield lineno, m.group(1)


# ----------------------------------------------------------------- rules --
# Each rule takes {relpath: text} and returns [Finding]. Detection runs on
# comment-stripped text; suppression lookup runs on the raw text.


def find_unordered_container_names(text):
    """Names of variables/fields declared with a std::unordered_* type.
    Walks the template bracket nesting so nested template arguments do not
    truncate the match."""
    names = set()
    clean = lint_common.strip_comments(text)
    for m in UNORDERED_DECL_RE.finditer(clean):
        depth = 1
        i = m.end()
        while i < len(clean) and depth > 0:
            if clean[i] == "<":
                depth += 1
            elif clean[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        decl = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(]", clean[i:])
        if decl:
            names.add(decl.group(1))
    return names


def module_key(path):
    return os.path.splitext(path)[0]


def rule_unordered_iteration(files):
    # A container declared in foo.h may be iterated in foo.cc: pool declared
    # names per module stem so header/impl pairs share one namespace.
    names_by_module = {}
    for path, text in files.items():
        if not in_scope(path):
            continue
        names_by_module.setdefault(module_key(path), set()).update(
            find_unordered_container_names(text))

    findings = []
    for path, text in sorted(files.items()):
        if not in_scope(path):
            continue
        names = names_by_module.get(module_key(path), set())
        raw_lines = text.splitlines()
        clean = lint_common.strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), 1):
            hits = []
            for m in RANGE_FOR_RE.finditer(line):
                expr = m.group(1)
                leaf = re.split(r"\.|->", expr)[-1]
                if leaf in names:
                    hits.append(expr)
            for m in BEGIN_CALL_RE.finditer(line):
                expr = m.group(1)
                leaf = re.split(r"\.|->", expr)[-1]
                if leaf in names:
                    hits.append(f"{expr}.begin()")
            for expr in hits:
                if suppression_for(raw_lines, lineno) is not None:
                    continue
                findings.append(Finding(
                    "unordered-iteration", path, lineno,
                    f"iteration over unordered container `{expr}` — hash-map "
                    "order is implementation-defined and breaks the "
                    "deterministic-by-construction contract; iterate a "
                    "sorted/indexed mirror, use std::map, or suppress with "
                    "// NOLINT-determinism(<reason>)"))
    return findings


def rule_nondet_source(files):
    findings = []
    for path, text in sorted(files.items()):
        if not in_scope(path):
            continue
        raw_lines = text.splitlines()
        clean = lint_common.strip_comments(text)
        telemetry_region = lint_common.preprocessor_regions(
            clean, TELEMETRY_IF_RE)
        for lineno, line in enumerate(clean.splitlines(), 1):
            if lineno - 1 < len(telemetry_region) and \
                    telemetry_region[lineno - 1]:
                continue  # measurement-only: compiled out under TELEMETRY=OFF
            for pattern, what in NONDET_SOURCE_RES:
                if not pattern.search(line):
                    continue
                if suppression_for(raw_lines, lineno) is not None:
                    continue
                findings.append(Finding(
                    "nondet-source", path, lineno,
                    f"{what} in placement-affecting code — randomness must "
                    "come from seeded util/rng.h streams and time must be "
                    "virtual; move it behind #if defined(TSF_TELEMETRY) or "
                    "suppress with // NOLINT-determinism(<reason>)"))
    return findings


def rule_pointer_keyed(files):
    findings = []
    for path, text in sorted(files.items()):
        if not in_scope(path):
            continue
        raw_lines = text.splitlines()
        clean = lint_common.strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), 1):
            for pattern in POINTER_KEY_RES:
                if not pattern.search(line):
                    continue
                if suppression_for(raw_lines, lineno) is not None:
                    continue
                findings.append(Finding(
                    "pointer-keyed", path, lineno,
                    "container keyed/ordered on a pointer — iteration order "
                    "becomes allocation order, which varies run to run under "
                    "ASLR; key on a stable id (MachineId, user index, "
                    "interned string) instead"))
                break
    return findings


def rule_address_hash(files):
    findings = []
    for path, text in sorted(files.items()):
        if not in_scope(path):
            continue
        raw_lines = text.splitlines()
        clean = lint_common.strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), 1):
            for pattern in ADDRESS_HASH_RES:
                if not pattern.search(line):
                    continue
                if suppression_for(raw_lines, lineno) is not None:
                    continue
                findings.append(Finding(
                    "address-hash", path, lineno,
                    "address-derived value (std::hash<T*> / pointer-to-"
                    "intptr_t cast) — addresses change across runs under "
                    "ASLR; hash stable ids or content bytes instead"))
                break
    return findings


def rule_build_flags(files):
    findings = []
    for path, text in sorted(files.items()):
        if not is_build_file(path):
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            if not path.endswith(".json"):
                line = line.split("#", 1)[0]  # CMake comment
            m = BUILD_FLAG_RE.search(line)
            if m:
                findings.append(Finding(
                    "build-flags", path, lineno,
                    f"`{m.group(0)}` in a build file — it lets the compiler "
                    "reassociate or fuse floating-point operations (or "
                    "target the build host's FMA), so placement streams "
                    "stop matching the goldens"))
    return findings


HAZARD_RULES = (
    rule_unordered_iteration,
    rule_nondet_source,
    rule_pointer_keyed,
    rule_address_hash,
)


def hazard_lines_without_suppression_filter(files, path):
    """1-based lines of `path` carrying any hazard, ignoring suppressions —
    used to decide whether an existing suppression still covers anything."""
    text = files[path]
    lines = set()
    clean = lint_common.strip_comments(text)
    names = set()
    for other, other_text in files.items():
        if module_key(other) == module_key(path) and in_scope(other):
            names.update(find_unordered_container_names(other_text))
    telemetry_region = lint_common.preprocessor_regions(clean, TELEMETRY_IF_RE)
    for lineno, line in enumerate(clean.splitlines(), 1):
        for m in list(RANGE_FOR_RE.finditer(line)) + \
                list(BEGIN_CALL_RE.finditer(line)):
            if re.split(r"\.|->", m.group(1))[-1] in names:
                lines.add(lineno)
        in_telemetry = lineno - 1 < len(telemetry_region) and \
            telemetry_region[lineno - 1]
        if not in_telemetry and any(
                p.search(line) for p, _ in NONDET_SOURCE_RES):
            lines.add(lineno)
        if any(p.search(line) for p in POINTER_KEY_RES + ADDRESS_HASH_RES):
            lines.add(lineno)
    return lines


def rule_suppression_hygiene(files):
    findings = []
    for path, text in sorted(files.items()):
        if not in_scope(path):
            continue
        hazards = None  # computed lazily: most files carry no markers
        for lineno, reason in iter_suppressions(text):
            if not (reason or "").strip():
                findings.append(Finding(
                    "bad-suppression", path, lineno,
                    "NOLINT-determinism without a reason — every suppression "
                    "is audited ledger material; write why this site cannot "
                    "affect placement, e.g. "
                    "// NOLINT-determinism(order-independent reduction)"))
                continue
            if hazards is None:
                hazards = hazard_lines_without_suppression_filter(files, path)
            # A marker covers its own line and the one below it.
            if lineno not in hazards and lineno + 1 not in hazards:
                findings.append(Finding(
                    "stale-suppression", path, lineno,
                    "NOLINT-determinism no longer covers any hazard on this "
                    "or the next line — delete it (burn the ledger down, "
                    "never let it rot)"))
    return findings


RULES = HAZARD_RULES + (rule_suppression_hygiene, rule_build_flags)


# ------------------------------------------------------------- self-test --

BAD = [
    (rule_unordered_iteration,
     {"src/core/thing.cc":
      "std::unordered_map<std::string, int> pool_;\n"
      "void F() {\n  for (const auto& [k, v] : pool_) Use(k, v);\n}\n"}),
    (rule_unordered_iteration,  # nested template args must not truncate
     {"src/core/thing.cc":
      "std::unordered_map<int, std::vector<std::pair<int, int>>> waves_;\n"
      "void F() {\n  for (auto& w : waves_) Use(w);\n}\n"}),
    (rule_unordered_iteration,  # explicit iterator loop over .begin()
     {"src/core/thing.cc":
      "std::unordered_set<int> seen_;\n"
      "void F() {\n"
      "  for (auto it = seen_.begin(); it != seen_.end(); ++it) Use(*it);\n"
      "}\n"}),
    (rule_unordered_iteration,  # declared in the header, iterated in the .cc
     {"src/core/pool.h":
      "#pragma once\nstd::unordered_map<std::string, int> pool_;\n",
      "src/core/pool.cc":
      "void F() {\n  for (const auto& e : pool_) Use(e);\n}\n"}),
    (rule_unordered_iteration,  # member access spelling
     {"src/sim/thing.cc":
      "struct S { std::unordered_map<int, int> live_; };\n"
      "void F(S& s) {\n  for (auto& e : s.live_) Use(e);\n}\n"}),
    (rule_nondet_source,
     {"src/core/thing.cc": "int F() { return rand(); }\n"}),
    (rule_nondet_source,
     {"src/sim/thing.cc":
      "std::mt19937 F() { std::random_device rd; return std::mt19937(rd()); }\n"}),
    (rule_nondet_source,
     {"src/mesos/thing.cc": "long F() { return time(nullptr); }\n"}),
    (rule_nondet_source,
     {"src/load/thing.cc":
      "auto F() { return std::chrono::steady_clock::now(); }\n"}),
    (rule_nondet_source,  # TSF_TELEMETRY guard must be the *matching* guard
     {"src/lp/thing.cc":
      "#ifdef OTHER_FLAG\n"
      "auto F() { return std::chrono::steady_clock::now(); }\n"
      "#endif\n"}),
    (rule_pointer_keyed,
     {"src/core/thing.cc": "std::map<Job*, int> by_job_;\n"}),
    (rule_pointer_keyed,
     {"src/sim/thing.cc": "std::unordered_set<const Machine*> dirty_;\n"}),
    (rule_pointer_keyed,
     {"src/core/thing.cc":
      "std::priority_queue<E, std::vector<E>, std::less<Node*>> q_;\n"}),
    (rule_address_hash,
     {"src/core/thing.cc":
      "std::size_t F(Job* j) { return std::hash<Job*>{}(j); }\n"}),
    (rule_address_hash,
     {"src/chaos/thing.cc":
      "std::uint64_t F(void* p) {\n"
      "  return reinterpret_cast<std::uintptr_t>(p);\n}\n"}),
    (rule_suppression_hygiene,  # reason-less marker
     {"src/core/thing.cc":
      "int F() { return rand(); }  // NOLINT-determinism\n"}),
    (rule_suppression_hygiene,  # empty-parens marker
     {"src/core/thing.cc":
      "int F() { return rand(); }  // NOLINT-determinism()\n"}),
    (rule_suppression_hygiene,  # marker with no hazard underneath is stale
     {"src/core/thing.cc":
      "// NOLINT-determinism(left over from a deleted loop)\n"
      "int F() { return 4; }\n"}),
    (rule_build_flags,
     {"CMakeLists.txt": "add_compile_options(-O2 -ffast-math)\n"}),
    (rule_build_flags,
     {"src/lp/CMakeLists.txt":
      "target_compile_options(tsf_lp PRIVATE -Ofast)\n"}),
    (rule_build_flags,
     {"CMakePresets.json":
      '"cacheVariables": {"CMAKE_CXX_FLAGS": "-march=native"}\n'}),
    (rule_build_flags,
     {"perfbench/cmake/flags.cmake": "set(TSF_ARCH -march=native)\n"}),
]

CLEAN = [
    (rule_unordered_iteration,  # lookups/inserts are fine; only iteration
     {"src/core/thing.cc":      # order is hazardous
      "std::unordered_map<std::string, int> pool_;\n"
      "int F(const std::string& k) {\n"
      "  auto it = pool_.find(k);\n  return it == pool_.end() ? 0 : it->second;\n"
      "}\n"}),
    (rule_unordered_iteration,  # std::map iteration is deterministic
     {"src/core/thing.cc":
      "std::map<std::uint32_t, int> live_;\n"
      "void F() {\n  for (auto& e : live_) Use(e);\n}\n"}),
    (rule_unordered_iteration,  # suppressed with a reason
     {"src/core/thing.cc":
      "std::unordered_map<std::string, int> pool_;\n"
      "void F() {\n"
      "  // NOLINT-determinism(order-independent eviction predicate)\n"
      "  for (auto it = pool_.begin(); it != pool_.end();) ++it;\n"
      "}\n"}),
    (rule_unordered_iteration,  # out of scope: tools/ and bench/ may iterate
     {"tools/thing.cc":
      "std::unordered_map<int, int> m_;\n"
      "void F() {\n  for (auto& e : m_) Use(e);\n}\n"}),
    (rule_nondet_source,  # seeded repo RNG is the sanctioned source
     {"src/sim/thing.cc":
      "#include \"util/rng.h\"\n"
      "double F(Rng& rng) { return rng.Uniform(); }\n"}),
    (rule_nondet_source,  # telemetry-guarded timing is measurement-only
     {"src/sim/thing.cc":
      "#if defined(TSF_TELEMETRY)\n"
      "auto F() { return std::chrono::steady_clock::now(); }\n"
      "#endif\n"}),
    (rule_nondet_source,  # suppressed with a reason
     {"src/load/thing.cc":
      "// NOLINT-determinism(reporting-only wall-clock measurement)\n"
      "auto F() { return std::chrono::steady_clock::now(); }\n"}),
    (rule_nondet_source,  # identifiers containing the tokens are fine
     {"src/sim/thing.cc":
      "double grand_total = 0.0;\n"
      "void F(double strand_time) { grand_total += strand_time; }\n"}),
    (rule_nondet_source,  # virtual-time time_point declarations are fine
     {"src/mesos/thing.cc":
      "std::chrono::steady_clock::time_point tm_round_start{};\n"}),
    (rule_pointer_keyed,  # value keys and smart-pointer *values* are fine
     {"src/core/thing.cc":
      "std::map<std::string, std::unique_ptr<Job>, std::less<>> jobs_;\n"}),
    (rule_address_hash,  # byte-serializing *values* is how class keys work
     {"src/core/thing.cc":
      "void F(std::string& key, double v) {\n"
      "  key.append(reinterpret_cast<const char*>(&v), sizeof(v));\n}\n"}),
    (rule_suppression_hygiene,  # reasoned marker covering a live hazard
     {"src/core/thing.cc":
      "int F() { return rand(); }  // NOLINT-determinism(test-only shim)\n"}),
    (rule_build_flags,  # contraction off and a named ISA level are fine
     {"src/telemetry/CMakeLists.txt":
      "target_compile_options(tsf_telemetry PUBLIC -ffp-contract=off)\n",
      "CMakePresets.json":
      '"cacheVariables": {"CMAKE_CXX_FLAGS": "-march=x86-64-v3"}\n'}),
    (rule_build_flags,  # a CMake comment may name the flags it forbids
     {"CMakeLists.txt": "# never -ffast-math or -march=native here\n"}),
    (rule_build_flags,  # only build files are read
     {"src/core/thing.cc": "const char* kFlag = \"-march=native\";\n"}),
]


# ------------------------------------------------------------------ main --


def list_suppressions(files):
    count = 0
    for path, text in sorted(files.items()):
        if not in_scope(path):
            continue
        for lineno, reason in iter_suppressions(text):
            print(f"{path}:{lineno}: {(reason or '').strip() or '<NO REASON>'}")
            count += 1
    print(f"determinism_lint: {count} suppression(s) in the ledger")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    lint_common.add_common_arguments(parser)
    parser.add_argument("--list-suppressions", action="store_true",
                        help="print the audited NOLINT-determinism ledger")
    args = parser.parse_args()
    if args.self_test:
        return lint_common.run_self_test("determinism_lint", BAD, CLEAN)
    root = args.root or lint_common.default_root(__file__)
    files = lint_common.load_tree(root, ("src",))
    files.update(load_build_files(root))
    if args.list_suppressions:
        return list_suppressions(files)
    findings = lint_common.run_rules(RULES, files)
    lint_common.emit_findings(findings, args.fmt)
    suppressions = sum(
        1 for path, text in files.items() if in_scope(path)
        for _ in iter_suppressions(text))
    print(f"determinism_lint: {len(files)} files, {len(findings)} finding(s), "
          f"{suppressions} suppression(s) in the ledger")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
