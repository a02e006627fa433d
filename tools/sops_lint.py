#!/usr/bin/env python3
"""sops_lint: repo-specific determinism and contract lint for the sops tree.

The system's headline guarantee is bit-identical trajectories per seed
across thread counts, regimes, and resume.  Off-the-shelf tools cannot
know which constructs void that guarantee here, so this lint encodes the
repo's own contracts (rationale in DESIGN.md, "Correctness tooling"):

  nondeterministic-seed  std::random_device, rand(), srand(): every draw
                         must be a pure function of (seed, stream, index)
                         through rng::Random / rng::CounterStream.
  wall-clock             time(...), std::chrono::system_clock /
                         high_resolution_clock: wall-clock values feeding
                         seeds or trajectory decisions make runs
                         unreproducible.  steady_clock is allowed — it is
                         used for elapsed-time reporting and cooperative
                         deadlines (core/cancel.hpp), which are
                         environment, not experiment.
  unordered-iteration    iterating a std::unordered_{map,set,multimap,
                         multiset} (range-for, .begin(), std algorithms):
                         iteration order is implementation-defined, so any
                         trajectory-affecting walk must use an ordered or
                         index-dense container.  Lookups are fine;
                         iteration is the hazard.
  bare-assert            assert(...): compiled away under NDEBUG, so a
                         violated contract ships silently in Release.
                         SOPS_REQUIRE / SOPS_ENSURE (always on) or
                         SOPS_DASSERT (hot loops, explicit about being
                         debug-only) are the contract macros.
  stdout-io              std::cout / printf / fprintf(stdout, ...) /
                         puts(...) in library code: the library reports
                         through Observer sinks and std::cerr; stray
                         stdout writes corrupt machine-read sink output
                         (spps prints CSV/JSONL to configured streams).
  getenv-in-library      std::getenv / getenv / secure_getenv in library
                         code: an environment-dependent value feeding a
                         run is invisible to the RunSpec, so two runs of
                         the same spec can disagree — configuration must
                         arrive through the spec/params surface, where it
                         is recorded and replayable.

Scope: the determinism rules (nondeterministic-seed, wall-clock,
unordered-iteration) apply to the trajectory-owning directories
src/core, src/amoebot, src/rng, src/sim.  bare-assert, stdout-io, and
getenv-in-library apply to all of src/ — the whole library is linked
into spps, whose stdout is a data channel, NDEBUG-stripped contracts are
a hazard everywhere, and env-dependent configuration anywhere in the
library escapes the spec.  tests/, bench/, tools/, examples/ are out of
scope: they own their processes' stdout, their nondeterminism cannot
leak into a library trajectory, and bench/ layeredParams-style env
knobs are explicitly that layer's business.

Escape hatch — same line or the line directly above the violation:

    // sops-lint: allow(<rule>): <reason>

A reason is mandatory; a bare allow() is itself a finding.  Unknown rule
names in an allow are findings too, so a typo cannot silently disable
coverage.

Exit codes: 0 clean, 1 findings, 2 usage error.

Usage:
    python3 tools/sops_lint.py --root /path/to/repo
    python3 tools/sops_lint.py file1.cpp file2.hpp   # explicit files,
                                                     # scoped by their paths
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# Directories (relative to the repo root) whose code owns trajectories:
# a nondeterministic draw or iteration order here changes what the
# sampler computes, not just how it is reported.
TRAJECTORY_DIRS = ("src/core", "src/amoebot", "src/rng", "src/sim")
# Directories holding library code linked into consumers.
LIBRARY_DIRS = ("src",)

SOURCE_EXTENSIONS = (".cpp", ".hpp", ".cc", ".hh", ".h")

ALLOW_RE = re.compile(
    r"//\s*sops-lint:\s*allow\(\s*([A-Za-z0-9_-]*)\s*\)\s*(?::\s*(.*\S))?\s*$")

RULES = {}


def rule(name, dirs):
    """Register a rule function: (path, lines, raw_lines) -> findings."""
    def register(fn):
        RULES[name] = (dirs, fn)
        return fn
    return register


class Finding:
    def __init__(self, path, line, rule_name, message):
        self.path = path
        self.line = line
        self.rule = rule_name
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments, string literals, and char literals.

    Line structure is preserved (every replaced character becomes a space,
    newlines survive) so findings keep their line numbers.  Raw strings,
    line continuations inside literals, and trigraphs are rare enough in
    this tree that the standard scanner below is sufficient; the lint is a
    tripwire, not a compiler.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


@rule("nondeterministic-seed", TRAJECTORY_DIRS)
def check_nondeterministic_seed(path, lines, raw_lines):
    pattern = re.compile(
        r"std\s*::\s*random_device|(?<![A-Za-z0-9_:])s?rand\s*\(")
    for lineno, line in enumerate(lines, 1):
        if pattern.search(line):
            yield Finding(path, lineno, "nondeterministic-seed",
                          "entropy source outside rng::Random — every draw "
                          "must be a pure function of (seed, stream, index)")


@rule("wall-clock", TRAJECTORY_DIRS)
def check_wall_clock(path, lines, raw_lines):
    pattern = re.compile(
        r"system_clock|high_resolution_clock"
        r"|(?<![A-Za-z0-9_:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
    for lineno, line in enumerate(lines, 1):
        if pattern.search(line):
            yield Finding(path, lineno, "wall-clock",
                          "wall-clock source in trajectory-owning code — "
                          "seeds and decisions must not depend on when the "
                          "run happens (steady_clock is fine for timing)")


UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")


def _unordered_variable_names(text):
    """Names declared (anywhere in this file) with an unordered type.

    Handles the common shapes in this tree: a possibly multi-line template
    argument list followed by the variable name.  Heuristic by design —
    it cannot see across translation units — but combined with the direct
    `.begin()`/range-for checks it catches the hazard class that matters:
    declaring an unordered container and walking it in the same file.
    """
    names = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        tail = text[i:i + 200]
        nm = re.match(r"\s*&?\s*([A-Za-z_][A-Za-z0-9_]*)", tail)
        if nm and nm.group(1) not in ("const",):
            names.add(nm.group(1))
    return names


@rule("unordered-iteration", TRAJECTORY_DIRS)
def check_unordered_iteration(path, lines, raw_lines):
    text = "\n".join(lines)
    names = _unordered_variable_names(text)
    message = ("iteration over a std::unordered_* container — iteration "
               "order is implementation-defined and voids trajectory "
               "determinism; use an ordered or index-dense structure")
    for lineno, line in enumerate(lines, 1):
        # for (auto& kv : table) / table.begin() / begin(table) on a name
        # declared unordered in this file.
        for name in names:
            if re.search(rf"for\s*\([^;)]*:\s*{re.escape(name)}\b", line) or \
               re.search(rf"\b{re.escape(name)}\s*\.\s*c?begin\s*\(", line) or \
               re.search(rf"(?<![A-Za-z0-9_:])c?begin\s*\(\s*{re.escape(name)}\s*\)",
                         line):
                yield Finding(path, lineno, "unordered-iteration", message)
                break
        else:
            # Temporary-expression iteration: for (... : foo.unorderedMember())
            # won't have a declaration in this file; catch the type spelled
            # directly in a range-for.
            if re.search(r"for\s*\([^;)]*:\s*[^;)]*unordered_(?:map|set|"
                         r"multimap|multiset)", line):
                yield Finding(path, lineno, "unordered-iteration", message)


@rule("bare-assert", LIBRARY_DIRS)
def check_bare_assert(path, lines, raw_lines):
    pattern = re.compile(r"(?<![A-Za-z0-9_.])assert\s*\(")
    for lineno, line in enumerate(lines, 1):
        if pattern.search(line) and "static_assert" not in line:
            yield Finding(path, lineno, "bare-assert",
                          "assert() compiles away under NDEBUG — use "
                          "SOPS_REQUIRE/SOPS_ENSURE (always on) or "
                          "SOPS_DASSERT (explicitly debug-only)")


@rule("stdout-io", LIBRARY_DIRS)
def check_stdout_io(path, lines, raw_lines):
    pattern = re.compile(
        r"std\s*::\s*cout"
        r"|(?<![A-Za-z0-9_:.>])printf\s*\("
        r"|fprintf\s*\(\s*stdout"
        r"|(?<![A-Za-z0-9_:.>])puts\s*\(")
    for lineno, line in enumerate(lines, 1):
        if pattern.search(line):
            yield Finding(path, lineno, "stdout-io",
                          "stdout write in library code — report through "
                          "Observer sinks or std::cerr; spps's stdout is a "
                          "machine-read data channel")


@rule("getenv-in-library", LIBRARY_DIRS)
def check_getenv(path, lines, raw_lines):
    pattern = re.compile(
        r"(?<![A-Za-z0-9_])(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")
    for lineno, line in enumerate(lines, 1):
        if pattern.search(line):
            yield Finding(path, lineno, "getenv-in-library",
                          "environment read in library code — env-dependent "
                          "values escape the RunSpec and make runs "
                          "unreplayable; route configuration through the "
                          "spec/params surface")


def collect_allows(raw_lines, path):
    """Map line number -> (rule, reason) for allow annotations.

    An annotation suppresses matching findings on its own line and the
    line directly below it.  Malformed annotations are findings.
    """
    allows = {}
    findings = []
    for lineno, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if not m:
            if "sops-lint:" in line:
                findings.append(Finding(
                    path, lineno, "lint-annotation",
                    "malformed sops-lint annotation — expected "
                    "'// sops-lint: allow(<rule>): <reason>'"))
            continue
        rule_name, reason = m.group(1), m.group(2)
        if rule_name not in RULES:
            findings.append(Finding(
                path, lineno, "lint-annotation",
                f"allow() names unknown rule '{rule_name}' — known rules: "
                + ", ".join(sorted(RULES))))
            continue
        if not reason:
            findings.append(Finding(
                path, lineno, "lint-annotation",
                f"allow({rule_name}) without a reason — suppressions must "
                "say why the contract does not apply"))
            continue
        allows[lineno] = rule_name
        allows[lineno + 1] = rule_name
    return allows, findings


def path_in_dirs(relpath, dirs):
    rel = relpath.replace(os.sep, "/")
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


def lint_file(abspath, relpath):
    try:
        with open(abspath, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(relpath, 0, "io-error", str(e))]

    raw_lines = raw.split("\n")
    stripped_lines = strip_comments_and_strings(raw).split("\n")
    allows, findings = collect_allows(raw_lines, relpath)

    for rule_name, (dirs, fn) in RULES.items():
        if not path_in_dirs(relpath, dirs):
            continue
        for finding in fn(relpath, stripped_lines, raw_lines):
            if allows.get(finding.line) == rule_name:
                continue
            findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def iter_tree(root):
    for base in LIBRARY_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    abspath = os.path.join(dirpath, name)
                    yield abspath, os.path.relpath(abspath, root)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Determinism/contract lint for the sops tree "
                    "(rules documented in DESIGN.md).")
    parser.add_argument("--root", default=None,
                        help="repo root; lints src/ beneath it "
                             "(default: the repo containing this script)")
    parser.add_argument("files", nargs="*",
                        help="explicit files to lint (paths interpreted "
                             "relative to --root for rule scoping)")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isdir(root):
        print(f"sops_lint: --root {root} is not a directory", file=sys.stderr)
        return 2

    if args.files:
        targets = []
        for f in args.files:
            abspath = os.path.abspath(f)
            rel = os.path.relpath(abspath, root)
            if rel.startswith(".."):
                print(f"sops_lint: {f} lies outside --root {root}",
                      file=sys.stderr)
                return 2
            targets.append((abspath, rel))
    else:
        targets = list(iter_tree(root))
        if not targets:
            print(f"sops_lint: no sources found under {root}/src",
                  file=sys.stderr)
            return 2

    all_findings = []
    for abspath, relpath in targets:
        all_findings.extend(lint_file(abspath, relpath))

    for finding in all_findings:
        print(finding.render())
    if all_findings:
        print(f"sops_lint: {len(all_findings)} finding(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        return 1
    print(f"sops_lint: clean ({len(targets)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
