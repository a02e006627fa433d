#!/usr/bin/env python3
"""sops_semlint: AST-grade determinism lint for the sops tree (libclang).

The textual lint (tools/sops_lint.py) pattern-matches source lines, so it
cannot see through `auto`, type aliases, member typedefs, or templates,
and it cannot reason about types at all.  This tool walks the clang AST
of real translation units (from the build's always-exported
compile_commands.json) and checks the *canonical* types, catching what
text cannot:

  unordered-iteration      range-for or .begin()/.cbegin() over a
                           std::unordered_{map,set,multimap,multiset},
                           no matter how many aliases, typedefs, autos,
                           or references launder the type.  Iteration
                           order is implementation-defined; a
                           trajectory-affecting walk voids determinism.
  pointer-keyed-iteration  range-for or .begin()/.cbegin() over a
                           std::map/std::set (and multi variants) whose
                           key is a pointer: the order is address order,
                           which ASLR and allocation order change run to
                           run — invisible to a textual lint, since the
                           container is nominally ordered.
  entropy-seeded-random    rng::Random constructed from an expression
                           that reaches std::random_device, wall clocks,
                           time(), or getpid(): every stream must be a
                           pure function of (seed, stream, index) — see
                           rng::CounterStream and the spec's seed.
  float-reduce             std::reduce / std::transform_reduce over
                           floating-point data in trajectory code: the
                           reduction order (and with execution policies,
                           the partitioning) is unspecified, so the
                           rounding — and thus the trajectory — is not
                           reproducible.  Use a fixed-order accumulate.

Scope: the trajectory-owning directories (src/core, src/amoebot,
src/rng, src/sim), same as the textual lint's determinism rules.
Findings in other directories, system headers, or third-party code are
discarded.

Escape hatch — same line or the line directly above the violation:

    // sops-semlint: allow(<rule>): <reason>

A reason is mandatory; a bare or unknown-rule allow is itself a finding.

libclang is an optional dependency (python3-clang + libclang system
packages).  Without it the tool reports loudly on stderr and exits 77 —
the ctest SKIP return code — so local runs skip visibly instead of
passing vacuously; CI installs a pinned libclang and passes --require,
which turns absence into a hard failure.

Exit codes: 0 clean, 1 findings, 2 usage/parse error, 77 libclang
unavailable (without --require).

Usage:
    python3 tools/sops_semlint.py --compile-db build           # whole tree
    python3 tools/sops_semlint.py --root fixtures f.cpp        # bare files
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shlex
import sys

TRAJECTORY_DIRS = ("src/core", "src/amoebot", "src/rng", "src/sim")

RULES = (
    "unordered-iteration",
    "pointer-keyed-iteration",
    "entropy-seeded-random",
    "float-reduce",
)

ALLOW_RE = re.compile(
    r"//\s*sops-semlint:\s*allow\(\s*([A-Za-z0-9_-]*)\s*\)"
    r"\s*(?::\s*(.*\S))?\s*$")

SKIP_EXIT = 77

# Canonical-type matchers.  libstdc++ spells containers std::unordered_map;
# libc++ nests them in an inline namespace (std::__1::unordered_map).
UNORDERED_TYPE_RE = re.compile(
    r"\bstd::(?:__\w+::)?unordered_(?:map|set|multimap|multiset)\b")
ORDERED_ASSOC_TYPE_RE = re.compile(
    r"\bstd::(?:__\w+::)?(?:multi)?(?:map|set)\b")
FLOATING_RE = re.compile(r"\b(?:float|double|long double)\b")

ENTROPY_SOURCES = (
    "std::random_device",
    "std::chrono::system_clock",
    "std::chrono::high_resolution_clock",
    "std::chrono::steady_clock",  # still wall-ish as a *seed*
    "time",
    "getpid",
    "gettimeofday",
    "clock",
)

REDUCE_CALLEES = ("std::reduce", "std::transform_reduce")


class Finding:
    def __init__(self, path, line, rule_name, message):
        self.path = path
        self.line = line
        self.rule = rule_name
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def load_cindex(explicit_library=None):
    """Import clang.cindex and locate a loadable libclang.

    Returns the cindex module, or None (with a loud stderr report) when
    either half is missing.  Candidates, in order: an explicit path
    (--libclang / $SOPS_LIBCLANG), whatever the bindings find on their
    own, then versioned distro names and LLVM install trees.
    """
    try:
        from clang import cindex
    except ImportError:
        print("sops_semlint: python clang bindings not importable "
              "(install python3-clang); semantic analysis SKIPPED",
              file=sys.stderr)
        return None

    candidates = []
    if explicit_library:
        candidates.append(explicit_library)
    env = os.environ.get("SOPS_LIBCLANG")
    if env:
        candidates.append(env)
    candidates.append(None)  # the bindings' own default search
    for pattern in ("/usr/lib/llvm-*/lib/libclang.so*",
                    "/usr/lib/*/libclang-*.so*",
                    "/usr/lib/libclang*.so*"):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))

    for candidate in candidates:
        try:
            if candidate is not None:
                cindex.Config.library_file = candidate
            cindex.Index.create()
            return cindex
        except Exception:  # LibclangError, OSError: try the next one
            # Config caches the failed load; reset for the next candidate.
            cindex.Config.loaded = False
            cindex.conf = cindex.Config()
            continue
    print("sops_semlint: no loadable libclang found "
          "(install libclang-dev or set SOPS_LIBCLANG); "
          "semantic analysis SKIPPED", file=sys.stderr)
    return None


def compile_args_for(entry):
    """Clang-ready arguments from one compile_commands.json entry.

    Drops the compiler argv[0], the input file, and output/dependency
    options; keeps include paths, defines, standard, and warnings.  Adds
    -working-directory so relative -I paths resolve as the build did.
    """
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry["command"])
    args = []
    skip_next = False
    src = entry["file"]
    for i, a in enumerate(argv):
        if i == 0 or skip_next:
            skip_next = False
            continue
        if a in ("-c",):
            continue
        if a in ("-o", "-MF", "-MT", "-MQ", "--output"):
            skip_next = True
            continue
        if a in ("-MD", "-MMD", "-MP"):
            continue
        if a == src or os.path.basename(a) == os.path.basename(src) and \
                a.endswith((".cpp", ".cc", ".cxx")):
            continue
        args.append(a)
    args.append("-working-directory=" + entry.get("directory", "."))
    # The analysis reads types, not diagnostics; keep warning noise out.
    args.append("-w")
    return args


def qualified_name(cursor):
    """Fully qualified name of a declaration cursor (namespaces::name)."""
    parts = []
    c = cursor
    while c is not None and c.kind.name != "TRANSLATION_UNIT":
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def strip_inline_ns(name):
    return re.sub(r"\b__\w+::", "", name)


def canonical_spelling(node_type):
    try:
        return node_type.get_canonical().spelling
    except Exception:
        return ""


def pointer_keyed(cindex, node_type):
    """True when an associative container's key type is a pointer."""
    canonical = node_type.get_canonical()
    # Unwrap references: the range expression is usually a glvalue.
    if canonical.kind in (cindex.TypeKind.LVALUEREFERENCE,
                          cindex.TypeKind.RVALUEREFERENCE):
        canonical = canonical.get_pointee().get_canonical()
    try:
        if canonical.get_num_template_arguments() > 0:
            key = canonical.get_template_argument_type(0).get_canonical()
            return key.kind == cindex.TypeKind.POINTER
    except Exception:
        pass
    # Fallback: parse the canonical spelling's first template argument.
    spelling = canonical.spelling
    lt = spelling.find("<")
    if lt < 0:
        return False
    depth = 0
    first_arg = []
    for ch in spelling[lt + 1:]:
        if ch == "<":
            depth += 1
        elif ch == ">":
            if depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            break
        first_arg.append(ch)
    return "".join(first_arg).strip().rstrip("const ").strip().endswith("*")


def unref(cindex, node_type):
    canonical = node_type.get_canonical()
    if canonical.kind in (cindex.TypeKind.LVALUEREFERENCE,
                          cindex.TypeKind.RVALUEREFERENCE):
        canonical = canonical.get_pointee().get_canonical()
    return canonical


def container_findings(cindex, path, line, node_type):
    """Findings for iterating a container of the given (laundered) type."""
    canonical = unref(cindex, node_type)
    spelling = canonical.spelling
    out = []
    if UNORDERED_TYPE_RE.search(spelling):
        out.append(Finding(
            path, line, "unordered-iteration",
            f"iteration over '{spelling}' — unordered-container order is "
            "implementation-defined and voids trajectory determinism "
            "(the canonical type is unordered no matter what alias or "
            "auto spells it)"))
    elif ORDERED_ASSOC_TYPE_RE.search(spelling) and \
            pointer_keyed(cindex, canonical):
        out.append(Finding(
            path, line, "pointer-keyed-iteration",
            f"iteration over '{spelling}' — the key is a pointer, so the "
            "order is address order, which changes run to run; key by a "
            "stable id instead"))
    return out


def subtree_reaches_entropy(cursor):
    """A declaration reference to a wall-clock/entropy source below here."""
    for node in cursor.walk_preorder():
        ref = getattr(node, "referenced", None)
        if ref is None:
            continue
        name = strip_inline_ns(qualified_name(ref))
        for source in ENTROPY_SOURCES:
            if name == source or name.startswith(source + "::"):
                return name
    return None


def range_expression(node):
    """The range-initializer expression of a CXX_FOR_RANGE_STMT.

    Children are visited in source order, so the body is last; the range
    initializer is the first expression child before it.
    """
    children = list(node.get_children())
    if not children:
        return None
    for child in children[:-1]:
        if child.kind.is_expression():
            return child
    return None


def member_call_base(cindex, node):
    """Base expression of a member call (the `c` of `c.begin()`)."""
    for child in node.get_children():
        if child.kind == cindex.CursorKind.MEMBER_REF_EXPR:
            bases = [g for g in child.get_children()
                     if g.kind.is_expression()]
            if bases:
                return bases[0]
    return None


def analyze_tu(cindex, tu, root, scope_dirs):
    findings = []
    seen = set()

    def in_scope(location):
        if location.file is None:
            return None
        path = os.path.realpath(location.file.name)
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.startswith(".."):
            return None
        if not any(rel == d or rel.startswith(d + "/") for d in scope_dirs):
            return None
        return rel

    def emit(finding):
        if finding.key() not in seen:
            seen.add(finding.key())
            findings.append(finding)

    for node in tu.cursor.walk_preorder():
        rel = in_scope(node.location)
        if rel is None:
            continue
        line = node.location.line
        kind = node.kind

        if kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
            range_expr = range_expression(node)
            if range_expr is not None:
                for f in container_findings(cindex, rel, line,
                                            range_expr.type):
                    emit(f)

        elif kind == cindex.CursorKind.CALL_EXPR:
            if node.spelling in ("begin", "cbegin"):
                base = member_call_base(cindex, node)
                if base is not None:
                    for f in container_findings(cindex, rel, line,
                                                base.type):
                        emit(f)
            ref = getattr(node, "referenced", None)
            if ref is not None:
                callee = strip_inline_ns(qualified_name(ref))
                if callee in REDUCE_CALLEES:
                    types = [canonical_spelling(node.type)]
                    types += [canonical_spelling(a.type)
                              for a in node.get_arguments()]
                    if any(FLOATING_RE.search(t) for t in types if t):
                        emit(Finding(
                            rel, line, "float-reduce",
                            f"{callee} over floating-point data — the "
                            "reduction order is unspecified, so rounding "
                            "differs run to run; use a fixed-order "
                            "accumulation"))
            if strip_inline_ns(canonical_spelling(node.type)) == \
                    "sops::rng::Random":
                source = subtree_reaches_entropy(node)
                if source:
                    emit(Finding(
                        rel, line, "entropy-seeded-random",
                        f"rng::Random seeded through '{source}' — streams "
                        "must be pure functions of (seed, stream, index); "
                        "take the seed from the run spec"))

    return findings


def collect_allows(path_on_disk, rel):
    """line -> rule for sops-semlint allow annotations; plus findings for
    malformed ones.  Same shape as the textual lint's escape hatch."""
    allows = {}
    findings = []
    try:
        with open(path_on_disk, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().split("\n")
    except OSError:
        return allows, findings
    for lineno, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if not m:
            if "sops-semlint:" in line:
                findings.append(Finding(
                    rel, lineno, "lint-annotation",
                    "malformed sops-semlint annotation — expected "
                    "'// sops-semlint: allow(<rule>): <reason>'"))
            continue
        rule_name, reason = m.group(1), m.group(2)
        if rule_name not in RULES:
            findings.append(Finding(
                rel, lineno, "lint-annotation",
                f"allow() names unknown rule '{rule_name}' — known rules: "
                + ", ".join(RULES)))
            continue
        if not reason:
            findings.append(Finding(
                rel, lineno, "lint-annotation",
                f"allow({rule_name}) without a reason — suppressions must "
                "say why the contract does not apply"))
            continue
        allows[lineno] = rule_name
        allows[lineno + 1] = rule_name
    return allows, findings


def apply_allows(findings, root):
    """Filter findings through per-file allow annotations."""
    kept = []
    cache = {}
    for finding in findings:
        if finding.path not in cache:
            cache[finding.path] = collect_allows(
                os.path.join(root, finding.path), finding.path)
        allows, _ = cache[finding.path]
        if allows.get(finding.line) == finding.rule:
            continue
        kept.append(finding)
    # Malformed/unknown annotations are findings even with zero hazards.
    for rel, (_, annotation_findings) in cache.items():
        kept.extend(annotation_findings)
    return kept


def annotation_sweep(root, scope_dirs):
    """Annotation findings for files never visited by a hazard (a stale
    or typo'd allow must not hide because its file is clean)."""
    findings = []
    for base in scope_dirs:
        top = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".cc", ".hh", ".h")):
                    continue
                abspath = os.path.join(dirpath, name)
                rel = os.path.relpath(abspath, root).replace(os.sep, "/")
                _, annotation_findings = collect_allows(abspath, rel)
                findings.extend(annotation_findings)
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="AST-grade determinism lint (libclang); rules "
                    "documented in DESIGN.md, 'Correctness tooling'.")
    parser.add_argument("--compile-db", default=None,
                        help="directory containing compile_commands.json; "
                             "every first-party TU in it is analyzed")
    parser.add_argument("--root", default=None,
                        help="repo root for scoping findings (default: the "
                             "repo containing this script)")
    parser.add_argument("--libclang", default=None,
                        help="explicit libclang shared object to load")
    parser.add_argument("--require", action="store_true",
                        help="missing libclang is an error (exit 2), not a "
                             "skip (exit 77) — CI sets this")
    parser.add_argument("--extra-arg", action="append", default=[],
                        help="extra compiler argument for bare-file parses")
    parser.add_argument("files", nargs="*",
                        help="bare files to analyze without a compile "
                             "database (parsed as -std=c++20)")
    args = parser.parse_args(argv)

    root = os.path.realpath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not args.files and not args.compile_db:
        print("sops_semlint: need --compile-db or explicit files",
              file=sys.stderr)
        return 2

    cindex = load_cindex(args.libclang)
    if cindex is None:
        if args.require:
            print("sops_semlint: --require set and libclang unavailable",
                  file=sys.stderr)
            return 2
        print(f"sops_semlint: SKIPPED (exit {SKIP_EXIT}) — nothing was "
              "analyzed; do not read this as a clean tree", file=sys.stderr)
        return SKIP_EXIT

    index = cindex.Index.create()
    jobs = []
    if args.compile_db:
        db_path = os.path.join(args.compile_db, "compile_commands.json")
        try:
            with open(db_path, encoding="utf-8") as f:
                entries = json.load(f)
        except (OSError, ValueError) as e:
            print(f"sops_semlint: cannot read {db_path}: {e}",
                  file=sys.stderr)
            return 2
        for entry in entries:
            src = entry["file"]
            if not os.path.isabs(src):
                src = os.path.join(entry.get("directory", "."), src)
            src = os.path.realpath(src)
            rel = os.path.relpath(src, root).replace(os.sep, "/")
            if rel.startswith("..") or not rel.startswith("src/"):
                continue  # third-party / generated TUs are not ours to lint
            jobs.append((src, compile_args_for(entry)))
    for f in args.files:
        jobs.append((os.path.realpath(f),
                     ["-std=c++20", "-xc++"] + args.extra_arg))

    if not jobs:
        print("sops_semlint: no first-party translation units to analyze",
              file=sys.stderr)
        return 2

    findings = []
    seen = set()
    for src, compile_args in jobs:
        try:
            tu = index.parse(src, args=compile_args)
        except cindex.TranslationUnitLoadError as e:
            print(f"sops_semlint: failed to parse {src}: {e}",
                  file=sys.stderr)
            return 2
        errors = [d for d in tu.diagnostics if d.severity >=
                  cindex.Diagnostic.Error]
        if errors:
            print(f"sops_semlint: {src} has {len(errors)} parse error(s); "
                  "analysis would be blind — first error:", file=sys.stderr)
            print(f"  {errors[0]}", file=sys.stderr)
            return 2
        for finding in analyze_tu(cindex, tu, root, TRAJECTORY_DIRS):
            if finding.key() not in seen:
                seen.add(finding.key())
                findings.append(finding)

    findings = apply_allows(findings, root)
    if args.compile_db:
        annotated = {f.key() for f in findings}
        for finding in annotation_sweep(root, TRAJECTORY_DIRS):
            if finding.key() not in annotated:
                annotated.add(finding.key())
                findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"sops_semlint: {len(findings)} finding(s) across "
              f"{len(jobs)} translation unit(s)", file=sys.stderr)
        return 1
    print(f"sops_semlint: clean ({len(jobs)} translation units)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
