#!/usr/bin/env python3
"""Source lint for the simulator: nondeterminism and happens-before
coverage.

Nondeterminism rules. The simulator promises bit-identical runs for
identical inputs (see DESIGN.md "Determinism model"), and the
schedule-perturbation harness (UNET_PERTURB) only proves robustness
against *scheduling* choices. These rules close the other door:
constructs whose behaviour depends on process state the simulation
does not control — wall clocks, the process environment, unseeded
RNGs, and container orderings derived from heap addresses. They run
over src/, and the clock and RNG rules also over bench/, examples/
and tests/, since those are wrong anywhere results are reported. A
finding is suppressed by an annotation on the same line or within the
two preceding lines:

    // nondet-ok(<rule>): <why this use is deterministic>

Happens-before coverage rules. The happens-before auditor
(src/check/hb/) can only see state that is covered by a
check::ContextGuard. A class that declares a guard is *instrumented*:
its shared state is audited for cross-shard races, and its
shardability classification in the `unet-hb --report` output is only
as trustworthy as the guard's coverage. In any such class under src/,
every non-static, non-const data member must carry one of

    // hb-guarded(<guard-member>)   state covered by that guard
    // hb-exempt(<why it needs no guard>)

on its declaration line or within the two comment lines above it.
The hb-guarded form must name a guard member declared in the same
class. Otherwise someone adds a mutable member to an instrumented
class, forgets to route its accesses through a guard, and the auditor
silently under-reports.

An annotation of either kind without its reason or guard name is
itself an error.

Two stages:

 1. A regex stage (always runs, stdlib only).
 2. A clang-query stage (runs when `clang-query` and a compilation
    database are available). It matches range-for loops whose range
    is an unordered container, the precise form of the regex rule
    `unordered-container`. It also finds every ContextGuard field in
    the AST and checks that stage 1 saw the same instrumented
    classes, so a parsing miss in stage 1 is an error, not silent
    under-coverage.

Exit status: 0 when clean, 1 when any unsuppressed finding remains,
2 on usage errors, or when the clang-query stage fails or
--require-ast finds it unable to run.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

# Rule name -> (compiled pattern, message). Patterns are matched per
# line after comment stripping (so commented-out code cannot trip the
# lint, and annotations cannot match themselves).
RULES = {
    "wall-clock": (
        re.compile(
            r"std::chrono::(system|steady|high_resolution)_clock"
            r"|\bgettimeofday\s*\("
            r"|\bclock_gettime\s*\("
            r"|\bstd::time\s*\("
            r"|[^:\w]time\s*\(\s*(NULL|nullptr|0)\s*\)"
        ),
        "wall-clock read: simulated time must come from sim::Simulation",
    ),
    "env-read": (
        re.compile(r"\b(std::)?(secure_)?getenv\s*\("),
        "environment read: process state the simulation does not control",
    ),
    "raw-rand": (
        # The lookbehinds keep the sanctioned seeded PRNG from
        # matching: calls like sim.random() and the accessor
        # declaration `Random &random()`.
        re.compile(
            r"(?<![\w.:>&])(std::)?srand\s*\("
            r"|(?<![\w.:>&])(std::)?rand\s*\(\s*\)"
            r"|\bdrand48\s*\(|\blrand48\s*\("
            r"|(?<![\w.:>&])random\s*\(\s*\)"
        ),
        "C PRNG: draw from a seeded sim::Random instead",
    ),
    "unseeded-engine": (
        re.compile(
            r"std::random_device"
            r"|std::(mt19937(_64)?|default_random_engine|minstd_rand0?)\b"
        ),
        "raw <random> engine: all draws must go through sim::Random "
        "so seeds are controlled in one place",
    ),
    "unordered-container": (
        re.compile(r"std::unordered_(map|set|multimap|multiset)\b"),
        "unordered container: iteration order is hash/address-"
        "dependent; use std::map/std::set or annotate why it is "
        "never iterated",
    ),
    "ptr-key-order": (
        re.compile(r"std::(map|set)\s*<[^<>,]*\*"),
        "pointer-keyed ordered container: iteration order follows "
        "heap addresses; key by a stable id or annotate why it is "
        "never iterated",
    ),
}

# Rules that also apply outside src/ (nondeterministic clocks and raw
# C PRNGs corrupt benchmark reports just as much as simulation
# results). Seeded <random> engines are fine in tests, so
# unseeded-engine stays src-only.
EVERYWHERE_RULES = {"wall-clock", "raw-rand"}

# Structural exemptions: (rule, path-prefix) pairs where the construct
# is the implementation of the sanctioned facility itself.
EXEMPT = {
    ("unseeded-engine", "src/sim/random.hh"),  # the seeded wrapper
}

NONDET_ANNOTATION = re.compile(r"nondet-ok\(([a-z-]+)\)(:\s*\S.*)?")
HB_ANNOTATION = re.compile(r"hb-(guarded|exempt)\(([^()]*)\)")

GUARD_DECL = re.compile(
    r"(?:check::)?ContextGuard\s+([_a-zA-Z]\w*)\s*[{;]"
)

# Statement openers that are never data-member declarations.
NON_MEMBER = re.compile(
    r"^\s*(public|private|protected)\s*:"
    r"|^\s*(using|typedef|friend|template|static_assert|enum|class"
    r"|struct|union|return|if|for|while|switch|case|default|explicit"
    r"|virtual|operator|~|UNET_)\b"
)

LINE_COMMENT = re.compile(r"//.*$")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING = re.compile(r'"(?:[^"\\]|\\.)*"')

# clang-query matchers, one per AST check. A single -c value holds
# exactly one command, so each command gets its own -c flag.
UNORDERED_FOR_MATCHER = (
    "match cxxForRangeStmt(hasRangeInit(expr(hasType(hasCanonical"
    "Type(hasDeclaration(namedDecl(matchesName("
    '"unordered_(map|set|multimap|multiset)"))))))))'
)
GUARD_FIELD_MATCHER = (
    'match fieldDecl(hasType(cxxRecordDecl(hasName('
    '"ContextGuard"))))'
)


def source_files(root):
    for sub in ("src", "bench", "examples", "tests"):
        for dirpath, _, names in os.walk(os.path.join(root, sub)):
            for name in sorted(names):
                if name.endswith((".cc", ".hh", ".h")):
                    yield os.path.join(dirpath, name)


def strip_comments(text):
    """Blank out comments, preserving line structure."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))

    text = BLOCK_COMMENT.sub(blank, text)
    return [LINE_COMMENT.sub("", line) for line in text.split("\n")]


# --- nondeterminism rules ----------------------------------------------

def nondet_annotations(lines, idx):
    """Annotation rule names covering line idx (same line or the two
    lines above), plus any malformed annotations found there."""
    rules, malformed = set(), []
    for j in range(max(0, idx - 2), idx + 1):
        for m in NONDET_ANNOTATION.finditer(lines[j]):
            if m.group(2) is None:
                malformed.append(j + 1)
            else:
                rules.add(m.group(1))
    return rules, malformed


def lint_nondet(rel, raw_lines, code_lines, findings):
    in_src = rel.startswith("src/")
    for idx, code in enumerate(code_lines):
        for rule, (pattern, message) in RULES.items():
            if not in_src and rule not in EVERYWHERE_RULES:
                continue
            if any(rel.startswith(p) for r, p in EXEMPT if r == rule):
                continue
            if not pattern.search(code):
                continue
            allowed, malformed = nondet_annotations(raw_lines, idx)
            for line_no in malformed:
                findings.append(
                    (rel, line_no, "annotation",
                     "nondet-ok annotation without a reason")
                )
            if rule in allowed:
                continue
            findings.append((rel, idx + 1, rule, message))


# --- happens-before coverage rules -------------------------------------

def strip_angles(text):
    """Remove balanced <...> groups so template argument lists (and the
    parentheses inside std::function<...>) cannot masquerade as call
    or parameter parentheses."""
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"<[^<>]*>", "", text)
    return text


def is_member_decl(stmt):
    """Heuristic: does this class-body statement declare a data member?

    Under-matching is acceptable (a missed member is not flagged);
    over-matching is not (a false positive blocks the build). The AST
    cross-check bounds how much the regex stage can silently miss.
    """
    if NON_MEMBER.search(stmt):
        return False
    flat = strip_angles(" ".join(stmt.split()))
    if not flat.endswith(";"):
        return False
    # Immutable state needs no ordering: nothing races on it.
    if re.search(r"\b(const|constexpr)\b", flat.split("=")[0]):
        return False
    # Statics are not per-instance audited state; the nondet rules and
    # code review own those (rare, and usually constexpr tables).
    if flat.startswith("static "):
        return False
    # Any parenthesis left after angle-stripping means a function
    # declaration or a paren-initialised member; both are out of
    # scope for the annotation rule.
    if "(" in flat:
        return False
    # Require a declarator: an identifier directly before the
    # terminating ';', or before an initialiser.
    return re.search(r"[_a-zA-Z]\w*\s*(\[[^\]]*\]\s*)?(=[^;]*|\{[^;]*\})?;$",
                     flat) is not None


def hb_annotations(raw_lines, code_lines, start, end):
    """Annotations covering a statement spanning lines [start, end]
    (0-based, inclusive), or up to two comment-only lines directly
    above it. Lines above that hold code don't count — their
    annotation belongs to the previous member, and letting it bleed
    downward would silently cover a freshly added member below."""
    covered = list(range(start, end + 1))
    j = start - 1
    while j >= max(0, start - 2) and not code_lines[j].strip():
        covered.append(j)
        j -= 1
    found, malformed = [], []
    for j in covered:
        for m in HB_ANNOTATION.finditer(raw_lines[j]):
            kind, arg = m.group(1), m.group(2).strip()
            if not arg:
                malformed.append((j + 1, kind))
            else:
                found.append((kind, arg))
    return found, malformed


class ClassScope:
    def __init__(self, name, depth):
        self.name = name
        self.depth = depth          # brace depth of the class body
        self.statements = []        # (text, start_line, end_line)
        self.guards = set()


def lint_hb(rel, raw_lines, comment_free, findings, instrumented_at):
    # String literals could hold braces or semicolons.
    code_lines = [STRING.sub('""', line) for line in comment_free]

    depth = 0
    stack = []                      # innermost ClassScope last
    pending = None                  # class name awaiting its '{'
    stmt, stmt_start = "", 0
    init_depth = 0                  # inside a brace initializer

    def brace_is_initializer(text):
        """A '{' opens a member initializer (not a scope) when the
        statement so far is a plain declarator: ends in an identifier,
        '=', ']' or '>' and holds no parameter-list parentheses."""
        flat = strip_angles(text).rstrip()
        if not flat or "(" in flat or NON_MEMBER.search(flat):
            return False
        return flat[-1] == "=" or flat[-1] == "]" or flat[-1] == ">" \
            or flat[-1] == "," or re.search(r"[\w]$", flat)

    for idx, line in enumerate(code_lines):
        m = re.search(r"\b(class|struct)\s+([_a-zA-Z]\w*)", line)
        if m and ";" not in line.split(m.group(0))[-1].split("{")[0]:
            pending = m.group(2)
        for ch in line:
            if init_depth:
                # Inside a brace initializer: keep the text, track
                # nesting, and fall back to normal scanning at the
                # closing brace (the ';' then ends the statement).
                stmt += ch
                if ch == "{":
                    init_depth += 1
                elif ch == "}":
                    init_depth -= 1
                continue
            if ch == "{":
                if pending is None and stack \
                        and depth == stack[-1].depth \
                        and brace_is_initializer(stmt):
                    stmt += ch
                    init_depth = 1
                    continue
                if pending is not None:
                    stack.append(ClassScope(pending, depth + 1))
                    pending = None
                depth += 1
                stmt, stmt_start = "", idx
            elif ch == "}":
                depth -= 1
                while stack and depth < stack[-1].depth:
                    finish_class(stack.pop(), rel, raw_lines,
                                 code_lines, findings,
                                 instrumented_at)
                stmt, stmt_start = "", idx
            elif ch == ";":
                stmt += ";"
                if stack and depth == stack[-1].depth:
                    stack[-1].statements.append(
                        (stmt, stmt_start, idx))
                stmt, stmt_start = "", idx
            else:
                if not stmt.strip():
                    stmt_start = idx
                stmt += ch
        stmt += "\n"


def finish_class(scope, rel, raw_lines, code_lines, findings,
                 instrumented_at):
    for stmt, _, _ in scope.statements:
        g = GUARD_DECL.search(stmt)
        if g:
            scope.guards.add(g.group(1))
    if not scope.guards:
        return
    for stmt, start, end in scope.statements:
        if GUARD_DECL.search(stmt):
            instrumented_at.add((rel, start + 1))
            continue
        if not is_member_decl(stmt):
            continue
        near, malformed = hb_annotations(raw_lines, code_lines,
                                         start, end)
        for line_no, kind in malformed:
            findings.append(
                (rel, line_no, "annotation",
                 f"hb-{kind} annotation without a "
                 + ("guard name" if kind == "guarded" else "reason"))
            )
        guarded = [arg for kind, arg in near if kind == "guarded"]
        exempt = [arg for kind, arg in near if kind == "exempt"]
        if not guarded and not exempt:
            findings.append(
                (rel, start + 1, "unannotated-member",
                 f"mutable member of instrumented class "
                 f"'{scope.name}' has neither hb-guarded(<guard>) "
                 f"nor hb-exempt(<reason>)")
            )
            continue
        for name in guarded:
            if name not in scope.guards:
                findings.append(
                    (rel, start + 1, "unknown-guard",
                     f"hb-guarded({name}) names no ContextGuard "
                     f"member of '{scope.name}' "
                     f"(has: {', '.join(sorted(scope.guards))})")
                )


# --- clang-query stage -------------------------------------------------

def clang_query(root, build_dir, matcher):
    """Run @p matcher over the src/ translation units; returns the
    (path, line) of every match, or None when clang-query failed."""
    files = [f for f in source_files(root)
             if f.endswith(".cc") and os.path.relpath(f, root)
             .startswith("src/")]
    cmd = [shutil.which("clang-query"), "-p", build_dir,
           "-c", "set bind-root true", "-c", matcher]
    proc = subprocess.run(cmd + files, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        # Tool failure is not "zero findings": surface it.
        sys.stderr.write(proc.stderr)
        print(f"source-lint: clang-query failed "
              f"(exit {proc.returncode}); AST stage did not run")
        return None
    # Matches print as "<path>:<line>:<col>: note: "root" binds here".
    loc = re.compile(r"^(\S+?):(\d+):\d+: note:")
    return [(m.group(1), int(m.group(2)))
            for m in map(loc.match, proc.stdout.splitlines()) if m]


def ast_stage(root, build_dir, instrumented_at, findings, require):
    """Returns True when the stage ran (or was legitimately skipped),
    False when it failed or @p require is set and it could not run:
    a missing tool must fail the build it was promised in, not
    silently drop coverage."""
    ccdb = os.path.join(build_dir, "compile_commands.json")
    for present, what in ((shutil.which("clang-query"),
                           "clang-query not installed"),
                          (os.path.isfile(ccdb), f"no {ccdb}")):
        if not present:
            print("source-lint: " + what + "; "
                  + ("AST stage REQUIRED but unavailable" if require
                     else "skipping AST stage (use --require-ast to "
                          "make this an error)"))
            return not require

    loops = clang_query(root, build_dir, UNORDERED_FOR_MATCHER)
    if loops is None:
        return False
    for path, line_no in loops:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw_lines = f.read().split("\n")
            allowed, _ = nondet_annotations(raw_lines, line_no - 1)
        except OSError:
            allowed = set()
        if "unordered-container" not in allowed:
            findings.append(
                (os.path.relpath(path, root), line_no,
                 "unordered-container",
                 "range-for over an unordered container (clang-query)")
            )

    fields = clang_query(root, build_dir, GUARD_FIELD_MATCHER)
    if fields is None:
        return False
    for key in sorted({(os.path.relpath(path, root), line_no)
                       for path, line_no in fields}):
        if key[0].startswith("src/") and key not in instrumented_at:
            findings.append(
                (*key, "ast-mismatch",
                 "clang-query found a ContextGuard field the regex "
                 "stage missed; its class is not being linted")
            )
    return True


def main():
    parser = argparse.ArgumentParser(
        description="nondeterminism and happens-before coverage lint "
                    "(see module docstring)"
    )
    parser.add_argument(
        "--build-dir", default="build",
        help="directory holding compile_commands.json for the "
             "clang-query stage",
    )
    parser.add_argument(
        "--no-ast", action="store_true",
        help="skip the clang-query stage even if available",
    )
    parser.add_argument(
        "--require-ast", action="store_true",
        help="fail (exit 2) when the clang-query stage cannot run, "
             "instead of skipping it; use in CI where the tool is "
             "expected to be installed",
    )
    args = parser.parse_args()
    if args.no_ast and args.require_ast:
        parser.error("--no-ast and --require-ast are contradictory")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = []
    instrumented_at = set()
    for path in source_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        raw_lines = text.split("\n")
        code_lines = strip_comments(text)
        lint_nondet(rel, raw_lines, code_lines, findings)
        if rel.startswith("src/"):
            lint_hb(rel, raw_lines, code_lines, findings,
                    instrumented_at)
    ast_ok = args.no_ast or ast_stage(root, args.build_dir,
                                      instrumented_at, findings,
                                      args.require_ast)

    for rel, line_no, rule, message in sorted(findings):
        print(f"{rel}:{line_no}: [{rule}] {message}")
    if findings:
        print(f"source-lint: {len(findings)} finding(s)")
        return 1
    if not ast_ok:
        return 2
    print(f"source-lint: clean "
          f"({len(instrumented_at)} guard member(s) covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
