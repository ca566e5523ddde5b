#!/usr/bin/env python3
"""Rule tests for the source lint.

Each rule gets a planted snippet. The lint must report it, and the
rule's annotation must suppress it. The lint runs as a command, on a
temporary tree that holds a copy of the script and the planted files,
so the file walk, the exit status and the report format are tested
too. The clang-query stage runs against a stub that prints the
matches a test gives it, which tests how the lint reads them, not the
matchers.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "tools"))

import source_lint  # noqa: E402

NONDET_LINT = HB_LINT = source_lint.__file__

# rule -> (planted snippet, the same snippet annotated). Each lands in
# src/<rule>.cc.
NONDET_CASES = {
    "wall-clock": (
        "auto t = std::chrono::steady_clock::now();\n",
        "// nondet-ok(wall-clock): host timing for a report\n"
        "auto t = std::chrono::steady_clock::now();\n",
    ),
    "env-read": (
        'const char *v = std::getenv("HOME");\n',
        "// nondet-ok(env-read): read once, before the run\n"
        'const char *v = std::getenv("HOME");\n',
    ),
    "raw-rand": (
        "int r = rand();\n",
        "int r = rand(); // nondet-ok(raw-rand): never reaches a result\n",
    ),
    "unseeded-engine": (
        "std::mt19937 gen;\n",
        "std::mt19937 gen; // nondet-ok(unseeded-engine): seeded below\n",
    ),
    "unordered-container": (
        "std::unordered_map<int, int> m;\n",
        "// nondet-ok(unordered-container): lookups only\n"
        "std::unordered_map<int, int> m;\n",
    ),
    "ptr-key-order": (
        "std::map<Foo *, int> m;\n",
        "// nondet-ok(ptr-key-order): never iterated\n"
        "std::map<Foo *, int> m;\n",
    ),
}

# An annotation without a reason is a finding of its own, and it
# suppresses nothing.
NONDET_BARE = (
    "// nondet-ok(env-read)\n"
    'const char *v = std::getenv("HOME");\n',
    {"annotation", "env-read"},
)


def guarded_class(member):
    return ("class Planted\n{\n"
            "    check::ContextGuard guard_;\n"
            f"    {member}\n"
            "};\n")


# case -> (planted member line, expected rules, annotated member line).
HB_CASES = {
    "unannotated-member": (
        "int count_ = 0;",
        {"unannotated-member"},
        "int count_ = 0; // hb-guarded(guard_)",
    ),
    "unknown-guard": (
        "int count_ = 0; // hb-guarded(other_)",
        {"unknown-guard"},
        "int count_ = 0; // hb-guarded(guard_)",
    ),
    "bare-guarded": (
        "int count_ = 0; // hb-guarded()",
        {"annotation", "unannotated-member"},
        "int count_ = 0; // hb-guarded(guard_)",
    ),
    "bare-exempt": (
        "int count_ = 0; // hb-exempt()",
        {"annotation", "unannotated-member"},
        "int count_ = 0; // hb-exempt(written before the run starts)",
    ),
}

FINDING = re.compile(r"^(\S+):(\d+): \[([a-z-]+)\] ")


def run_lint(script, files, args=("--no-ast",), env=None):
    """Run @p script with @p args in a tree holding @p files
    ({relative path: text}); returns (exit status, {path: rules})."""
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "tools"))
        copy = os.path.join(root, "tools", os.path.basename(script))
        shutil.copyfile(script, copy)
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            os.chmod(path, 0o755)
        proc = subprocess.run([sys.executable, copy, *args], cwd=root,
                              env=env, capture_output=True, text=True,
                              check=False)
    found = {}
    for line in proc.stdout.splitlines():
        m = FINDING.match(line)
        if m:
            found.setdefault(m.group(1), set()).add(m.group(3))
    return proc.returncode, found


class NondetRules(unittest.TestCase):
    def test_each_rule_is_reported(self):
        files = {f"src/{rule}.cc": planted
                 for rule, (planted, _) in NONDET_CASES.items()}
        files["src/bare.cc"] = NONDET_BARE[0]
        status, found = run_lint(NONDET_LINT, files)
        self.assertEqual(status, 1)
        for rule in NONDET_CASES:
            with self.subTest(rule=rule):
                self.assertEqual(found.get(f"src/{rule}.cc"), {rule})
        self.assertEqual(found.get("src/bare.cc"), NONDET_BARE[1])

    def test_each_annotation_suppresses(self):
        files = {f"src/{rule}.cc": annotated
                 for rule, (_, annotated) in NONDET_CASES.items()}
        status, found = run_lint(NONDET_LINT, files)
        self.assertEqual(found, {})
        self.assertEqual(status, 0)

    def test_scope_outside_src(self):
        # Clocks and C PRNGs are wrong wherever results are reported;
        # the other rules apply to the simulator sources only.
        status, found = run_lint(NONDET_LINT, {
            "bench/clock.cc": NONDET_CASES["wall-clock"][0],
            "tests/rand.cc": NONDET_CASES["raw-rand"][0],
            "bench/env.cc": NONDET_CASES["env-read"][0],
            "tests/engine.cc": NONDET_CASES["unseeded-engine"][0],
        })
        self.assertEqual(status, 1)
        self.assertEqual(found, {"bench/clock.cc": {"wall-clock"},
                                 "tests/rand.cc": {"raw-rand"}})

    def test_seeded_wrapper_is_exempt(self):
        status, found = run_lint(NONDET_LINT, {
            "src/sim/random.hh": NONDET_CASES["unseeded-engine"][0],
        })
        self.assertEqual((status, found), (0, {}))


class HbRules(unittest.TestCase):
    def test_each_rule_is_reported(self):
        files = {f"src/{case}.hh": guarded_class(member)
                 for case, (member, _, _) in HB_CASES.items()}
        status, found = run_lint(HB_LINT, files)
        self.assertEqual(status, 1)
        for case, (_, rules, _) in HB_CASES.items():
            with self.subTest(case=case):
                self.assertEqual(found.get(f"src/{case}.hh"), rules)

    def test_each_annotation_suppresses(self):
        files = {f"src/{case}.hh": guarded_class(annotated)
                 for case, (_, _, annotated) in HB_CASES.items()}
        status, found = run_lint(HB_LINT, files)
        self.assertEqual(found, {})
        self.assertEqual(status, 0)

    def test_uninstrumented_class_is_not_linted(self):
        status, found = run_lint(HB_LINT, {
            "src/plain.hh": "class Plain\n{\n    int count_ = 0;\n};\n",
        })
        self.assertEqual((status, found), (0, {}))


# Prints $LOOPS for the range-for matcher and $GUARDS for the guard
# matcher, one "<path>:<line>:<col>: note:" line each, and exits
# $STATUS.
STUB_CLANG_QUERY = """#!/bin/sh
case "$*" in
  *cxxForRangeStmt*) [ -n "$LOOPS" ] && echo "$LOOPS: note: binds" ;;
  *ContextGuard*) [ -n "$GUARDS" ] && echo "$GUARDS: note: binds" ;;
esac
exit "$STATUS"
"""


def loop_file(annotation):
    """A range-for over a container whose type the regex stage cannot
    see; the loop is on line 4."""
    return ("int sum(const Table &t)\n{\n    int n = 0;\n"
            f"    for (const auto &kv : t) {annotation}\n"
            "        n += kv.second;\n    return n;\n}\n")


class AstStage(unittest.TestCase):
    def run_ast(self, loop_annotation=False, guards="src/guarded.hh:3:5",
                status="0"):
        annotation = ("// nondet-ok(unordered-container): sums only"
                      if loop_annotation else "")
        return run_lint(
            NONDET_LINT,
            {"src/loop.cc": loop_file(annotation),
             "src/guarded.hh":
                 guarded_class(HB_CASES["unannotated-member"][2]),
             "build/compile_commands.json": "[]",
             "bin/clang-query": STUB_CLANG_QUERY},
            args=("--require-ast",),
            env={"PATH": "bin", "LOOPS": "src/loop.cc:4:5",
                 "GUARDS": guards, "STATUS": status})

    def test_clean_run_exits_zero(self):
        self.assertEqual(self.run_ast(loop_annotation=True), (0, {}))

    def test_unordered_loop_is_reported(self):
        self.assertEqual(self.run_ast(),
                         (1, {"src/loop.cc": {"unordered-container"}}))

    def test_guard_the_regex_stage_missed(self):
        self.assertEqual(self.run_ast(loop_annotation=True,
                                      guards="src/guarded.hh:9:5"),
                         (1, {"src/guarded.hh": {"ast-mismatch"}}))

    def test_tool_failure_exits_two(self):
        self.assertEqual(self.run_ast(loop_annotation=True, status="1"),
                         (2, {}))

    def test_required_but_missing_exits_two(self):
        status, found = run_lint(NONDET_LINT, {}, args=("--require-ast",),
                                 env={"PATH": ""})
        self.assertEqual((status, found), (2, {}))


if __name__ == "__main__":
    unittest.main()
