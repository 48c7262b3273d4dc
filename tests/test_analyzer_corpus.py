#!/usr/bin/env python3
"""ctest wrapper for the static checker, tools/lint/escort_lint.py.

Asserts, in increasing order of reach:
  1. the checker's own --self-test passes (exact (file, line, rule)
     agreement with the `// EXPECT: RULE` markers in tools/lint/fixtures/),
  2. an independent re-derivation of those markers matches the findings
     the checker prints for the fixture tree, so the self-test harness
     itself is cross-checked,
  3. every rule has at least one expectation, and every fixture without a
     marker (the negative-space cases) is silent,
  4. the shipped tree (src/, tests/, bench/, examples/) is clean.
"""

import os
import re
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO, "tools", "lint", "escort_lint.py")
FIXTURES = os.path.join(REPO, "tools", "lint", "fixtures")

RULES = ("EL001", "EL002", "EL003", "EL004", "EL005", "EL006", "EL007",
         "EL008", "EL009", "EL011", "EL013", "EL014", "EL015",
         "EA001", "EA003", "EA005")
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*((?:E[LA]\d{3}[ \t]*)+)")
FINDING_RE = re.compile(r"^(.+?):(\d+): (E[LA]\d{3}): ")


def run_checker(*args):
    proc = subprocess.run([sys.executable, CHECKER, *args],
                          capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def fixture_expectations():
    """relpath -> set of (line, rule) for every fixture file."""
    out = {}
    for dirpath, _dirs, names in os.walk(FIXTURES):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, FIXTURES).replace(os.sep, "/")
            out[rel] = set()
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    m = EXPECT_RE.search(line)
                    if m is not None:
                        out[rel] |= {(lineno, rule) for rule in m.group(1).split()}
    return out


class StaticCheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.expectations = fixture_expectations()
        rc, out, err = run_checker("--root", FIXTURES, "-q")
        cls.fixture_rc, cls.fixture_output = rc, out + err
        cls.got = set()
        for line in out.splitlines():
            m = FINDING_RE.match(line)
            if m is not None:
                cls.got.add((m.group(1), int(m.group(2)), m.group(3)))

    def test_self_test_passes(self):
        rc, out, err = run_checker("--self-test")
        self.assertEqual(rc, 0, f"self-test failed:\n{out}\n{err}")
        self.assertIn("PASS", out)

    def test_fixture_findings_match_expect_markers(self):
        expected = {(rel, line, rule) for rel, marks in self.expectations.items()
                    for line, rule in marks}
        self.assertEqual(self.fixture_rc, 1,
                         "fixtures must produce findings:\n" + self.fixture_output)
        self.assertEqual(
            expected, self.got,
            "marker/finding mismatch:\n  missing: "
            f"{sorted(expected - self.got)}\n  spurious: {sorted(self.got - expected)}")

    def test_every_rule_has_an_expectation(self):
        covered = {rule for marks in self.expectations.values() for _, rule in marks}
        for rule in RULES:
            self.assertIn(rule, covered, f"no fixture expects {rule}")

    def test_clean_fixtures_are_silent(self):
        clean = sorted(rel for rel, marks in self.expectations.items() if not marks)
        for rel in ("src/clean.cc", "src/clean.h", "src/clean_statics.cc",
                    "src/sim/trace.cc", "tests/test_registry_direct.cc"):
            self.assertIn(rel, clean)
        noisy = sorted(f for f in self.got if f[0] in clean)
        self.assertEqual(noisy, [], "negative-space fixtures produced findings")

    def test_tree_is_clean(self):
        rc, out, err = run_checker()
        self.assertEqual(
            rc, 0,
            "src/, tests/, bench/ and examples/ must check clean (EA "
            f"suppressions need NOLINT-EA00x with a reason):\n{out}\n{err}")
        self.assertIn("findings=0", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
