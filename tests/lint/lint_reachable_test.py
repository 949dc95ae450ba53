#!/usr/bin/env python3
"""Self-test for tools/lint_reachable.py.

Builds small source trees in a temporary directory and runs the lint
over each with --root, pinning its exit code and the finding it names:
a clean tree passes, an orphan header fails, and a config field fails
unless something outside its header assigns it or takes its address
with a unary `&` (a flag visitor). Reads such as `ok && s.f` and
`x & s.f` must not count as writers.

Registered as the `lint_reachable_selftest` ctest (tools/CMakeLists.txt).
"""

import pathlib
import subprocess
import sys
import tempfile
import textwrap
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
LINT = REPO / "tools" / "lint_reachable.py"

HEADER = """\
#pragma once
struct DemoConfig {
  int f = 1;
  double g = 2.0;
};
"""


def run_lint(files: dict[str, str]) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return subprocess.run(
            [sys.executable, str(LINT), "--root", str(root)],
            capture_output=True, text=True)


def tool(body: str) -> str:
    return ('#include "demo/demo.h"\n'
            "bool visit(const char*, void*);\n"
            "int main() {\n  DemoConfig c;\n  DemoConfig* p = &c;\n"
            "  bool ok = true;\n  int x = 3;\n"
            f"{body}\n  return 0;\n}}\n")


class LintReachableTest(unittest.TestCase):

    def test_clean_tree_passes(self):
        r = run_lint({"src/demo/demo.h": HEADER,
                      "tools/main.cc": tool("  c.f = 2;\n  c.g += 1.0;")})
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_flag_visitor_counts_as_writer(self):
        r = run_lint({"src/demo/demo.h": HEADER,
                      "tools/main.cc": tool('  visit("--f", &p->f);\n'
                                            '  visit("--g", &c.g);')})
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_orphan_header_fails(self):
        r = run_lint({"src/demo/demo.h": HEADER,
                      "src/demo/orphan.h": "#pragma once\n",
                      "tools/main.cc": tool("  c.f = 2;\n  c.g = 3.0;")})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("src/demo/orphan.h", r.stdout)

    def test_unset_field_fails(self):
        r = run_lint({"src/demo/demo.h": HEADER,
                      "tools/main.cc": tool("  c.f = 2;")})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("DemoConfig::g", r.stdout)
        self.assertNotIn("DemoConfig::f", r.stdout)

    def test_logical_and_bitwise_and_are_reads(self):
        r = run_lint({"src/demo/demo.h": HEADER,
                      "tools/main.cc": tool(
                          "  c.g = 3.0;\n"
                          "  ok = ok && c.f;\n  ok = ok &&p->f;\n"
                          "  x = x & c.f;\n  ok = (x) & p->f;\n"
                          "  ok = p == &c ? ok : ok;\n  ok = c.f == 1;")})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("DemoConfig::f", r.stdout)
        self.assertNotIn("DemoConfig::g", r.stdout)


if __name__ == "__main__":
    unittest.main()
