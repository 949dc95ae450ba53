#!/usr/bin/env python3
"""Reachability lint: every library header must have a user.

A header under src/ that nothing includes except its own .h/.cc pair and
tests/ is library code that no tool, bench, example or perfbench workload
can reach: it is kept compiling and tested, yet it never runs. This lint
lists every such header and exits 1, so dead library code fails tier-1
when it appears instead of waiting for someone to notice.

Includes are read from `#include "path"` lines in src/, tools/, bench/,
examples/ and perfbench/, resolved against src/.

Runs as a ctest (see tools/CMakeLists.txt).
Run locally with:  python3 tools/lint_reachable.py [--root <repo>]
"""

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from qa_lint_common import iter_cxx_files, strip_comments  # noqa: E402

USER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def unreached_headers(root: pathlib.Path) -> list[str]:
    """Headers (src/-relative) included only by their own pair, if at all."""
    src = root / "src"
    headers = {p.relative_to(src).as_posix()
               for p in iter_cxx_files(root, ("src",)) if p.suffix == ".h"}
    reached = set()
    for f in iter_cxx_files(root, USER_DIRS):
        rel = f.relative_to(root).as_posix()
        own_stem = (rel[len("src/"):].rsplit(".", 1)[0]
                    if rel.startswith("src/") else None)
        code = strip_comments(f.read_text(encoding="utf-8"))
        for target in INCLUDE.findall(code):
            if target in headers and target[:-len(".h")] != own_stem:
                reached.add(target)
    return sorted(headers - reached)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    help="repository root (default: this script's parent)")
    root = ap.parse_args().root.resolve()
    if not (root / "src").is_dir():
        print(f"lint_reachable: no src/ under {root}", file=sys.stderr)
        return 2
    unreached = unreached_headers(root)
    for header in unreached:
        print(f"src/{header}: included by nothing outside its own "
              ".h/.cc pair and tests/")
    if unreached:
        print(f"lint_reachable: {len(unreached)} unreached header(s)",
              file=sys.stderr)
        return 1
    print("lint_reachable: every header under src/ has a user")
    return 0


if __name__ == "__main__":
    sys.exit(main())
