#!/usr/bin/env python3
"""Reachability lint: every library header and every config field must
have a user.

Two rules, both over src/:

* A header that nothing includes except its own .h/.cc pair and tests/
  is library code that no tool, bench, example or perfbench workload can
  reach: it is kept compiling and tested, yet it never runs. Includes are
  read from `#include "path"` lines in src/, tools/, bench/, examples/
  and perfbench/, resolved against src/.
* A data member of a struct named `*Params`, `*Config` or `*Options` that
  nothing outside its own header assigns (`.f = `, `->f += `, a
  designated initializer) or hands to a flag visitor (`&p.f`) has one
  value only: its default. Such a field is a named constant posing as a
  setting, and belongs at its one point of use as a `constexpr`. Writers
  are searched in src/, tools/, bench/, examples/, tests/ and perfbench/.

Each finding is printed and the lint exits 1, so dead library code and
dead settings fail tier-1 when they appear instead of waiting for someone
to notice.

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
WRITER_DIRS = USER_DIRS + ("tests",)
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w*(?:Params|Config|Options))\s*\{")
NOT_A_FIELD = re.compile(
    r"^(?:static|using|friend|typedef|enum|struct|class|template)\b")
TEMPLATE_ARGS = re.compile(r"<[^<>]*>")


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


def struct_statements(code: str, open_brace: int) -> list[str]:
    """The top-level `;`-terminated statements of the body that opens at
    `open_brace`; nested bodies (methods, nested types) are elided and
    brace initializers are kept."""
    stmts, cur, depth, opener = [], [], 0, ""
    for c in code[open_brace + 1:]:
        if c == "{":
            if depth == 0:
                opener = "".join(cur).strip()
            depth += 1
        elif c == "}":
            if depth == 0:
                break
            depth -= 1
            # A closed function or nested-type body ends its statement.
            if depth == 0 and (NOT_A_FIELD.match(opener) or re.search(
                    r"\)\s*(?:const|override|final|noexcept|\s)*$", opener)):
                cur = []
                continue
        if depth == 0 and c == ";":
            stmts.append(" ".join("".join(cur).split()))
            cur = []
        elif depth == 0 and c == ":" and re.search(
                r"\b(?:public|private|protected)\s*$", "".join(cur)):
            cur = []
        else:
            cur.append(c)
    return stmts


def field_name(stmt: str) -> str | None:
    """The member a declaration statement declares, or None for anything
    else (functions, static members, aliases, nested types)."""
    if not stmt or NOT_A_FIELD.match(stmt):
        return None
    decl = re.split(r"=|\{", stmt, maxsplit=1)[0]
    while TEMPLATE_ARGS.search(decl):
        decl = TEMPLATE_ARGS.sub("", decl)
    if "(" in decl or "operator" in decl:
        return None
    m = re.search(r"(\w+)\s*(?:\[[^\]]*\]\s*)*$", decl.strip())
    if m is None or not re.search(r"\w[\s\*&]+\w+\s*(?:\[[^\]]*\]\s*)*$",
                                  decl.strip()):
        return None
    return m.group(1)


def config_fields(root: pathlib.Path) -> list[tuple[str, str, str]]:
    """(header, struct, field) for every data member of a config struct."""
    out = []
    for h in iter_cxx_files(root, ("src",)):
        if h.suffix != ".h":
            continue
        code = strip_comments(h.read_text(encoding="utf-8"))
        rel = h.relative_to(root).as_posix()
        for m in CONFIG_STRUCT.finditer(code):
            for stmt in struct_statements(code, m.end() - 1):
                name = field_name(stmt)
                if name is not None:
                    out.append((rel, m.group(1), name))
    return out


def unset_fields(root: pathlib.Path) -> list[tuple[str, str, str]]:
    """Config fields that no file but their own header writes or visits."""
    fields = config_fields(root)
    codes = {f.relative_to(root).as_posix():
             strip_comments(f.read_text(encoding="utf-8"))
             for f in iter_cxx_files(root, WRITER_DIRS)}
    unset = []
    for header, struct, name in fields:
        n = re.escape(name)
        # A write may go through the field's own members or elements
        # (`cfg.adapter.kmax = 2` writes `adapter`). A flag visit takes the
        # field's address with a unary `&`, so it must follow an opening
        # token, never an operand: `ok && s.f` and `x & s.f` are reads.
        writer = re.compile(
            rf"(?:\.|->)\s*{n}\b(?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*"
            rf"\s*[-+*/|&]?=(?!=)"
            rf"|(?:[(,{{?:]|(?<![=!<>])=|\breturn)\s*&(?!&)\s*[\w\.\->\[\]]*"
            rf"(?:\.|->)\s*{n}\b")
        if not any(writer.search(code) for rel, code in codes.items()
                   if rel != header):
            unset.append((header, struct, name))
    return unset


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
    unset = unset_fields(root)
    for header, struct, name in unset:
        print(f"{header}: {struct}::{name} is assigned or visited nowhere "
              "outside its header; make it a constexpr at its use")
    if unreached or unset:
        print(f"lint_reachable: {len(unreached)} unreached header(s), "
              f"{len(unset)} unset config field(s)", file=sys.stderr)
        return 1
    print("lint_reachable: every header under src/ has a user and every "
          "config field a writer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
