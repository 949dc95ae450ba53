"""Source model for qa_analyzer's checkers.

A `SourceFile` carries the raw text, a comment/string-stripped shadow copy
(line numbers preserved), the parsed suppression comments, and the layer
the file belongs to. On top of that this module provides the small set of
lexical utilities the checkers share: balanced-delimiter matching,
top-level comma splitting, unordered-container declaration discovery, and
lambda parsing at call sites.

The analysis is deliberately lexical-but-structural: it scans real token
boundaries, matches braces/parens/template brackets, and resolves
capture-list entries — enough to be exact on this codebase's idioms —
while staying runnable on a bare Python install. When the libclang Python
bindings are present (`clang_frontend.available()`), the smallfn-capture
checker upgrades its capture-size estimates to real `sizeof` answers from
the AST; everywhere else the lexical frontend is authoritative.
"""

from __future__ import annotations

import json
import pathlib
import re

import qa_lint_common as common

TOOL = "qa_analyzer"

# Modules whose behaviour feeds run digests (sweep/golden reproducibility):
# everything the simulator executes, as opposed to util/ plumbing and the
# out-of-tree harnesses. A wall-clock read here is a determinism bug unless
# explicitly allowed.
DIGEST_MODULES = ("core", "sim", "cc", "cbr", "tcp", "app", "tracedrive")

# Include DAG between the src/ layers, mirroring src/CMakeLists.txt:
#   util -> sim -> {cc,tcp,cbr} ; util -> core -> tracedrive ; * -> app
# A layer may include itself, and only the layers listed here.
LAYER_DAG: dict[str, set[str]] = {
    "util": {"util"},
    "sim": {"sim", "util"},
    "cc": {"cc", "sim", "util"},
    "core": {"core", "util"},
    "tcp": {"tcp", "sim", "util"},
    "cbr": {"cbr", "sim", "util"},
    "tracedrive": {"tracedrive", "core", "util"},
    "app": {"app", "core", "cc", "tcp", "cbr", "tracedrive", "sim", "util"},
}


class SourceFile:
    def __init__(self, root: pathlib.Path, path: pathlib.Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.raw = path.read_text(encoding="utf-8")
        self.code = common.strip_noise(self.raw)
        self.code_lines = self.code.splitlines()
        self.suppressions = common.Suppressions(self.raw, self.code,
                                                self.rel, TOOL)

    @property
    def top_dir(self) -> str:
        return self.rel.split("/", 1)[0]

    @property
    def layer(self) -> str | None:
        """src-layer name ("core", "sim", ...) or None outside src/."""
        parts = self.rel.split("/")
        if len(parts) >= 3 and parts[0] == "src":
            return parts[1]
        return None

    @property
    def in_digest_module(self) -> bool:
        return self.layer in DIGEST_MODULES

    def line_of(self, idx: int) -> int:
        return self.code.count("\n", 0, idx) + 1

    def context(self, line: int) -> str:
        if 1 <= line <= len(self.code_lines):
            return self.code_lines[line - 1].strip()
        return ""


# --- Lexical utilities ------------------------------------------------------

_OPEN_TO_CLOSE = {"(": ")", "[": "]", "{": "}", "<": ">"}


def match_delim(text: str, open_idx: int) -> int:
    """Index of the delimiter closing text[open_idx], or -1.

    Works on noise-stripped text. For '<' the scan additionally bails on
    ';' — a lone less-than comparison never closes.
    """
    opener = text[open_idx]
    closer = _OPEN_TO_CLOSE[opener]
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == opener:
            depth += 1
        elif c == closer:
            depth -= 1
            if depth == 0:
                return i
        elif opener == "<" and c == ";":
            return -1
    return -1


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Splits on `sep` at bracket depth zero."""
    parts = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (p.strip() for p in parts) if p]


_UNORDERED_DECL = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set)\s*<")


def unordered_container_names(code: str) -> set[str]:
    """Names of variables/members declared as unordered_{map,set}."""
    names: set[str] = set()
    for m in _UNORDERED_DECL.finditer(code):
        lt = code.index("<", m.start())
        gt = match_delim(code, lt)
        if gt < 0:
            continue
        tail = code[gt + 1:gt + 160]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if dm:
            names.add(dm.group(1))
    return names


_RANGE_FOR = re.compile(r"\bfor\s*\(")


def range_for_loops(code: str):
    """Yields (line_start_idx, range_expression) for every range-for."""
    for m in _RANGE_FOR.finditer(code):
        close = match_delim(code, m.end() - 1)
        if close < 0:
            continue
        header = code[m.end():close]
        colon = _find_range_colon(header)
        if colon < 0:
            continue
        yield m.start(), header[colon + 1:].strip()


def _find_range_colon(header: str) -> int:
    depth = 0
    for i, c in enumerate(header):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == ":" and depth == 0:
            # skip '::'
            if i + 1 < len(header) and header[i + 1] == ":":
                continue
            if i > 0 and header[i - 1] == ":":
                continue
            return i
    return -1


def find_lambdas(code: str, start: int, end: int):
    """Yields (idx, capture_list_text) for lambdas in code[start:end].

    A '[' is treated as a lambda introducer when the matching ']' is
    followed by '(' or '{' — which cannot happen for array subscripts
    (those are followed by operators, ';', ',' or ')').
    """
    i = start
    while i < end:
        c = code[i]
        if c != "[":
            i += 1
            continue
        close = match_delim(code, i)
        if close < 0 or close >= end:
            i += 1
            continue
        after = code[close + 1:end].lstrip()
        if after.startswith("(") or after.startswith("{") or \
                after.startswith("mutable") or after.startswith("->"):
            yield i, code[i + 1:close]
            i = close + 1
        else:
            i += 1


def compile_commands(build_dir: pathlib.Path | None) -> dict[str, list[str]]:
    """Loads compile_commands.json: absolute source path -> argv.

    Returns {} when the build dir or the file is absent — every checker
    must degrade gracefully (the lexical frontend needs no flags; the
    clang frontend needs these to exist).
    """
    if build_dir is None:
        return {}
    cc_path = build_dir / "compile_commands.json"
    if not cc_path.is_file():
        return {}
    out: dict[str, list[str]] = {}
    try:
        for entry in json.loads(cc_path.read_text(encoding="utf-8")):
            f = pathlib.Path(entry.get("directory", "."), entry["file"])
            if "arguments" in entry:
                args = list(entry["arguments"])
            else:
                args = entry.get("command", "").split()
            out[str(f.resolve())] = args
    except (json.JSONDecodeError, KeyError, OSError):
        return {}
    return out
