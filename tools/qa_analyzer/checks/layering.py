"""Rule `layering`: the src/ include DAG, statically enforced.

src/CMakeLists.txt keeps each subsystem a separate static library so the
dependency direction stays explicit:

    util -> sim -> {cc, tcp, cbr}         (transports ride the simulator)
    util -> core -> tracedrive            (QA math is simulator-free)
    {core, cc, tcp, cbr, tracedrive, sim} -> app
    app -> tools / bench / tests / examples

A first-party include that points upward (core including app) or across
(core including sim) compiles fine today — the umbrella target links
everything — and then quietly welds the layers together until the next
refactor discovers the knot. This checker rejects any `#include "x/..."`
whose layer is not in the including layer's allowed set; out-of-tree
dirs (tools/bench/tests/examples) may include anything.
"""

from __future__ import annotations

import re

from qa_analyzer.source import LAYER_DAG
from qa_lint_common import Finding, strip_comments

RULES = ("layering",)

# Horizontal whitespace only: \s would let the anchor swallow preceding
# blanked-out comment lines and misattribute the line number.
_INCLUDE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"', re.MULTILINE)


def run(ctx) -> list[Finding]:
    findings = []
    for sf in ctx.files:
        layer = sf.layer
        if layer is None:
            continue
        allowed = LAYER_DAG.get(layer)
        # sf.code blanks string literals along with comments, which would
        # erase every include target — strip comments only here.
        for m in _INCLUDE.finditer(strip_comments(sf.raw)):
            target = m.group(1).split("/", 1)[0]
            if target not in LAYER_DAG:
                what = (f"'{m.group(1)}' is outside the src/ layer set"
                        if "/" in m.group(1) else None)
                if what is None:
                    continue  # same-directory include like "foo.h"
            elif allowed is not None and target in allowed:
                continue
            else:
                what = (f"layer '{layer}' may only include "
                        f"{{{', '.join(sorted(allowed))}}}, not '{target}'"
                        if allowed is not None else
                        f"unknown layer '{layer}'")
            line = sf.line_of(m.start())
            findings.append(Finding(
                "qa_analyzer", "layering", sf.rel, line,
                f"include of \"{m.group(1)}\" breaks the include DAG: "
                f"{what} (see src/CMakeLists.txt)",
                context=sf.context(line)))
    return findings
