"""Rule `wall-clock`: nondeterminism sources in digest-affecting modules.

The sweep digest contract (byte-identical output for any --jobs/--shard
split) and the golden-run harness both assume that simulator behaviour is
a pure function of ExperimentParams. Anything that reads ambient state —
wall clocks, hardware entropy, the C rand stream, the environment — or
that default-seeds a random engine breaks that silently. Inside the
digest modules (src/{core,sim,cc,cbr,tcp,app,tracedrive}) every such
read must carry an explicit

    // qa-analyzer: allow(wall-clock) — <why this cannot affect digests>

The two legitimate sites today are the scheduler's dispatch profiler and
the sweep runner's wall-time self-measurement, both of which feed
wall_*-prefixed report fields that qa_diff ignores by contract.
"""

from __future__ import annotations

import re

from qa_lint_common import Finding

RULES = ("wall-clock",)

_PATTERNS: tuple[tuple[re.Pattern, str], ...] = (
    (re.compile(r"\b(?:std\s*::\s*)?chrono\s*::\s*"
                r"(system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono::{} reads the wall clock"),
    (re.compile(r"\b(?:std\s*::\s*)?(random_device)\b"),
     "std::{} draws hardware entropy"),
    (re.compile(r"\bstd\s*::\s*(rand|srand)\b|(?<![\w:])(srand)\s*\("),
     "C rand stream ({}) is process-global and unseeded by the experiment"),
    (re.compile(r"\b(?:std\s*::\s*)?(getenv)\s*\("),
     "{}() makes behaviour depend on the environment"),
    # Default-seeded engine: a declaration with no constructor arguments.
    (re.compile(r"\b(?:std\s*::\s*)?"
                r"(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux(?:24|48)(?:_base)?|knuth_b)\s+\w+\s*;"),
     "std::{} default-seeded — seed explicitly from the experiment seed"),
)


def run(ctx) -> list[Finding]:
    findings = []
    for sf in ctx.files:
        if not sf.in_digest_module:
            continue
        for pattern, msg in _PATTERNS:
            for m in pattern.finditer(sf.code):
                what = next(g for g in m.groups() if g)
                line = sf.line_of(m.start())
                findings.append(Finding(
                    "qa_analyzer", "wall-clock", sf.rel, line,
                    msg.format(what) + " inside a digest-affecting module; "
                    "derive from the scheduler clock / experiment seed, or "
                    "annotate: // qa-analyzer: allow(wall-clock) — <reason>",
                    context=sf.context(line)))
    return findings
