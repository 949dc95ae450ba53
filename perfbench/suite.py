#!/usr/bin/env python3
"""Runs the whole benchmark as a set, and compares two sets.

    python3 perfbench/suite.py run --out SET [--seeds 1-10]
    python3 perfbench/suite.py compare SET_A SET_B

`run` calls perfbench/run.py for every BENCHMARK.json workload, in both
trace modes, for run_seconds, once per seed. Each seed runs every workload
before the next seed starts, so a spell of host load falls on a few runs of
each workload rather than on all runs of one. It keeps each run's record
(metrics, output check, provenance, raw samples) in SET, and prints, per
workload, every metric with its unit, its median over the seeds and its
spread (interquartile range over median). Count metrics (spec.json
"exact_counts") must read the same in every run, as must the reference
input's digest; any difference is reported as a failure.

`compare` prints, per workload and metric, both medians and the change
against the metric's bound from BENCHMARK.json, and checks that every count
metric and digest is identical across the sets. Runs that failed their
output check count as failures and are left out of the medians. It refuses
to compare sets built with different compilers or build types.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_spec():
    return load(os.path.join(ROOT, "BENCHMARK.json")), \
        load(os.path.join(HERE, "spec.json"))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """Interquartile range over median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def load_set(path):
    records = [load(p) for p in sorted(glob.glob(os.path.join(path, "*.json")))]
    if not records:
        sys.exit("suite: no records in %s" % path)
    return records


def group(records):
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def count_failures(runs, exact):
    """Exact-repeat counts and the reference digest must not vary."""
    problems = []
    for name in exact:
        seen = {r["result"]["metrics"][name]["value"] for r in runs
                if name in r["result"]["metrics"]}
        if len(seen) > 1:
            problems.append("%s varies: %s" % (name, sorted(seen)))
    digests = {r["raw"]["checks"][0]["pinned_digest"] for r in runs
               if r["raw"]}
    if len(digests) > 1:
        problems.append("reference digest varies: %s" % sorted(digests))
    return problems


def report(records, bench, spec):
    failures = 0
    for (workload, trace), runs in sorted(group(records).items()):
        bad = [r for r in runs if not r["result"]["correct"]]
        print("\n== %s, trace %d: %d runs, %d failed the output check"
              % (workload, trace, len(runs), len(bad)))
        for r in bad:
            print("   seed %d: %s" % (r["seed"], "; ".join(r["problems"])))
        listed = bench["per_layer"] if trace else bench["end_to_end"]
        for m in listed:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r["result"]["metrics"]]
            if not vals:
                continue
            kind = "exact" if m["name"] in spec["exact_counts"] else \
                "spread %.4f" % spread(vals)
            bound = " (bound %.2f)" % m["bound"] if "bound" in m else ""
            print("   %-28s %14.6g %-14s %s%s" % (
                m["name"], statistics.median(vals), m["unit"], kind, bound))
        problems = count_failures(runs, spec["exact_counts"])
        for p in problems:
            print("   EXACT-REPEAT FAILURE: " + p)
        failures += len(bad) + len(problems)
    return failures


def cmd_run(args):
    bench, spec = bench_spec()
    os.makedirs(args.out, exist_ok=True)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = build if os.path.isabs(build) else os.path.join(ROOT, build)
    for seed in parse_seeds(args.seeds):
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                name = "%s-s%d-t%d.json" % (workload, seed, trace)
                src = os.path.join(build, "results", name)
                if proc.returncode != 0 or not os.path.exists(src):
                    sys.stderr.write(proc.stderr)
                    sys.exit("suite: %s seed %d trace %d did not complete"
                             % (workload, seed, trace))
                shutil.move(src, os.path.join(args.out, name))
                print("%s seed %d trace %d: %s" % (
                    workload, seed, trace, proc.stdout.splitlines()[-1][:100]),
                    flush=True)
    return 1 if report(load_set(args.out), bench, spec) else 0


def provenance_key(records):
    keys = {(r["provenance"]["compiler"], r["provenance"]["build_type"])
            for r in records}
    if len(keys) != 1:
        sys.exit("suite: a set mixes builds: %s" % sorted(keys))
    return keys.pop()


def cmd_compare(args):
    bench, spec = bench_spec()
    a, b = load_set(args.set_a), load_set(args.set_b)
    ka, kb = provenance_key(a), provenance_key(b)
    if ka != kb:
        sys.exit("suite: refusing to compare %s with %s: results from "
                 "different compilers or build types" % (ka, kb))
    ga, gb = group(a), group(b)
    failures = 0
    for key in sorted(set(ga) | set(gb)):
        trace = key[1]
        print("\n== %s, trace %d" % key)
        runs_a, runs_b = ga.get(key, []), gb.get(key, [])
        ok_a = [r for r in runs_a if r["result"]["correct"]]
        ok_b = [r for r in runs_b if r["result"]["correct"]]
        bad = len(runs_a) - len(ok_a) + len(runs_b) - len(ok_b)
        if bad:
            print("   %d runs failed their output check" % bad)
            failures += bad
        if not ok_a or not ok_b:
            print("   MISSING: no correct runs in one of the sets")
            failures += 1
            continue
        listed = bench["per_layer"] if trace else bench["end_to_end"]
        for m in listed:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in ok_a]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in ok_b]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = -change if m["better"] == "higher" else change
            verdict = ""
            if m["name"] in spec["exact_counts"]:
                verdict = "same" if set(va) == set(vb) and len(set(va)) == 1 \
                    else "COUNT DIFFERS"
                failures += verdict != "same"
            elif "bound" in m:
                verdict = "worse beyond bound %.2f" % m["bound"] \
                    if worse > m["bound"] else "within bound %.2f" % m["bound"]
                failures += worse > m["bound"]
            print("   %-28s %14.6g -> %-14.6g %+7.2f%%  %s" % (
                m["name"], ma, mb, 100 * change, verdict))
        da = {r["raw"]["checks"][0]["pinned_digest"] for r in ok_a}
        db = {r["raw"]["checks"][0]["pinned_digest"] for r in ok_b}
        if da != db or len(da) != 1:
            print("   DIGEST DIFFERS: %s vs %s" % (sorted(da), sorted(db)))
            failures += 1
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    c = sub.add_parser("compare")
    c.add_argument("set_a")
    c.add_argument("set_b")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
