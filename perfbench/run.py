#!/usr/bin/env python3
"""Runs one workload of the qastream benchmark and prints its metrics.

    python3 perfbench/run.py --workload t1_dumbbell --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench_runner (a Release build of ../src plus perfbench/runner.cc) under
$CARGO_TARGET_DIR, default .bench_build; later calls reuse that build.

The runner measures and prints raw samples. This script checks them against
perfbench/spec.json (pinned digest of the reference input, domain ranges,
repeat digests), derives the metrics BENCHMARK.json names, writes a record
with the host's provenance to <build>/results/, and prints, as its last
line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (make, compilers) is killed, and reaped, before raising."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(err)
    return proc.returncode, out


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no qastream sources at %s/src; run from a full checkout" % ROOT)
    bdir = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_runner",
                  "-j", "4"])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except (OSError, subprocess.SubprocessError) as e:
            die("build failed: %s" % e)
        if code != 0:
            die("build failed: %s exited with %d" % (cmd[0], code))
    return os.path.join(bdir, "perfbench_runner")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def per_input_medians(lists):
    return [statistics.median(xs) for xs in lists if xs]


def lower_quartile(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")[0] \
        if len(xs) > 1 else xs[0]


def end_to_end(raw):
    """An input's replay wall is the lower quartile of its replays: other
    tenants of a shared host only ever slow a replay down, and on a 4-CPU
    host the quartile spreads half as much between runs as the median,
    while still resting on a quarter of the replays rather than one.
    sim_s_per_wall_s averages over every input. packets_per_s is taken on
    the reference input alone: a derived input's packet count moves with
    its seed (the farm's by +-20% with the arrival draw) while its wall
    barely does, so averaging it would measure the draw."""
    walls = [lower_quartile(xs) for xs in raw["bare_s"]]
    sim_s = raw["sim_s_per_replay"]
    return {
        "sim_s_per_wall_s": statistics.mean(sim_s / w for w in walls),
        "packets_per_s": raw["checks"][0]["packets"] / walls[0],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def mean_ratio(a_lists, b_lists):
    """Mean over inputs of median(a) / median(b)."""
    a, b = per_input_medians(a_lists), per_input_medians(b_lists)
    return statistics.mean(x / y for x, y in zip(a, b))


def per_layer(raw, names):
    """Per-layer metrics; a layer the workload does not exercise reads 0."""
    sums = raw["layer_sums"]
    n = sum(len(xs) for xs in raw["traced_s"])
    out = dict(raw["checks"][0]["counts"])  # exact counts: reference input
    for key in ("link.tx.ms", "link.wire.ms", "transport.ms", "probe.ms"):
        if key in sums:
            out[key] = sums[key] / n
    setup_ms = statistics.median(raw["setup_s"]) * 1e3
    out["run.setup_ms"] = setup_ms
    self_share = None
    if "handlers_ms" in sums:
        # The scheduler's own time is what the traced wall leaves after the
        # profiler's handler walls and the set-up probe.
        wall_ms = sums["wall_ms"] / n
        self_ms = wall_ms - sums["handlers_ms"] / n - setup_ms
        out["sched.self_ms"] = self_ms
        out["sched.ns_per_event"] = self_ms * 1e6 / (sums["sched.events"] / n)
        self_share = self_ms / wall_ms
    if "core.fill.ms" in sums:
        out["core.fill_ns"] = sums["core.fill.ms"] * 1e6 / sums["core.decisions"]
        out["core.backoff_ns"] = \
            sums["core.backoff.ms"] * 1e6 / sums["cc.qa.backoffs"]
    out["trace.overhead_frac"] = mean_ratio(raw["traced_s"], raw["bare_s"]) - 1
    if raw["baseline_s"]:
        out["obs.overhead_frac"] = \
            mean_ratio(raw["bare_s"], raw["baseline_s"]) - 1
    return {k: out.get(k, 0.0) for k in names}, self_share


def check(raw, spec, workload):
    """Returns the list of failed output checks (empty when correct)."""
    problems = []
    if raw["digest_mismatches"]:
        problems.append("%d replays digest differently from their input's "
                        "counting replay" % raw["digest_mismatches"])
    pinned = spec["pinned_digest"][workload]
    if raw["checks"][0]["pinned_digest"] != pinned:
        problems.append("reference digest %s != pinned %s"
                        % (raw["checks"][0]["pinned_digest"], pinned))
    ranges = spec["sanity"][workload]
    for seed, c in zip(raw["inputs"], raw["checks"]):
        for name, (lo, hi) in ranges.items():
            v = c["sanity"].get(name)
            if v is None or not lo <= v <= hi:
                problems.append("input %d: %s = %s outside [%s, %s]"
                                % (seed, name, v, lo, hi))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die("unknown workload %r" % args.workload)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    runner = build()
    work = os.path.join(build_root(), "work")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    started = time.time()
    try:
        code, out = run_group(cmd, RUNNER_TIMEOUT_S, subprocess.PIPE)
        raw = json.loads(out.strip().splitlines()[-1])
        crashed = code != 0 or raw["error"] is not None
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        print("perfbench: runner failed: %s" % e, file=sys.stderr)
        raw, crashed = None, True

    provenance = {
        "host_cpus": raw["host_cpus"] if raw else os.cpu_count(),
        "compiler": raw["compiler"] if raw else "unknown",
        "build_type": raw["build_type"] if raw else "unknown",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    if crashed:
        if raw and raw["error"]:
            print("perfbench: " + raw["error"], file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0

    self_share = None
    if args.trace:
        values, self_share = per_layer(raw, list(units))
    else:
        values = end_to_end(raw)
    problems = check(raw, spec, args.workload)
    for p in problems:
        print("check failed: " + p)
    for name in units:
        print("%-28s %14.6g %s" % (name, values[name], units[name]))
    if self_share is not None:
        print("sched.self_ms share of traced wall: %.4f" % self_share)

    result = {
        "correct": not problems,
        "attempted": raw["replays"],
        "failed": len(problems),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "wall_s": time.time() - started, "provenance": provenance,
              "problems": problems, "result": result, "raw": raw}
    rdir = os.path.join(build_root(), "results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
