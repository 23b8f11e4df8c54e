#!/usr/bin/env python3
"""Host-time benchmark of the FEATHER stack: sweeps, whole-graph scheduling
and open-loop serving.

    python3 hostbench/run.py --workload sweep_cycle --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Builds the harness (hostbench/CMakeLists.txt,
which compiles ../src) into .bench_build/, runs the workload, checks the
outputs, prints every metric by name and unit, and ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
run and reports the per-layer metrics (see hostbench/METRICS.md).
Exit status: 0 correct, 1 correctness gate failed, 2 build, usage or
time-out error, 3 invalid run (the open-loop generator fell behind its
schedule; a run that is also incorrect exits 1).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory of every
    # language in the checkout; default to .bench_build at the root.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build():
    """Configure once, then (re)build the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("hostbench: no program sources (src/CMakeLists.txt) next to the "
            "benchmark; nothing to build")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            log("hostbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "hostbench")


def run_pass(binary, workload, seed, seconds, threads, trace):
    spans = ""
    if trace:
        spans = os.path.join(build_dir(), f"spans-{workload}-{seed}.csv")
    spec = benchlib.make_pass(workload, seed, seconds, threads, trace, spans)
    # Beyond the measured seconds a pass spends its set-ups and drains.
    limit = 60 + 2 * seconds
    try:
        proc = subprocess.run([binary], input=spec, capture_output=True,
                              text=True, cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"hostbench: {workload} pass did not end within {limit:g} s")
        sys.exit(2)
    if proc.returncode != 0:
        log(proc.stderr)
        log(f"hostbench: harness exited {proc.returncode} on {workload}")
        sys.exit(2)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        with open(spans) as f:
            raw["spans"] = benchlib.parse_spans(f.read())
    return raw


def source_id():
    """The commit, or a digest of src/ when the tree is not a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def record_expected(workload, raw):
    path = os.path.join(HERE, "expected.json")
    expected = load_expected() if os.path.isfile(path) else {}
    expected[workload] = raw["det"]
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"hostbench: recorded {len(raw['det'])} expectations for {workload}")


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")


def worst_lateness(passes):
    """The generator's tail lateness over every open-loop pass, in ms."""
    worst = 0.0
    for raw in passes.values():
        late = raw["series"].get("loadgen.late_ms")
        if late:
            worst = max(worst, benchlib.percentile(
                late, benchlib.tail_level(len(late))))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's deterministic outputs as the "
                         "expectations of the default seed")
    args = ap.parse_args()
    if args.record and args.seed != benchlib.DEFAULT_SEED:
        ap.error("--record only at the default seed")

    binary = build()
    nproc = len(os.sched_getaffinity(0))
    # Pools use at most nproc threads (and at most 4, so hosts of different
    # sizes run comparable passes). Serve passes leave one core to the
    # generator thread and the daemon's event loop.
    threads = min(nproc, 4)
    w, seed, secs = args.workload, args.seed, args.seconds

    # The traced run also measures the layers the named workload does not
    # reach, each on its home workload (sweep: sim/plan/pool; graphs:
    # model; a serve workload: daemon/loadgen), plus an untraced pass of
    # the named workload for the tracing overhead.
    if args.trace:
        serve = w if w.startswith("serve_") else "serve_fleet"
        plan = [(w, False), (w, True)] + [
            (x, True) for x in ("sweep_cycle", "schedule_graphs", serve)
            if x != w]
        share = secs / len(plan)
    else:
        plan = [(w, False)]
        share = secs

    expected = {} if args.record else load_expected()
    check_expected = seed == benchlib.DEFAULT_SEED and not args.record
    passes = {}
    problems = []
    attempted = failed = 0
    for workload, traced in plan:
        is_serve = workload.startswith("serve_")
        pool = max(1, threads - 1) if is_serve else threads
        raw = run_pass(binary, workload, seed, share, pool, traced)
        passes[(workload, traced)] = raw
        attempted += raw["attempted"]
        failed += raw["failed"]
        problems += benchlib.gate(workload, raw, expected, check_expected)
    if args.trace:
        a, b = passes[(w, False)]["det"], passes[(w, True)]["det"]
        if a != b:
            problems.append(f"{w}: traced outputs differ from untraced ones")

    host = passes[(w, False)]["host"]
    print(f"host: nproc={nproc} threads={threads} "
          f"compiler={host['compiler']!r} build={host['build_type']} "
          f"source={source_id()}")
    print(f"workload={w} seed={seed} seconds={secs:g} trace={args.trace} "
          f"attempted={attempted} failed={failed} "
          f"fail_ratio={failed / max(1, attempted):.6g}")

    for p in problems:
        print("GATE:", p)
    late = worst_lateness(passes)
    if late > benchlib.LATE_BOUND_MS:
        print(f"INVALID: the open-loop generator ran {late:.3f} ms late "
              f"at its tail (bound {benchlib.LATE_BOUND_MS} ms); "
              "not reported")
        return 1 if problems else 3

    e2e, notes = benchlib.end_to_end(passes[(w, False)])
    print(f"latency samples={notes['latency_samples']} "
          f"p90_ms={notes['p90_ms']:.6g} ms (p{notes['p90_level']:.4g}, "
          f"not gated), p99_ms is p{notes['p99_level']:.4g}")
    if args.trace:
        traced, _ = benchlib.end_to_end(passes[(w, True)])
        print_metrics("end-to-end, untraced pass:", e2e)
        print_metrics("end-to-end, traced pass:", traced)
        base = e2e["ops_per_s"][0]
        overhead = 100.0 * (base - traced["ops_per_s"][0]) / base
        print(f"tracing overhead: ops_per_s {base:.6g} untraced -> "
              f"{traced['ops_per_s'][0]:.6g} traced ({overhead:.3g}%)")
        layers = {k[0]: (raw, raw.pop("spans", [])) for k, raw in
                  passes.items() if k[1]}
        metrics = benchlib.per_layer(layers)
        metrics["trace.overhead_pct"] = (overhead, "%")
        print_metrics("per-layer:", metrics)
    else:
        metrics = e2e
        print_metrics("end-to-end:", metrics)

    if args.record:
        record_expected(w, passes[(w, False)])
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
