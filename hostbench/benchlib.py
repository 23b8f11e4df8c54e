"""Inputs, statistics and the correctness gate of the host-time benchmark.

Everything here is pure Python with no I/O, so the unit tests in
test_benchlib.py can check it without building the program. run.py builds
the harness, feeds it the passes made here and prints the metrics.
"""

import json
import math
from statistics import median

DEFAULT_SEED = 1
# Reserved for confirming a claimed gain on inputs not seen while tuning.
HELDOUT_SEED = 7919

# ---------------------------------------------------------------------------
# Fixed workload inputs. Never read from the program's registries or its
# load generator, so a change to those does not change the workload.
# ---------------------------------------------------------------------------

SWEEP_SCENARIOS = [
    "quickstart_conv", "conv3x3", "conv1x1", "conv_window", "depthwise",
    "gemm", "gemm_skewed", "resnet_block", "mobilenet_bneck", "dw_separable",
    "gemm_chain", "conv_stride2",
]

MODEL_FILE = "hostbench/inputs/tiny_cnn.model"
GRAPHS = ["resnet_block", "mobilenet_slice", "bert_mlp", MODEL_FILE]
CI_FLEET = "feather:16x16,feather:32x32,tpu-like"

# The scenarios of the CI daemon trace; each is requested as four variants
# (one on the analytic tier = 25%, three on cycle with the scenario's own,
# ws and cp dataflows), drawn from a shuffled deck so every seed gets the
# same mix.
SERVE_SCENARIOS = ["gemm", "quickstart_conv", "depthwise", "conv1x1",
                   "gemm_skewed"]
SERVE_VARIANTS = [("analytic", ""), ("cycle", ""), ("cycle", "ws"),
                  ("cycle", "cp")]
SERVE_GRAPHS = ["resnet_block", "mobilenet_slice", "bert_mlp"]
GRAPH_EVERY = 20  # one whole-graph request in 20

SERVE = {
    # Fixed open-loop rates. Every 20th request is a whole-graph request
    # whose execution holds back the responses behind it; the rates keep
    # that stalled share between a fifth and a third, so p50_ms measures
    # the unstalled path and p99_ms the stalled one. (At a third of the
    # replay capacity about half the requests stall and the median flips
    # between the two from run to run.)
    "serve_vworkers": {"open_rate": 60},
    "serve_fleet": {"fleet": CI_FLEET, "open_rate": 20},
}
REPLAY_REQUESTS = 300
REPLAY_VIRTUAL_QPS = 200
OPEN_LEAD_US = 50_000  # first open-loop request is due this long after set-up
# Share of a serve run spent replaying. The open loop's request count fills
# the rest; the harness replays for what the open loop's due times leave.
REPLAY_SHARE = 0.3

WORKLOADS = ["sweep_cycle", "schedule_graphs", "serve_vworkers",
             "serve_fleet"]
# A run whose generator ran later than this at p99 measured the generator,
# not the daemon: it is reported invalid.
LATE_BOUND_MS = 5.0

_MASK = (1 << 64) - 1


class Rng:
    """splitmix64: small, portable, and identical on every Python."""

    def __init__(self, seed, stream=0):
        self.state = (seed * 0x100000001B3
                      + stream * 0x9E3779B97F4A7C15) & _MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffled(self, items):
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def _line(obj):
    return json.dumps(obj, separators=(",", ":"))


def serve_requests(seed, stream, count, prefix, arrival_qps=None):
    """`count` request lines from the fixed mix. With `arrival_qps` the
    arrivals are pinned (uniform integer gaps of mean 1e6/qps us); without,
    the daemon stamps them on arrival (open loop)."""
    rng = Rng(seed, stream)
    period = 1_000_000 // arrival_qps if arrival_qps else 0
    deck = []
    t = 0
    out = []
    for i in range(count):
        req = {"id": f"{prefix}{i}", "client": f"c{rng.below(4)}",
               "priority": rng.below(3)}
        if period:
            t += 1 + rng.below(2 * period - 1)
            req["arrival_us"] = t
        if i % GRAPH_EVERY == GRAPH_EVERY - 1:
            req["model"] = SERVE_GRAPHS[(i // GRAPH_EVERY) % len(SERVE_GRAPHS)]
        else:
            if not deck:
                deck = rng.shuffled([(s, e, d) for s in SERVE_SCENARIOS
                                     for e, d in SERVE_VARIANTS])
            scenario, engine, dataflow = deck.pop()
            req["scenario"] = scenario
            if engine == "analytic":
                req["engine"] = engine
            if dataflow:
                req["dataflow"] = dataflow
        out.append(_line(req))
    return out


def warm_requests():
    """One request per distinct request shape, pinned at virtual time 0.
    Graphs go first: their planning is the heaviest, and it then runs
    before the warm-up executions occupy the pool."""
    out = [_line({"id": f"w{i}", "client": "warm", "arrival_us": 0,
                  "model": graph}) for i, graph in enumerate(SERVE_GRAPHS)]
    for scenario in SERVE_SCENARIOS:
        for engine, dataflow in SERVE_VARIANTS:
            req = {"id": f"w{len(out)}", "client": "warm", "arrival_us": 0,
                   "scenario": scenario}
            if engine == "analytic":
                req["engine"] = engine
            if dataflow:
                req["dataflow"] = dataflow
            out.append(_line(req))
    return out


def make_pass(workload, seed, seconds, threads, trace=False, spans=""):
    """The harness's stdin for one pass of `workload`."""
    rng = Rng(seed, 1)
    lines = [f"workload {workload}", f"threads {threads}",
             f"seconds {seconds:.3f}", f"trace {int(trace)}",
             f"base_seed {seed}"]
    if trace:
        lines.append(f"spans {spans}")
    if workload == "sweep_cycle":
        lines += [f"sweep {s}" for s in rng.shuffled(SWEEP_SCENARIOS)]
    elif workload == "schedule_graphs":
        lines += [f"fleet {CI_FLEET}", f"model_file {MODEL_FILE}"]
        ops = [f"{g} {p} {t}" for g in GRAPHS for p in ("single", "fleet")
               for t in ("cycle", "analytic")]
        lines += [f"graph_op {op}" for op in rng.shuffled(ops)]
    else:
        cfg = SERVE[workload]
        if "fleet" in cfg:
            lines.append(f"fleet {cfg['fleet']}")
        lines += [f"warm {w}" for w in warm_requests()]
        lines += [f"replay {r}" for r in
                  serve_requests(seed, 2, REPLAY_REQUESTS, "r",
                                 REPLAY_VIRTUAL_QPS)]
        rate = cfg["open_rate"]
        count = max(1, int(rate * seconds * (1 - REPLAY_SHARE)))
        gap = 1_000_000 / rate
        for j, req in enumerate(serve_requests(seed, 3, count, "o")):
            lines.append(f"open {OPEN_LEAD_US + int(j * gap)} {req}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of `samples`."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    # The epsilon keeps q = 100 * k / n on rank k despite rounding.
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_level(n, q=99.0):
    """The highest percentile <= q with at least ten of `n` samples beyond
    it, but never below the median (fewer than 20 samples support no tail:
    their tail is reported at p50)."""
    return max(50.0, min(q, 100.0 * (1.0 - 10.0 / max(n, 1))))


def end_to_end(raw):
    """End-to-end metrics of one untraced pass; also returns notes on the
    tail levels actually supported by the sample count."""
    lat = raw["latency_ms"]
    n = len(lat)
    p90 = tail_level(n, 90.0)
    p99 = tail_level(n, 99.0)
    metrics = {
        "ops_per_s": (median(raw["ops_per_s"]), "1/s"),
        "p50_ms": (percentile(lat, 50), "ms"),
        "p99_ms": (percentile(lat, p99), "ms"),
        "cpu_ms_per_op": (1e3 * raw["cpu_s"] / raw["cpu_ops"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "setup_s": (median(raw["setup_s"]), "s"),
    }
    # Printed, not gated: on serve_vworkers p90 falls among the responses
    # held behind a whole-graph request, where a 20% slower host moves it
    # by 30-40%, beyond any bound the benchmark may set.
    notes = {"latency_samples": n, "p90_level": p90, "p99_level": p99,
             "p90_ms": percentile(lat, p90)}
    return metrics, notes


def self_times(spans):
    """Self time in ns per span name: each span's duration minus the part
    of its interval covered by its children (union of child intervals,
    clipped to the parent). `spans` holds (op, id, parent, name, t0, t1)."""
    children = {}
    for s in spans:
        if s[2] != 0 and s[2] != s[1]:
            children.setdefault(s[2], []).append((s[4], s[5]))
    totals = {}
    for s in spans:
        _, sid, _, name, t0, t1 = s
        covered = 0
        edge = t0
        for a, b in sorted(children.get(sid, [])):
            a, b = max(a, edge), min(b, t1)
            if b > a:
                covered += b - a
                edge = b
        count, total = totals.get(name, (0, 0))
        totals[name] = (count + 1, total + (t1 - t0) - covered)
    return totals


def parse_spans(text):
    spans = []
    for row in text.splitlines()[1:]:
        op, sid, parent, name, t0, t1 = row.split(",")
        spans.append((int(op), int(sid), int(parent), name, int(t0), int(t1)))
    return spans


def durations(spans, name):
    return [(s[5] - s[4]) for s in spans if s[3] == name]


def per_layer(passes):
    """Per-layer metrics from traced passes: {workload: (raw, spans)}."""
    out = {}
    raw, spans = passes["sweep_cycle"]
    st = self_times(spans)
    calls, run_ns = st.get("sim.run", (0, 0))
    _, lookup_ns = st.get("serve.plan.lookup", (0, 0))
    _, expand_ns = st.get("serve.plan.expand", (0, 0))
    sweep_spans = durations(spans, "sweep")
    sweeps, sweep_wall = len(sweep_spans), sum(sweep_spans)
    c = raw["counters"]
    out["sim.run.calls"] = (calls, "count")
    out["sim.run.self_ms"] = (run_ns / calls * 1e-6, "ms")
    out["sim.run.ns_per_cycle"] = (run_ns / c["sim.cycles"], "ns")
    out["serve.plan.lookups"] = (c["plan.lookups"] / sweeps, "count")
    out["serve.plan.hit_ratio"] = (c["plan.hits"] / c["plan.lookups"], "ratio")
    out["serve.plan.self_ms"] = ((lookup_ns + expand_ns) / sweeps * 1e-6, "ms")
    waits = durations(spans, "serve.pool.wait")
    busy = sum(durations(spans, "serve.pool.task"))
    out["serve.pool.queue_ms"] = (sum(waits) / len(waits) * 1e-6, "ms")
    out["serve.pool.busy_ratio"] = (
        busy / (sweep_wall * c["threads"]), "ratio")

    raw, spans = passes["schedule_graphs"]
    c = raw["counters"]
    ev = durations(spans, "model.evaluate")
    sc = durations(spans, "model.schedule")
    out["model.evaluate_ms"] = (sum(ev) / len(ev) * 1e-6, "ms")
    out["model.schedule_ms"] = (sum(sc) / len(sc) * 1e-6, "ms")
    evals = len(ev)
    out["model.candidates"] = (c["model.candidates"] / evals, "count")
    out["model.search_nodes"] = (c["model.search_nodes"] / evals, "count")

    serve = [w for w in passes if w.startswith("serve_")][0]
    raw, spans = passes[serve]
    s, c = raw["series"], raw["counters"]
    enq = s["daemon.enqueue_us"]
    out["daemon.enqueue_p50_us"] = (percentile(enq, 50), "us")
    out["daemon.enqueue_p99_us"] = (
        percentile(enq, tail_level(len(enq))), "us")
    ex = s["daemon.exec_ms"]
    out["daemon.exec_p50_ms"] = (percentile(ex, 50), "ms")
    out["daemon.exec_p99_ms"] = (percentile(ex, tail_level(len(ex))), "ms")
    out["daemon.wait_p50_ms"] = (percentile(s["daemon.wait_ms"], 50), "ms")
    out["daemon.useful_exec_share"] = (
        c["daemon.useful_exec_s"] / c["daemon.phase_cpu_s"], "ratio")
    out["daemon.cache_hit_ratio"] = (
        c["daemon.cache_hits"] / c["daemon.cache_lookups"], "ratio")
    out["daemon.drain_ms"] = (median(s["daemon.drain_ms"]), "ms")
    late = s["loadgen.late_ms"]
    out["loadgen.late_p99_ms"] = (
        percentile(late, tail_level(len(late))), "ms")
    return out


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate(workload, raw, expected, check_expected):
    """Problems with one pass's outputs (empty list = correct).

    Always: nothing failed (errors, mismatches, rejections, or a repeated
    input whose output changed within the pass). With `check_expected`
    (the default seed): every deterministic output equals the recorded one.
    """
    problems = []
    if raw["failed"]:
        problems.append(f"{workload}: {raw['failed']} of {raw['attempted']} "
                        f"operations failed: {raw['errors'][:3]}")
    if raw["attempted"] < 1:
        problems.append(f"{workload}: nothing was attempted")
    if check_expected:
        want = expected.get(workload)
        if want is None:
            problems.append(f"{workload}: no recorded expectations")
        else:
            got = raw["det"]
            for key in sorted(set(want) | set(got)):
                if key not in got:
                    problems.append(f"{workload}: {key}: not produced")
                elif key not in want:
                    problems.append(f"{workload}: {key}: no recorded value")
                elif got[key] != want[key]:
                    problems.append(f"{workload}: {key}: got {got[key]}, "
                                    f"expected {want[key]}")
    return problems
