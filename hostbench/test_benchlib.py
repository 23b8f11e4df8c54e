"""Unit tests of the benchmark's own code (no build needed):

    python3 hostbench/test_benchlib.py
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_on_known_inputs(self):
        data = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(data, 50), 50)
        self.assertEqual(benchlib.percentile(data, 90), 90)
        self.assertEqual(benchlib.percentile(data, 99), 99)
        self.assertEqual(benchlib.percentile(data, 100), 100)
        self.assertEqual(benchlib.percentile(list(reversed(data)), 1), 1)
        self.assertEqual(benchlib.percentile([7.5], 99), 7.5)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_level(1000), 99.0)
        self.assertEqual(benchlib.tail_level(5000), 99.0)
        self.assertAlmostEqual(benchlib.tail_level(160), 93.75)
        self.assertEqual(benchlib.tail_level(10), 50.0)
        self.assertEqual(benchlib.tail_level(18), 50.0)
        for n in (20, 37, 160, 999, 1000, 4321):
            data = list(range(n))
            p = benchlib.percentile(data, benchlib.tail_level(n))
            self.assertGreaterEqual(sum(1 for x in data if x > p), 10, n)


class Generator(unittest.TestCase):
    def test_same_seed_gives_byte_identical_passes(self):
        for w in benchlib.WORKLOADS:
            a = benchlib.make_pass(w, 5, 10.0, 4)
            b = benchlib.make_pass(w, 5, 10.0, 4)
            self.assertEqual(a.encode(), b.encode(), w)
        self.assertNotEqual(benchlib.make_pass("serve_fleet", 5, 10.0, 4),
                            benchlib.make_pass("serve_fleet", 6, 10.0, 4))

    def test_request_lists_are_identical_and_pinned(self):
        a = benchlib.serve_requests(9, 2, 300, "r", 200)
        self.assertEqual(a, benchlib.serve_requests(9, 2, 300, "r", 200))
        arrivals = [json.loads(x)["arrival_us"] for x in a]
        self.assertEqual(arrivals, sorted(arrivals))
        self.assertNotIn("arrival_us",
                         json.loads(benchlib.serve_requests(9, 3, 5, "o")[0]))

    def test_mix_is_the_same_at_every_seed(self):
        def mix(seed):
            counts = {}
            for line in benchlib.serve_requests(seed, 2, 400, "r"):
                req = json.loads(line)
                key = (req.get("scenario") or req["model"],
                       req.get("engine", "cycle"), req.get("dataflow", ""))
                counts[key] = counts.get(key, 0) + 1
            return counts
        self.assertEqual(mix(1), mix(2))
        graphs = sum(v for (k, _, _), v in mix(1).items()
                     if k in benchlib.SERVE_GRAPHS)
        self.assertEqual(graphs, 400 // benchlib.GRAPH_EVERY)


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "expected.json")) as f:
            cls.expected = json.load(f)

    def raw_for(self, workload):
        return {"attempted": 10, "failed": 0, "errors": [],
                "det": copy.deepcopy(self.expected[workload])}

    def test_recorded_outputs_pass(self):
        for w in benchlib.WORKLOADS:
            self.assertEqual(
                benchlib.gate(w, self.raw_for(w), self.expected, True), [], w)

    def test_perturbed_sweep_total_trips(self):
        raw = self.raw_for("sweep_cycle")
        raw["det"]["conv3x3"]["cycles"] += 1
        problems = benchlib.gate("sweep_cycle", raw, self.expected, True)
        self.assertEqual(len(problems), 1)
        self.assertIn("conv3x3", problems[0])

    def test_perturbed_schedule_total_trips(self):
        raw = self.raw_for("schedule_graphs")
        key = sorted(raw["det"])[0]
        raw["det"][key][0][1] -= 1  # est_total of the primary schedule
        self.assertEqual(
            len(benchlib.gate("schedule_graphs", raw, self.expected, True)), 1)

    def test_perturbed_daemon_report_trips(self):
        raw = self.raw_for("serve_fleet")
        raw["det"]["replay_report"]["summary"]["total_cycles"] += 1
        self.assertEqual(
            len(benchlib.gate("serve_fleet", raw, self.expected, True)), 1)

    def test_failures_and_missing_keys_trip(self):
        raw = self.raw_for("sweep_cycle")
        raw["failed"] = 1
        raw["errors"] = ["gemm: not bit-exact"]
        del raw["det"]["gemm"]
        self.assertEqual(
            len(benchlib.gate("sweep_cycle", raw, self.expected, True)), 2)
        # Away from the default seed only failures count.
        self.assertEqual(
            len(benchlib.gate("sweep_cycle", raw, self.expected, False)), 1)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_covered_child_interval(self):
        spans = [
            (1, 1, 0, "op", 0, 100),
            (1, 2, 1, "task", 10, 60),
            (1, 3, 1, "task", 40, 90),  # overlaps the first task
            (1, 4, 2, "leaf", 20, 30),
        ]
        st = benchlib.self_times(spans)
        self.assertEqual(st["op"], (1, 100 - 80))
        self.assertEqual(st["task"], (2, (50 - 10) + 50))
        self.assertEqual(st["leaf"], (1, 10))

    def test_csv_round_trip(self):
        text = "op,id,parent,name,start_ns,end_ns\n7,8,7,sim.run,5,9\n"
        self.assertEqual(benchlib.parse_spans(text),
                         [(7, 8, 7, "sim.run", 5, 9)])


if __name__ == "__main__":
    unittest.main()
