"""Tests of the benchmark itself: seeded inputs, output digests, tail rank, tracer.

Run from the repository root with `python3 -m unittest discover -s perfbench`.
"""

from __future__ import annotations

import types
import unittest

import run

run.import_pirarray()

import tracing  # noqa: E402
import workloads  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = workload(7).describe()
                self.assertEqual(first, workload(7).describe())
                self.assertNotEqual(first, workload(8).describe())

    def test_one_seed_gives_one_digest(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                digests = []
                for _ in range(2):
                    instance = workload(3)
                    instance.min_cycles = 1
                    result = run.measure(instance, 0, None)
                    self.assertEqual(result["failures"], [])
                    self.assertEqual(result["cycles"], 1)
                    digests.append((result["digest"], result["work_per_cycle"]))
                self.assertEqual(digests[0], digests[1])


class TailRank(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond_in_every_allowed_run(self):
        for workload in workloads.WORKLOADS.values():
            min_ops = workload.min_cycles * len(workload(1).cycle)
            percentile = run.tail_percentile(min_ops)
            for ops in range(min_ops, 4 * min_ops):
                summary = run.latency_summary([(0, float(i)) for i in range(ops)], 1, percentile)
                self.assertGreaterEqual(summary["tail_beyond"], run.TAIL_BEYOND)


class TracerSelfTime(unittest.TestCase):
    def test_self_time_excludes_children_and_uninstall_restores(self):
        fake = types.SimpleNamespace()
        fake.inner = lambda: sum(range(20000))
        fake.outer = lambda: fake.inner() + fake.inner()
        originals = (vars(fake)["inner"], vars(fake)["outer"])
        tracer = tracing.Tracer([(fake, "inner", "inner"), (fake, "outer", "outer")])
        tracer.op_id = 0
        tracer.install()
        fake.outer()
        tracer.uninstall()
        self.assertEqual((vars(fake)["inner"], vars(fake)["outer"]), originals)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual([span[3] for span in tracer.spans], [None, 0, 0])
        totals = tracer.self_times([1.0])
        outer = tracer.durations("outer")[0]
        self.assertAlmostEqual(totals["outer"] + totals["inner"], outer, places=9)
        self.assertLess(totals["outer"], outer)


if __name__ == "__main__":
    unittest.main()
