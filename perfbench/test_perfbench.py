"""Tests of the benchmark itself: seeded inputs, the correctness gate and its negative control.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fano72 import PencilCubic, hilbert_count, parse_polynomial  # noqa: E402
from fano72.grading import enumerate_monomials  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def first_ops(workload: str, seed: int, count: int = 8) -> list[dict]:
    return list(itertools.islice(workloads.ops(workload, seed), count))


def recursion_loops(weights: tuple[int, ...], degree: int) -> int:
    """Loop iterations of a memoised recursion written like fano72's, counted directly."""
    memo: dict = {}
    loops = 0

    def count(ws: tuple[int, ...], d: int) -> int:
        nonlocal loops
        if not ws:
            return 1 if d == 0 else 0
        if (ws, d) not in memo:
            loops += d // ws[-1] + 1
            memo[ws, d] = sum(count(ws[:-1], d - j * ws[-1]) for j in range(d // ws[-1] + 1))
        return memo[ws, d]

    count(weights, degree)
    return loops


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(first_ops(workload, 7), first_ops(workload, 7))
            self.assertNotEqual(first_ops(workload, 7), first_ops(workload, 8))

    def test_cubic_text_is_the_product_of_the_pencil_planes(self):
        for roots in ([1, 2, 3], [-3, Fraction(1, 2), 11], [Fraction(-7, 3), Fraction(5, 9), 1]):
            roots = [Fraction(r) for r in roots]
            scale = 1
            for r in roots:
                scale *= r.denominator
            text = workloads.cubic_text(roots)
            expected = PencilCubic.from_roots(roots, scale).cubic
            self.assertEqual(parse_polynomial(text, expected.ring), expected)

    def test_sweep_pencils_are_admissible(self):
        for op in first_ops("verify-sweep", 3, 20):
            roots = [Fraction(r) for r in op["roots"]]
            self.assertEqual(len(set(roots)), 3)
            for r in roots:
                self.assertNotEqual(r, 0)
                self.assertLessEqual(max(abs(r.numerator), r.denominator), 10 ** 4)
            self.assertEqual(list(PencilCubic.from_text(op["xi"]).roots), roots)

    def test_recursion_work_counts_the_loops(self):
        for weights, degree in (((1, 1, 4, 6), 40), ((1, 2, 2, 4, 6), 57), ((1, 3, 5), 31)):
            self.assertEqual(workloads.recursion_work(weights, degree),
                             recursion_loops(weights, degree))

    def test_hilbert_queries_do_the_same_work(self):
        for query in first_ops("hilbert-cold", 5):
            work = workloads.recursion_work(tuple(query["weights"]), query["degree"])
            self.assertAlmostEqual(work / workloads.HILBERT_WORK, 1, delta=0.05)


class GateTest(unittest.TestCase):
    def records(self) -> list[dict]:
        return [{"check_id": f"c{i}", "status": "PASS"} for i in range(gate.VERIFY_RECORDS)]

    def test_verify_gate(self):
        records = self.records()
        self.assertIsNone(gate.verify_failure(records))
        self.assertIn("records", gate.verify_failure(records[1:]))
        records[3]["status"] = "FAIL"
        self.assertIn("c3", gate.verify_failure(records))

    def test_cli_gate_compares_records_without_elapsed(self):
        records = self.records()
        jsonl = "".join(json.dumps({**r, "elapsed": 0.5}) + "\n" for r in records)
        self.assertIsNone(gate.cli_verify_failure(0, jsonl, records))
        self.assertIn("exit code", gate.cli_verify_failure(1, jsonl, records))
        changed = [dict(r) for r in records]
        changed[0]["check_id"] = "other"
        self.assertIn("differ", gate.cli_verify_failure(0, jsonl, changed))

    def test_coin_change_count_matches_enumeration(self):
        for weights, degree in (((1, 1, 4, 6), 12), ((1, 1, 1, 3), 6), ((2, 3, 5), 31), ((2, 4), 7)):
            expected = len(enumerate_monomials(weights, degree))
            self.assertEqual(gate.coin_change_count(list(weights), degree), expected)
            self.assertEqual(hilbert_count(weights, degree), expected)

    def test_hilbert_cli_gate(self):
        out = "weights (1, 1, 4, 6), degree 12: 39 monomials\n"
        self.assertIsNone(gate.cli_hilbert_failure(0, out, 39))
        self.assertIn("expected", gate.cli_hilbert_failure(0, out, 40))
        self.assertIn("no count", gate.cli_hilbert_failure(0, "", 39))


class NegativeControlTest(unittest.TestCase):
    def test_wrong_expected_count_raises_fail_ratio(self):
        """An injected wrong answer in the gate's expected values is counted as failed."""
        right = gate.coin_change_count
        with mock.patch.object(workloads, "HILBERT_WORK", 1e3), \
                mock.patch.object(run, "SAMPLES", 2), \
                mock.patch.object(gate, "coin_change_count", lambda w, d: right(w, d) + 1):
            result = run.measure("hilbert-cold", seed=1, seconds=0, trace=False)
        self.assertEqual(result.report["unbounded"]["fail_ratio"], 1.0)
        self.assertEqual(result.attempted, 4)       # two queries and two CLI samples
        self.assertFalse(result.result()["correct"])


class MetricsTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric_the_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["workloads"]], list(workloads.WORKLOADS))
        traced = tracing.per_layer([], {}, [])
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(traced))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (_, unit) in traced.items()})


if __name__ == "__main__":
    unittest.main()
