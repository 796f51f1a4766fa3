"""In-memory spans and the per-layer metrics derived from them.

A span is [op, id, parent, name, start_ns, end_ns]; spans of one op share
the op index.  Counts are recorded per op at the same boundaries as the
spans.  Nothing is written while a run measures: the spans are returned to
the benchmark's parent process and written out once, at the end.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

SUITES = ("wps", "scroll", "system-s", "system-t", "theorem")   # as run_all runs them


class Tracer:
    """Spans as [op, id, parent, name, start_ns, end_ns] and counts per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = [self.op, span_id, self._stack[-1] if self._stack else -1, name, 0, 0]
        self.spans.append(record)
        self._stack.append(span_id)
        record[4] = perf_counter_ns()
        try:
            yield
        finally:
            record[5] = perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount


SPAN_METRICS = ("checks.wps", "checks.scroll", "checks.system-s", "checks.system-t",
                "checks.theorem", "poly.mul", "poly.substitute", "ratmap.pullback",
                "linsys.resolve", "linsys.build_sextic", "linsys.build_degree12",
                "linsys.restrict", "linalg.insert", "linalg.contains", "linalg.nullspace",
                "grading.hilbert", "grading.enumerate")
COUNT_METRICS = ("poly.mul.pairs", "poly.substitute.terms", "ratmap.pullback.terms",
                 "linalg.insert.n", "linalg.contains.n", "grading.enumerate.n")


def per_layer(spans: list[list], counts: dict[int, dict[str, int]],
              untraced_op_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over traced ops of each layer's summed spans and counts.

    A layer that did no work in the workload reads 0.
    """
    per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for op, _, _, name, start, end in spans:
        per_op[op][name] += end - start
    ops = sorted(per_op)

    def median_of(table, name: str) -> float:
        return statistics.median(table[op].get(name, 0) for op in ops) if ops else 0

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.s"] = (median_of(per_op, name) / 1e9, "s")
    suite_ns = sum(per_op[op][f"checks.{s}"] for op in ops for s in SUITES)
    recorded_ns = sum(counts.get(op, {}).get("checks.recorded_ns", 0) for op in ops)
    metrics["checks.recorded_share"] = (recorded_ns / suite_ns if suite_ns else 0, "ratio")
    for name in COUNT_METRICS:
        metrics[name] = (median_of({op: counts.get(op, {}) for op in ops}, name), "count")
    metrics["linsys.coeff_bits.max"] = (
        max((c.get("linsys.coeff_bits.max", 0) for c in counts.values()), default=0), "bits")
    inserted = sum(c.get("linalg.insert.n", 0) for c in counts.values())
    gained = sum(c.get("linalg.insert.gained", 0) for c in counts.values())
    metrics["linalg.insert.useful_ratio"] = (gained / inserted if inserted else 0, "ratio")
    traced = [per_op[op]["op"] / 1e9 for op in ops]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced_op_s)
        if traced and untraced_op_s else 0, "ratio")
    return metrics
