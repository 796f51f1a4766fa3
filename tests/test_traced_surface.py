"""The benchmark's traced replay calls fano72 by name; this keeps those names alive.

``perfbench/layers.py`` replays one verify op through the library's lower
layers (``coefficient_vector``, ``pullback_system``, the suite functions and
more).  A rename or deletion of any name it calls would otherwise surface
only when the benchmark runs with tracing on.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_op_runs_the_whole_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    records = layers.traced_op(tracing.Tracer(), {"xi": None, "seed": 0})
    assert len(records) == 45
    assert {r["status"] for r in records} == {"PASS"}
