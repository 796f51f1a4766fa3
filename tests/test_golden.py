"""Golden reports: the ``run_all`` records, minus ``elapsed``, must not change.

Each golden file under ``tests/golden/`` holds one configuration's records as
JSON lines, rendered exactly as ``fano72 verify --json`` writes them but
without the ``elapsed`` field.  A refactor that claims "same behaviour" keeps
every file byte-identical.  To regenerate after an intended change of the
records, run ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from fano72 import (Polynomial, VerifyConfig, WeightedProjectiveSpace, build_degree12_system,
                    build_sextic_system, pullback_system, run_all, substitute_all,
                    weighted_parametrization)
from fano72.ratmap import TARGET_VARS

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOTS_157 = "x2^3 - 13*x1*x2^2 + 47*x1^2*x2 - 35*x1^3"
# The pencil with roots (-9973/7, 13/9999, 5000/3), written as the benchmark's
# perfbench/workloads.cubic_text renders it: tall coefficients in every system.
ROOTS_TALL = "209979*x2^3 - 50805192*x1*x2^2 - 498600068947*x1^2*x2 + 648245000*x1^3"
# The pencil with roots (1, 2, 3) and scale 1/6: non-integer coefficients, so
# the systems mix integral and fractional coefficients.
ROOTS_FRACTIONAL = "1/6*x2^3 - x1*x2^2 + 11/6*x1^2*x2 - x1^3"

GOLDEN_CONFIGS = {
    "all-default-seed0": VerifyConfig(suite="all", seed=0),
    "all-default-seed3": VerifyConfig(suite="all", seed=3),
    "all-roots157-seed0": VerifyConfig(xi_text=ROOTS_157, suite="all", seed=0),
    "all-roots157-seed3": VerifyConfig(xi_text=ROOTS_157, suite="all", seed=3),
    "sprime-default-seed0": VerifyConfig(suite="sprime", seed=0),
    "all-tall-seed0": VerifyConfig(xi_text=ROOTS_TALL, suite="all", seed=0),
    "all-fractional-seed0": VerifyConfig(xi_text=ROOTS_FRACTIONAL, suite="all", seed=0),
}


def render(config: VerifyConfig) -> str:
    lines = []
    for record in run_all(config):
        row = asdict(record)
        row.pop("elapsed")
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_records_match_golden(name):
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    assert render(GOLDEN_CONFIGS[name]) == golden


@pytest.mark.parametrize("xi_text", [None, ROOTS_TALL], ids=["default", "tall"])
def test_integer_pencils_stay_on_int_coefficients(xi_text):
    # The fast path: for a pencil cubic with integer coefficients no Fraction
    # appears in the cubic, the raw pullbacks or the generators of any system.
    pencil = VerifyConfig(xi_text=xi_text).pencil
    eta = weighted_parametrization(pencil)
    basis = WeightedProjectiveSpace((1, 1, 4, 6)).anticanonical_basis()
    pulled = substitute_all([Polynomial.monomial(TARGET_VARS, e) for e in basis], eta)
    systems = (build_sextic_system(pencil), build_degree12_system(pencil),
               pullback_system(eta, basis))
    assert [len(s.generators) for s in systems] == [11, 39, 39]
    for p in (pencil.cubic, *pulled, *(g for s in systems for g in s.generators)):
        assert all(type(c) is int for _, c in p.items()), p


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, config in GOLDEN_CONFIGS.items():
        (GOLDEN_DIR / f"{name}.jsonl").write_text(render(config), encoding="utf-8")
