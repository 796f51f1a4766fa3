import time
from fractions import Fraction
from math import comb, lcm

import pytest

from fano72 import (Polynomial, check_weights, enumerate_monomials,
                    generators, hilbert_count, is_homogeneous)
from fano72.grading import MAX_DEGREE, clip

from oracles import (brute_force_monomials, closed_sum_count, coin_change_count,
                     hilbert_consistency_failures)

W1146 = (1, 1, 4, 6)


def test_weight_system_validation():
    assert check_weights((1, 1, 4, 6)) == (1, 1, 4, 6)
    with pytest.raises(ValueError):
        check_weights(())
    with pytest.raises(ValueError):
        check_weights((1, 0, 2))


def test_sextic_member_is_homogeneous_of_degree_six():
    # all parameters set to 1 under unit weights
    x1, x2, x3, x4 = generators(("x1", "x2", "x3", "x4"))
    xi = (x2 - x1) * (x2 - 2 * x1) * (x2 - 3 * x1)
    phi2 = x1 ** 2 + x1 * x2 + x2 ** 2
    phi6 = sum((x1 ** i * x2 ** (6 - i) for i in range(7)), Polynomial.zero(x1.ring))
    member = x1 * x2 * x4 * xi + x3 * xi * phi2 + phi6
    assert is_homogeneous(member, (1, 1, 1, 1)) == 6


def test_mixed_degrees_are_not_homogeneous():
    x1, _, x3, _ = generators(("x1", "x2", "x3", "x4"))
    assert is_homogeneous(x1 + x3, W1146) is None


def test_zero_has_no_weighted_degree():
    zero = Polynomial.zero(("x1", "x2", "x3", "x4"))
    assert is_homogeneous(zero, W1146) is None


def test_enumeration_sizes_for_the_two_extremal_spaces():
    assert len(enumerate_monomials(W1146, 12)) == 39
    assert len(enumerate_monomials((1, 1, 1, 3), 6)) == 39
    assert enumerate_monomials(W1146, 0) == [(0, 0, 0, 0)]
    assert len(enumerate_monomials((1, 1), 6)) == 7


def test_enumeration_matches_brute_force_products():
    for weights, degree in (((1, 1, 4, 6), 12), ((1, 1, 1, 3), 6), ((2, 3), 12), ((1, 2, 5), 11),
                            ((6, 10, 15), 60), ((4, 6, 3), 19), ((2, 4, 6), 13), ((5,), 10)):
        listed = enumerate_monomials(weights, degree)
        assert set(listed) == brute_force_monomials(weights, degree)
        assert len(set(listed)) == len(listed)


def test_enumeration_skips_prefixes_with_no_completion():
    # even weights at an odd degree: walking every prefix would visit C(203, 4) of them
    started = time.perf_counter()
    assert enumerate_monomials((2,) * 200, 9) == []
    assert enumerate_monomials((2,) * 200 + (1,), 1) == [(0,) * 200 + (1,)]
    assert time.perf_counter() - started < 1


def test_enumeration_is_in_canonical_order():
    # Two C sorts (lex descending, then a stable pass by degree) stand in
    # for one grlex key per monomial; every piece must come out as the key
    # would order it, the empty pieces and degree 0 too.
    grlex = lambda e: (sum(e), e)
    for weights in (W1146, (1, 1, 1, 3), (2, 3, 5), (1, 2, 3, 4, 5)):
        for degree in range(41):
            listed = enumerate_monomials(weights, degree)
            assert listed == sorted(listed, key=grlex, reverse=True), (weights, degree)


def test_hilbert_count_examples():
    assert hilbert_count(W1146, 12) == 39
    assert hilbert_count((1, 1), 6) == 7
    # oracle: weighted degree 3 forces x3, x4 exponents to 0, leaving a + b = 3
    assert len(brute_force_monomials(W1146, 3)) == 4
    assert hilbert_count(W1146, 3) == 4


def test_hilbert_count_against_enumeration_and_series():
    assert hilbert_consistency_failures(seed=33, cases=200) == []


def test_hilbert_count_at_large_degree_against_closed_sum():
    for degree in (2999, 3000):
        assert hilbert_count(W1146, degree) == closed_sum_count(4, 6, degree)
        assert hilbert_count((1, 1, 1, 3), degree) == closed_sum_count(1, 3, degree)


def test_hilbert_count_matches_the_coin_change_table_across_the_period_boundary():
    # Past r + (k-1)*L the count is interpolated, L the lcm and r = d mod L;
    # the boundary degrees and the first interpolated one in r's class are
    # checked whenever the full table stays small.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.one_of(st.lists(st.integers(1, 12), min_size=1, max_size=6),
                        st.lists(st.integers(1, 500), min_size=1, max_size=6))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(weights, st.integers(0, 3000), st.integers(0, 10 ** 6))
    def check(weights, degree, residue):
        period = lcm(*weights)
        boundary = residue % period + (len(weights) - 1) * period
        for d in (degree, boundary - 1, boundary, boundary + 1, boundary + period):
            if 0 <= d <= 40000:
                assert hilbert_count(weights, d) == coin_change_count(weights, d), (weights, d)

    check()


def test_hilbert_count_of_huge_weights_stops_the_period_at_the_degree():
    # lcm of all the weights has about a million digits; the first one already passes d
    weights = tuple(10 ** 1000 + i for i in range(1000))
    started = time.perf_counter()
    assert hilbert_count(weights, 1000) == 0
    assert time.perf_counter() - started < 2
    assert hilbert_count((10 ** 1000, 1), 1000) == 1


def test_degree_cap():
    assert hilbert_count((1,), MAX_DEGREE) == 1
    for count in (hilbert_count, enumerate_monomials):
        with pytest.raises(ValueError, match="exceeds the cap"):
            count((1,), MAX_DEGREE + 1)
        with pytest.raises(ValueError, match="natural number"):
            count((1,), -1)


def test_clip_cuts_the_text_past_its_limit():
    assert clip("a" * 20) == "a" * 20
    assert clip("a" * 21) == "a" * 20 + "..."
    assert clip(10 ** 60, 60) == str(10 ** 60)[:60] + "..."
    assert clip(-7) == "-7"


def test_clip_quotes_a_value_str_refuses_by_a_fixed_text():
    huge = 10 ** 5000
    x = Polynomial.variable(("x",), "x")
    for value in (huge, Fraction(1, huge), huge * x):
        assert clip(value, 60) == "<int too long to print>"


def test_table_work_cap():
    # four weights at the degree cap is the largest table allowed
    assert hilbert_count(W1146, MAX_DEGREE) == closed_sum_count(4, 6, MAX_DEGREE)
    assert hilbert_count((1, 1, 1, 3), MAX_DEGREE) == closed_sum_count(1, 3, MAX_DEGREE)
    assert hilbert_count((1,) * 5, 4 * MAX_DEGREE // 5) == comb(4 * MAX_DEGREE // 5 + 4, 4)
    with pytest.raises(ValueError, match="table-work cap"):
        hilbert_count((1,) * 5, 4 * MAX_DEGREE // 5 + 1)
