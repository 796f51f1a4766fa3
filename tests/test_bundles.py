import random
from math import comb

import pytest

from fano72 import RuledClass, SplitBundle, system_dim

CONE = SplitBundle((0, 2, 6))

# frozen from the brute-force oracle in test_sym_cube_matches_brute_force
SYM3_CONE = (0, 2, 4, 6, 6, 8, 10, 12, 14, 18)


def test_sym_cube_matches_brute_force():
    # oracle: all unordered triples drawn with repetition from {0, 2, 6}
    twists = (0, 2, 6)
    sums = []
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                sums.append(twists[i] + twists[j] + twists[k])
    assert tuple(sorted(sums)) == SYM3_CONE
    assert CONE.sym_power(3).twists == SYM3_CONE


def test_sym_power_one_is_identity():
    assert CONE.sym_power(1) == CONE


def test_sym_power_zero_is_trivial():
    assert CONE.sym_power(0) == SplitBundle((0,))


def test_twist_shifts_every_summand():
    assert CONE.twist(-6).twists == (-6, -4, 0)


def test_section_counts():
    assert SplitBundle((2, 6)).h0() == 10
    assert CONE.h0() == 11
    assert SplitBundle((-1,)).h0() == 0


def test_summand_count_matches_monomial_count():
    rng = random.Random(3)
    for _ in range(100):
        rank = rng.randint(1, 4)
        bundle = SplitBundle(tuple(rng.randint(-3, 6) for _ in range(rank)))
        m = rng.randint(0, 4)
        assert bundle.sym_power(m).rank == comb(rank + m - 1, m)


def test_scroll_embeds_in_p9():
    assert SplitBundle((2, 6)).sym_power(1).h0() - 1 == 9


def test_system_dimensions():
    assert system_dim(CONE, 3, -6) == 38
    assert system_dim(CONE, 1, 0) == 10
    assert system_dim(CONE, 0, -1) == -1


def test_system_dim_is_monotone_in_the_fibre_twist():
    rng = random.Random(4)
    for _ in range(100):
        bundle = SplitBundle(tuple(rng.randint(-2, 6) for _ in range(rng.randint(1, 3))))
        a = rng.randint(0, 3)
        b = rng.randint(-9, 5)
        assert system_dim(bundle, a, b) <= \
            system_dim(bundle, a, b + rng.randint(0, 4))


def test_bundle_system_spec_rejects_negative_tautological_multiple():
    with pytest.raises(ValueError):
        system_dim(CONE, -1, 0)


def test_hirzebruch_intersection_numbers():
    e = RuledClass(4, 1, 0)
    fibre = RuledClass(4, 0, 1)
    hyperplane = RuledClass(4, 1, 6)
    assert hyperplane.intersect(hyperplane) == 8
    assert e.intersect(hyperplane) == 2
    assert fibre.intersect(hyperplane) == 1
    assert e.intersect(e) == -4
    assert fibre.intersect(fibre) == 0


def test_intersection_is_symmetric_and_bilinear():
    rng = random.Random(9)
    for _ in range(200):
        e = rng.randint(0, 6)
        c1 = RuledClass(e, rng.randint(-5, 5), rng.randint(-5, 5))
        c2 = RuledClass(e, rng.randint(-5, 5), rng.randint(-5, 5))
        c3 = RuledClass(e, rng.randint(-5, 5), rng.randint(-5, 5))
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert c1.intersect(c2) == c2.intersect(c1)
        combined = RuledClass(e, m * c1.a + n * c2.a, m * c1.b + n * c2.b)
        assert combined.intersect(c3) == m * c1.intersect(c3) + n * c2.intersect(c3)


def test_mismatched_surfaces_cannot_intersect():
    with pytest.raises(ValueError):
        RuledClass(4, 1, 0).intersect(RuledClass(3, 1, 0))


def test_bundle_validation():
    with pytest.raises(ValueError):
        SplitBundle(())
    with pytest.raises(ValueError):
        CONE.sym_power(-1)
