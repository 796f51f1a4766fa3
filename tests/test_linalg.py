import random
from fractions import Fraction
from math import gcd

from fano72 import PencilCubic, RowSpace, enumerate_monomials, nullspace_basis
from fano72.linalg import echelon_pivots
from fano72.linsys import sextic_constraint_rows

from oracles import _rref, rref_nullspace, rref_rank


def test_rank_of_identity_like_rows():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert RowSpace(rows).rank == 3


def test_dependent_rows_collapse():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert RowSpace(rows).rank == 2


def test_contains_detects_membership():
    space = RowSpace([[1, 0, 1], [0, 1, 1]])
    assert space.contains([2, 3, 5])
    assert not space.contains([0, 0, 1])
    assert space.contains([0, 0, 0])


def test_fractional_rows_are_cleared_exactly():
    space = RowSpace([[Fraction(1, 3), Fraction(1, 6)]])
    assert space.contains([2, 1])
    assert space.rank == 1


def test_insert_reports_dependence():
    space = RowSpace()
    assert space.insert([1, 1, 0])
    assert not space.insert([2, 2, 0])
    assert space.insert([0, 1, 1])
    assert space.rank == 2


def test_rank_matches_dense_elimination_oracle():
    rng = random.Random(17)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        assert RowSpace(rows).rank == rref_rank(rows)


def test_pivots_inside_a_prefix_count_the_rank_there():
    # The incidence certificate's prefix argument, on its dense echelon: the
    # pivots are the oracle's pivot columns, and the rank of the rows cut to
    # their first k columns is the number of pivots among those k.  Zero rows,
    # repeated rows and combinations of rows, zero columns and entries up to
    # about 2^200 reach the kernel's row swaps and column skips, and its exact
    # division on tall ints, which a dependent row must survive as zeros.
    rng = random.Random(29)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        height = 2 ** rng.choice((2, 20, 200))
        zero_columns = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
        rows = [[0 if c in zero_columns else rng.choice((0, 0, rng.randint(-height, height)))
                 for c in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(0, 3)):
            u, w = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            extra = rng.choice((u, [0] * ncols, [x * a + y * b for a, b in zip(u, w)]))
            rows.insert(rng.randint(0, len(rows)), extra)
        copies = [list(row) for row in rows]
        pivots = echelon_pivots(rows)
        assert rows == copies
        assert pivots == _rref(rows)[1]
        for k in range(ncols + 1):
            assert sum(1 for p in pivots if p < k) == rref_rank([row[:k] for row in rows])


def test_int_fraction_and_non_primitive_rows_match_the_dense_oracle():
    # Each row is one of: primitive int, int with content > 1 or a negative
    # lead, or Fraction; as a list or as a mapping.  The normaliser must give
    # the oracle's rank and never hand back or change the caller's own row.
    rng = random.Random(43)
    for _ in range(150):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(3)
            ints = [rng.randint(-4, 4) for _ in range(ncols)]
            if kind == 1:
                ints = [rng.choice((-6, -2, 3)) * v for v in ints]
            row = ints if kind < 2 else [Fraction(v, rng.randint(1, 3)) for v in ints]
            rows.append(dict(enumerate(row)) if rng.random() < 0.5 else row)
        copies = [dict(r) if isinstance(r, dict) else list(r) for r in rows]
        space = RowSpace()
        for row in rows:
            residual = space.reduce(row)
            assert residual is not row
            space.insert(row)
        assert rows == copies
        dense = [[r.get(c, 0) for c in range(ncols)] if isinstance(r, dict) else r for r in rows]
        assert space.rank == rref_rank(dense)
        for row in rows:
            if isinstance(row, dict):
                row.clear()
        assert all(space.contains(r) for r in copies)
        assert space.rank == rref_rank(dense)


def test_exponent_tuple_columns_match_the_dense_oracle():
    # Rows keyed by the exponent tuples of one graded piece, as LinearSystem
    # builds them, against rref_rank over the same rows laid out densely.
    columns = enumerate_monomials((1, 1, 1), 3)
    rng = random.Random(31)
    for _ in range(100):
        support = rng.sample(columns, rng.randint(1, 4))
        rows = [{e: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for e in support}
                for _ in range(rng.randint(1, 5))]
        dense = [[row.get(e, 0) for e in columns] for row in rows]
        space = RowSpace(rows)
        assert space.rank == rref_rank(dense)
        combination = {e: sum(rng.randint(-2, 2) * row.get(e, 0) for row in rows)
                       for e in support}
        stray = {e: Fraction(rng.randint(-2, 2)) for e in rng.sample(columns, 2)}
        for probe in (combination, stray):
            expected = rref_rank(dense + [[probe.get(e, 0) for e in columns]]) == rref_rank(dense)
            assert space.contains(probe) == expected


def test_nullspace_of_a_known_matrix():
    # x + y + z = 0, y - z = 0  ->  one free column, solution (-2, 1, 1)
    rows = [[1, 1, 1], [0, 1, -1]]
    basis = nullspace_basis(rows, 3)
    assert len(basis) == 1
    assert basis[0] == (Fraction(-2), Fraction(1), Fraction(1))


def test_nullspace_vectors_solve_the_system():
    rng = random.Random(23)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace_basis(rows, ncols)
        assert len(basis) == ncols - rref_rank(rows)
        for vector in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vector)) == 0
        # basis vectors are independent
        assert RowSpace(basis).rank == len(basis)


def _assert_integer_echelon_solutions(rows, ncols, free):
    """Each vector: primitive ints, positive at its free column f and zero at the
    others, and over its entry at f the dense oracle's unique solution."""
    basis = nullspace_basis(rows, ncols)
    solutions = rref_nullspace(rows, ncols)
    assert len(basis) == len(free) == len(solutions)
    for f, vector in zip(free, basis):
        assert all(type(v) is int for v in vector)
        assert gcd(*vector) == 1 and vector[f] > 0
        assert [vector[c] for c in free if c != f] == [0] * (len(free) - 1)
        assert [Fraction(v, vector[f]) for v in vector] == solutions[f]
        for row in rows:
            assert sum(r * v for r, v in zip(row, vector)) == 0


def test_nullspace_vectors_are_the_reduced_echelon_solutions():
    # A column is free iff it does not raise the rank of the columns before it;
    # the solution with 1 at one free column and 0 at the others is unique.
    rng = random.Random(29)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
                for _ in range(nrows)]
        free = [c for c in range(ncols)
                if rref_rank([row[:c + 1] for row in rows]) == rref_rank([row[:c] for row in rows])]
        _assert_integer_echelon_solutions(rows, ncols, free)


def test_nullspace_of_the_tall_pencil_constraints_is_the_echelon_solution():
    pencil = PencilCubic.from_roots((Fraction(-9973, 7), Fraction(13, 9999), Fraction(5000, 3)))
    monomials, rows = sextic_constraint_rows(pencil)
    free = [c for c in range(len(monomials))
            if rref_rank([row[:c + 1] for row in rows]) == rref_rank([row[:c] for row in rows])]
    assert len(free) == 11
    _assert_integer_echelon_solutions(rows, len(monomials), free)
