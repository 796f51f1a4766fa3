"""Exact linear algebra: incremental sparse spans and a dense integer echelon.

The module has two jobs.  ``RowSpace`` holds a span of sparse rows, built
incrementally and queried row by row: the spans of ``LinearSystem``, its
membership test and the integer nullspace.  ``echelon_pivots`` reads the
pivot columns off the row echelon form of one dense integer matrix: the
incidence certificate's contact rows, one matrix per contact order.

``RowSpace`` rows are sparse mappings {column: value}, or dense sequences
whose columns are their positions.  Columns are any mutually comparable
hashable keys, since the smallest column of a row is its pivot: integer
positions, or the exponent tuples of one ring in the term dicts of a
``LinearSystem``, a span of polynomials.  Incoming ``int`` or ``Fraction``
rows are scaled to primitive integer rows (denominators cleared, content
divided out, entry at the smallest column positive) with no ``Fraction``
arithmetic, once, at the boundary: a ``LinearSystem`` normalises each
generator once and builds its private span with it, inserting those rows
through ``RowSpace._insert`` as they are.  Elimination uses integer
cross-multiplication only, so no rounding or pivot-size tolerance exists
anywhere.  The nullspace is read off the integer reduced row echelon form
that the same cross-multiplication reaches by back elimination, so its
basis vectors are primitive ``int`` tuples.  ``echelon_pivots`` is Bareiss's
fraction-free elimination (1968): each step divides exactly by the previous
pivot, so it needs no gcd.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .grading import FrozenValue, clip
from .poly import ArityError, Coefficient, Exponents, Polynomial

IntRow = dict[Hashable, int]


def _primitive(row: IntRow) -> IntRow:
    """The row divided by its content, signed so the entry at the smallest column
    is positive; the row itself when it is primitive already."""
    if not row:
        return row
    content = reduce(gcd, row.values())     # a one-entry row's content is that entry
    if row[min(row)] < 0 < content:
        content = -content
    return row if content == 1 else {c: v // content for c, v in row.items()}


def _eliminate(row: IntRow, pivot: IntRow, column: Hashable) -> IntRow:
    """The primitive multiple of pivot[column]*row - row[column]*pivot, zero at column."""
    a, b = pivot[column], row[column]
    reduced: IntRow = {}
    for c in row.keys() | pivot.keys():
        v = a * row.get(c, 0) - b * pivot.get(c, 0)
        if v:
            reduced[c] = v
    return _primitive(reduced)


def _to_int_row(row: Mapping[Hashable, Fraction | int] | Sequence[Fraction | int]) -> IntRow:
    """The primitive integer multiple of a rational row: the one normaliser of rows."""
    if not isinstance(row, Mapping):
        row = dict(enumerate(row))
    entries = {c: v for c, v in row.items() if v}     # a new dict: the caller's row stays as it is
    if any(type(v) is not int for v in entries.values()):
        scale = reduce(lcm, (v.denominator for v in entries.values()), 1)
        entries = {c: v.numerator * (scale // v.denominator) for c, v in entries.items()}
    return _primitive(entries)


class RowSpace:
    """An echelon basis of a rational row space, built incrementally."""

    def __init__(self, rows: Iterable[Mapping[Hashable, Fraction | int] | Sequence] = ()):
        self._pivots: dict[Hashable, IntRow] = {}
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, row) -> IntRow:
        """Residual of a row after elimination against the basis (empty iff member)."""
        return self._reduce(_to_int_row(row))

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def insert(self, row) -> bool:
        """Add a row to the space; False if it was already in the span."""
        return self._insert(_to_int_row(row))

    def _reduce(self, r: IntRow) -> IntRow:
        """``reduce`` of a primitive integer row, trusted as such and left unchanged."""
        while r:
            lead = min(r)
            pivot = self._pivots.get(lead)
            if pivot is None:
                break
            r = _eliminate(r, pivot, lead)
        return r

    def _insert(self, r: IntRow) -> bool:
        """``insert`` of a primitive integer row, which the space may keep as it is."""
        residual = self._reduce(r)
        if not residual:
            return False
        self._pivots[min(residual)] = residual
        return True


def echelon_pivots(rows: Sequence[Sequence[int]]) -> list[int]:
    """The pivot columns, ascending, of the row echelon form of a dense integer matrix.

    Bareiss's fraction-free elimination: after the pivots p_1..p_k, each
    remaining entry is a (k+1)-minor of the input, so the next step's cross
    product divides exactly by p_k and no gcd or ``Fraction`` is taken.  A
    zero at the pivot position swaps in a lower row; a column with no
    nonzero entry left is skipped, so rank-deficient matrices work.  Rows
    keep only the columns not yet passed.
    """
    matrix = [list(row) for row in rows]
    pivots: list[int] = []
    previous = 1
    for c in range(len(matrix[0]) if matrix else 0):
        i = next((i for i, row in enumerate(matrix) if row[0]), None)
        if i is None:
            matrix = [row[1:] for row in matrix]
            continue
        top = matrix.pop(i)
        lead, tail = top[0], top[1:]
        matrix = [[(lead * v - row[0] * t) // previous for v, t in zip(row[1:], tail)]
                  for row in matrix]
        previous = lead
        pivots.append(c)
        if not matrix:
            break
    return pivots


def nullspace_basis(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace of a dense matrix, one vector per free column.

    The rows are eliminated into a RowSpace, whose pivot rows are then
    back-reduced, last pivot first, to integer reduced row echelon form: each
    row is zero at every pivot column but its own, where it is positive.  A
    free column f meets the rows with a nonzero entry there; with L the lcm
    of their pivot entries, the vector is L at f, -row[f] * (L / row[p]) at
    the pivot p of each such row and 0 elsewhere, divided by its content.
    So each vector is primitive, positive at f and zero at the other free
    columns: the reduced-row-echelon solution scaled to integers.
    """
    echelon = RowSpace(rows)._pivots
    for p in sorted(echelon, reverse=True):
        for q, row in echelon.items():
            if q < p and p in row:
                echelon[q] = _eliminate(row, echelon[p], p)
    basis = []
    for f in (c for c in range(ncols) if c not in echelon):
        meeting = [(p, row[p], row[f]) for p, row in echelon.items() if f in row]
        scale = lcm(*(lead for _, lead, _ in meeting))
        vector = [0] * ncols
        vector[f] = scale
        for p, lead, entry in meeting:
            vector[p] = -entry * (scale // lead)
        content = gcd(*vector)
        basis.append(tuple(v // content for v in vector))
    return basis


class LinearSystem(FrozenValue):
    """A span of homogeneous degree-d forms in a fixed ring, built whole.

    Generators are rescaled to primitive integer form (content 1, last term
    positive), deduplicated, and zero inputs dropped; the span is unchanged
    by any of this.  Each generator is normalised once, here: an integral
    row goes straight to ``_primitive``, which returns a primitive row as it
    is, and only a row with a ``Fraction`` goes through the row normaliser
    ``_to_int_row`` (every row through it: verify runs +3.3% / +2.7%, priced
    as in ``poly``).  A generator whose row comes back as it is, primitive
    already, is kept as the same object (a new one for each: +1.6% / +1.0%).
    Each generator's term dict, keyed by exponent tuple, is then its
    primitive integer row, so the private span inserts it through the
    trusted ``RowSpace._insert`` (normalised again by ``insert``: +5.0% /
    +3.6%), and ``rank`` is its rank.  No slot changes after construction.

    As a ``FrozenValue``, two systems are equal, and hash alike, when their
    rings, degrees and normalised generator tuples are equal: one span from
    generators in another order, or with one more redundant generator, is
    a different value.  A copy or an unpickled system is rebuilt through
    the constructor from those three fields, its span and rank anew.
    """

    __slots__ = ("ring", "degree", "generators", "rank", "_span")
    _fields = ("ring", "degree", "generators")

    def __init__(self, ring: Sequence[str], degree: int, gens: Iterable[Polynomial]):
        ring = tuple(ring)
        primitive: list[Polynomial] = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise ArityError("linear system generators must be Polynomials")
            if g.ring != ring:
                raise ArityError(f"generator ring {clip(g.ring, 60)} does not match "
                                 f"system ring {clip(ring, 60)}")
            if not g:
                continue
            terms = g._terms
            if any(sum(e) != degree for e in terms):        # unit weights: the exponent sums
                raise ValueError(f"generator {clip(g, 60)} is not homogeneous "
                                 f"of degree {clip(degree)}")
            row = (_primitive(terms) if all(type(k) is int for k in terms.values())
                   else _to_int_row(terms))
            primitive.append(g if row is terms else Polynomial._canonical(ring, row))
        generators = tuple(dict.fromkeys(primitive))
        span = RowSpace()
        for g in generators:                # each term dict is a primitive integer row
            span._insert(g._terms)
        super().__init__(ring, degree, generators, rank=span.rank, _span=span)

    def __repr__(self) -> str:
        return (f"LinearSystem(degree={self.degree}, "
                f"generators={len(self.generators)}, ring={self.ring})")

    def coefficient_vector(self, f: Polynomial) -> dict[Exponents, Coefficient]:
        return dict(f.items())

    def projective_dim(self) -> int:
        """Rank of the generator matrix minus one; -1 for the empty system."""
        return self.rank - 1

    def member(self, f: Polynomial) -> bool:
        """Exact test for membership of f in the rational span of the generators.

        A term of any other degree meets no pivot column, so a polynomial that
        is not homogeneous of the system's degree is never a member; zero is.
        """
        if f.ring != self.ring:
            raise ArityError(f"ring mismatch: {clip(f.ring, 60)} vs {clip(self.ring, 60)}")
        return self._span.contains(f._terms)
