"""Exact linear algebra: fraction-free rank and rational nullspace.

Rows are sparse mappings {column: value}, or dense sequences whose columns
are their positions.  Columns are any mutually comparable hashable keys,
since the smallest column of a row is its pivot: integer positions, or the
exponent tuples of one ring, as ``LinearSystem`` uses them.  Incoming ``int``
or ``Fraction`` rows are scaled to primitive integer rows (denominators
cleared, content divided out, entry at the smallest column positive) with no
``Fraction`` arithmetic, and elimination uses integer cross-multiplication
only, so no rounding or pivot-size tolerance exists anywhere.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm


IntRow = dict[Hashable, int]


def _primitive(row: IntRow) -> IntRow:
    if not row:
        return row
    content = reduce(gcd, row.values())
    if row[min(row)] < 0:
        content = -content
    return {c: v // content for c, v in row.items()}


def _to_int_row(row: Mapping[Hashable, Fraction | int] | Sequence[Fraction | int]) -> IntRow:
    """The primitive integer multiple of a rational row: the one normaliser of rows."""
    if not isinstance(row, Mapping):
        row = dict(enumerate(row))
    entries = {c: v for c, v in row.items() if v}
    scale = reduce(lcm, (v.denominator for v in entries.values()), 1)
    return _primitive({c: v.numerator * (scale // v.denominator) for c, v in entries.items()})


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
        r = _to_int_row(row)
        while r:
            lead = min(r)
            pivot = self._pivots.get(lead)
            if pivot is None:
                break
            a, b = pivot[lead], r[lead]
            reduced: IntRow = {}
            for c in r.keys() | pivot.keys():
                v = a * r.get(c, 0) - b * pivot.get(c, 0)
                if v:
                    reduced[c] = v
            r = _primitive(reduced)
        return r

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def insert(self, row) -> bool:
        """Add a row to the space; False if it was already in the span."""
        residual = self.reduce(row)
        if not residual:
            return False
        self._pivots[min(residual)] = residual
        return True


def nullspace_basis(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace of a dense matrix, one vector per free column.

    The rows are eliminated into a RowSpace; each free column f yields the
    solution that is 1 at f and 0 at the other free columns, found by
    back-substitution through the echelon rows from the last pivot up.
    These are the vectors read off the reduced row echelon form.
    """
    echelon = RowSpace(rows)._pivots
    basis = []
    for f in (c for c in range(ncols) if c not in echelon):
        vector = [Fraction(0)] * ncols
        vector[f] = Fraction(1)
        for p in sorted(echelon, reverse=True):
            row = echelon[p]
            vector[p] = Fraction(-sum(v * vector[c] for c, v in row.items() if c != p), row[p])
        basis.append(tuple(vector))
    return basis
