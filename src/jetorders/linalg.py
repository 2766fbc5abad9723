"""Exact linear algebra over the rationals.

Everything here is integer/Fraction arithmetic; no floating point is used
anywhere.  One fraction-free (Bareiss) elimination over Z, `_eliminate`,
is the only elimination over Q: each row is first scaled by the lcm of its
denominators, which changes neither the row space nor the pivot columns.
Rank, the ranks of leading column blocks, kernel, determinant and
coordinates in a row basis are all read off its result.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd


def _as_integer_rows(rows):
    """Scale each row by the lcm of its denominators; returns plain ints."""
    out = []
    for row in rows:
        den = 1
        for e in row:
            if type(e) is not int:
                d = e.denominator
                den = den // gcd(den, d) * d
        out.append([int(e * den) if den != 1 else int(e) for e in row])
    return out


def _eliminate(int_rows, ncols, reduced=False):
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Returns (echelon rows, pivot columns, det) where det is the last
    pivot, negated once per row swap; for a square invertible matrix it is
    the determinant.  Every division is exact (Bareiss 1968).  With
    `reduced`, rows above each pivot are cleared as well (fraction-free
    Gauss-Jordan), so each row divided by its pivot entry is a row of the
    reduced row echelon form.  Stops as soon as every row holds a pivot.
    """
    m = [list(row) for row in int_rows if any(row)]  # zero rows hold no pivot
    nrows = len(m)
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        # rows below the pivot are zero before column c; rows above are not
        # (their own pivots and free columns change too)
        cols = range(ncols) if reduced else range(c + 1, ncols)
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                for j in cols:
                    row[j] = (row[j] * p - f * prow[j]) // prev
                row[c] = 0
            elif p != prev:
                for j in cols:
                    row[j] = row[j] * p // prev
        pivots.append(c)
        prev = p
        if len(pivots) == nrows:
            break
    return m[:len(pivots)], pivots, sign * prev


def rank_exact(rows, ncols=None):
    """Exact rank of a matrix with integer or Fraction entries."""
    ints = _as_integer_rows(rows)
    if not ints:
        return 0
    if ncols is None:
        ncols = len(ints[0])
    return len(_eliminate(ints, ncols)[1])


def prefix_ranks(rows, widths):
    """Ranks of the leading column blocks of a rational matrix, one for each
    width in the ascending list `widths`, whose last entry is the column
    count.  One elimination: the pivot columns are the columns outside the
    span of the columns before them, so the first w columns have rank equal
    to the number of pivot columns below w."""
    pivots = _eliminate(_as_integer_rows(rows), widths[-1])[1]
    return [bisect_left(pivots, w) for w in widths]


def det_exact(rows):
    """Determinant of a square integer matrix."""
    n = len(rows)
    _, pivots, det = _eliminate(rows, n)
    return det if len(pivots) == n else 0


def nullspace(rows, ncols):
    """Basis of the right kernel: the reduced row echelon basis, one vector
    per free column in column order.  Only the live columns (nonzero in some
    row) are eliminated; a zero column is free with its unit vector.  Entries
    other than the free 1 and the nonzero pivot entries are the int 0."""
    ints = _as_integer_rows(rows)
    live = [c for c, column in enumerate(zip(*ints)) if any(column)]
    local = {c: j for j, c in enumerate(live)}
    reduced, pivots, _ = _eliminate([[r[c] for c in live] for r in ints], len(live), reduced=True)
    pivot_cols = [live[p] for p in pivots]
    pivot_set = set(pivot_cols)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = Fraction(1)
        j = local.get(fc)
        if j is not None:
            for row, p, pc in zip(reduced, pivots, pivot_cols):
                if row[j]:
                    v[pc] = Fraction(-row[j], row[p])
        basis.append(v)
    return basis


class SpanChecker:
    """Membership and coordinates for the row span of a rational matrix B.

    Eliminates [B | I] in reduced form once.  Each row whose pivot lies in
    the B block is a multiple of a row of the RREF of B, and its I block
    holds the same multiple of the combination of B's rows that gives it.
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self._nrows = n = len(rows)
        augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        reduced, pivots, _ = _eliminate(_as_integer_rows(augmented), ncols + n, reduced=True)
        self._pivots = [pc for pc in pivots if pc < ncols]
        self._rows = reduced[:len(self._pivots)]

    @property
    def rank(self):
        return len(self._pivots)

    def residual(self, vector):
        """`vector` minus its projection along the RREF rows; zero iff it is
        in the span."""
        v = [Fraction(e) for e in vector]
        for row, pc in zip(self._rows, self._pivots):
            f = v[pc]
            if f:
                f /= row[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vector):
        return not any(self.residual(vector))

    def coordinates(self, vector):
        """Coefficients c with sum_i c_i B_i == vector, for a member vector.

        A member of the span is the sum of the RREF rows weighted by its own
        entries at the pivot columns; the I block turns that sum into
        coefficients on the rows of B."""
        out = [Fraction(0)] * self._nrows
        for row, pc in zip(self._rows, self._pivots):
            f = Fraction(vector[pc], row[pc])
            if f:
                out = [a + f * b for a, b in zip(out, row[self.ncols:])]
        return out
