"""Exact linear algebra over the rationals.

Everything here is integer/Fraction arithmetic; no floating point is used
anywhere.  One fraction-free (Bareiss) elimination over Z, `_eliminate`,
is the only elimination over Q: each row is first scaled by the lcm of its
denominators, which changes neither the row space nor the pivot columns.
Rank, the ranks of leading column blocks, reduced row echelon form,
kernel, determinant and coordinates in a row basis are all read off its
result.

`rank_exact` tries a modular elimination (numpy, single word primes)
first on large matrices.  A rank mod p is always a lower bound for the
rational rank, so that pass is trusted only when it reaches
min(rows, cols); otherwise the exact elimination decides.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd

import numpy as np

_PRIMES = (1_000_003, 999_999_937)

# matrices at least this large try the modular fast path first
_MODULAR_MIN_DIM = 24


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


def _rank_mod_p(int_rows, ncols, p):
    a = np.array([[v % p for v in row] for row in int_rows], dtype=np.int64)
    nrows = a.shape[0]
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * inv) % p
        col = a[r + 1:, c]
        nz = np.nonzero(col)[0]
        if nz.size:
            block = a[r + 1:, c:]
            block[nz] = (block[nz] - np.outer(col[nz], a[r, c:])) % p
        r += 1
        if r == nrows:
            break
    return r


def _eliminate(int_rows, ncols, reduced=False):
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Returns (echelon rows, pivot columns, det) where det is the last
    pivot, negated once per row swap; for a square invertible matrix it is
    the determinant.  Every division is exact (Bareiss 1968).  With
    `reduced`, rows above each pivot are cleared as well (fraction-free
    Gauss-Jordan), so each row divided by its pivot entry is a row of the
    reduced row echelon form.  Stops as soon as every row holds a pivot.
    """
    m = [list(row) for row in int_rows]
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
    if ncols == 0:
        return 0
    ceiling = min(len(ints), ncols)
    if ceiling >= _MODULAR_MIN_DIM:
        for p in _PRIMES:
            if _rank_mod_p(ints, ncols, p) == ceiling:
                return ceiling
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


def rref(rows, ncols):
    """Reduced row echelon form over Fraction.  Returns (rows, pivot_cols)."""
    reduced, pivots, _ = _eliminate(_as_integer_rows(rows), ncols, reduced=True)
    return [[Fraction(a, row[pc]) for a in row] for row, pc in zip(reduced, pivots)], pivots


def nullspace(rows, ncols):
    """Basis of the right kernel, one Fraction vector per free column."""
    reduced, pivots, _ = _eliminate(_as_integer_rows(rows), ncols, reduced=True)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
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
