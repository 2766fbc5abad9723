"""Taylor/jet matrices of a polynomial subspace and the orders they define.

The jet matrix of order n at a point has one row per basis element and one
column per exponent alpha with |alpha| <= n (ordered by total degree, then
lexicographically); the entry is d^alpha(p)/alpha!.  Rank-deficiency of rows
gives the injectivity order at the point, rank-deficiency of columns the
jet (surjectivity) order.  At the generic point, ranks are taken over the
rational function field.

Because the columns are ordered by degree, the order-n jet matrix is the
first C(n + nvars, nvars) columns of every higher-order one, so the whole
rank profile r_0 <= r_1 <= ... is read off the pivot columns of one
elimination of the top-order matrix (`linalg.prefix_ranks`).  A monomial
subspace builds no jet matrix at all: on the torus orbit with zero
coordinates Z (Z is empty at the generic point) its jet matrix is
D_r C_Z D_c with D_r, D_c invertible and diagonal, so the exact profile
comes from the integer matrix C_Z of `binomial_rows`
(`monomial_prefix_ranks`).

A dense subspace with integer coefficient matrix C over its support has
the jet matrix J(a) = C T(a) at a point a, where T(a)[m, alpha] =
C(m, alpha) a^(m - alpha) (`SubspaceV.taylor_terms`).  At a rational point
one elimination of J(a) gives the exact profile.  At the generic point the
profile is certified by evaluation (`_certified_ranks`): the prefix ranks
of J(a) at a fixed first integer point are lower bounds; the prefix ranks
of the columns' coefficient vectors over Q are upper bounds; where the two
still differ, a grid S_1 x ... x S_k with |S_i| > d_i, d_i bounding
deg_{x_i} of the minors of the next size, finds a point where such a minor
does not vanish or proves that all of them vanish (Alon, Combinatorial
Nullstellensatz, 1999; Schwartz 1980).  Past `GRID_POINT_BUDGET` grid
points the best lower bounds are reported with certified = False.

The generic profile is one value per subspace (`SubspaceV.generic_report`),
computed once and only up to order dim - 1: at the generic point the rank
rises at every order until it reaches dim, so it reaches dim by that order.
Every point report measures its Weierstrass order against it.  No function
here takes a seed.

The Weierstrass minors (`weierstrass_minors`) are the maximal minors of
the symbolic jet matrix at the generic injectivity order, computed without
it: a monomial minor is an integer determinant times a monomial, and a
dense minor is expanded over Z[x] from `SubspaceV.taylor_terms`
(`_dense_minors`).  No function here calls `jet_matrix`; it stays public,
and the tests use it as an oracle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from .algebra import (
    Polynomial,
    as_exact,
    binomial_product,
    exponents_upto,
    multi_factorial,
)
from .linalg import SpanChecker, _as_integer_rows, det_exact, prefix_ranks, rank_exact

#: grid points one generic rank may evaluate after its first point; past
#: it the best lower bounds are reported uncertified
GRID_POINT_BUDGET = 1000


class _Generic:
    """Tag for `the generic point` (rank over the rational function field)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "GENERIC"


GENERIC = _Generic()


class InternalConsistencyError(RuntimeError):
    """A rank search failed to terminate where the theory says it must."""


class DependentBasisError(ValueError):
    """The proposed basis of a subspace is linearly dependent."""


class SubspaceV:
    """A finite-dimensional subspace of Q[x_1..x_n] given by an ordered basis.

    When every basis element is a single monomial x^m the exponent set is
    recorded in `monomial_points`, which unlocks the lattice-point methods.
    """

    def __init__(self, nvars, basis):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        for p in basis:
            if p.nvars != nvars:
                raise ValueError("basis element in wrong polynomial ring")
            if p.is_zero:
                raise DependentBasisError("zero polynomial in basis")
        self.nvars = int(nvars)
        self.basis = basis

        detected = tuple(p.monomial_exponent for p in basis)
        self.monomial_points = detected if None not in detected else None
        if self.is_monomial:
            if len(set(detected)) != len(detected):
                raise DependentBasisError("duplicate monomial in basis")
        elif self.span.rank != len(basis):
            raise DependentBasisError("basis is linearly dependent over Q")

        self.max_degree = max(int(p.degree) for p in basis)

    @classmethod
    def from_monomials(cls, nvars, exponents):
        exponents = [tuple(e) for e in exponents]
        basis = [Polynomial.monomial(e, 1, nvars) for e in exponents]
        return cls(nvars, basis)

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def support_index(self):
        """Column of each exponent of the support of the basis, in sorted order."""
        support = sorted({e for p in self.basis for e in p.support()})
        return {e: i for i, e in enumerate(support)}

    @cached_property
    def span(self):
        """The coefficient matrix of the basis over `support_index`, as a
        SpanChecker: membership in V and coordinates in the basis.  A dense
        basis builds it at construction, a monomial one on first use."""
        return SpanChecker([self.coefficient_vector(p) for p in self.basis],
                           len(self.support_index))

    def coefficient_vector(self, poly):
        """Coefficients of `poly` over `support_index`, or None when `poly`
        has a term outside the support of the basis."""
        vec = [0] * len(self.support_index)
        for e, c in poly.items():
            i = self.support_index.get(e)
            if i is None:
                return None
            vec[i] = c
        return vec

    @property
    def is_monomial(self):
        return self.monomial_points is not None

    def __repr__(self):
        return f"SubspaceV(nvars={self.nvars}, dim={self.dim})"

    @cached_property
    def taylor_terms(self):
        """The order-max_degree Taylor expansion of the basis, each basis
        element scaled to integer coefficients: one (row, column, e, c) per
        term c x^e of d^alpha(p_row)/alpha!, where `column` indexes alpha
        among the jet columns.  The term c_m x^m of a basis element gives
        c_m C(m, alpha) x^(m - alpha) for every alpha <= m."""
        columns = {a: j for j, a in enumerate(exponents_upto(self.nvars, self.max_degree))}
        support = list(self.support_index)
        terms = []
        for i, row in enumerate(_as_integer_rows(self.coefficient_vector(p) for p in self.basis)):
            for m, c in zip(support, row):
                if c:
                    for alpha in itertools.product(*(range(k + 1) for k in m)):
                        terms.append((i, columns[alpha], tuple(a - b for a, b in zip(m, alpha)),
                                      c * binomial_product(m, alpha)))
        return terms

    @cached_property
    def generic_report(self):
        """The OrderReport of V at the generic point, computed once."""
        ranks, method, certified = _profile(self, GENERIC)
        return _order_report(self, GENERIC, ranks, method, certified, len(ranks) - 1)


@dataclass(frozen=True)
class JetMatrix:
    """Matrix of the order-n Taylor map, exact or symbolic."""

    order: int
    point: object  # tuple of Fractions, or GENERIC
    columns: tuple  # exponent tuples, (degree, lex) order
    entries: tuple  # tuple of row tuples; Fraction (at a point) or Polynomial

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.columns)


def jet_matrix(V, n, at=GENERIC):
    """Jet matrix of V at order n, at a rational point or the generic point.

    Entry (i, alpha) is d^alpha(p_i)/alpha!; for monomial basis rows this is
    C(m, alpha) x^(m - alpha).
    """
    if n < 0:
        raise ValueError("jet order must be >= 0")
    cols = exponents_upto(V.nvars, n)
    symbolic = at is GENERIC
    if not symbolic:
        at = _exact_point(V, at)
    rows = []
    for p in V.basis:
        m = p.monomial_exponent
        if m is not None:
            row = []
            for alpha in cols:
                c = binomial_product(m, alpha)
                if not c:
                    row.append(Polynomial.zero(V.nvars) if symbolic else Fraction(0))
                    continue
                exp = tuple(a - b for a, b in zip(m, alpha))
                if symbolic:
                    row.append(Polynomial.monomial(exp, c, V.nvars))
                else:
                    value = Fraction(c)
                    for base, e in zip(at, exp):
                        if e:
                            value *= base ** e
                    row.append(value)
        else:
            row = []
            for alpha in cols:
                d = p.derivative(alpha)
                entry = d * Fraction(1, multi_factorial(alpha))
                row.append(entry if symbolic else entry(at))
        rows.append(tuple(row))
    return JetMatrix(n, GENERIC if symbolic else at, tuple(cols), tuple(rows))


def _exact_point(V, at):
    point = tuple(as_exact(c) for c in at)
    if len(point) != V.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {V.nvars}")
    return point


def binomial_rows(points, n, zeros=()):
    """The integer matrix C_Z of the monomial space on `points` at order n.

    Entry (m, alpha) is C(m, alpha) when alpha <= m and m_i = alpha_i for
    every i in `zeros`, and 0 otherwise; the columns are those of the
    order-n jet matrix.  At a point a with zero coordinates Z the jet matrix
    is D_r C_Z D_c with D_r = diag(prod_{i not in Z} a_i^m_i) and
    D_c = diag(prod_{i not in Z} a_i^-alpha_i): the entry C(m, alpha)
    a^(m - alpha) vanishes exactly when some coordinate in Z carries a
    positive exponent.  The same holds over the function field of the
    orbit {x_i = 0 for i in Z}, and with Z empty at the generic point.

    Only the nonzero entries of a row m are written: alpha_i = m_i on Z,
    alpha_i <= m_i elsewhere and |alpha| <= n, each found through a column
    index and valued by per-coordinate binomials.
    """
    cols = exponents_upto(len(points[0]), n)
    index = {a: j for j, a in enumerate(cols)}
    rows = []
    for m in points:
        # (alpha so far, product of binomials so far, degree left)
        partial = [((), 1, n)]
        for i, mi in enumerate(m):
            if i in zeros:
                partial = [(a + (mi,), c, left - mi) for a, c, left in partial
                           if 0 <= mi <= left]
            else:
                binoms = [comb(mi, k) for k in range(min(mi, n) + 1)]
                partial = [(a + (k,), c * binoms[k], left - k) for a, c, left in partial
                           for k in range(min(mi, left) + 1)]
        row = [0] * len(cols)
        for a, c, _ in partial:
            row[index[a]] = c
        rows.append(row)
    return rows


def monomial_prefix_ranks(points, top, zeros=()):
    """Ranks of the order-n blocks of C_Z (`binomial_rows`) for n = 0..top,
    from one elimination: the jet-rank profile of the monomial space on
    `points` at the orbit with zero coordinates Z."""
    nvars = len(points[0])
    widths = [comb(n + nvars, nvars) for n in range(top + 1)]
    return prefix_ranks(binomial_rows(points, top, zeros), widths)


def _dense_jet_rows(V, point, ncols):
    """An integer matrix with the column prefix ranks of the first `ncols`
    columns of V's jet matrix at the rational point a = (p_1/q_1, ...).

    J(a) = C T(a) is summed from `V.taylor_terms`; every entry is scaled by
    the constant prod_i q_i^max_degree, so a^e becomes
    prod_i p_i^e_i q_i^(max_degree - e_i) and no `Fraction` arises."""
    top = V.max_degree
    powers = []
    for c in point:
        num, den = c.numerator, c.denominator
        powers.append([num ** e * den ** (top - e) for e in range(top + 1)])
    rows = [[0] * ncols for _ in range(V.dim)]
    for i, j, e, c in V.taylor_terms:
        if j < ncols:
            for table, k in zip(powers, e):
                c *= table[k]
            rows[i][j] += c
    return rows


def _column_bounds(terms, widths):
    """Ranks over Q of the coefficient vectors of the leading columns of a
    polynomial matrix given by its terms (row i, column j, exponent e,
    coefficient c): the vector of column j has c in row (i, e).  Terms of
    columns past the last width are skipped.

    Over Q(x) a set of polynomial columns has rank at most the Q-rank of
    their coefficient vectors.  For the jet matrix (`SubspaceV.taylor_terms`)
    column alpha has the coefficient c_{i, e + alpha} C(e + alpha, alpha)."""
    rows = {}
    for i, j, e, c in terms:
        if j < widths[-1]:
            rows.setdefault((i, e), [0] * widths[-1])[j] += c
    return prefix_ranks(list(rows.values()), widths)


# ---------------------------------------------------------------------------
# ranks of symbolic (polynomial-entry) matrices


@dataclass(frozen=True)
class RankResult:
    value: int
    method: str  # "exact" | "monomial-scaling" | "evaluation"
    certified: bool

    def __int__(self):
        return self.value


def _monomial_scaling_rank(rows):
    """Generic rank via row/column scaling, for matrices of monomial entries
    whose exponents decompose as row_offset + column_offset on the support.

    Such a matrix equals D_r C D_c with D_r, D_c invertible diagonal
    matrices over the function field, so its generic rank is the rank of
    the integer-coefficient matrix C.  Returns None when the reduction does
    not apply.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    coeffs = [[0] * ncols for _ in range(nrows)]
    expo = {}
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if p.is_zero:
                continue
            term = p.single_term()
            if term is None:
                return None
            expo[(i, j)] = term[0]
            coeffs[i][j] = term[1]
    if not expo:
        return RankResult(0, "monomial-scaling", True)
    nv = len(next(iter(expo.values())))
    zero = (0,) * nv
    row_off = [None] * nrows
    col_off = [None] * ncols
    for i in range(nrows):
        if row_off[i] is not None:
            continue
        if not any((i, j) in expo for j in range(ncols)):
            continue
        row_off[i] = zero
        stack = [("r", i)]
        while stack:
            kind, k = stack.pop()
            if kind == "r":
                for j in range(ncols):
                    e = expo.get((k, j))
                    if e is None:
                        continue
                    want = tuple(a - b for a, b in zip(e, row_off[k]))
                    if col_off[j] is None:
                        col_off[j] = want
                        stack.append(("c", j))
                    elif col_off[j] != want:
                        return None
            else:
                for i2 in range(nrows):
                    e = expo.get((i2, k))
                    if e is None:
                        continue
                    want = tuple(a - b for a, b in zip(e, col_off[k]))
                    if row_off[i2] is None:
                        row_off[i2] = want
                        stack.append(("r", i2))
                    elif row_off[i2] != want:
                        return None
    return RankResult(rank_exact(coeffs, ncols), "monomial-scaling", True)


def _certified_ranks(evaluate, widths, nrows, column_bounds, row_degrees):
    """Ranks over the rational function field of the leading column blocks
    (widths `widths`) of an `nrows`-row polynomial matrix, from evaluations.

    `evaluate(point)` gives the block ranks at an integer point, which are
    lower bounds; `column_bounds()` gives upper bounds, asked for only when
    min(nrows, width) does not already meet the lower bound.  The first
    point is drawn from `random.Random(0)`; a certified rank does not
    depend on it.  A block whose bounds still differ gets a grid
    S_1 x ... x S_k, S_i = {0, ..., d_i}, where d_i is the sum of the s
    largest `row_degrees` in x_i and s is one more than its lower bound:
    every s-minor has deg_{x_i} <= d_i, so either a grid point raises the
    lower bound or every s-minor vanishes and the bound is the rank.
    Blocks past the first of full rank are not certified.

    Returns (ranks, certified); uncertified ranks are the best lower bounds
    after `GRID_POINT_BUDGET` grid points."""
    full = min(nrows, widths[-1])
    rng = random.Random(0)
    nvars = len(row_degrees[0])
    lower = evaluate(tuple(rng.randint(1, 100) * rng.choice((-1, 1)) for _ in range(nvars)))
    upper = [min(nrows, w) for w in widths]
    if lower != upper:
        upper = [min(u, b) for u, b in zip(upper, column_bounds())]
    seen = set()
    # each pass that does not return raises some lower bound or lowers the
    # upper bound of its block, so sum(upper) + 1 passes suffice
    for _ in range(sum(upper) + 1):
        if any(lo > up for lo, up in zip(lower, upper)):
            raise InternalConsistencyError(f"rank lower bounds {lower} exceed upper bounds {upper}")
        stop = lower.index(full) + 1 if full in lower else len(lower)
        gap = next((n for n in range(stop) if lower[n] < upper[n]), None)
        if gap is None:
            return lower, True
        size = lower[gap] + 1
        sides = [sum(sorted((d[i] for d in row_degrees), reverse=True)[:size]) + 1
                 for i in range(nvars)]
        for point in itertools.product(*map(range, sides)):
            if point in seen:
                continue
            if len(seen) == GRID_POINT_BUDGET:
                return lower, False
            seen.add(point)
            lower = [max(a, b) for a, b in zip(lower, evaluate(point))]
            if lower[gap] >= size:
                # the grid was sized for size-minors only; a block whose rank
                # rose further needs the grid of its new lower bound
                break
        else:
            # no size-minor of the block is nonzero on the grid, so none is
            # nonzero at all, and neither is one of a smaller block
            upper[:gap + 1] = [min(u, lower[gap]) for u in upper[:gap + 1]]
    raise InternalConsistencyError(f"rank bounds {lower} and {upper} did not meet")


def _polynomial_degrees(polys, nvars):
    """deg_{x_i} of a collection of polynomials, for each variable x_i."""
    return tuple(max((e[i] for p in polys for e in p.support()), default=0)
                 for i in range(nvars))


def generic_rank(rows):
    """Rank of a matrix of polynomials over the rational function field.

    A scaling reduction for decomposable monomial matrices (jet matrices
    of monomial subspaces always are); otherwise the certified evaluation
    of `_certified_ranks`, with the rank over Q of the columns'
    coefficient vectors as the upper bound.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return RankResult(0, "evaluation", True)
    nrows, ncols = len(rows), len(rows[0])
    result = _monomial_scaling_rank(rows)
    if result is not None:
        return result
    nvars = rows[0][0].nvars

    def evaluate(point):
        return [rank_exact([[p(point) for p in row] for row in rows], ncols)]

    terms = [(i, j, e, c) for i, row in enumerate(rows) for j, p in enumerate(row)
             for e, c in p.items()]
    ranks, certified = _certified_ranks(
        evaluate, [ncols], nrows, lambda: _column_bounds(terms, [ncols]),
        [_polynomial_degrees(row, nvars) for row in rows])
    return RankResult(ranks[0], "evaluation", certified)


# ---------------------------------------------------------------------------
# order reports


@dataclass(frozen=True)
class OrderReport:
    """Jet-rank profile of V at one point and the orders derived from it."""

    point: object
    n_inj: int
    n_surj: int
    gap_sequence: tuple
    rank_profile: tuple
    weierstrass_order: int
    n_inj_generic: int
    dim: int
    method: str
    certified: bool

    def to_dict(self):
        if self.point is GENERIC:
            pt = "GENERIC"
        else:
            pt = [str(c) for c in self.point]
        return {
            "point": pt,
            "n_inj": self.n_inj,
            "n_surj": self.n_surj,
            "gap_sequence": list(self.gap_sequence),
            "rank_profile": list(self.rank_profile),
            "weierstrass_order": self.weierstrass_order,
            "n_inj_generic": self.n_inj_generic,
            "dim": self.dim,
            "method": self.method,
            "certified": self.certified,
        }


def _zero_pattern(point):
    return tuple(i for i, c in enumerate(point) if c == 0)


def _profile(V, at):
    """Rank profile r_0 <= r_1 <= ... up to the first full-rank order, the
    rank method that produced it and whether it is certified (`at` is
    GENERIC or an exact point).

    Every profile is read off the column prefix ranks of integer matrices
    up to order `top`: C_Z for monomial V, J(a) = C T(a) for dense V at a
    point, and at the generic point J(a) at the integer points that
    `_certified_ranks` evaluates.  At a point the rank may stall, so `top`
    is max_degree; at the generic point it rises at every order until it
    reaches dim, so `top` is at most dim - 1."""
    top = V.max_degree if at is not GENERIC else min(V.max_degree, V.dim - 1)
    widths = [comb(n + V.nvars, V.nvars) for n in range(top + 1)]
    certified = True
    if V.is_monomial:
        zeros = () if at is GENERIC else _zero_pattern(at)
        ranks = monomial_prefix_ranks(V.monomial_points, top, zeros)
        method = "monomial-scaling" if at is GENERIC else "exact"
    elif at is not GENERIC:
        ranks = prefix_ranks(_dense_jet_rows(V, at, widths[-1]), widths)
        method = "exact"
    else:
        ranks, certified = _certified_ranks(
            lambda point: prefix_ranks(_dense_jet_rows(V, point, widths[-1]), widths),
            widths, V.dim, lambda: _column_bounds(V.taylor_terms, widths),
            [_polynomial_degrees([p], V.nvars) for p in V.basis])
        method = "evaluation"
    if V.dim not in ranks:
        raise InternalConsistencyError(
            f"jet rank of a {V.dim}-dimensional independent subspace did not reach "
            f"{V.dim} by order {top}"
        )
    return tuple(ranks[:ranks.index(V.dim) + 1]), method, certified


def _order_report(V, at, ranks, method, certified, n_inj_generic):
    n_inj = len(ranks) - 1
    gaps = tuple(i for i in range(1, len(ranks)) if ranks[i] > ranks[i - 1])

    n_surj = -1
    for n, r in enumerate(ranks):
        if r == comb(n + V.nvars, V.nvars):
            n_surj = n
        else:
            break

    return OrderReport(
        point=at,
        n_inj=n_inj,
        n_surj=n_surj,
        gap_sequence=gaps,
        rank_profile=ranks,
        weierstrass_order=n_inj - n_inj_generic - 1,
        n_inj_generic=n_inj_generic,
        dim=V.dim,
        method=method,
        certified=certified,
    )


def n_inj_at(V, at=GENERIC):
    """Smallest n making the order-n Taylor map of V injective at `at`.

    Returns the full OrderReport (rank profile, gap sequence, jet order and
    Weierstrass order against the generic injectivity order): at GENERIC
    the cached `V.generic_report`, at a point its `weierstrass_scan` report.
    """
    if at is GENERIC:
        return V.generic_report
    return weierstrass_scan(V, [at])[0]


def n_surj_at(V, at):
    """Largest n with the Taylor maps of all orders <= n surjective at `at`.

    Returns -1 when even the order-0 map fails (every basis element
    vanishes at the point).
    """
    return n_inj_at(V, at).n_surj


def weierstrass_scan(V, points):
    """Per-point OrderReports with Weierstrass orders against N_inj.

    For monomial V the profile depends only on the zero pattern of the
    point, so the points of one torus orbit share one elimination, and the
    points with no zero coordinate share the generic profile.  A point's
    report is certified only when the generic profile is too.
    """
    generic = V.generic_report
    profiles = {(): (generic.rank_profile, "exact", True)} if V.is_monomial else {}
    reports = []
    for p in points:
        p = _exact_point(V, p)
        key = _zero_pattern(p) if V.is_monomial else p
        if key not in profiles:
            profiles[key] = _profile(V, p)
        ranks, method, certified = profiles[key]
        reports.append(_order_report(V, p, ranks, method, certified and generic.certified,
                                     generic.n_inj))
    return reports


# ---------------------------------------------------------------------------
# Weierstrass loci as rank-drop minors


@dataclass(frozen=True)
class MinorsReport:
    order: int  # the generic injectivity order used
    minors: tuple  # nonzero maximal minors, as Polynomials
    total: int  # number of maximal minors of the matrix
    truncated: bool
    certified: bool  # whether `order` is certified (V.generic_report)

    def __iter__(self):
        return iter(self.minors)


def _minor_step(states, column):
    """One column of the Laplace expansion of a minor over Z[x]: each state
    maps a bitmask of the rows used by the columns so far to its signed
    partial sum, an integer polynomial {packed exponent: int}.  Zero
    coefficients and zero states are dropped."""
    new = {}
    for used, acc in states.items():
        for i, entry in enumerate(column):
            if not entry or used >> i & 1:
                continue
            sign = -1 if (used >> (i + 1)).bit_count() % 2 else 1
            target = new.setdefault(used | 1 << i, {})
            for e1, c1 in acc.items():
                c1 *= sign
                for e2, c2 in entry.items():
                    e = e1 + e2
                    target[e] = target.get(e, 0) + c1 * c2
    out = {}
    for key, poly in new.items():
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            out[key] = poly
    return out


def _dense_minors(V, order, combos):
    """The nonzero maximal minors of V's order-`order` jet matrix over the
    column sets `combos`, in their order, from integers only.

    The entries come from `V.taylor_terms`, whose row i is p_i scaled by
    the lcm s_i of its denominators, so each minor there is prod s_i times
    the minor of the jet matrix.  An exponent e is packed into the integer
    sum_k e_k B^k with B larger than any exponent of a minor, so exponents
    add as integers.  The column sets come in lex order: the stack holds
    the DP states of the current set's column prefixes, and a set is
    expanded only from its first column that differs from the last set's.
    Once a prefix has no state left, every minor that extends it is zero
    at the cost of a few empty steps."""
    d, nvars = V.dim, V.nvars
    base = d * V.max_degree + 1
    ncols = comb(order + nvars, nvars)
    columns = [[{} for _ in range(d)] for _ in range(ncols)]
    for i, j, e, c in V.taylor_terms:
        if j < ncols:
            columns[j][i][sum(k * base ** t for t, k in enumerate(e))] = c
    scale = 1
    for p in V.basis:
        scale *= lcm(*(c.denominator for _, c in p.items()))
    stack = [{0: {0: 1}}]
    last = ()
    minors = []
    for combo in combos:
        k = 0
        while k < len(last) and last[k] == combo[k]:
            k += 1
        del stack[k + 1:]
        for j in combo[k:]:
            stack.append(_minor_step(stack[-1], columns[j]))
        last = combo
        poly = stack[-1].get((1 << d) - 1)
        if poly:
            terms = {}
            for packed, c in poly.items():
                e = []
                for _ in range(nvars):
                    e.append(packed % base)
                    packed //= base
                terms[tuple(e)] = Fraction(c, scale)
            minors.append(Polynomial._trusted(nvars, terms))
    return minors


def weierstrass_minors(V, cap=200):
    """All nonzero maximal minors of the symbolic jet matrix at the generic
    injectivity order, the first `cap` column sets in lex order when there
    are more.  Their common zero locus is the set of points of the affine
    chart whose injectivity order exceeds the generic one.  `certified`
    says whether that order is.

    No symbolic matrix is built.  A minor of a monomial V is the monomial
    det(C(m, alpha)) x^(sum m - sum alpha) over its columns alpha.  A dense
    V expands its minors over Z[x] from `SubspaceV.taylor_terms`
    (`_dense_minors`) and divides by the row scales at the end.
    """
    generic = V.generic_report
    columns = exponents_upto(V.nvars, generic.n_inj)
    d = V.dim
    total = comb(len(columns), d)
    truncated = total > cap
    combos = itertools.combinations(range(len(columns)), d)
    if truncated:
        combos = itertools.islice(combos, cap)
    if V.is_monomial:
        minors = []
        points = V.monomial_points
        point_sum = [sum(m[i] for m in points) for i in range(V.nvars)]
        for combo in combos:
            c = det_exact([[binomial_product(m, columns[j]) for j in combo] for m in points])
            if c:
                exp = tuple(s - sum(columns[j][i] for j in combo)
                            for i, s in enumerate(point_sum))
                minors.append(Polynomial.monomial(exp, c, V.nvars))
    else:
        minors = _dense_minors(V, generic.n_inj, combos)
    return MinorsReport(generic.n_inj, tuple(minors), total, truncated, generic.certified)
