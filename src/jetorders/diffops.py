"""Differential operators preserving a monomial subspace.

For a monomial exponent set P, a weight-w operator of order <= n is a
combination of terms x^(alpha+w) d^alpha with alpha + w >= 0 and
|alpha| <= n; it sends x^m to c_m x^(m+w) with c_m the falling-factorial
sum of its coefficients.  Preservation of span{x^m : m in P} forces
c_m = 0 whenever m + w falls outside P, and the annihilator slice is cut
out by c_m = 0 for every m: integer rows ((m)_alpha)_alpha, one per m.

With s = max(0, -w), the terms are alpha = s + gamma, |gamma| <= k = n - |s|,
and (m)_alpha = (m)_s (m - s)_gamma with (m)_s = 0 unless m >= s.  So the
annihilator rank is the Hilbert function h_{P_s}(k) of
P_s = {m - s : m in P, m >= s}, and the preserving slice is the kernel of
the rows of the shifted leaving set L_w = {m - s : m >= s, m + w outside P}:
`weight_spaces` takes one rank per s and one kernel per (s, L_w).  A term
whose column is zero (gamma <= p for no p in L_w) preserves V by itself:
the kernel eliminates only the live columns, an all-zero one is a unit vector.

A weight-w operator lands only on the matrix units E_(m+w, m), disjoint
across weights, and within one weight its image in End(V) is the slice
modulo its annihilator.  So

    rank = sum over w in P - P of (dim_w - ann_w),  dim_w - ann_w = h_{P_s}(k) - h_{L_w}(k),

and V is irreducible iff every block reaches |{m in P : m + w in P}|.
`evaluation_image` reads this off Hilbert functions: no kernel, no
operator and no dim x dim matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    DifferentialOperator,
    Polynomial,
    exponents_upto,
    falling_factorial,
    op_apply,
)
from .jets import monomial_prefix_ranks
from .linalg import nullspace, rank_exact


def _normalize_points(points):
    if hasattr(points, "monomial_points"):
        if points.monomial_points is None:
            raise ValueError("subspace has no monomial structure")
        return list(points.monomial_points)
    points = [tuple(int(c) for c in p) for p in points]
    if any(c < 0 for p in points for c in p):
        raise ValueError("monomial exponents must be non-negative")
    return points


def _hilbert(points, k):
    """h_points(k): the rank of the rows ((p)_gamma)_gamma, |gamma| <= k."""
    return monomial_prefix_ranks(points, k)[-1] if points and k >= 0 else 0


def _weight_blocks(points, weights, order):
    """(w, s, gammas, terms = s + gammas, L_w, h_{P_s}(k)) for each weight w
    (module docstring); all but w and L_w are found once per s."""
    nvars, point_set, local = len(points[0]), set(points), {}
    for w in weights:
        if len(w) != nvars:
            raise ValueError(f"weight has {len(w)} entries, expected {nvars}")
        w = tuple(int(wi) for wi in w)
        s = tuple(max(0, -wi) for wi in w)
        if s not in local:
            k = order - sum(s)
            shifted = [tuple(mi - si for mi, si in zip(m, s))
                       for m in points if all(mi >= si for mi, si in zip(m, s))]
            gammas = exponents_upto(nvars, k)
            terms = tuple(tuple(si + gi for si, gi in zip(s, g)) for g in gammas)
            local[s] = shifted, gammas, terms, _hilbert(shifted, k)
        shifted, gammas, terms, rank = local[s]
        # m + w = (m - s) + max(w, 0)
        leaving = tuple(p for p in shifted
                        if tuple(pi + max(wi, 0) for pi, wi in zip(p, w)) not in point_set)
        yield w, s, gammas, terms, leaving, rank


@dataclass(frozen=True)
class WeightSpace:
    weight: tuple
    order: int
    terms: tuple  # alpha exponents indexing the coefficients
    basis: tuple  # weight-homogeneous DifferentialOperators
    annihilator_dim: int

    @property
    def dimension(self):
        return len(self.basis)


def weight_spaces(points, weights, order):
    """The `WeightSpace` of each weight, in order: an exact basis of the
    weight-w slice of the order-<=n operators preserving the monomial
    subspace on P, plus the annihilator dimension of the same slice.
    Weights of one shifted leaving set share one kernel, within this call."""
    points = _normalize_points(points)
    kernels, spaces = {}, []
    for w, s, gammas, terms, leaving, rank in _weight_blocks(points, weights, order):
        kernel = kernels.get((s, leaving))
        if kernel is None:
            rows = [[falling_factorial(p, g) for g in gammas] for p in leaving]
            # (term index, coefficient) pairs; the zeros are ints, skipped in C
            kernel = kernels[s, leaving] = [list(itertools.compress(enumerate(vec), vec))
                                            for vec in nullspace(rows, len(terms))]
        keys = [(tuple(ai + wi for ai, wi in zip(a, w)), a) for a in terms]
        basis = tuple(DifferentialOperator._trusted(len(w), {keys[i]: c for i, c in pairs})
                      for pairs in kernel)
        spaces.append(WeightSpace(w, order, terms, basis, len(terms) - rank))
    return spaces


def preserving_weight_space(points, weight, order):
    """The `WeightSpace` of one weight (see `weight_spaces`)."""
    return weight_spaces(points, [weight], order)[0]


def annihilator_weight_dim(points, weight, order):
    """Dimension of the weight-w slice of the order-<=n annihilator: one
    Hilbert function, no kernel basis."""
    _, _, _, terms, _, rank = next(_weight_blocks(_normalize_points(points), [weight], order))
    return len(terms) - rank


def weight_window(points):
    """All weights that can act nontrivially on the subspace: P - P."""
    points = _normalize_points(points)
    return sorted({tuple(a - b for a, b in zip(p, q))
                   for p, q in itertools.product(points, points)})


@dataclass(frozen=True)
class EndImage:
    dim: int
    rank: int
    by_weight: tuple  # ((weight, preserving dim, annihilator dim), ...)

    @property
    def full(self):
        return self.rank == self.dim * self.dim


def evaluation_image(V, order):
    """Span inside End(V) of all order-<=n operators preserving monomial V:
    the sum over the weights w of P - P of dim_w - ann_w (see the module
    docstring), with dim_w = |terms| - h_{L_w}(k) and
    ann_w = |terms| - h_{P_s}(k).  No kernel is solved."""
    points = _normalize_points(V)
    leaving_ranks, by_weight = {}, []
    for w, s, _, terms, leaving, rank in _weight_blocks(points, weight_window(points), order):
        if (s, leaving) not in leaving_ranks:
            leaving_ranks[s, leaving] = _hilbert(leaving, order - sum(s))
        by_weight.append((w, len(terms) - leaving_ranks[s, leaving], len(terms) - rank))
    return EndImage(dim=len(points),
                    rank=sum(dim - ann for _, dim, ann in by_weight),
                    by_weight=tuple(by_weight))


def check_irreducible(V, order):
    """True iff the preserving operators of order <= n span all of End(V)."""
    return evaluation_image(V, order).full


def preserving_operators_truncated(V, order, coeff_degree):
    """Operators of order <= `order` and coefficient degree <= `coeff_degree`
    preserving an arbitrary subspace V.

    Without a monomial basis there is no weight grading, so the coefficient
    degree must be truncated explicitly; the result is the full solution
    space of that finite slice, together with the rank of its image in
    End(V).  For monomial V and a large enough truncation this agrees with
    the weight-graded computation.

    The action rows give every coefficient of op(p_j), the residual rows
    its part off span(V); their kernels are nested, so the image of the
    kernel K in End(V) has dimension rank(action) - rank(residual).
    """
    nvars = V.nvars
    alphas = exponents_upto(nvars, order)
    betas = exponents_upto(nvars, coeff_degree)
    columns = [(b, a) for b in betas for a in alphas]

    action = {}
    residual = {}
    for k, (b, a) in enumerate(columns):
        term = DifferentialOperator.term(b, a, 1, nvars)
        for j, p in enumerate(V.basis):
            image = op_apply(term, p)
            for e, value in image.items():
                action.setdefault((j, e), [0] * len(columns))[k] += value
            for e, value in _residual_terms(V, image).items():
                residual.setdefault((j, e), [0] * len(columns))[k] += value
    ops = [DifferentialOperator(nvars, {key: c for key, c in zip(columns, vec) if c})
           for vec in nullspace(list(residual.values()), len(columns))]
    return ops, rank_exact(list(action.values()), len(columns)) - (len(columns) - len(ops))


def _residual_terms(V, poly):
    """Nonzero terms of `poly` minus its projection onto span(V), by exponent."""
    inside = [0] * len(V.support_index)
    out = {}
    for e, c in poly.items():
        i = V.support_index.get(e)
        if i is None:
            out[e] = c
        else:
            inside[i] = c
    for e, value in zip(V.support_index, V.span.residual(inside)):
        if value:
            out[e] = value
    return out


# ---------------------------------------------------------------------------
# the worked generator families


def sl_generators(nvars, degree):
    """Order-<=1 generators preserving the full space of polynomials of
    total degree <= `degree` on affine n-space: every d_l, every x_k d_l,
    and -sum_i x_i x_k d_i + degree * x_k."""
    ops = []
    for l in range(nvars):
        ops.append(DifferentialOperator.partial(l, nvars))
    for k in range(nvars):
        xk = DifferentialOperator.multiplication(Polynomial.variable(k, nvars))
        for l in range(nvars):
            ops.append(xk * DifferentialOperator.partial(l, nvars))
    for k in range(nvars):
        xk_poly = Polynomial.variable(k, nvars)
        op = degree * DifferentialOperator.multiplication(xk_poly)
        for i in range(nvars):
            xi_xk = Polynomial.variable(i, nvars) * xk_poly
            op = op - DifferentialOperator.multiplication(xi_xk) * DifferentialOperator.partial(i, nvars)
        ops.append(op)
    return ops


def hirzebruch_generators(r, k, l):
    """The generator list for the operators preserving the Hirzebruch
    subspace span{x^i y^j : 0 <= i + rj <= k, 0 <= j <= l} (truncated case
    k - lr >= 0): d_x, x^j d_y (j = 0..r), x*pi, the composites
    d_x^j y (y d_y - l) pi (pi+1) ... (pi + r - j - 1) for j = 0..r, and the
    Euler operators x d_x, y d_y, with pi = x d_x + r y d_y - k.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if k - l * r < 0:
        raise ValueError(f"truncated case requires k - l*r >= 0, got {k - l * r}")
    nv = 2
    dx = DifferentialOperator.partial(0, nv)
    dy = DifferentialOperator.partial(1, nv)
    x = DifferentialOperator.multiplication(Polynomial.variable(0, nv))
    y = DifferentialOperator.multiplication(Polynomial.variable(1, nv))
    one = DifferentialOperator.identity(nv)
    x_dx = x * dx
    y_dy = y * dy
    pi = x_dx + r * y_dy - k * one
    nabla_y = y_dy - l * one

    ops = [dx]
    for j in range(r + 1):
        xj = one
        for _ in range(j):
            xj = xj * x
        ops.append(xj * dy)
    ops.append(x * pi)
    for j in range(r + 1):
        op = y * nabla_y
        for step in range(r - j):
            op = op * (pi + step * one)
        for _ in range(j):
            op = dx * op
        ops.append(op)
    ops.append(x_dx)
    ops.append(y_dy)
    return ops


# ---------------------------------------------------------------------------
# preservation checking for arbitrary operator lists


@dataclass(frozen=True)
class PreserveResult:
    operator: DifferentialOperator
    preserves: bool
    violating_index: int | None  # index into V.basis of the first violation

    def violator(self, V):
        return None if self.violating_index is None else V.basis[self.violating_index]


def operator_matrix(op, V):
    """Matrix of a V-preserving operator on the ordered basis of V
    (column j = coordinates of the image of basis element j)."""
    columns = []
    for p in V.basis:
        vec = V.coefficient_vector(op_apply(op, p))
        if vec is None:
            raise ValueError(f"operator does not preserve the subspace: {op}")
        columns.append(V.span.coordinates(vec))
    return [list(row) for row in zip(*columns)]


def preserve_check(ops, V):
    """Exact check that each operator maps span(V) into span(V); reports the
    first violating basis element otherwise."""
    results = []
    for op in ops:
        if op.nvars != V.nvars:
            raise ValueError(f"operator in {op.nvars} variables applied to {V.nvars}-variable space")
        bad = None
        for i, p in enumerate(V.basis):
            vec = V.coefficient_vector(op_apply(op, p))
            if vec is None or not V.span.contains(vec):
                bad = i
                break
        results.append(PreserveResult(op, bad is None, bad))
    return results


def all_preserve(ops, V):
    return all(res.preserves for res in preserve_check(ops, V))
