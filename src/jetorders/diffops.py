"""Differential operators preserving a monomial subspace.

For a monomial exponent set P, a weight-w operator of order <= n is a
combination of terms x^(alpha+w) d^alpha with alpha + w >= 0 and
|alpha| <= n; it sends x^m to c_m x^(m+w) with c_m the falling-factorial
sum of its coefficients.  Preservation of span{x^m : m in P} forces
c_m = 0 whenever m + w falls outside P, and the annihilator slice is cut
out by c_m = 0 for every m.  Both are integer linear conditions on the
coefficients, one row ((m)_alpha)_alpha per m.

The image of all preserving operators inside End(V) is a direct sum over
the weights of P - P: a weight-w operator only lands on the matrix units
E_(m+w, m), and units of different weights are disjoint.  Within one
weight the image is the preserving slice modulo its annihilator, so

    rank = sum over w of (dim_w - ann_w),

and V is irreducible iff every block reaches |{m in P : m + w in P}|.
No dim x dim matrix is ever built.  `evaluation_image` reads dim_w and
ann_w off two ranks of the weight's rows and builds no operator; only
`preserving_weight_space` solves the kernel for an operator basis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import (
    DifferentialOperator,
    Polynomial,
    exponents_upto,
    falling_factorial,
    op_apply,
)
from .linalg import nullspace, prefix_ranks, rank_exact


def _normalize_points(points):
    if hasattr(points, "monomial_points"):
        if points.monomial_points is None:
            raise ValueError("subspace has no monomial structure")
        return list(points.monomial_points)
    return [tuple(int(c) for c in p) for p in points]


def _weight_rows(points, weight, order):
    """The weight-w terms alpha and the integer rows ((m)_alpha)_alpha over
    m in P, split into the leaving rows (m + w outside P) and the staying
    rows (m + w in P).

    The leaving rows cut out the preserving slice; all rows together cut
    out its annihilator."""
    if len(weight) != len(points[0]):
        raise ValueError(f"weight has {len(weight)} entries, expected {len(points[0])}")
    alphas, table = _falling_factorials(tuple(points), order)
    keep = [i for i, a in enumerate(alphas) if all(ai + wi >= 0 for ai, wi in zip(a, weight))]
    point_set = set(points)
    leaving, staying = [], []
    for m, full in zip(points, table):
        inside = tuple(mi + wi for mi, wi in zip(m, weight)) in point_set
        (staying if inside else leaving).append([full[i] for i in keep])
    return [alphas[i] for i in keep], leaving, staying


@functools.lru_cache(maxsize=8)
def _falling_factorials(points, order):
    """Every |alpha| <= order and the table (m)_alpha over m in P; the
    weights of one End(V) image share it, each taking its own columns."""
    alphas = tuple(exponents_upto(len(points[0]), order))
    return alphas, tuple(tuple(falling_factorial(m, a) for a in alphas) for m in points)


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


def preserving_weight_space(points, weight, order):
    """Exact basis of the weight-w slice of the order-<=n operators
    preserving the monomial subspace on P, plus the annihilator dimension
    of the same slice."""
    points = _normalize_points(points)
    weight = tuple(int(w) for w in weight)
    terms, leaving, staying = _weight_rows(points, weight, order)
    ops = []
    for vec in nullspace(leaving, len(terms)):
        op_terms = {}
        for a, c in zip(terms, vec):
            if c:
                beta = tuple(ai + wi for ai, wi in zip(a, weight))
                op_terms[(beta, a)] = c
        ops.append(DifferentialOperator(len(weight), op_terms))
    return WeightSpace(
        weight=weight,
        order=order,
        terms=tuple(terms),
        basis=tuple(ops),
        annihilator_dim=len(terms) - rank_exact(leaving + staying, len(terms)),
    )


def annihilator_weight_dim(points, weight, order):
    """Dimension of the weight-w slice of the order-<=n annihilator: one
    integer rank, no kernel basis."""
    terms, leaving, staying = _weight_rows(_normalize_points(points),
                                           tuple(int(w) for w in weight), order)
    return len(terms) - rank_exact(leaving + staying, len(terms))


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
    docstring).

    Both are ranks of the weight's rows, read off one elimination of their
    transpose with the leaving rows first: dim_w = |terms| - rank(leaving)
    and ann_w = |terms| - rank(all rows).  No kernel is solved."""
    points = _normalize_points(V)
    by_weight = []
    for w in weight_window(points):
        terms, leaving, staying = _weight_rows(points, w, order)
        split, total = prefix_ranks(list(zip(*leaving, *staying)), [len(leaving), len(points)])
        by_weight.append((w, len(terms) - split, len(terms) - total))
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
