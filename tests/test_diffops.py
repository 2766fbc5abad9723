import itertools
import random

import pytest

from helpers import (
    evaluation_image_dense_rank,
    oracle_rref,
    oracle_weight_space,
    oracle_truncated_rank,
    random_dense_subspace,
    random_monomial_subspace,
)
from jetorders.algebra import DifferentialOperator, Polynomial, op_apply
from jetorders.diffops import (
    all_preserve,
    annihilator_weight_dim,
    check_irreducible,
    evaluation_image,
    hirzebruch_generators,
    preserve_check,
    preserving_weight_space,
    sl_generators,
    weight_spaces,
    weight_window,
)
from jetorders.jets import SubspaceV
from jetorders.verify import hirzebruch_points


def test_weight_space_examples():
    ws = preserving_weight_space([(0,), (1,)], (-1,), 1)
    assert [str(op) for op in ws.basis] == ["dx"]
    assert ws.annihilator_dim == 0

    ws = preserving_weight_space([(0,), (1,)], (1,), 1)
    assert ws.dimension == 1
    op = ws.basis[0]
    x = Polynomial.variable(0, 1)
    one = Polynomial.constant(1, 1)
    # spans the line through x - x^2 d: sends 1 to a multiple of x, kills x
    assert op_apply(op, one).support() == [(1,)]
    assert op_apply(op, x).is_zero
    assert ws.annihilator_dim == 0

    assert preserving_weight_space([(0,), (1,)], (5,), 1).dimension == 0


def test_annihilator_examples():
    assert annihilator_weight_dim([(0,), (1,)], (0,), 2) == 1
    ws = preserving_weight_space([(0,), (1,)], (0,), 2)
    # the annihilator slice is spanned by x^2 d^2
    killer = DifferentialOperator.term((2,), (2,))
    assert op_apply(killer, Polynomial.variable(0, 1)).is_zero
    assert annihilator_weight_dim([(0,), (1,)], (-1,), 1) == 0
    assert annihilator_weight_dim([(0,), (1,)], (2,), 0) == 0


def test_weight_basis_maps_monomials_correctly():
    rng = random.Random(7)
    for _ in range(25):
        V = random_monomial_subspace(rng)
        P = list(V.monomial_points)
        w = rng.choice(weight_window(P))
        n = rng.randint(0, 3)
        ws = preserving_weight_space(P, w, n)
        pset = set(P)
        for op in ws.basis:
            for m in P:
                image = op_apply(op, Polynomial.monomial(m, 1, V.nvars))
                if image.is_zero:
                    continue
                target = tuple(a + b for a, b in zip(m, w))
                assert image.support() == [target]
                assert target in pset


def _weight_space_point_set(rng, kind, nvars):
    """A non-negative point set of one kind: a lower set, a lower set
    translated or sheared, or random points in a box."""
    if kind == "random":
        return sorted(rng.sample(list(itertools.product(range(4), repeat=nvars)),
                                 rng.randint(1, 6)))
    tops = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(rng.randint(1, 3))]
    pts = sorted({p for top in tops for p in itertools.product(*(range(t + 1) for t in top))})
    if kind == "translated":
        shift = [rng.randint(0, 3) for _ in range(nvars)]
        pts = [tuple(x + t for x, t in zip(p, shift)) for p in pts]
    elif kind == "sheared" and nvars > 1:
        # (x, y, ...) -> (x + a y, y, ...)
        a = rng.randint(1, 2)
        pts = [(p[0] + a * p[1],) + p[1:] for p in pts]
    return pts


def test_weight_spaces_match_per_weight_oracle():
    # one rank per negative part s and one kernel per shifted leaving set
    # give, weight by weight, the terms, basis and annihilator of the
    # weight-by-weight route, on P - P and on a radius-2 box of weights
    rng = random.Random(41)
    kinds = ("lower", "translated", "sheared", "random")
    empty_shifts = 0
    for i in range(48):
        nvars = 1 + i % 3
        pts = _weight_space_point_set(rng, kinds[i // 3 % 4], nvars)
        order = rng.randint(0, 4)
        box = itertools.product(range(-2, 3), repeat=nvars)
        weights = weight_window(pts) + sorted(set(box) - set(weight_window(pts)))
        spaces = weight_spaces(pts, weights, order)
        assert [ws.weight for ws in spaces] == weights
        for w, ws in zip(weights, spaces):
            terms, basis, ann = oracle_weight_space(pts, w, order)
            assert ws.terms == terms, (pts, w, order)
            assert ws.basis == tuple(basis), (pts, w, order)
            assert [str(op) for op in ws.basis] == [str(op) for op in basis]
            assert ws.annihilator_dim == ann == annihilator_weight_dim(pts, w, order)
            s = [max(0, -wi) for wi in w]
            if terms and not any(all(mi >= si for mi, si in zip(m, s)) for m in pts):
                # P_s is empty: every term kills V, so the slice is all annihilator
                empty_shifts += 1
                assert ws.dimension == ws.annihilator_dim == len(terms)
    assert empty_shifts


def test_weight_space_with_empty_shifted_set():
    # w = -2 on {1, x}: d^2 kills both monomials, so it preserves V and
    # lies in the annihilator
    ws = preserving_weight_space([(0,), (1,)], (-2,), 2)
    assert [str(op) for op in ws.basis] == ["dx^2"]
    assert ws.annihilator_dim == 1
    with pytest.raises(ValueError, match="non-negative"):
        weight_spaces([(0,), (-1,)], [(1,)], 1)


def test_evaluation_image_examples():
    V1 = SubspaceV.from_monomials(1, [(0,), (1,)])
    assert evaluation_image(V1, 1).rank == 4
    assert evaluation_image(V1, 0).rank == 1
    V2 = SubspaceV.from_monomials(1, [(0,), (1,), (2,)])
    assert evaluation_image(V2, 2).rank == 9
    assert check_irreducible(V2, 2)
    assert not check_irreducible(V2, 0)
    image = evaluation_image(V2, 1)
    assert image.rank == 4
    assert not image.full


def test_evaluation_image_monotone():
    V = SubspaceV.from_monomials(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    ranks = [evaluation_image(V, n).rank for n in range(4)]
    assert ranks == sorted(ranks)
    assert ranks[-1] == 16


def test_dense_cross_check_small():
    rng = random.Random(13)
    for _ in range(8):
        V = random_monomial_subspace(rng, max_size=5, box=3)
        n = rng.randint(0, 2)
        assert evaluation_image(V, n).rank == evaluation_image_dense_rank(V, n)


def test_evaluation_image_solves_no_kernel_and_builds_no_operator(monkeypatch):
    # the image is counted from ranks alone: no nullspace is solved and no
    # DifferentialOperator is built, below and at the irreducible order
    from jetorders import diffops, linalg
    from jetorders.algebra import exponents_upto

    calls = []
    init, nullspace = DifferentialOperator.__init__, linalg.nullspace

    def counted_init(self, *args, **kwargs):
        calls.append("operator")
        init(self, *args, **kwargs)

    def counted_nullspace(rows, ncols):
        calls.append("nullspace")
        return nullspace(rows, ncols)

    monkeypatch.setattr(DifferentialOperator, "__init__", counted_init)
    monkeypatch.setattr(diffops, "nullspace", counted_nullspace)
    monkeypatch.setattr(linalg, "nullspace", counted_nullspace)
    for P, order in ((exponents_upto(2, 3), 3), (hirzebruch_points(1, 4, 2), 4)):
        V = SubspaceV.from_monomials(2, P)
        assert not check_irreducible(V, order - 1)
        assert check_irreducible(V, order)
        assert evaluation_image(V, order).rank == len(P) ** 2
    assert calls == []


def test_sl_generators():
    gens = sl_generators(1, 2)
    assert [str(g) for g in gens] == ["dx", "x*dx", "-x^2*dx + 2*x"]
    assert len(sl_generators(2, 1)) == 8
    from jetorders.algebra import exponents_upto

    V = SubspaceV.from_monomials(2, exponents_upto(2, 2))
    assert all_preserve(sl_generators(2, 2), V)


def test_hirzebruch_generators():
    gens = hirzebruch_generators(1, 3, 1)
    xpi = DifferentialOperator.term((2, 0), (1, 0), nvars=2) \
        + DifferentialOperator.term((1, 1), (0, 1), nvars=2) \
        + DifferentialOperator.term((1, 0), (0, 0), -3, nvars=2)
    assert xpi in gens
    # the j = r product with empty pi factor: d_x y (y d_y - 1)
    j_r = DifferentialOperator.term((0, 2), (1, 1), nvars=2) \
        - DifferentialOperator.term((0, 1), (1, 0), nvars=2)
    assert j_r in gens
    V = SubspaceV.from_monomials(2, hirzebruch_points(1, 3, 1))
    assert all_preserve(gens, V)
    with pytest.raises(ValueError):
        hirzebruch_generators(2, 1, 1)


def test_hirzebruch_generators_collapsed_top_edge():
    # k = lr is still in the truncated range; the operators preserve the
    # space even though the four-vertex order table no longer applies
    for r, k, l in [(2, 2, 1), (1, 2, 2), (3, 3, 1)]:
        V = SubspaceV.from_monomials(2, hirzebruch_points(r, k, l))
        assert all_preserve(hirzebruch_generators(r, k, l), V), (r, k, l)


def test_preserve_check_reports_violator():
    V = SubspaceV.from_monomials(1, [(0,), (1,)])
    d = DifferentialOperator.partial(0, 1)
    x = DifferentialOperator.multiplication(Polynomial.variable(0, 1))
    results = preserve_check([d, x], V)
    assert results[0].preserves
    assert not results[1].preserves
    assert results[1].violator(V) == Polynomial.variable(0, 1)  # x.x = x^2 outside V


def test_preserve_check_non_monomial_span():
    one = Polynomial.constant(1, 1)
    x = Polynomial.variable(0, 1)
    V = SubspaceV(1, [one + x, one - x])
    d = DifferentialOperator.partial(0, 1)
    assert all_preserve([d], V)  # d maps both to +-1 = ((1+x)+(1-x))/2 scaled


def test_preserve_check_dimension_mismatch():
    V = SubspaceV.from_monomials(1, [(0,)])
    with pytest.raises(ValueError):
        preserve_check([DifferentialOperator.partial(0, 2)], V)


def _algebra_closure_rank(mats, dim):
    """Dimension of the associative matrix algebra generated by mats (+ I)."""
    from fractions import Fraction

    eye = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]

    def flatten(m):
        return [e for row in m for e in row]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(dim)) for j in range(dim)]
                for i in range(dim)]

    basis = [eye] + [m for m in mats]
    rank = 0
    while True:
        rows = [flatten(m) for m in basis]
        reduced, pivots = oracle_rref(rows, dim * dim)
        if len(pivots) == rank:
            return rank
        rank = len(pivots)
        # keep an independent representative set and extend by products
        packed = [[row[i * dim:(i + 1) * dim] for i in range(dim)] for row in reduced]
        basis = packed + [matmul(a, g) for a in packed for g in mats]


def test_generator_lists_generate_full_matrix_algebra():
    # the listed operators generate everything acting on V: the matrix
    # algebra they span closes up to all of End(V)
    from jetorders.diffops import operator_matrix
    from jetorders.algebra import exponents_upto

    V = SubspaceV.from_monomials(1, exponents_upto(1, 2))
    mats = [operator_matrix(g, V) for g in sl_generators(1, 2)]
    assert _algebra_closure_rank(mats, V.dim) == 9

    V = SubspaceV.from_monomials(2, exponents_upto(2, 1))
    mats = [operator_matrix(g, V) for g in sl_generators(2, 1)]
    assert _algebra_closure_rank(mats, V.dim) == 9

    V = SubspaceV.from_monomials(2, hirzebruch_points(1, 2, 1))
    mats = [operator_matrix(g, V) for g in hirzebruch_generators(1, 2, 1)]
    assert _algebra_closure_rank(mats, V.dim) == 25

    V = SubspaceV.from_monomials(2, hirzebruch_points(1, 3, 1))
    mats = [operator_matrix(g, V) for g in hirzebruch_generators(1, 3, 1)]
    assert _algebra_closure_rank(mats, V.dim) == 49


def test_truncated_operators_match_weight_graded_on_monomial_spaces():
    from jetorders.diffops import preserving_operators_truncated

    rng = random.Random(17)
    for _ in range(6):
        V = random_monomial_subspace(rng, nvars=1, max_size=4, box=3)
        n = rng.randint(0, 2)
        # a box covering every weight in P - P plus the operator order
        bound = 3 + n
        _, rank = preserving_operators_truncated(V, n, bound)
        assert rank == evaluation_image(V, n).rank


def test_truncated_operators_non_monomial():
    from jetorders.diffops import preserving_operators_truncated

    one = Polynomial.constant(1, 1)
    x = Polynomial.variable(0, 1)
    V = SubspaceV(1, [one + x, x * x])
    ops, rank = preserving_operators_truncated(V, 1, 2)
    assert all_preserve(ops, V)
    assert rank >= 2  # at least the identity and one non-scalar action
    identity_like = [op for op in ops if op.order == 0]
    assert identity_like  # multiplication by a constant always preserves


def test_truncated_image_rank_matches_flat_matrix_oracle():
    # rank(action rows) - rank(residual rows) against the rank of the
    # kernel operators' flattened End(V) matrices
    from jetorders.diffops import preserving_operators_truncated

    rng = random.Random(71)
    nonzero = 0
    for _ in range(12):
        nvars = rng.choice((1, 2))
        V = random_dense_subspace(rng, nvars, max_dim=3, degree=3 - nvars)
        ops, rank = preserving_operators_truncated(V, rng.randint(0, 2), rng.randint(0, 2))
        assert rank == oracle_truncated_rank(V, ops), V.basis
        nonzero += rank > 0
    assert nonzero >= 6
