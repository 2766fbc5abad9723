import random
from fractions import Fraction as F

import pytest
from helpers import oracle_det, oracle_rref

from jetorders.linalg import SpanChecker, det_exact, nullspace, rank_exact
from jetorders.toric import _integer_inverse_unimodular


def test_rank_examples():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank_exact(eye) == 3
    assert rank_exact([[0] * 5, [0] * 5]) == 0
    assert rank_exact([[1, 2], [2, 4], [3, 5]]) == 2


def test_rank_fractions():
    m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]
    assert rank_exact(m) == 1
    m[1][1] = F(1, 5)
    assert rank_exact(m) == 2


def test_rank_matches_rref_randomized():
    rng = random.Random(9)
    for _ in range(50):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        reduced, pivots = oracle_rref(m, nc)
        assert rank_exact(m) == len(pivots)
        for vec in nullspace(m, nc):
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
        assert len(nullspace(m, nc)) == nc - len(pivots)


def test_rank_modular_fastpath_large_identity():
    n = 40
    eye = [[F(i == j) for j in range(n)] for i in range(n)]
    assert rank_exact(eye) == n


def test_rank_modular_fastpath_not_trusted_when_deficient():
    # a large matrix of rank 1: the modular pass cannot certify, Bareiss decides
    n = 30
    m = [[(i + 1) * (j + 1) for j in range(n)] for i in range(n)]
    assert rank_exact(m) == 1


def test_span_checker():
    rows = [[1, 0, 1], [0, 1, 1]]
    sc = SpanChecker(rows, 3)
    assert sc.rank == 2
    assert sc.contains([2, 3, 5])
    assert not sc.contains([1, 0, 0])


KINDS = ("integer", "deficient", "fraction")


def _random_matrix(rng, nrows, ncols, kind):
    if kind == "fraction":
        return [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
    if kind == "deficient":
        k = rng.randint(0, min(nrows, ncols) - 1)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
        return [[sum(row[t] * right[t][j] for t in range(k)) for j in range(ncols)]
                for row in left]
    return [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]


def _oracle_nullspace(reduced, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def test_kernel_against_oracles():
    rng = random.Random(20)
    for trial in range(300):
        kind = KINDS[trial % len(KINDS)]
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, nr, nc, kind)
        reduced, pivots = oracle_rref(m, nc)
        assert rank_exact(m) == len(pivots)
        assert nullspace(m, nc) == _oracle_nullspace(reduced, pivots, nc)
        if nr == nc and kind != "fraction":
            assert det_exact(m) == oracle_det(m), m

        span = SpanChecker(m, nc)
        assert span.rank == len(pivots)
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nr)]
        vector = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(nc)]
        assert span.contains(vector)
        coords = span.coordinates(vector)
        assert [sum(c * row[j] for c, row in zip(coords, m)) for j in range(nc)] == vector
        if span.rank == nr:
            assert coords == coeffs


def test_rank_exact_modular_side_against_oracle():
    # matrices of 24 rows or more, full rank and deficient, against the
    # Fraction Gauss-Jordan oracle
    rng = random.Random(21)
    n = 24
    for kind in KINDS:
        for nr, nc in ((n, n + 3), (n + 4, n)):
            m = _random_matrix(rng, nr, nc, kind)
            assert rank_exact(m) == len(oracle_rref(m, nc)[1]), (kind, nr, nc)


def test_det_exact_signed():
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([]) == 1


def test_unimodular_inverse():
    rng = random.Random(22)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    q = rng.randint(-3, 3)
                    m[i] = [a + q * b for a, b in zip(m[i], m[j])]
                if rng.random() < 0.3:
                    m[i] = [-a for a in m[i]]
            inv = _integer_inverse_unimodular([list(col) for col in zip(*m)])
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in inv] \
                == [[int(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError):
        _integer_inverse_unimodular([[2, 0], [0, 1]])
