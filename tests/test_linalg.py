import random
from fractions import Fraction as F

import pytest
from helpers import oracle_det, oracle_rref

from jetorders import linalg
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


def _sparse_matrix(rng, kind):
    """A seeded matrix with zero columns among its live ones, zero rows among
    its rows, or no rows at all: (rows, ncols)."""
    nr, nc = rng.randint(0, 5), rng.randint(1, 8)
    m = _random_matrix(rng, nr, nc, kind) if nr else []
    dead = set(rng.sample(range(nc), rng.randint(0, nc)))
    m = [[0 if c in dead else e for c, e in enumerate(row)] for row in m]
    for _ in range(rng.randint(0, 2)):
        m.insert(rng.randint(0, len(m)), [0] * nc)
    return m, nc


def test_kernel_with_zero_columns_and_zero_rows():
    # the RREF basis of the oracle, value for value; the free column holds 1
    # and every entry that is not a nonzero pivot entry is the int 0
    rng = random.Random(23)
    shapes = {"dead between live": 0, "no rows": 0, "zero row": 0}
    for trial in range(400):
        kind = KINDS[trial % len(KINDS)]
        m, nc = _sparse_matrix(rng, kind)
        reduced, pivots = oracle_rref(m, nc)
        kernel = nullspace(m, nc)
        assert kernel == _oracle_nullspace(reduced, pivots, nc), m
        free = [c for c in range(nc) if c not in pivots]
        for v, fc in zip(kernel, free):
            assert v[fc] == 1 and all(not v[c] for c in free if c != fc)
            assert all(type(e) is int for e in v if not e)
            assert all(type(e) is F for e in v if e)
        live = [c for c in range(nc) if any(row[c] for row in m)]
        shapes["dead between live"] += bool(live) and len(live) < live[-1] - live[0] + 1
        shapes["no rows"] += not m
        shapes["zero row"] += any(not any(row) for row in m)
    assert all(shapes.values()), shapes
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([[0, F(1, 2), 0, 0]], 4) == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_kernel_eliminates_only_live_columns(monkeypatch):
    eliminate, seen = linalg._eliminate, []

    def checked(int_rows, ncols, reduced=False):
        int_rows = [list(row) for row in int_rows]
        seen.append((int_rows, ncols))
        return eliminate(int_rows, ncols, reduced)

    monkeypatch.setattr(linalg, "_eliminate", checked)
    rng = random.Random(24)
    for trial in range(200):
        m, nc = _sparse_matrix(rng, KINDS[trial % len(KINDS)])
        assert nullspace(m, nc) == _oracle_nullspace(*oracle_rref(m, nc), nc)
        int_rows, ncols = seen[-1]
        assert ncols == sum(any(row[c] for row in m) for c in range(nc))
        assert all(len(row) == ncols for row in int_rows)
        assert all(any(row[c] for row in int_rows) for c in range(ncols))
    assert len(seen) == 200


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
