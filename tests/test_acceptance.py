"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure).  All randomness is seeded; every expected value is an exact
integer, so there is no tolerance anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from helpers import evaluation_image_dense_rank, rank_symbolic, rational_point
from jetorders.algebra import exponents_upto
from jetorders.diffops import (
    annihilator_weight_dim,
    evaluation_image,
    sl_generators,
    weight_window,
)
from jetorders.diffops import all_preserve, hirzebruch_generators
from jetorders.jets import GENERIC, SubspaceV, jet_matrix, n_inj_at, weierstrass_minors, weierstrass_scan
from jetorders.toric import (
    chart_subspace,
    d_gonal,
    n1_surj_toric,
    n_inj_hilbert,
    n_inj_max,
    n_surj_toric,
    polytope_build,
    vertex_chart,
)
from jetorders.verify import hirzebruch_points

VERONESE_CASES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
HIRZEBRUCH_CASES = [(1, 2, 1), (1, 3, 1), (2, 5, 2), (3, 7, 2)]


@contextmanager
def criterion(number, description, budget_seconds=None):
    """Assert the body and, where the criteria state one, the runtime budget."""
    start = time.time()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.time() - start
        over = budget_seconds is not None and elapsed >= budget_seconds
        status = "PASS" if failed is None and not over else "FAIL"
        budget = f" [budget {budget_seconds}s]" if budget_seconds is not None else ""
        print(f"{status}: criterion {number} ({description}) in {elapsed:.1f}s{budget}")
        if failed is None and budget_seconds is not None:
            assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def veronese_subspace(n, m):
    return SubspaceV.from_monomials(n, exponents_upto(n, m))


def test_criterion_1_veronese_suite():
    with criterion(1, "Veronese orders, toric and pointwise", 30):
        for n, m in VERONESE_CASES:
            pts = exponents_upto(n, m)
            P = polytope_build(points=pts)
            assert n_inj_hilbert(P.points).order == m, (n, m)
            assert n_inj_max(P) == m, (n, m)
            assert n_surj_toric(P) == m, (n, m)
            assert n1_surj_toric(P) == m, (n, m)
            V = SubspaceV.from_monomials(n, pts)
            rng = random.Random(1000 + 10 * n + m)
            points = [rational_point(rng, n, nonzero=rng.random() < 0.7) for _ in range(10)]
            for rep in weierstrass_scan(V, points):
                assert rep.n_inj == m and rep.n_surj == m, (n, m, rep.point)


def test_criterion_2_hirzebruch_suite():
    with criterion(2, "Hirzebruch orders, vertex multiset, generators", 60):
        for r, k, l in HIRZEBRUCH_CASES:
            pts = hirzebruch_points(r, k, l)
            P = polytope_build(points=pts)
            assert n_inj_hilbert(P.points).order == k, (r, k, l)
            assert n_inj_max(P) == k + l, (r, k, l)
            assert n_surj_toric(P) == min(l, k - l * r), (r, k, l)
            assert n1_surj_toric(P) == min(l, k - l * r), (r, k, l)
            vertex_orders = sorted(
                n_inj_at(chart_subspace(P, v), (F(0), F(0))).n_inj
                for v in P.vertices
            )
            assert vertex_orders == sorted([k, k, k + l, k + l]), (r, k, l)
            V = SubspaceV.from_monomials(2, pts)
            gens = hirzebruch_generators(r, k, l)
            assert all_preserve(gens, V), (r, k, l)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "Hilbert order equals generic jet rank order", 60):
        rng = random.Random(33)
        universe = [e for e in exponents_upto(2, 8) if max(e) <= 4]
        for _ in range(25):
            pts = sorted(rng.sample(universe, rng.randint(2, 8)))
            hilbert = n_inj_hilbert(pts).order
            V = SubspaceV.from_monomials(2, pts)
            assert V.generic_report.n_inj == hilbert, pts
            # third route: deterministic polynomial elimination on the jet matrix
            for n in range(V.max_degree + 1):
                J = jet_matrix(V, n, GENERIC)
                if rank_symbolic(J.entries, J.ncols) == V.dim:
                    assert n == hilbert, pts
                    break


def test_criterion_4_property_suite():
    with criterion(4, "500 randomized property cases"):
        from helpers import random_point_set, random_smooth_polytope, random_subspace

        cases = 0
        rng = random.Random(44)
        # (a) generic bound N_inj <= dim V - 1, monomial and dense bases
        for _ in range(110):
            V = random_subspace(rng)
            assert V.generic_report.n_inj <= V.dim - 1
            cases += 1
        # (b) d_gonal(P) - 1 <= N_inj(P)
        for _ in range(110):
            pts = random_point_set(rng, nvars=rng.choice((1, 2)), box=4)
            assert d_gonal(pts) - 1 <= n_inj_hilbert(pts).order
            cases += 1
        # (c) semicontinuity n_inj(x) >= N_inj
        for _ in range(110):
            V = random_subspace(rng)
            pt = rational_point(rng, V.nvars, nonzero=rng.random() < 0.5)
            assert n_inj_at(V, pt).n_inj >= V.generic_report.n_inj
            cases += 1
        # (d) chain n_surj <= n1_surj <= N_inj on smooth polytopes
        for _ in range(60):
            P = random_smooth_polytope(rng)
            ns, n1 = n_surj_toric(P), n1_surj_toric(P)
            assert ns <= n1 <= n_inj_hilbert(P.points).order
            cases += 1
        # (e) rank profiles increase to dim V and stabilize exactly at n_inj
        for _ in range(110):
            V = random_subspace(rng)
            pt = rational_point(rng, V.nvars, nonzero=False)
            prof = n_inj_at(V, pt).rank_profile
            assert prof[-1] == V.dim
            assert all(prof[i] <= prof[i + 1] for i in range(len(prof) - 1))
            assert len(prof) < 2 or prof[-2] < V.dim
            gen = V.generic_report.rank_profile
            assert all(gen[i] < gen[i + 1] for i in range(len(gen) - 1))
            cases += 1
        assert cases == 500


def test_criterion_5_irreducibility():
    with criterion(5, "End(V) image full at n_inj, monotone in n"):
        rng = random.Random(55)
        for i in range(10):
            nvars = 1 if i < 5 else 2
            universe = [e for e in exponents_upto(nvars, 5) if max(e) <= 5]
            pts = sorted(rng.sample(universe, rng.randint(2, 6)))
            V = SubspaceV.from_monomials(nvars, pts)
            # the supremum of n_inj(x) over the affine chart sits at the origin
            origin = (F(0),) * nvars
            n_inj = n_inj_at(V, origin).n_inj
            ranks = [evaluation_image(V, n).rank for n in range(n_inj + 1)]
            assert ranks == sorted(ranks), pts
            assert ranks[-1] == V.dim ** 2, pts


def test_criterion_6_annihilator_vanishing():
    with criterion(6, "annihilator slices vanish up to n1_surj"):
        for n, m in VERONESE_CASES:
            pts = exponents_upto(n, m)
            n1 = n1_surj_toric(polytope_build(points=pts))
            for w in weight_window(pts):
                for order in range(n1 + 1):
                    assert annihilator_weight_dim(pts, w, order) == 0, (n, m, w, order)
        for r, k, l in HIRZEBRUCH_CASES:
            pts = hirzebruch_points(r, k, l)
            n1 = n1_surj_toric(polytope_build(points=pts))
            for w in weight_window(pts):
                for order in range(n1 + 1):
                    assert annihilator_weight_dim(pts, w, order) == 0, (r, k, l, w, order)


def test_criterion_7_sl_example():
    with criterion(7, "sl generators preserve V_m; image ranks for (1,2)"):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                V = veronese_subspace(n, m)
                assert all_preserve(sl_generators(n, m), V), (n, m)
        V = veronese_subspace(1, 2)
        assert evaluation_image(V, 1).rank == 4
        assert evaluation_image(V, 2).rank == 9


def test_criterion_8_weierstrass_detection():
    with criterion(8, "Weierstrass detection: cubic gap and Hirzebruch locus"):
        V = SubspaceV.from_monomials(1, [(0,), (1,), (3,)])
        generic = V.generic_report
        assert generic.n_inj == 2
        rep0 = n_inj_at(V, (F(0),))
        assert rep0.n_inj == 3
        assert rep0.rank_profile == (1, 2, 2, 3)
        minors = weierstrass_minors(V)
        assert len(minors.minors) == 1
        [minor] = minors.minors
        assert str(minor.normalized()) == "x"  # 3x up to scalar
        assert str(minor) == "3*x"

        r, k, l = 1, 3, 1
        P = polytope_build(points=hirzebruch_points(r, k, l))
        # oracle identifies the k+l vertices; scan the chart with the
        # transverse-to-long-edge coordinate first
        heavy = [v for v in P.vertices
                 if n_inj_at(chart_subspace(P, v), (F(0), F(0))).n_inj == k + l]
        assert sorted(heavy) == [(0, 1), (2, 1)]  # the published table labels these two differently
        vertex = (0, 1)
        dirs = P.vertex_directions(vertex)  # ((0,-1), (1,0)): transverse first
        chart, _ = vertex_chart(P, vertex, dirs)
        Vc = SubspaceV.from_monomials(2, chart)
        rng = random.Random(88)
        locus = [(F(0), rational_point(rng, 1)[0]) for _ in range(3)]
        others = [rational_point(rng, 2) for _ in range(3)] + [(rational_point(rng, 1)[0], F(0))]
        reports = weierstrass_scan(Vc, locus + others)
        assert [rep.n_inj for rep in reports[:3]] == [k + l] * 3
        assert all(rep.n_inj == k for rep in reports[3:])
        assert all(rep.weierstrass_order == l - 1 for rep in reports[:3])


def test_criterion_9_cross_method_agreement():
    with criterion(9, "weight-graded image equals dense computation"):
        rng = random.Random(99)
        cases = []
        for _ in range(8):
            universe = [e for e in exponents_upto(1, 5)]
            pts = sorted(rng.sample(universe, rng.randint(2, 6)))
            cases.append((1, pts, rng.randint(1, 3)))
        for _ in range(6):
            universe = [e for e in exponents_upto(2, 4) if max(e) <= 2]
            pts = sorted(rng.sample(universe, rng.randint(3, 6)))
            cases.append((2, pts, rng.randint(1, 2)))
        for nvars, pts, order in cases:
            V = SubspaceV.from_monomials(nvars, pts)
            assert evaluation_image(V, order).rank == evaluation_image_dense_rank(V, order), \
                (pts, order)
