"""Randomized invariants tying the modules together (all seeded)."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import comb

import pytest

from helpers import (
    evaluation_image_dense_rank,
    oracle_d_gonal,
    oracle_hilbert,
    oracle_minors,
    random_dense_subspace,
    random_monomial_subspace,
    random_point_set,
    random_smooth_polytope,
    random_subspace,
    rational_point,
)
from jetorders.algebra import Polynomial, exponents_upto
from jetorders.linalg import det_exact, rank_exact
from jetorders.diffops import (
    annihilator_weight_dim,
    check_irreducible,
    evaluation_image,
    weight_window,
)
from jetorders.jets import (
    SubspaceV,
    jet_matrix,
    n_inj_at,
    weierstrass_minors,
)
from jetorders.toric import d_gonal, n1_surj_toric, n_inj_hilbert, n_surj_toric


def test_semicontinuity_at_rational_points():
    rng = random.Random(21)
    for _ in range(40):
        V = random_subspace(rng)
        generic = V.generic_report
        pt = rational_point(rng, V.nvars, nonzero=rng.random() < 0.5)
        rep = n_inj_at(V, pt)
        assert rep.n_inj >= generic.n_inj
        assert rep.weierstrass_order == rep.n_inj - generic.n_inj - 1


def test_generic_bound_dim_minus_one():
    rng = random.Random(22)
    for _ in range(40):
        V = random_subspace(rng)
        assert V.generic_report.n_inj <= V.dim - 1


def test_generic_gap_sequence_has_no_holes():
    # at the generic point the rank strictly increases at every order, so
    # the gap sequence is exactly 1, 2, ..., N_inj
    rng = random.Random(36)
    for _ in range(25):
        V = random_subspace(rng)
        rep = V.generic_report
        assert rep.gap_sequence == tuple(range(1, rep.n_inj + 1))


def test_rank_profile_shape():
    rng = random.Random(23)
    for _ in range(40):
        V = random_subspace(rng)
        pt = rational_point(rng, V.nvars, nonzero=False)
        rep = n_inj_at(V, pt)
        prof = rep.rank_profile
        assert prof[-1] == V.dim
        assert all(prof[i] <= prof[i + 1] for i in range(len(prof) - 1))
        assert all(prof[n] <= min(V.dim, comb(n + V.nvars, V.nvars))
                   for n in range(len(prof)))
        assert rep.gap_sequence == tuple(i for i in range(1, len(prof))
                                         if prof[i] > prof[i - 1])
        if len(prof) >= 2:
            assert prof[-2] < V.dim  # n_inj is the first full-rank order
        gen = V.generic_report.rank_profile
        assert all(gen[i] < gen[i + 1] for i in range(len(gen) - 1))


def test_surjectivity_chain_on_smooth_polytopes():
    rng = random.Random(24)
    for _ in range(25):
        P = random_smooth_polytope(rng)
        ns = n_surj_toric(P)
        n1 = n1_surj_toric(P)
        ninj = n_inj_hilbert(P.points).order
        assert ns <= n1 <= ninj
        # pointwise n_surj at random points never exceeds N_inj
        V = P.subspace()
        pt = rational_point(rng, P.nvars)
        assert n_inj_at(V, pt).n_surj <= ninj


def test_d_gonal_lower_bound():
    rng = random.Random(25)
    for _ in range(60):
        pts = random_point_set(rng, nvars=rng.choice((1, 2)), box=4)
        assert d_gonal(pts) - 1 <= n_inj_hilbert(pts).order


def _transformed_point_set(rng, kind, nvars):
    """A random point set of one kind: in a box at the origin, translated
    far from it, with negative coordinates, on a proper sublattice (a
    full-rank integer image of |det| > 1, or a rank-2 image in 3-space), or
    collinear."""
    if kind == "collinear":
        d = [0] * nvars
        while not any(d):
            d = [rng.randint(-3, 3) for _ in range(nvars)]
        base = [rng.randint(-50, 50) for _ in range(nvars)]
        steps = rng.sample(range(-6, 7), rng.randint(2, 6))
        return [tuple(b + t * x for b, x in zip(base, d)) for t in steps]
    if kind == "embedded":
        # a planar set on a rank-2 sublattice of Z^3
        rows = [[0, 0]]
        while rank_exact(rows, 2) < 2:
            rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
        return [tuple(a * p[0] + b * p[1] for a, b in rows)
                for p in random_point_set(rng, nvars=2, box=3, max_size=7)]
    pts = random_point_set(rng, nvars=nvars, box=3, max_size=7)
    if kind == "translated":
        shift = [rng.randint(10 ** 6, 10 ** 9) * rng.choice((-1, 1)) for _ in range(nvars)]
        return [tuple(x + s for x, s in zip(p, shift)) for p in pts]
    if kind == "negative":
        signs = [rng.choice((-1, 1)) for _ in range(nvars)]
        return [tuple(s * x - 2 for x, s in zip(p, signs)) for p in pts]
    if kind == "sublattice":
        m = [[0] * nvars for _ in range(nvars)]
        while abs(det_exact(m)) < 2:
            m = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(nvars)]
        return [tuple(sum(a * x for a, x in zip(row, p)) for row in m) for p in pts]
    return pts


def test_hilbert_and_d_gonal_match_lattice_oracles():
    rng = random.Random(29)
    kinds = ("box", "translated", "negative", "sublattice", "embedded", "collinear")
    for i in range(180):
        kind = kinds[i % len(kinds)]
        pts = _transformed_point_set(rng, kind, rng.choice((1, 2, 3)))
        assert n_inj_hilbert(pts) == oracle_hilbert(pts), (kind, pts)
        assert d_gonal(pts) == oracle_d_gonal(pts), (kind, pts)


def test_hilbert_of_reflected_point_sets_matches_lattice_oracle():
    # reflections x_i -> c_i - x_i on random axes, then a translation: the
    # order bound comes from the tightest reflection, the profile must not
    # move
    rng = random.Random(65)
    for i in range(160):
        nvars = rng.choice((1, 2, 3))
        if i % 4 == 0:
            pts = exponents_upto(nvars, rng.randint(1, 3))
        else:
            pts = random_point_set(rng, nvars=nvars, box=rng.randint(1, 4), max_size=9)
        flip = [rng.random() < 0.5 for _ in range(nvars)]
        centre = [rng.randint(0, 8) for _ in range(nvars)]
        shift = [rng.randint(-20, 20) for _ in range(nvars)]
        image = [tuple((c - x if f else x) + t for x, f, c, t in zip(p, flip, centre, shift))
                 for p in pts]
        assert n_inj_hilbert(image) == oracle_hilbert(image), (pts, flip, image)


def test_minors_cut_out_exactly_the_weierstrass_points():
    rng = random.Random(26)
    tested = 0
    while tested < 12:
        V = random_monomial_subspace(rng, nvars=1, max_size=5, box=5)
        rep = weierstrass_minors(V, cap=500)
        if rep.truncated:
            continue
        tested += 1
        generic = V.generic_report
        for _ in range(4):
            pt = rational_point(rng, 1, nonzero=rng.random() < 0.5)
            in_locus = all(m(pt) == 0 for m in rep.minors)
            assert in_locus == (n_inj_at(V, pt).n_inj > generic.n_inj)


def test_oracle_equivalence_hilbert_vs_jets():
    rng = random.Random(27)
    for _ in range(15):
        pts = random_point_set(rng, nvars=2, box=4, max_size=8)
        V = SubspaceV.from_monomials(2, pts)
        assert n_inj_hilbert(pts).order == V.generic_report.n_inj


def test_evaluation_image_reaches_full_at_n_inj():
    rng = random.Random(28)
    for _ in range(8):
        V = random_monomial_subspace(rng, max_size=5, box=3)
        # n_inj(V) over the chart is attained at the origin (monomial case)
        n_inj = n_inj_at(V, (F(0),) * V.nvars).n_inj
        image = evaluation_image(V, n_inj)
        assert image.rank == V.dim ** 2


def test_annihilator_zero_below_n1_on_smooth_polytopes():
    rng = random.Random(29)
    for _ in range(10):
        P = random_smooth_polytope(rng)
        if P.nvars > 2:
            continue  # keep the weight scan small
        n1 = n1_surj_toric(P)
        pts = list(P.points)
        for w in weight_window(pts):
            for n in range(n1 + 1):
                assert annihilator_weight_dim(pts, w, n) == 0


def test_n_surj_toric_matches_pointwise_infimum():
    # the infimum of n_surj(x) sits at the torus-fixed points, i.e. the
    # vertex-chart origins; the toric formula says it equals the minimal
    # edge length
    import jetorders.toric as toric
    from jetorders.algebra import exponents_upto
    from jetorders.verify import hirzebruch_points

    polys = [
        toric.polytope_build(points=exponents_upto(1, 3)),
        toric.polytope_build(points=exponents_upto(2, 2)),
        toric.polytope_build(points=hirzebruch_points(1, 3, 1)),
        toric.polytope_build(points=hirzebruch_points(2, 5, 2)),
        toric.polytope_build(points=[(i, j) for i in range(4) for j in range(2)]),
    ]
    for P in polys:
        origin = (F(0),) * P.nvars
        pointwise = min(
            n_inj_at(toric.chart_subspace(P, v), origin).n_surj for v in P.vertices
        )
        assert pointwise == n_surj_toric(P), P


def test_n1_surj_faces_match_random_orbit_points():
    # the generic-orbit surjectivity order is realized at seeded random
    # rational points of the orbit (surjectivity only drops on closed subsets)
    import jetorders.toric as toric
    from jetorders.verify import hirzebruch_points

    rng = random.Random(41)
    for pts in (hirzebruch_points(1, 3, 1), hirzebruch_points(1, 3, 2)):
        P = toric.polytope_build(points=pts)
        for face, expected in toric.n1_surj_by_face(P).items():
            vertex = face.spanning_vertex
            dirs = P.vertex_directions(vertex)
            chart, _ = toric.vertex_chart(P, vertex, dirs)
            V = SubspaceV.from_monomials(P.nvars, chart)
            tangent = [i for i, d in enumerate(dirs) if d in face.directions]
            point = tuple(
                rational_point(rng, 1)[0] if i in tangent else F(0)
                for i in range(P.nvars)
            )
            assert n_inj_at(V, point).n_surj == expected, face.label()


def test_evaluation_image_rank_is_weight_dimension_sum():
    # distinct weights act on disjoint matrix positions, so the image rank
    # decomposes exactly as sum over weights of (dim - annihilator dim)
    rng = random.Random(42)
    from jetorders.diffops import preserving_weight_space

    for _ in range(10):
        V = random_monomial_subspace(rng, max_size=6, box=4)
        n = rng.randint(0, 3)
        image = evaluation_image(V, n)
        total = sum(dim - ann for _, dim, ann in image.by_weight)
        assert image.rank == total


def test_evaluation_image_blocks_match_dense_oracle():
    # the weight-graded rank against the ungraded dense computation, on
    # spaces in one to three variables, below and at their injectivity order
    rng = random.Random(46)
    at_n_inj = 0
    for case in range(40):
        nvars = (1, 2, 3)[case % 3]
        box = {1: 5, 2: 2, 3: 1}[nvars]
        universe = [e for e in exponents_upto(nvars, nvars * box) if max(e) <= box]
        P = sorted(rng.sample(universe, rng.randint(2, 5 if nvars < 3 else 3)))
        V = SubspaceV.from_monomials(nvars, P)
        n_inj = n_inj_at(V, (F(0),) * nvars).n_inj
        # the ungraded oracle grows fast with the order and size in three variables
        top = 3 if nvars < 3 else 2
        n = n_inj if case % 4 == 0 and n_inj <= top else rng.randint(0, top)
        image = evaluation_image(V, n)
        assert image.rank == evaluation_image_dense_rank(V, n), (P, n)
        irreducible = check_irreducible(V, n)
        assert irreducible == (image.rank == V.dim ** 2), (P, n)
        assert irreducible or n < n_inj, (P, n)
        at_n_inj += n == n_inj
        pset = set(P)
        for w, dim, ann in image.by_weight:
            block = sum(tuple(a + b for a, b in zip(m, w)) in pset for m in P)
            assert 0 <= dim - ann <= block, (P, n, w)
    assert at_n_inj >= 10


def test_pointwise_n_surj_bounded_by_generic_n_inj():
    rng = random.Random(43)
    for _ in range(30):
        V = random_subspace(rng)
        generic = V.generic_report
        pts = [rational_point(rng, V.nvars, nonzero=rng.random() < 0.5) for _ in range(3)]
        assert min(n_inj_at(V, p).n_surj for p in pts) <= generic.n_inj


def test_orbit_values_match_pointwise_oracle():
    # n_inj along a face orbit equals n_inj at a random rational point of
    # the orbit in the vertex chart (tangent coordinates nonzero, transverse 0)
    import jetorders.toric as toric
    from jetorders.algebra import exponents_upto
    from jetorders.verify import hirzebruch_points

    rng = random.Random(31)
    polys = [
        toric.polytope_build(points=exponents_upto(2, 2)),
        toric.polytope_build(points=hirzebruch_points(1, 3, 1)),
        toric.polytope_build(points=hirzebruch_points(2, 5, 2)),
    ]
    for P in polys:
        generic = n_inj_hilbert(P.points).order
        for face in P.faces:
            vertex = face.spanning_vertex
            dirs = P.vertex_directions(vertex)
            chart, _ = toric.vertex_chart(P, vertex, dirs)
            V = SubspaceV.from_monomials(P.nvars, chart)
            tangent = [i for i, d in enumerate(dirs) if d in face.directions]
            point = tuple(
                rational_point(rng, 1)[0] if i in tangent else F(0)
                for i in range(P.nvars)
            )
            expected = toric.n_inj_face(P, face)
            assert V.generic_report.n_inj == generic, (P, face.label())
            assert n_inj_at(V, point).n_inj == expected, \
                (P, face.label())


def test_n_inj_max_matches_chart_origin_oracle():
    # the supremum of n_inj over the toric variety is attained at the
    # torus-fixed points; compare the vertex formula with pointwise jet
    # ranks at every vertex-chart origin
    import jetorders.toric as toric

    rng = random.Random(45)
    for _ in range(12):
        P = random_smooth_polytope(rng)
        by_oracle = max(
            n_inj_at(toric.chart_subspace(P, v), (F(0),) * P.nvars).n_inj
            for v in P.vertices
        )
        assert by_oracle == toric.n_inj_max(P)


def test_dense_minors_match_polynomial_determinant_oracle():
    # the integer column DP over Taylor terms against Polynomial determinants
    # of the symbolic jet matrix, whose entries come from
    # Polynomial.derivative and share no code with SubspaceV.taylor_terms
    rng = random.Random(47)
    cases = [(random_dense_subspace(rng, nvars, max_dim=4, degree=3), 60)
             for nvars in (1, 2) for _ in range(6)]
    cases += [(random_dense_subspace(rng, 2, max_dim=5, degree=4), 60) for _ in range(2)]
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    rational = SubspaceV(2, [Polynomial.constant(2, F(1, 2)), x * F(2, 3) + y * y,
                             x * x * y * F(-5, 7) + y * F(1, 4), x * x * x * F(3, 5) - y])
    cases += [(rational, 60), (rational, 4)]
    for V, cap in cases:
        rep = weierstrass_minors(V, cap=cap)
        assert rep.minors and rep.truncated == (rep.total > cap)
        assert list(rep.minors) == oracle_minors(V, rep.order, cap), V.basis
    assert rep.truncated


def test_minors_locus_two_variables():
    # for monomial V every maximal minor is a constant times a monomial, so
    # the chart Weierstrass locus is a union of coordinate hyperplanes
    V = SubspaceV.from_monomials(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 1)])
    rep = weierstrass_minors(V, cap=4000)
    assert not rep.truncated
    assert all(len(m._terms) == 1 for m in rep.minors)
    generic = V.generic_report
    rng = random.Random(46)
    for pt in [(F(0), F(2)), (F(1), F(0)), (F(0), F(0)),
               rational_point(rng, 2), rational_point(rng, 2)]:
        in_locus = all(m(pt) == 0 for m in rep.minors)
        assert in_locus == (n_inj_at(V, pt).n_inj > generic.n_inj), pt


def test_jet_matrix_transpose_duality():
    rng = random.Random(30)
    for _ in range(20):
        V = random_subspace(rng)
        pt = rational_point(rng, V.nvars, nonzero=False)
        J = jet_matrix(V, rng.randint(0, max(V.max_degree, 1)), pt)
        assert rank_exact(J.entries) == rank_exact(list(zip(*J.entries)))


def _orbit_point(rng, nvars):
    """A rational point with a seeded random set of zero coordinates."""
    return tuple(F(0) if rng.random() < 0.4 else rational_point(rng, 1)[0]
                 for _ in range(nvars))


def test_jet_rank_profiles_match_per_order_oracles():
    # one elimination of C_Z (monomial V) or of the top-order jet matrix
    # (dense V at a point) against one jet matrix and one rank per order
    from helpers import oracle_profile, random_dense_subspace
    from jetorders.jets import GENERIC, weierstrass_scan

    rng = random.Random(61)
    for _ in range(45):
        nvars = rng.choice((1, 2, 3))
        V = random_monomial_subspace(rng, nvars=nvars, max_size=8, box=4 if nvars < 3 else 3)
        generic = V.generic_report
        assert generic.rank_profile == oracle_profile(V, GENERIC), V.monomial_points
        assert generic.method == "monomial-scaling"
        points = [_orbit_point(rng, nvars) for _ in range(4)]
        for rep in weierstrass_scan(V, points):
            assert rep.rank_profile == oracle_profile(V, rep.point), (V.monomial_points, rep.point)
            assert rep.method == "exact"
            assert rep == n_inj_at(V, rep.point)
    for _ in range(25):
        V = random_dense_subspace(rng, rng.choice((1, 2)), max_dim=5, degree=4)
        for _ in range(2):
            pt = _orbit_point(rng, V.nvars)
            rep = n_inj_at(V, pt)
            assert rep.rank_profile == oracle_profile(V, pt), (V.basis, pt)
            assert rep.method == "exact"


def test_face_n1_surj_matches_symbolic_oracle():
    # every codimension-1 face of the toric suite polytopes: the column
    # prefixes of C_Z against the transverse-substituted symbolic jet matrix
    import jetorders.toric as toric
    from helpers import oracle_face_n_surj
    from jetorders.verify import hirzebruch_family, veronese_family

    polys = [veronese_family(n, m).polytope for n in (1, 2, 3) for m in (1, 2, 3)]
    polys += [hirzebruch_family(*c).polytope for c in ((1, 2, 1), (1, 3, 1), (2, 5, 2),
                                                       (3, 7, 2), (1, 5, 3))]
    rng = random.Random(62)
    polys += [random_smooth_polytope(rng) for _ in range(12)]
    faces = 0
    for P in polys:
        for face, value in toric.n1_surj_by_face(P).items():
            assert value == oracle_face_n_surj(P, face), (P.points, face.label())
            faces += 1
    assert faces >= 60


def _lattice_image(rng, vertices):
    """A seeded axis permutation, reflection and translation of a vertex
    list, every coordinate kept non-negative."""
    n = len(vertices[0])
    perm = rng.sample(range(n), n)
    flip = [rng.random() < 0.5 for _ in range(n)]
    shift = [rng.randint(0, 5) for _ in range(n)]
    top = [max(v[i] for v in vertices) for i in range(n)]
    out = []
    for v in vertices:
        w = [top[i] - v[i] if flip[i] else v[i] for i in range(n)]
        out.append(tuple(w[perm[i]] + shift[i] for i in range(n)))
    return out


def test_chart_faces_match_hull_oracle():
    # the faces cut from the vertex charts against the rank route over the
    # hull data, record by record, on lattice images of the toric bench
    # classes and on random smooth polytopes (segments included)
    import jetorders.toric as toric
    from helpers import oracle_faces

    rng = random.Random(67)
    simplices = [[(0,) * n] + [tuple(m * (i == j) for j in range(n)) for i in range(n)]
                 for n, m in ((2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4))]
    hirzebruch = [[(0, 0), (k, 0), (0, l), (k - l * r, l)]
                  for r, k, l in ((1, 4, 2), (1, 5, 3), (1, 6, 3))]
    boxes = [list(itertools.product(*[(0, side) for side in sides]))
             for sides in ((1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3))]
    polys = [toric.polytope_build(vertices=_lattice_image(rng, vertices))
             for vertices in simplices + hirzebruch + boxes for _ in range(4)]
    polys += [random_smooth_polytope(rng) for _ in range(200)]
    assert any(P.nvars == 1 for P in polys)
    for P in polys:
        assert Counter(P.faces) == Counter(oracle_faces(P)), P.points
    # a vertex chart that fails the basis condition stops the face pass
    for bad in (toric.polytope_build(vertices=[(0, 0), (2, 0), (0, 1)]),
                toric.polytope_build(points=[(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])):
        with pytest.raises(toric.BasisConditionError):
            bad.faces


def test_face_n1_surj_matches_whole_chart_prefix_ranks():
    # the block formula over slice profiles against one elimination of the
    # whole chart's C_Z, on every codimension-1 face
    import jetorders.toric as toric
    from helpers import oracle_face_n_surj_cz

    rng = random.Random(66)
    polys = [random_smooth_polytope(rng) for _ in range(40)]
    assert any(P.nvars == 1 for P in polys)  # segments: the faces are vertices
    simplices = [[(0,) * n] + [tuple(m * (i == j) for j in range(n)) for i in range(n)]
                 for n, m in ((2, 4), (2, 6), (3, 2), (3, 3), (3, 4))]
    hirzebruch = [[(0, 0), (k, 0), (0, l), (k - l * r, l)]
                  for r, k, l in ((1, 4, 2), (1, 5, 3), (1, 6, 3), (2, 5, 2))]
    for vertices in simplices + hirzebruch:
        for _ in range(3):
            polys.append(toric.polytope_build(vertices=_lattice_image(rng, vertices)))
    faces = 0
    for P in polys:
        for face, value in toric.n1_surj_by_face(P).items():
            assert value == oracle_face_n_surj_cz(P, face), (P.points, face.label())
            faces += 1
    assert faces >= 240


def _linear_form_powers(rng):
    """{s_k L^k : k <= top} for a seeded linear form L = a x + b y + c."""
    from jetorders.algebra import Polynomial

    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    a, b, c = (rng.randint(1, 3) * rng.choice((-1, 1)) for _ in range(3))
    form = a * x + b * y + Polynomial.constant(2, c)
    basis = [Polynomial.constant(2, 1)]
    for _ in range(rng.randint(2, 5)):
        basis.append(basis[-1] * form)
    return SubspaceV(2, [rng.choice((-2, -1, 1, 3)) * p for p in basis])


def _factor_times_univariate(rng):
    """(c + d y^e) W for a dense space W in x alone: the columns'
    coefficient vectors over Q overcount the rank, so the grid decides."""
    from helpers import random_dense_subspace
    from jetorders.algebra import Polynomial

    c, d = (rng.randint(1, 4) * rng.choice((-1, 1)) for _ in range(2))
    y_power = Polynomial.monomial((0, rng.randint(1, 2)), d)
    factor = Polynomial.constant(2, c) + y_power
    W = random_dense_subspace(rng, 1, max_dim=4, degree=3)
    lifted = [Polynomial(2, {(e[0], 0): v for e, v in p.items()}) for p in W.basis]
    return SubspaceV(2, [factor * p for p in lifted])


def test_generic_dense_profiles_match_symbolic_oracle():
    # certified evaluation against fraction-free elimination over Q[x]; the
    # columns' rational rank bounds the profile and is exact on powers of a
    # linear form, whose equal-degree jet columns are proportional
    from helpers import oracle_profile, random_dense_subspace
    from jetorders.jets import GENERIC, _column_bounds

    rng = random.Random(63)
    spaces = []
    for _ in range(260):
        nvars = rng.choice((1, 2))
        spaces.append(("dense", random_dense_subspace(rng, nvars, max_dim=5, degree=5 - nvars)))
    spaces += [("powers", _linear_form_powers(rng)) for _ in range(25)]
    spaces += [("factor", _factor_times_univariate(rng)) for _ in range(25)]
    checked = 0
    for kind, V in spaces:
        if V.is_monomial:
            continue
        rep = V.generic_report
        oracle = oracle_profile(V, GENERIC)
        assert rep.rank_profile == oracle, (kind, V.basis)
        assert rep.method == "evaluation" and rep.certified
        widths = [comb(n + V.nvars, V.nvars) for n in range(V.max_degree + 1)]
        bounds = [min(V.dim, b) for b in _column_bounds(V.taylor_terms, widths)][:len(oracle)]
        assert all(b >= r for b, r in zip(bounds, oracle)), (kind, V.basis)
        if kind == "powers":
            assert tuple(bounds) == oracle, V.basis
        checked += 1
    assert checked >= 300
