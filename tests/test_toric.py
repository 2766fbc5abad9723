from collections import Counter

import pytest

from jetorders import toric
from jetorders.toric import (
    BasisConditionError,
    DegeneratePolytopeError,
    NonSaturatedInputError,
    chart_subspace,
    d_gonal,
    edge_stats,
    n1_surj_by_face,
    n1_surj_toric,
    n_inj_face,
    n_inj_hilbert,
    n_inj_max,
    n_inj_vertex_formula,
    n_surj_toric,
    polytope_build,
    smooth_check,
    toric_report,
    very_ample_check,
    vertex_chart,
)
from jetorders.verify import hirzebruch_points


def simplex(m, n=2):
    from jetorders.algebra import exponents_upto

    return polytope_build(points=exponents_upto(n, m))


def hirz(r, k, l):
    return polytope_build(points=hirzebruch_points(r, k, l))


def test_polytope_build_hirzebruch():
    P = polytope_build(vertices=[(0, 0), (3, 0), (0, 1), (2, 1)])
    assert len(P.points) == 7
    assert sorted(e.length for e in P.edges) == [1, 1, 2, 3]


def test_polytope_build_simplex():
    P = simplex(2)
    assert len(P.points) == 6
    assert [e.length for e in P.edges] == [2, 2, 2]


def test_polytope_build_single_point():
    P = polytope_build(points=[(5, 7)])
    assert P.vertices == ((5, 7),) and P.edges == ()


def test_polytope_build_rejects_missing_interior_points():
    with pytest.raises(NonSaturatedInputError):
        polytope_build(points=[(0, 0), (2, 0), (0, 2), (2, 2)])  # missing (1,1) etc


def test_polytope_edges_carry_primitive_data():
    P = hirz(1, 3, 1)
    for e in P.edges:
        diff = tuple(b - a for a, b in zip(*e.endpoints))
        assert diff == tuple(e.length * d for d in e.direction)


def test_smooth_check():
    assert smooth_check(simplex(2)).smooth
    bad = polytope_build(vertices=[(0, 0), (2, 0), (0, 1)])
    rep = smooth_check(bad)
    assert not rep.smooth
    assert (0, 1) in rep.failing_vertices()
    assert smooth_check(hirz(1, 3, 1)).smooth
    with pytest.raises(DegeneratePolytopeError):
        smooth_check(polytope_build(points=[(1, 1)]))


def test_very_ample():
    assert very_ample_check(simplex(1)) is True
    assert very_ample_check(simplex(2)) is True
    # non-smooth polytopes run the saturation scan itself: every lattice
    # polygon is normal, and the points of the tetrahedron span only an
    # index-2 sublattice
    bad = polytope_build(vertices=[(0, 0), (2, 0), (0, 1)])
    assert very_ample_check(bad, search_bound=5) is True
    tetra = polytope_build(points=[(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert very_ample_check(tetra, search_bound=3) is False


def test_edge_stats():
    assert edge_stats(simplex(3)).s == 3
    P = hirz(1, 3, 1)
    assert sorted(l for _, l in edge_stats(P).lengths) == [1, 1, 2, 3]
    assert edge_stats(P).s == 1
    P2 = hirz(2, 5, 2)
    assert edge_stats(P2).s == 1
    with pytest.raises(DegeneratePolytopeError):
        edge_stats(polytope_build(points=[(0, 0)]))


def test_d_gonal():
    assert d_gonal(simplex(3)) == 4
    assert d_gonal(hirz(1, 3, 1)) == 4
    assert d_gonal(polytope_build(points=[(4, 4)])) == 1


def test_n_inj_hilbert():
    assert n_inj_hilbert(simplex(3).points).order == 3
    assert n_inj_hilbert(hirz(1, 3, 1).points).order == 3
    res = n_inj_hilbert([(0, 0), (1, 1), (2, 2)])
    assert res.order == 2
    assert res.profile == (1, 2, 3)
    assert n_inj_hilbert([(0, 2)]).order == 0
    with pytest.raises(ValueError, match="empty"):
        n_inj_hilbert([])
    with pytest.raises(ValueError, match="unequal length"):
        n_inj_hilbert([(1, 2), (3,)])


def test_n_inj_hilbert_sublattice_reduction():
    # scaled copies have the same order as the reduced set
    assert n_inj_hilbert([(0, 0), (2, 0), (4, 0), (0, 2)]).order == \
        n_inj_hilbert([(0, 0), (1, 0), (2, 0), (0, 1)]).order


def test_n_inj_face_values():
    P = hirz(1, 3, 1)
    by_label = {f.label(): n_inj_face(P, f) for f in P.faces}
    assert by_label["edge ((0, 0), (3, 0))"] == 3  # bottom
    assert by_label["edge ((0, 1), (2, 1))"] == 4  # top
    assert by_label["vertex (0, 1)"] == 4
    assert by_label["dim-2 face ((0, 0), (0, 1), (2, 1), (3, 0))"] == 3
    S = simplex(2)
    vert = next(f for f in S.faces if f.dim == 0 and f.spanning_vertex == (0, 0))
    assert n_inj_face(S, vert) == 2


def test_n_inj_face_requires_smooth():
    bad = polytope_build(vertices=[(0, 0), (2, 0), (0, 1)])
    with pytest.raises(BasisConditionError):
        n_inj_face(bad, bad.faces[0])
    with pytest.raises(BasisConditionError):
        n_surj_toric(bad)


def test_n_inj_max():
    assert n_inj_max(simplex(3)) == 3
    assert n_inj_max(hirz(1, 3, 1)) == 4
    assert n_inj_max(hirz(2, 5, 2)) == 7


def test_n_surj_toric():
    assert n_surj_toric(simplex(3)) == 3
    assert n_surj_toric(hirz(1, 3, 1)) == 1
    assert n_surj_toric(hirz(2, 5, 2)) == 1


def test_n1_surj_toric():
    assert n1_surj_toric(simplex(2)) == 2
    assert n1_surj_toric(hirz(1, 3, 1)) == 1
    assert n1_surj_toric(hirz(1, 2, 1)) == 1
    # k - lr < l: only the short top edge drops below l
    values = sorted(n1_surj_by_face(hirz(1, 3, 2)).values())
    assert values == [1, 2, 2, 2]
    assert n1_surj_toric(hirz(1, 3, 2)) == 1  # min{l, k - lr} = 1
    # k - lr > l: every edge orbit caps at l
    assert n1_surj_toric(hirz(1, 5, 2)) == 2  # min{l, k - lr} = 2


def test_vertex_chart_round_trip():
    P = hirz(1, 3, 1)
    chart, dirs = vertex_chart(P, (0, 1))
    assert all(all(c >= 0 for c in pt) for pt in chart)
    assert (0, 0) in chart  # the vertex goes to the origin
    V = chart_subspace(P, (0, 1))
    assert V.dim == 7


def test_vertex_formula_matches_faces():
    for P in (simplex(1), simplex(2), simplex(3), hirz(1, 3, 1), hirz(2, 5, 2)):
        for v in P.vertices:
            face = next(f for f in P.faces if f.dim == 0 and f.spanning_vertex == v)
            assert n_inj_vertex_formula(P, v) == n_inj_face(P, face)


def test_toric_report():
    rep = toric_report(hirz(1, 3, 1))
    assert rep.smooth and rep.very_ample
    assert rep.s == 1 and rep.d_gonal == 4
    assert rep.n_inj_generic == 3 and rep.n_inj_max == 4
    assert rep.n_surj == 1 and rep.n1_surj == 1
    assert sorted(v for _, v in rep.vertex_orders) == [3, 3, 4, 4]
    d = rep.to_dict()
    assert d["hilbert_profile"] == [1, 3, 5, 7]


def test_toric_report_non_smooth_without_orders():
    bad = polytope_build(vertices=[(0, 0), (2, 0), (0, 1)])
    rep = toric_report(bad, with_orders=False)
    assert rep.smooth is False and rep.n_surj is None
    with pytest.raises(BasisConditionError):
        toric_report(bad, with_orders=True)


def test_one_dimensional_polytopes():
    P = polytope_build(points=[(i,) for i in range(5)])
    assert n_surj_toric(P) == 4
    assert n1_surj_toric(P) == 4
    assert n_inj_max(P) == 4
    assert n_inj_hilbert(P.points).order == 4


def test_three_dimensional_simplex():
    P = simplex(2, n=3)
    assert len(P.points) == 10
    assert len(P.vertices) == 4
    assert len(P.edges) == 6
    assert len([f for f in P.faces if f.dim == 2]) == 4
    assert smooth_check(P).smooth
    assert n_surj_toric(P) == 2
    assert n_inj_max(P) == 2
    assert n1_surj_toric(P) == 2


def test_non_very_ample_empty_simplex():
    # conv{0, (1,1,0), (1,0,1), (0,1,1)}: (1,1,1) is in the vertex cone at 0
    # but not in the semigroup (all generator sums have even coordinate sum)
    P = polytope_build(points=[(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert not smooth_check(P).smooth
    assert very_ample_check(P, search_bound=3) is False


def test_non_smooth_but_very_ample_cone():
    # quadric-cone polytope: singular vertex, still saturated
    P = polytope_build(vertices=[(0, 0), (2, 0), (0, 1)])
    assert not smooth_check(P).smooth
    assert very_ample_check(P, search_bound=6) is True


def test_rank_four_explicit_data():
    from jetorders.toric import UnsupportedPolytopeError
    import itertools
    import pytest as _pytest

    corners = list(itertools.product((0, 1), repeat=4))
    edge_pairs = [
        (a, b)
        for a, b in itertools.combinations(corners, 2)
        if sum(x != y for x, y in zip(a, b)) == 1
    ]
    with _pytest.raises(UnsupportedPolytopeError):
        polytope_build(points=corners)  # hull enumeration stops at rank 3
    P = polytope_build(points=corners, vertices=corners, edges=edge_pairs)
    assert len(P.edges) == 32
    assert smooth_check(P).smooth
    assert very_ample_check(P) is True
    assert edge_stats(P).s == 1
    assert d_gonal(P) == 2
    assert n_inj_hilbert(P.points).order == 4  # multilinear interpolation degree
    assert n_inj_max(P) == 4  # opposite corner, coordinate sum 4
    assert n1_surj_toric(P) == 1  # faces come from the vertex charts in every rank


def test_rank_four_faces_and_orders():
    # the 4-cube, Delta_2 x Delta_2 and the Veronese (4, 2) simplex, each
    # given by its points, vertices and edges
    import itertools

    from helpers import oracle_face_n_surj_cz
    from jetorders.algebra import exponents_upto

    cube = list(itertools.product((0, 1), repeat=4))
    triangle = [(0, 0), (1, 0), (0, 1)]
    product = [a + b for a in triangle for b in triangle]
    simplex_vertices = [(0,) * 4] + [tuple(2 * (i == j) for j in range(4)) for i in range(4)]
    examples = [  # (points, vertices, edges), face count, n1_surj, n_inj_max
        ((cube, cube, [(a, b) for a, b in itertools.combinations(cube, 2)
                       if sum(x != y for x, y in zip(a, b)) == 1]), 81, 1, 4),
        ((product, product, [(p, q) for p, q in itertools.combinations(product, 2)
                             if p[:2] == q[:2] or p[2:] == q[2:]]), 49, 1, 2),
        ((exponents_upto(4, 2), simplex_vertices,
          list(itertools.combinations(simplex_vertices, 2))), 31, 2, 2),
    ]
    for (points, vertices, edges), nfaces, n1, nmax in examples:
        P = polytope_build(points=points, vertices=vertices, edges=edges)
        assert len(P.faces) == nfaces, nfaces
        codim1 = P.codim1_faces()
        assert codim1 and all(f.dim == 3 for f in codim1)
        assert n1_surj_toric(P) == n1 == min(oracle_face_n_surj_cz(P, f) for f in codim1)
        rep = toric_report(P)
        assert rep.n_inj_max == nmax and rep.n1_surj == n1
        assert len(rep.n_inj_by_face) == nfaces
        assert toric._checked_max([n_inj_vertex_formula(P, v) for v in P.vertices],
                                  [n_inj_face(P, f) for f in P.faces]) == nmax


def test_toric_report_computes_each_invariant_once(monkeypatch):
    P = simplex(4, n=3)
    assert len(P.faces) == 15 and len(P.vertices) == 4
    calls = Counter()
    for name in ("n_inj_face", "n_inj_vertex_formula", "smooth_check", "_affine_dim"):
        def counted(*args, _name=name, _original=getattr(toric, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(toric, name, counted)
    rep = toric_report(P)
    assert rep.n_inj_max == 4 and len(rep.n_inj_by_face) == 15
    assert calls == {"n_inj_face": 15, "n_inj_vertex_formula": 4, "smooth_check": 1,
                     "_affine_dim": 1}


def test_toric_report_builds_one_chart_per_vertex(monkeypatch):
    P = simplex(4, n=3)
    calls = Counter()
    original = toric.vertex_chart

    def counted(P_, vertex, directions=None):
        calls[vertex] += 1
        return original(P_, vertex, directions)

    monkeypatch.setattr(toric, "vertex_chart", counted)
    rep = toric_report(P)
    assert rep.n_inj_max == 4 and rep.n1_surj == 4
    assert set(calls) <= set(P.vertices)
    assert max(calls.values()) == 1


def test_n_inj_hilbert_raises_instead_of_looping(monkeypatch):
    from jetorders import jets
    from jetorders.jets import InternalConsistencyError

    points = simplex(2).points
    assert issubclass(InternalConsistencyError, RuntimeError)
    # a rank that stops rising below |P|
    monkeypatch.setattr(jets, "prefix_ranks", lambda rows, widths: [2] * len(widths))
    with pytest.raises(InternalConsistencyError, match="failed to increase"):
        n_inj_hilbert(points)
    # a rank that keeps rising without ever meeting |P| stops at the last
    # order of the profile, min(max |m|, |P| - 1) = 2
    monkeypatch.setattr(jets, "prefix_ranks",
                        lambda rows, widths: [len(points) + w for w in widths])
    with pytest.raises(InternalConsistencyError, match="by order 2"):
        n_inj_hilbert(points)


def test_toric_report_ranks_no_hilbert_evaluation_matrix(monkeypatch):
    from jetorders import jets, linalg

    calls = Counter()
    inside = []
    original_hilbert = toric.n_inj_hilbert

    def counted_hilbert(points):
        calls["n_inj_hilbert"] += 1
        inside.append(True)
        try:
            return original_hilbert(points)
        finally:
            inside.pop()

    def counted_rank(rows, ncols=None, _original=linalg.rank_exact):
        calls["rank_exact inside n_inj_hilbert" if inside else "rank_exact"] += 1
        return _original(rows, ncols)

    monkeypatch.setattr(toric, "n_inj_hilbert", counted_hilbert)
    for module in (toric, jets, linalg):
        monkeypatch.setattr(module, "rank_exact", counted_rank)
    rep = toric_report(simplex(4, n=3))
    assert rep.n_inj_generic == 4 and rep.n_inj_max == 4
    assert calls["n_inj_hilbert"] > 1  # the whole polytope and the slices of its faces
    assert calls["rank_exact inside n_inj_hilbert"] == 0


def test_lattice_row_basis_on_fibonacci_column():
    from helpers import _lattice_row_basis

    # consecutive Fibonacci numbers make the Euclidean reduction longest
    fib = [0, 1]
    while len(fib) < 31:
        fib.append(fib[-1] + fib[-2])
    assert _lattice_row_basis([[fib[30]], [fib[29]]]) == [[1]]
    basis = _lattice_row_basis([[fib[30], 1], [fib[29], 0]])
    assert [row[0] for row in basis] == [1, 0]
    # the lattice keeps its index |det| = F_29
    assert basis[1][1] == fib[29]


def test_n_inj_hilbert_width_from_the_tightest_reflection(monkeypatch):
    # the Veronese (3,4) simplex reflected on every axis has |m| up to 12,
    # but reflecting it back gives |m| <= 4, so C_empty stops at order 4;
    # so does every other reflection of it
    import itertools

    from jetorders import jets
    from jetorders.algebra import exponents_upto

    orders = []
    original = jets.binomial_rows

    def recording(points, n, zeros=()):
        orders.append(n)
        return original(points, n, zeros)

    monkeypatch.setattr(jets, "binomial_rows", recording)
    simplex_points = exponents_upto(3, 4)
    expected = n_inj_hilbert(simplex_points)
    assert expected.order == 4
    reflected = [tuple(4 - x for x in p) for p in simplex_points]
    assert max(map(sum, reflected)) == 12
    for flip in itertools.product((False, True), repeat=3):
        orders.clear()
        image = [tuple(4 - x if f else x for x, f in zip(p, flip)) for p in simplex_points]
        assert n_inj_hilbert(image) == expected
        assert orders and max(orders) <= 4, flip


def _translated_slice_shapes(P):
    """The distinct slices of every positive-dimensional face, each
    translated to its coordinatewise minimum and sorted."""
    shapes = set()
    for face in P.faces:
        if face.dim == 0:
            continue
        chart, dirs = vertex_chart(P, face.spanning_vertex)
        tangent = [i for i, d in enumerate(dirs) if d in face.directions]
        slices = {}
        for c in chart:
            key = tuple(x for i, x in enumerate(c) if i not in tangent)
            slices.setdefault(key, []).append(tuple(c[i] for i in tangent))
        for pts in slices.values():
            low = [min(x) for x in zip(*pts)]
            shapes.add(tuple(sorted(tuple(x - l for x, l in zip(p, low)) for p in pts)))
    return shapes


def test_toric_report_computes_each_slice_shape_once(monkeypatch):
    from jetorders import jets

    hilbert_args = []
    zero_sets = []
    original_hilbert = toric.n_inj_hilbert

    def counted_hilbert(points):
        hilbert_args.append(tuple(map(tuple, points)))
        return original_hilbert(points)

    def counted_prefix_ranks(points, top, zeros=(), _original=jets.monomial_prefix_ranks):
        zero_sets.append(tuple(zeros))
        return _original(points, top, zeros)

    monkeypatch.setattr(toric, "n_inj_hilbert", counted_hilbert)
    for module in (toric, jets):
        monkeypatch.setattr(module, "monomial_prefix_ranks", counted_prefix_ranks)
    box = polytope_build(points=[(i, j, k) for i in range(2) for j in range(3) for k in range(4)])
    for P in (box, simplex(4, n=3)):
        hilbert_args.clear()
        zero_sets.clear()
        rep = toric_report(P)
        assert rep.n1_surj is not None
        shapes = _translated_slice_shapes(P)
        assert hilbert_args[0] == P.points
        assert sorted(hilbert_args[1:]) == sorted(shapes)
        assert zero_sets and not any(zero_sets)
