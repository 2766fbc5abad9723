"""Lattice polytopes and the order invariants of their toric completions.

A monomial subspace with exponent set P lives on the projective toric
variety of the polytope conv(P).  This module computes, purely from the
lattice data: smoothness (the basis condition at every vertex), bounded
very-ampleness (semigroup saturation), edge lengths s(P), the maximal
collinear count d^g(P), the generic injectivity order via the Hilbert
function of the point set, per-orbit injectivity orders via the
translate/slice recursion, and the toric jet orders n_surj / n1_surj.

The Hilbert function of P is the jet-rank profile of C_empty
(`jets.monomial_prefix_ranks`) of P translated to its coordinatewise
minimum, which neither the translation nor the degree-preserving change
from m^alpha to C(m, alpha) alters.  It is built up to the least max |m|
over the reflections x_i -> span_i - x_i of that set (`_hilbert_top`).
d^g(P) buckets the later points b of each point a by the primitive
direction of b - a.

The faces of a smooth polytope are read off its vertex charts, in every
lattice rank (`LatticePolytope.faces`): chart coordinates are
non-negative, so the face spanned by a set T of edges at a vertex holds
exactly the points whose chart support lies in T.

The face orders cut the vertex chart into slices (`_slices`).  The
slices of all faces are translates of a few shapes, so each polytope
keeps one memo of slice Hilbert functions, keyed by the translated shape
(`_slice_hilbert`); it lives as long as the polytope.  The injectivity
order of a face and the surjectivity order n1 of a codimension-1 orbit
are both read off those profiles.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd

from .jets import InternalConsistencyError, SubspaceV, monomial_prefix_ranks
from .linalg import _eliminate, det_exact, rank_exact


class DegeneratePolytopeError(ValueError):
    """The polytope is not full-dimensional in its ambient lattice."""


class BasisConditionError(ValueError):
    """An operation requiring the smooth (basis) condition got a non-smooth polytope."""


class NonSaturatedInputError(ValueError):
    """An explicit point list misses lattice points of its own convex hull."""


class UnsupportedPolytopeError(ValueError):
    """Hull enumeration supports lattice rank <= 3 only."""


# ---------------------------------------------------------------------------
# small integer-vector helpers


def _sub(a, b):
    return tuple(map(operator.sub, a, b))


def _add(a, b):
    return tuple(map(operator.add, a, b))


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _primitive(v):
    """(primitive direction, positive integer length) of a nonzero vector."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v), g


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _affine_dim(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank_exact([list(_sub(p, base)) for p in points[1:]])


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class Edge:
    endpoints: tuple  # (vertex, vertex), lexicographically ordered
    direction: tuple  # primitive direction from endpoints[0] to endpoints[1]
    length: int


@dataclass(frozen=True)
class Face:
    dim: int
    points: tuple  # lattice points of the face
    vertices: tuple  # vertices of P lying on the face
    spanning_vertex: tuple  # a vertex of P on the face
    directions: tuple  # primitive edge directions at spanning_vertex inside the face

    def label(self):
        if self.dim == 0:
            return f"vertex {self.spanning_vertex}"
        kind = "edge" if self.dim == 1 else f"dim-{self.dim} face"
        return f"{kind} {tuple(sorted(self.vertices))}"


class LatticePolytope:
    def __init__(self, nvars, points, vertices, edges, facets):
        self.nvars = nvars
        self.points = tuple(sorted(points))
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(edges)
        self.facets = tuple(facets)  # supporting data for cone computations
        self._charts = {}
        # translated, sorted slice -> its HilbertResult (`_slice_hilbert`)
        self._slice_hilbert = {}

    @cached_property
    def dim(self):
        return _affine_dim(self.points)

    @cached_property
    def smoothness(self):
        """The SmoothnessReport of `smooth_check`, evaluated once."""
        return smooth_check(self)

    @cached_property
    def faces(self):
        """Every face of a smooth P, read off its vertex charts.

        Chart coordinates at a vertex v are non-negative, so the face
        spanned by a set T of v's edges is the set of points whose chart
        support lies in T (the faces of a unimodular cone).  A face is
        recorded at its least vertex only: T is skipped when an earlier
        vertex's support lies in T.  A chart that fails the basis condition
        raises BasisConditionError."""
        faces = []
        for i, v in enumerate(self.vertices):
            chart, dirs = self.chart(v)
            # supports as bit sets of chart coordinates, T likewise
            supports = [sum(1 << k for k, x in enumerate(c) if x) for c in chart]
            support_of = dict(zip(self.points, supports))
            earlier = [support_of[u] for u in self.vertices[:i]]
            for T in range(1 << len(dirs)):
                if any(s | T == T for s in earlier):
                    continue
                points = tuple(p for p, s in zip(self.points, supports) if s | T == T)
                vertices = tuple(u for u in self.vertices[i:] if support_of[u] | T == T)
                directions = tuple(d for k, d in enumerate(dirs) if T >> k & 1)
                faces.append(Face(len(directions), points, vertices, v, directions))
        return tuple(faces)

    def chart(self, vertex):
        """`vertex_chart` at `vertex` in its default directions, built once
        per vertex."""
        if vertex not in self._charts:
            self._charts[vertex] = vertex_chart(self, vertex)
        return self._charts[vertex]

    def __repr__(self):
        return f"LatticePolytope(nvars={self.nvars}, points={len(self.points)}, vertices={len(self.vertices)})"

    def edges_at(self, vertex):
        out = []
        for e in self.edges:
            if vertex == e.endpoints[0]:
                out.append((e, e.direction))
            elif vertex == e.endpoints[1]:
                out.append((e, tuple(-d for d in e.direction)))
        return out

    def vertex_directions(self, vertex):
        """Primitive edge directions leaving `vertex`, sorted for determinism."""
        return tuple(sorted(d for _, d in self.edges_at(vertex)))

    def codim1_faces(self):
        target = self.dim - 1
        return [f for f in self.faces if f.dim == target]

    def subspace(self):
        return SubspaceV.from_monomials(self.nvars, self.points)


# ---------------------------------------------------------------------------
# hull construction (exact, rank <= 3)


def _hull_2d(points):
    """Monotone chain; returns hull vertices in counter-clockwise order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _facets_from_supporting_planes(points, spanners):
    """Supporting hyperplanes spanned by point triples (ambient dim 3).

    Returns a list of (inward_normal, offset, facet_points) with
    <n, p> >= c for every point and equality exactly on the facet.
    """
    facets = {}
    for tri in itertools.combinations(spanners, 3):
        n = _cross3(_sub(tri[1], tri[0]), _sub(tri[2], tri[0]))
        if n == (0, 0, 0):
            continue
        n, _ = _primitive(n)
        c = _dot(n, tri[0])
        values = [_dot(n, p) - c for p in points]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            n = tuple(-x for x in n)
            c = -c
            values = [-v for v in values]
        else:
            continue
        if (n, c) in facets:
            continue
        face_pts = tuple(sorted(p for p, v in zip(points, values) if v == 0))
        if _affine_dim(face_pts) == 2:
            facets[(n, c)] = face_pts
    return [(n, c, pts) for (n, c), pts in sorted(facets.items())]


def _segment_lattice_points(a, b):
    d, length = _primitive(_sub(b, a))
    return [tuple(x + t * y for x, y in zip(a, d)) for t in range(length + 1)]


def _enumerate_hull_points(vertices, inside):
    lo = [min(v[i] for v in vertices) for i in range(len(vertices[0]))]
    hi = [max(v[i] for v in vertices) for i in range(len(vertices[0]))]
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [p for p in itertools.product(*ranges) if inside(p)]


def polytope_build(points=None, vertices=None, edges=None):
    """Build a LatticePolytope from a full point list and/or a vertex list.

    With only vertices, all lattice points of the hull are enumerated
    (lattice rank <= 3).  An explicit point list must contain every lattice
    point of its own convex hull; missing points are an error, never
    silently filled in.  Above lattice rank 3 hull enumeration is not
    attempted: points, vertices and edges (as endpoint pairs) must all be
    supplied explicitly.  Faces are not built here: `LatticePolytope.faces`
    reads them off the vertex charts when first asked for.
    """
    if points is None and vertices is None:
        raise ValueError("need points or vertices")
    raw = [tuple(int(c) for c in p) for p in (points if points is not None else vertices)]
    if not raw:
        raise ValueError("empty polytope description")
    nvars = len(raw[0])
    if any(len(p) != nvars for p in raw):
        raise ValueError("inconsistent point dimensions")
    if any(c < 0 for p in raw for c in p):
        raise ValueError("lattice points must have non-negative coordinates (monomial exponents)")
    if points is not None and len(set(raw)) != len(raw):
        raise ValueError("duplicate lattice point")
    given_points = [tuple(p) for p in points] if points is not None else None
    given_vertices = [tuple(int(c) for c in v) for v in vertices] if vertices is not None else None

    seed_pts = sorted(set(given_points if given_points is not None else given_vertices))
    adim = _affine_dim(seed_pts)

    if adim == nvars and nvars > 3:
        return _polytope_from_explicit_data(nvars, given_points, given_vertices, edges)

    if adim == 0:
        vert = [seed_pts[0]]
        all_points = list(vert)
        edges, facets = [], []
    elif adim == 1:
        ends = _extremes_on_line(seed_pts)
        vert = sorted(ends)
        all_points = _segment_lattice_points(vert[0], vert[1])
        d, length = _primitive(_sub(vert[1], vert[0]))
        edges = [Edge((vert[0], vert[1]), d, length)]
        facets = []
    elif adim == nvars and nvars == 2:
        hull = _hull_2d(seed_pts)
        vert = hull

        def inside(p):
            k = len(hull)
            for i in range(k):
                a, b = hull[i], hull[(i + 1) % k]
                cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if cr < 0:
                    return False
            return True

        all_points = _enumerate_hull_points(hull, inside)
        edges = []
        k = len(hull)
        for i in range(k):
            a, b = hull[i], hull[(i + 1) % k]
            lo, hi = sorted((a, b))
            d, length = _primitive(_sub(hi, lo))
            edges.append(Edge((lo, hi), d, length))
        facets = []
    elif adim == nvars and nvars == 3:
        spanners = sorted(set(given_vertices)) if given_vertices is not None else seed_pts
        facet_data = _facets_from_supporting_planes(seed_pts, spanners)
        if not facet_data:
            raise UnsupportedPolytopeError("could not enumerate facets")

        def inside(p):
            return all(_dot(n, p) >= c for n, c, _ in facet_data)

        all_points = _enumerate_hull_points(seed_pts, inside)
        vert = []
        for p in seed_pts:
            normals = [n for n, c, _ in facet_data if _dot(n, p) == c]
            if len(normals) >= 3 and rank_exact([list(n) for n in normals]) == 3:
                vert.append(p)
        vert = sorted(vert)
        edge_set = {}
        for (n1, c1, pts1), (n2, c2, pts2) in itertools.combinations(facet_data, 2):
            common = sorted(set(pts1) & set(pts2))
            if len(common) >= 2 and _affine_dim(common) == 1:
                ends = _extremes_on_line(common)
                lo, hi = sorted(ends)
                d, length = _primitive(_sub(hi, lo))
                edge_set[(lo, hi)] = Edge((lo, hi), d, length)
        edges = [edge_set[k] for k in sorted(edge_set)]
        facets = facet_data
    else:
        raise UnsupportedPolytopeError(
            f"polytope of affine dimension {adim} in rank-{nvars} lattice is not supported"
        )

    all_points = sorted(set(all_points))
    if given_points is not None and sorted(set(given_points)) != all_points:
        missing = sorted(set(all_points) - set(given_points))
        raise NonSaturatedInputError(
            f"convex hull contains lattice points missing from the input: {missing}"
        )
    if given_vertices is not None and given_points is not None:
        if sorted(set(given_vertices)) != sorted(vert):
            raise ValueError("supplied vertices are not the extreme points of the point set")

    if adim == nvars and nvars == 3:
        # facet lattice points against the full point list
        facets = [(n, c, tuple(sorted(p for p in all_points if _dot(n, p) == c)))
                  for n, c, _ in facets]

    return LatticePolytope(nvars, all_points, vert, edges, facets)


def _polytope_from_explicit_data(nvars, points, vertices, edge_pairs):
    """Lattice rank > 3: no hull enumeration; trust the supplied data.

    Edge records are derived from the endpoint pairs.  No facet normals
    are kept, so the saturation scan of a non-smooth polytope is
    unavailable; the faces of a smooth one come from its vertex charts as
    in every rank, and with them every orbit order.
    """
    if points is None or vertices is None or edge_pairs is None:
        raise UnsupportedPolytopeError(
            "lattice rank > 3 needs explicit points, vertices and edges"
        )
    points = sorted(set(points))
    vertices = sorted(set(tuple(v) for v in vertices))
    point_set = set(points)
    if not set(vertices) <= point_set:
        raise ValueError("vertices must be listed among the points")
    edges = []
    for a, b in edge_pairs:
        a, b = tuple(int(c) for c in a), tuple(int(c) for c in b)
        if a not in set(vertices) or b not in set(vertices):
            raise ValueError(f"edge endpoint not a vertex: {(a, b)}")
        lo, hi = sorted((a, b))
        d, length = _primitive(_sub(hi, lo))
        if any(p not in point_set for p in _segment_lattice_points(lo, hi)):
            raise NonSaturatedInputError(f"edge {(lo, hi)} passes through missing lattice points")
        edges.append(Edge((lo, hi), d, length))
    edges.sort(key=lambda e: e.endpoints)
    return LatticePolytope(nvars, points, vertices, edges, ())


def _extremes_on_line(collinear_points):
    base = collinear_points[0]
    ref = next(p for p in collinear_points if p != base)
    d, _ = _primitive(_sub(ref, base))
    keyed = sorted(collinear_points, key=lambda p: _dot(_sub(p, base), d))
    return keyed[0], keyed[-1]


# ---------------------------------------------------------------------------
# smoothness, very ampleness, edge statistics


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    diagnostics: tuple  # (vertex, edge_count, |det| or None)

    def __bool__(self):
        return self.smooth

    def failing_vertices(self):
        return [v for v, k, d in self.diagnostics if k != len(v) or d != 1]


def smooth_check(P):
    """Basis condition: every vertex has exactly n edges whose primitive
    directions form a determinant +-1 lattice basis."""
    if P.dim != P.nvars:
        raise DegeneratePolytopeError(
            f"polytope has affine dimension {P.dim} < lattice rank {P.nvars}"
        )
    diags = []
    ok = True
    for v in P.vertices:
        dirs = P.vertex_directions(v)
        if len(dirs) != P.nvars:
            diags.append((v, len(dirs), None))
            ok = False
            continue
        det = abs(det_exact([list(d) for d in dirs]))
        diags.append((v, len(dirs), det))
        if det != 1:
            ok = False
    return SmoothnessReport(ok, tuple(diags))


def _require_smooth(P):
    report = P.smoothness
    if not report.smooth:
        raise BasisConditionError(
            f"basis condition fails at vertex {report.failing_vertices()[0]}"
        )
    return report


def _vertex_cone_normals(P, vertex):
    """Inward normals of the tangent cone of P at a vertex."""
    if P.nvars == 1:
        dirs = [d for _, d in P.edges_at(vertex)]
        return [dirs[0]]
    if P.nvars == 2:
        hull = _hull_2d(P.vertices)
        k = len(hull)
        i = hull.index(vertex)
        normals = []
        for a, b in ((hull[i - 1], vertex), (vertex, hull[(i + 1) % k])):
            d = _sub(b, a)
            normals.append(_primitive((-d[1], d[0]))[0])
        return normals
    return [n for n, c, pts in P.facets if vertex in pts]


def very_ample_check(P, search_bound=10):
    """Bounded saturation test of the vertex semigroups.

    Smooth polytopes short-circuit to True (each vertex semigroup is
    generated by a lattice basis).  Otherwise every lattice point of the
    tangent cone within the coordinate box of side `search_bound` must be
    reachable as a sum of generators {p - vertex}.
    """
    if P.dim != P.nvars:
        raise DegeneratePolytopeError("very-ampleness test needs a full-dimensional polytope")
    if P.smoothness.smooth:
        return True
    if P.nvars > 3 or (P.nvars == 3 and not P.facets):
        raise UnsupportedPolytopeError(
            "saturation scan needs facet data (lattice rank <= 3)"
        )
    for v in P.vertices:
        gens = [g for g in (_sub(p, v) for p in P.points) if any(g)]
        normals = _vertex_cone_normals(P, v)
        box = itertools.product(*[range(-search_bound, search_bound + 1)] * P.nvars)
        targets = {z for z in box if all(_dot(n, z) >= 0 for n in normals)}

        def level(z):
            return sum(_dot(n, z) for n in normals)

        max_level = max((level(z) for z in targets), default=0)
        reached = {(0,) * P.nvars}
        frontier = [(0,) * P.nvars]
        while frontier:
            nxt = []
            for z in frontier:
                for g in gens:
                    w = _add(z, g)
                    if w not in reached and level(w) <= max_level:
                        reached.add(w)
                        nxt.append(w)
            frontier = nxt
        if not targets <= reached:
            return False
    return True


@dataclass(frozen=True)
class EdgeStats:
    lengths: tuple  # (edge, length) pairs
    s: int  # minimal edge length s(P)


def edge_stats(P):
    if not P.edges:
        raise DegeneratePolytopeError("polytope has no edges")
    lengths = tuple((e, e.length) for e in P.edges)
    return EdgeStats(lengths, min(l for _, l in lengths))


def d_gonal(P):
    """Maximum number of collinear lattice points of P.

    In sorted order every later point b has b - a lexicographically
    positive, so the primitive direction of b - a names the line through a
    and b; the largest bucket of one direction, plus a, is the most points
    on a line whose first point is a."""
    pts = P.points if isinstance(P, LatticePolytope) else tuple(sorted(set(map(tuple, P))))
    best = 0
    for i, a in enumerate(pts):
        lines = Counter(_primitive(_sub(b, a))[0] for b in pts[i + 1:])
        best = max(best, 1 + max(lines.values(), default=0))
    return best


# ---------------------------------------------------------------------------
# Hilbert-function computation of the generic injectivity order


@dataclass(frozen=True)
class HilbertResult:
    order: int
    profile: tuple  # rank W^0 < rank W^1 < ... = |P|

    def __int__(self):
        return self.order


def n_inj_hilbert(points):
    """Generic injectivity order of the monomial subspace on exponent set P.

    rank W^l is the rank of the evaluation matrix with rows p in P and
    columns the monomials of degree <= l, entry p^alpha (the Hilbert
    function of P); the order is the least l reaching |P|.  Neither an
    injective affine map of P nor the change from m^alpha to the
    degree-|alpha| polynomial C(m, alpha) alters the degree-<=l span, so
    the profile is that of C_empty of P translated to its coordinatewise
    minimum.  The rank rises by at least one per order until it reaches
    |P|, and reaches it by max |m| of any affine lattice image of P with
    m >= 0 (`_hilbert_top`).
    """
    pts = [tuple(p) for p in (points.points if isinstance(points, LatticePolytope) else points)]
    if not pts:
        raise ValueError("empty point set")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points of unequal length")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    npts = len(pts)
    if npts == 1:
        return HilbertResult(0, (1,))
    low = [min(c) for c in zip(*pts)]
    shifted = [_sub(p, low) for p in pts]
    top = _hilbert_top(shifted)
    profile = []
    for r in monomial_prefix_ranks(shifted, top):
        if profile and r <= profile[-1]:
            raise InternalConsistencyError("Hilbert rank profile failed to increase")
        profile.append(r)
        if r == npts:
            return HilbertResult(len(profile) - 1, tuple(profile))
    raise InternalConsistencyError(
        f"Hilbert rank of {npts} points did not reach {npts} by order {top}"
    )


def _hilbert_top(shifted):
    """An order by which the Hilbert function of the non-negative points
    `shifted`, each coordinate reaching 0, has reached their count.

    C_empty of points m >= 0 has full row rank by order max |m|: its
    entry (m, alpha) vanishes unless alpha <= m, and each row m has the
    entry 1 in column m.  A reflection x_i -> span_i - x_i is an affine
    lattice automorphism of the box, so every one of the 2^nvars
    reflections gives a bound of its own; the least of them, and |P| - 1,
    is taken.  The search is skipped when it has more reflections than the
    unreflected bound has columns."""
    nvars = len(shifted[0])
    top = min(max(map(sum, shifted)), len(shifted) - 1)
    if 2 ** nvars > comb(top + nvars, nvars):
        return top
    # each coordinate column as it is and reflected
    columns = [(c, [max(c) - x for x in c]) for c in zip(*shifted)]
    for picked in itertools.product(*columns):
        top = min(top, max(map(sum, zip(*picked))))
    return top


# ---------------------------------------------------------------------------
# per-orbit injectivity orders (translate/slice recursion)


def _integer_inverse_unimodular(cols):
    """Inverse of a unimodular integer matrix given by columns.

    One fraction-free Gauss-Jordan elimination of [D | I]: D is unimodular
    when its columns hold the first n pivots and det D = +-1.  Every pivot
    entry then equals the last pivot, +-1, so row k of the inverse is the
    I block of row k times its pivot entry."""
    n = len(cols)
    augmented = [[cols[j][i] for j in range(n)] + [int(i == j) for j in range(n)]
                 for i in range(n)]
    reduced, pivots, det = _eliminate(augmented, 2 * n, reduced=True)
    if pivots[:n] != list(range(n)) or det not in (1, -1):
        raise BasisConditionError("matrix is not unimodular")
    return [[row[k] * x for x in row[n:]] for k, row in enumerate(reduced)]


def vertex_chart(P, vertex, directions=None):
    """Coordinates of P - vertex in the basis at the vertex.

    Returns (chart point list aligned with P.points, direction tuple).
    Raises BasisConditionError unless the directions are a lattice basis of
    nvars vectors in which every point has non-negative coordinates."""
    if directions is None:
        directions = P.vertex_directions(vertex)
    if len(directions) != P.nvars:
        raise BasisConditionError(f"vertex {vertex} does not have {P.nvars} edges")
    inv = _integer_inverse_unimodular(list(directions))
    chart = []
    for p in P.points:
        dp = _sub(p, vertex)
        c = tuple(_dot(row, dp) for row in inv)
        if any(x < 0 for x in c):
            raise BasisConditionError(
                f"point {p} has negative coordinates in the basis at {vertex}"
            )
        chart.append(c)
    return chart, tuple(directions)


def chart_subspace(P, vertex):
    """The monomial space of P in the chart at `vertex` (`P.chart`)."""
    return SubspaceV.from_monomials(P.nvars, P.chart(vertex)[0])


def _slices(P, face):
    """The chart of P at the face's spanning vertex cut into slices
    {transverse coordinates: [tangent coordinates of each point]}."""
    chart, dirs = P.chart(face.spanning_vertex)
    tangent = [i for i, d in enumerate(dirs) if d in face.directions]
    transverse = [i for i in range(P.nvars) if i not in tangent]
    slices = {}
    for c in chart:
        key = tuple(c[i] for i in transverse)
        slices.setdefault(key, []).append(tuple(c[i] for i in tangent))
    return slices


def _slice_hilbert(P, slice_pts):
    """`n_inj_hilbert` of a slice of P, computed once per translated shape:
    the Hilbert function does not change under translation."""
    low = [min(c) for c in zip(*slice_pts)]
    shape = tuple(sorted(_sub(p, low) for p in slice_pts))
    if shape not in P._slice_hilbert:
        P._slice_hilbert[shape] = n_inj_hilbert(shape)
    return P._slice_hilbert[shape]


def n_inj_face(P, face):
    """Injectivity order along the orbit of a face: the maximum over all
    translates H of the face's affine lattice of N_inj(H cap P) + d_H."""
    _require_smooth(P)
    if face not in P.faces:
        face = _find_face(P, face)
    best = 0
    for key, slice_pts in _slices(P, face).items():
        inner = 0 if slice_pts[0] == () else _slice_hilbert(P, slice_pts).order
        best = max(best, inner + sum(key))
    return best


def _find_face(P, face_like):
    pts = tuple(sorted(tuple(p) for p in face_like))
    for f in P.faces:
        if f.points == pts or f.vertices == pts:
            return f
    raise ValueError(f"no face with points {pts}")


def n_inj_vertex_formula(P, vertex):
    """Prop-style vertex value: max coordinate sum of other vertices in the
    basis at the vertex."""
    _require_smooth(P)
    chart, _ = P.chart(vertex)
    vertices = set(P.vertices)
    return max(sum(c) for p, c in zip(P.points, chart) if p in vertices)


def n_inj_max(P):
    """Supremum of the injectivity order over the toric variety: the maximal
    lattice length between vertices, each measured in the basis at the
    source vertex.  Cross-checked against the translate recursion over all
    faces."""
    _require_smooth(P)
    return _checked_max([n_inj_vertex_formula(P, v) for v in P.vertices],
                        [n_inj_face(P, f) for f in P.faces])


def _checked_max(vertex_orders, face_orders):
    """Maximum of the vertex-formula orders, checked against the face recursion."""
    by_vertex = max(vertex_orders)
    by_faces = max(face_orders)
    if by_vertex != by_faces:
        raise RuntimeError(
            f"vertex formula ({by_vertex}) and face recursion ({by_faces}) disagree"
        )
    return by_vertex


def n_surj_toric(P):
    """Toric jet order: the minimal edge length s(P) (smooth case)."""
    _require_smooth(P)
    return edge_stats(P).s


def n1_surj_by_face(P):
    """Surjectivity order at the generic point of each codimension-1 orbit."""
    _require_smooth(P)
    return {face: _face_generic_n_surj(P, face) for face in P.codim1_faces()}


def n1_surj_toric(P):
    """Largest n with the order-<=n Taylor maps surjective in codimension 1:
    the minimum over codimension-1 faces of the surjectivity order at the
    generic point of the face's orbit.

    In the chart at a vertex of the face the orbit is `transverse
    coordinates 0, tangent coordinates free`, and the jet matrix over the
    function field of the orbit has the column-prefix ranks of the integer
    matrix C_Z with Z the transverse coordinates (`jets.binomial_rows`).
    C_Z is block diagonal over the slices of the chart, so each face's
    order is read off the slices' Hilbert profiles (`_face_generic_n_surj`).
    """
    return min(n1_surj_by_face(P).values())


def _face_generic_n_surj(P, face):
    """The last n whose first C(n + nvars, nvars) columns of C_Z are all
    pivots, Z the transverse coordinates of the face's chart.

    An entry (m, alpha) of C_Z vanishes unless alpha_Z = m_Z, so C_Z is
    block diagonal: block k holds the points with m_Z = k and the columns
    with alpha_Z = k, and is C_empty of the slice S_k (tangent coordinates,
    d of them) at order n - |k|.  The order-n columns are all pivots when
    every block with |k| <= n has full column rank, so the order is the
    minimum over k of |k| + sigma(S_k), where sigma(S) is the last j with
    the Hilbert function of S at j equal to C(j + d, d).  An empty slice
    has sigma = -1: a codimension-1 face has one transverse coordinate, and
    its first value K + 1 with no slice bounds the order by K.  A slice
    with d = 0 is one point and bounds nothing."""
    slices = _slices(P, face)
    best = next(k for k in itertools.count() if (k,) not in slices) - 1
    for key, slice_pts in slices.items():
        d = len(slice_pts[0])
        if d == 0:
            continue
        profile = _slice_hilbert(P, slice_pts).profile
        sigma = max(j for j, r in enumerate(profile) if r == comb(j + d, d))
        best = min(best, sum(key) + sigma)
    return best


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class ToricReport:
    smooth: bool
    very_ample: bool
    s: int | None
    d_gonal: int
    n_inj_generic: int
    hilbert_profile: tuple
    n_inj_by_face: tuple  # ((face label, value), ...) sorted
    n_inj_max: int | None
    n_surj: int | None
    n1_surj: int | None
    vertex_orders: tuple  # ((vertex, value), ...) by the vertex formula

    def to_dict(self):
        return {
            "smooth": self.smooth,
            "very_ample": self.very_ample,
            "s": self.s,
            "d_gonal": self.d_gonal,
            "n_inj_generic": self.n_inj_generic,
            "hilbert_profile": list(self.hilbert_profile),
            "n_inj_by_face": [[label, value] for label, value in self.n_inj_by_face],
            "n_inj_max": self.n_inj_max,
            "n_surj": self.n_surj,
            "n1_surj": self.n1_surj,
            "vertex_orders": [[str(v), value] for v, value in self.vertex_orders],
        }


def toric_report(P, with_orders=True, very_ample_bound=10):
    """Full invariant report; orbit orders require the basis condition."""
    smooth = P.smoothness if P.dim == P.nvars else SmoothnessReport(False, ())
    hilbert = n_inj_hilbert(P.points)
    va = very_ample_check(P, very_ample_bound) if P.dim == P.nvars else False
    s = edge_stats(P).s if P.edges else None
    if with_orders:
        _require_smooth(P)
        face_orders = [(f.label(), n_inj_face(P, f)) for f in P.faces]
        vertex_orders = tuple((v, n_inj_vertex_formula(P, v)) for v in P.vertices)
        nmax = _checked_max([value for _, value in vertex_orders],
                            [value for _, value in face_orders])
        faces = tuple(sorted(face_orders))
        ns = n_surj_toric(P)
        n1 = n1_surj_toric(P)
    else:
        faces, nmax, ns, n1, vertex_orders = (), None, None, None, ()
    return ToricReport(
        smooth=bool(smooth),
        very_ample=va,
        s=s,
        d_gonal=d_gonal(P),
        n_inj_generic=hilbert.order,
        hilbert_profile=hilbert.profile,
        n_inj_by_face=faces,
        n_inj_max=nmax,
        n_surj=ns,
        n1_surj=n1,
        vertex_orders=vertex_orders,
    )
