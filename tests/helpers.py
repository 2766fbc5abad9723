"""Shared generators for randomized test cases (all explicitly seeded)."""

import itertools
from fractions import Fraction
from math import comb

from jetorders.algebra import (
    DifferentialOperator,
    Polynomial,
    binomial_product,
    exponents_upto,
    falling_factorial,
    poly_divexact,
)
from jetorders.diffops import operator_matrix, weight_window
from jetorders.jets import (
    GENERIC,
    DependentBasisError,
    InternalConsistencyError,
    SubspaceV,
    generic_rank,
    jet_matrix,
    monomial_prefix_ranks,
)
from jetorders.linalg import nullspace, rank_exact
from jetorders.toric import (
    Face,
    HilbertResult,
    LatticePolytope,
    _primitive,
    _segment_lattice_points,
    _sub,
    polytope_build,
    vertex_chart,
)
from jetorders.verify import hirzebruch_points


def oracle_rref(rows, ncols):
    """Reference Gauss-Jordan elimination over Fraction: (rows, pivot_cols)."""
    m = [[Fraction(e) for e in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def oracle_det(rows):
    """Reference determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    total = 0
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * a * oracle_det(minor)
    return total


def oracle_det_polynomial(rows):
    """Reference determinant of a square matrix of Polynomials, by the
    column DP expansion in Polynomial arithmetic."""
    d = len(rows)
    nvars = rows[0][0].nvars
    states = {(): Polynomial.constant(nvars, 1)}
    for j in range(d):
        new = {}
        for used, acc in states.items():
            used_set = set(used)
            for i in range(d):
                if i in used_set:
                    continue
                entry = rows[i][j]
                if entry.is_zero:
                    continue
                sign = -1 if sum(1 for u in used if u > i) % 2 else 1
                term = acc * entry if sign == 1 else acc * (-entry)
                key = tuple(sorted(used + (i,)))
                if key in new:
                    new[key] = new[key] + term
                else:
                    new[key] = term
        states = {k: v for k, v in new.items() if not v.is_zero}
        if not states:
            return Polynomial.zero(nvars)
    return states.get(tuple(range(d)), Polynomial.zero(nvars))


def oracle_minors(V, order, cap):
    """The nonzero maximal minors of the symbolic `jet_matrix(V, order)`
    over its first `cap` column sets in lex order, by
    `oracle_det_polynomial`."""
    J = jet_matrix(V, order, GENERIC)
    combos = itertools.islice(itertools.combinations(range(J.ncols), V.dim), cap)
    dets = (oracle_det_polynomial([[row[j] for j in combo] for row in J.entries])
            for combo in combos)
    return [det for det in dets if not det.is_zero]


def rank_symbolic(rows, ncols):
    """Reference rank over the rational function field: deterministic
    fraction-free elimination over the polynomial ring."""
    m = [list(row) for row in rows]
    nrows = len(m)
    rank = 0
    prev = None
    for c in range(ncols):
        piv = None
        best = None
        for i in range(rank, nrows):
            if not m[i][c].is_zero:
                size = (len(m[i][c]._terms), int(m[i][c].degree))
                if best is None or size < best:
                    best = size
                    piv = i
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        prow = m[rank]
        for i in range(rank + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                num = row[j] * pivot - f * prow[j]
                row[j] = poly_divexact(num, prev) if prev is not None else num
            row[c] = Polynomial.zero(pivot.nvars)
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def evaluation_image_dense_rank(V, order):
    """Reference rank of the End(V) image of the order-<=n operators
    preserving monomial V, without the weight grading.

    Parametrizes every operator with |alpha| <= n and beta in the bounding
    box (P - P) + [0, n]^nvars, solves the preservation constraints in one
    dense system, and ranks the resulting matrices on the basis of V.
    """
    points = list(V.monomial_points)
    nvars = len(points[0])
    dim = len(points)
    point_set = set(points)
    index = {m: i for i, m in enumerate(points)}
    alphas = exponents_upto(nvars, order)
    box = list(itertools.product(range(order + 1), repeat=nvars))
    betas = sorted({
        tuple(d + e for d, e in zip(diff, shift))
        for diff in weight_window(points)
        for shift in box
        if all(d + e >= 0 for d, e in zip(diff, shift))
    })
    columns = [(b, a) for b in betas for a in alphas]
    col_index = {key: i for i, key in enumerate(columns)}
    constraint = {}
    for m in points:
        for (b, a) in columns:
            f = falling_factorial(m, a)
            if not f:
                continue
            target = tuple(mi - ai + bi for mi, ai, bi in zip(m, a, b))
            if target in point_set:
                continue
            constraint.setdefault((m, target), [Fraction(0)] * len(columns))
            constraint[(m, target)][col_index[(b, a)]] += f
    kernel = nullspace(list(constraint.values()), len(columns))
    flat = []
    for vec in kernel:
        matrix = [[Fraction(0)] * dim for _ in range(dim)]
        nontrivial = False
        for (b, a), c in zip(columns, vec):
            if not c:
                continue
            for j, m in enumerate(points):
                f = falling_factorial(m, a)
                if not f:
                    continue
                target = tuple(mi - ai + bi for mi, ai, bi in zip(m, a, b))
                if target in point_set:
                    matrix[index[target]][j] += c * f
                    nontrivial = True
        if nontrivial:
            flat.append([e for row in matrix for e in row])
    return rank_exact(flat, dim * dim) if flat else 0


def oracle_weight_space(points, weight, order):
    """The weight-w slice solved weight by weight: (terms, basis, ann).

    Every term alpha with |alpha| <= order and alpha + w >= 0 gets a column,
    every m in P the row ((m)_alpha)_alpha.  The basis is the kernel of the
    rows with m + w outside P, and ann the dimension of the kernel of all
    rows."""
    terms = [a for a in exponents_upto(len(weight), order)
             if all(ai + wi >= 0 for ai, wi in zip(a, weight))]
    point_set = set(points)
    rows = [[falling_factorial(m, a) for a in terms] for m in points]
    leaving = [row for m, row in zip(points, rows)
               if tuple(mi + wi for mi, wi in zip(m, weight)) not in point_set]
    basis = [DifferentialOperator(len(weight), {
        (tuple(ai + wi for ai, wi in zip(a, weight)), a): c for a, c in zip(terms, vec)})
        for vec in nullspace(leaving, len(terms))]
    return tuple(terms), basis, len(terms) - rank_exact(rows, len(terms))


def oracle_truncated_rank(V, ops):
    """Reference rank of the image in End(V) of V-preserving operators: the
    rank of their flattened dim x dim matrices (`operator_matrix`), one row
    per operator."""
    flat = [[e for row in operator_matrix(op, V) for e in row] for op in ops]
    return rank_exact(flat, V.dim ** 2) if flat else 0


def oracle_profile(V, at):
    """Reference rank profile, one jet matrix and one rank per order: the
    Fraction jet matrix and `rank_exact` at a point; at GENERIC the
    symbolic jet matrix, ranked by `generic_rank`'s monomial scaling for
    monomial V and by `rank_symbolic` for dense V."""
    ranks = []
    for n in range(V.max_degree + 1):
        J = jet_matrix(V, n, at)
        if at is not GENERIC:
            ranks.append(rank_exact(J.entries))
        elif V.is_monomial:
            ranks.append(generic_rank(J.entries).value)
        else:
            ranks.append(rank_symbolic(J.entries, J.ncols))
        if ranks[-1] == V.dim:
            return tuple(ranks)
    raise AssertionError(f"jet rank of {V} did not reach its dimension")


def oracle_face_n_surj(P, face):
    """Reference surjectivity order at the generic point of a face's orbit:
    the symbolic jet matrix of the chart at the face's spanning vertex with
    the transverse coordinates set to 0, ranked by `generic_rank` order by
    order until the Taylor map is no longer surjective."""
    chart, dirs = vertex_chart(P, face.spanning_vertex)
    V = SubspaceV.from_monomials(P.nvars, chart)
    transverse = [i for i, d in enumerate(dirs) if d not in face.directions]
    for n in range(len(P.points) + 1):
        rows = []
        for row in jet_matrix(V, n, GENERIC).entries:
            new_row = []
            for p in row:
                for t in transverse:
                    p = p.substitute_zero(t)
                new_row.append(p)
            rows.append(new_row)
        if generic_rank(rows).value < comb(n + P.nvars, P.nvars):
            return n - 1
    raise AssertionError("order-|P| Taylor map cannot be surjective")


def oracle_face_n_surj_cz(P, face):
    """Reference surjectivity order at the generic point of a face's orbit
    from the whole chart: one `monomial_prefix_ranks` of C_Z, Z the
    transverse coordinates of the chart at the face's spanning vertex, up
    to the first order with more columns than |P|; the order is the last n
    whose first C(n + nvars, nvars) columns are all pivots."""
    chart, dirs = vertex_chart(P, face.spanning_vertex)
    transverse = [i for i, d in enumerate(dirs) if d not in face.directions]
    npts = len(P.points)
    top = next(n for n in range(npts + 1) if comb(n + P.nvars, P.nvars) > npts)
    ranks = monomial_prefix_ranks(chart, top, transverse)
    return next(n for n, r in enumerate(ranks) if r < comb(n + P.nvars, P.nvars)) - 1


def oracle_faces(P):
    """Reference face list of a polytope of lattice rank <= 3 from its hull
    data: P itself, its facets (rank 3), its edges and its vertices.  Each
    face is spanned at its least vertex, and its directions are the edges
    there that stay in the face's affine span, one `rank_exact` per edge."""

    def record(dim, face_points):
        face_points = tuple(sorted(face_points))
        vertices = tuple(sorted(set(face_points) & set(P.vertices)))
        spanning = vertices[0]
        span = [list(_sub(p, spanning)) for p in face_points]
        dirs = [d for _, d in P.edges_at(spanning) if rank_exact(span + [list(d)]) == dim]
        return Face(dim, face_points, vertices, spanning, tuple(sorted(dirs)))

    faces = []
    if P.dim >= 1:
        faces.append(record(P.dim, P.points))
    if P.dim >= 3:
        faces += [record(2, pts) for _, _, pts in P.facets]
    if P.dim >= 2:
        faces += [record(1, _segment_lattice_points(*e.endpoints)) for e in P.edges]
    faces += [Face(0, (v,), (v,), v, ()) for v in P.vertices]
    return faces


def oracle_binomial_rows(points, n, zeros=()):
    """Reference C_Z, entry by entry over every column: C(m, alpha) when
    alpha <= m and m_i = alpha_i for every i in `zeros`, and 0 otherwise."""
    cols = exponents_upto(len(points[0]), n)
    return [[binomial_product(m, a) if all(m[i] == a[i] for i in zeros) else 0
             for a in cols]
            for m in points]


def oracle_d_gonal(P):
    """Reference maximum number of collinear lattice points: one Fraction
    line anchor per pair of points and a scan of all points per new line."""
    pts = P.points if isinstance(P, LatticePolytope) else tuple(sorted(set(map(tuple, P))))
    if len(pts) <= 1:
        return len(pts)
    best = 1
    seen = set()
    for a, b in itertools.combinations(pts, 2):
        d, _ = _primitive(_sub(b, a))
        anchor = min(_line_anchor(a, d), _line_anchor(b, d))
        key = (d, anchor)
        if key in seen:
            continue
        seen.add(key)
        count = sum(1 for p in pts if _collinear(a, d, p))
        best = max(best, count)
    return best


def _line_anchor(p, d):
    # canonical representative of the line through p with direction d
    t = None
    for pi, di in zip(p, d):
        if di:
            t = Fraction(pi, di)
            break
    return tuple(pi - t * di for pi, di in zip(p, d))


def _collinear(a, d, p):
    v = _sub(p, a)
    if not any(v):
        return True
    pv, _ = _primitive(v)
    return pv == d or pv == tuple(-x for x in d)


def lattice_coordinates(points):
    """Re-express a point set in a basis of the sublattice its differences
    generate.  Returns the list of coordinate tuples (rank r <= nvars)."""
    points = [tuple(p) for p in points]
    base = points[0]
    diffs = [list(_sub(p, base)) for p in points[1:] if p != base]
    basis = _lattice_row_basis(diffs)
    if not basis:
        return [() for _ in points]
    coords = []
    for p in points:
        coords.append(tuple(_solve_in_lattice_basis(basis, _sub(p, base))))
    return coords


def _lattice_row_basis(rows):
    """Row echelon basis (over Z) of the lattice generated by the rows.

    Each reduction step replaces an entry of column c by its remainder
    modulo the smallest nonzero entry, so the sum of the column's absolute
    values falls by at least one per step; it bounds the steps."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        for _ in range(sum(abs(row[c]) for row in m[r:]) + 1):
            nz = [i for i in range(r, len(m)) if m[i][c]]
            if len(nz) < 2:
                break
            nz.sort(key=lambda i: abs(m[i][c]))
            i, j = nz[0], nz[1]
            q = m[j][c] // m[i][c]
            m[j] = [a - q * b for a, b in zip(m[j], m[i])]
            if not any(m[j]):
                m.pop(j)
        else:
            raise InternalConsistencyError(f"lattice reduction of column {c} did not terminate")
        nz = [i for i in range(r, len(m)) if m[i][c]]
        if not nz:
            continue
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        r += 1
        if r == len(m):
            break
    return m[:r]


def _solve_in_lattice_basis(basis, vector):
    """Coordinates of `vector` in an echelon lattice basis (exact)."""
    v = list(vector)
    coords = [0] * len(basis)
    for i, row in enumerate(basis):
        lead = next(j for j, x in enumerate(row) if x)
        if v[lead] % row[lead]:
            raise ValueError("vector not in the lattice spanned by the basis")
        q = v[lead] // row[lead]
        coords[i] = q
        v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        raise ValueError("vector not in the lattice spanned by the basis")
    return coords


def oracle_hilbert(points):
    """Reference generic injectivity order of the monomial subspace on
    exponent set P, one evaluation matrix and one rank per order.

    rank W^l is the rank of the evaluation matrix with rows p in P and
    columns the monomials of degree <= l, entry p^alpha; the order is the
    least l reaching |P|.  Points are first re-expressed in the sublattice
    they generate.
    """
    pts = [tuple(p) for p in (points.points if isinstance(points, LatticePolytope) else points)]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    coords = lattice_coordinates(pts)
    npts = len(pts)
    if npts == 1:
        return HilbertResult(0, (1,))
    rank = len(coords[0])
    profile = []
    # the rank rises by at least one per order until it reaches |P|, so the
    # order is at most |P| - 1
    for l in range(npts):
        cols = exponents_upto(rank, l)
        rows = [[_int_power(q, a) for a in cols] for q in coords]
        r = rank_exact(rows, len(cols))
        if profile and r <= profile[-1] and r < npts:
            raise InternalConsistencyError("Hilbert rank profile failed to increase")
        profile.append(r)
        if r == npts:
            return HilbertResult(l, tuple(profile))
    raise InternalConsistencyError(
        f"Hilbert rank of {npts} points did not reach {npts} by order {npts - 1}"
    )


def _int_power(q, alpha):
    out = 1
    for base, e in zip(q, alpha):
        if e:
            out *= base ** e
    return out


def rational_point(rng, nvars, nonzero=True):
    pt = []
    for _ in range(nvars):
        num = rng.randint(1, 60) if nonzero else rng.randint(0, 60)
        pt.append(Fraction(num * rng.choice((-1, 1)), rng.randint(1, 9)))
    return tuple(pt)


def random_monomial_subspace(rng, nvars=None, max_size=6, box=4):
    nvars = nvars or rng.choice((1, 2))
    size = rng.randint(2, max_size)
    universe = exponents_upto(nvars, box)
    universe = [e for e in universe if all(x <= box for x in e)]
    points = rng.sample(universe, min(size, len(universe)))
    return SubspaceV.from_monomials(nvars, sorted(points))


def random_polynomial(rng, nvars, degree):
    terms = {}
    for e in exponents_upto(nvars, degree):
        if rng.random() < 0.4:
            terms[e] = Fraction(rng.randint(-5, 5))
    if not terms:
        terms[(0,) * nvars] = Fraction(1)
    return Polynomial(nvars, terms)


def random_subspace(rng, nvars=None, max_dim=5, degree=4):
    """Random subspace, roughly half monomial and half dense bases."""
    nvars = nvars or rng.choice((1, 2))
    if rng.random() < 0.5:
        return random_monomial_subspace(rng, nvars=nvars, max_size=max_dim, box=degree)
    return random_dense_subspace(rng, nvars, max_dim, degree)


def random_dense_subspace(rng, nvars, max_dim=5, degree=4):
    dim = rng.randint(2, max_dim)
    for _ in range(40):
        basis = [random_polynomial(rng, nvars, degree) for _ in range(dim)]
        try:
            return SubspaceV(nvars, basis)
        except (DependentBasisError, ValueError):
            continue
    raise RuntimeError("could not draw an independent basis")


def random_smooth_polytope(rng):
    """Draw from families known to satisfy the basis condition."""
    kind = rng.choice(("segment", "rectangle", "simplex2", "hirzebruch", "box3"))
    if kind == "segment":
        m = rng.randint(1, 6)
        return polytope_build(points=[(i,) for i in range(m + 1)])
    if kind == "rectangle":
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        return polytope_build(points=[(i, j) for i in range(a + 1) for j in range(b + 1)])
    if kind == "simplex2":
        m = rng.randint(1, 4)
        return polytope_build(points=[(i, j) for i in range(m + 1) for j in range(m + 1 - i)])
    if kind == "hirzebruch":
        # k > lr keeps all four vertices unimodular; k = lr collapses the top
        # edge to a singular triangle for r >= 2
        r = rng.randint(1, 3)
        l = rng.randint(1, 2)
        k = l * r + rng.randint(1, 3)
        return polytope_build(points=hirzebruch_points(r, k, l))
    a, b, c = (rng.randint(1, 2) for _ in range(3))
    return polytope_build(
        points=[(i, j, k) for i in range(a + 1) for j in range(b + 1) for k in range(c + 1)]
    )


def random_point_set(rng, nvars=2, box=4, max_size=8, min_size=2):
    universe = [e for e in exponents_upto(nvars, box * nvars) if all(x <= box for x in e)]
    size = rng.randint(min_size, min(max_size, len(universe)))
    return sorted(rng.sample(universe, size))
