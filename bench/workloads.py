"""Seeded inputs, answer checks and reference digests for the benchmark.

Nothing here imports jetorders: every input is computed from the seed
alone, so a change to the program cannot change what the benchmark feeds
it, nor the cost of making the inputs.

Each workload is a fixed list of classes.  A run walks the classes in
rounds, one op per class per round, so every run has the same mix.  Within
a class the seed varies the input in a way that provably leaves every
invariant unchanged, so one reference digest per class checks every op:

* scan: the points.  For a monomial subspace the jet-rank profile is
  constant on each torus orbit, so it depends only on which chart
  coordinates are zero.
* generic: a dense basis B is replaced by G*B for a seeded integer G with
  det 1, which leaves ranks unchanged and multiplies every maximal minor
  by det G = 1; a power basis {L^k} takes a seeded linear form L.
* operators: the order of the monomial basis, which moves rows but no
  dimension or rank.
* toric: a seeded lattice automorphism of the polytope (axis permutation,
  reflections, translation), which preserves every reported invariant up
  to the labels of faces and vertices, which the digest leaves out.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb

WORKLOADS = ("scan", "generic", "operators", "toric")


@dataclass(frozen=True)
class Op:
    """One CLI call: argv with `{name}` placeholders for the files it reads."""

    cls: str  # reference key; generic ops append "#<base index>"
    family: str
    params: tuple
    argv: tuple
    files: dict = field(hash=False)
    # scan only: the torus orbit of each point, "line" or "off"
    orbits: tuple = ()


# ---------------------------------------------------------------------------
# small exact helpers (no jetorders)


def monomials_upto(nvars, degree):
    """Exponents of total degree <= degree, ordered by (degree, lex)."""
    out = []
    for total in range(degree + 1):
        out.extend(sorted((e for e in itertools.product(range(total + 1), repeat=nvars)
                           if sum(e) == total), reverse=True))
    return out


def hirzebruch_chart(r, k, l):
    """Exponents of V^r_{k,l} in the chart at the vertex (0, l).

    That vertex ends the Weierstrass edge y = l; the chart coordinates are
    (l - j, i) for the exponent x^i y^j, so the rank-drop line is {first
    chart coordinate 0}.
    """
    return [(a, b) for a in range(l + 1) for b in range(k - r * (l - a) + 1)]


def hirzebruch_points(r, k, l):
    return [(i, j) for j in range(l + 1) for i in range(k - r * j + 1)]


def _rational(rng):
    num = rng.randint(1, 99) * rng.choice((-1, 1))
    den = rng.randint(1, 9)
    return f"{num}/{den}" if den != 1 else str(num)


def _poly_doc(nvars, polys):
    return {"nvars": nvars, "polynomials": [
        {json.dumps(list(e)): str(c) for e, c in sorted(p.items())} for p in polys]}


def _dump(doc):
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# scan: Hirzebruch vertex charts at points on and off the rank-drop line

SCAN_SHAPES = ((1, 4, 2), (1, 5, 2), (2, 6, 2), (3, 7, 2), (1, 5, 3),
               (2, 7, 2), (1, 7, 2), (2, 8, 2), (1, 6, 3))
SCAN_POINTS = {"line": 2, "off": 2}


def _scan_class(shape):
    r, k, l = shape
    key = f"H{r},{k},{l}"
    space = _dump({"nvars": 2, "monomials": [list(m) for m in hirzebruch_chart(r, k, l)]})

    def make(rng, turn):
        orbits = ["line"] * SCAN_POINTS["line"] + ["off"] * SCAN_POINTS["off"]
        rng.shuffle(orbits)
        points = [["0", _rational(rng)] if o == "line" else [_rational(rng), _rational(rng)]
                  for o in orbits]
        return Op(key, "hirzebruch", shape,
                  ("scan", "--space", "{space}", "--points", "{points}", "--json"),
                  {"space": space, "points": _dump({"points": points})}, tuple(orbits))

    return key, make


# ---------------------------------------------------------------------------
# generic: dense bases and powers of a linear form, mixed by det-1 matrices

GENERIC_CLASSES = (
    ("orders", "dense", (1, 3, 4)), ("orders", "dense", (1, 4, 5)),
    ("orders", "dense", (2, 3, 4)), ("orders", "dense", (2, 3, 5)),
    ("orders", "dense", (2, 3, 6)), ("orders", "dense", (2, 4, 4)),
    ("orders", "linear", 4), ("orders", "linear", 5), ("orders", "linear", 6),
    ("minors", "dense", (1, 3, 4)), ("minors", "dense", (1, 4, 5)),
    ("minors", "dense", (2, 3, 4)), ("minors", "dense", (2, 3, 5)),
)
#: fixed bases per dense class; round i uses base i mod 3, mixed by the seed
GENERIC_BASES = 3


def dense_basis(nvars, degree, dim, index):
    """A fixed dense basis: distinct leading monomials (so independent),
    every lower monomial present with probability 0.7."""
    rng = random.Random(f"dense:{nvars},{degree},{dim},{index}")
    mons = monomials_upto(nvars, degree)
    top = [m for m in mons if sum(m) >= degree - 1]
    pool = top if len(top) >= dim else mons
    while True:
        leads = rng.sample(pool, dim)
        if any(sum(m) == degree for m in leads):
            break
    basis = []
    for lead in sorted(leads, key=mons.index):
        p = {lead: rng.randint(1, 9) * rng.choice((-1, 1))}
        for m in mons[:mons.index(lead)]:
            if rng.random() < 0.7:
                p[m] = rng.randint(1, 9) * rng.choice((-1, 1))
        basis.append(p)
    return basis


def linear_form_powers(power, rng):
    """{s_k L^k : k <= power} for a seeded L = a x + b y + c and seeded
    scales s_k, all nonzero.

    The span is {polynomials in L of degree <= power} for every such L, so
    its generic rank profile is 1, 2, ..., power + 1 whatever L is."""
    a, b, c = (rng.randint(1, 2) * rng.choice((-1, 1)) for _ in range(3))
    basis = []
    for k in range(power + 1):
        scale = rng.randint(1, 3) * rng.choice((-1, 1))
        p = {}
        for i in range(k + 1):
            for j in range(k - i + 1):
                coeff = scale * comb(k, i) * comb(k - i, j) * a ** i * b ** j * c ** (k - i - j)
                if coeff:
                    p[(i, j)] = coeff
        basis.append(p)
    return basis


def det_one_mix(rng, basis):
    """G*B for a seeded integer G of determinant exactly 1: a signed
    permutation whose signs cancel the permutation's sign, then one
    elementary row operation p_i += s*p_j with s = +-1."""
    n = len(basis)
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    inversions = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    if (inversions % 2 == 1) != (signs.count(-1) % 2 == 1):
        signs[0] = -signs[0]
    rows = [{e: s * c for e, c in basis[j].items()} for j, s in zip(order, signs)]
    i, j = rng.sample(range(n), 2)
    step = rng.choice((-1, 1))
    for e, c in rows[j].items():
        rows[i][e] = rows[i].get(e, 0) + step * c
    rows[i] = {e: c for e, c in rows[i].items() if c}
    return rows


def _generic_class(command, kind, param):
    if kind == "dense":
        nvars, degree, dim = param
        key = f"{command}/dense{nvars},{degree},{dim}"
        bases = [dense_basis(nvars, degree, dim, i) for i in range(GENERIC_BASES)]
    else:
        nvars = 2
        key = f"{command}/linear{param}"
    argv = (("orders", "--space", "{space}", "--generic", "--json") if command == "orders"
            else ("minors", "--space", "{space}", "--json"))

    def make(rng, turn):
        if kind == "linear":
            polys = linear_form_powers(param, rng)
            return Op(key, kind, (param,), argv, {"space": _dump(_poly_doc(nvars, polys))})
        index = turn % GENERIC_BASES  # every run cycles evenly through the bases
        polys = det_one_mix(rng, bases[index])
        return Op(f"{key}#{index}", kind, param, argv, {"space": _dump(_poly_doc(nvars, polys))})

    return key, make


# ---------------------------------------------------------------------------
# operators: dv below and at the injectivity order

OPERATOR_CLASSES = (
    (("hirzebruch", (1, 3, 2)), 2), (("hirzebruch", (1, 3, 1)), 3),
    (("hirzebruch", (2, 4, 1)), 3), (("hirzebruch", (2, 4, 1)), 4),
    (("hirzebruch", (2, 5, 2)), 3),
    (("hirzebruch", (1, 4, 2)), 3), (("hirzebruch", (1, 4, 2)), 4),
    (("veronese", (1, 6)), 6), (("veronese", (2, 2)), 2),
    (("veronese", (2, 3)), 2), (("veronese", (2, 3)), 3),
    (("veronese", (2, 4)), 2), (("veronese", (3, 2)), 2),
)


def space_points(space):
    family, params = space
    if family == "hirzebruch":
        return hirzebruch_points(*params)
    nvars, degree = params
    return monomials_upto(nvars, degree)


def injectivity_order(space):
    """N_inj: k for V^r_{k,l}, m for the degree-m Veronese space."""
    family, params = space
    return params[1]


def _operator_class(space, order):
    family, params = space
    key = f"{family[0].upper()}{','.join(map(str, params))}@{order}"
    points = [list(p) for p in space_points(space)]

    def make(rng, turn):
        shuffled = list(points)
        rng.shuffle(shuffled)
        doc = {"nvars": len(points[0]), "monomials": shuffled}
        return Op(key, family, params,
                  ("dv", "--space", "{space}", "--order", str(order), "--json"),
                  {"space": _dump(doc)})

    return key, make


# ---------------------------------------------------------------------------
# toric: smooth polytopes of lattice rank 2 and 3

TORIC_CLASSES = (
    ("veronese", (2, 4)), ("veronese", (2, 5)), ("veronese", (2, 6)),
    ("veronese", (3, 2)), ("veronese", (3, 3)), ("veronese", (3, 4)),
    ("hirzebruch", (1, 4, 2)), ("hirzebruch", (1, 5, 3)), ("hirzebruch", (1, 6, 3)),
    ("box", (1, 1, 2)), ("box", (1, 2, 2)), ("box", (2, 2, 2)), ("box", (1, 2, 3)),
)


def polytope_vertices(family, params):
    if family == "veronese":
        n, m = params
        return [(0,) * n] + [tuple(m if i == j else 0 for j in range(n)) for i in range(n)]
    if family == "hirzebruch":
        r, k, l = params
        return [(0, 0), (k, 0), (0, l), (k - l * r, l)]
    return list(itertools.product(*[(0, side) for side in params]))


def lattice_image(rng, vertices):
    """Seeded axis permutation, reflections and translation of a lattice
    polytope; all coordinates stay non-negative."""
    n = len(vertices[0])
    perm = list(range(n))
    rng.shuffle(perm)
    flip = [rng.random() < 0.5 for _ in range(n)]
    shift = [rng.randint(0, 5) for _ in range(n)]
    top = [max(v[i] for v in vertices) for i in range(n)]
    out = []
    for v in vertices:
        w = [top[i] - v[i] if flip[i] else v[i] for i in range(n)]
        out.append([w[perm[i]] + shift[i] for i in range(n)])
    return sorted(out)


def _toric_class(family, params):
    key = f"{family[0].upper()}{','.join(map(str, params))}"
    vertices = polytope_vertices(family, params)

    def make(rng, turn):
        doc = {"vertices": lattice_image(rng, vertices)}
        return Op(key, family, params,
                  ("toric", "--polytope", "{polytope}", "--report", "--json"),
                  {"polytope": _dump(doc)})

    return key, make


# ---------------------------------------------------------------------------
# rounds


def classes(workload):
    """[(class key, maker)] in the workload's fixed order."""
    if workload == "scan":
        return [_scan_class(s) for s in SCAN_SHAPES]
    if workload == "generic":
        return [_generic_class(*c) for c in GENERIC_CLASSES]
    if workload == "operators":
        return [_operator_class(*c) for c in OPERATOR_CLASSES]
    if workload == "toric":
        return [_toric_class(*c) for c in TORIC_CLASSES]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload, seed, label="run"):
    """Endless stream of rounds; each round holds one op per class in a
    seeded order.  No two ops of a stream have the same documents: a
    repeat is drawn again.  The stream depends only on (workload, seed,
    label)."""
    makers = classes(workload)
    seen = set()
    i = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{label}:{i}")
        order = list(range(len(makers)))
        rng.shuffle(order)
        ops = []
        for j in order:
            for _ in range(1000):
                op = makers[j][1](rng, i)
                docs = (op.argv,) + tuple(sorted(op.files.items()))
                if docs not in seen:
                    break
            else:
                raise RuntimeError(f"{makers[j][0]}: no new input left for this run")
            seen.add(docs)
            ops.append(op)
        yield ops
        i += 1


# ---------------------------------------------------------------------------
# answer checks

_ORDER_FIELDS = ("n_inj", "n_surj", "gap_sequence", "rank_profile", "weierstrass_order",
                 "n_inj_generic", "dim")
_TORIC_FIELDS = ("smooth", "very_ample", "s", "d_gonal", "n_inj_generic", "hilbert_profile",
                 "n_inj_max", "n_surj", "n1_surj")


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invariants(command, envelope):
    """The label-free invariant fields of one report, as digest inputs.

    Method and provenance strings are left out, so a change of rank method
    is not a wrong answer.  For scan this is a list, one entry per point.
    """
    result = envelope["result"]
    if command == "scan":
        return [{f: p[f] for f in _ORDER_FIELDS} for p in result]
    if command == "orders":
        return {f: result[f] for f in _ORDER_FIELDS}
    if command == "minors":
        return {f: result[f] for f in ("order", "total", "truncated", "minors")}
    if command == "dv":
        out = {f: result[f] for f in ("order", "end_image_rank", "end_dim", "irreducible")}
        out["weights"] = sorted((w["weight"], w["dim"], w["annihilator_dim"], len(w["basis"]))
                                for w in result["weights"])
        return out
    if command == "toric":
        out = {f: result[f] for f in _TORIC_FIELDS}
        out["face_orders"] = sorted(v for _, v in result["n_inj_by_face"])
        out["vertex_orders"] = sorted(v for _, v in result["vertex_orders"])
        out["npoints"] = len(envelope["inputs"]["points"])
        out["nvertices"] = len(envelope["inputs"]["vertices"])
        return out
    raise ValueError(f"no invariants for {command!r}")


def formula_problems(workload, op, facts):
    """Differences from the paper's formulas, where one applies."""
    problems = []

    def expect(name, want, got):
        if want != got:
            problems.append(f"{name}: formula gives {want}, program gives {got}")

    if workload == "scan":
        r, k, l = op.params
        for orbit, point in zip(op.orbits, facts):
            expect(f"n_inj ({orbit})", k + l if orbit == "line" else k, point["n_inj"])
            expect(f"n_inj_generic ({orbit})", k, point["n_inj_generic"])
    elif workload == "generic" and op.argv[0] == "orders":
        if op.family == "linear":
            power = op.params[0]
            expect("rank_profile", list(range(1, power + 2)), facts["rank_profile"])
            expect("n_inj", power, facts["n_inj"])
        elif op.params[0] == 1:
            # one variable: the Wronskian of independent polynomials never vanishes
            expect("n_inj", op.params[2] - 1, facts["n_inj"])
    elif workload == "operators":
        space = (op.family, op.params)
        at_inj = int(op.argv[op.argv.index("--order") + 1]) >= injectivity_order(space)
        dim = len(space_points(space))
        expect("end_dim", dim * dim, facts["end_dim"])
        expect("irreducible", at_inj, facts["irreducible"])
        if at_inj:
            expect("end_image_rank", dim * dim, facts["end_image_rank"])
    elif workload == "toric":
        if op.family == "hirzebruch":
            r, k, l = op.params
            expect("n_inj_generic", k, facts["n_inj_generic"])
            expect("n_inj_max", k + l, facts["n_inj_max"])
            expect("n_surj", min(l, k - l * r), facts["n_surj"])
            expect("n1_surj", min(l, k - l * r), facts["n1_surj"])
        elif op.family == "veronese":
            m = op.params[1]
            for name in ("n_inj_generic", "n_inj_max", "n_surj", "n1_surj"):
                expect(name, m, facts[name])
    return problems


def reference_keys(workload, op):
    """Reference-digest keys for an op's invariants (one per scan point)."""
    if workload == "scan":
        return [f"{op.cls}/{orbit}" for orbit in op.orbits]
    return [op.cls]


def all_reference_keys(workload):
    """Every key a run of the workload can look up."""
    keys = [key for key, _ in classes(workload)]
    if workload == "scan":
        return [f"{k}/{orbit}" for k in keys for orbit in SCAN_POINTS]
    if workload == "generic":
        return [f"{k}#{i}" if "/dense" in k else k
                for k in keys for i in range(GENERIC_BASES if "/dense" in k else 1)]
    return keys


def check(workload, op, stdout, reference):
    """None when the op's answer is right, else the first problem found.

    `reference` maps class keys to digests of their invariants."""
    try:
        envelope = json.loads(stdout)
        facts = invariants(op.argv[0], envelope)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    problems = formula_problems(workload, op, facts)
    if problems:
        return problems[0]
    keys = reference_keys(workload, op)
    values = facts if workload == "scan" else [facts]
    if len(values) != len(keys):
        return f"expected {len(keys)} results, got {len(values)}"
    for key, value in zip(keys, values):
        want = reference.get(key)
        if want is None:
            return f"no reference digest for {key}"
        if digest(value) != want:
            return f"{key}: digest {digest(value)} != reference {want}"
    return None
