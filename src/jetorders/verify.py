"""Known-answer suites for the worked families, with cross-module checks.

Two families are bundled: the full degree-<=m monomial space on affine
n-space (projective completion P^n with O(m)), and the Hirzebruch spaces
span{x^i y^j : 0 <= i + rj <= k, 0 <= j <= l} with k - lr >= 0.  Every
report row carries the provenance of its expected value; comparisons are
exact integer equality throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import exponents_upto
from .diffops import (
    all_preserve,
    check_irreducible,
    evaluation_image,
    hirzebruch_generators,
    sl_generators,
)
from .jets import SubspaceV, n_inj_at, weierstrass_minors, weierstrass_scan
from .toric import (
    LatticePolytope,
    chart_subspace,
    n1_surj_toric,
    n_inj_hilbert,
    n_inj_max,
    n_inj_vertex_formula,
    n_surj_toric,
    polytope_build,
    smooth_check,
    vertex_chart,
    very_ample_check,
)

FORMULA = "[FORMULA]"   # expected value from a published closed formula
ORACLE = "[ORACLE]"     # expected value recomputed by an independent oracle
DIRECT = "[DIRECT]"     # immediate from the definitions


@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: object
    computed: object
    passed: bool
    provenance: str
    note: str = ""

    def format(self):
        mark = "pass" if self.passed else "FAIL"
        out = f"[{mark}] {self.name}: expected {self.expected}, computed {self.computed}  {self.provenance}"
        if self.note:
            out += f"  ({self.note})"
        return out


@dataclass
class VerifyReport:
    family: str
    params: dict
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, name, expected, computed, provenance, note=""):
        self.rows.append(CheckRow(name, expected, computed, expected == computed, provenance, note))

    def record(self, name, value, provenance, note=""):
        self.rows.append(CheckRow(name, value, value, True, provenance, note))

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def format_text(self):
        head = f"verify {self.family} {self.params}: {'ALL PASS' if self.passed else 'FAILURES'}"
        lines = [head] + ["  " + r.format() for r in self.rows]
        lines += ["  note: " + n for n in self.notes]
        return "\n".join(lines)

    def to_dict(self):
        return {
            "family": self.family,
            "params": self.params,
            "passed": self.passed,
            "rows": [
                {
                    "name": r.name,
                    "expected": _jsonable(r.expected),
                    "computed": _jsonable(r.computed),
                    "passed": r.passed,
                    "provenance": r.provenance,
                    "note": r.note,
                }
                for r in self.rows
            ],
            "notes": list(self.notes),
        }


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict
    subspace: SubspaceV
    polytope: LatticePolytope
    expected: dict  # name -> (value, provenance)


def veronese_family(n, m):
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    points = exponents_upto(n, m)
    V = SubspaceV.from_monomials(n, points)
    P = polytope_build(points=points)
    expected = {
        "n_inj_generic": (m, FORMULA),
        "n_inj_max": (m, FORMULA),
        "n_surj": (m, FORMULA),
        "n1_surj": (m, FORMULA),
    }
    return FamilySpec("veronese", {"n": n, "m": m}, V, P, expected)


def hirzebruch_points(r, k, l):
    if r < 1 or l < 1 or k - l * r < 0:
        raise ValueError("need r >= 1, l >= 1 and k - l*r >= 0")
    return [(i, j) for j in range(l + 1) for i in range(k - r * j + 1)]


def hirzebruch_family(r, k, l):
    if k - l * r < 1:
        # at k = lr the top edge collapses and the completion is a plane or
        # a singular cone; the four-vertex order table does not apply
        raise ValueError("the order table needs the four-vertex polytope: k - l*r >= 1")
    points = hirzebruch_points(r, k, l)
    V = SubspaceV.from_monomials(2, points)
    P = polytope_build(points=points)
    expected = {
        "n_inj_generic": (k, FORMULA),
        "n_inj_max": (k + l, FORMULA),
        "n_surj": (min(l, k - l * r), FORMULA),
        "n1_surj": (min(l, k - l * r), FORMULA),
        "vertex_multiset": (sorted([k, k, k + l, k + l]), FORMULA),
    }
    return FamilySpec("hirzebruch", {"r": r, "k": k, "l": l}, V, P, expected)


def random_rational_point(rng, nvars, nonzero=True):
    pt = []
    for _ in range(nvars):
        num = rng.randint(1, 99) if nonzero else rng.randint(0, 99)
        pt.append(Fraction(num * rng.choice((-1, 1)), rng.randint(1, 9)))
    return tuple(pt)


def verify_veronese(n, m, seed=0):
    """Check the affine-space family against its known orders and generators;
    `seed` picks the sample points."""
    fam = veronese_family(n, m)
    report = VerifyReport("veronese", {"n": n, "m": m})
    V, P = fam.subspace, fam.polytope

    report.check("smooth", True, bool(smooth_check(P)), DIRECT)
    report.check("very_ample", True, very_ample_check(P), DIRECT)
    report.check("n_inj_generic", m, n_inj_hilbert(P).order, FORMULA)
    report.check("n_inj_max", m, n_inj_max(P), FORMULA)
    report.check("n_surj", m, n_surj_toric(P), FORMULA)
    report.check("n1_surj", m, n1_surj_toric(P), FORMULA)

    rng = random.Random(seed)
    points = [random_rational_point(rng, n) for _ in range(4)]
    reports = weierstrass_scan(V, points)
    report.check("pointwise n_inj", [m] * len(points), [r.n_inj for r in reports], FORMULA)
    report.check("pointwise n_surj", [m] * len(points), [r.n_surj for r in reports], FORMULA)
    report.check("generic n_inj (jets)", m, V.generic_report.n_inj, FORMULA)

    gens = sl_generators(n, m)
    report.check("generator count", (n + 1) ** 2 - 1, len(gens), DIRECT)
    report.check("generators preserve V", True, all_preserve(gens, V), FORMULA)
    report.check("irreducible at order m", True, check_irreducible(V, m), FORMULA)

    image = evaluation_image(V, 1)
    report.record("order-1 image dimension", image.rank, ORACLE,
                  note="exact dimension reported; no isomorphism class asserted")
    return report


def _hirzebruch_weierstrass_rows(report, P, r, k, l, seed):
    """Oracle-resolved per-vertex orders and the chart-visible Weierstrass
    trace, in the chart at a vertex of the long edge; `seed` picks the
    sample points."""
    oracle = {v: n_inj_at(chart_subspace(P, v), (0,) * P.nvars).n_inj for v in P.vertices}
    report.check("vertex multiset (oracle)", sorted([k, k, k + l, k + l]),
                 sorted(oracle.values()), FORMULA)
    formula = {v: n_inj_vertex_formula(P, v) for v in P.vertices}
    report.check("vertex formula agrees with oracle", oracle, formula, ORACLE)

    published_table = {(0, 0): k + l, (k, 0): k, (0, l): k + l, (k - l * r, l): k}
    if formula != published_table:
        report.notes.append(
            "per-vertex labels resolved by the jet oracle; the published table "
            f"assigns {published_table} but the oracle gives {formula} "
            "(multiset and extreme values unchanged)"
        )

    heavy = [v for v, val in oracle.items() if val == k + l]
    report.check("number of vertices with n_inj = k+l", 2, len(heavy), FORMULA)
    # the two heavy vertices span the Weierstrass edge; scan its chart
    vertex = sorted(heavy)[0]
    other = sorted(heavy)[1]
    dirs = list(P.vertex_directions(vertex))
    edge_dir = [d for d in dirs
                if _is_parallel(d, tuple(a - b for a, b in zip(other, vertex)))]
    tangent = edge_dir[0]
    transverse = [d for d in dirs if d != tangent][0]
    ordered = (transverse, tangent)  # transverse first: the locus is {first coord 0}
    chart, _ = vertex_chart(P, vertex, ordered)
    Vc = SubspaceV.from_monomials(P.nvars, chart)

    rng = random.Random(seed)
    on_locus = [(Fraction(0), random_rational_point(rng, 1)[0]) for _ in range(3)]
    off_locus = [random_rational_point(rng, 2) for _ in range(3)]
    scans = weierstrass_scan(Vc, on_locus + off_locus)
    report.check("n_inj on the rank-drop locus (first chart coordinate 0)",
                 [k + l] * 3, [s.n_inj for s in scans[:3]], FORMULA)
    report.check("weierstrass_order on the locus (in W_(l-1), not W_l)",
                 [l - 1] * 3, [s.weierstrass_order for s in scans[:3]], FORMULA)
    report.check("n_inj off the locus", [k] * 3, [s.n_inj for s in scans[3:]], FORMULA)

    minors = weierstrass_minors(Vc, cap=400)
    if not minors.truncated:
        vanish = all(m.substitute_zero(0).is_zero for m in minors.minors)
        report.check("all maximal minors vanish on the locus", True, vanish, ORACLE)
        witness = all(any(m(p) != 0 for m in minors.minors) for p in off_locus)
        report.check("some minor is nonzero off the locus", True, witness, ORACLE)
    else:
        report.record("weierstrass minors", f"truncated ({minors.total} minors > cap)", DIRECT,
                      note="rank-drop locus certified by the point scan instead")

    # the standard chart at (0,0) sees no Weierstrass points
    V0 = chart_subspace(P, (0, 0))
    pts = [random_rational_point(rng, 2) for _ in range(3)]
    std = weierstrass_scan(V0, pts)
    report.check("standard chart: no Weierstrass points at sampled points",
                 [-1] * 3, [s.weierstrass_order for s in std], ORACLE)


def _is_parallel(d, v):
    return d[0] * v[1] == d[1] * v[0]


def verify_hirzebruch(r, k, l, seed=0):
    """Check a Hirzebruch space against its known orders, Weierstrass locus
    and generator list; `seed` picks the sample points."""
    fam = hirzebruch_family(r, k, l)
    report = VerifyReport("hirzebruch", {"r": r, "k": k, "l": l})
    V, P = fam.subspace, fam.polytope

    npts = sum(k - r * j + 1 for j in range(l + 1))
    report.check("basis size", npts, V.dim, DIRECT)
    report.check("smooth", True, bool(smooth_check(P)), ORACLE)
    report.check("edge lengths", sorted([k, l, k - l * r, l]),
                 sorted(e.length for e in P.edges), ORACLE)
    report.check("n_surj", min(l, k - l * r), n_surj_toric(P), FORMULA)
    report.check("n1_surj", min(l, k - l * r), n1_surj_toric(P), FORMULA)
    report.check("n_inj_generic", k, n_inj_hilbert(P).order, FORMULA)
    report.check("n_inj_max", k + l, n_inj_max(P), FORMULA)

    _hirzebruch_weierstrass_rows(report, P, r, k, l, seed)

    gens = hirzebruch_generators(r, k, l)
    report.check("generators preserve V", True, all_preserve(gens, V), FORMULA)

    n1 = min(l, k - l * r)
    ann = max(ann for n in range(n1 + 1) for _, _, ann in evaluation_image(V, n).by_weight)
    report.check("annihilator vanishes up to n1_surj", 0, ann, FORMULA)
    return report
