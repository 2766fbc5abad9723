"""Batch front-end: parse space/polytope files, dispatch, emit reports.

Exit codes: 0 success, 1 verification failure, 2 input error.  Reports are
deterministic for identical inputs and seed; the seed picks only the sample
points of `verify`, the other commands echo it.  Rationals are serialized
as "p/q" strings so no floating point appears anywhere.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import __version__
from .algebra import Polynomial, parse_rational
from .diffops import weight_spaces, weight_window
from .jets import (
    GENERIC,
    DependentBasisError,
    SubspaceV,
    n_inj_at,
    weierstrass_minors,
    weierstrass_scan,
)
from .toric import (
    BasisConditionError,
    DegeneratePolytopeError,
    NonSaturatedInputError,
    UnsupportedPolytopeError,
    polytope_build,
    toric_report,
)
from .verify import verify_hirzebruch, verify_veronese

SEED_ENV_VAR = "JETORDERS_SEED"

#: space-document keys that no longer exist (generic ranks are certified by
#: evaluation, which has nothing left to tune)
REMOVED_SPACE_KEYS = ("symbolic_threshold", "random_trials")


class SpaceFileError(ValueError):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise SpaceFileError(code, message)


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("E_SCHEMA", f"not valid JSON: {exc}")


def _is_int(value):
    """A JSON integer: `true` and `false` parse to bools, which are ints in
    Python but not in the document schema."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational_entry(value):
    """An exact rational from a JSON integer or a "p/q" string; a JSON float
    is not exact and is refused."""
    if not (_is_int(value) or isinstance(value, str)):
        _fail("E_RATIONAL", f"{value!r} is not an integer or a 'p/q' string")
    try:
        return parse_rational(value)
    except ValueError as exc:
        _fail("E_RATIONAL", str(exc))


def parse_space(text):
    """Parse a space document into a validated SubspaceV.

    Document: {"nvars": n, "monomials": [[e..], ...]} or
    {"nvars": n, "polynomials": [{"[e..]": "p/q", ...}, ...]}, plus the
    optional key "seed".
    """
    doc = _load_json(text)
    if not isinstance(doc, dict) or "nvars" not in doc:
        _fail("E_SCHEMA", "document must be an object with an 'nvars' key")
    for key in REMOVED_SPACE_KEYS:
        if key in doc:
            _fail("E_SCHEMA", f"key '{key}' was removed: generic ranks are certified "
                              "by evaluation and take no tuning keys")
    nvars = doc["nvars"]
    if not _is_int(nvars) or nvars < 1:
        _fail("E_SCHEMA", "'nvars' must be a positive integer")

    if ("monomials" in doc) == ("polynomials" in doc):
        _fail("E_SCHEMA", "give exactly one of 'monomials' or 'polynomials'")
    key = "monomials" if "monomials" in doc else "polynomials"
    if not isinstance(doc[key], list) or not doc[key]:
        _fail("E_SCHEMA", f"'{key}' must be a non-empty list")

    if "monomials" in doc:
        seen = set()
        points = []
        for m in doc["monomials"]:
            m = _parse_exponent(m, nvars)
            if m in seen:
                _fail("E_DUP_MONOMIAL", f"duplicate monomial {list(m)}")
            seen.add(m)
            points.append(m)
        try:
            return SubspaceV.from_monomials(nvars, points), doc
        except DependentBasisError as exc:
            _fail("E_DEPENDENT", str(exc))

    basis = []
    for entry in doc["polynomials"]:
        if not isinstance(entry, dict) or not entry:
            _fail("E_SCHEMA", "each polynomial must be a non-empty coefficient map")
        terms = {}
        for key, value in entry.items():
            try:
                exp = json.loads(key)
            except json.JSONDecodeError:
                _fail("E_SCHEMA", f"bad exponent key {key!r}")
            exp = _parse_exponent(exp, nvars)
            if exp in terms:
                _fail("E_DUP_MONOMIAL", f"exponent {list(exp)} appears twice in one polynomial")
            terms[exp] = _parse_rational_entry(value)
        # checked above; an all-zero polynomial is left to SubspaceV (E_DEPENDENT)
        basis.append(Polynomial._trusted(nvars, {e: c for e, c in terms.items() if c}))
    try:
        return SubspaceV(nvars, basis), doc
    except DependentBasisError as exc:
        _fail("E_DEPENDENT", str(exc))


def _parse_exponent(value, nvars):
    if not isinstance(value, list) or len(value) != nvars:
        _fail("E_DIM", f"exponent {value!r} does not have {nvars} entries")
    out = []
    for e in value:
        if not _is_int(e):
            _fail("E_SCHEMA", f"exponent entry {e!r} is not an integer")
        if e < 0:
            _fail("E_NEG_EXPONENT", f"negative exponent in {value!r}")
        out.append(e)
    return tuple(out)


def _space_doc(V):
    """The space document of V, with its keys in sorted order."""
    if V.is_monomial:
        return {"monomials": [list(m) for m in V.monomial_points], "nvars": V.nvars}
    return {
        "nvars": V.nvars,
        "polynomials": [dict(sorted((json.dumps(list(e)), str(c)) for e, c in p.items()))
                        for p in V.basis],
    }


def serialize_space(V):
    """Inverse of parse_space: parse_space(serialize_space(V)) == V."""
    return json.dumps(_space_doc(V), sort_keys=True)


def parse_polytope(text):
    doc = _load_json(text)
    if not isinstance(doc, dict) or not ({"points", "vertices"} & set(doc)):
        _fail("E_SCHEMA", "polytope document needs 'vertices' and/or 'points'")
    edges = doc.get("edges", [])
    if (not all(_is_point_list(doc.get(key, [])) for key in ("points", "vertices"))
            or not isinstance(edges, list)
            or not all(_is_point_list(e) and len(e) == 2 for e in edges)):
        _fail("E_SCHEMA", "'points' and 'vertices' must be lists of integer points, "
                          "'edges' a list of point pairs")
    try:
        return polytope_build(points=doc.get("points"), vertices=doc.get("vertices"),
                              edges=doc.get("edges")), doc
    except (NonSaturatedInputError, UnsupportedPolytopeError, ValueError) as exc:
        _fail("E_POLYTOPE", str(exc))


def _is_point_list(value):
    return isinstance(value, list) and all(
        isinstance(p, list) and all(_is_int(c) for c in p) for p in value)


def _parse_point(text, nvars):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != nvars:
        _fail("E_DIM", f"point {text!r} does not have {nvars} coordinates")
    try:
        return tuple(parse_rational(p) for p in parts)
    except ValueError as exc:
        _fail("E_RATIONAL", str(exc))


def _resolve_seed(args, doc):
    if doc and "seed" in doc and not _is_int(doc["seed"]):
        _fail("E_SCHEMA", "'seed' must be an integer")
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail("E_SCHEMA", f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if doc and "seed" in doc:
        return doc["seed"]
    return 0


def _emit(args, report):
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report, indent=0)


def _print_text(value, indent, key=None):
    pad = "  " * indent
    label = f"{key}: " if key else ""
    if isinstance(value, dict):
        if key:
            print(f"{pad}{key}:")
        for k in value:
            _print_text(value[k], indent + (1 if key else 0), k)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        print(f"{pad}{label}")
        for item in value:
            _print_text(item, indent + 1)
    else:
        print(f"{pad}{label}{value}")


def _report_envelope(command, seed, inputs, result, methods=None):
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": inputs,
        "methods": methods or [],
        "result": result,
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_orders(args):
    V, doc = parse_space(_read(args.space))
    seed = _resolve_seed(args, doc)
    if args.generic == (args.at is not None):
        _fail("E_SCHEMA", "give exactly one of --at or --generic")
    if args.generic:
        rep = n_inj_at(V, GENERIC)
    else:
        rep = n_inj_at(V, _parse_point(args.at, V.nvars))
    out = _report_envelope("orders", seed, _space_doc(V), rep.to_dict(), [rep.method])
    _emit(args, out)
    return 0


def _cmd_scan(args):
    V, doc = parse_space(_read(args.space))
    seed = _resolve_seed(args, doc)
    pts_doc = _load_json(_read(args.points))
    if (not isinstance(pts_doc, dict) or not isinstance(pts_doc.get("points"), list)
            or not all(isinstance(p, list) for p in pts_doc["points"])):
        _fail("E_SCHEMA", "points document must be {\"points\": [[..], ..]}")
    points = []
    for p in pts_doc["points"]:
        if len(p) != V.nvars:
            _fail("E_DIM", f"point {p!r} does not have {V.nvars} coordinates")
        points.append(tuple(_parse_rational_entry(c) for c in p))
    reports = weierstrass_scan(V, points)
    out = _report_envelope("scan", seed, _space_doc(V), [r.to_dict() for r in reports],
                           sorted({r.method for r in reports}))
    _emit(args, out)
    return 0


def _cmd_minors(args):
    V, doc = parse_space(_read(args.space))
    seed = _resolve_seed(args, doc)
    if args.cap < 0:
        _fail("E_SCHEMA", "--cap must be >= 0")
    rep = weierstrass_minors(V, cap=args.cap)
    result = {
        "order": rep.order,
        "certified": rep.certified,
        "total": rep.total,
        "truncated": rep.truncated,
        "minors": [str(m) for m in rep.minors],
    }
    out = _report_envelope("minors", seed, _space_doc(V), result)
    _emit(args, out)
    return 0


def _cmd_dv(args):
    V, doc = parse_space(_read(args.space))
    seed = _resolve_seed(args, doc)
    if not V.is_monomial:
        _fail("E_SCHEMA", "dv requires a monomial space (weight grading)")
    if args.order < 0 or (args.weights is not None and args.weights < 0):
        _fail("E_SCHEMA", "--order and --weights must be >= 0")
    # the End(V) image is the sum of dim_w - ann_w over the weights of P - P
    # (see diffops); their bases are solved once and listed unless --weights
    spaces = weight_spaces(V, weight_window(V), args.order)
    rank = sum(space.dimension - space.annihilator_dim for space in spaces)
    if args.weights is not None:
        spaces = weight_spaces(V, sorted(_box_weights(V.nvars, args.weights)), args.order)
    table = [{
        "weight": list(space.weight),
        "dim": space.dimension,
        "annihilator_dim": space.annihilator_dim,
        "basis": [str(op) for op in space.basis],
    } for space in spaces]
    result = {
        "order": args.order,
        "end_image_rank": rank,
        "end_dim": V.dim * V.dim,
        "irreducible": rank == V.dim * V.dim,
        "weights": table,
    }
    out = _report_envelope("dv", seed, _space_doc(V), result)
    _emit(args, out)
    return 0


def _box_weights(nvars, bound):
    return list(itertools.product(range(-bound, bound + 1), repeat=nvars))


def _cmd_toric(args):
    P, doc = parse_polytope(_read(args.polytope))
    seed = _resolve_seed(args, doc)
    bound = doc.get("very_ample_bound", 10)
    if not _is_int(bound) or bound < 0:
        _fail("E_SCHEMA", "'very_ample_bound' must be a non-negative integer")
    rep = toric_report(P, with_orders=not args.no_orders, very_ample_bound=bound)
    inputs = {"points": [list(p) for p in P.points],
              "vertices": [list(v) for v in P.vertices]}
    out = _report_envelope("toric", seed, inputs, rep.to_dict())
    _emit(args, out)
    return 0


def _cmd_verify(args):
    seed = _resolve_seed(args, None)
    if args.family == "veronese":
        rep = verify_veronese(args.n, args.m, seed=seed)
    else:
        rep = verify_hirzebruch(args.r, args.k, args.l, seed=seed)
    if args.json:
        out = _report_envelope("verify", seed, rep.params, rep.to_dict())
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(rep.format_text())
    return 0 if rep.passed else 1


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail("E_IO", f"cannot read {path}: {exc}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves the
    parser unchanged, and each call returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="jetorders",
        description="Exact jet, Weierstrass and preserving-operator computations "
                    "for polynomial subspaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space=True):
        if space:
            p.add_argument("--space", required=True, help="space document (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"echoed in the report; the result does not depend on it "
                            f"(default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("orders", help="injectivity/jet orders at a point or generically")
    common(p)
    p.add_argument("--at", help="rational point, e.g. '1,2/3'")
    p.add_argument("--generic", action="store_true", help="orders at the generic point")
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("scan", help="Weierstrass scan over a list of points")
    common(p)
    p.add_argument("--points", required=True, help="points document (JSON)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("minors", help="maximal minors cutting out the Weierstrass locus")
    common(p)
    p.add_argument("--cap", type=int, default=200, help="truncation cap on the minor count")
    p.set_defaults(func=_cmd_minors)

    p = sub.add_parser("dv", help="weight spaces of preserving operators and the End(V) image")
    common(p)
    p.add_argument("--order", type=int, required=True, help="operator order bound")
    p.add_argument("--weights", type=int, default=None,
                   help="scan the weight box [-W, W]^n instead of P - P")
    p.set_defaults(func=_cmd_dv)

    p = sub.add_parser("toric", help="lattice-polytope invariant report")
    p.add_argument("--polytope", required=True, help="polytope document (JSON)")
    p.add_argument("--report", action="store_true", required=True)
    p.add_argument("--no-orders", action="store_true",
                   help="skip orbit orders (valid for non-smooth polytopes)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_toric)

    p = sub.add_parser("verify", help="known-answer family suites")
    fam = p.add_subparsers(dest="family", required=True)
    pv = fam.add_parser("veronese")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--m", type=int, required=True)
    ph = fam.add_parser("hirzebruch")
    ph.add_argument("--r", type=int, required=True)
    ph.add_argument("--k", type=int, required=True)
    ph.add_argument("--l", type=int, required=True)
    for px in (pv, ph):
        px.add_argument("--seed", type=int, default=None,
                        help=f"PRNG seed of the sample points (default: ${SEED_ENV_VAR} or 0)")
        px.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)
    pv.set_defaults(func=_cmd_verify)
    ph.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every input error class is a ValueError
        print(f"error[{_error_code(exc)}]: {exc}", file=sys.stderr)
        return 2


def _error_code(exc):
    if isinstance(exc, SpaceFileError):
        return exc.code
    if isinstance(exc, DependentBasisError):
        return "E_DEPENDENT"
    if isinstance(exc, (DegeneratePolytopeError, BasisConditionError,
                        NonSaturatedInputError, UnsupportedPolytopeError)):
        return "E_POLYTOPE"
    return "E_VALUE"


if __name__ == "__main__":
    sys.exit(main())
