import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetorders.cli import SpaceFileError, _space_doc, main, parse_space, serialize_space


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_parse_space_monomials():
    V, _ = parse_space('{"nvars":1, "monomials":[[0],[1],[3]]}')
    assert V.is_monomial and V.dim == 3


def test_parse_space_polynomials():
    V, _ = parse_space('{"nvars":1, "polynomials":[{"[0]":"1"},{"[0]":"1","[1]":"1"}]}')
    assert not V.is_monomial and V.dim == 2


def test_parse_space_error_codes():
    cases = {
        '{"nvars":1, "monomials":[[0],[0]]}': "E_DUP_MONOMIAL",
        '{"nvars":1, "monomials":[[-1]]}': "E_NEG_EXPONENT",
        '{"nvars":2, "monomials":[[1]]}': "E_DIM",
        '{"nvars":1, "polynomials":[{"[0]":"x"}]}': "E_RATIONAL",
        '{"nvars":1, "polynomials":[{"[0]":"1"},{"[0]":"2"}]}': "E_DEPENDENT",
        '{"nvars":1, "polynomials":[{"[0]":"0","[1]":"0/3"},{"[1]":"1"}]}': "E_DEPENDENT",
        '{"nvars": 2, "polynomials": [{"[1, 0]": "2", "[1,0]": "3"}, {"[0, 1]": "1"}]}':
            "E_DUP_MONOMIAL",
        '{"nvars":1}': "E_SCHEMA",
        'not json': "E_SCHEMA",
    }
    for text, code in cases.items():
        with pytest.raises(SpaceFileError) as err:
            parse_space(text)
        assert err.value.code == code, text


def test_round_trip():
    for text in (
        '{"nvars":2, "monomials":[[0,0],[1,2]]}',
        '{"nvars":1, "polynomials":[{"[0]":"1/3","[2]":"-7"}]}',
    ):
        V, _ = parse_space(text)
        W, _ = parse_space(serialize_space(V))
        assert W.nvars == V.nvars
        assert W.monomial_points == V.monomial_points
        assert list(W.basis) == list(V.basis)


def test_parse_space_drops_zero_coefficients(tmp_path, capsys):
    text = '{"nvars":2, "polynomials":[{"[0, 0]":"1","[1, 0]":"0"},{"[0, 1]":"3/4","[2, 0]":"-2"}]}'
    V, _ = parse_space(text)
    assert [p.items() for p in V.basis] == [
        [((0, 0), 1)], [((0, 1), Fraction(3, 4)), ((2, 0), -2)]]
    assert json.loads(serialize_space(V))["polynomials"] == [
        {"[0, 0]": "1"}, {"[0, 1]": "3/4", "[2, 0]": "-2"}]
    code, out, _ = run_cli(capsys, "orders", "--space", write(tmp_path, "s.json", text),
                           "--generic", "--json")
    assert code == 0 and json.loads(out)["inputs"] == json.loads(serialize_space(V))


def test_space_echo_is_the_serialized_document():
    # the report echoes the document dict itself, in the key order that a
    # JSON round trip of serialize_space gives, so text reports keep it too
    for text in (
        '{"nvars":2, "monomials":[[3,0],[0,0],[1,2]]}',
        '{"nvars":1, "polynomials":[{"[10]":"1","[2]":"-7","[0]":"1/3"},{"[1]":"2"}]}',
    ):
        V, _ = parse_space(text)
        doc = _space_doc(V)
        assert json.dumps(doc) == json.dumps(json.loads(serialize_space(V)))
        W, _ = parse_space(serialize_space(V))
        assert W.monomial_points == V.monomial_points and list(W.basis) == list(V.basis)


# sha256 of the stdout of `dv --order n` for n = 0..4, concatenated, per space
# and flags; recorded before the live-column kernels and the per-s term
# tables, which changed no output.  An intended output change updates these.
DV_SPACES = {
    "lower": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]],
    "translated": [[2, 3], [3, 3], [2, 4], [5, 1]],
    "three_vars": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]],
    "one_point": [[1, 2]],
}
DV_DIGESTS = {
    ("lower", ()):
        "3f09e21f9edd4775f116d3e669b30cfff90e348ee1f2f4a9946830ff0bcbe64e",
    ("lower", ("--json",)):
        "2126ac9170a9cdb05f75a13c11382afad0c100142e157206462c4806b4c2fba0",
    ("lower", ("--weights", "2")):
        "2a5a4b000d7489106c6ed1ffee8d8f4c3c0c7ee0cba12f56c4092da516f00466",
    ("lower", ("--json", "--weights", "2")):
        "6d68ed76bfa84ad154f3a5a656613908c280eda14ad1a85463bbd64d1189ddd0",
    ("translated", ()):
        "bd3e51a93dd8b968a37bc24d1133f173236cebfdc91233f00448c3748cd3a079",
    ("translated", ("--json",)):
        "4f0ed302cdc657def08c4ffffe097e511d6ebe82c9e0ceaabdfde41a4c97d0fc",
    ("translated", ("--weights", "2")):
        "69f853fe17fc52efaf6d35066954c6cc3311df67e27641ba5ebef07018b657b0",
    ("translated", ("--json", "--weights", "2")):
        "497ecb3fffcd2474a426b508ccd6acaef093c6a59caeb2e172c43d20ce0488ed",
    ("three_vars", ()):
        "890e59d8823106ee968768563b34ec390812aba700f5e65cb8a6fdc9afd99767",
    ("three_vars", ("--json",)):
        "1fcd0b172ae518a60a272404343de50ed186ae04a5f2758c2422dad78bf6f2d3",
    ("three_vars", ("--weights", "2")):
        "5c7b1d19210982c720da31fba5a7d157de92ea0dfc3339da2d807668a9f0275d",
    ("three_vars", ("--json", "--weights", "2")):
        "e87595d0370cbb16eed7e42bc76a44c3f2daa3296759b4731fc0d38d394f4e3e",
    ("one_point", ()):
        "439ec8ba40179045967d9cc1f2ad345e5be09aee22febbca261480338d1548fd",
    ("one_point", ("--json",)):
        "e2ccfe0c1a99308b47113eb0d26dd2587d10bfa04580e97d78b5502ae016174b",
    ("one_point", ("--weights", "2")):
        "65b7af2b78db3b8e50c2c3b40b7e4ce3363998f350cb7a9784a1412a9f50e9f5",
    ("one_point", ("--json", "--weights", "2")):
        "1ae3f306b4c545a120f44ea750ecf7b41d9e6fbf050ff4dacc614d01162453fa",
}


def test_dv_output_is_pinned(tmp_path, capsys):
    for (name, flags), expected in DV_DIGESTS.items():
        points = DV_SPACES[name]
        space = write(tmp_path, f"{name}.json", {"nvars": len(points[0]), "monomials": points})
        digest = hashlib.sha256()
        for order in range(5):
            code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", str(order), *flags)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == expected, (name, flags)


def test_orders_generic(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1], [3]]})
    code, out, _ = run_cli(capsys, "orders", "--space", space, "--generic", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["n_inj"] == 2 and doc["result"]["certified"] is True
    assert doc["seed"] == 0 and doc["command"] == "orders"


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    from jetorders.cli import build_parser

    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1], [3]]})
    points = write(tmp_path, "p.json", {"points": [["0"], ["2"]]})
    calls = [("orders", "--space", space, "--generic", "--json"),
             ("scan", "--space", space, "--points", points, "--json"),
             ("orders", "--space", space, "--at", "0"),
             ("minors", "--space", space, "--cap", "5", "--json")]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    build_parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert build_parser() is build_parser()


def test_orders_at_point(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1], [3]]})
    code, out, _ = run_cli(capsys, "orders", "--space", space, "--at", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["n_inj"] == 3
    assert doc["result"]["rank_profile"] == [1, 2, 2, 3]


def test_orders_requires_exactly_one_mode(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0]]})
    code, _, err = run_cli(capsys, "orders", "--space", space)
    assert code == 2 and "E_SCHEMA" in err


def test_determinism_byte_identical(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 2, "monomials": [[0, 0], [1, 0], [0, 1], [2, 1]]})
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "orders", "--space", space, "--generic", "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_orders_two_variable_point(tmp_path, capsys):
    space = write(tmp_path, "s.json",
                  {"nvars": 2, "monomials": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    code, out, _ = run_cli(capsys, "orders", "--space", space, "--at", "2,-1/3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["point"] == ["2", "-1/3"]
    assert doc["result"]["n_inj"] == 2
    code, _, err = run_cli(capsys, "orders", "--space", space, "--at", "2")
    assert code == 2 and "E_DIM" in err


def test_dv_on_hirzebruch_space(tmp_path, capsys):
    pts = [[i, j] for j in range(2) for i in range(4 - j)]
    space = write(tmp_path, "s.json", {"nvars": 2, "monomials": pts})
    code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["irreducible"] is True  # order 4 = n_inj of the chart


def test_scan_command(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1], [3]]})
    pts = write(tmp_path, "p.json", {"points": [["0"], ["1"]]})
    code, out, _ = run_cli(capsys, "scan", "--space", space, "--points", pts, "--json")
    assert code == 0
    doc = json.loads(out)
    assert [r["weierstrass_order"] for r in doc["result"]] == [0, -1]


def test_minors_command(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1], [3]]})
    code, out, _ = run_cli(capsys, "minors", "--space", space, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["minors"] == ["3*x"]


def test_dv_command(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1]]})
    code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["end_image_rank"] == 4
    assert doc["result"]["irreducible"] is True


def test_dv_solves_each_weight_once(tmp_path, capsys, monkeypatch):
    # every weight of P - P is listed once, in order, and one kernel is
    # solved per distinct negative part s = max(0, -w) and shifted leaving
    # set {m - s : m >= s, m + w outside P}: weights sharing both share it
    from jetorders import diffops

    points = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    space = write(tmp_path, "s.json", {"nvars": 2, "monomials": [list(p) for p in points]})
    calls = []
    nullspace = diffops.nullspace

    def counted(rows, ncols):
        calls.append(ncols)
        return nullspace(rows, ncols)

    monkeypatch.setattr(diffops, "nullspace", counted)
    code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", "2", "--json")
    assert code == 0
    window = diffops.weight_window(points)
    doc = json.loads(out)
    assert [tuple(w["weight"]) for w in doc["result"]["weights"]] == window
    blocks = set()
    for w in window:
        s = tuple(max(0, -wi) for wi in w)
        leaving = frozenset(tuple(mi - si for mi, si in zip(m, s)) for m in points
                            if all(mi >= si for mi, si in zip(m, s))
                            and tuple(mi + wi for mi, wi in zip(m, w)) not in points)
        blocks.add((s, leaving))
    assert len(calls) == len(blocks) < len(window)


def test_dv_eliminates_no_matrix_wider_than_a_weight(tmp_path, capsys, monkeypatch):
    # the End(V) rank is read off the weight blocks, so no elimination sees a
    # dim^2-wide matrix: each has at most one column per weight-w term
    from jetorders import diffops, linalg
    from jetorders.algebra import exponents_upto

    points = exponents_upto(2, 3)
    space = write(tmp_path, "s.json", {"nvars": 2, "monomials": [list(p) for p in points]})
    widths = []
    eliminate = linalg._eliminate

    def counted_eliminate(rows, ncols, reduced=False):
        widths.append(ncols)
        return eliminate(rows, ncols, reduced)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", "3", "--json")
    assert code == 0 and json.loads(out)["result"]["irreducible"] is True
    widest = max(len(diffops.preserving_weight_space(points, w, 3).terms)
                 for w in diffops.weight_window(points))
    assert widths and max(widths) <= widest < len(points) ** 2


def test_dv_weight_window(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1]]})
    code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", "2",
                           "--weights", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    weights = {tuple(w["weight"]): w for w in doc["result"]["weights"]}
    assert weights[(0,)]["annihilator_dim"] == 1  # x^2 d^2


def test_toric_command(tmp_path, capsys):
    poly = write(tmp_path, "p.json", {"vertices": [[0, 0], [3, 0], [0, 1], [2, 1]]})
    code, out, _ = run_cli(capsys, "toric", "--polytope", poly, "--report", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["n_inj_generic"] == 3
    assert doc["result"]["n_surj"] == 1


def test_toric_non_smooth_exit_2(tmp_path, capsys):
    poly = write(tmp_path, "p.json", {"vertices": [[0, 0], [2, 0], [0, 1]]})
    code, _, err = run_cli(capsys, "toric", "--polytope", poly, "--report")
    assert code == 2 and err.startswith("error[E_POLYTOPE]")
    assert "basis condition fails at vertex" in err
    code, _, _ = run_cli(capsys, "toric", "--polytope", poly, "--report", "--no-orders")
    assert code == 0


def test_toric_rank_four_explicit_documents(tmp_path, capsys):
    import itertools

    corners = [list(c) for c in itertools.product((0, 1), repeat=4)]
    edges = [[a, b] for a, b in itertools.combinations(corners, 2)
             if sum(x != y for x, y in zip(a, b)) == 1]
    cube = write(tmp_path, "cube.json", {"points": corners, "vertices": corners, "edges": edges})
    code, out, _ = run_cli(capsys, "toric", "--polytope", cube, "--report", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["n1_surj"] == 1 and doc["result"]["n_inj_max"] == 4
    assert len(doc["result"]["n_inj_by_face"]) == 81
    # conv{0, e1, e2, e3, 2 e4}: the edges at e1 span an index-2 sublattice
    vertices = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    bad = write(tmp_path, "bad.json", {
        "points": vertices + [[0, 0, 0, 1]], "vertices": vertices,
        "edges": [list(e) for e in itertools.combinations(vertices, 2)]})
    code, _, err = run_cli(capsys, "toric", "--polytope", bad, "--report", "--json")
    assert code == 2 and err.startswith("error[E_POLYTOPE]")


def test_toric_rejects_non_saturated_points(tmp_path, capsys):
    poly = write(tmp_path, "p.json", {"points": [[0, 0], [2, 0], [0, 2], [2, 2]]})
    code, _, err = run_cli(capsys, "toric", "--polytope", poly, "--report")
    assert code == 2 and "missing" in err


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "veronese", "--n", "1", "--m", "2")
    assert code == 0 and "ALL PASS" in out
    code, out, _ = run_cli(capsys, "verify", "hirzebruch", "--r", "1", "--k", "3", "--l", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True
    code, _, err = run_cli(capsys, "verify", "hirzebruch", "--r", "2", "--k", "1", "--l", "1")
    assert code == 2


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1]]})
    monkeypatch.setenv("JETORDERS_SEED", "11")
    code, out, _ = run_cli(capsys, "orders", "--space", space, "--generic", "--json")
    assert code == 0 and json.loads(out)["seed"] == 11
    monkeypatch.setenv("JETORDERS_SEED", "not-a-seed")
    code, _, err = run_cli(capsys, "orders", "--space", space, "--generic", "--json")
    assert code == 2


def test_seed_does_not_change_jet_results(tmp_path, capsys):
    # the seed only picks verify's sample points; orders, scan and minors
    # echo it and give the same result for every seed
    space = write(tmp_path, "s.json", {"nvars": 2, "polynomials": [
        {"[0,0]": "1", "[1,0]": "2"}, {"[0,1]": "1", "[2,0]": "-1/3"},
        {"[1,1]": "1", "[0,2]": "5"}, {"[2,1]": "1", "[0,0]": "7"}]})
    points = write(tmp_path, "p.json", {"points": [[0, 0], [1, "1/2"], [-3, 2]]})
    for argv in (("orders", "--generic"), ("scan", "--points", points), ("minors",)):
        results = []
        for seed in ("0", "9"):
            code, out, _ = run_cli(capsys, *argv, "--space", space, "--seed", seed, "--json")
            doc = json.loads(out)
            assert code == 0 and doc["seed"] == int(seed)
            results.append(doc["result"])
        assert results[0] == results[1], argv


def test_seed_from_file(tmp_path, capsys):
    space = write(tmp_path, "s.json", {"nvars": 1, "monomials": [[0], [1]], "seed": 3})
    code, out, _ = run_cli(capsys, "orders", "--space", space, "--generic", "--json")
    assert code == 0 and json.loads(out)["seed"] == 3


MONOMIAL_SPACE = {"nvars": 1, "monomials": [[0], [1], [3]]}
TRIANGLE = {"vertices": [[0, 0], [1, 0], [0, 1]]}
MALFORMED_INPUTS = [
    (["orders", "--space", "{space}", "--generic"], {"space": {"nvars": 2, "monomials": 5}}),
    (["orders", "--space", "{space}", "--generic"], {"space": {"nvars": 2, "polynomials": 5}}),
    (["scan", "--space", "{space}", "--points", "{points}"],
     {"space": MONOMIAL_SPACE, "points": {"points": [5]}}),
    (["scan", "--space", "{space}", "--points", "{points}"],
     {"space": MONOMIAL_SPACE, "points": {"points": 5}}),
    (["scan", "--space", "{space}", "--points", "{points}"],
     {"space": MONOMIAL_SPACE, "points": "not json"}),
    (["orders", "--space", "{space}", "--generic"],
     {"space": {"nvars": 1, "polynomials": [{"[0]": "1", "[1]": "1"}], "symbolic_threshold": "a"}}),
    (["orders", "--space", "{space}", "--generic"],
     {"space": dict(MONOMIAL_SPACE, random_trials=0)}),
    (["scan", "--space", "{space}", "--points", "{points}"],
     {"space": dict(MONOMIAL_SPACE, random_trials=4), "points": {"points": [["1"]]}}),
    (["minors", "--space", "{space}"], {"space": dict(MONOMIAL_SPACE, symbolic_threshold=12)}),
    (["minors", "--space", "{space}", "--cap", "-1"], {"space": MONOMIAL_SPACE}),
    (["dv", "--space", "{space}", "--order", "-1"], {"space": MONOMIAL_SPACE}),
    (["dv", "--space", "{space}", "--order", "1", "--weights", "-1"], {"space": MONOMIAL_SPACE}),
    (["toric", "--polytope", "{polytope}", "--report"],
     {"polytope": dict(TRIANGLE, very_ample_bound=-1)}),
    (["toric", "--polytope", "{polytope}", "--report"], {"polytope": {"points": [5]}}),
    (["toric", "--polytope", "{polytope}", "--report"],
     {"polytope": {"vertices": [[0, 0], [1, 0], [0, 1.5]]}}),
]


def test_malformed_input_exits_2_with_schema_error(tmp_path, capsys):
    for argv, docs in MALFORMED_INPUTS:
        paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        code, _, err = run_cli(capsys, *[a.format(**paths) for a in argv])
        assert code == 2 and err.startswith("error[E_SCHEMA]"), (argv, docs, err)
        for key in ("symbolic_threshold", "random_trials"):
            assert (key in docs.get("space", {})) == (f"key '{key}' was removed" in err)


# ---------------------------------------------------------------------------
# seeded fuzzing of the input layer: every mutation below turns a valid
# document into an invalid one, which must exit 2 with an error code

FUZZ_DOCUMENTS = [
    ("space", {"nvars": 2, "monomials": [[0, 0], [1, 0], [0, 1], [1, 1]], "seed": 3}),
    ("space", {"nvars": 2, "polynomials": [{"[0, 0]": "1", "[1, 0]": "1/2"}, {"[0, 1]": "3"},
                                           {"[1, 1]": "-2/3", "[2, 0]": "1"}]}),
    ("points", {"points": [["1/2", -3], [2, "5/7"], ["0", 4]]}),
    ("polytope", {"vertices": [[0, 0], [2, 0], [0, 2]], "very_ample_bound": 3, "seed": 1}),
    ("polytope", {"points": [[0], [1], [2]]}),
]
FUZZ_REQUIRED = {"space": ("nvars", "monomials", "polynomials"), "points": ("points",),
                 "polytope": ("vertices", "points")}
FUZZ_LEAVES = (1.5, None, True, "x", {}, [])
FUZZ_KEYS = ("x", "[0]", "[-1, 0]", "[true, 0]", "[0.5, 0]", "[[0], 0]")


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutations(kind, doc):
    """Every invalid neighbour of a valid document, by kind of mutation."""
    nodes = [(p, v) for p, v in _nodes(doc) if p[:1] != ("seed",)]
    drop = [{k: v for k, v in doc.items() if k != key}
            for key in FUZZ_REQUIRED[kind] if key in doc]
    swap = []
    for path, value in nodes:
        if isinstance(value, (dict, list)):
            others = ([], "x", 5) if isinstance(value, dict) else ({}, "x", 5)
            swap.extend(_replaced(doc, path, other) for other in others)
        else:
            swap.extend(_replaced(doc, path, leaf) for leaf in FUZZ_LEAVES)
    if "seed" in doc:
        swap.extend(dict(doc, seed=leaf) for leaf in FUZZ_LEAVES + ("3",))
    nest = [_replaced(doc, path, [value]) for path, value in nodes]
    # only exponents, nvars, lattice coordinates and bounds must be >= 0
    negate = [_replaced(doc, path, -value - 1) for path, value in nodes
              if type(value) is int and kind != "points" and "polynomials" not in path]
    rename = [_replaced(doc, path, {new if k == old else k: v for k, v in value.items()})
              for path, value in nodes if path[:1] == ("polynomials",) and len(path) == 2
              for old in value for new in FUZZ_KEYS]
    return {"drop": drop, "swap": swap, "nest": nest, "negate": negate, "rename": rename}


def test_fuzzed_documents_exit_2_with_error_code(tmp_path, capsys):
    rng = random.Random(2024)
    space = write(tmp_path, "space.json", FUZZ_DOCUMENTS[0][1])
    argv = {
        "space": ("orders", "--space", "{doc}", "--generic"),
        "points": ("scan", "--space", space, "--points", "{doc}"),
        "polytope": ("toric", "--polytope", "{doc}", "--report"),
    }
    tried, wrong = 0, []
    for kind, doc in FUZZ_DOCUMENTS:
        path = write(tmp_path, "valid.json", doc)
        assert run_cli(capsys, *[a.format(doc=path) for a in argv[kind]])[0] == 0, doc
        for how, mutants in _mutations(kind, doc).items():
            for mutant in rng.sample(mutants, min(len(mutants), 12)):
                path = write(tmp_path, "mutant.json", mutant)
                code, _, err = run_cli(capsys, *[a.format(doc=path) for a in argv[kind]])
                if code != 2 or not err.startswith("error[E_") or "Traceback" in err:
                    wrong.append((kind, how, mutant, code, err))
                tried += 1
    assert not wrong, wrong
    assert tried > 150


def test_package_does_not_import_numpy():
    # every computation is exact Python integer arithmetic; a fresh
    # interpreter loading the command line pulls in no numpy
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, jetorders.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "False"
