import json

import pytest

from jetorders.cli import SpaceFileError, main, parse_space, serialize_space


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
    from collections import Counter

    from jetorders import cli, diffops

    points = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]]
    space = write(tmp_path, "s.json", {"nvars": 2, "monomials": points})
    calls = Counter()
    original = diffops.preserving_weight_space

    def counted(points, weight, order):
        calls[tuple(weight)] += 1
        return original(points, weight, order)

    monkeypatch.setattr(diffops, "preserving_weight_space", counted)
    monkeypatch.setattr(cli, "preserving_weight_space", counted)
    code, out, _ = run_cli(capsys, "dv", "--space", space, "--order", "1", "--json")
    assert code == 0
    window = diffops.weight_window([tuple(p) for p in points])
    assert sorted(calls) == window and set(calls.values()) == {1}
    doc = json.loads(out)
    assert [tuple(w["weight"]) for w in doc["result"]["weights"]] == window


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
    assert code == 2
    assert "basis condition fails at vertex" in err
    code, _, _ = run_cli(capsys, "toric", "--polytope", poly, "--report", "--no-orders")
    assert code == 0


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
