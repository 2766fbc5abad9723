import pytest

from jetorders.verify import (
    FORMULA,
    hirzebruch_family,
    verify_hirzebruch,
    verify_veronese,
    veronese_family,
)


def test_verify_veronese_small():
    for n, m in [(1, 1), (1, 2), (2, 1)]:
        rep = verify_veronese(n, m)
        assert rep.passed, rep.format_text()


def test_verify_veronese_full_grid():
    # every (n, m) with n <= 3, m <= 3 passes
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            rep = verify_veronese(n, m)
            assert rep.passed, rep.format_text()


def test_verify_veronese_12_image_rank():
    rep = verify_veronese(1, 1)
    row = next(r for r in rep.rows if r.name == "order-1 image dimension")
    assert row.computed == 4  # dim End(V_1) on the affine line


def test_verify_hirzebruch_131():
    rep = verify_hirzebruch(1, 3, 1)
    assert rep.passed, rep.format_text()
    named = {r.name: r for r in rep.rows}
    assert named["n_surj"].computed == 1
    assert named["n_inj_generic"].computed == 3
    assert named["n_inj_max"].computed == 4
    assert named["basis size"].computed == 7
    # the published-table label discrepancy is resolved by oracle and noted
    assert any("resolved by the jet oracle" in n for n in rep.notes)


def test_verify_reports_have_provenance():
    rep = verify_hirzebruch(1, 2, 1)
    assert rep.passed, rep.format_text()
    assert all(r.provenance for r in rep.rows)
    assert any(r.provenance == FORMULA for r in rep.rows)
    d = rep.to_dict()
    assert d["passed"] is True
    assert all(set(row) >= {"name", "expected", "computed", "passed", "provenance"}
               for row in d["rows"])


def test_family_constructors_validate():
    with pytest.raises(ValueError):
        veronese_family(0, 1)
    with pytest.raises(ValueError):
        hirzebruch_family(1, 1, 2)  # k - lr < 0
    with pytest.raises(ValueError):
        hirzebruch_family(2, 2, 1)  # k = lr: top edge collapses
    fam = hirzebruch_family(2, 5, 2)
    assert fam.subspace.dim == len(fam.polytope.points) == 12
    assert fam.expected["n_surj"][0] == 1


def test_verify_report_fails_visibly_on_wrong_expectation():
    rep = verify_veronese(1, 1)
    rep.check("deliberate mismatch", 1, 2, "[TRIVIAL]")
    assert not rep.passed
    assert "FAIL" in rep.format_text()


def test_verify_hirzebruch_computes_hilbert_order_once(monkeypatch):
    from jetorders import verify

    calls = []
    original = verify.n_inj_hilbert

    def counted(points):
        calls.append(points)
        return original(points)

    monkeypatch.setattr(verify, "n_inj_hilbert", counted)
    rep = verify_hirzebruch(1, 3, 1)
    assert rep.passed, rep.format_text()
    assert len(calls) == 1


def test_hirzebruch_minors_build_no_symbolic_jet_matrix(monkeypatch):
    # the vertex chart is monomial: its minors come from binomial integers
    from jetorders import jets

    calls = []
    original = jets.jet_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jets, "jet_matrix", counted)
    rep = verify_hirzebruch(1, 3, 1)
    assert rep.passed, rep.format_text()
    assert calls == []
