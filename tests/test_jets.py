import random
from fractions import Fraction as F

import pytest

from helpers import oracle_binomial_rows, random_subspace, rational_point
from jetorders.algebra import Polynomial
from jetorders.linalg import rank_exact
from jetorders.jets import (
    GENERIC,
    DependentBasisError,
    SubspaceV,
    binomial_rows,
    generic_rank,
    jet_matrix,
    n_inj_at,
    n_surj_at,
    weierstrass_minors,
    weierstrass_scan,
)


def mono(*exps):
    nvars = len(exps[0])
    return SubspaceV.from_monomials(nvars, list(exps))


def test_subspace_validation():
    with pytest.raises(DependentBasisError):
        SubspaceV(1, [Polynomial.variable(0, 1), 2 * Polynomial.variable(0, 1)])
    with pytest.raises(DependentBasisError):
        mono((0,), (0,))
    V = SubspaceV(1, [Polynomial.constant(1, 1), Polynomial.constant(1, 1) + Polynomial.variable(0, 1)])
    assert not V.is_monomial
    assert mono((0,), (1,)).is_monomial


def test_jet_matrix_identity_at_origin():
    V = mono((0,), (1,), (2,))
    J = jet_matrix(V, 2, (F(0),))
    assert J.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_jet_matrix_symbolic_rows():
    V = mono((0,), (1,), (3,))
    J = jet_matrix(V, 2, GENERIC)
    x = Polynomial.variable(0, 1)
    assert J.entries[0] == (Polynomial.constant(1, 1), Polynomial.zero(1), Polynomial.zero(1))
    assert J.entries[1] == (x, Polynomial.constant(1, 1), Polynomial.zero(1))
    assert J.entries[2] == (x * x * x, 3 * x * x, 3 * x)


def test_jet_matrix_constant_section():
    V = mono((0,))
    J = jet_matrix(V, 0, (F(5),))
    assert J.entries == ((1,),)
    assert J.ncols == 1


def test_jet_columns_count():
    V = mono((0, 0), (1, 0))
    assert jet_matrix(V, 3, GENERIC).ncols == 10  # C(3+2, 2)


def test_jet_matrix_rejects_bad_input():
    V = mono((0, 0), (1, 0))
    with pytest.raises(ValueError):
        jet_matrix(V, 1, (F(0),))  # wrong point length
    with pytest.raises(ValueError):
        jet_matrix(V, -1, GENERIC)


def test_poly_divexact():
    from jetorders.algebra import poly_divexact

    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    num = (x + y) * (x * x - y + 3)
    assert poly_divexact(num, x + y) == x * x - y + 3
    with pytest.raises(ValueError):
        poly_divexact(x * x + y, x + y)


def test_generic_rank_strategies():
    V = mono((0,), (1,), (3,))
    J = jet_matrix(V, 2, GENERIC)
    res = generic_rank(J.entries)
    assert res.value == 3 and res.certified
    # one-row matrix [x, x^2]
    x = Polynomial.variable(0, 1)
    assert generic_rank([[x, x * x]]).value == 1
    # rank bounded by column count
    V2 = mono((0,), (1,), (2,))
    assert generic_rank(jet_matrix(V2, 1, GENERIC).entries).value == 2
    # non-monomial entries are ranked by certified evaluation
    rows = [[x + 1, x], [x, x + 1]]
    res = generic_rank(rows)
    assert res.method == "evaluation" and res.value == 2 and res.certified
    # a matrix of monomials that is not row/column scalable
    rows = [[x, Polynomial.constant(1, 1)], [Polynomial.constant(1, 1), x]]
    assert generic_rank(rows).value == 2


def _powers(p, top):
    out = [Polynomial.constant(p.nvars, 1)]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


def _loose_space():
    """(1 + y) span{1, x, x^2, x^3}: the column bound is 3 at order 1, the
    generic rank 2."""
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    return SubspaceV(2, [(1 + y) * q for q in _powers(x, 3)])


def test_generic_rank_randomized_path():
    # the 14x14 matrix that once took the randomized path is now ranked by
    # certified evaluation: the columns' coefficient vectors span only x+y
    # and xy, so the upper bound meets the rank 2 found at the seeded point
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    rows = [[(x + y) * (i + 1) + x * y * j for j in range(14)] for i in range(14)]
    res = generic_rank(rows)
    assert res.method == "evaluation" and res.certified
    assert res.value == 2


def test_generic_rank_deficient_matrix_is_certified():
    # column 1 is (1 + y) times column d/dy, but their coefficient vectors
    # are independent over Q, so the grid certifies 2
    res = generic_rank(jet_matrix(_loose_space(), 1, GENERIC).entries)
    assert (res.value, res.certified) == (2, True)


def test_generic_profile_of_linear_form_powers_is_certified():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    V = SubspaceV(2, _powers(x + y, 6))
    rep = V.generic_report
    assert rep.rank_profile == tuple(range(1, 8))
    assert rep.method == "evaluation" and rep.certified
    assert rep.to_dict()["certified"] is True


def test_generic_profile_grid_and_budget(monkeypatch, tmp_path, capsys):
    import json

    import jetorders.jets as jets
    from jetorders.cli import main, serialize_space

    rep = n_inj_at(_loose_space(), GENERIC)
    assert rep.rank_profile == (1, 2, 3, 4) and rep.certified
    assert weierstrass_minors(_loose_space(), cap=5).certified
    monkeypatch.setattr(jets, "GRID_POINT_BUDGET", 0)
    rep = n_inj_at(_loose_space(), GENERIC)
    # the seeded point's lower bounds, flagged
    assert rep.rank_profile == (1, 2, 3, 4) and not rep.certified
    assert rep.to_dict()["certified"] is False
    # a point's own profile is exact, but its Weierstrass order is measured
    # against the uncertified generic order, so it is flagged as well
    point = (F(2), F(3))
    rep = n_inj_at(_loose_space(), point)
    assert rep.method == "exact" and not rep.certified
    (rep,) = weierstrass_scan(_loose_space(), [point])
    assert not rep.certified and rep.to_dict()["certified"] is False
    # so are the minors taken at that order
    minors = weierstrass_minors(_loose_space(), cap=5)
    assert minors.order == 3 and not minors.certified
    space = tmp_path / "loose.json"
    space.write_text(serialize_space(_loose_space()))
    assert main(["minors", "--space", str(space), "--cap", "5", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["order"] == 3 and result["certified"] is False


def test_grid_rebuilt_when_a_point_raises_the_rank_by_two():
    """diag(x, x - 1, x - 2) has generic rank 3.  When the seeded point is
    degenerate (rank 0), the first grid, sized for 1-minors, is {0, 1}, and
    x = 0 already gives rank 2; both of its points miss the 3-minor
    x (x - 1) (x - 2), so only a grid sized for 3-minors can certify."""
    from jetorders.jets import _certified_ranks
    from jetorders.linalg import rank_exact

    calls = []

    def evaluate(point):
        calls.append(point)
        if len(calls) == 1:
            return [0]
        (x,) = point
        return [rank_exact([[x, 0, 0], [0, x - 1, 0], [0, 0, x - 2]], 3)]

    ranks, certified = _certified_ranks(evaluate, [3], 3, lambda: [3], [(1,), (1,), (1,)])
    assert ranks == [3] and certified
    assert (3,) in calls


def test_n_inj_examples():
    assert n_inj_at(mono((0,), (1,), (2,)), (F(5),)).n_inj == 2
    r = n_inj_at(mono((0,), (1,), (3,)), (F(0),))
    assert r.n_inj == 3
    assert r.rank_profile == (1, 2, 2, 3)
    assert r.gap_sequence == (1, 3)
    assert n_inj_at(mono((0,)), (F(17),)).n_inj == 0
    assert mono((0,), (1,), (3,)).generic_report.n_inj == 2


def test_dense_profile_at_rational_weierstrass_point():
    # x^m -> (2x - 1)^m1 (3y - 2)^m2 moves the origin's orbit to (1/2, 2/3)
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    shifted = (2 * x - 1, 3 * y - 2)
    exponents = [(0, 0), (1, 0), (0, 2), (3, 1), (2, 2)]
    basis = []
    for m in exponents:
        p = Polynomial.constant(2, 1)
        for factor, k in zip(shifted, m):
            for _ in range(k):
                p = p * factor
        basis.append(p)
    V = SubspaceV(2, basis)
    assert not V.is_monomial
    rep = n_inj_at(V, (F(1, 2), F(2, 3)))
    origin = n_inj_at(mono(*exponents), (F(0), F(0)))
    assert rep.rank_profile == origin.rank_profile == (1, 2, 3, 3, 5)
    assert rep.n_inj > V.generic_report.n_inj


def test_n_surj_examples():
    from jetorders.algebra import exponents_upto

    for n, m in [(1, 3), (2, 2)]:
        V = SubspaceV.from_monomials(n, exponents_upto(n, m))
        pt = tuple(F(3, 2) for _ in range(n))
        assert n_surj_at(V, pt) == m
    assert n_surj_at(mono((1,)), (F(0),)) == -1
    assert n_surj_at(mono((0,), (1,), (3,)), (F(0),)) == 1


def test_weierstrass_scan_example():
    V = mono((0,), (1,), (3,))
    reports = weierstrass_scan(V, [(F(0),), (F(1),)])
    assert reports[0].weierstrass_order == 0 and reports[0].n_inj == 3
    assert reports[1].weierstrass_order == -1
    flat = mono((0,), (1,))
    assert all(r.weierstrass_order == -1 for r in weierstrass_scan(flat, [(F(0),), (F(2),)]))


def test_weierstrass_minors_examples():
    rep = weierstrass_minors(mono((0,), (1,), (3,)))
    assert [str(m) for m in rep.minors] == ["3*x"]
    rep = weierstrass_minors(mono((0,), (2,)))
    assert [str(m) for m in rep.minors] == ["2*x"]
    rep = weierstrass_minors(mono((0,), (1,)))
    assert [m.degree for m in rep.minors] == [0]


def test_weierstrass_minors_non_monomial():
    x = Polynomial.variable(0, 1)
    V = SubspaceV(1, [Polynomial.constant(1, 1), x * x * x + x])
    rep = weierstrass_minors(V)
    # d/dx (x^3 + x) = 3x^2 + 1, never 0 over Q: single minor, no rational zero
    assert len(rep.minors) >= 1
    assert all(m(( F(0),)) != 0 for m in rep.minors)


def test_weierstrass_minors_truncation_flag():
    V = SubspaceV.from_monomials(2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
    rep = weierstrass_minors(V, cap=3)
    assert rep.truncated and len(rep.minors) <= 3


def test_minor_fast_path_matches_general_determinant():
    # the monomial factorization (integer det times a monomial) must agree
    # with the subset-DP polynomial determinant entry for entry
    from helpers import oracle_minors, random_monomial_subspace

    rng = random.Random(12)
    for _ in range(6):
        V = random_monomial_subspace(rng, max_size=4, box=3)
        fast = weierstrass_minors(V, cap=100)
        assert list(fast.minors) == oracle_minors(V, fast.order, 100)


def test_dense_minors_build_no_symbolic_matrix(monkeypatch):
    # a dense V expands its minors over Z[x] from its Taylor terms
    import jetorders.jets as jets

    V = _loose_space()
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(jets, "jet_matrix", counted("jet_matrix", jets.jet_matrix))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Polynomial, name, counted(name, getattr(Polynomial, name)))
    rep = weierstrass_minors(V, cap=50)
    assert rep.minors and calls == []


def test_rank_equals_transpose_rank():
    rng = random.Random(4)
    for _ in range(20):
        V = random_subspace(rng)
        pt = rational_point(rng, V.nvars)
        J = jet_matrix(V, rng.randint(0, V.max_degree), pt)
        assert rank_exact(J.entries) == rank_exact(list(zip(*J.entries)))


def test_binomial_rows_match_dense_oracle():
    # the sparse rows against the entry-by-entry comprehension, with rows
    # whose zero coordinates exceed the order and rows with m_i = 0
    rng = random.Random(64)
    seen = set()
    for _ in range(300):
        nvars = rng.randint(1, 3)
        n = rng.randint(0, 6)
        zeros = tuple(i for i in range(nvars) if rng.random() < 0.4)
        points = [tuple(rng.randint(0, 8) for _ in range(nvars))
                  for _ in range(rng.randint(1, 6))]
        assert binomial_rows(points, n, zeros) == oracle_binomial_rows(points, n, zeros), \
            (points, n, zeros)
        for m in points:
            seen.update(("zero above order" for i in zeros if m[i] > n))
            seen.update(("m_i = 0" for x in m if x == 0))
    assert seen == {"zero above order", "m_i = 0"}


def test_scan_reports_carry_generic_order():
    V = mono((0,), (1,), (3,))
    reports = weierstrass_scan(V, [(F(2),)])
    assert reports[0].n_inj_generic == 2
    assert reports[0].weierstrass_order == reports[0].n_inj - reports[0].n_inj_generic - 1


def test_generic_profile_reads_no_column_past_order_dim_minus_one(monkeypatch):
    """At the generic point the rank rises at every order until it reaches
    dim, so no generic profile needs a jet column of order dim or more."""
    import jetorders.jets as jets
    from math import comb

    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    read = []
    original = jets.prefix_ranks

    def recording(rows, widths):
        read.append(max([widths[-1]] + [len(row) for row in rows]))
        return original(rows, widths)

    monkeypatch.setattr(jets, "prefix_ranks", recording)
    spaces = [
        (mono((0, 0, 0), (20, 20, 20), (1, 0, 0)), (1, 3)),
        (SubspaceV(2, [Polynomial.constant(2, 1), x * x * x * x * x + y]), (1, 2)),
    ]
    for V, profile in spaces:
        read.clear()
        assert V.max_degree > V.dim - 1
        assert V.generic_report.rank_profile == profile
        assert read and max(read) <= comb(V.dim - 1 + V.nvars, V.nvars), (V, read)


def test_generic_report_is_one_cached_value():
    V = mono((0,), (1,), (3,))
    assert V.generic_report is V.generic_report is n_inj_at(V, GENERIC)
    (scan,) = weierstrass_scan(V, [(F(0),)])
    assert n_inj_at(V, (F(0),)) == scan


def test_no_library_function_takes_a_seed():
    # the generic profile is one value per subspace: no library function
    # takes a seed, a generic order override or monomial points
    import ast
    import inspect

    import jetorders.algebra
    import jetorders.diffops
    import jetorders.jets
    import jetorders.linalg
    import jetorders.toric

    banned = {"seed", "generic_order", "monomial_points"}
    for module in (jetorders.jets, jetorders.toric, jetorders.diffops,
                   jetorders.linalg, jetorders.algebra):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not names & banned, (module.__name__, getattr(node, "name", "lambda"))
    assert list(inspect.signature(jetorders.toric.chart_subspace).parameters) == ["P", "vertex"]
