import random
from fractions import Fraction as F

import pytest

from jetorders.algebra import (
    MINUS_INFINITY,
    DifferentialOperator,
    Polynomial,
    binomial_product,
    exponents_upto,
    falling_factorial,
    multi_factorial,
    op_apply,
    op_compose,
    op_weight_split,
    parse_rational,
    poly_eval,
)


def P(nvars, terms):
    return Polynomial(nvars, terms)


def test_poly_eval_examples():
    p = P(1, {(2,): 1, (0,): F(1, 2)})
    assert poly_eval(p, (2,)) == F(9, 2)
    assert poly_eval(Polynomial.zero(1), (7,)) == 0
    q = P(2, {(1, 1): 1, (0, 1): -1})  # xy - y
    assert poly_eval(q, (3, 5)) == 10


def test_poly_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        poly_eval(Polynomial.variable(0, 2), (1,))


def test_degree_conventions():
    assert Polynomial.zero(2).degree == MINUS_INFINITY
    assert P(2, {(2, 1): 3}).degree == 3
    assert DifferentialOperator.zero(1).order == -1
    assert DifferentialOperator.term((0,), (3,)).order == 3


def test_polynomial_arithmetic_and_zero_pruning():
    x = Polynomial.variable(0, 1)
    assert (x - x).is_zero
    assert (x * x).coeff((2,)) == 1
    assert ((x + 1) * (x - 1)).items() == [((0,), F(-1)), ((2,), F(1))]


def test_op_apply_examples():
    euler = DifferentialOperator.term((1,), (1,))
    x2 = Polynomial.monomial((2,), 1, 1)
    assert op_apply(euler, x2) == 2 * x2
    # -x^2 d + 2x kills x^2 (the one-variable degree-2 top generator)
    op = DifferentialOperator.term((2,), (1,), -1) + DifferentialOperator.term((1,), (0,), 2)
    assert op_apply(op, x2).is_zero
    d2 = DifferentialOperator.term((0,), (2,))
    assert op_apply(d2, Polynomial.monomial((3,), 1, 1)) == 6 * Polynomial.variable(0, 1)


def test_op_apply_mismatch():
    with pytest.raises(ValueError):
        op_apply(DifferentialOperator.partial(0, 2), Polynomial.variable(0, 1))


def test_op_compose_examples():
    d = DifferentialOperator.partial(0, 1)
    x = DifferentialOperator.multiplication(Polynomial.variable(0, 1))
    assert op_compose(d, x) == x * d + DifferentialOperator.identity(1)
    euler = x * d
    assert op_compose(euler, euler) == DifferentialOperator.term((2,), (2,)) + euler
    one = DifferentialOperator.identity(1)
    for op in (d, x, euler, op_compose(euler, d)):
        assert op_compose(one, op) == op
        assert op_compose(op, one) == op


def test_weight_split_examples():
    x_dx = DifferentialOperator.term((1, 0), (1, 0), nvars=2)
    y_dy = DifferentialOperator.term((0, 1), (0, 1), nvars=2)
    split = op_weight_split(x_dx + y_dy)
    assert set(split) == {(0, 0)}
    d = DifferentialOperator.partial(0, 1)
    x2 = DifferentialOperator.term((2,), (0,))
    split = op_weight_split(d + x2)
    assert set(split) == {(-1,), (2,)}
    assert split[(-1,)] == d and split[(2,)] == x2
    mixed = DifferentialOperator.term((1,), (2,)) + DifferentialOperator.term((2,), (1,))
    split = op_weight_split(mixed)
    assert set(split) == {(-1,), (1,)}
    assert sum(split.values(), DifferentialOperator.zero(1)) == mixed


def _random_operator(rng, nvars, order, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        alpha = tuple(rng.randint(0, order) for _ in range(nvars))
        beta = tuple(rng.randint(0, degree) for _ in range(nvars))
        terms[(beta, alpha)] = F(rng.randint(-4, 4))
    return DifferentialOperator(nvars, terms)


def _random_poly(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[tuple(rng.randint(0, degree) for _ in range(nvars))] = F(rng.randint(-4, 4))
    return Polynomial(nvars, terms)


def test_bilinearity_randomized():
    rng = random.Random(11)
    for _ in range(60):
        nvars = rng.choice((1, 2, 3))
        D1 = _random_operator(rng, nvars, 3, 3)
        D2 = _random_operator(rng, nvars, 3, 3)
        p = _random_poly(rng, nvars, 4)
        q = _random_poly(rng, nvars, 4)
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        left = op_apply(a * D1 + b * D2, p)
        right = a * op_apply(D1, p) + b * op_apply(D2, p)
        assert left == right
        assert op_apply(D1, a * p + b * q) == a * op_apply(D1, p) + b * op_apply(D1, q)


def test_compose_apply_associativity_randomized():
    rng = random.Random(5)
    for _ in range(60):
        nvars = rng.choice((1, 2, 3))
        D1 = _random_operator(rng, nvars, 3, 3)
        D2 = _random_operator(rng, nvars, 3, 3)
        p = _random_poly(rng, nvars, 4)
        assert op_apply(op_compose(D1, D2), p) == op_apply(D1, op_apply(D2, p))
        assert op_compose(D1, D2).order <= D1.order + D2.order


def test_weight_homogeneous_action():
    rng = random.Random(3)
    for _ in range(40):
        nvars = rng.choice((1, 2))
        D = _random_operator(rng, nvars, 3, 3)
        for w, comp in op_weight_split(D).items():
            assert comp.weight() == w
            m = tuple(rng.randint(0, 4) for _ in range(nvars))
            image = op_apply(comp, Polynomial.monomial(m, 1, nvars))
            assert image.is_zero or image.support() == [tuple(a + b for a, b in zip(m, w))]


def test_falling_factorial_binomial_identity():
    rng = random.Random(1)
    for _ in range(100):
        nvars = rng.choice((1, 2, 3))
        m = tuple(rng.randint(0, 6) for _ in range(nvars))
        alpha = tuple(rng.randint(0, 4) for _ in range(nvars))
        assert falling_factorial(m, alpha) == multi_factorial(alpha) * binomial_product(m, alpha)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Polynomial(1, {(0,): 0.5})
    with pytest.raises(TypeError):
        DifferentialOperator(1, {((0,), (1,)): 1.25})
    with pytest.raises(TypeError):
        poly_eval(Polynomial.variable(0, 1), (0.5,))
    with pytest.raises(TypeError):
        Polynomial.variable(0, 1) * 0.5


def test_public_constructors_reject_bad_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="length"):
        Polynomial(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        DifferentialOperator(2, {((0, 0), (1, -1)): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        DifferentialOperator(2, {((-1, 0), (1, 0)): 1})
    with pytest.raises(ValueError, match="length"):
        DifferentialOperator(2, {((0,), (1, 0)): 1})


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == -2
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")


def test_exponent_order():
    assert exponents_upto(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
