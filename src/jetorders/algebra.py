"""Sparse multivariate polynomials and Weyl-algebra operators over Q.

Polynomials are finite maps exponent -> Fraction with no stored zeros.
Differential operators are kept normally ordered (all multiplications to
the left of all derivations), as finite maps (beta, alpha) -> Fraction
for the term x^beta d^alpha.  All values are immutable and all operations
pure, so everything is safe to share freely.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

#: degree of the zero polynomial
MINUS_INFINITY = float("-inf")


def parse_rational(text):
    """Parse an exact rational from a "p/q" (or integer) string."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def as_exact(value):
    """Coerce to Fraction, refusing floats (exactness is the whole point)."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed; pass Fraction or int")
    return Fraction(value)


def exponents_upto(nvars, degree):
    """All exponent tuples with |alpha| <= degree, ordered by (degree, lex)."""
    out = []
    for total in range(degree + 1):
        out.extend(_exponents_of_degree(nvars, total))
    return out


def _exponents_of_degree(nvars, total):
    if nvars == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in _exponents_of_degree(nvars - 1, total - head):
            out.append((head,) + tail)
    out.sort()
    return out


def falling_factorial(m, alpha):
    """(m)_alpha = prod_i m_i (m_i - 1) ... (m_i - alpha_i + 1)."""
    result = 1
    for mi, ai in zip(m, alpha):
        for step in range(ai):
            result *= mi - step
        if result == 0:
            return 0
    return result


def binomial_product(m, alpha):
    """prod_i C(m_i, alpha_i); zero unless alpha <= m componentwise."""
    result = 1
    for mi, ai in zip(m, alpha):
        if ai > mi:
            return 0
        result *= comb(mi, ai)
    return result


def multi_factorial(alpha):
    result = 1
    for a in alpha:
        result *= factorial(a)
    return result


def _check_exponent(alpha, nvars):
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != nvars:
        raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {nvars}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    return alpha


def _var_names(nvars):
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i + 1}" for i in range(nvars))


class Polynomial:
    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = as_exact(coeff)
                if coeff:
                    cleaned[_check_exponent(exp, self.nvars)] = coeff
        self._terms = cleaned

    @classmethod
    def _trusted(cls, nvars, terms):
        """From nonzero Fractions keyed by well-formed exponents, unchecked."""
        p = object.__new__(cls)
        p.nvars, p._terms = nvars, terms
        return p

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: as_exact(value)})

    @classmethod
    def monomial(cls, exponent, coeff=1, nvars=None):
        exponent = tuple(exponent)
        if nvars is None:
            nvars = len(exponent)
        return cls(nvars, {exponent: Fraction(coeff)})

    @classmethod
    def variable(cls, index, nvars):
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    # -- structure ------------------------------------------------------
    def items(self):
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def coeff(self, exponent):
        return self._terms.get(tuple(exponent), Fraction(0))

    @property
    def is_zero(self):
        return not self._terms

    @property
    def degree(self):
        if not self._terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self._terms)

    @property
    def monomial_exponent(self):
        """Exponent m when the polynomial is literally x^m, else None."""
        if len(self._terms) == 1:
            (exp, coeff), = self._terms.items()
            if coeff == 1:
                return exp
        return None

    def single_term(self):
        """(exponent, coeff) when there is exactly one term, else None."""
        if len(self._terms) == 1:
            return next(iter(self._terms.items()))
        return None

    def leading_term(self):
        """Term maximal under (total degree, lex); None for zero."""
        if not self._terms:
            return None
        exp = max(self._terms, key=lambda e: (sum(e), e))
        return exp, self._terms[exp]

    # -- arithmetic -----------------------------------------------------
    def _require_same_ring(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._require_same_ring(other)
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = terms.get(exp, 0) + coeff
            if new:
                terms[exp] = new
            else:
                terms.pop(exp, None)
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            terms = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    exp = tuple(a + b for a, b in zip(e1, e2))
                    new = terms.get(exp, 0) + c1 * c2
                    if new:
                        terms[exp] = new
                    else:
                        terms.pop(exp, None)
            return Polynomial(self.nvars, terms)
        return Polynomial(self.nvars, {e: c * other for e, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- calculus -------------------------------------------------------
    def __call__(self, point):
        return poly_eval(self, point)

    def partial(self, index):
        terms = {}
        for exp, coeff in self._terms.items():
            if exp[index]:
                new = list(exp)
                new[index] -= 1
                terms[tuple(new)] = coeff * exp[index]
        return Polynomial(self.nvars, terms)

    def derivative(self, alpha):
        p = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                p = p.partial(i)
                if p.is_zero:
                    return p
        return p

    def substitute_zero(self, index):
        """Set variable `index` to zero (keeps the ambient variable count)."""
        return Polynomial(
            self.nvars,
            {e: c for e, c in self._terms.items() if e[index] == 0},
        )

    def normalized(self):
        """Divide by the leading coefficient; zero stays zero."""
        lt = self.leading_term()
        if lt is None:
            return self
        inv = Fraction(1) / lt[1]
        return Polynomial(self.nvars, {e: c * inv for e, c in self._terms.items()})

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        names = _var_names(self.nvars)
        parts = []
        for exp, coeff in sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, exp) if e]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def poly_eval(p, point):
    """Exact value of p at a rational point."""
    if len(point) != p.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {p.nvars}")
    point = [as_exact(c) for c in point]
    total = Fraction(0)
    for exp, coeff in p._terms.items():
        term = coeff
        for c, e in zip(point, exp):
            if e:
                term *= c ** e
        total += term
    return total


def poly_divexact(num, den):
    """Exact division in Q[x]; raises ValueError if den does not divide num."""
    num._require_same_ring(den)
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    lt_den, lc_den = den.leading_term()
    quotient = {}
    rem = num
    while not rem.is_zero:
        lt_rem, lc_rem = rem.leading_term()
        exp = tuple(a - b for a, b in zip(lt_rem, lt_den))
        if any(e < 0 for e in exp):
            raise ValueError("inexact polynomial division")
        coeff = lc_rem / lc_den
        quotient[exp] = coeff
        rem = rem - Polynomial.monomial(exp, coeff) * den
    return Polynomial(num.nvars, quotient)


class DifferentialOperator:
    """Finite rational combination of normally ordered terms x^beta d^alpha."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        cleaned = {}
        if terms:
            for (beta, alpha), coeff in terms.items():
                coeff = as_exact(coeff)
                if coeff:
                    key = (_check_exponent(beta, self.nvars), _check_exponent(alpha, self.nvars))
                    cleaned[key] = coeff
        self._terms = cleaned

    # unchecked like Polynomial._trusted, terms keyed by (beta, alpha)
    _trusted = classmethod(Polynomial._trusted.__func__)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def identity(cls, nvars):
        z = (0,) * nvars
        return cls(nvars, {(z, z): Fraction(1)})

    @classmethod
    def term(cls, beta, alpha, coeff=1, nvars=None):
        beta, alpha = tuple(beta), tuple(alpha)
        if nvars is None:
            nvars = len(beta)
        return cls(nvars, {(beta, alpha): Fraction(coeff)})

    @classmethod
    def partial(cls, index, nvars):
        alpha = [0] * nvars
        alpha[index] = 1
        return cls.term((0,) * nvars, tuple(alpha), 1, nvars)

    @classmethod
    def multiplication(cls, polynomial):
        """The operator `multiply by this polynomial`."""
        z = (0,) * polynomial.nvars
        return cls(polynomial.nvars, {(e, z): c for e, c in polynomial._terms.items()})

    # -- structure ------------------------------------------------------
    def items(self):
        return sorted(self._terms.items())

    @property
    def is_zero(self):
        return not self._terms

    @property
    def order(self):
        if not self._terms:
            return -1
        return max(sum(alpha) for _, alpha in self._terms)

    def weight(self):
        """The common weight beta - alpha, or None if not weight-homogeneous."""
        weights = {tuple(b - a for b, a in zip(beta, alpha)) for beta, alpha in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    # -- arithmetic -----------------------------------------------------
    def _require_same_ring(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        self._require_same_ring(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return DifferentialOperator(self.nvars, terms)

    def __neg__(self):
        return DifferentialOperator(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DifferentialOperator):
            return op_compose(self, other)
        return DifferentialOperator(self.nvars, {k: c * other for k, c in self._terms.items()})

    def __rmul__(self, scalar):
        return DifferentialOperator(self.nvars, {k: c * scalar for k, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, DifferentialOperator):
            return self.nvars == other.nvars and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __call__(self, p):
        return op_apply(self, p)

    def __repr__(self):
        return f"DifferentialOperator({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        names = _var_names(self.nvars)
        names += tuple(f"d{n}" for n in names)
        items = self._terms.items()
        if len(self._terms) > 1:
            items = sorted(items, key=_term_order, reverse=True)
        parts = []
        for (beta, alpha), coeff in items:
            body = "*".join([f"{n}^{e}" if e > 1 else n for n, e in zip(names, beta + alpha) if e])
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _term_order(item):
    """Sort key of a term (beta, alpha) -> coeff: by order, then alpha, then beta."""
    (beta, alpha), _ = item
    return sum(alpha), alpha, beta


def op_apply(D, p):
    """Apply a differential operator to a polynomial.

    On a monomial, x^beta d^alpha . x^m = (m)_alpha x^(m - alpha + beta),
    zero unless alpha <= m componentwise.
    """
    if D.nvars != p.nvars:
        raise ValueError(f"variable count mismatch: {D.nvars} vs {p.nvars}")
    terms = {}
    for (beta, alpha), c in D._terms.items():
        for m, a in p._terms.items():
            factor = falling_factorial(m, alpha)
            if factor:
                target = tuple(mi - ai + bi for mi, ai, bi in zip(m, alpha, beta))
                new = terms.get(target, 0) + c * a * factor
                if new:
                    terms[target] = new
                else:
                    terms.pop(target, None)
    return Polynomial(p.nvars, terms)


def op_compose(D1, D2):
    """Normally ordered product D1 D2.

    Uses d^alpha x^gamma = sum_{delta <= alpha, gamma} C(alpha, delta)
    (gamma)_delta x^(gamma - delta) d^(alpha - delta).
    """
    D1._require_same_ring(D2)
    n = D1.nvars
    terms = {}
    for (b1, a1), c1 in D1._terms.items():
        for (b2, a2), c2 in D2._terms.items():
            base = c1 * c2
            ranges = [range(min(x, y) + 1) for x, y in zip(a1, b2)]
            for delta in itertools.product(*ranges):
                coeff = base * binomial_product(a1, delta) * falling_factorial(b2, delta)
                if not coeff:
                    continue
                beta = tuple(x + y - d for x, y, d in zip(b1, b2, delta))
                alpha = tuple(x + y - d for x, y, d in zip(a1, a2, delta))
                key = (beta, alpha)
                new = terms.get(key, 0) + coeff
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
    return DifferentialOperator(n, terms)


def op_weight_split(D):
    """Split into weight-homogeneous components, keyed by beta - alpha."""
    buckets = {}
    for (beta, alpha), coeff in D._terms.items():
        w = tuple(b - a for b, a in zip(beta, alpha))
        buckets.setdefault(w, {})[(beta, alpha)] = coeff
    return {w: DifferentialOperator(D.nvars, t) for w, t in sorted(buckets.items())}
