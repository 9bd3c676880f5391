from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ujla.fields import QQ, PrimeField
from ujla.formal import Poly, monomial_str

F5 = PrimeField(5)


def p_of(field, terms):
    nvars = len(next(iter(terms)))
    return Poly(field, nvars, {m: field.normalize(c) for m, c in terms.items()})


def test_variable_and_mul():
    x = Poly.variable(QQ, 2, 0)
    y = Poly.variable(QQ, 2, 1)
    assert (x * y).terms == {(1, 1): Fraction(1)}
    assert (x * x).terms == {(2, 0): Fraction(1)}


def test_add_cancels():
    x = Poly.variable(QQ, 1, 0)
    assert (x - x).is_zero()
    assert (x + x).terms == {(1,): Fraction(2)}


def test_mod_p_coefficients_vanish():
    F2 = PrimeField(2)
    x = Poly.variable(F2, 2, 0)
    y = Poly.variable(F2, 2, 1)
    s = x + y
    # (x + y)^2 = x^2 + y^2 in characteristic 2
    assert (s * s).terms == {(2, 0): 1, (0, 2): 1}


def test_scale():
    x = Poly.variable(F5, 1, 0)
    assert x.scale(0).is_zero()
    assert x.scale(7).terms == {(1,): 2}


def test_lex_min_monomial():
    p = p_of(QQ, {(1, 0): 1, (0, 2): 1})
    assert p.lex_min_monomial() == (0, 2)
    assert Poly.zero(QQ, 2).lex_min_monomial() is None


def test_monomial_str():
    assert monomial_str((2, 0, 1), ["a0", "a1", "b0"]) == "a0^2*b0"
    assert monomial_str((0, 0), ["x", "y"]) == "1"


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(Poly.zero(QQ, 1))


coeffs = st.integers(min_value=0, max_value=4)
exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exps, coeffs, max_size=4).map(
    lambda d: Poly(F5, 2, {m: c for m, c in d.items() if c % 5 != 0})
)


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


def evaluate(p, point):
    """The value of p at a point (x, y) of F_5^2."""
    x, y = point
    return sum(c * x ** i * y ** j for (i, j), c in p.terms.items()) % 5


@given(polys, polys)
def test_evaluation_is_a_homomorphism(p, q):
    point = (2, 3)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point) % 5
    assert evaluate(p + q, point) == (evaluate(p, point) + evaluate(q, point)) % 5
