from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from strategies import prime_fields, rationals
from ujla import corpus
from ujla.algebra import algebra_from_matrix_basis, algebra_from_products
from ujla.fields import QQ, PrimeField, coerce, parse_field
from ujla.linalg import Matrix
from ujla.transforms import deform
from ujla.yang_baxter import (
    TensorSquareOperator,
    build_assoc_yb,
    build_lie_yb,
    classify_params,
)

F5 = PrimeField(5)


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.neg(Fraction(1, 2)) == Fraction(-1, 2)


def test_prime_field_inverse():
    F5 = PrimeField(5)
    assert F5.inv(2) == 3
    assert F5.mul(2, F5.inv(2)) == 1


def test_inverse_of_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError, match="must be prime"):
        PrimeField(4)
    with pytest.raises(ValueError, match="must be prime"):
        parse_field("F10")
    with pytest.raises(ValueError, match="2\\^31"):
        PrimeField(2 ** 31 + 11)


def test_parse_field_labels():
    assert parse_field("Q") == QQ
    assert parse_field("F5") == PrimeField(5)
    with pytest.raises(ValueError):
        parse_field("R")


def test_scalar_parsing_and_formatting():
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.format(Fraction(5, 6)) == "5/6"
    assert QQ.format(Fraction(4, 2)) == "2"
    F5 = PrimeField(5)
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.parse("1/2") == 3
    assert F5.format(8) == "3"
    with pytest.raises(ValueError):
        QQ.parse("x")
    with pytest.raises(ValueError):
        F5.parse("a/b")


def test_from_fraction():
    F5 = PrimeField(5)
    assert F5.from_fraction(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        PrimeField(2).from_fraction(Fraction(1, 2))


def test_elements_enumeration():
    assert list(PrimeField(3).elements()) == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()


@given(rationals)
def test_rational_inverse_exact(x):
    if x != 0:
        assert QQ.mul(x, QQ.inv(x)) == Fraction(1)


@given(prime_fields, st.integers(), st.integers(), st.integers())
def test_prime_field_ring_axioms(field, a, b, c):
    a, b, c = field.normalize(a), field.normalize(b), field.normalize(c)
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.add(a, field.neg(a)) == field.zero
    if a != field.zero:
        assert field.mul(a, field.inv(a)) == field.one


@given(prime_fields, st.integers(min_value=0, max_value=100))
def test_prime_field_parse_roundtrip(field, n):
    x = field.normalize(n)
    assert field.parse(field.format(x)) == x


# Each API entry that takes scalars, probed for the one scalar it stores (or,
# for classify_params, the case it reports) when handed x over F_5.
SCALAR_ENTRIES = {
    "algebra_from_products": lambda x: algebra_from_products(
        "t", F5, ["e"], {(0, 0): {0: x}}).tensor[0][0][0],
    "algebra_from_products.unit": lambda x: algebra_from_products(  # e*e = e/3
        "t", F5, ["e"], {(0, 0): {0: 2}}, unit=[x]).unit[0],
    "algebra_from_matrix_basis": lambda x: algebra_from_matrix_basis(
        "t", F5, ["e"], [[[x]]]).tensor[0][0][0],
    "Matrix.from_rows": lambda x: Matrix.from_rows(F5, [[x]])[0, 0],
    "TensorSquareOperator.from_columns": lambda x: TensorSquareOperator.from_columns(
        F5, 1, [[x]]).matrix[0, 0],
    "deform": lambda x: deform(corpus.dual_numbers(F5), x, 0).tensor[0][0][0],
    "build_assoc_yb": lambda x: build_assoc_yb(corpus.dual_numbers(F5), x, 0, 0).matrix[0, 0],
    "build_lie_yb": lambda x: build_lie_yb(corpus.heisenberg(F5), x, (0, 0, 1)).matrix[8, 1],
    "build_lie_yb.z": lambda x: build_lie_yb(corpus.heisenberg(F5), 1, (0, 0, x)).matrix[8, 1],
    "classify_params": lambda x: classify_params(F5, x, 1, 3),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
def test_api_entries_share_one_scalar_gate(entry):
    probe = SCALAR_ENTRIES[entry]
    expected = probe(3)
    for x in (Fraction(1, 2), "1/2", 8, -2):
        got = probe(x)
        assert got == expected and type(got) is type(expected), x
    for bad in (0.5, 1.5, True, None, [3]):
        with pytest.raises(ValueError, match="scalar must be"):
            probe(bad)


def test_coerce_serves_both_fields():
    assert coerce(QQ, Fraction(1, 2)) == coerce(QQ, "1/2") == Fraction(1, 2)
    assert type(coerce(QQ, 3)) is Fraction
    assert coerce(PrimeField(7), Fraction(-1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        coerce(PrimeField(2), Fraction(1, 2))
    for bad in (0.1, False, 2 + 0j):
        with pytest.raises(ValueError):
            coerce(QQ, bad)
