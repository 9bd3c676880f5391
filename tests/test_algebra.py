import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from linalg_oracle import vec_add, vec_scale
from strategies import algebras, prime_fields, scalars, vectors
from ujla import corpus
from ujla.algebra import Algebra, algebra_from_matrix_basis, algebra_from_products
from ujla.fields import QQ, PrimeField


def test_zero_algebra_multiplies_to_zero():
    z = corpus.zero_algebra(dim=3)
    u, v = (1, 2, 3), (4, 5, 6)
    assert z.multiply(u, v) == z.zero_vector()


def test_dual_numbers_square(dual):
    one_plus_x = (Fraction(1), Fraction(1))
    assert dual.multiply(one_plus_x, one_plus_x) == (Fraction(1), Fraction(2))


def test_basis_products_unfold_the_tensor(upper2):
    for i in range(upper2.dim):
        for j in range(upper2.dim):
            prod = upper2.multiply(upper2.basis_vector(i), upper2.basis_vector(j))
            assert prod == tuple(upper2.tensor[i][j])


def test_dimension_mismatch():
    z = corpus.zero_algebra(dim=2)
    with pytest.raises(ValueError):
        z.multiply((1, 2, 3), (1, 2))


def _dense_product(alg, u, v):
    """e_i e_j summed over every (i, j, k), zeros included, normalised once."""
    d = alg.dim
    acc = [0] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                acc[k] += u[i] * v[j] * alg.tensor[i][j][k]
    return tuple(map(alg.field.normalize, acc))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
def test_sparse_multiply_matches_dense_product(field):
    """The product over the nonzero terms of each e_i e_j equals the dense
    sum on seeded algebras from sparse to dense, zero vectors included."""
    rng = random.Random(f"multiply:{field}")
    if field.is_finite:
        values = list(range(field.p))
    else:
        values = [Fraction(x) for x in (0, 1, -1, 2)] + [Fraction(1, 2), Fraction(-3, 2)]
    for d in range(1, 5):
        for density in (0.0, 0.2, 0.6, 1.0):
            tensor = [[[rng.choice(values) if rng.random() < density else 0 for _ in range(d)]
                       for _ in range(d)] for _ in range(d)]
            alg = Algebra("seeded", field, d, tuple(f"e{i}" for i in range(d)), tensor)
            vectors = [alg.zero_vector(), *alg.basis_vectors()]
            vectors += [tuple(rng.choice(values) for _ in range(d)) for _ in range(4)]
            for u in vectors:
                for v in vectors:
                    product = alg.multiply(u, v)
                    assert product == _dense_product(alg, u, v), (tensor, u, v)
                    assert all(type(x) is (int if field.is_finite else Fraction) for x in product)
            assert alg.multiply(alg.zero_vector(), vectors[-1]) == alg.zero_vector()
            for u, v in [(alg.zero_vector() + (0,), alg.zero_vector()),
                         (alg.zero_vector(), alg.zero_vector()[1:])]:
                with pytest.raises(ValueError, match="does not match dimension"):
                    alg.multiply(u, v)


def test_unit_is_validated():
    with pytest.raises(ValueError, match="not a unit"):
        algebra_from_products(
            "bad-unit", QQ, ["1", "x"],
            {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
            unit=[0, 1],
        )


def test_unit_check_reads_the_scales_of_unit_and_tensor():
    """Over Q the unit check compares u e_i and e_i u with s L e_i, u
    cleared by s and the tensor by L: e*e = 2e has the unit e/2 (s = 2),
    e*e = e/2 the unit 2e (L = 2), and a wrong unit keeps its message,
    which names the first failing product, u e_i before e_i u."""
    for c, u in ((2, Fraction(1, 2)), (Fraction(1, 2), 2), (Fraction(2, 3), Fraction(3, 2))):
        assert Algebra("t", QQ, 1, ("e",), (((c,),),), unit=(u,)).unit == (u,)
    with pytest.raises(ValueError, match=r"declared unit is not a unit: u\*e = \(2\) != e"):
        Algebra("t", QQ, 1, ("e",), (((2,),),), unit=(1,))
    with pytest.raises(ValueError, match=r"declared unit is not a unit: u\*1 = \(1/2, 0\) != 1"):
        Algebra("t", QQ, 2, ("1", "x"), (((1, 0), (0, 1)), ((0, 1), (0, 0))),
                unit=(Fraction(1, 2), 0))
    with pytest.raises(ValueError, match=r"declared unit is not a unit: x\*u = \(0, 2\) != x"):
        Algebra("t", QQ, 2, ("1", "x"), (((1, 0), (0, 1)), ((0, 2), (0, 0))), unit=(1, 0))


def test_tensor_shape_is_validated():
    with pytest.raises(ValueError, match="structure tensor"):
        Algebra("bad", QQ, 2, ("a", "b"), ((()),))


def test_matrix_basis_expansion(upper2):
    # E11*E12 = E12, E12*E22 = E12, E12*E11 = 0
    e11, e12, e22 = (upper2.basis_vector(i) for i in range(3))
    assert upper2.multiply(e11, e12) == e12
    assert upper2.multiply(e12, e22) == e12
    assert upper2.multiply(e12, e11) == upper2.zero_vector()


def test_matrix_basis_rejects_dependent_spans():
    with pytest.raises(ValueError, match="linearly dependent"):
        algebra_from_matrix_basis(
            "dep", QQ, ["a", "b"],
            [[[1, 0], [0, 0]], [[2, 0], [0, 0]]],
        )


def test_matrix_basis_rejects_unclosed_spans():
    # span{E11, E21} is not closed: E21*E11 = E21 is fine but E11*E12 never
    # appears; use a genuinely unclosed pair instead: {E12, E21}.
    with pytest.raises(ValueError, match="outside the span"):
        algebra_from_matrix_basis(
            "unclosed", QQ, ["E12", "E21"],
            [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        )


def test_direct_sum_blocks():
    a = corpus.affine_line_lie()
    s = corpus.direct_sum(a, a)
    assert s.dim == 4
    left = s.multiply(s.basis_vector(0), s.basis_vector(1))
    assert left == (0, 1, 0, 0)
    cross = s.multiply(s.basis_vector(0), s.basis_vector(2))
    assert cross == s.zero_vector()


@given(prime_fields, st.data())
def test_multiply_is_bilinear(field, data):
    alg = data.draw(algebras(field=field, max_dim=2))
    u = data.draw(vectors(field, alg.dim))
    u2 = data.draw(vectors(field, alg.dim))
    v = data.draw(vectors(field, alg.dim))
    c = data.draw(scalars(field))
    lhs = alg.multiply(vec_add(field, vec_scale(field, c, u), u2), v)
    rhs = vec_add(field, vec_scale(field, c, alg.multiply(u, v)), alg.multiply(u2, v))
    assert lhs == rhs
    lhs_r = alg.multiply(v, vec_add(field, vec_scale(field, c, u), u2))
    rhs_r = vec_add(field, vec_scale(field, c, alg.multiply(v, u)), alg.multiply(v, u2))
    assert lhs_r == rhs_r


@given(st.data())
def test_multiply_bilinear_over_q(data):
    alg = corpus.jordan_matrix_2x2()
    u = data.draw(vectors(QQ, 4))
    v = data.draw(vectors(QQ, 4))
    w = data.draw(vectors(QQ, 4))
    assert alg.multiply(vec_add(QQ, u, w), v) == vec_add(
        QQ, alg.multiply(u, v), alg.multiply(w, v)
    )


def test_formal_multiply_matches_concrete(dual):
    from formal_oracle import formal_basis_combination

    u = formal_basis_combination(QQ, 2, 4, 0)
    v = formal_basis_combination(QQ, 2, 4, 2)
    w = dual.multiply_formal(u, v)
    # coordinate 0 of (u0 + u1 x)(v0 + v1 x) is u0 v0
    assert w[0].terms == {(1, 0, 1, 0): Fraction(1)}
    # coordinate 1 is u0 v1 + u1 v0
    assert w[1].terms == {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(1)}
