from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from reference import ref_rational_kernel
from strategies import matrices, prime_fields, vectors
from ujla.fields import QQ
from ujla.linalg import (
    Matrix,
    NotInvertibleError,
    kron,
    mat_inverse,
    mat_kernel,
    mat_mul,
    mat_rank,
    mat_vec,
    solve,
)


def test_identity_times_identity():
    i3 = Matrix.identity(QQ, 3)
    assert mat_mul(i3, i3) == i3


def test_rank_of_zero_matrix():
    assert mat_rank(Matrix.zero(QQ, 2, 2)) == 0


def test_kernel_of_ones_matrix():
    a = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert mat_kernel(a) == [(Fraction(1), Fraction(-1))]


def test_kernel_normalization_is_monic_leading():
    a = Matrix.from_rows(QQ, [[2, 6]])
    assert mat_kernel(a) == [(Fraction(1), Fraction(-1, 3))]


def test_inverse_and_singular_error():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert mat_mul(mat_inverse(a), a) == Matrix.identity(QQ, 2)
    singular = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(NotInvertibleError) as exc:
        mat_inverse(singular)
    assert exc.value.rank == 1


def test_shape_mismatch_errors():
    a = Matrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        mat_mul(a, a)
    with pytest.raises(ValueError):
        mat_vec(a, (1, 2, 3))


def test_solve():
    a = Matrix.from_rows(QQ, [[1, 1], [1, -1]])
    assert solve(a, (3, 1)) == (Fraction(2), Fraction(1))
    inconsistent = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert solve(inconsistent, (0, 1)) is None


def test_kron_block_structure():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    i2 = Matrix.identity(QQ, 2)
    k = kron(a, i2)
    assert k.nrows == k.ncols == 4
    assert k[0, 0] == 1 and k[1, 1] == 1 and k[0, 2] == 2 and k[2, 0] == 3
    assert k[0, 1] == 0


@given(prime_fields, st.data())
def test_rank_nullity(field, data):
    m = data.draw(matrices(field, 3, 4))
    assert mat_rank(m) + len(mat_kernel(m)) == m.ncols


@given(prime_fields, st.data())
def test_kernel_vectors_are_in_kernel(field, data):
    m = data.draw(matrices(field, 3, 3))
    zero = tuple(field.zero for _ in range(3))
    for v in mat_kernel(m):
        assert mat_vec(m, v) == zero


@given(prime_fields, st.data())
def test_inverse_roundtrip(field, data):
    m = data.draw(matrices(field, 3, 3))
    try:
        inv = mat_inverse(m)
    except NotInvertibleError:
        assert mat_rank(m) < 3
        return
    ident = Matrix.identity(field, 3)
    assert mat_mul(inv, m) == ident
    assert mat_mul(m, inv) == ident


@given(st.data())
def test_kernel_matches_fraction_reference(data):
    m = data.draw(matrices(QQ, 3, 4))
    ref = ref_rational_kernel([list(r) for r in m.rows])
    assert mat_kernel(m) == ref


@given(prime_fields, st.data())
def test_matmul_associates_with_vector_action(field, data):
    a = data.draw(matrices(field, 2, 3))
    b = data.draw(matrices(field, 3, 2))
    v = data.draw(vectors(field, 2))
    assert mat_vec(mat_mul(a, b), v) == mat_vec(a, mat_vec(b, v))
