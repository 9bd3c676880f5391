import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

import linalg_oracle as oracle
from reference import ref_rational_kernel
from strategies import matrices, prime_fields, vectors
from ujla.fields import QQ, PrimeField
from ujla.linalg import (
    Matrix,
    NotInvertibleError,
    accumulate,
    kron,
    mat_inverse,
    mat_kernel,
    mat_mul,
    mat_rank,
    rref,
    solve,
    sparse_row,
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
        assert oracle.mat_vec(m, v) == zero


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
    assert oracle.mat_vec(mat_mul(a, b), v) == oracle.mat_vec(a, oracle.mat_vec(b, v))


def _dense_sum(start, terms, grid, scale):
    """start plus scale * c * grid[r] for each (r, c) of terms, entry by
    entry over the dense integer grid."""
    acc = list(start)
    for r, c in terms:
        for k, x in enumerate(grid[r]):
            acc[k] += scale * c * x
    return acc


@pytest.mark.parametrize("p", [0, 2, 5], ids=["Q", "F2", "F5"])
def test_accumulate_matches_a_dense_integer_oracle(p):
    """accumulate adds scale * c * rows[r] into the caller's list for each
    (r, c) of terms, rows being the sparse rows of a dense integer grid
    (signed integers over Q, residues over F_p), as the dense oracle does,
    and returns that list.  It neither reduces nor drops anything: a sum
    that vanishes only mod p stays a nonzero multiple of p until the
    caller reduces it.  Covered: no terms, rows that cancel to exactly 0,
    an all-zero row, a sum that vanishes only mod p (mod 7 over Q), scales
    1, -3 and 10, and random terms."""
    rng = random.Random(f"accumulate:{p}")
    q, width = p or 7, 6
    values = range(p) if p else (0, 0, 1, -1, 2, 3, -7)
    grid = [[rng.choice(values) for _ in range(width)] for _ in range(5)]
    grid[1][0] = 1
    grid.append([-x for x in grid[0]])
    grid.append([0] * width)
    rows = [sparse_row(row) for row in grid]
    assert rows[-1] == [] and all(x for row in rows for _, x in row)
    cases = {
        "empty": [],
        "cancel": [(0, 3), (5, 3)],
        "zero row": [(6, 4), (6, -1)],
        "only mod p": [(1, 1), (1, q - 1)],
        "random": [(rng.randrange(len(grid)), rng.choice((1, -1, 2, -5, 9))) for _ in range(8)],
    }
    for name, terms in cases.items():
        for scale in (1, -3, 10):
            start = [rng.randint(-4, 4) for _ in range(width)]
            acc = list(start)
            assert accumulate(acc, terms, rows, scale) is acc, name
            assert acc == _dense_sum(start, terms, grid, scale), (name, scale)
            added = [x - y for x, y in zip(acc, start)]
            if name != "random":
                assert all(x % q == 0 for x in added), (name, scale)
                assert any(added) == (name == "only mod p"), (name, scale)
    assert sparse_row((0, 3, 0, -1, 0)) == [(1, 3), (3, -1)] and sparse_row(()) == []


def _scalar(field, rng, big=False):
    if field != QQ:
        return rng.randrange(field.p)
    if big:
        return Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _grid(field, rng, n, m, density=1.0, big=False):
    return Matrix.from_rows(field, [[_scalar(field, rng, big) if rng.random() < density else 0
                                     for _ in range(m)] for _ in range(n)])


def seeded_matrices(field) -> dict:
    """Seeded matrices by name: empty, zero, singular, rank-deficient, wide,
    tall, sparse (so that some columns have no pivot), square, a few of
    random shape and, over Q, dense ones with denominators up to 10^9."""
    rng = random.Random(f"linalg:{field.label}")
    singular = [list(row) for row in _grid(field, rng, 3, 4).rows]
    singular.append([x + 2 * y for x, y in zip(singular[0], singular[1])])
    cases = {
        "empty": Matrix(field, ()),
        "zero": Matrix.zero(field, 3, 4),
        "singular": Matrix.from_rows(field, singular),
        "rank-deficient": oracle.mat_mul(_grid(field, rng, 5, 2), _grid(field, rng, 2, 6)),
        "wide": _grid(field, rng, 3, 6),
        "tall": _grid(field, rng, 6, 3),
        "sparse": _grid(field, rng, 6, 6, 0.3),
        "square": _grid(field, rng, 5, 5),
    }
    if field == QQ:
        cases["large denominators"] = _grid(field, rng, 6, 6, big=True)
        cases["large denominators, wide"] = _grid(field, rng, 4, 7, big=True)
    for n in range(8):
        shape = rng.randint(1, 6), rng.randint(1, 6)
        cases[f"random {n}"] = _grid(field, rng, *shape, rng.choice((0.3, 1.0)))
    return cases


def _in_field(field, values) -> bool:
    if field == QQ:
        return all(type(x) is Fraction for x in values)
    return all(type(x) is int and 0 <= x < field.p for x in values)


def _inverse_or_rank(inverse, m):
    try:
        return inverse(m)
    except NotInvertibleError as exc:
        return ("not invertible", exc.rank, exc.size)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=str)
def test_elimination_matches_the_field_scalar_oracle(field):
    """rref, mat_rank, mat_kernel, mat_inverse (with the rank a singular
    matrix reports), solve (None when inconsistent) and mat_mul equal the
    field-scalar oracle's on every seeded matrix, in field scalars."""
    rng = random.Random(f"right sides:{field.label}")
    outcomes = set()
    for name, m in seeded_matrices(field).items():
        reduced, pivots = rref(m)
        assert (reduced, pivots) == oracle.rref(m), name
        assert mat_rank(m) == oracle.mat_rank(m) == len(pivots), name
        kernel = mat_kernel(m)
        assert kernel == oracle.mat_kernel(m), name
        assert _in_field(field, [x for row in reduced.rows + tuple(kernel) for x in row]), name
        if m.nrows == m.ncols:
            inverse = _inverse_or_rank(mat_inverse, m)
            assert inverse == _inverse_or_rank(oracle.mat_inverse, m), name
            invertible = isinstance(inverse, Matrix)
            assert not invertible or _in_field(field, [x for row in inverse.rows for x in row])
            outcomes.add(("invertible", invertible))
        image = oracle.mat_vec(m, [_scalar(field, rng) for _ in range(m.ncols)])
        for b in (image, [_scalar(field, rng) for _ in range(m.nrows)]):
            x = solve(m, b)
            assert x == oracle.solve(m, b), name
            assert x is not None or b is not image, name
            assert x is None or _in_field(field, x) and oracle.mat_vec(m, x) == tuple(b), name
            outcomes.add(("solvable", x is not None))
        other = _grid(field, rng, m.ncols, 3) if m.ncols else Matrix(field, ())
        product = mat_mul(m, other)
        assert product == oracle.mat_mul(m, other), name
        assert _in_field(field, [x for row in product.rows for x in row]), name
    assert outcomes == {(k, v) for k in ("invertible", "solvable") for v in (True, False)}
