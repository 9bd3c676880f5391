"""Hypothesis strategies shared across the test modules."""

from fractions import Fraction

import hypothesis.strategies as st

from ujla.algebra import Algebra
from ujla.fields import QQ, PrimeField
from ujla.linalg import Matrix

small_ints = st.integers(min_value=-6, max_value=6)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=12),
)

prime_fields = st.sampled_from([PrimeField(2), PrimeField(3), PrimeField(5)])

# This flat F_2 tensor (classify.tensor_algebra(2, 2, ...)) satisfies every
# UJLA identity pointwise over F_2 but has a nonvanishing coefficient
# polynomial (a0*a1^2*b1) in the degree-4 ones.
F2_POINTWISE_ONLY = (1, 0, 1, 1, 1, 1, 0, 1)


def scalars(field):
    if field == QQ:
        return rationals
    return st.integers(min_value=0, max_value=field.p - 1)


def vectors(field, dim):
    return st.tuples(*([scalars(field)] * dim)).map(
        lambda t: tuple(field.normalize(x) for x in t)
    )


def matrices(field, nrows, ncols):
    return st.lists(
        st.lists(scalars(field), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(lambda rows: Matrix.from_rows(field, rows))


@st.composite
def algebras(draw, field=None, max_dim=2):
    """A random structure-constant algebra (no unit annotation)."""
    if field is None:
        field = draw(prime_fields)
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.lists(scalars(field), min_size=dim ** 3, max_size=dim ** 3)
    )
    tensor = tuple(
        tuple(
            tuple(field.normalize(entries[(i * dim + j) * dim + k]) for k in range(dim))
            for j in range(dim)
        )
        for i in range(dim)
    )
    return Algebra("random", field, dim, tuple(f"e{i}" for i in range(dim)), tensor)
