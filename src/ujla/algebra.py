"""Finite-dimensional algebras given by structure constants.

An algebra is a field, a basis, and a tensor c[i][j][k] meaning
e_i * e_j = sum_k c[i][j][k] e_k.  Vectors are plain tuples of scalars.
The dataclass fields are immutable after construction; products are pure
functions, so algebras are safe to share between threads.  Beside those
fields an algebra keeps one cache, filled lazily in its __dict__ (the
way functools.cached_property keeps a value): the integer view, the
tensor cleared once by the lcm of its denominators.  It is the one
integer form of the tensor and the one route by which concrete vectors
are multiplied: its clear gates the vectors a caller hands in, and the
vectors the library builds enter as integers with scale 1; multiply, the
unit check, the identity engine, the derivation kernels and witness
revalidation all read it; it also holds the identity engine's slot
tables and its memo of concrete products.  The view is a pure function of
the tensor, so threads that race on it only build it twice; it takes no
part in equality, hashing or replace().
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from .fields import FieldSpec, Scalar, coerce, from_integers, integral
from .formal import Poly
from . import linalg
from .linalg import accumulate, sparse_row

Vector = tuple
ScalarLike = Union[Scalar, int, str]


def vec_add(field: FieldSpec, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.normalize(x + y) for x, y in zip(u, v))


def vec_sub(field: FieldSpec, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.normalize(x - y) for x, y in zip(u, v))


def vec_scale(field: FieldSpec, c: Scalar, u: Sequence) -> Vector:
    return tuple(field.normalize(c * x) for x in u)


def format_vector(field: FieldSpec, u: Sequence) -> str:
    return "(" + ", ".join(field.format(x) for x in u) + ")"


class IntegerView:
    """An algebra's structure tensor cleared once to integers, n = L *
    c[i][j][k] with L the lcm of its denominators (1 over F_p, where the n
    are the residues): flat in row-major order, and, built on first read,
    as planes[i][j], the sparse integer row of e_i e_j (its nonzero (k, n)
    pairs), which is the right factor of every product linalg.accumulate
    forms on the view and the one sparse form of the tensor.
    tables holds the identity engine's integer slot tables, one per word
    shape, each added on first read by identities._table.  products holds
    the concrete products the identity engine forms on the view, each
    multiply(u, v) keyed by its integer factors (u, v), so a witness's
    revalidation forms none of the products its search formed.  It holds
    at most one entry per sub-word on basis vectors (the slot tables' own
    bound) plus one per sub-word of each other point evaluated on it (a
    pointwise witness, an evaluate_sides assignment); the witness
    search's {0, 1, -1} grid walk keeps its own.  Threads that race on an
    entry form it twice, with one value.
    """

    def __init__(self, alg: "Algebra"):
        self.d, self.field = alg.dim, alg.field
        flat, self.scale = integral(alg.tensor_flat())
        self.p = alg.field.characteristic  # 0 over Q
        self.flat = tuple(flat)
        self.tables: dict = {}
        self.products: dict = {}

    @functools.cached_property
    def basis_vectors(self) -> tuple:
        """The basis vectors e_i as integer tuples, cleared by s = 1."""
        d = self.d
        return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))

    @functools.cached_property
    def planes(self) -> tuple:
        d, flat = self.d, self.flat
        rows = [sparse_row(flat[r:r + d]) for r in range(0, d ** 3, d)]
        return tuple(tuple(rows[i * d:(i + 1) * d]) for i in range(d))

    def clear(self, vectors: Sequence[Sequence]) -> tuple:
        """The gated entry for a caller's concrete vectors of length d: each
        coordinate taken through fields.coerce, then integer tuples n and
        one scale s shared by all the vectors, each vector being n / s;
        over F_p the residues, with s = 1."""
        field, d = self.field, self.d
        flat = [coerce(field, x) for v in vectors for x in v]
        s = 1
        if not self.p:
            flat, s = integral(flat)
        return [tuple(flat[n:n + d]) for n in range(0, len(flat), d)], s

    def multiply(self, u: Sequence[int], v: Sequence[int]) -> tuple:
        """L times the product of the vectors that the integers u and v
        stand for: each nonzero u_i adds u_i times the rows planes[i][j]
        that v's nonzero entries select.  Residues over F_p, so that a
        coordinate that vanishes there is skipped by the next product."""
        planes, terms = self.planes, sparse_row(v)
        acc = [0] * self.d
        for i, x in enumerate(u):
            if x:
                accumulate(acc, terms, planes[i], x)
        p = self.p
        return tuple([x % p for x in acc] if p else acc)


@dataclass(frozen=True)
class Algebra:
    name: str
    field: FieldSpec
    dim: int
    basis: tuple
    tensor: tuple  # tensor[i][j][k]: coefficient of e_k in e_i * e_j
    unit: Optional[Vector] = None

    def __post_init__(self):
        d = self.dim
        if len(self.basis) != d:
            raise ValueError(f"{self.name}: expected {d} basis labels, got {len(self.basis)}")
        if len(self.tensor) != d or any(
            len(plane) != d or any(len(row) != d for row in plane) for plane in self.tensor
        ):
            raise ValueError(f"{self.name}: structure tensor must be {d}x{d}x{d}")
        # The one scalar gate for stored scalars: floats and bools are rejected.
        field = self.field
        object.__setattr__(self, "tensor", tuple(
            tuple(tuple(coerce(field, c) for c in row) for row in plane) for plane in self.tensor
        ))
        if self.unit is not None:
            if len(self.unit) != d:
                raise ValueError(f"{self.name}: unit vector has wrong length")
            object.__setattr__(self, "unit", tuple(coerce(field, x) for x in self.unit))
            self._check_unit()

    def _check_unit(self):
        """u e_i = e_i u = e_i for every i, read on the integer view: with u
        cleared by s and the tensor by L, both products are s L e_i.  A
        failure's message brings the product it tested back by s L."""
        view, u = self.integer_view, self.unit
        us, s = integral(u)
        for i, label in enumerate(self.basis):
            e = view.basis_vectors[i]
            target = tuple(s * view.scale * x for x in e)
            for text, ints in ((f"u*{label}", (us, e)), (f"{label}*u", (e, us))):
                product = view.multiply(*ints)
                if product != target:
                    product = from_integers(self.field, product, s * view.scale)
                    raise ValueError(f"{self.name}: declared unit is not a unit: "
                                     f"{text} = {format_vector(self.field, product)} != {label}")

    def basis_vector(self, i: int) -> Vector:
        zero, one = self.field.zero, self.field.one
        return tuple(one if j == i else zero for j in range(self.dim))

    def basis_vectors(self) -> list[Vector]:
        return [self.basis_vector(i) for i in range(self.dim)]

    def zero_vector(self) -> Vector:
        zero = self.field.zero
        return tuple(zero for _ in range(self.dim))

    @functools.cached_property
    def integer_view(self) -> IntegerView:
        return IntegerView(self)

    def multiply(self, u: Sequence, v: Sequence) -> Vector:
        """Bilinear product through the integer view: u and v cleared by one
        scale s, multiplied there, and brought back by s^2 L."""
        d = self.dim
        if len(u) != d or len(v) != d:
            raise ValueError(f"{self.name}: vector length does not match dimension {d}")
        view = self.integer_view
        (us, vs), s = view.clear((u, v))
        return from_integers(self.field, view.multiply(us, vs), s * s * view.scale)

    def multiply_formal(self, u: Sequence[Poly], v: Sequence[Poly]) -> tuple:
        """Product of vectors whose coordinates are formal polynomials: the
        sum of c[i][j][k] u_i v_j e_k in Poly arithmetic.  The library builds
        no Poly; this is the product of the formal-polynomial test oracle
        (tests/formal_oracle.py)."""
        d, c = self.dim, self.tensor
        acc = [Poly.zero(self.field, u[0].nvars)] * d
        for i in range(d):
            for j in range(d):
                uv = u[i] * v[j]
                acc = [acc[k] + uv.scale(c[i][j][k]) for k in range(d)]
        return tuple(acc)

    def with_tensor(self, name: str, tensor, unit=None) -> "Algebra":
        """New algebra over the same field and basis with a different tensor."""
        return replace(self, name=name, tensor=tensor, unit=unit)

    def tensor_flat(self) -> tuple:
        return tuple([c for plane in self.tensor for row in plane for c in row])


def algebra_from_products(
    name: str,
    field: FieldSpec,
    basis: Sequence[str],
    products: Mapping[tuple, Mapping[int, ScalarLike]],
    unit: Optional[Sequence[ScalarLike]] = None,
) -> Algebra:
    """Build an algebra from a sparse product table.

    ``products[(i, j)]`` maps target basis index k to the coefficient of
    e_k in e_i * e_j; missing pairs multiply to zero.  Coefficients may
    be ints, Fractions, or scalar literals.
    """
    d = len(basis)
    tensor = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), row in products.items():
        for k, c in row.items():
            tensor[i][j][k] = c
    return Algebra(name, field, d, tuple(basis), tensor, unit)


def algebra_from_matrix_basis(
    name: str,
    field: FieldSpec,
    basis: Sequence[str],
    mats: Sequence[Sequence[Sequence[ScalarLike]]],
    unit: Optional[Sequence[ScalarLike]] = None,
) -> Algebra:
    """Structure constants of a matrix algebra spanned by ``mats``.

    Each basis-pair product is expanded back in the given (linearly
    independent) matrix basis; a product outside the span is an error.
    """
    d = len(basis)
    ms = [linalg.Matrix.from_rows(field, m) for m in mats]
    n = ms[0].nrows
    flat_cols = linalg.Matrix(field, [[ms[b][r, c] for b in range(d)]
                                      for r in range(n) for c in range(n)])
    if linalg.mat_rank(flat_cols) != d:
        raise ValueError(f"{name}: matrix basis is linearly dependent")
    tensor = []
    for i in range(d):
        plane = []
        for j in range(d):
            flat = [x for row in linalg.mat_mul(ms[i], ms[j]).rows for x in row]
            coords = linalg.solve(flat_cols, flat)
            if coords is None:
                raise ValueError(f"{name}: product {basis[i]}*{basis[j]} is outside the span")
            plane.append(coords)
        tensor.append(plane)
    return Algebra(name, field, d, tuple(basis), tensor, unit)
