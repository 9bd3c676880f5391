"""Finite-dimensional algebras given by structure constants.

An algebra is a field, a basis, and a tensor c[i][j][k] meaning
e_i * e_j = sum_k c[i][j][k] e_k.  Vectors are plain tuples of scalars.
Everything is immutable after construction; products are pure functions,
so algebras are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from .fields import FieldSpec, Scalar, coerce
from .formal import Poly
from . import linalg

Vector = tuple
ScalarLike = Union[Scalar, int, str]


def vec_add(field: FieldSpec, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.add(x, y) for x, y in zip(u, v))


def vec_sub(field: FieldSpec, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.sub(x, y) for x, y in zip(u, v))


def vec_scale(field: FieldSpec, c: Scalar, u: Sequence) -> Vector:
    return tuple(field.mul(c, x) for x in u)


def vec_is_zero(field: FieldSpec, u: Sequence) -> bool:
    zero = field.zero
    return all(x == zero for x in u)


def format_vector(field: FieldSpec, u: Sequence) -> str:
    return "(" + ", ".join(field.format(x) for x in u) + ")"


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
        if self.unit is not None:
            if len(self.unit) != d:
                raise ValueError(f"{self.name}: unit vector has wrong length")
            self._check_unit()

    def _check_unit(self):
        u = self.unit
        for i in range(self.dim):
            e = self.basis_vector(i)
            left = self.multiply(u, e)
            if left != e:
                raise ValueError(
                    f"{self.name}: declared unit is not a unit: "
                    f"u*{self.basis[i]} = {format_vector(self.field, left)} "
                    f"!= {self.basis[i]}"
                )
            right = self.multiply(e, u)
            if right != e:
                raise ValueError(
                    f"{self.name}: declared unit is not a unit: "
                    f"{self.basis[i]}*u = {format_vector(self.field, right)} "
                    f"!= {self.basis[i]}"
                )

    def basis_vector(self, i: int) -> Vector:
        zero, one = self.field.zero, self.field.one
        return tuple(one if j == i else zero for j in range(self.dim))

    def basis_vectors(self) -> list[Vector]:
        return [self.basis_vector(i) for i in range(self.dim)]

    def zero_vector(self) -> Vector:
        zero = self.field.zero
        return tuple(zero for _ in range(self.dim))

    def multiply(self, u: Sequence, v: Sequence) -> Vector:
        """Bilinear product through the structure tensor."""
        d = self.dim
        if len(u) != d or len(v) != d:
            raise ValueError(f"{self.name}: vector length does not match dimension {d}")
        field = self.field
        zero = field.zero
        acc = [0] * d
        tensor = self.tensor
        for i, ui in enumerate(u):
            if ui == zero:
                continue
            plane = tensor[i]
            for j, vj in enumerate(v):
                if vj == zero:
                    continue
                s = ui * vj
                row = plane[j]
                for k in range(d):
                    cijk = row[k]
                    if cijk != zero:
                        acc[k] += s * cijk
        norm = field.normalize
        return tuple(norm(x) for x in acc)

    def multiply_formal(self, u: Sequence[Poly], v: Sequence[Poly]) -> tuple:
        """Product of vectors whose coordinates are formal polynomials."""
        d = self.dim
        field = self.field
        zero = field.zero
        nvars = u[0].nvars
        # Accumulate raw term dicts and normalize once at the end; this is
        # the hot path of both the identity engine and the classification.
        accs: list = [{} for _ in range(d)]
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            plane = self.tensor[i]
            for j, vj in enumerate(v):
                if vj.is_zero():
                    continue
                prod = (ui * vj).terms
                row = plane[j]
                for k in range(d):
                    cijk = row[k]
                    if cijk != zero:
                        acc = accs[k]
                        for mono, c in prod.items():
                            acc[mono] = acc.get(mono, 0) + c * cijk
        norm = field.normalize
        return tuple(
            Poly(field, nvars, {m: n for m, c in acc.items() if (n := norm(c)) != zero})
            for acc in accs
        )

    def with_tensor(self, name: str, tensor, unit=None) -> "Algebra":
        """New algebra over the same field and basis with a different tensor."""
        return replace(self, name=name, tensor=tensor, unit=unit)

    def tensor_flat(self) -> tuple:
        return tuple(c for plane in self.tensor for row in plane for c in row)


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
    zero = field.zero
    tensor = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for (i, j), row in products.items():
        for k, c in row.items():
            tensor[i][j][k] = coerce(field, c)
    tensor_t = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    unit_t = tuple(coerce(field, x) for x in unit) if unit is not None else None
    return Algebra(name, field, d, tuple(basis), tensor_t, unit_t)


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
    ms = [[[coerce(field, x) for x in row] for row in m] for m in mats]
    n = len(ms[0])
    flat_cols = linalg.Matrix.from_rows(
        field, [[ms[b][r][c] for b in range(d)] for r in range(n) for c in range(n)]
    )
    if linalg.mat_rank(flat_cols) != d:
        raise ValueError(f"{name}: matrix basis is linearly dependent")

    def matmul(a, b):
        return [
            [field.normalize(sum(a[r][t] * b[t][c] for t in range(n))) for c in range(n)]
            for r in range(n)
        ]

    tensor = []
    for i in range(d):
        plane = []
        for j in range(d):
            prod = matmul(ms[i], ms[j])
            flat = [prod[r][c] for r in range(n) for c in range(n)]
            coords = linalg.solve(flat_cols, flat)
            if coords is None:
                raise ValueError(f"{name}: product {basis[i]}*{basis[j]} is outside the span")
            plane.append(tuple(coords))
        tensor.append(tuple(plane))
    unit_t = tuple(coerce(field, x) for x in unit) if unit is not None else None
    return Algebra(name, field, d, tuple(basis), tuple(tensor), unit_t)


def formal_basis_combination(field: FieldSpec, dim: int, nvars: int, offset: int) -> tuple:
    """Formal vector sum_i x_{offset+i} e_i as a tuple of polynomials."""
    return tuple(Poly.variable(field, nvars, offset + i) for i in range(dim))
