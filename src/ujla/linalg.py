"""Exact dense linear algebra over a ground field.

Matrices are immutable grids of field scalars.  Elimination uses the
first-nonzero pivot rule so every routine is deterministic; there is no
magnitude pivoting because arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fields import FieldSpec, Scalar, coerce


class NotInvertibleError(ValueError):
    """Square matrix is singular; carries the computed rank."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix of size {size} is not invertible (rank {rank})")


@dataclass(frozen=True)
class Matrix:
    field: FieldSpec
    rows: tuple

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable]) -> "Matrix":
        return cls(field, tuple(tuple(coerce(field, x) for x in row) for row in rows))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zero(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise ValueError("matrix product across different fields")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    bt = tuple(zip(*b.rows))
    norm = a.field.normalize
    rows = tuple(
        tuple(norm(sum(x * y for x, y in zip(row, col))) for col in bt)
        for row in a.rows
    )
    return Matrix(a.field, rows)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> tuple:
    if a.ncols != len(v):
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times vector of length {len(v)}")
    norm = a.field.normalize
    return tuple(norm(sum(x * y for x, y in zip(row, v))) for row in a.rows)


def _echelon(field: FieldSpec, rows: list) -> tuple[list, list]:
    """In-place forward elimination to row echelon form.

    Returns (rows, pivot column list).  First nonzero entry in the
    current column is the pivot.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    zero, norm = field.zero, field.normalize
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv_p = field.inv(rows[r][c])
        rows[r] = [norm(inv_p * x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [norm(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in a.rows]
    rows, pivots = _echelon(a.field, rows)
    return Matrix(a.field, tuple(tuple(r) for r in rows)), tuple(pivots)


def mat_rank(a: Matrix) -> int:
    return len(rref(a)[1])


def mat_inverse(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    field = a.field
    ident = Matrix.identity(field, n)
    aug = [list(r) + list(e) for r, e in zip(a.rows, ident.rows)]
    aug, pivots = _echelon(field, aug)
    # Elimination runs over the full augmented width, so only pivots in the
    # left block count toward the rank of A.
    left_pivots = [c for c in pivots if c < n]
    if left_pivots != list(range(n)):
        raise NotInvertibleError(rank=len(left_pivots), size=n)
    return Matrix(field, tuple(tuple(row[n:]) for row in aug))


def mat_kernel(a: Matrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column.

    Vectors are ordered by free column index and normalized so the
    first nonzero coordinate is 1; e.g. kernel([[1,1],[1,1]]) over Q
    is [(1, -1)].
    """
    field = a.field
    reduced, pivots = rref(a)
    n = a.ncols
    free = [c for c in range(n) if c not in pivots]
    zero, one = field.zero, field.one
    basis = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.normalize(-reduced.rows[r][f])
        lead = next(x for x in v if x != zero)
        if lead != one:
            inv_lead = field.inv(lead)
            v = [field.normalize(inv_lead * x) for x in v]
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b: Sequence[Scalar]) -> Optional[tuple]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if a.nrows != len(b):
        raise ValueError("right-hand side length mismatch")
    field = a.field
    n = a.ncols
    aug = [list(r) + [coerce(field, x)] for r, x in zip(a.rows, b)]
    aug, pivots = _echelon(field, aug)
    if n in pivots:
        return None
    zero = field.zero
    x = [zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][n]
    return tuple(x)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the usual block layout."""
    if a.field != b.field:
        raise ValueError("Kronecker product across different fields")
    field = a.field
    norm = field.normalize
    rows = []
    for ar in a.rows:
        for br in b.rows:
            rows.append(tuple(norm(x * y) for x in ar for y in br))
    return Matrix(field, tuple(rows))
