"""Exact dense linear algebra over a ground field.

Matrices are immutable grids of field scalars, gated once where they are
built: the constructor takes every entry through `fields.coerce`.  The
routines compute on integers and convert back only at the end;
`integer_grid` is the one way a whole matrix becomes integers over one
scale.  Over F_p the integers are the residues and a pivot is inverted
with pow(x, -1, p).  Over Q each
row is cleared once by `fields.integral` before elimination, which is
fraction-free (Bareiss): every update is an exact integer division by the
previous pivot, so the entries stay minors of the cleared matrix; the
product clears each matrix over one scale.  The reduced row echelon form
is unique, so the results are those of a field-scalar elimination.
Elimination uses the first-nonzero pivot rule so every routine is
deterministic; there is no magnitude pivoting because arithmetic is exact.

A sparse integer row is the list of the (column, value) pairs of its
nonzero entries (`sparse_row`).  `accumulate` sums such rows, Gustavson's
row-by-row product (ACM TOMS 4, 1978), for every product in the package.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .fields import FieldSpec, Record, Scalar, coerce, from_integers, integral


class NotInvertibleError(ValueError):
    """Square matrix is singular; carries the computed rank."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix of size {size} is not invertible (rank {rank})")


class Matrix(Record):
    field: FieldSpec
    rows: tuple

    def __init__(self, field: FieldSpec, rows: tuple):
        # The one scalar gate for matrix entries: floats and bools are rejected.
        rows = tuple(tuple(coerce(field, x) for x in row) for row in rows)
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)

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
        return cls(field, rows)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[0] * ncols for _ in range(nrows)])


def integer_grid(a: Matrix) -> tuple[list, int]:
    """Integer rows n and one scale s with the entries of a = n / s: over Q
    s is the lcm of all the entries' denominators, over F_p the residues
    themselves with s = 1."""
    if a.field.characteristic:
        return a.rows, 1
    flat, scale = integral([x for row in a.rows for x in row])
    k = a.ncols
    return [flat[i * k:i * k + k] for i in range(a.nrows)], scale


def sparse_row(values: Sequence[int]) -> list:
    """The (column, value) pairs of the nonzero entries of a dense row."""
    return [(k, x) for k, x in enumerate(values) if x]


def accumulate(acc: list, terms: Iterable, rows, scale: int = 1) -> list:
    """Add scale * c * rows[r] into the dense integer list acc for each
    (r, c) in terms, and return acc.

    Each rows[r] is a sparse integer row, so the cost is the number of
    entries of the rows that terms select.  Reducing mod p and dropping
    zeros are left to the caller.
    """
    for r, c in terms:
        if scale != 1:
            c *= scale
        for k, x in rows[r]:
            acc[k] += c * x
    return acc


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a times b on the two integer grids as sparse rows, each row of a
    selecting rows of b (see accumulate), each entry brought back as
    n / (scale_a * scale_b)."""
    if a.field != b.field:
        raise ValueError("matrix product across different fields")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    rows_a, scale_a = integer_grid(a)
    rows_b, scale_b = integer_grid(b)
    right = [sparse_row(row) for row in rows_b]
    n, scale = b.ncols, scale_a * scale_b
    return Matrix(a.field, tuple(
        from_integers(a.field, accumulate([0] * n, sparse_row(row), right), scale) for row in rows_a
    ))


def _integer_rows(field: FieldSpec, rows) -> list:
    """The rows as integer lists: residues over F_p, and over Q each row
    times the lcm of its denominators, which leaves its span unchanged."""
    p = field.characteristic
    if p:
        return [[x % p for x in row] for row in rows]
    return [integral(row)[0] for row in rows]


def _echelon(rows: list, p: int, width: int, reduce: bool) -> tuple[list, int]:
    """Eliminate integer rows in place, pivots sought in the first width
    columns; returns (pivot columns, den).

    The pivot is the first nonzero entry of the current column at or
    below the current row.  Over F_p (p > 0) the rows are residues, each
    pivot row is scaled by pow(pivot, -1, p) and den is 1.  Over Q (p = 0)
    the elimination is fraction-free (Bareiss): with piv the new pivot and
    den the previous one (1 at first), every other row x becomes
    (piv * x - x[c] * pivot row) / den, an exact integer division, and den
    becomes piv.  With reduce, rows above the pivot are eliminated too,
    and the result is the reduced row echelon form times den: over Q each
    earlier pivot entry has grown to the last pivot.  Without it, only the
    rows below are, which is enough for the rank.
    """
    nrows = len(rows)
    pivots = []
    den = 1
    r = 0
    for c in range(width):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        others = range(nrows) if reduce else range(r + 1, nrows)
        if p:
            inv = pow(piv, -1, p)
            top = rows[r] = [x * inv % p for x in rows[r]]
            for i in others:
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        else:
            top = rows[r]
            for i in others:
                f = rows[i][c]
                if i != r and (f or piv != den):
                    rows[i] = [(piv * x - f * y) // den for x, y in zip(rows[i], top)]
            den = piv
        pivots.append(c)
        r += 1
    return pivots, den


def mat_rank(a: Matrix) -> int:
    rows = _integer_rows(a.field, a.rows)
    return len(_echelon(rows, a.field.characteristic, a.ncols, False)[0])


def mat_inverse(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    field = a.field
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    aug = _integer_rows(field, ((*r, *e) for r, e in zip(a.rows, ident)))
    # Pivots are sought in the left block only, so they count the rank of A.
    pivots, den = _echelon(aug, field.characteristic, n, True)
    if len(pivots) != n:
        raise NotInvertibleError(rank=len(pivots), size=n)
    return Matrix(field, tuple(from_integers(field, row[n:], den) for row in aug))


def mat_kernel(a: Matrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column.

    Vectors are ordered by free column index and normalized so the
    first nonzero coordinate is 1; e.g. kernel([[1,1],[1,1]]) over Q
    is [(1, -1)].
    """
    field = a.field
    rows = _integer_rows(field, a.rows)
    pivots, den = _echelon(rows, field.characteristic, a.ncols, True)
    n = a.ncols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        # den times the vector with 1 at f and minus the reduced column f at the pivots.
        v = [0] * n
        v[f] = den
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(from_integers(field, v, next(x for x in v if x)))
    return basis


def solve(a: Matrix, b: Sequence[Scalar]) -> Optional[tuple]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if a.nrows != len(b):
        raise ValueError("right-hand side length mismatch")
    field = a.field
    n = a.ncols
    aug = _integer_rows(field, ((*r, coerce(field, x)) for r, x in zip(a.rows, b)))
    pivots, den = _echelon(aug, field.characteristic, n + 1, True)
    if n in pivots:
        return None
    x = [0] * n
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][n]
    return from_integers(field, x, den)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the usual block layout."""
    if a.field != b.field:
        raise ValueError("Kronecker product across different fields")
    return Matrix(a.field, [[x * y for x in ar for y in br] for ar in a.rows for br in b.rows])
