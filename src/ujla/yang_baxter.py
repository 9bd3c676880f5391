"""Operators on V (x) V: the twist, braid and QYBE checks, and the two
Yang-Baxter constructions (from a unital associative product and from a
Lie bracket with a central element).

Matrix convention, shared by every checker and oracle in this package:
column index i*d + j encodes e_i (x) e_j, and the entry at row k*d + l
is the coefficient of e_k (x) e_l in the image.  Triple-space lifts use
index i*d^2 + j*d + k for e_i (x) e_j (x) e_k.

The braid and QYBE checks run on integers: R is scaled once by L, the
lcm of its entries' denominators (L = 1 over F_p).  The lifts of the
integer R, built by the same slot rule as `lift`, are sparse grids: each
row is the sparse integer row of `linalg.accumulate`, the (column, value)
pairs of its nonzero entries, columns increasing.
A relation compares its left triple product, formed as a * (b * c), with
its right one, formed as (a' * b') * c', in Python ints (reduced mod p
over F_p), one output row at a time in row-major order, and stops at the
first row that differs.  Each two-factor product is kept in one memo
keyed by its pair of lift positions and forms each of its rows once, on
first use: the braid relation R12 R23 R12 = R23 R12 R23 forms R23 R12
once for both sides, three sparse products where two separate sides take
four, and QYBE forms R13 R23 and R23 R13.  An output row is formed by
linalg.accumulate from the nonzero entries of the rows that its own
nonzero entries select, so a product whose left factor is a
lift costs at most nnz(R)*d^4 multiplications, and one whose right
factor is a lift at most d^2 per nonzero entry of the left factor, where
a dense lift product takes d^9.  Only the first mismatching entry is
converted back, as x / L^3, to a field scalar; invertibility comes from
the rank, which `linalg` takes on integers.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

from .algebra import Algebra, Vector, format_vector
from .axioms import ASSOC, LIE_ALT, LIE_JACOBI
from .fields import FieldSpec, Record, Scalar, coerce, from_integers, integral
from .identities import holds
from .linalg import Matrix, accumulate, integer_grid, mat_kernel, mat_mul, mat_rank, sparse_row


class TensorSquareOperator(Record):
    field: FieldSpec
    dim: int
    matrix: Matrix

    def __init__(self, field: FieldSpec, dim: int, matrix: Matrix):
        # The entries were gated when the Matrix was built.
        if matrix.field != field:
            raise ValueError(f"operator over {field} given a matrix over {matrix.field}")
        side = dim * dim
        if matrix.nrows != side or matrix.ncols != side:
            raise ValueError(f"operator matrix must be {side}x{side}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_columns(cls, field: FieldSpec, dim: int, columns: Sequence[Sequence[Scalar]]):
        return cls(field, dim, Matrix(field, tuple(zip(*columns, strict=True))))


def identity_operator(field: FieldSpec, dim: int) -> TensorSquareOperator:
    return TensorSquareOperator(field, dim, Matrix.identity(field, dim * dim))


def twist(field: FieldSpec, dim: int) -> TensorSquareOperator:
    """The swap v (x) w -> w (x) v as a permutation matrix."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    side = dim * dim
    rows = [[0] * side for _ in range(side)]
    for i in range(dim):
        for j in range(dim):
            rows[j * dim + i][i * dim + j] = 1
    return TensorSquareOperator(field, dim, Matrix(field, rows))


def compose(f: TensorSquareOperator, g: TensorSquareOperator) -> TensorSquareOperator:
    """f after g (apply g first)."""
    if f.dim != g.dim or f.field != g.field:
        raise ValueError("operator composition shape mismatch")
    return TensorSquareOperator(f.field, f.dim, mat_mul(f.matrix, g.matrix))


# Slots (0-based) of V (x) V (x) V per lift position: the two R acts on, then the other.
_SLOTS = {12: (0, 1, 2), 23: (1, 2, 0), 13: (0, 2, 1)}


def _lift_rows(rows: Sequence[Sequence], d: int, position: int) -> list:
    """Sparse integer rows of the lift of the d^2 x d^2 grid rows to the
    slots named by position (see lift): row k is the list of the (column,
    value) pairs of its nonzero entries, columns increasing.

    With (s, t) the slots R acts on and o the other, pair[a*d + b] is the
    index offset of e_a and e_b in slots s and t, and w runs over the
    offsets of the basis vectors in slot o; a basis triple's index is the
    sum of its two offsets.  Each nonzero entry (i, j) of rows goes to
    (pair[i] + w, pair[j] + w) for every w.
    """
    s, t, o = _SLOTS[position]
    stride = (d * d, d, 1)
    pair = [a * stride[s] + b * stride[t] for a in range(d) for b in range(d)]
    entries = [[(pair[j], x) for j, x in enumerate(row) if x] for row in rows]
    out = [None] * d ** 3
    for w in range(0, d * stride[o], stride[o]):
        for u, entry in zip(pair, entries):
            out[u + w] = [(v + w, x) for v, x in entry]
    return out


def lift(r: TensorSquareOperator, position: int) -> Matrix:
    """Lift to V (x) V (x) V acting on the slots named by position: 12, 23, or 13.

    With (s, t) those slots and o the other, entry (u, v) for basis triples
    u, v is R[u_s*d + u_t, v_s*d + v_t] when u_o = v_o, and zero otherwise.
    For 13 this equals (I (x) tau)(R (x) I)(I (x) tau).
    """
    if position not in _SLOTS:
        raise ValueError(f"lift position must be 12, 23, or 13, got {position}")
    n = r.dim ** 3
    rows = [dict(entries) for entries in _lift_rows(r.matrix.rows, r.dim, position)]
    return Matrix(r.field, [[row.get(col, 0) for col in range(n)] for row in rows])


def _row(left: list, right, p: int) -> list:
    """One row of left * right, for a sparse integer row of left and the
    sparse rows of right (see _lift_rows), summed by linalg.accumulate,
    reduced mod p when p > 0 and, as a sparse row again, without the
    entries that vanish there (or are exactly 0 over Q).  The cost is the
    selected rows' entry counts.
    """
    acc = accumulate([0] * len(right), left, right)
    if p:
        acc = [x % p for x in acc]
    return sparse_row(acc)


class _Product:
    """The sparse rows of left * right, each formed on first use (see _row)."""

    def __init__(self, left: Sequence, right: Sequence, p: int):
        self.left, self.right, self.p = left, right, p
        self.rows = [None] * len(left)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, u: int) -> list:
        row = self.rows[u]
        if row is None:
            row = self.rows[u] = _row(self.left[u], self.right, self.p)
        return row


def _first_mismatch(r: TensorSquareOperator, lhs_word: tuple, rhs_word: tuple) -> Optional[tuple]:
    """Row-major first (row, col, lhs, rhs) where the two lift products differ, else None.

    R is scaled once by L, the lcm of its entries' denominators (L = 1
    over F_p), so its lifts are sparse integer grids.  The triple product
    (a, b, c) of lhs_word is formed as a * (b * c), that of rhs_word as
    (a' * b') * c', one row at a time in row-major order (see _row),
    reduced mod p after each step over F_p: L^3 times the true product.
    Each two-factor product lives in one memo keyed by its pair of lift
    positions and forms each of its rows once, on first use: the braid
    relation forms R23 * R12 once for both sides, and a pair product forms
    only the rows that the output rows compared so far read.  Sparse rows
    hold no zero entry, so two rows are equal exactly when their (column,
    value) pairs are; at the first row that differs the check stops, and
    the column is the least one, over both rows' entries, where the
    values differ.  Only that mismatch is brought back to field scalars,
    as x / L^3 through the field.
    """
    field, d = r.field, r.dim
    ints, scale = integer_grid(r.matrix)
    lifts = {position: _lift_rows(ints, d, position) for position in {*lhs_word, *rhs_word}}
    p = field.characteristic
    (a, b, c), (a2, b2, c2) = lhs_word, rhs_word
    pairs = {key: _Product(lifts[key[0]], lifts[key[1]], p) for key in ((b, c), (a2, b2))}
    inner, outer = pairs[b, c], pairs[a2, b2]
    for row in range(d ** 3):
        ra, rb = _row(lifts[a][row], inner, p), _row(outer[row], lifts[c2], p)
        if ra != rb:
            ra, rb = dict(ra), dict(rb)
            col = min(c for c in ra.keys() | rb.keys() if ra.get(c, 0) != rb.get(c, 0))
            cube = scale ** 3
            return (row, col, *from_integers(field, (ra.get(col, 0), rb.get(col, 0)), cube))
    return None


class BraidReport(Record):
    dim: int
    braid_ok: bool
    invertible: bool
    rank: int
    first_mismatch: Optional[tuple]

    def __init__(self, dim: int, braid_ok: bool, invertible: bool, rank: int,
                 first_mismatch: Optional[tuple] = None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "braid_ok", braid_ok)
        object.__setattr__(self, "invertible", invertible)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "first_mismatch", first_mismatch)

    @property
    def is_yang_baxter(self) -> bool:
        """A Yang-Baxter operator must satisfy the braid relation and be invertible."""
        return self.braid_ok and self.invertible


class QybeReport(Record):
    dim: int
    qybe_ok: bool
    first_mismatch: Optional[tuple]

    def __init__(self, dim: int, qybe_ok: bool, first_mismatch: Optional[tuple] = None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "qybe_ok", qybe_ok)
        object.__setattr__(self, "first_mismatch", first_mismatch)


def check_braid(r: TensorSquareOperator) -> BraidReport:
    """R12 R23 R12 = R23 R12 R23 on V^(x)3, plus invertibility of R."""
    mismatch = _first_mismatch(r, (12, 23, 12), (23, 12, 23))
    rank = mat_rank(r.matrix)
    return BraidReport(
        dim=r.dim,
        braid_ok=mismatch is None,
        invertible=rank == r.dim * r.dim,
        rank=rank,
        first_mismatch=mismatch,
    )


def check_qybe(r: TensorSquareOperator) -> QybeReport:
    """R12 R13 R23 = R23 R13 R12 on V^(x)3."""
    mismatch = _first_mismatch(r, (12, 13, 23), (23, 13, 12))
    return QybeReport(dim=r.dim, qybe_ok=mismatch is None, first_mismatch=mismatch)


def build_assoc_yb(
    alg: Algebra, alpha: Scalar, beta: Scalar, gamma: Scalar
) -> TensorSquareOperator:
    """The family a (x) b -> alpha*ab (x) 1 + beta*1 (x) ab - gamma*a (x) b
    on a unital algebra.

    A declared unit is required (the formula references 1 explicitly);
    non-associative input is allowed but warned about, since the family
    is only a Yang-Baxter operator for associative products.
    """
    field = alg.field
    alpha, beta, gamma = (coerce(field, x) for x in (alpha, beta, gamma))
    if alg.unit is None:
        raise ValueError(
            "this construction maps a(x)b to alpha*ab(x)1 + beta*1(x)ab - gamma*a(x)b "
            "and needs an algebra with a declared unit"
        )
    if not holds(alg, ASSOC):
        warnings.warn(
            f"{alg.name}: input is not associative; the construction is only "
            "guaranteed to yield a Yang-Baxter operator for associative products",
            stacklevel=2,
        )
    d, u = alg.dim, alg.unit
    columns = []
    for i in range(d):
        for j in range(d):
            c = alg.tensor[i][j]  # e_i e_j = sum_k c[k] e_k
            col = [alpha * c[k] * u[l] + beta * u[k] * c[l] for k in range(d) for l in range(d)]
            col[i * d + j] -= gamma
            columns.append(col)
    return TensorSquareOperator.from_columns(field, d, columns)


def classify_params(
    field: FieldSpec, alpha: Scalar, beta: Scalar, gamma: Scalar
) -> Optional[str]:
    """Which parameter case (if any) makes the associative family a
    Yang-Baxter operator: "i", "ii", "iii", or None.

    (i) alpha = gamma != 0, beta != 0; (ii) beta = gamma != 0,
    alpha != 0; (iii) alpha = beta = 0, gamma != 0.  The overlap
    alpha = beta = gamma != 0 reports "i" by fixed precedence.
    """
    alpha, beta, gamma = (coerce(field, x) for x in (alpha, beta, gamma))
    zero = field.zero
    if alpha == gamma != zero and beta != zero:
        return "i"
    if beta == gamma != zero and alpha != zero:
        return "ii"
    if alpha == beta == zero and gamma != zero:
        return "iii"
    return None


def _require_lie(alg: Algebra, what: str) -> None:
    failed = ", ".join(spec.name for spec in (LIE_ALT, LIE_JACOBI) if not holds(alg, spec))
    if failed:
        raise ValueError(f"{what} requires a Lie algebra; {alg.name} fails: {failed}")


def center(alg: Algebra) -> list:
    """Basis of Z(L) = {z : [z, x] = 0 for all x}, via an exact kernel."""
    _require_lie(alg, "center")
    d, c = alg.dim, alg.tensor
    # Row (i, k), column j: coefficient of e_k in [e_j, e_i].
    rows = [[c[j][i][k] for j in range(d)] for i in range(d) for k in range(d)]
    return mat_kernel(Matrix(alg.field, rows))


def build_lie_yb(alg: Algebra, alpha: Scalar, z: Vector) -> TensorSquareOperator:
    """The operator x (x) y -> alpha*[x,y] (x) z + y (x) x for central z."""
    field = alg.field
    alpha, z = coerce(field, alpha), tuple(coerce(field, x) for x in z)
    _require_lie(alg, "the Lie-bracket Yang-Baxter construction")
    d = alg.dim
    if len(z) != d:
        raise ValueError(f"z has length {len(z)}, expected {d}")
    view = alg.integer_view
    zs, s = integral(z)
    for i in range(d):
        bracket = view.multiply(zs, view.basis_vectors[i])
        if any(bracket):
            raise ValueError(
                f"z is not central in {alg.name}: [z, {alg.basis[i]}] = "
                f"{format_vector(field, from_integers(field, bracket, s * view.scale))} != 0"
            )
    columns = []
    for i in range(d):
        for j in range(d):
            c = alg.tensor[i][j]  # [e_i, e_j] = sum_k c[k] e_k
            col = [alpha * c[k] * z[l] for k in range(d) for l in range(d)]
            col[j * d + i] += 1
            columns.append(col)
    return TensorSquareOperator.from_columns(field, d, columns)
