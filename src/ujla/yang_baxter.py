"""Operators on V (x) V: the twist, braid and QYBE checks, and the two
Yang-Baxter constructions (from a unital associative product and from a
Lie bracket with a central element).

Matrix convention, shared by every checker and oracle in this package:
column index i*d + j encodes e_i (x) e_j, and the entry at row k*d + l
is the coefficient of e_k (x) e_l in the image.  Triple-space lifts use
index i*d^2 + j*d + k for e_i (x) e_j (x) e_k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Algebra, Vector, format_vector, vec_is_zero
from .axioms import check_associative, check_lie
from .fields import FieldSpec, Scalar, coerce
from .linalg import Matrix, kron, mat_kernel, mat_mul, mat_rank, mat_vec


@dataclass(frozen=True)
class TensorSquareOperator:
    field: FieldSpec
    dim: int
    matrix: Matrix

    def __post_init__(self):
        side = self.dim * self.dim
        if self.matrix.nrows != side or self.matrix.ncols != side:
            raise ValueError(f"operator matrix must be {side}x{side}")

    @classmethod
    def from_columns(cls, field: FieldSpec, dim: int, columns: Sequence[Sequence[Scalar]]):
        rows = tuple(
            tuple(coerce(field, columns[c][r]) for c in range(dim * dim))
            for r in range(dim * dim)
        )
        return cls(field, dim, Matrix(field, rows))

    def apply(self, coeffs: Sequence[Scalar]) -> tuple:
        return mat_vec(self.matrix, coeffs)


def identity_operator(field: FieldSpec, dim: int) -> TensorSquareOperator:
    return TensorSquareOperator(field, dim, Matrix.identity(field, dim * dim))


def twist(field: FieldSpec, dim: int) -> TensorSquareOperator:
    """The swap v (x) w -> w (x) v as a permutation matrix."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    side = dim * dim
    zero, one = field.zero, field.one
    rows = [[zero] * side for _ in range(side)]
    for i in range(dim):
        for j in range(dim):
            rows[j * dim + i][i * dim + j] = one
    return TensorSquareOperator(field, dim, Matrix(field, tuple(tuple(r) for r in rows)))


def compose(f: TensorSquareOperator, g: TensorSquareOperator) -> TensorSquareOperator:
    """f after g (apply g first)."""
    if f.dim != g.dim or f.field != g.field:
        raise ValueError("operator composition shape mismatch")
    return TensorSquareOperator(f.field, f.dim, mat_mul(f.matrix, g.matrix))


def lift(r: TensorSquareOperator, position: int) -> Matrix:
    """Lift to V (x) V (x) V: position 12, 23, or 13.

    12 and 23 are Kronecker paddings; 13 is built by direct index
    shuffle, which equals the twist conjugation (I (x) tau)(R (x) I)(I (x) tau).
    """
    d = r.dim
    field = r.field
    if position == 12:
        return kron(r.matrix, Matrix.identity(field, d))
    if position == 23:
        return kron(Matrix.identity(field, d), r.matrix)
    if position != 13:
        raise ValueError(f"lift position must be 12, 23, or 13, got {position}")
    side = d ** 3
    zero = field.zero
    rows = [[zero] * side for _ in range(side)]
    rm = r.matrix
    for i in range(d):
        for j in range(d):
            for k in range(d):
                col = i * d * d + j * d + k
                rcol = i * d + k
                for a in range(d):
                    for b in range(d):
                        coeff = rm[a * d + b, rcol]
                        if coeff != zero:
                            rows[a * d * d + j * d + b][col] = coeff
    return Matrix(field, tuple(tuple(row) for row in rows))


def _first_mismatch(a: Matrix, b: Matrix) -> Optional[tuple]:
    for r, (ra, rb) in enumerate(zip(a.rows, b.rows)):
        if ra != rb:
            for c, (x, y) in enumerate(zip(ra, rb)):
                if x != y:
                    return (r, c, x, y)
    return None


@dataclass(frozen=True)
class BraidReport:
    dim: int
    braid_ok: bool
    invertible: bool
    rank: int
    first_mismatch: Optional[tuple] = None

    @property
    def is_yang_baxter(self) -> bool:
        """A Yang-Baxter operator must satisfy the braid relation and be invertible."""
        return self.braid_ok and self.invertible


@dataclass(frozen=True)
class QybeReport:
    dim: int
    qybe_ok: bool
    first_mismatch: Optional[tuple] = None


def check_braid(r: TensorSquareOperator) -> BraidReport:
    """R12 R23 R12 = R23 R12 R23 on V^(x)3, plus invertibility of R."""
    r12 = lift(r, 12)
    r23 = lift(r, 23)
    lhs = mat_mul(r12, mat_mul(r23, r12))
    rhs = mat_mul(r23, mat_mul(r12, r23))
    mismatch = _first_mismatch(lhs, rhs)
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
    r12 = lift(r, 12)
    r13 = lift(r, 13)
    r23 = lift(r, 23)
    lhs = mat_mul(r12, mat_mul(r13, r23))
    rhs = mat_mul(r23, mat_mul(r13, r12))
    mismatch = _first_mismatch(lhs, rhs)
    return QybeReport(dim=r.dim, qybe_ok=mismatch is None, first_mismatch=mismatch)


def _outer(u: Vector, v: Vector, field: FieldSpec) -> list:
    return [field.normalize(x * y) for x in u for y in v]


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
    if alg.unit is None:
        raise ValueError(
            "this construction maps a(x)b to alpha*ab(x)1 + beta*1(x)ab - gamma*a(x)b "
            "and needs an algebra with a declared unit"
        )
    if not check_associative(alg).passed:
        warnings.warn(
            f"{alg.name}: input is not associative; the construction is only "
            "guaranteed to yield a Yang-Baxter operator for associative products",
            stacklevel=2,
        )
    alpha, beta, gamma = (coerce(field, x) for x in (alpha, beta, gamma))
    d = alg.dim
    unit = alg.unit
    columns = []
    for i in range(d):
        ei = alg.basis_vector(i)
        for j in range(d):
            ej = alg.basis_vector(j)
            prod = alg.multiply(ei, ej)
            col = [field.zero] * (d * d)
            for pos, x in enumerate(_outer(prod, unit, field)):
                col[pos] = field.add(col[pos], field.mul(alpha, x))
            for pos, x in enumerate(_outer(unit, prod, field)):
                col[pos] = field.add(col[pos], field.mul(beta, x))
            col[i * d + j] = field.sub(col[i * d + j], gamma)
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
    report = check_lie(alg)
    if not report.passed:
        failed = ", ".join(v.name for v in report.failures())
        raise ValueError(f"{what} requires a Lie algebra; {alg.name} fails: {failed}")


def center(alg: Algebra) -> list:
    """Basis of Z(L) = {z : [z, x] = 0 for all x}, via an exact kernel."""
    _require_lie(alg, "center")
    d = alg.dim
    field = alg.field
    # Row (i, k), column j: coefficient of e_k in [e_j, e_i].
    rows = []
    for i in range(d):
        for k in range(d):
            rows.append(tuple(alg.tensor[j][i][k] for j in range(d)))
    return mat_kernel(Matrix(field, tuple(rows)))


def build_lie_yb(alg: Algebra, alpha: Scalar, z: Vector) -> TensorSquareOperator:
    """The operator x (x) y -> alpha*[x,y] (x) z + y (x) x for central z."""
    field = alg.field
    _require_lie(alg, "the Lie-bracket Yang-Baxter construction")
    d = alg.dim
    if len(z) != d:
        raise ValueError(f"z has length {len(z)}, expected {d}")
    z = tuple(coerce(field, x) for x in z)
    for i in range(d):
        bracket = alg.multiply(z, alg.basis_vector(i))
        if not vec_is_zero(field, bracket):
            raise ValueError(
                f"z is not central in {alg.name}: [z, {alg.basis[i]}] = "
                f"{format_vector(field, bracket)} != 0"
            )
    alpha = coerce(field, alpha)
    columns = []
    for i in range(d):
        ei = alg.basis_vector(i)
        for j in range(d):
            ej = alg.basis_vector(j)
            bracket = alg.multiply(ei, ej)
            col = [field.zero] * (d * d)
            for pos, x in enumerate(_outer(bracket, z, field)):
                col[pos] = field.add(col[pos], field.mul(alpha, x))
            col[j * d + i] = field.add(col[j * d + i], field.one)
            columns.append(col)
    return TensorSquareOperator.from_columns(field, d, columns)
