"""Field-scalar Gauss-Jordan elimination and products, kept as the
oracle for `ujla.linalg`.

Every step is a field operation on the matrix's own scalars (`Fraction`
over Q, residues through `field.normalize` over F_p): each pivot row is
scaled by the pivot's inverse and the column cleared above and below it.
It is the route `ujla.linalg` took before it eliminated on integers, and
it shares no code with it apart from the `Matrix` container.
"""

from ujla.fields import coerce
from ujla.linalg import Matrix, NotInvertibleError


def echelon(field, rows: list) -> tuple[list, list]:
    """In-place reduction of field-scalar rows to reduced row echelon
    form; returns (rows, pivot columns).  The first nonzero entry of the
    current column at or below the current row is the pivot."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    zero, norm = field.zero, field.normalize
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
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


def rref(a: Matrix) -> tuple:
    rows, pivots = echelon(a.field, [list(r) for r in a.rows])
    return Matrix(a.field, tuple(tuple(r) for r in rows)), tuple(pivots)


def mat_rank(a: Matrix) -> int:
    return len(rref(a)[1])


def mat_inverse(a: Matrix) -> Matrix:
    """The inverse from the reduction of [A | I]; NotInvertibleError
    carries the number of pivots in the left block, the rank of A."""
    n, field = a.nrows, a.field
    ident = Matrix.identity(field, n)
    aug, pivots = echelon(field, [list(r) + list(e) for r, e in zip(a.rows, ident.rows)])
    left = [c for c in pivots if c < n]
    if left != list(range(n)):
        raise NotInvertibleError(rank=len(left), size=n)
    return Matrix(field, tuple(tuple(row[n:]) for row in aug))


def mat_kernel(a: Matrix) -> list:
    """One vector per free column, in column order, first nonzero coordinate 1."""
    field = a.field
    reduced, pivots = rref(a)
    n = a.ncols
    zero, one = field.zero, field.one
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [zero] * n
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.normalize(-reduced.rows[r][f])
        inv_lead = field.inv(next(x for x in v if x != zero))
        basis.append(tuple(field.normalize(inv_lead * x) for x in v))
    return basis


def solve(a: Matrix, b) -> tuple:
    """One solution of A x = b with free variables 0, or None when inconsistent."""
    field, n = a.field, a.ncols
    aug, pivots = echelon(field, [list(r) + [coerce(field, x)] for r, x in zip(a.rows, b)])
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][n]
    return tuple(x)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row-by-column sums of field-scalar products."""
    norm = a.field.normalize
    cols = tuple(zip(*b.rows))
    return Matrix(a.field, tuple(
        tuple(norm(sum((x * y for x, y in zip(row, col)), a.field.zero)) for col in cols)
        for row in a.rows
    ))


def mat_vec(a: Matrix, v) -> tuple:
    """Row-by-vector sums of field-scalar products, each normalised once."""
    if a.ncols != len(v):
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times vector of length {len(v)}")
    norm = a.field.normalize
    return tuple(norm(sum(x * y for x, y in zip(row, v))) for row in a.rows)
