"""Derivation constructions and the Leibniz-rule checker.

Linear maps are square matrices whose columns are the images of basis
vectors.  Both builders are signed sums of products of the left and
right multiplication matrices L_u: x -> ux and R_u: x -> xu, all taken
from the algebra's single product (the bracket of a Lie algebra, the
circle of a Jordan algebra); no hidden symmetrization happens here.
Arithmetic runs on integers: the argument vectors enter through the
integer view's gated entry, clear; a linear map, gated when its Matrix
was built, must be over the algebra's field and becomes integers through
linalg.integer_grid; each entry is brought back to the field once.
"""

from __future__ import annotations

from .algebra import Algebra, Vector
from .fields import from_integers
from .identities import AxiomReport, ConcreteWitness, Verdict
from .linalg import Matrix, accumulate, integer_grid, sparse_row


def _signed_products(alg: Algebra, a: Vector, b: Vector, terms_of) -> Matrix:
    """Sum of sign * P Q over the (sign, P, Q) in terms_of(L_a, R_a, L_b, R_b).

    Each map is the list of its columns as sparse integer rows, read on
    the integer view's product: column j of L_u is u e_j and column i of
    R_u is e_i u.  Column x of P Q is the sum of Q[t][x] times column t
    of P."""
    d, field, view = alg.dim, alg.field, alg.integer_view
    cleared, s = view.clear((a, b))  # every coordinate is gated before the lengths are read
    if len(a) != d or len(b) != d:
        raise ValueError(f"{alg.name}: argument vectors must have length {d}")
    a_ints, b_ints = cleared

    def maps(u):
        return ([sparse_row(view.multiply(u, e)) for e in view.basis_vectors],
                [sparse_row(view.multiply(e, u)) for e in view.basis_vectors])

    columns = [[0] * d for _ in range(d)]
    for sign, p, q in terms_of(*maps(a_ints), *maps(b_ints)):
        for acc, q_column in zip(columns, q):
            accumulate(acc, q_column, p, sign)
    denom = s * s * view.scale ** 2
    return Matrix(field, tuple(from_integers(field, row, denom) for row in zip(*columns)))


def derivation_six_term(alg: Algebra, a: Vector, b: Vector) -> Matrix:
    """D(x) = a(bx) + b(ax) + (ax)b - a(xb) - (xb)a - (xa)b,
    that is L_aL_b + L_bL_a + R_bL_a - L_aR_b - R_aR_b - R_bR_a."""
    return _signed_products(alg, a, b, lambda la, ra, lb, rb: [
        (+1, la, lb), (+1, lb, la), (+1, rb, la),
        (-1, la, rb), (-1, ra, rb), (-1, rb, ra),
    ])


def derivation_two_term(alg: Algebra, a: Vector, b: Vector) -> Matrix:
    """D(x) = a(bx) - (xa)b, that is L_aL_b - R_bR_a."""
    return _signed_products(alg, a, b, lambda la, ra, lb, rb: [(+1, la, lb), (-1, rb, ra)])


def _integer_map(alg: Algebra, deriv: Matrix) -> tuple:
    """The integer rows of D and their scale (linalg.integer_grid), for a
    d x d map over the algebra's field."""
    d = alg.dim
    if deriv.field != alg.field or deriv.nrows != d or deriv.ncols != d:
        raise ValueError(f"{alg.name}: linear map must be {d}x{d} over {alg.field}, "
                         f"got {deriv.nrows}x{deriv.ncols} over {deriv.field}")
    return integer_grid(deriv)


def check_derivation(alg: Algebra, deriv: Matrix) -> AxiomReport:
    """Does D satisfy D(xy) = D(x)y + xD(y)?

    The rule is linear in D and bilinear in (x, y), so it is checked
    exactly on basis pairs: one contraction of D with the structure
    tensor gives both sides, D(e_i e_j) and D(e_i)e_j + e_i D(e_j), of
    every pair as integer sums.  A failure reports the first pair (i, j)
    in row-major order whose sums differ (mod p over F_p), with its two
    sides read off those sums; revalidate_leibniz recomputes them through
    the product.  The verdict keeps the label "polynomial" that exact
    verdicts carry.
    """
    # With D scaled by s and the constants by t to integers, both sides of
    # every pair are s * t times their values.
    m, s = _integer_map(alg, deriv)
    d, view = alg.dim, alg.integer_view
    t = view.scale
    lhs = [[[0] * d for _ in range(d)] for _ in range(d)]
    rhs = [[[0] * d for _ in range(d)] for _ in range(d)]
    nonzero = ((i, j, k, c) for i, plane in enumerate(view.planes)
               for j, row in enumerate(plane) for k, c in row)
    for i, j, k, c in nonzero:
        # c = c[i][j][k] enters pair (i, j) through D(e_i e_j), pair (r, j)
        # through D(e_r)e_j and pair (i, r) through e_i D(e_r).
        for r in range(d):
            if m[r][k]:
                lhs[i][j][r] += c * m[r][k]
            if m[i][r]:
                rhs[r][j][k] += m[i][r] * c
            if m[j][r]:
                rhs[i][r][k] += m[j][r] * c
    p = view.p

    def differ(u, v) -> bool:
        return any((x - y) % p for x, y in zip(u, v)) if p else u != v

    failing = next(((i, j) for i in range(d) for j in range(d)
                    if differ(lhs[i][j], rhs[i][j])), None)
    field = alg.field
    verdict = Verdict("leibniz", True, "polynomial")
    if failing is not None:
        i, j = failing
        sides = (from_integers(field, acc, s * t) for acc in (lhs[i][j], rhs[i][j]))
        witness = ConcreteWitness((("x", alg.basis_vector(i)), ("y", alg.basis_vector(j))), *sides)
        verdict = Verdict("leibniz", False, "polynomial", concrete_witness=witness)
    return AxiomReport(algebra=alg.name, semantics="polynomial", verdicts=(verdict,))


def _leibniz_sides(alg: Algebra, deriv: Matrix, x: Vector, y: Vector) -> tuple:
    """(D(xy), D(x)y + xD(y)) through the integer view's product, not the
    contraction: the revalidation route.  D v is the sum of v_t times
    column t of D, formed by linalg.accumulate.  With D cleared by r, x and
    y by one s and the tensor by L, both sides are r s^2 L times their
    values."""
    d = alg.dim
    if len(x) != d or len(y) != d:
        raise ValueError(f"{alg.name}: vectors must have dimension {d}")
    view = alg.integer_view
    m, r = _integer_map(alg, deriv)
    (xs, ys), s = view.clear((x, y))
    columns = [sparse_row(column) for column in zip(*m)]

    def apply(v):
        return accumulate([0] * d, sparse_row(v), columns)

    lhs = apply(view.multiply(xs, ys))
    rhs = [a + b for a, b in zip(view.multiply(apply(xs), ys), view.multiply(xs, apply(ys)))]
    scale = r * s * s * view.scale
    return from_integers(alg.field, lhs, scale), from_integers(alg.field, rhs, scale)


def revalidate_leibniz(alg: Algebra, deriv: Matrix, verdict: Verdict) -> bool:
    """Recompute a failed Leibniz verdict's witness pair from scratch."""
    if verdict.passed:
        return True
    w = verdict.concrete_witness
    if w is None:
        return False
    if tuple(name for name, _ in w.assignment) != ("x", "y"):
        return False
    (_, x), (_, y) = w.assignment
    lhs, rhs = _leibniz_sides(alg, deriv, x, y)
    return lhs == w.lhs and rhs == w.rhs and lhs != rhs
