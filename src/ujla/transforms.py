"""Derived products: commutator, symmetrization, and (alpha, beta) blends.

Each constructor returns a new algebra over the same space whose tensor
is a linear recombination of the original product, plus the mixed
bracket/circle compatibility check relating the first two.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra
from .fields import Scalar, coerce
from .identities import AxiomReport, IdentitySpec, verify_identity


def _recombined_tensor(alg: Algebra, alpha: Scalar, beta: Scalar) -> tuple:
    """Tensor of the product u, v -> alpha*(uv) + beta*(vu)."""
    field = alg.field
    d = alg.dim
    c = alg.tensor
    norm = field.normalize
    return tuple(
        tuple(
            tuple(norm(alpha * c[i][j][k] + beta * c[j][i][k]) for k in range(d))
            for j in range(d)
        )
        for i in range(d)
    )


def commutator(alg: Algebra) -> Algebra:
    """Bracket product [u, v] = uv - vu; the unit annotation is dropped
    (1 is never a unit for an alternating product)."""
    field = alg.field
    one = field.one
    tensor = _recombined_tensor(alg, one, field.neg(one))
    return alg.with_tensor(alg.name + "/lie", tensor, unit=None)


def symmetrize(alg: Algebra) -> Algebra:
    """Circle product u o v = (uv + vu)/2; keeps the unit, needs char != 2."""
    field = alg.field
    if field.characteristic == 2:
        raise ValueError(
            "symmetrization undefined in characteristic 2 (the 1/2 factor does not exist)"
        )
    half = field.from_fraction(Fraction(1, 2))
    tensor = _recombined_tensor(alg, half, half)
    return alg.with_tensor(alg.name + "/jordan", tensor, unit=alg.unit)


def deform(alg: Algebra, alpha: Scalar, beta: Scalar) -> Algebra:
    """Blended product u, v -> alpha*(uv) + beta*(vu).

    The unit annotation survives only when alpha + beta = 1; otherwise
    1*v = (alpha+beta)*v and the unit invariant would fail at load.
    """
    field = alg.field
    alpha, beta = coerce(field, alpha), coerce(field, beta)
    tensor = _recombined_tensor(alg, alpha, beta)
    unit = alg.unit if field.add(alpha, beta) == field.one else None
    name = f"{alg.name}/deform({field.format(alpha)},{field.format(beta)})"
    return alg.with_tensor(name, tensor, unit=unit)


# [x, y] = xy - yx and x o y = (xy + yx)/2, both built from the same
# product, satisfy [a, b o c] + [b, c o a] + [c, a o b] = 0; below is
# that relation with the bracket and circle expanded.
COMPAT = IdentitySpec.parse(
    "compat",
    "1/2*(a*(b*c)) + 1/2*(a*(c*b)) - 1/2*((b*c)*a) - 1/2*((c*b)*a)"
    " + 1/2*(b*(c*a)) + 1/2*(b*(a*c)) - 1/2*((c*a)*b) - 1/2*((a*c)*b)"
    " + 1/2*(c*(a*b)) + 1/2*(c*(b*a)) - 1/2*((a*b)*c) - 1/2*((b*a)*c)"
    " = 0",
    ("a", "b", "c"),
)


def check_compatibility(alg: Algebra, semantics: str = "polynomial") -> AxiomReport:
    """Verify the mixed bracket/circle relation for the algebra's product."""
    if alg.field.characteristic == 2:
        raise ValueError(
            "compatibility check undefined in characteristic 2 (the circle product needs 1/2)"
        )
    return verify_identity(alg, COMPAT, semantics)
