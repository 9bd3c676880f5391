"""Named axiom suites: associative, Lie, Jordan, and UJLA.

Each checker returns a multi-verdict report built from the identity
engine.  The Lie suite uses the alternating form a*a = 0 rather than
antisymmetry so characteristic 2 is handled correctly.  The Jordan
suite is the standard one (commutativity plus the degree-4 Jordan
identity); over characteristic 2 it still runs but the report carries
a caveat, since Jordan theory degenerates there.
"""

from __future__ import annotations

from typing import Optional

from .algebra import Algebra
from .identities import AxiomReport, IdentitySpec, check_identity, holds

ASSOC = IdentitySpec.parse("assoc", "(a*b)*c = a*(b*c)", ("a", "b", "c"))

LIE_ALT = IdentitySpec.parse("lie.alt", "a*a = 0", ("a",))
LIE_JACOBI = IdentitySpec.parse("lie.jacobi", "(a*b)*c + (b*c)*a + (c*a)*b = 0", ("a", "b", "c"))

JORDAN_COMM = IdentitySpec.parse("jordan.comm", "a*b = b*a", ("a", "b"))
JORDAN_MAIN = IdentitySpec.parse("jordan.main", "(a*b)*(a*a) = a*(b*(a*a))", ("a", "b"))

UJLA_1 = IdentitySpec.parse(
    "ujla.1",
    "(a*b)*c + (b*c)*a + (c*a)*b = a*(b*c) + b*(c*a) + c*(a*b)",
    ("a", "b", "c"),
)
UJLA_2A = IdentitySpec.parse("ujla.2a", "((a*a)*b)*a = (a*a)*(b*a)", ("a", "b"))
UJLA_2B = IdentitySpec.parse("ujla.2b", "(a*b)*(a*a) = a*(b*(a*a))", ("a", "b"))
UJLA_2C = IdentitySpec.parse("ujla.2c", "(b*(a*a))*a = (b*a)*(a*a)", ("a", "b"))
UJLA_2D = IdentitySpec.parse("ujla.2d", "(a*a)*(a*b) = a*((a*a)*b)", ("a", "b"))

UJLA_SPECS = (UJLA_1, UJLA_2A, UJLA_2B, UJLA_2C, UJLA_2D)

ALL_NAMED_IDENTITIES = {
    spec.name: spec
    for spec in (ASSOC, LIE_ALT, LIE_JACOBI, JORDAN_COMM, JORDAN_MAIN) + UJLA_SPECS
}


def _suite(alg: Algebra, specs, semantics: str, notes=()) -> AxiomReport:
    verdicts = tuple(check_identity(alg, spec, semantics) for spec in specs)
    return AxiomReport(algebra=alg.name, semantics=semantics, verdicts=verdicts, notes=notes)


def check_associative(alg: Algebra, semantics: str = "polynomial") -> AxiomReport:
    return _suite(alg, (ASSOC,), semantics)


def check_lie(alg: Algebra, semantics: str = "polynomial") -> AxiomReport:
    return _suite(alg, (LIE_ALT, LIE_JACOBI), semantics)


def check_jordan(alg: Algebra, semantics: str = "polynomial") -> AxiomReport:
    notes = ()
    if alg.field.characteristic == 2:
        notes = ("characteristic-2 caveat: the Jordan identity is checked as stated, "
                 "but Jordan theory degenerates in characteristic 2",)
    return _suite(alg, (JORDAN_COMM, JORDAN_MAIN), semantics, notes)


def check_ujla(alg: Algebra, semantics: str = "polynomial") -> AxiomReport:
    return _suite(alg, UJLA_SPECS, semantics)


def ujla_failure(alg: Algebra, semantics: str = "polynomial") -> Optional[str]:
    """Name of the first failing UJLA identity, or None when all pass.

    Early-exit filter in check_ujla's report order.  The classification
    scan decides the same first failure on the structure constants
    instead (classify._scan_range); this is the per-algebra route.
    """
    for spec in UJLA_SPECS:
        if not holds(alg, spec, semantics):
            return spec.name
    return None


SUITES = {
    "assoc": check_associative,
    "lie": check_lie,
    "jordan": check_jordan,
    "ujla": check_ujla,
}
