"""Witness revalidation on integers against the field-scalar oracle.

revalidate_verdict and revalidate_leibniz recompute a witness through the
algebra's integer view; tests/revalidation_oracle.py recomputes it
through a product of its own on field scalars, against which
Algebra.multiply, now on the integer view too, is also checked.  The cases are seeded: Q
tensors with entries 1/2, -3/2 and 2 (so that the tensor's scale L is 2)
and tensors over F_2, F_3 and F_5, at d = 1-4, every named identity,
COMPAT, and MIXED, a non-homogeneous identity parsed here.  Over Q the
witness vectors carry denominators, which the witness search never
emits, so the clearing scale S of the vectors is exercised here.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import revalidation_oracle as oracle
from ujla.algebra import Algebra
from ujla.axioms import ALL_NAMED_IDENTITIES
from ujla.derivations import _leibniz_sides, revalidate_leibniz
from ujla.fields import QQ, PrimeField
from ujla.identities import (
    CoefficientWitness,
    ConcreteWitness,
    IdentitySpec,
    Verdict,
    _slot_coefficients,
    evaluate_sides,
    revalidate_verdict,
)
from ujla.linalg import Matrix
from ujla.transforms import COMPAT

# Degrees 3, 2 and 1 on one side or the other: each word's scale differs.
MIXED = IdentitySpec.parse("mixed", "(a*b)*a - 1/7*(b*a) = 2*a + a*(b*b)", ("a", "b"))

FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}
Q_TENSOR = (Fraction(1, 2), Fraction(-3, 2), 2)
Q_VECTOR = (1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _specs(field) -> list:
    specs = list(ALL_NAMED_IDENTITIES.values()) + [MIXED]
    return specs + ([COMPAT] if field.characteristic != 2 else [])


def _algebras(label: str, d: int, count: int) -> list:
    """Seeded algebras, from sparse to dense."""
    field = FIELDS[label]
    rng = random.Random(f"{label}:{d}")
    values = Q_TENSOR if label == "Q" else range(1, field.p)
    algs = []
    for n in range(count):
        density = (0.4, 1.0)[n % 2]
        tensor = [[[rng.choice(values) if rng.random() < density else 0 for _ in range(d)]
                   for _ in range(d)] for _ in range(d)]
        algs.append(Algebra(f"{label}-{d}-{n}", field, d, tuple(f"e{i}" for i in range(d)), tensor))
    return algs


def _vector(rng, field, d: int) -> tuple:
    """Over Q, coordinates with denominators; over F_p, any residues."""
    if field.characteristic:
        return tuple(rng.randrange(field.p) for _ in range(d))
    return tuple(field.from_fraction(Fraction(rng.choice(Q_VECTOR))) for _ in range(d))


def _tampered(field, x):
    return field.normalize(x + (1 if field.characteristic else Fraction(1, 3)))


def _assignment(rng, alg, spec) -> dict:
    return {v: _vector(rng, alg.field, alg.dim) for v in spec.variables}


def _monomials(rng, alg, spec, count: int) -> list:
    """Monomials that words land on, and one that may land nowhere."""
    d, size = alg.dim, len(spec.variables) * alg.dim
    number = {v: n for n, v in enumerate(spec.variables)}
    words = [word for _, word in spec.lhs + spec.rhs]
    monos = []
    for _ in range(count):
        leaves = [number[v] for v in oracle._leaves(rng.choice(words))]
        monos.append(oracle.monomial(leaves, [rng.randrange(d) for _ in leaves], size, d))
    monos.append(tuple(rng.randrange(2) for _ in range(size)))
    return monos


@pytest.mark.parametrize("label", FIELDS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_multiply_matches_the_field_scalar_product(label, d):
    """Algebra.multiply, which runs on the integer view, gives the oracle's
    field-scalar product, of the field's scalar type, on vectors with
    denominators over Q.  Over F_p the view's own product of the residues
    is that product already: it reduces mod p itself."""
    rng = random.Random(f"multiply:{label}:{d}")
    scalar = Fraction if label == "Q" else int
    for alg in _algebras(label, d, 4):
        vectors = [alg.zero_vector(), *alg.basis_vectors()]
        vectors += [_vector(rng, alg.field, d) for _ in range(4)]
        for u, v in itertools.product(vectors, repeat=2):
            product = alg.multiply(u, v)
            assert product == oracle.multiply(alg, u, v), (alg.tensor, u, v)
            assert all(type(x) is scalar for x in product)
            if label != "Q":
                assert alg.integer_view.multiply(u, v) == product, (alg.tensor, u, v)


@pytest.mark.parametrize("label", FIELDS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_integer_sides_match_the_field_scalar_oracle(label, d):
    """evaluate_sides and _slot_coefficients give the oracle's field
    elements, of the field's scalar type, on every identity."""
    rng = random.Random(f"sides:{label}:{d}")
    scalar = Fraction if label == "Q" else int
    differ = 0
    for alg in _algebras(label, d, 2):
        for spec in _specs(alg.field):
            for _ in range(2):
                assignment = _assignment(rng, alg, spec)
                sides = evaluate_sides(alg, spec, assignment)
                expected = oracle.evaluate_sides(alg, spec, assignment)
                assert sides == expected, (alg.tensor, spec.name)
                assert all(type(x) is scalar for x in sides[0] + sides[1])
                differ += sides[0] != sides[1]
            for mono in _monomials(rng, alg, spec, 2):
                k = rng.randrange(d)
                expected = oracle.slot_coefficients(alg, spec, mono, k)
                assert _slot_coefficients(alg, spec, mono, k) == expected, (alg.tensor, mono)
    assert differ


def _concrete_cases(label: str, d: int):
    """(algebra, verdict) for seeded assignments whose sides differ."""
    rng = random.Random(f"concrete:{label}:{d}")
    for alg in _algebras(label, d, 3):
        for spec in _specs(alg.field):
            assignment = _assignment(rng, alg, spec)
            lhs, rhs = oracle.evaluate_sides(alg, spec, assignment)
            if lhs != rhs:
                witness = ConcreteWitness(tuple(assignment.items()), lhs, rhs)
                yield alg, Verdict(spec.name, False, "polynomial", identity=spec,
                                   concrete_witness=witness)


@pytest.mark.parametrize("label, d", [("Q", 2), ("Q", 3), ("F2", 3), ("F3", 2), ("F5", 3)])
def test_concrete_witness_tampering_is_rejected(label, d):
    """A hand-built witness is accepted; changing any coordinate of either
    side rejects it, and changing a coordinate of the assignment rejects it
    exactly when the oracle's sides there differ from the stored ones."""
    field = FIELDS[label]
    checked = rejected = 0
    for alg, verdict in _concrete_cases(label, d):
        w = verdict.concrete_witness
        assert revalidate_verdict(alg, verdict), (alg.tensor, verdict.name)
        for side in ("lhs", "rhs"):
            for k in range(d):
                vec = list(getattr(w, side))
                vec[k] = _tampered(field, vec[k])
                tampered = replace(verdict, concrete_witness=replace(w, **{side: tuple(vec)}))
                assert not revalidate_verdict(alg, tampered), (alg.tensor, verdict.name, side, k)
        for n, (name, vec) in enumerate(w.assignment):
            for k in range(d):
                moved = list(vec)
                moved[k] = _tampered(field, moved[k])
                assignment = list(w.assignment)
                assignment[n] = (name, tuple(moved))
                lhs, rhs = oracle.evaluate_sides(alg, verdict.identity, dict(assignment))
                expected = (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
                moved_w = replace(w, assignment=tuple(assignment))
                accepted = revalidate_verdict(alg, replace(verdict, concrete_witness=moved_w))
                assert accepted == expected, (alg.tensor, verdict.name, n, k)
                rejected += not expected
        checked += 1
    assert checked >= 5 and rejected, (checked, rejected)


@pytest.mark.parametrize("label, d", [("Q", 2), ("Q", 3), ("F3", 2), ("F5", 3)])
def test_coefficient_witness_tampering_is_rejected(label, d):
    """A hand-built coefficient witness is accepted and either changed
    coefficient rejects it."""
    field = FIELDS[label]
    rng = random.Random(f"coefficient:{label}:{d}")
    checked = 0
    for alg in _algebras(label, d, 2):
        for spec in _specs(field):
            for mono in _monomials(rng, alg, spec, 3):
                k = rng.randrange(d)
                lc, rc = oracle.slot_coefficients(alg, spec, mono, k)
                if lc == rc:
                    continue
                cw = CoefficientWitness(mono, "", k, lc, rc)
                verdict = Verdict(spec.name, False, "polynomial", identity=spec,
                                  coefficient_witness=cw)
                assert revalidate_verdict(alg, verdict), (alg.tensor, spec.name, mono)
                for wrong in (replace(cw, lhs_coefficient=_tampered(field, lc)),
                              replace(cw, rhs_coefficient=_tampered(field, rc))):
                    assert not revalidate_verdict(alg, replace(verdict, coefficient_witness=wrong))
                checked += 1
    assert checked > 10, checked


@pytest.mark.parametrize("label, d",
                         [("Q", 1), ("Q", 2), ("Q", 3), ("F2", 2), ("F3", 3), ("F5", 4)])
def test_leibniz_sides_and_tampering_match_the_oracle(label, d):
    """_leibniz_sides gives the oracle's sides for maps and vectors with
    denominators over Q; a hand-built Leibniz witness is accepted, a changed
    side coordinate rejects it, and a changed x or y coordinate rejects it
    exactly when the oracle's sides there differ from the stored ones."""
    field = FIELDS[label]
    rng = random.Random(f"leibniz:{label}:{d}")
    checked = rejected = 0
    for alg in _algebras(label, d, 4):
        for _ in range(4):
            deriv = Matrix.from_rows(field, [_vector(rng, field, d) for _ in range(d)])
            x, y = _vector(rng, field, d), _vector(rng, field, d)
            lhs, rhs = oracle.leibniz_sides(alg, deriv, x, y)
            assert _leibniz_sides(alg, deriv, x, y) == (lhs, rhs), (alg.tensor, deriv.rows, x, y)
            if lhs == rhs:
                continue
            w = ConcreteWitness((("x", x), ("y", y)), lhs, rhs)
            verdict = Verdict("leibniz", False, "polynomial", concrete_witness=w)
            assert revalidate_leibniz(alg, deriv, verdict)
            for side, k in itertools.product(("lhs", "rhs"), range(d)):
                vec = list(getattr(w, side))
                vec[k] = _tampered(field, vec[k])
                tampered = replace(verdict, concrete_witness=replace(w, **{side: tuple(vec)}))
                assert not revalidate_leibniz(alg, deriv, tampered), (side, k)
            for n, k in itertools.product(range(2), range(d)):
                env = [list(x), list(y)]
                env[n][k] = _tampered(field, env[n][k])
                moved = tuple(map(tuple, env))
                expected = oracle.leibniz_sides(alg, deriv, *moved) == (lhs, rhs)
                tampered = replace(verdict, concrete_witness=replace(
                    w, assignment=(("x", moved[0]), ("y", moved[1]))))
                assert revalidate_leibniz(alg, deriv, tampered) == expected, (n, k)
                rejected += not expected
            checked += 1
    assert checked >= 5 and rejected, (checked, rejected)


def _misnamed(assignment: tuple) -> dict:
    """The assignment with its last name left out, with an extra name, and
    with its names reordered (when it has two or more)."""
    cases = {"missing": assignment[:-1], "extra": assignment + (("z", assignment[0][1]),)}
    if len(assignment) > 1:
        cases["reordered"] = assignment[::-1]
    return cases


@pytest.mark.parametrize("label, d", [("Q", 2), ("F3", 2), ("F5", 3)])
def test_witness_names_must_be_the_declared_variables_in_order(label, d):
    """A hand-built witness is rejected, not read through a KeyError or past
    an extra or swapped name, unless its assignment names exactly the
    identity's variables in declared order, or x and y for Leibniz."""
    field = FIELDS[label]
    reordered = 0
    for alg, verdict in _concrete_cases(label, d):
        w = verdict.concrete_witness
        assert revalidate_verdict(alg, verdict)
        for case, assignment in _misnamed(w.assignment).items():
            moved = replace(verdict, concrete_witness=replace(w, assignment=assignment))
            assert not revalidate_verdict(alg, moved), (verdict.name, case)
            reordered += case == "reordered"
    assert reordered
    rng = random.Random(f"names:{label}:{d}")
    deriv = Matrix.from_rows(field, [_vector(rng, field, d) for _ in range(d)])
    checked = 0
    for alg in _algebras(label, d, 4):
        x, y = _vector(rng, field, d), _vector(rng, field, d)
        lhs, rhs = oracle.leibniz_sides(alg, deriv, x, y)
        if lhs == rhs:
            continue
        w = ConcreteWitness((("x", x), ("y", y)), lhs, rhs)
        verdict = Verdict("leibniz", False, "polynomial", concrete_witness=w)
        assert revalidate_leibniz(alg, deriv, verdict)
        for case, assignment in _misnamed(w.assignment).items():
            moved = replace(verdict, concrete_witness=replace(w, assignment=assignment))
            assert not revalidate_leibniz(alg, deriv, moved), case
        checked += 1
    assert checked
