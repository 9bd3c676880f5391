import itertools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from reference import ref_pointwise_holds
from strategies import algebras
from ujla import corpus
from ujla.axioms import ALL_NAMED_IDENTITIES, JORDAN_COMM, UJLA_2A
from ujla.classify import flat_to_tensor, tensor_algebra
from ujla.identities import (
    IdentitySpec,
    check_identity,
    evaluate_sides,
    holds,
    revalidate_verdict,
    verify_identity,
)
from ujla.transforms import COMPAT


# --- parsing ---------------------------------------------------------------

def test_parse_simple_word_tree():
    spec = IdentitySpec.parse("t", "((a*a)*b)*a = (a*a)*(b*a)", ("a", "b"))
    assert spec.lhs == ((1, ((("a", "a"), "b"), "a")),)
    assert spec.rhs == ((1, (("a", "a"), ("b", "a"))),)


def test_parse_sums_signs_and_coefficients():
    spec = IdentitySpec.parse("t", "a*b - b*a + 2*(a*a) = 0", ("a", "b"))
    coefs = [c for c, _ in spec.lhs]
    assert coefs == [1, -1, 2]
    assert spec.rhs == ()


def test_parse_accepts_middle_dot():
    spec = IdentitySpec.parse("t", "(a·b)·c = a·(b·c)", ("a", "b", "c"))
    assert spec.lhs == ((1, (("a", "b"), "c")),)


def test_parse_rejects_ambiguous_products():
    with pytest.raises(ValueError, match="parenthesize"):
        IdentitySpec.parse("t", "a*b*c = 0", ("a", "b", "c"))


def test_parse_rejects_unknown_variables():
    with pytest.raises(ValueError, match="unknown variable"):
        IdentitySpec.parse("t", "a*d = 0", ("a", "b"))


def test_parse_rejects_duplicate_variables():
    with pytest.raises(ValueError, match="distinct"):
        IdentitySpec.parse("t", "a*a = 0", ("a", "a"))


def test_parse_rejects_malformed_input():
    for text in ["a*b", "a = b = c", "(a*b = 0", "a) = 0", "1/ * a = 0", "a % b = 0"]:
        with pytest.raises(ValueError):
            IdentitySpec.parse("t", text, ("a", "b"))


def test_multilinearity_detection():
    flags = {name: spec.is_multilinear for name, spec in ALL_NAMED_IDENTITIES.items()}
    assert flags["assoc"] and flags["ujla.1"] and flags["lie.jacobi"] and flags["jordan.comm"]
    assert not flags["lie.alt"] and not flags["jordan.main"]
    assert not any(flags[f"ujla.2{c}"] for c in "abcd")


# --- polynomial semantics --------------------------------------------------

def test_commutativity_passes_on_dual_numbers(dual):
    assert verify_identity(dual, JORDAN_COMM).passed


def test_commutativity_fails_on_upper_triangular_with_witness(upper2):
    report = verify_identity(upper2, JORDAN_COMM)
    assert not report.passed
    v = report.verdicts[0]
    assert v.coefficient_witness is not None
    w = v.concrete_witness
    assert w is not None
    # E11 * E12 = E12 but E12 * E11 = 0
    env = dict(w.assignment)
    assert upper2.multiply(env["a"], env["b"]) != upper2.multiply(env["b"], env["a"])
    assert revalidate_verdict(upper2, v)


def test_product_specs_pass_on_zero_algebra():
    z = corpus.zero_algebra(dim=2)
    spec = IdentitySpec.parse("t", "(a*b)*c = (c*b)*a", ("a", "b", "c"))
    assert verify_identity(z, spec).passed


def test_witness_revalidation_detects_tampering(upper2):
    from dataclasses import replace

    v = verify_identity(upper2, JORDAN_COMM).verdicts[0]
    tampered = replace(v, concrete_witness=replace(v.concrete_witness, lhs=v.concrete_witness.rhs))
    assert not revalidate_verdict(upper2, tampered)


def test_verdict_without_identity_cannot_revalidate(upper2):
    from dataclasses import replace

    v = verify_identity(upper2, JORDAN_COMM).verdicts[0]
    with pytest.raises(ValueError, match="originating checker"):
        revalidate_verdict(upper2, replace(v, identity=None))


# --- pointwise semantics ---------------------------------------------------

def test_pointwise_needs_finite_field(dual):
    with pytest.raises(ValueError, match="finite field"):
        verify_identity(dual, JORDAN_COMM, semantics="pointwise")


def test_pointwise_witness_is_concrete(F2):
    alg = tensor_algebra(2, 2, (0, 0, 0, 0, 0, 1, 0, 0))
    report = verify_identity(alg, ALL_NAMED_IDENTITIES["ujla.1"], semantics="pointwise")
    assert not report.passed
    v = report.verdicts[0]
    assert v.concrete_witness is not None
    assert revalidate_verdict(alg, v)


# This tensor satisfies every UJLA identity pointwise over F_2 but has a
# nonvanishing coefficient polynomial (a0*a1^2*b1) in the degree-4 ones.
F2_POINTWISE_ONLY = (1, 0, 1, 1, 1, 1, 0, 1)


def test_polynomial_strictly_stronger_over_f2():
    alg = tensor_algebra(2, 2, F2_POINTWISE_ONLY)
    poly = check_identity(alg, UJLA_2A, "polynomial")
    point = check_identity(alg, UJLA_2A, "pointwise")
    assert point.passed and not poly.passed
    assert poly.coefficient_witness.monomial_text == "a0*a1^2*b1"
    assert poly.concrete_witness is None
    assert any("coefficient level" in note for note in poly.notes)
    assert revalidate_verdict(alg, poly)


def test_unknown_semantics_rejected(dual):
    with pytest.raises(ValueError, match="semantics"):
        check_identity(dual, JORDAN_COMM, "fuzzy")


# --- agreement between the two semantics -----------------------------------

@given(algebras(max_dim=2), st.sampled_from(
    [s for s in ALL_NAMED_IDENTITIES.values() if s.is_multilinear]
))
def test_multilinear_agreement_on_random_algebras(alg, spec):
    """Polynomial and pointwise semantics agree for multilinear identities."""
    poly = check_identity(alg, spec, "polynomial").passed
    point = check_identity(alg, spec, "pointwise").passed
    assert poly == point


@given(algebras(max_dim=2), st.sampled_from(
    [s for s in ALL_NAMED_IDENTITIES.values() if not s.is_multilinear]
))
def test_polynomial_implies_pointwise(alg, spec):
    if check_identity(alg, spec, "polynomial").passed:
        assert check_identity(alg, spec, "pointwise").passed


# --- pointwise verdicts against exhaustive enumeration ---------------------

def pointwise_oracle(alg, spec):
    """First failing (assignment, lhs, rhs) over all vectors in lex order, or None."""
    vectors = list(itertools.product(range(alg.field.p), repeat=alg.dim))
    for combo in itertools.product(vectors, repeat=len(spec.variables)):
        lhs, rhs = evaluate_sides(alg, spec, dict(zip(spec.variables, combo)))
        if lhs != rhs:
            return tuple(zip(spec.variables, combo)), lhs, rhs
    return None


def _seeded_tensors(d, p, count):
    """Random flat tensors from sparse to dense, so that both verdicts occur."""
    rng = random.Random(1000 * d + p)
    return [tuple(rng.randrange(1, p) if rng.random() < (0.1, 0.25, 1.0)[n % 3] else 0
                  for _ in range(d ** 3)) for n in range(count)]


@pytest.mark.parametrize("d, p, count", [(2, 2, 12), (2, 3, 12), (2, 5, 6), (3, 2, 6), (3, 3, 4)])
def test_pointwise_verdict_and_witness_match_exhaustive_oracle(d, p, count):
    specs = list(ALL_NAMED_IDENTITIES.values()) + ([COMPAT] if p != 2 else [])
    tensors = _seeded_tensors(d, p, count) + ([F2_POINTWISE_ONLY] if (d, p) == (2, 2) else [])
    outcomes = set()
    for flat in tensors:
        alg = tensor_algebra(d, p, flat)
        for spec in specs:
            verdict = check_identity(alg, spec, "pointwise")
            assert holds(alg, spec, "pointwise") == verdict.passed, (flat, spec.name)
            ref = None
            if spec.name.startswith("ujla."):
                ref = ref_pointwise_holds(spec.name, flat_to_tensor(flat, d), p, d)
                assert verdict.passed == ref, (flat, spec.name)
            # A passing reference already enumerated every assignment.
            expected = None if ref else pointwise_oracle(alg, spec)
            assert verdict.passed == (expected is None), (flat, spec.name)
            if expected is not None:
                w = verdict.concrete_witness
                assert (w.assignment, w.lhs, w.rhs) == expected, (flat, spec.name)
                assert verdict.coefficient_witness is None
            outcomes.add(verdict.passed)
    assert outcomes == {True, False}
