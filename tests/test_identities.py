import collections
import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

import revalidation_oracle
from formal_oracle import formal_sides, formal_verdict
from reference import ref_pointwise_holds
from strategies import F2_POINTWISE_ONLY, algebras
from ujla import corpus, identities
from ujla.algebra import Algebra, IntegerView
from ujla.axioms import (ALL_NAMED_IDENTITIES, ASSOC, JORDAN_COMM, LIE_ALT, SUITES, UJLA_2A,
                         check_ujla)
from ujla.classify import flat_to_tensor, tensor_algebra
from ujla.fields import QQ, PrimeField
from ujla.fileformat import dumps_algebra, load_algebra_file
from ujla.identities import (
    WITNESS_SEARCH_CAP,
    CoefficientWitness,
    ConcreteWitness,
    IdentitySpec,
    _field_sides,
    _slot_coefficients,
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
    for text in ["a*b", "a = b = c", "(a*b = 0", "a) = 0", "1/ * a = 0", "a % b = 0",
                 "1/0*(a*b) = 0"]:
        with pytest.raises(ValueError):
            IdentitySpec.parse("t", text, ("a", "b"))


def test_parse_names_a_malformed_coefficient():
    for text in ["3/ * (a*b) = 0", "a*b = 2/*(b*a)", "a = 1/"]:
        with pytest.raises(ValueError, match="malformed coefficient"):
            IdentitySpec.parse("t", text, ("a", "b"))


def test_parse_turns_deep_nesting_into_a_value_error():
    for text in ("(" * 5000 + "a" + ")" * 5000 + " = 0", "a = " + "(" * 5000):
        with pytest.raises(ValueError, match="nests too deeply"):
            IdentitySpec.parse("t", text, ("a",))


def test_parse_reads_signs_coefficients_and_zero_across_lines():
    spec = IdentitySpec.parse("t", "0 + 2/4*(a·b)\n - b = -3*((a*b)*a)", ("a", "b"))
    assert spec.lhs == ((Fraction(1, 2), ("a", "b")), (-1, "b"))
    assert spec.rhs == ((-3, (("a", "b"), "a")),)


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
    v = verify_identity(upper2, JORDAN_COMM).verdicts[0]
    tampered = v.replace(concrete_witness=v.concrete_witness.replace(lhs=v.concrete_witness.rhs))
    assert not revalidate_verdict(upper2, tampered)


def test_verdict_without_identity_cannot_revalidate(upper2):
    v = verify_identity(upper2, JORDAN_COMM).verdicts[0]
    with pytest.raises(ValueError, match="originating checker"):
        revalidate_verdict(upper2, v.replace(identity=None))


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


def _seeded_tensors(d, p, count, dense=False):
    """Random flat tensors, from sparse to dense unless dense, so that both
    verdicts occur."""
    rng = random.Random(1000 * d + p)
    densities = (1.0,) if dense else (0.1, 0.25, 1.0)
    return [tuple(rng.randrange(1, p) if rng.random() < densities[n % len(densities)] else 0
                  for _ in range(d ** 3)) for n in range(count)]


# Mixed degrees, with a degree-1 word: the plan groups by monomial, not by degree.
NON_HOMOGENEOUS = IdentitySpec.parse("non-homogeneous", "a*b = a + 2*(a*a)", ("a", "b"))


@pytest.mark.parametrize("d, p, count", [(2, 2, 12), (2, 3, 12), (2, 5, 6), (3, 2, 6), (3, 3, 4),
                                         (3, 5, 2)])
def test_pointwise_verdict_and_witness_match_exhaustive_oracle(d, p, count):
    # At d = 3 over F_5 a passing verdict would send the oracle through up to
    # 5^9 assignments: dense tensors only there, which fail every identity.
    dense = (d, p) == (3, 5)
    specs = list(ALL_NAMED_IDENTITIES.values()) + [NON_HOMOGENEOUS] + ([COMPAT] if p != 2 else [])
    tensors = _seeded_tensors(d, p, count, dense)
    if (d, p) == (2, 2):
        tensors.append(F2_POINTWISE_ONLY)
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
                # The sides once more through the field-scalar oracle, which
                # shares no evaluator with check_identity.
                sides = revalidation_oracle.evaluate_sides(alg, spec, dict(w.assignment))
                assert (w.lhs, w.rhs) == sides, (flat, spec.name)
                assert verdict.coefficient_witness is None
            outcomes.add(verdict.passed)
    assert outcomes == ({False} if dense else {True, False})


def _seeded_pointwise_cases():
    for d, p in [(2, 2), (2, 3), (2, 5), (3, 3)]:
        for flat in _seeded_tensors(d, p, 6):
            alg = tensor_algebra(d, p, flat)
            for spec in list(ALL_NAMED_IDENTITIES.values()) + [NON_HOMOGENEOUS]:
                yield alg, spec


# Over F_5 at d = 4, e0*e0 = 4*e3 and e0*e3 = 2*e1 are the only nonzero
# products.  Then (a*b)*c = 0 and a*(b*c) = 3*a0*b0*c0*e1, so the least
# failing assignment is a = b = c = e0, after 5^11 + 5^7 + 5^3 (about
# 4.9e7) lex-smaller assignments.
ASSOC_F5_D4 = tuple(4 if n == 3 else 2 if n == 13 else 0 for n in range(64))


def test_pointwise_witness_evaluates_the_sides_once(monkeypatch):
    """A failing pointwise check reads its witness point off the plan and
    evaluates its sides there through _word_sides; only revalidation
    evaluates the identity through evaluate_sides, once, on that witness."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return evaluate_sides(*args)

    monkeypatch.setattr("ujla.identities.evaluate_sides", counting)
    cases = list(_seeded_pointwise_cases()) + [(tensor_algebra(4, 5, ASSOC_F5_D4), ASSOC)]
    failures = 0
    for alg, spec in cases:
        calls[0] = 0
        verdict = check_identity(alg, spec, "pointwise")
        assert calls[0] == 0, (alg.tensor, spec.name)
        failures += not verdict.passed
        assert revalidate_verdict(alg, verdict)
        assert calls[0] == (0 if verdict.passed else 1), (alg.tensor, spec.name)
    assert failures > 100
    w = verdict.concrete_witness
    e0 = (1, 0, 0, 0)
    assert w.assignment == (("a", e0), ("b", e0), ("c", e0))
    assert (w.lhs, w.rhs) == ((0, 0, 0, 0), (0, 3, 0, 0))


def test_revalidation_rejects_a_wrong_evaluate_sides(monkeypatch):
    """A pointwise witness's sides come from _word_sides, not from
    evaluate_sides, so an evaluate_sides that reads the leaves in reverse,
    swapped in for the
    whole check-and-revalidate run, makes revalidation reject the witness
    wherever it evaluates it wrongly."""
    def reversed_leaves(alg, spec, assignment):
        return _field_sides(alg, spec, lambda leaves: [leaves[::-1]],
                            lambda v: assignment[spec.variables[v]])

    monkeypatch.setattr("ujla.identities.evaluate_sides", reversed_leaves)
    rejected = 0
    for alg, spec in _seeded_pointwise_cases():
        verdict = check_identity(alg, spec, "pointwise")
        if verdict.passed:
            continue
        w = verdict.concrete_witness
        assignment = dict(w.assignment)
        true = evaluate_sides(alg, spec, assignment)
        accepted = revalidate_verdict(alg, verdict)
        assert accepted == (reversed_leaves(alg, spec, assignment) == true), (alg.tensor, spec.name)
        assert (w.lhs, w.rhs) == true, (alg.tensor, spec.name)
        rejected += not accepted
    assert rejected > 30


# --- coefficient witnesses against the full expansion ----------------------

def _seeded_algebras(p, d, count):
    """Seeded random algebras over F_p, or over Q when p is 0."""
    if p:
        return [tensor_algebra(d, p, flat) for flat in _seeded_tensors(d, p, count)]
    rng = random.Random(7 * d)
    values = (0, 0, 0, 1, -1, 2, Fraction(1, 2))
    return [Algebra(f"q{n}", QQ, d, tuple(f"e{i}" for i in range(d)),
                    [[[rng.choice(values) for _ in range(d)] for _ in range(d)] for _ in range(d)])
            for n in range(count)]


def _failing_verdicts(algs):
    """(algebra, verdict, lhs, rhs) for every failing polynomial verdict of the
    named identities, with both sides from the full formal expansion."""
    for alg in algs:
        for spec in ALL_NAMED_IDENTITIES.values():
            verdict = check_identity(alg, spec)
            if not verdict.passed:
                yield (alg, verdict) + formal_sides(alg, spec)


@pytest.mark.parametrize("p, d, count", [(0, 3, 6), (3, 2, 8), (5, 2, 8), (3, 3, 6), (5, 3, 6)])
def test_support_restricted_coefficient_matches_full_expansion(p, d, count):
    """Revalidation evaluates only the slot assignments that land on the
    witness monomial; that must give its coefficients in the full expansion."""
    checked = 0
    for alg, verdict, lhs, rhs in _failing_verdicts(_seeded_algebras(p, d, count)):
        cw = verdict.coefficient_witness
        k, mono = cw.coordinate, cw.monomial
        full = (lhs[k].coefficient(mono), rhs[k].coefficient(mono))
        assert _slot_coefficients(alg, verdict.identity, mono, k) == full
        assert full == (cw.lhs_coefficient, cw.rhs_coefficient)
        assert revalidate_verdict(alg, verdict)
        checked += 1
    assert checked


@pytest.mark.parametrize("p, d, count", [(0, 3, 2), (3, 2, 6)])
def test_coefficient_witness_tampering_is_detected(p, d, count):
    """A changed coefficient always fails; a changed monomial or coordinate
    passes exactly when the full expansion makes it a witness too."""
    rejected = {"monomial": 0, "coordinate": 0}
    for alg, verdict, lhs, rhs in _failing_verdicts(_seeded_algebras(p, d, count)):
        field, cw = alg.field, verdict.coefficient_witness
        bare = verdict.replace(concrete_witness=None)
        assert revalidate_verdict(alg, bare)
        wrong = cw.replace(lhs_coefficient=field.normalize(cw.lhs_coefficient + 1))
        assert not revalidate_verdict(alg, bare.replace(coefficient_witness=wrong))
        tampers = {
            "monomial": cw.replace(monomial=cw.monomial[1:] + cw.monomial[:1]),
            "coordinate": cw.replace(coordinate=(cw.coordinate + 1) % alg.dim),
        }
        for what, t in tampers.items():
            lc, rc = lhs[t.coordinate].coefficient(t.monomial), rhs[t.coordinate].coefficient(t.monomial)
            valid = (lc, rc) == (t.lhs_coefficient, t.rhs_coefficient) and lc != rc
            assert revalidate_verdict(alg, bare.replace(coefficient_witness=t)) == valid, what
            rejected[what] += not valid
    assert all(rejected.values()), rejected


# --- slot plans against the formal oracle ----------------------------------

def _oracle_algebras(p, d, count):
    """Corpus algebras of dimension d and seeded random ones; over Q their
    entries need the denominators cleared."""
    if p:
        field = PrimeField(p)
        members = [alg for make in (corpus.dual_numbers, corpus.diagonal_matrices_2,
                                    corpus.affine_line_lie, corpus.heisenberg, corpus.sl2,
                                    corpus.cross_product, corpus.upper_triangular_2x2)
                   if (alg := make(field)).dim == d]
        extra = [tensor_algebra(2, 2, F2_POINTWISE_ONLY)] if (p, d) == (2, 2) else []
        seeded = [tensor_algebra(d, p, flat) for flat in _seeded_tensors(d, p, count)]
        return members + extra + seeded
    rng = random.Random(11 * d)
    values = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    members = [a for algs in corpus.standard_corpus().values() for a in algs if a.dim == d]
    return members + [
        Algebra(f"q{n}", QQ, d, tuple(f"e{i}" for i in range(d)),
                [[[rng.choice(values) for _ in range(d)] for _ in range(d)] for _ in range(d)])
        for n in range(count)]


@pytest.mark.parametrize("p, d, count", [
    (0, 2, 8), (0, 3, 4), (0, 4, 2),
    (2, 2, 10), (3, 2, 10), (5, 2, 6), (2, 3, 3), (3, 3, 3), (5, 3, 2),
])
def test_plan_verdict_and_witness_match_formal_oracle(p, d, count):
    """Polynomial verdicts and their exact coefficient witnesses, and pointwise
    verdicts, agree with the formal expansion (the pointwise witness is the
    exhaustive oracle's business above)."""
    specs = list(ALL_NAMED_IDENTITIES.values()) + [NON_HOMOGENEOUS] + ([COMPAT] if p != 2 else [])
    outcomes = set()
    for alg in _oracle_algebras(p, d, count):
        for spec in specs:
            for semantics in ("polynomial", "pointwise") if p else ("polynomial",):
                passed, witness = formal_verdict(alg, spec, semantics)
                assert holds(alg, spec, semantics) == passed, (alg.name, spec.name, semantics)
                if semantics == "polynomial":
                    verdict = check_identity(alg, spec)
                    assert verdict.passed == passed, (alg.name, spec.name)
                    expected = None if passed else CoefficientWitness(*witness)
                    assert verdict.coefficient_witness == expected, (alg.name, spec.name)
                outcomes.add((semantics, passed))
    assert {passed for _, passed in outcomes} == {True, False}


# --- polynomial concrete witnesses against the field-scalar oracle ----------

NO_WITNESS_NOTE = ("no concrete counterexample among basis and {0,1,-1} assignments; "
                   "the discrepancy is visible only at the coefficient level")


def concrete_witness_oracle(alg, spec):
    """The first assignment among basis tuples, then the first
    WITNESS_SEARCH_CAP points of the {0, 1, -1} grid, whose sides differ
    on field scalars (tests/revalidation_oracle.py), or None."""
    nv, d, field = len(spec.variables), alg.dim, alg.field
    pool = list(dict.fromkeys([field.zero, field.one, field.normalize(-1)]))
    grid = itertools.islice(itertools.product(pool, repeat=nv * d), WITNESS_SEARCH_CAP)
    for combo in itertools.chain(
        itertools.product(alg.basis_vectors(), repeat=nv),
        (tuple(coords[i * d:(i + 1) * d] for i in range(nv)) for coords in grid),
    ):
        lhs, rhs = revalidation_oracle.evaluate_sides(alg, spec, dict(zip(spec.variables, combo)))
        if lhs != rhs:
            return ConcreteWitness(tuple(zip(spec.variables, combo)), lhs, rhs)
    return None


def _witness_algebras(p, d, count):
    """Seeded algebras over F_p, or over Q (p = 0) with entries whose
    denominators make L = 2 and scaling errors visible; from sparse to
    dense, so that basis tuples and grid points both witness failures."""
    if p:
        extra = [tensor_algebra(2, 2, F2_POINTWISE_ONLY)] if (p, d) == (2, 2) else []
        return extra + [tensor_algebra(d, p, flat) for flat in _seeded_tensors(d, p, count)]
    rng = random.Random(13 * d)
    values = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    densities = (0.15, 0.3, 1.0)

    def entry(n):
        return rng.choice(values) if rng.random() < densities[n % 3] else 0

    return [Algebra(f"q{n}", QQ, d, tuple(f"e{i}" for i in range(d)),
                    [[[entry(n) for _ in range(d)] for _ in range(d)] for _ in range(d)])
            for n in range(count)]


WITNESS_CASES = [(0, 2, 9), (0, 3, 6), (0, 4, 3), (2, 2, 10), (2, 3, 3), (3, 2, 8), (3, 3, 3),
                 (5, 2, 8), (5, 3, 2)]


def test_polynomial_concrete_witness_matches_evaluate_sides_oracle():
    """The witness that the integer search finds through _word_sides is the
    one the field-scalar search finds, with the same notes and scalar types."""
    outcomes = {}
    for p, d, count in WITNESS_CASES:
        specs = list(ALL_NAMED_IDENTITIES.values()) + [NON_HOMOGENEOUS] + ([COMPAT] if p != 2 else [])
        for alg in _witness_algebras(p, d, count):
            basis = set(alg.basis_vectors())
            for spec in specs:
                verdict = check_identity(alg, spec)
                if verdict.passed:
                    continue
                expected = concrete_witness_oracle(alg, spec)
                assert verdict.concrete_witness == expected, (alg.tensor, spec.name)
                assert verdict.notes == (() if expected else (NO_WITNESS_NOTE,)), (alg.tensor, spec.name)
                w = verdict.concrete_witness
                if w is None:
                    kind = "none"
                else:
                    kind = "basis" if all(v in basis for _, v in w.assignment) else "grid"
                    for x in w.lhs + w.rhs + tuple(c for _, v in w.assignment for c in v):
                        assert type(x) is (int if p else Fraction), (alg.tensor, spec.name)
                        assert not p or 0 <= x < p, (alg.tensor, spec.name)
                outcomes.setdefault(kind, set()).add(p)
    assert outcomes.keys() == {"basis", "grid", "none"}, outcomes
    assert {0, 2} <= outcomes["grid"] and outcomes["none"] == {2}, outcomes


def test_polynomial_failure_calls_no_field_product_and_builds_few_rows(monkeypatch):
    """A failing polynomial check evaluates nothing through Algebra.multiply;
    revalidation evaluates the printed witness once; a failing d = 4 check
    builds only part of its tables."""
    calls = {"evaluate_sides": 0, "multiply": 0}

    def counting_sides(*args):
        calls["evaluate_sides"] += 1
        return evaluate_sides(*args)

    multiply = Algebra.multiply

    def counting_multiply(self, u, v):
        calls["multiply"] += 1
        return multiply(self, u, v)

    monkeypatch.setattr("ujla.identities.evaluate_sides", counting_sides)
    monkeypatch.setattr(Algebra, "multiply", counting_multiply)
    failures = 0
    for p, d in [(0, 2), (0, 3), (3, 2), (5, 3)]:
        for alg in _witness_algebras(p, d, 2):
            for spec in ALL_NAMED_IDENTITIES.values():
                calls.update(evaluate_sides=0, multiply=0)
                verdict = check_identity(alg, spec)
                if verdict.passed:
                    continue
                failures += 1
                assert calls == {"evaluate_sides": 0, "multiply": 0}, (alg.tensor, spec.name)
                assert revalidate_verdict(alg, verdict)
                assert calls["evaluate_sides"] == (verdict.concrete_witness is not None)
    assert failures > 20
    # A dense d = 4 algebra over Q fails associativity in its least group.
    rng = random.Random(4)
    values = (1, -1, 2, Fraction(1, 2))
    alg = Algebra("dense", QQ, 4, ("e0", "e1", "e2", "e3"),
                  [[[rng.choice(values) for _ in range(4)] for _ in range(4)] for _ in range(4)])
    verdict = check_identity(alg, ASSOC)
    assert not verdict.passed
    tables = alg.integer_view.tables.values()
    built = sum(len(table) for table in tables)
    full = sum(table.size for table in tables)
    assert built < full // 4, (built, full)


def test_witness_search_builds_no_slot_table_row():
    """A failing polynomial check, over Q and F_p, builds exactly the
    slot-table rows that holds builds on a fresh copy of the same algebra:
    the witness search evaluates every candidate, basis tuples included,
    through the view's product and reads no row."""
    witnesses = set()
    for p, d in [(0, 2), (0, 3), (3, 2), (5, 3)]:
        for alg in _witness_algebras(p, d, 2):
            basis = set(alg.basis_vectors())
            for spec in ALL_NAMED_IDENTITIES.values():
                checked, decided = alg.replace(), alg.replace()
                verdict = check_identity(checked, spec)
                if verdict.passed:
                    continue
                assert not holds(decided, spec)
                rows = [{shape: set(table) for shape, table in a.integer_view.tables.items()}
                        for a in (checked, decided)]
                assert rows[0] == rows[1], (alg.tensor, spec.name)
                w = verdict.concrete_witness
                if w is not None:
                    witnesses.add((p, all(v in basis for _, v in w.assignment)))
    assert {(0, True), (3, True), (5, True), (0, False)} <= witnesses, witnesses


def test_each_slot_table_row_is_built_once(monkeypatch):
    """Every row a slot table holds is one call of the table-row builder,
    _Table.__missing__, and no row is built twice: on a passing check, a
    pointwise check that reads every group and a failing check that stops
    early.  The five identities of one report fill the tables on the
    algebra's one integer view, so a row built anywhere else would leave a
    call unmatched."""
    calls = {"row": 0}
    build = identities._Table.__missing__

    def counting_build(table, n):
        calls["row"] += 1
        return build(table, n)

    # A table row is built only when a read misses it; the view's product,
    # which the witness search uses, builds none.
    monkeypatch.setattr(identities._Table, "__missing__", counting_build)
    rng = random.Random(5)
    values = (1, -1, 2, Fraction(1, 3))
    dense = Algebra("dense", QQ, 4, ("e0", "e1", "e2", "e3"),
                    [[[rng.choice(values) for _ in range(4)] for _ in range(4)] for _ in range(4)])
    cases = [(corpus.matrix_algebra_2x2(), "polynomial", True),
             (corpus.matrix_algebra_2x2(PrimeField(3)), "pointwise", True),
             (tensor_algebra(2, 3, _seeded_tensors(2, 3, 3)[2]), "pointwise", False),
             (dense, "polynomial", False)]
    for alg, semantics, passed in cases:
        calls["row"] = 0
        assert check_ujla(alg, semantics).passed == passed, (alg.name, semantics)
        held = sum(len(table) for shape, table in alg.integer_view.tables.items()
                   if shape is not None)
        assert held and calls["row"] == held, (alg.name, calls, held)


def test_a_warm_plan_is_found_without_hashing_or_comparing_the_field(tmp_path, monkeypatch):
    """Plans are kept by characteristic, not by field object: once the
    suite's plans are compiled, checking an algebra read from a fresh F_5
    file, whose PrimeField is a new object, neither hashes nor compares
    it, on passing and failing verdicts alike."""
    path = tmp_path / "upper2-f5.alg"
    path.write_text(dumps_algebra(corpus.upper_triangular_2x2(PrimeField(5))))
    specs = list(ALL_NAMED_IDENTITIES.values())
    expected = [check_identity(load_algebra_file(path), spec) for spec in specs]
    alg = load_algebra_file(path)
    calls = collections.Counter()
    for name in ("__eq__", "__hash__"):
        def counted(self, *args, _name=name, _method=getattr(PrimeField, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(PrimeField, name, counted)
    verdicts = [check_identity(alg, spec) for spec in specs]
    assert not calls, calls
    monkeypatch.undo()
    assert verdicts == expected and not all(v.passed for v in verdicts)


def test_threads_sharing_one_algebra_get_the_serial_verdicts():
    """An algebra's slot tables, product planes and product memo are filled
    lazily; threads that race on them still get the verdicts of a serial
    run."""
    rng = random.Random(6)
    values = (0, 1, -1, 2, Fraction(1, 2))
    tensor = [[[rng.choice(values) for _ in range(3)] for _ in range(3)] for _ in range(3)]

    def fresh():
        return Algebra("shared", QQ, 3, ("e0", "e1", "e2"), tensor)

    specs = list(ALL_NAMED_IDENTITIES.values())
    expected = [check_identity(fresh(), spec) for spec in specs]
    alg = fresh()
    results = {}

    def work(n):
        results[n] = [check_identity(alg, spec) for spec in specs[n:] + specs[:n]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {
        n: expected[n:] + expected[:n] for n in range(4)}
    assert not all(v.passed for v in expected)


def test_revalidation_never_reads_the_integer_rows(monkeypatch):
    """Revalidating a failing verdict, polynomial or pointwise, evaluates
    through the integer view's product and builds no slot table and no row:
    on a fresh copy of the algebra, its view's tables stay empty."""
    verdicts = [(alg, check_identity(alg, spec, "pointwise"))
                for alg, spec in _seeded_pointwise_cases()]
    verdicts += [(alg, check_identity(alg, spec))
                 for p, d in [(0, 2), (0, 3), (3, 2), (5, 3)] for alg in _witness_algebras(p, d, 2)
                 for spec in ALL_NAMED_IDENTITIES.values()]
    failing = [(alg, v) for alg, v in verdicts if not v.passed]
    assert {v.semantics for _, v in failing} == {"polynomial", "pointwise"}
    calls = {"table": 0, "row": 0, "multiply": 0}

    def counting(key, original):
        def wrapper(*args):
            calls[key] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(identities, "_table", counting("table", identities._table))
    monkeypatch.setattr(identities._Table, "__missing__",
                        counting("row", identities._Table.__missing__))
    monkeypatch.setattr(IntegerView, "multiply", counting("multiply", IntegerView.multiply))
    for alg, verdict in failing:
        calls.update(dict.fromkeys(calls, 0))
        fresh = alg.replace()
        assert revalidate_verdict(fresh, verdict), (alg.tensor, verdict.name)
        assert calls["table"] == calls["row"] == 0, calls
        assert fresh.integer_view.tables == {}, (alg.tensor, verdict.name)
        assert calls["multiply"] > 0, (alg.tensor, verdict.name)


# --- the view's product memo -----------------------------------------------

def _counted_products(monkeypatch) -> collections.Counter:
    """IntegerView.multiply calls by (view, u, v), from now on."""
    formed = collections.Counter()
    multiply = IntegerView.multiply

    def counting(view, u, v):
        formed[view, u, v] += 1
        return multiply(view, u, v)

    monkeypatch.setattr(IntegerView, "multiply", counting)
    return formed


def _is_basis_tuple(alg, witness) -> bool:
    return all(v in alg.basis_vectors() for _, v in witness.assignment)


def test_each_product_is_formed_once_per_algebra(monkeypatch):
    """On failing algebras over Q, F_3 and F_5 whose polynomial witnesses
    are all basis tuples (no search walks the grid), the four suites under
    each semantics the field takes, and the revalidation of every failure,
    form each product once: the searches, the pointwise witnesses, the
    coefficients and the witnesses' revalidation share the view's memo,
    which then holds every product formed."""
    formed = _counted_products(monkeypatch)
    algs = [_witness_algebras(0, 3, 3)[2], _witness_algebras(3, 3, 2)[1],
            _witness_algebras(5, 3, 2)[1]]
    for alg in algs:
        formed.clear()
        failures = set()
        for semantics in ("polynomial", "pointwise") if alg.field.is_finite else ("polynomial",):
            for suite in SUITES.values():
                for verdict in suite(alg, semantics).failures():
                    w = verdict.concrete_witness
                    assert semantics == "pointwise" or _is_basis_tuple(alg, w), verdict.name
                    assert revalidate_verdict(alg, verdict), verdict.name
                    failures.add(semantics)
        assert failures == ({"polynomial", "pointwise"} if alg.field.is_finite else {"polynomial"})
        assert formed and max(formed.values()) == 1, (alg.field, formed.most_common(1))
        assert len(alg.integer_view.products) == len(formed), alg.field


def test_revalidating_a_witness_on_its_algebra_forms_no_product(monkeypatch):
    """A witness the check evaluated on the view re-validates on the same
    algebra from the view's products alone: a pointwise verdict, and a
    polynomial verdict's basis-tuple witness.  (A grid witness's products
    left with its walk, and a coefficient witness may read basis tuples
    past the one where the search stopped.)"""
    formed = _counted_products(monkeypatch)
    cases = [(alg, spec, "pointwise") for alg, spec in _seeded_pointwise_cases()]
    cases += [(alg, spec, "polynomial")
              for p, d in [(0, 2), (0, 3), (3, 2), (5, 3)] for alg in _witness_algebras(p, d, 3)
              for spec in ALL_NAMED_IDENTITIES.values()]
    seen = collections.Counter()
    for alg, spec, semantics in cases:
        verdict = check_identity(alg, spec, semantics)
        w = verdict.concrete_witness
        if w is None or semantics == "polynomial" and not _is_basis_tuple(alg, w):
            continue
        formed.clear()
        assert revalidate_verdict(alg, verdict.replace(coefficient_witness=None))
        assert not formed, (alg.tensor, spec.name, semantics)
        seen[semantics] += 1
    assert seen["pointwise"] > 100 and seen["polynomial"] > 50, seen


def test_the_grid_walk_leaves_no_product_on_the_view(monkeypatch):
    """A search that passes every basis tuple walks the {0, 1, -1} grid
    with a memo of its own: the view then holds the products that the same
    check forms with no grid at all.  One search stops at a grid point
    (e1 e0 = e0/2 fails a*a = 0 at e0 + e1 only), one walks the whole grid
    and finds no witness."""
    half = Algebra("half", QQ, 2, ("e0", "e1"), (((0, 0), (0, 0)), ((Fraction(1, 2), 0), (0, 0))))
    cases = [(half, LIE_ALT), (tensor_algebra(2, 2, F2_POINTWISE_ONLY), UJLA_2A)]
    walked = []
    for alg, spec in cases:
        alg = alg.replace()
        verdict = check_identity(alg, spec)
        assert not verdict.passed, spec.name
        w = verdict.concrete_witness
        assert w is None or not _is_basis_tuple(alg, w), spec.name
        walked.append(alg.integer_view.products)
    monkeypatch.setattr(identities, "WITNESS_SEARCH_CAP", 0)
    for (alg, spec), products in zip(cases, walked):
        alg = alg.replace()
        assert check_identity(alg, spec).concrete_witness is None
        assert products and products == alg.integer_view.products, spec.name


def test_each_algebra_keeps_its_own_products():
    """Two algebras of one dimension and field form the same factor pairs
    on their own tensors: each view's memo holds its own products."""
    e0, e1 = (1, 0), (0, 1)
    upper = Algebra("upper", QQ, 2, ("e0", "e1"), (((1, 0), (0, 1)), ((0, 0), (0, 0))))
    swap = Algebra("swap", QQ, 2, ("e0", "e1"), (((0, 1), (1, 0)), ((0, 2), (Fraction(1, 2), 0))))
    for alg in (upper, swap):
        sides = evaluate_sides(alg, JORDAN_COMM, {"a": e0, "b": e1})
        assert sides == (alg.multiply(e0, e1), alg.multiply(e1, e0)), alg.name
        verdict = check_identity(alg, ASSOC)
        assert revalidate_verdict(alg, verdict), alg.name
        view = alg.integer_view
        assert view.products == {key: view.multiply(*key) for key in view.products}, alg.name


def test_a_callers_assignments_leave_no_product_on_the_view():
    """evaluate_sides reads the view's products and adds none: after a check
    and one evaluation, fresh assignments leave the memo's size unchanged,
    and their sides are those of a fresh copy of the algebra."""
    rng = random.Random(14)
    values = (0, 1, -1, 2, Fraction(1, 2))
    tensor = [[[rng.choice(values) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    alg = Algebra("r", QQ, 3, ("e0", "e1", "e2"), tensor)
    spec = ALL_NAMED_IDENTITIES["ujla.1"]
    assert not check_identity(alg, spec).passed

    def assignment():
        return {v: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
                for v in spec.variables}

    evaluate_sides(alg, spec, assignment())
    size = len(alg.integer_view.products)
    for _ in range(20):
        point = assignment()
        assert evaluate_sides(alg, spec, point) == evaluate_sides(alg.replace(), spec, point)
    assert size and len(alg.integer_view.products) == size


def test_the_pointwise_point_takes_powers_up_to_the_residual_degree(monkeypatch):
    """The least failing point fixes each coordinate at the first c that
    leaves the residual nonzero, at most its degree there, so the powers
    c^e it takes do not grow with p: as many over F_101 as over F_103,
    and fewer than p."""
    import builtins

    counts = {}
    for p in (101, 103):
        calls = []

        def counting(*args):
            calls.append(args)
            return builtins.pow(*args)

        monkeypatch.setattr(identities, "pow", counting, raising=False)
        alg = corpus.dual_numbers(PrimeField(p))
        verdicts = [check_identity(alg, spec, "pointwise") for spec in ALL_NAMED_IDENTITIES.values()]
        assert sum(not v.passed for v in verdicts) == 2
        counts[p] = len(calls)
    assert 0 < counts[101] == counts[103] < 101, counts
