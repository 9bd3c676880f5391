"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a pass/fail line (visible with ``pytest -s``) and
enforces its runtime budget.  Expected classification counts live in
tests/golden/classification.json and were cross-checked against the
independent oracles in tests/reference.py before being frozen.
"""

import itertools
import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

import pytest

from reference import all_tensors
from ujla import corpus
from ujla.axioms import (
    ALL_NAMED_IDENTITIES,
    check_associative,
    check_jordan,
    check_lie,
    check_ujla,
)
from ujla.classify import SearchSpec, enumerate_ujla, tensor_algebra
from ujla.derivations import check_derivation, derivation_six_term, derivation_two_term
from ujla.fields import PrimeField, QQ
from ujla.identities import check_identity
from ujla.transforms import check_compatibility, commutator, symmetrize
from ujla.yang_baxter import (
    build_assoc_yb,
    build_lie_yb,
    center,
    check_braid,
    check_qybe,
    classify_params,
    compose,
    identity_operator,
    twist,
)

F2 = PrimeField(2)
F5 = PrimeField(5)
RANDOM_SEED = 20240811  # recorded so every report is reproducible


@contextmanager
def criterion(number, label, limit_seconds, spent_seconds=0.0):
    """Time the block against the budget, with spent_seconds already
    measured for the criterion (a fixture's work) added."""
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start + spent_seconds
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"criterion {number} ({label}): PASS ({elapsed:.1f}s < {limit_seconds}s)")


@pytest.fixture(scope="module")
def corpus_by_class():
    return corpus.standard_corpus()


@pytest.fixture(scope="module")
def f5_sweep():
    """All 125 parameter triples on both F_5 test algebras, with reports,
    and the seconds the sweep took, which criterion 3 counts."""
    start = time.monotonic()
    out = []
    for alg in (corpus.dual_numbers(F5), corpus.upper_triangular_2x2(F5)):
        for alpha, beta, gamma in itertools.product(range(5), repeat=3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                op = build_assoc_yb(alg, alpha, beta, gamma)
            out.append((alg.name, (alpha, beta, gamma), op, check_braid(op)))
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def heisenberg_operators():
    heis = corpus.heisenberg()
    z = center(heis)[0]
    return [build_lie_yb(heis, alpha, z) for alpha in (0, 1, 2)]


def test_criterion_1_unification(corpus_by_class):
    with criterion(1, "unification of the three classes", 10):
        suites = {"assoc": check_associative, "lie": check_lie, "jordan": check_jordan}
        names = set()
        dims = set()
        for tag, algebras in corpus_by_class.items():
            assert len(algebras) >= 3
            for alg in algebras:
                assert alg.field == QQ
                assert 1 <= alg.dim <= 4
                names.add(alg.name)
                dims.add(alg.dim)
                assert suites[tag](alg).passed, (tag, alg.name)
                assert check_ujla(alg).passed, alg.name
        assert len(names) >= 10
        assert dims == {1, 2, 3, 4}
        # every F_2 dim-2 tensor passing a classical suite passes the UJLA suite
        checked = 0
        for flat, _ in all_tensors(2, 2):
            alg = tensor_algebra(2, 2, flat)
            if (check_associative(alg).passed or check_lie(alg).passed
                    or check_jordan(alg).passed):
                checked += 1
                assert check_ujla(alg).passed, flat
        assert checked > 0


def test_criterion_2_commutator_symmetrization_compatibility(corpus_by_class):
    with criterion(2, "derived Lie/Jordan structures and compatibility", 5):
        members = [alg for algebras in corpus_by_class.values() for alg in algebras]
        members += [corpus.dual_numbers(F5), corpus.upper_triangular_2x2(F5)]
        for alg in members:
            assert check_ujla(alg).passed, alg.name
            assert check_lie(commutator(alg)).passed, alg.name
            if alg.field.characteristic != 2:
                assert check_jordan(symmetrize(alg)).passed, alg.name
                assert check_compatibility(alg).passed, alg.name


def test_criterion_3_parameter_trichotomy(f5_sweep):
    sweep, seconds = f5_sweep
    with criterion(3, "parameter trichotomy for the associative family", 60, seconds):
        assert len(sweep) == 250
        for alg_name, (alpha, beta, gamma), _, report in sweep:
            member = classify_params(F5, alpha, beta, gamma) is not None
            assert report.is_yang_baxter == member, (alg_name, alpha, beta, gamma)


def test_criterion_4_lie_family_on_heisenberg(heisenberg_operators):
    with criterion(4, "Lie-bracket family on the Heisenberg algebra", 5):
        for op in heisenberg_operators:
            report = check_braid(op)
            assert report.braid_ok and report.invertible
        heis = corpus.heisenberg()
        assert build_lie_yb(heis, 1, heis.zero_vector()) == twist(QQ, 3)


def test_criterion_5_braid_qybe_equivalence(f5_sweep, heisenberg_operators):
    with criterion(5, "braid / QYBE equivalence", 60):
        pool = [(op, report.braid_ok) for _, _, op, report in f5_sweep[0]]
        pool += [(op, check_braid(op).braid_ok) for op in heisenberg_operators]
        pool += [(twist(QQ, 2), True), (identity_operator(QQ, 3), True)]
        for op, braid_ok in pool:
            tau = twist(op.field, op.dim)
            assert check_qybe(compose(op, tau)).qybe_ok == braid_ok
            assert check_qybe(compose(tau, op)).qybe_ok == braid_ok


def _derivation_arguments(alg):
    rnd = random.Random(f"{RANDOM_SEED}:{alg.name}")
    vectors = alg.basis_vectors()
    for _ in range(20):
        vectors.append(tuple(Fraction(rnd.randint(-3, 3)) for _ in range(alg.dim)))
    return vectors


def test_criterion_6_derivation_theorems(corpus_by_class):
    with criterion(6, "derivation constructions on the three classes", 30):
        print(f"  (random-vector seed: {RANDOM_SEED})")
        for algebras in corpus_by_class.values():
            for alg in algebras:
                vectors = _derivation_arguments(alg)
                for a in vectors:
                    for b in vectors:
                        six = derivation_six_term(alg, a, b)
                        two = derivation_two_term(alg, a, b)
                        assert check_derivation(alg, six).passed, alg.name
                        assert check_derivation(alg, two).passed, alg.name
        # On Jordan members the six terms collapse to the two-term map with
        # its arguments swapped (the literal unswapped equality fails; see
        # test_literal_six_equals_two_is_false_on_jordan below).
        for alg in corpus_by_class["jordan"]:
            vectors = _derivation_arguments(alg)
            for a in vectors:
                for b in vectors:
                    assert derivation_six_term(alg, a, b) == derivation_two_term(alg, b, a)


@pytest.mark.xfail(
    strict=True,
    reason="on a commutative product the six terms collapse to b(ax) - (xb)a, "
    "the two-term map with swapped arguments; unswapped equality would force "
    "left multiplications to commute, which fails in the 2x2 matrix Jordan algebra",
)
def test_literal_six_equals_two_is_false_on_jordan():
    alg = corpus.jordan_matrix_2x2()
    vectors = _derivation_arguments(alg)
    for a in vectors:
        for b in vectors:
            assert derivation_six_term(alg, a, b) == derivation_two_term(alg, a, b)


def test_criterion_7_classification(golden):
    with criterion(7, "exhaustive classification over F_2 and F_3", 120):
        r12 = enumerate_ujla(SearchSpec(1, 2))
        assert (r12.ujla_count, r12.class_count) == (2, 2)
        r13 = enumerate_ujla(SearchSpec(1, 3))
        assert (r13.ujla_count, r13.class_count) == (3, 2)

        r22 = enumerate_ujla(SearchSpec(2, 2))
        entry = golden["d2_p2_polynomial"]
        assert r22.ujla_count == entry["ujla_count"]
        assert r22.class_count == entry["class_count"]
        assert [list(s) for s in r22.survivors] == entry["survivors"]
        assert sum(c.orbit_size for c in r22.classes) == r22.ujla_count
        assert [c.orbit_size for c in r22.classes] == entry["orbit_sizes"]

        r23 = enumerate_ujla(SearchSpec(2, 3))
        entry23 = golden["d2_p3_polynomial"]
        assert r23.ujla_count == entry23["ujla_count"]
        assert r23.class_count == entry23["class_count"]
        assert sum(c.orbit_size for c in r23.classes) == r23.ujla_count

        # unification containment, exhaustively at d = 2 over F_2
        survivors = set(r22.survivors)
        for flat, _ in all_tensors(2, 2):
            alg = tensor_algebra(2, 2, flat)
            if (check_associative(alg).passed or check_lie(alg).passed
                    or check_jordan(alg).passed):
                assert flat in survivors, flat


def test_criterion_8_semantics_oracle_equivalence():
    with criterion(8, "polynomial vs pointwise semantics", 60):
        multilinear = [s for s in ALL_NAMED_IDENTITIES.values() if s.is_multilinear]
        other = [s for s in ALL_NAMED_IDENTITIES.values() if not s.is_multilinear]
        assert {s.name for s in multilinear} == {"assoc", "ujla.1", "lie.jacobi", "jordan.comm"}

        disagreements = []
        for dim in (1, 2):
            for flat, _ in all_tensors(2, dim):
                alg = tensor_algebra(dim, 2, flat)
                for spec in multilinear:
                    poly = check_identity(alg, spec, "polynomial").passed
                    point = check_identity(alg, spec, "pointwise").passed
                    assert poly == point, (dim, flat, spec.name)
                for spec in other:
                    poly = check_identity(alg, spec, "polynomial").passed
                    point = check_identity(alg, spec, "pointwise").passed
                    if poly != point:
                        # polynomial semantics is strictly stronger, never weaker
                        assert point and not poly, (dim, flat, spec.name)
                        disagreements.append((dim, flat, spec.name))

        print(f"  non-multilinear disagreements over F_2, dim <= 2: {len(disagreements)}")
        for dim, flat, name in disagreements:
            print(f"    dim {dim} tensor {flat}: {name} holds pointwise, fails as polynomials")
        by_name = {}
        for _, _, name in disagreements:
            by_name[name] = by_name.get(name, 0) + 1
        assert by_name == {
            "jordan.main": 4, "ujla.2a": 4, "ujla.2b": 4, "ujla.2c": 4, "ujla.2d": 4,
        }
