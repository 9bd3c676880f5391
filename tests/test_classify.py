import itertools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from reference import all_tensors, ref_is_ujla
from strategies import algebras
from ujla.axioms import (
    ALL_NAMED_IDENTITIES,
    check_associative,
    check_jordan,
    check_lie,
    check_ujla,
    ujla_failure,
)
from ujla.classify import (
    SearchSpec,
    _scan_range,
    are_isomorphic,
    enumerate_ujla,
    gl_matrices,
    tensor_algebra,
    transform_tensor,
)
from ujla.fields import PrimeField
from ujla.identities import check_identity
from ujla.linalg import Matrix


def _case(golden, dim, p, semantics):
    return golden[f"d{dim}_p{p}_{semantics}"]


def test_searchspec_validation():
    with pytest.raises(ValueError):
        SearchSpec(3, 2)
    with pytest.raises(ValueError):
        SearchSpec(2, 7)
    with pytest.raises(ValueError):
        SearchSpec(2, 3, "fast")
    assert SearchSpec(2, 5).total == 5 ** 8


@pytest.mark.parametrize("semantics", ["polynomial", "pointwise"])
def test_split_scan_ranges_concatenate_to_the_serial_scan(semantics):
    """Chunks over any split points merge to the one-range scan; no process starts."""
    serial_survivors, serial_counts = _scan_range((2, 2, semantics, 0, 256))
    splits = [0, 1, 97, 255, 256]
    chunks = [_scan_range((2, 2, semantics, lo, hi)) for lo, hi in zip(splits, splits[1:])]
    survivors = [flat for chunk_survivors, _ in chunks for flat in chunk_survivors]
    assert survivors == serial_survivors
    assert all(a < b for a, b in zip(survivors, survivors[1:]))
    assert {name: sum(counts[name] for _, counts in chunks) for name in serial_counts} == \
        serial_counts
    assert len(survivors) + sum(serial_counts.values()) == 256


@pytest.mark.parametrize("dim,p,expect_count,expect_classes", [
    (1, 2, 2, 2),
    (1, 3, 3, 2),
    (1, 5, 5, 2),
])
def test_dim_one_counts(dim, p, expect_count, expect_classes, golden):
    for semantics in ("polynomial", "pointwise"):
        result = enumerate_ujla(SearchSpec(dim, p, semantics))
        assert result.ujla_count == expect_count
        assert result.class_count == expect_classes
        entry = _case(golden, dim, p, semantics)
        assert result.ujla_count == entry["ujla_count"]
        assert [c.orbit_size for c in result.classes] == entry["orbit_sizes"]


def test_d2_p2_matches_golden_and_oracle(golden):
    for semantics in ("polynomial", "pointwise"):
        result = enumerate_ujla(SearchSpec(2, 2, semantics))
        entry = _case(golden, 2, 2, semantics)
        assert result.ujla_count == entry["ujla_count"]
        assert result.class_count == entry["class_count"]
        assert [list(s) for s in result.survivors] == entry["survivors"]
        assert sum(c.orbit_size for c in result.classes) == result.ujla_count
        # independent oracle, not the library's identity engine
        oracle = [flat for flat, t in all_tensors(2, 2) if ref_is_ujla(t, 2, 2, semantics)]
        assert list(result.survivors) == oracle


def test_d2_p3_matches_golden(golden):
    result = enumerate_ujla(SearchSpec(2, 3))
    entry = _case(golden, 2, 3, "polynomial")
    assert result.ujla_count == entry["ujla_count"]
    assert result.class_count == entry["class_count"]
    assert [c.orbit_size for c in result.classes] == entry["orbit_sizes"]
    assert sum(c.orbit_size for c in result.classes) == result.ujla_count


def test_d2_p3_pointwise_matches_golden_with_workers(golden):
    result = enumerate_ujla(SearchSpec(2, 3, "pointwise"), workers=2)
    entry = _case(golden, 2, 3, "pointwise")
    assert result.ujla_count == entry["ujla_count"]
    assert [c.orbit_size for c in result.classes] == entry["orbit_sizes"]


def test_workers_do_not_change_the_result():
    serial = enumerate_ujla(SearchSpec(2, 2))
    parallel = enumerate_ujla(SearchSpec(2, 2), workers=3)
    assert serial.survivors == parallel.survivors
    assert serial.classes == parallel.classes
    assert serial.failure_counts == parallel.failure_counts


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    """A huge worker request asks for no more processes than cores; the
    pool is a serial stand-in, so no process starts."""
    from ujla import classify

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(classify, "Pool", SerialPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    capped = enumerate_ujla(SearchSpec(1, 3), workers=10**6)
    assert sizes == [2]
    serial = enumerate_ujla(SearchSpec(1, 3))
    assert (capped.survivors, capped.classes, capped.failure_counts) == \
        (serial.survivors, serial.classes, serial.failure_counts)


def test_count_is_scan_order_invariant():
    """Re-filter the whole space in a shuffled order and compare counts."""
    spec = SearchSpec(2, 2)
    result = enumerate_ujla(spec)
    flats = [flat for flat, _ in all_tensors(2, 2)]
    random.Random(99).shuffle(flats)
    count = 0
    for flat in flats:
        if ujla_failure(tensor_algebra(2, 2, flat)) is None:
            count += 1
    assert count == result.ujla_count


def test_representatives_pass_and_are_pairwise_non_isomorphic():
    result = enumerate_ujla(SearchSpec(2, 2))
    reps = result.representative_algebras()
    for alg in reps:
        assert check_ujla(alg).passed
    for a, b in itertools.combinations(reps, 2):
        assert are_isomorphic(a, b) is None, (a.name, b.name)


def test_soundness_every_exclusion_names_a_failing_identity():
    result = enumerate_ujla(SearchSpec(2, 2))
    failures = []
    for flat, _ in all_tensors(2, 2):
        name = ujla_failure(tensor_algebra(2, 2, flat))
        if name is not None:
            failures.append((flat, name))
    assert len(failures) + result.ujla_count == result.total
    assert dict(result.failure_counts) == {
        name: sum(1 for _, n in failures if n == name)
        for name, _ in result.failure_counts
    }
    for flat, name in random.Random(7).sample(failures, 20):
        alg = tensor_algebra(2, 2, flat)
        assert not check_identity(alg, ALL_NAMED_IDENTITIES[name]).passed


def test_classical_passers_are_contained_in_survivors(golden):
    survivors = {tuple(s) for s in _case(golden, 2, 2, "polynomial")["survivors"]}
    n_assoc = n_lie = n_jordan = 0
    for flat, _ in all_tensors(2, 2):
        alg = tensor_algebra(2, 2, flat)
        if check_associative(alg).passed:
            n_assoc += 1
            assert flat in survivors
        if check_lie(alg).passed:
            n_lie += 1
            assert flat in survivors
        if check_jordan(alg).passed:
            n_jordan += 1
            assert flat in survivors
    # sanity: the classical families are non-trivial
    assert n_assoc > 0 and n_lie > 0 and n_jordan > 0


def test_transform_tensor_is_a_group_action():
    p, dim = 3, 2
    flat = (1, 2, 0, 1, 0, 2, 1, 1)
    gl = gl_matrices(p, dim)
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert transform_tensor(p, dim, flat, ident, ident) == flat
    g_rows, ginv_rows = gl[17]
    once = transform_tensor(p, dim, flat, g_rows, ginv_rows)
    back = transform_tensor(p, dim, once, ginv_rows, g_rows)
    assert back == flat


def test_are_isomorphic_self_and_scaling():
    F3 = PrimeField(3)
    a = tensor_algebra(1, 3, (1,))
    b = tensor_algebra(1, 3, (2,))
    self_witness = are_isomorphic(a, a)
    assert self_witness is not None
    witness = are_isomorphic(a, b)
    assert witness == Matrix(F3, ((2,),))
    zero = tensor_algebra(1, 3, (0,))
    assert are_isomorphic(zero, a) is None


def test_are_isomorphic_witness_is_multiplicative():
    result = enumerate_ujla(SearchSpec(2, 2))
    reps = result.representative_algebras()
    a = reps[1]
    # conjugate a by some invertible matrix and check we recover a witness
    g_rows, ginv_rows = gl_matrices(2, 2)[3]
    moved_flat = transform_tensor(2, 2, tuple(int(x) for x in a.tensor_flat()), g_rows, ginv_rows)
    b = tensor_algebra(2, 2, moved_flat, name="moved")
    g = are_isomorphic(b, a)
    assert g is not None
    for i in range(2):
        for j in range(2):
            lhs = tuple(
                b.field.normalize(sum(g[k, m] * b.multiply(b.basis_vector(i), b.basis_vector(j))[m]
                                      for m in range(2)))
                for k in range(2)
            )
            gi = tuple(g[k, i] for k in range(2))
            gj = tuple(g[k, j] for k in range(2))
            assert lhs == a.multiply(gi, gj)


def test_are_isomorphic_guards():
    from ujla import corpus

    with pytest.raises(ValueError, match="finite"):
        are_isomorphic(corpus.dual_numbers(), corpus.dual_numbers())
    big = tensor_algebra(1, 3, (1,))
    other = corpus.dual_numbers(PrimeField(5))
    with pytest.raises(ValueError, match="common field"):
        are_isomorphic(big, other)


@pytest.mark.parametrize("dim,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)])
@pytest.mark.parametrize("semantics", ["polynomial", "pointwise"])
def test_burnside_and_orbit_stabiliser_counts(dim, p, semantics, golden):
    """Class counts and orbit sizes recounted from the group action alone:
    Burnside's lemma over the survivors, orbit-stabiliser per class."""
    result = enumerate_ujla(SearchSpec(dim, p, semantics))
    entry = _case(golden, dim, p, semantics)
    gl = gl_matrices(p, dim)

    def fixes(g, flat):
        return transform_tensor(p, dim, flat, *g) == flat

    fixed_points = sum(1 for g in gl for flat in result.survivors if fixes(g, flat))
    assert fixed_points == entry["class_count"] * len(gl)
    assert result.class_count == entry["class_count"]
    for cls in result.classes:
        stabiliser = sum(1 for g in gl if fixes(g, cls.representative))
        assert cls.orbit_size * stabiliser == len(gl)
    assert [c.orbit_size for c in result.classes] == entry["orbit_sizes"]


def test_failure_counts_sum_to_exclusions():
    result = enumerate_ujla(SearchSpec(2, 3))
    assert sum(n for _, n in result.failure_counts) + result.ujla_count == result.total


def test_sympy_route_agrees_on_decisive_tensors():
    """Third verification route (sympy expansion with mod-p coefficient
    reduction) on the tensors that matter most: the golden counterexample,
    a survivor, and the pointwise-only tensor."""
    from reference import UJLA_IDENTITIES, sympy_polynomial_holds
    from ujla.classify import flat_to_tensor

    cases = [
        ((0, 0, 0, 0, 0, 1, 0, 0), False),   # fails ujla.1
        ((0, 0, 0, 0, 0, 0, 0, 0), True),    # the zero algebra
        ((1, 0, 1, 1, 1, 1, 0, 1), False),   # pointwise-only survivor
    ]
    for flat, expected in cases:
        tensor = flat_to_tensor(flat, 2)
        sympy_says = all(
            sympy_polynomial_holds(name, tensor, 2, 2) for name in UJLA_IDENTITIES
        )
        assert sympy_says == expected
        alg = tensor_algebra(2, 2, flat)
        assert (ujla_failure(alg) is None) == expected


def test_classification_reports_are_deterministic():
    from ujla.fileformat import dumps_classification

    first = dumps_classification(enumerate_ujla(SearchSpec(2, 2)))
    second = dumps_classification(enumerate_ujla(SearchSpec(2, 2), workers=2))
    assert first == second


@given(algebras(max_dim=2), st.data())
def test_every_suite_is_invariant_under_basis_change(alg, data):
    """Isomorphic algebras receive identical verdicts from every suite."""
    gl = gl_matrices(alg.field.p, alg.dim)
    g_rows, ginv_rows = data.draw(st.sampled_from(gl))
    flat = tuple(int(x) for x in alg.tensor_flat())
    moved = tensor_algebra(
        alg.dim, alg.field.p,
        transform_tensor(alg.field.p, alg.dim, flat, g_rows, ginv_rows),
    )
    for check in (check_associative, check_lie, check_jordan, check_ujla):
        assert check(alg).passed == check(moved).passed
