import ast
import itertools
import math
import pathlib
import random
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from reference import all_tensors, ref_is_ujla, transform_tensor
from strategies import F2_POINTWISE_ONLY, algebras
from ujla import corpus
from ujla.axioms import (
    ALL_NAMED_IDENTITIES,
    UJLA_1,
    UJLA_SPECS,
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
    gl_action,
    gl_matrices,
    orbit_partition,
    tensor_algebra,
)
from ujla.fields import PrimeField
from ujla.identities import check_identity, constant_equations, holds
from ujla.linalg import Matrix, accumulate, mat_inverse, sparse_row


def _case(golden, dim, p, semantics):
    return golden[f"d{dim}_p{p}_{semantics}"]


def test_searchspec_validation():
    with pytest.raises(ValueError):
        SearchSpec(3, 2)
    with pytest.raises(ValueError):
        SearchSpec(2, 7)
    with pytest.raises(ValueError):
        SearchSpec(2, 3, "fast")
    # Equal to a supported value, but not an int: 2.0 would scan 256.0
    # tensors and True would scan d = 1.
    for dim, p in [(2.0, 2), (2, 3.0), (True, 2), (2, True), ("2", 2), (None, 3)]:
        with pytest.raises(ValueError, match="must be an int"):
            SearchSpec(dim, p)
    assert SearchSpec(2, 5).total == 5 ** 8


def _per_tensor_outcomes(dim, p, semantics):
    """The scan before pruning: (tensor, first failing identity or None) for
    every tensor in lex order, each built and run through the whole suite."""
    return [(flat, ujla_failure(tensor_algebra(dim, p, flat), semantics))
            for flat in itertools.product(range(p), repeat=dim ** 3)]


def _tally(outcomes):
    survivors = [flat for flat, failed in outcomes if failed is None]
    counts = {spec.name: 0 for spec in UJLA_SPECS}
    for _, failed in outcomes:
        if failed is not None:
            counts[failed] += 1
    return survivors, counts


@pytest.mark.parametrize("dim,p", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("semantics", ["polynomial", "pointwise"])
def test_pruned_scan_matches_per_tensor_oracle(dim, p, semantics):
    total = p ** dim ** 3
    assert _scan_range((dim, p, semantics, 0, total)) == \
        _tally(_per_tensor_outcomes(dim, p, semantics))


def test_pruned_scan_windows_cut_through_pruned_subtrees():
    """Seeded windows at d2 p3 whose bounds land inside subtrees that ujla.1
    rejects whole: only the part inside the window may be counted.  Both
    semantics."""
    rng = random.Random(2024)
    windows = [(0, 0), (6561, 6561), (0, 1), (6560, 6561), (1, 6560)]
    windows += [tuple(sorted(rng.sample(range(6562), 2))) for _ in range(20)]
    windows += [(lo, lo + rng.randrange(1, 30)) for lo in rng.sample(range(6531), 20)]
    for semantics in ("polynomial", "pointwise"):
        outcomes = _per_tensor_outcomes(2, 3, semantics)
        for lo, hi in windows:
            assert _scan_range((2, 3, semantics, lo, hi)) == _tally(outcomes[lo:hi]), \
                (semantics, lo, hi)


def _vanish(equations, flat, p):
    return all(sum(c * math.prod(flat[i] for i in idx) for idx, c in eq) % p == 0
               for eq in equations)


def _equation_tensors(dim, p, count):
    """Seeded tensors from sparse to dense, plus corpus algebras over F_p that
    satisfy ujla.1 and one-constant perturbations of them."""
    rng = random.Random(100 * dim + p)
    flats = [tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(dim ** 3))
             for density in (0.1, 0.3, 1.0) for _ in range(count)]
    if dim == 3:
        field = PrimeField(p)
        builders = [corpus.upper_triangular_2x2, corpus.heisenberg, corpus.sl2,
                    corpus.cross_product, corpus.truncated_polynomials]
        for build in builders:
            flat = tuple(int(c) for c in build(field).tensor_flat())
            flats.append(flat)
            i = rng.randrange(27)
            flats.append(flat[:i] + ((flat[i] + 1) % p,) + flat[i + 1:])
    return flats


@pytest.mark.parametrize("dim,p,count", [(2, 2, 40), (2, 3, 60), (2, 5, 60), (3, 2, 15),
                                         (3, 3, 15)])
def test_ujla1_constant_equations_vanish_exactly_when_it_holds(dim, p, count):
    equations = constant_equations(UJLA_1, dim, p)
    assert all(1 <= c < p for eq in equations for _, c in eq)
    outcomes = set()
    for flat in _equation_tensors(dim, p, count):
        expected = holds(tensor_algebra(dim, p, flat), UJLA_1)
        assert _vanish(equations, flat, p) == expected, flat
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", UJLA_SPECS[1:], ids=lambda spec: spec.name)
def test_constant_equations_of_degree_three(spec):
    """The helper is generic: the non-multilinear identities give cubic
    equations, from the plan reduced by x^p = x under pointwise semantics,
    and they decide truth under either semantics over all of d2 p2 and on
    seeded tensors at d2 p3 and d2 p5."""
    d2_p2 = list(itertools.product(range(2), repeat=8))
    assert F2_POINTWISE_ONLY in d2_p2
    for semantics in ("polynomial", "pointwise"):
        for p, flats in [(2, d2_p2), (3, _equation_tensors(2, 3, 60)),
                         (5, _equation_tensors(2, 5, 60))]:
            equations = constant_equations(spec, 2, p, semantics)
            assert {len(idx) for eq in equations for idx, _ in eq} == {3}
            outcomes = set()
            for flat in flats:
                expected = holds(tensor_algebra(2, p, flat), spec, semantics)
                assert _vanish(equations, flat, p) == expected, (semantics, p, flat)
                outcomes.add(expected)
            assert outcomes == {True, False}


@pytest.mark.parametrize("p,counts", [(3, [4, 12, 12, 12, 12]), (5, [8, 12, 12, 12, 12])],
                         ids=["3", "5"])
def test_constant_equations_are_monic_and_counted(p, counts):
    """Each d2 equation is scaled to lead coefficient 1, so repeats up to a
    nonzero scalar merge: the number of equations per UJLA identity is the
    golden count, under both semantics."""
    for semantics in ("polynomial", "pointwise"):
        equations = [constant_equations(spec, 2, p, semantics) for spec in UJLA_SPECS]
        assert all(eq[0][1] == 1 for eqs in equations for eq in eqs), semantics
        assert [len(eqs) for eqs in equations] == counts, semantics


@pytest.mark.parametrize("semantics", ["polynomial", "pointwise"])
def test_scan_builds_no_algebra_and_runs_no_identity_check(semantics, monkeypatch, golden):
    """The walk decides the whole suite on the structure constants: a d2 p3
    scan builds no Algebra and runs no identity check, yet gives the golden
    counts."""
    from ujla import axioms, classify, identities

    def never(*args, **kwargs):
        raise AssertionError("the scan must decide the suite on the constants")

    for module, name in [(classify, "tensor_algebra"), (axioms, "ujla_failure"),
                         (identities, "holds"), (axioms, "holds")]:
        monkeypatch.setattr(module, name, never)
    survivors, counts = classify._scan_range((2, 3, semantics, 0, 6561))
    entry = _case(golden, 2, 3, semantics)
    assert len(survivors) == entry["ujla_count"]
    assert counts == entry["failure_counts"]


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


@pytest.mark.parametrize("semantics", ["polynomial", "pointwise"])
def test_d2_p5_matches_golden(semantics, golden):
    result = enumerate_ujla(SearchSpec(2, 5, semantics))
    entry = _case(golden, 2, 5, semantics)
    assert result.ujla_count == entry["ujla_count"]
    assert result.class_count == entry["class_count"]
    assert [c.orbit_size for c in result.classes] == entry["orbit_sizes"]
    assert dict(result.failure_counts) == entry["failure_counts"]
    assert result.total == entry["total"]


def test_freeze_script_cases_are_the_golden_keys(golden):
    """A case frozen by hand, or dropped from the script, would be lost on
    the next regeneration."""
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "freeze_golden.py"
    tree = ast.parse(script.read_text())
    cases = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CASES" for t in node.targets))
    assert {f"d{dim}_p{p}_{semantics}" for dim, p, semantics in cases} == set(golden)


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


@pytest.mark.parametrize("workers", [1.5, "2", True, None])
def test_workers_must_be_an_int(workers, monkeypatch):
    """1.5 and "2" would fail deep inside the scan and True would pass as
    1; each is rejected before any scan starts."""
    from ujla import classify

    def never(*args):
        raise AssertionError("no scan may start")

    monkeypatch.setattr(classify, "Pool", never)
    monkeypatch.setattr(classify, "_scan_range", never)
    with pytest.raises(ValueError, match="workers must be an int"):
        enumerate_ujla(SearchSpec(1, 3), workers=workers)


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


def _moved(p, dim, flat, g_rows, ginv_rows):
    """The flat tensor moved by g's action columns, as the orbit partition
    moves it: accumulate over its sparse row, then mod p."""
    image = accumulate([0] * dim ** 3, sparse_row(flat), gl_action(p, dim, g_rows, ginv_rows))
    return tuple(x % p for x in image)


def test_transform_tensor_is_a_group_action():
    """The precomputed action of every g in GL_1(F_5), GL_2(F_2) and
    GL_2(F_3) moves the zero tensor, the all-(p-1) tensor and seeded
    tensors as the transform oracle does; the identity fixes each tensor
    and g followed by g^-1 returns it."""
    rng = random.Random(22)
    for dim, p in [(1, 5), (2, 2), (2, 3)]:
        n = dim ** 3
        flats = [(0,) * n, (p - 1,) * n] + [
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(6)
        ]
        gl = gl_matrices(p, dim)
        ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        assert (ident, ident) in gl
        for flat in flats:
            assert _moved(p, dim, flat, ident, ident) == flat
            for g_rows, ginv_rows in gl:
                once = _moved(p, dim, flat, g_rows, ginv_rows)
                assert once == transform_tensor(p, dim, flat, g_rows, ginv_rows)
                assert _moved(p, dim, once, ginv_rows, g_rows) == flat


def test_a_survivor_set_not_closed_under_basis_change_is_an_internal_error(golden):
    """Dropping one member of a nontrivial orbit leaves its representative
    with an image outside the survivors; the error names both."""
    entry = _case(golden, 2, 2, "polynomial")
    survivors = tuple(tuple(s) for s in entry["survivors"])
    spec = SearchSpec(2, 2)
    rep = tuple(entry["representatives"][1])
    assert entry["orbit_sizes"][1] == 6
    orbit = {transform_tensor(2, 2, rep, *g) for g in gl_matrices(2, 2)}
    dropped = max(orbit)
    assert dropped != rep
    with pytest.raises(RuntimeError, match=re.escape(f"(tensor {rep}, image {dropped})")):
        orbit_partition(spec, tuple(s for s in survivors if s != dropped))


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


def test_are_isomorphic_returns_the_first_witness_in_lex_order(golden):
    """The witness is the lex-first g whose transform oracle image of b is
    a, and None when there is none: every class representative against
    every d = 2, p = 2 survivor."""
    entry = _case(golden, 2, 2, "polynomial")
    F2 = PrimeField(2)
    gl = gl_matrices(2, 2)
    witnesses = 0
    for rep in map(tuple, entry["representatives"]):
        for flat in map(tuple, entry["survivors"]):
            first = next((g for g, ginv in gl if transform_tensor(2, 2, flat, g, ginv) == rep),
                         None)
            got = are_isomorphic(tensor_algebra(2, 2, rep), tensor_algebra(2, 2, flat))
            assert got == (None if first is None else Matrix(F2, first))
            witnesses += first is not None
    assert witnesses == entry["ujla_count"]


def test_are_isomorphic_stops_at_the_first_witness(golden, monkeypatch):
    """are_isomorphic inverts the candidates one at a time, in lex order
    of the flattened matrix, up to the witness: as many inversions as the
    witness's place among all p^(d^2) matrices, and all of them when
    there is none."""
    calls = [0]

    def counting(m):
        calls[0] += 1
        return mat_inverse(m)

    monkeypatch.setattr("ujla.classify.mat_inverse", counting)
    entry = _case(golden, 2, 2, "polynomial")
    candidates = list(itertools.product(range(2), repeat=4))
    places = set()
    for rep in map(tuple, entry["representatives"]):
        for flat in map(tuple, entry["survivors"]):
            calls[0] = 0
            g = are_isomorphic(tensor_algebra(2, 2, rep), tensor_algebra(2, 2, flat))
            place = len(candidates) if g is None else candidates.index(sum(g.rows, ())) + 1
            assert calls[0] == place, (rep, flat)
            places.add(place)
    assert min(places) < len(candidates) in places


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
