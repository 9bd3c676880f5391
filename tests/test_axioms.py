import itertools
import random

from reference import ref_is_ujla
from ujla import corpus
from ujla.algebra import algebra_from_products
from ujla.axioms import (
    UJLA_SPECS,
    check_associative,
    check_jordan,
    check_lie,
    check_ujla,
    ujla_failure,
)
from ujla.classify import flat_to_tensor, tensor_algebra
from ujla.fields import QQ, PrimeField
from ujla.identities import _plan, revalidate_verdict

# Lexicographically first F_2 tensor flagged by the exhaustive scan; by hand:
# e1*e0 = e1 and all other products vanish, so with (a, b, c) = (e1, e0, e0)
# the cyclic sum (ab)c + (bc)a + (ca)b is (e1*e0)*e0 = e1 while the right
# side a(bc) + b(ca) + c(ab) is e0*(e1*e0) = 0.
GOLDEN_NON_UJLA = (0, 0, 0, 0, 0, 1, 0, 0)


def test_associative_suite(dual, upper2):
    assert check_associative(dual).passed
    assert check_associative(upper2).passed
    cross = corpus.cross_product()
    report = check_associative(cross)
    assert not report.passed
    assert revalidate_verdict(cross, report.verdicts[0])


def test_lie_suite(heis, dual):
    assert check_lie(heis).passed
    assert check_lie(corpus.abelian_lie(2)).passed
    report = check_lie(dual)
    assert not report.verdict("lie.alt").passed


def test_jordan_suite(heis, upper2):
    assert check_jordan(corpus.jordan_upper_triangular()).passed
    report = check_jordan(heis)
    assert not report.verdict("jordan.comm").passed
    assert report.verdict("jordan.main").passed
    # commutative + associative implies the Jordan identity
    assert check_jordan(corpus.diagonal_matrices_2()).passed
    assert check_jordan(corpus.truncated_polynomials()).passed


def test_jordan_char2_caveat():
    alg = corpus.diagonal_matrices_2(PrimeField(2))
    report = check_jordan(alg)
    assert report.passed
    assert any("characteristic-2" in note for note in report.notes)
    assert not any("characteristic-2" in n for n in check_jordan(corpus.diagonal_matrices_2()).notes)


def test_ujla_verdict_order(dual):
    names = [v.name for v in check_ujla(dual).verdicts]
    assert names == ["ujla.1", "ujla.2a", "ujla.2b", "ujla.2c", "ujla.2d"]


def test_zero_algebra_is_ujla():
    assert check_ujla(corpus.zero_algebra(dim=3)).passed


def test_corpus_classes_are_ujla(standard_corpus):
    for algebras in standard_corpus.values():
        for alg in algebras:
            assert check_ujla(alg).passed, alg.name


def test_golden_non_ujla_tensor():
    alg = tensor_algebra(2, 2, GOLDEN_NON_UJLA)
    assert ujla_failure(alg) == "ujla.1"
    report = check_ujla(alg)
    assert not report.passed
    for v in report.failures():
        assert revalidate_verdict(alg, v)
    # independent oracle agrees
    assert not ref_is_ujla(flat_to_tensor(GOLDEN_NON_UJLA, 2), 2, 2, "polynomial")


def test_ujla_failure_none_on_members(dual):
    assert ujla_failure(dual) is None


def _random_semigroup_algebras(count=200, seed=20240811):
    """Random associative algebras: basis products e_i e_j = e_{op(i, j)}
    for a randomly sampled associative operation table (rejection sampled,
    so associativity holds by construction)."""
    rnd = random.Random(seed)
    fields = [QQ, PrimeField(5)]
    found = []
    while len(found) < count:
        n = rnd.choice([2, 3])
        op = [[rnd.randrange(n) for _ in range(n)] for _ in range(n)]
        if all(
            op[op[i][j]][k] == op[i][op[j][k]]
            for i, j, k in itertools.product(range(n), repeat=3)
        ):
            field = rnd.choice(fields)
            products = {(i, j): {op[i][j]: 1} for i in range(n) for j in range(n)}
            found.append(algebra_from_products(
                f"semigroup-{len(found)}", field, [f"e{i}" for i in range(n)], products
            ))
    return found


def test_every_associative_algebra_is_ujla():
    for alg in _random_semigroup_algebras():
        assert check_associative(alg).passed
        assert check_ujla(alg).passed, alg.name


def test_lie_and_jordan_members_are_ujla(standard_corpus):
    for alg in standard_corpus["lie"]:
        assert check_lie(alg).passed, alg.name
        assert check_ujla(alg).passed, alg.name
    for alg in standard_corpus["jordan"]:
        assert check_jordan(alg).passed, alg.name
        assert check_ujla(alg).passed, alg.name


def test_failing_verdicts_carry_revalidating_witnesses():
    algs = [
        corpus.dual_numbers(),
        corpus.heisenberg(),
        corpus.cross_product(),
        tensor_algebra(2, 2, GOLDEN_NON_UJLA),
        tensor_algebra(2, 3, (1, 2, 0, 1, 0, 2, 1, 1)),
    ]
    for alg in algs:
        for check in (check_associative, check_lie, check_jordan, check_ujla):
            for v in check(alg).failures():
                assert v.coefficient_witness is not None or v.concrete_witness is not None
                assert revalidate_verdict(alg, v), (alg.name, v.name)


def test_pointwise_suites_run_on_finite_fields():
    alg = corpus.dual_numbers(PrimeField(3))
    assert check_ujla(alg, semantics="pointwise").passed
    assert check_associative(alg, semantics="pointwise").passed


def test_scan_filter_keeps_normalize_out_of_its_inner_loop(monkeypatch):
    """The classification filter reduces once per group and coordinate at
    most, never per table entry or per product."""
    rng = random.Random(23)
    tensors = [(0,) * 8, GOLDEN_NON_UJLA] + [tuple(rng.randrange(3) for _ in range(8))
                                              for _ in range(20)]
    algs = [tensor_algebra(2, 3, flat) for flat in tensors]
    calls = [0]
    original = PrimeField.normalize

    def counting(self, x):
        calls[0] += 1
        return original(self, x)

    monkeypatch.setattr(PrimeField, "normalize", counting)
    names = [spec.name for spec in UJLA_SPECS]
    outcomes = set()
    for alg in algs:
        for semantics in ("polynomial", "pointwise"):
            calls[0] = 0
            failed = ujla_failure(alg, semantics)
            run = UJLA_SPECS[:names.index(failed) + 1] if failed else UJLA_SPECS
            groups = sum(len(_plan(alg, spec, semantics).groups) for spec in run)
            assert calls[0] <= groups * alg.dim, (alg.tensor, semantics)
            outcomes.add(failed)
    assert None in outcomes and "ujla.1" in outcomes
