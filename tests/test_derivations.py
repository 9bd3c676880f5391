import random
from fractions import Fraction

import pytest

from linalg_oracle import mat_vec, vec_add, vec_sub
from reference import ref_leibniz_witness
from ujla import corpus, derivations
from ujla.algebra import Algebra
from ujla.axioms import check_ujla
from ujla.classify import SearchSpec, enumerate_ujla
from ujla.derivations import (
    check_derivation,
    derivation_six_term,
    derivation_two_term,
    revalidate_leibniz,
)
from ujla.fields import PrimeField, QQ
from ujla.linalg import Matrix

RANDOM_SEED = 20240811


def seeded_vectors(alg, count, seed=RANDOM_SEED):
    rnd = random.Random(f"{seed}:{alg.name}")
    out = []
    for _ in range(count):
        if alg.field.is_finite:
            out.append(tuple(rnd.randrange(alg.field.p) for _ in range(alg.dim)))
        else:
            out.append(tuple(Fraction(rnd.randint(-3, 3)) for _ in range(alg.dim)))
    return out


def test_six_term_on_sl2_is_bracketing_with_h():
    s = corpus.sl2()
    e, f, h = (s.basis_vector(i) for i in range(3))
    deriv = derivation_six_term(s, e, f)
    assert mat_vec(deriv, e) == (Fraction(2), 0, 0)
    assert mat_vec(deriv, f) == (0, Fraction(-2), 0)
    assert mat_vec(deriv, h) == (0, 0, 0)


def test_six_equals_two_on_lie_algebras(heis):
    for alg in (heis, corpus.sl2(), corpus.cross_product()):
        for i in range(alg.dim):
            for j in range(alg.dim):
                a, b = alg.basis_vector(i), alg.basis_vector(j)
                assert derivation_six_term(alg, a, b) == derivation_two_term(alg, a, b)


def test_two_term_on_upper_triangular(upper2):
    e11, e12, e22 = (upper2.basis_vector(i) for i in range(3))
    deriv = derivation_two_term(upper2, e11, e12)
    # D(E22) = E11(E12 E22) - (E22 E11)E12 = E12 - 0
    assert mat_vec(deriv, e22) == e12


def test_both_constructions_vanish_on_commutative_associative():
    for alg in (corpus.dual_numbers(), corpus.truncated_polynomials(), corpus.diagonal_matrices_2()):
        for i in range(alg.dim):
            for j in range(alg.dim):
                a, b = alg.basis_vector(i), alg.basis_vector(j)
                zero = Matrix.zero(alg.field, alg.dim, alg.dim)
                assert derivation_six_term(alg, a, b) == zero
                assert derivation_two_term(alg, a, b) == zero


def test_both_constructions_vanish_on_abelian_lie():
    alg = corpus.abelian_lie(3)
    a, b = (1, 2, 3), (4, 5, 6)
    zero = Matrix.zero(QQ, 3, 3)
    assert derivation_six_term(alg, a, b) == zero
    assert derivation_two_term(alg, a, b) == zero


def test_zero_map_is_a_derivation(dual):
    assert check_derivation(dual, Matrix.zero(QQ, 2, 2)).passed


def test_identity_map_on_dual_numbers_fails_leibniz(dual):
    report = check_derivation(dual, Matrix.identity(QQ, 2))
    assert not report.passed
    w = report.verdicts[0].concrete_witness
    assert w is not None
    env = dict(w.assignment)
    # D(1*1) = 1 but D(1)*1 + 1*D(1) = 2
    assert env["x"] == (1, 0) and env["y"] == (1, 0)
    assert w.lhs == (Fraction(1), 0) and w.rhs == (Fraction(2), 0)
    assert revalidate_leibniz(dual, Matrix.identity(QQ, 2), report.verdicts[0])


def test_first_failing_leibniz_pair_is_taken_in_row_major_order():
    """e0 e1 = e1 e0 = e1 and D = E_00: the pairs (e0, e1) and (e1, e0)
    both fail, with the same sides, and the witness is the first in
    row-major order."""
    alg = Algebra("t", QQ, 2, ("e0", "e1"), (((0, 0), (0, 1)), ((0, 1), (0, 0))))
    deriv = Matrix(QQ, ((1, 0), (0, 0)))
    (verdict,) = check_derivation(alg, deriv).verdicts
    w = verdict.concrete_witness
    assert w.assignment == (("x", alg.basis_vector(0)), ("y", alg.basis_vector(1)))
    assert (w.lhs, w.rhs) == ((0, 0), (0, 1))
    assert derivations._leibniz_sides(alg, deriv, alg.basis_vector(1), alg.basis_vector(0)) == (
        (0, 0), (0, 1))
    assert revalidate_leibniz(alg, deriv, verdict)


def test_revalidation_rejects_a_wrong_leibniz_sides(monkeypatch):
    """The checker reads a failing pair's sides off its contraction, so a
    wrong _leibniz_sides, swapped in for the whole check-and-revalidate
    run, makes revalidation reject the witness wherever it is wrong."""
    true_sides = derivations._leibniz_sides

    def without_x_dy(alg, deriv, x, y):
        return mat_vec(deriv, alg.multiply(x, y)), alg.multiply(mat_vec(deriv, x), y)

    rnd = random.Random(f"{RANDOM_SEED}:wrong-leibniz")
    cases = []
    for field, values in [(QQ, (0, 0, 1, -1, 2, Fraction(1, 2))), (PrimeField(5), range(5))]:
        for d in (2, 3):
            for n in range(6):
                alg = Algebra(f"r{n}", field, d, tuple(f"e{i}" for i in range(d)),
                              [[[rnd.choice(values) for _ in range(d)] for _ in range(d)]
                               for _ in range(d)])
                cases.append((alg, Matrix.from_rows(field, [[rnd.choice(values) for _ in range(d)]
                                                            for _ in range(d)])))
    monkeypatch.setattr(derivations, "_leibniz_sides", without_x_dy)
    rejected = 0
    for alg, deriv in cases:
        (verdict,) = check_derivation(alg, deriv).verdicts
        if verdict.passed:
            continue
        w = verdict.concrete_witness
        env = dict(w.assignment)
        true = true_sides(alg, deriv, env["x"], env["y"])
        wrong = without_x_dy(alg, deriv, env["x"], env["y"])
        accepted = revalidate_leibniz(alg, deriv, verdict)
        assert accepted == (wrong == true), alg.tensor
        assert (w.lhs, w.rhs) == true, alg.tensor
        rejected += not accepted
    assert rejected > 10


def test_constructions_yield_derivations_across_classes(standard_corpus):
    for algebras in standard_corpus.values():
        for alg in algebras:
            vecs = alg.basis_vectors() + seeded_vectors(alg, 3)
            for a in vecs:
                for b in vecs:
                    for builder in (derivation_six_term, derivation_two_term):
                        deriv = builder(alg, a, b)
                        assert check_derivation(alg, deriv).passed, (alg.name, builder.__name__)


def reduced_corpus(standard_corpus, p):
    """Every corpus algebra whose constants are defined mod p, rebuilt over F_p."""
    field = PrimeField(p)
    out = []
    for alg in (a for algebras in standard_corpus.values() for a in algebras):
        try:
            tensor = tuple(tuple(tuple(field.from_fraction(c) for c in row) for row in plane)
                           for plane in alg.tensor)
            unit = alg.unit and tuple(field.from_fraction(x) for x in alg.unit)
        except ZeroDivisionError:
            continue
        out.append(Algebra(f"{alg.name}-f{p}", field, alg.dim, alg.basis, tensor, unit))
    return out


def oracle_algebras(standard_corpus):
    q = [alg for algebras in standard_corpus.values() for alg in algebras]
    return q + reduced_corpus(standard_corpus, 3) + reduced_corpus(standard_corpus, 5)


def column_construction(alg, a, b, formula):
    """The six- or two-term map built column by column, each column a
    signed sum of products through Algebra.multiply."""
    field = alg.field
    cols = []
    for k in range(alg.dim):
        x = alg.basis_vector(k)
        ax, xa = alg.multiply(a, x), alg.multiply(x, a)
        bx, xb = alg.multiply(b, x), alg.multiply(x, b)
        if formula == "six":
            terms = [(+1, a, bx), (+1, b, ax), (+1, ax, b),
                     (-1, a, xb), (-1, xb, a), (-1, xa, b)]
        else:
            terms = [(+1, a, bx), (-1, xa, b)]
        acc = alg.zero_vector()
        for sign, u, v in terms:
            prod = alg.multiply(u, v)
            acc = vec_add(field, acc, prod) if sign > 0 else vec_sub(field, acc, prod)
        cols.append(acc)
    return Matrix(field, tuple(zip(*cols)))


def seeded_matrix(alg, rnd):
    if alg.field.is_finite:
        return Matrix(alg.field, tuple(tuple(rnd.randrange(alg.field.p) for _ in range(alg.dim))
                                       for _ in range(alg.dim)))
    return Matrix(alg.field, tuple(tuple(Fraction(rnd.randint(-2, 2), rnd.randint(1, 3))
                                         for _ in range(alg.dim)) for _ in range(alg.dim)))


def test_builders_match_column_construction_over_q_and_fp(standard_corpus):
    for alg in oracle_algebras(standard_corpus):
        vecs = alg.basis_vectors() + seeded_vectors(alg, 3)
        for a in vecs:
            for b in vecs:
                six = column_construction(alg, a, b, "six")
                two = column_construction(alg, a, b, "two")
                assert derivation_six_term(alg, a, b) == six, alg.name
                assert derivation_two_term(alg, a, b) == two, alg.name


def test_leibniz_verdict_and_witness_match_basis_pair_oracle(standard_corpus):
    """check_derivation against plain loops over the tensor: the same
    verdict, the same first failing pair (row-major), the same sides."""
    rnd = random.Random(RANDOM_SEED)
    failures = 0
    for alg in oracle_algebras(standard_corpus):
        p = alg.field.p if alg.field.is_finite else None
        vecs = seeded_vectors(alg, 2)
        candidates = [derivation_six_term(alg, vecs[0], vecs[1]),
                      derivation_two_term(alg, vecs[1], vecs[0]),
                      Matrix.identity(alg.field, alg.dim)]
        candidates += [seeded_matrix(alg, rnd) for _ in range(4)]
        for deriv in candidates:
            verdict = check_derivation(alg, deriv).verdicts[0]
            expected = ref_leibniz_witness(alg.tensor, p, deriv.rows)
            assert verdict.passed == (expected is None), alg.name
            if expected is None:
                continue
            failures += 1
            i, j, lhs, rhs = expected
            w = verdict.concrete_witness
            assert w.assignment == (("x", alg.basis_vector(i)), ("y", alg.basis_vector(j)))
            assert (w.lhs, w.rhs) == (lhs, rhs), alg.name
            assert revalidate_leibniz(alg, deriv, verdict)
    assert failures > 0


# --- the six-term vs two-term relation on Jordan algebras -------------------
#
# On any commutative algebra the six terms collapse pairwise to
# b(ax) - (xb)a, which is the two-term map with its arguments swapped
# (equivalently, its negative).  Literal equality six(a, b) == two(a, b)
# instead requires the left-multiplication operators of a and b to
# commute, which fails already in the Jordan algebra of 2x2 matrices.

def test_six_term_is_argument_swapped_two_term_on_jordan(standard_corpus):
    for alg in standard_corpus["jordan"]:
        vecs = alg.basis_vectors() + seeded_vectors(alg, 5)
        for a in vecs:
            for b in vecs:
                six = derivation_six_term(alg, a, b)
                assert six == derivation_two_term(alg, b, a), alg.name
                neg_two = Matrix(
                    alg.field,
                    tuple(tuple(alg.field.normalize(-x) for x in row)
                          for row in derivation_two_term(alg, a, b).rows),
                )
                assert six == neg_two, alg.name


def test_literal_six_equals_two_fails_on_matrix_jordan_algebra():
    """The counterexample pinning the sign: a = E11, b = E12, x = E22 in
    the symmetrized 2x2 matrix algebra gives six = -two != two."""
    alg = corpus.jordan_matrix_2x2()
    a, b = alg.basis_vector(0), alg.basis_vector(1)
    six = derivation_six_term(alg, a, b)
    two = derivation_two_term(alg, a, b)
    assert six != two
    x = alg.basis_vector(3)  # E22
    assert mat_vec(six, x) == (0, Fraction(-1, 4), 0, 0)
    assert mat_vec(two, x) == (0, Fraction(1, 4), 0, 0)


def test_derivation_status_on_classified_structures_is_recorded(capsys):
    """Whether the constructions stay derivations on arbitrary UJLA
    structures is measured and reported as data, not asserted."""
    result = enumerate_ujla(SearchSpec(2, 2))
    total = ok6 = ok2 = 0
    for alg in result.representative_algebras():
        assert check_ujla(alg).passed
        for i in range(alg.dim):
            for j in range(alg.dim):
                a, b = alg.basis_vector(i), alg.basis_vector(j)
                total += 1
                ok6 += check_derivation(alg, derivation_six_term(alg, a, b)).passed
                ok2 += check_derivation(alg, derivation_two_term(alg, a, b)).passed
    print(f"\nclassified F2 structures: six-term derivation on {ok6}/{total} "
          f"basis pairs, two-term on {ok2}/{total}")
    assert total == 4 * result.class_count


def test_negative_control_is_not_asserted():
    from ujla.classify import tensor_algebra

    alg = tensor_algebra(2, 2, (0, 0, 0, 0, 0, 1, 0, 0))
    assert not check_ujla(alg).passed
    a, b = alg.basis_vector(0), alg.basis_vector(1)
    report = check_derivation(alg, derivation_six_term(alg, a, b))
    assert report.semantics == "polynomial"
    if not report.passed:
        assert revalidate_leibniz(alg, derivation_six_term(alg, a, b), report.verdicts[0])


def test_dimension_mismatch_errors(dual):
    with pytest.raises(ValueError):
        derivation_six_term(dual, (1,), (0, 1))
    with pytest.raises(ValueError):
        derivation_two_term(dual, (1, 0), (1,))
    with pytest.raises(ValueError):
        check_derivation(dual, Matrix.identity(QQ, 3))
