import itertools
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from strategies import matrices, prime_fields
from ujla import corpus
from ujla.fields import PrimeField, QQ
from ujla.linalg import Matrix, kron, mat_mul
from ujla.yang_baxter import (
    TensorSquareOperator,
    build_assoc_yb,
    build_lie_yb,
    center,
    check_braid,
    check_qybe,
    classify_params,
    compose,
    identity_operator,
    lift,
    twist,
)

F5 = PrimeField(5)


def random_operator(field, dim, data):
    return TensorSquareOperator(field, dim, data.draw(matrices(field, dim * dim, dim * dim)))


# --- twist and lifts --------------------------------------------------------

def test_twist_dim_one_is_identity():
    assert twist(QQ, 1) == identity_operator(QQ, 1)


def test_twist_dim_two_permutation():
    t = twist(QQ, 2)
    cols = [t.matrix.column(i) for i in range(4)]
    one, zero = Fraction(1), Fraction(0)
    assert cols[0] == (one, zero, zero, zero)
    assert cols[1] == (zero, zero, one, zero)
    assert cols[2] == (zero, one, zero, zero)
    assert cols[3] == (zero, zero, zero, one)


def test_twist_is_an_involution():
    t = twist(QQ, 3)
    assert compose(t, t) == identity_operator(QQ, 3)


def test_lift_of_identity():
    ident = identity_operator(QQ, 2)
    for pos in (12, 23, 13):
        assert lift(ident, pos) == Matrix.identity(QQ, 8)


def test_lift_positions_disjoint_slots():
    t = twist(QQ, 2)
    d = 2
    # lift(tau, 13) must permute slots 1 and 3: e_i (x) e_j (x) e_k -> e_k (x) e_j (x) e_i
    m = lift(t, 13)
    for i, j, k in itertools.product(range(d), repeat=3):
        col = m.column(i * d * d + j * d + k)
        expected = tuple(
            Fraction(1) if r == k * d * d + j * d + i else Fraction(0)
            for r in range(d ** 3)
        )
        assert col == expected


def test_lift12_is_kronecker_padding():
    t = twist(QQ, 2)
    m = lift(t, 12)
    d = 2
    for i, j, k in itertools.product(range(d), repeat=3):
        col = m.column(i * d * d + j * d + k)
        hot = j * d * d + i * d + k
        assert col[hot] == 1 and sum(1 for x in col if x != 0) == 1


def lift13_via_composition(r):
    """The 13-lift as (I (x) tau)(R (x) I)(I (x) tau)."""
    d = r.dim
    field = r.field
    i_tau = kron(Matrix.identity(field, d), twist(field, d).matrix)
    r_i = kron(r.matrix, Matrix.identity(field, d))
    return mat_mul(i_tau, mat_mul(r_i, i_tau))


@given(prime_fields, st.data())
def test_lift13_matches_composition_formula(field, data):
    op = random_operator(field, 2, data)
    assert lift(op, 13) == lift13_via_composition(op)


def test_lift_rejects_unknown_position():
    with pytest.raises(ValueError):
        lift(identity_operator(QQ, 2), 31)


# --- braid and QYBE ----------------------------------------------------------

def test_twist_and_identity_satisfy_braid():
    for op in (twist(QQ, 2), twist(QQ, 3), identity_operator(QQ, 2)):
        report = check_braid(op)
        assert report.braid_ok and report.invertible and report.is_yang_baxter


def test_twist_satisfies_qybe():
    assert check_qybe(twist(QQ, 2)).qybe_ok
    assert check_qybe(identity_operator(QQ, 3)).qybe_ok


def test_braid_failure_reports_first_mismatch():
    m = Matrix.from_rows(QQ, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
    report = check_braid(TensorSquareOperator(QQ, 2, m))
    assert not report.braid_ok
    r, c, lhs, rhs = report.first_mismatch
    assert lhs != rhs


# --- the associative family ---------------------------------------------------

def test_assoc_family_on_dual_numbers(dual):
    r = build_assoc_yb(dual, 1, 1, 1)
    # R(x (x) x) = x^2 (x) 1 + 1 (x) x^2 - x (x) x = -(x (x) x)
    assert r.matrix.column(3) == (0, 0, 0, Fraction(-1))
    # R(1 (x) x) = x (x) 1 + 1 (x) x - 1 (x) x = x (x) 1
    assert r.matrix.column(1) == (0, 0, Fraction(1), 0)
    report = check_braid(r)
    assert report.is_yang_baxter


def test_assoc_family_braid_against_explicit_products(dual):
    """8x8 oracle: build the lifts out of explicit Kronecker blocks and
    multiply them with plain Fraction arithmetic."""
    r = build_assoc_yb(dual, 1, 1, 1)
    rm = [[Fraction(x) for x in row] for row in r.matrix.rows]
    ident = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]

    def kron(a, b):
        na, nb = len(a), len(b)
        return [
            [a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb)]
            for i in range(na * nb)
        ]

    def matmul(a, b):
        n = len(a)
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    r12 = kron(rm, ident)
    r23 = kron(ident, rm)
    lhs = matmul(r12, matmul(r23, r12))
    rhs = matmul(r23, matmul(r12, r23))
    assert lhs == rhs
    assert [[Fraction(x) for x in row] for row in lift(r, 12).rows] == r12
    assert [[Fraction(x) for x in row] for row in lift(r, 23).rows] == r23


def test_zero_zero_minus_one_gives_identity(dual):
    assert build_assoc_yb(dual, 0, 0, -1) == identity_operator(QQ, 2)


def test_assoc_family_requires_a_unit(heis):
    with pytest.raises(ValueError, match="unit"):
        build_assoc_yb(heis, 1, 1, 1)


def test_assoc_family_warns_on_non_associative_input():
    from ujla.algebra import algebra_from_products
    from ujla.axioms import check_associative

    # the cross product with a unit adjoined: unital but (e1*e1)*e2 = 0
    # while e1*(e1*e2) = -e2
    products = {(0, j): {j: 1} for j in range(4)}
    products.update({(i, 0): {i: 1} for i in range(1, 4)})
    products.update({
        (1, 2): {3: 1}, (2, 1): {3: -1},
        (2, 3): {1: 1}, (3, 2): {1: -1},
        (3, 1): {2: 1}, (1, 3): {2: -1},
    })
    weird = algebra_from_products(
        "unital-cross", QQ, ["1", "e1", "e2", "e3"], products, unit=[1, 0, 0, 0],
    )
    assert not check_associative(weird).passed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_assoc_yb(weird, 1, 1, 1)
    assert any("not associative" in str(w.message) for w in caught)


def test_classify_params_cases():
    assert classify_params(QQ, 1, 2, 1) == "i"
    assert classify_params(QQ, 2, 2, 2) == "i"  # precedence on the overlap
    assert classify_params(QQ, 1, 3, 3) == "ii"
    assert classify_params(QQ, 0, 0, 3) == "iii"
    assert classify_params(QQ, 1, 2, 3) is None
    assert classify_params(QQ, 0, 0, 0) is None
    assert classify_params(F5, 6, 2, 1) == "i"  # 6 = 1 in F_5


def test_trichotomy_sweep_dual_numbers_f5():
    alg = corpus.dual_numbers(F5)
    for alpha, beta, gamma in itertools.product(range(5), repeat=3):
        op = build_assoc_yb(alg, alpha, beta, gamma)
        report = check_braid(op)
        expected = classify_params(F5, alpha, beta, gamma) is not None
        assert report.is_yang_baxter == expected, (alpha, beta, gamma)


# --- the Lie family -----------------------------------------------------------

def test_center_of_abelian_algebra():
    basis = center(corpus.abelian_lie(3))
    assert len(basis) == 3


def test_center_of_heisenberg(heis):
    assert center(heis) == [(0, 0, Fraction(1))]


def test_center_of_commutator_of_upper_triangular(upper2):
    from ujla.transforms import commutator

    basis = center(commutator(upper2))
    # ad-kernel is spanned by E11 + E22 (the identity matrix)
    assert basis == [(Fraction(1), Fraction(0), Fraction(1))]


def test_center_requires_lie_input(dual):
    with pytest.raises(ValueError, match="lie.alt"):
        center(dual)


def test_lie_family_with_zero_z_is_twist(heis):
    assert build_lie_yb(heis, 1, heis.zero_vector()) == twist(QQ, 3)


def test_lie_family_braid_on_heisenberg(heis):
    z = center(heis)[0]
    for alpha in (0, 1, 2):
        report = check_braid(build_lie_yb(heis, alpha, z))
        assert report.braid_ok, alpha
        assert report.invertible


def test_lie_family_braid_across_the_lie_corpus(standard_corpus):
    """Every corpus Lie algebra, every central basis vector plus zero,
    alpha in {0, 1, 2}: the constructed operator satisfies the braid
    relation."""
    for alg in standard_corpus["lie"]:
        candidates = [alg.zero_vector()] + center(alg)
        for z in candidates:
            for alpha in (0, 1, 2):
                report = check_braid(build_lie_yb(alg, alpha, z))
                assert report.braid_ok, (alg.name, z, alpha)


def test_lie_family_rejects_non_central_z():
    s = corpus.sl2()
    with pytest.raises(ValueError, match=r"\[z, f\]"):
        build_lie_yb(s, 1, s.basis_vector(0))


def test_lie_family_rejects_non_lie_algebra(dual):
    with pytest.raises(ValueError, match="Lie algebra"):
        build_lie_yb(dual, 1, dual.zero_vector())


# --- braid / QYBE equivalence -------------------------------------------------

def _braid_qybe_equivalent(op):
    t = twist(op.field, op.dim)
    braid = check_braid(op).braid_ok
    return (
        braid == check_qybe(compose(op, t)).qybe_ok
        and braid == check_qybe(compose(t, op)).qybe_ok
    )


def test_equivalence_on_corpus_operators(dual, heis):
    ops = [
        twist(QQ, 2),
        identity_operator(QQ, 3),
        build_assoc_yb(dual, 1, 1, 1),
        build_lie_yb(heis, 1, center(heis)[0]),
    ]
    for op in ops:
        assert _braid_qybe_equivalent(op)


@settings(max_examples=40)
@given(prime_fields, st.data())
def test_equivalence_on_random_operators(field, data):
    """Braid for R is equivalent to QYBE for R composed with the twist,
    whether or not R satisfies either equation."""
    op = random_operator(field, 2, data)
    assert _braid_qybe_equivalent(op)


def test_operator_equality_is_structural():
    assert twist(QQ, 2) == twist(QQ, 2)
    assert twist(QQ, 2) != identity_operator(QQ, 2)
