import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from operator_oracle import dense_oracle, lift13_via_composition, oracle_lifts
from strategies import matrices, prime_fields
from ujla import corpus
from ujla.fields import PrimeField, QQ, integral
from ujla.linalg import Matrix, integer_grid, mat_mul
from ujla.yang_baxter import (
    TensorSquareOperator,
    _lift_rows,
    _row,
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
    op = TensorSquareOperator(QQ, 2, m)
    report = check_braid(op)
    assert not report.braid_ok
    assert report.first_mismatch == dense_oracle(op)[1] == (0, 0, Fraction(1), Fraction(2))


# --- lifts, braid and QYBE against the dense Kronecker oracle ---------------

def seeded_operators(field, dim, count):
    """The identity, the twist and seeded random operators: dense ones and
    twists or identities with a few entries changed."""
    rng = random.Random(f"{field.label}:{dim}")
    values = [0, 1, -1, 2, Fraction(1, 2)] if field == QQ else list(range(field.p))
    ops = [identity_operator(field, dim), twist(field, dim)]
    side = dim * dim
    for n in range(count):
        rows = [list(row) for row in ops[n % 2].matrix.rows]
        if n % 3 == 0:
            rows = [[rng.choice(values) for _ in range(side)] for _ in range(side)]
        for _ in range(n % 3):
            rows[rng.randrange(side)][rng.randrange(side)] = rng.choice(values)
        ops.append(TensorSquareOperator(field, dim, Matrix.from_rows(field, rows)))
    return ops


@pytest.mark.parametrize("field", [QQ, PrimeField(3), F5], ids=str)
def test_lifts_and_mismatches_match_dense_oracle(field):
    failing = total = 0
    for dim, count in ((1, 3), (2, 9), (3, 2)):
        for op in seeded_operators(field, dim, count):
            lifts, braid, qybe = dense_oracle(op)
            for pos, expected in lifts.items():
                assert lift(op, pos) == expected, (dim, pos)
            b, q = check_braid(op), check_qybe(op)
            assert (b.braid_ok, b.first_mismatch) == (braid is None, braid), op
            assert (q.qybe_ok, q.first_mismatch) == (qybe is None, qybe), op
            failing += not b.braid_ok
            total += 1
    assert total > failing >= total / 3


def _int_rows(m, scale):
    return [[int(x * scale) for x in row] for row in m.rows]


def _dense_int_product(a, b, p):
    """Row-by-column product of two integer grids, reduced mod p when p > 0."""
    cols = list(zip(*b))
    rows = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[x % p for x in row] for row in rows] if p else rows


def _product(left, right, p):
    """Every row of left * right through the kernel's row step."""
    return [_row(row, right, p) for row in left]


def _sparse(rows):
    """The kernel's row form of a dense grid: each row's (column, value)
    pairs of its nonzero entries, columns increasing."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slot_application_matches_dense_oracle_lifts(field, dim):
    """The sparse lift of R at each slot pair is the oracle's lift in
    integers; times the identity grid it gives the same rows, and times
    the rows of another lift, the rows of the oracle's product of the two
    (mod p over F_p), with no zero entry kept."""
    side, n, p = dim ** 3, dim * dim, field.characteristic
    identity = _sparse([[int(i == j) for j in range(side)] for i in range(side)])
    for op in seeded_operators(field, dim, 2):
        flat, scale = integral([x for row in op.matrix.rows for x in row])
        ints = [flat[i:i + n] for i in range(0, n * n, n)]
        lifts = {pos: _int_rows(m, scale) for pos, m in oracle_lifts(op).items()}
        for pos, expected in lifts.items():
            rows = _lift_rows(ints, dim, pos)
            assert rows == _sparse(expected), pos
            assert _product(rows, identity, p) == _sparse(expected), pos
            for inner, grid in lifts.items():
                product = _sparse(_dense_int_product(expected, grid, p))
                assert _product(rows, _sparse(grid), p) == product, (pos, inner)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_perturbed_twist_has_late_first_mismatches(field):
    """One entry of the d = 3 twist changed in its last row block: the first
    braid mismatch lies in the last row of the 27 x 27 products and the
    first QYBE one past their first quarter, and both are the oracle's."""
    d = 3
    rows = [list(row) for row in twist(field, d).matrix.rows]
    rows[8][7] = Fraction(-3, 2)
    op = TensorSquareOperator(field, d, Matrix.from_rows(field, rows))
    _, braid, qybe = dense_oracle(op)
    b, q = check_braid(op), check_qybe(op)
    assert (b.first_mismatch, q.first_mismatch) == (braid, qybe)
    assert braid[:2] == (26, 22) and qybe[:2] == (8, 21)


FRACTIONS = (0, 1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 6), Fraction(-7, 4))


def fractional_operators(field, dim, count):
    """Seeded operators with entries from FRACTIONS over Q (residues over
    F_p): nonzero multiples of the identity and the twist, which satisfy
    braid and QYBE, the same with one or two entries changed, and dense ones."""
    rng = random.Random(f"fractional:{field.label}:{dim}")
    values = FRACTIONS if field == QQ else tuple(range(field.p))
    side = dim * dim
    ops = []
    for n in range(count):
        base = (twist if n % 2 else identity_operator)(field, dim)
        c = rng.choice(values[1:])
        rows = [[c * x for x in row] for row in base.matrix.rows]
        if n % 4 == 3:
            rows = [[rng.choice(values) for _ in range(side)] for _ in range(side)]
        for _ in range(n % 4 % 3):
            rows[rng.randrange(side)][rng.randrange(side)] = rng.choice(values)
        ops.append(TensorSquareOperator(field, dim, Matrix.from_rows(field, rows)))
    return ops


def family_operators(field, params):
    """The associative family on the dual numbers for each (alpha, beta,
    gamma) and the Lie family on the Heisenberg algebra at alpha = the
    first alpha, z central."""
    dual, heis = corpus.dual_numbers(field), corpus.heisenberg(field)
    ops = [build_assoc_yb(dual, *abc) for abc in params]
    ops.append(build_lie_yb(heis, params[0][0], center(heis)[0]))
    return ops


def test_integer_kernel_matches_dense_oracle_on_fractional_operators():
    """The integer lift products, scaled by the lcm L of R's denominators
    (up to 12 here) and reduced mod p over F_p, give the oracle's verdicts
    and first mismatches, with Fraction scalars over Q and residues over F_p."""
    member = (Fraction(2, 3), Fraction(-7, 4), Fraction(2, 3))  # case (i)
    non_member = (Fraction(1, 2), Fraction(5, 6), Fraction(-3, 2))
    cases = {
        QQ: fractional_operators(QQ, 2, 8) + fractional_operators(QQ, 3, 4)
        + fractional_operators(QQ, 4, 4) + family_operators(QQ, (member, non_member)),
        PrimeField(3): fractional_operators(PrimeField(3), 2, 8)
        + fractional_operators(PrimeField(3), 3, 4),
        F5: fractional_operators(F5, 2, 8) + family_operators(F5, (member, non_member)),
    }
    outcomes = set()
    for field, ops in cases.items():
        for op in ops:
            _, braid, qybe = dense_oracle(op)
            b, q = check_braid(op), check_qybe(op)
            assert (b.braid_ok, b.first_mismatch) == (braid is None, braid), op
            assert (q.qybe_ok, q.first_mismatch) == (qybe is None, qybe), op
            outcomes |= {("braid", b.braid_ok), ("qybe", q.qybe_ok)}
            for mismatch in (b.first_mismatch, q.first_mismatch):
                if mismatch is None:
                    continue
                for x in mismatch[2:]:
                    if field == QQ:
                        assert type(x) is Fraction, mismatch
                    else:
                        assert type(x) is int and 0 <= x < field.p, mismatch
    assert outcomes == {(w, ok) for w in ("braid", "qybe") for ok in (True, False)}


def edge_operators(field, dim):
    """Operators by name for the kernel's sparse paths: the zero operator,
    one nonzero entry, a sparse operator with one all-zero row, c times
    the twist and the identity, and a cancelling operator: the associative
    family on k[x]/(x^d) at alpha = beta = gamma = c.  Its entries are c
    and -c, and from d = 3 on some intermediate products cancel, to
    exactly 0 over Q and to a multiple of p over F_p, in one of the two
    products compared but not the other.  Over Q the entries and c = -2/3
    are negative or fractional, so L > 1; over F_p, c = -1."""
    rng = random.Random(f"edge:{field.label}:{dim}")
    side = dim * dim
    values = (Fraction(-3, 2), Fraction(2, 3), -1, Fraction(5, 6)) if field == QQ else range(1, field.p)
    c = Fraction(-2, 3) if field == QQ else field.p - 1
    single = [[0] * side for _ in range(side)]
    single[rng.randrange(side)][rng.randrange(side)] = rng.choice(values)
    zero_row = [[rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(side)]
                for _ in range(side)]
    zero_row[rng.randrange(side)] = [0] * side
    rows = {
        "zero": [[0] * side for _ in range(side)],
        "single": single,
        "zero row": zero_row,
        "twist": [[c * x for x in row] for row in twist(field, dim).matrix.rows],
        "identity": [[c * x for x in row] for row in identity_operator(field, dim).matrix.rows],
        "cancel": build_assoc_yb(corpus.truncated_polynomials(field, dim), c, c, c).matrix.rows,
    }
    return {name: TensorSquareOperator(field, dim, Matrix.from_rows(field, r)) for name, r in rows.items()}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F5], ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sparse_kernel_matches_dense_oracle_on_edge_operators(field, dim):
    """lift at all three positions, and the verdicts and exact first
    mismatches of check_braid and check_qybe, equal the dense oracle's on
    every edge operator.  On the cancelling operator braid holds, so a
    zero entry kept in a sparse row of one product and not of the other
    shows as a false mismatch; from d = 3 on QYBE fails where the
    right-hand product is 0."""
    ops = edge_operators(field, dim)
    for name, op in ops.items():
        lifts, braid, qybe = dense_oracle(op)
        for pos, expected in lifts.items():
            assert lift(op, pos) == expected, (name, pos)
        b, q = check_braid(op), check_qybe(op)
        assert (b.braid_ok, b.first_mismatch) == (braid is None, braid), name
        assert (q.qybe_ok, q.first_mismatch) == (qybe is None, qybe), name
        if name in ("zero", "twist", "identity"):
            assert b.braid_ok and q.qybe_ok, name
        elif name == "zero row" and dim > 1:
            assert not b.braid_ok and not q.qybe_ok, name
        elif name == "cancel":
            assert b.braid_ok, name
            if dim >= 3:
                assert not q.qybe_ok and q.first_mismatch[3] == 0, name


def _kernel_products(op, lhs_word, rhs_word, stop):
    """Products the row-by-row kernel forms for lhs_word as a*(b*c) and
    rhs_word as (a'*b')*c' through output row stop, counted on the
    oracle's lifts.  A row of a product costs the nonzero entries of the
    right factor's rows that its left row's nonzero entries select; the
    rows of b*c that the rows of a read and the rows of a'*b' that the
    right side reads are each formed once, in one set when the two pairs
    are the same."""
    lifts = oracle_lifts(op)
    (a, b, c), (a2, b2, c2) = lhs_word, rhs_word
    grids = {**lifts, **{key: mat_mul(lifts[key[0]], lifts[key[1]]) for key in ((b, c), (a2, b2))}}
    nnz = {key: [sum(1 for x in row if x) for row in m.rows] for key, m in grids.items()}

    def support(key, u):
        return [v for v, x in enumerate(grids[key].rows[u]) if x]

    def cost(left, right, u):
        return sum(nnz[right][v] for v in support(left, u))

    rows = range(stop + 1)
    formed = {((b, c), v) for u in rows for v in support(a, u)} | {((a2, b2), u) for u in rows}
    return (sum(cost(a, (b, c), u) + cost((a2, b2), c2, u) for u in rows)
            + sum(cost(key[0], key[1], v) for key, v in formed))


def test_kernel_forms_one_product_per_selected_nonzero(monkeypatch):
    """Where braid holds the kernel forms R23*R12 once, then R12 times it
    and it times R23; QYBE forms R13*R23 and R23*R13.  A failing relation
    forms only the rows up to its first differing row and the rows of the
    pair products that they read.  Each row costs the nonzero entries of
    the rows its nonzero entries select, counted here on the oracle's
    lifts; that is at most 4 * d^4 * nnz(R) per check, and strictly less on
    the twist, single-entry, zero-row and cancelling operators.  The
    kernel's products are counted through R's integer entries, a factor
    of every product it forms."""
    count = [0]

    class Counted(int):
        def __mul__(self, other):
            count[0] += 1
            return int.__mul__(self, other)

        __rmul__ = __mul__

    def counted_grid(matrix):
        rows, scale = integer_grid(matrix)
        return [[Counted(x) for x in row] for row in rows], scale

    monkeypatch.setattr("ujla.yang_baxter.integer_grid", counted_grid)
    cases = [(edge_operators(QQ, 3), ("twist", "cancel")), (edge_operators(QQ, 2), ("zero",)),
             (edge_operators(PrimeField(2), 3), ("zero row", "cancel")),
             (edge_operators(F5, 4), ("single", "zero row", "cancel"))]
    ops = [(name, ops[name]) for ops, names in cases for name in names]
    ops.append(("dense", fractional_operators(QQ, 2, 4)[3]))
    words = {check_braid: ((12, 23, 12), (23, 12, 23)), check_qybe: ((12, 13, 23), (23, 13, 12))}
    stops = set()
    for name, op in ops:
        last = op.dim ** 3 - 1
        bound = 4 * op.dim ** 4 * sum(1 for row in op.matrix.rows for x in row if x)
        _, *mismatches = dense_oracle(op)
        for (check, pair), mismatch in zip(words.items(), mismatches):
            count[0] = 0
            check(op)
            stop = last if mismatch is None else mismatch[0]
            expected = _kernel_products(op, *pair, stop)
            assert count[0] == expected <= bound, (name, check.__name__)
            assert expected < bound or name in ("zero", "dense"), (name, check.__name__)
            if stop < last:
                assert expected < _kernel_products(op, *pair, last), (name, check.__name__)
            stops.add(stop < last)
    assert stops == {True, False}


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


def test_from_columns_rejects_wrong_shapes():
    for columns in ([[1, 2, 3, 4]] * 3, [[1, 2, 3, 4]] * 3 + [[1, 2, 3, 4, 5]], [[1, 2, 3]] * 4):
        with pytest.raises(ValueError):
            TensorSquareOperator.from_columns(QQ, 2, columns)
    assert TensorSquareOperator.from_columns(QQ, 2, [[1, 0, 0, 0]] * 4).matrix.column(3) == (1, 0, 0, 0)


def test_operator_equality_is_structural():
    assert twist(QQ, 2) == twist(QQ, 2)
    assert twist(QQ, 2) != identity_operator(QQ, 2)
