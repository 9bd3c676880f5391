import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from strategies import prime_fields
from ujla import corpus
from ujla.algebra import (
    Algebra,
    algebra_from_matrix_basis,
    algebra_from_products,
)
from ujla.axioms import ASSOC, LIE_ALT, UJLA_1
from ujla.derivations import (
    check_derivation,
    derivation_six_term,
    derivation_two_term,
    revalidate_leibniz,
)
from ujla.cli import run
from ujla.fields import QQ, PrimeField, coerce, integer, parse_field
from ujla.fileformat import dumps_algebra, load_algebra_file, loads_algebra
from ujla.formal import Poly
from ujla.identities import (
    ConcreteWitness,
    IdentitySpec,
    Verdict,
    check_identity,
    evaluate_sides,
    revalidate_verdict,
)
from ujla.linalg import Matrix, mat_inverse, mat_kernel, mat_mul, mat_rank, solve
from ujla.transforms import deform
from ujla.yang_baxter import (
    TensorSquareOperator,
    build_assoc_yb,
    build_lie_yb,
    classify_params,
    compose,
    identity_operator,
    lift,
)

F5 = PrimeField(5)
# e*e = e over F_5: the map e -> x e is a derivation only at x = 0, and its
# Leibniz witness pair (e, e) has the sides x e and 2x e.
IDEMPOTENT = Algebra("idempotent", F5, 1, ("e",), (((1,),),))


def test_rational_arithmetic():
    assert QQ.normalize(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.normalize(Fraction(2, 3) * Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.normalize(-Fraction(1, 2)) == Fraction(-1, 2)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError, match="must be prime"):
        PrimeField(4)
    with pytest.raises(ValueError, match="must be prime"):
        parse_field("F10")
    with pytest.raises(ValueError, match="2\\^31"):
        PrimeField(2 ** 31 + 11)


def test_parse_field_labels():
    assert parse_field("Q") == QQ
    assert parse_field("F5") == PrimeField(5)
    with pytest.raises(ValueError):
        parse_field("R")


def test_scalar_parsing_and_formatting():
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.format(Fraction(5, 6)) == "5/6"
    assert QQ.format(Fraction(4, 2)) == "2"
    F5 = PrimeField(5)
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.parse("1/2") == 3
    assert F5.format(8) == "3"
    with pytest.raises(ValueError):
        QQ.parse("x")
    with pytest.raises(ValueError):
        F5.parse("a/b")
    assert F5.parse("4/3") == 3
    assert F5.parse("-4/3") == 2
    assert F5.parse("7/-2") == 4
    for zero_denominator in ("1/5", "3/10", "2/0"):
        with pytest.raises(ZeroDivisionError):
            F5.parse(zero_denominator)


def test_both_fields_read_one_literal_grammar():
    """An integer or n/d of two integers, in both fields; no decimals or
    exponents, and no integer past int()'s digit limit."""
    F5 = PrimeField(5)
    for text in ("3", "-3", "+3", " 4/3 ", "-4/3", "7/-2", "3/-4", "1/2", "10/14"):
        assert F5.parse(text) == F5.from_fraction(QQ.parse(text)), text
    assert QQ.parse("3/-4") == Fraction(-3, 4)
    for text in ("0.5", "1e3", "1e20000", "1e2000000", "7" * 5000, "1/" + "7" * 5000,
                 "", "x", "1/", "/2", "1/2/3", "1/2.0", "inf"):
        with pytest.raises(ValueError, match="invalid rational literal"):
            QQ.parse(text)
        with pytest.raises(ValueError, match="invalid F_5 literal"):
            F5.parse(text)
    with pytest.raises(ValueError, match="invalid rational literal"):
        QQ.parse("1/0")


# Text outside the literal grammar that int(), str.isdigit or a \d pattern
# reads as a number: underscores, Arabic-Indic and fullwidth digits, spaces
# inside, a leading zero in a field label.
NOT_LITERALS = {"underscore": "1_0", "arabic-indic": "\u0663", "fullwidth": "\uff11",
                "inner-spaces": "1 / 2"}
NOT_FIELD_LABELS = {"label-leading-zero": "F05", "label-arabic-indic": "F\u0663"}


def _file_with(key, value):
    obj = json.loads(dumps_algebra(corpus.dual_numbers()))
    if key == "constant":
        obj["constants"][1][1][1] = value
    else:
        obj[key] = value
    return json.dumps(obj)


def _exit_status(argv, capsys) -> int:
    status = run(argv)
    err = capsys.readouterr().err
    assert status != 2 or err.count("error: ") == 1, (argv, err)
    return status


@pytest.mark.parametrize("text", [*NOT_LITERALS.values(), *NOT_FIELD_LABELS.values()],
                         ids=[*NOT_LITERALS, *NOT_FIELD_LABELS])
def test_every_reader_rejects_text_outside_the_grammar(text, tmp_path, capsys):
    """Each reader of outside numbers that the text can reach rejects it:
    both parse methods, the scalar gate, integer options, identity
    coefficients, algebra-file constants and field labels, and the command
    line's scalar, coordinate, integer and field options (exit 2)."""
    path = tmp_path / "dual.alg"
    path.write_text(dumps_algebra(corpus.dual_numbers()))
    if text in NOT_FIELD_LABELS.values():
        rejecting = [lambda: parse_field(text), lambda: loads_algebra(_file_with("field", text))]
        argvs = [["yb", "params", "--alpha", "1", "--beta", "1", "--gamma", "1", "--field", text]]
    else:
        rejecting = [lambda: QQ.parse(text), lambda: F5.parse(text), lambda: coerce(QQ, text),
                     lambda: integer(text),
                     lambda: IdentitySpec.parse("t", f"{text}*(a*b) = 0", ("a", "b")),
                     lambda: loads_algebra(_file_with("constant", text))]
        argvs = [["yb", "params", "--alpha", text, "--beta", "1", "--gamma", "1"],
                 ["derivation", str(path), "--a", f"{text},0", "--b", "0,1", "--formula", "six"],
                 ["derive", str(path), "--via", "deform", "--alpha", text, "--beta", "0"],
                 ["classify", "--dim", text, "--prime", "2"],
                 ["classify", "--dim", "1", "--prime", "2", "--workers", text]]
    for read in rejecting:
        with pytest.raises(ValueError):
            read()
    assert [_exit_status(argv, capsys) for argv in argvs] == [2] * len(argvs)


def test_a_prime_field_literal_inverts_its_denominator_unreduced():
    """n/d over F_p is n times the inverse of d: a d that p divides is an
    error even when n/d reduces to an integer."""
    for text in ("5/5", "10/5", "0/5", "7/-10"):
        with pytest.raises(ZeroDivisionError, match="^0 has no multiplicative inverse in F_5$"):
            F5.parse(text)


def test_integer_options_read_the_integer_grammar():
    for text, value in (("3", 3), ("+3", 3), ("-3", -3), (" 4 ", 4), ("007", 7)):
        assert integer(text) == value, text
    for text in ("", "x", "1/2", "1.0", "1e3", "0x10", "- 3", "7" * 5000):
        with pytest.raises(ValueError):
            integer(text)


def test_both_fields_expose_one_interface():
    def public(field):
        return {name for name in dir(field) if not name.startswith("_")}

    assert public(PrimeField(5)) == public(QQ) | {"p"}
    assert public(QQ) == {
        "characteristic", "format", "from_fraction", "is_finite", "label",
        "normalize", "one", "parse", "replace", "zero",
    }


def test_from_fraction():
    F5 = PrimeField(5)
    assert F5.from_fraction(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        PrimeField(2).from_fraction(Fraction(1, 2))


@given(prime_fields, st.integers(), st.integers(), st.integers())
def test_prime_field_ring_axioms(field, a, b, c):
    norm = field.normalize
    a, b, c = norm(a), norm(b), norm(c)
    assert norm(a + b) == norm(b + a)
    assert norm(a * norm(b + c)) == norm(norm(a * b) + norm(a * c))
    assert norm(a + norm(-a)) == field.zero


@given(prime_fields, st.integers(min_value=0, max_value=100))
def test_prime_field_parse_roundtrip(field, n):
    x = field.normalize(n)
    assert field.parse(field.format(x)) == x


# Each API entry that takes scalars, probed for the one scalar it stores (or,
# for classify_params, the case it reports) when handed x over F_5.
SCALAR_ENTRIES = {
    "algebra_from_products": lambda x: algebra_from_products(
        "t", F5, ["e"], {(0, 0): {0: x}}).tensor[0][0][0],
    "algebra_from_products.unit": lambda x: algebra_from_products(  # e*e = e/3
        "t", F5, ["e"], {(0, 0): {0: 2}}, unit=[x]).unit[0],
    "algebra_from_matrix_basis": lambda x: algebra_from_matrix_basis(
        "t", F5, ["e"], [[[x]]]).tensor[0][0][0],
    "Algebra": lambda x: Algebra("t", F5, 1, ("e",), (((x,),),)).tensor[0][0][0],
    "Algebra.unit": lambda x: Algebra(  # e*e = e/3
        "t", F5, 1, ("e",), (((2,),),), unit=(x,)).unit[0],
    "Matrix": lambda x: Matrix(F5, ((x,),))[0, 0],
    "Matrix.from_rows": lambda x: Matrix.from_rows(F5, [[x]])[0, 0],
    "mat_mul": lambda x: mat_mul(Matrix(F5, ((x,),)), Matrix(F5, ((1,),)))[0, 0],
    "mat_rank": lambda x: mat_rank(Matrix(F5, ((x, 4), (1, 3)))),  # rank 1 at x = 3 only
    "mat_inverse": lambda x: mat_inverse(Matrix(F5, ((x,),)))[0, 0],
    "mat_kernel": lambda x: mat_kernel(Matrix(F5, ((x, 1),)))[0][1],
    "compose": lambda x: compose(identity_operator(F5, 1), TensorSquareOperator(
        F5, 1, Matrix(F5, ((x,),)))).matrix[0, 0],
    "lift": lambda x: lift(TensorSquareOperator(F5, 1, Matrix(F5, ((x,),))), 12)[0, 0],
    "TensorSquareOperator": lambda x: TensorSquareOperator(
        F5, 1, Matrix(F5, ((x,),))).matrix[0, 0],
    "TensorSquareOperator.from_columns": lambda x: TensorSquareOperator.from_columns(
        F5, 1, [[x]]).matrix[0, 0],
    "deform": lambda x: deform(corpus.dual_numbers(F5), x, 0).tensor[0][0][0],
    "build_assoc_yb": lambda x: build_assoc_yb(corpus.dual_numbers(F5), x, 0, 0).matrix[0, 0],
    "build_lie_yb": lambda x: build_lie_yb(corpus.heisenberg(F5), x, (0, 0, 1)).matrix[8, 1],
    "build_lie_yb.z": lambda x: build_lie_yb(corpus.heisenberg(F5), 1, (0, 0, x)).matrix[8, 1],
    "classify_params": lambda x: classify_params(F5, x, 1, 3),
    "solve": lambda x: solve(Matrix.identity(F5, 1), [x])[0],
    "derivation_six_term": lambda x: derivation_six_term(
        corpus.upper_triangular_2x2(F5), (x, 0, 0), (0, 1, 0))[1, 2],
    "derivation_two_term": lambda x: derivation_two_term(
        corpus.upper_triangular_2x2(F5), (1, 0, 0), (0, x, 0))[1, 2],
    "check_derivation": lambda x: check_derivation(
        IDEMPOTENT, Matrix(F5, ((x,),))).verdicts[0].concrete_witness.lhs[0],
    "revalidate_leibniz": lambda x: revalidate_leibniz(
        IDEMPOTENT, Matrix(F5, ((x,),)),
        check_derivation(IDEMPOTENT, Matrix(F5, ((3,),))).verdicts[0]),
    "revalidate_leibniz.x": lambda x: revalidate_leibniz(  # D = 3: 3x e against 6x e
        IDEMPOTENT, Matrix(F5, ((3,),)), Verdict("leibniz", False, "polynomial", concrete_witness=(
            ConcreteWitness((("x", (x,)), ("y", (1,))), (4,), (3,))))),
    "Algebra.multiply": lambda x: corpus.dual_numbers(F5).multiply((x, 0), (1, 0))[0],
    "evaluate_sides": lambda x: evaluate_sides(
        corpus.dual_numbers(F5), ASSOC, {"a": (x, 0), "b": (1, 0), "c": (1, 0)})[0][0],
    "revalidate_verdict": lambda x: revalidate_verdict(  # a*a = 0 at a = x e: x^2 e against 0
        IDEMPOTENT, Verdict("lie.alt", False, "polynomial", identity=LIE_ALT,
                            concrete_witness=ConcreteWitness((("a", (x,)),), (4,), (0,)))),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
def test_api_entries_share_one_scalar_gate(entry):
    probe = SCALAR_ENTRIES[entry]
    expected = probe(3)
    for x in (Fraction(1, 2), "1/2", 8, -2):
        got = probe(x)
        assert got == expected and type(got) is type(expected), x
    for bad in (0.5, 1.5, True, None, [3]):
        with pytest.raises(ValueError, match="scalar must be"):
            probe(bad)


def test_a_matrix_over_another_field_is_rejected():
    """An operator, the Leibniz check and its revalidation take a matrix
    over their own field only; they do not gate its entries again."""
    F3 = PrimeField(3)
    with pytest.raises(ValueError, match="operator over F5 given a matrix over F3"):
        TensorSquareOperator(F5, 1, Matrix(F3, ((1,),)))
    failing = check_derivation(IDEMPOTENT, Matrix(F5, ((3,),))).verdicts[0]
    for check in (lambda m: check_derivation(IDEMPOTENT, m),
                  lambda m: revalidate_leibniz(IDEMPOTENT, m, failing)):
        for other in (Matrix(F3, ((1,),)), Matrix(QQ, ((Fraction(1, 2),),))):
            with pytest.raises(ValueError, match=f"1x1 over F5, got 1x1 over {other.field}"):
                check(other)


def test_coerce_serves_both_fields():
    assert coerce(QQ, Fraction(1, 2)) == coerce(QQ, "1/2") == Fraction(1, 2)
    assert type(coerce(QQ, 3)) is Fraction
    assert coerce(PrimeField(7), Fraction(-1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        coerce(PrimeField(2), Fraction(1, 2))
    for bad in (0.1, False, 2 + 0j):
        with pytest.raises(ValueError):
            coerce(QQ, bad)


def test_rational_normalize_rejects_floats_and_bools():
    """normalize takes the field's own values only: ints and Fractions over
    Q, ints over F_p; never a bool, a float or a string, and over F_p no
    Fraction.  Poly.scale inherits the check."""
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.normalize(3)) is Fraction
    assert F5.normalize(-3) == 2
    for bad in (0.5, 0.1, True, False, "1.5", "1/2", None):
        with pytest.raises(ValueError):
            QQ.normalize(bad)
    for bad in (2.5, 2.0, True, False, Fraction(1, 2), Fraction(2), "2", None):
        with pytest.raises(ValueError):
            F5.normalize(bad)
    with pytest.raises(ValueError, match=r"scalar \(only ints"):
        Poly.variable(F5, 1, 0).scale(2.5)
    eye = Matrix.from_rows(QQ, [[1, 0], [0, 1]])
    assert solve(eye, [Fraction(1, 2), 3]) == (Fraction(1, 2), Fraction(3))
    for field in (QQ, F5):
        with pytest.raises(ValueError, match="scalar must be"):
            solve(Matrix.identity(field, 2), [0.5, 1])


def test_format_and_from_fraction_take_the_gated_values():
    """format takes what normalize takes, from_fraction an int or a
    Fraction (never a bool); anything else raises ValueError, and a zero
    denominator mod p keeps its ZeroDivisionError."""
    assert F5.format(-1) == "4" and QQ.format(2) == "2"
    assert QQ.from_fraction(3) == 3 and type(QQ.from_fraction(3)) is Fraction
    assert F5.from_fraction(3) == 3 and F5.from_fraction(Fraction(-1, 2)) == 2
    for bad in ("1.5", 0.5, True, None):
        with pytest.raises(ValueError):
            QQ.format(bad)
    for bad in (2.5, True, Fraction(1, 2), "2", None):
        with pytest.raises(ValueError):
            F5.format(bad)
    for field in (QQ, F5):
        for bad in (0.5, True, False, "1/2", None):
            with pytest.raises(ValueError):
                field.from_fraction(bad)
    with pytest.raises(ZeroDivisionError):
        F5.from_fraction(Fraction(1, 5))


@pytest.fixture
def coerce_calls(monkeypatch):
    """The count of fields.coerce calls, patched into every module that binds it."""
    calls = [0]

    def counted(field, x):
        calls[0] += 1
        return coerce(field, x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ujla" and getattr(module, "coerce", None) is coerce:
            monkeypatch.setattr(module, "coerce", counted)
    return calls


def test_values_the_library_builds_are_not_gated_again(coerce_calls):
    """Checks on an algebra that is already built gate nothing: the basis
    vectors, grid points and pointwise points they evaluate are the
    library's own integers, and the witnesses are those the field scalars
    give.  Loading a unital algebra gates its constants and its unit, and
    its unit check nothing."""
    # e1 e0 = e0/2: a*a = 0 fails at a = e0 + e1 but at no basis vector.
    half = Algebra("half", QQ, 2, ("e0", "e1"), (((0, 0), (0, 0)), ((Fraction(1, 2), 0), (0, 0))))
    f3 = Algebra("f3", PrimeField(3), 2, ("e0", "e1"), (((0, 0), (0, 1)), ((0, 0), (1, 2))))
    coerce_calls[0] = 0
    poly = check_identity(half, LIE_ALT)
    point = check_identity(f3, UJLA_1, "pointwise")
    assert coerce_calls[0] == 0
    w = poly.concrete_witness
    assert w == ConcreteWitness((("a", (1, 1)),), (Fraction(1, 2), 0), (0, 0))
    assert all(type(x) is Fraction for x in w.assignment[0][1] + w.lhs + w.rhs)
    cw = poly.coefficient_witness
    assert (cw.monomial_text, cw.coordinate, cw.lhs_coefficient, cw.rhs_coefficient) == (
        "a0*a1", 0, Fraction(1, 2), 0)
    assert point.concrete_witness == ConcreteWitness(
        (("a", (0, 1)), ("b", (0, 1)), ("c", (1, 0))), (1, 2), (1, 1))
    assert revalidate_verdict(half, poly) and revalidate_verdict(f3, point)
    unital = 0
    for path in sorted((pathlib.Path(__file__).parent.parent / "algebras").glob("*.alg")):
        coerce_calls[0] = 0
        alg = load_algebra_file(path)
        d = alg.dim
        assert coerce_calls[0] <= d ** 3 + 2 * d, path.name
        unital += alg.unit is not None
    assert unital >= 3
