import json
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from strategies import algebras
from ujla import corpus
from ujla.classify import SearchSpec, enumerate_ujla
from ujla.fileformat import (
    dumps_algebra,
    dumps_classification,
    dumps_operator,
    loads_algebra,
    loads_operator,
)
from ujla.yang_baxter import twist
from ujla.fields import QQ

DUAL_FILE = (
    '{ "name": "dual-numbers", "field": "Q", "dim": 2, "basis": ["1","x"], '
    '"unit": ["1","0"], '
    '"constants": [[["1","0"],["0","1"]],[["0","1"],["0","0"]]] }'
)


def test_dual_numbers_file_loads(dual):
    alg = loads_algebra(DUAL_FILE)
    assert alg.dim == 2
    assert alg.unit == (Fraction(1), Fraction(0))
    assert alg.tensor == dual.tensor
    assert alg.basis == ("1", "x")


def test_loads_accepts_bytes():
    assert loads_algebra(DUAL_FILE.encode()).name == "dual-numbers"


def test_roundtrip_for_every_corpus_algebra(standard_corpus):
    for algebras in standard_corpus.values():
        for alg in algebras:
            assert loads_algebra(dumps_algebra(alg)) == alg
    from ujla.fields import PrimeField

    for alg in (corpus.dual_numbers(PrimeField(5)), corpus.heisenberg(PrimeField(3))):
        assert loads_algebra(dumps_algebra(alg)) == alg


def test_non_prime_modulus_is_rejected():
    bad = DUAL_FILE.replace('"Q"', '"F4"')
    with pytest.raises(ValueError, match="must be prime"):
        loads_algebra(bad)


def test_wrong_unit_is_rejected_with_failing_product():
    bad = DUAL_FILE.replace('"unit": ["1","0"]', '"unit": ["0","1"]')
    with pytest.raises(ValueError, match="not a unit"):
        loads_algebra(bad)


def test_malformed_files_are_rejected():
    with pytest.raises(ValueError, match="not a valid algebra file"):
        loads_algebra("{ not json")
    with pytest.raises(ValueError, match="missing"):
        loads_algebra('{"name": "x"}')
    with pytest.raises(ValueError, match="basis labels"):
        loads_algebra(DUAL_FILE.replace('["1","x"]', '["1"]'))
    with pytest.raises(ValueError, match="2x2x2"):
        loads_algebra(DUAL_FILE.replace('[[["1","0"],["0","1"]],[["0","1"],["0","0"]]]', "[]"))
    with pytest.raises(ValueError, match="dimension"):
        loads_algebra(DUAL_FILE.replace('"dim": 2', '"dim": 0'))
    with pytest.raises(ValueError, match="dimension"):
        loads_algebra(DUAL_FILE.replace('"dim": 2', '"dim": true'))
    with pytest.raises(ValueError, match="field label"):
        loads_algebra(DUAL_FILE.replace('"Q"', "5"))
    with pytest.raises(ValueError, match="basis labels"):
        loads_algebra(DUAL_FILE.replace('["1","x"]', "5"))
    with pytest.raises(ValueError, match="2x2x2"):
        loads_algebra(DUAL_FILE.replace('[[["1","0"],["0","1"]],[["0","1"],["0","0"]]]', "[[1]]"))
    with pytest.raises(ValueError, match="2x2x2"):
        loads_algebra(DUAL_FILE.replace('[[["1","0"],["0","1"]],[["0","1"],["0","0"]]]',
                                        '[[1, 2], [3, 4]]'))
    with pytest.raises(ValueError, match="unit vector"):
        loads_algebra(DUAL_FILE.replace('["1","0"]', '"10"', 1))
    # Names and basis labels are JSON strings, never stringified values.
    for bad in ('{"x": 1}', "7", "null", "true"):
        with pytest.raises(ValueError, match="name must be a string"):
            loads_algebra(DUAL_FILE.replace('"dual-numbers"', bad))
        with pytest.raises(ValueError, match="labels must be strings"):
            loads_algebra(DUAL_FILE.replace('["1","x"]', f'["1", {bad}]'))
    one_dim = ('{"name": "s", "field": "Q", "dim": 1, "basis": ["1"], '
               '"constants": [[1]]}')
    with pytest.raises(ValueError, match="1x1x1"):
        loads_algebra(one_dim)
    # Scalars are strings or integers; a float would lose digits on the way in.
    for bad in ("12345678901234567891.0", "0.5", "true", "null", '{"n": 1}'):
        with pytest.raises(ValueError, match="scalar must be"):
            loads_algebra(one_dim.replace("[[1]]", f"[[[{bad}]]]"))
        with pytest.raises(ValueError, match="scalar must be"):
            loads_algebra(DUAL_FILE.replace('"unit": ["1","0"]', f'"unit": [{bad}, "0"]'))
    assert loads_algebra(one_dim.replace("[[1]]", "[[[12345678901234567891]]]")).tensor == (
        ((Fraction(12345678901234567891),),),)


def test_scalar_strings_are_validated():
    bad = DUAL_FILE.replace('"1","0"', '"1","zebra"', 1)
    with pytest.raises(ValueError, match="invalid rational"):
        loads_algebra(bad)
    # Decimals, exponents and integers past int()'s digit limit are not
    # literals: "1e20000" must not load as a 20,001-digit constant.
    for literal in ("0.5", "1e3", "1e20000", "7" * 5000):
        with pytest.raises(ValueError, match="invalid rational literal"):
            loads_algebra(DUAL_FILE.replace('["0","0"]', f'["0","{literal}"]'))


def test_operator_roundtrip():
    op = twist(QQ, 2)
    text = dumps_operator(op, name="tau")
    obj = json.loads(text)
    assert obj["kind"] == "tensor-square-operator"
    assert obj["convention"] == "column-major-basis-image"
    assert loads_operator(text) == op


def test_operator_convention_is_enforced():
    text = dumps_operator(twist(QQ, 2)).replace("column-major-basis-image", "row-major")
    with pytest.raises(ValueError, match="convention"):
        loads_operator(text)
    with pytest.raises(ValueError, match="kind"):
        loads_operator('{"kind": "algebra"}')


def test_operator_shape_is_enforced():
    obj = json.loads(dumps_operator(twist(QQ, 2)))
    good = dict(obj)
    ints = [[int(x) for x in row] for row in good["matrix"]]
    assert loads_operator(json.dumps({**good, "matrix": ints})) == twist(QQ, 2)
    obj["matrix"] = obj["matrix"][:3]
    with pytest.raises(ValueError, match="4x4"):
        loads_operator(json.dumps(obj))
    for key, bad, match in [
        ("matrix", 5, "4x4"),
        ("matrix", [1, 2, 3, 4], "4x4"),
        ("matrix", "0000", "4x4"),
        ("field", 5, "field label"),
        ("dim", True, "dimension"),
        ("dim", 2.0, "dimension"),
        ("matrix", [[1.0, 0, 0, 0]] + good["matrix"][1:], "scalar must be"),
        ("matrix", [[True, 0, 0, 0]] + good["matrix"][1:], "scalar must be"),
        ("matrix", [[None, 0, 0, 0]] + good["matrix"][1:], "scalar must be"),
    ]:
        with pytest.raises(ValueError, match=match):
            loads_operator(json.dumps({**good, key: bad}))


def test_classification_report_embeds_algebra_files():
    result = enumerate_ujla(SearchSpec(1, 3))
    obj = json.loads(dumps_classification(result))
    assert obj["kind"] == "ujla-classification"
    assert obj["ujla_count"] == 3 and obj["class_count"] == 2
    assert sum(obj["failure_counts"].values()) + obj["ujla_count"] == obj["total"]
    for cls in obj["classes"]:
        alg = loads_algebra(json.dumps(cls["representative"]))
        from ujla.axioms import check_ujla
        assert check_ujla(alg).passed


def test_dumps_is_deterministic(dual):
    assert dumps_algebra(dual) == dumps_algebra(corpus.dual_numbers())


@given(algebras(max_dim=2))
def test_roundtrip_on_random_algebras(alg):
    assert loads_algebra(dumps_algebra(alg)) == alg


@given(st.data())
def test_roundtrip_on_random_rational_algebras(data):
    from strategies import scalars
    from ujla.algebra import Algebra

    entries = data.draw(st.lists(scalars(QQ), min_size=8, max_size=8))
    tensor = tuple(
        tuple(tuple(entries[(i * 2 + j) * 2 + k] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    alg = Algebra("random-q", QQ, 2, ("e0", "e1"), tensor)
    assert loads_algebra(dumps_algebra(alg)) == alg


@pytest.mark.parametrize("loads, text", [
    (loads_algebra, DUAL_FILE), (loads_operator, dumps_operator(twist(QQ, 2)))],
    ids=["algebra", "operator"])
def test_deep_nesting_and_repeated_keys_are_value_errors(loads, text):
    """A document nested past the decoder's recursion limit is a ValueError,
    not a RecursionError, and a key repeated in one object is rejected
    rather than read as its last value."""
    with pytest.raises(ValueError, match="nested too deeply"):
        loads("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        loads(text.replace('"field"', '"extra": ' + "[" * 100000 + "]" * 100000 + ', "field"'))
    with pytest.raises(ValueError, match="duplicate key 'field'"):
        loads(text.rstrip()[:-1] + ', "field": "F2"}')
    with pytest.raises(ValueError, match="duplicate key 'n'"):
        loads(text.rstrip()[:-1] + ', "extra": {"n": 1, "n": 2}}')
