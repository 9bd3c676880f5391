"""The package's frozen value objects, all built on `fields.Record`.

Each record must behave as the frozen dataclass it replaced: the same
repr, equality only within its class, the hash of its field tuple (or the
class's own), no assignment or deletion, `replace` through `__init__`,
and pickle round trips.  A frozen dataclass with the same fields, made
here, is the oracle for the repr and the hash.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from ujla import corpus
from ujla.algebra import Algebra
from ujla.axioms import ASSOC
from ujla.classify import ClassificationResult, OrbitClass, SearchSpec, enumerate_ujla
from ujla.fields import QQ, PrimeField, Rationals
from ujla.identities import (
    AxiomReport,
    CoefficientWitness,
    ConcreteWitness,
    IdentitySpec,
    Verdict,
    _compile,
    _Plan,
    verify_identity,
)
from ujla.linalg import Matrix
from ujla.yang_baxter import (
    BraidReport,
    QybeReport,
    TensorSquareOperator,
    check_braid,
    check_qybe,
    twist,
)

F5 = PrimeField(5)
_verdict = verify_identity(corpus.upper_triangular_2x2(), ASSOC).verdicts[0]
_failure = verify_identity(corpus.heisenberg(), IdentitySpec.parse(
    "comm", "a*b = b*a", ("a", "b"))).verdicts[0]

# class -> (its fields in order, an instance, changes that give another valid instance)
RECORDS = {
    Rationals: ((), QQ, None),
    PrimeField: (("p",), F5, {"p": 7}),
    Matrix: (("field", "rows"), Matrix(QQ, ((1, 2), (3, 4))), {"rows": ((1, 2), (3, 5))}),
    Algebra: (("name", "field", "dim", "basis", "tensor", "unit"), corpus.dual_numbers(),
              {"name": "renamed"}),
    IdentitySpec: (("name", "variables", "lhs", "rhs", "text"), ASSOC, {"text": "other"}),
    CoefficientWitness: (
        ("monomial", "monomial_text", "coordinate", "lhs_coefficient", "rhs_coefficient"),
        CoefficientWitness((1, 0, 0, 1), "a0*b1", 0, Fraction(1), Fraction(0)),
        {"coordinate": 1}),
    ConcreteWitness: (("assignment", "lhs", "rhs"), _failure.concrete_witness,
                      {"lhs": (0, 0, 0)}),
    Verdict: (("name", "passed", "semantics", "identity", "coefficient_witness",
               "concrete_witness", "notes"), _failure, {"notes": ("a note",)}),
    AxiomReport: (("algebra", "semantics", "verdicts", "notes"),
                  AxiomReport("upper2", "polynomial", (_verdict,)), {"notes": ("a note",)}),
    _Plan: (("scale", "top", "words", "shapes", "groups"), _compile(ASSOC, 2, 0, False),
            {"scale": 2}),
    SearchSpec: (("dim", "p", "semantics"), SearchSpec(1, 2), {"semantics": "pointwise"}),
    OrbitClass: (("representative", "orbit_size"), OrbitClass((1,), 1), {"orbit_size": 2}),
    ClassificationResult: (("spec", "total", "survivors", "failure_counts", "classes"),
                           enumerate_ujla(SearchSpec(1, 2)), {"total": 3}),
    TensorSquareOperator: (("field", "dim", "matrix"), twist(QQ, 2),
                           {"matrix": Matrix.identity(QQ, 4)}),
    BraidReport: (("dim", "braid_ok", "invertible", "rank", "first_mismatch"),
                  check_braid(twist(QQ, 2)), {"rank": 3}),
    QybeReport: (("dim", "qybe_ok", "first_mismatch"), check_qybe(twist(QQ, 2)),
                 {"qybe_ok": False}),
}


def _dataclass_twin(obj, fields):
    """A frozen dataclass instance with the record's class name and fields."""
    cls = dataclasses.make_dataclass(type(obj).__qualname__, fields, frozen=True)
    return cls(*(getattr(obj, name) for name in fields))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_behave_as_frozen_dataclasses(cls):
    fields, obj, changes = RECORDS[cls]
    values = tuple(getattr(obj, name) for name in fields)
    twin = _dataclass_twin(obj, fields)
    assert type(obj) is cls and obj._fields == fields
    assert repr(obj) == repr(twin)
    own_hash = cls is IdentitySpec
    assert hash(obj) == (hash((obj.name, obj.variables, obj.text)) if own_hash else hash(values))
    assert own_hash or hash(obj) == hash(twin)

    copied = obj.replace()
    assert copied == obj and copied is not obj and hash(copied) == hash(obj)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    if changes is not None:
        other = obj.replace(**changes)
        assert other != obj and not other == obj
        assert tuple(getattr(other, name) for name in changes) == tuple(changes.values())
    for stranger in (twin, values, next(r for c, (_, r, _) in RECORDS.items() if c is not cls)):
        assert obj.__eq__(stranger) is NotImplemented
        assert obj != stranger

    for name in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in fields) == values


def test_replace_runs_the_checks_again():
    with pytest.raises(ValueError, match="field modulus must be prime, got 4"):
        F5.replace(p=4)
    dual = corpus.dual_numbers()
    with pytest.raises(ValueError, match="structure tensor must be 2x2x2"):
        dual.replace(tensor=(((1, 0), (0, 1)), ((0, 1),)))
    with pytest.raises(ValueError, match="declared unit is not a unit"):
        dual.replace(unit=(0, 1))
    with pytest.raises(ValueError, match="search prime must be one of"):
        SearchSpec(1, 2).replace(p=7)
    with pytest.raises(TypeError):
        F5.replace(q=3)
    assert dual.replace(field=F5).tensor == corpus.dual_numbers(F5).tensor
