"""The canonical on-disk formats: algebra files and operator files.

Both are JSON documents with scalar values as strings ("n" or "n/d" over
Q, decimal residues over F_p) or JSON integers; any other JSON value in a
scalar position is rejected.  An algebra file looks like::

    { "name": "dual-numbers", "field": "Q", "dim": 2,
      "basis": ["1", "x"], "unit": ["1", "0"],
      "constants": [[["1","0"],["0","1"]],[["0","1"],["0","0"]]] }

where constants[i][j] lists the coordinates of e_i * e_j.  Operator
files carry a d^2 x d^2 matrix row-major together with an explicit
"convention" header ("column-major-basis-image": column i*d+j is the
image of e_i (x) e_j).
"""

from __future__ import annotations

import json
from typing import Union

from .algebra import Algebra
from .fields import coerce, parse_field
from .linalg import Matrix
from .yang_baxter import TensorSquareOperator

OPERATOR_CONVENTION = "column-major-basis-image"


def _as_text(data: Union[str, bytes]) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _load_json(data: Union[str, bytes], what: str) -> dict:
    try:
        obj = json.loads(_as_text(data))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a valid {what} file: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"not a valid {what} file: expected a JSON object")
    return obj


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f"{what} file is missing the {key!r} field")
    return obj[key]


def _field_and_dim(obj: dict, what: str) -> tuple:
    label = _require(obj, "field", what)
    if not isinstance(label, str):
        raise ValueError(f"{what} field label must be a string, got {label!r}")
    dim = _require(obj, "dim", what)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{what} dimension must be a positive integer, got {dim!r}")
    return parse_field(label), dim


def _check_shape(value, shape: tuple, message: str) -> None:
    """Raise ValueError(message) unless value is nested lists of this shape."""
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValueError(message)
    if len(shape) > 1:
        for item in value:
            _check_shape(item, shape[1:], message)


def algebra_to_obj(alg: Algebra) -> dict:
    field = alg.field
    obj = {
        "name": alg.name,
        "field": field.label,
        "dim": alg.dim,
        "basis": list(alg.basis),
    }
    if alg.unit is not None:
        obj["unit"] = [field.format(x) for x in alg.unit]
    obj["constants"] = [
        [[field.format(c) for c in row] for row in plane] for plane in alg.tensor
    ]
    return obj


def obj_to_algebra(obj: dict) -> Algebra:
    name = _require(obj, "name", "algebra")
    field, dim = _field_and_dim(obj, "algebra")
    basis = _require(obj, "basis", "algebra")
    _check_shape(basis, (dim,), f"basis must be a list of {dim} basis labels")
    constants = _require(obj, "constants", "algebra")
    _check_shape(constants, (dim, dim, dim), f"constants must be a {dim}x{dim}x{dim} nested list")
    tensor = tuple(
        tuple(tuple(coerce(field, c) for c in row) for row in plane)
        for plane in constants
    )
    unit = None
    if obj.get("unit") is not None:
        raw = obj["unit"]
        _check_shape(raw, (dim,), f"unit vector must be a list of {dim} coordinates")
        unit = tuple(coerce(field, x) for x in raw)
    return Algebra(str(name), field, dim, tuple(str(b) for b in basis), tensor, unit)


def loads_algebra(data: Union[str, bytes]) -> Algebra:
    return obj_to_algebra(_load_json(data, "algebra"))


def dumps_algebra(alg: Algebra) -> str:
    return json.dumps(algebra_to_obj(alg), indent=2) + "\n"


def load_algebra_file(path) -> Algebra:
    with open(path, "rb") as fh:
        return loads_algebra(fh.read())


def operator_to_obj(op: TensorSquareOperator, name: str = "") -> dict:
    field = op.field
    obj = {
        "kind": "tensor-square-operator",
        "field": field.label,
        "dim": op.dim,
        "convention": OPERATOR_CONVENTION,
        "matrix": [[field.format(x) for x in row] for row in op.matrix.rows],
    }
    if name:
        obj["name"] = name
    return obj


def obj_to_operator(obj: dict) -> TensorSquareOperator:
    kind = obj.get("kind")
    if kind != "tensor-square-operator":
        raise ValueError(f"operator file has kind {kind!r}, expected 'tensor-square-operator'")
    convention = _require(obj, "convention", "operator")
    if convention != OPERATOR_CONVENTION:
        raise ValueError(
            f"unsupported operator convention {convention!r} "
            f"(this library writes and reads {OPERATOR_CONVENTION!r})"
        )
    field, dim = _field_and_dim(obj, "operator")
    raw = _require(obj, "matrix", "operator")
    side = dim * dim
    _check_shape(raw, (side, side), f"operator matrix must be {side}x{side}")
    rows = tuple(tuple(coerce(field, x) for x in row) for row in raw)
    return TensorSquareOperator(field, dim, Matrix(field, rows))


def loads_operator(data: Union[str, bytes]) -> TensorSquareOperator:
    return obj_to_operator(_load_json(data, "operator"))


def dumps_operator(op: TensorSquareOperator, name: str = "") -> str:
    return json.dumps(operator_to_obj(op, name), indent=2) + "\n"


def load_operator_file(path) -> TensorSquareOperator:
    with open(path, "rb") as fh:
        return loads_operator(fh.read())


def classification_to_obj(result) -> dict:
    """Report header plus one representative algebra per class."""
    reps = result.representative_algebras()
    return {
        "kind": "ujla-classification",
        "dim": result.spec.dim,
        "prime": result.spec.p,
        "semantics": result.spec.semantics,
        "total": result.total,
        "ujla_count": result.ujla_count,
        "class_count": result.class_count,
        "failure_counts": {name: count for name, count in result.failure_counts},
        "classes": [
            {"orbit_size": cls.orbit_size, "representative": algebra_to_obj(rep)}
            for cls, rep in zip(result.classes, reps)
        ],
    }


def dumps_classification(result) -> str:
    return json.dumps(classification_to_obj(result), indent=2) + "\n"
