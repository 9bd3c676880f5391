"""Span recording around the public functions of each `ujla` module.

The tracer patches functions where they are looked up: every `ujla.*`
module namespace that binds the same function object gets the wrapper,
and methods are patched on their class.  Nothing under `src/` changes;
`uninstall` puts every original back and reports whether it did.

A span is (name, start, end, parent, op, tag).  Spans live in flat
arrays in memory and are written out once, when the run ends.  Self
time is a span's duration minus the durations of its direct children;
calls are strictly nested because every op runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (metric name, module, attribute path, tagger name or None)
TARGETS = [
    ("cli.run", "cli", "run", None),
    ("fileformat.load_algebra_file", "fileformat", "load_algebra_file", None),
    ("fileformat.load_operator_file", "fileformat", "load_operator_file", None),
    ("fileformat.dumps_operator", "fileformat", "dumps_operator", None),
    ("fileformat.dumps_classification", "fileformat", "dumps_classification", None),
    ("classify.enumerate_ujla", "classify", "enumerate_ujla", None),
    ("classify.orbit_partition", "classify", "orbit_partition", None),
    ("classify.gl_matrices", "classify", "gl_matrices", None),
    ("axioms.ujla_failure", "axioms", "ujla_failure", "ujla_failure"),
    ("identities.check_identity", "identities", "check_identity", "check_identity"),
    ("identities.revalidate_verdict", "identities", "revalidate_verdict", None),
    ("identities.witness_search", "identities", "_search_concrete_witness", None),
    ("formal.Poly.mul", "formal", "Poly.__mul__", None),
    ("formal.Poly.add", "formal", "Poly.__add__", None),
    ("algebra.multiply", "algebra", "Algebra.multiply", None),
    ("algebra.multiply_formal", "algebra", "Algebra.multiply_formal", None),
    ("linalg.mat_mul", "linalg", "mat_mul", "mat_mul"),
    ("linalg.kron", "linalg", "kron", None),
    ("linalg.mat_rank", "linalg", "mat_rank", None),
    ("linalg.mat_kernel", "linalg", "mat_kernel", None),
    ("linalg.mat_inverse", "linalg", "mat_inverse", None),
    ("yang_baxter.lift", "yang_baxter", "lift", None),
    ("yang_baxter.check_braid", "yang_baxter", "check_braid", None),
    ("yang_baxter.check_qybe", "yang_baxter", "check_qybe", None),
    ("yang_baxter.build_assoc_yb", "yang_baxter", "build_assoc_yb", None),
    ("yang_baxter.build_lie_yb", "yang_baxter", "build_lie_yb", None),
    ("yang_baxter.center", "yang_baxter", "center", None),
    ("derivations.derivation_six_term", "derivations", "derivation_six_term", None),
    ("derivations.derivation_two_term", "derivations", "derivation_two_term", None),
    ("derivations.check_derivation", "derivations", "check_derivation", None),
    ("derivations.revalidate_leibniz", "derivations", "revalidate_leibniz", None),
    ("transforms.commutator", "transforms", "commutator", None),
    ("transforms.symmetrize", "transforms", "symmetrize", None),
    ("transforms.deform", "transforms", "deform", None),
    ("transforms.check_compatibility", "transforms", "check_compatibility", None),
]
# Functions whose total (not only self) time share is reported too.
COMPOSITE = [
    "cli.run", "classify.enumerate_ujla", "classify.orbit_partition", "axioms.ujla_failure",
    "identities.check_identity", "identities.witness_search", "algebra.multiply_formal",
    "yang_baxter.check_braid", "yang_baxter.check_qybe", "yang_baxter.build_assoc_yb",
    "derivations.check_derivation", "transforms.check_compatibility",
]
UJLA_NAMES = ("ujla.1", "ujla.2a", "ujla.2b", "ujla.2c", "ujla.2d")
CHECK_TAGS = [f"{sem}.{outcome}" for sem in ("polynomial", "pointwise")
              for outcome in ("pass", "fail")]
BOOKKEEPING = "trace.bookkeeping"
NORMALIZE = [("fields", "Rationals.normalize"), ("fields", "PrimeField.normalize")]


def _ujla_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "ujla" or name.startswith("ujla.")]


def _bindings(module_name: str, path: str) -> tuple:
    """(original, [(owner, key)]) for one target, methods on their class."""
    module = sys.modules[f"ujla.{module_name}"]
    if "." in path:
        cls_name, key = path.split(".")
        owner = getattr(module, cls_name)
        return owner.__dict__[key], [(owner, key)]
    original = getattr(module, path)
    owners = [(m, key) for m in _ujla_modules() for key, val in vars(m).items()
              if val is original]
    return original, owners


class Patcher:
    """Installs wrappers and restores the exact original objects."""

    def __init__(self):
        self._patched = []  # (owner, key, original)

    def patch(self, module_name: str, path: str, make_wrapper) -> None:
        original, owners = _bindings(module_name, path)
        wrapper = make_wrapper(original)
        for owner, key in owners:
            self._patched.append((owner, key, original))
            setattr(owner, key, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each binding is the original again."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        ok = all(_lookup(owner, key) is original for owner, key, original in self._patched)
        self._patched = []
        return ok


def _lookup(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.names = [BOOKKEEPING] + [t[0] for t in TARGETS]
        self.tag_names = [""]
        self._tag_ids = {"": 0}
        self.name_col = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("H")
        self.start = array("d")
        self.end = array("d")
        self.current_op = [-1]
        self._stack = [-1]
        self.mat_mults = 0
        self.mat_entries = 0
        self.mat_zeros = 0
        self.patcher = Patcher()

    def _tag_id(self, text: str) -> int:
        tid = self._tag_ids.get(text)
        if tid is None:
            tid = self._tag_ids[text] = len(self.tag_names)
            self.tag_names.append(text)
        return tid

    # -- taggers: run after the span's end time is taken -------------------

    def _tag_check_identity(self, args, kwargs, verdict):
        sem = args[2] if len(args) > 2 else kwargs.get("semantics", "polynomial")
        text = f"{sem}.{'pass' if verdict.passed else 'fail'}"
        if not verdict.passed and verdict.concrete_witness is None:
            text += ".nowitness"
        return self._tag_id(text)

    def _tag_ujla_failure(self, args, kwargs, failed):
        return self._tag_id(failed or "none")

    def _tag_mat_mul(self, args, kwargs, result):
        a, b = args[0], args[1]
        self.mat_mults += a.nrows * a.ncols * b.ncols
        self.mat_entries += a.nrows * a.ncols + b.nrows * b.ncols
        self.mat_zeros += sum(row.count(0) for row in a.rows) + sum(row.count(0) for row in b.rows)
        return 0

    # -- wrapping ------------------------------------------------------------

    def _make_wrapper(self, name_id: int, tagger, costly: bool):
        name_col, parent, op, tag = self.name_col, self.parent, self.op, self.tag
        start, end = self.start, self.end
        stack, current_op = self._stack, self.current_op
        perf = time.perf_counter

        def record(fn):
            def wrapper(*args, **kwargs):
                idx = len(name_col)
                name_col.append(name_id)
                parent.append(stack[-1])
                op.append(current_op[0])
                tag.append(0)
                end.append(0.0)
                stack.append(idx)
                start.append(perf())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = perf()
                    stack.pop()
                if tagger is not None:
                    if costly:
                        # Attribute the tagger's own time to a bookkeeping span.
                        b = len(name_col)
                        name_col.append(0)
                        parent.append(stack[-1])
                        op.append(current_op[0])
                        tag.append(0)
                        start.append(perf())
                        end.append(0.0)
                        tag[idx] = tagger(args, kwargs, result)
                        end[b] = perf()
                    else:
                        tag[idx] = tagger(args, kwargs, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return record

    def install(self) -> None:
        taggers = {
            "check_identity": self._tag_check_identity,
            "ujla_failure": self._tag_ujla_failure,
            "mat_mul": self._tag_mat_mul,
        }
        for name_id, (_, module, path, tagger) in enumerate(TARGETS, start=1):
            self.patcher.patch(module, path, self._make_wrapper(
                name_id, taggers.get(tagger), tagger == "mat_mul"))

    def uninstall(self) -> bool:
        return self.patcher.restore()

    # -- results -------------------------------------------------------------

    def aggregate(self, op_fields: list) -> dict:
        """Calls, total and self seconds per function, overall and per input field."""
        n = len(self.name_col)
        names, parent, start, end = self.name_col, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        root_total = 0.0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            else:
                root_total += end[i] - start[i]
        by_name = {name: [0, 0.0, 0.0] for name in self.names}
        by_field: dict = {}
        by_tag: dict = {}
        for i in range(n):
            dur = end[i] - start[i]
            name = self.names[names[i]]
            entry = by_name[name]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
            field = by_field.setdefault(op_fields[self.op[i]], {})
            field[name] = field.get(name, 0.0) + dur - child[i]
            if self.tag[i]:
                key = (self.names[names[i]], self.tag_names[self.tag[i]])
                t = by_tag.setdefault(key, [0, 0.0])
                t[0] += 1
                t[1] += dur
        return {
            "spans": n,
            "root_s": root_total,
            "functions": {name: {"calls": c, "s": s, "self_s": self_s}
                          for name, (c, s, self_s) in by_name.items()},
            "tags": {f"{name}:{tag}": {"calls": c, "s": s} for (name, tag), (c, s) in by_tag.items()},
            "self_s_by_field": by_field,
            "mat_mul": {"mults": self.mat_mults, "entries": self.mat_entries,
                        "zeros": self.mat_zeros},
        }

    def write(self, directory: Path, op_ids: list, summary: dict) -> None:
        """Spans as raw little arrays plus a JSON header and the summary."""
        directory.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "tags": self.tag_names,
            "ops": op_ids,
            "count": len(self.name_col),
            "arrays": {"name": "H", "parent": "i", "op": "i", "tag": "H",
                       "start": "d", "end": "d"},
        }
        (directory / "header.json").write_text(json.dumps(header) + "\n")
        for key, arr in (("name", self.name_col), ("parent", self.parent), ("op", self.op),
                         ("tag", self.tag), ("start", self.start), ("end", self.end)):
            with open(directory / f"{key}.bin", "wb") as fh:
                arr.tofile(fh)
        (directory / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


class NormalizeCounter:
    """Counts `FieldSpec.normalize` calls without timing them."""

    def __init__(self):
        self.calls = [0]
        self.patcher = Patcher()

    def install(self) -> None:
        calls = self.calls

        def make(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)

            wrapper.__wrapped__ = fn
            return wrapper

        for module, path in NORMALIZE:
            self.patcher.patch(module, path, make)

    def uninstall(self) -> bool:
        return self.patcher.restore()
