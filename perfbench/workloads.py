"""Seeded inputs for the four benchmark workloads.

Each generator writes the inputs of one workload as `.alg`/`.op` files into
a work directory and returns the list of ops of one pass.  An op is one
`ujla` command line plus what the oracle needs to judge its output.  The
program under test only ever sees the written files and the argv.

The same seed gives the same files and the same ops.  Ops are shuffled
with the seed, so a slow spell of the machine hits every group a little
instead of one group a lot.  `smoke` shrinks every group to a handful of
ops for the benchmark's own tests.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from ujla import corpus, fileformat
from ujla.fields import PrimeField

SUITES_ARG = "assoc,lie,jordan,ujla"
P61 = 2**61 - 1  # prime far above any integer coefficient the Q oracle meets


@dataclass
class Op:
    id: str
    argv: list
    field: str  # "Q" or "Fp": the ground field of the input
    units: int = 1  # work units for throughput (tensors for scan)
    expect: dict = field(default_factory=dict)
    key: str = ""  # "<index>:<id>", unique within a pass; set by the runner


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _tensor_obj(name: str, label: str, tensor) -> dict:
    d = len(tensor)
    return {
        "name": name,
        "field": label,
        "dim": d,
        "basis": [f"e{i}" for i in range(d)],
        "constants": [[[str(c) for c in row] for row in plane] for plane in tensor],
    }


def _write(workdir: str, fname: str, text: str) -> str:
    path = os.path.join(workdir, fname)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_algebra(workdir: str, fname: str, alg) -> str:
    return _write(workdir, fname, fileformat.dumps_algebra(alg))


def _tensor_of(alg) -> list:
    """Structure tensor as plain Fractions (Q) or ints (F_p)."""
    return [[list(row) for row in plane] for plane in alg.tensor]


def _random_tensor(rng: random.Random, d: int, values, density: float) -> list:
    return [[[rng.choice(values) if rng.random() < density else 0 for _ in range(d)]
             for _ in range(d)] for _ in range(d)]


def _vec_arg(vec) -> str:
    return ",".join(str(x) for x in vec)


def _fname(name: str, suffix: str) -> str:
    return name.replace("/", "_") + suffix


def _q_corpus() -> list:
    """Standard corpus over Q with each algebra's classes (deduplicated by name)."""
    out: dict = {}
    for cls, algs in corpus.standard_corpus().items():
        for alg in algs:
            entry = out.setdefault(alg.name, (alg, []))
            entry[1].append(cls)
    return list(out.values())


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

# Every classification that runs serially in seconds at the seed commit;
# d2 p3 pointwise (~71 s) and d2 p5 (390,625 tensors) are left out.
SCAN_CASES = [
    (1, 2, "polynomial"), (1, 2, "pointwise"),
    (1, 3, "polynomial"), (1, 3, "pointwise"),
    (1, 5, "polynomial"), (1, 5, "pointwise"),
    (2, 2, "polynomial"), (2, 2, "pointwise"),
    (2, 3, "polynomial"),
]


def scan_ops(seed: int, workdir: str, smoke: bool = False) -> list:
    """The scan is exhaustive, so the seed has no effect."""
    cases = SCAN_CASES[:8] if smoke else SCAN_CASES
    ops = []
    for d, p, sem in cases:
        argv = ["classify", "--dim", str(d), "--prime", str(p), "--workers", "1"]
        if sem == "pointwise":
            argv.append("--pointwise")
        ops.append(Op(f"classify-d{d}-p{p}-{sem}", argv, "Fp", units=p ** (d ** 3),
                      expect={"kind": "scan", "case": f"d{d}_p{p}_{sem}"}))
    return ops


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

# Corpus constructors usable over F_3 and F_5.  Pointwise checks enumerate
# p^(d * nvars) assignments, so only these finish in about a second each:
# every d <= 2 member over F_3, two d <= 2 members over F_5, one d = 3
# member over F_3.
FP_CORPUS = [
    (3, corpus.ground_field_line, ("assoc", "jordan")),
    (3, corpus.dual_numbers, ("assoc",)),
    (3, corpus.diagonal_matrices_2, ("assoc", "jordan")),
    (3, corpus.affine_line_lie, ("lie",)),
    (3, lambda f: corpus.abelian_lie(1, f), ("lie",)),
    (3, corpus.jordan_upper_triangular, ("jordan",)),
    (5, corpus.ground_field_line, ("assoc", "jordan")),
    (5, corpus.affine_line_lie, ("lie",)),
]

# Group sizes put the median op inside the large group of F_p polynomial
# checks at d = 3 and the 90th percentile inside the group of Q checks at
# d = 3, away from the edges of either, so the seed moves the percentiles
# little.  Densities keep each group's cost spread low (coefficient of
# variation about 0.2): sparse tensors pass some identities, and random
# F_5 pointwise checks have heavy tails (an op that passes a 3-variable
# identity costs 10-50x more).
CHECK_RANDOM = [
    # (label, p or None for Q, dim, count, semantics, density)
    ("q-d3", None, 3, 24, "polynomial", 0.8),
    ("q-d4", None, 4, 6, "polynomial", 0.35),
    ("f3-d2", 3, 2, 10, "polynomial", 0.5),
    ("f5-d2", 5, 2, 10, "polynomial", 0.5),
    ("f3-d3", 3, 3, 45, "polynomial", 0.6),
    ("f5-d3", 5, 3, 45, "polynomial", 0.6),
    ("f3-d2-pw", 3, 2, 8, "pointwise", 0.8),
    ("f3-d3-pw", 3, 3, 10, "pointwise", 0.5),
]


COMPAT_RANDOM = 4  # `ujla compat` also runs on the first few random Q tensors of each size


def check_ops(seed: int, workdir: str, smoke: bool = False) -> list:
    rng = random.Random(f"check:{seed}")
    ops = []
    for alg, classes in _q_corpus():
        path = _write_algebra(workdir, _fname(alg.name, ".alg"), alg)
        tensor = _tensor_of(alg)
        ops.append(Op(f"corpus-q-{alg.name}", ["check", path, "--axioms", SUITES_ARG], "Q",
                      expect={"kind": "check", "classes": classes, "tensor": tensor, "p": None}))
        ops.append(Op(f"compat-q-{alg.name}", ["compat", path], "Q",
                      expect={"kind": "compat", "tensor": tensor, "member": True}))
    for p, build, classes in FP_CORPUS:
        alg = build(PrimeField(p))
        path = _write_algebra(workdir, _fname(f"{alg.name}-f{p}", ".alg"), alg)
        ops.append(Op(f"corpus-f{p}-{alg.name}",
                      ["check", path, "--axioms", SUITES_ARG, "--pointwise"], "Fp",
                      expect={"kind": "check", "classes": list(classes),
                              "tensor": _tensor_of(alg), "p": p}))
    for label, p, d, count, sem, density in CHECK_RANDOM:
        values = [-2, -1, 1, 2] if p is None else list(range(1, p))
        for n in range(count):
            tensor = _random_tensor(rng, d, values, density)
            name = f"rand-{label}-{n}"
            path = _write(workdir, name + ".alg",
                          json.dumps(_tensor_obj(name, "Q" if p is None else f"F{p}", tensor)))
            argv = ["check", path, "--axioms", SUITES_ARG]
            if sem == "pointwise":
                argv.append("--pointwise")
            ops.append(Op(name, argv, "Q" if p is None else "Fp",
                          expect={"kind": "check", "classes": [], "tensor": tensor, "p": p,
                                  "semantics": sem}))
            if p is None and n < COMPAT_RANDOM:
                ops.append(Op(f"compat-{name}", ["compat", path], "Q",
                              expect={"kind": "compat", "tensor": tensor, "member": False}))
    if smoke:
        ops = ops[::12]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

DERIVE_PAIRS_PER_CORPUS = 40
DERIVE_RANDOM = [(2, 4), (3, 4), (4, 4)]  # (dim, algebras)
DERIVE_PAIRS_PER_RANDOM = 20


def _derive_vectors(rng: random.Random, d: int, n: int) -> list:
    """Criterion-6 shape: basis vectors first, then random [-3, 3] vectors."""
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    return basis + [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]


def _derive_op(rng, name, path, tensor, vectors, classes) -> Op:
    a, b = rng.choice(vectors), rng.choice(vectors)
    formula = rng.choice(("six", "two"))
    # "--a=..." keeps a leading minus sign from reading as an option.
    argv = ["derivation", path, f"--a={_vec_arg(a)}", f"--b={_vec_arg(b)}",
            "--formula", formula]
    return Op(f"{name}-{formula}-{_vec_arg(a)}-{_vec_arg(b)}", argv, "Q",
              expect={"kind": "derive", "tensor": tensor, "a": a, "b": b,
                      "formula": formula, "member": bool(classes)})


def derive_ops(seed: int, workdir: str, smoke: bool = False) -> list:
    rng = random.Random(f"derive:{seed}")
    ops = []
    for alg, classes in _q_corpus():
        path = _write_algebra(workdir, _fname(alg.name, ".alg"), alg)
        vectors = _derive_vectors(rng, alg.dim, 6)
        tensor = _tensor_of(alg)
        for _ in range(DERIVE_PAIRS_PER_CORPUS):
            ops.append(_derive_op(rng, alg.name, path, tensor, vectors, classes))
    for d, count in DERIVE_RANDOM:
        for n in range(count):
            tensor = _random_tensor(rng, d, [-2, -1, 1, 2], 0.5)
            name = f"rand-d{d}-{n}"
            path = _write(workdir, name + ".alg", json.dumps(_tensor_obj(name, "Q", tensor)))
            vectors = _derive_vectors(rng, d, 6)[d:]
            vectors = [v for v in vectors if any(v)] or [(1,) * d]
            for _ in range(DERIVE_PAIRS_PER_RANDOM):
                ops.append(_derive_op(rng, name, path, tensor, vectors, []))
    if smoke:
        ops = ops[::40]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# braid
# ---------------------------------------------------------------------------

def _yb_params(rng: random.Random, values) -> tuple:
    """(alpha, beta, gamma): half drawn from the three Yang-Baxter cases."""
    nonzero = [v for v in values if v != 0]
    if rng.random() < 0.5:
        return tuple(rng.choice(values) for _ in range(3))
    case = rng.choice(("i", "ii", "iii"))
    g = rng.choice(nonzero)
    if case == "i":
        return g, rng.choice(nonzero), g
    if case == "ii":
        return rng.choice(nonzero), g, g
    return 0, 0, g


def assoc_operator(tensor, unit, alpha, beta, gamma, p) -> list:
    """a (x) b -> alpha*ab (x) 1 + beta*1 (x) ab - gamma*a (x) b, as rows."""
    d = len(tensor)
    side = d * d
    cols = []
    for i in range(d):
        for j in range(d):
            prod = tensor[i][j]
            col = [alpha * prod[k] * unit[l] + beta * unit[k] * prod[l]
                   for k in range(d) for l in range(d)]
            col[i * d + j] -= gamma
            cols.append(col)
    rows = [[cols[c][r] for c in range(side)] for r in range(side)]
    if p is not None:
        rows = [[x % p for x in row] for row in rows]
    return rows


def lie_operator(tensor, alpha, z, p) -> list:
    """x (x) y -> alpha*[x,y] (x) z + y (x) x, as rows."""
    d = len(tensor)
    side = d * d
    cols = []
    for i in range(d):
        for j in range(d):
            br = tensor[i][j]
            col = [alpha * br[k] * z[l] for k in range(d) for l in range(d)]
            col[j * d + i] += 1
            cols.append(col)
    rows = [[cols[c][r] for c in range(side)] for r in range(side)]
    if p is not None:
        rows = [[x % p for x in row] for row in rows]
    return rows


def _operator_text(label: str, d: int, rows) -> str:
    obj = {
        "kind": "tensor-square-operator",
        "field": label,
        "dim": d,
        "convention": "column-major-basis-image",
        "matrix": [[str(x) for x in row] for row in rows],
    }
    return json.dumps(obj, indent=2) + "\n"


F5_VALUES = list(range(5))
Q_VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]

# (constructor, field p or None, assoc ops per pass, saved operators for
# `yb verify`, fixed (alpha, beta, gamma) or None for seeded ones).  The
# d = 4 operator over Q takes about 4 s, a third of the pass, so its
# parameters are fixed to keep the pass time independent of the seed.
# Group sizes put the median op among the F_5 upper-tri-2x2 checks and
# the 90th percentile among the F_5 mat-2x2 checks, away from the edges
# of either group.
BRAID_ASSOC = [
    (corpus.dual_numbers, 5, 40, 6, None),
    (corpus.upper_triangular_2x2, 5, 80, 4, None),
    (corpus.matrix_algebra_2x2, 5, 16, 2, None),
    (corpus.truncated_polynomials, None, 3, 1, None),
    (corpus.matrix_algebra_2x2, None, 1, 0, (Fraction(1), Fraction(2), Fraction(1))),
]
# (constructor, ops per pass, central direction or None when the center is 0);
# each algebra also gets one `ujla center` op.
BRAID_LIE = [
    (corpus.heisenberg, 1, (0, 0, 1)),
    (corpus.sl2, 1, None),
    (corpus.cross_product, 1, None),
    (lambda: corpus.direct_sum(corpus.affine_line_lie(), corpus.affine_line_lie(),
                               name="affine-pair"), 1, None),
]


def braid_ops(seed: int, workdir: str, smoke: bool = False) -> list:
    rng = random.Random(f"braid:{seed}")
    ops = []
    verify_ops = []
    for build, p, count, saved, fixed in BRAID_ASSOC:
        alg = build() if p is None else build(PrimeField(p))
        label = alg.field.label
        path = _write_algebra(workdir, _fname(f"{alg.name}-{label}", ".alg"), alg)
        tensor, unit = _tensor_of(alg), list(alg.unit)
        values = Q_VALUES if p is None else F5_VALUES
        fld = "Q" if p is None else "Fp"
        for n in range(count):
            abg = fixed or _yb_params(rng, values)
            argv = ["yb", "assoc", path] + [f"--{k}={v}" for k, v in
                                             zip(("alpha", "beta", "gamma"), abg)] + ["--verify"]
            ops.append(Op(f"assoc-{alg.name}-{label}-{n}", argv, fld,
                          expect={"kind": "braid", "family": "assoc", "params": abg, "p": p,
                                  "matrix": assoc_operator(tensor, unit, *abg, p)}))
        for n in range(saved):
            abg = _yb_params(rng, values)
            rows = assoc_operator(tensor, unit, *abg, p)
            op_path = _write(workdir, _fname(f"{alg.name}-{label}-{n}", ".op"),
                             _operator_text(label, alg.dim, rows))
            verify_ops.append(Op(f"verify-{alg.name}-{label}-{n}", ["yb", "verify", op_path],
                                 fld, expect={"kind": "braid", "family": "verify",
                                              "params": abg, "p": p}))
    for build, count, central in BRAID_LIE:
        alg = build()
        path = _write_algebra(workdir, _fname(alg.name, ".alg"), alg)
        tensor = _tensor_of(alg)
        for n in range(count):
            alpha = rng.choice(Q_VALUES[1:])
            c = rng.choice(Q_VALUES) if central else 0
            z = tuple(c * x for x in central) if central else (0,) * alg.dim
            argv = ["yb", "lie", path, f"--alpha={str(alpha)}", f"--z={_vec_arg(z)}",
                    "--verify"]
            ops.append(Op(f"lie-{alg.name}-{n}", argv, "Q",
                          expect={"kind": "braid", "family": "lie", "p": None,
                                  "matrix": lie_operator(tensor, alpha, z, None)}))
        ops.append(Op(f"center-{alg.name}", ["center", path], "Q",
                      expect={"kind": "braid", "family": "center", "p": None,
                              "tensor": tensor, "dim": 1 if central else 0}))
    ops += verify_ops
    if smoke:
        ops = [op for op in ops if "mat-2x2-Q" not in op.id and "affine-pair" not in op.id][::8]
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "scan": scan_ops,
    "check": check_ops,
    "derive": derive_ops,
    "braid": braid_ops,
}
