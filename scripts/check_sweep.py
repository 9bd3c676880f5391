#!/usr/bin/env python3
"""Seeded byte-identity sweep of `ujla check` and `ujla compat`, of the
`ujla yb` commands, of `ujla derivation`, and of `ujla derive`, `ujla
center`, `ujla yb params` and the `ujla classify` reports.

The check line: seeded algebra files are written into a temporary
directory: random tensors over Q (entries 0, 1, -1, 2, 1/2, -3/2) and
over F_2, F_3, F_5 and F_7 (any residue), at d = 1-4 and densities from
sparse to dense, some of them symmetrised so that checks pass,
interleaved with a copy of algebras/*.alg.  Each file is run in-process
through `cli.run` as `check --axioms assoc,lie,jordan,ujla` and
`compat`, and over F_p once more with `--pointwise`, until --runs runs
are done.

The yb line: the corpus files are taken in turn, cycling.  Each is run
through `yb assoc ... --verify` with seeded (alpha, beta, gamma), half
of them from the three Yang-Baxter cases, then through `yb assoc` with
parameters from those cases and `yb lie` with z zero or a multiple of
one basis vector; each operator file these two write is run through
`yb verify`.  Every corpus step is followed by three seeded random
operator files over the same fields, d = 1-4, sparse to dense, each run
through `yb verify`, until --runs runs are done.  Only the `error:`
lines of stderr enter this digest, so that the non-associative input
warning, advice rather than a verdict, is not compared.

The derivation line: the corpus files, each followed by one seeded
random algebra file as on the check line (from a seed of its own), then
random files only.  Each file is run through `derivation --formula six`
and `--formula two`, once with a and b seeded basis vectors and once
with seeded vectors of any coordinates, until --runs runs are done.
About half of these runs fail the Leibniz rule and print a witness.

The derive line: first `classify --dim 1|2 --prime 2`, under both
semantics, each writing its report with `--out`.  Then the corpus files,
each followed by one seeded random algebra file (from a seed of its own),
then random files only.  Each file is run through `derive --via
commutator`, whose output file is then run through `center`; through
`derive --via symmetrize` and `derive --via deform` with seeded (alpha,
beta), half of them summing to 1 so that a unit survives; through
`center` itself; and through `yb params` over its field with seeded
(alpha, beta, gamma), until --runs runs are done.

Each line gives the number of runs per exit code and a SHA-256 over
every run's argv (which names its case file), exit code, stdout and
stderr, and the text of the file that a run names with `--out`.  Two
checkouts that print the same lines for one seed gave the same verdicts,
witnesses, mismatches, reports and errors on these inputs, byte for
byte.

    PYTHONPATH=src python3 scripts/check_sweep.py --seed 1 --runs 1000
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ujla import cli  # noqa: E402

SUITES = "assoc,lie,jordan,ujla"
FIELDS = ("Q", "F2", "F3", "F5", "F7")
Q_VALUES = ("1", "-1", "2", "1/2", "-3/2")
DENSITIES = (0.1, 0.3, 0.6, 1.0)


def random_case(rng: random.Random, n: int) -> tuple:
    """(file name, algebra file text) of one seeded random tensor."""
    label = rng.choice(FIELDS)
    d = rng.randint(1, 4)
    density = rng.choice(DENSITIES)
    values = Q_VALUES if label == "Q" else [str(x) for x in range(1, int(label[1:]))]
    tensor = [[[rng.choice(values) if rng.random() < density else "0" for _ in range(d)]
               for _ in range(d)] for _ in range(d)]
    if rng.random() < 0.3:  # e_i e_j = e_j e_i: the commutative identities pass
        tensor = [[tensor[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    name = f"r{n:04d}-{label}-d{d}"
    return f"{name}.alg", json.dumps({"name": name, "field": label, "dim": d,
                                      "basis": [f"e{i}" for i in range(d)],
                                      "constants": tensor})


def cases(seed):
    """The corpus files, each followed by one random case, then random cases;
    seed is any seed random.Random takes."""
    rng = random.Random(seed)
    corpus = sorted((ROOT / "algebras").glob("*.alg"))
    for n in itertools.count():
        if n < len(corpus):
            yield f"corpus-{corpus[n].name}", corpus[n].read_text()
        yield random_case(rng, n)


def argvs(fname: str, text: str) -> list:
    runs = [["check", fname, "--axioms", SUITES], ["compat", fname]]
    if json.loads(text)["field"] != "Q":
        runs += [argv + ["--pointwise"] for argv in runs]
    return runs


def check_runs(seed: int):
    """The check line's argvs, each case file written before its runs."""
    for fname, text in cases(seed):
        pathlib.Path(fname).write_text(text)
        for argv in argvs(fname, text):
            yield argv


def yb_params(rng: random.Random, label: str, member_share: float) -> tuple:
    """(alpha, beta, gamma) as literals, drawn from the three Yang-Baxter
    cases with probability member_share and from all values otherwise."""
    values = ["0", *Q_VALUES] if label == "Q" else [str(x) for x in range(int(label[1:]))]
    nonzero = values[1:]
    if rng.random() >= member_share:
        return tuple(rng.choice(values) for _ in range(3))
    g = rng.choice(nonzero)
    case = rng.choice(("i", "ii", "iii"))
    if case == "i":
        return g, rng.choice(nonzero), g
    if case == "ii":
        return rng.choice(nonzero), g, g
    return "0", "0", g


def param_args(abg: tuple) -> list:
    """The --alpha/--beta/--gamma options; `=` keeps a literal such as -3/2 a value."""
    return [f"--{name}={x}" for name, x in zip(("alpha", "beta", "gamma"), abg)]


def random_operator(rng: random.Random, n: int) -> tuple:
    """(file name, operator file text) of one seeded random operator."""
    label = rng.choice(FIELDS)
    d = rng.randint(1, 4)
    density = rng.choice(DENSITIES)
    values = Q_VALUES if label == "Q" else [str(x) for x in range(1, int(label[1:]))]
    side = d * d
    matrix = [[rng.choice(values) if rng.random() < density else "0" for _ in range(side)]
              for _ in range(side)]
    name = f"op{n:04d}-{label}-d{d}"
    return f"{name}.op", json.dumps({"kind": "tensor-square-operator", "field": label,
                                     "dim": d, "convention": "column-major-basis-image",
                                     "matrix": matrix, "name": name})


def yb_runs(seed: int):
    """The yb line's argvs.  Each run's (exit code, stdout) is sent back,
    so that the operator files `yb assoc` and `yb lie` write can be verified."""
    rng = random.Random(f"yb:{seed}")
    corpus = sorted((ROOT / "algebras").glob("*.alg"))
    for n in itertools.count():
        path = corpus[n % len(corpus)]
        fname, text = f"corpus-{path.name}", path.read_text()
        pathlib.Path(fname).write_text(text)
        obj = json.loads(text)
        label, d = obj["field"], obj["dim"]
        yield ["yb", "assoc", fname, *param_args(yb_params(rng, label, 0.5)), "--verify"]
        assoc = ["yb", "assoc", fname, *param_args(yb_params(rng, label, 1.0))]
        z = ["0"] * d
        if rng.random() < 0.5:
            z[rng.randrange(d)] = rng.choice(Q_VALUES)
        lie = ["yb", "lie", fname, f"--alpha={rng.choice(Q_VALUES)}", f"--z={','.join(z)}"]
        for kind, argv in (("assoc", assoc), ("lie", lie)):
            code, out = yield argv
            if code == 0:
                op_name = f"corpus-{n:04d}-{path.stem}-{kind}.op"
                pathlib.Path(op_name).write_text(out)
                yield ["yb", "verify", op_name]
        for k in range(3):
            op_name, text = random_operator(rng, 3 * n + k)
            pathlib.Path(op_name).write_text(text)
            yield ["yb", "verify", op_name]


def coordinates(rng: random.Random, label: str, d: int) -> str:
    """A seeded vector as a coordinate list: a basis vector or, as often,
    any coordinates, negative literals included."""
    if rng.random() < 0.5:
        n = rng.randrange(d)
        return ",".join("1" if i == n else "0" for i in range(d))
    values = ["0", *Q_VALUES] if label == "Q" else ["-1", *map(str, range(int(label[1:])))]
    return ",".join(rng.choice(values) for _ in range(d))


def derivation_runs(seed: int):
    """The derivation line's argvs, each case file written before its runs."""
    rng = random.Random(f"derivation:{seed}")
    for fname, text in cases(f"derivation-files:{seed}"):
        pathlib.Path(fname).write_text(text)
        obj = json.loads(text)
        label, d = obj["field"], obj["dim"]
        for formula in ("six", "two"):
            for _ in range(2):
                a, b = coordinates(rng, label, d), coordinates(rng, label, d)
                yield ["derivation", fname, f"--a={a}", f"--b={b}", "--formula", formula]


def derive_runs(seed: int):
    """The derive line's argvs.  Each run's (exit code, stdout) is sent
    back, so that the commutator algebra `derive` prints can be given to
    `center`."""
    for d in (1, 2):
        for semantics in ("polynomial", "pointwise"):
            flag = ["--pointwise"] if semantics == "pointwise" else []
            yield ["classify", "--dim", str(d), "--prime", "2", *flag,
                   "--out", f"classify-d{d}-p2-{semantics}.json"]
    rng = random.Random(f"derive:{seed}")
    for fname, text in cases(f"derive-files:{seed}"):
        pathlib.Path(fname).write_text(text)
        label = json.loads(text)["field"]
        code, out = yield ["derive", fname, "--via", "commutator"]
        if code == 0:
            lie = fname.replace(".alg", "-lie.alg")
            pathlib.Path(lie).write_text(out)
            yield ["center", lie]
        yield ["derive", fname, "--via", "symmetrize"]
        alpha = yb_params(rng, label, 0.0)[0]
        beta = str(1 - Fraction(alpha)) if rng.random() < 0.5 else yb_params(rng, label, 0.0)[1]
        yield ["derive", fname, "--via", "deform", *param_args((alpha, beta))]
        yield ["center", fname]
        yield ["yb", "params", *param_args(yb_params(rng, label, 0.5)), f"--field={label}"]


def run_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a crash is an outcome to compare
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def sweep(label: str, runs_of, seed: int, runs: int, errors_only: bool = False) -> str:
    """The summary line of the first `runs` runs that runs_of(seed) yields,
    run in a fresh temporary directory; each run's (exit code, stdout) is
    sent back to the generator.  With errors_only, only the `error:` lines
    of stderr are digested.  The text of the file that a successful run
    names with --out is digested with that run."""
    digest = hashlib.sha256()
    counts: dict = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # argv and error messages name files relative to it
        try:
            gen = runs_of(seed)
            argv = next(gen)
            for done in range(1, runs + 1):
                code, out, err = run_cli(argv)
                if errors_only:
                    err = "".join(line for line in err.splitlines(True) if line.startswith("error: "))
                counts[code] = counts.get(code, 0) + 1
                record = [argv, code, out, err]
                if "--out" in argv and code == 0:
                    record.append(pathlib.Path(argv[argv.index("--out") + 1]).read_text())
                digest.update(json.dumps(record).encode())
                if done < runs:
                    argv = gen.send((code, out))
        finally:
            os.chdir(cwd)
    tally = ", ".join(f"exit {code} {n}" for code, n in sorted(counts.items(), key=str))
    return f"{label}seed {seed} runs {runs}: {tally}; sha256 {digest.hexdigest()}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(sweep("", check_runs, args.seed, args.runs))
    print(sweep("yb ", yb_runs, args.seed, args.runs, errors_only=True))
    print(sweep("derivation ", derivation_runs, args.seed, args.runs))
    print(sweep("derive ", derive_runs, args.seed, args.runs))


if __name__ == "__main__":
    main()
