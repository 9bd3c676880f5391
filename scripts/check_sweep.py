#!/usr/bin/env python3
"""Seeded byte-identity sweep of `ujla check` and `ujla compat`.

Writes seeded algebra files into a temporary directory: random tensors
over Q (entries 0, 1, -1, 2, 1/2, -3/2) and over F_2, F_3, F_5 and F_7
(any residue), at d = 1-4 and densities from sparse to dense, some of
them symmetrised so that checks pass, interleaved with a copy of
algebras/*.alg.  Each file is run in-process through `cli.run` as
`check --axioms assoc,lie,jordan,ujla` and `compat`, and over F_p once
more with `--pointwise`, until --runs runs are done.  One line is
printed: the number of runs per exit code, and a SHA-256 over every
run's argv (which names its case file), exit code, stdout and stderr.
Two checkouts that print the same line for one seed gave the same
verdicts, witnesses and errors on these inputs, byte for byte.

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


def cases(seed: int):
    """The corpus files, each followed by one random case, then random cases."""
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


def sweep(seed: int, runs: int) -> str:
    """The summary line of the first `runs` runs of the seed's cases."""
    digest = hashlib.sha256()
    counts: dict = {}
    done = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # argv and error messages name files relative to it
        try:
            for fname, text in cases(seed):
                pathlib.Path(fname).write_text(text)
                for argv in argvs(fname, text)[:runs - done]:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.run(argv)
                        except Exception as exc:  # a crash is an outcome to compare
                            code = type(exc).__name__
                    counts[code] = counts.get(code, 0) + 1
                    digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
                    done += 1
                if done == runs:
                    break
        finally:
            os.chdir(cwd)
    tally = ", ".join(f"exit {code} {n}" for code, n in sorted(counts.items(), key=str))
    return f"seed {seed} runs {runs}: {tally}; sha256 {digest.hexdigest()}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(sweep(args.seed, args.runs))


if __name__ == "__main__":
    main()
