#!/usr/bin/env python3
"""Regenerate tests/golden/classification.json.

The counts below are artifact-generated golden values: they come from the
exhaustive scans in ujla.classify, cross-checked against the independent
oracles in tests/reference.py (slot-symmetrization and sympy expansion)
before being frozen.  Rerun after any change to the identity engine and
re-run the cross-check tests before committing the new file.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from reference import (  # noqa: E402
    UJLA_IDENTITIES, all_tensors, ref_is_ujla, ref_pointwise_holds, ref_polynomial_holds,
)

from ujla.classify import SearchSpec, enumerate_ujla  # noqa: E402

CASES = [
    (1, 2, "polynomial"), (1, 2, "pointwise"),
    (1, 3, "polynomial"), (1, 3, "pointwise"),
    (1, 5, "polynomial"), (1, 5, "pointwise"),
    (2, 2, "polynomial"), (2, 2, "pointwise"),
    (2, 3, "polynomial"), (2, 3, "pointwise"),
    (2, 5, "polynomial"), (2, 5, "pointwise"),
]
# Cases whose survivor lists are recomputed by the independent oracle before
# anything is written; d=2, p=5 walks all 390,625 tensors and takes minutes.
ORACLE_CASES = [(2, 2), (2, 5)]
# Above this many assignments per tensor, ujla.1 is not enumerated pointwise.
POINTWISE_ENUMERATION_CAP = 10 ** 4


def oracle_is_ujla(tensor, p: int, dim: int, semantics: str) -> bool:
    """ref_is_ujla, except where enumerating ujla.1's p^(3 dim) assignments is
    too slow (0.8 s per passing tensor at d=2, p=5; hours over the scan).
    There ujla.1 is decided on its coefficients under pointwise semantics
    too: it is multilinear, so every exponent is at most 1 < p and its
    coefficients vanish exactly when it holds on every assignment."""
    if semantics == "polynomial" or p ** (3 * dim) <= POINTWISE_ENUMERATION_CAP:
        return ref_is_ujla(tensor, p, dim, semantics)
    return ref_polynomial_holds("ujla.1", tensor, p, dim) and all(
        ref_pointwise_holds(name, tensor, p, dim) for name in UJLA_IDENTITIES if name != "ujla.1"
    )


def main() -> None:
    golden: dict = {"comment": "artifact-generated golden values; see scripts/freeze_golden.py"}
    entries = {}
    survivors = {}
    for dim, p, semantics in CASES:
        spec = SearchSpec(dim, p, semantics)
        result = enumerate_ujla(spec, workers=2)
        key = f"d{dim}_p{p}_{semantics}"
        entry = {
            "dim": dim,
            "prime": p,
            "semantics": semantics,
            "total": result.total,
            "ujla_count": result.ujla_count,
            "class_count": result.class_count,
            "orbit_sizes": [c.orbit_size for c in result.classes],
            "failure_counts": {name: n for name, n in result.failure_counts},
        }
        if result.total <= 256:
            entry["survivors"] = [list(s) for s in result.survivors]
            entry["representatives"] = [list(c.representative) for c in result.classes]
        entries[key] = entry
        survivors[key] = list(result.survivors)
        print(f"{key}: {result.ujla_count} / {result.class_count}")

    # Independent oracle cross-check before freezing.
    for dim, p in ORACLE_CASES:
        for semantics in ("polynomial", "pointwise"):
            oracle = [flat for flat, t in all_tensors(p, dim)
                      if oracle_is_ujla(t, p, dim, semantics)]
            key = f"d{dim}_p{p}_{semantics}"
            if oracle != survivors[key]:
                raise SystemExit(f"oracle disagrees with scan for {key}; refusing to freeze")
            print(f"independent oracle agrees on {key}")

    golden["cases"] = entries
    out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "classification.json"
    path.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
