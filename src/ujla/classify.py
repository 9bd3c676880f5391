"""Exhaustive search for UJLA structures over small prime fields.

The scan covers every structure tensor of a given dimension over F_p in
lexicographic order, keeps the ones passing the UJLA suite under the
chosen semantics, and groups survivors into isomorphism classes by
brute-force enumeration of GL_d(F_p) basis changes.  Each basis change g
acts on flat tensors as a linear map, precomputed once per orbit
partition as sparse integer columns (`gl_action`), so an image is the
sum, by `linalg.accumulate`, of the columns that the tensor's nonzero
constants select, reduced mod p.
Canonical class representatives are the lexicographically least tensors
of their orbits.

It does not visit every tensor, and it builds none as an algebra.  On
the basis, each UJLA identity is a set of polynomial equations in the
d^3 structure constants: quadratic for the multilinear ujla.1, cubic for
ujla.2a-2d (whose pointwise semantics groups monomials after x^p = x).
The scan is a depth-first walk that fixes the constants in flat index
order and decides each equation as soon as its last constant is fixed.
A failing ujla.1 equation rejects the whole subtree at once, and the
subtree's size (p^(unfixed constants), clipped to the scanned range) is
added to the ujla.1 count.  A failing equation of a later identity only
marks it as the first failure known so far, since a deeper ujla.1
equation may still fail; each leaf then counts against the first
identity in suite order that failed, so the failure counts are exactly
the first-failure counts of a tensor-by-tensor scan.

The scan partitions cleanly over index ranges; results are merged in
range order, so the outcome is identical for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import Optional

from .algebra import Algebra
from .axioms import UJLA_SPECS
from .fields import PrimeField, Record
from .identities import constant_equations
from .linalg import Matrix, NotInvertibleError, accumulate, mat_inverse, sparse_row

SUPPORTED_DIMS = (1, 2)
SUPPORTED_PRIMES = (2, 3, 5)


class SearchSpec(Record):
    dim: int
    p: int
    semantics: str

    def __init__(self, dim: int, p: int, semantics: str = "polynomial"):
        for label, value in (("dimension", dim), ("prime", p)):
            # 2.0 == 2 and True == 1 would pass the membership tests below.
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"search {label} must be an int, got {value!r}")
        if dim not in SUPPORTED_DIMS:
            raise ValueError(f"search dimension must be one of {SUPPORTED_DIMS}, got {dim}")
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"search prime must be one of {SUPPORTED_PRIMES}, got {p}")
        if semantics not in ("polynomial", "pointwise"):
            raise ValueError(f"unknown semantics {semantics!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "semantics", semantics)

    @property
    def total(self) -> int:
        return self.p ** (self.dim ** 3)


class OrbitClass(Record):
    representative: tuple  # flattened tensor, lexicographically least in its orbit
    orbit_size: int

    def __init__(self, representative: tuple, orbit_size: int):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "orbit_size", orbit_size)


class ClassificationResult(Record):
    spec: SearchSpec
    total: int
    survivors: tuple
    failure_counts: tuple  # ((identity name, count), ...) in suite order
    classes: tuple

    def __init__(self, spec: SearchSpec, total: int, survivors: tuple, failure_counts: tuple,
                 classes: tuple):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "survivors", survivors)
        object.__setattr__(self, "failure_counts", failure_counts)
        object.__setattr__(self, "classes", classes)

    @property
    def ujla_count(self) -> int:
        return len(self.survivors)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def representative_algebras(self) -> list:
        return [
            tensor_algebra(self.spec.dim, self.spec.p, cls.representative,
                           name=f"ujla-d{self.spec.dim}-p{self.spec.p}-class{n}")
            for n, cls in enumerate(self.classes)
        ]


def flat_to_tensor(flat: tuple, dim: int) -> tuple:
    return tuple(
        tuple(tuple(flat[(i * dim + j) * dim + k] for k in range(dim)) for j in range(dim))
        for i in range(dim)
    )


def tensor_algebra(dim: int, p: int, flat: tuple, name: str = "") -> Algebra:
    field = PrimeField(p)
    return Algebra(
        name or f"tensor-d{dim}-p{p}",
        field, dim,
        tuple(f"e{i}" for i in range(dim)),
        flat_to_tensor(flat, dim),
    )


@functools.cache
def _suite_buckets(dim: int, p: int, semantics: str) -> tuple:
    """Every UJLA identity's constant equations under the semantics, as
    (suite position, equation) pairs bucketed by their largest flat index:
    bucket t is decided once the walk has fixed constants 0..t.  Within a
    bucket the pairs run in suite order.  The buckets are kept per search
    key, which SearchSpec bounds, and expand the plans that the identity
    engine keeps per characteristic, so a process builds each set once."""
    buckets = [[] for _ in range(dim ** 3)]
    for pos, spec in enumerate(UJLA_SPECS):
        for eq in constant_equations(spec, dim, p, semantics):
            buckets[max(idx[-1] for idx, _ in eq)].append((pos, eq))
    return tuple(map(tuple, buckets))


def _vanishes(eq: tuple, flat: list, p: int) -> bool:
    return sum(c * math.prod(map(flat.__getitem__, idx)) for idx, c in eq) % p == 0


def _scan_range(args) -> tuple:
    """Survivors and first-failure counts of the tensors with lex index in
    [start, stop).

    The walk fixes the flat constants in index order, which is the lex
    order of the tensors, and carries `first`, the suite position of the
    least identity known to fail on the constants fixed so far.  Once
    constant t is fixed, the equations whose largest index is t are
    decided in suite order, those of identities before `first` only.  A
    failing ujla.1 equation counts the whole subtree below (p^(unfixed)
    tensors, clipped to the range) as a ujla.1 failure unvisited; any
    other failing equation only lowers `first`, and the walk goes on,
    since a deeper ujla.1 failure still comes first.  A leaf is a
    survivor when no identity failed, and otherwise counts against
    identity `first`.  No tensor is built as an algebra: survivors come
    out in lex order and the counts stay "first failure in suite order".
    """
    dim, p, semantics, start, stop = args
    n = dim ** 3
    names = [spec.name for spec in UJLA_SPECS]
    buckets = _suite_buckets(dim, p, semantics)
    widths = [p ** (n - 1 - t) for t in range(n)]
    survivors = []
    counts = dict.fromkeys(names, 0)
    flat = [0] * n

    def walk(t: int, lo: int, first: int) -> None:
        width = widths[t]
        for c in range(p):
            a = lo + c * width
            b = a + width
            if b <= start or a >= stop:
                continue
            flat[t] = c
            failed = first
            for pos, eq in buckets[t]:
                if pos >= failed:
                    break
                if not _vanishes(eq, flat, p):
                    failed = pos
                    break
            if failed == 0:
                counts[names[0]] += min(b, stop) - max(a, start)
            elif t + 1 < n:
                walk(t + 1, a, failed)
            elif failed < len(names):
                counts[names[failed]] += 1
            else:
                survivors.append(tuple(flat))

    if start < stop:
        walk(0, 0, len(names))
    return survivors, counts


def _gl_pairs(p: int, dim: int):
    """Each invertible dim x dim matrix over F_p with its inverse, as row
    tuples, in lexicographic order of the flattened matrix, one at a time."""
    field = PrimeField(p)
    for entries in itertools.product(range(p), repeat=dim * dim):
        m = Matrix(field, tuple(entries[r * dim:(r + 1) * dim] for r in range(dim)))
        try:
            inverse = mat_inverse(m)
        except NotInvertibleError:
            continue
        yield m.rows, inverse.rows


def gl_matrices(p: int, dim: int) -> list:
    """All invertible dim x dim matrices over F_p with their inverses,
    in lexicographic order of the flattened matrix."""
    return list(_gl_pairs(p, dim))


def gl_action(p: int, dim: int, g_rows: tuple, ginv_rows: tuple) -> tuple:
    """The basis change f_i = sum_r g[r][i] e_r as a linear map on flat tensors.

    The new constants are c'[i][j][k] = sum_{r,s,m} g[r][i] g[s][j]
    g^-1[k][m] c[r][s][m], so column (r, s, m), at flat index
    (r d + s) d + m, is the sparse integer row (see linalg.accumulate) of
    the nonzero ((i d + j) d + k, g[r][i] g[s][j] g^-1[k][m] mod p) pairs:
    what one unit of c[r][s][m] adds to each new constant.  The products
    of nonzero residues of a prime are nonzero.
    """
    d = dim
    pairs = [
        [(i * d + j, a * b) for i, a in enumerate(g_rows[r]) if a
         for j, b in enumerate(g_rows[s]) if b]
        for r in range(d) for s in range(d)
    ]
    outs = [[(k, ginv_rows[k][m]) for k in range(d) if ginv_rows[k][m]] for m in range(d)]
    return tuple(
        [(ij * d + k, a * b % p) for ij, a in pair for k, b in out]
        for pair in pairs for out in outs
    )


def orbit_partition(spec: SearchSpec, survivors: tuple) -> tuple:
    """Group survivors into GL-orbits; representatives are lex-least.

    Each g in GL_d(F_p) acts through its `gl_action` columns, built once
    per call.  The survivor set must be closed under basis change
    (isomorphism preserves every identity); a violation means the filter
    and the action disagree and is reported as an internal error.
    """
    p, n = spec.p, spec.dim ** 3
    actions = [gl_action(p, spec.dim, g_rows, ginv_rows)
               for g_rows, ginv_rows in gl_matrices(p, spec.dim)]
    survivor_set = set(survivors)
    seen = set()
    classes = []
    for t in survivors:
        if t in seen:
            continue
        terms = sparse_row(t)
        orbit = set()
        for action in actions:
            t2 = tuple([x % p for x in accumulate([0] * n, terms, action)])
            if t2 not in survivor_set:
                raise RuntimeError(
                    "internal inconsistency: a UJLA tensor left the survivor set "
                    f"under basis change (tensor {t}, image {t2})"
                )
            orbit.add(t2)
        seen |= orbit
        rep = min(orbit)
        assert rep == t, "survivors are scanned in lex order, so the first hit is the least"
        classes.append(OrbitClass(representative=rep, orbit_size=len(orbit)))
    return tuple(classes)


def Pool(processes: int):
    """A multiprocessing pool.  multiprocessing (and socket with it) is
    imported here, only when a scan asks for workers, not by every command."""
    from multiprocessing import Pool as _Pool

    return _Pool(processes)


def enumerate_ujla(spec: SearchSpec, workers: int = 1) -> ClassificationResult:
    """Scan all p^(d^3) tensors, filter by the UJLA suite, reduce to orbits.

    At most os.cpu_count() worker processes are started."""
    # True == 1 would pass the bound below, and 1.5 or "2" fail deep inside.
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    total = spec.total
    workers = min(workers, os.cpu_count() or 1)
    pieces = 1 if workers <= 1 else workers * 4
    bounds = [total * i // pieces for i in range(pieces + 1)]
    jobs = [
        (spec.dim, spec.p, spec.semantics, lo, hi)
        for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    ]
    if workers <= 1:
        chunks = map(_scan_range, jobs)
    else:
        with Pool(workers) as pool:
            chunks = pool.map(_scan_range, jobs)
    survivors = []
    counts = {s.name: 0 for s in UJLA_SPECS}
    for chunk_survivors, chunk_counts in chunks:
        survivors.extend(chunk_survivors)
        for name, count in chunk_counts.items():
            counts[name] += count
    classes = orbit_partition(spec, tuple(survivors))
    return ClassificationResult(
        spec=spec,
        total=total,
        survivors=tuple(survivors),
        failure_counts=tuple((s.name, counts[s.name]) for s in UJLA_SPECS),
        classes=classes,
    )


def are_isomorphic(a: Algebra, b: Algebra) -> Optional[Matrix]:
    """A basis-change matrix g with g(uv) = g(u)g(v), or None.

    The first g of GL_d(F_p), in the lexicographic order of gl_matrices,
    that maps b onto a; the candidates are built one at a time and the
    walk stops at the witness.  Supported for finite fields and dimension
    at most 2 (beyond that the enumeration is not desk scale).
    """
    if a.field != b.field:
        raise ValueError("isomorphism test requires a common field")
    if not a.field.is_finite:
        raise ValueError("isomorphism test is implemented for finite fields only")
    if a.dim != b.dim:
        return None
    if a.dim > 2:
        raise ValueError("isomorphism test supports dimension at most 2")
    p, n = a.field.p, a.dim ** 3
    flat_a = list(a.tensor_flat())
    terms_b = sparse_row(b.tensor_flat())
    for g_rows, ginv_rows in _gl_pairs(p, a.dim):
        image = accumulate([0] * n, terms_b, gl_action(p, a.dim, g_rows, ginv_rows))
        if [x % p for x in image] == flat_a:
            return Matrix(a.field, g_rows)
    return None
