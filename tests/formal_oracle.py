"""Formal-polynomial route to identity verdicts, kept as a test oracle.

Each variable number v is substituted by the formal vector
sum_i x_{v*d+i} e_i, both sides are expanded with `Poly` arithmetic and
`Algebra.multiply_formal`, and the identity holds when every coordinate
of lhs - rhs is the zero polynomial; under pointwise semantics after each
positive exponent e is reduced to 1 + (e - 1) mod (p - 1), since x^p = x.
It shares no code with the slot plans in `ujla.identities`.
"""

from __future__ import annotations

from ujla.formal import Poly, monomial_str


def formal_basis_combination(field, dim: int, nvars: int, offset: int) -> tuple:
    """Formal vector sum_i x_{offset+i} e_i as a tuple of polynomials."""
    return tuple(Poly.variable(field, nvars, offset + i) for i in range(dim))


def _eval_word(alg, word, env: dict, cache: dict):
    if isinstance(word, str):
        return env[word]
    if word not in cache:
        cache[word] = alg.multiply_formal(_eval_word(alg, word[0], env, cache),
                                          _eval_word(alg, word[1], env, cache))
    return cache[word]


def formal_sides(alg, spec) -> tuple:
    """(lhs, rhs), each a tuple of one polynomial per coordinate."""
    field, d = alg.field, alg.dim
    nvars = len(spec.variables) * d
    env = {v: formal_basis_combination(field, d, nvars, n * d)
           for n, v in enumerate(spec.variables)}
    cache: dict = {}
    sides = []
    for comb in (spec.lhs, spec.rhs):
        acc = [Poly.zero(field, nvars) for _ in range(d)]
        for coef, word in comb:
            vec = _eval_word(alg, word, env, cache)
            c = field.from_fraction(coef)
            acc = [a + x.scale(c) for a, x in zip(acc, vec)]
        sides.append(tuple(acc))
    return tuple(sides)


def reduce_exponents(poly: Poly) -> Poly:
    """Canonical form of poly as a function on F_p."""
    field = poly.field
    acc: dict = {}
    for mono, c in poly.terms.items():
        key = tuple(1 + (e - 1) % (field.p - 1) if e else 0 for e in mono)
        acc[key] = acc.get(key, 0) + c
    return Poly(field, poly.nvars, {m: n for m, c in acc.items() if (n := field.normalize(c))})


def formal_verdict(alg, spec, semantics: str = "polynomial") -> tuple:
    """(passed, coefficient witness or None); the witness is the least failing
    (monomial, its text, coordinate, lhs coefficient, rhs coefficient)."""
    lhs, rhs = formal_sides(alg, spec)
    diff = [x - y for x, y in zip(lhs, rhs)]
    if semantics == "pointwise":
        diff = [reduce_exponents(x) for x in diff]
    failing = [(x.lex_min_monomial(), k) for k, x in enumerate(diff) if not x.is_zero()]
    if not failing:
        return True, None
    if semantics == "pointwise":
        return False, None
    mono, k = min(failing)
    text = monomial_str(mono, spec.indeterminate_names(alg.dim))
    return False, (mono, text, k, lhs[k].coefficient(mono), rhs[k].coefficient(mono))
