"""Field-scalar oracle for witness revalidation.

The identity's words and the two sides of the Leibniz rule, evaluated
through a product of its own on field scalars, the field-scalar mat_vec
of linalg_oracle and the vector helpers: the route revalidation took
before it ran on integers.  The product is the field-scalar loop
Algebra.multiply ran before it went through the integer view, so the
oracle never reads that view.  The words are read off the spec itself,
not off a compiled plan, and every sub-product is formed again where it
occurs.
"""

import itertools

from linalg_oracle import mat_vec
from ujla.algebra import vec_add, vec_scale


def _leaves(word) -> list:
    return [word] if isinstance(word, str) else _leaves(word[0]) + _leaves(word[1])


def multiply(alg, u, v) -> tuple:
    """The product on field scalars through the structure tensor, skipping
    zero coordinates and constants; each coordinate is normalised once."""
    acc = [0] * alg.dim
    vterms = [(j, y) for j, y in enumerate(v) if y]
    for i, x in enumerate(u):
        if x:
            plane = alg.tensor[i]
            for j, y in vterms:
                s = x * y
                for k, c in enumerate(plane[j]):
                    if c:
                        acc[k] += s * c
    return tuple(alg.field.normalize(x) for x in acc)


def _value(alg, word, keys, vector):
    """The word through multiply, with vector(next key) at each leaf."""
    if isinstance(word, str):
        return tuple(vector(next(keys)))
    left = _value(alg, word[0], keys, vector)
    return multiply(alg, left, _value(alg, word[1], keys, vector))


def field_sides(alg, spec, leaf_keys, vector) -> tuple:
    """(lhs, rhs): each side's words summed over the tuples of leaf keys that
    leaf_keys(leaves) yields, leaves being the word's variable numbers."""
    field = alg.field
    number = {v: n for n, v in enumerate(spec.variables)}
    sides = []
    for comb in (spec.lhs, spec.rhs):
        acc = alg.zero_vector()
        for coef, word in comb:
            c = field.from_fraction(coef)
            for keys in leaf_keys(tuple(number[v] for v in _leaves(word))):
                value = _value(alg, word, iter(keys), vector)
                acc = vec_add(field, acc, vec_scale(field, c, value))
        sides.append(acc)
    return tuple(sides)


def evaluate_sides(alg, spec, assignment: dict) -> tuple:
    return field_sides(alg, spec, lambda leaves: [leaves],
                       lambda v: assignment[spec.variables[v]])


def monomial(leaves, sigma, size: int, d: int) -> tuple:
    exps = [0] * size
    for v, i in zip(leaves, sigma):
        exps[v * d + i] += 1
    return tuple(exps)


def slot_coefficients(alg, spec, mono: tuple, k: int) -> tuple:
    """(lhs, rhs) coefficients of the monomial at coordinate k: every slot
    assignment of every word is tried, and those that land on it summed."""
    d = alg.dim

    def landing(leaves):
        return [sigma for sigma in itertools.product(range(d), repeat=len(leaves))
                if monomial(leaves, sigma, len(mono), d) == mono]

    lhs, rhs = field_sides(alg, spec, landing, alg.basis_vector)
    return lhs[k], rhs[k]


def leibniz_sides(alg, deriv, x, y) -> tuple:
    """(D(xy), D(x)y + xD(y)) on field scalars."""
    lhs = mat_vec(deriv, multiply(alg, x, y))
    rhs = vec_add(alg.field, multiply(alg, mat_vec(deriv, x), y),
                  multiply(alg, x, mat_vec(deriv, y)))
    return lhs, rhs
