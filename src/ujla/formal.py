"""Multivariate polynomials in commuting indeterminates over an exact field.

The arithmetic of the formal-polynomial test oracle (tests/formal_oracle.py):
abstract algebra elements are substituted by formal linear combinations of
basis vectors, multiplied through Algebra.multiply_formal, and an identity
holds (in polynomial semantics) when every coefficient polynomial of the
difference vanishes identically.  The library itself builds no Poly; its
identities are decided on integer slot plans (ujla.identities).

Monomials are dense exponent tuples over a fixed number of indeterminates;
zero coefficients are never stored.  Total degrees stay tiny (at most 4
for every identity in this package), so no sparse tricks are needed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import FieldSpec, Scalar


class Poly:
    """Immutable polynomial: dict from exponent tuple to nonzero scalar."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "Poly":
        return cls(field, nvars, {})

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, index: int) -> "Poly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(field, nvars, {tuple(exps): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other: "Poly") -> "Poly":
        field = self.field
        zero = field.zero
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            s = field.normalize(acc.get(mono, zero) + c)
            if s == zero:
                acc.pop(mono, None)
            else:
                acc[mono] = s
        return Poly(field, self.nvars, acc)

    def __neg__(self) -> "Poly":
        norm = self.field.normalize
        return Poly(self.field, self.nvars, {m: norm(-c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        field = self.field
        zero = field.zero
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(m1, m2))
                acc[key] = acc.get(key, 0) + c1 * c2
        norm = field.normalize
        return Poly(field, self.nvars, {
            m: n for m, c in acc.items() if (n := norm(c)) != zero
        })

    def scale(self, c: Scalar) -> "Poly":
        field = self.field
        c = field.normalize(c)
        if c == field.zero:
            return Poly.zero(field, self.nvars)
        norm = field.normalize
        return Poly(field, self.nvars, {
            m: n for m, x in self.terms.items() if (n := norm(c * x)) != field.zero
        })

    def lex_min_monomial(self) -> Optional[tuple]:
        """Lexicographically least exponent tuple, or None for zero."""
        return min(self.terms) if self.terms else None

    def coefficient(self, mono: tuple) -> Scalar:
        return self.terms.get(mono, self.field.zero)


def monomial_str(mono: tuple, names: Sequence[str]) -> str:
    """Readable form of an exponent tuple, e.g. a0^2*b1."""
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
