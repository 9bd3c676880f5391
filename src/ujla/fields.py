"""Exact ground fields: the rationals and prime fields F_p.

Scalars are plain Python values: ``Fraction`` for Q (always in lowest
terms, positive denominator) and ``int`` residues in ``[0, p)`` for F_p.
The arithmetic is Python's own operators, exact, with no floating-point
mode; a field object is only the boundary.  Values enter through
``coerce``, ``parse`` and ``from_fraction``; ``parse`` reads one
grammar in both fields, an integer or n/d of two integers (no decimals
or exponents, and int()'s digit limit applies); each computed result is
brought back with ``normalize``, which takes only an int, or over Q an
int or a Fraction, and raises ValueError for anything else, and printed
with ``format``; ``inv`` is the one operation a field does itself.
``inv`` and ``format`` take what ``normalize`` takes, and
``from_fraction`` an int or a Fraction (never a bool), in both fields.
``coerce`` gates each value once, where it is built: Algebra and Matrix
entries in their constructors, a caller's vectors at IntegerView.clear,
loose scalar arguments where they are passed; the library never gates a
value again.
Integer kernels take gated values through ``integral`` and bring their
results, integers x that share one scale s, back as the field elements
x / s through ``from_integers`` alone.  Field objects are frozen and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

Scalar = Union[Fraction, int]

MAX_PRIME = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _rational(q):
    """q when it is an int or a Fraction (not a bool); ValueError otherwise."""
    if isinstance(q, (int, Fraction)) and not isinstance(q, bool):
        return q
    raise ValueError(f"not a rational (only ints and Fractions): {q!r}")


def _literal(text: str) -> tuple:
    """The int numerator and denominator of an integer or n/d literal;
    ValueError for anything else."""
    num, slash, den = text.partition("/")
    return int(num), int(den) if slash else 1


@dataclass(frozen=True)
class Rationals:
    """The field Q with Fraction scalars."""

    characteristic = 0
    is_finite = False

    @property
    def label(self) -> str:
        return "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def normalize(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if type(x) is not int:
            raise ValueError(f"not a Q scalar (only ints and Fractions): {x!r}")
        return Fraction(x)

    def inv(self, x) -> Fraction:
        x = self.normalize(x)
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse in Q")
        return 1 / x

    def from_fraction(self, q: Fraction) -> Fraction:
        if type(q) is Fraction:  # from_integers' hot path over Q
            return q
        return Fraction(_rational(q))

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(*_literal(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {text!r}: {exc}") from None

    def format(self, x) -> str:
        return str(self.normalize(x))

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p with int-residue scalars in [0, p)."""

    p: int

    is_finite = True

    def __post_init__(self):
        # The bound first: trial division of a huge modulus would not end.
        if isinstance(self.p, int) and self.p >= MAX_PRIME:
            raise ValueError(f"field modulus must be < 2^31, got {self.p}")
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p!r}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def label(self) -> str:
        return f"F{self.p}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def normalize(self, x: int) -> int:
        if type(x) is not int:
            raise ValueError(f"not an F_{self.p} scalar (only ints): {x!r}")
        return x % self.p

    def inv(self, x: int) -> int:
        x = self.normalize(x)
        if x == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in F_{self.p}")
        return pow(x, self.p - 2, self.p)

    def from_fraction(self, q: Fraction) -> int:
        num, den = _rational(q).numerator, q.denominator
        if den % self.p == 0:
            raise ZeroDivisionError(
                f"coefficient {q} is undefined in characteristic {self.p}"
            )
        return num * pow(den, -1, self.p) % self.p

    def parse(self, text: str) -> int:
        text = text.strip()
        try:
            num, den = _literal(text)
            return num * self.inv(den) % self.p
        except ZeroDivisionError:
            raise
        except ValueError:
            raise ValueError(
                f"invalid F_{self.p} literal {text!r} (expected integer or n/d)"
            ) from None

    def format(self, x: int) -> str:
        return str(self.normalize(x))

    def __str__(self) -> str:
        return self.label


FieldSpec = Union[Rationals, PrimeField]

QQ = Rationals()


def coerce(field: FieldSpec, x) -> Scalar:
    """The one entry gate for scalars: a string is parsed, an int or
    Fraction is mapped into the field, anything else is rejected."""
    if type(x) is int:  # the constructors' common case, ahead of the checks; excludes bool
        return field.normalize(x)
    if isinstance(x, str):
        return field.parse(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return field.from_fraction(x)
    raise ValueError(f"scalar must be a string, an int or a Fraction, got {x!r}")


def integral(values) -> tuple:
    """Integers n and one scale s with values = n / s, for a sequence of
    scalars of one field; s is 1 over F_p."""
    scale = lcm(*[x.denominator for x in values])
    return [x.numerator * (scale // x.denominator) for x in values], scale


def from_integers(field: FieldSpec, ints, scale: int) -> tuple:
    """The field elements n / scale of integers n that share one scale."""
    p = field.characteristic
    if p and scale == 1:
        return tuple([n % p for n in ints])
    return tuple(field.from_fraction(Fraction(n, scale)) for n in ints)


def parse_field(label: str) -> FieldSpec:
    """Parse a field label: "Q" or "F<p>" with p prime."""
    label = label.strip()
    if label == "Q":
        return QQ
    if label.startswith("F") and label[1:].isdigit():
        return PrimeField(int(label[1:]))
    raise ValueError(f"unknown field label {label!r} (expected 'Q' or 'F<p>')")
