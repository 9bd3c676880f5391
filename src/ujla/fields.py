"""Exact ground fields: the rationals and prime fields F_p.

Scalars are plain Python values interpreted through a field object:
``Fraction`` for Q (always in lowest terms, positive denominator) and
``int`` residues in ``[0, p)`` for F_p.  All arithmetic is exact; there
is no floating-point mode.  Field objects are frozen and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

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
        return x if isinstance(x, Fraction) else Fraction(x)

    def add(self, x, y):
        return self.normalize(x + y)

    def sub(self, x, y):
        return self.normalize(x - y)

    def mul(self, x, y):
        return self.normalize(x * y)

    def neg(self, x):
        return self.normalize(-x)

    def inv(self, x) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse in Q")
        return 1 / Fraction(x)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, q: Fraction) -> Fraction:
        return Fraction(q)

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {text!r}: {exc}") from None

    def format(self, x) -> str:
        return str(self.normalize(x))

    def elements(self) -> Iterable[Fraction]:
        raise ValueError("Q is infinite; cannot enumerate its elements")

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p with int-residue scalars in [0, p)."""

    p: int

    is_finite = True

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p!r}")
        if self.p >= MAX_PRIME:
            raise ValueError(f"field modulus must be < 2^31, got {self.p}")

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
        return x % self.p

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in F_{self.p}")
        return pow(x, self.p - 2, self.p)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def from_int(self, n: int) -> int:
        return n % self.p

    def from_fraction(self, q: Fraction) -> int:
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(
                f"coefficient {q} is undefined in characteristic {self.p}"
            )
        return q.numerator * self.inv(q.denominator % self.p) % self.p

    def parse(self, text: str) -> int:
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(text) % self.p
        except ZeroDivisionError:
            raise
        except ValueError:
            raise ValueError(
                f"invalid F_{self.p} literal {text!r} (expected integer or n/d)"
            ) from None

    def format(self, x: int) -> str:
        return str(x % self.p)

    def elements(self) -> range:
        return range(self.p)

    def __str__(self) -> str:
        return self.label


FieldSpec = Union[Rationals, PrimeField]

QQ = Rationals()


def coerce(field: FieldSpec, x) -> Scalar:
    """The one entry gate for scalars: a string is parsed, an int or
    Fraction is mapped into the field, anything else is rejected."""
    if isinstance(x, str):
        return field.parse(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return field.from_fraction(x)
    raise ValueError(f"scalar must be a string, an int or a Fraction, got {x!r}")


def parse_field(label: str) -> FieldSpec:
    """Parse a field label: "Q" or "F<p>" with p prime."""
    label = label.strip()
    if label == "Q":
        return QQ
    if label.startswith("F") and label[1:].isdigit():
        return PrimeField(int(label[1:]))
    raise ValueError(f"unknown field label {label!r} (expected 'Q' or 'F<p>')")
