"""Exact ground fields: the rationals and prime fields F_p.

Scalars are plain Python values: ``Fraction`` for Q (always in lowest
terms, positive denominator) and ``int`` residues in ``[0, p)`` for F_p.
The arithmetic is Python's own operators, exact, with no floating-point
mode; a field object is only the boundary.  Values enter through
``coerce``, ``parse`` and ``from_fraction``; each computed result is
brought back with ``normalize``, which takes only an int, or over Q an
int or a Fraction, and raises ValueError for anything else, and printed
with ``format``, which takes what ``normalize`` takes; ``from_fraction``
takes an int or a Fraction (never a bool), in both fields.
``coerce`` gates each value once, where it is built: Algebra and Matrix
entries in their constructors, a caller's vectors at IntegerView.clear,
loose scalar arguments where they are passed; the library never gates a
value again.
Integer kernels take gated values through ``integral`` and bring their
results, integers x that share one scale s, back as the field elements
x / s through ``from_integers`` alone.  Field objects are frozen
``Record``s and safe to share; every value object of the package is one.
The one grammar of outside numbers lives here: after str.strip(), an
integer is [+-]?[0-9]+ in ASCII digits, a literal (LITERAL) an integer or
n/d of two, within int()'s digit limit; over F_p, n/d is n times d^-1.
The parse methods, integer, parse_field ("Q", or "F" then [1-9][0-9]*),
the identity tokenizer and the command line's option matcher read it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Union

Scalar = Union[Fraction, int]

MAX_PRIME = 2**31

INTEGER = "[+-]?[0-9]+"
LITERAL = re.compile(f"{INTEGER}(?:/{INTEGER})?")


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
    """(n, d) of a LITERAL n/d, d = 1 for an integer; ValueError otherwise."""
    text = text.strip()
    if not LITERAL.fullmatch(text):
        raise ValueError("expected an integer or n/d")
    num, slash, den = text.partition("/")
    return int(num), int(den) if slash else 1


def integer(text: str) -> int:
    """The int of an INTEGER; ValueError for anything else."""
    if not re.fullmatch(INTEGER, text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Record:
    """Base of the package's frozen value objects.

    A record's fields are its class's own annotations, in order, read once
    when the class is made.  Each record class has an explicit __init__
    that checks its arguments and sets every field once, with
    object.__setattr__; after that, assignment and deletion raise
    AttributeError.  Equality holds only between records of one class
    whose fields are equal in order, the hash is the hash of the field
    tuple unless the class defines its own, and the repr is
    Name(field=value, ...).  replace() builds a new record through
    __init__, so its checks run again.  Pickle and copy need nothing more.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    # Loops, not comprehensions, which are calls of their own on Python 3.11.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self) -> int:
        values = []
        for name in self._fields:
            values.append(getattr(self, name))
        return hash(tuple(values))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, checked again by __init__."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return self.__class__(**values)


class Rationals(Record):
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


class PrimeField(Record):
    """The field F_p with int-residue scalars in [0, p)."""

    p: int

    is_finite = True

    def __init__(self, p: int):
        # The bound first: trial division of a huge modulus would not end.
        if isinstance(p, int) and p >= MAX_PRIME:
            raise ValueError(f"field modulus must be < 2^31, got {p}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p!r}")
        object.__setattr__(self, "p", p)

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

    def from_fraction(self, q: Fraction) -> int:
        num, den = _rational(q).numerator, q.denominator
        if den % self.p == 0:
            raise ZeroDivisionError(
                f"coefficient {q} is undefined in characteristic {self.p}"
            )
        return num * pow(den, -1, self.p) % self.p

    def parse(self, text: str) -> int:
        try:
            num, den = _literal(text)
        except ValueError:
            raise ValueError(
                f"invalid F_{self.p} literal {text.strip()!r} (expected integer or n/d)"
            ) from None
        if den % self.p == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in F_{self.p}")
        return num * pow(den, -1, self.p) % self.p

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
    """Parse a field label: "Q", or "F" then a prime written [1-9][0-9]*."""
    label = label.strip()
    if label == "Q":
        return QQ
    if re.fullmatch("F[1-9][0-9]*", label):
        return PrimeField(int(label[1:]))
    raise ValueError(f"unknown field label {label!r} (expected 'Q' or 'F<p>')")
