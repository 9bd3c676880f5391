"""Identity specifications and the two verification semantics.

An identity is an equation between linear combinations of parenthesized
product words in abstract variables, e.g. ``((a*a)*b)*a = (a*a)*(b*a)``.
Products carry no associativity, so every product of more than two
factors must be parenthesized explicitly; sums and integer or rational
coefficients are allowed at the top level of each side.

Two semantics are implemented:

* polynomial (default): substitute each variable by a formal linear
  combination of basis vectors and require every coefficient polynomial
  of the difference to vanish identically.  Over an infinite field this
  is equivalent to truth on all elements; over F_p it is strictly
  stronger for non-multilinear identities.
* pointwise (finite fields only): truth on every concrete assignment,
  decided by the same difference with exponents reduced by x^p = x.

Failures always carry a witness that can be re-validated independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import Algebra, Vector, formal_basis_combination
from .fields import Scalar
from .formal import Poly, monomial_str

Word = Union[str, tuple]
LinComb = tuple  # of (Fraction, Word) pairs

# Cap on the {0, 1, -1} grid scan when hunting a concrete counterexample
# for a polynomial-mode failure.
WITNESS_SEARCH_CAP = 20000


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list:
        text = text.replace("·", "*")
        toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "()+-*=":
                toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j < len(text) and text[j] == "/":
                    j += 1
                    if j >= len(text) or not text[j].isdigit():
                        raise ValueError(f"malformed coefficient at position {i}: {text[i:j]!r}")
                    while j < len(text) and text[j].isdigit():
                        j += 1
                toks.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r} in identity text")
        return toks

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of identity text")
        self.pos += 1
        return tok


def _is_number(tok: Optional[str]) -> bool:
    return tok is not None and tok[0].isdigit()


def _is_name(tok: Optional[str]) -> bool:
    return tok is not None and (tok[0].isalpha() or tok[0] == "_")


def _parse_atom(ts: _Tokens, variables: Sequence[str]) -> Word:
    tok = ts.next()
    if tok == "(":
        word = _parse_word(ts, variables)
        if ts.next() != ")":
            raise ValueError("expected ')' in identity text")
        return word
    if _is_name(tok):
        if tok not in variables:
            raise ValueError(f"unknown variable {tok!r} (declared: {', '.join(variables)})")
        return tok
    raise ValueError(f"expected a variable or '(' in identity text, got {tok!r}")


def _parse_word(ts: _Tokens, variables: Sequence[str]) -> Word:
    left = _parse_atom(ts, variables)
    if ts.peek() == "*":
        ts.next()
        right = _parse_atom(ts, variables)
        if ts.peek() == "*":
            raise ValueError(
                "ambiguous product: products are non-associative, parenthesize explicitly"
            )
        return (left, right)
    return left


def _parse_side(ts: _Tokens, variables: Sequence[str]) -> LinComb:
    terms = []
    sign = Fraction(1)
    tok = ts.peek()
    if tok == "-":
        ts.next()
        sign = Fraction(-1)
    while True:
        tok = ts.peek()
        if tok == "0":
            ts.next()
        elif _is_number(tok):
            coef = Fraction(ts.next())
            if ts.next() != "*":
                raise ValueError("a coefficient must multiply a word, e.g. 2*(a*b)")
            word = _parse_word(ts, variables)
            terms.append((sign * coef, word))
        else:
            word = _parse_word(ts, variables)
            terms.append((sign, word))
        tok = ts.peek()
        if tok == "+":
            ts.next()
            sign = Fraction(1)
        elif tok == "-":
            ts.next()
            sign = Fraction(-1)
        else:
            return tuple(terms)


def _word_text(word: Word) -> str:
    if isinstance(word, str):
        return word
    left, right = word
    lt = _word_text(left) if isinstance(left, str) else f"({_word_text(left)})"
    rt = _word_text(right) if isinstance(right, str) else f"({_word_text(right)})"
    return f"{lt}*{rt}"


def _word_degrees(word: Word, degrees: dict) -> None:
    if isinstance(word, str):
        degrees[word] = degrees.get(word, 0) + 1
    else:
        _word_degrees(word[0], degrees)
        _word_degrees(word[1], degrees)


@dataclass(frozen=True)
class IdentitySpec:
    """A named equation between linear combinations of product words."""

    name: str
    variables: tuple
    lhs: LinComb
    rhs: LinComb
    text: str

    @classmethod
    def parse(cls, name: str, text: str, variables: Sequence[str]) -> "IdentitySpec":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"{name}: identity variables must be distinct")
        if text.count("=") != 1:
            raise ValueError(f"{name}: identity must contain exactly one '='")
        lhs_text, rhs_text = text.split("=")
        lts = _Tokens(lhs_text)
        lhs = _parse_side(lts, variables)
        if lts.peek() is not None:
            raise ValueError(f"{name}: trailing tokens on left side")
        rts = _Tokens(rhs_text)
        rhs = _parse_side(rts, variables)
        if rts.peek() is not None:
            raise ValueError(f"{name}: trailing tokens on right side")
        return cls(name, variables, lhs, rhs, text)

    @property
    def is_multilinear(self) -> bool:
        """True when every word uses every declared variable exactly once."""
        for _, word in self.lhs + self.rhs:
            degrees: dict = {}
            _word_degrees(word, degrees)
            if any(degrees.get(v, 0) != 1 for v in self.variables):
                return False
        return True

    def indeterminate_names(self, dim: int) -> list:
        return [f"{v}{i}" for v in self.variables for i in range(dim)]


# ---------------------------------------------------------------------------
# reports and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientWitness:
    """A monomial whose coefficient differs between the two sides."""

    monomial: tuple
    monomial_text: str
    coordinate: int
    lhs_coefficient: Scalar
    rhs_coefficient: Scalar


@dataclass(frozen=True)
class ConcreteWitness:
    """A concrete assignment on which the two sides evaluate differently."""

    assignment: tuple  # ordered (variable name, vector) pairs
    lhs: Vector
    rhs: Vector


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    semantics: str
    identity: Optional[IdentitySpec] = None
    coefficient_witness: Optional[CoefficientWitness] = None
    concrete_witness: Optional[ConcreteWitness] = None
    notes: tuple = ()


@dataclass(frozen=True)
class AxiomReport:
    algebra: str
    semantics: str
    verdicts: tuple
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failures(self) -> list:
        return [v for v in self.verdicts if not v.passed]

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_word(alg: Algebra, word: Word, env: dict, cache: dict, formal: bool):
    if isinstance(word, str):
        return env[word]
    hit = cache.get(word)
    if hit is not None:
        return hit
    u = _eval_word(alg, word[0], env, cache, formal)
    v = _eval_word(alg, word[1], env, cache, formal)
    result = alg.multiply_formal(u, v) if formal else alg.multiply(u, v)
    cache[word] = result
    return result


def _eval_comb_formal(alg: Algebra, comb: LinComb, env: dict, nvars: int, cache: dict) -> tuple:
    field = alg.field
    acc = [Poly.zero(field, nvars) for _ in range(alg.dim)]
    for coef, word in comb:
        vec = _eval_word(alg, word, env, cache, formal=True)
        c = field.from_fraction(coef)
        for k in range(alg.dim):
            acc[k] = acc[k] + vec[k].scale(c)
    return tuple(acc)


def _eval_comb_concrete(alg: Algebra, comb: LinComb, env: dict, cache: dict) -> Vector:
    field = alg.field
    acc = [field.zero] * alg.dim
    for coef, word in comb:
        vec = _eval_word(alg, word, env, cache, formal=False)
        c = field.from_fraction(coef)
        for k in range(alg.dim):
            acc[k] = field.add(acc[k], field.mul(c, vec[k]))
    return tuple(acc)


def evaluate_sides(alg: Algebra, spec: IdentitySpec, assignment: dict) -> tuple:
    """Concrete (lhs, rhs) vectors of the identity under an assignment."""
    cache: dict = {}
    lhs = _eval_comb_concrete(alg, spec.lhs, assignment, cache)
    rhs = _eval_comb_concrete(alg, spec.rhs, assignment, cache)
    return lhs, rhs


def _formal_sides(alg: Algebra, spec: IdentitySpec, keep: Optional[set] = None) -> tuple:
    """(lhs, rhs) with variable number idx substituted by sum_i x_{idx*d+i} e_i.
    When keep is given, every indeterminate outside it is set to zero."""
    d = alg.dim
    nvars = len(spec.variables) * d
    env = {v: formal_basis_combination(alg.field, d, nvars, idx * d)
           for idx, v in enumerate(spec.variables)}
    if keep is not None:
        zero = Poly.zero(alg.field, nvars)
        env = {v: tuple(x if idx * d + i in keep else zero for i, x in enumerate(vec))
               for idx, (v, vec) in enumerate(env.items())}
    cache: dict = {}
    return (_eval_comb_formal(alg, spec.lhs, env, nvars, cache),
            _eval_comb_formal(alg, spec.rhs, env, nvars, cache))


def _reduce_exponents(poly: Poly) -> Poly:
    """Canonical form of poly as a function on F_p: since x^p = x, each
    positive exponent e becomes 1 + (e - 1) mod (p - 1)."""
    field = poly.field
    period = field.p - 1
    acc: dict = {}
    for mono, c in poly.terms.items():
        key = tuple(1 + (e - 1) % period if e else 0 for e in mono)
        acc[key] = acc.get(key, 0) + c
    norm = field.normalize
    return Poly(field, poly.nvars, {m: n for m, c in acc.items() if (n := norm(c))})


def _difference(alg: Algebra, spec: IdentitySpec, semantics: str) -> tuple:
    """Formal (lhs, rhs) and lhs - rhs per coordinate, exponent-reduced under
    pointwise semantics: a polynomial over F_p vanishes as a function exactly
    when its reduced form is zero (Lidl & Niederreiter, Finite Fields, ch. 7)."""
    if semantics not in ("polynomial", "pointwise"):
        raise ValueError(f"unknown semantics {semantics!r} (expected 'polynomial' or 'pointwise')")
    if semantics == "pointwise" and not alg.field.is_finite:
        raise ValueError("pointwise semantics requires a finite field")
    lhs, rhs = _formal_sides(alg, spec)
    diff = [x - y for x, y in zip(lhs, rhs)]
    if semantics == "pointwise":
        diff = [_reduce_exponents(x) for x in diff]
    return lhs, rhs, diff


def holds(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> bool:
    """Whether the identity holds, with no witness search."""
    return all(x.is_zero() for x in _difference(alg, spec, semantics)[2])


def _first_witness(alg: Algebra, spec: IdentitySpec, combos) -> Optional[ConcreteWitness]:
    """First assignment (one vector per variable) in combos whose sides differ."""
    for combo in combos:
        lhs, rhs = evaluate_sides(alg, spec, dict(zip(spec.variables, combo)))
        if lhs != rhs:
            return ConcreteWitness(tuple(zip(spec.variables, combo)), lhs, rhs)
    return None


def _search_concrete_witness(alg: Algebra, spec: IdentitySpec) -> Optional[ConcreteWitness]:
    nv = len(spec.variables)
    d = alg.dim
    field = alg.field
    # dict.fromkeys dedupes while keeping order (0 = 1 = -1 collapses mod 2)
    pool = list(dict.fromkeys([field.zero, field.one, field.neg(field.one)]))
    grid = itertools.islice(itertools.product(pool, repeat=nv * d), WITNESS_SEARCH_CAP)
    # Basis tuples first: they witness most failures and read well.
    return _first_witness(alg, spec, itertools.chain(
        itertools.product(alg.basis_vectors(), repeat=nv),
        (tuple(coords[i * d:(i + 1) * d] for i in range(nv)) for coords in grid),
    ))


def all_vectors(alg: Algebra) -> list:
    """Every vector of the algebra, lexicographic by coordinates (finite fields)."""
    elems = list(alg.field.elements())
    return [tuple(c) for c in itertools.product(elems, repeat=alg.dim)]


def check_identity(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> Verdict:
    """Single-identity verdict under the chosen semantics, decided by the
    formal difference.  A pointwise failure names the first failing
    assignment in all_vectors order; the nonzero difference proves one exists."""
    lhs, rhs, diff = _difference(alg, spec, semantics)
    failing = [(x.lex_min_monomial(), k) for k, x in enumerate(diff) if not x.is_zero()]
    if not failing:
        return Verdict(spec.name, True, semantics, identity=spec)
    if semantics == "pointwise":
        combos = itertools.product(all_vectors(alg), repeat=len(spec.variables))
        return Verdict(spec.name, False, semantics, identity=spec,
                       concrete_witness=_first_witness(alg, spec, combos))
    mono, k = min(failing)
    cw = CoefficientWitness(mono, monomial_str(mono, spec.indeterminate_names(alg.dim)), k,
                            lhs[k].coefficient(mono), rhs[k].coefficient(mono))
    concrete = _search_concrete_witness(alg, spec)
    notes = ()
    if concrete is None:
        notes = ("no concrete counterexample among basis and {0,1,-1} assignments; "
                 "the discrepancy is visible only at the coefficient level",)
    return Verdict(spec.name, False, semantics, identity=spec,
                   coefficient_witness=cw, concrete_witness=concrete, notes=notes)


def verify_identity(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> AxiomReport:
    verdict = check_identity(alg, spec, semantics)
    return AxiomReport(algebra=alg.name, semantics=semantics, verdicts=(verdict,))


def revalidate_verdict(alg: Algebra, verdict: Verdict) -> bool:
    """Recompute a failed verdict's witnesses from scratch.

    Passing verdicts revalidate trivially.  A failing verdict must carry
    at least one witness, and each stored witness must reproduce when
    re-evaluated against the algebra.
    """
    if verdict.passed:
        return True
    spec = verdict.identity
    if spec is None:
        raise ValueError(
            f"verdict {verdict.name!r} has no attached identity; "
            "re-validate it through its originating checker"
        )
    ok = False
    cw = verdict.coefficient_witness
    if cw is not None:
        # Zeroing the indeterminates outside the monomial leaves its coefficient
        # unchanged and skips most of the expansion.
        lhs, rhs = _formal_sides(alg, spec, {n for n, e in enumerate(cw.monomial) if e})
        lc = lhs[cw.coordinate].coefficient(cw.monomial)
        rc = rhs[cw.coordinate].coefficient(cw.monomial)
        if lc != cw.lhs_coefficient or rc != cw.rhs_coefficient or lc == rc:
            return False
        ok = True
    xw = verdict.concrete_witness
    if xw is not None:
        env = dict(xw.assignment)
        lhs, rhs = evaluate_sides(alg, spec, env)
        if lhs != xw.lhs or rhs != xw.rhs or lhs == rhs:
            return False
        ok = True
    return ok
