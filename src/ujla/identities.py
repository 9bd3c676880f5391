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
  decided by the same coefficients with exponents reduced by x^p = x.
  A failure names the lexicographically least failing assignment,
  found by fixing one coordinate at a time in the reduced difference.

Both are decided by a plan compiled once per identity, dimension, field
and semantics: the coefficients are sums of integer slot-table rows
built from the structure constants, with no formal polynomials.  A row
is built the first time a group reads it, so a failure in the first
groups builds only their rows.  A polynomial failure's concrete witness
is read off the same rows (basis tuples) and the same integer tensor
(the {0, 1, -1} grid).  For the classification scan, constant_equations
expands the same plan with the structure constants left symbolic, into
polynomial equations in them.

Failures always carry a witness that can be re-validated independently:
revalidate_verdict recomputes it through Algebra.multiply and field
scalars, not through the integer rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import Algebra, Vector
from .fields import PrimeField, Scalar

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

    @functools.cached_property
    def is_multilinear(self) -> bool:
        """True when every word uses every declared variable exactly once."""
        variables = sorted(self.variables)
        return all(sorted(_leaves(word)) == variables for _, word in self.lhs + self.rhs)

    def __hash__(self) -> int:
        # Equal specs share these fields, and strings cache their hashes: the
        # plan cache hashes the spec on every check.
        return hash((self.name, self.variables, self.text))

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
# concrete evaluation
# ---------------------------------------------------------------------------

def _eval_word(alg: Algebra, word: Word, env: dict, cache: dict):
    if isinstance(word, str):
        return env[word]
    hit = cache.get(word)
    if hit is not None:
        return hit
    u = _eval_word(alg, word[0], env, cache)
    result = alg.multiply(u, _eval_word(alg, word[1], env, cache))
    cache[word] = result
    return result


def _eval_comb_concrete(alg: Algebra, comb: LinComb, env: dict, cache: dict) -> Vector:
    field = alg.field
    acc = [0] * alg.dim
    for coef, word in comb:
        c = field.from_fraction(coef)
        for k, x in enumerate(_eval_word(alg, word, env, cache)):
            acc[k] += c * x
    return tuple(map(field.normalize, acc))


def evaluate_sides(alg: Algebra, spec: IdentitySpec, assignment: dict) -> tuple:
    """Concrete (lhs, rhs) vectors of the identity under an assignment."""
    cache: dict = {}
    lhs = _eval_comb_concrete(alg, spec.lhs, assignment, cache)
    rhs = _eval_comb_concrete(alg, spec.rhs, assignment, cache)
    return lhs, rhs


# ---------------------------------------------------------------------------
# compiled slot plans
# ---------------------------------------------------------------------------
#
# Substitute variable number v by sum_i x_{v*d+i} e_i.  A word with m leaves
# (its slots) is then the sum over slot assignments sigma in [d]^m of the
# monomial prod_s x_{var(s)*d+sigma_s} times the word evaluated on the basis
# vectors e_{sigma_s}.  That value depends only on the word's shape, so one
# table per shape, indexed by sigma, serves every word of that shape.  A
# plan groups the (word, sigma) pairs of both sides by monomial; the
# identity holds when every group's lhs and rhs sums agree in every
# coordinate.  Under pointwise semantics each positive exponent e becomes
# 1 + (e - 1) mod (p - 1), since x^p = x: a polynomial over F_p vanishes as
# a function exactly when that reduced form is zero (Lidl & Niederreiter,
# Finite Fields, ch. 7).
#
# Arithmetic is on ints.  Over F_p the tensor and the coefficients are
# residues, reduced once per sum.  Over Q the tensor is scaled by the lcm L
# of its denominators and the coefficients by the lcm D of theirs, so a sum
# over a group of degree m is its coefficient times D * L^(m-1).  The rows
# of one algebra live in a _Rows, one lazily built _Table per shape.

def _leaves(word: Word) -> list:
    if isinstance(word, str):
        return [word]
    return _leaves(word[0]) + _leaves(word[1])


def _shape(word: Word):
    """The word's tree with every leaf replaced by None."""
    return None if isinstance(word, str) else (_shape(word[0]), _shape(word[1]))


def _monomial(leaves: Sequence[int], sigma: Sequence[int], size: int, d: int) -> tuple:
    exps = [0] * size
    for v, i in zip(leaves, sigma):
        exps[v * d + i] += 1
    return tuple(exps)


@dataclass(frozen=True)
class _Plan:
    scale: int  # D over Q, 1 over F_p
    # (side, field coefficient, int coefficient, table, leaf variable numbers),
    # the table an index into shapes
    words: tuple
    shapes: tuple  # word shapes, one slot table each
    # (monomial, lhs terms, rhs terms), ascending by monomial; each side's
    # terms are ((int coefficient, table, rows of that table), ...)
    groups: tuple


@functools.lru_cache(maxsize=256)
def _compile(spec: IdentitySpec, d: int, field, reduce: bool) -> _Plan:
    var = {v: n for n, v in enumerate(spec.variables)}
    size = len(spec.variables) * d
    comb = spec.lhs + spec.rhs
    scale = 1 if field.is_finite else math.lcm(*(c.denominator for c, _ in comb))
    words = []
    tables: dict = {}  # shape -> table number
    groups: dict = {}  # monomial -> ({(coefficient, table): rows} for lhs, same for rhs)
    for side, terms in enumerate((spec.lhs, spec.rhs)):
        for coef, word in terms:
            fc = field.from_fraction(coef)
            if fc == field.zero:
                continue
            leaves = tuple(var[v] for v in _leaves(word))
            t = tables.setdefault(_shape(word), len(tables))
            c = fc if field.is_finite else int(coef * scale)
            words.append((side, fc, c, t, leaves))
            sigmas = itertools.product(range(d), repeat=len(leaves))
            for n, sigma in enumerate(sigmas):
                mono = _monomial(leaves, sigma, size, d)
                if reduce:
                    mono = tuple(1 + (e - 1) % (field.p - 1) if e else 0 for e in mono)
                groups.setdefault(mono, ({}, {}))[side].setdefault((c, t), []).append(n)
    return _Plan(scale, tuple(words), tuple(tables), tuple(
        (mono, *(tuple((c, t, tuple(ns)) for (c, t), ns in by_key.items()) for by_key in sides))
        for mono, sides in sorted(groups.items())
    ))


def _reduces(spec: IdentitySpec, semantics: str) -> bool:
    """Whether the semantics decides the identity on the plan reduced by x^p = x."""
    if semantics not in ("polynomial", "pointwise"):
        raise ValueError(f"unknown semantics {semantics!r} (expected 'polynomial' or 'pointwise')")
    # Every exponent of a multilinear identity is at most 1, which x^p = x
    # leaves alone: one plan serves both semantics.
    return semantics == "pointwise" and not spec.is_multilinear


def _plan(alg: Algebra, spec: IdentitySpec, semantics: str) -> _Plan:
    reduce = _reduces(spec, semantics)
    if semantics == "pointwise" and not alg.field.is_finite:
        raise ValueError("pointwise semantics requires a finite field")
    return _compile(spec, alg.dim, alg.field, reduce)


def _product(uterms: list, vterms: list, d: int) -> list:
    """Integer product of u and v, given as their nonzero (x, plane i of the
    tensor) and (j, y) terms; plane[j] lists the nonzero (k, c) of e_i e_j."""
    acc = [0] * d
    for x, plane in uterms:
        for j, y in vterms:
            s = x * y
            for k, c in plane[j]:
                acc[k] += s * c
    return acc


class _Rows:
    """The integer slot tables of one algebra, one per shape, each row built
    the first time it is read.

    Over Q the tensor is scaled by L, the lcm of its denominators, so a row
    of a shape with m leaves is L^(m-1) times the word's value on the basis
    vectors; over F_p, L is 1 and rows are reduced mod p only where they
    are compared.  p is the characteristic, 0 over Q.
    """

    def __init__(self, alg: Algebra):
        d, tensor = alg.dim, alg.tensor
        self.d, self.p = d, alg.field.characteristic
        self.denom = 1
        if not alg.field.is_finite:
            self.denom = math.lcm(*(c.denominator for c in alg.tensor_flat()))
            tensor = [[[c.numerator * (self.denom // c.denominator) for c in row] for row in plane]
                      for plane in tensor]
        self.planes = [[[(k, c) for k, c in enumerate(row) if c] for row in plane]
                       for plane in tensor]
        self.tables = {
            None: _Table(self, None, [[int(i == j) for j in range(d)] for i in range(d)]),
            (None, None): _Table(self, (None, None), [row for plane in tensor for row in plane]),
        }

    def table(self, shape) -> "_Table":
        table = self.tables.get(shape)
        if table is None:
            table = self.tables[shape] = _Table(self, shape)
        return table

    def for_plan(self, plan: _Plan) -> list:
        """The tables of the plan's shapes, by table number."""
        return [self.table(shape) for shape in plan.shapes]

    def multiply(self, u, v) -> list:
        """Integer product of two integer vectors on the scaled tensor."""
        planes = self.planes
        return _product([(x, planes[i]) for i, x in enumerate(u) if x],
                        [(j, y) for j, y in enumerate(v) if y], self.d)


class _Table(dict):
    """Row number -> integer vector of one shape, sigma read big-endian; a
    missing row is the product of one row of each factor's table."""

    def __init__(self, rows: _Rows, shape, base: Optional[list] = None):
        super().__init__()
        self.planes, self.d = rows.planes, rows.d
        if base is not None:
            self.size = len(base)
            self.update(enumerate(base))
        else:
            self.left, self.right = rows.table(shape[0]), rows.table(shape[1])
            self.size = self.left.size * self.right.size
            self.vterms = [None] * self.right.size  # nonzero (j, y) of each right row

    def __missing__(self, n: int) -> list:
        q, r = divmod(n, self.right.size)
        self._build(q, (r,))
        return self[n]

    def fill(self) -> None:
        """Build every row, for the reads that visit every group."""
        if len(self) < self.size:
            self.left.fill()
            self.right.fill()
            for q in range(self.left.size):
                self._build(q, range(self.right.size))

    def _build(self, q: int, rs) -> None:
        """The rows of left row q times right row r, for each r in rs."""
        planes, right, vterms, d = self.planes, self.right, self.vterms, self.d
        u = [(x, planes[i]) for i, x in enumerate(self.left[q]) if x]
        base = q * right.size
        for r in rs:
            v = vterms[r]
            if v is None:
                v = vterms[r] = [(j, y) for j, y in enumerate(right[r]) if y]
            self[base + r] = _product(u, v, d)


def _symbolic_table(shape, memo: dict, d: int) -> list:
    """A whole slot table with the structure constants left symbolic: each
    coordinate is a polynomial {sorted flat constant indices: int coefficient}."""
    table = memo.get(shape)
    if table is None:
        left = _symbolic_table(shape[0], memo, d)
        right = _symbolic_table(shape[1], memo, d)
        table = []
        for u in left:
            for v in right:
                acc = [{} for _ in range(d)]
                for i, ui in enumerate(u):
                    for j, vj in enumerate(v):
                        for mu, x in ui.items():
                            for mv, y in vj.items():
                                for k in range(d):
                                    mono = tuple(sorted(mu + mv + ((i * d + j) * d + k,)))
                                    acc[k][mono] = acc[k].get(mono, 0) + x * y
                table.append(acc)
        memo[shape] = table
    return table


# Large enough for every key of the classification scan at d <= 2: 5 identities,
# 3 primes, 2 dimensions and 2 semantics.
@functools.lru_cache(maxsize=64)
def constant_equations(spec: IdentitySpec, dim: int, p: int,
                       semantics: str = "polynomial") -> tuple:
    """The identity over F_p as polynomial equations in the structure constants.

    Constant number (i*dim + j)*dim + k is the coefficient of e_k in e_i e_j.
    Each (monomial, coordinate) group of the plan for the semantics is
    expanded into a polynomial over those numbers, a tuple of (indices,
    coefficient) terms with indices ascending and coefficients in [1, p).
    The identity holds under the semantics on a tensor exactly when every
    returned polynomial vanishes mod p on its constants.  Under pointwise
    semantics a non-multilinear identity's plan groups its monomials after
    x^p = x; a reduced group's coefficient is still a sum of products of
    constants, so its equations decide pointwise truth.  Zero polynomials
    are dropped, and so are repeats up to a nonzero scalar, which vanish
    together.
    """
    plan = _compile(spec, dim, PrimeField(p), _reduces(spec, semantics))
    memo = {None: [[{(): 1} if i == j else {} for j in range(dim)] for i in range(dim)]}
    tables = [_symbolic_table(shape, memo, dim) for shape in plan.shapes]
    equations = {}
    for _, lhs, rhs in plan.groups:
        for k in range(dim):
            poly: dict = {}
            for sign, terms in ((1, lhs), (-1, rhs)):
                for c, t, rows in terms:
                    for n in rows:
                        for mono, x in tables[t][n][k].items():
                            poly[mono] = poly.get(mono, 0) + sign * c * x
            eq = sorted((mono, x % p) for mono, x in poly.items() if x % p)
            if eq:
                lead = pow(eq[0][1], -1, p)
                equations.setdefault(tuple((mono, x * lead % p) for mono, x in eq))
    return tuple(equations)


def _sums(terms: tuple, tables: list, d: int) -> list:
    """One side of a plan group: its sum per coordinate."""
    acc = [0] * d
    for c, t, ns in terms:
        for row in map(tables[t].__getitem__, ns):
            for k, x in enumerate(row):
                acc[k] += c * x
    return acc


# Most failing verdicts fail in one of the first two groups (1,309 of the
# 1,426 failing polynomial verdicts of one pass of the check benchmark).  A
# read that gets past them fills the tables, which costs less per row than
# building rows one at a time.
_LAZY_GROUPS = 2


def _first_failure(plan: _Plan, rows: _Rows) -> Optional[tuple]:
    """(monomial, coordinate, lhs, rhs) of the least group and coordinate
    whose sides differ, or None; lhs and rhs are field scalars.  The first
    groups build only the rows they read."""
    tables = rows.for_plan(plan)
    d, p = rows.d, rows.p
    for g, (mono, lhs, rhs) in enumerate(plan.groups):
        if g == _LAZY_GROUPS:
            for table in tables:
                table.fill()
        for k, (ls, rs) in enumerate(zip(_sums(lhs, tables, d), _sums(rhs, tables, d))):
            if (ls - rs) % p if p else ls != rs:
                if p:
                    return mono, k, ls % p, rs % p
                scale = plan.scale * rows.denom ** (sum(mono) - 1)
                return mono, k, Fraction(ls, scale), Fraction(rs, scale)
    return None


def _slot_value(alg: Algebra, shape, slots) -> Vector:
    """The shape evaluated with the next basis vector from slots at each leaf."""
    if shape is None:
        return alg.basis_vector(next(slots))
    left = _slot_value(alg, shape[0], slots)
    return alg.multiply(left, _slot_value(alg, shape[1], slots))


def _slot_coefficients(alg: Algebra, spec: IdentitySpec, mono: tuple, k: int) -> tuple:
    """(lhs, rhs) coefficients of one monomial at coordinate k, from the slot
    assignments that land on it, evaluated through Algebra.multiply."""
    d = alg.dim
    plan = _plan(alg, spec, "polynomial")
    acc = [0, 0]
    for side, coef, _, t, leaves in plan.words:
        choices = [[i for i in range(d) if mono[v * d + i]] for v in leaves]
        for sigma in itertools.product(*choices):
            if _monomial(leaves, sigma, len(mono), d) == mono:
                acc[side] += coef * _slot_value(alg, plan.shapes[t], iter(sigma))[k]
    return tuple(map(alg.field.normalize, acc))


def holds(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> bool:
    """Whether the identity holds, with no witness search."""
    return _first_failure(_plan(alg, spec, semantics), _Rows(alg)) is None


def _residual(plan: _Plan, rows: _Rows) -> dict:
    """Monomial -> lhs - rhs per coordinate mod p, for every group whose
    sides differ (finite fields)."""
    tables = rows.for_plan(plan)
    for table in tables:
        table.fill()
    d, p = rows.d, rows.p
    residual = {}
    for mono, lhs, rhs in plan.groups:
        diff = tuple((ls - rs) % p for ls, rs in zip(_sums(lhs, tables, d), _sums(rhs, tables, d)))
        if any(diff):
            residual[mono] = diff
    return residual


def _first_nonzero_point(residual: dict, p: int) -> list:
    """Lexicographically least point of F_p^n where a nonzero residual with
    every exponent at most p - 1 does not vanish.

    Setting the next coordinate to c multiplies each term by c^e, where e
    is its exponent there, and merges the terms that then share their
    remaining exponents.  Reduced monomials are a basis
    of the functions F_p^n -> F_p, so the residual left after a choice is
    nonzero exactly when some point below that choice fails: the least c
    that leaves it nonzero is the next coordinate, with no backtracking.
    """
    powers = [[pow(c, e, p) for e in range(p)] for c in range(p)]
    point = []
    for _ in range(len(next(iter(residual)))):
        for c in range(p):
            merged: dict = {}
            for mono, diff in residual.items():
                f = powers[c][mono[0]]
                if f:
                    acc = merged.setdefault(mono[1:], [0] * len(diff))
                    for k, x in enumerate(diff):
                        acc[k] += f * x
            merged = {mono: acc for mono, acc in merged.items() if any(x % p for x in acc)}
            if merged:
                break
        point.append(c)
        residual = merged
    return point


def _row_number(combo: Sequence[int], leaves: Sequence[int], d: int) -> int:
    """Table row of the slot assignment that gives each leaf the basis index
    of its variable in combo."""
    n = 0
    for v in leaves:
        n = n * d + combo[v]
    return n


def _int_value(rows: _Rows, shape, vectors) -> list:
    """The shape on integer vectors, the next one from vectors at each leaf."""
    if shape is None:
        return next(vectors)
    left = _int_value(rows, shape[0], vectors)
    return rows.multiply(left, _int_value(rows, shape[1], vectors))


def _search_concrete_witness(alg: Algebra, spec: IdentitySpec, plan: _Plan,
                             rows: _Rows) -> Optional[ConcreteWitness]:
    """First assignment among basis tuples, then the {0, 1, -1} grid, whose
    sides differ, evaluated in integers.

    A word of degree m on integer vectors is L^(m-1) times its value, so
    each word's coefficient is scaled by L^(top - m) and every side is
    D * L^(top - 1) times its value (1 over F_p).  On a basis tuple a
    word's value is its table row at the slot assignment."""
    nv, d, p, field = len(spec.variables), alg.dim, rows.p, alg.field
    top = max(len(leaves) for *_, leaves in plan.words)
    tables = rows.for_plan(plan)
    words = [(side, c * rows.denom ** (top - len(leaves)), plan.shapes[t], tables[t], leaves)
             for side, _, c, t, leaves in plan.words]

    def differing_sides(values) -> Optional[tuple]:
        """Both sides from the words' values, if they differ."""
        sides = ([0] * d, [0] * d)
        for (side, c, *_), value in zip(words, values):
            acc = sides[side]
            for k, x in enumerate(value):
                acc[k] += c * x
        lhs, rhs = sides
        if any((x - y) % p for x, y in zip(lhs, rhs)) if p else lhs != rhs:
            return sides
        return None

    def witness(vectors, sides) -> ConcreteWitness:
        scale = plan.scale * rows.denom ** (top - 1)
        lhs, rhs = ((tuple(x % p for x in acc) if p else tuple(Fraction(x, scale) for x in acc))
                    for acc in sides)
        return ConcreteWitness(tuple(zip(spec.variables, vectors)), lhs, rhs)

    # Basis tuples first: they witness most failures and read well.
    for combo in itertools.product(range(d), repeat=nv):
        sides = differing_sides([table[_row_number(combo, leaves, d)]
                                 for _, _, _, table, leaves in words])
        if sides:
            return witness([alg.basis_vector(i) for i in combo], sides)
    # dict.fromkeys dedupes while keeping order (0 = 1 = -1 collapses mod 2)
    pool = list(dict.fromkeys([field.zero, field.one, field.normalize(-1)]))
    grid = itertools.product(pool, repeat=nv * d)
    for coords in itertools.islice(grid, WITNESS_SEARCH_CAP):
        combo = [coords[v * d:(v + 1) * d] for v in range(nv)]
        env = [list(map(int, vector)) for vector in combo]
        sides = differing_sides([_int_value(rows, shape, map(env.__getitem__, leaves))
                                 for _, _, shape, _, leaves in words])
        if sides:
            return witness(combo, sides)
    return None


def _monomial_text(mono: tuple, names: Sequence[str]) -> str:
    """Readable form of an exponent tuple, e.g. a0^2*b1."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
    return "*".join(parts) if parts else "1"


def check_identity(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> Verdict:
    """Single-identity verdict under the chosen semantics, decided by the
    compiled plan.  A pointwise failure names the lexicographically least
    failing assignment (variables in declared order, each vector by its
    coordinates), read off the plan's residual."""
    plan = _plan(alg, spec, semantics)
    rows = _Rows(alg)
    if semantics == "pointwise":
        residual = _residual(plan, rows)
        if not residual:
            return Verdict(spec.name, True, semantics, identity=spec)
        point = _first_nonzero_point(residual, alg.field.p)
        d = alg.dim
        combo = [tuple(point[v * d:(v + 1) * d]) for v in range(len(spec.variables))]
        assignment = tuple(zip(spec.variables, combo))
        lhs, rhs = evaluate_sides(alg, spec, dict(assignment))
        return Verdict(spec.name, False, semantics, identity=spec,
                       concrete_witness=ConcreteWitness(assignment, lhs, rhs))
    failure = _first_failure(plan, rows)
    if failure is None:
        return Verdict(spec.name, True, semantics, identity=spec)
    mono, k, lc, rc = failure
    text = _monomial_text(mono, spec.indeterminate_names(alg.dim))
    cw = CoefficientWitness(mono, text, k, lc, rc)
    concrete = _search_concrete_witness(alg, spec, plan, rows)
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
        mono = tuple(cw.monomial)
        if not 0 <= cw.coordinate < alg.dim or len(mono) != len(spec.variables) * alg.dim:
            return False
        lc, rc = _slot_coefficients(alg, spec, mono, cw.coordinate)
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
