"""Identity specifications and the two verification semantics.

An identity is an equation between linear combinations of parenthesized
product words in abstract variables, e.g. ``((a*a)*b)*a = (a*a)*(b*a)``.
Products carry no associativity, so every product of more than two
factors must be parenthesized explicitly; sums, signs and integer or n/d
coefficients are allowed at the top level of each side, and a bare 0 is
the zero side.  IdentitySpec.parse reads the whole text, '=' included, as
one stream of tokens matched by one pattern; malformed text raises
ValueError.

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

Both are decided by a plan compiled once per identity, dimension,
characteristic and semantics: the coefficients are sums of integer
slot-table rows built from the structure constants, with no formal
polynomials.  One walk over the plan's groups yields, in order, each
group whose sides differ, building a row the first time a group reads
it: holds and a polynomial failure stop at the first, a pointwise
failure takes them all.  The tables live on the algebra's integer view,
its one integer form of the tensor, so every identity checked on it
reads and fills the same tables.  They decide verdicts and coefficient
witnesses; no concrete side is read off them.  A polynomial failure's
concrete witness is the first basis tuple whose sides differ, else the
first such {0, 1, -1} grid point; a pointwise failure's is the point its
residual names.  For the classification scan, constant_equations expands
the same plan with the structure constants left symbolic, into
polynomial equations in them.

One word evaluator, _word_sides, computes every concrete side: it sums
the plan's words in integers through the integer view's product, on
integer vectors of one scale, scaling each word's coefficient to the
top degree.  Each product is formed once per algebra: it is kept in the
view's products memo by its two integer factors, which every side
evaluated on the algebra reads.  Two readers leave nothing in it: the
{0, 1, -1} grid walk of the witness search keeps a memo of its own for
that walk, and a caller's assignment reads a copy, so the memo holds
only products of basis vectors and of pointwise witnesses.  Basis
vectors, grid points and the pointwise point enter as integers with
scale 1, and a witness's vectors return to the field through
from_integers; only a caller's assignment (evaluate_sides) passes the
view's gated entry, clear.  It gives the sides of every candidate of the
witness search and of the pointwise witness, and revalidate_verdict
re-checks every failure's witness through it, over one assignment
(evaluate_sides, which only revalidation calls) or the slot assignments
of the witness monomial, never reading the slot tables; a witness whose
names are not the identity's variables in declared order is rejected.
Revalidation still gates, sums and scales every word and converts back;
only the products its witness's search formed are read, not formed.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import Algebra, IntegerView, Vector
from .fields import LITERAL, QQ, PrimeField, Record, Scalar, from_integers, integral
from .linalg import accumulate, sparse_row

Word = Union[str, tuple]
LinComb = tuple  # of (Fraction, Word) pairs

# Cap on the {0, 1, -1} grid scan when hunting a concrete counterexample
# for a polynomial-mode failure.
WITNESS_SEARCH_CAP = 20000


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# The whole text is one token stream, '=' included.  Each match of _TOKEN is
# one token: a number (an unsigned fields.LITERAL, since '-' is its own
# token; a bare n/ is malformed), a name (a word that does not start with
# an ASCII digit), one of ()+-*=, or any other visible character, which is
# an error.  The parser pops (kind, text) tokens off the stream stored last
# first, over an end marker that fails every check of the token read after
# the last.

_TOKEN = re.compile(rf"\s*(?:(?P<number>(?=[0-9])(?:{LITERAL.pattern})/?)"
                    r"|(?P<name>[^\W0-9]\w*)|(?P<op>[-()+*=])|(?P<other>\S))")
_END = ("end", "end of text")


def _tokens(text: str) -> list:
    """The (kind, text) tokens of the identity text, last first, over _END."""
    toks = []
    for m in _TOKEN.finditer(text.replace("·", "*")):
        kind, tok = m.lastgroup, m[m.lastgroup]
        if kind == "other":
            raise ValueError(f"unexpected character {tok!r} in identity text")
        if tok.endswith("/"):
            raise ValueError(f"malformed coefficient {tok!r} in identity text")
        toks.append((kind, tok))
    return [_END] + toks[::-1]


def _parse_atom(toks: list, variables: Sequence[str]) -> Word:
    kind, tok = toks.pop()
    if tok == "(":
        word = _parse_word(toks, variables)
        if toks.pop()[1] != ")":
            raise ValueError("expected ')' in identity text")
        return word
    if kind != "name":
        raise ValueError(f"expected a variable or '(' in identity text, got {tok!r}")
    if tok not in variables:
        raise ValueError(f"unknown variable {tok!r} (declared: {', '.join(variables)})")
    return tok


def _parse_word(toks: list, variables: Sequence[str]) -> Word:
    left = _parse_atom(toks, variables)
    if toks[-1][1] != "*":
        return left
    toks.pop()
    right = _parse_atom(toks, variables)
    if toks[-1][1] == "*":
        raise ValueError("ambiguous product: products are non-associative, parenthesize explicitly")
    return (left, right)


def _parse_side(toks: list, variables: Sequence[str]) -> LinComb:
    """Signed terms (a word, n/d*word or a bare 0) up to the first token
    after a term that is not + or -."""
    terms = []
    sign = toks.pop()[1] if toks[-1][1] == "-" else "+"
    while True:
        kind, tok = toks[-1]
        if tok == "0":
            toks.pop()
        else:
            coef = Fraction(1)
            if kind == "number":
                coef = QQ.parse(toks.pop()[1])  # ValueError on a zero denominator
                if toks.pop()[1] != "*":
                    raise ValueError("a coefficient must multiply a word, e.g. 2*(a*b)")
            terms.append((coef if sign == "+" else -coef, _parse_word(toks, variables)))
        if toks[-1][1] not in ("+", "-"):
            return tuple(terms)
        sign = toks.pop()[1]


class IdentitySpec(Record):
    """A named equation between linear combinations of product words."""

    name: str
    variables: tuple
    lhs: LinComb
    rhs: LinComb
    text: str

    def __init__(self, name: str, variables: tuple, lhs: LinComb, rhs: LinComb, text: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "text", text)

    @classmethod
    def parse(cls, name: str, text: str, variables: Sequence[str]) -> "IdentitySpec":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"{name}: identity variables must be distinct")
        toks = _tokens(text)
        try:
            lhs = _parse_side(toks, variables)
            if toks.pop()[1] != "=":
                raise ValueError(f"{name}: expected '=' after the left side")
            rhs = _parse_side(toks, variables)
        except RecursionError:
            raise ValueError(f"{name}: identity text nests too deeply") from None
        if toks != [_END]:
            raise ValueError(f"{name}: trailing tokens after the right side")
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

class CoefficientWitness(Record):
    """A monomial whose coefficient differs between the two sides."""

    monomial: tuple
    monomial_text: str
    coordinate: int
    lhs_coefficient: Scalar
    rhs_coefficient: Scalar

    def __init__(self, monomial: tuple, monomial_text: str, coordinate: int,
                 lhs_coefficient: Scalar, rhs_coefficient: Scalar):
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "monomial_text", monomial_text)
        object.__setattr__(self, "coordinate", coordinate)
        object.__setattr__(self, "lhs_coefficient", lhs_coefficient)
        object.__setattr__(self, "rhs_coefficient", rhs_coefficient)


class ConcreteWitness(Record):
    """A concrete assignment on which the two sides evaluate differently."""

    assignment: tuple  # ordered (variable name, vector) pairs
    lhs: Vector
    rhs: Vector

    def __init__(self, assignment: tuple, lhs: Vector, rhs: Vector):
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Verdict(Record):
    name: str
    passed: bool
    semantics: str
    identity: Optional[IdentitySpec]
    coefficient_witness: Optional[CoefficientWitness]
    concrete_witness: Optional[ConcreteWitness]
    notes: tuple

    def __init__(self, name: str, passed: bool, semantics: str,
                 identity: Optional[IdentitySpec] = None,
                 coefficient_witness: Optional[CoefficientWitness] = None,
                 concrete_witness: Optional[ConcreteWitness] = None, notes: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "semantics", semantics)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "coefficient_witness", coefficient_witness)
        object.__setattr__(self, "concrete_witness", concrete_witness)
        object.__setattr__(self, "notes", notes)


class AxiomReport(Record):
    algebra: str
    semantics: str
    verdicts: tuple
    notes: tuple

    def __init__(self, algebra: str, semantics: str, verdicts: tuple, notes: tuple = ()):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "semantics", semantics)
        object.__setattr__(self, "verdicts", verdicts)
        object.__setattr__(self, "notes", notes)

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

def _word_sides(plan: _Plan, view: IntegerView, leaf_keys, vector, s: int = 1,
                memo: Optional[dict] = None) -> tuple:
    """(lhs, rhs, scale), the plan's sides being lhs / scale and rhs / scale,
    each word summed over the tuples of leaf keys that leaf_keys(leaves)
    yields, with vector(key) at each leaf: integer tuples that share the
    scale s.

    The words are evaluated in integers through the view's product, never
    the slot rows; each product is kept by its two integer factors in
    memo, the view's products unless the caller passes its own, so a
    product is formed once per algebra.  On vectors cleared by s a word of
    degree m is s^m L^(m-1) times its value, so its coefficient is scaled
    by (s L)^(top - m), and each side's integer sum is D s^top L^(top-1)
    times its value."""
    d = view.d
    memo = view.products if memo is None else memo
    f, top = s * view.scale, plan.top
    sides = ([0] * d, [0] * d)
    for side, c, t, leaves in plan.words:
        acc, c = sides[side], c * f ** (top - len(leaves))
        for keys in leaf_keys(leaves):
            value = _shape_value(plan.shapes[t], map(vector, keys), view, memo)
            for k, x in enumerate(value):
                if x:
                    acc[k] += c * x
    return (*sides, plan.scale * s ** top * view.scale ** (top - 1))


def _shape_value(shape, leaves, view: IntegerView, memo: dict) -> tuple:
    """The shape evaluated through the view's product, with the next of
    leaves at each leaf; memo keeps each product by its two factors."""
    if shape is None:
        return next(leaves)
    key = (_shape_value(shape[0], leaves, view, memo), _shape_value(shape[1], leaves, view, memo))
    product = memo.get(key)
    if product is None:
        product = memo[key] = view.multiply(*key)
    return product


def _field_sides(alg: Algebra, spec: IdentitySpec, leaf_keys, vector) -> tuple:
    """(lhs, rhs) vectors of the polynomial plan's words, with a caller's
    vector(key) for each key of the tuples that leaf_keys(leaves) yields:
    the vectors pass the view's gated entry once, by one shared scale.
    The words read the view's products through a copy of its memo, so a
    caller's vectors leave no product on the view."""
    plan, view, d = _plan(alg, spec, "polynomial"), alg.integer_view, alg.dim
    keys = list(dict.fromkeys(key for *_, leaves in plan.words
                              for keys in leaf_keys(leaves) for key in keys))
    vectors = [vector(key) for key in keys]
    if any(len(v) != d for v in vectors):
        raise ValueError(f"{alg.name}: vector length does not match dimension {d}")
    cleared, s = view.clear(vectors)
    lhs, rhs, scale = _word_sides(plan, view, leaf_keys, dict(zip(keys, cleared)).__getitem__, s,
                                  dict(view.products))
    return from_integers(alg.field, lhs, scale), from_integers(alg.field, rhs, scale)


def evaluate_sides(alg: Algebra, spec: IdentitySpec, assignment: dict) -> tuple:
    """Concrete (lhs, rhs) vectors of the identity under an assignment."""
    return _field_sides(alg, spec, lambda leaves: [leaves], lambda v: assignment[spec.variables[v]])


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
# of one algebra live on its integer view, one lazily built _Table per
# shape, which every identity checked on that algebra reads and fills.

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


class _Plan(Record):
    scale: int  # D over Q, 1 over F_p
    top: int  # the largest degree of a word
    # (side, int coefficient, table, leaf variable numbers), the table an
    # index into shapes; _word_sides evaluates them at concrete vectors
    words: tuple
    shapes: tuple  # word shapes, one slot table each
    # (monomial, lhs terms, rhs terms), ascending by monomial; each side's
    # terms are ((int coefficient, table, rows of that table), ...)
    groups: tuple

    def __init__(self, scale: int, top: int, words: tuple, shapes: tuple, groups: tuple):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "groups", groups)


@functools.lru_cache(maxsize=256)
def _compile(spec: IdentitySpec, d: int, p: int, reduce: bool) -> _Plan:
    """The plan of the identity at dimension d in characteristic p (0 over
    Q), its monomials reduced by x^p = x when reduce is set."""
    field = PrimeField(p) if p else QQ
    var = {v: n for n, v in enumerate(spec.variables)}
    size = len(spec.variables) * d
    terms = [(side, fc, word) for side, comb in enumerate((spec.lhs, spec.rhs))
             for coef, word in comb if (fc := field.from_fraction(coef)) != field.zero]
    ints, scale = integral([fc for _, fc, _ in terms])
    words = []
    tables: dict = {}  # shape -> table number
    groups: dict = {}  # monomial -> ({(coefficient, table): rows} for lhs, same for rhs)
    for (side, _, word), c in zip(terms, ints):
        leaves = tuple(var[v] for v in _leaves(word))
        t = tables.setdefault(_shape(word), len(tables))
        words.append((side, c, t, leaves))
        for n, sigma in enumerate(itertools.product(range(d), repeat=len(leaves))):
            mono = _monomial(leaves, sigma, size, d)
            if reduce:
                mono = tuple(1 + (e - 1) % (p - 1) if e else 0 for e in mono)
            groups.setdefault(mono, ({}, {}))[side].setdefault((c, t), []).append(n)
    top = max((len(leaves) for *_, leaves in words), default=1)
    return _Plan(scale, top, tuple(words), tuple(tables), tuple(
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
    return _compile(spec, alg.dim, alg.field.characteristic, reduce)


class _Table(dict):
    """Row number -> sparse integer row (see linalg.accumulate) of one
    shape, sigma read big-endian.  Over Q the tensor is scaled by L, so a
    row of a shape with m leaves is L^(m-1) times the word's value on the
    basis vectors; over F_p rows are reduced mod p only where they are
    compared.  A missing row is built when first read, as the view's
    product of one row of each factor's table: each entry (i, x) of the
    left row adds x times the rows planes[i][j] that the right row's
    entries select."""

    def __init__(self, view: IntegerView, shape):
        super().__init__()
        d = self.d = view.d
        self.planes = view.planes
        if shape is None:
            self.size = d
            self.update((i, [(i, 1)]) for i in range(d))
        else:
            self.left, self.right = _table(view, shape[0]), _table(view, shape[1])
            self.size = self.left.size * self.right.size

    def __missing__(self, n: int) -> list:
        q, r = divmod(n, self.right.size)
        terms, planes = self.right[r], self.planes
        acc = [0] * self.d
        for i, x in self.left[q]:
            accumulate(acc, terms, planes[i], x)
        row = self[n] = sparse_row(acc)
        return row


def _table(view: IntegerView, shape) -> _Table:
    """The view's slot table of the shape, added to view.tables on first
    read and kept there for the algebra's lifetime.  The shape of (a*b)*c
    then serves assoc, lie.jacobi and ujla.1 alike, and each row is built
    at most once per algebra."""
    table = view.tables.get(shape)
    if table is None:
        table = view.tables[shape] = _Table(view, shape)
    return table


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
    plan = _compile(spec, dim, p, _reduces(spec, semantics))
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


def _differences(plan: _Plan, view: IntegerView):
    """(monomial, lhs sums, rhs sums) of each plan group, in order, whose
    sides differ; over F_p the sums are residues mod p.  Each side sums
    its table rows through linalg.accumulate, and only the rows of the
    groups read are built."""
    tables = [_table(view, shape) for shape in plan.shapes]
    d, p = view.d, view.p
    for mono, lterms, rterms in plan.groups:
        lhs, rhs = [0] * d, [0] * d
        for acc, terms in ((lhs, lterms), (rhs, rterms)):
            for c, t, ns in terms:
                accumulate(acc, zip(ns, itertools.repeat(c)), tables[t])
        if p:
            lhs, rhs = [x % p for x in lhs], [x % p for x in rhs]
        if lhs != rhs:
            yield mono, lhs, rhs


def _slot_coefficients(alg: Algebra, spec: IdentitySpec, mono: tuple, k: int) -> tuple:
    """(lhs, rhs) coefficients of one monomial at coordinate k, from the slot
    assignments that land on it, with the integer basis vectors at the leaves."""
    d, view = alg.dim, alg.integer_view

    def slot_assignments(leaves):
        choices = [[i for i in range(d) if mono[v * d + i]] for v in leaves]
        for sigma in itertools.product(*choices):
            if _monomial(leaves, sigma, len(mono), d) == mono:
                yield sigma
    lhs, rhs, scale = _word_sides(_plan(alg, spec, "polynomial"), view, slot_assignments,
                                  view.basis_vectors.__getitem__)
    return from_integers(alg.field, (lhs[k], rhs[k]), scale)


def holds(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> bool:
    """Whether the identity holds, with no witness search."""
    return next(_differences(_plan(alg, spec, semantics), alg.integer_view), None) is None


def _first_nonzero_point(residual: dict, p: int) -> list:
    """Lexicographically least point of F_p^n where a nonzero residual with
    every exponent at most p - 1 does not vanish.

    Setting the next coordinate to c multiplies each term by c^e, where e
    is its exponent there, and merges the terms that then share their
    remaining exponents.  Reduced monomials are a basis
    of the functions F_p^n -> F_p, so the residual left after a choice is
    nonzero exactly when some point below that choice fails: the least c
    that leaves it nonzero is the next coordinate, with no backtracking.
    That c is at most the residual's degree in the coordinate, which has
    no more roots, so the search takes that many powers c^e, not p.
    """
    point = []
    for _ in range(len(next(iter(residual)))):
        for c in range(p):
            merged: dict = {}
            for mono, diff in residual.items():
                f = pow(c, mono[0], p)
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


def _witness(alg: Algebra, spec: IdentitySpec, vectors, sides: tuple) -> ConcreteWitness:
    """The witness at the integer vectors (s = 1), which, like its integer
    sides (lhs, rhs, scale), are brought back to the field."""
    field, (lhs, rhs, scale) = alg.field, sides
    vectors = [from_integers(field, v, 1) for v in vectors]
    return ConcreteWitness(tuple(zip(spec.variables, vectors)),
                           from_integers(field, lhs, scale), from_integers(field, rhs, scale))


def _search_concrete_witness(alg: Algebra, spec: IdentitySpec,
                             plan: _Plan) -> Optional[ConcreteWitness]:
    """First assignment among basis tuples, then the {0, 1, -1} grid, whose
    sides differ: each candidate's sides come from _word_sides at its
    integers (residues over F_p), never from the slot-table rows.  The
    basis tuples' products stay on the view, where revalidation reads them;
    the grid walk, up to WITNESS_SEARCH_CAP candidates, keeps its products
    in a memo of its own, dropped when the walk ends."""
    view = alg.integer_view
    nv, d, p = len(spec.variables), view.d, view.p
    # dict.fromkeys dedupes while keeping order (1 = -1 collapses mod 2)
    pool = list(dict.fromkeys([0, 1, p - 1] if p else [0, 1, -1]))
    points = itertools.islice(itertools.product(pool, repeat=nv * d), WITNESS_SEARCH_CAP)
    basis = itertools.product(view.basis_vectors, repeat=nv)
    grid = ([coords[v * d:(v + 1) * d] for v in range(nv)] for coords in points)
    # Basis tuples first: they witness most failures and read well.
    for combos, memo in ((basis, view.products), (grid, {})):
        for combo in combos:
            lhs, rhs, _ = sides = _word_sides(plan, view, lambda leaves: [leaves],
                                              combo.__getitem__, memo=memo)
            if any((x - y) % p for x, y in zip(lhs, rhs)) if p else lhs != rhs:
                return _witness(alg, spec, combo, sides)
    return None


def _monomial_text(mono: tuple, names: Sequence[str]) -> str:
    """Readable form of an exponent tuple, e.g. a0^2*b1."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
    return "*".join(parts) if parts else "1"


def check_identity(alg: Algebra, spec: IdentitySpec, semantics: str = "polynomial") -> Verdict:
    """Single-identity verdict under the chosen semantics, decided by the
    compiled plan.  A pointwise failure names the lexicographically least
    failing assignment (variables in declared order, each vector by its
    coordinates), read off the plan's residual; its sides are evaluated
    there by _word_sides, as for every candidate of the witness search.
    Both semantics read the slot tables on the algebra's integer view."""
    plan = _plan(alg, spec, semantics)
    view = alg.integer_view
    if semantics == "pointwise":
        p = alg.field.p
        residual = {mono: [(x - y) % p for x, y in zip(lhs, rhs)]
                    for mono, lhs, rhs in _differences(plan, view)}
        if not residual:
            return Verdict(spec.name, True, semantics, identity=spec)
        point = _first_nonzero_point(residual, p)
        d = alg.dim
        combo = [tuple(point[v * d:(v + 1) * d]) for v in range(len(spec.variables))]
        sides = _word_sides(plan, view, lambda leaves: [leaves], combo.__getitem__)
        return Verdict(spec.name, False, semantics, identity=spec,
                       concrete_witness=_witness(alg, spec, combo, sides))
    failure = next(_differences(plan, view), None)
    if failure is None:
        return Verdict(spec.name, True, semantics, identity=spec)
    mono, lhs, rhs = failure
    k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    scale = plan.scale * view.scale ** (sum(mono) - 1)
    lc, rc = from_integers(alg.field, (lhs[k], rhs[k]), scale)
    text = _monomial_text(mono, spec.indeterminate_names(alg.dim))
    cw = CoefficientWitness(mono, text, k, lc, rc)
    concrete = _search_concrete_witness(alg, spec, plan)
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
        if tuple(name for name, _ in xw.assignment) != tuple(spec.variables):
            return False
        lhs, rhs = evaluate_sides(alg, spec, dict(xw.assignment))
        if lhs != xw.lhs or rhs != xw.rhs or lhs == rhs:
            return False
        ok = True
    return ok
