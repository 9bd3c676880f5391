"""Independent reference oracles for the test suite.

Nothing here goes through the package's identity engine: products are
evaluated by direct definition unfolding over int residues, pointwise
truth by exhaustive enumeration, and polynomial truth by coefficient
extraction via slot symmetrization.  These exist to cross-check the
library and must stay independent of it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Word trees: a leaf is a (variable, occurrence) slot id, a node is a pair.
# The five UJLA identities, each as (lhs words, rhs words, variable degrees);
# every side is a list of (sign, tree) with slot ids naming the occurrence.


def _slots(tree, counter):
    """Assign (var, k) slot ids to the k-th occurrence of each variable."""
    if isinstance(tree, str):
        k = counter.setdefault(tree, 0)
        counter[tree] = k + 1
        return (tree, k)
    return (_slots(tree[0], counter), _slots(tree[1], counter))


def _side(words):
    out = []
    for sign, tree in words:
        counter: dict = {}
        out.append((sign, _slots(tree, counter), counter))
    return out


UJLA_IDENTITIES = {
    "ujla.1": (
        _side([(1, (("a", "b"), "c")), (1, (("b", "c"), "a")), (1, (("c", "a"), "b"))]),
        _side([(1, ("a", ("b", "c"))), (1, ("b", ("c", "a"))), (1, ("c", ("a", "b")))]),
        {"a": 1, "b": 1, "c": 1},
    ),
    "ujla.2a": (
        _side([(1, ((("a", "a"), "b"), "a"))]),
        _side([(1, (("a", "a"), ("b", "a")))]),
        {"a": 3, "b": 1},
    ),
    "ujla.2b": (
        _side([(1, (("a", "b"), ("a", "a")))]),
        _side([(1, ("a", ("b", ("a", "a"))))]),
        {"a": 3, "b": 1},
    ),
    "ujla.2c": (
        _side([(1, (("b", ("a", "a")), "a"))]),
        _side([(1, (("b", "a"), ("a", "a")))]),
        {"a": 3, "b": 1},
    ),
    "ujla.2d": (
        _side([(1, (("a", "a"), ("a", "b")))]),
        _side([(1, ("a", (("a", "a"), "b")))]),
        {"a": 3, "b": 1},
    ),
}


def ref_multiply(tensor, p, u, v):
    """Direct definition unfolding of the structure-constant product."""
    d = len(u)
    out = [0] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] += u[i] * v[j] * tensor[i][j][k]
    return tuple(x % p for x in out)


def ref_leibniz_witness(tensor, p, m):
    """First basis pair (i, j), row-major, with D(e_i e_j) != D(e_i)e_j + e_i D(e_j),
    as (i, j, lhs, rhs); None when the d x d matrix m (rows) is a derivation.
    p is None over Q, where scalars are Fractions."""
    d = len(tensor)
    norm = Fraction if p is None else (lambda x: x % p)

    def mul(u, v):
        out = [0] * d
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    out[k] += u[i] * v[j] * tensor[i][j][k]
        return out

    def apply(v):
        return [sum(m[r][s] * v[s] for s in range(d)) for r in range(d)]

    for i in range(d):
        for j in range(d):
            x = [1 if t == i else 0 for t in range(d)]
            y = [1 if t == j else 0 for t in range(d)]
            lhs = tuple(norm(v) for v in apply(mul(x, y)))
            rhs = tuple(norm(u + v) for u, v in zip(mul(apply(x), y), mul(x, apply(y))))
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


def _is_slot(tree):
    return isinstance(tree, tuple) and len(tree) == 2 and isinstance(tree[0], str) \
        and isinstance(tree[1], int)


def _eval(tree, tensor, p, env):
    if _is_slot(tree):
        return env[tree]
    u = _eval(tree[0], tensor, p, env)
    v = _eval(tree[1], tensor, p, env)
    return ref_multiply(tensor, p, u, v)


def _eval_side(side, tensor, p, slot_env, d):
    acc = [0] * d
    for sign, tree, _ in side:
        vec = _eval(tree, tensor, p, slot_env)
        for k in range(d):
            acc[k] += sign * vec[k]
    return tuple(x % p for x in acc)


def ref_pointwise_holds(name, tensor, p, d) -> bool:
    """Exhaustive truth of one UJLA identity over all concrete vectors."""
    lhs, rhs, degrees = UJLA_IDENTITIES[name]
    variables = sorted(degrees)
    vectors = [tuple(c) for c in itertools.product(range(p), repeat=d)]
    for combo in itertools.product(vectors, repeat=len(variables)):
        env = {}
        for var, vec in zip(variables, combo):
            for k in range(degrees[var]):
                env[(var, k)] = vec
        if _eval_side(lhs, tensor, p, env, d) != _eval_side(rhs, tensor, p, env, d):
            return False
    return True


def ref_polynomial_holds(name, tensor, p, d) -> bool:
    """Coefficient-level truth via slot symmetrization.

    The coefficient of a monomial prod_v v_{i_1}..v_{i_deg} equals the
    sum of the slot evaluations over all distinct orderings of each
    variable's index multiset, so the identity holds polynomially iff
    every symmetrized basis sum agrees between the two sides.
    """
    lhs, rhs, degrees = UJLA_IDENTITIES[name]
    variables = sorted(degrees)
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    multisets = {
        var: list(itertools.combinations_with_replacement(range(d), degrees[var]))
        for var in variables
    }
    for choice in itertools.product(*(multisets[v] for v in variables)):
        per_var_orders = [
            sorted(set(itertools.permutations(ms))) for ms in choice
        ]
        total_l = [0] * d
        total_r = [0] * d
        for orders in itertools.product(*per_var_orders):
            env = {}
            for var, order in zip(variables, orders):
                for k, idx in enumerate(order):
                    env[(var, k)] = basis[idx]
            vl = _eval_side(lhs, tensor, p, env, d)
            vr = _eval_side(rhs, tensor, p, env, d)
            for k in range(d):
                total_l[k] += vl[k]
                total_r[k] += vr[k]
        if [x % p for x in total_l] != [x % p for x in total_r]:
            return False
    return True


def ref_is_ujla(tensor, p, d, semantics: str) -> bool:
    holds = ref_polynomial_holds if semantics == "polynomial" else ref_pointwise_holds
    return all(holds(name, tensor, p, d) for name in UJLA_IDENTITIES)


def all_tensors(p, d):
    """All structure tensors in lexicographic order of the flat tuple."""
    for flat in itertools.product(range(p), repeat=d ** 3):
        yield flat, tuple(
            tuple(tuple(flat[(i * d + j) * d + k] for k in range(d)) for j in range(d))
            for i in range(d)
        )


def transform_tensor(p, d, flat, g_rows, ginv_rows):
    """Flat structure constants in the basis f_i = sum_r g[r][i] e_r: each
    product f_i f_j expanded in the e basis, then rewritten in the f basis
    through g^-1."""
    tensor = [[flat[(r * d + s) * d:(r * d + s + 1) * d] for s in range(d)] for r in range(d)]
    out = []
    for i in range(d):
        for j in range(d):
            # (f_i f_j)_m = sum_{r,s} g[r][i] g[s][j] c[r][s][m]
            prod = [0] * d
            for r in range(d):
                for s in range(d):
                    coeff = g_rows[r][i] * g_rows[s][j]
                    for m in range(d):
                        prod[m] += coeff * tensor[r][s][m]
            for k in range(d):
                out.append(sum(ginv_rows[k][m] * prod[m] for m in range(d)) % p)
    return tuple(out)


def sympy_polynomial_holds(name, tensor, p, d) -> bool:
    """Third route: expand formally with sympy and reduce coefficients mod p."""
    import sympy

    lhs, rhs, degrees = UJLA_IDENTITIES[name]
    variables = sorted(degrees)
    syms = {
        (var, i): sympy.Symbol(f"{var}{i}")
        for var in variables for i in range(d)
    }

    def formal_vec(var):
        return tuple(syms[(var, i)] for i in range(d))

    def mul(u, v):
        out = []
        for k in range(d):
            out.append(sympy.expand(sum(
                u[i] * v[j] * tensor[i][j][k] for i in range(d) for j in range(d)
            )))
        return tuple(out)

    def eval_tree(tree, env):
        if _is_slot(tree):
            return env[tree[0]]
        return mul(eval_tree(tree[0], env), eval_tree(tree[1], env))

    env = {var: formal_vec(var) for var in variables}
    diff = [0] * d
    for sign, tree, _ in lhs:
        vec = eval_tree(tree, env)
        diff = [x + sign * y for x, y in zip(diff, vec)]
    for sign, tree, _ in rhs:
        vec = eval_tree(tree, env)
        diff = [x - sign * y for x, y in zip(diff, vec)]
    symbols = list(syms.values())
    for expr in diff:
        expr = sympy.expand(expr)
        if expr == 0:
            continue
        poly = sympy.Poly(expr, *symbols, modulus=p)
        if not poly.is_zero:
            return False
    return True


def ref_rational_kernel(rows):
    """Fraction-based Gaussian elimination kernel, deterministic ordering."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][f]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return basis
