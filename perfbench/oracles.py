"""Independent judges of each op's exit code and stdout.

Nothing here calls the library's identity, derivation or Yang-Baxter
code.  Products are unfolded from the structure tensor the benchmark
generated itself; UJLA verdicts go to the reference oracles in
`tests/reference.py`; classification reports go to
`tests/golden/classification.json`.  `judge(op, rc, stdout)` returns
None when the op's output is right, else a one-line reason.
"""

from __future__ import annotations

import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

from workloads import P61

ROOT = Path(__file__).resolve().parent.parent


def _load_reference():
    path = ROOT / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("ujla_reference_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _load_reference()
GOLDEN = json.loads((ROOT / "tests" / "golden" / "classification.json").read_text())["cases"]

# Every identity the `check` command can report, as (lhs, rhs) lists of
# (sign, word) with words as nested pairs of variable names.
IDENTITIES = {
    "assoc": ([(1, (("a", "b"), "c"))], [(1, ("a", ("b", "c")))]),
    "lie.alt": ([(1, ("a", "a"))], []),
    "lie.jacobi": ([(1, (("a", "b"), "c")), (1, (("b", "c"), "a")), (1, (("c", "a"), "b"))], []),
    "jordan.comm": ([(1, ("a", "b"))], [(1, ("b", "a"))]),
    "jordan.main": ([(1, (("a", "b"), ("a", "a")))], [(1, ("a", ("b", ("a", "a"))))]),
    "ujla.1": ([(1, (("a", "b"), "c")), (1, (("b", "c"), "a")), (1, (("c", "a"), "b"))],
               [(1, ("a", ("b", "c"))), (1, ("b", ("c", "a"))), (1, ("c", ("a", "b")))]),
    "ujla.2a": ([(1, ((("a", "a"), "b"), "a"))], [(1, (("a", "a"), ("b", "a")))]),
    "ujla.2b": ([(1, (("a", "b"), ("a", "a")))], [(1, ("a", ("b", ("a", "a"))))]),
    "ujla.2c": ([(1, (("b", ("a", "a")), "a"))], [(1, (("b", "a"), ("a", "a")))]),
    "ujla.2d": ([(1, (("a", "a"), ("a", "b")))], [(1, ("a", (("a", "a"), "b")))]),
}
_H = Fraction(1, 2)
# transforms.COMPAT: [a, b o c] + [b, c o a] + [c, a o b] = 0, expanded.
IDENTITIES["compat"] = ([
    (s * _H, w) for a, b, c in (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))
    for s, w in ((1, (a, (b, c))), (1, (a, (c, b))), (-1, ((b, c), a)), (-1, ((c, b), a)))
], [])
SUITE_NAMES = {
    "assoc": ["assoc"],
    "lie": ["lie.alt", "lie.jacobi"],
    "jordan": ["jordan.comm", "jordan.main"],
    "ujla": ["ujla.1", "ujla.2a", "ujla.2b", "ujla.2c", "ujla.2d"],
}
ALL_NAMES = [n for suite in ("assoc", "lie", "jordan", "ujla") for n in SUITE_NAMES[suite]]


# ---------------------------------------------------------------------------
# arithmetic by definition
# ---------------------------------------------------------------------------

def _norm(x, p):
    return x % p if p is not None else Fraction(x)


def multiply(tensor, u, v, p):
    d = len(tensor)
    out = [0] * d
    for i in range(d):
        if not u[i]:
            continue
        for j in range(d):
            if not v[j]:
                continue
            s = u[i] * v[j]
            for k in range(d):
                out[k] += s * tensor[i][j][k]
    return tuple(_norm(x, p) for x in out)


def _eval_word(tensor, word, env, p):
    if isinstance(word, str):
        return env[word]
    return multiply(tensor, _eval_word(tensor, word[0], env, p),
                    _eval_word(tensor, word[1], env, p), p)


def _eval_side(tensor, side, env, p):
    d = len(tensor)
    acc = [0] * d
    for sign, word in side:
        vec = _eval_word(tensor, word, env, p)
        for k in range(d):
            acc[k] += sign * vec[k]
    return tuple(_norm(x, p) for x in acc)


def _parse_scalar(text, p):
    return int(text) % p if p is not None else Fraction(text)


def _parse_vec(text, p):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a vector: {text!r}")
    return tuple(_parse_scalar(part, p) for part in text[1:-1].split(","))


# ---------------------------------------------------------------------------
# report parsing shared by `check` and `derivation`
# ---------------------------------------------------------------------------

_VERDICT = re.compile(r"^([\w.]+): (PASS|FAIL)$")
_ASSIGN = re.compile(r"(\w+)=(\([^)]*\))")
_COEF = re.compile(r"^  coefficient of \S+ in coordinate \d+: lhs = (\S+), rhs = (\S+)$")


def parse_report(lines):
    """[(name, passed, {"assign", "lhs", "rhs", "coef"})] in printed order."""
    out = []
    for line in lines:
        m = _VERDICT.match(line)
        if m:
            out.append((m.group(1), m.group(2) == "PASS", {}))
            continue
        if not out or line.startswith("#"):
            continue
        info = out[-1][2]
        if line.startswith("  witness: "):
            info["assign"] = _ASSIGN.findall(line[len("  witness: "):])
        elif line.startswith("  lhs = "):
            info["lhs"] = line[len("  lhs = "):]
        elif line.startswith("  rhs = "):
            info["rhs"] = line[len("  rhs = "):]
        elif _COEF.match(line):
            info["coef"] = _COEF.match(line).groups()
    return out


def _witness_problem(info, p, evaluate):
    """Re-validate one printed concrete witness with `evaluate(env)`."""
    env = {name: _parse_vec(vec, p) for name, vec in info["assign"]}
    lhs, rhs = evaluate(env)
    if lhs == rhs:
        return "witness does not separate the two sides"
    if lhs != _parse_vec(info["lhs"], p) or rhs != _parse_vec(info["rhs"], p):
        return "printed witness sides disagree with recomputation"
    return None


# ---------------------------------------------------------------------------
# judges
# ---------------------------------------------------------------------------

def _judge_scan(op, rc, out):
    if rc != 0:
        return f"exit {rc}"
    report = json.loads(out)
    gold = GOLDEN[op.expect["case"]]
    for key in ("total", "ujla_count", "class_count", "failure_counts"):
        if report[key] != gold[key]:
            return f"{key} {report[key]} != golden {gold[key]}"
    if [c["orbit_size"] for c in report["classes"]] != gold["orbit_sizes"]:
        return "orbit sizes differ from golden"
    if sum(c["orbit_size"] for c in report["classes"]) != gold["ujla_count"]:
        return "orbit sizes do not add up to the survivor count"
    if "representatives" in gold:
        reps = [[int(x) for plane in c["representative"]["constants"] for row in plane
                 for x in row] for c in report["classes"]]
        if reps != gold["representatives"]:
            return "class representatives differ from golden"
    return None


def _judge_check(op, rc, out):
    e = op.expect
    tensor, p = e["tensor"], e["p"]
    verdicts = parse_report(out.splitlines())
    names = [v[0] for v in verdicts]
    if names != ALL_NAMES:
        return f"verdict list {names}"
    passed = {name: ok for name, ok, _ in verdicts}
    if rc != (0 if all(passed.values()) else 1):
        return f"exit {rc} disagrees with the verdicts"
    for cls in e["classes"]:
        for name in SUITE_NAMES[cls] + SUITE_NAMES["ujla"]:
            if not passed[name]:
                return f"{cls} member fails {name}"
    sem = e.get("semantics")
    if sem is not None:
        ref_p = p if p is not None else P61
        holds = (REFERENCE.ref_polynomial_holds if sem == "polynomial"
                 else REFERENCE.ref_pointwise_holds)
        for name in SUITE_NAMES["ujla"]:
            if holds(name, tensor, ref_p, len(tensor)) != passed[name]:
                return f"{name} verdict disagrees with the reference oracle"
    for name, ok, info in verdicts:
        if ok:
            continue
        if "assign" not in info and "coef" not in info:
            return f"{name} failed without a witness"
        if "coef" in info and info["coef"][0] == info["coef"][1]:
            return f"{name} coefficient witness has equal sides"
        if "assign" in info:
            lhs_side, rhs_side = IDENTITIES[name]
            problem = _witness_problem(info, p, lambda env: (
                _eval_side(tensor, lhs_side, env, p), _eval_side(tensor, rhs_side, env, p)))
            if problem:
                return f"{name}: {problem}"
    return None


def _judge_compat(op, rc, out):
    """COMPAT is multilinear, so it holds exactly when every basis triple satisfies it."""
    tensor = op.expect["tensor"]
    d = len(tensor)
    lhs_side, rhs_side = IDENTITIES["compat"]
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    holds = all(
        _eval_side(tensor, lhs_side, env, None) == _eval_side(tensor, rhs_side, env, None)
        for env in ({"a": x, "b": y, "c": z} for x in basis for y in basis for z in basis))
    verdicts = parse_report(out.splitlines())
    if [v[0] for v in verdicts] != ["compat"]:
        return "no single compat verdict"
    _, ok, info = verdicts[0]
    if ok != holds:
        return "compat verdict disagrees with the basis-triple recomputation"
    if op.expect["member"] and not ok:
        return "corpus member fails compat"
    if rc != (0 if ok else 1):
        return f"exit {rc} disagrees with the verdict"
    if not ok:
        if "assign" not in info and "coef" not in info:
            return "compat failed without a witness"
        if "assign" in info:
            return _witness_problem(info, None, lambda env: (
                _eval_side(tensor, lhs_side, env, None), _eval_side(tensor, rhs_side, env, None)))
    return None


def _apply(m, v):
    return tuple(Fraction(sum(m[r][c] * v[c] for c in range(len(v)))) for r in range(len(m)))


def derivation_matrix(tensor, a, b, formula):
    """The six- or two-term map over Q, columns the images of basis vectors."""
    d = len(tensor)
    mul = lambda u, v: multiply(tensor, u, v, None)  # noqa: E731
    cols = []
    for k in range(d):
        x = tuple(1 if i == k else 0 for i in range(d))
        if formula == "six":
            ax, xa, bx, xb = mul(a, x), mul(x, a), mul(b, x), mul(x, b)
            terms = [(1, mul(a, bx)), (1, mul(b, ax)), (1, mul(ax, b)),
                     (-1, mul(a, xb)), (-1, mul(xb, a)), (-1, mul(xa, b))]
        else:
            terms = [(1, mul(a, mul(b, x))), (-1, mul(mul(x, a), b))]
        cols.append(tuple(sum(s * v[r] for s, v in terms) for r in range(d)))
    return [[cols[c][r] for c in range(d)] for r in range(d)]


def _leibniz_sides(tensor, m, x, y):
    lhs = _apply(m, multiply(tensor, x, y, None))
    dx_y = multiply(tensor, _apply(m, x), y, None)
    x_dy = multiply(tensor, x, _apply(m, y), None)
    return lhs, tuple(u + v for u, v in zip(dx_y, x_dy))


def _judge_derive(op, rc, out):
    e = op.expect
    tensor = e["tensor"]
    d = len(tensor)
    lines = out.splitlines()
    m = derivation_matrix(tensor, e["a"], e["b"], e["formula"])
    printed = [[Fraction(x) for x in line.strip()[1:-1].split(",")] for line in lines[1:1 + d]]
    if printed != m:
        return "printed derivation matrix differs from the formula"
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    first_bad = None
    for x in basis:
        for y in basis:
            lhs, rhs = _leibniz_sides(tensor, m, x, y)
            if lhs != rhs and first_bad is None:
                first_bad = (x, y)
    verdicts = parse_report(lines[1 + d:])
    if len(verdicts) != 1 or verdicts[0][0] != "leibniz":
        return "no single leibniz verdict"
    _, ok, info = verdicts[0]
    if ok != (first_bad is None):
        return "leibniz verdict disagrees with the basis-pair recomputation"
    if e["member"] and not ok:
        return "class member fails Leibniz"
    if rc != (0 if ok else 1):
        return f"exit {rc} disagrees with the verdict"
    if not ok:
        if "assign" not in info:
            return "leibniz failed without a witness"
        if tuple(_parse_vec(v, None) for _, v in info["assign"]) != first_bad:
            return "witness is not the first failing basis pair"
        problem = _witness_problem(info, None, lambda env: _leibniz_sides(
            tensor, m, env["x"], env["y"]))
        if problem:
            return problem
    return None


def trichotomy(alpha, beta, gamma) -> bool:
    """True when (alpha, beta, gamma) is in one of the three Yang-Baxter cases."""
    return bool((alpha == gamma != 0 and beta != 0) or (beta == gamma != 0 and alpha != 0)
                or (alpha == beta == 0 and gamma != 0))


def _braid_lines_problem(lines, expect_yb):
    want = "yes" if expect_yb else "no"
    if not lines or not lines[0].startswith("braid: "):
        return "missing braid line"
    if f"yang-baxter operator: {want}" not in lines:
        return f"expected 'yang-baxter operator: {want}'"
    if (lines[0] == "braid: PASS") == any(line.startswith("  first mismatch") for line in lines):
        return "braid verdict and mismatch report disagree"
    return None


def _judge_braid(op, rc, out):
    e = op.expect
    p = e["p"]
    if e["family"] == "center":
        return _judge_center(op, rc, out)
    expect_yb = e["family"] == "lie" or trichotomy(*e["params"])
    if rc != (0 if expect_yb else 1):
        return f"exit {rc}, expected {0 if expect_yb else 1}"
    if e["family"] == "verify":
        lines = out.splitlines()
        if not lines or not lines[-1].startswith("qybe: "):
            return "missing qybe line"
        return _braid_lines_problem(lines, expect_yb)
    obj, end = json.JSONDecoder().raw_decode(out)
    rows = [[_parse_scalar(x, p) for x in row] for row in obj["matrix"]]
    if rows != [[_norm(x, p) for x in row] for row in e["matrix"]]:
        return "printed operator differs from the family formula"
    return _braid_lines_problem(out[end:].strip("\n").splitlines(), expect_yb)


def _judge_center(op, rc, out):
    e = op.expect
    tensor = e["tensor"]
    d = len(tensor)
    lines = out.splitlines()
    if rc != 0 or lines[0] != f"center dimension: {e['dim']}" or len(lines) != 1 + e["dim"]:
        return "center dimension differs"
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    for line in lines[1:]:
        z = _parse_vec(line, None)
        if not any(z) or any(any(multiply(tensor, z, x, None)) for x in basis):
            return f"{line} is not a nonzero central vector"
    return None


JUDGES = {
    "scan": _judge_scan,
    "check": _judge_check,
    "compat": _judge_compat,
    "derive": _judge_derive,
    "braid": _judge_braid,
}


def judge(op, rc, out):
    try:
        return JUDGES[op.expect["kind"]](op, rc, out)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return f"unparseable output: {exc!r}"
