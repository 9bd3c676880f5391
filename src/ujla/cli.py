"""Command-line front end.

Exit status: 0 when every requested check passed, 1 when a check failed
(a witness is printed), 2 for usage, parse, or precondition errors.
Reports are deterministic: identical inputs produce identical bytes.
Scalar options reach the library as argv text, for fields.coerce to read
once; integer options are read by fields.integer.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from typing import Optional, Sequence

from . import fileformat
from .algebra import Algebra, format_vector
from .axioms import SUITES
from .classify import SearchSpec, enumerate_ujla
from .derivations import (
    check_derivation,
    derivation_six_term,
    derivation_two_term,
    revalidate_leibniz,
)
from .fields import LITERAL, integer, parse_field
from .identities import AxiomReport, revalidate_verdict
from .transforms import check_compatibility, commutator, deform, symmetrize
from .yang_baxter import (
    build_assoc_yb,
    build_lie_yb,
    center,
    check_braid,
    check_qybe,
    classify_params,
)


def _print_report(alg: Algebra, report: AxiomReport, revalidator=None) -> bool:
    """Print one line per verdict; witnesses are re-validated first."""
    for note in report.notes:
        print(f"# {note}")
    for v in report.verdicts:
        print(f"{v.name}: {'PASS' if v.passed else 'FAIL'}")
        if v.passed:
            continue
        ok = revalidator(v) if revalidator is not None else revalidate_verdict(alg, v)
        if not ok:
            raise RuntimeError(f"internal error: witness for {v.name} failed re-validation")
        if v.concrete_witness is not None:
            w = v.concrete_witness
            assign = ", ".join(
                f"{name}={format_vector(alg.field, vec)}" for name, vec in w.assignment
            )
            print(f"  witness: {assign}")
            print(f"  lhs = {format_vector(alg.field, w.lhs)}")
            print(f"  rhs = {format_vector(alg.field, w.rhs)}")
        if v.coefficient_witness is not None:
            cw = v.coefficient_witness
            print(
                f"  coefficient of {cw.monomial_text} in coordinate {cw.coordinate}: "
                f"lhs = {alg.field.format(cw.lhs_coefficient)}, "
                f"rhs = {alg.field.format(cw.rhs_coefficient)}"
            )
        for note in v.notes:
            print(f"  note: {note}")
    return report.passed


def _cmd_check(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    semantics = "pointwise" if args.pointwise else "polynomial"
    names = [n.strip() for n in args.axioms.split(",") if n.strip()]
    if not names:
        raise ValueError("--axioms needs at least one suite name")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown axiom suite {name!r} (choose from {', '.join(SUITES)})")
    ok = True
    for name in names:
        report = SUITES[name](alg, semantics)
        ok = _print_report(alg, report) and ok
    return 0 if ok else 1


def _cmd_derive(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    if args.via == "commutator":
        derived = commutator(alg)
    elif args.via == "symmetrize":
        derived = symmetrize(alg)
    else:
        if args.alpha is None or args.beta is None:
            raise ValueError("deform needs --alpha and --beta")
        derived = deform(alg, args.alpha, args.beta)
    sys.stdout.write(fileformat.dumps_algebra(derived))
    return 0


def _cmd_compat(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    semantics = "pointwise" if args.pointwise else "polynomial"
    report = check_compatibility(alg, semantics)
    return 0 if _print_report(alg, report) else 1


def _print_braid(report) -> None:
    print(f"braid: {'PASS' if report.braid_ok else 'FAIL'}")
    if report.first_mismatch is not None:
        r, c, lhs, rhs = report.first_mismatch
        print(f"  first mismatch at entry ({r}, {c}): lhs = {lhs}, rhs = {rhs}")
    print(f"invertible: {'yes' if report.invertible else 'no'} "
          f"(rank {report.rank} of {report.dim ** 2})")
    print(f"yang-baxter operator: {'yes' if report.is_yang_baxter else 'no'}")


def _print_operator(op, name: str, verify: bool) -> int:
    """Write the operator file, then on verify its braid report."""
    sys.stdout.write(fileformat.dumps_operator(op, name=name))
    if not verify:
        return 0
    report = check_braid(op)
    _print_braid(report)
    return 0 if report.is_yang_baxter else 1


def _cmd_yb_assoc(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    # Recorded, not shown, so that every run prints the same one line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op = build_assoc_yb(alg, args.alpha, args.beta, args.gamma)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return _print_operator(op, f"{alg.name}-yb", args.verify)


def _cmd_yb_lie(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    op = build_lie_yb(alg, args.alpha, args.z.split(","))
    return _print_operator(op, f"{alg.name}-lie-yb", args.verify)


def _cmd_yb_params(args) -> int:
    case = classify_params(parse_field(args.field), args.alpha, args.beta, args.gamma)
    if case is None:
        print("case: none (not a Yang-Baxter family member)")
    else:
        print(f"case: {case}")
    return 0


def _cmd_yb_verify(args) -> int:
    op = fileformat.load_operator_file(args.file)
    braid = check_braid(op)
    _print_braid(braid)
    qybe = check_qybe(op)
    print(f"qybe: {'PASS' if qybe.qybe_ok else 'FAIL'}")
    return 0 if braid.is_yang_baxter else 1


def _cmd_center(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    basis = center(alg)
    print(f"center dimension: {len(basis)}")
    for vec in basis:
        print(format_vector(alg.field, vec))
    return 0


def _cmd_derivation(args) -> int:
    alg = fileformat.load_algebra_file(args.file)
    builder = derivation_six_term if args.formula == "six" else derivation_two_term
    deriv = builder(alg, args.a.split(","), args.b.split(","))
    print(f"derivation matrix ({args.formula}-term), columns are images of basis vectors:")
    for row in deriv.rows:
        print("  [" + ", ".join(alg.field.format(x) for x in row) + "]")
    report = check_derivation(alg, deriv)
    ok = _print_report(alg, report, revalidator=lambda v: revalidate_leibniz(alg, deriv, v))
    return 0 if ok else 1


def _require_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, and leave no new file."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_classify(args) -> int:
    spec = SearchSpec(
        dim=args.dim, p=args.prime,
        semantics="pointwise" if args.pointwise else "polynomial",
    )
    if args.out:
        _require_writable(args.out)  # before a scan that may take minutes
    result = enumerate_ujla(spec, workers=args.workers)
    text = fileformat.dumps_classification(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {result.ujla_count} UJLA tensors in "
              f"{result.class_count} classes out of {result.total}")
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a separate argument such as -3/2 or
    -1,1/2 for a value, not an option.

    argparse reads an argument that starts with '-' as a value only when
    it looks like a negative number (-1 or -1.5, which the field rejects);
    here also a list of fields.LITERAL.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"-(?=[0-9])(?:{LITERAL.pattern})(?:,(?:{LITERAL.pattern}))*$|-[0-9]*\.[0-9]+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ujla",
        description="Exact checks for structure-constant algebras: axiom suites, "
                    "Yang-Baxter operators, derivations, and small classifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom suites on an algebra file")
    p.add_argument("file")
    p.add_argument("--axioms", required=True,
                   help="comma-separated suites: assoc, lie, jordan, ujla")
    p.add_argument("--pointwise", action="store_true",
                   help="exhaustive pointwise semantics (finite fields only)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derive", help="build a derived algebra")
    p.add_argument("file")
    p.add_argument("--via", required=True, choices=["commutator", "symmetrize", "deform"])
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("compat", help="check the bracket/circle compatibility relation")
    p.add_argument("file")
    p.add_argument("--pointwise", action="store_true")
    p.set_defaults(func=_cmd_compat)

    yb = sub.add_parser("yb", help="Yang-Baxter constructions and checks")
    ybsub = yb.add_subparsers(dest="yb_command", required=True)

    p = ybsub.add_parser("assoc", help="operator from a unital algebra product")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_yb_assoc)

    p = ybsub.add_parser("lie", help="operator from a Lie bracket and central z")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--z", required=True, help="comma-separated coordinates")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_yb_lie)

    p = ybsub.add_parser("params", help="classify (alpha, beta, gamma) parameters")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--field", default="Q", help="field label, default Q")
    p.set_defaults(func=_cmd_yb_params)

    p = ybsub.add_parser("verify", help="braid/QYBE/invertibility of an operator file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_yb_verify)

    p = sub.add_parser("center", help="basis of the center of a Lie algebra")
    p.add_argument("file")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("derivation", help="build a derivation candidate and check Leibniz")
    p.add_argument("file")
    p.add_argument("--a", required=True, help="comma-separated coordinates")
    p.add_argument("--b", required=True, help="comma-separated coordinates")
    p.add_argument("--formula", required=True, choices=["six", "two"])
    p.set_defaults(func=_cmd_derivation)

    p = sub.add_parser("classify", help="exhaustive UJLA scan over a prime field")
    p.add_argument("--dim", type=integer, required=True)
    p.add_argument("--prime", type=integer, required=True)
    p.add_argument("--pointwise", action="store_true")
    p.add_argument("--workers", type=integer, default=1)
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_classify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
