import importlib.util
import json
import os
import pathlib
import platform
import re
import shlex
import subprocess
import sys
import time

import pytest

from ujla import corpus, identities
from ujla.cli import run
from ujla.fileformat import dumps_algebra, dumps_operator, loads_algebra, loads_operator
from ujla.transforms import commutator
from ujla.fields import QQ, PrimeField
from ujla.linalg import Matrix
from ujla.yang_baxter import TensorSquareOperator

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for alg in (corpus.dual_numbers(), corpus.heisenberg(), corpus.sl2(),
                corpus.upper_triangular_2x2()):
        path = tmp_path / f"{alg.name}.alg"
        path.write_text(dumps_algebra(alg))
        paths[alg.name] = str(path)
    return paths


def test_check_passing_suites(files, capsys):
    status = run(["check", files["dual-numbers"], "--axioms", "assoc,ujla"])
    out = capsys.readouterr().out
    assert status == 0
    assert "assoc: PASS" in out
    assert "ujla.2d: PASS" in out


def test_check_failure_names_identity_and_witness(files, capsys):
    status = run(["check", files["heisenberg"], "--axioms", "jordan"])
    out = capsys.readouterr().out
    assert status == 1
    assert "jordan.comm: FAIL" in out
    assert "witness:" in out and "lhs =" in out


@pytest.mark.parametrize("pointwise", [False, True])
def test_check_reads_one_row_source_per_file(pointwise, tmp_path, monkeypatch, capsys):
    """Every suite of one check command reads one set of slot tables, kept
    on the algebra's integer view: one view, and each shape's table built
    once."""
    built = []

    class RecordedTable(identities._Table):
        def __init__(self, view, shape):
            super().__init__(view, shape)
            built.append((view, shape))

    monkeypatch.setattr(identities, "_Table", RecordedTable)
    alg = corpus.heisenberg(PrimeField(3)) if pointwise else corpus.heisenberg()
    path = tmp_path / "heisenberg.alg"
    path.write_text(dumps_algebra(alg))
    argv = ["check", str(path), "--axioms", "assoc,lie,jordan,ujla"]
    assert run(argv + ["--pointwise"] * pointwise) == 1
    out = capsys.readouterr().out
    assert "ujla.2d: PASS" in out and "jordan.comm: FAIL" in out and "witness:" in out
    shapes = [shape for _, shape in built]
    assert len({id(view) for view, _ in built}) == 1 and len(set(shapes)) == len(shapes), shapes


# Each field-literal option, given a negative fraction or coordinate list as
# a separate argument.
NEGATIVE_LITERALS = [
    (["yb", "assoc", "dual-numbers", "--beta", "1", "--gamma", "1"], "--alpha", "-3/2"),
    (["yb", "assoc", "dual-numbers", "--alpha", "1", "--gamma", "1", "--verify"], "--beta", "-3/2"),
    (["yb", "params", "--alpha", "0", "--beta", "0"], "--gamma", "-3/2"),
    (["yb", "lie", "abelian-2", "--alpha", "1"], "--z", "-3/2,1"),
    (["derivation", "sl2", "--b", "0,1,0", "--formula", "six"], "--a", "-1,1/2,0"),
    (["derivation", "sl2", "--a", "1,0,0", "--formula", "two"], "--b", "-1/2,0,1"),
]


@pytest.mark.parametrize("argv, option, value", NEGATIVE_LITERALS,
                         ids=[option for _, option, _ in NEGATIVE_LITERALS])
def test_negative_literal_is_a_separate_option_value(argv, option, value, files, tmp_path,
                                                    capsys):
    abelian = tmp_path / "abelian-2.alg"
    abelian.write_text(dumps_algebra(corpus.abelian_lie(2)))
    paths = dict(files, **{"abelian-2": str(abelian)})
    argv = [paths.get(a, a) for a in argv]
    outputs = []
    for tail in ([option, value], [f"{option}={value}"]):
        status = run(argv + tail)
        outputs.append((status, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    status, out, err = outputs[0]
    assert status in (0, 1) and out and not err, outputs[0]


def test_check_pointwise_on_rationals_is_a_usage_error(files, capsys):
    status = run(["check", files["dual-numbers"], "--axioms", "assoc", "--pointwise"])
    err = capsys.readouterr().err
    assert status == 2
    assert "finite field" in err


def test_check_unknown_suite(files, capsys):
    assert run(["check", files["dual-numbers"], "--axioms", "frobenius"]) == 2
    capsys.readouterr()
    # Every name is validated before the first suite runs.
    assert run(["check", files["dual-numbers"], "--axioms", "assoc,bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown axiom suite 'bogus' "
                            "(choose from assoc, lie, jordan, ujla)\n")


def test_check_rejects_a_constant_that_is_no_literal(tmp_path, capsys):
    """A Q file with an exponent or an over-long constant does not load, so
    no suite runs and nothing reaches stdout."""
    obj = json.loads(dumps_algebra(corpus.dual_numbers()))
    for literal in ("1e20000", "7" * 5000):
        obj["constants"][1][1][1] = literal
        path = tmp_path / "big.alg"
        path.write_text(json.dumps(obj))
        assert run(["check", str(path), "--axioms", "assoc,lie,jordan,ujla"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid rational literal"), literal[:8]


def test_check_missing_file(tmp_path, capsys):
    assert run(["check", str(tmp_path / "nope.alg"), "--axioms", "assoc"]) == 2


def test_malformed_algebra_file_is_status_2(tmp_path, capsys):
    obj = json.loads(dumps_algebra(corpus.dual_numbers()))
    for key, bad in [("dim", True), ("field", 5), ("basis", 5), ("constants", [[1]]),
                     ("unit", [1.0, 0]), ("unit", [True, 0]), ("unit", [None, 0]),
                     ("name", {"x": 1}), ("basis", [None, "x"])]:
        path = tmp_path / f"bad-{key}.alg"
        path.write_text(json.dumps({**obj, key: bad}))
        assert run(["check", str(path), "--axioms", "assoc"]) == 2, key
        assert capsys.readouterr().err.startswith("error: "), key


HUGE_PRIME_FIELD = "F1000000000000000000000000000057"


@pytest.mark.parametrize("route", ["yb params", "check"])
def test_huge_prime_field_is_status_2_at_once(route, tmp_path, capsys):
    if route == "check":
        path = tmp_path / "huge.alg"
        obj = json.loads(dumps_algebra(corpus.dual_numbers()))
        path.write_text(json.dumps({**obj, "field": HUGE_PRIME_FIELD}))
        argv = ["check", str(path), "--axioms", "assoc"]
    else:
        argv = ["yb", "params", "--alpha", "1", "--beta", "1", "--gamma", "1",
                "--field", HUGE_PRIME_FIELD]
    start = time.monotonic()
    assert run(argv) == 2
    assert time.monotonic() - start < 1.0
    assert "2^31" in capsys.readouterr().err


def test_usage_errors_are_status_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_derive_commutator_roundtrips(files, capsys):
    status = run(["derive", files["upper-tri-2x2"], "--via", "commutator"])
    out = capsys.readouterr().out
    assert status == 0
    derived = loads_algebra(out)
    assert derived == commutator(corpus.upper_triangular_2x2())


def test_derive_deform_requires_parameters(files, capsys):
    assert run(["derive", files["dual-numbers"], "--via", "deform"]) == 2
    status = run(["derive", files["dual-numbers"], "--via", "deform",
                  "--alpha", "1/2", "--beta", "1/2"])
    assert status == 0


def test_derive_deform_prints_alpha_then_beta(files, capsys):
    """The bytes of a deform with alpha != beta.  On the commutative dual
    numbers its constants are (alpha + beta) times the product's, so only
    the name, which lists alpha and then beta, shows their order; their
    sum is not 1, so no unit is printed."""
    status = run(["derive", files["dual-numbers"], "--via", "deform",
                  "--alpha", "2", "--beta", "-1/3"])
    expected = {"name": "dual-numbers/deform(2,-1/3)", "field": "Q", "dim": 2, "basis": ["1", "x"],
                "constants": [[["5/3", "0"], ["0", "5/3"]], [["0", "5/3"], ["0", "0"]]]}
    assert status == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_derive_symmetrize_char2_is_an_error(tmp_path, capsys):
    from ujla.fields import PrimeField

    path = tmp_path / "dual2.alg"
    path.write_text(dumps_algebra(corpus.dual_numbers(PrimeField(2))))
    status = run(["derive", str(path), "--via", "symmetrize"])
    assert status == 2
    assert "characteristic 2" in capsys.readouterr().err


def test_compat(files, capsys):
    assert run(["compat", files["dual-numbers"]]) == 0
    assert "compat: PASS" in capsys.readouterr().out


def test_yb_params_classification(capsys):
    assert run(["yb", "params", "--alpha", "1", "--beta", "2", "--gamma", "3"]) == 0
    assert "case: none (not a Yang-Baxter family member)" in capsys.readouterr().out
    assert run(["yb", "params", "--alpha", "1", "--beta", "2", "--gamma", "1"]) == 0
    assert "case: i" in capsys.readouterr().out
    assert run(["yb", "params", "--alpha", "0", "--beta", "0", "--gamma", "2",
                "--field", "F5"]) == 0
    assert "case: iii" in capsys.readouterr().out
    assert run(["yb", "params", "--field", "F5", "--alpha", "1/5", "--beta", "1",
                "--gamma", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_yb_assoc_verify(files, capsys):
    status = run(["yb", "assoc", files["dual-numbers"], "--alpha", "1", "--beta", "1",
                  "--gamma", "1", "--verify"])
    out = capsys.readouterr().out
    assert status == 0
    assert "braid: PASS" in out and "yang-baxter operator: yes" in out
    op = loads_operator(out[: out.index("braid:")])
    assert op.dim == 2


def test_yb_assoc_non_member_fails_verify(files, capsys):
    status = run(["yb", "assoc", files["dual-numbers"], "--alpha", "1", "--beta", "2",
                  "--gamma", "3", "--verify"])
    assert status == 1


def test_yb_lie_verify(files, capsys):
    status = run(["yb", "lie", files["heisenberg"], "--alpha", "1", "--z", "0,0,1",
                  "--verify"])
    out = capsys.readouterr().out
    assert status == 0
    assert "yang-baxter operator: yes" in out


def test_yb_lie_non_central_z(files, capsys):
    status = run(["yb", "lie", files["sl2"], "--alpha", "1", "--z", "1,0,0"])
    assert status == 2
    assert "not central" in capsys.readouterr().err


def test_yb_assoc_needs_a_declared_unit(files, capsys):
    status = run(["yb", "assoc", files["heisenberg"], "--alpha", "1", "--beta", "1",
                  "--gamma", "1"])
    assert status == 2
    assert "unit" in capsys.readouterr().err


def test_yb_assoc_warns_on_one_stderr_line_every_run(capsys):
    """A non-associative unital input warns the same one line on each run,
    naming no source file."""
    argv = ["yb", "assoc", str(ROOT / "algebras" / "jordan-mat-2x2.alg"), "--alpha", "1",
            "--beta", "1", "--gamma", "1", "--verify"]
    runs = []
    for _ in range(2):
        status = run(argv)
        runs.append((status, capsys.readouterr()))
    assert runs[0] == runs[1]
    err = runs[0][1].err
    assert err.startswith("warning: ") and "not associative" in err
    assert err.count("\n") == 1 and ".py" not in err and str(ROOT) not in err


def test_yb_verify_operator_file(tmp_path, capsys):
    from ujla.yang_baxter import twist

    path = tmp_path / "tau.op"
    path.write_text(dumps_operator(twist(QQ, 2), name="tau"))
    assert run(["yb", "verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "braid: PASS" in out and "qybe: PASS" in out

    bad = TensorSquareOperator(QQ, 2, Matrix.zero(QQ, 4, 4))
    path2 = tmp_path / "zero.op"
    path2.write_text(dumps_operator(bad))
    assert run(["yb", "verify", str(path2)]) == 1
    assert "invertible: no" in capsys.readouterr().out


def test_yb_verify_reports_fractional_first_mismatch(tmp_path, capsys):
    from operator_oracle import dense_oracle

    m = Matrix.from_rows(QQ, [["1/2", 0, 0, 0], [0, 0, "2/3", 0], [0, "-7/4", 0, 0],
                              ["5/6", 0, 0, "-3/2"]])
    op = TensorSquareOperator(QQ, 2, m)
    path = tmp_path / "frac.op"
    path.write_text(dumps_operator(op, name="frac"))
    assert run(["yb", "verify", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    _, braid, qybe = dense_oracle(op)
    assert braid is not None and qybe is not None
    r, c, lhs, rhs = braid
    expected = f"  first mismatch at entry ({r}, {c}): lhs = {lhs}, rhs = {rhs}"
    assert expected == "  first mismatch at entry (3, 0): lhs = 10/27, rhs = 5/24"
    assert lines[lines.index("braid: FAIL") + 1] == expected
    assert "qybe: FAIL" in lines


def test_center_output(files, capsys):
    assert run(["center", files["heisenberg"]]) == 0
    out = capsys.readouterr().out
    assert "center dimension: 1" in out
    assert "(0, 0, 1)" in out


def test_center_requires_lie(files, capsys):
    assert run(["center", files["dual-numbers"]]) == 2


def test_derivation_command(files, capsys):
    status = run(["derivation", files["sl2"], "--a", "1,0,0", "--b", "0,1,0",
                  "--formula", "six"])
    out = capsys.readouterr().out
    assert status == 0
    assert "leibniz: PASS" in out
    status = run(["derivation", files["sl2"], "--a", "1,0,0", "--b", "0,1,0",
                  "--formula", "two"])
    assert status == 0


def test_classify_report(capsys):
    assert run(["classify", "--dim", "1", "--prime", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ujla_count"] == 3 and obj["class_count"] == 2


def test_classify_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert run(["classify", "--dim", "2", "--prime", "2", "--out", str(out_path)]) == 0
    obj = json.loads(out_path.read_text())
    assert obj["ujla_count"] == 31
    assert "wrote" in capsys.readouterr().out


def test_the_library_builds_no_poly(files, tmp_path, monkeypatch, capsys):
    """No subcommand builds a formal polynomial or multiplies formal
    vectors: ujla.formal and Algebra.multiply_formal serve the test oracle
    alone.  The oracle itself, run last, shows that the counters count."""
    from formal_oracle import formal_verdict
    from ujla import formal
    from ujla.algebra import Algebra
    from ujla.axioms import ASSOC
    from ujla.yang_baxter import twist

    calls = {"Poly": 0, "multiply_formal": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(formal.Poly, "__init__", counted("Poly", formal.Poly.__init__))
    monkeypatch.setattr(Algebra, "multiply_formal",
                        counted("multiply_formal", Algebra.multiply_formal))
    f3 = tmp_path / "f3.alg"
    f3.write_text(dumps_algebra(corpus.dual_numbers(PrimeField(3))))
    tau = tmp_path / "tau.op"
    tau.write_text(dumps_operator(twist(QQ, 2), name="tau"))
    cases = [
        ["check", files["heisenberg"], "--axioms", "assoc,lie,jordan,ujla"],
        ["check", str(f3), "--axioms", "assoc,lie,jordan,ujla", "--pointwise"],
        ["compat", files["dual-numbers"]],
        ["derive", files["upper-tri-2x2"], "--via", "commutator"],
        ["derivation", files["sl2"], "--a", "1,0,0", "--b", "0,1,0", "--formula", "six"],
        ["yb", "assoc", files["dual-numbers"], "--alpha", "1", "--beta", "1", "--gamma", "1",
         "--verify"],
        ["yb", "lie", files["heisenberg"], "--alpha", "1", "--z", "0,0,1"],
        ["yb", "verify", str(tau)],
        ["center", files["heisenberg"]],
        ["classify", "--dim", "2", "--prime", "2"],
    ]
    for argv in cases:
        assert run(argv) in (0, 1), argv
        assert calls == {"Poly": 0, "multiply_formal": 0}, argv
    capsys.readouterr()
    formal_verdict(corpus.dual_numbers(), ASSOC)
    assert calls["Poly"] > 0 and calls["multiply_formal"] > 0


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_classify_unwritable_out_fails_before_the_scan(target, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("no scan may start")

    monkeypatch.setattr("ujla.cli.enumerate_ujla", never)
    out = tmp_path if target == "directory" else tmp_path / "missing" / "report.json"
    assert run(["classify", "--dim", "1", "--prime", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_classify_out_overwrites_an_existing_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("old")
    assert run(["classify", "--dim", "1", "--prime", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: 3 UJLA tensors in 2 classes out of 3\n"
    assert run(["classify", "--dim", "1", "--prime", "3"]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_classify_validates_parameters(capsys):
    assert run(["classify", "--dim", "3", "--prime", "2"]) == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_classify_rejects_fewer_than_one_worker(workers, monkeypatch, capsys):
    from ujla import classify

    def never(*args):
        raise AssertionError("no scan may start")

    monkeypatch.setattr(classify, "Pool", never)
    monkeypatch.setattr(classify, "_scan_range", never)
    assert run(["classify", "--dim", "1", "--prime", "3", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "workers" in captured.err


def test_reports_are_byte_identical(files, capsys):
    run(["check", files["heisenberg"], "--axioms", "lie,jordan,ujla"])
    first = capsys.readouterr().out
    run(["check", files["heisenberg"], "--axioms", "lie,jordan,ujla"])
    second = capsys.readouterr().out
    assert first == second


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_check_sweep_is_deterministic(capsys):
    spec = importlib.util.spec_from_file_location(
        "check_sweep", ROOT / "scripts" / "check_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    outputs = []
    for _ in range(2):
        script.main(["--seed", "3", "--runs", "12"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert [line.split("seed")[0] for line in lines] == ["", "yb ", "derivation ", "derive "], lines
    for line in lines:
        assert sum(map(int, re.findall(r"exit \S+ (\d+)", line))) == 12, line


# The byte contract: `scripts/check_sweep.py --seed 1 --runs 150`, frozen
# before witness revalidation moved to integers.  The digests depend on
# Python's random module and on Fraction formatting, so they hold for the
# Python version they were recorded with; the hash seed does not move them.
SWEEP_PYTHON = "3.11.7"
SWEEP_LINES = [
    "seed 1 runs 150: exit 0 42, exit 1 96, exit 2 12; "
    "sha256 93daa114ef62d2762fecdd26f3a453c3a99deecceb46ea50d17f141db66665a1",
    "yb seed 1 runs 150: exit 0 48, exit 1 67, exit 2 35; "
    "sha256 87fbdf998a8fb710da821b09f07d802c398cbda9516e5da5177f3675e56601c9",
    "derivation seed 1 runs 150: exit 0 93, exit 1 57; "
    "sha256 ae1813d5d2c5fe1bf93c31f025cf8deb48e17d69850d28331ecd0ecc11c061f9",
    # Frozen later, before scalars were gated once where values are built.
    "derive seed 1 runs 150: exit 0 122, exit 2 28; "
    "sha256 b96acfe6a9ab3568de451d49ead6315cbcfe73732c171f02c782e23df4b5662d",
]


def test_check_sweep_prints_the_frozen_digests():
    """Every verdict, witness, mismatch, report and error byte of 600 seeded
    CLI runs is the frozen one.  A change that must move a byte fails here."""
    running = platform.python_version()
    assert running == SWEEP_PYTHON, (
        f"the sweep digests were frozen under Python {SWEEP_PYTHON}, "
        f"but this is Python {running}")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_sweep.py"), "--seed", "1", "--runs", "150"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == SWEEP_LINES


def test_algebras_directory_is_the_exported_corpus():
    spec = importlib.util.spec_from_file_location(
        "export_corpus", ROOT / "scripts" / "export_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    on_disk = {path.name: path.read_text() for path in (ROOT / "algebras").glob("*.alg")}
    assert on_disk == {name: dumps_algebra(alg) for name, alg in script.EXPORTS.items()}


def _readme_cli_examples():
    """(argv, stated exit status) of each literal README CLI example whose
    inputs exist in the repository; the status is 0 unless a comment says."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        inputs = [a for a in argv if a.endswith((".alg", ".op"))]
        if any("[" in a for a in argv) or not all((ROOT / a).is_file() for a in inputs):
            continue
        stated = re.match(r"\s*exit (\d)", comment)
        examples.append((argv, int(stated.group(1)) if stated else 0))
    return examples


def test_readme_cli_examples_exit_as_stated(capsys):
    examples = _readme_cli_examples()
    assert [argv[0] for argv, _ in examples] == [
        "check", "check", "derive", "derive", "compat", "yb", "yb", "yb", "center",
        "derivation",
    ]
    for argv, stated in examples:
        argv = [str(ROOT / a) if a.startswith("algebras/") else a for a in argv]
        assert run(argv) == stated, argv
        assert capsys.readouterr().err == "", argv
