import json

import pytest

from ujla import corpus
from ujla.cli import run
from ujla.fileformat import dumps_algebra, dumps_operator, loads_algebra, loads_operator
from ujla.transforms import commutator
from ujla.fields import QQ
from ujla.linalg import Matrix
from ujla.yang_baxter import TensorSquareOperator


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


def test_check_pointwise_on_rationals_is_a_usage_error(files, capsys):
    status = run(["check", files["dual-numbers"], "--axioms", "assoc", "--pointwise"])
    err = capsys.readouterr().err
    assert status == 2
    assert "finite field" in err


def test_check_unknown_suite(files, capsys):
    assert run(["check", files["dual-numbers"], "--axioms", "frobenius"]) == 2


def test_check_missing_file(tmp_path, capsys):
    assert run(["check", str(tmp_path / "nope.alg"), "--axioms", "assoc"]) == 2


def test_malformed_algebra_file_is_status_2(tmp_path, capsys):
    obj = json.loads(dumps_algebra(corpus.dual_numbers()))
    for key, bad in [("dim", True), ("field", 5), ("basis", 5), ("constants", [[1]]),
                     ("unit", [1.0, 0]), ("unit", [True, 0]), ("unit", [None, 0])]:
        path = tmp_path / f"bad-{key}.alg"
        path.write_text(json.dumps({**obj, key: bad}))
        assert run(["check", str(path), "--axioms", "assoc"]) == 2, key
        assert capsys.readouterr().err.startswith("error: "), key


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


def test_classify_validates_parameters(capsys):
    assert run(["classify", "--dim", "3", "--prime", "2"]) == 2


def test_reports_are_byte_identical(files, capsys):
    run(["check", files["heisenberg"], "--axioms", "lie,jordan,ujla"])
    first = capsys.readouterr().out
    run(["check", files["heisenberg"], "--axioms", "lie,jordan,ujla"])
    second = capsys.readouterr().out
    assert first == second


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
