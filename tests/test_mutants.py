"""The mutation table of scripts/mutants.py stays current, and the harness
kills a mutant and reports a survivor end to end.  The full table is a
script run, not part of this suite."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_old_text_occurs_once_and_names_existing_tests():
    script = _script()
    assert script.stale(script.MUTANTS) == []
    names = [m.name for m in script.MUTANTS]
    assert len(names) == len(set(names))
    for m in script.MUTANTS:
        assert m.file.startswith("src/") and m.old != m.new and m.tests, m.name
        for node in m.tests:
            path, _, test = node.partition("::")
            function = re.sub(r"\[.*\]$", "", test)
            assert path.startswith("tests/"), node
            assert f"def {function}(" in (ROOT / path).read_text(), node


def test_harness_kills_a_mutant_and_reports_a_survivor(capsys):
    script = _script()
    assert script.main(["classify-out-checked-after-the-scan"]) == 0
    assert "killed   classify-out-checked-after-the-scan" in capsys.readouterr().out
    # Dropping the reduction mod p from the rows of the pair products
    # changes no residue: the step that reads them reduces again, so no
    # verdict or mismatch can kill this mutant (only the count of products
    # formed moves).
    equivalent = script.Mutant(
        "pair-rows-unreduced", "src/ujla/yang_baxter.py",
        "_Product(lifts[key[0]], lifts[key[1]], p)",
        "_Product(lifts[key[0]], lifts[key[1]], 0)",
        ("tests/test_yang_baxter.py::test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",))
    assert script.main([], mutants=(equivalent,)) == 1
    assert "SURVIVED pair-rows-unreduced" in capsys.readouterr().out
