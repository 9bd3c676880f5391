"""Smoke tests of the benchmark itself: a few ops of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def _wrapped_bindings(tracing) -> list:
    """Every traced attribute that still holds a wrapper."""
    found = []
    for module_name, path in [t[1:3] for t in tracing.TARGETS] + tracing.NORMALIZE:
        if "." in path:
            cls_name, key = path.split(".")
            owners = [vars(getattr(sys.modules[f"ujla.{module_name}"], cls_name))]
        else:
            key = path
            owners = [vars(m) for m in tracing._ujla_modules()]
        found += [f"{module_name}.{path}" for o in owners
                  if hasattr(o.get(key), "__wrapped__")]
    return found


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    report = run.run_workload(workload, run.DEFAULT_SEED, 0.1, trace=False, smoke=True)
    assert report["failures"] == []
    metrics = run.end_to_end_metrics(report)
    assert sorted(metrics) == sorted(END_TO_END)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_matches_untraced_and_unwraps(workload):
    _, _, _, tracing = run.load_program()
    report = run.run_workload(workload, run.DEFAULT_SEED, 0.1, trace=True, smoke=True)
    assert report["failures"] == []
    assert report["identical_stdout"]
    assert report["summary"]["wrappers_removed"]
    assert _wrapped_bindings(tracing) == []
    metrics = run.per_layer_metrics(report, tracing)
    assert sorted(metrics) == sorted(PER_LAYER)
    assert metrics["cli.run.calls"][0] == report["ops_per_pass"]


def test_last_stdout_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "derive", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
