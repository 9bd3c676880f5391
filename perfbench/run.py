#!/usr/bin/env python3
"""Benchmark of the `ujla` command line, one workload per process.

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Every timed op is a real CLI command: `ujla.cli.run(argv)` is called
in-process with stdout captured, and each output is judged by the
oracles in `oracles.py`.  Ops run in a closed loop, one at a time, no
worker pool and no threads.  A run repeats whole passes over the
workload's ops while the next pass is expected to end within
`--seconds`; at least one pass always runs.

`--trace 0` prints the end-to-end metrics, with times in probe units
(see `Prober`) in the JSON and in seconds above it.  `--trace 1` runs one plain
pass, one pass with span recorders around each module's public
functions, and one pass counting `FieldSpec.normalize` calls; it checks
that all three print the same bytes, removes the wrappers, writes the
spans under `.bench_out/`, and prints the per-layer metrics.  The last
line of stdout is always one JSON object.
"""

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "check", "derive", "braid")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
PROBE_INTERVAL = 0.01
PROBE_WINDOW = 0.1
PROBE_REFERENCE = 0.0002  # seconds per probe that `setup_s` is scaled to
DIGESTS = HERE / "digests.json"


class ProgramMissing(Exception):
    """The checkout lacks the program sources or the test oracles."""


def use_checkout() -> None:
    """Put the checkout's `src/` first on sys.path, or raise ProgramMissing."""
    src = ROOT / "src"
    for needed in (src / "ujla" / "cli.py", ROOT / "tests" / "reference.py",
                   ROOT / "tests" / "golden" / "classification.json"):
        if not needed.is_file():
            raise ProgramMissing(f"{needed.relative_to(ROOT)} not found under {ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_program():
    """Import the checkout's `ujla` and the benchmark modules that need it."""
    use_checkout()
    cli = importlib.import_module("ujla.cli")
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ProgramMissing(f"imported ujla from {cli.__file__}, not from {ROOT / 'src'}")
    return (cli, importlib.import_module("workloads"), importlib.import_module("oracles"),
            importlib.import_module("tracing"))


def digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Prober:
    """Samples how fast this box runs Python right now, while ops run.

    Other tenants of a shared host slow this box by up to 1.6x for
    seconds at a time.  A SIGALRM timer runs a fixed pure-Python loop,
    which does not touch `ujla`, every PROBE_INTERVAL seconds, inside
    whatever op is running.  The loop's time is subtracted from the op,
    and the op's time divided by the mean loop time around it (its
    "probe" units) cancels most of the slowdown, as both slow alike.
    """

    def __init__(self):
        self.stamps = array("d")
        self.costs = array("d")
        self.spent = 0.0  # seconds spent in the handler, to subtract from ops
        self._previous = None

    def _sample(self, signum, frame):
        # A garbage collection the loop's allocations set off would charge
        # the op's garbage to the probe; it runs in the op instead.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc, x = Fraction(0), 1
        for i in range(1, 60):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            x = (x * 31 + i) % 1000003
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.stamps.append(start)
        self.costs.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # so that `around` always has a sample

    def around(self, start: float, end: float) -> float:
        """Mean probe time from PROBE_WINDOW before `start` to PROBE_WINDOW after `end`."""
        lo = bisect.bisect_left(self.stamps, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.stamps, end + PROBE_WINDOW)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.costs))
        return statistics.fmean(self.costs[lo:hi])


def run_pass(cli, ops, tracer=None, probing=True) -> dict:
    """One closed-loop pass.

    Returns per-op (rc, stdout, error, seconds, probe seconds); with
    probing off the probe seconds are None.
    """
    results = []
    spans = []
    prober = Prober()
    with (prober if probing else contextlib.nullcontext()):
        for index, op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.current_op[0] = index
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                spent = prober.spent
                start = time.perf_counter()
                try:
                    rc = cli.run(op.argv)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    rc, error = None, repr(exc)
                end = time.perf_counter()
                elapsed = end - start - (prober.spent - spent)
            spans.append((start, end))
            results.append([rc, out.getvalue(), error or err.getvalue(), elapsed, None])
    if probing:
        for r, (start, end) in zip(results, spans):
            r[4] = prober.around(start, end)
    return {"wall": sum(r[3] for r in results), "ops": [tuple(r) for r in results]}


def setup(name: str, seed: int, workdir: Path, smoke: bool) -> tuple:
    """Import the program and build the workload's inputs, SETUP_REPEATS times.

    Each repeat drops `ujla` and the input generators from `sys.modules`
    first, so it pays the program's import again; standard-library
    imports stay cached after the first.  The last repeat's modules and
    inputs are the ones the run uses.  Returns the program's CLI module,
    the ops, and (seconds, probe seconds) for each repeat.
    """
    times, spans = [], []
    with Prober() as prober:
        for _ in range(1 if smoke else SETUP_REPEATS):
            for mod in [m for m in sys.modules
                        if m.split(".")[0] in ("ujla", "workloads", "oracles")]:
                del sys.modules[mod]
            shutil.rmtree(workdir, ignore_errors=True)
            spent = prober.spent
            start = time.perf_counter()
            cli = importlib.import_module("ujla.cli")
            workloads = importlib.import_module("workloads")
            workdir.mkdir(parents=True)
            ops = workloads.GENERATORS[name](seed, str(workdir), smoke)
            end = time.perf_counter()
            spans.append((start, end))
            times.append(end - start - (prober.spent - spent))
    for i, op in enumerate(ops):
        op.key = f"{i}:{op.id}"
    return cli, ops, [(t, prober.around(a, b)) for t, (a, b) in zip(times, spans)]


def judge_passes(name, seed, ops, passes, oracles, smoke) -> list:
    """One (op index, reason) per failed op execution across all passes."""
    frozen = None
    if seed == DEFAULT_SEED and not smoke:
        frozen = json.loads(DIGESTS.read_text()).get(name, {}) if DIGESTS.is_file() else {}
    failures = []
    first = passes[0]["ops"]
    for i, (op, (rc, out, err, *_)) in enumerate(zip(ops, first)):
        reason = f"raised {err}" if rc is None else oracles.judge(op, rc, out)
        if reason is None and frozen is not None and frozen.get(op.key) != digest(rc, out):
            reason = "stdout digest differs from the one frozen for the default seed"
        if reason is not None:
            failures.append((i, reason))
    judged = dict(failures)
    for p in passes[1:]:
        for i, (rc, out, err, *_) in enumerate(p["ops"]):
            if rc is None or (rc, out) != first[i][:2]:
                failures.append((i, "output differs from the first pass"))
            elif i in judged:
                failures.append((i, judged[i]))
    return failures


def percentile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    use_checkout()
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        cli, ops, setup_times = setup(name, seed, workdir, smoke)
        _, _, oracles, tracing = load_program()
        if trace:
            report = _traced(name, seed, ops, cli, oracles, tracing, smoke)
        else:
            report = _untraced(name, seed, seconds, ops, cli, oracles, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(workload=name, seed=seed, ops_per_pass=len(ops),
                  setup_raw_s=statistics.median(t for t, _ in setup_times),
                  setup_s=statistics.median(t / p for t, p in setup_times) * PROBE_REFERENCE)
    return report


def _untraced(name, seed, seconds, ops, cli, oracles, smoke) -> dict:
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops))
        spent = time.perf_counter() - t0
        if spent + spent / len(passes) > seconds:
            break
    failures = judge_passes(name, seed, ops, passes, oracles, smoke)
    results = [r for p in passes for r in p["ops"]]
    per_field = {}
    for fld in ("Fp", "Q"):
        units = sum(op.units for op in ops if op.field == fld) * len(passes)
        busy = sum(r[3] for p in passes for op, r in zip(ops, p["ops"]) if op.field == fld)
        per_field[fld] = (units, busy)
    return {
        "passes": len(passes),
        "attempted": len(results),
        "failures": failures,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "wall_probes": statistics.median(sum(r[3] / r[4] for r in p["ops"]) for p in passes),
        "latencies_ms": [r[3] * 1000 for r in results],
        "latencies_probes": [r[3] / r[4] for r in results],
        "probe_ms": statistics.median(r[4] * 1000 for r in results),
        "per_field": per_field,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced(name, seed, ops, cli, oracles, tracing, smoke) -> dict:
    plain = run_pass(cli, ops, probing=False)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = run_pass(cli, ops, tracer, probing=False)
    finally:
        restored = tracer.uninstall()
    counter = tracing.NormalizeCounter()
    try:
        counter.install()
        counted = run_pass(cli, ops, probing=False)
    finally:
        restored = counter.uninstall() and restored
    failures = judge_passes(name, seed, ops, [plain, traced, counted], oracles, smoke)
    printed = [[r[:2] for r in p["ops"]] for p in (plain, traced, counted)]
    summary = tracer.aggregate([op.field for op in ops])
    summary.update(wall_s=traced["wall"], untraced_wall_s=plain["wall"],
                   normalize_calls=counter.calls[0], wrappers_removed=restored)
    out_dir = ROOT / ".bench_out" / f"trace-{name}-seed{seed}"
    tracer.write(out_dir, [op.key for op in ops], summary)
    return {
        "passes": 3,
        "attempted": 3 * len(ops),
        "failures": failures + ([] if restored else [(-1, "wrappers were not removed")]),
        "identical_stdout": printed[0] == printed[1] == printed[2],
        "summary": summary,
        "trace_dir": str(out_dir.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(report: dict) -> dict:
    """The metrics of the result line, with times in probe units (see
    `Prober`) and set-up seconds scaled to a probe of PROBE_REFERENCE."""
    lat = report["latencies_probes"]
    return {
        "setup_s": (report["setup_s"], "s"),
        "wall_probes": (report["wall_probes"], "probe"),
        "op_p50_probes": (statistics.median(lat), "probe"),
        "op_p90_probes": (percentile_90(lat), "probe"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def raw_metrics(report: dict) -> dict:
    """The same in seconds, as a user would see them; for people, not gating."""
    lat = report["latencies_ms"]
    return {
        "setup_raw_s": (report["setup_raw_s"], "s"),
        "wall_s": (report["wall_s"], "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (percentile_90(lat), "ms"),
        "probe_ms": (report["probe_ms"], "ms"),
    }


def unaccounted_s(summary: dict) -> float:
    """Traced time inside no wrapped function below `cli.run`."""
    covered = sum(f["self_s"] for name, f in summary["functions"].items() if name != "cli.run")
    return summary["wall_s"] - covered


def per_layer_metrics(report: dict, tracing) -> dict:
    s = report["summary"]
    wall = s["wall_s"]
    funcs = s["functions"]
    tags = s["tags"]
    pct = lambda x: 100.0 * x / wall  # noqa: E731
    m = {}
    for name, _, _, _ in tracing.TARGETS:
        f = funcs[name]
        m[f"{name}.calls"] = (f["calls"], "count")
        m[f"{name}.self_pct"] = (pct(f["self_s"]), "%")
    for name in tracing.COMPOSITE:
        m[f"{name}.pct"] = (pct(funcs[name]["s"]), "%")
    for tag in tracing.CHECK_TAGS:
        keys = [k for k in tags if k == f"identities.check_identity:{tag}"
                or k.startswith(f"identities.check_identity:{tag}.")]
        m[f"identities.check_identity.{tag}.calls"] = (sum(tags[k]["calls"] for k in keys), "count")
        m[f"identities.check_identity.{tag}_pct"] = (pct(sum(tags[k]["s"] for k in keys)), "%")
    fails = tags.get("identities.check_identity:polynomial.fail", {"calls": 0})["calls"]
    blind = tags.get("identities.check_identity:polynomial.fail.nowitness", {"calls": 0})["calls"]
    m["identities.witness_found_frac"] = (fails / (fails + blind) if fails + blind else 0.0,
                                          "frac")
    for ident in tracing.UJLA_NAMES:
        m[f"identities.reject.{ident}"] = (
            tags.get(f"axioms.ujla_failure:{ident}", {"calls": 0})["calls"], "count")
    scanned = funcs["axioms.ujla_failure"]["calls"]
    survivors = tags.get("axioms.ujla_failure:none", {"calls": 0})["calls"]
    m["classify.survivor_frac"] = (survivors / scanned if scanned else 0.0, "frac")
    mm = s["mat_mul"]
    m["linalg.mat_mul.mults"] = (mm["mults"], "count")
    m["linalg.mat_mul.zero_frac"] = (mm["zeros"] / mm["entries"] if mm["entries"] else 0.0,
                                     "frac")
    m["fields.normalize.calls"] = (s["normalize_calls"], "count")
    m["trace.spans"] = (s["spans"], "count")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - s["untraced_wall_s"], "s")
    m["trace.unaccounted_s"] = (unaccounted_s(s), "s")
    m["trace.bookkeeping_pct"] = (pct(funcs[tracing.BOOKKEEPING]["s"]), "%")
    return m


def summary_lines(report: dict) -> list:
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"ops/pass {report['ops_per_pass']}  passes {report['passes']}  "
             f"attempted {report['attempted']}  failed {len(report['failures'])}"]
    for i, reason in report["failures"][:10]:
        lines.append(f"  FAILED op {i}: {reason}")
    if "latencies_ms" in report:
        n = len(report["latencies_ms"])
        metrics = end_to_end_metrics(report)
        metrics.update(raw_metrics(report))
        for name, (value, unit) in metrics.items():
            note = ""
            if name.startswith("op_p50"):
                note = f"  (n={n})"
            elif name.startswith("op_p90"):
                note = f"  (n={n}, {n - int(0.9 * n)} beyond)"
            lines.append(f"  {name:<14} {value:12.4f} {unit}{note}")
        for fld, label in (("Fp", "fp_ops_per_s"), ("Q", "q_ops_per_s")):
            units, busy = report["per_field"][fld]
            text = f"{units / busy:12.4f} 1/s  ({units} ops in {busy:.3f} s)" if busy else \
                "         n/a      (no ops on this field)"
            lines.append(f"  {label:<14} {text}")
    lines.append(f"  {'failed_frac':<14} {len(report['failures']) / report['attempted']:12.4f}")
    return lines


def trace_lines(report: dict, tracing) -> list:
    s = report["summary"]
    wall = s["wall_s"]
    lines = [f"traced pass {wall:.3f} s, plain pass {s['untraced_wall_s']:.3f} s, "
             f"overhead {wall - s['untraced_wall_s']:.3f} s, spans {s['spans']}, "
             f"wrappers removed: {s['wrappers_removed']}, spans in {report['trace_dir']}/",
             f"  {'function':<36} {'calls':>9} {'s':>9} {'self_s':>9} {'self %':>7}"]
    for name, f in sorted(s["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
        if f["calls"]:
            lines.append(f"  {name:<36} {f['calls']:>9} {f['s']:>9.3f} {f['self_s']:>9.3f} "
                         f"{100 * f['self_s'] / wall:>6.1f}%")
    rest = unaccounted_s(s)
    lines.append(f"  {'(unaccounted: cli.run self + gaps)':<36} {'':>9} {'':>9} "
                 f"{rest:>9.3f} {100 * rest / wall:>6.1f}%")
    for fld, selfs in sorted(s["self_s_by_field"].items()):
        total = sum(selfs.values())
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:4]
        lines.append(f"  {fld} ops: {total:.3f} s traced; " + ", ".join(
            f"{name} {100 * v / total:.1f}%" for name, v in top))
    return lines


def result_json(report: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []),
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of ops per group, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(report):
        print(line)
    if args.trace:
        _, _, _, tracing = load_program()
        for line in trace_lines(report, tracing):
            print(line)
        metrics = per_layer_metrics(report, tracing)
    else:
        metrics = end_to_end_metrics(report)
    print(result_json(report, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
