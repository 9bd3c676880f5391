#!/usr/bin/env python3
"""Freeze the stdout digest of every op of every workload at the default seed.

    python3 perfbench/freeze_digests.py

Runs one pass per workload, refuses to write if any oracle objects, and
rewrites perfbench/digests.json.  Rerun only when a change is meant to
alter what a command prints.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.use_checkout()
    frozen = {}
    for name in run.WORKLOADS:
        workdir = run.ROOT / ".bench_work" / f"freeze-{name}"
        try:
            cli, ops, _ = run.setup(name, run.DEFAULT_SEED, workdir, False)
            result = run.run_pass(cli, ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _, _, oracles, _ = run.load_program()
        entries = {}
        for i, (op, (rc, out, err, *_)) in enumerate(zip(ops, result["ops"])):
            reason = f"raised {err}" if rc is None else oracles.judge(op, rc, out)
            if reason is not None:
                print(f"{name} op {i} ({op.id}): {reason}; nothing written", file=sys.stderr)
                return 1
            entries[op.key] = run.digest(rc, out)
        frozen[name] = entries
        print(f"{name}: {len(entries)} ops")
    run.DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
