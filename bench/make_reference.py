"""Regenerate reference.json: one digest of the invariants of each class.

    python3 bench/make_reference.py

For every class, VARIANTS seeded variants are run through the CLI.  They
must all pass the formula checks and give the same invariants, which is
the evidence that the seeded variation leaves the answer unchanged; the
common digest is stored.  Run this only when the set of classes changes,
never to make a failing program pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

#: seeded variants of each class whose invariants must agree
VARIANTS = 6


def main():
    import jetorders.cli as cli

    workdir = HERE.parent / ".benchwork" / f"ref-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            seen, count = {}, {key: 0 for key in workloads.all_reference_keys(workload)}
            stream = workloads.rounds(workload, 0, "reference")
            while min(count.values()) < VARIANTS:
                for op in next(stream):
                    code, out, problem, _ = run.invoke(cli, workdir, op)
                    if problem:
                        raise SystemExit(f"{workload} {op.cls}: {problem}")
                    facts = workloads.invariants(op.argv[0], json.loads(out))
                    formula = workloads.formula_problems(workload, op, facts)
                    if formula:
                        raise SystemExit(f"{workload} {op.cls}: {formula[0]}")
                    values = facts if workload == "scan" else [facts]
                    for key, value in zip(workloads.reference_keys(workload, op), values):
                        d = workloads.digest(value)
                        if seen.setdefault(key, d) != d:
                            raise SystemExit(f"{workload} {key}: variants disagree")
                        count[key] += 1
            reference[workload] = dict(sorted(seen.items()))
            print(f"{workload}: {len(seen)} reference digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
