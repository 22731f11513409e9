"""Re-record ``expected.json``: every workload's outputs at the default seed.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

Only for a deliberate change of the pipeline's numbers: the benchmark
counts any drift from the committed outputs as a failed run.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    if not run.prepare():
        return 2
    from perfbench.measure import EXPECTED_PATH, expected_key, run_pass
    from perfbench.spec import DEFAULT_SEED, WORKLOADS

    table = {}
    work_root = Path.cwd() / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        for workload in WORKLOADS.values():
            keys = {b: expected_key(b, workload.scale)
                    for b in workload.benchmarks}
            if all(key in table for key in keys.values()):
                continue
            outputs = run_pass(workload, DEFAULT_SEED, Path(work_dir)).outputs
            missing = set(keys) - set(outputs)
            if missing:
                print(f"error: {workload.name}: runs failed: "
                      f"{sorted(missing)}", file=sys.stderr)
                return 1
            table.update({keys[b]: outputs[b] for b in keys})
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} entries to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
