"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fine-plan --seed 42 --seconds 30 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``record:``, holds the full record (environment, every pass
time, the discarded first pass).  The exit code is 1 when any run failed
or its outputs mismatched, 2 on a usage error or a missing source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS/OpenMP threads per process: with at most two pool workers the
#: compute threads stay within a two-CPU host.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: 42, the seed of the "
                             "committed expected outputs)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep making timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> bool:
    """Pin BLAS threads and make ``repro`` and ``perfbench`` importable;
    False when the source tree is missing.  Call before numpy loads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(ROOT)]
    return True


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process multiprocessing starts for
    the pools' semaphores and the shared-memory traces; it would
    otherwise outlive the benchmark by a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    from perfbench.measure import measure
    from perfbench.spec import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        record = measure(
            workload, seed, args.seconds, bool(args.trace),
            work_root=Path.cwd() / ".perfbench_work", src_dir=SRC,
        )
    finally:
        stop_resource_tracker()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = record["metrics"]
    env = record["env"]
    print(f"{workload.name}: seed {seed}, {len(record['pass_s'])} timed "
          f"passes, first pass {record['first_pass_s']:.3f}s (discarded), "
          f"jobs {env['jobs']}, nproc {env['nproc']}, BLAS threads "
          f"{BLAS_THREADS}, python {env['python_version']}, "
          f"numpy {env['numpy_version']}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    for name, value in record["quality"].items():
        if name not in units:
            print(f"  {name:<36} {value:>14.6g} (exact, not gated)")
    failed_ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ratio':<36} {failed_ratio:>14.6g} "
          f"({record['failed']}/{record['attempted']} runs)")
    for mismatch in record["mismatches"]:
        print(f"  MISMATCH {mismatch}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
