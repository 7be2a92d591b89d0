"""Command-line entry point of the simulator benchmark.

Usage, from the repository root::

    python3 simbench/run.py --workload dirlookup_thread --seed 1 \
        --seconds 40 --trace 0

``--workload all`` runs the three workloads in turn; its result line
names each metric ``<workload>/<metric>``.

Builds nothing: the simulator is imported from ``src/`` of the same
checkout (and only from there).  Temporary files go to
``.simbench_tmp/`` in the checkout and are removed on exit.  Exit code
0 means every output check passed; 1 means a check failed (the result
line says which count); 2 means the checkout holds no simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("dirlookup_thread", "coretime_explain", "scenario_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least 3 repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a profiled repeat and report the "
                             "per-layer metrics instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"simbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"simbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from simbench import bench

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    scratch = os.path.join(ROOT, ".simbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        results = {name: bench.run(name, args.seed, args.seconds,
                                   bool(args.trace), workdir)
                   for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass                 # another run is still using it
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
