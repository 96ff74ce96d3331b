#!/usr/bin/env python3
"""diverspec benchmark entry point.

    python3 perfbench/run.py --workload cornell-gpr --seed 0 --seconds 20 --trace 0

Runs one workload against the diverspec sources in ``src/`` of the checkout
this file sits in, and prints a human-readable summary followed, as the last
line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_program() -> None:
    """Import diverspec from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import diverspec

    origin = Path(diverspec.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"diverspec was imported from {origin}, not from {SRC}")


def pin_blas_threads() -> None:
    """Fix BLAS threads before numpy is first imported.

    The environment carries the setting into the input-preparing child.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    import json

    import runner
    from generate import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.prepare is not None:
        runner.prepare_inputs(WORKLOADS[args.workload], args.seed, Path(args.prepare))
        return 0
    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), Path(__file__))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
