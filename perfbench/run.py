"""Benchmark entry point: time one gakit workload and print one JSON result line.

    python3 perfbench/run.py --workload {onemax,xor,lattice} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; gakit is imported from ``src/``. Each
invocation first runs the workload once, untimed, at the default seed and
checks its fitness-history digest, then measures the workload at ``--seed``
for ``--seconds`` seconds. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced runs. The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a machine note and a table with each metric's quartiles and sample count.
Exits 1 if any run failed, 2 if the sources are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("onemax", "xor", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gakit" / "__init__.py").is_file():
        print(f"perfbench: gakit sources not found under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded numpy in this process (set before numpy loads) and in
    # every child, which inherits the environment.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.measure(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
