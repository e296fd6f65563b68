"""Run one benchmark workload from the root of a covloc checkout.

    python3 perfbench/run.py --workload fhn-cov --seed 1 --seconds 20 --trace 0

Prints a JSON line with the machine record and raw samples, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits
non-zero without a result when the checkout holds no covloc sources or no
operation succeeds.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS threads are fixed, never inherited, so both sides of a comparison use
# the same setting.  Two is the core count the workloads are sized for.
BLAS_THREADS = "2"


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "covloc" / "__init__.py").is_file():
        print(f"error: no covloc sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    # before NumPy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent.parent)]

    from perfbench import harness, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    result, details = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), root, BLAS_THREADS
    )
    harness.emit(result, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
