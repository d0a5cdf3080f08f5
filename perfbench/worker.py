"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR

Set-up time runs from before the first import of numpy and kolkit until the
inputs exist.  The body is a sequence of items; its wall time is their sum,
which leaves out the reference-kernel runs between items.  Normalized times
rescale set-up and each item by the machine speed measured next to them
(see README.md).  The last line of standard output is this repetition's
result as JSON.  run.py starts this script with the BLAS thread count
pinned to 1 and `src/` of the checkout on the path.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    args = ap.parse_args()

    import kolkit

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(kolkit.__file__).resolve().parent.parent != src:
        print(f"kolkit imported from {kolkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    from spans import Tracer

    from workloads import REFERENCE_NOMINAL_S, WORKLOADS, Record, reference_seconds

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup, run = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    inputs = setup(args.seed, args.out)
    setup_s = time.perf_counter() - T_START
    reference_s = reference_seconds()
    timing = {"setup_s": setup_s, "norm_setup_s": setup_s * REFERENCE_NOMINAL_S / reference_s}
    if args.setup_only:
        print(json.dumps(timing))
        return 0

    rec = Record(reference_s)
    run(inputs, rec)

    result = {
        **timing,
        "wall_s": sum(it["seconds"] for it in rec.items),
        "norm_wall_s": sum(
            it["seconds"] * REFERENCE_NOMINAL_S / it["reference_s"] for it in rec.items
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": rec.items,
        "counts": rec.counts,
        "facts": rec.facts,
        "digest": rec.digest(),
        "layers": tracer.layer_metrics() if tracer else None,
        "environment": _environment(),
    }
    print(json.dumps(result))
    return 0


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


if __name__ == "__main__":
    sys.exit(main())
