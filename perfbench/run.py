"""kolkit benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh single-threaded process (worker.py) with the BLAS thread count pinned
to 1, and repetitions continue while another fits in S seconds.  With
--trace 0 the last line of standard output holds the end-to-end metrics
(medians over repetitions); with --trace 1 it holds the per-layer metrics of
traced repetitions, alternated with untraced ones to measure the tracing
overhead.  The line before it is a detail record: digest, exact counts,
failures, per-repetition figures and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble", "oracle", "rough-small", "geometry")
SETUP_SAMPLES = 7  # set-up times per run; set-up-only processes top up the repetitions
DEADLINE_S = 170.0  # the whole run, whatever --seconds says

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(args, trace, out, setup_only=False, timeout=DEADLINE_S):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(trace),
        "--out",
        str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _reps(args, out_root, t_start):
    """Repetitions while the next one fits in --seconds; pairs when tracing."""
    modes = (0, 1) if args.trace else (0,)
    reps = []
    while True:
        for mode in modes:
            left = DEADLINE_S - (time.monotonic() - t_start)
            reps.append(_worker(args, mode, out_root / f"rep-{len(reps)}", timeout=left))
            reps[-1]["traced"] = bool(mode)
        elapsed = time.monotonic() - t_start
        if elapsed * (1 + len(modes) / len(reps)) > args.seconds:
            return reps


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "kolkit" / "__init__.py").is_file():
        print(f"no kolkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    out_root = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        reps = _reps(args, out_root, t_start)
        setups = [r for r in reps if not r["traced"]]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            left = DEADLINE_S - (time.monotonic() - t_start)
            setups.append(_worker(args, 0, out_root / f"setup-{len(setups)}", True, timeout=left))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    items = [it for r in reps for it in r["items"]]
    failures = [f"{it['name']}: {f}" for it in items for f in it["failures"]]
    failed = sum(1 for it in items if it["failures"])
    wall = _median([r["wall_s"] for r in plain])
    norm_wall = _median([r["norm_wall_s"] for r in plain])

    # bit-stable reruns: every repetition of one seed, traced or not, must
    # produce the same fields, artifacts and exact counts
    digests = sorted({r["digest"] for r in reps})
    counts = reps[0]["counts"]
    consistent = len(digests) == 1 and all(r["counts"] == counts for r in reps)
    if traced:
        layer_counts = [{k: r["layers"][k] for k in EXACT_COUNTS} for r in traced]
        consistent &= all(c == layer_counts[0] for c in layer_counts)
        # the benchmark's own expected counts must match what the spans saw
        consistent &= all(layer_counts[0][k] == v for k, v in counts.items())

    facts = dict(reps[0]["facts"])
    if "solver.cell_updates" in counts:
        facts["cell_updates_per_s"] = counts["solver.cell_updates"] / wall
    if args.workload == "ensemble":
        member = [it["seconds"] for r in plain for it in r["items"]]
        facts["member_s_p50"] = {"value": _median(member), "n": len(member)}

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = (_median([r["norm_wall_s"] for r in traced]) - norm_wall) / norm_wall
            elif name in EXACT_COUNTS:
                value = traced[0]["layers"][name]
            else:
                value = _median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "norm_wall_s": norm_wall,
            "setup_s": _median([r["norm_setup_s"] for r in setups]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "wall_s": wall,
        "wall_s_per_repetition": [r["wall_s"] for r in plain],
        "norm_wall_s_per_repetition": [r["norm_wall_s"] for r in plain],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "norm_setup_s_samples": [r["norm_setup_s"] for r in setups],
        "items_per_repetition": len(reps[0]["items"]),
        "failed_frac": failed / len(items),
        "failures": failures[:20],
        "digest": digests,
        "counts": counts,
        "facts": facts,
        "environment": dict(reps[0]["environment"], nproc=os.cpu_count(), cpu_model=_cpu_model()),
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and consistent,
                "attempted": len(items),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
