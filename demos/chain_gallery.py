#!/usr/bin/env python3
"""Near-diagonal chains from the origin to a gallery of phase targets.

Each chain moves through unit time in k equal steps, keeps every velocity
increment below rho0 sqrt(dt) / 2, and follows the exact transport recursion
x_{j+1} = x_j + dt v_j.  String enough near-diagonal kernel lower bounds
along such a chain and a quantitative positivity estimate at the far target
drops out; the script prints that bound in log form for a few targets,
together with the chain sizes and a tube-perturbation check.

Usage:
    python3 demos/chain_gallery.py [--k0 K0] [--out chains.csv]
"""
import argparse
import csv

import numpy as np

from kolkit.chains import (
    NearDiagonalParams,
    build_chain,
    chain_lower_bound,
    default_k0,
    perturbation_check,
    validate_chain,
)

ap = argparse.ArgumentParser()
ap.add_argument("--k0", type=float, default=None,
                help="starting step count per unit target size (default: the safe bound)")
ap.add_argument("--out", default=None, help="optional CSV path for the table")
args = ap.parse_args()

p = NearDiagonalParams()
print(f"params: rho0 = {p.rho0}, c0 = {p.c0}, default k0 = {default_k0(p):.0f}")
if args.k0 is not None:
    print(f"using k0 = {args.k0} (galloped upward until admissible)")

targets = [
    ([0.0], [0.1]),
    ([0.0], [1.0]),
    ([0.5], [0.0]),
    ([1.0], [1.0]),
    ([-2.0], [3.0]),
]

rows = []
for Xbar, Vbar in targets:
    chain = build_chain(Xbar, Vbar, p, k0=args.k0)
    validate_chain(chain, target=(Xbar, Vbar))
    ok = perturbation_check(chain)
    logb = chain_lower_bound(chain, p, log=True)
    rows.append((Xbar[0], Vbar[0], chain.k, chain.dt, ok, logb))

print(f"\n{'X':>6} {'V':>6} {'k':>9} {'dt':>10} {'tube ok':>8} {'log lower bound':>16}")
for x, v, k, dt, ok, logb in rows:
    print(f"{x:>6.1f} {v:>6.1f} {k:>9d} {dt:>10.2e} {str(ok):>8} {logb:>16.1f}")

# the linear-scale bound underflows for any long chain; that is the point
# of reporting logs
sample = np.exp(rows[0][-1]) if rows[0][-1] > -700 else 0.0
print(f"\nlinear-scale bound for the shortest chain: {sample:.3e}")

if args.out:
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["X", "V", "k", "dt", "tube_ok", "log_lower_bound"])
        w.writerows(rows)
    print(f"wrote {args.out}")
