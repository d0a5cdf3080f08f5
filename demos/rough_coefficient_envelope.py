#!/usr/bin/env python3
"""Two-sided Gaussian envelope for a kernel with discontinuous diffusion.

Runs the solver under a checkerboard coefficient jumping between 0.5 and
2.0, samples the time-1 kernel on axis and lattice points, fits decay rates
in the kinetic distance E = |X|^2 + |V|^2 (after normalizing the gap), and
prints the fitted envelope together with a bracketing table.  The point of
the exercise: ellipticity alone, with no smoothness at all, already pins
the kernel between two explicit Gaussian-type profiles.

Usage:
    python3 demos/rough_coefficient_envelope.py [seed]
"""
import sys

import numpy as np

from kolkit.coefficients import make_field
from kolkit.phase_geometry import NormalizedGap
from kolkit.profiles import fit_envelope, kinetic_exponent, lower_profile, upper_profile
from kolkit.solver import Grid, SolverConfig, estimate_kernel

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11

field = make_field(
    "checkerboard",
    {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25), "random_origin": True},
    seed=seed,
)
# a = value * I takes only the two checkerboard values, so they are the ellipticity window
lam, Lam = field.params["values"]
print(f"coefficient: checkerboard, seed {seed}, ellipticity window [{lam:.2f}, {Lam:.2f}]")

grid = Grid(Lx=4.5, Lv=7.0, Nx=160, Nv=160)
cfg = SolverConfig(dt=1.0 / 160, w0_cells=2.0, tail_tol=1e-3)
est = estimate_kernel((0.0, 0.0, 0.0), 1.0, field, grid, cfg)

# axis points resolve the two decay rates separately; the lattice fills in
# mixed directions for the bracketing check
pts = [(x, 0.0) for x in np.linspace(-1.6, 1.6, 9) if x]
pts += [(0.0, v) for v in np.linspace(-2.6, 2.6, 13) if v]
pts += [(x, v) for x in np.linspace(-1.2, 1.2, 5) for v in np.linspace(-2.0, 2.0, 5)]

samples = []
for (x, v) in pts:
    gap = NormalizedGap.from_raw(1.0, x, v)
    if kinetic_exponent(gap) <= 8.0:
        samples.append((gap, float(est.density(x, v))))

fit = fit_envelope(samples, d=1)
c = fit.constants
print(f"fitted on {len(samples)} samples with E <= 8:")
print(f"  upper: value <= {c.C0_up:.3f} exp(-{c.C1_up:.3f} E)")
print(f"  lower: value >= {c.c0_low:.4f} exp(-{c.c1_low:.3f} E)")
print(f"  two-sided: {c.is_two_sided()}")

print(f"\n{'X':>6} {'V':>6} {'E':>6} {'lower':>10} {'kernel':>10} {'upper':>10}")
show = sorted(samples, key=lambda s: kinetic_exponent(s[0]))[::6]
for gap, val in show:
    E = kinetic_exponent(gap)
    lo, hi = lower_profile(c, gap, d=1), upper_profile(c, gap, d=1)
    ok = "" if lo <= val <= hi else "  <-- outside"
    print(f"{gap.X[0]:>6.2f} {gap.V[0]:>6.2f} {E:>6.2f} {lo:>10.3e} {val:>10.3e} {hi:>10.3e}{ok}")
