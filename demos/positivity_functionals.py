#!/usr/bin/env python3
# Ensemble study of the two positivity functionals.
#
# Usage:
#   python3 demos/positivity_functionals.py
#
# For a batch of random checkerboard coefficients this script evolves a point
# source to unit time and computes
#   G  = weighted mean of log(kernel)  against a fixed Gaussian window, and
#   sup_s s |{ log f - c_f > s }|      over a space-time box,
# then reports the ensemble extremes.  A uniform lower bound on G across
# rough coefficients is what rules out mass collapse near the diagonal; the
# level-set statistic controls how much of the field can sit far above its
# own weighted log-mean.  Neither quantity cares about smoothness of the
# coefficient, only its ellipticity window.

import numpy as np

from kolkit.coefficients import make_field
from kolkit.nash_g import g_functional, level_set_statistic, log_mean_c
from kolkit.solver import Grid, SolverConfig, estimate_kernel

GRID = Grid(Lx=4.5, Lv=7.0, Nx=128, Nv=128)
CFG = SolverConfig(dt=1.0 / 128, w0_cells=2.0, tail_tol=1.0)
SEEDS = range(100, 110)

g_vals, stats = [], []
for seed in SEEDS:
    field = make_field(
        "checkerboard",
        {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25), "random_origin": True},
        seed=seed,
    )
    est = estimate_kernel((0.0, 0.0, 0.0), 1.0, field, GRID, CFG, record_every=8)
    g_vals.append(g_functional(est.field))
    rep = level_set_statistic(est.history, log_mean_c(est.field))
    stats.append(rep.statistic)
    print(f"seed {seed}: G = {g_vals[-1]:+.4f}   sup_s s|levels| = {stats[-1]:.4f}")

print()
print(f"ensemble of {len(g_vals)}: min G = {min(g_vals):+.4f} "
      f"(empirical constant {-min(g_vals):.4f}), max statistic = {max(stats):.4f}")

# constant-coefficient reference for orientation
ref = estimate_kernel((0.0, 0.0, 0.0), 1.0, make_field("constant", {"value": 1.0}), GRID, CFG)
print(f"constant a = 1 reference: G = {g_functional(ref.field):+.4f}")
