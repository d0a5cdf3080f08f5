"""Shared fixtures: the seeded coefficient ensembles and the kernel runs
that several verification tests read from.

The heavyweight runs are session-scoped on purpose; the near-diagonal,
G-functional and envelope tests all consume the same ten estimates.
`assert_same_text` is imported by the tests that compare texts of megabytes.
"""

import numpy as np
import pytest

from kolkit import Grid, SolverConfig, estimate_kernel, make_field

ENSEMBLE_A_SEEDS = tuple(range(100, 110))
ENSEMBLE_B_SEEDS = tuple(range(200, 210))

# ensemble boxes; A also hosts the Gaussian-weight ball (radius 4)
BOX_A = {"Lx": 4.5, "Lv": 7.0}
BOX_B = {"Lx": 6.5, "Lv": 11.0}


def checkerboard_ensemble(seeds, lo, hi):
    return [
        make_field(
            "checkerboard",
            {"values": (lo, hi), "cells": (0.25, 0.25, 0.25), "random_origin": True},
            seed=s,
        )
        for s in seeds
    ]


def assert_same_text(got, want):
    """got == want, naming the first difference: pytest's diff of two texts of
    megabytes takes minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {i}: {got[i - 30 : i + 30]!r} != {want[i - 30 : i + 30]!r}")


@pytest.fixture(scope="session")
def ensemble_a():
    # ellipticity window (1/2, 2) by construction
    return checkerboard_ensemble(ENSEMBLE_A_SEEDS, 0.5, 2.0)


@pytest.fixture(scope="session")
def ensemble_b():
    # wider window (1/4, 4)
    return checkerboard_ensemble(ENSEMBLE_B_SEEDS, 0.25, 4.0)


@pytest.fixture(scope="session")
def ens_a_runs_128(ensemble_a):
    """Unit-gap kernel estimate per ensemble-A member at 128^2, origin
    source, snapshots kept for the level-set statistics."""
    grid = Grid(Nx=128, Nv=128, **BOX_A)
    cfg = SolverConfig(dt=1.0 / 128, w0_cells=2.0, tail_tol=1.0)
    return [
        estimate_kernel((0.0, 0.0, 0.0), 1.0, f, grid, cfg, record_every=8)
        for f in ensemble_a
    ]


@pytest.fixture(scope="session")
def ens_a_runs_192(ensemble_a):
    grid = Grid(Nx=192, Nv=192, **BOX_A)
    cfg = SolverConfig(dt=1.0 / 160, w0_cells=2.0, tail_tol=1.0)
    return [estimate_kernel((0.0, 0.0, 0.0), 1.0, f, grid, cfg) for f in ensemble_a]


@pytest.fixture(scope="session")
def ens_b_runs_128(ensemble_b):
    grid = Grid(Nx=128, Nv=128, **BOX_B)
    cfg = SolverConfig(dt=1.0 / 128, w0_cells=2.0, tail_tol=1.0)
    return [
        estimate_kernel((0.0, 0.0, 0.0), 1.0, f, grid, cfg, record_every=8)
        for f in ensemble_b
    ]
