"""Weighted log functionals, level-set statistics, and the duality check.

The central object is the Gaussian-weighted mean of log f over phase space
at a fixed time, the quantity whose lower bound drives the positivity
argument.  Level-set measures are cell-counting quadratures over a time
slab.  All log evaluations floor the density at a recorded
epsilon; healthy kernels must be insensitive to halving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField, reversed_flipped_field
from .solver import (
    ConfigError, DomainError, Field, Grid, SolverConfig, SpaceTimeField, estimate_kernel, init_delta
)

__all__ = [
    "GWeight",
    "LevelSetReport",
    "DomainError",
    "g_functional",
    "g_floor_sensitivity",
    "log_mean_c",
    "level_set_statistic",
    "box_cells",
    "adjoint_kernel_residual",
    "default_s_grid",
]


@dataclass(frozen=True)
class GWeight:
    """Unit-mass Gaussian weight exp(-pi(|y|^2+|w|^2)), truncated at radius R.

    The exact integral over the plane is 1; the truncation tail is
    exp(-pi R^2), which the radius invariant keeps below 1e-10.
    """

    R: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.R < np.inf):  # NaN fails it too
            raise ValueError(f"truncation radius must be positive and finite, got {self.R}")
        tail = np.exp(-np.pi * self.R * self.R)  # R * R reads inf where R**2 raises OverflowError
        if tail > 1e-10:
            raise ValueError(f"truncation radius {self.R} leaves a weight tail of {tail:.2e}")

    def values(self, grid: Grid) -> np.ndarray:
        if grid.Lx < self.R or grid.Lv < self.R:
            raise DomainError(
                f"grid box ({grid.Lx}, {grid.Lv}) does not contain the weight "
                f"ball of radius {self.R}"
            )
        X, V = grid.meshes()
        r2 = X**2 + V**2
        w = np.exp(-np.pi * r2)
        w[r2 > self.R * self.R] = 0.0
        return w


def _weighted_log(f: Field, weight: GWeight, floor: float) -> float:
    if not (0 < floor < np.inf):  # NaN fails it too
        raise DomainError(f"log floor must be positive and finite, got {floor}")
    if not np.any(f.values > 0):
        raise DomainError("field is identically zero; log integral undefined")
    w = weight.values(f.grid)
    logs = np.log(np.maximum(f.values, floor))
    return float((w * logs).sum() * f.grid.cell_volume)


def g_functional(
    kernel_slice: Field,
    weight: GWeight | None = None,
    floor: float = 1e-30,
    source_offset=None,
) -> float:
    """Weighted mean of log of a kernel slice (the positivity functional).

    When the kernel's source offset (x, v) is supplied it must satisfy
    |(x, v)| <= 1; the lower-bound statement is only claimed there.
    """
    weight = weight or GWeight()
    if source_offset is not None:
        off = float(np.sqrt(sum(float(c) ** 2 for c in source_offset)))
        if not (off <= 1.0 + 1e-12):  # NaN fails it too
            raise DomainError(f"source offset norm {off:.4f} exceeds 1")
    return _weighted_log(kernel_slice, weight, floor)


def g_floor_sensitivity(kernel_slice: Field, weight: GWeight | None = None, floor: float = 1e-30) -> tuple:
    """(G at floor, |G(floor) - G(floor/2)|)."""
    weight = weight or GWeight()
    g1 = _weighted_log(kernel_slice, weight, floor)
    g2 = _weighted_log(kernel_slice, weight, 0.5 * floor)
    return g1, abs(g1 - g2)


def log_mean_c(f: Field, weight: GWeight | None = None, floor: float = 1e-30) -> float:
    """Same weighted log integral, applied to supersolution snapshots."""
    return _weighted_log(f, weight or GWeight(), floor)


# level-set thresholds per doubling of s
_S_PER_OCTAVE = 2


def default_s_grid() -> np.ndarray:
    # geometric sweep 2^-4 .. 2^12; the sup over s is bracketed by sampling
    return np.geomspace(2.0**-4, 2.0**12, 16 * _S_PER_OCTAVE + 1)


@dataclass
class LevelSetReport:
    """The level-set curve: measures[i] is the measure of the cells where
    log f - c exceeds s_grid[i], and statistic is the largest s * measure."""

    statistic: float
    s_grid: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        if not (self.statistic >= 0):
            raise ValueError(f"level-set statistic must be a number >= 0, got {self.statistic}")

    def products(self) -> np.ndarray:
        return self.s_grid * self.measures


def box_cells(E, grid: Grid) -> np.ndarray:
    """Mask, shape (Nx, Nv), of the cell centres in the box E = ((x_lo, x_hi),
    (v_lo, v_hi)); raises DomainError for an axis with lo >= hi or a box that
    holds no cell centre, where every level-set measure would read 0."""
    (x_lo, x_hi), (v_lo, v_hi) = E
    if not (x_lo < x_hi and v_lo < v_hi):
        raise DomainError(f"box E must have lo < hi on each axis, got {[list(b) for b in E]}")
    X, V = grid.meshes()
    in_E = (X >= x_lo) & (X <= x_hi) & (V >= v_lo) & (V <= v_hi)
    if not in_E.any():
        raise DomainError(f"box E = {[list(b) for b in E]} holds no cell centre of the grid")
    return in_E


def level_set_statistic(
    f: SpaceTimeField,
    c: float,
    s_grid: np.ndarray | None = None,
    E=((-2.0, 2.0), (-2.0, 2.0)),
    t_window=(0.25, 0.75),
    floor: float = 1e-30,
) -> LevelSetReport:
    """sup over sampled s of s * |{(t,x,v) in window x E : log f - c > s}|.

    The measure is cell counting: snapshot time weight times cell volume.
    The log excess of one snapshot's cells in E is sorted, and one
    searchsorted counts the cells above every threshold; every cell is a
    number, as SpaceTimeField holds finite values only.  Thresholds must be
    positive and finite, c finite, the floor in (0, inf).
    """
    s_grid = default_s_grid() if s_grid is None else np.asarray(s_grid, dtype=float)
    if not (s_grid.size and np.all(s_grid > 0) and np.all(s_grid < np.inf)):
        raise DomainError(f"level-set thresholds must be positive and finite, got {s_grid.tolist()}")
    if not np.isfinite(c):
        raise DomainError(f"level-set offset c must be finite, got {c}")
    if not (0 < floor < np.inf):  # NaN fails it too; it would read as no cell above any s
        raise DomainError(f"log floor must be positive and finite, got {floor}")
    grid = f.grid
    in_E = box_cells(E, grid)
    sub = f.window(*t_window)

    # counts[i, k]: cells of snapshot k in E whose excess exceeds s_grid[i]
    counts = np.empty((s_grid.size, sub.times.size))
    for k, snapshot in enumerate(sub.values):
        excess = np.sort(np.log(np.maximum(snapshot[in_E], floor)) - c)
        counts[:, k] = excess.size - np.searchsorted(excess, s_grid, side="right")
    tw = np.gradient(sub.times) if sub.times.size > 1 else np.ones(1)
    measures = (counts * tw).sum(axis=1) * grid.cell_volume
    return LevelSetReport(statistic=float((s_grid * measures).max()), s_grid=s_grid, measures=measures)


def adjoint_kernel_residual(
    field: CoefficientField,
    points,
    grid: Grid,
    config: SolverConfig,
    eval_point=(0.0, 0.0),
    t0: float = 1.0,
    t1: float = 2.0,
) -> dict:
    """Duality check: the kernel read as a function of its source point
    solves a companion equation with reversed transport and the coefficient
    time-shifted to run backwards from t1.

    For each source point (y, w), a forward run over [t0, t1] started from
    the test bump at (y, w) is integrated against the test bump at
    eval_point; one companion run (coefficient (s, x, v) -> a(t1 - s, -x, v),
    started from the bump at the reflected eval point) is integrated against
    the bumps at the reflected source points.  Reading both sides against
    the same Gaussian bump keeps the comparison in the weak form in which
    the duality statement holds for rough coefficients; a pointwise read on
    one side only would fold the source-vs-target mollification gap into
    the residual.  Returns the max symmetric relative error over points.
    """
    if t1 <= t0:
        raise ConfigError(f"need t1 > t0, got ({t0}, {t1})")
    pts = [tuple(float(c) for c in p) for p in points]
    xe, ve = (float(c) for c in eval_point)
    w0 = (config.w0_cells * grid.dx, config.w0_cells * grid.dv)

    def bump_read(f, center):
        probe = init_delta(center, w0, grid)
        return float((f.values * probe.values).sum() * grid.cell_volume)

    forward_vals = []
    for (y, w) in pts:
        est = estimate_kernel((t0, y, w), t1, field, grid, config)
        forward_vals.append(bump_read(est.field, (xe, ve)))

    companion = reversed_flipped_field(field, t1)
    adj = estimate_kernel((0.0, -xe, ve), t1 - t0, companion, grid, config)
    adjoint_vals = [bump_read(adj.field, (-y, w)) for (y, w) in pts]
    adjoint_mass = adj.field.mass()

    # equal reads (both 0 included) agree exactly; otherwise the denominator is positive
    rel = [
        0.0 if a == b else abs(a - b) / (0.5 * (abs(a) + abs(b)))
        for a, b in zip(forward_vals, adjoint_vals)
    ]
    return {
        "residual": float(max(rel)),
        "points": pts,
        "forward": forward_vals,
        "adjoint": adjoint_vals,
        "relative_errors": rel,
        "adjoint_mass": adjoint_mass,
        "eval_point": (xe, ve),
        "t0": t0,
        "t1": t1,
    }
