"""Weighted log functionals, level-set statistics, and the duality check.

The central object is the Gaussian-weighted mean of log f over phase space
at a fixed time, the quantity whose lower bound drives the positivity
argument.  Level-set and good-set measures are cell-counting quadratures
over a time slab.  All log evaluations floor the density at a recorded
epsilon; healthy kernels must be insensitive to halving it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coefficients import CoefficientField, reversed_flipped_field
from .solver import (
    ConfigError, DomainError, Field, Grid, SolverConfig, SpaceTimeField, estimate_kernel, init_delta
)

__all__ = [
    "GWeight",
    "LevelSetReport",
    "GoodSetMeasures",
    "DomainError",
    "g_functional",
    "g_floor_sensitivity",
    "log_mean_c",
    "level_set_statistic",
    "good_set_measures",
    "mass_in_ball",
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
        tail = np.exp(-np.pi * self.R**2)
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
        w[r2 > self.R**2] = 0.0
        return w

    def mass(self, grid: Grid) -> float:
        return float(self.values(grid).sum() * grid.cell_volume)


def _weighted_log(f: Field, weight: GWeight, floor: float) -> float:
    if floor <= 0:
        raise DomainError(f"log floor must be positive, got {floor}")
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
        if off > 1.0 + 1e-12:
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


def _time_weights(times: np.ndarray) -> np.ndarray:
    if times.size == 1:
        return np.ones(1)
    return np.gradient(times)


def default_s_grid(per_octave: int = 2) -> np.ndarray:
    # geometric sweep 2^-4 .. 2^12; the sup over s is bracketed by sampling
    n = 16 * per_octave + 1
    return np.geomspace(2.0**-4, 2.0**12, n)


@dataclass
class LevelSetReport:
    c_f: float
    statistic: float
    s_grid: np.ndarray
    measures: np.ndarray
    floor_used: float
    E: tuple
    t_window: tuple
    warnings: list = dc_field(default_factory=list)

    def __post_init__(self):
        if self.statistic < 0:
            raise ValueError("level-set statistic cannot be negative")

    def products(self) -> np.ndarray:
        return self.s_grid * self.measures

    def to_dict(self) -> dict:
        return {
            "c_f": self.c_f,
            "statistic": self.statistic,
            "floor_used": self.floor_used,
            "E": [list(b) for b in self.E],
            "t_window": list(self.t_window),
            "curve": {
                "s": self.s_grid.tolist(),
                "measure": self.measures.tolist(),
                "s_times_measure": self.products().tolist(),
            },
            "warnings": list(self.warnings),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def curve_csv(self, path) -> None:
        data = np.column_stack([self.s_grid, self.measures, self.products()])
        np.savetxt(path, data, delimiter=",", header="s,measure,s_times_measure", comments="")


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
    """
    s_grid = default_s_grid() if s_grid is None else np.asarray(s_grid, dtype=float)
    if np.any(s_grid <= 0):
        raise DomainError("level-set thresholds must be positive")
    sub = f.window(*t_window)
    grid = f.grid
    (x_lo, x_hi), (v_lo, v_hi) = E
    X, V = grid.meshes()
    in_E = (X >= x_lo) & (X <= x_hi) & (V >= v_lo) & (V <= v_hi)
    in_E = np.broadcast_to(in_E, sub.values.shape[1:])

    tw = _time_weights(sub.times)
    excess = np.log(np.maximum(sub.values, floor)) - c
    excess = np.where(in_E[None, :, :], excess, -np.inf)
    # cell counts per snapshot for every threshold at once
    measures = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        counts = (excess > s).sum(axis=(1, 2))
        measures[i] = float((counts * tw).sum() * grid.cell_volume)
    products = s_grid * measures
    return LevelSetReport(
        c_f=c,
        statistic=float(products.max()),
        s_grid=s_grid,
        measures=measures,
        floor_used=floor,
        E=tuple(tuple(b) for b in E),
        t_window=tuple(t_window),
    )


@dataclass(frozen=True)
class GoodSetMeasures:
    omega: float
    omega_S: float
    S: float
    smallest_S_half: float | None

    def __post_init__(self):
        if self.omega_S > self.omega + 1e-15:
            raise ValueError("the capped good set cannot exceed the good set")


def good_set_measures(
    f: SpaceTimeField,
    eta: float,
    S: float,
    G1: float,
    ball_radius: float,
    t_window=(0.25, 0.75),
    floor: float = 1e-30,
) -> GoodSetMeasures:
    """Cell-counting measures of {f > eta} and {f > eta, log f - G1 <= S}
    over the slab window x centered phase ball.

    Also reports the smallest cap S at which the capped set reaches half of
    the good set (None when the good set is empty).
    """
    if eta <= 0:
        raise DomainError(f"good-set threshold must be positive, got {eta}")
    sub = f.window(*t_window)
    grid = f.grid
    X, V = grid.meshes()
    in_ball = (X**2 + V**2) <= ball_radius**2
    tw = _time_weights(sub.times)

    good = sub.values > eta
    good &= in_ball[None, :, :]
    cellw = tw[:, None, None] * grid.cell_volume
    omega = float((good * cellw).sum())

    logs = np.log(np.maximum(sub.values, floor)) - G1
    capped = good & (logs <= S)
    omega_S = float((capped * cellw).sum())

    smallest = None
    if omega > 0:
        vals = logs[good]
        wts = np.broadcast_to(cellw, sub.values.shape)[good]
        order = np.argsort(vals)
        csum = np.cumsum(wts[order])
        idx = int(np.searchsorted(csum, 0.5 * omega))
        smallest = float(vals[order][min(idx, vals.size - 1)])
    return GoodSetMeasures(omega=omega, omega_S=omega_S, S=S, smallest_S_half=smallest)


def mass_in_ball(f: Field, radius: float) -> float:
    """Quadrature of f over the centered ball |(x, v)| <= radius."""
    X, V = f.grid.meshes()
    inside = (X**2 + V**2) <= radius**2
    return float(f.values[np.broadcast_to(inside, f.values.shape)].sum() * f.grid.cell_volume)


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
