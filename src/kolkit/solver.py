"""Phase-space finite-volume solver for (d_t + v d_x) f = d_v (a d_v f), d = 1.

Strang splitting: half-step implicit diffusion in v, full conservative
transport in x, half-step diffusion.  Transport uses a flux-form piecewise
parabolic reconstruction with the classic monotonicity limiter, so mass is
conserved to rounding and nonnegativity is preserved under the CFL bound
dt <= dx / Lv.  Diffusion is backward Euler in flux form with harmonic-mean
interface coefficients (the standard choice for discontinuous a).  The
tridiagonal system is symmetric and strictly diagonally dominant with a
positive diagonal, hence positive definite; LAPACK pttrf factors it as
L D L^T with d > 0 and off-diagonals of L <= 0, so the substitutions
preserve sign without any pivoting, and the solve keeps column sums.  x is
periodic, v has zero-flux walls.

Each run owns one stepper (`_FactorCache`, made by `evolve`): it holds the
diffusion-factor slot and the transport sweep's courant row and scratch
arrays, all made once per run.  A step writes into one fresh array of its
own, so a returned Field never aliases that scratch.

With record_every=k a run also keeps its space-time history, one
`SpaceTimeField` (`EvolveResult.history`, `KernelEstimate.history`) holding
the initial state, every k-th step and the final state; each recorded state
is copied once, into the history's own array.

Stepping is single-threaded and bit-deterministic for a fixed grid, config
and coefficient seed.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpttrf, dpttrs

from .coefficients import CoefficientField, dilated_field

__all__ = [
    "Grid",
    "Field",
    "SpaceTimeField",
    "SolverConfig",
    "KernelEstimate",
    "EvolveResult",
    "ConfigError",
    "SolverError",
    "init_delta",
    "step",
    "evolve",
    "estimate_kernel",
    "diagnostics",
    "chapman_kolmogorov_residual",
    "scaling_identity_residual",
]


class ConfigError(ValueError):
    """Invalid grid/config combination (CFL, divisibility, widths)."""


class SolverError(RuntimeError):
    """Numerical failure inside a step."""


class DomainError(ValueError):
    """Input outside the functional's domain (zero slice, bad offset)."""


@dataclass(frozen=True)
class Grid:
    """Cell-centered box [-Lx, Lx) x [-Lv, Lv]; periodic in x, walls in v."""

    Lx: float
    Lv: float
    Nx: int
    Nv: int

    def __post_init__(self):
        if self.Lx <= 0 or self.Lv <= 0:
            raise ConfigError(f"box half-widths must be positive, got ({self.Lx}, {self.Lv})")
        if self.Nx < 16 or self.Nv < 16:
            raise ConfigError(f"need at least 16 cells per axis, got ({self.Nx}, {self.Nv})")

    @property
    def dx(self) -> float:
        return 2.0 * self.Lx / self.Nx

    @property
    def dv(self) -> float:
        return 2.0 * self.Lv / self.Nv

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dv

    @cached_property
    def x_centers(self) -> np.ndarray:
        return -self.Lx + (np.arange(self.Nx) + 0.5) * self.dx

    @cached_property
    def v_centers(self) -> np.ndarray:
        return -self.Lv + (np.arange(self.Nv) + 0.5) * self.dv

    def meshes(self):
        return self.x_centers[:, None], self.v_centers[None, :]

    def descriptor(self) -> dict:
        return {"Lx": self.Lx, "Lv": self.Lv, "Nx": self.Nx, "Nv": self.Nv}


@dataclass
class Field:
    """Density values on a grid at one time stamp."""

    values: np.ndarray
    t: float
    grid: Grid

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.grid.Nx, self.grid.Nv):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.Nx}, {self.grid.Nv})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def min(self) -> float:
        return float(self.values.min())

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.t, self.grid)

    def interp(self, xq, vq) -> np.ndarray:
        """Bilinear sample; periodic wrap in x, clamp in v."""
        g = self.grid
        xq = np.asarray(xq, dtype=float)
        vq = np.asarray(vq, dtype=float)
        u = (xq + g.Lx) / g.dx - 0.5
        i0 = np.floor(u).astype(np.int64)
        wx = u - i0
        i0 %= g.Nx
        i1 = (i0 + 1) % g.Nx
        w = np.clip((vq + g.Lv) / g.dv - 0.5, 0.0, g.Nv - 1.0)
        j0 = np.minimum(np.floor(w).astype(np.int64), g.Nv - 2)
        wv = w - j0
        f = self.values
        return (
            f[i0, j0] * (1 - wx) * (1 - wv)
            + f[i1, j0] * wx * (1 - wv)
            + f[i0, j0 + 1] * (1 - wx) * wv
            + f[i1, j0 + 1] * wx * wv
        )


@dataclass
class SpaceTimeField:
    """Stack of density snapshots on one grid; values shape (Nt, Nx, Nv)."""

    values: np.ndarray
    times: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.values.ndim != 3 or self.values.shape[0] != self.times.size:
            raise ValueError(
                f"need one time stamp per snapshot, got values {self.values.shape} "
                f"and {self.times.size} times"
            )
        if self.values.shape[1:] != (self.grid.Nx, self.grid.Nv):
            raise ValueError("snapshot shape does not match the grid")
        if self.times.size >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")

    @classmethod
    def from_snapshots(cls, snapshots, times, grid: Grid) -> "SpaceTimeField":
        return cls(np.stack(snapshots), np.asarray(times, dtype=float), grid)

    def window(self, t_lo: float, t_hi: float) -> "SpaceTimeField":
        keep = (self.times >= t_lo - 1e-12) & (self.times <= t_hi + 1e-12)
        if not np.any(keep):
            raise DomainError(f"no snapshots inside the window [{t_lo}, {t_hi}]")
        return SpaceTimeField(self.values[keep], self.times[keep], self.grid)


@dataclass(frozen=True)
class SolverConfig:
    """Time step and scheme knobs.

    w0_cells is the mollification width for Dirac data in units of grid
    cells (>= 2); tail_tol is the boundary/peak ratio above which a kernel
    estimate warns that the box is too small.
    """

    dt: float
    transport_order: int = 3
    w0_cells: float = 3.0
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.transport_order not in (1, 3):
            raise ConfigError(f"transport_order must be 1 or 3, got {self.transport_order}")
        if self.w0_cells < 2:
            raise ConfigError(f"mollification width must be >= 2 cells, got {self.w0_cells}")

    def descriptor(self) -> dict:
        return dataclasses.asdict(self)


def init_delta(center, width, grid: Grid, t: float = 0.0) -> Field:
    """Unit-mass truncated Gaussian bump of standard deviation `width`.

    `width` is physical: a scalar used on both axes or a pair (w0x, w0v).
    The center must sit at least 4 standard deviations inside the box.
    """
    y, w = (float(c) for c in center)
    if np.isscalar(width):
        w0x = w0v = float(width)
    else:
        w0x, w0v = (float(u) for u in width)
    if w0x <= 0 or w0v <= 0:
        raise ConfigError(f"mollification widths must be positive, got ({w0x}, {w0v})")
    if abs(w) > grid.Lv - 4 * w0v:
        raise ConfigError(
            f"center v={w} is within 4 widths ({4 * w0v}) of the v-boundary +-{grid.Lv}"
        )
    if abs(y) > grid.Lx - 4 * w0x:
        raise ConfigError(
            f"center x={y} is within 4 widths ({4 * w0x}) of the x-boundary +-{grid.Lx}"
        )

    X, V = grid.meshes()
    rx = (X - y) / w0x
    rv = (V - w) / w0v
    vals = np.exp(-0.5 * rx**2) * np.exp(-0.5 * rv**2)
    # a margin, so mirror cells exactly 6 widths out agree (x_centers is antisymmetric to rounding)
    cut = 6.0 + 1e-9
    vals[(np.abs(rx) > cut) | (np.abs(rv) > cut)] = 0.0
    vals /= vals.sum() * grid.cell_volume
    return Field(vals, t, grid)


def _diffusion_factor(field: CoefficientField, t_sub: float, grid: Grid, dt_half: float) -> tuple:
    """pttrf factor (d, e) of the x-major flattened system; the v-walls decouple its x-rows."""
    X, V = grid.meshes()
    a = np.broadcast_to(np.asarray(field.value(t_sub, X, V), dtype=float), (grid.Nx, grid.Nv))
    if np.any(a <= 0):
        raise SolverError(f"coefficient is not positive on the grid at t={t_sub}")
    ah = np.zeros((grid.Nx, grid.Nv + 1))
    al, ar = a[:, :-1], a[:, 1:]
    ah[:, 1:-1] = 2.0 * al * ar / (al + ar)
    mu = dt_half / grid.dv**2
    off = -mu * ah[:, 1:].ravel()[:-1]
    diag = (1.0 + mu * ah[:, :-1] + mu * ah[:, 1:]).ravel()
    d, e, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolverError(f"diffusion matrix is not positive definite at t={t_sub} (info={info})")
    return d, e


class _Sweep:
    """Conservative x-transport of (Nx, Nv) arrays by one fixed courant row.

    The split column, per-column upwind constants and scratch arrays are made
    once and reused by each call; results go to `out` (fresh when None).
    """

    def __init__(self, courant: np.ndarray, shape: tuple):
        nx, nv = shape
        self.courant = courant
        # v_centers ascend, so only columns [:k] move left; each half gets its own upwind flux
        self.k = k = int(np.searchsorted(courant[0], 0.0))
        cpos = np.maximum(courant[:, k:], 0.0)
        cneg = np.maximum(-courant[:, :k], 0.0)
        self.half_pos, self.shape_pos = 0.5 * cpos, 1.0 - (2.0 / 3.0) * cpos
        self.half_neg, self.shape_neg = 0.5 * cneg, 1.0 - (2.0 / 3.0) * cneg
        self.pad = np.empty((nx + 4, nv))
        self.flux, self.lo, self.hi = (np.empty((nx + 1, nv)) for _ in range(3))
        self.fl, self.fr, self.d, self.f6 = (np.empty(shape) for _ in range(4))
        # cell-shaped views of two face arrays, free once the face values are clipped
        self.t1, self.t2 = self.lo[:-1], self.hi[:-1]
        self.m1, self.m2 = np.empty((2, *shape), dtype=bool)

    def _update(self, f: np.ndarray, out) -> np.ndarray:
        # f - c (F_{i+1/2} - F_{i-1/2}); v >= 0 cells filled flux[1:, k:], v < 0 ones flux[:-1, :k]
        k, flux, t1 = self.k, self.flux, self.t1
        flux[0, k:] = flux[-1, k:]
        flux[-1, :k] = flux[0, :k]
        np.subtract(flux[1:], flux[:-1], out=t1)
        np.multiply(self.courant, t1, out=t1)
        return np.subtract(f, t1, out=out)

    def upwind(self, f: np.ndarray, out=None) -> np.ndarray:
        k = self.k
        self.flux[1:, k:], self.flux[:-1, :k] = f[:, k:], f[:, :k]
        return self._update(f, out)

    def ppm(self, f: np.ndarray, out=None) -> np.ndarray:
        # the face values e live in flux until the fluxes overwrite them
        k, p, e, lo, hi, fl, fr = self.k, self.pad, self.flux, self.lo, self.hi, self.fl, self.fr
        d, f6, t1, t2, m1, m2 = self.d, self.f6, self.t1, self.t2, self.m1, self.m2
        # two periodic ghost rows per side; the slices and e run over the faces i - 1/2, i = 0..Nx
        p[2:-2], p[:2], p[-2:] = f, f[-2:], f[:2]
        fm2, fm1, f0, fp1 = p[:-3], p[1:-2], p[2:-1], p[3:]
        # e = (7 (fm1 + f0) - (fm2 + fp1)) / 12
        np.add(fm1, f0, out=e)
        np.multiply(7.0, e, out=e)
        np.add(fm2, fp1, out=lo)
        np.subtract(e, lo, out=e)
        np.divide(e, 12.0, out=e)
        # clamping the face value into the adjacent-cell range keeps the
        # reconstruction (and hence the update) nonnegative for |c| <= 1
        np.minimum(fm1, f0, out=lo)
        np.maximum(fm1, f0, out=hi)
        np.clip(e, lo, hi, out=e)
        fl[...], fr[...] = e[:-1], e[1:]

        # ext = (fr - f) (f - fl) <= 0
        np.subtract(fr, f, out=t1)
        np.subtract(f, fl, out=t2)
        np.multiply(t1, t2, out=t1)
        np.less_equal(t1, 0.0, out=m1)
        np.copyto(fl, f, where=m1)
        np.copyto(fr, f, where=m1)
        self._parabola(f)
        # at an extremum fl = fr = f, so d = 0 and neither overshoot test fires:
        # over_r = d f6 > d d, over_l = d f6 < -d d
        np.multiply(d, f6, out=t1)
        np.multiply(d, d, out=t2)
        np.greater(t1, t2, out=m1)
        np.negative(t2, out=t2)
        np.less(t1, t2, out=m2)
        # fl = 3 f - 2 fr where over_r, then fr = 3 f - 2 fl where over_l
        np.multiply(3.0, f, out=t1)
        np.multiply(2.0, fr, out=t2)
        np.subtract(t1, t2, out=t2)
        np.copyto(fl, t2, where=m1)
        np.multiply(2.0, fl, out=t2)
        np.subtract(t1, t2, out=t2)
        np.copyto(fr, t2, where=m2)
        self._parabola(f)

        # right = fr - (c/2) (d - (1 - 2c/3) f6) on columns [k:], into flux[1:, k:]
        r = t1[:, k:]
        np.multiply(self.shape_pos, f6[:, k:], out=r)
        np.subtract(d[:, k:], r, out=r)
        np.multiply(self.half_pos, r, out=r)
        np.subtract(fr[:, k:], r, out=self.flux[1:, k:])
        # left = fl + (|c|/2) (d + (1 - 2|c|/3) f6) on columns [:k], into flux[:-1, :k]
        q = t1[:, :k]
        np.multiply(self.shape_neg, f6[:, :k], out=q)
        np.add(d[:, :k], q, out=q)
        np.multiply(self.half_neg, q, out=q)
        np.add(fl[:, :k], q, out=self.flux[:-1, :k])
        return self._update(f, out)

    def _parabola(self, f: np.ndarray) -> None:
        # d = fr - fl, f6 = 6 (f - (fl + fr) / 2)
        fl, fr, d, f6 = self.fl, self.fr, self.d, self.f6
        np.subtract(fr, fl, out=d)
        np.add(fl, fr, out=f6)
        np.multiply(0.5, f6, out=f6)
        np.subtract(f, f6, out=f6)
        np.multiply(6.0, f6, out=f6)


def _transport_ppm(f: np.ndarray, courant: np.ndarray) -> np.ndarray:
    return _Sweep(courant, f.shape).ppm(f)


def _transport_upwind(f: np.ndarray, courant: np.ndarray) -> np.ndarray:
    return _Sweep(courant, f.shape).upwind(f)


class _FactorCache:
    """The stepper of one run, whose field, grid and dt = 2 dt_half are fixed.

    The factor slot holds the diffusion factor of the last time slice seen,
    as named by field.time_key; a key of None (every t distinct) always
    rebuilds.  A run visits the slices in order, so one slot rebuilds only
    when the slice changes.  The transport sweep, with its courant row and
    scratch arrays, is made here once and serves every step of the run.
    """

    def __init__(self, field: CoefficientField, grid: Grid, dt_half: float):
        self.field = field
        self.grid = grid
        self.dt_half = dt_half
        self._key = None
        self._ld = None
        courant = (grid.v_centers * (2.0 * dt_half / grid.dx))[None, :]
        self.sweep = _Sweep(courant, (grid.Nx, grid.Nv))

    def solve(self, t_sub: float, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Backward-Euler diffusion of rhs, coefficient frozen at t_sub; overwrite may reuse rhs."""
        key = self.field.time_key(t_sub)
        if key is None or key != self._key:
            self._ld = _diffusion_factor(self.field, t_sub, self.grid, self.dt_half)
            self._key = key
        x, _ = dpttrs(*self._ld, rhs.reshape(-1, 1), overwrite_b=overwrite)
        return x.reshape(rhs.shape)


def step(
    state: Field,
    field: CoefficientField,
    config: SolverConfig,
    factors: _FactorCache | None = None,
) -> Field:
    """One Strang step: diffuse dt/2, transport dt, diffuse dt/2.

    The diffusion coefficient is frozen at the midpoint of each half step
    (t + dt/4 and t + 3dt/4).  `factors` is the run's stepper, which
    `evolve` passes so that a time slice is factored once and the sweep's
    scratch arrays are made once; without it the step builds its own, with
    bitwise the same result.
    """
    grid = state.grid
    dt = config.dt
    if dt > grid.dx / grid.Lv * (1.0 + 1e-12):
        raise ConfigError(
            f"CFL violation: dt={dt} exceeds dx/Lv={grid.dx / grid.Lv:.6g} "
            f"for grid {grid.descriptor()}"
        )
    t = state.t
    if factors is None:
        factors = _FactorCache(field, grid, 0.5 * dt)

    # the first solve makes the step's own array; every later stage writes into it
    f = factors.solve(t + 0.25 * dt, state.values)
    (factors.sweep.ppm if config.transport_order == 3 else factors.sweep.upwind)(f, out=f)
    np.maximum(f, 0.0, out=f)
    f = factors.solve(t + 0.75 * dt, f, overwrite=True)
    try:
        return Field(f, t + dt, grid)
    except ValueError:
        raise SolverError(f"non-finite values after step at t={t}") from None


@dataclass
class EvolveResult:
    field: Field
    mass_min: float
    mass_max: float
    min_value: float
    history: SpaceTimeField | None = None


def evolve(
    state: Field,
    field: CoefficientField,
    config: SolverConfig,
    t_final: float,
    record_every: int | None = None,
) -> EvolveResult:
    """Step from state.t to t_final; dt must divide the span.

    record_every=k keeps the run's history: the initial state, every k-th
    step and the final state once, copied into one SpaceTimeField.
    """
    span = t_final - state.t
    if span < 0:
        raise ConfigError(f"t_final={t_final} is before state time {state.t}")
    n = int(round(span / config.dt))
    if abs(n * config.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ConfigError(f"dt={config.dt} does not divide the time span {span}")
    if record_every is not None and record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")

    grid = state.grid
    marks = {*range(0, n, record_every), n} if record_every else set()
    rows, times = np.empty((len(marks), grid.Nx, grid.Nv)), []

    def record(i: int, f: Field) -> None:
        if i in marks:
            rows[len(times)] = f.values
            times.append(f.t)

    res = EvolveResult(state, mass_min=state.mass(), mass_max=state.mass(), min_value=state.min())
    record(0, state)
    factors = _FactorCache(field, grid, 0.5 * config.dt)
    for i in range(1, n + 1):
        state = step(state, field, config, factors)
        m = state.mass()
        res.mass_min = min(res.mass_min, m)
        res.mass_max = max(res.mass_max, m)
        res.min_value = min(res.min_value, state.min())
        record(i, state)
    res.field = state
    if record_every:
        res.history = SpaceTimeField(rows, times, grid)
    return res


@dataclass
class KernelEstimate:
    """Grid approximation of the fundamental solution from one source point."""

    field: Field
    source: tuple
    t: float
    w0: tuple
    grid: Grid
    config: SolverConfig
    coefficient: dict
    mass_drift: float
    min_value: float
    boundary_peak_ratio: float
    history: SpaceTimeField | None = None

    # read-only list views of history, still read by tests/test_acceptance.py and perfbench
    @property
    def _snapshots(self) -> list:
        return [] if self.history is None else list(self.history.values)

    @property
    def _snapshot_times(self) -> list:
        return [] if self.history is None else self.history.times.tolist()

    def density(self, xq, vq) -> np.ndarray:
        return self.field.interp(xq, vq)

    def sidecar(self) -> dict:
        return {
            "source": list(self.source),
            "t": self.t,
            "w0": list(self.w0),
            "grid": self.grid.descriptor(),
            "config": self.config.descriptor(),
            "coefficient": self.coefficient,
            "mass_drift": self.mass_drift,
            "min_value": self.min_value,
            "boundary_peak_ratio": self.boundary_peak_ratio,
        }

    def save(self, prefix, fmt: str = "npy") -> None:
        """Write `{prefix}.{npy|csv}` plus a `{prefix}.json` sidecar."""
        prefix = str(prefix)
        if fmt == "npy":
            np.save(prefix + ".npy", self.field.values)
        elif fmt == "csv":
            np.savetxt(prefix + ".csv", self.field.values, delimiter=",")
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        side = self.sidecar()
        side["format"] = fmt
        with open(prefix + ".json", "w") as fh:
            json.dump(side, fh, sort_keys=True, indent=1)


def estimate_kernel(
    source,
    t_final: float,
    field: CoefficientField,
    grid: Grid,
    config: SolverConfig,
    record_every: int | None = None,
) -> KernelEstimate:
    """Evolve a mollified Dirac from source=(s, y, w) to t_final."""
    s, y, w = (float(c) for c in source)
    if t_final <= s:
        raise ConfigError(f"t_final={t_final} must exceed the source time {s}")
    w0 = (config.w0_cells * grid.dx, config.w0_cells * grid.dv)
    state = init_delta((y, w), w0, grid, t=s)
    res = evolve(state, field, config, t_final, record_every=record_every)

    vals = res.field.values
    peak = float(vals.max())
    edge = float(max(vals[:, 0].max(), vals[:, -1].max()))
    ratio = edge / peak if peak > 0 else np.inf
    if ratio > config.tail_tol:
        warnings.warn(
            f"kernel tail at the v-boundary is {ratio:.2e} of the peak "
            f"(tolerance {config.tail_tol:.0e}); enlarge the box",
            stacklevel=2,
        )
    return KernelEstimate(
        field=res.field,
        source=(s, y, w),
        t=t_final,
        w0=w0,
        grid=grid,
        config=config,
        coefficient=field.descriptor(),
        mass_drift=max(abs(res.mass_min - 1.0), abs(res.mass_max - 1.0)),
        min_value=res.min_value,
        boundary_peak_ratio=ratio,
        history=res.history,
    )


def diagnostics(f: Field) -> dict:
    """Quadrature mass and first moment about the phase-space origin."""
    X, V = f.grid.meshes()
    r = np.sqrt(X**2 + V**2)
    return {
        "mass": f.mass(),
        "first_moment": float((r * f.values).sum() * f.grid.cell_volume),
    }


def remollify(f: Field, w0_cells: float) -> Field:
    """Gaussian smoothing by w0_cells grid cells (scipy.ndimage.gaussian_filter's
    kernel, cut at 4 sigma); wrap in x, zero beyond the v-walls."""
    radius = int(4.0 * w0_cells + 0.5)
    k = np.exp(-0.5 / w0_cells**2 * np.arange(-radius, radius + 1) ** 2)
    k /= k.sum()
    vals = np.pad(f.values, ((radius, radius), (0, 0)), mode="wrap")
    vals = sliding_window_view(vals, k.size, axis=0) @ k
    vals = np.pad(vals, ((0, 0), (radius, radius)))
    vals = sliding_window_view(vals, k.size, axis=1) @ k
    return Field(vals, f.t, f.grid)


def chapman_kolmogorov_residual(
    source,
    t0: float,
    t1: float,
    t2: float,
    field: CoefficientField,
    grid: Grid,
    config: SolverConfig,
) -> float:
    """L1 gap between direct evolution and the two-leg kernel composition.

    The composition integral sum_y Gamma_w0(t2, .; t1, y) f(t1, y) dy is,
    by linearity of the scheme, one further evolution of the mid-time state
    re-smoothed with the same mollifier used for Dirac data.  The residual
    therefore vanishes with w0 (and so with the grid, at fixed w0_cells).
    """
    if not (t0 <= t1 < t2):
        raise ConfigError(f"need t0 <= t1 < t2, got ({t0}, {t1}, {t2})")
    s, y, w = (float(c) for c in source)
    if s != t0:
        raise ConfigError(f"source time {s} must equal t0={t0}")

    w0 = (config.w0_cells * grid.dx, config.w0_cells * grid.dv)
    state = init_delta((y, w), w0, grid, t=t0)
    mid = evolve(state, field, config, t1).field
    direct = evolve(mid.copy(), field, config, t2).field
    composed = evolve(remollify(mid, config.w0_cells), field, config, t2).field
    return float(np.abs(direct.values - composed.values).sum() * grid.cell_volume)


def scaling_identity_residual(
    field: CoefficientField,
    tau: float,
    grid_tau: Grid,
    config_tau: SolverConfig,
    grid_unit: Grid,
    config_unit: SolverConfig,
) -> dict:
    """Compare the gap-tau kernel, dilated to unit gap, with a direct
    unit-gap run under the dilated coefficient.

    Run A estimates the kernel over a time gap tau from the origin.  Run B
    uses the coefficient (t, x, v) -> a(tau t, tau^{3/2} x, tau^{1/2} v)
    over a unit gap.  tau^2 A(tau^{3/2} xb, tau^{1/2} vb) should equal
    B(xb, vb); the returned residual is the normalized-coordinate L1 gap.
    """
    r = float(np.sqrt(tau))
    est_a = estimate_kernel((0.0, 0.0, 0.0), tau, field, grid_tau, config_tau)
    est_b = estimate_kernel((0.0, 0.0, 0.0), 1.0, dilated_field(field, r), grid_unit, config_unit)

    Xb, Vb = grid_unit.meshes()
    a_on_b = tau**2 * est_a.field.interp(
        np.broadcast_to(tau**1.5 * Xb, (grid_unit.Nx, grid_unit.Nv)),
        np.broadcast_to(np.sqrt(tau) * Vb, (grid_unit.Nx, grid_unit.Nv)),
    )
    gap = np.abs(a_on_b - est_b.field.values).sum() * grid_unit.cell_volume
    return {
        "residual": float(gap),
        "tau": tau,
        "mass_tau_run": est_a.field.mass(),
        "mass_unit_run": est_b.field.mass(),
    }
