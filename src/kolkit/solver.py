"""Phase-space finite-volume solver for (d_t + v d_x) f = d_v (a d_v f), d = 1.

Strang splitting: half-step implicit diffusion in v, full conservative
transport in x, half-step diffusion.  Transport uses a flux-form piecewise
parabolic reconstruction with the classic monotonicity limiter (Colella &
Woodward 1984) in closed form (`_Sweep`), so mass is conserved to
rounding; it runs the right-moving branch only, on the v < 0 columns
mirrored in x, a cache-sized block of rows at a time.  Diffusion is
backward Euler in flux form with harmonic-mean interface coefficients (the
standard choice for discontinuous a).  The tridiagonal system is symmetric
and strictly diagonally dominant with a positive diagonal, hence positive
definite, and the solve keeps column sums.  x is periodic, v has zero-flux
walls.

A step maps a nonnegative density to a nonnegative one in exact
arithmetic, and no clamp follows it.  The face clamp keeps each face
between its two cells, so fl = f - dl >= 0 and fr = f + dr >= 0; the
limited slopes share a sign, |dl'| <= min(|dl|, 2 |dr|) and
|dr'| <= min(|dr|, 2 |dl|).  Under the CFL bound dt <= dx / Lv each
courant number c is at most 1, and a cell's right-face flux F (see
`_Sweep`) has 0 <= c F <= f.  Where dl', dr' >= 0, F >= f and, as
dl' <= f and dr' <= 2 f, c F <= (1 - (1 - c)^3) f.  Where dl', dr' <= 0,
c F <= c f and, as |dr'| <= f and |dl'| <= 2 f,
F >= (1 - (1 - c)^2 - 2 c (1 - c)) f = c^2 f.  So a cell's outflow c F is
at most its mass and its inflow is nonnegative (the upwind sweep is the
convex mix (1 - c) f_i + c f_{i-1}).  LAPACK pttrf factors the diffusion
matrix as L D L^T with d > 0 and off-diagonals of L <= 0, so the forward
and back substitutions and the division by d keep the sign, with no
pivoting.  Rounding lies outside this argument: a negative value or a
-0.0 made by a step would show in the tests' min >= 0 and sign-bit checks,
not be hidden.

A step runs only the x-rows [lo, Nx - lo), lo = min(first, Nx - 1 - last) - 3
for its input's first and last nonzero rows (all rows if lo < 3, off the
periodic seam): the PPM stencil reaches 3 rows, and the sweep loads v < 0
mirrored.  For an input without a -0.0 (no step makes one) that is the full
grid's result bit for bit: a zero row solves to +0.0, the walls' -0.0
couplings keep rows apart in pttrs, and an all-zero stencil sweeps to +0.0.

dpttrf/dpttrs come from scipy's compiled `_flapack` module, which the first
`Stepper` of a process loads, without `scipy.linalg`'s package init; a
process that never steps never imports scipy.

Each run owns one `Stepper`, made by `evolve`: its constructor checks the
CFL bound, binds the transport sweep and the coefficient
(`CoefficientField.bind`) and makes the factor-batch arrays and the sweep's
courant row and scratch arrays, once per run.  A step writes into one fresh
array of its own, so a returned Field never aliases that scratch.

A factor build costs per distinct x-row of the coefficient, not per grid
row, and covers a batch of half steps: a half step whose time key is not in
the factor table samples the midpoints t_sub + j dt/2, j < batch, that open
a new key with one `at` call, factors their class rows with one pttrf call
(the walls' -0.0 couplings keep rows and slices apart, so each keeps its
bits) and tables them by key, cut before a slice that cannot be factored.
A key's first half step copies its class rows to the grid rows.

With record_every=k a run also keeps its space-time history, one
`SpaceTimeField` (`EvolveResult.history`, `KernelEstimate.history`) holding
the initial state, every k-th step and the final state; each recorded state
is copied once, into the history's own array.

Stepping is single-threaded and bit-deterministic for a fixed grid, config
and coefficient seed.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import CoefficientField, ConfigError, dilated_field


def _load_flapack():
    """scipy's compiled LAPACK module, loaded without running scipy.linalg's package init."""
    import scipy  # runs scipy's own shared-library setup
    name = "scipy.linalg._flapack"
    dirs = [os.path.join(p, "linalg") for p in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no {name} extension in {os.pathsep.join(dirs)}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def __getattr__(name: str):
    """dpttrf and dpttrs, set from scipy's LAPACK module the first time either is read."""
    if name not in ("dpttrf", "dpttrs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    flapack = _load_flapack()
    for routine in ("dpttrf", "dpttrs"):
        globals().setdefault(routine, getattr(flapack, routine))  # a patched routine stays
    return globals()[name]


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
    "Stepper",
    "step",
    "evolve",
    "estimate_kernel",
    "remollify",
    "diagnostics",
    "chapman_kolmogorov_residual",
    "scaling_identity_residual",
]


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
        if not (0 < self.Lx < np.inf and 0 < self.Lv < np.inf):
            raise ConfigError(f"box half-widths must be positive and finite, got ({self.Lx}, {self.Lv})")
        if self.Nx < 16 or self.Nv < 16:
            raise ConfigError(f"need at least 16 cells per axis, got ({self.Nx}, {self.Nv})")
        # the diffusion factor divides by dv^2 and the closed-form kernel squares dx;
        # a normal square also makes the width itself normal
        for name, h in (("dx", self.dx), ("dv", self.dv)):
            if not (np.finfo(float).tiny <= h * h < np.inf):
                raise ConfigError(f"cell width {name}={h} has a square that is not a normal float")

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

    def interp(self, xq, vq) -> np.ndarray:
        """Bilinear sample; periodic wrap in x, clamp in v; NaN at a NaN on either axis or an infinite x."""
        g = self.grid
        u = (np.asarray(xq, dtype=float) + g.Lx) / g.dx - 0.5
        w = np.clip((np.asarray(vq, dtype=float) + g.Lv) / g.dv - 0.5, 0.0, g.Nv - 1.0)
        # such a point lies in no cell: it is sampled at cell (0, 0), with no integer cast of a
        # non-finite value, and its sample is replaced by NaN
        bad = ~np.isfinite(u) | np.isnan(w)
        u, w = np.where(bad, 0.0, u), np.where(bad, 0.0, w)
        # fmod is exact and keeps any |u| < Nx, so the cast below stays within int64 at any finite x
        u = np.fmod(u, g.Nx)
        i0 = np.floor(u).astype(np.int64)
        wx = u - i0
        i0 %= g.Nx
        i1 = (i0 + 1) % g.Nx
        j0 = np.minimum(np.floor(w).astype(np.int64), g.Nv - 2)
        wv = w - j0
        f = self.values
        out = (
            f[i0, j0] * (1 - wx) * (1 - wv)
            + f[i1, j0] * wx * (1 - wv)
            + f[i0, j0 + 1] * (1 - wx) * wv
            + f[i1, j0 + 1] * wx * wv
        )
        return np.where(bad, np.nan, out)


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
        # NaN propagates through min and max, so both are finite exactly when every
        # value is; unlike np.isfinite(values) they make no temporary the size of the history
        if not np.isfinite([self.values.min(initial=0.0), self.values.max(initial=0.0)]).all():
            raise ValueError("snapshot values must be finite")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")

    @classmethod
    def from_snapshots(cls, snapshots, times, grid: Grid) -> "SpaceTimeField":
        return cls(np.stack(snapshots), np.asarray(times, dtype=float), grid)

    def window(self, t_lo: float, t_hi: float) -> "SpaceTimeField":
        """The snapshots with t_lo <= t <= t_hi (1e-12 slack), as views of this field's arrays."""
        keep = np.flatnonzero((self.times >= t_lo - 1e-12) & (self.times <= t_hi + 1e-12))
        if not keep.size:
            raise DomainError(f"no snapshots inside the window [{t_lo}, {t_hi}]")
        keep = slice(keep[0], keep[-1] + 1)  # the times increase, so the kept ones are a run
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
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.transport_order not in (1, 3):
            raise ConfigError(f"transport_order must be 1 or 3, got {self.transport_order}")
        if not (2 <= self.w0_cells < np.inf):
            raise ConfigError(f"mollification width must be finite and >= 2 cells, got {self.w0_cells}")
        if not (self.tail_tol >= 0):
            raise ConfigError(f"tail tolerance must be >= 0, got {self.tail_tol}")

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
    if not (w0x > 0 and w0v > 0):
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


# cells in one row block of the transport sweep, so that its scratch stays in cache
_SWEEP_CELLS = 2**14


class _Sweep:
    """Conservative x-transport of (Nx, Nv) arrays by one fixed courant row.

    With a cell f's clamped faces fl, fr, dl = f - fl and dr = fr - f; where
    dl dr > 0 (an underflowed product is an extremum) the limited slopes are
    dl' = copysign(min(|dl|, 2 |dr|), dl), dr' = copysign(min(|dr|, 2 |dl|), dr),
    elsewhere 0, and the right-face flux is F = f + ((1 - c)^2 dr' + c (1 - c) dl').
    This is Colella & Woodward's limiter: with d = dl + dr, f6 = 3 (dl - dr),
    the test d f6 > d^2 is |dl| > 2 |dr|, whose fix fl <- 3 f - 2 fr gives
    dl' = 2 dr (mirrored for the other), and fr - (c/2) (d - (1 - 2c/3) f6)
    expands to F.  dl' and dr' share a sign, so the sweep copies dr's sign
    onto the flux's sum of magnitudes, which is exact.

    Mirroring in x swaps a cell's faces, whose values and clamps are
    symmetric, so dl <-> -dr, dl dr is kept and dl' <-> -dr' exactly; the
    flux and the update only change sign.  So the columns [:k] (v < 0) are
    loaded reversed in x, every column moves right with c = |courant|, and
    those columns go back through out[::-1] (only zeros of -0.0 input can
    change sign).  Rows go in blocks of about _SWEEP_CELLS cells; the pad,
    the block-sized scratch and the full grid's per-block views are made
    once; lo > 0 sweeps the rows [lo, Nx - lo) in blocks cut per call (f is
    zero off [lo + 3, Nx - lo - 3)).  out (fresh when None) may be f.
    """

    def __init__(self, courant: np.ndarray, shape: tuple):
        nx, nv = shape
        # v_centers ascend, so only columns [:k] move left
        self.k = int(np.searchsorted(courant[0], 0.0))
        self.c = np.abs(courant)
        # the weights of dr' and dl' in the right-face flux
        self.wr, self.wl = (1.0 - self.c) ** 2, self.c * (1.0 - self.c)
        # the mirrored input, 3 periodic ghost rows before and 2 after: row r holds cell r - 3
        self.pad = np.empty((nx + 5, nv))
        self.n = -(-nx // -(-nx * nv // _SWEEP_CELLS))  # rows per block
        # separate arrays: freeing one stacked ~1 MB array would raise glibc's mmap threshold and
        # speed up the 128 KiB temporaries of the kernel that perfbench's norm_wall_s divides by
        self.scratch = [np.empty((self.n + 2, nv)) for _ in range(5)]
        self.blocks = self._cut(0, nx)

    def _cut(self, lo: int, hi: int) -> list:
        """The row blocks of the cells [lo, hi), as views of the pad and the scratch."""
        blocks = []
        for a in range(lo, hi, self.n):
            # block [a, a + m) reads pad rows a .. a + m + 4 (cells a - 3 .. a + m + 1); the face
            # rows hold the faces a - 3/2 .. a + m - 1/2, the cell rows the cells a - 1 .. a + m - 1
            m = min(self.n, hi - a)
            p = self.pad[a : a + m + 5]
            faces = [u[: m + 2] for u in self.scratch[:3]]
            cells = [u[: m + 1] for u in self.scratch]
            views = (p[2:-2], p[3:-2], cells[0][:m], p[:-3], p[1:-2], p[2:-1], p[3:], faces[0][1:])
            blocks.append((a, a + m, *views, *faces, *cells))
        return blocks

    def _load(self, f: np.ndarray, out, lo: int) -> tuple:
        # the cells lo - 3 .. Nx - lo + 1 that the window's blocks read, columns [:k] reversed
        # in x; the full grid (lo = 0) reads 3 periodic ghost rows before it and 2 after
        p, k, nx = self.pad, self.k, len(f)
        a, b = (3, nx + 3) if lo == 0 else (lo, nx - lo + 5)
        p[a:b, k:], p[a:b, :k] = f[a - 3 : b - 3, k:], f[::-1][a - 3 : b - 3, :k]
        if lo == 0:
            p[:3], p[-2:] = p[-5:-2], p[3:5]
        return np.zeros_like(f) if out is None else out, self.blocks if lo == 0 else self._cut(lo, nx - lo)

    def _update(self, out, a, b, g, flux, t) -> None:
        # g - c (F_{i+1/2} - F_{i-1/2}) on the cells a .. b - 1; columns [:k] go back mirrored
        k = self.k
        np.subtract(flux[1:], flux[:-1], out=t)
        np.multiply(self.c, t, out=t)
        np.subtract(g[:, k:], t[:, k:], out=out[a:b, k:])
        np.subtract(g[:, :k], t[:, :k], out=out[::-1][a:b, :k])

    def upwind(self, f: np.ndarray, out=None, lo: int = 0) -> np.ndarray:
        out, blocks = self._load(f, out, lo)
        for a, b, cells, g, t, *_ in blocks:
            self._update(out, a, b, g, cells, t)
        return out

    def ppm(self, f: np.ndarray, out=None, lo: int = 0) -> np.ndarray:
        out, blocks = self._load(f, out, lo)
        for a, b, f, g, t, fm2, fm1, f0, fp1, fr, e, emin, emax, fl, dl, dr, u, flux in blocks:
            # f holds the cells a - 1 .. b - 1, e their faces
            # e = (7 (fm1 + f0) - (fm2 + fp1)) / 12
            np.add(fm1, f0, out=e)
            np.multiply(7.0, e, out=e)
            np.add(fm2, fp1, out=emin)
            np.subtract(e, emin, out=e)
            np.divide(e, 12.0, out=e)
            # clamping the face value into the adjacent-cell range keeps the
            # reconstruction (and hence the update) nonnegative for |c| <= 1
            np.minimum(fm1, f0, out=emin)
            np.maximum(fm1, f0, out=emax)
            np.maximum(e, emin, out=e)
            np.minimum(e, emax, out=e)
            np.subtract(f, fl, out=dl)
            np.subtract(fr, f, out=dr)
            # dr = 0 off the monotone cells (dl dr > 0) zeroes both limited slopes
            np.multiply(dl, dr, out=u)
            np.greater(u, 0.0, out=u)
            np.multiply(dr, u, out=dr)
            # flux = |dr'| = min(|dr|, 2 |dl|), dl = |dl'| = min(|dl|, 2 |dr|)
            np.absolute(dr, out=u)
            np.absolute(dl, out=dl)
            np.multiply(2.0, dl, out=flux)
            np.minimum(u, flux, out=flux)
            np.multiply(2.0, u, out=fl)
            np.minimum(dl, fl, out=dl)
            # F = f + copysign((1 - c)^2 |dr'| + c (1 - c) |dl'|, dr)
            np.multiply(self.wr, flux, out=flux)
            np.multiply(self.wl, dl, out=dl)
            np.add(flux, dl, out=flux)
            np.copysign(flux, dr, out=flux)
            np.add(f, flux, out=flux)
            self._update(out, a, b, g, flux, t)
        return out


# a batch's half steps and class-row cells: 64 KiB arrays, below glibc's mmap threshold
_BATCH_STEPS, _BATCH_CELLS = 8, 2**13


class Stepper:
    """The Strang step of one run, whose field, grid and config are fixed.

    The factor table names each slice of the last batch by field.time_key
    (None, every t distinct, always rebuilds).
    """

    def __init__(self, field: CoefficientField, grid: Grid, config: SolverConfig):
        dt = config.dt
        if not (dt <= grid.dx / grid.Lv * (1.0 + 1e-12)):
            raise ConfigError(
                f"CFL violation: dt={dt} exceeds dx/Lv={grid.dx / grid.Lv:.6g} "
                f"for grid {grid.descriptor()}"
            )
        self.field, self.grid, self.config = field, grid, config
        # read through the module: the first stepper of a process loads LAPACK, and a patched routine is used
        self.pttrf, self.pttrs = (getattr(sys.modules[__name__], n) for n in ("dpttrf", "dpttrs"))
        self._key, self._ld, self._table = None, None, {}
        self.rx, self.jx, _, self.jv, self.at = field.bind(grid.x_centers, grid.v_centers)
        # per slice of a batch, the class rows x-major: the interface harmonic means (zero at the
        # v-walls), pttrf's diagonal and off-diagonal (one spare entry); then every row's factor
        m = self.rx.size * grid.Nv
        self.batch = max(1, min(_BATCH_STEPS, _BATCH_CELLS // m))
        self.ah = np.empty(self.batch * m + 1)
        self.diag, self.off = (np.empty((self.batch, self.rx.size, grid.Nv)) for _ in range(2))
        self.d, self.e = np.empty(grid.Nx * grid.Nv), np.empty(grid.Nx * grid.Nv)
        self.sweep = _Sweep((grid.v_centers * (dt / grid.dx))[None, :], (grid.Nx, grid.Nv))
        self.transport = self.sweep.ppm if config.transport_order == 3 else self.sweep.upwind

    def _factor_batch(self, t_sub: float, key) -> dict:
        """The table {time key: slice} of the batch from t_sub; SolverError if t_sub's fails."""
        times, keys = [t_sub], [key]
        for j in range(1, self.batch if key is not None else 1):
            t = t_sub + j * (0.5 * self.config.dt)
            k = self.field.time_key(t)
            if k != keys[-1]:
                times.append(t)
                keys.append(k)
        a = self.at(np.array(times))
        n = len(times)
        if (a <= 0).any():
            n = int((a <= 0).any(axis=(1, 2)).argmax())
            if n == 0:
                raise SolverError(f"coefficient is not positive on the grid at t={t_sub}")
        # the representative rows at full width, held in off until off is written
        a[:n].take(self.jv, axis=2, out=self.off[:n], mode="clip")
        a = o = self.off[:n].reshape(-1)
        d, h = self.diag[:n].reshape(-1), self.ah[: a.size + 1]
        # ah = 2 al ar / (al + ar) in flat order, sum held in diag; pairs across x-rows are walls
        al, ar, hm = a[:-1], a[1:], h[1:-1]
        np.add(al, ar, out=d[:-1])
        np.multiply(2.0, al, out=hm)
        np.multiply(hm, ar, out=hm)
        np.divide(hm, d[:-1], out=hm)
        h[:: self.grid.Nv] = 0.0
        # diag = 1 + mu ahl + mu ahr, mu ahr held in off; then off = -mu ahr (-0.0 at the walls)
        mu = 0.5 * self.config.dt / self.grid.dv**2
        np.multiply(mu, h[:-1], out=d)
        np.add(1.0, d, out=d)
        np.multiply(mu, h[1:], out=o)
        np.add(d, o, out=d)
        np.multiply(-mu, h[1:], out=o)
        # pttrf factors in place, up to a failed pivot
        _, _, info = self.pttrf(d, o[:-1], overwrite_d=1, overwrite_e=1)
        if info != 0:
            n = (info - 1) // self.off[0].size
            if n < 1:
                raise SolverError(f"diffusion matrix is not positive definite at t={t_sub} (info={info})")
        return dict(zip(keys[:n], range(n)))

    def solve(self, t_sub: float, rhs: np.ndarray, overwrite: bool = False, lo: int = 0) -> np.ndarray:
        """Backward-Euler diffusion of rhs, coefficient frozen at t_sub; overwrite may reuse rhs.

        Only the rows [lo, Nx - lo) are solved; rhs must be zero off them.
        """
        key = self.field.time_key(t_sub)
        if key is None or key != self._key:
            j = None if key is None else self._table.get(key)
            if j is None:  # a build that raises leaves the table empty
                self._key, self._table = None, {}
                self._table, j = self._factor_batch(t_sub, key), 0
            # each row's factor is its class's row of slice j
            full = (self.grid.Nx, self.grid.Nv)
            self.diag[j].take(self.jx, axis=0, out=self.d.reshape(full), mode="clip")
            self.off[j].take(self.jx, axis=0, out=self.e.reshape(full), mode="clip")
            self._ld, self._key = (self.d, self.e[:-1]), key
        nx, nv = rhs.shape
        # pttrs solves in place only in a C-contiguous float array
        x = np.ascontiguousarray(rhs, dtype=float) if overwrite else np.array(rhs, dtype=float, order="C")
        # the v-walls decouple the x-rows, so the window's rows are one contiguous system
        (d, e), a, b = self._ld, lo * nv, (nx - lo) * nv
        self.pttrs(d[a:b], e[a : b - 1], x[lo : nx - lo].reshape(-1, 1), overwrite_b=1)
        return x

    def step(self, state: Field) -> Field:
        """One Strang step of state, which must lie on the stepper's grid."""
        if state.grid != self.grid:
            raise ConfigError(f"state grid {state.grid.descriptor()} is not the stepper's grid")
        t, dt = state.t, self.config.dt
        lo = _row_window(state.values)
        # the first solve makes the step's own array; every later stage writes into it
        f = self.solve(t + 0.25 * dt, state.values, lo=lo)
        self.transport(f, out=f, lo=lo)
        f = self.solve(t + 0.75 * dt, f, overwrite=True, lo=lo)
        try:
            return Field(f, t + dt, self.grid)
        except ValueError:
            raise SolverError(f"non-finite values after step at t={t}") from None


def _row_window(f: np.ndarray) -> int:
    """lo of the rows [lo, Nx - lo) that a step of f must compute; 0 is the full grid."""
    if f[:: len(f) - 1].any():  # an edge row is nonzero: the support reaches the periodic seam
        return 0
    rows = np.flatnonzero(f.any(axis=1))
    # 3 rows of stencil reach past the support on each side, kept off the seam
    lo = min(rows[0], len(f) - 1 - rows[-1]) - 3 if rows.size else 0
    return int(lo) if lo >= 3 else 0


def step(state: Field, field: CoefficientField, config: SolverConfig, stepper: Stepper | None = None) -> Field:
    """One Strang step: diffuse dt/2, transport dt, diffuse dt/2.

    The diffusion coefficient is frozen at the midpoint of each half step
    (t + dt/4 and t + 3dt/4).  `stepper` is the run's `Stepper`, which
    `evolve` passes; without it the step builds its own, with bitwise the
    same result.  One built for another field, grid or config is a ConfigError.
    """
    if stepper is None:
        stepper = Stepper(field, state.grid, config)
    elif stepper.field is not field or stepper.config != config:
        raise ConfigError("the stepper was built for another coefficient field or solver config")
    return stepper.step(state)


# the most steps one run may take
_MAX_STEPS = 10**6


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
    if not (0 <= span < np.inf):
        raise ConfigError(f"t_final={t_final} is before state time {state.t} or not finite")
    # the cap bounds a run's work, and keeps round() off an infinite span / dt
    if not (span / config.dt <= _MAX_STEPS):
        raise ConfigError(
            f"dt={config.dt} is too small for the time span {span}: more than {_MAX_STEPS} steps"
        )
    n = int(round(span / config.dt))
    if abs(n * config.dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ConfigError(f"dt={config.dt} does not divide the time span {span}")
    if record_every is not None and record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")

    grid = state.grid
    stepper = Stepper(field, grid, config)
    marks = {*range(0, n, record_every), n} if record_every else set()
    rows, times = np.empty((len(marks), grid.Nx, grid.Nv)), []

    def record(i: int, f: Field) -> None:
        if i in marks:
            rows[len(times)] = f.values
            times.append(f.t)

    res = EvolveResult(state, mass_min=state.mass(), mass_max=state.mass(), min_value=state.min())
    record(0, state)
    for i in range(1, n + 1):
        state = step(state, field, config, stepper)
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
    direct = evolve(mid, field, config, t2).field
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
