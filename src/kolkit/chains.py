"""Near-diagonal region checks and transport-consistent chain construction.

A chain joins (0, 0) to a normalized target (Xbar, Vbar) in k equal time
steps of a unit interval so that every step lands inside the near-diagonal
region of radius rho0: velocity centres follow a linear ramp plus a
quadratic correction (closed form), positions follow the transport
recursion x_j - x_{j-1} = dt * v_{j-1}.  Each step then carries a uniform
lower kernel bound, and the chained product gives the alpha^k structure
reproduced by chain_lower_bound.

Positions are evaluated through exact partial-sum formulas rather than a
running sum, so endpoint error does not accumulate with k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NearDiagonalParams",
    "ChainSpec",
    "ChainConstructionError",
    "build_chain",
    "validate_chain",
    "perturbation_check",
    "chain_lower_bound",
    "box_volume_factor",
    "near_diagonal_kernel_min",
    "default_k0",
]


class ChainConstructionError(RuntimeError):
    """No admissible step count found below the cap."""


@dataclass(frozen=True)
class NearDiagonalParams:
    """Near-diagonal radius rho0 and on-diagonal lower constant c0.

    c0 is an empirical calibration: acceptance criterion 7 measures it per
    coefficient class with near_diagonal_kernel_min.  The shipped default is
    a conservative placeholder well under the constant-coefficient
    on-diagonal value.
    """

    rho0: float = 0.25
    c0: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.rho0 <= 1.0):
            raise ValueError(f"rho0 must lie in (0, 1], got {self.rho0}")
        if self.rho0**2 == 0.0:  # default_k0 divides by it
            raise ValueError(f"rho0 = {self.rho0} is so small that rho0^2 underflows to 0")
        if not (0.0 < self.c0 < np.inf):  # NaN fails it too
            raise ValueError(f"c0 must be positive and finite, got {self.c0}")


def default_k0(p: NearDiagonalParams) -> float:
    # large enough that the increment bound holds already at the starting k
    # for every target (worst case needs about 208 n^2 / rho0^2 steps)
    return 256.0 / p.rho0**2


@dataclass(frozen=True)
class ChainSpec:
    """Discrete chain over a unit time interval in k steps of dt = 1/k.

    xs, vs have shape (k+1, d); mu is the quadratic-correction coefficient
    (d,); eta is the tube radius used for perturbation arguments.  The three
    arrays are made read-only, so their checks hold for the chain's life.

    eta must lie in (0, rho0 / (4 sqrt(d))], up to the radius build_chain
    picks: a point of the per-coordinate box lies within eta sqrt(d) of its
    centre, so a larger eta can fail perturbation_check's screen in d >= 2
    (the 2-d chain to Xbar = (1.0, 0.5), Vbar = (2.0, 0.1) fails it at
    eta = rho0/4).
    """

    k: int
    xs: np.ndarray
    vs: np.ndarray
    mu: np.ndarray
    eta: float
    rho0: float
    k0: float

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "vs", np.asarray(self.vs, dtype=float))
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        if self.xs.shape != self.vs.shape or self.xs.ndim != 2 or len(self.xs) != self.k + 1 or not self.d:
            raise ValueError("centre arrays must both have shape (k+1, d) with d >= 1")
        # NaN propagates through min and max, so both are finite exactly when every entry is;
        # unlike np.isfinite(u) they make no temporary the size of the chain
        centres = (self.xs, self.vs, self.mu)
        extremes = [f(u, initial=0.0) for u in centres for f in (np.min, np.max)]
        if not np.isfinite(extremes).all():
            raise ValueError("centres xs, vs and mu must be finite")
        for u in centres:
            u.flags.writeable = False
        bound = _tube_radius(self.rho0, self.d)
        if not (0.0 < self.eta <= bound + 1e-15):
            raise ValueError(f"eta must lie in (0, rho0 / (4 sqrt(d))] = (0, {bound:.6g}], got {self.eta}")

    @property
    def dt(self) -> float:
        return 1.0 / self.k

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def _fields(self) -> tuple:
        # to_dict's scalar fields, and the node stride its centres are read at
        stride = int(np.ceil((self.k + 1) / _MAX_NODES))
        doc = {
            "k": self.k,
            "dt": self.dt,
            "rho0": self.rho0,
            "eta": self.eta,
            "k0": self.k0,
            "mu": self.mu.tolist(),
            "node_stride": stride,
            "node_indices_truncated": stride > 1,
        }
        return doc, stride

    @staticmethod
    def _row_blocks(a, stride):
        # the rows a[0], a[stride], a[2 stride], ... and then a[-1], in views of
        # at most _TEXT_ROWS rows
        step = _TEXT_ROWS * stride
        for lo in range(0, len(a), step):
            yield a[lo : lo + step : stride]
        if (len(a) - 1) % stride:
            yield a[-1:]

    def to_dict(self) -> dict:
        doc, stride = self._fields()
        doc["centres"] = {
            key: [row for rows in self._row_blocks(a, stride) for row in rows.tolist()]
            for key, a in (("x", self.xs), ("v", self.vs))
        }
        return doc

    def _json_chunks(self, **kw):
        # the text of json.dumps(self.to_dict(), sort_keys=True, **kw) in pieces:
        # the scalar part from json's encoder with a placeholder for each centre
        # array, and each array _TEXT_ROWS rows at a time, its numbers from
        # json's C encoder laid out with str.join (the C encoder does not run
        # when there is an indent)
        doc, stride = self._fields()
        doc["centres"] = {"v": "<v>", "x": "<x>"}
        enc = json.JSONEncoder(sort_keys=True, **kw)
        rest = enc.encode(doc)
        ind = " " * enc.indent if isinstance(enc.indent, int) else enc.indent
        # the arrays open at depth 2, their rows at 3, the numbers at 4
        nl2, nl3, nl4 = ("" if ind is None else "\n" + ind * depth for depth in (2, 3, 4))
        sep = enc.item_separator
        row_sep = nl3 + "]" + sep + nl3 + "[" + nl4
        for key, a in (("v", self.vs), ("x", self.xs)):  # sort_keys order
            head, rest = rest.split(f'"<{key}>"', 1)
            yield head + "[" + nl3 + "[" + nl4
            for i, rows in enumerate(self._row_blocks(a, stride)):
                nums = json.dumps(rows.ravel().tolist(), allow_nan=enc.allow_nan)[1:-1].split(", ")
                if i:
                    yield row_sep
                yield row_sep.join(map((sep + nl4).join, zip(*[iter(nums)] * self.d)))
            yield nl3 + "]" + nl2 + "]"
        yield rest

    def to_json(self, fh) -> None:
        """Write json.dumps(self.to_dict(), sort_keys=True, indent=1), kolkit
        chain's chain.json, to the text file fh byte for byte, in pieces of at
        most 2^11 rows of a centre array: besides the chain, the write holds one
        piece and its numbers' strings (under 1 MiB in d = 1 and 2), whatever k is."""
        fh.writelines(self._json_chunks(indent=1))


def _tube_radius(rho0, d):
    # the largest eta whose whole perturbation box keeps the step slack in d dimensions
    return rho0 / (4.0 * float(np.sqrt(d)))


def _increment_extremes(Xbar, Vbar, mu, k):
    # v_j - v_{j-1} = Vbar/k + mu (k+1-2j)/k^2 is affine in j, so the norm
    # peaks at j = 1 or j = k
    inc1 = Vbar / k + mu * (k - 1) / k**2
    inck = Vbar / k - mu * (k - 1) / k**2
    return max(float(np.linalg.norm(inc1)), float(np.linalg.norm(inck)))


def _mu_for(Xbar, Vbar, k):
    return 6.0 * k * (Xbar * k - Vbar * (k - 1.0) / 2.0) / (k * k - 1.0)


def _positions(xs, Vbar, mu):
    # fills xs, shape (k+1, d), with x_j = dt * sum_{i<j} v_i, the sums in closed
    # form: dt j (j - 1) (Vbar / (2k) + (mu / k^2) (k/2 - (2j - 1)/6)), each
    # product formed as written (a swapped operand rounds the same), one block of
    # nodes at a time
    k = len(xs) - 1
    kk = float(k)
    dt = 1.0 / kk
    slope = mu / (kk * kk)
    offset = Vbar / (2.0 * kk)
    for lo, hi in _node_blocks(k):
        j = np.arange(lo, hi, dtype=float)[:, None]
        jj1 = j - 1.0
        jj1 *= j
        jj1 *= dt
        j *= 2.0
        j -= 1.0
        j /= 6.0
        block = slope * np.subtract(kk / 2.0, j, out=j)
        block += offset
        block *= jj1
        xs[lo:hi] = block


def _velocities(vs, Vbar, mu):
    # fills vs, shape (k+1, d), with v_j = Vbar (j/k) + mu j (k - j) / k^2, each
    # product formed as written, one block of nodes at a time
    k = len(vs) - 1
    for lo, hi in _node_blocks(k):
        j = np.arange(lo, hi, dtype=float)[:, None]
        block = np.multiply(Vbar, j / k, out=vs[lo:hi])
        corr = mu * j
        corr *= np.subtract(k, j, out=j)
        corr /= k**2
        block += corr


def _admissible(Xbar, Vbar, k, rho0) -> bool:
    if k == 1:
        return float(np.linalg.norm(Xbar)) == 0.0 and float(np.linalg.norm(Vbar)) <= rho0 / 2.0
    mu = _mu_for(Xbar, Vbar, k)
    bound = 0.5 * rho0 / np.sqrt(k)
    return _increment_extremes(Xbar, Vbar, mu, k) <= bound


def build_chain(Xbar, Vbar, p: NearDiagonalParams, k0: float | None = None) -> ChainSpec:
    """Smallest admissible chain from (0,0) to (Xbar, Vbar), searched upward
    from ceil(k0 (|Xbar|^2 + |Vbar|^2)).

    The returned chain satisfies, and has been re-verified to satisfy:
    exact endpoints (within 1e-10), the transport recursion, and the step
    increment bound |v_j - v_{j-1}| <= (rho0/2) sqrt(dt).  Its tube radius
    eta = rho0 / (4 sqrt(d)) is the largest whose whole perturbation box
    keeps that slack (see perturbation_check).
    """
    Xbar = np.atleast_1d(np.asarray(Xbar, dtype=float))
    Vbar = np.atleast_1d(np.asarray(Vbar, dtype=float))
    if Xbar.shape != Vbar.shape or Xbar.ndim != 1:
        raise ValueError("Xbar and Vbar must be d-vectors of equal length")
    if k0 is None:
        k0 = default_k0(p)
    if k0 <= 0:
        raise ValueError(f"k0 must be positive, got {k0}")

    cap = 10**6
    with np.errstate(over="ignore"):  # an overflowing |target|^2 reads inf
        start = np.ceil(k0 * float(Xbar @ Xbar + Vbar @ Vbar))
    if not (start <= cap):  # a NaN or infinite count fails it too
        raise ChainConstructionError(f"start count ceil(k0 |target|^2) = {start:.3e} is not finite or over {cap}")
    k = max(1, int(start))

    # cheap O(1) admissibility; scan a little, then gallop and bisect
    scan = range(k, min(k + 64, cap + 1))
    found = next((j for j in scan if _admissible(Xbar, Vbar, j, p.rho0)), None)
    if found is None:
        lo = hi = scan.stop  # known-bad or cap edge
        while hi <= cap and not _admissible(Xbar, Vbar, hi, p.rho0):
            lo = hi
            hi *= 2
        if hi > cap:
            at = min(cap, lo)
            worst = _increment_extremes(Xbar, Vbar, _mu_for(Xbar, Vbar, at), at)
            raise ChainConstructionError(
                f"no step count up to {cap} satisfies the increment bound for "
                f"target ({Xbar.tolist()}, {Vbar.tolist()}); at k={at} the "
                f"worst increment is {worst:.3e} against {0.5 * p.rho0 / np.sqrt(at):.3e}"
            )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _admissible(Xbar, Vbar, mid, p.rho0):
                hi = mid
            else:
                lo = mid
        found = hi
    k = found

    if k == 1:
        mu = np.zeros_like(Xbar)
        vs = np.stack([np.zeros_like(Vbar), Vbar])
        xs = np.stack([np.zeros_like(Xbar), Xbar])
    else:
        mu = _mu_for(Xbar, Vbar, k)
        xs = np.empty((k + 1, len(Xbar)))
        _positions(xs, Vbar, mu)
        vs = np.empty_like(xs)
        _velocities(vs, Vbar, mu)

    eta = _tube_radius(p.rho0, len(Xbar))
    chain = ChainSpec(k=k, xs=xs, vs=vs, mu=mu, eta=eta, rho0=p.rho0, k0=float(k0))
    validate_chain(chain, target=(Xbar, Vbar))
    return chain


def validate_chain(chain: ChainSpec, target=None, endpoint_tol: float = 1e-10) -> None:
    """Re-verify every chain invariant; raises ValueError with the first
    violated one.  Each check reads `not (value <= bound)`, so a NaN fails it.

    Memory: the steps are read in blocks of 2^14 nodes, so besides the chain
    the check holds a few block-sized arrays whatever k is.  The reported
    values and step index are the whole chain's: the largest transport
    residual, and the first step with the largest increment (or the first
    NaN one)."""
    xs, vs, k, dt = chain.xs, chain.vs, chain.k, chain.dt
    if float(np.linalg.norm(xs[0])) != 0.0 or float(np.linalg.norm(vs[0])) != 0.0:
        raise ValueError("chain must start at the origin")
    if target is not None:
        Xbar, Vbar = (np.atleast_1d(np.asarray(t, dtype=float)) for t in target)
        err = float(np.max([np.linalg.norm(xs[-1] - Xbar), np.linalg.norm(vs[-1] - Vbar)]))
        if not (err <= endpoint_tol):
            raise ValueError(f"endpoint error {err:.2e} exceeds {endpoint_tol:.0e}")

    # max |x_j| with no |xs| temporary; Python's max drops a NaN, which fails the transport check
    scale = max(1.0, float(xs.max()), -float(xs.min()))
    # per block of nodes: the largest transport residual, and the first largest
    # increment norm |v_j - v_{j-1}| with its step (np.argmax counts a NaN as largest)
    resid, inc_max, inc_at = [], [], []
    for lo, hi in _node_blocks(k):
        a = max(lo - 1, 0)
        inc, res = _step_norms(xs[a:hi], vs[a:hi], dt)
        resid.append(res.max())
        j = int(np.argmax(inc))
        inc_max.append(inc[j])
        inc_at.append(a + j)
    worst_t = float(np.max(resid))
    if not (worst_t <= 1e-12 * scale):
        raise ValueError(f"transport recursion violated by {worst_t:.2e}")

    bound = 0.5 * chain.rho0 * np.sqrt(dt)
    b = int(np.argmax(inc_max))
    j, worst_inc = inc_at[b], inc_max[b]
    if not (worst_inc <= bound * (1.0 + 1e-12)):
        raise ValueError(
            f"increment bound violated at step {j + 1}: |v_{j + 1} - v_{j}| = "
            f"{worst_inc:.6e} > {bound:.6e}"
        )


# nodes per block: build_chain, validate_chain and the corner screen walk the
# chain in blocks of this many nodes
_BLOCK = 1 << 14
# at most this many centre rows go into to_dict and to_json (at the least stride that fits), plus the last node
_MAX_NODES = 65536
# centre rows per piece of to_json's text: formatting a row takes about 30 times
# its 8 bytes a coordinate in Python floats and strings, so a piece holds about
# 0.45 MB in d = 1
_TEXT_ROWS = _BLOCK // 8


def _node_blocks(k):
    # [lo, hi) ranges covering the nodes 0..k
    return [(lo, min(lo + _BLOCK, k + 1)) for lo in range(0, k + 1, _BLOCK)]


def _free(lo, hi, k):
    # 1 at the nodes lo..hi-1 that may move, 0 at the fixed endpoints 0 and k
    free = np.ones(hi - lo)
    if lo == 0:
        free[0] = 0.0
    if hi == k + 1:
        free[-1] = 0.0
    return free


def _step_norms(x, v, dt):
    # |v_{j+1} - v_j| and |x_{j+1} - x_j - dt v_j| for consecutive rows; in d = 1
    # a row's norm is |u|, np.linalg.norm's sqrt(u^2) to the bit unless u^2
    # underflows or overflows, and several times faster than its reduction
    dv = v[1:] - v[:-1]
    dx = x[1:] - x[:-1]
    dx -= dt * v[:-1]
    if dv.shape[1] == 1:
        return np.abs(dv, out=dv)[:, 0], np.abs(dx, out=dx)[:, 0]
    return np.linalg.norm(dv, axis=1), np.linalg.norm(dx, axis=1)


# relative slack on the screen's two step bounds, which the rounding of its sums may reach
_SCREEN_RTOL = 1e-12


def perturbation_check(
    chain: ChainSpec,
    samples_per_step: int = 0,
    eta: float | None = None,
) -> bool:
    """Do all tube perturbations still satisfy the two step inequalities?

    Interior node j may move within the box |xi_j - x_j| <= eta dt^{3/2},
    |eta_j - v_j| <= eta sqrt(dt) (per coordinate); the endpoints stay
    fixed.  A box point lies within rad = eta sqrt(d) of its centre, so by the
    triangle inequality each perturbed increment is at most the centre one plus
    the radii of the nodes it moves (and dt times a velocity radius).  This
    corner screen bounds every point of the box, so it is the proof and the
    whole check: random points of the box could only re-confirm its verdict,
    and samples_per_step, kept as a keyword, must be 0.  Each inequality is
    tested as `value <= bound`, so a NaN fails it.

    Memory: the screen walks the chain in blocks of 2^14 nodes, so besides
    the chain itself it holds a few block-sized arrays whatever k is.
    """
    eta = chain.eta if eta is None else float(eta)
    if not (0.0 <= eta < np.inf):
        raise ValueError(f"tube radius must be finite and nonnegative, got {eta}")
    if samples_per_step != 0:
        raise ValueError(
            f"samples_per_step must be 0, got {samples_per_step}: the corner screen "
            "bounds every point of the tube, so no sample can change its verdict"
        )
    xs, vs, k, dt, rho0 = chain.xs, chain.vs, chain.k, chain.dt, chain.rho0
    v_tol = rho0 * np.sqrt(dt) * (1.0 + _SCREEN_RTOL)
    x_tol = rho0 * dt**1.5 * (1.0 + _SCREEN_RTOL)

    # eta = 0 and k = 1 need no special casing: the perturbation radii
    # vanish and the screen reduces to the centre-chain pair checks
    rad = eta * np.sqrt(chain.d)
    for lo, hi in _node_blocks(k):
        a = max(lo - 1, 0)
        free = _free(a, hi, k)
        inc, resid = _step_norms(xs[a:hi], vs[a:hi], dt)
        v_worst = inc + rad * np.sqrt(dt) * (free[:-1] + free[1:])
        x_worst = resid + rad * dt**1.5 * (free[:-1] + free[1:]) + dt * rad * np.sqrt(dt) * free[:-1]
        if not (np.all(v_worst <= v_tol) and np.all(x_worst <= x_tol)):
            return False
    return True


def box_volume_factor(d: int) -> float:
    """Unit-radius per-step box volume factor: the product box
    B(x, eta dt^{3/2}) x B(v, eta dt^{1/2}) has volume c_d eta^{2d} dt^{2d}
    with c_d = 2^{2d} (interval of length 2 eta r per coordinate)."""
    return float(2 ** (2 * d))


def chain_lower_bound(chain: ChainSpec, p: NearDiagonalParams, log: bool = False):
    """(c0 dt^{-2d})^k |S| with |S| = (c_d eta^{2d})^{k-1} dt^{2d(k-1)},
    i.e. dt^{-2d} (c0 c_d eta^{2d})^k / (c_d eta^{2d}).

    Computed in log space; pass log=True to get the exponent directly (the
    value underflows float range for long chains).
    """
    d = chain.d
    cd = box_volume_factor(d)
    log_alpha = np.log(p.c0) + np.log(cd) + 2 * d * np.log(chain.eta)
    log_val = -2 * d * np.log(chain.dt) + chain.k * log_alpha - (np.log(cd) + 2 * d * np.log(chain.eta))
    return float(log_val) if log else float(np.exp(log_val))


def near_diagonal_kernel_min(estimate, p: NearDiagonalParams) -> float:
    """min over the near-diagonal sample lattice (9 x 9 points) of tau^{2d} Gamma.

    The lattice is fixed in physical coordinates (source and gap only), so
    the value is comparable across grid resolutions.
    """
    s, y, w = estimate.source
    tau = estimate.t - s
    u = np.linspace(-1.0, 1.0, 9)
    U, S = np.meshgrid(u, u, indexing="ij")
    xq = y + tau * w + U * p.rho0 * tau**1.5
    vq = w + S * p.rho0 * np.sqrt(tau)
    vals = estimate.density(xq, vq)
    return float((tau**2 * vals).min())
