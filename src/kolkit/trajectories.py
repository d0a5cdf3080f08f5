"""Trajectory families between phase-space endpoints and their checkers.

A family maps r in [0,1] to (t(r), x(r), v(r)) in d = 1, with affine time,
position and velocity given by endpoint-linear 2 x 2 matrices A(r), B(r),
and the kinetic constraint dx/dr = (dt/dr) v.  The module ships a
closed-form "straight" family (velocity quadratic in r) and a configurable
log-oscillatory candidate; check_properties is the source of truth for
which asymptotic rates a family actually attains.  The documented rates for
criticality are det A ~ r^2, |(A^{-1}) velocity column| ~ r^{-1/2}, and
endpoint-Jacobian determinant ~ r^6; the straight family measurably misses
them (4, -2, 5), which is exactly what its report should say.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .phase_geometry import PhasePoint

__all__ = [
    "TrajectoryFamily",
    "PropertyReport",
    "straight_family",
    "log_oscillatory_family",
    "eval_trajectory",
    "check_properties",
    "default_r_grid",
    "PASS_FLAGS",
]


@dataclass(frozen=True)
class TrajectoryFamily:
    """Endpoint-linear trajectory family for a fixed time gap T = t1 - t0.

    (x(r), v(r)) = A(r) (x1, v1) + B(r) (x0, v0) and t(r) = t0 + T r.
    A(r) and B(r) take a scalar or an array of r and return an array of
    shape np.shape(r) + (2, 2); a result without the r axes (one matrix
    for every r) is broadcast over them.
    """

    name: str
    T: float
    A: callable
    B: callable


def _endpoints(endpoints, fam):
    (t0, x0, v0), (t1, x1, v1) = endpoints
    if abs((t1 - t0) - fam.T) > 1e-12 * max(1.0, abs(fam.T)):
        raise ValueError(f"endpoint gap {t1 - t0} does not match the family gap {fam.T}")
    return float(t0), float(x0), float(v0), float(x1), float(v1)


def _matrices(M, r):
    """M(r) as an array of shape np.shape(r) + (2, 2)."""
    return np.broadcast_to(M(r), np.shape(r) + (2, 2))


def _gamma_xv(fam, r, x0, v0, x1, v1):
    """(x, v) of gamma at r, each of shape np.shape(r)."""
    xv = _matrices(fam.A, r) @ np.array([x1, v1])
    xv += _matrices(fam.B, r) @ np.array([x0, v0])
    return xv[..., 0], xv[..., 1]


def eval_trajectory(fam: TrajectoryFamily, r: float, endpoints) -> PhasePoint:
    """gamma(r) for endpoints ((t0,x0,v0), (t1,x1,v1)); r must be in [0,1]."""
    r = float(r)
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"parameter r={r} outside [0, 1]")
    t0, x0, v0, x1, v1 = _endpoints(endpoints, fam)
    x, v = _gamma_xv(fam, r, x0, v0, x1, v1)
    return PhasePoint(t=t0 + fam.T * r, x=x, v=v)


def _family(name: str, T: float, A, B) -> TrajectoryFamily:
    """The family, once A and B are finite at r = 0 and 1 (a tiny T or beta overflows them)."""
    ends = np.array([0.0, 1.0])
    with np.errstate(all="ignore"):  # the overflow is what this checks for
        finite = np.isfinite(_matrices(A, ends)).all() and np.isfinite(_matrices(B, ends)).all()
    if not finite:
        raise ValueError(f"{name} with T={T} has matrices A(r), B(r) that are not finite at r = 0 or 1")
    return TrajectoryFamily(name=name, T=T, A=A, B=B)


def _stack(m00, m01, m10, m11):
    """[[m00, m01], [m10, m11]] for every r: shape r.shape + (2, 2)."""
    return np.stack([np.stack([m00, m01], -1), np.stack([m10, m11], -1)], -2)


def straight_family(T: float) -> TrajectoryFamily:
    """Closed-form family with velocity quadratic in r.

    The unique endpoint-linear interpolation whose velocity is a quadratic
    polynomial matching both endpoints and the position integral; it
    satisfies the kinetic relation exactly but is measurably non-critical.
    """
    T = float(T)
    if not 0.0 < abs(T) < np.inf:
        raise ValueError(f"time gap T must be nonzero and finite, got {T}")

    def A(r):
        r = np.asarray(r, dtype=float)
        return _stack(
            3 * r**2 - 2 * r**3, T * (r**3 - r**2), (6.0 / T) * (r - r**2), 3 * r**2 - 2 * r
        )

    def B(r):
        r = np.asarray(r, dtype=float)
        return _stack(
            1 - 3 * r**2 + 2 * r**3,
            T * (r - 2 * r**2 + r**3),
            -(6.0 / T) * (r - r**2),
            1 - 4 * r + 3 * r**2,
        )

    return _family("straight", T, A, B)


def _osc_coeffs(beta: float, kappa: float, T: float):
    # integrals of sqrt(r) cos(beta ln r) and sqrt(r) sin(beta ln r) on [0,1]
    z = 1.5 + 1j * beta
    I = 1.0 / z
    Ip, Iq = I.real, I.imag

    def solve(x0, v0, x1, v1):
        m = (x1 - x0) / T
        e = kappa * (m - 0.5 * (v0 + v1))
        b = (v1 - v0) - e
        c = (m - v0 - b * Ip - 0.5 * e) / Iq
        return b, c, e

    return solve, z


def log_oscillatory_family(T: float, *, beta: float = 2.0, kappa: float = 1.0) -> TrajectoryFamily:
    """Candidate family whose velocity carries sqrt(r) cos(beta ln r) and
    sqrt(r) sin(beta ln r) modes on top of a linear ramp.

    The log-periodic modes keep the endpoint map linear while pushing the
    small-r rates toward the critical ones; the checker reports what the
    chosen (beta, kappa) actually achieve.  beta must be nonzero (the sine
    mode carries the position-integral constraint); beta and kappa finite.
    """
    T = float(T)
    if not 0.0 < abs(T) < np.inf:
        raise ValueError(f"time gap T must be nonzero and finite, got {T}")
    if not 0.0 < abs(beta) < np.inf:
        raise ValueError(f"beta must be nonzero (for the oscillatory modes to span) and finite, got {beta}")
    if not abs(kappa) < np.inf:
        raise ValueError(f"kappa must be finite, got {kappa}")
    solve, z = _osc_coeffs(beta, kappa, T)

    def entries(r, x0, v0, x1, v1):
        # (x, v) at every r for scalar endpoints; r = 0 gives (x0, v0)
        b, c, e = solve(x0, v0, x1, v1)
        r = np.asarray(r, dtype=float)
        at0 = r == 0.0
        r = np.where(at0, 1.0, r)
        lr = np.log(r)
        root = np.sqrt(r)
        p = root * np.cos(beta * lr)
        q = root * np.sin(beta * lr)
        big = r * root * np.exp(1j * beta * lr) / z  # P + iQ
        gv = v0 + b * p + c * q + e * r
        gx = x0 + T * (v0 * r + b * big.real + c * big.imag + 0.5 * e * r**2)
        return np.where(at0, x0, gx), np.where(at0, v0, gv)

    def A(r):
        (x_x, v_x), (x_v, v_v) = entries(r, 0.0, 0.0, 1.0, 0.0), entries(r, 0.0, 0.0, 0.0, 1.0)
        return _stack(x_x, x_v, v_x, v_v)

    def B(r):
        (x_x, v_x), (x_v, v_v) = entries(r, 1.0, 0.0, 0.0, 0.0), entries(r, 0.0, 1.0, 0.0, 0.0)
        return _stack(x_x, x_v, v_x, v_v)

    return _family(f"log-oscillatory(beta={beta}, kappa={kappa})", T, A, B)


def _check_r_grid(r_grid: np.ndarray) -> np.ndarray:
    # slopes are fitted on r <= 1e-2 and on each half of it: >= 8 points each
    n_fit = int(np.count_nonzero(r_grid <= 1e-2))
    if r_grid.size < 64 or r_grid.min() <= 0 or r_grid.max() > 1 or n_fit < 16:
        raise ValueError(
            f"need >= 64 grid points inside (0, 1], >= 16 in the fit range r <= 1e-2 "
            f"(raise n or lower r_min), got {r_grid.size}, {n_fit} in the fit range"
        )
    return r_grid


# the least r_min: r^4, the straight family's det A, is normal from here up
_R_MIN = float(np.finfo(float).tiny) ** 0.25


def default_r_grid(n: int = 1024, r_min: float = 1e-6) -> np.ndarray:
    """n log-spaced points from r_min to 1; the slopes are fitted on r <= 1e-2."""
    if not _R_MIN <= r_min < 1e-2:
        raise ValueError(f"need r_min in [{_R_MIN:.3g}, 1e-2), where r^4 does not underflow, got {r_min}")
    return _check_r_grid(np.geomspace(r_min, 1.0, n))


# the keys of PropertyReport.pass_flags, in check_properties' order
PASS_FLAGS = (
    "endpoints",
    "kinetic_relation",
    "kinetic_relation_integral",
    "A_endpoint_matrices",
    "B_endpoint_matrices",
    "det_A_rate",
    "inv_column_rate",
    "B_det_near_zero",
    "jacobian_rate",
    "property4",
    "slope_stable",
    "critical",
)


@dataclass
class PropertyReport:
    family: str
    T: float
    d: int
    kinetic_residual: float
    kinetic_residual_integral: float
    endpoint_errors: float
    det_A_exponent: float
    det_A_target: float
    inv_column_exponent: float
    inv_column_target: float
    B_det_near_zero: float
    property4_margins: dict
    jacobian_exponent: float
    jacobian_target: float
    pass_flags: dict
    slope_halves: dict
    r_grid: np.ndarray
    curves: dict
    warnings: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but the arrays r_grid and curves, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("r_grid", "curves")}


def _fit_slope(logr, logy):
    A = np.column_stack([np.ones_like(logr), logr])
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    return float(coef[1])


def _sample_endpoints(n=8):
    """n pairs ((x0, v0), (x1, v1)): the first ends at v = 1, the others are drawn."""
    draws = np.random.default_rng(12345).uniform(-2, 2, (n - 1, 4)).tolist()
    return [((0.0, 0.0), (0.0, 1.0))] + [((x0, v0), (x1, v1)) for x0, v0, x1, v1 in draws]


def check_properties(fam: TrajectoryFamily, r_grid: np.ndarray | None = None) -> PropertyReport:
    """Measure every documented trajectory property on a log r-grid.

    Exponents are least-squares slopes of log-log data restricted to
    r <= 1e-2 (asymptotics as r -> 0); their stability is the difference
    between the fits on the two halves of that range.  The kinetic relation
    is checked two ways: central differences with the rounding-optimal step
    cbrt(eps r), and per-interval Simpson quadrature.
    The rate targets 2, -1/2 and 6 are the documented 2d, -1/2 and 2 + 4d at d = 1.
    Singular matrices on the grid are recorded as warnings, not raised.
    """
    r_grid = default_r_grid() if r_grid is None else _check_r_grid(np.asarray(r_grid, dtype=float))
    warnings_list = []

    A = _matrices(fam.A, r_grid)
    det_A = np.linalg.det(A)
    det_B = np.linalg.det(_matrices(fam.B, r_grid))
    inv_col = np.full(r_grid.size, np.nan)
    regular = np.abs(det_A) > 1e-300
    inv_col[regular] = np.linalg.norm(np.linalg.inv(A[regular])[..., 1:], axis=(-2, -1))
    warnings_list.extend(f"A(r) singular at r={r:.3e}" for r in r_grid[~regular])

    # endpoint matrix conditions
    ends = np.array([0.0, 1.0])
    A01, B01 = _matrices(fam.A, ends), _matrices(fam.B, ends)
    a_ends = max(float(np.abs(A01[0]).max()), float(np.abs(A01[1] - np.eye(2)).max()))
    b_ends = max(float(np.abs(B01[0] - np.eye(2)).max()), float(np.abs(B01[1]).max()))

    pairs = _sample_endpoints()
    t0 = 0.0

    # endpoint reproduction through the full evaluation path
    endpoint_err = 0.0
    for (x0, v0), (x1, v1) in pairs:
        g0 = eval_trajectory(fam, 0.0, ((t0, x0, v0), (t0 + fam.T, x1, v1)))
        g1 = eval_trajectory(fam, 1.0, ((t0, x0, v0), (t0 + fam.T, x1, v1)))
        endpoint_err = max(
            endpoint_err,
            float(abs(g0.x[0] - x0) + abs(g0.v[0] - v0)),
            float(abs(g1.x[0] - x1) + abs(g1.v[0] - v1)),
        )

    # kinetic relation, two ways: pointwise central differences and
    # per-interval Simpson quadrature of gamma_x' = T gamma_v.  Oscillatory
    # paths have |gamma_x'''| ~ 1/r near 0, so a fixed step drowns in
    # truncation error there; h = cbrt(eps*r) balances truncation h^2/r
    # against rounding eps/h at every grid point.
    kin = 0.0
    kin_int = 0.0
    eps = np.finfo(float).eps
    interior = r_grid[r_grid < 1]
    h = np.minimum(np.minimum(np.cbrt(eps * interior), 0.5 * interior), 0.5 * (1.0 - interior))
    mid = 0.5 * (r_grid[:-1] + r_grid[1:])
    width = r_grid[1:] - r_grid[:-1]
    for (x0, v0), (x1, v1) in pairs[:3]:
        xp, _ = _gamma_xv(fam, interior + h, x0, v0, x1, v1)
        xm, _ = _gamma_xv(fam, interior - h, x0, v0, x1, v1)
        _, vc = _gamma_xv(fam, interior, x0, v0, x1, v1)
        resid = np.abs((xp - xm) / (2 * h) - fam.T * vc)
        kin = max(kin, float(resid.max(initial=0.0)))
        gx, gv = _gamma_xv(fam, r_grid, x0, v0, x1, v1)
        _, vm = _gamma_xv(fam, mid, x0, v0, x1, v1)
        quad = width / 6.0 * (gv[:-1] + 4.0 * vm + gv[1:])
        resid = np.abs(gx[1:] - gx[:-1] - fam.T * quad)
        kin_int = max(kin_int, float(resid.max()))

    # asymptotic slopes on r <= 1e-2
    small = r_grid <= 1e-2
    ok_a = small & regular
    det_slope = _fit_slope(np.log(r_grid[ok_a]), np.log(np.abs(det_A[ok_a])))
    ok_i = small & np.isfinite(inv_col) & (inv_col > 0)
    inv_slope = _fit_slope(np.log(r_grid[ok_i]), np.log(inv_col[ok_i]))

    def halves(mask, y):
        lr = np.log(r_grid[mask])
        ly = np.log(y[mask])
        mid = lr.size // 2
        lo = _fit_slope(lr[:mid], ly[:mid])
        hi = _fit_slope(lr[mid:], ly[mid:])
        return lo, hi

    det_lo, det_hi = halves(ok_a, np.abs(det_A))
    inv_lo, inv_hi = halves(ok_i, np.where(np.isfinite(inv_col), inv_col, 1.0))

    # Jacobian over the full endpoint (t1, x1, v1): gamma_t = t0 + T r
    # carries no (x1, v1) dependence, so the top row is (r, 0, ..., 0) and
    # expanding the determinant along it drops the t1-sensitivity of
    # gamma_{x,v} entirely: det J = r * det A(r), both factors exact.
    # Differencing the A-block numerically instead would bury the
    # leading-order cancellation in det A under FD noise.
    small_idx = np.flatnonzero(small)
    jac_idx = small_idx[:: max(1, small_idx.size // 48)]
    jac_r = r_grid[jac_idx]
    jac_dets = jac_r * det_A[jac_idx]
    ok_j = np.abs(jac_dets) > 1e-300
    if np.count_nonzero(ok_j) >= 8:
        jac_slope = _fit_slope(np.log(jac_r[ok_j]), np.log(np.abs(jac_dets[ok_j])))
    else:
        jac_slope = float("nan")
        warnings_list.append("endpoint Jacobian nearly singular over the fit range")

    # the three property-(4) bounds: measured constants are sup ratios,
    # and the sup must not diverge as r -> 0 (slope of the running ratio)
    names = ("x_about_transport", "v_about_v0", "v_rate")
    ratios = {n: np.zeros(r_grid.size) for n in names}
    absT = abs(fam.T)
    # h = 0 only at r = 1, where vp - vm is exactly 0
    h = np.minimum(np.minimum(1e-5, 0.5 * r_grid), 0.5 * (1.0 - r_grid))
    h_div = np.where(h > 0, h, 1.0)
    root = np.sqrt(r_grid)
    # sx + sv > 0 in every pair: the first ends at v = 1 and the others are drawn
    for (x0s, v0s), (x1s, v1s) in pairs:
        sx = abs(x0s) + abs(x1s)
        sv = abs(v0s) + abs(v1s)
        gx, gv = _gamma_xv(fam, r_grid, x0s, v0s, x1s, v1s)
        _, vp = _gamma_xv(fam, r_grid + h, x0s, v0s, x1s, v1s)
        _, vm = _gamma_xv(fam, r_grid - h, x0s, v0s, x1s, v1s)
        lhs = {
            "x_about_transport": np.abs(gx - x0s - r_grid * fam.T * v0s),
            "v_about_v0": np.abs(gv - v0s),
            "v_rate": np.abs((vp - vm) / (2 * h_div)),
        }
        rhs = {
            "x_about_transport": sx * r_grid**1.5 + absT * r_grid**1.5 * sv,
            "v_about_v0": (sx / absT) * root + sv * root,
            "v_rate": (sx / absT) / root + sv / root,
        }
        for n in names:
            ratios[n] = np.fmax(ratios[n], lhs[n] / rhs[n])
    sups = {n: float(ratios[n].max()) for n in names}

    margin_slopes = {}
    for n in names:
        y = ratios[n][small]
        pos = y > 1e-300
        if np.count_nonzero(pos) >= 8:
            margin_slopes[n] = _fit_slope(np.log(r_grid[small][pos]), np.log(y[pos]))
        else:
            margin_slopes[n] = 0.0

    near0 = r_grid <= 0.1
    b_det_min = float(det_B[near0].min())

    # rates within 0.02 of their targets; property (4) counts as divergent when
    # the running sup ratio's slope as r -> 0 is below -0.05
    flags = {
        "endpoints": endpoint_err <= 1e-10,
        "kinetic_relation": kin <= 1e-8,
        "kinetic_relation_integral": kin_int <= 1e-9,
        "A_endpoint_matrices": a_ends <= 1e-12,
        "B_endpoint_matrices": b_ends <= 1e-12,
        "det_A_rate": abs(det_slope - 2) <= 0.02,
        "inv_column_rate": abs(inv_slope - (-0.5)) <= 0.02,
        "B_det_near_zero": b_det_min >= 0.5,
        "jacobian_rate": (not np.isnan(jac_slope)) and abs(jac_slope - 6) <= 0.02,
        "property4": all(np.isfinite(sups[n]) and margin_slopes[n] >= -0.05 for n in names),
        "slope_stable": abs(det_lo - det_hi) <= 0.05 and abs(inv_lo - inv_hi) <= 0.05,
    }
    flags["critical"] = flags["det_A_rate"] and flags["inv_column_rate"] and flags["jacobian_rate"]

    return PropertyReport(
        family=fam.name,
        T=fam.T,
        d=1,
        kinetic_residual=kin,
        kinetic_residual_integral=kin_int,
        endpoint_errors=endpoint_err,
        det_A_exponent=det_slope,
        det_A_target=2.0,
        inv_column_exponent=inv_slope,
        inv_column_target=-0.5,
        B_det_near_zero=b_det_min,
        property4_margins={
            n: {"constant": sups[n], "small_r_slope": margin_slopes[n]} for n in names
        },
        jacobian_exponent=jac_slope,
        jacobian_target=6.0,
        pass_flags=flags,
        slope_halves={
            "det_A": (det_lo, det_hi),
            "inv_column": (inv_lo, inv_hi),
        },
        r_grid=r_grid,
        curves={"det_A": det_A, "inv_column_norm": inv_col, "det_B": det_B},
        warnings=warnings_list,
    )
