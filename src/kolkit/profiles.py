"""Two-sided Gaussian-in-the-gap profiles and the constant-coefficient kernel.

The kinetic exponent E = |X|^2/tau^3 + |V|^2/tau drives both envelope
shapes C * tau^(-2d) * exp(-c E).  For constant diffusion a = sigma2 * I
the solution from a Gaussian source of widths (w0x, w0v) is one explicit
Gaussian: per dimension its covariance in (X, V) is the point-source
covariance 2*sigma2 * [[tau^3/3, tau^2/2], [tau^2/2, tau]] plus M W0 M',
with W0 = diag(w0x^2, w0v^2) carried by the free flow M = [[1, tau], [0, 1]].
Zero widths give the fundamental solution itself; it is the oracle every
envelope fit is calibrated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .phase_geometry import NormalizedGap

__all__ = [
    "ProfileConstants",
    "FitReport",
    "FitError",
    "kinetic_exponent",
    "upper_profile",
    "lower_profile",
    "explicit_kernel_mollified",
    "fit_envelope",
]


class FitError(RuntimeError):
    """Degenerate design matrix or otherwise unusable sample set."""


@dataclass(frozen=True)
class ProfileConstants:
    """Constants of a two-sided envelope; all four strictly positive."""

    C0_up: float
    C1_up: float
    c0_low: float
    c1_low: float

    def __post_init__(self):
        vals = (self.C0_up, self.C1_up, self.c0_low, self.c1_low)
        if not all(np.isfinite(v) and v > 0 for v in vals):
            raise ValueError(f"profile constants must be positive and finite, got {vals}")

    def is_two_sided(self) -> bool:
        # a valid bracket on one kernel has the lower curve under the upper one
        return self.c0_low <= self.C0_up and self.c1_low >= self.C1_up


@dataclass
class FitReport:
    constants: ProfileConstants
    axis_rates: dict
    residual: float
    sample_count: int
    warnings: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["warnings"] = list(self.warnings)
        return out


def kinetic_exponent(gap: NormalizedGap) -> float:
    """E = |X|^2/tau^3 + |V|^2/tau = |Xbar|^2 + |Vbar|^2."""
    tau = gap.tau
    return float(np.dot(gap.X, gap.X) / tau**3 + np.dot(gap.V, gap.V) / tau)


def upper_profile(c: ProfileConstants, gap: NormalizedGap, d: int | None = None) -> float:
    d = gap.d if d is None else int(d)
    return c.C0_up * gap.tau ** (-2 * d) * float(np.exp(-c.C1_up * kinetic_exponent(gap)))


def lower_profile(c: ProfileConstants, gap: NormalizedGap, d: int | None = None) -> float:
    d = gap.d if d is None else int(d)
    return c.c0_low * gap.tau ** (-2 * d) * float(np.exp(-c.c1_low * kinetic_exponent(gap)))


def explicit_kernel_mollified(sigma2: float, tau: float, X, V, w0x: float, w0v: float):
    """Exact evolution of a Gaussian bump of std (w0x, w0v) under constant a.

    The free flow transports initial covariance diag(w0x^2, w0v^2) by
    M = [[1, tau], [0, 1]], so the solution stays Gaussian with covariance
    Sigma(tau) + M diag(w0x^2, w0v^2) M'.  Zero widths give the point-source
    kernel.  One spatial dimension per call.
    """
    sigma2, tau, w0x, w0v = float(sigma2), float(tau), float(w0x), float(w0v)
    for name, val in (("sigma2", sigma2), ("tau", tau)):
        if not 0.0 < val < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    for name, val in (("w0x", w0x), ("w0v", w0v)):
        if not 0.0 <= val < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {val}")
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    sxx = 2.0 * sigma2 * tau**3 / 3.0 + w0x**2 + tau**2 * w0v**2
    sxv = sigma2 * tau**2 + tau * w0v**2
    svv = 2.0 * sigma2 * tau + w0v**2
    det = sxx * svv - sxv * sxv
    quad = 0.5 * (svv * X * X - 2.0 * sxv * X * V + sxx * V * V) / det
    return np.exp(-quad) / (2.0 * np.pi * np.sqrt(det))


def _fit_rate(E: np.ndarray, y: np.ndarray):
    # least squares for y = logC - rate * E; returns (rate, logC, rms residual)
    A = np.column_stack([np.ones_like(E), -E])
    span = E.max() - E.min()
    if span <= 1e-14 * max(1.0, abs(float(E.max()))):
        raise FitError("degenerate design: exponent values do not vary across samples")
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(coef[1]), float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def fit_envelope(samples, d: int) -> FitReport:
    """Fit a two-sided envelope to (gap, value) samples.

    The overall rate comes from regressing log(value * tau^(2d)) on -E.
    Axis rates reuse the same regression on the V = 0 and X = 0 subsets;
    the upper envelope takes the smaller axis rate, the lower the larger,
    and the amplitudes are then set so every sample is bracketed.
    """
    samples = list(samples)
    if len(samples) < 8:
        raise ValueError(f"need at least 8 samples for an envelope fit, got {len(samples)}")
    d = int(d)
    taus = np.array([g.tau for g, _ in samples])
    vals = np.array([float(v) for _, v in samples])
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        bad = int(np.argmin(vals))
        raise ValueError(f"non-positive kernel sample at index {bad}: value {vals[bad]}")
    E = np.array([kinetic_exponent(g) for g, _ in samples])
    y = np.log(vals) + 2 * d * np.log(taus)

    rate_all, logC_all, rms = _fit_rate(E, y)

    warnings = []
    if abs(rate_all) < 1e-12:
        warnings.append("overall rate is zero: samples carry no exponent dependence")

    xnorm = np.array([float(np.linalg.norm(g.X)) for g, _ in samples])
    vnorm = np.array([float(np.linalg.norm(g.V)) for g, _ in samples])
    scale = np.maximum(1.0, np.maximum(xnorm, vnorm))
    on_x_axis = vnorm <= 1e-12 * scale
    on_v_axis = xnorm <= 1e-12 * scale

    axis_rates = {"overall": rate_all}
    for name, mask in (("X", on_x_axis & ~on_v_axis), ("V", on_v_axis & ~on_x_axis)):
        if mask.sum() >= 3:
            rate, _, _ = _fit_rate(E[mask], y[mask])
            axis_rates[name] = rate
            if abs(rate) < 1e-12:
                warnings.append(f"axis {name} rate is zero")

    have_axes = "X" in axis_rates and "V" in axis_rates
    if have_axes:
        C1_up = min(axis_rates["X"], axis_rates["V"])
        c1_low = max(axis_rates["X"], axis_rates["V"])
    else:
        warnings.append("axis subsets too small; falling back to the overall rate")
        C1_up = c1_low = rate_all
    if C1_up <= 0 or c1_low <= 0:
        raise FitError(f"fitted decay rates must be positive, got upper {C1_up}, lower {c1_low}")

    # amplitudes that bracket every sample with the chosen rates, with 1e-12
    # headroom: upper_/lower_profile re-evaluate the binding sample in another
    # order, which can land it 1-2 ulp outside its curve
    C0_up = float(np.max(vals * taus ** (2 * d) * np.exp(C1_up * E))) * (1.0 + 1e-12)
    c0_low = float(np.min(vals * taus ** (2 * d) * np.exp(c1_low * E))) * (1.0 - 1e-12)

    constants = ProfileConstants(C0_up=C0_up, C1_up=C1_up, c0_low=c0_low, c1_low=c1_low)
    return FitReport(
        constants=constants,
        axis_rates=axis_rates,
        residual=rms,
        sample_count=len(samples),
        warnings=tuple(warnings),
    )
