"""Exact algebra on kinetic phase space.

Points z = (t, x, v) carry the non-commutative composition law of the
kinetic Galilean group, its inverse, and the anisotropic dilations that
leave the transport operator invariant.  Everything here is pure float
arithmetic; no tolerance knobs, no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePoint",
    "NormalizedGap",
    "compose",
    "inverse",
    "scale_point",
    "normalize_gap",
]


def _vector(u) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"phase-space components must be scalars or 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"phase-space components must be finite, got {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point (t, x, v) of phase space.  x and v are d-vectors, d >= 1."""

    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = float(self.t)
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        x = _vector(self.x)
        v = _vector(self.v)
        if x.shape != v.shape:
            raise ValueError(f"x and v must share a dimension, got {x.shape} vs {v.shape}")
        for name, value in (("t", t), ("x", x), ("v", v)):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.x.shape[0]

    def __repr__(self):
        return f"PhasePoint(t={self.t!r}, x={self.x.tolist()!r}, v={self.v.tolist()!r})"


@dataclass(frozen=True, eq=False)
class NormalizedGap:
    """Invariant gap between two phase points with time separation tau > 0.

    X and V are the transported differences; their scale-free versions
    Xbar = X / tau^(3/2) and Vbar = V / tau^(1/2) are computed from them.
    """

    tau: float
    X: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        tau = float(self.tau)
        if not (tau > 0.0 and np.isfinite(tau)):
            raise ValueError(f"gap requires tau > 0, got {tau}")
        X = _vector(self.X)
        V = _vector(self.V)
        if X.shape != V.shape:
            raise ValueError(f"X and V must share a dimension, got {X.shape} vs {V.shape}")
        for name, value in (("tau", tau), ("X", X), ("V", V)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_raw(cls, tau: float, X, V) -> "NormalizedGap":
        """The gap of transported differences X, V over tau; the same as the constructor."""
        return cls(tau=tau, X=X, V=V)

    @property
    def Xbar(self) -> np.ndarray:
        return self.X / self.tau**1.5

    @property
    def Vbar(self) -> np.ndarray:
        return self.V / self.tau**0.5

    @property
    def d(self) -> int:
        return self.X.shape[0]


def compose(z1: PhasePoint, z2: PhasePoint) -> PhasePoint:
    """Group law z1 o z2 = (t1 + t2, x1 + x2 + t2*v1, v1 + v2)."""
    if z1.d != z2.d:
        raise ValueError("cannot compose points of different dimension")
    return PhasePoint(
        t=z1.t + z2.t,
        x=z1.x + z2.x + z2.t * z1.v,
        v=z1.v + z2.v,
    )


def inverse(z: PhasePoint) -> PhasePoint:
    """Group inverse (-t, -x + t*v, -v); compose(z, inverse(z)) is the origin."""
    return PhasePoint(t=-z.t, x=-z.x + z.t * z.v, v=-z.v)


def scale_point(r: float, z: PhasePoint) -> PhasePoint:
    """Kinetic dilation (t, x, v) -> (r^2 t, r^3 x, r v), r > 0."""
    r = float(r)
    if not (r > 0.0 and np.isfinite(r)):
        raise ValueError(f"scale factor must be positive and finite, got {r}")
    return PhasePoint(t=r * r * z.t, x=r**3 * z.x, v=r * z.v)


def normalize_gap(z_from: PhasePoint, z_to: PhasePoint) -> NormalizedGap:
    """Invariant gap of an ordered pair, z_to strictly later than z_from.

    Equals scale_point(tau^(-1/2), compose(inverse(z_from), z_to)) in the
    (Xbar, Vbar) representation; computed directly as
    X = x - y - tau*w, V = v - w for z_from = (s, y, w), z_to = (t, x, v).
    """
    if z_from.d != z_to.d:
        raise ValueError("cannot form a gap across dimensions")
    tau = z_to.t - z_from.t
    if not tau > 0.0:
        raise ValueError(f"gap requires t_to > t_from, got tau = {tau}")
    X = z_to.x - z_from.x - tau * z_from.v
    V = z_to.v - z_from.v
    return NormalizedGap.from_raw(tau, X, V)
