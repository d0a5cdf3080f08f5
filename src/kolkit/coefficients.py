"""Diffusion coefficient fields a(t, x, v).

All shipped kinds are scalar-valued (a = value * I).  Rough kinds
(checkerboard, random-piecewise) are piecewise constant on half-open boxes
aligned to a configurable origin, so a fixed seed gives a bitwise
reproducible field.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "CoefficientField",
    "make_field",
    "dilated_field",
    "reversed_flipped_field",
]

_KINDS = ("constant", "checkerboard", "oscillatory", "random-piecewise")


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # stateless integer hash; lets piecewise-random fields be evaluated at
    # arbitrary points without carrying RNG state
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _cell_uniform(seed: int, it, ix, iv) -> np.ndarray:
    # one uniform in [0, 1) per lattice cell, mixing the seed with the indices
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for idx in (it, ix, iv):
            u = idx.astype(np.int64).astype(np.uint64)
            h = _splitmix64(h ^ (u * np.uint64(0x9E3779B97F4A7C15)))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


class CoefficientField:
    """A named coefficient field with a vectorized scalar evaluator.

    value(t, x, v) broadcasts over array arguments and returns the scalar
    coefficient (the d x d matrix is value * I).  time_key(t) is a hashable
    identifying a(t, ., .) as a function of (x, v) (None when every t is
    distinct), which lets a solver run reuse one factorization per time
    slice for piecewise-in-time fields.
    """

    def __init__(self, kind, params, seed, d, evaluator, time_key):
        self.kind = kind
        self.params = dict(params)
        self.seed = int(seed)
        self.d = int(d)
        self._evaluator = evaluator
        self._time_key = time_key

    def value(self, t, x, v):
        out = self._evaluator(t, x, v)
        return np.asarray(out, dtype=float)

    def time_key(self, t):
        return self._time_key(t)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "params": _jsonable(self.params), "seed": self.seed, "d": self.d}

    def to_json(self, **kw) -> str:
        return json.dumps(self.descriptor(), sort_keys=True, **kw)

    def __repr__(self):
        return f"CoefficientField({self.kind!r}, seed={self.seed}, params={self.params!r})"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _origin(params, rng, cells):
    if params.get("random_origin", False):
        return tuple(float(rng.uniform(0.0, c)) for c in cells)
    return tuple(float(o) for o in params.get("origin", (0.0, 0.0, 0.0)))


def make_field(kind: str, params: dict | None = None, seed: int = 0, d: int = 1) -> CoefficientField:
    """Build one of the shipped coefficient kinds.

    constant:          {"value": a0}
    checkerboard:      {"values": (lo, hi), "cells": (ct, cx, cv),
                        "origin": (ot, ox, ov) | "random_origin": true}
    oscillatory:       {"base": 1.0, "amplitude": 0.5, "freq_x": 1.0,
                        "freq_v": 1.0, "freq_t": 0.0}
    random-piecewise:  {"values_range": (vmin, vmax), "cells": (ct, cx, cv),
                        "origin"/"random_origin" as above}

    Identical (kind, params, seed) give bitwise identical evaluators.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown field kind {kind!r}; expected one of {_KINDS}")
    params = dict(params or {})
    rng = np.random.default_rng(seed)

    if kind == "constant":
        a0 = float(params.get("value", 1.0))
        if a0 <= 0:
            raise ValueError(f"constant coefficient must be positive, got {a0}")
        params = {"value": a0}

        def evaluator(t, x, v, a0=a0):
            return np.broadcast_to(a0, np.broadcast(np.asarray(t), np.asarray(x), np.asarray(v)).shape).copy()

        return CoefficientField(kind, params, seed, d, evaluator, lambda t: 0)

    if kind == "oscillatory":
        base = float(params.get("base", 1.0))
        amp = float(params.get("amplitude", 0.5))
        fx = float(params.get("freq_x", 1.0))
        fv = float(params.get("freq_v", 1.0))
        ft = float(params.get("freq_t", 0.0))
        if base - abs(amp) <= 0:
            raise ValueError(f"oscillatory field loses ellipticity: base {base}, amplitude {amp}")
        params = {"base": base, "amplitude": amp, "freq_x": fx, "freq_v": fv, "freq_t": ft}

        def evaluator(t, x, v, base=base, amp=amp, fx=fx, fv=fv, ft=ft):
            mod = np.sin(2 * np.pi * fx * np.asarray(x, dtype=float)) * np.sin(
                2 * np.pi * fv * np.asarray(v, dtype=float)
            )
            if ft != 0.0:
                mod = mod * np.cos(2 * np.pi * ft * np.asarray(t, dtype=float))
            return base + amp * mod

        time_key = (lambda t: None) if ft != 0.0 else (lambda t: 0)
        return CoefficientField(kind, params, seed, d, evaluator, time_key)

    cells = tuple(float(c) for c in params.get("cells", (0.25, 0.25, 0.25)))
    if any(c <= 0 for c in cells):
        raise ValueError(f"cell sizes must be positive, got {cells}")
    origin = _origin(params, rng, cells)
    ct, cx, cv = cells
    ot, ox, ov = origin

    def cell_index(t, x, v):
        # half-open boxes [o + i*c, o + (i+1)*c)
        it = np.floor((np.asarray(t, dtype=float) - ot) / ct).astype(np.int64)
        ix = np.floor((np.asarray(x, dtype=float) - ox) / cx).astype(np.int64)
        iv = np.floor((np.asarray(v, dtype=float) - ov) / cv).astype(np.int64)
        return np.broadcast_arrays(it, ix, iv)

    if kind == "checkerboard":
        lo, hi = (float(u) for u in params.get("values", (0.5, 2.0)))
        if not (0 < lo <= hi):
            raise ValueError(f"checkerboard values must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        params = {"values": [lo, hi], "cells": list(cells), "origin": list(origin)}

        def evaluator(t, x, v, lo=lo, hi=hi):
            it, ix, iv = cell_index(t, x, v)
            parity = (it + ix + iv) & 1
            return np.where(parity == 0, lo, hi).astype(float)

        def time_key(t, ct=ct, ot=ot):
            return int(np.floor((float(t) - ot) / ct))

        return CoefficientField(kind, params, seed, d, evaluator, time_key)

    # random-piecewise
    vmin, vmax = (float(u) for u in params.get("values_range", (0.5, 2.0)))
    if not (0 < vmin <= vmax):
        raise ValueError(f"values_range must satisfy 0 < vmin <= vmax, got ({vmin}, {vmax})")
    params = {"values_range": [vmin, vmax], "cells": list(cells), "origin": list(origin)}

    def evaluator(t, x, v, vmin=vmin, vmax=vmax, seed=seed):
        it, ix, iv = cell_index(t, x, v)
        u = _cell_uniform(seed, it, ix, iv)
        return vmin + (vmax - vmin) * u

    def time_key(t, ct=ct, ot=ot):
        return int(np.floor((float(t) - ot) / ct))

    return CoefficientField(kind, params, seed, d, evaluator, time_key)


def dilated_field(base: CoefficientField, r: float) -> CoefficientField:
    """delta_r a: (t, x, v) -> a(r^2 t, r^3 x, r v).  Kernel scaling companion."""
    r = float(r)
    if r <= 0:
        raise ValueError(f"dilation factor must be positive, got {r}")

    def evaluator(t, x, v):
        return base.value(
            r * r * np.asarray(t, dtype=float),
            r**3 * np.asarray(x, dtype=float),
            r * np.asarray(v, dtype=float),
        )

    def time_key(t):
        k = base.time_key(r * r * float(t))
        return None if k is None else ("dilated", k)

    f = CoefficientField(base.kind, base.params, base.seed, base.d, evaluator, time_key)
    f.kind = "dilated"
    f.params = {"r": r, "base": base.descriptor()}
    return f


def reversed_flipped_field(base: CoefficientField, t_total: float) -> CoefficientField:
    """(sigma, x, v) -> a(t_total - sigma, -x, v); companion-equation coefficient."""
    t_total = float(t_total)

    def evaluator(s, x, v):
        return base.value(
            t_total - np.asarray(s, dtype=float), -np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        )

    def time_key(s):
        k = base.time_key(t_total - float(s))
        return None if k is None else ("reversed", k)

    f = CoefficientField(base.kind, base.params, base.seed, base.d, evaluator, time_key)
    f.kind = "reversed-flipped"
    f.params = {"t_total": t_total, "base": base.descriptor()}
    return f
