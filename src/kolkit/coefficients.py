"""Diffusion coefficient fields a(t, x, v).

All shipped kinds are scalar-valued (a = value * I).  Rough kinds
(checkerboard, random-piecewise) are piecewise constant on half-open boxes
aligned to a configurable origin, so a fixed seed gives a bitwise
reproducible field.  Each hash round runs at its own cell index's shape.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "CoefficientField",
    "make_field",
    "dilated_field",
    "reversed_flipped_field",
]

_KINDS = ("constant", "checkerboard", "oscillatory", "random-piecewise")


class ConfigError(ValueError):
    """Invalid grid/config combination (CFL, divisibility, widths, a field's cell indices)."""


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# the hash's constants as numpy scalars made once: making one costs half a small ufunc call
_U_GOLDEN, _U_M1, _U_M2 = np.uint64(_GOLDEN), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U_11, _U_27, _U_30, _U_31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


def _splitmix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # stateless integer hash, in place on uint64 z with tmp of its shape: piecewise-random
    # fields are evaluated at any point without RNG state
    z += _U_GOLDEN
    np.right_shift(z, _U_30, tmp)
    z ^= tmp
    z *= _U_M1
    np.right_shift(z, _U_27, tmp)
    z ^= tmp
    z *= _U_M2
    np.right_shift(z, _U_31, tmp)
    z ^= tmp
    return z


def _splitmix64_int(z: int) -> int:
    # _splitmix64 of z mod 2^64 for any Python int z, each step masked to 64 bits
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _time_round(seed: int, it) -> int:
    # the round of a 0-d time index, in Python ints: cheaper than numpy scalars
    return _splitmix64_int((seed & _MASK64) ^ int(it) * _GOLDEN)


def _golden(idx) -> np.ndarray:
    # a round's input from a cell index: the index as uint64 times _GOLDEN, mod 2^64
    return idx.astype(np.int64).astype(np.uint64) * _U_GOLDEN


def _round(h, g, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # one hash round, out = splitmix64(h ^ g), with out and tmp of the broadcast shape
    np.bitwise_xor(h, g, out)
    return _splitmix64(out, tmp)


def _unit(h, tmp=None, out=None):
    # the top 53 bits of each hash as a float in [0, 1)
    return np.divide(np.right_shift(h, _U_11, tmp), float(1 << 53), out)


def _cell_uniform(seed: int, it, ix, iv) -> np.ndarray:
    # one uniform in [0, 1) per lattice cell, mixing the seed with the indices as h broadcasts
    h, rounds = seed & _MASK64, (it, ix, iv)
    if np.ndim(it) == 0:
        h, rounds = _time_round(seed, it), (ix, iv)
    h = np.uint64(h)
    with np.errstate(over="ignore"):
        for idx in rounds:
            g = _golden(idx)
            shape = np.broadcast_shapes(np.shape(h), np.shape(g))
            h = _round(h, g, np.empty(shape, np.uint64), np.empty(shape, np.uint64))
    return _unit(h)


def _slices(*specs):
    # n -> views of n slices of one array per (slice shape, dtype), remade only for a larger n
    held = [np.empty((0, *shape), dtype) for shape, dtype in specs]

    def take(n):
        if len(held[0]) < n:
            held[:] = [np.empty((n, *a.shape[1:]), a.dtype) for a in held]
        return [a[:n] for a in held]

    return take


def _classes(kx: np.ndarray, kv: np.ndarray) -> tuple:
    # (rx, jx, rv, jv) of the distinct keys of two 1-d arrays: kx[rx][jx] == kx, kv[rv][jv] == kv;
    # a dict of first positions, as np.unique's sort would add its code pages to a run's peak RSS
    out = []
    for keys in (kx.tolist(), kv.tolist()):
        first = {}
        for i, k in enumerate(keys):
            first.setdefault(k, i)
        ids = {k: c for c, k in enumerate(first)}
        out += [list(first.values()), [ids[k] for k in keys]]
    return tuple(np.array(u, dtype=np.intp) for u in out)


class CoefficientField:
    """A named coefficient field with a vectorized scalar evaluator.

    value(t, x, v) broadcasts and returns the scalar coefficient (the d x d
    matrix is value * I).  time_key(t) is a hashable naming a(t, ., .) (None
    when every t is distinct), so a solver reuses one factor per time slice.
    bind(x, v) lets a solver sample and factor one grid row per class.
    """

    def __init__(self, kind, params, seed, evaluator, time_key, bind):
        self.kind = kind
        self.params = dict(params)
        self.seed = int(seed)
        self._evaluator = evaluator
        self._time_key = time_key
        self._bind = bind

    def value(self, t, x, v):
        return np.asarray(self._evaluator(t, x, v), dtype=float)

    def time_key(self, t):
        return self._time_key(t)

    def bind(self, x, v) -> tuple:
        """(rx, jx, rv, jv, at) for finite 1-d axes: x[rx] has one point per class of x on which
        the field is equal at every t, jx each point's class (v likewise); at(ts)[i] is, bit for
        bit, value(ts[i], x[rx][:, None], v[rv][None, :]), in an array a later call may reuse."""
        return self._bind(np.asarray(x, dtype=float), np.asarray(v, dtype=float))

    def descriptor(self) -> dict:
        # every field is a coefficient of the d = 1 solver
        return {"kind": self.kind, "params": _jsonable(self.params), "seed": self.seed, "d": 1}

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


def _param(params, name, default, n=1):
    """params[name] as a float (n = 1) or a tuple of n floats; ValueError naming it otherwise."""
    raw = params.get(name, default)
    items = tuple(raw) if n > 1 and isinstance(raw, (list, tuple, np.ndarray)) else (raw,)
    if len(items) != n or not all(isinstance(u, numbers.Real) and not isinstance(u, bool) for u in items):
        raise ValueError(f"field parameter {name!r} must be {n} number{'s' * (n > 1)}, got {raw!r}")
    return float(raw) if n == 1 else tuple(float(u) for u in items)


def _origin(params, rng, cells):
    if params.get("random_origin", False):
        return tuple(float(rng.uniform(0.0, c)) for c in cells)
    return _param(params, "origin", (0.0, 0.0, 0.0), 3)


def make_field(kind: str, params: dict | None = None, seed: int = 0) -> CoefficientField:
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
        a0 = _param(params, "value", 1.0)
        if a0 <= 0:
            raise ValueError(f"constant coefficient must be positive, got {a0}")
        params = {"value": a0}

        def evaluator(t, x, v, a0=a0):
            return np.broadcast_to(a0, np.broadcast(np.asarray(t), np.asarray(x), np.asarray(v)).shape).copy()

        def bind(x, v):
            rx, jx, rv, jv = _classes(np.zeros(x.size), np.zeros(v.size))
            a = evaluator(0.0, x[rx][:, None], v[rv][None, :])
            return rx, jx, rv, jv, lambda ts: np.broadcast_to(a, (len(ts), *a.shape))

        return CoefficientField(kind, params, seed, evaluator, lambda t: 0, bind)

    if kind == "oscillatory":
        base = _param(params, "base", 1.0)
        amp = _param(params, "amplitude", 0.5)
        fx = _param(params, "freq_x", 1.0)
        fv = _param(params, "freq_v", 1.0)
        ft = _param(params, "freq_t", 0.0)
        if base - abs(amp) <= 0:
            raise ValueError(f"oscillatory field loses ellipticity: base {base}, amplitude {amp}")
        params = {"base": base, "amplitude": amp, "freq_x": fx, "freq_v": fv, "freq_t": ft}

        def wave(u, f):
            return np.sin(2 * np.pi * f * np.asarray(u, dtype=float))

        def modulated(mod, t, out=None):
            # base + amp mod cos(2 pi ft t), into out when given
            if ft != 0.0:
                mod = np.multiply(mod, np.cos(2 * np.pi * ft * np.asarray(t, dtype=float)), out=out)
            return np.add(base, np.multiply(amp, mod, out=out), out=out)

        def evaluator(t, x, v):
            return modulated(wave(x, fx) * wave(v, fv), t)

        def bind(x, v):
            # sin(2 pi 0 u) is +-0, so a zero frequency leaves a value that its axis cannot change
            rx, jx, rv, jv = _classes(np.arange(x.size) * (fx != 0.0), np.arange(v.size) * (fv != 0.0))
            for name, f, u in (("freq_x", fx, x), ("freq_v", fv, v)):
                # wave's 2 pi f u at the largest |u|; sin of an infinite argument is NaN
                if not abs(2 * np.pi * f) * float(np.abs(u).max()) < np.inf:
                    raise ConfigError(f"oscillatory field: {name}={f} times the grid's points is not finite")
            mod = wave(x[rx][:, None], fx) * wave(v[rv][None, :], fv)
            slices = _slices((mod.shape, float))

            def at(ts):
                (out,) = slices(len(ts))
                for t, a in zip(ts, out):
                    modulated(mod, t, a)
                return out

            return rx, jx, rv, jv, at

        time_key = (lambda t: None) if ft != 0.0 else (lambda t: 0)
        return CoefficientField(kind, params, seed, evaluator, time_key, bind)

    cells = _param(params, "cells", (0.25, 0.25, 0.25), 3)
    if any(c <= 0 for c in cells):
        raise ValueError(f"cell sizes must be positive, got {cells}")
    origin = _origin(params, rng, cells)
    # time_key's math.floor raises on an infinite cell index
    if not all(1.0 / c < np.inf and abs(o / c) < np.inf for o, c in zip(origin, cells)):
        raise ValueError(f"cells {cells} and origin {origin} make a cell index overflow the float range")
    ct, cx, cv = cells
    ot, ox, ov = origin

    def index(u, o, c):
        # half-open boxes [o + i*c, o + (i+1)*c); the index keeps its argument's shape
        i = np.floor((np.asarray(u, dtype=float) - o) / c)
        # the int64 cast of an index outside [-2^63, 2^63) is undefined; min and max make no temporary
        if i.min(initial=0.0) < -(2.0**63) or i.max(initial=0.0) >= 2.0**63:
            raise ConfigError(f"cells {cells} and origin {origin} put a cell index beyond the int64 range")
        return i.astype(np.int64)

    def cell_index(t, x, v):
        return index(t, ot, ct), index(x, ox, cx), index(v, ov, cv)

    def time_key(t, ct=ct, ot=ot):
        return math.floor((float(t) - ot) / ct)

    if kind == "checkerboard":
        lo, hi = _param(params, "values", (0.5, 2.0), 2)
        if not (0 < lo <= hi):
            raise ValueError(f"checkerboard values must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        params = {"values": [lo, hi], "cells": list(cells), "origin": list(origin)}

        def pick(total):
            return np.where((total & 1) == 0, lo, hi).astype(float)

        def evaluator(t, x, v):
            it, ix, iv = cell_index(t, x, v)
            return pick(it + ix + iv)

        def bind(x, v):
            # the value depends on each index through its parity only
            kx, kv = index(x, ox, cx), index(v, ov, cv)
            rx, jx, rv, jv = _classes(kx & 1, kv & 1)
            total = kx[rx][:, None] + kv[rv][None, :]
            pair = np.stack([pick(total), pick(total + 1)])  # at an even and an odd time index
            return rx, jx, rv, jv, lambda ts: pair[index(ts, ot, ct) & 1]

        return CoefficientField(kind, params, seed, evaluator, time_key, bind)

    # random-piecewise
    vmin, vmax = _param(params, "values_range", (0.5, 2.0), 2)
    if not (0 < vmin <= vmax):
        raise ValueError(f"values_range must satisfy 0 < vmin <= vmax, got ({vmin}, {vmax})")
    params = {"values_range": [vmin, vmax], "cells": list(cells), "origin": list(origin)}

    def scaled(u, out=None):
        # vmin + (vmax - vmin) u, into out when given
        return np.add(vmin, np.multiply(vmax - vmin, u, out), out)

    def evaluator(t, x, v):
        return scaled(_cell_uniform(seed, *cell_index(t, x, v)))

    def bind(x, v):
        # the x and v rounds' inputs once; at(ts) runs each time's round, then the array rounds
        kx, kv = index(x, ox, cx), index(v, ov, cv)
        rx, jx, rv, jv = _classes(kx, kv)
        gx, gv = _golden(kx[rx])[:, None], _golden(kv[rv])[None, :]
        shape = (rx.size, rv.size)
        slices = _slices(*[(gx.shape, np.uint64)] * 2, *[(shape, np.uint64)] * 2, (shape, float))

        def at(ts):
            hx, tx, h, tmp, out = slices(len(ts))
            rounds = [_time_round(seed, it) for it in index(ts, ot, ct).tolist()]
            _round(np.array(rounds, np.uint64)[:, None, None], gx, hx, tx)
            return scaled(_unit(_round(hx, gv, h, tmp), tmp, out), out)

        return rx, jx, rv, jv, at

    return CoefficientField(kind, params, seed, evaluator, time_key, bind)


def _mapped_field(kind, params, base, t_map, sx, sv) -> CoefficientField:
    # base at (t_map(t), sx x, sv v): one map for the evaluator, the time key and the binding;
    # a time key is the base's, as a Stepper only compares keys of its own field
    def evaluator(t, x, v):
        return base.value(
            t_map(np.asarray(t, dtype=float)), sx * np.asarray(x, dtype=float), sv * np.asarray(v, dtype=float)
        )

    def time_key(t):
        return base.time_key(t_map(float(t)))

    def bind(x, v):
        rx, jx, rv, jv, at = base.bind(sx * x, sv * v)
        return rx, jx, rv, jv, lambda ts: at(t_map(np.asarray(ts, dtype=float)))

    return CoefficientField(kind, {**params, "base": base.descriptor()}, base.seed, evaluator, time_key, bind)


def dilated_field(base: CoefficientField, r: float) -> CoefficientField:
    """delta_r a: (t, x, v) -> a(r^2 t, r^3 x, r v).  Kernel scaling companion."""
    r = float(r)
    if not (0.0 < r < np.inf):  # NaN fails it too
        raise ValueError(f"dilation factor must be positive and finite, got {r}")
    return _mapped_field("dilated", {"r": r}, base, lambda t: r * r * t, r**3, r)


def reversed_flipped_field(base: CoefficientField, t_total: float) -> CoefficientField:
    """(sigma, x, v) -> a(t_total - sigma, -x, v); companion-equation coefficient."""
    t_total = float(t_total)
    return _mapped_field("reversed-flipped", {"t_total": t_total}, base, lambda s: t_total - s, -1.0, 1.0)
