"""Coefficient field construction and wrappers."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolkit.coefficients import _cell_uniform, dilated_field, make_field, reversed_flipped_field
from kolkit.solver import Grid

RNG = np.random.default_rng(7331)


def _reference_splitmix64(z):
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_value(desc, t, x, v):
    """The broadcast evaluator that the per-shape hash rounds must reproduce bit for bit.

    desc is a field descriptor; the three cell indices are broadcast to one
    shape before any hash round or parity sum, and wrappers map their
    arguments as dilated_field and reversed_flipped_field do.
    """
    kind, p = desc["kind"], desc["params"]
    t, x, v = (np.asarray(u, dtype=float) for u in (t, x, v))
    if kind == "dilated":
        r = p["r"]
        return reference_value(p["base"], r * r * t, r**3 * x, r * v)
    if kind == "reversed-flipped":
        return reference_value(p["base"], p["t_total"] - t, -x, v)
    if kind == "constant":
        return np.full(np.broadcast_shapes(t.shape, x.shape, v.shape), p["value"])
    if kind == "oscillatory":
        mod = np.sin(2 * np.pi * p["freq_x"] * x) * np.sin(2 * np.pi * p["freq_v"] * v)
        if p["freq_t"] != 0.0:
            mod = mod * np.cos(2 * np.pi * p["freq_t"] * t)
        return p["base"] + p["amplitude"] * mod
    (ct, cx, cv), (ot, ox, ov) = p["cells"], p["origin"]
    it = np.floor((t - ot) / ct).astype(np.int64)
    ix = np.floor((x - ox) / cx).astype(np.int64)
    iv = np.floor((v - ov) / cv).astype(np.int64)
    it, ix, iv = np.broadcast_arrays(it, ix, iv)
    if kind == "checkerboard":
        lo, hi = p["values"]
        return np.asarray(np.where(((it + ix + iv) & 1) == 0, lo, hi).astype(float), dtype=float)
    h = np.uint64(desc["seed"] & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for idx in (it, ix, iv):
            u = idx.astype(np.int64).astype(np.uint64)
            h = _reference_splitmix64(h ^ (u * np.uint64(0x9E3779B97F4A7C15)))
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    vmin, vmax = p["values_range"]
    return np.asarray(vmin + (vmax - vmin) * u, dtype=float)


def random_pts(n=500, box=4.0, tmax=2.0):
    t = RNG.uniform(0.0, tmax, n)
    x = RNG.uniform(-box, box, n)
    v = RNG.uniform(-box, box, n)
    return t, x, v


class TestMakeField:
    def test_constant(self):
        f = make_field("constant", {"value": 1.5})
        t, x, v = random_pts()
        assert np.all(f.value(t, x, v) == 1.5)
        assert f.time_key(0.0) == f.time_key(5.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_field("perlin")

    def test_constant_must_be_positive(self):
        with pytest.raises(ValueError):
            make_field("constant", {"value": 0.0})

    def test_oscillatory_stays_elliptic(self):
        f = make_field("oscillatory", {"base": 1.0, "amplitude": 0.5})
        t, x, v = random_pts()
        vals = f.value(t, x, v)
        assert vals.min() >= 0.5 - 1e-12 and vals.max() <= 1.5 + 1e-12
        with pytest.raises(ValueError):
            make_field("oscillatory", {"base": 1.0, "amplitude": 1.0})

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("constant", {"value": None}, "'value' must be 1 number, got None"),
            ("constant", {"value": "2"}, "'value' must be 1 number, got '2'"),
            ("oscillatory", {"amplitude": True}, "'amplitude' must be 1 number, got True"),
            ("checkerboard", {"cells": 0.5}, "'cells' must be 3 numbers, got 0.5"),
            ("checkerboard", {"values": [0.5, None]}, "'values' must be 2 numbers, got [0.5, None]"),
            ("random-piecewise", {"values_range": [0.5, 1.0, 2.0]}, "'values_range' must be 2 numbers"),
            ("random-piecewise", {"origin": "abc"}, "'origin' must be 3 numbers, got 'abc'"),
        ],
    )
    def test_malformed_param_is_named(self, kind, params, message):
        with pytest.raises(ValueError, match=re.escape(f"field parameter {message}")):
            make_field(kind, params)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("random-piecewise", {"cells": (5e-324, 0.5, 0.5)}),
            ("checkerboard", {"cells": (0.5, 0.5, 5e-324)}),
            ("random-piecewise", {"origin": (1e308, 0.0, 0.0)}),
            ("checkerboard", {"cells": (0.5, 0.25, 0.5), "origin": (0.0, -1e308, 0.0)}),
        ],
    )
    def test_cell_index_that_overflows_is_rejected(self, kind, params):
        # the time key floors (t - ot) / ct in Python, which raised OverflowError on an infinity
        with pytest.raises(ValueError, match="make a cell index overflow the float range"):
            make_field(kind, params)

    def test_checkerboard_values_and_parity(self):
        f = make_field("checkerboard", {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25)})
        t, x, v = random_pts()
        vals = f.value(t, x, v)
        assert set(np.unique(vals)) == {0.5, 2.0}
        # crossing one cell in x flips the value
        a = f.value(0.1, 0.1, 0.1)
        b = f.value(0.1, 0.1 + 0.25, 0.1)
        assert a != b

    def test_checkerboard_time_slabs(self):
        f = make_field("checkerboard", {"cells": (0.5, 0.25, 0.25)})
        assert f.time_key(0.1) == f.time_key(0.4)
        assert f.time_key(0.1) != f.time_key(0.6)

    def test_random_piecewise_range_and_determinism(self):
        params = {"values_range": (0.5, 2.0), "cells": (0.25, 0.25, 0.25)}
        f1 = make_field("random-piecewise", params, seed=42)
        f2 = make_field("random-piecewise", params, seed=42)
        f3 = make_field("random-piecewise", params, seed=43)
        t, x, v = random_pts()
        v1, v2, v3 = f1.value(t, x, v), f2.value(t, x, v), f3.value(t, x, v)
        assert np.array_equal(v1, v2)  # bitwise reproducible
        assert not np.array_equal(v1, v3)
        assert v1.min() >= 0.5 and v1.max() <= 2.0

    def test_piecewise_constant_within_cells(self):
        f = make_field("random-piecewise", {"cells": (0.25, 0.25, 0.25)}, seed=5)
        base = f.value(0.1, 0.05, 0.05)
        for dx in (0.0, 0.1, 0.2):
            assert f.value(0.1, 0.01 + dx * 0.9, 0.05) == base or dx > 0.2

    def test_random_origin_varies_with_seed(self):
        params = {"cells": (0.25, 0.25, 0.25), "random_origin": True}
        f1 = make_field("checkerboard", params, seed=1)
        f2 = make_field("checkerboard", params, seed=2)
        assert f1.params["origin"] != f2.params["origin"]

    def test_descriptor_roundtrips_through_json(self):
        f = make_field("checkerboard", {"random_origin": True}, seed=9)
        desc = json.loads(json.dumps(f.descriptor()))
        g = make_field(desc["kind"], desc["params"], seed=desc["seed"])
        t, x, v = random_pts()
        assert np.array_equal(f.value(t, x, v), g.value(t, x, v))
        # every field is a coefficient of the d = 1 solver, and says so
        assert desc["d"] == 1 and dilated_field(f, 2.0).descriptor()["d"] == 1


class TestWrappers:
    def test_dilated_field_identity(self):
        # a_r(t, x, v) = a(r^2 t, r^3 x, r v) pointwise
        base = make_field("checkerboard", {"cells": (0.25, 0.25, 0.25)}, seed=12)
        r = 1.7
        d = dilated_field(base, r)
        t, x, v = random_pts()
        assert np.array_equal(d.value(t, x, v), base.value(r**2 * t, r**3 * x, r * v))

    def test_dilated_unit_scale_is_noop(self):
        base = make_field("oscillatory")
        d = dilated_field(base, 1.0)
        t, x, v = random_pts()
        assert np.allclose(d.value(t, x, v), base.value(t, x, v), rtol=0, atol=0)

    def test_reversed_flipped_identity(self):
        # companion coefficient: time reversed from t_total, position flipped
        base = make_field("checkerboard", {"cells": (0.25, 0.25, 0.25)}, seed=12)
        T = 2.0
        rf = reversed_flipped_field(base, T)
        t, x, v = random_pts(tmax=T)
        assert np.array_equal(rf.value(t, x, v), base.value(T - t, -x, v))

    def test_reversed_flipped_is_involution(self):
        base = make_field("random-piecewise", {"cells": (0.5, 0.5, 0.5)}, seed=4)
        T = 1.0
        rr = reversed_flipped_field(reversed_flipped_field(base, T), T)
        t, x, v = random_pts(tmax=T)
        assert np.array_equal(rr.value(t, x, v), base.value(t, x, v))

    def test_wrappers_preserve_time_keys(self):
        base = make_field("checkerboard", {"cells": (0.25, 0.25, 0.25)}, seed=12)
        rf = reversed_flipped_field(base, 2.0)
        # same slab of the reversed clock maps to one base slab
        assert rf.time_key(0.1) == rf.time_key(0.2)
        d = dilated_field(base, 2.0)
        # dilated time cells shrink by r^2: 0.25/4 wide
        assert d.time_key(0.01) == d.time_key(0.05)
        assert d.time_key(0.01) != d.time_key(0.07)

    def test_time_keys_are_the_base_keys_at_the_mapped_time(self):
        # a Stepper compares keys of one field only, so a wrapper's key is its base's
        base = make_field("random-piecewise", {"cells": (0.1, 0.25, 0.25)}, seed=3)
        for s in RNG.uniform(-2.0, 2.0, 20):
            assert dilated_field(base, 1.5).time_key(s) == base.time_key(1.5 * 1.5 * s)
            assert reversed_flipped_field(base, 2.0).time_key(s) == base.time_key(2.0 - s)
        assert reversed_flipped_field(make_field("oscillatory", {"freq_t": 1.0}), 2.0).time_key(0.3) is None

    @pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
    def test_dilation_factor_must_be_positive_and_finite(self, r):
        with pytest.raises(ValueError, match="dilation factor"):
            dilated_field(make_field("constant"), r)

    def test_constant_field_fixed_by_wrappers(self):
        base = make_field("constant", {"value": 2.0})
        t, x, v = random_pts()
        assert np.all(dilated_field(base, 3.0).value(t, x, v) == 2.0)
        assert np.all(reversed_flipped_field(base, 5.0).value(t, x, v) == 2.0)


def _arguments(case, rng, scale, n, m):
    # the argument shapes a caller passes: points, point lists, grids and time lists
    def draw(*shape):
        return rng.uniform(-scale, scale, shape)

    if case == "scalars":
        return float(draw()), float(draw()), float(draw())
    if case == "vectors":
        return draw(n), draw(n), draw(n)
    if case == "meshes":
        grid = Grid(Lx=scale, Lv=scale, Nx=16 + n, Nv=16 + m)
        return float(draw()), *grid.meshes()
    if case == "full":
        return draw(n, m), draw(n, m), draw(n, m)
    return draw(n), float(draw()), float(draw())  # t list at one point


class TestPerShapeEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["constant", "checkerboard", "oscillatory", "random-piecewise"]),
        wrap=st.sampled_from(["direct", "dilated", "reversed"]),
        case=st.sampled_from(["scalars", "vectors", "meshes", "full", "t-list"]),
        cells=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
        freqs=st.tuples(*[st.sampled_from([0.0, 1.0, 2.5])] * 3),
        scale=st.sampled_from([0.5, 4.0, 1e3, 1e6]),
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_broadcast_reference(self, kind, wrap, case, cells, freqs, scale, n, m, seed):
        # negative and large coordinates land in negative and far cells
        params = {
            "constant": {"value": 1.5},
            "oscillatory": dict(zip(["freq_x", "freq_v", "freq_t"], freqs)),
        }.get(kind, {"cells": cells, "random_origin": True})
        f = make_field(kind, params, seed=seed)
        if wrap == "dilated":
            f = dilated_field(f, 1.7)
        elif wrap == "reversed":
            f = reversed_flipped_field(f, 2.0)
        t, x, v = _arguments(case, np.random.default_rng(seed), scale, n, m)
        got, want = f.value(t, x, v), reference_value(f.descriptor(), t, x, v)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        if case == "meshes":
            # each slice of the binding's sample at one point per class of each grid axis is the
            # evaluation there at its time, and gathered back to the grid it is the grid's
            # evaluation; a constant takes one class and a checkerboard two per axis
            rx, jx, rv, jv, at = f.bind(x[:, 0], v[0])
            times = np.array([t, -t, 2.0 * t, t])
            reps = at(times)
            assert reps.shape == (times.size, rx.size, rv.size)
            for u, rep in zip(times, reps):
                at_reps = f.value(u, x[rx], v[:, rv])
                assert rep.shape == at_reps.shape and rep.dtype == at_reps.dtype
                assert rep.tobytes() == at_reps.tobytes()
                full = reference_value(f.descriptor(), u, x, v)
                assert np.array_equal(rep[jx][:, jv], np.broadcast_to(full, (x.size, v.size)))
            most = {"constant": 1, "checkerboard": 2}.get(kind, max(x.size, v.size))
            assert rx.size <= most and rv.size <= most

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["constant", "checkerboard", "oscillatory", "random-piecewise"]),
        wrap=st.sampled_from(["direct", "dilated", "reversed"]),
        cells=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
        times=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        n=st.integers(0, 9),
        m=st.integers(0, 9),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_a_binding_samples_as_a_fresh_one(self, kind, wrap, cells, times, n, m, seed):
        # a sample overwrites the binding's arrays; the next one must not read what it left
        params = {"oscillatory": {"freq_t": 1.0}}.get(kind, {"cells": cells, "random_origin": True})
        f = make_field(kind, params, seed=seed)
        if wrap == "dilated":
            f = dilated_field(f, 1.7)
        elif wrap == "reversed":
            f = reversed_flipped_field(f, 2.0)
        grid = Grid(Lx=4.0, Lv=3.0, Nx=16 + n, Nv=16 + m)
        at = f.bind(grid.x_centers, grid.v_centers)[-1]
        t1, t2 = times
        fresh = [f.bind(grid.x_centers, grid.v_centers)[-1](np.array([t]))[0].tobytes() for t in (t1, t2, t1)]
        # in one call, then across calls of one time each
        assert [a.tobytes() for a in at(np.array([t1, t2, t1]))] == fresh
        assert [at(np.array([t]))[0].tobytes() for t in (t1, t2, t1)] == fresh


INT64 = st.integers(-(2**63), 2**63 - 1)


class TestCellUniform:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        it=INT64,
        zero_d=st.sampled_from([np.int64, np.array]),
        ix=st.lists(INT64, min_size=1, max_size=5),
        iv=st.lists(INT64, min_size=1, max_size=5),
    )
    def test_scalar_time_round_matches_the_numpy_round(self, seed, it, zero_d, ix, iv):
        # a 0-d time index is hashed in Python ints, a 1-element array in numpy
        ix, iv = np.array(ix)[:, None], np.array(iv)[None, :]
        got = _cell_uniform(seed, zero_d(it), ix, iv)
        want = _cell_uniform(seed, np.array([it]), ix, iv)
        assert got.shape == want.shape and np.array_equal(got, want)
