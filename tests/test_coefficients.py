"""Coefficient field construction and wrappers."""

import json

import numpy as np
import pytest

from kolkit.coefficients import dilated_field, make_field, reversed_flipped_field

RNG = np.random.default_rng(7331)


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
        desc = json.loads(f.to_json())
        g = make_field(desc["kind"], desc["params"], seed=desc["seed"])
        t, x, v = random_pts()
        assert np.array_equal(f.value(t, x, v), g.value(t, x, v))


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

    def test_constant_field_fixed_by_wrappers(self):
        base = make_field("constant", {"value": 2.0})
        t, x, v = random_pts()
        assert np.all(dilated_field(base, 3.0).value(t, x, v) == 2.0)
        assert np.all(reversed_flipped_field(base, 5.0).value(t, x, v) == 2.0)
