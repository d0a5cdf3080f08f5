"""Finite-volume solver: validation, conservation, kernel estimates."""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack
from scipy.ndimage import gaussian_filter

import kolkit
import kolkit.solver as solver_module
from kolkit.coefficients import dilated_field, make_field, reversed_flipped_field
from kolkit.nash_g import adjoint_kernel_residual
from kolkit.profiles import explicit_kernel_mollified
from kolkit.solver import (
    _Sweep,
    ConfigError,
    Field,
    Grid,
    KernelEstimate,
    SolverConfig,
    SolverError,
    SpaceTimeField,
    Stepper,
    chapman_kolmogorov_residual,
    diagnostics,
    estimate_kernel,
    evolve,
    init_delta,
    remollify,
    scaling_identity_residual,
    step,
)

CONST = make_field("constant", {"value": 1.0})


def reference_faces(f):
    """Each cell's left-face value, clamped into the range of the two cells beside the face."""
    fm1 = np.roll(f, 1, axis=0)
    fm2 = np.roll(f, 2, axis=0)
    fp1 = np.roll(f, -1, axis=0)
    e = (7.0 * (fm1 + f) - (fm2 + fp1)) / 12.0
    return np.clip(e, np.minimum(fm1, f), np.maximum(fm1, f))


def reference_ppm(f, courant):
    """The two-branch PPM sweep in closed form that the one-branch sweep must reproduce bit for bit."""
    e = reference_faces(f)
    dl = f - e
    dr = np.roll(e, -1, axis=0) - f
    mono = dl * dr > 0.0
    dl_lim = np.where(mono, np.copysign(np.minimum(np.abs(dl), 2.0 * np.abs(dr)), dl), 0.0)
    dr_lim = np.where(mono, np.copysign(np.minimum(np.abs(dr), 2.0 * np.abs(dl)), dr), 0.0)

    cpos = np.maximum(courant, 0.0)
    cneg = np.maximum(-courant, 0.0)
    flux_pos = f + ((1.0 - cpos) ** 2 * dr_lim + cpos * (1.0 - cpos) * dl_lim)
    # the left-moving flux through a cell's right face comes from the cell after it, mirrored
    flux_neg = np.roll(f - ((1.0 - cneg) ** 2 * dl_lim + cneg * (1.0 - cneg) * dr_lim), -1, axis=0)
    flux = np.where(courant >= 0.0, flux_pos, flux_neg)
    return f - courant * (flux - np.roll(flux, 1, axis=0))


def reference_ppm_cw84(f, courant):
    """Colella & Woodward's two-branch PPM sweep: face rewrites, then the parabola's flux."""
    fl = reference_faces(f)
    fr = np.roll(fl, -1, axis=0)

    ext = (fr - f) * (f - fl) <= 0.0
    fl = np.where(ext, f, fl)
    fr = np.where(ext, f, fr)
    d = fr - fl
    f6 = 6.0 * (f - 0.5 * (fl + fr))
    over_r = d * f6 > d * d
    over_l = d * f6 < -d * d
    fl = np.where(over_r & ~ext, 3.0 * f - 2.0 * fr, fl)
    fr = np.where(over_l & ~ext, 3.0 * f - 2.0 * fl, fr)
    d = fr - fl
    f6 = 6.0 * (f - 0.5 * (fl + fr))

    cpos = np.maximum(courant, 0.0)
    cneg = np.maximum(-courant, 0.0)
    flux_pos = fr - 0.5 * cpos * (d - (1.0 - (2.0 / 3.0) * cpos) * f6)
    flux_neg = np.roll(fl, -1, axis=0) + 0.5 * cneg * (
        np.roll(d, -1, axis=0) + (1.0 - (2.0 / 3.0) * cneg) * np.roll(f6, -1, axis=0)
    )
    flux = np.where(courant >= 0.0, flux_pos, flux_neg)
    return f - courant * (flux - np.roll(flux, 1, axis=0))


def reference_upwind(f, courant):
    """The two-branch upwind sweep."""
    flux = np.where(courant >= 0.0, f, np.roll(f, -1, axis=0))
    return f - courant * (flux - np.roll(flux, 1, axis=0))


def reference_factor(field, t_sub, grid, dt_half):
    """The allocating factor build that the stepper's in-place build must reproduce bit for bit."""
    X, V = grid.meshes()
    a = np.broadcast_to(np.asarray(field.value(t_sub, X, V), dtype=float), (grid.Nx, grid.Nv))
    ah = np.zeros((grid.Nx, grid.Nv + 1))
    al, ar = a[:, :-1], a[:, 1:]
    ah[:, 1:-1] = 2.0 * al * ar / (al + ar)
    mu = dt_half / grid.dv**2
    off = -mu * ah[:, 1:].ravel()[:-1]
    diag = (1.0 + mu * ah[:, :-1] + mu * ah[:, 1:]).ravel()
    d, e, info = lapack.dpttrf(diag, off)
    assert info == 0
    return d, e


def pttrf_pttrs_bytes(dpttrf, dpttrs):
    """d, e and a three-column solve of one seeded SPD tridiagonal system of 3000 rows, as bytes."""
    rng = np.random.default_rng(14)
    diag, off = 2.0 + rng.random(3000), rng.uniform(-1.0, 1.0, 2999)
    d, e, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
    x, info_s = dpttrs(d, e, rng.random((3000, 3)), overwrite_b=1)
    assert info == info_s == 0
    return d.tobytes(), e.tobytes(), x.tobytes()


def run_fresh(code):
    """Run code in a fresh interpreter that imports kolkit from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kolkit.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


class TestGrid:
    def test_spacing(self):
        g = Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=96)
        assert g.dx == pytest.approx(6.0 / 64)
        assert g.dv == pytest.approx(12.0 / 96)
        assert g.cell_volume == pytest.approx(g.dx * g.dv)
        assert len(g.x_centers) == 64
        assert g.x_centers[0] == pytest.approx(-3.0 + g.dx / 2)

    def test_rejects_small_or_degenerate(self):
        with pytest.raises(ConfigError):
            Grid(Lx=3.0, Lv=6.0, Nx=8, Nv=64)
        with pytest.raises(ConfigError):
            Grid(Lx=0.0, Lv=6.0, Nx=64, Nv=64)
        # NaN fails every comparison, so each check is written to fail it
        with pytest.raises(ConfigError, match="positive and finite"):
            Grid(Lx=float("nan"), Lv=6.0, Nx=64, Nv=64)
        with pytest.raises(ConfigError, match="positive and finite"):
            Grid(Lx=3.0, Lv=float("inf"), Nx=64, Nv=64)

    @pytest.mark.parametrize("Lx, Lv, named", [(1e300, 6.0, "dx="), (3.0, 1e-300, "dv="), (1e-160, 6.0, "dx=")])
    def test_rejects_widths_whose_squares_are_not_normal(self, Lx, Lv, named):
        # the diffusion factor divides by dv^2 and the closed-form kernel squares dx
        with pytest.raises(ConfigError, match=named):
            Grid(Lx=Lx, Lv=Lv, Nx=64, Nv=64)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.01, transport_order=2)
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.01, w0_cells=1.0)
        with pytest.raises(ConfigError, match="dt must be positive"):
            SolverConfig(dt=float("nan"))
        with pytest.raises(ConfigError, match="mollification width"):
            SolverConfig(dt=0.01, w0_cells=float("nan"))
        with pytest.raises(ConfigError, match="mollification width"):
            SolverConfig(dt=0.01, w0_cells=float("inf"))
        with pytest.raises(ConfigError, match="tail tolerance"):
            SolverConfig(dt=0.01, tail_tol=float("nan"))
        with pytest.raises(ConfigError, match="tail tolerance"):
            SolverConfig(dt=0.01, tail_tol=-1e-8)
        with pytest.raises(ConfigError, match="mollification widths"):
            init_delta((0.0, 0.0), float("nan"), Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64))

    def test_nan_step_or_end_time_is_config_error(self):
        # a NaN dt can only reach the stepper past SolverConfig's own check
        g = Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64)
        f = init_delta((0.0, 0.0), 0.3, g)
        config = SolverConfig(dt=0.01)
        object.__setattr__(config, "dt", float("nan"))
        with pytest.raises(ConfigError, match="CFL"):
            Stepper(CONST, g, config)
        for t_final in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ConfigError, match="t_final"):
                evolve(f, CONST, SolverConfig(dt=0.01), t_final)

    @pytest.mark.parametrize("dt, t_final", [(5e-324, 0.5), (0.01, 1e308)], ids=["dt-subnormal", "t_final-huge"])
    def test_step_count_that_is_not_finite_is_config_error(self, dt, t_final):
        # span / dt overflows to inf, which round() cannot take
        f = init_delta((0.0, 0.0), 0.3, Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64))
        with pytest.raises(ConfigError, match=f"dt={dt}"):
            evolve(f, CONST, SolverConfig(dt=dt), t_final)

    def test_step_count_is_capped(self, monkeypatch):
        # at the real cap, dt = 1e-300 would ask for 5e299 steps over this span
        monkeypatch.setattr(solver_module, "_MAX_STEPS", 8)
        f = init_delta((0.0, 0.0), 0.3, Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64))
        config = SolverConfig(dt=1.0 / 128)
        assert evolve(f, CONST, config, 8 * config.dt).field.t == pytest.approx(8 * config.dt)
        for dt, t_final in [(1.0 / 128, 9.0 / 128), (1e-300, 0.5)]:
            with pytest.raises(ConfigError, match=f"dt={dt}.*more than 8 steps"):
                evolve(f, CONST, SolverConfig(dt=dt), t_final)

    def test_cfl_enforced_at_step(self):
        g = Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64)
        f = init_delta((0.0, 0.0), 0.3, g)
        # dx/Lv = 0.015625 here
        with pytest.raises(ConfigError, match="CFL"):
            step(f, CONST, SolverConfig(dt=0.05))

    def test_cfl_enforced_by_stepper_and_zero_step_evolve(self):
        # the stepper checks the bound once, when it is built, so a run of no steps checks it too
        g = Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64)
        f = init_delta((0.0, 0.0), 0.3, g)
        with pytest.raises(ConfigError, match="CFL"):
            Stepper(CONST, g, SolverConfig(dt=0.05))
        with pytest.raises(ConfigError, match="CFL"):
            evolve(f, CONST, SolverConfig(dt=0.05), f.t)
        assert evolve(f, CONST, SolverConfig(dt=g.dx / g.Lv), f.t).field is f


class TestField:
    def test_shape_and_finite_guards(self):
        g = Grid(Lx=2.0, Lv=2.0, Nx=16, Nv=16)
        with pytest.raises(ValueError):
            Field(np.zeros((16, 8)), 0.0, g)
        bad = np.zeros((16, 16))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Field(bad, 0.0, g)

    def test_interp_wraps_x_and_clamps_v(self):
        g = Grid(Lx=2.0, Lv=2.0, Nx=32, Nv=32)
        vals = np.outer(np.sin(np.pi * g.x_centers / 2.0), np.ones(32))
        f = Field(vals, 0.0, g)
        x = 0.7
        assert f.interp(x, 0.0) == pytest.approx(f.interp(x - 4.0, 0.0), abs=1e-14)
        # beyond the v-wall the sample clamps to the edge row
        assert f.interp(x, 5.0) == pytest.approx(f.interp(x, g.v_centers[-1]), abs=1e-14)

    def test_interp_is_nan_off_the_grid_without_a_warning(self):
        # a NaN on either axis or an infinite x lies in no cell; an infinite v clamps to a wall
        g = Grid(Lx=2.0, Lv=2.0, Nx=32, Nv=32)
        f = Field(np.random.default_rng(3).random((32, 32)), 0.0, g)
        xq = np.array([np.nan, 0.3, np.inf, -np.inf, np.nan, 0.3, 0.3])
        vq = np.array([0.1, np.nan, 0.1, 0.1, np.nan, np.inf, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.interp(xq, vq)
            assert np.isnan(f.interp(np.nan, 0.0)) and np.isnan(f.interp(0.0, np.nan))
        assert np.isnan(got[:5]).all()
        assert got[5] == f.interp(0.3, g.v_centers[-1])
        # the finite points keep their samples, also when a NaN point shares the call
        assert got[6] == f.interp(0.3, 0.1)

    @pytest.mark.parametrize("x", [1e19, 1e300, -1e19, -1e300])
    def test_interp_far_x_is_a_sample_of_the_field(self, x):
        # a finite x beyond the int64 range of cells wraps like any other x
        g = Grid(Lx=2.0, Lv=2.0, Nx=32, Nv=32)
        f = Field(np.random.default_rng(3).random((32, 32)), 0.0, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.interp(x, 0.1)
        assert f.values.min() <= got <= f.values.max()


class TestInitDelta:
    def test_unit_mass(self):
        g = Grid(Lx=3.0, Lv=5.0, Nx=64, Nv=64)
        f = init_delta((0.5, -0.25), (0.2, 0.3), g)
        assert f.mass() == pytest.approx(1.0, abs=1e-13)
        assert f.min() >= 0.0

    def test_center_near_wall_rejected(self):
        g = Grid(Lx=3.0, Lv=2.0, Nx=64, Nv=64)
        with pytest.raises(ConfigError):
            init_delta((0.0, 1.8), 0.2, g)
        with pytest.raises(ConfigError):
            init_delta((2.9, 0.0), 0.2, g)
        with pytest.raises(ConfigError):
            init_delta((0.0, 0.0), -0.1, g)


class TestEvolve:
    GRID = Grid(Lx=3.5, Lv=6.0, Nx=64, Nv=64)
    CFG = SolverConfig(dt=1.0 / 64, w0_cells=2.0)

    def test_mass_conserved_and_positive(self):
        f = init_delta((0.0, 0.0), (0.3, 0.3), self.GRID)
        res = evolve(f, CONST, self.CFG, 0.5)
        assert abs(res.mass_min - 1.0) < 1e-12
        assert abs(res.mass_max - 1.0) < 1e-12
        assert res.min_value >= 0.0

    def test_uniform_state_is_steady(self):
        vals = np.full((64, 64), 0.25)
        f = Field(vals, 0.0, self.GRID)
        res = evolve(f, CONST, self.CFG, 0.25)
        assert np.abs(res.field.values - 0.25).max() < 1e-12

    def test_rough_field_still_conserves(self):
        rough = make_field(
            "checkerboard", {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25)}, seed=3
        )
        f = init_delta((0.0, 0.0), (0.3, 0.3), self.GRID)
        res = evolve(f, rough, self.CFG, 0.25)
        assert abs(res.mass_max - 1.0) < 1e-12 and abs(res.mass_min - 1.0) < 1e-12
        assert res.min_value >= 0.0

    def test_record_every(self):
        f = init_delta((0.0, 0.0), (0.3, 0.3), self.GRID)
        res = evolve(f, CONST, self.CFG, 8 * self.CFG.dt, record_every=4)
        assert res.history.values.shape == (3, 64, 64)  # initial, step 4, step 8
        assert res.history.times.tolist() == pytest.approx([0.0, 4 * self.CFG.dt, 8 * self.CFG.dt])

    def test_span_must_be_step_multiple(self):
        f = init_delta((0.0, 0.0), (0.3, 0.3), self.GRID)
        with pytest.raises(ConfigError):
            evolve(f, CONST, self.CFG, 0.7 * self.CFG.dt)
        with pytest.raises(ConfigError):
            evolve(f, CONST, self.CFG, -0.5)

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_record_every_must_be_positive(self, record_every):
        f = init_delta((0.0, 0.0), (0.3, 0.3), self.GRID)
        with pytest.raises(ConfigError, match="record_every"):
            evolve(f, CONST, self.CFG, 8 * self.CFG.dt, record_every=record_every)
        with pytest.raises(ConfigError, match="record_every"):
            estimate_kernel(
                (0.0, 0.0, 0.0), 0.25, CONST, self.GRID, self.CFG, record_every=record_every
            )


class TestFactorCache:
    GRID = Grid(Lx=3.5, Lv=6.0, Nx=64, Nv=64)
    CFG = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)

    def test_no_hidden_cache_on_the_field(self):
        rough = make_field(
            "checkerboard", {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25)}, seed=3
        )
        before = dict(vars(rough))
        evolve(init_delta((0.0, 0.0), (0.3, 0.3), self.GRID), rough, self.CFG, 0.25)
        estimate_kernel((0.0, 0.0, 0.0), 0.25, rough, self.GRID, self.CFG)
        assert vars(rough) == before

    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        kind=st.sampled_from(["checkerboard", "random-piecewise"]),
        seed=st.integers(0, 2**31 - 1),
        cells=st.tuples(st.floats(0.005, 0.5), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        order=st.sampled_from([1, 3]),
        cfl=st.floats(0.1, 1.0),
        n_steps=st.integers(1, 12),
    )
    def test_shared_cache_is_transparent(self, nx, nv, kind, seed, cells, order, cfl, n_steps):
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        config = SolverConfig(dt=cfl * grid.dx / grid.Lv, transport_order=order)
        rough = make_field(kind, {"cells": cells, "random_origin": True}, seed=seed)
        state = init_delta((0.0, 0.0), (2 * grid.dx, 2 * grid.dv), grid)

        # every slice a batch factors is one time of one call of the run's binding
        sampled = []
        bind = rough.bind

        def counting_bind(x, v):
            *classes, at = bind(x, v)

            def counting_at(ts):
                sampled.extend(rough.time_key(t) for t in ts)
                return at(ts)

            return *classes, counting_at

        rough.bind = counting_bind
        res = evolve(state, rough, config, n_steps * config.dt)
        del rough.bind

        loop = state
        for _ in range(n_steps):
            loop = step(loop, rough, config, stepper=None)
        assert res.field.t == loop.t
        assert res.field.values.tobytes() == loop.values.tobytes()

        # each time slice over the half-step midpoints is factored once; the last batch may
        # factor the slices of fewer than a batch of half steps past the run's end
        keys, t = set(), state.t
        for _ in range(n_steps):
            keys |= {rough.time_key(t + 0.25 * config.dt), rough.time_key(t + 0.75 * config.dt)}
            t = t + config.dt
        assert all(sampled.count(k) == 1 for k in keys)
        assert len(sampled) - len(keys) < Stepper(rough, grid, config).batch

    # time cells of 0.2 to 4 half steps, seen in the run's own time: the dilation maps t to
    # r^2 t, so its base's cells are r^2 times longer
    BATCH_FIELDS = {
        "constant": lambda cells, seed: make_field("constant", {"value": 1.5}),
        "checkerboard": lambda cells, seed: make_field(
            "checkerboard", {"cells": cells, "random_origin": True}, seed=seed
        ),
        "oscillatory": lambda cells, seed: make_field("oscillatory", {"freq_t": float(seed % 2)}),
        "random-piecewise": lambda cells, seed: make_field(
            "random-piecewise", {"cells": cells, "random_origin": True}, seed=seed
        ),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        kind=st.sampled_from(sorted(BATCH_FIELDS)),
        wrap=st.sampled_from(["direct", "dilated", "reversed"]),
        seed=st.integers(0, 2**31 - 1),
        halves=st.floats(0.2, 4.0),
        cells=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        order=st.sampled_from([1, 3]),
        cfl=st.floats(0.1, 1.0),
        budget=st.sampled_from([1, 2**10, 2**13]),
        n_steps=st.integers(1, 12),
    )
    def test_batched_factors_match_the_reference(
        self, nx, nv, kind, wrap, seed, halves, cells, order, cfl, budget, n_steps
    ):
        # every step of a run, against one whose two solves factor the coefficient at their own
        # midpoints with the allocating reference build; a budget of 1 cell makes batches of
        # one slice, and the reversed field's time keys decrease
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        config = SolverConfig(dt=cfl * grid.dx / grid.Lv, transport_order=order)
        r = 1.3 if wrap == "dilated" else 1.0
        field = self.BATCH_FIELDS[kind]((halves * 0.5 * config.dt * r * r, *cells), seed)
        if wrap == "dilated":
            field = dilated_field(field, r)
        elif wrap == "reversed":
            field = reversed_flipped_field(field, 0.7)
        state = init_delta((0.0, 0.0), (2 * grid.dx, 2 * grid.dv), grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_BATCH_CELLS", budget)
            history = evolve(state, field, config, n_steps * config.dt, record_every=1).history
        sweep = Stepper(field, grid, config).sweep
        transport = sweep.ppm if order == 3 else sweep.upwind

        def solve(t, rhs):
            d, e = reference_factor(field, t, grid, 0.5 * config.dt)
            x, info = lapack.dpttrs(d, e, rhs.reshape(-1, 1))
            assert info == 0
            return x.reshape(rhs.shape)

        for t, prev, now in zip(history.times, history.values, history.values[1:]):
            want = solve(t + 0.75 * config.dt, transport(solve(t + 0.25 * config.dt, prev)))
            assert now.tobytes() == want.tobytes()


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        kind=st.sampled_from(["checkerboard", "random-piecewise"]),
        seed=st.integers(0, 2**31 - 1),
        cells=st.tuples(st.floats(0.005, 0.5), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        order=st.sampled_from([1, 3]),
        cfl=st.floats(0.1, 1.0),
        n_steps=st.integers(1, 8),
    )
    def test_random_grids_and_fields(self, nx, nv, kind, seed, cells, order, cfl, n_steps):
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        config = SolverConfig(dt=cfl * grid.dx / grid.Lv, transport_order=order)
        rough = make_field(kind, {"cells": cells, "random_origin": True}, seed=seed)
        state = init_delta((0.0, 0.0), (2 * grid.dx, 2 * grid.dv), grid)

        # the factored solve against dense per-x-row backward-Euler matrices
        t_sub = 0.25 * config.dt
        a = np.broadcast_to(rough.value(t_sub, *grid.meshes()), (nx, nv))
        ah = 2.0 * a[:, :-1] * a[:, 1:] / (a[:, :-1] + a[:, 1:])
        mu = 0.5 * config.dt / grid.dv**2
        j = np.arange(nv)
        dense = np.zeros((nx, nv, nv))
        dense[:, j, j] = 1.0
        dense[:, j[:-1], j[:-1]] += mu * ah
        dense[:, j[1:], j[1:]] += mu * ah
        dense[:, j[:-1], j[1:]] = dense[:, j[1:], j[:-1]] = -mu * ah
        rhs = np.random.default_rng(seed).random((nx, nv))
        want = np.linalg.solve(dense, rhs[..., None])[..., 0]
        got = Stepper(rough, grid, config).solve(t_sub, rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        def run():
            stepper = Stepper(rough, grid, config)
            states = [state]
            for _ in range(n_steps):
                states.append(step(states[-1], rough, config, stepper))
            return states[1:]

        first, second = run(), run()
        for prev, now, again in zip([state] + first, first, second):
            assert abs(now.mass() - prev.mass()) <= 1e-12
            assert now.min() >= 0.0
            # no clamp follows a step, so this also sees a -0.0 that a step made
            assert not np.signbit(now.values).any()
            assert now.values.tobytes() == again.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        cmax=st.floats(0.0, 1.0),
        power=st.integers(1, 6),
        zeros=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**31 - 1),
        cells=st.sampled_from([16, 64, 1000, 2**14]),
        signed_zeros=st.booleans(),
    )
    def test_transport_matches_two_branch_reference(
        self, nx, nv, cmax, power, zeros, seed, cells, signed_zeros
    ):
        # odd nv puts a v = 0 column in the middle; powers and zeroed cells
        # make steep fronts and flat patches that exercise every limiter branch;
        # small row blocks put block seams all over the grid
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        rng = np.random.default_rng(seed)
        f = rng.random((nx, nv)) ** power
        zeroed = rng.random((nx, nv)) < zeros
        f[zeroed] = 0.0
        if signed_zeros:
            f[zeroed & (rng.random((nx, nv)) < 0.5)] = -0.0
        courant = (grid.v_centers * (cmax / grid.Lv))[None, :]
        assert np.abs(courant).max() <= 1.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_SWEEP_CELLS", cells)
            sweep = _Sweep(courant, f.shape)
        for got, want in [(sweep.ppm(f), reference_ppm(f, courant)),
                          (sweep.upwind(f), reference_upwind(f, courant))]:
            if signed_zeros:
                # the mirrored columns may flip the sign of a zero, but only of a -0.0
                # input, and no step makes one
                assert np.array_equal(got, want)
            else:
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        cmax=st.floats(0.0, 1.0),
        power=st.integers(1, 6),
        zeros=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**31 - 1),
        exponent=st.integers(-150, 150),
    )
    def test_transport_is_colella_woodward_to_rounding(self, nx, nv, cmax, power, zeros, seed, exponent):
        # the closed form is Colella & Woodward's face rewrites in exact arithmetic; in floats the
        # two differ by rounding, bounded by the largest |f| that a cell's update reads (rows
        # i - 3 .. i + 3); above about 1e250 the rewrites' d f6 and d d overflow
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        rng = np.random.default_rng(seed)
        f = rng.random((nx, nv)) ** power * 10.0**exponent
        f[rng.random((nx, nv)) < zeros] = 0.0
        courant = (grid.v_centers * (cmax / grid.Lv))[None, :]
        got = _Sweep(courant, f.shape).ppm(f)
        scale = np.max([np.abs(np.roll(f, s, axis=0)) for s in range(-3, 4)], axis=0)
        assert (np.abs(got - reference_ppm_cw84(f, courant)) <= 8 * np.finfo(float).eps * scale).all()

    def test_underflowed_slope_product_is_an_extremum(self):
        # on a ramp of 1e-170 steps dl dr underflows to 0, so, as in the face rewrites' product
        # test, every cell is flattened and each face's flux is its upwind cell: PPM is upwind
        grid = Grid(Lx=2.0, Lv=3.0, Nx=24, Nv=20)
        f = 1e-170 * np.arange(1.0, 25.0)[:, None] * np.ones(20)
        courant = (grid.v_centers * (0.7 / grid.Lv))[None, :]
        sweep = _Sweep(courant, f.shape)
        want = sweep.upwind(f).tobytes()
        assert sweep.ppm(f).tobytes() == want
        assert reference_ppm_cw84(f, courant).tobytes() == want

    WINDOW_FIELDS = {
        "constant": {},
        "checkerboard": {"random_origin": True},
        "random-piecewise": {"cells": (0.05, 0.3, 0.3), "random_origin": True},
    }

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(16, 64),
        nv=st.integers(16, 40),
        kind=st.sampled_from(sorted(WINDOW_FIELDS)),
        seed=st.integers(0, 2**31 - 1),
        order=st.sampled_from([1, 3]),
        cfl=st.floats(0.1, 1.0),
        bumps=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 8)), min_size=1, max_size=2),
        n_steps=st.integers(1, 6),
    )
    def test_step_is_the_full_grid_composition(self, nx, nv, kind, seed, order, cfl, bumps, n_steps):
        # bumps of 2 h + 1 rows anywhere on the grid: off centre, two apart, touching an edge
        # or wrapping across the periodic seam, so the row window is any size or the full grid;
        # the composition runs on a stepper of its own, so a window block that reads a pad or
        # scratch row it never wrote reads another step's data (or, fresh, malloc's garbage)
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        config = SolverConfig(dt=cfl * grid.dx / grid.Lv, transport_order=order)
        field = make_field(kind, self.WINDOW_FIELDS[kind], seed=seed)
        rng = np.random.default_rng(seed)
        f = np.zeros((nx, nv))
        for centre, h in bumps:
            rows = np.arange(-h, h + 1) + int(centre * nx)
            f[rows % nx, nv // 4 : -(nv // 4)] += rng.random((rows.size, nv - 2 * (nv // 4)))
        state = Field(f, 0.0, grid)
        stepper, full = Stepper(field, grid, config), Stepper(field, grid, config)
        sweep = full.sweep.ppm if order == 3 else full.sweep.upwind
        for _ in range(n_steps):
            t, dt = state.t, config.dt
            want = full.solve(t + 0.75 * dt, sweep(full.solve(t + 0.25 * dt, state.values)))
            state = stepper.step(state)
            assert state.values.tobytes() == want.tobytes()

    def test_indefinite_diffusion_matrix_is_solver_error(self, monkeypatch):
        # pttrf handed a negated diagonal (the matrix of a negative half step, which
        # the CFL check keeps out of a stepper) reports a nonpositive pivot (info > 0)
        grid = Grid(Lx=2.0, Lv=3.0, Nx=16, Nv=16)
        real_dpttrf = solver_module.dpttrf
        monkeypatch.setattr(solver_module, "dpttrf", lambda d, e, **kw: real_dpttrf(-d, e, **kw))
        stepper = Stepper(CONST, grid, SolverConfig(dt=0.02))
        with pytest.raises(SolverError, match=r"not positive definite at t=0.0 \(info=1\)"):
            stepper.solve(0.0, np.ones((grid.Nx, grid.Nv)))

    def test_import_leaves_out_scipy_ndimage(self):
        # scipy.ndimage adds tens of MB to every process that imports kolkit, and
        # scipy.linalg's package init about 240 ms and 24 MB (the solver loads
        # only its compiled LAPACK module, and only when a Stepper is built); none
        # of scipy is imported, by the library or the CLI
        for module in ("kolkit", "kolkit.cli"):
            code = f"import sys, {module}; print(sorted({{'scipy', 'scipy.linalg', 'scipy.ndimage'}} & set(sys.modules)))"
            assert run_fresh(code).stdout == "[]\n", module


class TestLapackModule:
    """The solver's dpttrf/dpttrs are scipy.linalg.lapack's, whichever is loaded first."""

    @pytest.mark.parametrize("first, second", [("kolkit", "scipy.linalg.lapack"), ("scipy.linalg.lapack", "kolkit")])
    def test_same_routines_in_either_import_order(self, first, second):
        # the solver's routines load when first read, so "kolkit" reads them here
        load = {"kolkit": "import kolkit.solver; kolkit.solver.dpttrf", "scipy.linalg.lapack": "import scipy.linalg.lapack"}
        code = "\n".join(
            [
                "import numpy as np",
                load[first],
                load[second],
                "from kolkit import solver",
                "from scipy.linalg import lapack",
                inspect.getsource(pttrf_pttrs_bytes),
                "assert pttrf_pttrs_bytes(solver.dpttrf, solver.dpttrs) == pttrf_pttrs_bytes(lapack.dpttrf, lapack.dpttrs)",
            ]
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_same_routines_in_this_process(self):
        ours = pttrf_pttrs_bytes(solver_module.dpttrf, solver_module.dpttrs)
        assert ours == pttrf_pttrs_bytes(lapack.dpttrf, lapack.dpttrs)

    def test_step_is_bit_identical_with_scipy_linalg_routines(self, monkeypatch):
        grid = Grid(Lx=3.5, Lv=6.0, Nx=64, Nv=64)
        config = SolverConfig(dt=1.0 / 64, w0_cells=2.0)
        rough = make_field("checkerboard", {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25)}, seed=3)
        state = init_delta((0.0, 0.0), (0.3, 0.3), grid)
        ours = step(state, rough, config).values
        monkeypatch.setattr(solver_module, "dpttrf", lapack.dpttrf)
        monkeypatch.setattr(solver_module, "dpttrs", lapack.dpttrs)
        assert step(state, rough, config).values.tobytes() == ours.tobytes()

    def test_only_a_stepper_loads_scipy(self):
        # the first Stepper loads _flapack, once, still without scipy.linalg's package init
        code = "\n".join(
            [
                "import sys",
                "from kolkit import solver",
                "from kolkit.coefficients import make_field",
                "assert 'scipy' not in sys.modules and 'dpttrf' not in vars(solver)",
                "loads, load = [], solver._load_flapack",
                "solver._load_flapack = lambda: loads.append(1) or load()",
                "grid, config = solver.Grid(2.0, 3.0, 16, 16), solver.SolverConfig(dt=0.02)",
                "state = solver.init_delta((0.0, 0.0), 0.2, grid)",
                "stepper = solver.Stepper(make_field('constant'), grid, config)",
                "assert loads == [1] and 'scipy' in sys.modules",
                "stepper.step(state)",
                "solver.step(state, stepper.field, config)",
                "assert (stepper.pttrf, stepper.pttrs) == (solver.dpttrf, solver.dpttrs)",
                "assert loads == [1] and 'scipy.linalg' not in sys.modules",
            ]
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_geometry_commands_leave_out_scipy(self, tmp_path):
        # kolkit chain and kolkit trajectories never step, so they never load LAPACK
        for name, cfg in (("chain", {"Xbar": [0.0], "Vbar": [1.0], "k0": 16}), ("trajectories", {"family": "straight"})):
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        code = "\n".join(
            [
                "import os, sys",
                "from kolkit import cli",
                f"os.chdir({str(tmp_path)!r})",
                "for command in ('chain', 'trajectories'):",
                "    assert cli.main([command, '--config', command + '.json', '--out', 'out']) == 0, command",
                "    assert 'scipy' not in sys.modules, command",
            ]
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_missing_extension_names_scipy_version(self, monkeypatch, tmp_path):
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match=re.escape(scipy.__version__) + ".*" + re.escape(str(tmp_path))):
            solver_module._load_flapack()


class TestStepper:
    @pytest.mark.parametrize("order", [1, 3])
    def test_reused_scratch_never_leaks_into_results(self, monkeypatch, order):
        # every field a shared stepper returned must survive the later steps untouched,
        # with one row block or with ten of 4 rows (the last one of a single row)
        grid = Grid(Lx=2.0, Lv=3.0, Nx=37, Nv=29)
        config = SolverConfig(dt=0.9 * grid.dx / grid.Lv, transport_order=order)
        rough = make_field(
            "random-piecewise", {"cells": (0.01, 0.3, 0.3), "random_origin": True}, seed=5
        )
        start = init_delta((0.1, -0.2), (2 * grid.dx, 2 * grid.dv), grid)
        runs = []
        for cells, rows in [(2**14, [37]), (100, [4] * 9 + [1])]:
            monkeypatch.setattr(solver_module, "_SWEEP_CELLS", cells)
            stepper = Stepper(rough, grid, config)
            shared, fresh = [start], [start]
            for _ in range(12):
                shared.append(step(shared[-1], rough, config, stepper))
                fresh.append(step(fresh[-1], rough, config, stepper=None))
            runs.append([u.values.tobytes() for u in shared])

            sweep = stepper.sweep
            scratch = [a for a in vars(sweep).values() if isinstance(a, np.ndarray)] + sweep.scratch
            assert [b - a for a, b, *_ in sweep.blocks] == rows
            # every per-block view lies in one of the sweep's own arrays
            views = [v for blk in sweep.blocks for v in blk[2:]]
            assert all(any(np.shares_memory(v, a) for a in scratch) for v in views)
            # the factor-build arrays of the representative rows, and the factor of every row,
            # which the build expands into the stepper's own (d, e) arrays
            factor = [stepper.ah, stepper.diag, stepper.off, stepper.d, stepper.e]
            d, e = stepper._ld
            assert d is stepper.d and e.base is stepper.e and e.size == d.size - 1
            for prev, now, want in zip(shared, shared[1:], fresh[1:]):
                assert now.t == want.t
                assert now.values.tobytes() == want.values.tobytes()
                assert not np.shares_memory(now.values, prev.values)
                assert not any(np.shares_memory(now.values, a) for a in scratch + factor)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("other", ["field", "grid", "config"])
    def test_stepper_of_another_run_is_config_error(self, other):
        # the factor and the courant row belong to the stepper's own run: a constant field
        # stepped at dt = 1/128 by a stepper built for dt = 1/1024 is off by 0.09 at 64^2
        run = {"field": CONST, "grid": Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64), "config": SolverConfig(dt=1.0 / 128)}
        state = init_delta((0.0, 0.0), 0.3, run["grid"])
        built = {**run, other: {
            "field": make_field("constant", {"value": 2.0}),
            "grid": Grid(Lx=3.5, Lv=6.0, Nx=64, Nv=64),
            "config": SolverConfig(dt=1.0 / 1024),
        }[other]}
        stepper = Stepper(**built)
        with pytest.raises(ConfigError, match="stepper"):
            step(state, run["field"], run["config"], stepper=stepper)
        # equal values name the same run; the field is matched by identity
        same = Stepper(CONST, Grid(**run["grid"].descriptor()), SolverConfig(dt=1.0 / 128))
        want = step(state, CONST, run["config"]).values
        assert step(state, CONST, run["config"], stepper=same).values.tobytes() == want.tobytes()

    # on the grids below dx lies in [0.67, 2], so x-cells of 0.1 are narrower than a grid
    # cell and x-cells of 5 span several, whose rows share one class
    FACTOR_FIELDS = {
        "constant": lambda seed: make_field("constant", {"value": 1.5}),
        "checkerboard": lambda seed: make_field("checkerboard", {"random_origin": True}, seed=seed),
        "random-piecewise, narrow cells": lambda seed: make_field(
            "random-piecewise", {"cells": (0.5, 0.1, 0.25), "random_origin": True}, seed=seed
        ),
        "random-piecewise, wide cells": lambda seed: make_field(
            "random-piecewise", {"cells": (0.5, 5.0, 0.25), "random_origin": True}, seed=seed
        ),
        "random-piecewise, short time cells": lambda seed: make_field(
            "random-piecewise", {"cells": (0.01, 5.0, 0.25), "random_origin": True}, seed=seed
        ),
        "oscillatory": lambda seed: make_field("oscillatory", {"freq_t": 1.0}),
        "oscillatory, freq_x 0": lambda seed: make_field("oscillatory", {"freq_x": 0.0, "freq_t": 1.0}),
        "dilated": lambda seed: dilated_field(
            make_field("random-piecewise", {"cells": (0.5, 5.0, 0.25), "random_origin": True}, seed=seed), 1.3
        ),
        "reversed": lambda seed: reversed_flipped_field(
            make_field("random-piecewise", {"cells": (0.5, 0.1, 0.25), "random_origin": True}, seed=seed), 2.0
        ),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        case=st.sampled_from(sorted(FACTOR_FIELDS)),
        seed=st.integers(0, 2**31 - 1),
        dt_half=st.floats(1e-4, 0.1),
        t_sub=st.floats(-2.0, 2.0),
    )
    def test_factor_matches_allocating_reference(self, nx, nv, case, seed, dt_half, t_sub):
        # every entry of every slice of a batch, down to the -0.0 coupling across each v-wall,
        # over two batches in one stepper; the box is wide enough that dt = 0.2 on 48 cells
        # meets the CFL bound
        grid = Grid(Lx=16.0, Lv=3.0, Nx=nx, Nv=nv)
        field = self.FACTOR_FIELDS[case](seed)
        stepper = Stepper(field, grid, SolverConfig(dt=2.0 * dt_half))
        if case not in ("oscillatory", "random-piecewise, narrow cells", "reversed"):
            assert stepper.rx.size < nx  # the build factors fewer rows than the grid has
        sampled, at = [], stepper.at
        stepper.at = lambda ts: sampled.append(ts.copy()) or at(ts)
        rhs = np.zeros((nx, nv))
        for t in (t_sub, t_sub + 1.0):
            table = stepper._factor_batch(t, field.time_key(t))
            times = sampled[-1]
            assert times[0] == t and len(times) <= stepper.batch
            assert table == {field.time_key(u): j for j, u in enumerate(times)}
            # a solve at each slice's time expands that slice (a None key builds it again)
            stepper._key, stepper._table = None, table
            for u in times:
                stepper.solve(u, rhs)
                got, want = stepper._ld, reference_factor(field, u, grid, dt_half)
                assert [w.tobytes() for w in got] == [w.tobytes() for w in want]
                assert np.signbit(got[1][nv - 1 :: nv]).all()

    @pytest.mark.parametrize("failure", ["nonpositive coefficient", "pttrf"])
    def test_failed_build_empties_the_slot(self, monkeypatch, failure):
        # the bad slice lies inside the batch that the good solve builds, which is cut before
        # it, so the good solve keeps its bytes and the run raises only on reaching the bad
        # slice; a build that raises may have overwritten the factor arrays in part, so the
        # stepper must rebuild even for the slice it held before
        grid = Grid(Lx=2.0, Lv=3.0, Nx=24, Nv=20)
        rough = make_field("random-piecewise", {"cells": (1.0 / 64, 1.0, 0.3)}, seed=5)
        # time slices 16 and 18 of a half step each: the batch at good samples bad at j = 2
        good, bad = 0.25, 0.28125
        rhs = np.random.default_rng(1).random((grid.Nx, grid.Nv))
        config = SolverConfig(dt=1.0 / 32)
        want = Stepper(rough, grid, config).solve(good, rhs)

        builds, bad_slice, real_dpttrf, bind = [], [], solver_module.dpttrf, rough.bind

        def dpttrf(d, e, **kw):
            # the real factorization, in place, with the bad slice's first pivot negated
            builds.append(1)
            if failure == "pttrf" and bad_slice:
                d[bad_slice[0] * stepper.rx.size * grid.Nv] *= -1.0
            return real_dpttrf(d, e, **kw)

        def negated_at_bad(x, v):
            *classes, at = bind(x, v)

            def at_bad(ts):
                # the index of the slice whose time is bad, and, for a nonpositive coefficient,
                # that slice negated
                a = at(ts)
                bad_slice[:] = np.flatnonzero(ts == bad)
                if failure == "nonpositive coefficient":
                    a[bad_slice] *= -1.0
                return a

            return *classes, at_bad

        monkeypatch.setattr(solver_module, "dpttrf", dpttrf)
        monkeypatch.setattr(rough, "bind", negated_at_bad)
        stepper = Stepper(rough, grid, config)
        assert stepper.solve(good, rhs).tobytes() == want.tobytes()
        assert bad_slice == [2] and stepper._table == {16: 0, 17: 1}
        message = {"nonpositive coefficient": r"coefficient is not positive on the grid at t=0\.28125$",
                   "pttrf": r"not positive definite at t=0\.28125 \(info=1\)$"}[failure]
        with pytest.raises(SolverError, match=message):
            stepper.solve(bad, rhs)
        assert stepper._key is None and stepper._table == {}
        n = len(builds)
        assert stepper.solve(good, rhs).tobytes() == want.tobytes()
        assert len(builds) == n + 1


class TestHistory:
    GRID = Grid(Lx=2.0, Lv=3.0, Nx=37, Nv=29)
    CFG = SolverConfig(dt=0.9 * GRID.dx / GRID.Lv, w0_cells=2.0, tail_tol=1.0)
    ROUGH = make_field(
        "random-piecewise", {"cells": (0.01, 0.3, 0.3), "random_origin": True}, seed=5
    )

    @pytest.mark.parametrize(
        "n, every", [(10, 1), (10, 3), (10, 10), (10, 15), (0, 3)], ids=lambda p: str(p)
    )
    def test_history_is_the_recorded_steps(self, n, every):
        start = init_delta((0.1, -0.2), (2 * self.GRID.dx, 2 * self.GRID.dv), self.GRID)
        res = evolve(start, self.ROUGH, self.CFG, start.t + n * self.CFG.dt, record_every=every)

        states = [start]
        for _ in range(n):
            states.append(step(states[-1], self.ROUGH, self.CFG, stepper=None))
        # the initial state, every k-th step, and the final state once
        want = [s for i, s in enumerate(states) if i % every == 0 or i == n]
        hist = res.history
        assert hist.times.tolist() == [s.t for s in want]
        assert hist.times[-1] == res.field.t
        assert hist.values.tobytes() == np.stack([s.values for s in want]).tobytes()
        assert not np.shares_memory(hist.values, start.values)
        assert not np.shares_memory(hist.values, res.field.values)

    def test_no_history_unless_asked(self):
        start = init_delta((0.1, -0.2), (2 * self.GRID.dx, 2 * self.GRID.dv), self.GRID)
        assert evolve(start, self.ROUGH, self.CFG, 4 * self.CFG.dt).history is None
        est = estimate_kernel((0.0, 0.0, 0.0), 4 * self.CFG.dt, self.ROUGH, self.GRID, self.CFG)
        assert est.history is None
        assert est._snapshots == [] and est._snapshot_times == []

    def test_estimate_carries_only_its_fields(self):
        est = estimate_kernel(
            (0.0, 0.0, 0.0), 20 * self.CFG.dt, self.ROUGH, self.GRID, self.CFG, record_every=8
        )
        assert set(vars(est)) == {f.name for f in dataclasses.fields(KernelEstimate)}
        assert isinstance(est.history, SpaceTimeField)
        with pytest.raises(AttributeError):
            est._snapshots = []

    def test_list_views_rebuild_the_history(self):
        est = estimate_kernel(
            (0.0, 0.0, 0.0), 20 * self.CFG.dt, self.ROUGH, self.GRID, self.CFG, record_every=8
        )
        back = SpaceTimeField.from_snapshots(est._snapshots, est._snapshot_times, self.GRID)
        assert back.values.tobytes() == est.history.values.tobytes()
        assert back.times.tobytes() == est.history.times.tobytes()


# a source offset in cells: whole numbers land on cell centers, where the cut bites
CELL_OFFSET = st.one_of(st.integers(-6, 6).map(float), st.floats(-6.0, 6.0))


class TestUpwindDuality:
    FIELDS = {
        "constant": {"value": 1.0},
        "oscillatory": {"freq_t": 1.0},
        "checkerboard": {"random_origin": True},
        "random-piecewise": {"random_origin": True},
    }

    @settings(max_examples=100, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        kind=st.sampled_from(sorted(FIELDS)),
        seed=st.integers(0, 2**31 - 1),
        cells=st.tuples(st.floats(0.005, 0.5), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        cfl=st.floats(0.1, 1.0),
        n_steps=st.integers(4, 32),
        eval_at=st.one_of(
            st.just((0.0, 0.0)), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
        ),
        offsets=st.lists(st.tuples(CELL_OFFSET, CELL_OFFSET), min_size=1, max_size=3),
    )
    def test_exact_on_random_grids_and_fields(
        self, nx, nv, kind, seed, cells, cfl, n_steps, eval_at, offsets
    ):
        # a bump centered on a cell center (the origin when nx is odd) has cells
        # exactly 6 widths out on both sides, where init_delta cuts
        grid = Grid(Lx=3.0, Lv=4.0, Nx=nx, Nv=nv)
        config = SolverConfig(
            dt=cfl * grid.dx / grid.Lv, transport_order=1, w0_cells=2.0, tail_tol=1.0
        )
        params = dict(self.FIELDS[kind])
        if kind in ("checkerboard", "random-piecewise"):
            params["cells"] = cells
        field = make_field(kind, params, seed=seed)

        # bumps of width 2 cells must sit 4 widths inside the box; the sources lie
        # within 6 cells of the evaluation point, so both sides read well above 0
        room = np.array([grid.Lx - 8 * grid.dx, grid.Lv - 8 * grid.dv])
        center = np.array(eval_at) * room
        points = [
            tuple(np.clip(center + np.array(o) * (grid.dx, grid.dv), -room, room)) for o in offsets
        ]
        t0 = 0.25
        res = adjoint_kernel_residual(
            field, points, grid, config, tuple(center), t0=t0, t1=t0 + n_steps * config.dt
        )
        assert res["residual"] < 1e-12


class TestKernelEstimate:
    def test_peak_matches_exact_constant_solution(self):
        grid = Grid(Lx=4.5, Lv=7.0, Nx=128, Nv=128)
        cfg = SolverConfig(dt=1.0 / 128, w0_cells=2.0, tail_tol=1e-4)
        est = estimate_kernel((0.0, 0.0, 0.0), 1.0, CONST, grid, cfg)
        X, V = grid.meshes()
        exact = explicit_kernel_mollified(1.0, 1.0, X, V, *est.w0)
        rel_peak = abs(est.field.values.max() - exact.max()) / exact.max()
        assert rel_peak < 0.05
        assert est.mass_drift < 1e-12
        assert est.boundary_peak_ratio < cfg.tail_tol

    def test_warns_when_box_too_small(self):
        grid = Grid(Lx=2.5, Lv=2.5, Nx=32, Nv=32)
        cfg = SolverConfig(dt=1.0 / 32, w0_cells=2.0)
        with pytest.warns(UserWarning, match="boundary"):
            estimate_kernel((0.0, 0.0, 0.0), 1.0, CONST, grid, cfg)

    def test_source_time_ordering(self):
        grid = Grid(Lx=2.5, Lv=2.5, Nx=32, Nv=32)
        cfg = SolverConfig(dt=1.0 / 32, w0_cells=2.0)
        with pytest.raises(ConfigError):
            estimate_kernel((1.0, 0.0, 0.0), 0.5, CONST, grid, cfg)

    def test_density_interpolates(self):
        grid = Grid(Lx=3.0, Lv=4.0, Nx=48, Nv=48)
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
        est = estimate_kernel((0.0, 0.0, 0.0), 0.25, CONST, grid, cfg)
        X, V = grid.meshes()
        on_centers = est.density(np.broadcast_to(X, (48, 48)), np.broadcast_to(V, (48, 48)))
        assert np.allclose(on_centers, est.field.values, atol=1e-14)


class TestDiagnosticsAndRemollify:
    def test_package_exports_every_module_name(self):
        # the package exports exactly its modules' public names, remollify among solver's
        assert "remollify" in solver_module.__all__
        modules = ("phase_geometry", "profiles", "coefficients", "solver", "nash_g", "chains", "trajectories")
        names = {name for m in modules for name in getattr(kolkit, m).__all__}
        assert sorted(kolkit.__all__) == sorted(names | {"__version__"})
        assert all(getattr(kolkit, name) is not None for name in kolkit.__all__)

    def test_diagnostics_keys(self):
        g = Grid(Lx=3.0, Lv=4.0, Nx=32, Nv=32)
        f = init_delta((0.0, 0.0), 0.3, g)
        d = diagnostics(f)
        assert d["mass"] == pytest.approx(1.0, abs=1e-13)
        assert d["first_moment"] > 0

    def test_remollify_conserves_centered_mass(self):
        g = Grid(Lx=3.0, Lv=4.0, Nx=64, Nv=64)
        f = init_delta((0.0, 0.0), 0.3, g)
        rf = remollify(f, 2.0)
        assert rf.mass() == pytest.approx(f.mass(), abs=1e-9)

    # (16, 16, 5.0) and (16, 24, 9.0) have kernel radii 20 and 36, beyond Nx
    @pytest.mark.parametrize(
        "nx, nv, w0_cells", [(64, 48, 2.0), (17, 33, 2.5), (16, 16, 5.0), (16, 24, 9.0)]
    )
    def test_remollify_is_gaussian_filter(self, nx, nv, w0_cells):
        g = Grid(Lx=1.0, Lv=1.0, Nx=nx, Nv=nv)
        vals = np.random.default_rng(nx * nv).random((nx, nv))
        want = gaussian_filter(vals, sigma=(w0_cells, w0_cells), mode=("wrap", "constant"))
        got = remollify(Field(vals, 0.0, g), w0_cells).values
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestChapmanKolmogorov:
    GRID = Grid(Lx=3.5, Lv=6.0, Nx=64, Nv=64)
    CFG = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)

    def test_degenerate_split_is_pure_smoothing_error(self):
        # t1 == t0: the two-leg run only differs by one remollification.
        # Densities have unit mass, so 2.0 is the largest possible L1 gap;
        # at this coarse grid the smoothing gap sits around 0.27.
        res = chapman_kolmogorov_residual(
            (0.0, 0.0, 0.0), 0.0, 0.0, 0.5, CONST, self.GRID, self.CFG
        )
        assert 0.0 < res < 0.5

    def test_midpoint_split(self):
        res = chapman_kolmogorov_residual(
            (0.0, 0.0, 0.0), 0.0, 0.25, 0.5, CONST, self.GRID, self.CFG
        )
        assert 0.0 < res < 0.5

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            chapman_kolmogorov_residual(
                (0.0, 0.0, 0.0), 0.0, 0.5, 0.5, CONST, self.GRID, self.CFG
            )
        with pytest.raises(ConfigError):
            chapman_kolmogorov_residual(
                (0.1, 0.0, 0.0), 0.0, 0.25, 0.5, CONST, self.GRID, self.CFG
            )


class TestScalingIdentity:
    # dilated box (tau^1.5 Lx, sqrt(tau) Lv) so the two runs share one
    # normalized lattice; equal step counts then reproduce the same
    # floating-point trajectory and the residual is exactly zero.
    TAU = 4.0
    BASE = dict(Lx=3.0, Lv=5.0)

    def grids(self, n):
        gt = Grid(Lx=self.TAU**1.5 * self.BASE["Lx"], Lv=np.sqrt(self.TAU) * self.BASE["Lv"],
                  Nx=n, Nv=n)
        gu = Grid(Lx=self.BASE["Lx"], Lv=self.BASE["Lv"], Nx=n, Nv=n)
        return gt, gu

    def test_matched_steps_exact(self):
        gt, gu = self.grids(96)
        out = scaling_identity_residual(
            CONST, self.TAU,
            gt, SolverConfig(dt=self.TAU / 96, w0_cells=2.0, tail_tol=1.0),
            gu, SolverConfig(dt=1.0 / 96, w0_cells=2.0, tail_tol=1.0),
        )
        assert out["residual"] < 1e-12
        assert out["mass_tau_run"] == pytest.approx(1.0, abs=1e-12)

    def test_desynchronized_steps_small_residual(self):
        # different step counts break the exact match; what is left is a
        # genuine discretization gap and it must stay small
        gt, gu = self.grids(96)
        out = scaling_identity_residual(
            CONST, self.TAU,
            gt, SolverConfig(dt=self.TAU / 96, w0_cells=2.0, tail_tol=1.0),
            gu, SolverConfig(dt=1.0 / 128, w0_cells=2.0, tail_tol=1.0),
        )
        assert 1e-8 < out["residual"] < 0.05
