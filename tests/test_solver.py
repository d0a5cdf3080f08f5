"""Finite-volume solver: validation, conservation, kernel estimates."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import gaussian_filter

import kolkit
from kolkit.coefficients import make_field
from kolkit.nash_g import adjoint_kernel_residual
from kolkit.profiles import explicit_kernel_mollified
from kolkit.solver import (
    _diffusion_factor,
    _FactorCache,
    _transport_ppm,
    _transport_upwind,
    ConfigError,
    Field,
    Grid,
    KernelEstimate,
    SolverConfig,
    SolverError,
    SpaceTimeField,
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


def reference_ppm(f, courant):
    """The two-branch PPM sweep that the one-branch sweep must reproduce bit for bit."""
    fm1 = np.roll(f, 1, axis=0)
    fm2 = np.roll(f, 2, axis=0)
    fp1 = np.roll(f, -1, axis=0)
    e = (7.0 * (fm1 + f) - (fm2 + fp1)) / 12.0
    e = np.clip(e, np.minimum(fm1, f), np.maximum(fm1, f))
    fl = e
    fr = np.roll(e, -1, axis=0)

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


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.01, transport_order=2)
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.01, w0_cells=1.0)

    def test_cfl_enforced_at_step(self):
        g = Grid(Lx=3.0, Lv=6.0, Nx=64, Nv=64)
        f = init_delta((0.0, 0.0), 0.3, g)
        # dx/Lv = 0.015625 here
        with pytest.raises(ConfigError, match="CFL"):
            step(f, CONST, SolverConfig(dt=0.05))


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

        builds = 0
        value = rough.value

        def counting_value(*args):
            nonlocal builds
            builds += 1
            return value(*args)

        rough.value = counting_value
        res = evolve(state, rough, config, n_steps * config.dt)
        rough.value = value

        loop = state
        for _ in range(n_steps):
            loop = step(loop, rough, config, factors=None)
        assert res.field.t == loop.t
        assert res.field.values.tobytes() == loop.values.tobytes()

        # one build per change of time slice over the half-step midpoints
        keys, t = [], state.t
        for _ in range(n_steps):
            keys += [rough.time_key(t + 0.25 * config.dt), rough.time_key(t + 0.75 * config.dt)]
            t = t + config.dt
        changes = sum(i == 0 or k != keys[i - 1] for i, k in enumerate(keys))
        assert builds == changes


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
        got = _FactorCache(rough, grid, 0.5 * config.dt).solve(t_sub, rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        def run():
            factors = _FactorCache(rough, grid, 0.5 * config.dt)
            states = [state]
            for _ in range(n_steps):
                states.append(step(states[-1], rough, config, factors))
            return states[1:]

        first, second = run(), run()
        for prev, now, again in zip([state] + first, first, second):
            assert abs(now.mass() - prev.mass()) <= 1e-12
            assert now.min() >= 0.0
            assert now.values.tobytes() == again.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(16, 48),
        nv=st.integers(16, 48),
        cmax=st.floats(0.0, 1.0),
        power=st.integers(1, 6),
        zeros=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_transport_matches_two_branch_reference(self, nx, nv, cmax, power, zeros, seed):
        # odd nv puts a v = 0 column in the middle; powers and zeroed cells
        # make steep fronts and flat patches that exercise every limiter branch
        grid = Grid(Lx=2.0, Lv=3.0, Nx=nx, Nv=nv)
        rng = np.random.default_rng(seed)
        f = rng.random((nx, nv)) ** power
        f[rng.random((nx, nv)) < zeros] = 0.0
        courant = (grid.v_centers * (cmax / grid.Lv))[None, :]
        assert np.abs(courant).max() <= 1.0
        assert np.array_equal(_transport_ppm(f, courant), reference_ppm(f, courant))
        assert np.array_equal(_transport_upwind(f, courant), reference_upwind(f, courant))

    def test_indefinite_diffusion_matrix_is_solver_error(self):
        # a negative half step makes the backward-Euler matrix indefinite,
        # so pttrf reports a nonpositive pivot (info > 0)
        grid = Grid(Lx=2.0, Lv=3.0, Nx=16, Nv=16)
        with pytest.raises(SolverError, match="not positive definite"):
            _diffusion_factor(CONST, 0.0, grid, -1.0)

    def test_import_leaves_out_scipy_ndimage(self):
        # scipy.ndimage adds tens of MB to every process that imports kolkit
        src = os.path.dirname(os.path.dirname(kolkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, kolkit; sys.exit('scipy.ndimage' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestStepper:
    @pytest.mark.parametrize("order", [1, 3])
    def test_reused_scratch_never_leaks_into_results(self, order):
        # every field a shared stepper returned must survive the later steps untouched
        grid = Grid(Lx=2.0, Lv=3.0, Nx=37, Nv=29)
        config = SolverConfig(dt=0.9 * grid.dx / grid.Lv, transport_order=order)
        rough = make_field(
            "random-piecewise", {"cells": (0.01, 0.3, 0.3), "random_origin": True}, seed=5
        )
        start = init_delta((0.1, -0.2), (2 * grid.dx, 2 * grid.dv), grid)
        factors = _FactorCache(rough, grid, 0.5 * config.dt)
        shared, fresh = [start], [start]
        for _ in range(12):
            shared.append(step(shared[-1], rough, config, factors))
            fresh.append(step(fresh[-1], rough, config, factors=None))

        scratch = [a for a in vars(factors.sweep).values() if isinstance(a, np.ndarray)]
        assert len(scratch) >= 10
        for prev, now, want in zip(shared, shared[1:], fresh[1:]):
            assert now.t == want.t
            assert now.values.tobytes() == want.values.tobytes()
            assert not np.shares_memory(now.values, prev.values)
            assert not any(np.shares_memory(now.values, a) for a in scratch)


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
            states.append(step(states[-1], self.ROUGH, self.CFG, factors=None))
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

    def test_save_npy_roundtrip(self, tmp_path):
        grid = Grid(Lx=3.0, Lv=4.0, Nx=32, Nv=32)
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
        est = estimate_kernel((0.0, 0.0, 0.0), 0.25, CONST, grid, cfg)
        prefix = tmp_path / "kern"
        est.save(prefix)
        back = np.load(str(prefix) + ".npy")
        assert np.array_equal(back, est.field.values)
        side = json.loads((tmp_path / "kern.json").read_text())
        assert side["format"] == "npy"
        assert side["source"] == [0.0, 0.0, 0.0]
        assert side["grid"]["Nx"] == 32
        assert "mass_drift" in side and "coefficient" in side

    def test_save_csv_and_bad_format(self, tmp_path):
        grid = Grid(Lx=3.0, Lv=4.0, Nx=32, Nv=32)
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
        est = estimate_kernel((0.0, 0.0, 0.0), 0.25, CONST, grid, cfg)
        est.save(tmp_path / "k", fmt="csv")
        back = np.loadtxt(tmp_path / "k.csv", delimiter=",")
        assert np.allclose(back, est.field.values, rtol=1e-15, atol=0)
        with pytest.raises(ValueError):
            est.save(tmp_path / "k", fmt="parquet")

    def test_density_interpolates(self):
        grid = Grid(Lx=3.0, Lv=4.0, Nx=48, Nv=48)
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
        est = estimate_kernel((0.0, 0.0, 0.0), 0.25, CONST, grid, cfg)
        X, V = grid.meshes()
        on_centers = est.density(np.broadcast_to(X, (48, 48)), np.broadcast_to(V, (48, 48)))
        assert np.allclose(on_centers, est.field.values, atol=1e-14)


class TestDiagnosticsAndRemollify:
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
