"""Weighted log functional, level sets, and the duality check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from kolkit.coefficients import make_field
from kolkit.nash_g import (
    DomainError,
    GWeight,
    SpaceTimeField,
    adjoint_kernel_residual,
    default_s_grid,
    g_floor_sensitivity,
    g_functional,
    level_set_statistic,
    log_mean_c,
)
from kolkit.solver import ConfigError, Field, Grid, SolverConfig

GRID = Grid(Lx=4.5, Lv=5.0, Nx=64, Nv=64)


def flat(value, grid=GRID, t=0.5):
    return Field(np.full((grid.Nx, grid.Nv), value), t, grid)


def dense_level_set_measures(f, c, s_grid, E, t_window, floor):
    """The dense loop over thresholds that level_set_statistic's one sort per
    snapshot must reproduce bit for bit: the window copied, log and excess of
    every cell, cells outside E set to -inf, and one compare per threshold."""
    grid = f.grid
    X, V = grid.meshes()
    (x_lo, x_hi), (v_lo, v_hi) = E
    in_E = (X >= x_lo) & (X <= x_hi) & (V >= v_lo) & (V <= v_hi)
    keep = (f.times >= t_window[0] - 1e-12) & (f.times <= t_window[1] + 1e-12)
    values, times = f.values[keep], f.times[keep]
    tw = np.ones(1) if times.size == 1 else np.gradient(times)
    excess = np.log(np.maximum(values, floor)) - c
    excess = np.where(in_E[None, :, :], excess, -np.inf)
    measures = np.empty(len(s_grid))
    for i, s in enumerate(s_grid):
        counts = (excess > s).sum(axis=(1, 2))
        measures[i] = float((counts * tw).sum() * grid.cell_volume)
    return measures


class TestGWeight:
    def test_unit_mass(self):
        w = GWeight()
        assert abs(w.values(GRID).sum() * GRID.cell_volume - 1.0) < 1e-3

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            GWeight(R=2.0)  # truncation tail 3.5e-6 is too fat

    @pytest.mark.parametrize("R", [np.nan, -5.0, 0.0, np.inf])
    def test_radius_must_be_positive_and_finite(self, R):
        # R = -5 would truncate at radius 5, and NaN passes the tail check
        with pytest.raises(ValueError, match="positive and finite"):
            GWeight(R=R)

    def test_grid_must_contain_ball(self):
        small = Grid(Lx=3.0, Lv=5.0, Nx=32, Nv=32)
        with pytest.raises(DomainError):
            GWeight().values(small)
        # R^2 overflows; neither the tail check nor the truncation may raise OverflowError
        with pytest.raises(DomainError):
            GWeight(R=1e300).values(GRID)
        # about the widest box whose dx^2 is finite, and a ball in it whose R^2 is not
        huge = Grid(Lx=1e155, Lv=1e155, Nx=16, Nv=16)
        with np.errstate(over="ignore"):  # X^2 + V^2 reads inf on the outer cells of this box
            assert not GWeight(R=1e155).values(huge).any()


class TestGFunctional:
    def test_uniform_one_gives_zero(self):
        assert g_functional(flat(1.0)) == 0.0

    def test_multiplicative_shift(self):
        # G(c f) - G(f) = log(c) * weight mass, any positive f
        rng = np.random.default_rng(11)
        vals = 0.5 + rng.random((64, 64))
        f = Field(vals, 0.5, GRID)
        g = Field(7.5 * vals, 0.5, GRID)
        wmass = GWeight().values(GRID).sum() * GRID.cell_volume
        assert g_functional(g) - g_functional(f) == pytest.approx(
            np.log(7.5) * wmass, rel=1e-12
        )

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            g_functional(Field(np.zeros((64, 64)), 0.5, GRID))

    def test_floor_must_be_positive(self):
        # and finite, NaN included: a NaN floor makes every floored log NaN, so
        # G read NaN and the level-set statistic of a history of e^5 a passing 0.0
        history = SpaceTimeField(np.full((1, 64, 64), np.e**5), np.array([0.5]), GRID)
        for floor in (np.nan, np.inf, 0.0, -1.0):
            for functional in (g_functional, g_floor_sensitivity, log_mean_c):
                with pytest.raises(DomainError, match="log floor must be positive and finite"):
                    functional(flat(1.0), floor=floor)
            with pytest.raises(DomainError, match="log floor must be positive and finite"):
                level_set_statistic(history, c=0.0, floor=floor)

    def test_source_offset_ball(self):
        g_functional(flat(1.0), source_offset=(0.6, 0.8))  # norm exactly 1
        with pytest.raises(DomainError):
            g_functional(flat(1.0), source_offset=(0.8, 0.7))
        # NaN fails every comparison, so the check is written to fail it
        for bad in [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)]:
            with pytest.raises(DomainError, match="source offset norm"):
                g_functional(flat(1.0), source_offset=bad)

    def test_log_mean_c_matches(self):
        rng = np.random.default_rng(12)
        f = Field(0.5 + rng.random((64, 64)), 0.5, GRID)
        assert log_mean_c(f) == g_functional(f)


class TestFloorSensitivity:
    def test_positive_field_is_insensitive(self):
        _, drift = g_floor_sensitivity(flat(0.3), floor=1e-6)
        assert drift == 0.0

    def test_zero_cells_inside_ball_are_felt(self):
        vals = np.full((64, 64), 1.0)
        vals[32, 32] = 0.0  # near the phase-space origin, weight ~ 1
        _, drift = g_floor_sensitivity(Field(vals, 0.5, GRID), floor=1e-6)
        assert drift > 0.0


class TestSpaceTimeField:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeField(np.zeros((2, 64, 64)), np.array([0.0]), GRID)
        with pytest.raises(ValueError):
            SpaceTimeField(np.zeros((2, 64, 64)), np.array([0.5, 0.25]), GRID)
        with pytest.raises(ValueError):
            SpaceTimeField(np.zeros((2, 32, 32)), np.array([0.0, 1.0]), GRID)
        with pytest.raises(ValueError, match="strictly increasing"):
            SpaceTimeField(np.zeros((3, 64, 64)), np.array([0.0, np.nan, 1.0]), GRID)

    def test_window(self):
        st = SpaceTimeField.from_snapshots(
            [np.ones((64, 64))] * 4, [0.0, 0.25, 0.5, 0.75], GRID
        )
        sub = st.window(0.2, 0.6)
        assert sub.times.tolist() == [0.25, 0.5]
        assert np.shares_memory(sub.values, st.values)  # a view, not a copy
        with pytest.raises(DomainError):
            st.window(0.8, 0.9)


class TestLevelSets:
    def test_hand_counted_statistic(self):
        # single snapshot, seven marked cells inside E, thresholds 1,2,4,8
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        vals = np.full((32, 32), 1e-30)
        vals[14:21, 16] = np.e**5  # seven cells at x in E, v ~ 0.125
        st = SpaceTimeField(vals[None, :, :], np.array([0.5]), grid)
        rep = level_set_statistic(st, c=0.0, s_grid=np.array([1.0, 2.0, 4.0, 8.0]))
        cell = grid.cell_volume
        assert rep.measures.tolist() == pytest.approx([7 * cell] * 3 + [0.0])
        assert rep.statistic == pytest.approx(4.0 * 7 * cell)

    def test_cells_outside_E_do_not_count(self):
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        vals = np.full((32, 32), 1e-30)
        vals[0, 0] = np.e**50  # corner cell, far outside E = [-2,2]^2
        st = SpaceTimeField(vals[None, :, :], np.array([0.5]), grid)
        rep = level_set_statistic(st, c=0.0)
        assert rep.statistic == 0.0

    @pytest.mark.parametrize(
        "E, match",
        [
            (((2.0, -2.0), (-2.0, 2.0)), "lo < hi"),
            (((-2.0, 2.0), (2.0, -2.0)), "lo < hi"),
            (((0.125, 0.125), (-2.0, 2.0)), "lo < hi"),  # one centre, but no width
            (((40.0, 50.0), (-2.0, 2.0)), "no cell centre"),
            (((0.13, 0.2), (-2.0, 2.0)), "no cell centre"),  # between centres 0.125 and 0.375
        ],
    )
    def test_box_without_cells_is_a_domain_error(self, E, match):
        # every measure of such a box would read 0, a statistic that passes
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        st = SpaceTimeField(np.full((1, 32, 32), np.e**5), np.array([0.5]), grid)
        with pytest.raises(DomainError, match=match):
            level_set_statistic(st, c=0.0, E=E)

    def test_box_of_one_cell_centre_counts_it(self):
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        st = SpaceTimeField(np.full((1, 32, 32), np.e**5), np.array([0.5]), grid)
        rep = level_set_statistic(st, c=0.0, s_grid=np.array([1.0]), E=((0.1, 0.15), (0.1, 0.15)))
        assert rep.measures.tolist() == [grid.cell_volume]

    def test_time_weights_enter_linearly(self):
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        vals = np.full((32, 32), 1e-30)
        vals[16, 16] = np.e**3
        stack = np.stack([vals, vals, vals])
        st = SpaceTimeField(stack, np.array([0.25, 0.5, 0.75]), grid)
        rep = level_set_statistic(st, c=0.0, s_grid=np.array([2.0]))
        # uniform spacing: every snapshot carries weight 0.25
        assert rep.measures[0] == pytest.approx(3 * 0.25 * grid.cell_volume)

    def test_threshold_validation_and_report_plumbing(self):
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        st = SpaceTimeField(np.ones((1, 32, 32)), np.array([0.5]), grid)
        with pytest.raises(DomainError):
            level_set_statistic(st, c=0.0, s_grid=np.array([0.0, 1.0]))
        with pytest.raises(DomainError, match="no snapshots"):
            level_set_statistic(st, c=0.0, t_window=(0.6, 0.9))
        rep = level_set_statistic(st, c=-2.0)
        assert rep.s_grid.tolist() == default_s_grid().tolist()
        assert rep.measures.size == rep.products().size == default_s_grid().size
        assert rep.statistic == rep.products().max()


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_history_with_a_non_finite_cell_is_rejected(self, bad):
        # an all-NaN history read as a passing statistic of 0
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        values = np.full((2, 32, 32), np.e**5)
        values[1, 16, 16] = bad
        with pytest.raises(ValueError, match="finite"):
            SpaceTimeField(values, np.array([0.25, 0.5]), grid)
        with pytest.raises(ValueError, match="finite"):
            SpaceTimeField(np.full((1, 32, 32), bad), np.array([0.5]), grid)

    @pytest.mark.parametrize(
        "s_grid, c, match",
        [
            ([], 0.0, "thresholds"),
            ([np.nan], 0.0, "thresholds"),
            ([1.0, np.inf], 0.0, "thresholds"),
            ([1.0, 2.0], np.nan, "offset c"),
            ([1.0, 2.0], -np.inf, "offset c"),
        ],
        ids=["empty", "nan", "inf", "c-nan", "c-minus-inf"],
    )
    def test_bad_thresholds_or_offset_are_domain_errors(self, s_grid, c, match):
        # before, [] ended in numpy's zero-size ValueError and the others gave a NaN statistic
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        st = SpaceTimeField(np.full((1, 32, 32), np.e**5), np.array([0.5]), grid)
        with pytest.raises(DomainError, match=match):
            level_set_statistic(st, c=c, s_grid=np.array(s_grid))

    @settings(max_examples=80, deadline=None)
    @given(
        nx=strategies.integers(16, 24),
        nv=strategies.integers(16, 24),
        nt=strategies.integers(1, 12),
        seed=strategies.integers(0, 2**32 - 1),
        c=strategies.floats(-90.0, 5.0),
        floor=strategies.sampled_from([1e-30, 1e-10, 0.5]),
    )
    def test_matches_dense_reference(self, nx, nv, nt, seed, c, floor):
        # pool values repeat, and thresholds are drawn from the excess of cells in
        # the window and E, so cells tie with a threshold (and do not count);
        # cells sit below, at and above the floor
        rng = np.random.default_rng(seed)
        grid = Grid(Lx=4.0, Lv=4.0, Nx=nx, Nv=nv)
        times = np.cumsum(rng.uniform(0.01, 0.2, nt))
        pool = np.array([0.0, -1.0, 0.5 * floor, floor, 1.0, np.e**3])
        values = np.where(
            rng.random((nt, nx, nv)) < 0.5,
            rng.choice(pool, (nt, nx, nv)),
            np.exp(rng.uniform(-90.0, 10.0, (nt, nx, nv))),
        )
        f = SpaceTimeField(values, times, grid)
        i, j = np.sort(rng.integers(0, nt, 2))  # a window of one snapshot when i == j
        t_window = (times[i], times[j])
        ix, iv = np.sort(rng.integers(0, nx, 2)), np.sort(rng.integers(0, nv, 2))
        # box edges on a cell centre or between centres; each axis holds at least one centre
        x, v = grid.x_centers, grid.v_centers
        E = (
            (x[ix[0]] - rng.choice([0.0, 0.3]) * grid.dx, x[ix[1]] + rng.choice([0.0, 0.3]) * grid.dx + (ix[0] == ix[1])),
            (v[iv[0]] - rng.choice([0.0, 0.3]) * grid.dv, v[iv[1]] + rng.choice([0.0, 0.3]) * grid.dv + (iv[0] == iv[1])),
        )
        inside = np.log(np.maximum(values[i : j + 1, ix[0] : ix[1] + 1, iv[0] : iv[1] + 1], floor)) - c
        ties = inside[inside > 0]
        s_grid = np.concatenate([rng.choice(default_s_grid(), 4), rng.choice(ties, min(ties.size, 6))])
        rep = level_set_statistic(f, c=c, s_grid=s_grid, E=E, t_window=t_window, floor=floor)
        want = dense_level_set_measures(f, c, s_grid, E, t_window, floor)
        assert rep.measures.tobytes() == want.tobytes()
        assert rep.statistic == float((s_grid * want).max())


class TestDuality:
    GRID = Grid(Lx=4.5, Lv=6.5, Nx=64, Nv=64)
    POINTS = [(0.3, -0.4), (0.0, 0.5)]

    def test_upwind_scheme_is_exactly_self_dual(self):
        # first-order transport plus the symmetric diffusion factorization
        # give a discrete adjoint identity that holds to rounding even for
        # a rough checkerboard coefficient
        field = make_field(
            "checkerboard", {"values": (0.5, 2.0), "cells": (0.25, 0.25, 0.25)}, seed=3
        )
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, transport_order=1, tail_tol=1.0)
        out = adjoint_kernel_residual(
            field, self.POINTS, self.GRID, cfg, eval_point=(0.2, 0.1)
        )
        assert out["residual"] < 1e-12
        assert out["adjoint_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_ppm_scheme_duality_is_approximate(self):
        # the limiter is nonlinear, so the identity is only approximate;
        # the gap must stay well under the acceptance budget
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
        out = adjoint_kernel_residual(
            make_field("constant", {"value": 1.0}), self.POINTS, self.GRID, cfg
        )
        assert out["residual"] < 5e-2

    def test_reads_that_are_both_zero_agree(self):
        # bumps 3 apart in x (half the period) lie beyond what 4 upwind steps
        # reach, so both reads of the first point are exactly 0
        grid = Grid(Lx=3.0, Lv=5.0, Nx=64, Nv=64)
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, transport_order=1, tail_tol=1.0)
        out = adjoint_kernel_residual(
            make_field("constant"), [(1.5, 0.0), (0.0, 0.0)], grid, cfg,
            eval_point=(-1.5, 0.0), t0=1.0, t1=1.0625,
        )
        assert out["forward"][0] == out["adjoint"][0] == 0.0
        assert out["forward"][1] > 0.0
        assert out["relative_errors"][0] == 0.0
        assert out["residual"] < 1e-12

    def test_time_ordering(self):
        cfg = SolverConfig(dt=1.0 / 64, w0_cells=2.0, tail_tol=1.0)
        with pytest.raises(ConfigError):
            adjoint_kernel_residual(
                make_field("constant"), self.POINTS, self.GRID, cfg, t0=2.0, t1=1.0
            )
