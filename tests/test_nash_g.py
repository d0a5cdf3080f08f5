"""Weighted log functional, level sets, good sets, and the duality check."""

import numpy as np
import pytest

from kolkit.coefficients import make_field
from kolkit.nash_g import (
    DomainError,
    GoodSetMeasures,
    GWeight,
    SpaceTimeField,
    adjoint_kernel_residual,
    default_s_grid,
    g_floor_sensitivity,
    g_functional,
    good_set_measures,
    level_set_statistic,
    log_mean_c,
    mass_in_ball,
)
from kolkit.solver import ConfigError, Field, Grid, SolverConfig

GRID = Grid(Lx=4.5, Lv=5.0, Nx=64, Nv=64)


def flat(value, grid=GRID, t=0.5):
    return Field(np.full((grid.Nx, grid.Nv), value), t, grid)


class TestGWeight:
    def test_unit_mass(self):
        w = GWeight()
        assert abs(w.mass(GRID) - 1.0) < 1e-3

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            GWeight(R=2.0)  # truncation tail 3.5e-6 is too fat

    def test_grid_must_contain_ball(self):
        small = Grid(Lx=3.0, Lv=5.0, Nx=32, Nv=32)
        with pytest.raises(DomainError):
            GWeight().values(small)


class TestGFunctional:
    def test_uniform_one_gives_zero(self):
        assert g_functional(flat(1.0)) == 0.0

    def test_multiplicative_shift(self):
        # G(c f) - G(f) = log(c) * weight mass, any positive f
        rng = np.random.default_rng(11)
        vals = 0.5 + rng.random((64, 64))
        f = Field(vals, 0.5, GRID)
        g = Field(7.5 * vals, 0.5, GRID)
        wmass = GWeight().mass(GRID)
        assert g_functional(g) - g_functional(f) == pytest.approx(
            np.log(7.5) * wmass, rel=1e-12
        )

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            g_functional(Field(np.zeros((64, 64)), 0.5, GRID))

    def test_floor_must_be_positive(self):
        with pytest.raises(DomainError):
            g_functional(flat(1.0), floor=0.0)

    def test_source_offset_ball(self):
        g_functional(flat(1.0), source_offset=(0.6, 0.8))  # norm exactly 1
        with pytest.raises(DomainError):
            g_functional(flat(1.0), source_offset=(0.8, 0.7))

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

    def test_window(self):
        st = SpaceTimeField.from_snapshots(
            [np.ones((64, 64))] * 4, [0.0, 0.25, 0.5, 0.75], GRID
        )
        sub = st.window(0.2, 0.6)
        assert sub.times.tolist() == [0.25, 0.5]
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

    def test_time_weights_enter_linearly(self):
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        vals = np.full((32, 32), 1e-30)
        vals[16, 16] = np.e**3
        stack = np.stack([vals, vals, vals])
        st = SpaceTimeField(stack, np.array([0.25, 0.5, 0.75]), grid)
        rep = level_set_statistic(st, c=0.0, s_grid=np.array([2.0]))
        # uniform spacing: every snapshot carries weight 0.25
        assert rep.measures[0] == pytest.approx(3 * 0.25 * grid.cell_volume)

    def test_threshold_validation_and_report_plumbing(self, tmp_path):
        grid = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)
        st = SpaceTimeField(np.ones((1, 32, 32)), np.array([0.5]), grid)
        with pytest.raises(DomainError):
            level_set_statistic(st, c=0.0, s_grid=np.array([0.0, 1.0]))
        rep = level_set_statistic(st, c=-2.0)
        d = rep.to_dict()
        assert set(d) >= {"c_f", "statistic", "curve", "E", "t_window"}
        p = tmp_path / "curve.csv"
        rep.curve_csv(p)
        assert p.read_text().startswith("s,measure,s_times_measure")
        assert len(np.loadtxt(p, delimiter=",", skiprows=1)) == default_s_grid().size


class TestGoodSets:
    GRID32 = Grid(Lx=4.0, Lv=4.0, Nx=32, Nv=32)

    def test_hand_counted_measures(self):
        vals = np.full((32, 32), 1e-30)
        vals[16, 16] = np.e**1.0
        vals[16, 17] = np.e**2.0
        vals[17, 16] = np.e**3.0
        vals[17, 17] = np.e**4.0
        st = SpaceTimeField(vals[None, :, :], np.array([0.5]), self.GRID32)
        m = good_set_measures(st, eta=0.5, S=2.5, G1=0.0, ball_radius=2.0)
        cell = self.GRID32.cell_volume
        assert m.omega == pytest.approx(4 * cell)
        assert m.omega_S == pytest.approx(2 * cell)  # logs 1,2 pass the cap
        assert m.smallest_S_half == pytest.approx(2.0)

    def test_empty_good_set(self):
        st = SpaceTimeField(np.full((1, 32, 32), 1e-30), np.array([0.5]), self.GRID32)
        m = good_set_measures(st, eta=0.5, S=1.0, G1=0.0, ball_radius=2.0)
        assert m.omega == 0.0 and m.omega_S == 0.0
        assert m.smallest_S_half is None

    def test_eta_validation_and_cap_guard(self):
        st = SpaceTimeField(np.ones((1, 32, 32)), np.array([0.5]), self.GRID32)
        with pytest.raises(DomainError):
            good_set_measures(st, eta=0.0, S=1.0, G1=0.0, ball_radius=2.0)
        with pytest.raises(ValueError):
            GoodSetMeasures(omega=1.0, omega_S=2.0, S=1.0, smallest_S_half=None)


class TestMassInBall:
    def test_uniform_density(self):
        f = flat(1.0)
        area = np.pi * 4.0
        assert abs(mass_in_ball(f, 2.0) - area) < 0.5  # cell-counting area
        assert mass_in_ball(f, 1.0) < mass_in_ball(f, 2.0)
        # radius beyond the box diagonal captures everything
        assert mass_in_ball(f, 10.0) == pytest.approx(f.mass())


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
