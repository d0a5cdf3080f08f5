"""Endpoint-linear trajectory families and their measured properties."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolkit.trajectories import (
    PASS_FLAGS,
    TrajectoryFamily,
    check_properties,
    default_r_grid,
    eval_trajectory,
    log_oscillatory_family,
    straight_family,
)

STRAIGHT = straight_family(1.0)
OSC = log_oscillatory_family(1.0)


@pytest.fixture(scope="module")
def straight_report():
    return check_properties(STRAIGHT)


@pytest.fixture(scope="module")
def osc_report():
    return check_properties(OSC)


class TestEvalTrajectory:
    def test_midpoint_oracle(self):
        # T=1, from the origin to (x,v) = (0,1): the quadratic-velocity
        # interpolant passes through (-1/8, -1/4) at r = 1/2
        g = eval_trajectory(STRAIGHT, 0.5, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
        assert g.t == pytest.approx(0.5)
        assert g.x[0] == pytest.approx(-0.125, abs=1e-15)
        assert g.v[0] == pytest.approx(-0.25, abs=1e-15)

    def test_pure_transport_has_constant_velocity(self):
        fam = straight_family(2.0)
        ends = ((0.0, 0.0, 0.7), (2.0, 1.4, 0.7))
        for r in np.linspace(0.0, 1.0, 17):
            g = eval_trajectory(fam, r, ends)
            assert g.v[0] == pytest.approx(0.7, abs=1e-13)
            assert g.x[0] == pytest.approx(1.4 * r, abs=1e-13)

    def test_parameter_range(self):
        ends = ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            eval_trajectory(STRAIGHT, -0.1, ends)
        with pytest.raises(ValueError):
            eval_trajectory(STRAIGHT, 1.1, ends)

    def test_gap_mismatch(self):
        with pytest.raises(ValueError, match="gap"):
            eval_trajectory(STRAIGHT, 0.5, ((0.0, 0.0, 0.0), (2.0, 0.0, 1.0)))


FAMILIES = {
    "straight": lambda T, beta, kappa: straight_family(T),
    "log-oscillatory": lambda T, beta, kappa: log_oscillatory_family(T, beta=beta, kappa=kappa),
}


class TestArrayContract:
    @settings(max_examples=40, deadline=None)
    @given(
        T=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
        beta=st.floats(0.1, 8.0) | st.floats(-8.0, -0.1),
        kappa=st.floats(-2.0, 2.0),
        inner=st.lists(st.floats(0.0, 1.0), max_size=12),
    )
    def test_stack_matches_scalar_calls(self, T, beta, kappa, inner):
        # r-arrays always carry both ends, r = 0 and r = 1
        rs = np.array([0.0, *inner, 1.0])
        for make in FAMILIES.values():
            fam = make(T, beta, kappa)
            for M in (fam.A, fam.B):
                stack = M(rs)
                assert stack.shape == rs.shape + (2, 2)
                assert M(rs.reshape(1, -1)).shape == (1, rs.size, 2, 2)
                for i, r in enumerate(rs):
                    np.testing.assert_array_equal(stack[i], M(r))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_calls_do_not_grow_with_the_grid(self, name):
        fam = FAMILIES[name](1.0, 2.0, 1.0)
        calls = []

        def counted(M):
            def wrapped(r):
                calls.append(r)
                return M(r)

            return wrapped

        counted_fam = dataclasses.replace(fam, A=counted(fam.A), B=counted(fam.B))
        counts = []
        for n in (256, 1024):
            calls.clear()
            check_properties(counted_fam, r_grid=default_r_grid(n))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 200

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_curves_match_a_per_r_loop(self, name):
        fam = FAMILIES[name](1.3, 3.0, 0.5)
        grid = default_r_grid(128)
        rep = check_properties(fam, r_grid=grid)
        det_A = [np.linalg.det(fam.A(r)) for r in grid]
        det_B = [np.linalg.det(fam.B(r)) for r in grid]
        inv_col = [np.linalg.norm(np.linalg.inv(fam.A(r))[:, 1:]) for r in grid]
        np.testing.assert_allclose(rep.curves["det_A"], det_A, rtol=1e-13, atol=0)
        np.testing.assert_allclose(rep.curves["det_B"], det_B, rtol=1e-13, atol=0)
        np.testing.assert_allclose(rep.curves["inv_column_norm"], inv_col, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: straight_family(float("nan")), "time gap T"),
        (lambda: straight_family(float("inf")), "time gap T"),
        (lambda: log_oscillatory_family(1.0, beta=float("inf")), "beta"),
        (lambda: log_oscillatory_family(1.0, beta=float("nan")), "beta"),
        (lambda: log_oscillatory_family(1.0, kappa=float("nan")), "kappa"),
        # 6 / T, 1 / T and 1 / Im(1 / (3/2 + i beta)) overflow, so the matrices are not finite
        (lambda: straight_family(5e-324), "T=5e-324"),
        (lambda: log_oscillatory_family(5e-324), "T=5e-324"),
        (lambda: log_oscillatory_family(1.0, beta=5e-324), "beta=5e-324"),
    ],
    ids=[
        "straight-T-nan",
        "straight-T-inf",
        "osc-beta-inf",
        "osc-beta-nan",
        "osc-kappa-nan",
        "straight-T-subnormal",
        "osc-T-subnormal",
        "osc-beta-subnormal",
    ],
)
def test_non_finite_parameter_rejected(make, named):
    # before check_properties, which would die in PhasePoint on a NaN
    with pytest.raises(ValueError, match=named):
        make()


class TestStraightFamily:
    def test_det_A_is_exactly_r4(self):
        fam = straight_family(1.3)
        for r in default_r_grid(128):
            assert abs(np.linalg.det(fam.A(r)) - r**4) < 1e-12

    def test_endpoint_matrices(self):
        assert np.allclose(STRAIGHT.A(1.0), np.eye(2), atol=1e-15)
        assert np.abs(STRAIGHT.A(0.0)).max() == 0.0
        assert np.allclose(STRAIGHT.B(0.0), np.eye(2), atol=1e-15)
        assert np.abs(STRAIGHT.B(1.0)).max() == 0.0

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            straight_family(0.0)

    def test_report(self, straight_report):
        rep = straight_report
        # the kinetic relation holds to rounding, both readings
        assert rep.kinetic_residual < 1e-8
        assert rep.kinetic_residual_integral < 1e-9
        assert rep.endpoint_errors < 1e-10
        # measured decay rates: faster than critical in the determinant,
        # harder than critical in the inverse column
        assert rep.det_A_exponent == pytest.approx(4.0, abs=0.02)
        assert rep.inv_column_exponent == pytest.approx(-2.0, abs=0.02)
        assert rep.jacobian_exponent == pytest.approx(5.0, abs=0.02)
        f = rep.pass_flags
        assert f["endpoints"] and f["kinetic_relation"] and f["kinetic_relation_integral"]
        assert f["A_endpoint_matrices"] and f["B_endpoint_matrices"]
        assert f["property4"] and f["slope_stable"] and f["B_det_near_zero"]
        # rate targets are recorded as failures, by design
        assert not f["det_A_rate"]
        assert not f["inv_column_rate"]
        assert not f["jacobian_rate"]
        assert not f["critical"]

    def test_pass_flags_are_the_named_tuple(self, straight_report):
        # the CLI checks require_flags against PASS_FLAGS before any run
        assert tuple(straight_report.pass_flags) == PASS_FLAGS

    def test_criticality_exponents_helper(self):
        rep = check_properties(STRAIGHT, r_grid=default_r_grid(256))
        det_slope, inv_slope = rep.det_A_exponent, rep.inv_column_exponent
        assert det_slope == pytest.approx(4.0, abs=0.03)
        assert inv_slope == pytest.approx(-2.0, abs=0.03)


class TestLogOscillatoryFamily:
    def test_construction_guards(self):
        with pytest.raises(ValueError):
            log_oscillatory_family(0.0)
        with pytest.raises(ValueError):
            log_oscillatory_family(1.0, beta=0.0)

    def test_beta_and_kappa_are_keyword_only(self):
        # so a call that passes a dimension as the second argument fails instead of setting beta
        with pytest.raises(TypeError):
            log_oscillatory_family(1.0, 2.0)

    def test_endpoint_matrices(self):
        assert np.allclose(OSC.A(1.0), np.eye(2), atol=1e-12)
        assert np.abs(OSC.A(0.0)).max() < 1e-12
        assert np.allclose(OSC.B(0.0), np.eye(2), atol=1e-12)
        assert np.abs(OSC.B(1.0)).max() < 1e-12

    def test_report(self, osc_report):
        rep = osc_report
        # the closed-form position antiderivative satisfies the kinetic
        # relation; the integral reading confirms it to quadrature accuracy
        assert rep.kinetic_residual_integral < 1e-9
        assert rep.pass_flags["kinetic_relation_integral"]
        # the sqrt(r)-envelope makes the third derivative blow up like
        # r^{-3/2}, so the pointwise FD reading bottoms out above the
        # rounding-level tolerance; it must still sit under a loose
        # truncation envelope
        assert 1e-8 < rep.kinetic_residual < 1e-3
        assert not rep.pass_flags["kinetic_relation"]
        assert rep.endpoint_errors < 1e-10
        # this family does reach both critical decay rates
        assert rep.det_A_exponent == pytest.approx(2.0, abs=0.02)
        assert rep.inv_column_exponent == pytest.approx(-0.5, abs=0.02)
        assert rep.pass_flags["det_A_rate"]
        assert rep.pass_flags["inv_column_rate"]
        assert rep.pass_flags["property4"]
        # but the endpoint Jacobian still factors as r det A, which decays
        # two powers short of the conjectured rate
        assert rep.jacobian_exponent == pytest.approx(1.0 + rep.det_A_exponent, abs=0.05)
        assert not rep.pass_flags["jacobian_rate"]
        assert not rep.pass_flags["critical"]


class TestCheckPlumbing:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_properties(STRAIGHT, r_grid=np.geomspace(1e-6, 1.0, 32))
        with pytest.raises(ValueError):
            check_properties(STRAIGHT, r_grid=np.linspace(0.0, 1.0, 128))

    def test_default_r_grid(self):
        g = default_r_grid()
        assert g.size == 1024
        assert g[0] == pytest.approx(1e-6)
        assert g[-1] == 1.0
        assert np.all(np.diff(g) > 0)
        # the least r_min, where r^4 (det A of the straight family) is the least normal float
        assert default_r_grid(r_min=1.2213386697554620e-77)[0] ** 4 >= np.finfo(float).tiny

    @pytest.mark.parametrize(
        "n, r_min", [(32, 1e-6), (64, 0.0), (64, 0.05), (64, 2.0), (64, 0.009), (1024, 1e-78), (1024, 1e-320)]
    )
    def test_default_r_grid_rejects_out_of_range(self, n, r_min):
        # r_min >= 1e-2 would leave the slope fits without points, and
        # (64, 0.009) leaves them 2; below 1.2e-77 r^4 underflows
        with pytest.raises(ValueError, match="r_min"):
            default_r_grid(n, r_min)

    @pytest.mark.parametrize("r_min", [0.05, 0.2])
    def test_check_properties_rejects_empty_fit_range(self, r_min):
        # a caller's grid with no point at r <= 1e-2 has nothing to fit
        with pytest.raises(ValueError, match="fit range"):
            check_properties(STRAIGHT, r_grid=np.geomspace(r_min, 1.0, 256))

    def test_report_serializes(self, straight_report):
        d = json.loads(json.dumps(straight_report.to_dict()))
        assert d["family"] == "straight"
        assert set(d["pass_flags"]) >= {"critical", "kinetic_relation", "property4"}
        # every field but the two arrays
        assert len(d) == 17 and not {"r_grid", "curves"} & set(d)

    def test_singular_family_warns_instead_of_raising(self):
        dead = TrajectoryFamily(
            name="dead",
            T=1.0,
            A=lambda r: np.zeros((2, 2)),
            B=lambda r: np.eye(2),
        )
        rep = check_properties(dead, r_grid=default_r_grid(128))
        assert rep.warnings  # singular A recorded, not raised
        assert not rep.pass_flags["critical"]
        assert not rep.pass_flags["endpoints"]
