"""Exact algebra on phase space.

Everything here is pure float arithmetic, so tolerances are a few ulps of
the coordinate scale, not discretization budgets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolkit.phase_geometry import (
    NormalizedGap,
    PhasePoint,
    compose,
    inverse,
    normalize_gap,
    scale_point,
)
from kolkit.profiles import kinetic_exponent

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
ratio = st.floats(min_value=1.0 / 3.0, max_value=3.0, allow_nan=False)


def pt(t, x, v):
    return PhasePoint(t=t, x=x, v=v)


points = st.builds(pt, coord, coord, coord)


def close(z1, z2, tol=1e-12):
    return (
        abs(z1.t - z2.t) <= tol
        and np.all(np.abs(z1.x - z2.x) <= tol)
        and np.all(np.abs(z1.v - z2.v) <= tol)
    )


class TestGroupLaw:
    def test_worked_composition(self):
        z = compose(pt(1.0, 0.0, 1.0), pt(1.0, 3.0, 0.0))
        assert (z.t, z.x[0], z.v[0]) == (2.0, 4.0, 1.0)

    def test_worked_dilation_of_composition(self):
        # both sides of the dilation homomorphism land on (8, 32, 2)
        z1, z2 = pt(1.0, 0.0, 1.0), pt(1.0, 3.0, 0.0)
        left = scale_point(2.0, compose(z1, z2))
        right = compose(scale_point(2.0, z1), scale_point(2.0, z2))
        for z in (left, right):
            assert (z.t, z.x[0], z.v[0]) == (8.0, 32.0, 2.0)

    def test_not_commutative(self):
        z1, z2 = pt(1.0, 0.0, 1.0), pt(1.0, 3.0, 0.0)
        a, b = compose(z1, z2), compose(z2, z1)
        assert a.x[0] != b.x[0]

    @given(points)
    def test_identity_element(self, z):
        e = pt(0.0, 0.0, 0.0)
        assert close(compose(z, e), z, tol=0.0)
        assert close(compose(e, z), z, tol=0.0)

    @given(points, points, points)
    def test_associativity(self, z1, z2, z3):
        assert close(compose(compose(z1, z2), z3), compose(z1, compose(z2, z3)))

    @given(points)
    def test_inverse_two_sided(self, z):
        origin = pt(0.0, 0.0, 0.0)
        assert close(compose(z, inverse(z)), origin)
        assert close(compose(inverse(z), z), origin)

    @given(points, points)
    def test_inverse_antihomomorphism(self, z1, z2):
        # (z1 o z2)^-1 = z2^-1 o z1^-1
        assert close(inverse(compose(z1, z2)), compose(inverse(z2), inverse(z1)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(pt(0.0, 0.0, 0.0), PhasePoint(0.0, [0.0, 0.0], [0.0, 0.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pt(np.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            pt(0.0, np.inf, 0.0)


class TestDilations:
    @given(ratio, points, points)
    def test_homomorphism(self, r, z1, z2):
        left = scale_point(r, compose(z1, z2))
        right = compose(scale_point(r, z1), scale_point(r, z2))
        assert close(left, right, tol=1e-12)

    @given(ratio, ratio, points)
    def test_scale_composition(self, r1, r2, z):
        assert close(scale_point(r1, scale_point(r2, z)), scale_point(r1 * r2, z))

    @given(points)
    def test_unit_scale_is_identity(self, z):
        assert close(scale_point(1.0, z), z, tol=0.0)

    def test_nonpositive_scale_rejected(self):
        for r in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                scale_point(r, pt(1.0, 1.0, 1.0))


class TestNormalizedGap:
    def test_transported_difference(self):
        # X subtracts the free-streaming drift of the source velocity
        g = normalize_gap(pt(0.0, 1.0, 2.0), pt(4.0, 1.0, 2.0))
        assert g.tau == 4.0
        assert g.X[0] == pytest.approx(-8.0, abs=0.0)  # 1 - 1 - 4*2
        assert g.V[0] == 0.0

    @given(points, points, points, ratio)
    def test_left_translation_invariance(self, g, z1, z2, tau):
        # the gap of a pair is unchanged by composing both with g on the left
        z2 = pt(z1.t + tau, z2.x, z2.v)
        a = normalize_gap(z1, z2)
        b = normalize_gap(compose(g, z1), compose(g, z2))
        assert a.tau == pytest.approx(b.tau, abs=1e-12)
        assert np.all(np.abs(a.X - b.X) <= 1e-12)
        assert np.all(np.abs(a.V - b.V) <= 1e-12)

    @given(points, points, ratio)
    def test_gap_matches_group_normalization(self, z1, z2, tau):
        # NormalizedGap agrees with scale_point(tau^-1/2, z1^-1 o z2)
        z2 = pt(z1.t + tau, z2.x, z2.v)
        g = normalize_gap(z1, z2)
        w = compose(inverse(z1), z2)
        scaled = scale_point(g.tau ** -0.5, w)
        assert scaled.t == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(scaled.x - g.Xbar) <= 1e-11 * max(1.0, np.abs(g.Xbar).max()))
        assert np.all(np.abs(scaled.v - g.Vbar) <= 1e-11 * max(1.0, np.abs(g.Vbar).max()))

    def test_zero_or_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            normalize_gap(pt(1.0, 0.0, 0.0), pt(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            normalize_gap(pt(2.0, 0.0, 0.0), pt(1.0, 1.0, 1.0))

    def test_from_raw_consistency_guard(self):
        # Xbar and Vbar are computed from X and V, so they cannot disagree with them
        g = NormalizedGap.from_raw(4.0, 8.0, 2.0)
        assert g.Xbar.tolist() == [1.0] and g.Vbar.tolist() == [1.0]
        with pytest.raises(TypeError):
            NormalizedGap(tau=4.0, X=[8.0], V=[2.0], Xbar=[2.0], Vbar=[1.0])

    def test_x_and_v_must_share_a_dimension(self):
        with pytest.raises(ValueError, match=r"\(2,\) vs \(1,\)"):
            NormalizedGap.from_raw(1.0, [1.0, 2.0], [3.0])
        with pytest.raises(ValueError, match=r"\(1,\) vs \(3,\)"):
            NormalizedGap(tau=1.0, X=1.0, V=[1.0, 2.0, 3.0])

    @given(ratio, coord, coord)
    def test_kinetic_exponent_scale_invariant(self, tau, x, v):
        # E depends only on the scale-free representation
        g = NormalizedGap.from_raw(tau, x, v)
        unit = NormalizedGap.from_raw(1.0, g.Xbar, g.Vbar)
        assert kinetic_exponent(g) == pytest.approx(kinetic_exponent(unit), rel=1e-12)
