"""Closed-form kernel, its mollified variant, and the envelope fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolkit.phase_geometry import NormalizedGap, PhasePoint, normalize_gap
from kolkit.profiles import (
    FitError,
    ProfileConstants,
    explicit_kernel,
    explicit_kernel_grid,
    explicit_kernel_mollified,
    fit_envelope,
    kinetic_exponent,
    lower_profile,
    upper_profile,
)

PEAK = np.sqrt(3.0) / (2.0 * np.pi)  # on-diagonal value at sigma2 = tau = 1


def wide_lattice(tau, sigma2=1.0, n=1201, spread=10.0):
    # box wide enough that the Gaussian tail is far below quadrature error
    sx = spread * np.sqrt(2 * sigma2 * tau**3 / 3 + 1e-30)
    sv = spread * np.sqrt(2 * sigma2 * tau)
    X = np.linspace(-sx, sx, n)
    V = np.linspace(-sv, sv, n)
    return np.meshgrid(X, V, indexing="ij"), (X[1] - X[0]) * (V[1] - V[0])


class TestExplicitKernel:
    def test_peak_value(self):
        val = explicit_kernel_grid(1.0, 1.0, 0.0, 0.0)
        assert val == pytest.approx(PEAK, rel=1e-14)

    def test_unit_mass(self):
        for tau in (0.25, 1.0, 4.0):
            (X, V), dA = wide_lattice(tau)
            mass = explicit_kernel_grid(1.0, tau, X, V).sum() * dA
            assert abs(mass - 1.0) <= 1e-6

    def test_scaling_identity(self):
        # kernel(r^2 tau, r^3 X, r V) = r^-4 kernel(tau, X, V), exactly
        rng = np.random.default_rng(11)
        for _ in range(200):
            tau = rng.uniform(0.1, 4.0)
            X, V = rng.uniform(-2, 2, 2)
            r = rng.uniform(0.3, 3.0)
            lhs = explicit_kernel_grid(1.0, r**2 * tau, r**3 * X, r * V)
            rhs = explicit_kernel_grid(1.0, tau, X, V) / r**4
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_axis_decay_rates(self):
        # log kernel is logC - 3E along V=0 and logC - E along X=0 at tau=1
        E = np.linspace(0.2, 4.0, 16)
        on_x = np.log(explicit_kernel_grid(1.0, 1.0, np.sqrt(E), 0.0))
        on_v = np.log(explicit_kernel_grid(1.0, 1.0, 0.0, np.sqrt(E)))
        rate_x = -np.polyfit(E, on_x, 1)[0]
        rate_v = -np.polyfit(E, on_v, 1)[0]
        assert rate_x == pytest.approx(3.0, abs=1e-10)
        assert rate_v == pytest.approx(1.0, abs=1e-10)

    def test_point_form_matches_grid_form(self):
        z_from = PhasePoint(0.0, 0.5, -1.0)
        z_to = PhasePoint(2.0, 1.0, 0.5)
        gap = normalize_gap(z_from, z_to)
        a = explicit_kernel(1.3, z_to, z_from)
        b = float(explicit_kernel_grid(1.3, gap.tau, gap.X[0], gap.V[0]))
        assert a == pytest.approx(b, rel=1e-14)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            explicit_kernel_grid(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            explicit_kernel_grid(1.0, -1.0, 0.0, 0.0)


class TestMollifiedKernel:
    def test_narrow_bump_recovers_point_kernel(self):
        X = np.linspace(-2, 2, 41)
        V = np.linspace(-2, 2, 41)[:, None]
        raw = explicit_kernel_grid(1.0, 1.0, X, V)
        mol = explicit_kernel_mollified(1.0, 1.0, X, V, 1e-8, 1e-8)
        assert np.max(np.abs(raw - mol)) <= 1e-10

    def test_covariance_matches_transported_bump(self):
        # quadrature second moments against the closed-form covariance
        tau, w0x, w0v, sigma2 = 0.7, 0.15, 0.25, 1.0
        (X, V), dA = wide_lattice(tau, n=1601, spread=12.0)
        # enlarge for the bump contribution
        X, V = 1.5 * X, 1.5 * V
        dA *= 1.5 * 1.5
        f = explicit_kernel_mollified(sigma2, tau, X, V, w0x, w0v)
        mass = f.sum() * dA
        sxx = (X * X * f).sum() * dA
        sxv = (X * V * f).sum() * dA
        svv = (V * V * f).sum() * dA
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert sxx == pytest.approx(2 * sigma2 * tau**3 / 3 + w0x**2 + tau**2 * w0v**2, rel=1e-6)
        assert sxv == pytest.approx(sigma2 * tau**2 + tau * w0v**2, rel=1e-6)
        assert svv == pytest.approx(2 * sigma2 * tau + w0v**2, rel=1e-6)

    def test_mollified_peak_below_point_peak(self):
        raw = explicit_kernel_grid(1.0, 1.0, 0.0, 0.0)
        mol = explicit_kernel_mollified(1.0, 1.0, 0.0, 0.0, 0.2, 0.2)
        assert 0 < float(mol) < float(raw)


class TestProfileShapes:
    def test_profile_evaluation(self):
        c = ProfileConstants(C0_up=2.0, C1_up=0.5, c0_low=0.1, c1_low=3.0)
        g = NormalizedGap.from_raw(2.0, 1.0, -1.0)
        E = kinetic_exponent(g)
        assert upper_profile(c, g) == pytest.approx(2.0 * 2.0**-2 * np.exp(-0.5 * E))
        assert lower_profile(c, g) == pytest.approx(0.1 * 2.0**-2 * np.exp(-3.0 * E))
        assert c.is_two_sided()

    def test_two_sidedness_requires_rate_ordering(self):
        c = ProfileConstants(C0_up=2.0, C1_up=3.0, c0_low=0.1, c1_low=0.5)
        assert not c.is_two_sided()

    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfileConstants(C0_up=1.0, C1_up=0.0, c0_low=0.1, c1_low=1.0)


def axis_samples(sigma2=1.0, taus=(0.5, 1.0, 2.0)):
    """Exact kernel sampled on both axes plus diagonal points."""
    samples = []
    for tau in taus:
        for u in (0.5, 1.0, 1.5, 2.0):
            X = u * tau**1.5
            V = u * np.sqrt(tau)
            for Xi, Vi in ((X, 0.0), (0.0, V), (X, V), (-X, V)):
                g = NormalizedGap.from_raw(tau, Xi, Vi)
                samples.append((g, float(explicit_kernel_grid(sigma2, tau, Xi, Vi))))
    return samples


class TestFitEnvelope:
    def test_exact_kernel_rates(self):
        rep = fit_envelope(axis_samples(), d=1)
        c = rep.constants
        # axis rates of the closed form are 3 (position) and 1 (velocity)
        assert rep.axis_rates["X"] == pytest.approx(3.0, abs=1e-6)
        assert rep.axis_rates["V"] == pytest.approx(1.0, abs=1e-6)
        assert c.C1_up == pytest.approx(1.0, abs=1e-6)
        assert c.c1_low == pytest.approx(3.0, abs=1e-6)
        assert c.is_two_sided()

    def test_bracket_holds_on_samples(self):
        samples = axis_samples()
        rep = fit_envelope(samples, d=1)
        for g, val in samples:
            lo = lower_profile(rep.constants, g)
            hi = upper_profile(rep.constants, g)
            assert lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        sigma2=st.floats(0.5, 2.0),
        taus=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
        u0=st.floats(0.2, 0.6),
        n_u=st.integers(3, 6),
        noise=st.lists(st.floats(-0.05, 0.05), min_size=54, max_size=54),
    )
    def test_bracket_is_exact_on_random_samples(self, sigma2, taus, u0, n_u, noise):
        # no slack: the fit must bracket its own samples as the profiles
        # evaluate them, to the last bit.  Axis rates are >= 1/sigma2 >= 0.5
        # over an E spread >= 1.4, so the noise cannot make one negative.
        samples = []
        for tau in taus:
            for u in u0 + 0.5 * np.arange(n_u):
                X, V = u * tau**1.5, u * np.sqrt(tau)
                for Xi, Vi in ((X, 0.0), (0.0, V), (X, V)):
                    val = explicit_kernel_grid(sigma2, tau, Xi, Vi) * np.exp(noise[len(samples)])
                    samples.append((NormalizedGap.from_raw(tau, Xi, Vi), float(val)))
        rep = fit_envelope(samples, d=1)
        for g, val in samples:
            assert lower_profile(rep.constants, g) <= val <= upper_profile(rep.constants, g)

    def test_needs_eight_samples(self):
        with pytest.raises(ValueError):
            fit_envelope(axis_samples()[:7], d=1)

    def test_rejects_nonpositive_values(self):
        samples = axis_samples()
        g, _ = samples[0]
        samples[0] = (g, 0.0)
        with pytest.raises(ValueError):
            fit_envelope(samples, d=1)

    def test_degenerate_exponents_rejected(self):
        # all samples share one E value: no rate is identifiable
        g = NormalizedGap.from_raw(1.0, 1.0, 0.0)
        with pytest.raises(FitError):
            fit_envelope([(g, 0.1)] * 10, d=1)
