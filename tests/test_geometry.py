from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from motlaser import geometry
from motlaser.config import default_config
from motlaser.errors import QuantizationAxisError
from motlaser.gain import UNIT_CALIBRATION, detuning_map
from motlaser.geometry import (cavity_emission_jones, classify_jones,
                               family_coupling, family_peak_ratio,
                               jones_circular, jones_linear,
                               mode_overlap_fraction,
                               pump_excitation_weights,
                               transverse_mode_frequency)

X, Y, Z = np.eye(3)
# every object is built from the default configuration, as the CLI builds it
CFG = default_config()


# ---------------------------------------------------------------------------
# Pump excitation weights
# ---------------------------------------------------------------------------

class TestPumpWeights:
    def test_pi_for_field_along_polarization(self):
        w = pump_excitation_weights(jones_linear(0.0), X)
        assert np.allclose(w, (0.0, 1.0, 0.0), atol=1e-12)

    def test_sigma_pair_for_perpendicular_linear(self):
        w = pump_excitation_weights(jones_linear(90.0), X)
        assert np.allclose(w, (0.5, 0.0, 0.5), atol=1e-12)

    def test_circular_pump_axial_field(self):
        # spherical-basis oracle: circular light propagating along z with
        # the field along x splits (1/4, 1/2, 1/4)
        w = pump_excitation_weights(jones_circular(1), X)
        assert np.allclose(w, (0.25, 0.5, 0.25), atol=1e-12)

    def test_diagonal_polarization(self):
        w = pump_excitation_weights(jones_linear(45.0), X)
        assert w[1] == pytest.approx(0.5)
        assert w[0] == pytest.approx(0.25)
        assert w[2] == pytest.approx(0.25)

    @given(st.floats(0, 2 * np.pi), st.floats(0, np.pi), st.floats(0, 2 * np.pi),
           st.floats(0, 2 * np.pi))
    @settings(max_examples=60)
    def test_weights_sum_to_one_and_phase_invariant(self, pol_angle, theta,
                                                    phi, global_phase):
        jones = (np.cos(pol_angle) + 0j, np.sin(pol_angle) * np.exp(0.7j))
        norm = np.sqrt(abs(jones[0])**2 + abs(jones[1])**2)
        jones = (jones[0] / norm, jones[1] / norm)
        b = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi), np.cos(theta)])
        if np.linalg.norm(b) < 1e-9:
            b = np.array([1.0, 0.0, 0.0])
        w = pump_excitation_weights(jones, b)
        assert sum(w) == pytest.approx(1.0, abs=1e-9)
        rotated = tuple(np.exp(1j * global_phase) * np.asarray(jones))
        w2 = pump_excitation_weights(rotated, b)
        assert np.allclose(w, w2, atol=1e-9)

    def test_zero_field_rejected(self):
        with pytest.raises(QuantizationAxisError):
            pump_excitation_weights(jones_linear(0.0), (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Emission into the cavity
# ---------------------------------------------------------------------------

class TestCavityEmission:
    def test_field_along_axis(self):
        label_m, s_m = cavity_emission_jones(-1, X)
        label_p, s_p = cavity_emission_jones(1, X)
        label_0, s_0 = cavity_emission_jones(0, X)
        assert label_m.kind == "R" and label_p.kind == "L"
        assert s_m == pytest.approx(1.0) and s_p == pytest.approx(1.0)
        assert label_0.kind == "none" and s_0 == 0.0

    def test_field_vertical(self):
        for m in (-1, 1):
            label, strength = cavity_emission_jones(m, Z)
            assert label.kind == "H"
            assert strength == pytest.approx(0.5)
        label0, s0 = cavity_emission_jones(0, Z)
        assert label0.kind == "V" and s0 == pytest.approx(1.0)

    def test_field_along_y(self):
        for m in (-1, 1):
            label, strength = cavity_emission_jones(m, Y)
            assert label.kind == "V"
            assert strength == pytest.approx(0.5)
        label0, s0 = cavity_emission_jones(0, Y)
        assert label0.kind == "H" and s0 == pytest.approx(1.0)

    def test_strength_angle_dependence(self):
        # dipole-radiation oracle: sin^2 for pi, (1+cos^2)/2 for sigma
        for theta in np.linspace(0.05, np.pi / 2, 9):
            b = np.array([np.cos(theta), 0.0, np.sin(theta)])
            _, s_pi = cavity_emission_jones(0, b)
            _, s_sigma = cavity_emission_jones(1, b)
            assert s_pi == pytest.approx(np.sin(theta) ** 2, abs=1e-9)
            assert s_sigma == pytest.approx((1 + np.cos(theta) ** 2) / 2,
                                            abs=1e-9)

    def test_total_radiated_power_equal_per_channel(self):
        # integrating the angular patterns over the sphere must give the
        # same total for pi and sigma (each channel radiates Gamma)
        pi_total = quad(lambda t: np.sin(t) ** 2 * np.sin(t), 0, np.pi)[0]
        sigma_total = quad(lambda t: (1 + np.cos(t) ** 2) / 2 * np.sin(t),
                           0, np.pi)[0]
        assert pi_total == pytest.approx(sigma_total, rel=1e-9)

    def test_intermediate_angle_elliptical(self):
        b = np.array([np.cos(0.6), 0.0, np.sin(0.6)])
        label, _ = cavity_emission_jones(1, b)
        assert label.kind == "elliptical"

    def test_classify_round_trip(self):
        # the (H, V) Jones pairs of the four pure labels
        for jones, kind in ((jones_linear(0.0), "H"), (jones_linear(90.0), "V"),
                            (jones_circular(1), "L"),
                            (jones_circular(-1), "R")):
            assert classify_jones(jones).kind == kind


# ---------------------------------------------------------------------------
# Mode overlap and family ladder
# ---------------------------------------------------------------------------

class TestModeOverlap:
    ensemble = CFG.ensemble()
    cavity = CFG.cavity()

    def test_fundamental_matches_gaussian_oracle(self):
        w, sig = self.cavity.waist_radius, self.ensemble.cloud_radius_rms
        oracle = w**2 / (w**2 + 4 * sig**2)
        got = mode_overlap_fraction(self.ensemble, self.cavity, 0)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_default_fraction_bracket(self):
        frac = mode_overlap_fraction(self.ensemble, self.cavity, 0)
        assert 1e-3 <= frac <= 1e-2

    def test_huge_waist_limit(self):
        wide = replace(self.cavity, waist_radius=0.5)
        assert mode_overlap_fraction(self.ensemble, wide, 0) == \
            pytest.approx(1.0, rel=1e-4)

    def test_higher_family_covers_more_atoms(self):
        f0 = mode_overlap_fraction(self.ensemble, self.cavity, 0)
        f37 = mode_overlap_fraction(self.ensemble, self.cavity, 37)
        assert f37 > f0

    def test_family_sum_radially_symmetric(self):
        # independent 2D check for a small family: the summed intensity at
        # (y, z) depends only on the radius
        n_family = 5
        w = 90e-6

        def family_intensity(y, z):
            xi_y = np.sqrt(2) * y / w
            xi_z = np.sqrt(2) * z / w
            hy = geometry._hermite_functions(n_family, np.array([xi_y]))
            hz = geometry._hermite_functions(n_family, np.array([xi_z]))
            return sum(hy[k, 0] ** 2 * hz[n_family - k, 0] ** 2
                       for k in range(n_family + 1))

        for r in (20e-6, 60e-6, 130e-6):
            on_axis = family_intensity(r, 0.0)
            rotated = family_intensity(r * np.cos(1.1), r * np.sin(1.1))
            assert rotated == pytest.approx(on_axis, rel=1e-9)

    def test_negative_family_rejected(self):
        with pytest.raises(ValueError):
            mode_overlap_fraction(self.ensemble, self.cavity, -1)


def _hermite_rows(n_max, xi):
    """Yields h_0(xi) .. h_n_max(xi), L2-normalized Hermite functions."""
    a = np.pi ** -0.25 * np.exp(-0.5 * xi**2)
    yield a
    b = np.sqrt(2.0) * xi * a
    for k in range(1, n_max + 1):
        yield b
        a, b = b, xi * np.sqrt(2.0 / (k + 1)) * b - np.sqrt(k / (k + 1)) * a


def trapezoid_coupling(n_family, c):
    """c * sum_k I_k I_(N-k) / (N + 1) with each I_k = int h_k^2 e^(-c xi^2)
    by the trapezoid rule on a grid that resolves both factors."""
    extent = np.sqrt(2.0 * n_family + 1.0) + 12.0
    xi = np.linspace(-extent, extent, int(2 * extent / 0.01) + 1)
    density = np.exp(-c * xi**2)
    i = [np.trapezoid(h**2 * density, xi)
         for h in _hermite_rows(n_family, xi)]
    return c * sum(i[k] * i[n_family - k]
                   for k in range(n_family + 1)) / (n_family + 1)


def dense_grid_peak(n_family, npts=200_001):
    """Maximum of the radial family profile, in units of the fundamental's
    antinode, over a dense grid; never above the true peak."""
    xi = np.linspace(0.0, 1.8 * np.sqrt(2.0 * (n_family + 1)), npts)
    at_origin = [h[0] for h in _hermite_rows(n_family, np.zeros(1))]
    profile = np.zeros_like(xi)
    for k, h in enumerate(_hermite_rows(n_family, xi)):
        profile += at_origin[n_family - k] ** 2 * h**2
    return np.pi * profile.max() / (n_family + 1)


def with_coupling_parameter(c):
    """Ensemble and cavity with w^2 / (4 sigma^2) = c."""
    cavity = CFG.cavity()
    sigma = cavity.waist_radius / (2.0 * np.sqrt(c))
    return replace(CFG.ensemble(), cloud_radius_rms=sigma), cavity


class TestFamilyCoupling:
    ensemble = CFG.ensemble()
    cavity = CFG.cavity()

    # c > 1 makes the recurrence's (1 - c) term change sign
    @pytest.mark.parametrize("c", [1e-4, 1e-2, 0.3, 1.0, 3.0, 20.25, 81.0,
                                   1e2])
    @pytest.mark.parametrize("n_family", [0, 1, 5, 37, 111, 500])
    def test_matches_trapezoid_oracle(self, c, n_family):
        ensemble, cavity = with_coupling_parameter(c)
        got = family_coupling(ensemble, cavity, n_family)
        assert got == pytest.approx(trapezoid_coupling(n_family, c),
                                    rel=1e-10)

    @pytest.mark.parametrize("sigma", [10e-6, 90e-6, 1e-3, 5e-3])
    def test_fundamental_closed_form(self, sigma):
        w = self.cavity.waist_radius
        got = family_coupling(replace(self.ensemble, cloud_radius_rms=sigma),
                              self.cavity, 0)
        assert got == pytest.approx(w**2 / (w**2 + 4 * sigma**2), rel=1e-14)

    @pytest.mark.parametrize("n_family", [0, 1, 5, 37, 74, 111])
    def test_is_overlap_fraction_times_peak_ratio(self, n_family):
        product = (mode_overlap_fraction(self.ensemble, self.cavity, n_family)
                   * family_peak_ratio(self.ensemble, self.cavity, n_family))
        assert product == pytest.approx(
            family_coupling(self.ensemble, self.cavity, n_family), rel=1e-12)

    @pytest.mark.parametrize("n_family", [37, 111])
    def test_peak_matches_dense_grid(self, n_family):
        oracle = dense_grid_peak(n_family)
        got = family_peak_ratio(self.ensemble, self.cavity, n_family)
        # the dense grid reads at most ~3e-7 low at N = 111
        assert oracle * (1 - 1e-12) <= got <= oracle * (1 + 1e-6)

    def test_negative_family_rejected(self):
        for func in (family_coupling, family_peak_ratio):
            with pytest.raises(ValueError):
                func(self.ensemble, self.cavity, -1)

    def test_gain_kernel_builds_no_peak(self, monkeypatch):
        def no_profile(*args):
            raise AssertionError("the gain needs no family peak")

        monkeypatch.setattr(geometry, "_family_profile", no_profile)
        m = detuning_map(CFG.operating_point(), CFG.system(),
                         UNIT_CALIBRATION, [0.0, 1e6], [-30e6],
                         families=(0, 37, 74, 111))
        assert m.ok.shape == (2, 1)


class TestFamilyLadder:
    def test_ladder_values(self):
        assert transverse_mode_frequency(0, 6.9e6) == 0.0
        assert transverse_mode_frequency(37, 6.9e6) == pytest.approx(6.9e6)
        assert transverse_mode_frequency(111, 6.9e6) == \
            pytest.approx(20.7e6)

    def test_arbitrary_family_interpolates(self):
        assert transverse_mode_frequency(10, 6.9e6) == \
            pytest.approx(10 / 37 * 6.9e6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transverse_mode_frequency(-5, 6.9e6)

