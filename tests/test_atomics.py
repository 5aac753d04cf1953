import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import constants as sc

from motlaser import atomics
from motlaser.config import default_config
from motlaser.atomics import (MASS_YB174, TransitionSpec, doppler_sigma,
                              excited_population, saturation_intensity,
                              saturation_parameter, zeeman_shift)

GREEN = default_config().green()
BLUE = TransitionSpec(399e-9, 2 * np.pi * 29e6, 1.0)


def closed_form_isat(wavelength, linewidth):
    # independent oracle: 2 pi^2 hbar c Gamma / (3 lambda^3)
    return 2 * np.pi**2 * sc.hbar * sc.c * linewidth / (3 * wavelength**3)


class TestSaturationIntensity:
    def test_green_matches_oracle(self):
        oracle = closed_form_isat(556e-9, 2 * np.pi * 182e3)
        assert saturation_intensity(GREEN) == pytest.approx(oracle, rel=1e-12)
        assert saturation_intensity(GREEN) == pytest.approx(1.384, rel=1e-3)

    def test_blue_matches_oracle(self):
        oracle = closed_form_isat(399e-9, 2 * np.pi * 29e6)
        assert saturation_intensity(BLUE) == pytest.approx(oracle, rel=1e-12)
        assert saturation_intensity(BLUE) == pytest.approx(595.0, rel=0.01)

    def test_homogeneity(self):
        base = saturation_intensity(GREEN)
        doubled = TransitionSpec(556e-9, 2 * GREEN.linewidth, 1.5)
        assert saturation_intensity(doubled) == pytest.approx(2 * base)
        stretched = TransitionSpec(2 * 556e-9, GREEN.linewidth, 1.5)
        assert saturation_intensity(stretched) == pytest.approx(base / 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            TransitionSpec(-1.0, GREEN.linewidth, 1.5)
        with pytest.raises(ValueError):
            TransitionSpec(556e-9, 0.0, 1.5)


class TestSaturationParameter:
    def test_documented_pump_drive(self):
        # 7 mW in a 2.4 mm beam on the narrow line is ~280 I_sat
        s = saturation_parameter(7e-3, 2.4e-3, saturation_intensity(GREEN))
        assert s == pytest.approx(280.0, rel=0.01)

    def test_zero_power(self):
        assert saturation_parameter(0.0, 1e-3, 1.0) == 0.0

    @given(st.floats(1e-6, 1.0), st.floats(1e-4, 1e-1))
    def test_power_linear_waist_inverse_quadratic(self, power, waist):
        s = saturation_parameter(power, waist, 1.0)
        assert saturation_parameter(2 * power, waist, 1.0) == pytest.approx(2 * s)
        assert saturation_parameter(power, 2 * waist, 1.0) == pytest.approx(s / 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            saturation_parameter(-1.0, 1e-3, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            saturation_parameter(np.array([1.0, -1.0]), 1e-3, 1.0)
        with pytest.raises(ValueError):
            saturation_parameter(1.0, 0.0, 1.0)


class TestZeemanShift:
    def test_unit_field(self):
        oracle = 1.5 * sc.physical_constants["Bohr magneton in Hz/T"][0] * 1e-4
        assert zeeman_shift(1.5, 1, 1.0) == pytest.approx(oracle, rel=1e-12)
        assert zeeman_shift(1.5, 1, 1.0) == pytest.approx(2.10e6, rel=1e-3)

    def test_m_zero(self):
        assert zeeman_shift(1.5, 0, 123.4) == 0.0

    def test_five_mhz_field(self):
        # the two emission lobes sit at +-5 MHz; inverting the formula
        # places them at 2.3816 G
        b = 5e6 / zeeman_shift(1.5, 1, 1.0)
        assert b == pytest.approx(2.3816, rel=1e-4)
        assert zeeman_shift(1.5, -1, b) == pytest.approx(-5e6, rel=1e-12)

    @given(st.sampled_from([-1, 0, 1]), st.floats(0.0, 100.0))
    def test_odd_in_m_linear_in_b(self, m, b):
        assert zeeman_shift(1.5, m, b) == pytest.approx(
            -zeeman_shift(1.5, -m, b), abs=1e-6)
        assert zeeman_shift(1.5, m, 2 * b) == pytest.approx(
            2 * zeeman_shift(1.5, m, b), abs=1e-6)

    def test_outside_level_scheme(self):
        with pytest.raises(ValueError):
            zeeman_shift(1.5, 2, 1.0)


class TestDopplerSigma:
    def test_cloud_value(self):
        oracle = np.sqrt(sc.k * 2e-3 / MASS_YB174) / 556e-9
        got = doppler_sigma(2e-3, MASS_YB174, 556e-9)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.556e6, rel=1e-3)

    def test_sqrt_temperature_scaling(self):
        base = doppler_sigma(1e-3, MASS_YB174, 556e-9)
        assert doppler_sigma(4e-3, MASS_YB174, 556e-9) == pytest.approx(2 * base)

    def test_invalid(self):
        with pytest.raises(ValueError):
            doppler_sigma(0.0, MASS_YB174, 556e-9)


class TestExcitedPopulation:
    def test_full_saturation_limit(self):
        assert excited_population(0.0, 1e12, GREEN.linewidth) == \
            pytest.approx(0.5, rel=1e-9)

    def test_unit_saturation(self):
        assert excited_population(0.0, 1.0, GREEN.linewidth) == \
            pytest.approx(0.25)

    def test_saturated_half_width(self):
        # at s = 280 the response stays within a factor 2 of its peak out
        # to ~1.5 MHz, i.e. the saturated span is ~3 MHz
        ratio = excited_population(1.5e6, 280.0, GREEN.linewidth) \
            / excited_population(0.0, 280.0, GREEN.linewidth)
        assert 0.45 <= ratio <= 0.55

    @given(st.floats(-20e6, 20e6), st.floats(0.0, 1e4))
    def test_bounded_and_even(self, detuning, s):
        rho = excited_population(detuning, s, GREEN.linewidth)
        assert 0.0 <= rho <= 0.5
        assert rho == pytest.approx(
            excited_population(-detuning, s, GREEN.linewidth), rel=1e-12)

    def test_monotone_in_abs_detuning(self):
        deltas = np.linspace(0.0, 10e6, 50)
        rho = [excited_population(d, 280.0, GREEN.linewidth) for d in deltas]
        assert np.all(np.diff(rho) < 0)

    def test_doppler_broadens(self):
        narrow = excited_population(1e6, 1.0, GREEN.linewidth, 0.0)
        broad = excited_population(1e6, 1.0, GREEN.linewidth, 0.55e6)
        assert broad > narrow

    def test_negative_saturation_rejected(self):
        for s in (-1.0, np.array([1.0, -1.0])):
            with pytest.raises(ValueError, match=">= 0"):
                excited_population(0.0, s, GREEN.linewidth)


def test_atom_ensemble_validation():
    with pytest.raises(ValueError):
        atomics.AtomEnsemble(0.0, 2e-3, MASS_YB174)
    with pytest.raises(ValueError):
        atomics.AtomEnsemble(1e-3, 0.0, MASS_YB174)
    # a non-positive mass would fail only later, in doppler_sigma
    with pytest.raises(ValueError, match="species_mass"):
        atomics.AtomEnsemble(1e-3, 2e-3, 0.0)


def test_literal_constants_equal_scipy():
    # the package writes its SI constants as literals so that it starts
    # without scipy; scipy.constants stays the oracle
    assert atomics.PLANCK == sc.h
    assert atomics.HBAR == sc.hbar
    assert atomics.SPEED_OF_LIGHT == sc.c
    assert atomics.BOLTZMANN == sc.k
    assert atomics.ATOMIC_MASS == sc.atomic_mass
    assert atomics.MU_B_HZ_PER_GAUSS == \
        sc.physical_constants["Bohr magneton in Hz/T"][0] * 1e-4
    assert MASS_YB174 == 173.9388664 * sc.atomic_mass
