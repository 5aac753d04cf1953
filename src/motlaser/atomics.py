"""Atomic-physics primitives for the two-line ytterbium level scheme.

Unit conventions used throughout the package:

* natural linewidths and cavity rates are angular frequencies (rad/s),
* detunings, Zeeman shifts and Doppler widths are ordinary frequencies (Hz),
* magnetic fields are in gauss, intensities in W/m^2.

The conversion between the two frequency conventions happens exactly once,
inside the formulas that mix them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# SI constants: h, c and k are exact by definition; hbar, the atomic mass
# unit and mu_B/h are CODATA 2022, as scipy.constants 1.17 gives them.
PLANCK = 6.62607015e-34              # J s
HBAR = 1.0545718176461565e-34        # J s
SPEED_OF_LIGHT = 299792458.0         # m/s
BOLTZMANN = 1.380649e-23             # J/K
ATOMIC_MASS = 1.66053906892e-27      # kg
_MU_B_HZ_PER_TESLA = 13996244917.1

# Bohr magneton over Planck constant, in Hz per gauss.
MU_B_HZ_PER_GAUSS = _MU_B_HZ_PER_TESLA * 1e-4

# 174Yb atomic mass (no hyperfine structure, nuclear spin 0).
MASS_YB174 = 173.9388664 * ATOMIC_MASS  # kg

_GAUSSIAN_FWHM = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class TransitionSpec:
    """One optical transition out of the ground state, such as the narrow
    green line (pumping and lasing).

    Attributes
    ----------
    wavelength : float
        Vacuum wavelength in m.
    linewidth : float
        Natural linewidth, angular (rad/s).
    lande_g_upper : float
        Lande factor of the upper level.
    """

    wavelength: float
    linewidth: float
    lande_g_upper: float

    def __post_init__(self):
        if self.wavelength <= 0 or self.linewidth <= 0:
            raise ValueError("wavelength and linewidth must be positive")


@dataclass(frozen=True)
class AtomEnsemble:
    """Trapped cloud: size, temperature and species mass.

    ``cloud_radius_rms`` is the per-axis rms radius of the (isotropic)
    Gaussian density profile.  The atom number belongs to the operating
    point (:class:`motlaser.gain.OperatingPoint`).
    """

    cloud_radius_rms: float    # m
    temperature: float         # K
    species_mass: float        # kg

    def __post_init__(self):
        if self.cloud_radius_rms <= 0:
            raise ValueError("cloud_radius_rms must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.species_mass <= 0:
            raise ValueError("species_mass must be positive")


def _any_negative(x) -> bool:
    # a plain comparison for scalars: the gain kernel checks its drives on
    # every evaluation, and np.any costs microseconds on a scalar
    return (x < 0).any() if isinstance(x, np.ndarray) else x < 0


def saturation_intensity(transition: TransitionSpec) -> float:
    """Two-level saturation intensity, W/m^2.

    I_sat = 2 pi^2 hbar c Gamma / (3 lambda^3), evaluated from the
    transition's wavelength and natural linewidth.
    """
    return (2.0 * np.pi**2 * HBAR * SPEED_OF_LIGHT * transition.linewidth
            / (3.0 * transition.wavelength**3))


def saturation_parameter(power: float, waist_radius: float, i_sat: float) -> float:
    """Saturation parameter s of a Gaussian beam.

    Uses the mean-intensity convention s = (P / (pi w^2)) / I_sat rather
    than the peak-intensity one (2P / pi w^2); the mean convention is what
    reproduces the documented pump drive of ~280 I_sat from 7 mW in a
    2.4 mm beam.
    """
    if _any_negative(power):
        raise ValueError("power must be >= 0")
    if waist_radius <= 0:
        raise ValueError("waist_radius must be positive")
    return power / (np.pi * waist_radius**2) / i_sat


def zeeman_shift(g: float, m: int, b_gauss: float) -> float:
    """Zeeman shift of sublevel m in Hz (signed).

    delta_z = g * m * mu_B * B / h.  Only |m| <= 1 is meaningful for the
    J=1 upper levels of this scheme.
    """
    if abs(m) > 1:
        raise ValueError(f"m={m} outside the J=1 level scheme")
    return g * m * MU_B_HZ_PER_GAUSS * b_gauss


def doppler_sigma(temperature: float, mass: float, wavelength: float) -> float:
    """One-dimensional rms Doppler shift in Hz."""
    if temperature <= 0 or mass <= 0 or wavelength <= 0:
        raise ValueError("temperature, mass and wavelength must be positive")
    return np.sqrt(BOLTZMANN * temperature / mass) / wavelength


def excited_population(detuning: float, s: float, gamma: float,
                       doppler_sigma_hz: float = 0.0) -> float:
    """Steady-state excited-state fraction of a driven two-level atom.

    rho_ee = (s/2) / (1 + s + (2 delta_omega / Gamma')^2)

    with delta_omega = 2 pi * detuning and Gamma' the natural linewidth
    with the Doppler FWHM added in quadrature (a pseudo-Voigt shortcut,
    adequate at the precision of this model).  Bounded by 1/2, even in the
    detuning, monotonically decreasing in |detuning|.

    Parameters
    ----------
    detuning : float
        Drive detuning from resonance, Hz (signed).
    s : float
        Saturation parameter (>= 0).
    gamma : float
        Natural linewidth, rad/s.
    doppler_sigma_hz : float
        1D rms Doppler width in Hz; 0 disables the broadening.
    """
    if _any_negative(s):
        raise ValueError("saturation parameter must be >= 0")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if doppler_sigma_hz < 0:
        raise ValueError("doppler_sigma_hz must be >= 0")
    gamma_eff = np.hypot(gamma, 2 * np.pi * doppler_sigma_hz * _GAUSSIAN_FWHM)
    return 0.5 * s / (1.0 + s + (4 * np.pi * detuning / gamma_eff) ** 2)
