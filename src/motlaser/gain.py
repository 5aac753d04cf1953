"""Two-photon gain model, thresholds, steady state and parameter scans.

Model
-----
Pumping on the narrow green line populates the Zeeman sublevels of the
upper lasing level; the red-detuned broad-line trap light dresses the
ground state with a short-lived virtual level, and a cavity photon is
emitted in a two-photon step that deposits the atom there.  The per-family
gain rate is a factorized effective model,

    G_m(N) = gain_scale * N_atoms * f_N * g_N^2
             * rho_ee(delta_p - delta_z(m), w_m * s_pump)
             * E_m * s_mot * L(delta_c,N - delta_p - delta_mot) / Gamma_green

with f_N the coupled-atom fraction of TEM family N, g_N the family
antinode coupling, w_m the pump polarization weight of channel m (driving
the channel with its share of the saturation parameter), E_m the relative
dipole emission strength along the cavity axis, and L a unit-peak
Lorentzian whose FWHM is the broad-line width: the virtual level inherits
the width of the level that creates it.  delta_c,N includes the transverse
family frequency offset.  One fitted gain_scale anchors the absolute rate
to the observed atom-number threshold; photon numbers saturate against a
fitted n_sat anchored to the observed intracavity photon number.

Putting the polarization weight inside the saturation argument (rather
than as a prefactor) makes pump-power thresholds scale exactly inversely
with the channel weights, which is what the polarization threshold
measurements show.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import constants as sc
from scipy.ndimage import label as _ndlabel
from scipy.optimize import minimize_scalar

from . import atomics, geometry
from .atomics import AtomEnsemble, TransitionSpec
from .errors import CalibrationError, NoThresholdError, SolverError
from .geometry import BeamGeometry, CavityGeometry, MagneticEnvironment

SUBLEVELS = (-1, 0, 1)


@dataclass(frozen=True)
class OperatingPoint:
    """One experimental setting: detunings, drive strengths, field, atoms.

    Detunings are signed and relative to the respective atomic resonances,
    in Hz.  ``pump_polarization`` is the Jones pair in the pump's
    transverse basis; ``b_offset`` is the field at the active region in
    gauss (the quadrupole contribution vanishes at the trap center, so a
    displaced active region is modelled by this offset alone).
    """

    pump_detuning: float = 5e6
    cavity_detuning: float = -30e6
    mot_detuning: float = -35e6
    mot_saturation: float = 3.0
    pump_power: float = 7e-3
    pump_polarization: tuple = geometry.jones_linear(90.0)
    b_offset: tuple = (2.38, 0.0, 0.0)
    total_atoms: float = 20e3

    def __post_init__(self):
        if self.pump_power < 0:
            raise ValueError("pump_power must be >= 0")
        if self.mot_saturation < 0:
            raise ValueError("mot_saturation must be >= 0")
        if self.total_atoms < 0:
            raise ValueError("total_atoms must be >= 0")


@dataclass(frozen=True)
class LaserSystem:
    """Everything about the apparatus that an operating point does not vary."""

    green: TransitionSpec = field(default_factory=TransitionSpec.green_556)
    blue: TransitionSpec = field(default_factory=TransitionSpec.blue_399)
    ensemble: AtomEnsemble = field(default_factory=lambda: AtomEnsemble(
        total_atoms=20e3, cloud_radius_rms=1e-3, temperature=2e-3))
    cavity: CavityGeometry = field(default_factory=CavityGeometry)
    magnetic: MagneticEnvironment = field(default_factory=MagneticEnvironment)
    pump_waist: float = 2.4e-3
    pump_propagation: tuple = (0.0, 0.0, 1.0)
    include_pump_doppler: bool = False

    def pump_beam(self, op: OperatingPoint) -> BeamGeometry:
        return BeamGeometry(self.pump_propagation, op.pump_polarization,
                            op.pump_power, self.pump_waist, op.pump_detuning)

    def pump_doppler_sigma(self) -> float:
        if not self.include_pump_doppler:
            return 0.0
        return atomics.doppler_sigma(self.ensemble.temperature,
                                     self.ensemble.species_mass,
                                     self.green.wavelength)


@dataclass(frozen=True)
class CalibrationConstants:
    """Fitted constants absorbing unmodelled efficiencies.

    ``gain_scale`` anchors the absolute gain, ``n_sat`` the photon number
    at which gain saturation halves the rate, and ``resonance_offset`` is an
    empirical shift of the two-photon resonance (default 0; the apparatus
    shows a small constant offset attributed to light shifts).
    """

    gain_scale: float = 1.0
    n_sat: float = 1.0
    resonance_offset: float = 0.0

    def __post_init__(self):
        if self.gain_scale <= 0 or self.n_sat <= 0:
            raise ValueError("gain_scale and n_sat must be positive")


UNIT_CALIBRATION = CalibrationConstants()


@dataclass(frozen=True)
class GainBreakdown:
    """Per-channel gain rates of one TEM family, 1/s."""

    family: int
    per_channel: dict            # m -> rate
    kappa: float

    @property
    def total(self) -> float:
        return sum(self.per_channel.values())

    @property
    def above_threshold(self) -> bool:
        return self.total >= self.kappa


@dataclass(frozen=True)
class LaserSolution:
    """Steady state of the coupled family rate equations."""

    photons: dict                # N -> photon number
    gains: dict                  # N -> unsaturated gain rate (1/s)
    lasing: dict                 # N -> bool (gain exceeds cavity loss)
    saturation: float            # sum(n)/n_sat at the fixed point
    kappa: float

    @property
    def total_photons(self) -> float:
        return sum(self.photons.values())

    @property
    def lasing_families(self) -> tuple:
        return tuple(sorted(n for n, on in self.lasing.items() if on))


def two_photon_resonance(pump_detuning: float, mot_detuning: float) -> float:
    """Cavity detuning that closes the two-photon cycle, Hz.

    The emitted and absorbed photon energies differ by exactly the trap
    beam detuning, so the resonant cavity detuning is their sum.
    """
    return pump_detuning + mot_detuning


def _lorentzian(delta_hz, fwhm_rad: float):
    hwhm_hz = fwhm_rad / (4.0 * np.pi)
    return hwhm_hz**2 / (delta_hz**2 + hwhm_hz**2)


class _GainKernel:
    """The gain model at one operating point, over arrays of detunings.

    The factors that depend on neither detuning are computed once here:
    per family the overlap, g_N^2 and frequency offset, per channel the
    drive w_m * s_pump, the Zeeman shift and E_m.  :meth:`channel_gains`
    then broadcasts rho_ee and the two-photon Lorentzian over any pump and
    cavity detuning arrays.  The product keeps the operand order of the
    formula in the module docstring, so a grid cell equals the same cell
    evaluated alone, bit for bit.  Families are kept sorted and distinct,
    the order in which the steady state sums them.  The pump power enters
    only the drives, so :meth:`with_pump_power` re-derives just those.
    """

    def __init__(self, op: OperatingPoint, families, system: LaserSystem,
                 calib: CalibrationConstants):
        self.families = tuple(sorted(set(families)))
        self._op, self._system, self._calib = op, system, calib
        b = np.asarray(op.b_offset, float)
        b_mag = float(np.linalg.norm(b))
        self._weights = geometry.pump_excitation_weights(
            system.pump_beam(op), b)
        self._i_sat = atomics.saturation_intensity(system.green)
        self._drives = self._pump_drives(op.pump_power)
        self._channels = []
        for m in SUBLEVELS:
            shift = atomics.zeeman_shift(system.green.lande_g_upper, m, b_mag)
            _, strength = geometry.cavity_emission_jones(m, b,
                                                         system.cavity.axis)
            self._channels.append((shift, strength))
        self._families = []
        for n in self.families:
            fraction = geometry.mode_overlap_fraction(system.ensemble,
                                                      system.cavity, n)
            peak_ratio = geometry.family_peak_ratio(system.ensemble,
                                                    system.cavity, n)
            g_family_sq = system.cavity.single_atom_coupling**2 * peak_ratio
            offset = geometry.transverse_mode_frequency(
                n, system.cavity.family_spacing, system.cavity.family_step)
            self._families.append(
                (calib.gain_scale * op.total_atoms * fraction * g_family_sq,
                 offset))
        self._doppler = system.pump_doppler_sigma()

    def _pump_drives(self, pump_power: float) -> list:
        """Drive w_m * s_pump of each channel, m = -1, 0, +1."""
        s_pump = atomics.saturation_parameter(
            pump_power, self._system.pump_waist, self._i_sat)
        return [w * s_pump for w in self._weights]

    def with_pump_power(self, pump_power: float) -> "_GainKernel":
        """This kernel at another pump power; it equals a kernel built
        at that power, bit for bit."""
        kernel = copy.copy(self)
        kernel._op = replace(self._op, pump_power=pump_power)
        kernel._drives = self._pump_drives(pump_power)
        return kernel

    def channel_gains(self, pump, cavity) -> list:
        """Gain rates (m = -1, 0, +1) of each family, 1/s, broadcast over
        the pump and cavity detuning arrays."""
        op, system, calib = self._op, self._system, self._calib
        linewidth = system.green.linewidth
        rho = [atomics.excited_population(pump - shift, drive, linewidth,
                                          self._doppler)
               for drive, (shift, _) in zip(self._drives, self._channels)]
        out = []
        for prefactor, offset in self._families:
            delta_two_photon = (cavity + offset - pump - op.mot_detuning
                                - calib.resonance_offset)
            lorentz = _lorentzian(delta_two_photon, system.blue.linewidth)
            out.append([prefactor * r * strength * op.mot_saturation
                        * lorentz / linewidth
                        for r, (_, strength) in zip(rho, self._channels)])
        return out

    def gains(self, pump, cavity) -> np.ndarray:
        """Total gain per family, stacked along axis 0 of the broadcast
        detuning shape; the channels are summed m = -1, 0, +1."""
        shape = np.broadcast_shapes(np.shape(pump), np.shape(cavity))
        out = np.empty((len(self.families),) + shape)
        for k, (g_minus, g_zero, g_plus) in enumerate(
                self.channel_gains(pump, cavity)):
            out[k] = g_minus + g_zero + g_plus
        return out


def mode_gain(op: OperatingPoint, family: int, system: LaserSystem,
              calib: CalibrationConstants = UNIT_CALIBRATION) -> GainBreakdown:
    """Gain rates of the three Zeeman channels for one TEM family.

    Raises :class:`QuantizationAxisError` when the offset field is zero.
    """
    kernel = _GainKernel(op, (family,), system, calib)
    rates = kernel.channel_gains(op.pump_detuning, op.cavity_detuning)[0]
    return GainBreakdown(family, dict(zip(SUBLEVELS, map(float, rates))),
                         system.cavity.kappa)


def family_gains(op: OperatingPoint, families, system: LaserSystem,
                 calib: CalibrationConstants) -> dict:
    kernel = _GainKernel(op, families, system, calib)
    g = kernel.gains(op.pump_detuning, op.cavity_detuning)
    return dict(zip(kernel.families, g.tolist()))


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------

# Newton from the dominant family's root settles in at most 9 steps over
# G/kappa in [1e-6, 1e6], 1-4 families and n_sat in [1, 1e8], thresholds
# included; an element still moving after this many is reported unsolved.
_NEWTON_CAP = 60


def _photons(g, s_tot, kappa: float):
    """n_i(S) = G_i / (kappa - G_i/(1 + S)), elementwise."""
    return g / (kappa - g / (1.0 + s_tot))


def _saturation(gains: np.ndarray, kappa: float, n_sat: float) -> np.ndarray:
    """Shared saturation S = sum(n)/n_sat at the fixed point, elementwise.

    ``gains`` holds one family per row of axis 0; the result has the
    shape of the remaining axes and is NaN wherever the solve fails.

    Above the pole max(G)/kappa - 1, every n_i(S) is positive, decreasing
    and convex, so f(S) = S - sum_i n_i(S)/n_sat is strictly increasing
    and concave.  At the dominant family's own root (closed form) the
    other families make f <= 0, so Newton's method climbs monotonically
    to the unique root without a bracket: the tangent of a concave
    function never overshoots it.  An element freezes once its step stops
    increasing S; the families are summed in a fixed order.  Every
    element therefore follows the same arithmetic whatever batch it is
    solved in.
    """
    g = np.asarray(gains, float)
    g_max = np.zeros(g.shape[1:])
    for g_i in g:
        g_max = np.maximum(g_max, g_i)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (kappa/n_sat) n^2 + (kappa - G - G/n_sat) n - G = 0, in the form
        # that avoids cancellation for either sign of the linear term
        b = kappa - g_max - g_max / n_sat
        root = np.sqrt(b * b + 4.0 * (kappa / n_sat) * g_max)
        n_dom = np.where(b > 0.0, 2.0 * g_max / (b + root),
                         (root - b) / (2.0 * kappa / n_sat))
        s_tot = n_dom / n_sat
        moving = np.isfinite(s_tot)
        for _ in range(_NEWTON_CAP):
            total = 0.0
            slope = 0.0
            for g_i in g:
                n_i = _photons(g_i, s_tot, kappa)
                total = total + n_i
                slope = slope + n_i * n_i
            one_s = 1.0 + s_tot
            step = (s_tot - total / n_sat) \
                / (1.0 + slope / (one_s * one_s * n_sat))
            nxt = s_tot - step
            moving &= nxt > s_tot
            # n_i depends on S only through 1 + S.  Across a step that
            # leaves 1 + S unchanged the computed f is S - total/n_sat, on
            # which Newton would crawl; go to its root when 1 + S keeps its
            # value there, else to the first S of the next value of 1 + S.
            settled = total / n_sat
            jump = np.where(1.0 + settled == one_s, settled,
                            np.nextafter(one_s, np.inf) - 1.0)
            nxt = np.where(1.0 + nxt == one_s, jump, nxt)
            if not moving.any():
                break
            s_tot = np.where(moving, nxt, s_tot)
    # a start rounded onto or below the pole gives infinite or negative
    # photon numbers; it fails like an element still moving at the cap
    solved = ~moving & np.isfinite(step) & (total >= 0.0)
    return np.where(solved, s_tot, np.nan)


def _steady_state_from_gains(gains: dict, kappa: float,
                             n_sat: float) -> LaserSolution:
    """Fixed point of dn_i/dt = (G_i/(1 + S) - kappa) n_i + G_i, S = sum n/n_sat.

    One element of :func:`_saturation`.  Raises :class:`SolverError`
    when the solve fails.
    """
    names = sorted(gains)
    g = np.array([gains[n] for n in names], float)
    if np.any(g < 0):
        raise ValueError("gain rates must be >= 0")
    s_root = float(_saturation(g, kappa, n_sat))
    if math.isnan(s_root):
        raise SolverError("saturation fixed point not found",
                          last_iterate=s_root)
    n = _photons(g, s_root, kappa)
    return LaserSolution(
        photons=dict(zip(names, n.tolist())),
        gains=dict(zip(names, g.tolist())),
        lasing={name: bool(gi >= kappa) for name, gi in zip(names, g)},
        saturation=s_root,
        kappa=kappa,
    )


def steady_state(op: OperatingPoint, families, system: LaserSystem,
                 calib: CalibrationConstants) -> LaserSolution:
    """Steady-state photon numbers of the requested TEM families.

    Families with gain below the cavity loss settle on the amplified-
    spontaneous-emission branch n = G/(kappa - G); lasing families clamp
    the shared saturation.
    """
    gains = family_gains(op, families, system, calib)
    return _steady_state_from_gains(gains, system.cavity.kappa, calib.n_sat)


def pump_power_steady_states(op: OperatingPoint, powers, families,
                             system: LaserSystem,
                             calib: CalibrationConstants) -> list:
    """:func:`steady_state` at each pump power, from one gain kernel.

    Each solution equals :func:`steady_state` at that power, bit for bit.
    """
    kernel = _GainKernel(op, families, system, calib)
    out = []
    for power in powers:
        g = kernel.with_pump_power(power).gains(op.pump_detuning,
                                                op.cavity_detuning)
        out.append(_steady_state_from_gains(
            dict(zip(kernel.families, g.tolist())), system.cavity.kappa,
            calib.n_sat))
    return out


def _solve_grid(kernel: _GainKernel, pump, cavity, kappa: float,
                n_sat: float):
    """Gains, per-family photon numbers and solved mask over a grid."""
    g = kernel.gains(pump, cavity)
    s_tot = _saturation(g, kappa, n_sat)
    return g, _photons(g, s_tot, kappa), ~np.isnan(s_tot)


def output_power(n_photons, cavity: CavityGeometry,
                 wavelength: float = 556e-9):
    """Power through one mirror, W: eta * n * kappa * (h c / lambda)."""
    if np.any(np.asarray(n_photons) < 0):
        raise ValueError("photon number must be >= 0")
    return (cavity.output_fraction * n_photons * cavity.kappa
            * sc.h * sc.c / wavelength)


# ---------------------------------------------------------------------------
# Calibration and thresholds
# ---------------------------------------------------------------------------

def reference_operating_point(op: OperatingPoint, system: LaserSystem,
                              pump_power: float = 7e-3) -> OperatingPoint:
    """The documented calibration anchor derived from an operating point.

    Pump at the documented 90-degree linear polarization and reference
    power, tuned to the Zeeman shift of the m=+1 sublevel at the
    configured offset field; cavity on the two-photon resonance.  Scan
    knobs of the operating point (its detunings, power and polarization)
    do not leak into the anchor, so calibration constants describe the
    apparatus, not one particular scan setting.
    """
    b_mag = float(np.linalg.norm(np.asarray(op.b_offset, float)))
    dp = atomics.zeeman_shift(system.green.lande_g_upper, 1, b_mag)
    return replace(op, pump_detuning=dp,
                   cavity_detuning=two_photon_resonance(dp, op.mot_detuning),
                   pump_power=pump_power,
                   pump_polarization=geometry.jones_linear(90.0))


def calibrate(system: LaserSystem, op: OperatingPoint | None = None,
              reference_atoms: float = 5000.0,
              reference_photons: float = 6e5,
              reference_pump_power: float = 4e-3,
              resonance_offset: float = 0.0) -> CalibrationConstants:
    """Anchor gain_scale and n_sat to the two documented reference points.

    gain_scale makes the fundamental-family gain equal the cavity loss at
    ``reference_atoms`` total atoms under the reference anchor (full 7 mW
    pump at 90 degrees, on the m=+1 resonance); n_sat makes the
    single-family photon number equal ``reference_photons`` at
    ``reference_pump_power`` with the operating point's atom number (the
    observed intracavity photon budget).
    """
    if reference_atoms <= 0:
        raise CalibrationError("reference threshold must be positive")
    op = op or OperatingPoint()
    anchor = replace(reference_operating_point(op, system),
                     total_atoms=reference_atoms)
    probe = CalibrationConstants(1.0, 1.0, resonance_offset)
    g_unit = mode_gain(anchor, 0, system, probe).total
    if not np.isfinite(g_unit) or g_unit <= 0.0:
        raise CalibrationError(
            "calibration failed: gain at the reference point is not positive "
            "(no sign change available for the threshold condition)")
    gain_scale = system.cavity.kappa / g_unit

    photon_anchor = reference_operating_point(op, system,
                                              pump_power=reference_pump_power)
    scaled = CalibrationConstants(gain_scale, 1.0, resonance_offset)
    g_ref = mode_gain(photon_anchor, 0, system, scaled).total
    kappa = system.cavity.kappa
    if g_ref <= kappa:
        raise CalibrationError(
            "calibration failed: photon-budget anchor is below threshold")
    n = reference_photons
    n_sat = n * (kappa * n - g_ref) / ((g_ref - kappa) * n + g_ref)
    if n_sat <= 0:
        raise CalibrationError("calibration failed: negative n_sat")
    return CalibrationConstants(float(gain_scale), float(n_sat),
                                float(resonance_offset))


def threshold_solve(vary: str, op: OperatingPoint, system: LaserSystem,
                    calib: CalibrationConstants, family: int = 0,
                    lo: float | None = None, hi: float | None = None,
                    rtol: float = 1e-9) -> float:
    """Value of ``atoms`` or ``pump_power`` at which family gain meets loss.

    G is exactly linear in the atom number, so the atom threshold is
    kappa / G(1 atom) in closed form (``hi`` plays no part).  The pump
    threshold is a bisection on G(x) - kappa with bracket expansion; G is
    monotone in the pump power.  Raises :class:`NoThresholdError` when the
    threshold lies above the search cap (1e12 atoms, 1 kW) or the gain
    already exceeds the loss at ``lo``.
    """
    kappa = system.cavity.kappa
    if vary == "atoms":
        lo = 1.0 if lo is None else lo
        cap = 1e12
        unit = mode_gain(replace(op, total_atoms=1.0), family, system,
                         calib).total
        threshold = kappa / unit if unit > 0.0 else math.inf
        if not threshold <= cap:
            raise NoThresholdError(
                f"no threshold in range: gain stays below the cavity loss "
                f"for {vary} up to {cap:g}")
        if threshold < lo:
            raise NoThresholdError(
                f"gain already exceeds the loss at {vary} = {lo:g}")
        return threshold
    if vary != "pump_power":
        raise ValueError("vary must be 'atoms' or 'pump_power'")
    lo = 1e-12 if lo is None else lo
    hi = max(op.pump_power, 10.0 * lo) if hi is None else hi
    cap = 1e3
    kernel = _GainKernel(op, (family,), system, calib)

    def excess(x):
        g = kernel.with_pump_power(x).gains(op.pump_detuning,
                                            op.cavity_detuning)
        return float(g[0]) - kappa

    while excess(hi) < 0.0:
        hi *= 4.0
        if hi > cap:
            raise NoThresholdError(
                f"no threshold in range: gain stays below the cavity loss "
                f"for {vary} up to {cap:g}")
    if excess(lo) > 0.0:
        raise NoThresholdError(
            f"gain already exceeds the loss at {vary} = {lo:g}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetuningMap:
    """Power over a (pump, cavity) detuning grid."""

    pump_detunings: np.ndarray
    cavity_detunings: np.ndarray
    total_power: np.ndarray      # W, shape (n_pump, n_cavity); NaN = failed
    family_powers: dict          # N -> same-shape array
    family_lasing: dict          # N -> bool array (gain above loss)
    lasing_any: np.ndarray       # bool, any family gain above loss
    ok: np.ndarray               # bool, cell solved

    def lobes(self):
        """Connected above-threshold regions with their power maxima.

        Returns a list of (pump_center, cavity_center, peak_power), one
        per 4-connected region, sorted by descending peak power.
        """
        labels, count = _ndlabel(self.lasing_any)
        out = []
        for k in range(1, count + 1):
            mask = labels == k
            powers = np.where(mask, self.total_power, -np.inf)
            i, j = np.unravel_index(np.nanargmax(powers), powers.shape)
            out.append((float(self.pump_detunings[i]),
                        float(self.cavity_detunings[j]),
                        float(self.total_power[i, j])))
        return sorted(out, key=lambda t: -t[2])

    def cavity_fwhm(self, pump_value: float) -> float:
        """FWHM in Hz of the power profile along the cavity axis at one
        pump detuning (linear interpolation between grid points)."""
        i = int(np.argmin(np.abs(self.pump_detunings - pump_value)))
        prof = self.total_power[i]
        peak = np.nanmax(prof)
        half = 0.5 * peak
        above = np.where(prof >= half)[0]
        if above.size < 2:
            return 0.0
        lo_i, hi_i = above[0], above[-1]
        x = self.cavity_detunings

        def cross(i0, i1):
            y0, y1 = prof[i0], prof[i1]
            if y1 == y0:
                return x[i0]
            return x[i0] + (half - y0) * (x[i1] - x[i0]) / (y1 - y0)

        left = cross(lo_i - 1, lo_i) if lo_i > 0 else x[0]
        right = cross(hi_i + 1, hi_i) if hi_i < x.size - 1 else x[-1]
        return float(right - left)


def detuning_map(op: OperatingPoint, system: LaserSystem,
                 calib: CalibrationConstants,
                 pump_detunings, cavity_detunings,
                 families=(0, 37, 74, 111)) -> DetuningMap:
    """Steady-state output power over a detuning grid.

    One array evaluation of the gain kernel and one elementwise solve;
    every cell equals :func:`steady_state` on that cell, bit for bit.
    Solver failures mark single cells as missing (NaN power, ok=False);
    the scan itself never aborts.
    """
    pump = np.asarray(pump_detunings, float)
    cav = np.asarray(cavity_detunings, float)
    kappa = system.cavity.kappa
    kernel = _GainKernel(op, families, system, calib)
    g, n, ok = _solve_grid(kernel, pump[:, None], cav[None, :], kappa,
                           calib.n_sat)
    total = np.zeros((pump.size, cav.size))
    fam_p, fam_las = {}, {}
    for name, g_k, n_k in zip(kernel.families, g, n):
        fam_p[name] = output_power(n_k, system.cavity, system.green.wavelength)
        fam_las[name] = ok & (g_k >= kappa)
        total = total + fam_p[name]
    lasing = ok & np.any(g >= kappa, axis=0)
    return DetuningMap(pump, cav, total,
                       {name: fam_p[name] for name in families},
                       {name: fam_las[name] for name in families},
                       lasing, ok)


@dataclass(frozen=True)
class ScanOptimum:
    x: float
    pump_opt: float | None       # Hz; None when nothing lases at this x
    cavity_opt: float | None     # Hz


@dataclass(frozen=True)
class OptimumScan:
    vary: str
    points: tuple                # of ScanOptimum
    slope: float                 # d(opt)/dx of the primary fitted relation
    intercept: float

    @property
    def valid_points(self):
        return [p for p in self.points if p.pump_opt is not None]


def _argmax_power(op, system, calib, families, pump_lo, pump_hi,
                  cavity_lo, cavity_hi, coarse=25):
    """Coarse grid argmax refined by alternating 1D Brent searches."""
    kernel = _GainKernel(op, families, system, calib)
    kappa = system.cavity.kappa

    def photons(dp, dc):
        g, n, ok = _solve_grid(kernel, dp, dc, kappa, calib.n_sat)
        if not ok.all():
            raise SolverError("saturation fixed point not found")
        total = 0.0
        for n_k in n:
            total = total + n_k
        return g, total

    dps = np.linspace(pump_lo, pump_hi, coarse)
    dcs = np.linspace(cavity_lo, cavity_hi, 2 * coarse)
    g, total = photons(dps[:, None], dcs[None, :])
    if not np.any(g >= kappa):
        return None, None
    i, j = np.unravel_index(np.argmax(total), total.shape)
    dp, dc = dps[i], dcs[j]
    span_p = (pump_hi - pump_lo) / (coarse - 1)
    span_c = (cavity_hi - cavity_lo) / (2 * coarse - 1)
    for _ in range(3):
        res = minimize_scalar(
            lambda x: -float(photons(dp, x)[1]), method="bounded",
            bounds=(max(cavity_lo, dc - 2 * span_c),
                    min(cavity_hi, dc + 2 * span_c)),
            options={"xatol": 1.0})
        dc = float(res.x)
        res = minimize_scalar(
            lambda x: -float(photons(x, dc)[1]), method="bounded",
            bounds=(max(pump_lo, dp - 2 * span_p),
                    min(pump_hi, dp + 2 * span_p)),
            options={"xatol": 1.0})
        dp = float(res.x)
    return dp, dc


def optimum_scan(vary: str, values, op: OperatingPoint, system: LaserSystem,
                 calib: CalibrationConstants, families=(0,),
                 pump_window=None, cavity_halfwidth: float = 25e6) -> OptimumScan:
    """Track the power optimum in (pump, cavity) detuning along a scan.

    ``vary`` is ``b_offset_magnitude`` (gauss, scaled along the operating
    point's field direction; the scan follows the sigma+ lobe) or
    ``mot_detuning`` (Hz).  Points where nothing lases are kept with None
    optima.  The fitted slope/intercept describe pump_opt(B) for the field
    scan and cavity_opt(mot detuning) for the trap-detuning scan.
    """
    b0 = np.asarray(op.b_offset, float)
    if vary == "b_offset_magnitude":
        b_mag0 = np.linalg.norm(b0)
        if b_mag0 == 0:
            raise ValueError("operating point needs a nonzero field direction")
        b_dir = b0 / b_mag0

        def make(x):
            return replace(op, b_offset=tuple(b_dir * x))
    elif vary == "mot_detuning":
        def make(x):
            return replace(op, mot_detuning=x)
    else:
        raise ValueError("vary must be 'b_offset_magnitude' or 'mot_detuning'")

    g_upper = system.green.lande_g_upper
    points = []
    for x in values:
        cell = make(float(x))
        b_mag = float(np.linalg.norm(np.asarray(cell.b_offset, float)))
        zeeman = atomics.zeeman_shift(g_upper, 1, b_mag)
        if pump_window is None:
            plo, phi = 0.25 * zeeman, 2.5 * zeeman + 2e6
        else:
            plo, phi = pump_window
        center = two_photon_resonance(zeeman, cell.mot_detuning)
        dp, dc = _argmax_power(cell, system, calib, families, plo, phi,
                               center - cavity_halfwidth,
                               center + cavity_halfwidth)
        points.append(ScanOptimum(float(x), dp, dc))

    good = [p for p in points if p.pump_opt is not None]
    if len(good) >= 2:
        xs = np.array([p.x for p in good])
        ys = np.array([p.pump_opt if vary == "b_offset_magnitude"
                       else p.cavity_opt for p in good])
        slope, intercept = np.polyfit(xs, ys, 1)
    else:
        slope, intercept = math.nan, math.nan
    return OptimumScan(vary, tuple(points), float(slope), float(intercept))
