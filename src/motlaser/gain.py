"""Two-photon gain model, thresholds, steady state and parameter scans.

Model
-----
Pumping on the narrow green line populates the Zeeman sublevels of the
upper lasing level; the red-detuned broad-line trap light dresses the
ground state with a short-lived virtual level, and a cavity photon is
emitted in a two-photon step that deposits the atom there.  The per-family
gain rate is a factorized effective model,

    G_m(N) = gain_scale * N_atoms * C_N * g^2
             * rho_ee(delta_p - delta_z(m), w_m * s_pump)
             * E_m * s_mot * L(delta_c,N - delta_p - delta_mot) / Gamma_green

with C_N the cloud-averaged intensity of TEM family N in units of the
fundamental's antinode (:func:`geometry.family_coupling`), g the
single-atom coupling at that antinode, w_m the pump polarization weight of
channel m (driving the channel with its share of the saturation
parameter), E_m the relative dipole emission strength along the cavity
axis, and L a unit-peak Lorentzian whose FWHM is the broad-line width: the
virtual level inherits the width of the level that creates it.
delta_c,N includes the transverse family frequency offset.  One fitted
gain_scale anchors the absolute rate to the observed atom-number
threshold; photon numbers saturate against a fitted n_sat anchored to the
observed intracavity photon number.

Putting the polarization weight inside the saturation argument (rather
than as a prefactor) makes pump-power thresholds scale exactly inversely
with the channel weights, which is what the polarization threshold
measurements show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import atomics, geometry
from .atomics import AtomEnsemble, TransitionSpec
from .errors import (CalibrationError, NoThresholdError, PhysicsError,
                     SolverError)
from .geometry import CavityGeometry

SUBLEVELS = (-1, 0, 1)


@dataclass(frozen=True)
class OperatingPoint:
    """One experimental setting: detunings, drive strengths, field, atoms.

    Detunings are signed and relative to the respective atomic resonances,
    in Hz.  ``pump_polarization`` is the unit-norm Jones pair in the
    vertical pump's transverse basis (x, y); ``b_offset`` is the field at
    the active region in gauss (the quadrupole contribution vanishes at the
    trap center, so a displaced active region is modelled by this offset
    alone).
    """

    pump_detuning: float
    cavity_detuning: float
    mot_detuning: float
    mot_saturation: float
    pump_power: float
    pump_polarization: tuple
    b_offset: tuple
    total_atoms: float

    def __post_init__(self):
        if self.pump_power < 0:
            raise ValueError("pump_power must be >= 0")
        if self.mot_saturation < 0:
            raise ValueError("mot_saturation must be >= 0")
        if self.total_atoms < 0:
            raise ValueError("total_atoms must be >= 0")
        # a norm within np.isclose's default tolerance of 1, in plain floats
        try:
            a, b = map(complex, self.pump_polarization)
        except (TypeError, ValueError):
            a = b = math.nan
        if not abs(math.hypot(abs(a), abs(b)) - 1.0) <= 1e-8 + 1e-5:
            raise ValueError(
                "pump_polarization must be a unit-norm Jones pair")


@dataclass(frozen=True)
class LaserSystem:
    """Everything about the apparatus that an operating point does not vary."""

    green: TransitionSpec
    broad_linewidth: float        # broad-line natural width, rad/s
    ensemble: AtomEnsemble
    cavity: CavityGeometry
    pump_waist: float
    include_pump_doppler: bool

    def __post_init__(self):
        if self.pump_waist <= 0:
            raise ValueError("pump_waist must be positive")
        if self.broad_linewidth <= 0:
            raise ValueError("broad_linewidth must be positive")

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
class LaserSolution:
    """Steady state of the coupled family rate equations; along a scan,
    each value is an array over the scan points."""

    photons: dict                # N -> photon number
    gains: dict                  # N -> unsaturated gain rate (1/s)
    thresholds: dict             # N -> where G meets kappa (inf: never)


def two_photon_resonance(pump_detuning: float, mot_detuning: float) -> float:
    """Cavity detuning that closes the two-photon cycle, Hz.

    The emitted and absorbed photon energies differ by exactly the trap
    beam detuning, so the resonant cavity detuning is their sum.
    """
    return pump_detuning + mot_detuning


def _field_magnitude(b_offset) -> float:
    """|B| in gauss; PhysicsError where |B|^2 overflows (about 1.3e154 G)."""
    with np.errstate(over="ignore"):
        b_mag = float(np.linalg.norm(np.asarray(b_offset, float)))
    if not math.isfinite(b_mag):
        raise PhysicsError(f"the offset field {tuple(map(float, b_offset))} G "
                           f"overflows: |B|^2 exceeds the float range")
    return b_mag


def _lorentzian(delta_hz, fwhm_rad: float):
    hwhm_hz = fwhm_rad / (4.0 * np.pi)
    return hwhm_hz**2 / (delta_hz**2 + hwhm_hz**2)


def _total(c):
    """Total gain, (family, ...): the channel gains c summed m = -1, 0, +1."""
    return c[:, 0] + c[:, 1] + c[:, 2]


class _GainKernel:
    """The gain model over arrays of the pump detuning, the two-photon
    :meth:`detuning`, the pump power and the atom number.

    Terms are computed at four levels.  Per field direction, shared by
    every kernel with that direction: the channels' w_m (per pump
    polarization too) and E_m, read-only arrays from
    :func:`geometry.channel_geometry`.  Per kernel, here: per family the
    coupling C_N and frequency offset (:attr:`offsets`), per channel the
    Zeeman shift of |B|, and the saturation intensity and Gamma'.  Per
    scan, in :meth:`along`: the :meth:`_factor` of each argument it holds.
    Per evaluation: the factor of the argument that moves, rho_ee and the
    product.  Built on ``fields``, one offset field per row, the
    per-channel terms gain a trailing scan-point axis.

    Axis 0 of every array argument is the family axis, of length 1
    (shared) or one row per family; the other axes broadcast behind it,
    the last against the scan-point axis if there is one.  The products
    keep the operand order of the module docstring's formula, so an
    element of a scan equals the same point evaluated alone, bit for bit.
    Families are sorted and distinct, the order the steady state sums.
    """

    def __init__(self, op: OperatingPoint, families, system: LaserSystem,
                 calib: CalibrationConstants, fields=None):
        self.families = tuple(sorted(set(families)))
        self._op, self._system, self._calib = op, system, calib
        b = np.asarray(op.b_offset if fields is None else fields, float)
        # |B| once per field, for its Zeeman shift and its direction
        rows = [(m := _field_magnitude(f), *geometry.channel_geometry(
            op.pump_polarization, f, m)) for f in b.reshape(-1, 3)]
        # one field keeps its shared read-only arrays; a scan stacks them
        b_mag, self._weights, self._strengths = (
            terms[0] if b.ndim == 1 else np.stack(terms, axis=-1)
            for terms in zip(*rows))
        self._shifts = np.array([atomics.zeeman_shift(
            system.green.lande_g_upper, m, b_mag) for m in SUBLEVELS])
        self._i_sat = atomics.saturation_intensity(system.green)
        self._couplings = np.array([geometry.family_coupling(
            system.ensemble, system.cavity, n) for n in self.families])
        self.offsets = np.array([geometry.transverse_mode_frequency(
            n, system.cavity.family_spacing) for n in self.families])
        self._gamma_eff = atomics.effective_linewidth(
            system.green.linewidth, system.pump_doppler_sigma())

    def _aligned(self, args, channel_axis: int, ndim=None) -> tuple:
        """``args``, each array as (family, [channel,] its other axes
        right-aligned), and the number of axes after the family axis:
        ``ndim``, or the fewest that hold every argument."""
        dims = [getattr(a, "ndim", 0) for a in args]
        if ndim is None:
            ndim = max(1, *dims) - 1 + channel_axis
        if any(d and len(a) not in (1, len(self.families))
               for a, d in zip(args, dims)):
            raise ValueError(f"a family axis has a length other than 1 or "
                             f"{len(self.families)}")
        return [a.reshape(a.shape[:1] + (1,) * (1 + ndim - d) + a.shape[1:])
                if d else a for a, d in zip(args, dims)], ndim

    def _channel(self, ndim: int) -> tuple:
        """The shape of a per-channel term, ``ndim`` axes behind family."""
        return ((1, len(SUBLEVELS)) + (1,) * (ndim - self._shifts.ndim)
                + self._shifts.shape[1:])

    def detuning(self, pump, cavity):
        """Two-photon detuning delta_c,N - delta_p - delta_mot - resonance
        offset per family, Hz; one that overflows is beyond any line."""
        (pump, cavity), ndim = self._aligned((pump, cavity), 0)
        offset = self.offsets.reshape((-1,) + (1,) * ndim)
        with np.errstate(over="ignore"):
            return (cavity + offset - pump - self._op.mot_detuning
                    - self._calib.resonance_offset)

    def _factor(self, name: str, value, ndim: int):
        """The factor of the gain that the argument ``name`` alone sets,
        with ``ndim`` axes behind the family axis: the detuning term of
        rho_ee (pump), the drive w_m s_pump (pump_power), the prefactor
        (atoms) or the Lorentzian (delta)."""
        system, channel = self._system, self._channel(ndim)
        (value,), _ = self._aligned((value,), 1, ndim)
        if name == "pump":
            return atomics.detuning_term(
                value - self._shifts.reshape(channel), self._gamma_eff)
        if name == "pump_power":
            s = atomics.saturation_parameter(value, system.pump_waist,
                                             self._i_sat)
            return self._weights.reshape(channel) * s
        if name == "atoms":
            return (self._calib.gain_scale * value
                    * self._couplings.reshape((-1,) + (1,) * ndim)
                    * system.cavity.single_atom_coupling**2)
        return _lorentzian(value, system.broad_linewidth)

    def along(self, vary: str, **fixed):
        """:meth:`channel_gains` as a function of the argument named
        ``vary``, the other three held at ``fixed``.  A call computes the
        factor of ``vary``; those of ``fixed``, once per number of axes."""
        dims, staged = [getattr(v, "ndim", 0) for v in fixed.values()], {}

        def channel_gains(x):
            ndim = max(self._shifts.ndim, getattr(x, "ndim", 0), *dims)
            if ndim not in staged:
                staged[ndim] = {name: self._factor(name, value, ndim)
                                for name, value in fixed.items()}
            f = {**staged[ndim], vary: self._factor(vary, x, ndim)}
            rho = atomics.excited_fraction(f["pump_power"], f["pump"])
            return (f["atoms"] * rho * self._strengths.reshape(
                self._channel(ndim)) * self._op.mot_saturation * f["delta"]
                / self._system.green.linewidth)
        return channel_gains

    def channel_gains(self, pump, delta, pump_power, atoms) -> np.ndarray:
        """Gain rates, 1/s, of shape (family, m = -1, 0, +1, ...)."""
        return self.along("pump", delta=delta, pump_power=pump_power,
                          atoms=atoms)(pump)

    def gains(self, pump, delta, pump_power, atoms) -> np.ndarray:
        """Total gain, (family, ...): the channels summed m = -1, 0, +1."""
        return _total(self.channel_gains(pump, delta, pump_power, atoms))

    def solve(self, gains, *args):
        """Gains ``gains(*args)``, per-family photon numbers and solved
        mask.  A detuning whose square overflows (beyond any line) gives
        rho_ee and L 0."""
        kappa = self._system.cavity.kappa
        with np.errstate(over="ignore"):
            g = gains(*args)
        s_tot = _saturation(g, kappa, self._calib.n_sat)
        return g, _photons(g, s_tot, kappa), ~np.isnan(s_tot)


def mode_gain(op: OperatingPoint, family: int, system: LaserSystem,
              calib: CalibrationConstants) -> float:
    """Gain rate, 1/s, of one TEM family at one operating point: its three
    Zeeman channels summed m = -1, 0, +1, as :meth:`_GainKernel.gains`
    sums them.

    Raises :class:`QuantizationAxisError` when the offset field is zero.
    """
    kernel = _GainKernel(op, (family,), system, calib)
    delta = kernel.detuning(op.pump_detuning, op.cavity_detuning)
    return float(kernel.gains(op.pump_detuning, delta, op.pump_power,
                              op.total_atoms)[0])


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


def steady_state(op: OperatingPoint, families, system: LaserSystem,
                 calib: CalibrationConstants) -> LaserSolution:
    """Steady-state photon numbers of the requested TEM families.

    Families with gain below the cavity loss settle on the amplified-
    spontaneous-emission branch n = G/(kappa - G); lasing families clamp
    the shared saturation.  This is the one-point case of
    :func:`threshold_scan`; raises :class:`SolverError` when the solve
    fails.
    """
    return threshold_scan("atoms", op.total_atoms, op, families, system,
                          calib)


def threshold_scan(vary: str, values, op: OperatingPoint, families,
                   system: LaserSystem,
                   calib: CalibrationConstants) -> LaserSolution:
    """:func:`steady_state` along ``atoms`` or ``pump_power`` values.

    One gain kernel and one elementwise solve serve the whole scan.  Each
    family maps to an array over ``values`` whose elements equal
    :func:`steady_state` at that point, bit for bit; the kernel also gives
    each family's threshold in ``vary``.  Raises :class:`SolverError` when
    any point fails.
    """
    x = np.asarray(values, float)
    if np.any(x < 0):
        raise ValueError(f"{vary} must be >= 0")
    if vary not in ("atoms", "pump_power"):
        raise ValueError("vary must be 'atoms' or 'pump_power'")
    kernel = _GainKernel(op, families, system, calib)
    held = {"pump_power": op.pump_power, "atoms": op.total_atoms}
    del held[vary]
    # the solve and the threshold search share the factors of the rest
    stage = kernel.along(vary, pump=op.pump_detuning, delta=kernel.detuning(
        op.pump_detuning, op.cavity_detuning), **held)
    g, n, ok = kernel.solve(lambda x: _total(stage(x)), x[None])
    if not ok.all():
        raise SolverError("saturation fixed point not found")
    thresholds = _thresholds(stage, vary, len(g), system.cavity.kappa)
    return LaserSolution(dict(zip(kernel.families, n)),
                         dict(zip(kernel.families, g)),
                         dict(zip(kernel.families, thresholds.tolist())))


def output_power(n_photons, cavity: CavityGeometry, wavelength: float):
    """Power through one mirror, W: eta * n * kappa * (h c / lambda)."""
    if np.any(np.asarray(n_photons) < 0):
        raise ValueError("photon number must be >= 0")
    return (cavity.output_fraction * n_photons * cavity.kappa
            * atomics.PLANCK * atomics.SPEED_OF_LIGHT / wavelength)


# ---------------------------------------------------------------------------
# Calibration and thresholds
# ---------------------------------------------------------------------------

# the documented calibration anchors (see calibrate)
ANCHOR_PUMP_POWER = 7e-3          # W
REFERENCE_ATOMS = 5000.0
REFERENCE_PHOTONS = 6e5
REFERENCE_PUMP_POWER = 4e-3       # W


def reference_operating_point(op: OperatingPoint, system: LaserSystem,
                              pump_power: float) -> OperatingPoint:
    """The documented calibration anchor derived from an operating point.

    Pump at the documented 90-degree linear polarization and reference
    power, tuned to the Zeeman shift of the m=+1 sublevel at the
    configured offset field; cavity on the two-photon resonance.  Scan
    knobs of the operating point (its detunings, power and polarization)
    do not leak into the anchor, so calibration constants describe the
    apparatus, not one particular scan setting.
    """
    b_mag = _field_magnitude(op.b_offset)
    dp = atomics.zeeman_shift(system.green.lande_g_upper, 1, b_mag)
    return replace(op, pump_detuning=dp,
                   cavity_detuning=two_photon_resonance(dp, op.mot_detuning),
                   pump_power=pump_power,
                   pump_polarization=geometry.jones_linear(90.0))


def calibrate(system: LaserSystem,
              op: OperatingPoint) -> CalibrationConstants:
    """Anchor gain_scale and n_sat to the two documented reference points.

    gain_scale makes the fundamental-family gain equal the cavity loss at
    REFERENCE_ATOMS total atoms under the reference anchor (the full
    ANCHOR_PUMP_POWER pump at 90 degrees, on the m=+1 resonance); n_sat
    makes the single-family photon number equal REFERENCE_PHOTONS at
    REFERENCE_PUMP_POWER with the operating point's atom number (the
    observed intracavity photon budget).
    """
    anchor = replace(reference_operating_point(op, system, ANCHOR_PUMP_POWER),
                     total_atoms=REFERENCE_ATOMS)
    g_unit = mode_gain(anchor, 0, system, UNIT_CALIBRATION)
    if not np.isfinite(g_unit) or g_unit <= 0.0:
        raise CalibrationError(
            "calibration failed: gain at the reference point is not positive "
            "(no sign change available for the threshold condition)")
    gain_scale = system.cavity.kappa / g_unit

    photon_anchor = reference_operating_point(op, system, REFERENCE_PUMP_POWER)
    scaled = CalibrationConstants(gain_scale, 1.0)
    g_ref = mode_gain(photon_anchor, 0, system, scaled)
    kappa = system.cavity.kappa
    if g_ref <= kappa:
        raise CalibrationError(
            "calibration failed: photon-budget anchor is below threshold")
    n = REFERENCE_PHOTONS
    n_sat = n * (kappa * n - g_ref) / ((g_ref - kappa) * n + g_ref)
    if n_sat <= 0:
        raise CalibrationError("calibration failed: negative n_sat")
    return CalibrationConstants(float(gain_scale), float(n_sat))


def _thresholds(stage, vary: str, families: int,
                kappa: float) -> np.ndarray:
    """Per family, the ``atoms`` or ``pump_power`` value at which its gain,
    from the channel gains ``stage(value)``, meets ``kappa``; inf where no
    finite value does.

    G is linear in the atom number: the atom threshold is kappa / G(1 atom).
    The pump threshold is the P with G(P) >= kappa > G(the float below P).
    The int64 views of the positive floats rise with their values, so each
    round probes 63 of them per family in one kernel call on a (family, 63)
    array, from (0 W, inf) down to adjacent floats in about 11 rounds: the
    bits depend on the computed gain alone.  Zero gain, gain saturating
    below the loss and NaN gain (the drive overflows) never reach kappa.
    """
    if vary == "atoms":     # at the axes of the scan, as it staged them
        unit = _total(stage(np.ones((1, 1))))[:, 0]
        with np.errstate(divide="ignore"):
            return np.where(unit > 0.0, kappa / unit, math.inf)
    steps, rows = np.arange(65), np.arange(0, 65 * families, 65)
    # from 0 W (no gain: below kappa) to inf (above it); bound k of a round
    # is lo + k/64 of the width, rounded down: lo, the 63 probes, hi
    lo = np.zeros((families, 1), np.int64)
    width = np.full((families, 1), np.float64(np.inf).view(np.int64))
    reached = np.ones((families, 64), bool)     # the last: hi reaches kappa
    with np.errstate(over="ignore", invalid="ignore"):
        while (width > 1).any():
            bounds = lo + (width >> 6) * steps + ((width & 63) * steps >> 6)
            g = _total(stage(bounds[:, 1:-1].view(np.float64)))
            np.greater_equal(g, kappa, out=reached[:, :-1])
            # the first bound reaching kappa (hi if no probe does) and the
            # one before it, which stays below
            i, flat = rows + reached.argmax(axis=1), bounds.ravel()
            lo = flat[i][:, None]
            width = flat[i + 1][:, None] - lo
    return (lo + width)[:, 0].view(np.float64)


def threshold_reason(threshold: float, lo: float, hi: float) -> str:
    """Why a threshold is not reported for the range [lo, hi]; "" if it is."""
    if threshold == math.inf:
        return "gain saturates below loss"
    if threshold < lo:
        return "below range"
    return "above range" if threshold > hi else ""


def threshold_solve(vary: str, op: OperatingPoint, system: LaserSystem,
                    calib: CalibrationConstants, family: int = 0) -> float:
    """Value of ``atoms`` or ``pump_power`` at which family gain meets loss.

    The one-family case of :func:`threshold_scan`'s thresholds, the same
    bits.  Raises :class:`NoThresholdError` when it is inf (gain saturates
    below loss); :func:`threshold_reason` places it against a range.
    """
    threshold = threshold_scan(vary, (), op, (family,), system,
                               calib).thresholds[family]
    reason = threshold_reason(threshold, 0.0, math.inf)
    if reason:
        raise NoThresholdError(f"no {vary} threshold: {reason}")
    return threshold


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def _label4(mask: np.ndarray) -> tuple:
    """(labels, count) of the 4-connected regions of a 2-D boolean mask.

    Regions are numbered 1, 2, ... in the row-major order of their first
    cell, as scipy.ndimage.label numbers them; 0 marks the background.
    Each region is flood-filled from its first cell with a stack.
    """
    labels = np.zeros(mask.shape, np.int32)
    rows, cols = mask.shape
    count = 0
    for i, j in zip(*np.nonzero(mask)):
        if labels[i, j]:
            continue
        count += 1
        labels[i, j] = count
        stack = [(i, j)]
        while stack:
            y, x = stack.pop()
            for v, u in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if 0 <= v < rows and 0 <= u < cols and mask[v, u] \
                        and not labels[v, u]:
                    labels[v, u] = count
                    stack.append((v, u))
    return labels, count


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
        labels, count = _label4(self.lasing_any)
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
                 pump_detunings, cavity_detunings, families) -> DetuningMap:
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
    dp = pump[None, :, None]
    g, n, ok = kernel.solve(kernel.gains, dp, kernel.detuning(
        dp, cav[None, None, :]), op.pump_power, op.total_atoms)
    powers = dict(zip(kernel.families, output_power(
        n, system.cavity, system.green.wavelength)))
    above = dict(zip(kernel.families, ok & (g >= kappa)))
    return DetuningMap(pump, cav,
                       sum(powers.values(), np.zeros((pump.size, cav.size))),
                       {name: powers[name] for name in families},
                       {name: above[name] for name in families},
                       ok & np.any(g >= kappa, axis=0), ok)


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
    intercept: float | None      # None: below the fit's resolution

    @property
    def valid_points(self):
        return [p for p in self.points if p.pump_opt is not None]


_COARSE = 25          # pump points of the coarse search along the ridge
_SCAN_BATCH = 1024    # points searched side by side: bounds the temporaries


def _fminbound(lo: float, hi: float, xatol: float):
    """Minimizer of f on [lo, hi] by Brent's bounded search: a generator
    that yields each x, is sent f(x) and returns the minimizer.

    A port of scipy's ``minimize_scalar(method="bounded")`` (golden-section
    steps with parabolic interpolation, Forsythe, Malcolm & Moler,
    *Computer Methods for Mathematical Computations*, 1977) that keeps its
    operation order, so it returns the same ``x`` after the same
    evaluations, bit for bit.  Like scipy it stops after 500 evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:        # try a parabola through the three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def _ridge_optima(kernel: _GainKernel, op: OperatingPoint, kappa: float):
    """Whether each scan point of ``kernel`` lases on the two-photon ridge,
    and the pump of its gain maximum there, as :func:`optimum_scan` says."""
    stage = kernel.along("pump", delta=0.0, pump_power=op.pump_power,
                         atoms=op.total_atoms)

    def gain_at(dp):    # every call at the coarse grid's axes
        x = dp.reshape(1, -1, dp.shape[-1])
        return _total(stage(x))[0].reshape(dp.shape)

    zeeman = np.atleast_1d(kernel._shifts[SUBLEVELS.index(1)])
    ends = (0.25 * zeeman, 2.5 * zeeman + np.copysign(2e6, zeeman))
    pump_lo, pump_hi = np.minimum(*ends), np.maximum(*ends)
    dps = np.linspace(pump_lo, pump_hi, _COARSE)
    g = gain_at(dps)
    lases, best = np.any(g >= kappa, axis=0), g.max(axis=0)
    start = np.where(lases, dps[np.argmax(g, axis=0), np.arange(zeeman.size)],
                     zeeman)
    if not lases.all():
        # once an ulp of the shift exceeds the power-broadened line, only
        # a coarse pump that rounds onto the shift would see it lase (the
        # other points evaluate their coarse maximum again)
        best = gain_at(start)
        lases |= best >= kappa
    span = (pump_hi - pump_lo) / (_COARSE - 1)
    lo = np.maximum(pump_lo, start - 2 * span)
    hi = np.minimum(pump_hi, start + 2 * span)
    # the lasing points' searches side by side; the others hold a pump
    # they were evaluated at
    searches = {i: _fminbound(float(lo[i]), float(hi[i]), xatol=1.0)
                for i in np.flatnonzero(lases)}
    dp, x = start.copy(), start.copy()
    x[list(searches)] = [next(search) for search in searches.values()]
    while searches:
        f = -gain_at(x)
        for i, search in list(searches.items()):
            try:
                x[i] = search.send(float(f[i]))
            except StopIteration as done:
                dp[i] = done.value
                del searches[i]
    # Brent never evaluates its start, and its steps of at least
    # sqrt(eps) |x| can all miss a line narrower than that
    return lases, np.where(gain_at(dp) < best, start, dp)


def _line_fit(xs, ys) -> tuple:
    """Slope and intercept of np.polyfit's line through (xs, ys).

    Its squares overflow beyond about 1e154 and underflow below 1e-154, so
    xs and ys past 2**+-400 are first divided, exactly, by a power of two
    near their largest magnitude.  PhysicsError when the line overflows.

    The intercept is sum(w * ys) with the least-squares weights
    w = 1/n - mean(xs) (xs - mean(xs)) / sum((xs - mean(xs))**2), so a
    rounding of n ulp(max |ys|) in the fitted values moves it by up to
    sum(|w|) times that.  An intercept no larger is noise, and None is
    returned for it.
    """
    sx, sy = (math.ldexp(1.0, e) if abs(e) >= 400 else 1.0 for e in
              (math.frexp(float(np.max(np.abs(v))))[1] for v in (xs, ys)))
    u = xs / sx
    slope, intercept = np.polyfit(u, ys / sy, 1)
    slope, intercept = float(slope) / sx * sy, float(intercept) * sy
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise PhysicsError(f"the fitted line overflows: slope {slope!r}, "
                           f"intercept {intercept!r}")
    d = u - u.mean()
    w = 1.0 / u.size - u.mean() * d / np.sum(d * d)
    noise = u.size * math.ulp(float(np.max(np.abs(ys))))
    if abs(intercept) <= float(np.sum(np.abs(w))) * noise:
        return slope, None
    return slope, intercept


def optimum_scan(vary: str, values, op: OperatingPoint, system: LaserSystem,
                 calib: CalibrationConstants, family: int = 0) -> OptimumScan:
    """Track the power optimum in (pump, cavity) detuning along a scan.

    ``vary`` is ``b_offset_magnitude`` (gauss, scaled along the operating
    point's :func:`geometry.field_direction`, which a field too small or
    too large to square still has; the scan follows the sigma+ lobe) or
    ``mot_detuning`` (Hz).  Points where nothing lases are kept with None
    optima.  The fitted slope/intercept describe pump_opt(B) for the field
    scan and cavity_opt(mot detuning) for the trap-detuning scan.

    At any pump G peaks on the two-photon ridge delta_c = delta_p +
    delta_mot + resonance_offset - offset_N, since the cavity detuning
    enters only through the unit-peak Lorentzian, and one family's photon
    number rises with G (dn/dG > 0 from (G/(1 + n/n_sat) - kappa) n + G =
    0); no photon number is solved.  Each point evaluates G on the ridge
    at ``_COARSE`` pumps in [Zeeman/4, 5 Zeeman/2 + 2 MHz], lases if any
    reaches kappa, or else if the Zeeman shift itself does, and refines
    the best by a bounded Brent search of -G, kept only where it finds a
    higher G.  A negative Zeeman shift mirrors it.  Up to ``_SCAN_BATCH``
    points share one kernel, and their searches run side by side: each
    step is one kernel call for all of them, and each point gets the bits
    of its search alone.  A trap-detuning scan keeps its field, so its
    points share one search.
    """
    field = vary == "b_offset_magnitude"
    if field:
        b_dir = geometry.field_direction(op.b_offset)
    elif vary != "mot_detuning":
        raise ValueError("vary must be 'b_offset_magnitude' or 'mot_detuning'")
    xs, points, fit = np.asarray(values, float), [], []
    for first in range(0, xs.size, _SCAN_BATCH):
        x = xs[first:first + _SCAN_BATCH]
        kernel = _GainKernel(op, (family,), system, calib,
                             b_dir * x[:, None] if field else None)
        lases, dp = np.broadcast_arrays(
            *_ridge_optima(kernel, op, system.cavity.kappa), x)[:2]
        with np.errstate(over="ignore"):     # as float arithmetic would
            dc = (two_photon_resonance(dp, op.mot_detuning if field else x)
                  + calib.resonance_offset - kernel.offsets[0])
        points += [ScanOptimum(*p) if ok else ScanOptimum(p[0], None, None)
                   for ok, *p in zip(lases.tolist(), x.tolist(), dp.tolist(),
                                     dc.tolist())]
        fit.append(np.stack([x, dp if field else dc])[:, lases])

    good = np.concatenate(fit or [np.empty((2, 0))], axis=1)
    slope, intercept = (_line_fit(*good) if good.shape[1] >= 2
                        else (math.nan, math.nan))
    return OptimumScan(vary, tuple(points), slope, intercept)
