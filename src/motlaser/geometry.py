"""Spatial and polarization layer: selection rules and mode overlap.

Lab frame
---------
The frame is fixed and given by the constants ``X_AXIS``, ``Y_AXIS`` and
``Z_AXIS``.  The cavity axis is horizontal and defines x.  The pump beam
propagates vertically (z), which is also the symmetry axis of the trap
coils; y completes the right-handed frame.  The pump's Jones pair is taken
in its transverse basis (x, y), so linear polarization at angle a from the
cavity axis is (cos a, sin a).  The cavity's 45-degree tilt against the
horizontal trap beams lies in the horizontal plane and plays no role for a
vertical pump, so it is ignored here.  The magnetic field enters only as
the uniform offset at the active region (see
:class:`motlaser.gain.OperatingPoint`).

Circular-polarization sign table
--------------------------------
Handedness of cavity output light is defined for propagation along +x with
the transverse Jones basis (H, V) = (y, z):

    R  :=  (1, -i)/sqrt(2)      emitted by the sigma- transition at B || +x
    L  :=  (1, +i)/sqrt(2)      emitted by the sigma+ transition at B || +x

The s3 Stokes parameter 2*Im(J_H* J_V) is -1 for R and +1 for L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

# the Jones constructors live beside the config parser that reads them
from .config import jones_circular, jones_linear  # noqa: F401
from .errors import QuantizationAxisError

if TYPE_CHECKING:
    from .atomics import AtomEnsemble

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

# co-resonant TEM families are this many transverse orders apart
FAMILY_STEP = 37


@dataclass(frozen=True)
class CavityGeometry:
    """Standing-wave cavity parameters.

    ``kappa`` is the energy decay rate (angular linewidth).  TEM families
    are labelled by the transverse order N = n + m; successive co-resonant
    families are ``FAMILY_STEP`` orders apart and ``family_spacing`` Hz
    apart in frequency.
    """

    waist_radius: float                  # m
    kappa: float                         # rad/s, energy decay
    single_atom_coupling: float          # rad/s
    output_fraction: float               # per mirror
    family_spacing: float                # Hz

    def __post_init__(self):
        if min(self.waist_radius, self.kappa,
               self.single_atom_coupling, self.family_spacing) <= 0:
            raise ValueError("cavity dimensions and rates must be positive")
        if not 0 < self.output_fraction <= 1:
            raise ValueError("output_fraction must be in (0, 1]")


@dataclass(frozen=True)
class PolarizationLabel:
    """Classified polarization of light emitted along the cavity axis.

    ``kind`` is one of none / H / V / R / L / linear / elliptical.  Linear
    labels carry the angle from H in degrees; elliptical ones additionally
    carry the handedness sign of s3 (+1 toward L, -1 toward R).
    """

    kind: str
    angle_deg: float | None = None
    handedness: int | None = None

    def __str__(self):
        if self.kind == "linear":
            return f"linear({self.angle_deg:.1f}deg)"
        if self.kind == "elliptical":
            sign = "+" if self.handedness > 0 else "-"
            return f"elliptical({self.angle_deg:.1f}deg,{sign})"
        return self.kind


NO_EMISSION = PolarizationLabel("none")


def field_direction(b_dir) -> np.ndarray:
    """Unit vector along the field, b / |b|.

    Where |b|^2 over- or underflows, b is first rescaled so that its
    largest finite component is 1, which keeps the direction; elsewhere
    the result is b / |b| bit for bit.  Raises
    :class:`QuantizationAxisError` on zero field.
    """
    b = np.asarray(b_dir, float)
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(b)
    if not 0 < norm < np.inf:
        finite = np.abs(b[np.isfinite(b)])
        if finite.size and finite.max() > 0:
            b = b / finite.max()
            norm = np.linalg.norm(b)
    if norm == 0:
        raise QuantizationAxisError(
            "quantization axis undefined: magnetic field is zero; "
            "supply an offset field")
    return b / norm


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FieldGeometry(NamedTuple):
    """What the Zeeman channels m = -1, 0, +1 owe to one field direction.

    ``basis`` holds the unit vectors (e_minus, e_zero, e_plus) about the
    field, ``jones`` each channel's emission in the cavity's (H, V) basis
    (shape (3, 2)) and ``strengths`` its relative strength E_m, 0 where
    below 1e-12.  Every array is read-only.
    """

    basis: tuple
    jones: np.ndarray
    strengths: np.ndarray


# at most this many directions (and direction-polarization pairs) are
# kept; a scan that only rescales the field, or keeps it, uses one
_CACHED_DIRECTIONS = 64


@lru_cache(maxsize=_CACHED_DIRECTIONS)
def _field_geometry(unit: bytes) -> FieldGeometry:
    """The geometry about the unit vector whose float64 bytes are ``unit``.

    Keyed on the bits, not the values: (1, -0.0, 0) and (1, 0.0, 0) are
    equal but give e_zero vectors with different bits, so a hit returns
    exactly what a fresh computation would.

    Emission along the cavity axis, classical dipole picture: the pi
    transition (m = 0) radiates a linear dipole along B, the sigma
    transitions rotating dipoles in the plane normal to B.  Projecting
    onto the plane transverse to the cavity axis gives strength
    sin^2(theta) for pi and (1 + cos^2(theta))/2 for sigma (theta = angle
    between B and the axis), normalized to 1 at the respective maxima.
    """
    b = np.frombuffer(unit)
    ref = Z_AXIS if abs(np.dot(b, Z_AXIS)) < 0.9 else X_AXIS
    e1 = ref - np.dot(ref, b) * b
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(b, e1)
    e_plus = -(e1 + 1j * e2) / np.sqrt(2.0)
    e_minus = (e1 - 1j * e2) / np.sqrt(2.0)
    basis = tuple(map(_read_only, (e_minus, b.astype(complex), e_plus)))
    transverse = [d - X_AXIS * np.dot(X_AXIS, d) for d in basis]
    # Jones components in the (H, V) = (y, z) basis of the cavity axis
    jones = np.array([[np.dot(Y_AXIS, t), np.dot(Z_AXIS, t)]
                      for t in transverse])
    strengths = np.array([0.0 if s < 1e-12 else s for s in
                          (float(np.real(np.vdot(t, t))) for t in transverse)])
    return FieldGeometry(basis, _read_only(jones), _read_only(strengths))


@lru_cache(maxsize=_CACHED_DIRECTIONS)
def _pump_weights(unit: bytes, polarization: bytes) -> np.ndarray:
    """Read-only (w_minus, w_zero, w_plus) about the unit vector whose
    float64 bytes are ``unit``, for the complex128 Jones pair whose bytes
    are ``polarization``."""
    j = np.frombuffer(polarization, complex)
    eps = j[0] * X_AXIS + j[1] * Y_AXIS
    return _read_only(np.array([abs(np.dot(np.conj(e), eps)) ** 2
                                for e in _field_geometry(unit).basis]))


def field_geometry(b_dir) -> FieldGeometry:
    """The shared :class:`FieldGeometry` of the direction of ``b_dir``;
    raises :class:`QuantizationAxisError` on zero field."""
    return _field_geometry(field_direction(b_dir).tobytes())


def channel_geometry(polarization, b_dir) -> tuple:
    """Read-only arrays (w_m, E_m) of the channels m = -1, 0, +1, shared
    by every caller with the same field direction and pump polarization.
    Raises :class:`QuantizationAxisError` on zero field."""
    unit = field_direction(b_dir).tobytes()
    return (_pump_weights(unit, np.asarray(polarization, complex).tobytes()),
            _field_geometry(unit).strengths)


def pump_excitation_weights(polarization, b_dir) -> tuple:
    """Drive weights (w_minus, w_zero, w_plus) of the three Zeeman channels.

    ``polarization`` is the vertical pump's Jones pair in its transverse
    basis (x, y).  It is decomposed in the spherical basis about the local
    field direction; w_m = |amplitude_m|^2 and the three weights sum to one
    for a unit-norm pair.  Raises :class:`QuantizationAxisError` on zero
    field.
    """
    return tuple(channel_geometry(polarization, b_dir)[0])


def cavity_emission_jones(m: int, b_dir):
    """Polarization label and relative strength E_m of emission along the
    cavity axis (see :func:`_field_geometry`); strength 0 yields the
    ``none`` label."""
    if abs(m) > 1:
        raise ValueError(f"m={m} outside the J=1 level scheme")
    geo = field_geometry(b_dir)
    k = (-1, 0, 1).index(m)
    if geo.strengths[k] == 0.0:
        return NO_EMISSION, 0.0
    return classify_jones(geo.jones[k]), float(geo.strengths[k])


def classify_jones(jones) -> PolarizationLabel:
    """Map a transverse Jones vector onto a polarization label."""
    j = np.asarray(jones, complex)
    norm2 = float(np.real(np.vdot(j, j)))
    if norm2 < 1e-12:
        return NO_EMISSION
    jh, jv = j / np.sqrt(norm2)
    s1 = abs(jh) ** 2 - abs(jv) ** 2
    s2 = 2.0 * np.real(np.conj(jh) * jv)
    s3 = 2.0 * np.imag(np.conj(jh) * jv)
    angle = np.rad2deg(0.5 * np.arctan2(s2, s1)) % 180.0
    if abs(s3) >= 1.0 - 1e-6:
        return PolarizationLabel("L" if s3 > 0 else "R")
    if abs(s3) <= 1e-6:
        if abs(angle) < 1e-3 or abs(angle - 180.0) < 1e-3:
            return PolarizationLabel("H", 0.0)
        if abs(angle - 90.0) < 1e-3:
            return PolarizationLabel("V", 90.0)
        return PolarizationLabel("linear", angle)
    return PolarizationLabel("elliptical", angle, 1 if s3 > 0 else -1)


# ---------------------------------------------------------------------------
# Transverse mode families
# ---------------------------------------------------------------------------

def transverse_mode_frequency(n_family: int, family_spacing: float) -> float:
    """Frequency offset of TEM family N from the fundamental, in Hz.

    Families co-resonant with the fundamental ladder upward in steps of
    ``FAMILY_STEP`` transverse orders and ``family_spacing`` Hz; arbitrary
    N interpolates linearly on that ladder.
    """
    if n_family < 0:
        raise ValueError("family index must be >= 0")
    return (n_family / FAMILY_STEP) * family_spacing


def _hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """L2-normalized Hermite functions h_n(xi), rows n = 0..n_max.

    Stable three-term recurrence; h_n = H_n(xi) exp(-xi^2/2) /
    sqrt(2^n n! sqrt(pi)).
    """
    out = np.empty((n_max + 1, xi.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xi**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(2, n_max + 1):
        out[n] = xi * np.sqrt(2.0 / n) * out[n - 1] \
            - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def _mehler_integrals(n_max: int, c: float) -> list:
    """I_k = integral of h_k(xi)^2 exp(-c xi^2) over the line, k = 0..n_max.

    Mehler's kernel gives I_0 = (1+c)^(-1/2), I_1 = (1+c)^(-3/2) and
    (1+c)(k+1) I_(k+1) = (2k+1) I_k - (1-c) k I_(k-1).
    """
    out = [(1.0 + c) ** -0.5, (1.0 + c) ** -1.5]
    for k in range(1, n_max):
        out.append(((2 * k + 1) * out[k] - (1.0 - c) * k * out[k - 1])
                   / ((1.0 + c) * (k + 1)))
    return out[:n_max + 1]


def family_coupling(ensemble: AtomEnsemble, cavity: CavityGeometry,
                    n_family: int = 0) -> float:
    """Cloud-averaged intensity of TEM family N in units of the
    fundamental's antinode intensity.

    The family intensity is the average of |u_n(y) u_m(z)|^2 over the
    N + 1 degenerate Hermite-Gauss modes with n + m = N; the cloud is the
    Gaussian of :class:`AtomEnsemble`.  The average factorizes into 1D
    integrals I_k against the density (:func:`_mehler_integrals`), so with
    c = w^2 / (4 sigma^2) it is c * sum_k I_k I_(N-k) / (N + 1), in O(N)
    work.  N = 0 gives w^2 / (w^2 + 4 sigma^2).  The collective gain of
    family N is proportional to this quantity times g^2.
    """
    if n_family < 0:
        raise ValueError("family index must be >= 0")
    n = int(n_family)
    c = cavity.waist_radius**2 / (4.0 * ensemble.cloud_radius_rms**2)
    i = _mehler_integrals(n, c)
    return c * sum(i[k] * i[n - k] for k in range(n + 1)) / (n + 1)


@lru_cache(maxsize=None)
def _family_profile(n_family: int) -> float:
    """Antinode intensity of family N relative to the fundamental's.

    The family intensity is exactly radially symmetric, so its peak lies
    on a radial cut; in xi = sqrt(2) r / w it depends on N alone.  The
    maximum over a grid spanning the mode (r up to 1.8 w sqrt(N + 1)) is
    refined by zooming onto the neighbours of the best point.
    """
    n = n_family
    weights = _hermite_functions(n, np.zeros(1))[::-1, 0] ** 2

    def profile(xi):
        return np.pi * (weights @ _hermite_functions(n, xi) ** 2) / (n + 1)

    xi = np.linspace(0.0, 1.8 * np.sqrt(2.0 * (n + 1)), 4001)
    for _ in range(4):
        p = profile(xi)
        i = int(np.argmax(p))
        xi = np.linspace(xi[max(i - 1, 0)], xi[min(i + 1, xi.size - 1)], 65)
    return float(profile(xi).max())


def mode_overlap_fraction(ensemble: AtomEnsemble, cavity: CavityGeometry,
                          n_family: int = 0) -> float:
    """Fraction of trapped atoms effectively coupled to TEM family N.

    Each atom is weighted by the transverse family intensity at its
    position, normalized to the family's own antinode: the ratio of
    :func:`family_coupling` to :func:`family_peak_ratio`.  Tends to 1 when
    the waist dwarfs the cloud and to (w/2 sigma)^2-scale values in the
    opposite limit.
    """
    return (family_coupling(ensemble, cavity, n_family)
            / _family_profile(int(n_family)))


def family_peak_ratio(ensemble: AtomEnsemble, cavity: CavityGeometry,
                      n_family: int) -> float:
    """Antinode intensity of family N relative to the fundamental's.

    Its product with :func:`mode_overlap_fraction` is
    :func:`family_coupling`.
    """
    if n_family < 0:
        raise ValueError("family index must be >= 0")
    return _family_profile(int(n_family))
