"""Run configuration: flat key = value files with SI-unit suffixes.

Every key has a documented default; unknown keys are a hard error so a
typo can never silently fall back to a default.  Values accept unit
suffixes (MHz, mW, G, um, ...) and are normalized to the package's
internal units on load.  The configuration hash that seals a calibration
covers the apparatus keys the calibration constants depend on; scan knobs
and the seed are excluded (see _HASH_EXCLUDED).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .atomics import AtomEnsemble, TransitionSpec
    from .gain import LaserSystem, OperatingPoint
    from .geometry import CavityGeometry

_UNIT_SCALE = {
    "": 1.0,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9,
    "g": 1.0,
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
    "k": 1.0, "mk": 1e-3, "uk": 1e-6,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "deg": 1.0,
}

_VALUE_RE = re.compile(
    r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([a-zA-Zμ]*)\s*$")


def parse_quantity(text: str) -> float:
    """Parse '7 mW', '-35MHz', '2.38 G' or a bare number to internal units."""
    m = _VALUE_RE.match(str(text))
    if not m:
        raise ConfigError(f"malformed value {text!r}")
    number, unit = m.groups()
    unit = unit.replace("μ", "u").lower()
    if unit not in _UNIT_SCALE:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    value = float(number) * _UNIT_SCALE[unit]
    # 1e999 is left for its reader to refuse; 1e300 GHz overflows here
    if np.isinf(value) and np.isfinite(float(number)):
        raise ConfigError(f"{text!r} overflows in internal units")
    return value


def parse_seed(text: str) -> int:
    """Parse an integer seed in [0, 2^64), the key range of the generator."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise ConfigError(f"seed {value} is outside [0, 2^64)")
    return value


def _bounded(accepts, bound: str):
    """parse_quantity plus a domain bound, checked when the config is read
    so that no command has to build the domain objects to validate it."""
    def parse(text: str) -> float:
        value = parse_quantity(text)
        if not accepts(value):
            raise ConfigError(f"must be {bound}, got {text!r}")
        return value
    return parse


# the same bounds as the constructors of the domain objects the factories
# below build (tests/test_cli.py checks that the two agree)
_positive = _bounded(lambda v: v > 0, "positive")
_non_negative = _bounded(lambda v: v >= 0, ">= 0")
_fraction = _bounded(lambda v: 0 < v <= 1, "in (0, 1]")


def _parse_bool(text: str) -> bool:
    t = str(text).strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected on/off, got {text!r}")


def _parse_families(text: str) -> tuple:
    try:
        values = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"malformed integer list {text!r}") from exc
    if any(v < 0 for v in values):
        raise ConfigError(f"family indices must be >= 0, got {text!r}")
    return values


def jones_linear(angle_deg: float):
    """Jones pair for linear polarization at a given angle from e1 of the
    beam's transverse basis (see geometry.beam_transverse_basis)."""
    a = np.deg2rad(angle_deg)
    return (complex(np.cos(a)), complex(np.sin(a)))


def jones_circular(handedness: int):
    """Jones pair (1, +-i)/sqrt(2); handedness is the sign of s3."""
    if handedness not in (-1, 1):
        raise ValueError("handedness must be +1 or -1")
    return (complex(1 / np.sqrt(2)), handedness * 1j / np.sqrt(2))


def _parse_polarization(text: str):
    """'linear:ANGLE' (degrees from the cavity axis) or 'circular:left/right'."""
    t = str(text).strip().lower()
    if t.startswith("linear:"):
        return jones_linear(parse_quantity(t.split(":", 1)[1]))
    if t.startswith("circular:"):
        hand = t.split(":", 1)[1].strip()
        if hand in ("left", "l", "+"):
            return jones_circular(1)
        if hand in ("right", "r", "-"):
            return jones_circular(-1)
    raise ConfigError(f"malformed polarization {text!r} "
                      "(use linear:ANGLEdeg or circular:left|right)")


def _fmt_polarization(jones) -> str:
    j = np.asarray(jones, complex)
    if abs(j[1].imag) > 1e-9:
        return "circular:left" if j[1].imag > 0 else "circular:right"
    angle = np.rad2deg(np.arctan2(j[1].real, j[0].real)) % 180.0
    return f"linear:{angle:g}deg"


# key -> (parser, default-as-text, help)
_KEYS = {
    "total_atoms": (_non_negative, "20e3",
                    "trapped atoms at the operating point (trap holds up to 1e7)"),
    "cloud_radius": (_positive, "1 mm", "rms cloud radius per axis"),
    "temperature": (_positive, "2 mK", "cloud temperature"),
    # repr of atomics.MASS_YB174, spelled out so that reading a config
    # does not load the atomic layer (a test pins the two together)
    "atom_mass": (_positive, "2.8883228326085627e-25",
                  "species mass, kg"),
    "mot_detuning": (parse_quantity, "-35 MHz", "trap beam detuning"),
    "mot_saturation": (_non_negative, "3.0",
                       "total trap drive, six beams x 0.5 I_sat"),
    "pump_power": (_non_negative, "7 mW", "pump beam power"),
    "pump_waist": (_positive, "2.4 mm", "pump 1/e^2 radius"),
    "pump_detuning": (parse_quantity, "5 MHz", "pump detuning"),
    "pump_polarization": (_parse_polarization, "linear:90deg",
                          "Jones state in the pump transverse basis"),
    "pump_doppler": (_parse_bool, "off",
                     "include Doppler broadening in the pump response"),
    "cavity_detuning": (parse_quantity, "-30 MHz", "cavity detuning"),
    "cavity_linewidth": (_positive, "70 kHz",
                         "energy decay linewidth (ordinary frequency)"),
    "cavity_waist": (_positive, "90 um", "TEM0 waist radius"),
    "cavity_coupling": (_positive, "30 kHz",
                        "single-atom coupling (ordinary frequency)"),
    "cavity_output_fraction": (_fraction, "0.05",
                               "output power fraction per mirror"),
    "family_spacing": (_positive, "6.9 MHz",
                       "frequency spacing of co-resonant TEM families"),
    "families": (_parse_families, "0,37,74,111",
                 "TEM families included in steady-state solves"),
    "b_offset_x": (parse_quantity, "2.38 G", "offset field, cavity axis"),
    "b_offset_y": (parse_quantity, "0 G", "offset field, y"),
    "b_offset_z": (parse_quantity, "0 G", "offset field, vertical"),
    "green_wavelength": (_positive, "556 nm", "narrow-line wavelength"),
    "green_linewidth": (_positive, "182 kHz",
                        "narrow-line natural width (ordinary frequency)"),
    "blue_linewidth": (_positive, "29 MHz",
                       "broad-line natural width (ordinary frequency)"),
    "lande_g": (parse_quantity, "1.5", "upper-level Lande factor"),
    "laser_ripple": (_non_negative, "0.01",
                     "relative rms intensity ripple of the laser regime"),
    "seed": (parse_seed, "1", "master seed for all stochastic output"),
}

# The calibration hash covers exactly the keys the calibration constants
# depend on: the apparatus.  Scan knobs (detunings, pump power and
# polarization, family selection, ripple) and the seed vary between runs
# of a calibrated setup and must not invalidate it.
_HASH_EXCLUDED = {"seed", "pump_detuning", "cavity_detuning", "pump_power",
                  "pump_polarization", "families", "laser_ripple"}


@dataclass(frozen=True)
class RunConfig:
    """Typed view of a configuration; build with :func:`load_config`."""

    values: tuple  # sorted (key, value) pairs

    def __getitem__(self, key):
        return dict(self.values)[key]

    def as_dict(self):
        return dict(self.values)

    # -- factories for domain objects ------------------------------------
    # Each imports its layer when called, so that g2 and clicks, which
    # build none of them, never load gain, geometry or atomics.

    def green(self) -> TransitionSpec:
        from .atomics import TransitionSpec
        return TransitionSpec.green_556(self["green_wavelength"],
                                        2 * np.pi * self["green_linewidth"],
                                        self["lande_g"])

    def ensemble(self) -> AtomEnsemble:
        from .atomics import AtomEnsemble
        return AtomEnsemble(self["cloud_radius"], self["temperature"],
                            self["atom_mass"])

    def cavity(self) -> CavityGeometry:
        from .geometry import CavityGeometry
        return CavityGeometry(
            waist_radius=self["cavity_waist"],
            kappa=2 * np.pi * self["cavity_linewidth"],
            single_atom_coupling=2 * np.pi * self["cavity_coupling"],
            output_fraction=self["cavity_output_fraction"],
            family_spacing=self["family_spacing"])

    def system(self) -> LaserSystem:
        from .gain import LaserSystem
        return LaserSystem(green=self.green(),
                           broad_linewidth=2 * np.pi * self["blue_linewidth"],
                           ensemble=self.ensemble(), cavity=self.cavity(),
                           pump_waist=self["pump_waist"],
                           include_pump_doppler=self["pump_doppler"])

    def operating_point(self) -> OperatingPoint:
        from .gain import OperatingPoint
        return OperatingPoint(
            pump_detuning=self["pump_detuning"],
            cavity_detuning=self["cavity_detuning"],
            mot_detuning=self["mot_detuning"],
            mot_saturation=self["mot_saturation"],
            pump_power=self["pump_power"],
            pump_polarization=self["pump_polarization"],
            b_offset=(self["b_offset_x"], self["b_offset_y"],
                      self["b_offset_z"]),
            total_atoms=self["total_atoms"])

    def families(self) -> tuple:
        return self["families"]

    def seed(self) -> int:
        return self["seed"]

    # -- canonical text and hashing --------------------------------------

    def canonical_lines(self) -> list:
        out = []
        for key, value in self.values:
            if key == "pump_polarization":
                text = _fmt_polarization(value)
            elif key == "families":
                text = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                text = "on" if value else "off"
            elif isinstance(value, int):
                text = str(value)
            else:
                text = repr(float(value))
            out.append(f"{key} = {text}")
        return out

    def config_hash(self) -> str:
        lines = [ln for ln in self.canonical_lines()
                 if ln.split(" = ")[0] not in _HASH_EXCLUDED]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def replace(self, **overrides) -> "RunConfig":
        vals = self.as_dict()
        for key, value in overrides.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            vals[key] = value
        return RunConfig(tuple(sorted(vals.items())))


def default_config() -> RunConfig:
    vals = {key: parser(default) for key, (parser, default, _) in _KEYS.items()}
    return RunConfig(tuple(sorted(vals.items())))


def parse_config_text(text: str) -> RunConfig:
    vals = {key: parser(default) for key, (parser, default, _) in _KEYS.items()}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = _KEYS[key][0]
        try:
            vals[key] = parser(value)
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") \
                from exc
    return RunConfig(tuple(sorted(vals.items())))


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") \
            from exc
    return parse_config_text(text)


def describe_keys() -> str:
    width = max(len(k) for k in _KEYS)
    lines = [f"{key:<{width}}  default {default:<12}  {help_}"
             for key, (_, default, help_) in _KEYS.items()]
    return "\n".join(lines)
