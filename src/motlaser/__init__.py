"""Semiclassical simulation of continuous-wave lasing from a cold-atom
cloud trapped inside a high-finesse optical cavity.

The package models Zeeman-resolved pumping on a narrow line, two-photon
gain through a trap-light-induced virtual level, laser thresholds and
multimode competition, polarization selection rules, and photon-counting
statistics with a streaming g2 correlator.

The public names below load their submodule on first access (PEP 562), so
``import motlaser`` loads no numpy, and a command that needs only the
photon statistics never loads the gain layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "atomics": ("AtomEnsemble", "TransitionSpec", "doppler_sigma",
                "excited_population", "saturation_intensity",
                "saturation_parameter", "zeeman_shift"),
    "gain": ("CalibrationConstants", "GainBreakdown", "LaserSolution",
             "LaserSystem", "OperatingPoint", "calibrate", "detuning_map",
             "mode_gain", "optimum_scan", "output_power", "steady_state",
             "threshold_solve", "two_photon_resonance"),
    "geometry": ("CavityGeometry", "PolarizationLabel",
                 "cavity_emission_jones", "family_coupling",
                 "mode_overlap_fraction", "pump_excitation_weights",
                 "transverse_mode_frequency"),
    "photonstats": ("ClickStream", "CorrelationResult", "IntensityTrace",
                    "binning_washout", "g2_cross", "invert_washout",
                    "poissonize", "read_clickstream", "simulate_intensity",
                    "write_clickstream"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # only the public names resolve here: a submodule name raises, so that
    # ``from motlaser import gain`` falls through to importing the submodule
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
