"""Semiclassical simulation of continuous-wave lasing from a cold-atom
cloud trapped inside a high-finesse optical cavity.

The package models Zeeman-resolved pumping on a narrow line, two-photon
gain through a trap-light-induced virtual level, laser thresholds and
multimode competition, polarization selection rules, and photon-counting
statistics with a streaming g2 correlator.
"""

__version__ = "0.1.0"

from .atomics import (AtomEnsemble, TransitionSpec, doppler_sigma,
                      excited_population, saturation_intensity,
                      saturation_parameter, zeeman_shift)
from .gain import (CalibrationConstants, GainBreakdown, LaserSolution,
                   LaserSystem, OperatingPoint, calibrate, detuning_map,
                   mode_gain, optimum_scan, output_power, steady_state,
                   threshold_solve, two_photon_resonance)
from .geometry import (BeamGeometry, CavityGeometry, PolarizationLabel,
                       cavity_emission_jones, family_coupling,
                       mode_overlap_fraction, pump_excitation_weights,
                       transverse_mode_frequency)
from .photonstats import (ClickStream, CorrelationResult, IntensityTrace,
                          binning_washout, g2_auto, g2_cross, invert_washout,
                          poissonize, read_clickstream, simulate_intensity,
                          write_clickstream)

__all__ = [name for name in dir() if not name.startswith("_")]
