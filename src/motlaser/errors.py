"""Exception hierarchy shared by all modules.

The CLI maps these onto stable exit codes: configuration / usage problems
exit with 2, physics and solver failures with 3, integrity failures
(tampered or stale calibration) with 4.
"""


class MotlaserError(Exception):
    """Base class for all package errors."""


class ConfigError(MotlaserError):
    """Invalid configuration file, unknown key, or malformed value."""


class PhysicsError(MotlaserError):
    """A physically meaningless request or a failed physics computation."""


class QuantizationAxisError(PhysicsError):
    """Zero magnetic field: the quantization axis is undefined."""


class NoThresholdError(PhysicsError):
    """Gain meets the cavity loss nowhere in the requested range."""


class CalibrationError(PhysicsError):
    """Calibration could not be anchored to the reference point."""


class SolverError(PhysicsError):
    """Iterative solve failed."""


class IntegrityError(MotlaserError):
    """Calibration file does not match the current configuration."""
