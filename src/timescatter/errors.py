"""Exception types shared across the package, and the checks that raise them."""

import numpy as np

__all__ = [
    "TimescatterError",
    "DomainError",
    "AmbiguityError",
    "ConsistencyError",
    "DegenerateCaseError",
    "NoSolutionError",
    "StiffnessError",
    "ConstraintError",
    "ResolutionError",
    "ConfigError",
    "NumericalDegeneracyWarning",
]


class TimescatterError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TimescatterError, ValueError):
    """A physical parameter is outside its admissible domain."""


class AmbiguityError(TimescatterError, ValueError):
    """A quantity was requested exactly at a discontinuity where it is
    two-valued; the caller must take a one-sided limit instead."""


class ConsistencyError(TimescatterError, ValueError):
    """Inputs that must satisfy an exact relation (e.g. a unit-modulus
    scale factor) violate it beyond tolerance."""


class DegenerateCaseError(TimescatterError):
    """The reflected and transmitted frequencies coincide; the two-wave
    amplitude split is not unique and the degenerate path must be used."""


class NoSolutionError(TimescatterError):
    """The degenerate-frequency compatibility condition fails; the
    matching system has no solution."""


class StiffnessError(TimescatterError, RuntimeError):
    """The adaptive integrator underflowed its step size."""

    def __init__(self, message, smallest_step=None):
        super().__init__(message)
        self.smallest_step = smallest_step


class ConstraintError(TimescatterError, ValueError):
    """A mode state violates a structural constraint (transversality or
    single-polarization form)."""


class ResolutionError(TimescatterError, ValueError):
    """A sampling grid cannot resolve the smallest frequency gap, so the
    requested cancellation verdict cannot be certified."""


class ConfigError(TimescatterError, ValueError):
    """A run configuration is malformed or violates an invariant."""


class NumericalDegeneracyWarning(UserWarning):
    """A matrix is defective (or nearly so) within tolerance; derived
    eigenstructure may be inaccurate."""


def reject(bad, error, message, *values):
    """Raise ``error(message.format(*values))`` if ``bad`` holds.

    ``bad`` and the values may be arrays; the message then takes the
    values at the first point, in row-major order, where ``bad`` holds.
    Hot scalar paths test ``bad is not False`` before the call: that skips
    it for a Python bool that passed and still sends arrays here.
    """
    if bad is False or (bad is not True and not np.any(bad)):
        return
    point = np.flatnonzero(bad)[0]
    raise error(message.format(*(np.broadcast_to(v, np.shape(bad)).flat[point].item() for v in values)))
