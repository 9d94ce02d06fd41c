"""Exception types shared across the package, and the checks that raise them."""

import numpy as np


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
    checks = GridChecks()
    checks.reject(bad, error, message, *values)
    checks.raise_first()


class GridChecks:
    """Checks over a grid of points, raised in row-major point order.

    ``reject`` records the arguments of :func:`reject`.  ``raise_first``
    raises at the first point where any recorded check fails, the first
    check that fails there, with that point's values: the error a loop
    making the same checks point by point would raise.
    """

    def __init__(self):
        self._checks = []

    def reject(self, bad, error, message, *values):
        self._checks.append((bad, error, message, values))

    def raise_first(self):
        if not self._checks:
            return
        flags = np.broadcast_arrays(*(check[0] for check in self._checks))
        failed = np.flatnonzero(np.any(flags, axis=0))
        if failed.size == 0:
            return
        point = failed[0]
        for flag, (_, error, message, values) in zip(flags, self._checks):
            if flag.flat[point]:
                at_point = [np.broadcast_to(v, flag.shape).flat[point].item() for v in values]
                raise error(message.format(*at_point))
