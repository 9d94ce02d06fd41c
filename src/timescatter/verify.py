"""Executable form of the distinct-frequency independence argument.

A finite sum of complex exponentials with nonzero vector coefficients
can vanish identically only if all frequencies coincide (the Vandermonde
determinant of the frequency derivatives is nonzero otherwise).  This is
the step that forces the incident, reflected and transmitted spatial
phase vectors to match at a temporal interface.

The identical-in-x statement is made executable by sampling: a grid with
at least 2N points spanning one period of the smallest frequency gap
suffices to detect non-cancellation numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .waves import _norm

__all__ = [
    "ExponentialSum",
    "vandermonde_product",
    "sum_residual",
    "canonical_grid",
    "assert_forced_equality",
]

_EQUAL_RTOL = 1e-12  # frequencies closer than this are "the same"
_RESOLVE_RTOL = 1e-9  # gaps below this cannot be certified by sampling


@dataclass(frozen=True, eq=False)
class ExponentialSum:
    """Sum of terms A_j * exp(i w_j x) with nonzero complex n-vector A_j."""

    amplitudes: np.ndarray  # (N, n) complex
    omegas: np.ndarray  # (N,) real

    def __post_init__(self):
        amps = np.atleast_2d(np.array(self.amplitudes, dtype=np.complex128))  # copies: the caller's stay writeable
        omegas = np.atleast_1d(np.array(self.omegas, dtype=np.float64))
        if amps.shape[0] != omegas.shape[0] or omegas.ndim != 1:
            raise DomainError("need one amplitude vector per frequency")
        if amps.shape[0] < 1:
            raise DomainError("need at least one term")
        if not amps.any(axis=1).all():  # the components, since a norm of tiny ones underflows to 0
            raise DomainError("every amplitude must be nonzero")
        if not np.all(np.isfinite(omegas)):
            raise DomainError("frequencies must be finite")
        amps.setflags(write=False)
        omegas.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "omegas", omegas)

    @classmethod
    def from_terms(cls, terms) -> "ExponentialSum":
        """Build from an iterable of (amplitude_vector, omega) pairs."""
        amps, omegas = zip(*((np.atleast_1d(a), w) for a, w in terms))
        return cls(np.vstack([a[None, :] for a in amps]), np.array(omegas))

    def evaluate(self, x) -> np.ndarray:
        """Sum value at point(s) x; shape (n,) for a scalar x, (len(x), n) else."""
        x_arr = np.asarray(x, dtype=np.float64)
        phases = np.exp(1j * np.multiply.outer(x_arr, self.omegas))
        values = phases @ self.amplitudes
        return values


def vandermonde_product(omegas) -> complex:
    """prod over k < l of (i w_l - i w_k); zero iff two frequencies repeat."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    if omegas.size < 1:
        raise DomainError("need at least one frequency")
    product = 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for k in range(omegas.size):
            for ell in range(k + 1, omegas.size):
                product *= 1j * (omegas[ell] - omegas[k])
    if not cmath.isfinite(product):
        raise DomainError(f"Vandermonde product of {omegas.size} frequencies overflows")
    return product


def sum_residual(s: ExponentialSum, x_grid) -> float:
    """max over the grid of the Euclidean norm of the sum; 0 means cancellation."""
    x = np.atleast_1d(np.asarray(x_grid, dtype=np.float64))
    if np.unique(x).size < 2 * len(s.omegas):
        raise DomainError(
            f"grid needs at least {2 * len(s.omegas)} distinct points, got {np.unique(x).size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        residual = float(np.max(_norm(s.evaluate(x), axis=-1)))
    if not math.isfinite(residual):
        raise DomainError(
            f"residual of a sum of {len(s.omegas)} terms overflows: the norm of the sum exceeds the float range"
        )
    return residual


def _amplitude_scale(s: ExponentialSum) -> float:
    """Sum of the amplitude norms, the scale a residual is judged against."""
    with np.errstate(over="ignore"):  # an overflow raises below
        scale = float(np.sum(_norm(s.amplitudes, axis=1)))
    if not math.isfinite(scale):
        raise DomainError(
            f"amplitude scale of {len(s.omegas)} terms overflows: "
            "the sum of the amplitude norms exceeds the float range"
        )
    return scale


def _spread(omegas: np.ndarray) -> float:
    """Largest frequency difference, max - min; DomainError if it overflows."""
    with np.errstate(over="ignore"):
        spread = float(np.max(omegas) - np.min(omegas))
    if not math.isfinite(spread):
        raise DomainError(f"frequency spread {np.max(omegas)} - ({np.min(omegas)}) overflows")
    return spread


def _min_gap(omegas: np.ndarray) -> float:
    """Smallest nonzero pairwise frequency difference (inf if all equal)."""
    unique = np.unique(omegas)
    if unique.size < 2:
        return math.inf
    _spread(unique)  # an overflowing difference must not read as "all equal"
    return float(np.min(np.diff(unique)))


def canonical_grid(omegas) -> np.ndarray:
    """Uniform 4N-point grid spanning one period of the smallest gap.

    With all frequencies equal (or a single term) the span falls back to
    one period of the common frequency (or 2*pi for zero frequency).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    n = omegas.size
    gap = _min_gap(omegas)
    if math.isinf(gap):
        base = abs(omegas[0]) if omegas[0] != 0.0 else 1.0
        span = 2.0 * math.pi / base
    else:
        span = 2.0 * math.pi / gap
    return np.linspace(0.0, span, max(4 * n, 2 * n + 1))


def assert_forced_equality(s: ExponentialSum, tol: float) -> bool:
    """Whether a numerically cancelling sum indeed has all-equal frequencies.

    The caller asserts that the sum cancels (residual over the canonical
    grid at most tol * sum of amplitude norms).  Returns True iff the
    frequencies are pairwise equal within resolvable precision -- the only
    way a sum with nonzero amplitudes can cancel.  Raises
    :class:`ResolutionError` when the claim cannot be certified: either
    the smallest gap is below sampling resolution, or a near-zero residual
    is reported for genuinely distinct frequencies (numerical misuse).
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    omegas = s.omegas
    scale = max(1.0, float(np.max(np.abs(omegas))))
    spread = _spread(omegas)
    if spread <= _EQUAL_RTOL * scale:
        return True
    gap = _min_gap(omegas)
    if gap < _RESOLVE_RTOL * scale:
        raise ResolutionError(
            f"smallest frequency gap {gap:.3e} is below sampling resolution "
            f"({_RESOLVE_RTOL * scale:.3e}); cannot certify equality"
        )
    residual = sum_residual(s, canonical_grid(omegas))
    if residual <= tol * _amplitude_scale(s):
        raise ResolutionError(
            f"residual {residual:.3e} reported as cancelling for distinct "
            "frequencies with nonzero amplitudes; impossible for an exact sum, "
            "so the sampled claim is numerically unsound"
        )
    return False
