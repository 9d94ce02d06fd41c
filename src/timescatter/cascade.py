"""Sequences of temporal interfaces with free propagation between them.

Each interface maps the instantaneous (forward, backward) mode amplitude
pair just before the switch to the pair just after; free propagation
between switches advances the phases.  Because every operation in scope
preserves the polarization vector, the cascade works with 2x2 complex
matrices acting on scalar amplitude pairs (E-field amplitudes relative
to the incident wave); the polarization rides along unchanged.

Chaining one-period cells gives photonic-time-crystal diagnostics: the
eigenvalues of the period matrix decide between phase evolution
(|eigenvalue| = 1) and exponential amplification (a momentum gap).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
import numpy as np

from .errors import DegenerateCaseError, DomainError, NumericalDegeneracyWarning
from .media import MediumState, wave_speed
from .oracle import ModeAmplitudes
from .scatter import scatter_kernel
from .waves import PlaneWave

__all__ = [
    "InterfaceMatrix",
    "TimelineSegment",
    "CascadeTraceStep",
    "CascadeResult",
    "FloquetResult",
    "interface_matrix",
    "propagate",
    "cascade_scatter",
    "floquet_exponent",
]

_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InterfaceMatrix:
    """2x2 complex map of (forward, backward) amplitudes across one step.

    Also used for the diagonal free-propagation factors, so products of
    these matrices describe whole timelines.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (2, 2):
            raise DomainError(f"entries must be 2x2, got shape {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def __matmul__(self, other):
        if isinstance(other, InterfaceMatrix):
            return InterfaceMatrix(self.entries @ other.entries)
        return self.entries @ np.asarray(other)

    def apply(self, forward: complex, backward: complex) -> tuple[complex, complex]:
        out = self.entries @ np.array([forward, backward])
        return complex(out[0]), complex(out[1])

    @classmethod
    def identity(cls) -> "InterfaceMatrix":
        return cls(np.eye(2, dtype=np.complex128))


@dataclass(frozen=True)
class TimelineSegment:
    """A constant medium held for a duration (zero dwell allowed)."""

    medium: MediumState
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", float(self.duration))
        if not (self.duration >= 0.0 and math.isfinite(self.duration)):
            raise DomainError(f"duration must be finite and >= 0, got {self.duration}")


def interface_matrix(before: MediumState, after: MediumState) -> InterfaceMatrix:
    """Amplitude transfer matrix of one temporal interface (default convention).

    The first column is the (transmitted, reflected) scalar pair for
    forward incidence; the second column follows from applying the same
    formulas to backward incidence (the mirror image k -> -k), which
    swaps the roles of the two slots.  Identical media give the identity.
    """
    return _interface_step(before, after)[0]


def _interface_step(before: MediumState, after: MediumState) -> tuple[InterfaceMatrix, float]:
    """interface_matrix and the frequency factor |v+/v-| of the switch, from one kernel call."""
    try:
        _, factor, r, t = scatter_kernel(
            1.0, before.epsilon, before.mu, before.branch, after.epsilon, after.mu, after.branch
        )
    except DegenerateCaseError as exc:
        raise DegenerateCaseError(f"no unique interface matrix: {exc}") from exc
    return InterfaceMatrix(np.array([[t, r], [r, t]], dtype=np.complex128)), factor


def propagate(omega: float, duration: float) -> InterfaceMatrix:
    """Free-propagation phases diag(exp(-i|w|d), exp(+i|w|d))."""
    if duration < 0.0:
        raise DomainError(f"duration must be >= 0, got {duration}")
    phase = abs(omega) * duration
    return InterfaceMatrix(
        np.array(
            [[cmath.exp(-1j * phase), 0.0], [0.0, cmath.exp(1j * phase)]],
            dtype=np.complex128,
        )
    )


@dataclass(frozen=True)
class CascadeTraceStep:
    """One event of a cascade: a dwell in a segment or an interface."""

    kind: str  # "propagate" | "interface"
    index: int
    omega: float
    forward: complex
    backward: complex


@dataclass(frozen=True, eq=False)
class CascadeResult:
    """Final amplitudes of a timeline plus the per-event trace."""

    amplitudes: ModeAmplitudes
    omega_final: float
    trace: tuple
    net_matrix: InterfaceMatrix


def cascade_scatter(timeline, incident: PlaneWave) -> CascadeResult:
    """Push an incident wave through a timeline of media.

    ``timeline`` is a sequence of :class:`TimelineSegment`; consecutive
    segments meet at temporal interfaces.  The incident wave must live in
    the first segment's medium.  Amplitudes are E-field scalars relative
    to the incident amplitude, starting at (1, 0); the working frequency
    is rescaled by |v_next/v_prev| at every interface and drives the
    propagation phases.
    """
    segments = list(timeline)
    if not segments:
        raise DomainError("timeline must contain at least one segment")
    v0 = wave_speed(segments[0].medium)
    if abs(incident.v - v0) > 1e-9 * abs(v0):
        raise DomainError(
            f"incident wave speed {incident.v} does not match the first segment ({v0})"
        )
    if incident.omega <= 0.0:
        raise DomainError("incident frequency must be positive")

    omega = incident.omega
    fwd, bwd = 1.0 + 0.0j, 0.0j
    net = InterfaceMatrix.identity()
    trace = []

    for j, segment in enumerate(segments):
        step = propagate(omega, segment.duration)
        fwd, bwd = step.apply(fwd, bwd)
        net = step @ net
        trace.append(CascadeTraceStep("propagate", j, omega, fwd, bwd))
        if j + 1 < len(segments):
            here, there = segment.medium, segments[j + 1].medium
            try:
                step, factor = _interface_step(here, there)
            except DegenerateCaseError as exc:
                raise DegenerateCaseError(f"interface {j} is degenerate: {exc}") from exc
            fwd, bwd = step.apply(fwd, bwd)
            net = step @ net
            omega *= factor
            trace.append(CascadeTraceStep("interface", j, omega, fwd, bwd))

    polarization = incident.amplitude / np.linalg.norm(incident.amplitude)
    amps = ModeAmplitudes(fwd, bwd, polarization)
    return CascadeResult(
        amplitudes=amps, omega_final=omega, trace=tuple(trace), net_matrix=net
    )


@dataclass(frozen=True, eq=False)
class FloquetResult:
    """Per-period eigenstructure of a periodic timeline cell."""

    exponents: tuple
    eigenvalues: tuple
    half_trace: complex
    momentum_gap: bool
    period_matrix: InterfaceMatrix
    period: float


def one_period_matrix(cell, omega_in: float) -> tuple[InterfaceMatrix, float]:
    """Transfer matrix over one period of a cell, wrapping back to its start.

    The cell is a sequence of :class:`TimelineSegment`; after the last
    segment an interface back to the first segment's medium closes the
    period, so the matrix can be iterated.
    """
    segments = list(cell)
    if not segments:
        raise DomainError("cell must contain at least one segment")
    period = sum(s.duration for s in segments)
    if period <= 0.0:
        raise DomainError("cell total duration must be positive")
    omega = abs(float(omega_in))
    if omega == 0.0:
        raise DomainError("omega_in must be nonzero")
    net = InterfaceMatrix.identity()
    for j, segment in enumerate(segments):
        net = propagate(omega, segment.duration) @ net
        nxt = segments[(j + 1) % len(segments)].medium
        if j + 1 < len(segments) or nxt != segment.medium:
            step, factor = _interface_step(segment.medium, nxt)
            net = step @ net
            omega *= factor
    return net, period


def floquet_exponent(cell, omega_in: float) -> FloquetResult:
    """Eigen-exponents of the one-period matrix of a periodic cell.

    Returns the principal logarithms of the two eigenvalues (per period)
    and flags |trace/2| > 1 as a momentum-gap (amplifying) cell.  A
    defective matrix within tolerance triggers
    :class:`NumericalDegeneracyWarning`.
    """
    matrix, period = one_period_matrix(cell, omega_in)
    entries = matrix.entries
    tr = complex(entries[0, 0] + entries[1, 1])
    det = complex(entries[0, 0] * entries[1, 1] - entries[0, 1] * entries[1, 0])
    disc_sq = tr * tr - 4.0 * det
    disc = cmath.sqrt(disc_sq)
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    scale = max(abs(tr), abs(det), 1.0)
    if abs(disc_sq) <= _DEGENERACY_TOL * scale**2 and np.linalg.norm(
        entries - 0.5 * tr * np.eye(2)
    ) > _DEGENERACY_TOL * scale:
        warnings.warn(
            "one-period matrix is defective within tolerance; "
            "Floquet exponents may be inaccurate",
            NumericalDegeneracyWarning,
            stacklevel=2,
        )
    exponents = (cmath.log(lam1), cmath.log(lam2))
    return FloquetResult(
        exponents=exponents,
        eigenvalues=(lam1, lam2),
        half_trace=0.5 * tr,
        momentum_gap=bool(abs(0.5 * tr) > 1.0),
        period_matrix=matrix,
        period=period,
    )
