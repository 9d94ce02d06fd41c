"""Sequences of temporal interfaces with free propagation between them.

Each interface maps the instantaneous (forward, backward) mode amplitude
pair just before the switch to the pair just after; free propagation
between switches advances the phases.  Because every operation in scope
preserves the polarization vector, the cascade works with read-only
(2, 2) complex arrays acting on scalar amplitude pairs (E-field amplitudes
relative to the incident wave); the polarization rides along unchanged.

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
from .scatter import _NONFINITE_AMPLITUDE, scatter_kernel
from .waves import PlaneWave, _check_incident, _rescaled

__all__ = [
    "TimelineSegment",
    "CascadeResult",
    "FloquetResult",
    "interface_matrix",
    "propagate",
    "cascade_scatter",
    "floquet_exponent",
    "floquet_from_net",
]

_DEGENERACY_TOL = 1e-9
_GAP_TOL = 1e-9  # |lambda| of a pass band is 1 to a few ulp either side


def _duration(value) -> float:
    """``value`` as a float; DomainError unless it is finite and >= 0."""
    duration = float(value)
    if not (duration >= 0.0 and math.isfinite(duration)):
        raise DomainError(f"duration must be finite and >= 0, got {duration}")
    return duration


@dataclass(frozen=True)
class TimelineSegment:
    """A constant medium held for a duration (zero dwell allowed)."""

    medium: MediumState
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", _duration(self.duration))


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def _matrix(entries) -> np.ndarray:
    """Read-only (2, 2) complex matrix from its four entries in row-major order."""
    return _read_only(np.array(entries, dtype=np.complex128).reshape(2, 2))


def interface_matrix(before: MediumState, after: MediumState) -> np.ndarray:
    """Amplitude transfer matrix of one temporal interface (default convention).

    The first column is the (transmitted, reflected) scalar pair for
    forward incidence; the second column follows from applying the same
    formulas to backward incidence (the mirror image k -> -k), which
    swaps the roles of the two slots.  Identical media give the identity.
    """
    t, r = _interface(before, after)[0]
    return _matrix((t, r, r, t))


def _interface(before: MediumState, after: MediumState) -> tuple:
    """interface_matrix's (t, r) as complex, so every Python rounds products alike, and the factor |v+/v-|."""
    try:
        _, factor, r, t = scatter_kernel(
            1.0, before.epsilon, before.mu, before.branch, after.epsilon, after.mu, after.branch
        )
    except DegenerateCaseError as exc:
        raise DegenerateCaseError(f"no unique interface matrix: {exc}") from exc
    return (complex(t), complex(r)), factor


def _through(t, r, a, b, c, d) -> tuple:
    """[[t, r], [r, t]] @ [[a, b], [c, d]] as four row sums: one interface applied to row-major entries."""
    return t * a + r * c, t * b + r * d, r * a + t * c, r * b + t * d


def _dwell(omega: float, duration: float) -> tuple:
    """Diagonal (p, q) of propagate(omega, duration)."""
    phase = abs(omega) * duration
    return cmath.exp(-1j * phase), cmath.exp(1j * phase)


def _check_phase(omega: float, duration: float, where: str = ""):
    if not math.isfinite(abs(omega) * duration):  # a NaN or infinite omega, or an overflowing phase
        raise DomainError(f"{where}phase |omega|*duration must be finite, got omega={omega}, duration={duration}")


def propagate(omega: float, duration: float) -> np.ndarray:
    """Free-propagation phases diag(exp(-i|w|d), exp(+i|w|d)); DomainError unless |w|*d is finite."""
    duration = _duration(duration)
    _check_phase(omega, duration)
    return _matrix(np.diag(_dwell(omega, duration)))


def _event_labels(count: int) -> tuple[list, list]:
    """Kind and index of each of ``count`` cascade events, as CascadeResult orders them."""
    return [("propagate", "interface")[k % 2] for k in range(count)], [k // 2 for k in range(count)]


@dataclass(frozen=True, eq=False)
class CascadeResult:
    """Final amplitudes of a timeline plus the per-event trace, kept as columns.

    Event k is the dwell in segment k // 2 for even k and the interface
    after that segment for odd k (``_event_labels``).  ``trace_omega[k]``
    is the frequency in force after event k and ``trace_amplitudes[k]``
    the (forward, backward) amplitude pair after it.
    """

    amplitudes: ModeAmplitudes
    omega_final: float
    net_matrix: np.ndarray
    trace_omega: tuple
    trace_amplitudes: np.ndarray  # read-only (events, 2) complex


def _timeline_product(segments, omega: float, trace=False):
    """Product of a timeline's dwell and interface matrices in one pass.

    ``omega`` drives the phases and is rescaled by |v_next/v_prev| at each
    interface; each distinct (before, after) media pair is solved once.  The
    net matrix is kept as four Python complex numbers and each event applied
    in event order (``net = step @ net``): a dwell scales the rows, an
    interface is ``_through``'s row sums.  The amplitudes from (1, 0) are the
    first column of the net matrix at every event, bit for bit, so the trace
    reads that column.  No product goes through numpy or BLAS, so the bits do
    not depend on the BLAS kernel.  Returns the net matrix's entries
    (row-major), the final frequency, the frequency after each event and,
    with ``trace``, the read-only (events, 2) amplitudes after each event.
    """
    count = len(segments)
    # The frequency and the amplitude column after each event; sized up front, since a list grown
    # entry by entry leaves holes in the heap that outlive the call.
    omegas, column = [omega] * (2 * count - 1), [0j] * (4 * count - 2) if trace else None
    solved = {}  # (before, after) media -> _interface(before, after)
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for j, segment in enumerate(segments):
        p, q = _dwell(omega, segment.duration)
        a, b, c, d = p * a, p * b, q * c, q * d
        omegas[2 * j] = omega
        if trace:
            column[4 * j:4 * j + 2] = a, c
        if j + 1 < count:
            pair = segment.medium, segments[j + 1].medium
            interface = solved.get(pair)
            if interface is None:
                try:
                    interface = solved[pair] = _interface(*pair)
                except DegenerateCaseError as exc:
                    raise DegenerateCaseError(f"interface {j} is degenerate: {exc}") from exc
                except DomainError as exc:
                    if str(exc) != _NONFINITE_AMPLITUDE:  # a speed ratio beyond the float range names itself
                        raise
                    raise DomainError(f"interface {j}: {exc}") from exc
            (t, r), factor = interface
            a, b, c, d = _through(t, r, a, b, c, d)
            omega *= factor
            omegas[2 * j + 1] = omega
            if trace:
                column[4 * j + 2:4 * j + 4] = a, c
    amps = _read_only(np.array(column, dtype=np.complex128).reshape(-1, 2)) if trace else None
    return (a, b, c, d), omega, omegas, amps


def cascade_scatter(timeline, incident: PlaneWave) -> CascadeResult:
    """Push an incident wave through a timeline of media.

    ``timeline`` is a sequence of :class:`TimelineSegment`; consecutive
    segments meet at temporal interfaces.  The incident wave must live in
    the first segment's medium.  Amplitudes are E-field scalars relative
    to the incident amplitude, starting at (1, 0); the working frequency
    is rescaled by |v_next/v_prev| at every interface and drives the
    propagation phases.  A cascade whose amplitudes (by modulus), frequency
    or net matrix leave the float range raises DomainError naming the
    first trace step that does.
    """
    segments = list(timeline)
    if not segments:
        raise DomainError("timeline must contain at least one segment")
    _check_incident(incident.amplitude, incident.k, incident.v, wave_speed(segments[0].medium))
    if incident.omega <= 0.0:
        raise DomainError("incident frequency must be positive")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, naming its step
        entries, omega, omegas, trace = _timeline_product(segments, incident.omega, trace=True)
        net = _matrix(entries)
        finite = np.isfinite(np.abs(trace)).all(axis=1) & np.isfinite(omegas)
    if not (finite.all() and np.isfinite(net).all()):
        k = int(np.argmin(finite)) if not finite.all() else len(finite) - 1
        kinds, indices = _event_labels(k + 1)
        raise DomainError(
            f"cascade overflows at trace step {k} ({kinds[k]} {indices[k]}): "
            "the amplitudes or the frequency exceed the float range"
        )
    amplitude = _rescaled(incident.amplitude)[0]  # so that its norm neither over- nor underflows
    polarization = amplitude / np.linalg.norm(amplitude)
    forward, backward = trace[-1].tolist()
    return CascadeResult(
        amplitudes=ModeAmplitudes(forward, backward, polarization),
        omega_final=omega,
        net_matrix=net,
        trace_omega=tuple(omegas),
        trace_amplitudes=trace,
    )


@dataclass(frozen=True, eq=False)
class FloquetResult:
    """Per-period eigenstructure of a periodic timeline cell."""

    exponents: tuple
    eigenvalues: tuple
    half_trace: complex
    momentum_gap: bool
    period_matrix: np.ndarray
    period: float


def _cell_period(segments) -> float:
    if not segments:
        raise DomainError("cell must contain at least one segment")
    period = sum(s.duration for s in segments)
    if period <= 0.0:
        raise DomainError("cell total duration must be positive")
    if period == math.inf:
        raise DomainError("cell total duration overflows")
    return period


def floquet_exponent(cell, omega_in: float) -> FloquetResult:
    """Eigen-exponents of the one-period matrix of a periodic cell.

    The cell is a sequence of :class:`TimelineSegment`.  Its one-period
    matrix (``period_matrix``) is cascade_scatter's product at |omega_in|,
    without the trace, closed by an interface from the last segment's
    medium back to the first's so that it can be iterated; the closing is
    floquet_from_net's, so the two agree to the bit.  Returns the principal
    logarithms of the two eigenvalues (per period) and flags max|eigenvalue|
    > 1 + 1e-9 as a momentum-gap (amplifying) cell.  A defective matrix
    within tolerance triggers :class:`NumericalDegeneracyWarning`; a matrix
    without finite eigenvalues raises :class:`DomainError`, which names the
    first segment whose dwell phase overflows, if one does.
    """
    segments = list(cell)
    period = _cell_period(segments)
    omega = abs(float(omega_in))
    if not math.isfinite(omega):
        raise DomainError(f"omega_in must be finite, got {omega_in}")
    if omega == 0.0:
        raise DomainError("omega_in must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing period matrix raises in _floquet
        entries, _, omegas, _ = _timeline_product(segments, omega)
        try:
            return _floquet(segments, entries, period)
        except DomainError:  # name an overflowing dwell phase, if that is the cause
            for j, (segment, omega) in enumerate(zip(segments, omegas[::2])):
                _check_phase(omega, segment.duration, f"segment {j}: ")
            raise


def floquet_from_net(cell, net_matrix: np.ndarray) -> FloquetResult:
    """floquet_exponent(cell, omega) from the net_matrix of cascade_scatter(cell) at omega.

    That product lacks only the closing interface, so it is not rebuilt.
    """
    segments = list(cell)
    period = _cell_period(segments)
    net = np.array(net_matrix, dtype=object)  # a ragged sequence has the shape of its regular outer part
    if net.shape != (2, 2):
        raise DomainError(f"net matrix must have shape (2, 2), got {net.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing period matrix raises in _floquet
        return _floquet(segments, net.astype(np.complex128).ravel().tolist(), period)


def _floquet(segments, entries, period: float) -> FloquetResult:
    """The closing and eigen-step shared by floquet_exponent and floquet_from_net.

    The net matrix's row-major ``entries``, closed by the interface from the
    last segment's medium back to the first's, have det = 1, so the
    eigenvalues are the roots of lam**2 - tr*lam + 1; lam1 is (tr +
    sqrt(tr**2 - 4)) / 2.  The root of
    larger modulus is taken without cancellation and the other is its
    reciprocal, so lam1 * lam2 = 1 however large the trace.
    """
    if segments[-1].medium != segments[0].medium:
        entries = _through(*_interface(segments[-1].medium, segments[0].medium)[0], *entries)
    matrix, tr = _matrix(entries), entries[0] + entries[3]
    try:
        modulus = abs(tr)
    except OverflowError:  # both parts finite, the modulus beyond the float range
        modulus = math.inf
    # sqrt(tr**2 - 4) / 2, with a large trace scaled by a power of two (exact) so tr**2 stays finite.
    exponent = max(math.frexp(modulus)[1], 0)
    scaled = math.ldexp(1.0, -exponent) * tr
    half_disc = math.ldexp(1.0, exponent - 1) * cmath.sqrt(scaled * scaled - math.ldexp(4.0, -2 * exponent))
    lam1, lam2 = 0.5 * tr + half_disc, 0.5 * tr - half_disc
    lam1, lam2 = (lam1, 1.0 / lam1) if abs(lam1) >= abs(lam2) else (1.0 / lam2, lam2)
    if not (cmath.isfinite(lam1) and cmath.isfinite(lam2)) or 0.0 in (lam1, lam2):
        raise DomainError(f"one-period matrix has no finite nonzero Floquet eigenvalues (trace {tr})")
    scale = max(modulus, 1.0)
    if 2.0 * abs(half_disc) <= math.sqrt(_DEGENERACY_TOL) * scale and np.linalg.norm(
        matrix - 0.5 * tr * np.eye(2)
    ) > _DEGENERACY_TOL * scale:
        warnings.warn(
            "one-period matrix is defective within tolerance; "
            "Floquet exponents may be inaccurate",
            NumericalDegeneracyWarning,
            stacklevel=3,
        )
    return FloquetResult(
        exponents=(cmath.log(lam1), cmath.log(lam2)),
        eigenvalues=(lam1, lam2),
        half_trace=0.5 * tr,
        momentum_gap=bool(max(abs(lam1), abs(lam2)) > 1.0 + _GAP_TOL),
        period_matrix=matrix,
        period=period,
    )
