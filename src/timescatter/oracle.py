"""Independent verification path: exact mode ODEs through smooth ramps.

For spatially uniform media every spatial wavenumber evolves
independently.  Writing the fields of one mode as D(t)*exp(i m.x) and
B(t)*exp(i m.x), the curl equations become ordinary differential
equations

    dD/dt =  i m x (B / mu(t)),
    dB/dt = -i m x (D / eps(t)),

with no approximation.  D and B (not E and H) are the state variables
because exactly eps*E and mu*H stay continuous when the medium switches,
so the sudden-switch limit of a ramp is plain continuity of the state.

Integrating a unit forward mode through a smooth ramp and splitting its
final state into the constant-medium eigenmodes yields numerical reflection
and transmission coefficients, the same for every incident amplitude and
polarization, that converge to the step-interface values as the ramp narrows.

In a real orthonormal basis e1, e2 = m^ x e1 transverse to m, the pairs
(d1, i b2) and (d2, -i b1) obey one real system y' = A(t) y with
A = [[0, -|m|/mu], [|m|/eps, 0]], and D.m^ and B.m^ are constant.  So a
real 2x2 fundamental matrix Phi (Phi' = A Phi, Phi = I at the start)
carries every state of that |m|, with det Phi = 1 (Liouville: tr A = 0);
the transfer-matrix form of Morgenthaler, IRE Trans. MTT 6, 167 (1958).
:func:`integrate` takes each constant stretch in one exact 2x2 step,
cos(wh) I + sin(wh)/w A, and runs an adaptive Dormand-Prince 5(4) pair
on Phi's four entries, as floats, only inside ramps.  Sharp switches
(steps, periodic time crystals) need no limit: D and B pass through
them unchanged.  None of this uses the interface formulas of
:mod:`.scatter` or :mod:`.cascade`, so the oracle checks them independently.
"""

from __future__ import annotations

import cmath
import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainError, StiffnessError
from .media import MediumState, TemporalProfile, wave_speed
from .scatter import coefficients
from .waves import _NEXT, _PREV, PlaneWave, _check_incident, _magnetic_amplitude, _norm, _vector3, phase_vector

__all__ = [
    "ModeState",
    "ModeAmplitudes",
    "mode_rhs",
    "integrate",
    "mode_decompose",
    "mode_reconstruct",
    "plane_wave_mode_state",
    "numeric_rt",
    "convergence_study",
    "ConvergenceStudy",
]

DEFAULT_TOL = 1e-10  # local error per unit time
LAUNCH_PADDING_PERIODS = 5.0


@dataclass(frozen=True, eq=False)
class ModeState:
    """Electric and magnetic flux amplitudes of one spatial mode at time t; DomainError if not finite."""

    D: np.ndarray
    B: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "D", _vector3(self.D, "D", finite=False))
        object.__setattr__(self, "B", _vector3(self.B, "B", finite=False))
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t):
            raise DomainError(f"mode state time must be finite, got t={self.t}")
        if not all(map(cmath.isfinite, y := self.D.tolist() + self.B.tolist())):
            raise DomainError(f"mode state is not finite at t={self.t}: {y}")


@dataclass(frozen=True, eq=False)
class ModeAmplitudes:
    """Coefficients of the two constant-medium eigenmodes.

    ``forward`` multiplies the mode with phase exp(i(m.x - |w|t)) and
    ``backward`` the one with exp(i(m.x + |w|t)); both are D-field scaled
    projections onto the shared unit ``polarization`` vector.
    """

    forward: complex
    backward: complex
    polarization: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "polarization", _vector3(self.polarization, "polarization", finite=False))
        object.__setattr__(self, "forward", complex(self.forward))
        object.__setattr__(self, "backward", complex(self.backward))


def _modulus(m) -> tuple[np.ndarray, float]:
    """A copy of m and |m|; DomainError naming m unless it is a finite real 3-vector with |m|**2 normal."""
    m = _vector3(m, "m", float)
    with np.errstate(over="ignore"):  # an overflowing |m| is rejected below
        mag = math.sqrt(m.dot(m))  # np.linalg.norm's own formula for a real 3-vector
    if not sys.float_info.min <= mag * mag < math.inf:
        raise DomainError(f"phase vector magnitude {mag!r} is out of range: |m|**2 must be a normal float")
    return m, mag


def mode_rhs(state: ModeState, m: np.ndarray, medium: MediumState):
    """Time derivatives (dD/dt, dB/dt) = (i m x B / mu, -i m x D / eps) of one spatial mode.

    Preserves the divergence constraints D.m = B.m = 0 exactly: both
    derivatives are cross products with m.
    """
    m = _modulus(m)[0]
    with np.errstate(all="ignore"):  # a derivative that overflows is rejected below
        dD, dB = (1j / medium.mu) * np.cross(m, state.B), (-1j / medium.epsilon) * np.cross(m, state.D)
    if not (np.isfinite(dD).all() and np.isfinite(dB).all()):
        raise DomainError(f"mode derivatives are not finite for m={m.tolist()} in medium {medium}")
    return dD, dB


def _basis(m: np.ndarray, mag: float):
    """Rows e1, e2 = m^ x e1 and m^ of a right-handed orthonormal basis, as Python floats."""
    n = (m / mag).tolist()
    j = min(range(3), key=lambda i: abs(n[i]))  # the axis least along m
    e1 = [float(i == j) - n[j] * c for i, c in enumerate(n)]
    norm = math.hypot(*e1)  # at least sqrt(2/3)
    e1 = [c / norm for c in e1]
    return e1, [n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2], n[0] * e1[1] - n[1] * e1[0]], n


def _project(basis, D, B):
    """[d1, d2, i b2, -i b1, d3, b3]: the pairs (d1, i b2) and (d2, -i b1) obey y' = A y; d3 and b3 lie along m."""
    (d1, d2, d3), (b1, b2, b3) = ([x * v[0] + y * v[1] + z * v[2] for x, y, z in basis] for v in (D, B))
    return [d1, d2, 1j * b2, -1j * b1, d3, b3]


def _unproject(basis, d1, d2, c1, c2, d3, b3):
    """D and B, as lists of Python complex numbers, of the coordinates of _project."""
    D = [d1 * x + d2 * y + d3 * z for x, y, z in zip(*basis)]
    return D, [1j * c2 * x - 1j * c1 * y + b3 * z for x, y, z in zip(*basis)]


_MAX_STEPS = 10_000_000
_MIN_STEP_REL = 1e-14
_MAX_PHASE = 2 * math.pi / sys.float_info.epsilon  # past it, one rounding of w*h spans a whole period


class _PeriodicPieces:
    """A periodic profile's constant pieces from lo to hi, made one at a time: iter() up in time, reversed() down."""

    def __init__(self, profile, lo: float, hi: float):
        t0, period = profile.switches[0], profile.period
        count = 2.0 * ((hi - max(lo, t0)) / period + 1.0)  # two switches per period, counted before the walk
        if not count <= _MAX_STEPS:
            raise StiffnessError(
                f"the span from t={lo} to t={hi} holds about {count:.3g} periodic switch instants,"
                f" more than the {_MAX_STEPS}-step cap",
            )
        n = max(0.0, (lo - t0) / period)  # whole periods before the span
        if n == math.inf:
            raise DomainError(f"t={lo} lies beyond the float range of periods {period} after t={t0}")
        first = last = math.floor(n)
        while t0 + last * period <= hi:  # the periods first to last - 1 start by hi
            last += 1
        self.span, self.periods = (lo, hi, t0, period, profile.duty * period), range(first, last)

    def __iter__(self, backward=False):
        (lo, hi, t0, period, duty), ks = self.span, self.periods[::-1] if backward else self.periods
        cursor, end = (hi, lo) if backward else (lo, hi)
        # Period starts and duty switches each move monotonically with k, so merging the two sorts every instant.
        for x in heapq.merge((t0 + k * period for k in ks), (t0 + k * period + duty for k in ks), reverse=backward):
            if lo < x < hi and x != cursor:  # the instant ends one constant piece and starts the next
                yield min(cursor, x), max(cursor, x), False
                cursor = x
        if cursor != end:
            yield min(cursor, end), max(cursor, end), False

    def __reversed__(self):
        return self.__iter__(backward=True)


def _pieces(profile, lo: float, hi: float):
    """Split [lo, hi] into (a, b, varying) pieces in increasing time.

    Varying pieces are the nonzero-width switch intervals, merged where
    they overlap and clipped to the span.  Between them the medium is
    constant.  A zero-width switch only ends one constant piece and
    starts the next.  A profile that declares no switch intervals at all
    may vary anywhere, so its whole span is one varying piece.
    """
    getter = getattr(profile, "switch_intervals", None)
    if getter is None:
        return [(lo, hi, True)]
    intervals = getter()
    if intervals is None:
        return _PeriodicPieces(profile, lo, hi)
    pieces, cursor = [], lo
    for a, b in sorted(intervals):
        if b < lo or a > hi:
            continue
        a, b = max(a, lo), min(b, hi)
        if a < cursor:
            # Overlaps the varying piece just before: extend it.
            if b > cursor:
                pieces[-1] = (pieces[-1][0], b, True)
                cursor = b
            continue
        if a > cursor:
            pieces.append((cursor, a, False))
        if b > a:
            pieces.append((a, b, True))
        cursor = b
    if hi > cursor:
        pieces.append((cursor, hi, False))
    return pieces


def _propagator(mag: float, medium: MediumState, h: float):
    """exp(hA) for a constant medium, as (p, q, r, s): A**2 = -w**2 I, so exp(hA) = cos(wh) I + sin(wh)/w A.

    With a = |m|/mu, b = |m|/eps and w = sqrt(ab) = |m| |v|, a/w = 1/(mu |v|) and b/w = 1/(eps |v|),
    so a double-negative medium takes the same form.
    """
    v = abs(wave_speed(medium))
    w = mag * v
    if not abs(w * h) <= _MAX_PHASE:  # NaN fails too
        raise DomainError(f"phase w*h = {w * h!r} of a constant piece exceeds 2 pi / float epsilon = {_MAX_PHASE!r}")
    c, s = math.cos(w * h), math.sin(w * h)
    return c, -s / (medium.mu * v), s / (medium.epsilon * v), c


def _dormand_prince(sample, mag, t, t_end, tol):
    """The fundamental matrix (p, q, r, s) = [[p, q], [r, s]] from t to t_end through a varying medium.

    Adaptive Dormand-Prince 5(4) on Phi' = A Phi from Phi(t) = I, A = [[0, a], [b, 0]], a = -|m|/mu and
    b = |m|/eps, on Phi's four entries as floats, slopes (a r, a s, b p, b q); a row's modulus is libm hypot.
    Starts afresh, so the first stage is evaluated at t itself rather than carried over (FSAL) from a
    step that ended on the other side of a switch.  Stage 7 is at stage 6's node and reuses its medium.
    """
    direction = 1.0 if t_end > t else -1.0
    span, end_floor = abs(t_end - t), _MIN_STEP_REL * max(1.0, abs(t_end))
    if span <= end_floor:
        raise StiffnessError(
            f"varying interval from t={t} to t={t_end} is narrower than the step floor 1e-14 * max(1, |t|)",
            smallest_step=0.0,
        )
    a, b = -mag / (medium := sample(t)).mu, mag / medium.epsilon
    # Initial step: a fraction of the local oscillation period.
    h = min(span, 0.1 / (mag * abs(wave_speed(medium))))  # > 0, since _modulus bounds |m| below
    smallest = h
    p, q, r, s, y_max = 1.0, 0.0, 0.0, 1.0, 1.0
    u1, v1, w1, x1 = a * r, a * s, b * p, b * q  # the slopes of p, q, r and s
    for _ in range(_MAX_STEPS):
        remaining = abs(t_end - t)
        if remaining <= end_floor:
            return p, q, r, s
        h_abs = min(h, remaining)
        if h_abs < _MIN_STEP_REL * max(abs(t), 1.0):
            raise StiffnessError(
                f"step size underflow at t={t} (smallest step {smallest:.3e})",
                smallest_step=smallest,
            )
        smallest = min(smallest, h_abs)
        hs = direction * h_abs
        # Stage i: each entry plus hs * sum_j a_ij times its slope at stage j; a and b of the medium at t + c_i hs.
        p2, q2, r2, s2 = p + hs * (1 / 5 * u1), q + hs * (1 / 5 * v1), r + hs * (1 / 5 * w1), s + hs * (1 / 5 * x1)
        a, b = -mag / (medium := sample(t + 1 / 5 * hs)).mu, mag / medium.epsilon
        u2, v2, w2, x2 = a * r2, a * s2, b * p2, b * q2
        p3, q3 = p + hs * (3 / 40 * u1 + 9 / 40 * u2), q + hs * (3 / 40 * v1 + 9 / 40 * v2)
        r3, s3 = r + hs * (3 / 40 * w1 + 9 / 40 * w2), s + hs * (3 / 40 * x1 + 9 / 40 * x2)
        a, b = -mag / (medium := sample(t + 3 / 10 * hs)).mu, mag / medium.epsilon
        u3, v3, w3, x3 = a * r3, a * s3, b * p3, b * q3
        p4 = p + hs * (44 / 45 * u1 - 56 / 15 * u2 + 32 / 9 * u3)
        q4 = q + hs * (44 / 45 * v1 - 56 / 15 * v2 + 32 / 9 * v3)
        r4 = r + hs * (44 / 45 * w1 - 56 / 15 * w2 + 32 / 9 * w3)
        s4 = s + hs * (44 / 45 * x1 - 56 / 15 * x2 + 32 / 9 * x3)
        a, b = -mag / (medium := sample(t + 4 / 5 * hs)).mu, mag / medium.epsilon
        u4, v4, w4, x4 = a * r4, a * s4, b * p4, b * q4
        p5 = p + hs * (19372 / 6561 * u1 - 25360 / 2187 * u2 + 64448 / 6561 * u3 - 212 / 729 * u4)
        q5 = q + hs * (19372 / 6561 * v1 - 25360 / 2187 * v2 + 64448 / 6561 * v3 - 212 / 729 * v4)
        r5 = r + hs * (19372 / 6561 * w1 - 25360 / 2187 * w2 + 64448 / 6561 * w3 - 212 / 729 * w4)
        s5 = s + hs * (19372 / 6561 * x1 - 25360 / 2187 * x2 + 64448 / 6561 * x3 - 212 / 729 * x4)
        a, b = -mag / (medium := sample(t + 8 / 9 * hs)).mu, mag / medium.epsilon
        u5, v5, w5, x5 = a * r5, a * s5, b * p5, b * q5
        p6 = p + hs * (9017 / 3168 * u1 - 355 / 33 * u2 + 46732 / 5247 * u3 + 49 / 176 * u4 - 5103 / 18656 * u5)
        q6 = q + hs * (9017 / 3168 * v1 - 355 / 33 * v2 + 46732 / 5247 * v3 + 49 / 176 * v4 - 5103 / 18656 * v5)
        r6 = r + hs * (9017 / 3168 * w1 - 355 / 33 * w2 + 46732 / 5247 * w3 + 49 / 176 * w4 - 5103 / 18656 * w5)
        s6 = s + hs * (9017 / 3168 * x1 - 355 / 33 * x2 + 46732 / 5247 * x3 + 49 / 176 * x4 - 5103 / 18656 * x5)
        a, b = -mag / (medium := sample(t + hs)).mu, mag / medium.epsilon
        u6, v6, w6, x6 = a * r6, a * s6, b * p6, b * q6
        # The 5th-order entries; their slopes, at the same instant and medium, are the next step's first (FSAL).
        p7 = p + hs * (35 / 384 * u1 + 500 / 1113 * u3 + 125 / 192 * u4 - 2187 / 6784 * u5 + 11 / 84 * u6)
        q7 = q + hs * (35 / 384 * v1 + 500 / 1113 * v3 + 125 / 192 * v4 - 2187 / 6784 * v5 + 11 / 84 * v6)
        r7 = r + hs * (35 / 384 * w1 + 500 / 1113 * w3 + 125 / 192 * w4 - 2187 / 6784 * w5 + 11 / 84 * w6)
        s7 = s + hs * (35 / 384 * x1 + 500 / 1113 * x3 + 125 / 192 * x4 - 2187 / 6784 * x5 + 11 / 84 * x6)
        u7, v7, w7, x7 = a * r7, a * s7, b * p7, b * q7
        # The local error estimate hs * sum_j e_j k_j: the larger modulus of its two rows, by libm hypot.
        eu = 71 / 57600 * u1 - 71 / 16695 * u3 + 71 / 1920 * u4 - 17253 / 339200 * u5 + 22 / 525 * u6 - 1 / 40 * u7
        ev = 71 / 57600 * v1 - 71 / 16695 * v3 + 71 / 1920 * v4 - 17253 / 339200 * v5 + 22 / 525 * v6 - 1 / 40 * v7
        ew = 71 / 57600 * w1 - 71 / 16695 * w3 + 71 / 1920 * w4 - 17253 / 339200 * w5 + 22 / 525 * w6 - 1 / 40 * w7
        ex = 71 / 57600 * x1 - 71 / 16695 * x3 + 71 / 1920 * x4 - 17253 / 339200 * x5 + 22 / 525 * x6 - 1 / 40 * x7
        err = h_abs * max(abs(complex(eu, ev)), abs(complex(ew, ex)))
        P7, R7 = complex(p7, q7), complex(r7, s7)  # the rows as complex numbers, for libm hypot and the message
        new_max = max(abs(P7), abs(R7))
        if not (err < math.inf and new_max < math.inf):
            raise DomainError(f"mode state is not finite in the step from t={t} to t={t + hs}: rows {P7}, {R7}")
        budget = tol * h_abs * max(1.0, y_max, new_max)
        if err <= budget:
            t, p, q, r, s, y_max, u1, v1, w1, x1 = t + hs, p7, q7, r7, s7, new_max, u7, v7, w7, x7
        factor = 0.9 * (budget / err) ** 0.2 if err > 0.0 else 5.0
        h = h_abs * min(5.0, max(0.2, factor))
    raise StiffnessError(
        f"exceeded {_MAX_STEPS} steps (smallest step {smallest:.3e})",
        smallest_step=smallest,
    )


def integrate(
    profile,
    m: np.ndarray,
    initial: ModeState,
    t_end: float,
    tol: float = DEFAULT_TOL,
) -> ModeState:
    """Advance a mode state to t_end, in either time direction.

    ``profile`` is anything with a ``sample(t)`` method.  Its declared
    ``switch_intervals()`` split the path into pieces:

    * constant stretches advance in one step with the exact 2x2
      propagator of the constant-coefficient ODE, for the medium sampled
      at the stretch's midpoint;
    * nonzero-width intervals (ramps) run an adaptive Dormand-Prince 5(4)
      pair on the fundamental matrix Phi, from Phi = I, that holds its
      local error per unit time at or below ``tol``, scaled by
      max(1, larger modulus of Phi's rows, by the C library's hypot); the
      state's error is then relative to the state, whatever its size;
    * zero-width (sharp) switches, periodic ones included, are break points
      only: D and B are continuous across them, so the state passes
      through unchanged.  The two-valued instant is never sampled where
      the switch adjoins constant pieces; between two varying pieces it is,
      as the end of one and the start of the next.

    Each piece's matrix acts on the two transverse pairs of the state;
    the parts of D and B along m pass through.  A profile without
    ``switch_intervals`` is integrated by Dormand-Prince over the whole
    span.  A Dormand-Prince step samples the profile five times: the
    stage at the same node as the one before it reuses its medium, so
    ``sample`` must be a pure function of t.  A ``tol``
    below float64 resolution raises :class:`StiffnessError` at once, and so
    does a Dormand-Prince step below 1e-14 * max(1, |t|), a whole varying
    interval no wider than that floor (a ramp narrow against its distance
    from t = 0 cannot be resolved), a varying piece that needs more than
    10,000,000 steps, or a periodic span with more switch instants than that.
    A NaN or infinite state or ``t_end`` raises :class:`DomainError`, and so does
    a constant stretch whose phase |w h| exceeds 2 pi / float epsilon, about 2.8e16.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if tol < np.finfo(float).eps:
        raise StiffnessError(
            f"tol={tol:.3e} is below float64 resolution; no step size can meet it",
            smallest_step=0.0,
        )
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    t = initial.t
    if t_end == t:
        return initial
    m, mag = _modulus(m)
    basis = _basis(m, mag)
    pieces = _pieces(profile, min(t, t_end), max(t, t_end))
    if t_end < t:
        pieces = ((b, a, varying) for a, b, varying in reversed(pieces))

    d1, d2, c1, c2, d3, b3 = _project(basis, initial.D.tolist(), initial.B.tolist())
    for start, end, varying in pieces:
        if varying:
            p, q, r, s = _dormand_prince(profile.sample, mag, start, end, tol)
        else:
            p, q, r, s = _propagator(mag, profile.sample(0.5 * (start + end)), end - start)
        d1, d2, c1, c2 = p * d1 + q * c1, p * d2 + q * c2, r * d1 + s * c1, r * d2 + s * c2  # both pairs
        if not all(map(cmath.isfinite, (d1, d2, c1, c2, d3, b3))):
            where = f"in the step from t={start} to t={end}" if varying else f"at t={end}"
            raise DomainError(f"mode state is not finite {where}: {sum(_unproject(basis, d1, d2, c1, c2, d3, b3), [])}")
    return ModeState(*_unproject(basis, d1, d2, c1, c2, d3, b3), t_end)


def _split(D, kappa_x_B, medium: MediumState, v: float):
    """The forward and backward parts eps (E -+ v kappa x B) / 2 of D, E = D / eps, as ndarrays or complex numbers."""
    E, cross = D / medium.epsilon, v * kappa_x_B
    return medium.epsilon * (0.5 * (E - cross)), medium.epsilon * (0.5 * (E + cross))


def mode_decompose(state: ModeState, medium: MediumState, m: np.ndarray) -> ModeAmplitudes:
    """Project a state in a constant medium onto its two eigenmodes.

    Returns the D-scaled coefficients of the forward (exp(-i|w|t)) and
    backward (exp(+i|w|t)) modes along a shared unit polarization vector.
    Raises :class:`ConstraintError` for non-transversal or mixed-polarization
    states, which have no such two-scalar representation.
    """
    if medium.branch != +1:
        raise DomainError("mode decomposition is defined for positive-index media")
    m, mag = _modulus(m)
    kappa = m / mag
    v = wave_speed(medium)

    scale = max(_norm(state.D), _norm(state.B) / v)
    for vec, what in (state.D, "D"), (state.B, "B"):
        if abs(np.dot(vec, kappa)) > 1e-8 * scale:
            raise ConstraintError(f"{what} is not transversal to the phase vector")

    with np.errstate(all="ignore"):  # parts that leave the float range are rejected below
        kappa_x_B = kappa[_NEXT] * state.B[_PREV] - kappa[_PREV] * state.B[_NEXT]  # np.cross's bits
        D_f, D_b = _split(state.D, kappa_x_B, medium, v)
    if not (np.isfinite(D_f).all() and np.isfinite(D_b).all()):
        raise DomainError(f"eigenmode parts of the state are not finite in medium {medium}")

    norm_f, norm_b = _norm(D_f), _norm(D_b)
    if norm_f == 0.0 and norm_b == 0.0:
        # Zero field: any transverse polarization will do.
        p = np.zeros(3, dtype=np.complex128)
        p[int(np.argmin(np.abs(kappa)))] = 1.0
        p -= np.dot(np.conj(kappa), p) * kappa
        p /= np.linalg.norm(p)
        return ModeAmplitudes(0.0, 0.0, p)
    p = (D_f / norm_f) if norm_f >= norm_b else (D_b / norm_b)
    forward, backward = complex(np.vdot(p, D_f)), complex(np.vdot(p, D_b))
    # The two-scalar form exists only if both parts share the polarization.
    eps_rel = 1e-8 * max(norm_f, norm_b)
    if _norm(D_f - forward * p) > eps_rel or _norm(D_b - backward * p) > eps_rel:
        raise ConstraintError("state mixes polarizations; no two-scalar mode form")
    return ModeAmplitudes(forward, backward, p)


def mode_reconstruct(
    amps: ModeAmplitudes, medium: MediumState, m: np.ndarray, t: float
) -> ModeState:
    """Inverse of :func:`mode_decompose` at time t; DomainError if the state is not finite."""
    m, mag = _modulus(m)
    kappa = m / mag
    v = wave_speed(medium)
    with np.errstate(all="ignore"):  # a state that overflows is rejected below
        D = (amps.forward + amps.backward) * amps.polarization
        E_diff = (amps.forward - amps.backward) / medium.epsilon
        B = (E_diff / v) * np.cross(kappa, amps.polarization)
    return ModeState(D, B, t)


def plane_wave_mode_state(wave: PlaneWave, medium: MediumState, t: float) -> ModeState:
    """Mode state (D, B) of a plane wave at time t, for its own phase vector; DomainError if not finite."""
    with np.errstate(all="ignore"):  # a state that overflows, or whose mu * v underflows to 0, is rejected below
        phase = np.exp(-1j * wave.omega * t)
        D = medium.epsilon * wave.amplitude * phase
        B = medium.mu * _magnetic_amplitude(wave, medium.mu) * phase
    return ModeState(D, B, t)


def numeric_rt(
    profile, incident: PlaneWave, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Numerical (R, T) for a smooth profile by mode integration.

    Launches the first medium's forward mode D = e1, B = e2 / (eps |v|) in
    :func:`integrate`'s basis five periods before the first transition,
    integrates five periods past the last one, splits the pair (d1, i b2)
    by :func:`mode_decompose`'s rule in the final medium, and divides each
    part's modulus by the local |eps| and the launch's |E| = 1 / |eps|.
    """
    intervals = profile.switch_intervals()
    if intervals is None:
        raise DomainError("numeric_rt needs a profile with finitely many transitions")
    intervals = sorted(intervals)
    if not intervals:
        raise DomainError("profile has no transition; nothing to scatter off")
    if any(b - a <= 0.0 for a, b in intervals):
        raise DomainError("numeric_rt requires smooth (nonzero-width) transitions")
    before = profile.sample(intervals[0][0])
    _check_incident(incident.amplitude, incident.k, incident.v, wave_speed(before))
    if incident.omega <= 0.0:
        raise DomainError("incident frequency must be positive")

    m, mag = _modulus(phase_vector(incident))
    after = profile.sample(intervals[-1][1])
    omega_after = mag * abs(wave_speed(after))

    t_start = intervals[0][0] - LAUNCH_PADDING_PERIODS * incident.period
    t_end = intervals[-1][1] + LAUNCH_PADDING_PERIODS * (2.0 * math.pi / omega_after)

    basis = _basis(m, mag)
    launch = ModeState(basis[0], [x / (before.epsilon * abs(incident.v)) for x in basis[1]], t_start)
    final = integrate(profile, m, launch, t_end, tol=tol)
    if after.branch != +1:
        raise DomainError("mode decomposition is defined for positive-index media")
    d1, _, c1, *_ = _project(basis, final.D.tolist(), final.B.tolist())
    forward, backward = _split(d1, 1j * c1, after, wave_speed(after))  # on the pair, kappa x B is i c1
    R, T = (math.hypot(part.real, part.imag) / abs(after.epsilon) * abs(before.epsilon) for part in (backward, forward))
    if not (math.isfinite(R) and math.isfinite(T)):  # math.hypot, unlike abs of a complex, overflows to inf
        raise DomainError(f"R = {R} and T = {T} are not finite in medium {after}")
    return R, T


@dataclass(frozen=True)
class ConvergenceStudy:
    """Ramp-width convergence table against the analytic step solution."""

    taus: tuple
    R_numeric: tuple
    T_numeric: tuple
    R_errors: tuple
    T_errors: tuple
    R_analytic: float
    T_analytic: float
    empirical_order: float


def convergence_study(
    before: MediumState,
    after: MediumState,
    incident: PlaneWave,
    taus,
    t0: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> ConvergenceStudy:
    """|R_num - R| and |T_num - T| across a family of ramp widths.

    ``taus`` are one or more strictly decreasing ramp widths in units of the
    incident period, each integrated once by :func:`numeric_rt`.  The empirical
    order is the least-squares slope of log(error) against log(tau), measured
    rather than asserted; it is NaN unless two or more errors are nonzero.
    """
    taus = [float(x) for x in taus]
    if not taus:
        raise DomainError("need at least one ramp width")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise DomainError("ramp widths must be strictly decreasing")
    R_numeric, T_numeric = zip(*(
        numeric_rt(TemporalProfile.ramp(before, after, t0=t0, tau=tau * incident.period), incident, tol=tol)
        for tau in taus
    ))
    R, T, _ = coefficients(before, after)
    R_errors = [abs(R_num - R) for R_num in R_numeric]
    T_errors = [abs(T_num - T) for T_num in T_numeric]
    # The least-squares slope in closed form, summed by fsum: plain floats, the same bits on every BLAS kernel.
    points = [(math.log(tau), math.log(R_e + T_e)) for tau, R_e, T_e in zip(taus, R_errors, T_errors) if R_e + T_e > 0]
    order = math.nan
    if len({x for x, _ in points}) >= 2:  # so the spread is positive: two widths' logarithms may round alike
        x_mean, y_mean = (math.fsum(column) / len(points) for column in zip(*points))
        spread = math.fsum((x - x_mean) * (x - x_mean) for x, _ in points)
        order = math.fsum((x - x_mean) * (y - y_mean) for x, y in points) / spread
    return ConvergenceStudy(
        taus=tuple(taus),
        R_numeric=R_numeric,
        T_numeric=T_numeric,
        R_errors=tuple(R_errors),
        T_errors=tuple(T_errors),
        R_analytic=R,
        T_analytic=T,
        empirical_order=order,
    )
