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

Integrating a mode through a smooth ramp and projecting the final state
onto the constant-medium eigenmodes yields numerical reflection and
transmission coefficients that converge to the analytic step-interface
values as the ramp width shrinks.

:func:`integrate` takes each constant stretch in one exact step of the
ODE's own propagator and runs an adaptive Dormand-Prince 5(4) pair only
inside ramps.  Sharp switches (steps, periodic time crystals) need no
limit at all: D and B pass through them unchanged.  None of this uses
the interface formulas of :mod:`.scatter` or :mod:`.cascade`, so the
oracle stays an independent check on them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainError, StiffnessError
from .media import MediumState, TemporalProfile, wave_speed
from .scatter import coefficients
from .waves import PlaneWave, _check_incident, _magnetic_amplitude, _norm, _vector3, phase_vector

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


def _finite(y, t: float):
    """The state y, or DomainError naming it if a component is NaN or infinite."""
    if all(map(cmath.isfinite, y)):
        return y
    raise DomainError(f"mode state is not finite at t={t}: {y}")


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
        _finite(self.D.tolist() + self.B.tolist(), self.t)


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
        mag = float(np.linalg.norm(m))
    if not sys.float_info.min <= mag * mag < math.inf:
        raise DomainError(f"phase vector magnitude {mag!r} is out of range: |m|**2 must be a normal float")
    return m, mag


def _cross_rows(m: np.ndarray):
    """Rows of the matrix Mx with Mx @ v = m x v, as Python floats."""
    mx, my, mz = m.tolist()
    return (0.0, -mz, my), (mz, 0.0, -mx), (-my, mx, 0.0)


def _rhs(y, rows, medium: MediumState):
    """d(D, B)/dt for the state y = [D0, D1, D2, B0, B1, B2] of Python complex numbers.

    ``rows`` are m's Mx.  Each row sum is written out with every product,
    those with Mx's zero entries too, added left to right in the order of
    numpy's 3x3 product, so the bits are those of ``(1j / mu) * (Mx @ B)``
    and ``(-1j / eps) * (Mx @ D)``, up to the sign of an exact zero: numpy's
    sums start from +0.
    """
    d0, d1, d2, q0, q1, q2 = y
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    cm, ce = 1j / medium.mu, -1j / medium.epsilon
    return [
        cm * (a0 * q0 + a1 * q1 + a2 * q2),
        cm * (b0 * q0 + b1 * q1 + b2 * q2),
        cm * (c0 * q0 + c1 * q1 + c2 * q2),
        ce * (a0 * d0 + a1 * d1 + a2 * d2),
        ce * (b0 * d0 + b1 * d1 + b2 * d2),
        ce * (c0 * d0 + c1 * d1 + c2 * d2),
    ]


def mode_rhs(state: ModeState, m: np.ndarray, medium: MediumState):
    """Time derivatives (dD/dt, dB/dt) of one spatial mode.

    Preserves the divergence constraints D.m = B.m = 0 exactly: both
    derivatives are cross products with m.
    """
    dy = _rhs(state.D.tolist() + state.B.tolist(), _cross_rows(_modulus(m)[0]), medium)
    return np.array(dy[:3]), np.array(dy[3:])


# Dormand-Prince 5(4) tableau (FSAL), the weights stored complex as numpy casts them.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [np.array(row, dtype=np.complex128) for row in [
    [], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]]
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40], dtype=np.complex128
)
_MAX_STEPS = 10_000_000
_MIN_STEP_REL = 1e-14


def _periodic_instants(profile, lo: float, hi: float):
    """Zero-width switch intervals of a periodic profile from lo up to hi; StiffnessError past the step cap."""
    t0 = profile.switches[0]
    count = 2.0 * ((hi - max(lo, t0)) / profile.period + 1.0)  # two switches per period, counted before listing
    if not count <= _MAX_STEPS:
        raise StiffnessError(
            f"the span from t={lo} to t={hi} holds about {count:.3g} periodic switch instants,"
            f" more than the {_MAX_STEPS}-step cap",
        )
    n = max(0.0, (lo - t0) / profile.period)  # whole periods before the span
    if n == math.inf:
        raise DomainError(f"t={lo} lies beyond the float range of periods {profile.period} after t={t0}")
    n = math.floor(n)
    instants = []
    while (start := t0 + n * profile.period) <= hi:
        instants += [(start, start), (start + profile.duty * profile.period,) * 2]
        n += 1
    return instants


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
        intervals = _periodic_instants(profile, lo, hi)
    pieces = []
    cursor = lo
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


def _propagate_exact(y, rows, mag: float, medium: MediumState, h: float):
    """exp(hA) y for the constant-medium mode ODE dy/dt = A y.

    A**3 = -w**2 A with w**2 = |m|**2 / (eps mu), so the exponential series
    closes: exp(hA) = I + sin(wh)/w A + (1 - cos wh)/w**2 A**2.
    """
    w = mag * abs(wave_speed(medium))
    if not abs(w * h) < math.inf:  # math.sin would fail
        raise DomainError(f"phase w*h = {w} * {h} of a constant piece exceeds the float range")
    Ay = _rhs(y, rows, medium)
    half = math.sin(0.5 * w * h) / w  # (1 - cos wh)/w**2 = 2 half**2, without cancellation
    s, c = math.sin(w * h) / w, 2.0 * half * half
    return [a + s * b + c * d for a, b, d in zip(y, Ay, _rhs(Ay, rows, medium))]


def _dormand_prince(sample, rows, mag, y, t, t_end, tol):
    """Adaptive Dormand-Prince 5(4) from t to t_end through a varying medium.

    Starts afresh, so the first stage is evaluated at t itself rather
    than carried over (FSAL) from a step that ended on the other side of
    a switch.  Stages are Python scalar arithmetic on a list state; the
    tableau products and |.| stay numpy calls, since numpy sets their bits.
    The products go through ``ndarray.dot``: on these contiguous complex
    operands both it and ``@`` are the BLAS product, so it gives the bits
    of ``a @ K[:i]``, without the ufunc dispatch of ``@``.
    """
    direction = 1.0 if t_end > t else -1.0
    span, end_floor = abs(t_end - t), _MIN_STEP_REL * max(1.0, abs(t_end))
    if span <= end_floor:
        raise StiffnessError(
            f"varying interval from t={t} to t={t_end} is narrower than the step floor 1e-14 * max(1, |t|)",
            smallest_step=0.0,
        )
    medium = sample(t)
    # Initial step: a fraction of the local oscillation period.
    omega0 = mag * abs(wave_speed(medium))
    h = min(span, 0.1 / omega0)  # omega0 > 0, since _modulus bounds |m| below
    smallest = h

    y_max = float(np.max(np.abs(y)))
    k = _rhs(y, rows, medium)
    K = np.empty((7, 6), dtype=np.complex128)
    # A stage at its predecessor's node (c5 = c6 = 1) reuses that stage's medium: sample is a function of t.
    stages = [(_DP_A[i], K[:i], i, None if _DP_C[i] == _DP_C[i - 1] else _DP_C[i]) for i in range(1, 7)]
    check = np.empty((2, 6), dtype=np.complex128)  # error estimate and new state, for |.|
    for _ in range(_MAX_STEPS):
        remaining = abs(t_end - t)
        if remaining <= end_floor:
            return y
        h_abs = min(h, remaining)
        if h_abs < _MIN_STEP_REL * max(abs(t), 1.0):
            raise StiffnessError(
                f"step size underflow at t={t} (smallest step {smallest:.3e})",
                smallest_step=smallest,
            )
        smallest = min(smallest, h_abs)
        hs = direction * h_abs

        K[0] = k
        y0, y1, y2, y3, y4, y5 = y
        for a, previous, i, c in stages:
            s0, s1, s2, s3, s4, s5 = a.dot(previous).tolist()
            y_new = [y0 + hs * s0, y1 + hs * s1, y2 + hs * s2, y3 + hs * s3, y4 + hs * s4, y5 + hs * s5]
            if c is not None:
                medium = sample(t + c * hs)
            K[i] = k_new = _rhs(y_new, rows, medium)
        # k_new was evaluated at (t+h, y_new): the last stage row of the
        # tableau equals the 5th-order weights (FSAL).
        np.multiply(_DP_ERR.dot(K), hs, out=check[0])
        check[1] = y_new
        err, new_max = np.abs(check).max(axis=1).tolist()
        if not (err < math.inf and new_max < math.inf):
            raise DomainError(f"mode state is not finite in the step from t={t} to t={t + hs}: {y_new}")
        budget = tol * h_abs * max(1.0, y_max, new_max)
        if err <= budget:
            t, y, y_max, k = t + hs, y_new, new_max, k_new
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

    * constant stretches advance in one step with the exact propagator
      of the constant-coefficient ODE, for the medium sampled at the
      stretch's midpoint;
    * nonzero-width intervals (ramps) run an adaptive Dormand-Prince 5(4)
      pair that holds the local error per unit time at or below ``tol``,
      scaled by max(1, |state|), so a state far below unit size is held
      to an absolute error rather than a relative one;
    * zero-width (sharp) switches, periodic ones included, are break points
      only: D and B are continuous across them, so the state passes
      through unchanged.  The two-valued instant is never sampled where
      the switch adjoins constant pieces; between two varying pieces it is,
      as the end of one and the start of the next.

    A profile without ``switch_intervals`` is integrated by Dormand-Prince
    over the whole span.  A stage at the same node as the one before it
    reuses its medium, so ``sample`` must be a pure function of t.  A ``tol``
    below float64 resolution raises :class:`StiffnessError` at once, and so
    does a Dormand-Prince step below 1e-14 * max(1, |t|), a whole varying
    interval no wider than that floor (a ramp narrow against its distance
    from t = 0 cannot be resolved), a varying piece that needs more than
    10,000,000 steps, or a periodic span with more switch instants than that.
    A NaN or infinite state or ``t_end`` raises :class:`DomainError`.
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
    rows = _cross_rows(m)
    pieces = _pieces(profile, min(t, t_end), max(t, t_end))
    if t_end < t:
        pieces = [(b, a, varying) for a, b, varying in reversed(pieces)]

    y = initial.D.tolist() + initial.B.tolist()
    with np.errstate(all="ignore"):  # a state that overflows raises DomainError instead
        for start, end, varying in pieces:
            if varying:
                y = _dormand_prince(profile.sample, rows, mag, y, start, end, tol)
            else:
                y = _propagate_exact(y, rows, mag, profile.sample(0.5 * (start + end)), end - start)
            y = _finite(y, end)
    return ModeState(y[:3], y[3:], t_end)


def _transverse_check(vec: np.ndarray, kappa: np.ndarray, norm: float, what: str):
    if abs(np.dot(vec, kappa)) > 1e-8 * norm:
        raise ConstraintError(f"{what} is not transversal to the phase vector")


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
    _transverse_check(state.D, kappa, scale, "D")
    _transverse_check(state.B, kappa, scale, "B")

    with np.errstate(all="ignore"):  # parts that leave the float range are rejected below
        E = state.D / medium.epsilon
        cross = v * np.cross(kappa, state.B)
        E_f = 0.5 * (E - cross)
        E_b = 0.5 * (E + cross)
        D_f = medium.epsilon * E_f
        D_b = medium.epsilon * E_b
    if not (np.isfinite(D_f).all() and np.isfinite(D_b).all()):
        raise DomainError(f"eigenmode parts of the state are not finite in medium {medium}")

    norm_f = _norm(D_f)
    norm_b = _norm(D_b)
    if norm_f == 0.0 and norm_b == 0.0:
        # Zero field: any transverse polarization will do.
        p = np.zeros(3, dtype=np.complex128)
        p[int(np.argmin(np.abs(kappa)))] = 1.0
        p -= np.dot(np.conj(kappa), p) * kappa
        p /= np.linalg.norm(p)
        return ModeAmplitudes(0.0, 0.0, p)
    p = (D_f / norm_f) if norm_f >= norm_b else (D_b / norm_b)
    forward = complex(np.vdot(p, D_f))
    backward = complex(np.vdot(p, D_b))
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

    Launches the incident mode five periods before the first transition,
    integrates five periods past the last one, decomposes in the final
    constant medium, and converts the D-scaled mode coefficients to the
    E-field amplitude ratios used by the analytic interface algebra
    (divide each coefficient by the local epsilon).
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
    # R and T are ratios: launch at a largest part in [1, 2) (exact), where integrate's error budget is relative.
    parts = incident.amplitude.view(np.float64)
    e = 1 - math.frexp(float(np.max(np.abs(parts))))[1]
    incident = PlaneWave(np.ldexp(parts, e).view(np.complex128), incident.omega, incident.k, incident.v)
    after = profile.sample(intervals[-1][1])
    omega_after = mag * abs(wave_speed(after))

    t_start = intervals[0][0] - LAUNCH_PADDING_PERIODS * incident.period
    t_end = intervals[-1][1] + LAUNCH_PADDING_PERIODS * (2.0 * math.pi / omega_after)

    initial = plane_wave_mode_state(incident, before, t_start)
    final = integrate(profile, m, initial, t_end, tol=tol)
    amps = mode_decompose(final, after, m)

    incident_E = _norm(incident.amplitude)
    R_num = abs(amps.backward) / after.epsilon / incident_E
    T_num = abs(amps.forward) / after.epsilon / incident_E
    return R_num, T_num


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
    log_tau = np.log(taus)
    combined = np.asarray(R_errors) + np.asarray(T_errors)
    positive = combined > 0
    if np.count_nonzero(positive) >= 2:
        order = float(np.polyfit(log_tau[positive], np.log(combined[positive]), 1)[0])
    else:
        order = float("nan")
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
