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
:func:`integrate` builds Phi from closed-form exponentials of traceless
2x2 matrices (Omega**2 = -(det Omega) I), so det Phi = 1 to rounding: one
exact step exp(hA) per constant stretch, and inside ramps adaptive
step-doubled sixth-order Magnus steps on Gauss-Legendre nodes, each held
to half a radian of phase.  Sharp switches
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
    x, y, z = m.tolist()
    mag = math.sqrt(x * x + y * y + z * z)  # summed in order on Python floats, not by a BLAS kernel; inf is rejected below
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


def _periodic_switches(profile, lo: float, hi: float, sign: int):
    """A periodic profile's switch instants about [lo, hi], each times sign, made one at a time in increasing order."""
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
    ks, duty = range(first, last)[::sign], profile.duty * period
    # Period starts and duty switches each move monotonically with k, so merging the two sorts every instant.
    return heapq.merge((sign * (t0 + k * period) for k in ks), (sign * (t0 + k * period + duty) for k in ks))


def _pieces(profile, t: float, t_end: float):
    """The (start, end, varying) pieces of the span from t to t_end, made one at a time in the order it is crossed.

    Varying pieces are the nonzero-width switch intervals, merged where
    they overlap and clipped to the span.  Between them the medium is
    constant.  A zero-width switch, periodic ones included, only ends one
    constant piece and starts the next.  A profile that declares no switch
    intervals at all may vary anywhere, so its whole span is one varying
    piece.  A backward span is walked in negated time, sign * t, which is
    exact, so both directions cut the span at the same floats, and the
    walk starts at t and ends at t_end to the bit.
    """
    getter = getattr(profile, "switch_intervals", None)
    intervals = [(min(t, t_end), max(t, t_end))] if getter is None else getter()
    sign = 1 if t_end > t else -1
    lo, hi = sign * t, sign * t_end
    if intervals is None:
        intervals = ((x, x) for x in _periodic_switches(profile, min(t, t_end), max(t, t_end), sign))
    else:  # + 0.0 makes -0.0 0.0, so both directions cut at the same bits; the span's own ends win ties
        intervals = sorted((sign * (a + 0.0), sign * (b + 0.0))[::sign] for a, b in intervals)
    cursor, held = lo, None  # held starts the varying piece that ends at cursor, which an overlap may still extend
    for a, b in intervals:
        if b < lo or a > hi:
            continue
        a, b = min(hi, max(lo, a)), min(hi, b)  # clipped to the span
        if a < cursor:  # overlaps the held piece: extend it
            cursor = max(cursor, b)
            continue
        if held is not None:
            yield sign * held, sign * cursor, True
            held = None
        if a > cursor:
            yield sign * cursor, sign * a, False
            cursor = a
        if b > cursor:
            held, cursor = cursor, b
    if held is not None:
        yield sign * held, sign * cursor, True
    if hi > cursor:
        yield sign * cursor, sign * hi, False


def _expm(c: float, x: float, y: float):
    """exp Omega of the traceless Omega = [[c, x], [y, -c]] as (p, q, r, s): Omega**2 = d I, so exp Omega = C I + S Omega."""
    d = c * c + x * y
    w = math.sqrt(abs(d))
    if d < 0.0 and w < math.inf:
        C, S = math.cos(w), math.sin(w) / w
    elif 0.0 < d and w < 710.0:  # cosh and sinh overflow from about 710.5
        C, S = math.cosh(w), math.sinh(w) / w
    else:  # 1 and 1 for d = 0; NaN, which the callers reject as not finite, for an Omega past the float range
        C = S = 1.0 if d == 0.0 else math.nan
    return C + S * c, S * x, S * y, C - S * c


_NODE, _ROOT15_3 = math.sqrt(15.0) / 10.0, math.sqrt(15.0) / 3.0  # the Gauss-Legendre nodes are 1/2 -+ _NODE and 1/2


def _mismatch(h, f0, f1, f2, f3, f4):
    """m**2 / (|h| spread) for m = (5 f1 - 4 f2 + 5 f3 - 3 f0 - 3 f4) h / 18, Gauss's integral of f less Simpson's.

    f0 to f4 are f at a step's start, nodes and end; spread is the largest |f_i - f2|.  A transition the nodes
    stride over passes at about |m| / 9, and a resolved step falls as h**8, below the step's own error.
    """
    d0, d1, d3, d4 = f0 - f2, f1 - f2, f3 - f2, f4 - f2
    spread = max(abs(d0), abs(d1), abs(d3), abs(d4))
    m = 5.0 * (d1 + d3) - 3.0 * (d0 + d4)  # 18 m / h, at most 16 spreads
    return abs(h) * m * (m / (324.0 * spread)) if spread else 0.0  # m and m / (324 spread) share a sign


def _omega6(h, a1, a2, a3, b1, b2, b3):
    """Omega6 = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240 as (c, x, y) = [[c, x], [y, -c]].

    A = [[0, a_i], [b_i, 0]] at the nodes of a step of width h (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009)): alpha1 = h A2, alpha2 = sqrt(15)/3 h (A3 - A1), alpha3 = 10/3 h (A3 - 2 A2 + A1), C1 = [alpha1,
    alpha2], C2 = -[alpha1, 2 alpha3 + C1] / 60.
    """
    x1, y1 = h * a2, h * b2
    x2, y2 = _ROOT15_3 * h * (a3 - a1), _ROOT15_3 * h * (b3 - b1)
    x3, y3 = 10 / 3 * h * (a3 - 2.0 * a2 + a1), 10 / 3 * h * (b3 - 2.0 * b2 + b1)
    k = x1 * y2 - x2 * y1  # C1 = [[k, 0], [0, -k]]
    c = -(x1 * y3 - x3 * y1) / 30  # C2 = [[c, k x1 / 30], [-k y1 / 30, -c]]
    lx, ly, rx, ry = -20.0 * x1 - x3, -20.0 * y1 - y3, x2 + k * x1 / 30, y2 - k * y1 / 30
    return (lx * ry - rx * ly) / 240, x1 + x3 / 12 + 2.0 * (k * rx - c * lx) / 240, y1 + y3 / 12 + 2.0 * (c * ly - k * ry) / 240


def _magnus(sample, mag, t, t_end, tol):
    """The fundamental matrix (p, q, r, s) = [[p, q], [r, s]] from t to t_end through a varying medium.

    Step-doubled sixth-order Magnus steps on Phi' = A Phi, A = [[0, a], [b, 0]], a = -|m|/mu, b = |m|/eps
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4): a step of width H samples A at nine nodes, the whole
    step's middle one being its halves' junction, and at its end, the next step's start, and takes E_H =
    exp Omega6 of the step and E2 = exp Omega6(second half) exp Omega6(first).  E2's error is d = (E2 - E_H) / 63;
    the estimate |d Phi| adds the _mismatch of each half and entry of A, and the budget holds back half an ulp
    of t times |A'| ~ |A3 - A1| / (2 sqrt(15)/10 H), what rounding t + c H may move.  An accepted step takes
    Phi to (E2 + d) Phi / sqrt(det(E2 + d)), so det Phi = 1 to rounding; a non-positive det rejects the step.
    """
    direction = 1.0 if t_end > t else -1.0
    span, end_floor = abs(t_end - t), _MIN_STEP_REL * max(1.0, abs(t_end))
    if span <= end_floor:
        message = f"varying interval from t={t} to t={t_end} is narrower than the step floor 1e-14 * max(1, |t|)"
        raise StiffnessError(message, smallest_step=0.0)
    a0, b0 = -mag / (medium := sample(t)).mu, mag / medium.epsilon
    # Initial step: 0.1 radian, or tol**(1/8) of the piece, as the extrapolated step's error goes as (h / span)**8.
    h = smallest = min(span * tol ** (1 / 8), 0.1 / (mag * abs(wave_speed(medium))))  # > 0: _modulus bounds |m|
    ulp = 0.25 / _NODE * math.ulp(max(abs(t), abs(t_end)))  # times |A3 - A1|; the nodes lie between the ends
    lo, hi = 0.5 - _NODE, 0.5 + _NODE
    P, R, size_P, size_R = 1.0 + 0.0j, 1.0j, 1.0, 1.0  # Phi's rows and their moduli
    for _ in range(_MAX_STEPS):
        remaining = abs(t_end - t)
        if remaining <= end_floor:
            return P.real, P.imag, R.real, R.imag
        h_abs = min(h, remaining)
        if h_abs < _MIN_STEP_REL * max(abs(t), 1.0):
            raise StiffnessError(f"step size underflow at t={t} (smallest step {smallest:.3e})", smallest_step=smallest)
        smallest = min(smallest, h_abs)
        hs = (t_next := t + direction * h_abs) - t  # the step between the two floats, exactly
        h_abs = abs(hs)
        ha, hb = (tm := t + 0.5 * hs) - t, t_next - tm  # the halves, split at the whole step's middle node
        nodes = (t + lo * hs, tm, t + hi * hs, t + lo * ha, t + 0.5 * ha, t + hi * ha)  # the whole step's, the first half's
        media = [sample(u) for u in nodes + (tm + lo * hb, tm + 0.5 * hb, tm + hi * hb, t_next)]  # the second half's, the end
        a, b = [-mag / medium.mu for medium in media], [mag / medium.epsilon for medium in media]
        c6, x6, y6 = _omega6(hs, a[0], a[1], a[2], b[0], b[1], b[2])
        h1, h2, h3, h4 = _expm(c6, x6, y6)
        p, q, r, s = _expm(*_omega6(ha, a[3], a[4], a[5], b[3], b[4], b[5]))
        e1, e2, e3, e4 = _expm(*_omega6(hb, a[6], a[7], a[8], b[6], b[7], b[8]))
        e1, e2, e3, e4 = e1 * p + e2 * r, e1 * q + e2 * s, e3 * p + e4 * r, e3 * q + e4 * s  # E2
        d1, d2, d3, d4 = (e1 - h1) / 63, (e2 - h2) / 63, (e3 - h3) / 63, (e4 - h4) / 63
        ex = _mismatch(ha, a0, a[3], a[4], a[5], a[1]) + _mismatch(hb, a[1], a[6], a[7], a[8], a[9])
        ey = _mismatch(ha, b0, b[3], b[4], b[5], b[1]) + _mismatch(hb, b[1], b[6], b[7], b[8], b[9])
        # d's rows act on Phi's; the mismatches add to the off-diagonal entries.
        err = max(abs(d1 * P + d2 * R) + ex * size_R, abs(d3 * P + d4 * R) + ey * size_P)
        rounded = ulp * max(abs(a[2] - a[0]) * size_R, abs(b[2] - b[0]) * size_P)
        e1, e2, e3, e4 = e1 + d1, e2 + d2, e3 + d3, e4 + d4  # E2 + d, the extrapolated step
        det = e1 * e4 - e2 * e3  # 1 + O(d)
        root = math.sqrt(det) if det > 0.0 else 1.0
        P6, R6 = (e1 * P + e2 * R) / root, (e3 * P + e4 * R) / root
        new_max = max(size_P6 := abs(P6), size_R6 := abs(R6))
        if not (err < math.inf and new_max < math.inf and det == det):
            raise DomainError(f"mode state is not finite in the step from t={t} to t={t_next}: rows {P6}, {R6}")
        room = tol * h_abs * max(1.0, size_P, size_R, new_max) - rounded  # rounded does not shrink with h
        if err <= room and det > 0.0:
            t, P, R, size_P, size_R, a0, b0 = t_next, P6, R6, size_P6, size_R6, a[9], b[9]
        factor = 0.2 if not (room > 0.0 and det > 0.0) else 0.9 * (room / err) ** (1 / 7) if err > 0.0 else 5.0
        h = h_abs * min(5.0, max(0.2, factor))
        phase = math.sqrt(abs(c6 * c6 + x6 * y6))  # this step's |m| |v| h_abs
        if h * phase > 0.5 * h_abs:
            h = 0.5 * h_abs / phase
    raise StiffnessError(f"exceeded {_MAX_STEPS} steps (smallest step {smallest:.3e})", smallest_step=smallest)


def integrate(
    profile,
    m: np.ndarray,
    initial: ModeState,
    t_end: float,
    tol: float = DEFAULT_TOL,
) -> ModeState:
    """Advance a mode state to t_end, in either time direction.

    ``profile`` is anything with a ``sample(t)`` method.  Its declared
    ``switch_intervals()`` split the path into pieces, taken one at a time
    in the order the path crosses them:

    * constant stretches advance in one step with the exact 2x2
      propagator exp(hA) of the constant-coefficient ODE, for the medium
      sampled at the stretch's midpoint;
    * nonzero-width intervals (ramps) run adaptive step-doubled Magnus
      steps on the fundamental matrix Phi, from Phi = I: closed-form
      exponentials of sixth-order Magnus matrices (traceless 2x2, from A at
      Gauss-Legendre nodes) over each step and its halves.  The halves'
      product less the whole step's, over 63, is the error the step adds to
      itself; it, plus each half's mismatch of Gauss's integral of A against
      Simpson's (a transition the nodes stride over), holds the local error
      per unit time, less what rounding the node instants may add (|dA/dt|
      ulp(t) / 2), at or below ``tol`` times max(1, the larger modulus of
      Phi's rows by libm hypot): relative to the state.  Steps are held to
      a phase |m| |v| h of half a radian;
    * zero-width (sharp) switches, periodic ones included, are break points
      only: D and B are continuous across them, so the state passes
      through unchanged.  The two-valued instant is never sampled where
      the switch adjoins constant pieces; between two varying pieces it is,
      as the end of one and the start of the next.

    Each piece's matrix acts on the two transverse pairs of the state;
    the parts of D and B along m pass through.  A profile without
    ``switch_intervals`` is integrated by Magnus steps over the whole
    span.  A varying piece samples the profile at its start, then at nine
    nodes and the end of each step, so ``sample`` must be a pure function
    of t.  A ``tol`` below float64 resolution raises :class:`StiffnessError`
    at once, and so does a Magnus step below 1e-14 * max(1, |t|) (steps
    shrink to it where node rounding alone exceeds ``tol``), a varying
    interval no wider than that, one that needs more than 10,000,000 steps,
    or a periodic span with more switch instants than that.
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
    d1, d2, c1, c2, d3, b3 = _project(basis, initial.D.tolist(), initial.B.tolist())
    for start, end, varying in _pieces(profile, t, t_end):
        if varying:
            p, q, r, s = _magnus(profile.sample, mag, start, end, tol)
        else:
            medium, h = profile.sample(0.5 * (start + end)), end - start
            if not abs(phase := mag * abs(wave_speed(medium)) * h) <= _MAX_PHASE:  # NaN fails too
                raise DomainError(f"phase w*h = {phase!r} of a constant piece exceeds 2 pi / float epsilon = {_MAX_PHASE!r}")
            p, q, r, s = _expm(0.0, -mag / medium.mu * h, mag / medium.epsilon * h)  # exp(hA)
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
