"""Analytic solver for a single temporal interface.

When epsilon and mu jump at time t0 while a plane wave is present, the
field for t > t0 splits into a transmitted wave (frequency omega3) and a
reflected wave (frequency omega2), both on the late side of the
interface.  The wavelength is preserved: all three waves share one
spatial phase vector, which fixes |omega2| = |omega3| =
|v_plus/v_minus| * omega1 and the wave-vector sign relations.  The jump
conditions (continuity of eps*E and mu*H) then determine the amplitudes.

Amplitude bookkeeping uses B = A * exp(-i*omega*t0), the instantaneous
complex amplitude at the interface; reflection and transmission
coefficients are the moduli ratios |B_r|/|B_i| and |B_t|/|B_i|.  Their
sum is not 1: switching the medium exchanges energy with the wave.

The closed-form algebra lives in :func:`scatter_kernel`, which takes
numbers or numpy arrays; ``frequencies``, ``coefficients`` and the
other formula functions are views of it, and
:func:`scatter_grid` evaluates a whole grid of interfaces in one call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateCaseError,
    DomainError,
    NoSolutionError,
    reject,
)
from .media import MediumState, TemporalProfile, check_medium, phase_speed
from .waves import PlaneWave, _check_incident, _magnetic_amplitude, _norm, _phase

__all__ = [
    "FrequencyConvention",
    "DEFAULT_CONVENTION",
    "ScatteringResult",
    "scatter_kernel",
    "frequencies",
    "wave_vectors",
    "amplitudes",
    "degenerate_amplitude",
    "coefficients",
    "swapped_coefficients",
    "scatter_interface",
    "scatter_grid",
    "boundary_residual",
]

_SCALE_TOL = 1e-9  # |scale| = 1 consistency tolerance in wave_vectors
_SCALE_MESSAGE = (
    "{} wave-vector scale has modulus {!r}, expected 1 within "
    f"{_SCALE_TOL}; frequencies inconsistent with speeds"
)
_DEGENERATE_RTOL = 1e-12
_NONFINITE_AMPLITUDE = "amplitude must be finite"


@dataclass(frozen=True)
class FrequencyConvention:
    """Sign choice for the scattered frequencies.

    ``transmitted``: "forward" selects omega3 > 0, "backward" omega3 < 0.
    ``reflected``: "negative" selects omega2 = -omega3 (the default, under
    which the coefficient formulas are stated), "positive" omega2 = +omega3
    (degenerate: the two scattered waves merge).
    """

    transmitted: str = "forward"
    reflected: str = "negative"

    def __post_init__(self):
        if self.transmitted not in ("forward", "backward"):
            raise DomainError(f"transmitted must be 'forward' or 'backward', got {self.transmitted!r}")
        if self.reflected not in ("negative", "positive"):
            raise DomainError(f"reflected must be 'negative' or 'positive', got {self.reflected!r}")


DEFAULT_CONVENTION = FrequencyConvention()
_BACKWARD = FrequencyConvention(transmitted="backward")


def scatter_kernel(
    omega1,
    eps_minus,
    mu_minus,
    branch_minus,
    eps_plus,
    mu_plus,
    branch_plus,
    conv: FrequencyConvention = DEFAULT_CONVENTION,
):
    """Closed-form (omega2, omega3, r, t) of one temporal interface or a grid of them.

    The one implementation of the interface algebra: |omega2| = |omega3| =
    |v+/v-| * omega1 with v = branch / sqrt(eps*mu), signed by ``conv``,
    and the amplitude factors r = B_r/B_i, t = B_t/B_i.  Under the
    degenerate convention r = 0 and t = eps-/eps+ is the merged wave's
    factor, and r and t must be finite.  Python numbers give Python
    floats; ndarrays broadcast.  A failed check raises at once (for arrays,
    at the first failing point).  Other than Python floats with int
    branches, such as ndarrays or numpy scalars, the arguments are computed
    under ``np.errstate``, so an overflow reaches those checks as inf or NaN
    instead of leaking a numpy warning.
    """
    if float is type(omega1) is type(eps_minus) is type(mu_minus) is type(eps_plus) is type(mu_plus) and (
        int is type(branch_minus) is type(branch_plus)
    ):  # Python numbers overflow to inf without a warning; an errstate would cost about 1 us a call
        return _kernel(omega1, eps_minus, mu_minus, branch_minus, eps_plus, mu_plus, branch_plus, conv)
    with np.errstate(all="ignore"):
        return _kernel(omega1, eps_minus, mu_minus, branch_minus, eps_plus, mu_plus, branch_plus, conv)


def _kernel(omega1, eps_minus, mu_minus, branch_minus, eps_plus, mu_plus, branch_plus, conv):
    v_minus = phase_speed(eps_minus, mu_minus, branch_minus)
    v_plus = phase_speed(eps_plus, mu_plus, branch_plus)
    return _algebra(omega1, v_minus, v_plus, eps_minus, eps_plus, conv, reject)[:4]


def _algebra(omega1, v_minus, v_plus, eps_minus, eps_plus, conv, reject):
    """scatter_kernel after the phase speeds, plus the wave-vector scales (k_r/k_i, k_t/k_i)."""
    omega2, omega3 = _frequencies(omega1, v_minus, v_plus, conv, reject)
    scales = _scales(omega1, omega2, omega3, v_minus, v_plus, reject)
    if conv.reflected == "positive":  # degenerate: omega2 = omega3
        t = _merged_factor(omega1, omega2, eps_minus, eps_plus, reject)
        r = 0.0 * t
    else:
        r, t = _factors(omega1, omega2, omega3, eps_minus, eps_plus, reject)
    bad = (abs(r) + abs(t)) * 0.0 != 0.0
    if bad is not False:
        reject(bad, DomainError, _NONFINITE_AMPLITUDE)
    return omega2, omega3, r, t, scales


def _check_omega1(omega1, reject):
    bad = (omega1 <= 0.0) | (omega1 * 0.0 != 0.0)  # not positive, or not finite
    if bad is not False:
        reject(bad, DomainError, "omega1 must be positive, got {}", omega1)


def _frequencies(omega1, v_minus, v_plus, conv, reject):
    _check_omega1(omega1, reject)
    bad = (v_minus == 0.0) | (v_plus == 0.0)
    if bad is not False:
        reject(bad, DomainError, "phase speeds must be nonzero")
    ratio = abs(v_plus / v_minus)
    bad = ratio == math.inf  # else inf frequencies pass the scale check and read as degenerate
    if bad is not False:
        reject(bad, DomainError, "speed ratio |v+/v-| = |{} / {}| exceeds the float range", v_plus, v_minus)
    mag = ratio * omega1
    omega3 = mag if conv.transmitted == "forward" else -mag
    omega2 = -omega3 if conv.reflected == "negative" else omega3
    return omega2, omega3


def _scales(omega1, omega2, omega3, v_minus, v_plus, reject):
    """Wave-vector scale factors k_r/k_i and k_t/k_i; only their signs are free."""
    speed_ratio = v_plus / v_minus
    try:
        scale_t = (omega1 / omega3) * speed_ratio
        scale_r = (omega1 / omega2) * speed_ratio
    except ZeroDivisionError:  # a float frequency underflowed to 0; arrays give inf
        scale_t = scale_r = math.inf
    bad = abs(abs(scale_t) - 1.0) > _SCALE_TOL
    if bad is not False:
        reject(bad, ConsistencyError, _SCALE_MESSAGE, "transmitted", abs(scale_t))
    bad = abs(abs(scale_r) - 1.0) > _SCALE_TOL
    if bad is not False:
        reject(bad, ConsistencyError, _SCALE_MESSAGE, "reflected", abs(scale_r))
    return scale_r, scale_t


def _factors(omega1, omega2, omega3, eps_minus, eps_plus, reject):
    bad = eps_plus == 0.0
    if bad is not False:
        reject(bad, DomainError, "eps_plus must be nonzero")
    bad = abs(omega2 - omega3) <= _DEGENERATE_RTOL * 0.5 * (abs(omega2) + abs(omega3))
    if bad is not False:
        reject(
            bad,
            DegenerateCaseError,
            "omega2 = omega3 = {}: amplitude split is not unique; use degenerate_amplitude",
            omega2,
        )
    eps_ratio = eps_minus / eps_plus
    q2 = omega1 / omega2
    q3 = omega1 / omega3
    denom = q2 - q3
    return (1.0 - q3 * eps_ratio) / denom, (q2 * eps_ratio - 1.0) / denom


def _merged_factor(omega1, omega2, eps_minus, eps_plus, reject):
    lhs = eps_minus * omega1
    rhs = eps_plus * omega2
    gap = abs(lhs - rhs)
    reject(
        (gap > 1e-12 * abs(lhs)) & (gap > 1e-12 * abs(rhs)),
        NoSolutionError,
        "compatibility eps_minus*omega1 = eps_plus*omega2 violated ({} != {}); "
        "the matching system has no solution",
        lhs,
        rhs,
    )
    return eps_minus / eps_plus


def frequencies(
    omega1: float,
    v_minus: float,
    v_plus: float,
    conv: FrequencyConvention = DEFAULT_CONVENTION,
) -> tuple[float, float]:
    """Scattered frequencies (omega2, omega3) from the speed ratio.

    |omega3| = |omega2| = |v_plus / v_minus| * omega1; the signs follow the
    convention.  The default yields omega3 > 0, omega2 = -omega3.
    """
    return _frequencies(omega1, v_minus, v_plus, conv, reject)


def wave_vectors(
    k_i: np.ndarray,
    omega1: float,
    omega2: float,
    omega3: float,
    v_minus: float,
    v_plus: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Scattered wave vectors (k_r, k_t), each equal to +/- k_i.

    k_t = (omega1/omega3)(v_plus/v_minus) k_i and analogously for k_r; the
    scale factors must have modulus 1 (the frequencies already absorb the
    speed ratio), leaving only a sign.
    """
    k_i = np.asarray(k_i, dtype=np.float64)
    scale_r, scale_t = _scales(omega1, omega2, omega3, v_minus, v_plus, reject)
    return math.copysign(1.0, scale_r) * k_i, math.copysign(1.0, scale_t) * k_i


def amplitudes(
    B_i: np.ndarray,
    omega1: float,
    omega2: float,
    omega3: float,
    eps_minus: float,
    eps_plus: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Scattered amplitudes (B_r, B_t) for distinct omega2 != omega3.

    Both are scalar multiples of B_i:

        B_r = (1 - (w1/w3)(e-/e+)) / ((w1/w2) - (w1/w3)) * B_i
        B_t = ((w1/w2)(e-/e+) - 1) / ((w1/w2) - (w1/w3)) * B_i

    and they satisfy B_r + B_t = (e-/e+) B_i exactly up to rounding.
    """
    _check_omega1(omega1, reject)
    r, t = _factors(omega1, omega2, omega3, eps_minus, eps_plus, reject)
    B_i = np.asarray(B_i, dtype=np.complex128)
    if not B_i.any():  # a norm of tiny entries underflows to 0
        raise DomainError("B_i must be nonzero")
    return _times(r, B_i), _times(t, B_i)


def degenerate_amplitude(
    B_i: np.ndarray,
    omega1: float,
    omega2: float,
    eps_minus: float,
    eps_plus: float,
) -> np.ndarray:
    """Combined scattered amplitude when omega2 = omega3.

    The matching system is solvable only under the compatibility condition
    eps_minus * omega1 = eps_plus * omega2; the two scattered waves then
    merge into one with combined amplitude (eps_minus/eps_plus) * B_i, and
    the split into transmitted and reflected parts is not unique.
    """
    factor = _merged_factor(omega1, omega2, eps_minus, eps_plus, reject)
    return _times(factor, B_i)


def _times(factor, B_i) -> np.ndarray:
    """factor * B_i as a complex array; DomainError unless it is finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        B = factor * np.asarray(B_i, dtype=np.complex128)
    if not np.isfinite(B).all():
        raise DomainError(_NONFINITE_AMPLITUDE)
    return B


def _media_kernel(
    before: MediumState, after: MediumState, conv: FrequencyConvention = DEFAULT_CONVENTION
):
    return scatter_kernel(
        1.0, before.epsilon, before.mu, before.branch, after.epsilon, after.mu, after.branch, conv
    )


def coefficients(before: MediumState, after: MediumState) -> tuple[float, float, float]:
    """Closed-form (R, T, R+T) under the default convention (omega2 = -omega3 < 0).

        R = 1/2 |e-/e+ - sqrt(e- mu-) / sqrt(e+ mu+)|
        T = 1/2 (e-/e+ + sqrt(e- mu-) / sqrt(e+ mu+))

    These are |r| and the signed t of :func:`scatter_kernel`.  The sum
    obeys the impedance-ordered identity: e-/e+ when Z1 < Z2,
    sqrt(e- mu- / (e+ mu+)) when Z1 > Z2 (both when Z1 = Z2, where R = 0).
    """
    _, _, r, t = _media_kernel(before, after)
    R = abs(r)
    return R, t, R + t


def swapped_coefficients(before: MediumState, after: MediumState) -> tuple[float, float]:
    """(R, T) for the backward-transmitted branch (omega3 < 0, omega2 = -omega3).

    The two coefficient formulas exchange roles relative to the default
    branch: R is the signed r and T = |t| of :func:`scatter_kernel`.
    """
    _, _, r, t = _media_kernel(before, after, _BACKWARD)
    return r, abs(t)


@dataclass(frozen=True, eq=False)
class ScatteringResult:
    """Full solution of one temporal interface.

    ``reflected`` or ``transmitted`` is None when that branch has exactly
    zero amplitude (impedance-matched media give no reflected wave).  For a
    degenerate convention (omega2 = omega3) the non-unique combined wave is
    stored under ``transmitted`` and ``degenerate`` is set.

    R and T are |B_r|/|B_i| and |B_t|/|B_i| with B = A*exp(-i*omega*t0),
    computed as |r| and |t| of :func:`scatter_kernel`.
    """

    incident: PlaneWave
    reflected: Optional[PlaneWave]
    transmitted: Optional[PlaneWave]
    R: float
    T: float
    energy_sum: float
    omega2: float
    omega3: float
    degenerate: bool
    before: MediumState
    after: MediumState
    t0: float

    @property
    def B_incident(self) -> np.ndarray:
        return _at_interface(self.incident, self.t0)

    @property
    def B_reflected(self) -> np.ndarray:
        return _at_interface(self.reflected, self.t0)

    @property
    def B_transmitted(self) -> np.ndarray:
        return _at_interface(self.transmitted, self.t0)


def _at_interface(wave: Optional[PlaneWave], t0: float) -> np.ndarray:
    """B = A * exp(-i*omega*t0), a wave's complex amplitude at the interface; zeros for an absent wave."""
    if wave is None:
        return np.zeros(3, dtype=np.complex128)
    return wave.amplitude * _phase_factor(-1j, wave.omega, t0)


def _phase_factor(unit: complex, omega: float, t0: float) -> complex:
    """exp(unit*omega*t0) for unit = +-1j; DomainError when omega*t0 leaves the float range, where cmath.exp fails."""
    if not math.isfinite(omega * t0):
        raise DomainError(f"phase omega*t0 = {omega} * {t0} exceeds the float range")
    return cmath.exp(unit * omega * t0)


def _interface(omega1, amplitude, k, before: tuple, after: tuple, conv, reject, incident_speed=None):
    """The checked algebra of one step interface or a grid of them, each check once.

    ``before`` and ``after`` are (epsilon, mu, branch).  The checks run in
    this order: both phase speeds, _check_incident's speed (when given)
    and transversality, then scatter_kernel's frequency, wave-vector-scale,
    factor and finite-amplitude checks.
    Returns (v_plus, omega2, omega3, r, t, (scale_r, scale_t)).
    """
    v_minus = phase_speed(*before, reject)
    v_plus = phase_speed(*after, reject)
    _check_incident(amplitude, k, incident_speed, v_minus, reject)
    omega2, omega3, r, t, scales = _algebra(omega1, v_minus, v_plus, before[0], after[0], conv, reject)
    return v_plus, omega2, omega3, r, t, scales


def scatter_interface(
    incident: PlaneWave,
    profile: TemporalProfile,
    conv: FrequencyConvention = DEFAULT_CONVENTION,
) -> ScatteringResult:
    """Solve a step profile end to end: frequencies, wave vectors, amplitudes.

    The incident wave must be transversal (|A.k| <= 1e-9 |A|), have positive
    frequency, and propagate at the before-medium speed.  The returned
    waves carry A amplitudes recovered from the B algebra by the inverse
    phase factor exp(+i*omega*t0).
    """
    if len(profile.stages) != 2 or profile.tau != 0.0 or profile.period is not None:
        raise DomainError(
            "scatter_interface needs a step profile (two stages, one sharp switch), got "
            f"{len(profile.stages)} stages, tau={profile.tau}, period={profile.period}"
        )
    (before, after), (t0,) = profile.stages, profile.switches
    omega1 = incident.omega
    media = [(medium.epsilon, medium.mu, medium.branch) for medium in (before, after)]
    v_plus, omega2, omega3, r, t, (scale_r, scale_t) = _interface(
        omega1, incident.amplitude, incident.k, *media, conv, reject, incident.v
    )
    R, T = abs(r), abs(t)
    B_i = _at_interface(incident, t0)

    def scattered(factor, omega, scale):
        A = factor * B_i * _phase_factor(1j, omega, t0)
        return PlaneWave(A, omega, math.copysign(1.0, scale) * incident.k, v_plus)

    return ScatteringResult(
        incident=incident,
        reflected=scattered(r, omega2, scale_r) if R > 0.0 else None,
        transmitted=scattered(t, omega3, scale_t) if T > 0.0 else None,
        R=R,
        T=T,
        energy_sum=R + T,
        omega2=omega2,
        omega3=omega3,
        degenerate=conv.reflected == "positive",
        before=before,
        after=after,
        t0=t0,
    )


def scatter_grid(
    omega1,
    amplitude,
    k,
    before: tuple,
    after: tuple,
    conv: FrequencyConvention = DEFAULT_CONVENTION,
):
    """(omega2, omega3, R, T) of :func:`scatter_interface` over a grid of step interfaces.

    ``before`` and ``after`` are (epsilon, mu, branch) triples whose entries
    and ``omega1`` broadcast together; ``amplitude`` and ``k`` are the
    incident wave's.  R = |r| and T = |t|.  Each point gets MediumState's
    checks on both media, then scatter_interface's.  If any point fails,
    the first one in row-major order is checked again as Python numbers,
    so it raises the error those checks raise on that point alone.
    """
    masks = []

    def record(bad, *_):
        masks.append(bad)

    # Arrays throughout: a point that fails a check is still computed.
    before = tuple(np.asarray(x) for x in before)
    after = tuple(np.asarray(x) for x in after)
    with np.errstate(all="ignore"):
        check_medium(*before, record)
        check_medium(*after, record)
        _, omega2, omega3, r, t, _ = _interface(
            np.asarray(omega1), np.asarray(amplitude), np.asarray(k), before, after, conv, record
        )
    grid = np.broadcast_arrays(omega1, *before, *after, *masks)  # omega1, both media, then the masks
    failed = np.flatnonzero(np.any(grid[7:], axis=0))
    if failed.size:
        omega1, *media = (x.flat[failed[0]].item() for x in grid[:7])
        check_medium(*media[:3])
        check_medium(*media[3:])
        _interface(omega1, amplitude, k, media[:3], media[3:], conv, reject)
    return omega2, omega3, abs(r), abs(t)


def boundary_residual(result: ScatteringResult, x_samples) -> tuple[float, float]:
    """Jump-condition residuals of a scattering solution at t = t0.

    res_E = max over samples of |eps+ (E_t + E_r) - eps- E_i| and res_H the
    analogue with mu*H built from the electric fields.  Both vanish (below
    1e-10 for unit-scale amplitudes) for solver-produced results; a
    tampered amplitude shows up as a residual of comparable scale.  A
    residual that overflows raises DomainError.
    """
    x = np.atleast_2d(np.asarray(x_samples, dtype=np.float64))
    jump_E, jump_H = np.zeros((2, x.shape[0], 3), dtype=np.complex128)
    terms = ((result.transmitted, 1.0, result.after), (result.reflected, 1.0, result.after),
             (result.incident, -1.0, result.before))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for wave, sign, medium in terms:
            if wave is None:
                continue
            factor = np.exp(_phase(wave, x, result.t0))[:, None]
            jump_E += sign * medium.epsilon * (factor * wave.amplitude[None, :])
            jump_H += sign * medium.mu * (factor * _magnetic_amplitude(wave, medium.mu)[None, :])
        res_E = float(np.max(_norm(jump_E, axis=1)))
        res_H = float(np.max(_norm(jump_H, axis=1)))
    if not (math.isfinite(res_E) and math.isfinite(res_H)):
        raise DomainError(
            f"boundary residuals overflow (res_E = {res_E}, res_H = {res_H}): a phase "
            "omega*(k.x/v - t0) or a field norm exceeds the float range"
        )
    return res_E, res_H
