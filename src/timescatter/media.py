"""Material parameters, and their time-course as stages with switches between them.

Units: c = 1 throughout; epsilon and mu are relative (dimensionless), so
the phase speed in a medium is 1/sqrt(epsilon*mu) and the impedance is
sqrt(mu/epsilon).  Double-negative (negative-index) media are supported
through an explicit branch sign, because sqrt of a product of two
negative parameters is positive while the physical index is negative.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, DomainError, reject

__all__ = [
    "MediumState",
    "TemporalProfile",
    "VACUUM",
    "wave_speed",
    "impedance",
    "refractive_index",
]


def check_medium(epsilon, mu, branch, reject=reject):
    """MediumState's invariants, for one medium or a grid of media.

    ``reject`` raises at once; scatter_grid passes one that records each
    check's failure mask instead.
    """
    # x * 0 is NaN exactly where x is infinite or NaN, for numbers and arrays alike.
    bad = (epsilon * 0.0 != 0.0) | (mu * 0.0 != 0.0)
    if bad is not False:
        reject(bad, DomainError, "epsilon and mu must be finite, got ({}, {})", epsilon, mu)
    bad = epsilon * mu <= 0.0
    if bad is not False:
        reject(
            bad,
            DomainError,
            "epsilon*mu must be positive (both positive or both negative), got epsilon={}, mu={}",
            epsilon,
            mu,
        )
    bad = (branch != 1) & (branch != -1)
    if bad is not False:
        reject(bad, DomainError, "branch must be +1 or -1, got {}", branch)
    bad = (branch == -1) & ((epsilon >= 0.0) | (mu >= 0.0))
    if bad is not False:
        reject(bad, DomainError, "branch=-1 is reserved for double-negative media (epsilon<0 and mu<0)")


def phase_speed(epsilon, mu, branch, reject=reject):
    """Signed phase speed branch / sqrt(|epsilon*mu|) (c = 1) of numbers or ndarrays."""
    product = epsilon * mu
    bad = (product * 0.0 != 0.0) | (product == 0.0)  # infinite, NaN or zero
    if bad is not False:
        reject(bad, DomainError, "epsilon*mu must be finite and nonzero, got {}", product)
    sqrt = np.sqrt if isinstance(product, np.ndarray) else math.sqrt
    return branch / sqrt(abs(product))


@dataclass(frozen=True, init=False)
class MediumState:
    """One-sided material sample at an instant.

    ``branch`` selects the sign of the refractive index: +1 for ordinary
    media, -1 only for double-negative media (epsilon < 0 and mu < 0).
    """

    epsilon: float
    mu: float
    branch: int = +1

    def __init__(self, epsilon: float, mu: float, branch: int = +1):
        # Written out rather than generated, since the oracle builds one per stage: each field is set
        # once, after the checks, where the generated __init__ and __post_init__ set epsilon and mu twice.
        epsilon, mu = float(epsilon), float(mu)
        check_medium(epsilon, mu, branch)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "branch", branch)

    @property
    def wave_speed(self) -> float:
        return wave_speed(self)

    @property
    def impedance(self) -> float:
        return impedance(self)


VACUUM = MediumState(1.0, 1.0)


def wave_speed(m: MediumState) -> float:
    """Signed phase speed branch / sqrt(|epsilon*mu|) (c = 1)."""
    return phase_speed(m.epsilon, m.mu, m.branch)


def impedance(m: MediumState) -> float:
    """Wave impedance sqrt(mu/epsilon), the positive root of the positive ratio."""
    return math.sqrt(m.mu / m.epsilon)


def refractive_index(m: MediumState) -> float:
    """Signed index branch * sqrt(|epsilon*mu|); reciprocal of wave_speed."""
    wave_speed(m)  # raises unless epsilon*mu is finite and nonzero
    return m.branch * math.sqrt(abs(m.epsilon * m.mu))


@dataclass(frozen=True)
class TemporalProfile:
    """Declared time-course of (epsilon, mu): media in time order with switches between them.

    ``stages`` are the media in time order and ``switches`` the strictly
    increasing instants between consecutive stages, one fewer than the
    stages.  ``tau`` sets the shape of every switch:

    * ``tau == 0`` -- sharp: ``stages[i]`` holds between switches i-1 and
      i, and sampling exactly at a switch raises :class:`AmbiguityError`;
    * ``tau > 0`` -- a C1 monotone ramp of epsilon and mu independently
      over [s - tau/2, s + tau/2] around each switch s.  Ramps must not
      overlap or round to a point, and every stage must be a positive medium.

    A periodic profile (``period`` and ``duty`` set, ``None`` otherwise)
    has two sharp stages and starts at ``switches[0]``: before it the
    profile is ``stages[0]``; from it on, the first ``duty`` fraction of
    each period is ``stages[1]`` and the rest ``stages[0]`` (half-open
    sub-intervals).
    """

    stages: tuple
    switches: tuple = ()
    tau: float = 0.0
    period: float | None = None
    duty: float | None = None

    def __post_init__(self):
        stages, switches = tuple(self.stages), tuple(float(s) for s in self.switches)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "switches", switches)
        if not stages or len(switches) != len(stages) - 1:
            raise DomainError("need n >= 1 stages and exactly n-1 switch instants")
        if not all(map(math.isfinite, switches)):
            raise DomainError(f"switch instants must be finite, got {switches}")
        if not 0.0 <= self.tau < math.inf:
            raise DomainError(f"ramp width tau must be finite and >= 0, got {self.tau}")
        if any(b <= a or b - a < self.tau for a, b in zip(switches, switches[1:])):
            raise DomainError(f"switch instants must increase by at least tau={self.tau}, got {switches}")
        if self.tau > 0.0 and not (switches and all(m.epsilon > 0.0 and m.mu > 0.0 for m in stages)):
            # A monotone interpolant between opposite-sign parameters
            # would pass through zero, violating MediumState invariants.
            raise DomainError("ramps need at least one switch and positive media in every stage")
        for s in switches if self.tau > 0.0 else ():
            if s - 0.5 * self.tau == s + 0.5 * self.tau:  # the ramp would integrate as a sharp switch
                raise DomainError(f"ramp width tau={self.tau} rounds to zero at the switch instant t={s}")
        if self.period is not None or self.duty is not None:
            if len(stages) != 2 or self.tau != 0.0 or None in (self.period, self.duty):
                raise DomainError("a periodic profile has two sharp stages, a period and a duty")
            if not 0.0 < self.period < math.inf:
                raise DomainError(f"period must be finite and positive, got {self.period}")
            if not 0.0 < self.duty < 1.0:
                raise DomainError(f"duty must lie in (0, 1), got {self.duty}")

    @classmethod
    def constant(cls, medium: MediumState) -> "TemporalProfile":
        return cls((medium,))

    @classmethod
    def step(cls, before: MediumState, after: MediumState, t0: float = 0.0) -> "TemporalProfile":
        return cls((before, after), (t0,))

    @classmethod
    def ramp(
        cls, before: MediumState, after: MediumState, t0: float = 0.0, tau: float = 0.1
    ) -> "TemporalProfile":
        return cls((before, after), (t0,), tau)

    @classmethod
    def periodic(
        cls,
        before: MediumState,
        after: MediumState,
        t0: float = 0.0,
        period: float = 1.0,
        duty: float = 0.5,
    ) -> "TemporalProfile":
        return cls((before, after), (t0,), period=period, duty=duty)

    def sample(self, t: float) -> MediumState:
        """Material state at time t.

        One-sided limits at a sharp switch equal the neighbouring stages;
        sampling exactly at one raises :class:`AmbiguityError`.
        """
        stages, switches, tau = self.stages, self.switches, self.tau
        if self.period is not None:
            if t < switches[0]:
                return stages[0]
            phase = math.fmod(t - switches[0], self.period) / self.period
            return stages[1] if phase < self.duty else stages[0]
        if tau == 0.0:
            i = bisect(switches, t)
            if i and switches[i - 1] == t:
                raise AmbiguityError(f"profile is two-valued at its switch t={t}; take a one-sided limit")
            return stages[i]
        # The last ramp that has started, or the first; lo=1 keeps i >= 0.
        i = bisect(switches, t + 0.5 * tau, 1) - 1
        u = (t - (switches[i] - 0.5 * tau)) / tau
        if u <= 0.0:
            return stages[i]
        if u >= 1.0:
            return stages[i + 1]
        # The smoothstep u^2 (3 - 2u): C1 and monotone, with zero slope at both ends.
        lo, hi, s = stages[i], stages[i + 1], u * u * (3.0 - 2.0 * u)
        return MediumState(lo.epsilon + (hi.epsilon - lo.epsilon) * s, lo.mu + (hi.mu - lo.mu) * s, branch=+1)

    def switch_intervals(self):
        """Time intervals where the profile varies, as (t_lo, t_hi) pairs.

        The oracle integrates only inside these and propagates exactly
        between them.  Sharp switches report a zero-width interval at
        their instant.  A periodic profile returns None: its switch set is
        unbounded, so callers enumerate it by period.
        """
        if self.period is not None:
            return None
        return [(s - 0.5 * self.tau, s + 0.5 * self.tau) for s in self.switches]
