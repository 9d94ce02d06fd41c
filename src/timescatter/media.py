"""Material parameters as functions of time.

Units: c = 1 throughout; epsilon and mu are relative (dimensionless), so
the phase speed in a medium is 1/sqrt(epsilon*mu) and the impedance is
sqrt(mu/epsilon).  Double-negative (negative-index) media are supported
through an explicit branch sign, because sqrt of a product of two
negative parameters is positive while the physical index is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, DomainError, reject

__all__ = [
    "MediumState",
    "TemporalProfile",
    "RampSequence",
    "VACUUM",
    "wave_speed",
    "phase_speed",
    "check_medium",
    "impedance",
    "refractive_index",
    "sample",
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


@dataclass(frozen=True)
class MediumState:
    """One-sided material sample at an instant.

    ``branch`` selects the sign of the refractive index: +1 for ordinary
    media, -1 only for double-negative media (epsilon < 0 and mu < 0).
    """

    epsilon: float
    mu: float
    branch: int = +1

    def __post_init__(self):
        eps, mu = float(self.epsilon), float(self.mu)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "mu", mu)
        check_medium(eps, mu, self.branch)

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
    product = m.epsilon * m.mu
    if not math.isfinite(product) or product == 0.0:
        raise DomainError(f"epsilon*mu must be finite and nonzero, got {product}")
    return m.branch * math.sqrt(abs(product))


def _smoothstep(u: float) -> float:
    """C1 monotone interpolant on [0, 1] with zero slope at both ends."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * (3.0 - 2.0 * u)


@dataclass(frozen=True)
class TemporalProfile:
    """Declared time-course of (epsilon, mu).

    Kinds:

    * ``constant`` -- ``before`` at all times.
    * ``step`` -- ``before`` for t < t0, ``after`` for t > t0; sampling at
      exactly t0 raises :class:`AmbiguityError`.
    * ``ramp`` -- C1 monotone transition of epsilon and mu independently
      over [t0 - tau/2, t0 + tau/2]; equals ``before``/``after`` outside.
    * ``periodic`` -- piecewise constant for t >= t0: within each period
      the first ``duty`` fraction is ``after``, the remainder ``before``
      (half-open sub-intervals); ``before`` for t < t0.
    """

    kind: str
    before: MediumState
    after: MediumState
    t0: float = 0.0
    tau: float = 0.0
    period: float = 0.0
    duty: float = 0.5

    def __post_init__(self):
        if self.kind not in ("constant", "step", "ramp", "periodic"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if self.kind == "ramp":
            if self.tau < 0.0:
                raise DomainError(f"ramp width tau must be >= 0, got {self.tau}")
            if self.tau > 0.0 and not (
                self.before.epsilon > 0.0
                and self.before.mu > 0.0
                and self.after.epsilon > 0.0
                and self.after.mu > 0.0
            ):
                # A monotone interpolant between opposite-sign parameters
                # would pass through zero, violating MediumState invariants.
                raise DomainError("ramp endpoints must both be positive media")
        if self.kind == "periodic":
            if self.period <= 0.0:
                raise DomainError(f"period must be positive, got {self.period}")
            if not 0.0 < self.duty < 1.0:
                raise DomainError(f"duty must lie in (0, 1), got {self.duty}")

    @classmethod
    def constant(cls, medium: MediumState) -> "TemporalProfile":
        return cls("constant", medium, medium)

    @classmethod
    def step(cls, before: MediumState, after: MediumState, t0: float = 0.0) -> "TemporalProfile":
        return cls("step", before, after, t0=t0)

    @classmethod
    def ramp(
        cls, before: MediumState, after: MediumState, t0: float = 0.0, tau: float = 0.1
    ) -> "TemporalProfile":
        return cls("ramp", before, after, t0=t0, tau=tau)

    @classmethod
    def periodic(
        cls,
        before: MediumState,
        after: MediumState,
        t0: float = 0.0,
        period: float = 1.0,
        duty: float = 0.5,
    ) -> "TemporalProfile":
        return cls("periodic", before, after, t0=t0, period=period, duty=duty)

    def sample(self, t: float) -> MediumState:
        """Material state at time t; see :func:`sample`."""
        if self.kind == "constant":
            return self.before
        if self.kind == "step":
            if t == self.t0:
                raise AmbiguityError(
                    f"step profile is two-valued at t0={self.t0}; "
                    "take a one-sided limit"
                )
            return self.before if t < self.t0 else self.after
        if self.kind == "ramp":
            if self.tau == 0.0:
                if t == self.t0:
                    raise AmbiguityError(
                        f"zero-width ramp is two-valued at t0={self.t0}"
                    )
                return self.before if t < self.t0 else self.after
            u = (t - (self.t0 - 0.5 * self.tau)) / self.tau
            if u <= 0.0:
                return self.before
            if u >= 1.0:
                return self.after
            s = _smoothstep(u)
            eps = self.before.epsilon + (self.after.epsilon - self.before.epsilon) * s
            mu = self.before.mu + (self.after.mu - self.before.mu) * s
            return MediumState(eps, mu, branch=+1)
        # periodic
        if t < self.t0:
            return self.before
        phase = math.fmod(t - self.t0, self.period) / self.period
        return self.after if phase < self.duty else self.before

    def switch_intervals(self):
        """Time intervals where the profile varies, as (t_lo, t_hi) pairs.

        The oracle integrates only inside these and propagates exactly
        between them.  Step profiles report a zero-width interval at
        their switch instant.
        """
        if self.kind == "constant":
            return []
        if self.kind == "step" or (self.kind == "ramp" and self.tau == 0.0):
            return [(self.t0, self.t0)]
        if self.kind == "ramp":
            return [(self.t0 - 0.5 * self.tau, self.t0 + 0.5 * self.tau)]
        return None  # periodic: unbounded switch set; callers enumerate by period


@dataclass(frozen=True)
class RampSequence:
    """Several C1 ramps in series: a multi-interface smooth time-course.

    ``stages`` lists the media in temporal order; ``centers`` the ramp
    midpoints between consecutive stages (strictly increasing, one fewer
    than stages); ``tau`` the common ramp width.  Consecutive ramps must
    not overlap.
    """

    stages: tuple
    centers: tuple
    tau: float

    def __post_init__(self):
        stages = tuple(self.stages)
        centers = tuple(float(c) for c in self.centers)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "centers", centers)
        if len(stages) < 2 or len(centers) != len(stages) - 1:
            raise DomainError("need n >= 2 stages and exactly n-1 ramp centers")
        if self.tau <= 0.0:
            raise DomainError(f"ramp width must be positive, got {self.tau}")
        if any(c2 - c1 < self.tau for c1, c2 in zip(centers, centers[1:])):
            raise DomainError("ramp centers closer than one ramp width apart")
        for m in stages:
            if not (m.epsilon > 0.0 and m.mu > 0.0):
                raise DomainError("ramp sequences support positive media only")

    def sample(self, t: float) -> MediumState:
        i = 0
        while i < len(self.centers) and t >= self.centers[i] - 0.5 * self.tau:
            i += 1
        # t lies before ramp i; check whether it is inside ramp i-1.
        if i > 0 and t < self.centers[i - 1] + 0.5 * self.tau:
            lo, hi = self.stages[i - 1], self.stages[i]
            u = (t - (self.centers[i - 1] - 0.5 * self.tau)) / self.tau
            s = _smoothstep(u)
            return MediumState(
                lo.epsilon + (hi.epsilon - lo.epsilon) * s,
                lo.mu + (hi.mu - lo.mu) * s,
            )
        return self.stages[i]

    def switch_intervals(self):
        return [(c - 0.5 * self.tau, c + 0.5 * self.tau) for c in self.centers]


def sample(profile, t: float) -> MediumState:
    """Evaluate a declared time-course at time t.

    One-sided limits at a step's t0 equal ``before``/``after``; sampling a
    step exactly at t0 raises :class:`AmbiguityError`.
    """
    return profile.sample(t)
