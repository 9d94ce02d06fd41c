"""Material states, derived quantities, and time profiles."""

import dataclasses
import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from timescatter import (
    AmbiguityError,
    DomainError,
    MediumState,
    TemporalProfile,
    impedance,
    refractive_index,
    wave_speed,
)

positive_param = st.floats(min_value=1e-3, max_value=1e3)


class TestMediumState:
    def test_vacuum_speed(self):
        assert wave_speed(MediumState(1, 1)) == 1.0

    def test_dense_medium_speed(self):
        assert wave_speed(MediumState(4, 1)) == 0.5

    def test_negative_branch_speed(self):
        assert wave_speed(MediumState(-1, -4, branch=-1)) == -0.5

    def test_impedance_values(self):
        assert impedance(MediumState(1, 1)) == 1.0
        assert impedance(MediumState(4, 1)) == 0.5
        assert impedance(MediumState(1, 4)) == 2.0

    def test_refractive_index_values(self):
        assert refractive_index(MediumState(1, 1)) == 1.0
        assert refractive_index(MediumState(4, 1)) == 2.0
        assert refractive_index(MediumState(-1, -4, branch=-1)) == -2.0

    def test_refractive_index_of_an_overflowing_product_rejected(self):
        # Each parameter is finite, so the medium is valid; epsilon*mu is not.
        with pytest.raises(DomainError, match=r"^epsilon\*mu must be finite and nonzero, got inf$"):
            refractive_index(MediumState(1e200, 1e200))

    def test_double_negative_impedance_positive(self):
        assert impedance(MediumState(-1, -4, branch=-1)) == 2.0

    @pytest.mark.parametrize(
        "eps,mu",
        [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (math.nan, 1.0)],
    )
    def test_invalid_parameters_rejected(self, eps, mu):
        with pytest.raises(DomainError):
            MediumState(eps, mu)

    def test_negative_branch_needs_double_negative(self):
        with pytest.raises(DomainError):
            MediumState(1.0, 1.0, branch=-1)
        with pytest.raises(DomainError):
            MediumState(2.0, 3.0, branch=0)

    def test_constructor_is_a_frozen_checked_dataclass(self):
        # The written-out __init__ keeps the generated one's forms, and replace() re-runs its checks.
        medium = MediumState(epsilon=np.float64(4), mu=1)
        assert (medium.epsilon, medium.mu, medium.branch) == (4.0, 1.0, 1)
        assert type(medium.epsilon) is float and type(medium.mu) is float
        assert medium == MediumState(4.0, 1.0, +1) and hash(medium) == hash(MediumState(4.0, 1.0))
        assert repr(medium) == "MediumState(epsilon=4.0, mu=1.0, branch=1)"
        assert dataclasses.replace(medium, mu=2) == MediumState(4.0, 2.0)
        with pytest.raises(DomainError, match="^branch=-1 is reserved"):
            dataclasses.replace(medium, branch=-1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            medium.epsilon = 1.0
        with pytest.raises(TypeError):
            MediumState(1.0)

    def test_branch_beyond_int64_is_named(self):
        # An int that no numpy integer holds used to end in AttributeError while the message was built.
        with pytest.raises(DomainError, match=r"branch must be \+1 or -1, got 1180591620717411303424$"):
            MediumState(1.0, 1.0, branch=2**70)

    @hyp.settings(max_examples=50, deadline=None)
    @hyp.given(eps=positive_param, mu=positive_param, negate=st.booleans())
    def test_speed_times_index_is_one(self, eps, mu, negate):
        if negate:
            m = MediumState(-eps, -mu, branch=-1)
        else:
            m = MediumState(eps, mu)
        assert wave_speed(m) * refractive_index(m) == pytest.approx(1.0, rel=1e-15)

    @hyp.settings(max_examples=50, deadline=None)
    @hyp.given(eps=positive_param, mu=positive_param, c=positive_param)
    def test_common_scaling(self, eps, mu, c):
        base = MediumState(eps, mu)
        scaled = MediumState(c * eps, c * mu)
        assert impedance(scaled) == pytest.approx(impedance(base), rel=1e-12)
        assert refractive_index(scaled) == pytest.approx(
            c * refractive_index(base), rel=1e-12
        )


class TestProfiles:
    def setup_method(self):
        self.before = MediumState(1, 1)
        self.after = MediumState(4, 1)

    def test_step_sides(self):
        prof = TemporalProfile.step(self.before, self.after, t0=0.0)
        assert prof.sample(-1.0) == self.before
        assert prof.sample(+1.0) == self.after

    def test_step_at_interface_is_ambiguous(self):
        prof = TemporalProfile.step(self.before, self.after, t0=0.0)
        with pytest.raises(AmbiguityError):
            prof.sample(0.0)

    def test_ramp_outside_support(self):
        prof = TemporalProfile.ramp(self.before, self.after, t0=0.0, tau=0.2)
        assert prof.sample(-0.2) == self.before
        assert prof.sample(-0.1) == self.before
        assert prof.sample(0.1) == self.after
        assert prof.sample(0.2) == self.after

    def test_ramp_midpoint_and_monotonicity(self):
        prof = TemporalProfile.ramp(self.before, self.after, t0=0.0, tau=0.2)
        mid = prof.sample(0.0)
        assert mid.epsilon == pytest.approx(2.5)
        times = np.linspace(-0.1, 0.1, 101)
        values = [prof.sample(t).epsilon for t in times]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_ramp_is_c1_at_edges(self):
        prof = TemporalProfile.ramp(self.before, self.after, t0=0.0, tau=0.2)
        h = 1e-8
        for edge in (-0.1, 0.1):
            left = prof.sample(edge - h).epsilon
            right = prof.sample(edge + h).epsilon
            assert abs(right - left) / (2 * h) < 1e-5  # slope ~ 0 at the edges

    def test_ramp_converges_to_step(self):
        step = TemporalProfile.step(self.before, self.after, t0=0.0)
        for t in (-0.3, -0.011, 0.011, 0.3):
            for tau in (0.02, 0.002, 0.0002):
                ramp = TemporalProfile.ramp(self.before, self.after, t0=0.0, tau=tau)
                assert ramp.sample(t) == step.sample(t)

    def test_periodic_pattern(self):
        prof = TemporalProfile.periodic(self.before, self.after, t0=0.0, period=2.0, duty=0.25)
        assert prof.sample(-0.5) == self.before
        assert prof.sample(0.1) == self.after
        assert prof.sample(0.6) == self.before
        assert prof.sample(2.1) == self.after

    def test_constant(self):
        prof = TemporalProfile.constant(self.before)
        assert prof.sample(123.0) == self.before

    def test_ramp_rejects_sign_change(self):
        with pytest.raises(DomainError):
            TemporalProfile.ramp(self.before, MediumState(-1, -4, branch=-1), tau=0.1)

    def test_periodic_validation(self):
        with pytest.raises(DomainError):
            TemporalProfile.periodic(self.before, self.after, period=0.0)
        with pytest.raises(DomainError):
            TemporalProfile.periodic(self.before, self.after, period=1.0, duty=1.5)


    def test_switch_validation(self):
        b, a = self.before, self.after
        with pytest.raises(DomainError, match="n-1 switch instants"):
            TemporalProfile((b, a), ())
        with pytest.raises(DomainError, match="must increase by at least tau"):
            TemporalProfile((b, a, b), (1.0, 1.0))
        with pytest.raises(DomainError, match="must increase by at least tau"):
            TemporalProfile((b, a, b), (0.0, 0.05), 0.1)
        with pytest.raises(DomainError, match="ramps need at least one switch"):
            TemporalProfile((b,), (), 0.1)
        with pytest.raises(DomainError, match="periodic profile"):
            TemporalProfile((b, a), (0.0,), 0.1, period=1.0, duty=0.5)

    def test_unresolvable_ramp_rejected(self):
        # At t0 = 1e17 the float spacing is 16, so t0 -+ tau/2 both round to t0.
        b, a = self.before, self.after
        with pytest.raises(DomainError, match=r"ramp width tau=0\.3 rounds to zero at the switch instant t=1e\+17"):
            TemporalProfile.ramp(b, a, t0=1e17, tau=0.3)
        with pytest.raises(DomainError, match=r"tau=0\.3 rounds to zero at the switch instant t=1e\+17"):
            TemporalProfile((b, a, b), (0.0, 1e17), 0.3)
        ramp = TemporalProfile.ramp(b, a, t0=1e15, tau=0.3)  # spacing 0.125: still a ramp
        lo, hi = ramp.switch_intervals()[0]
        assert lo < 1e15 < hi
        assert TemporalProfile.step(b, a, t0=1e17).switch_intervals() == [(1e17, 1e17)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_switch_rejected(self, value):
        with pytest.raises(DomainError, match="switch instants must be finite"):
            TemporalProfile.ramp(self.before, self.after, t0=value)
        with pytest.raises(DomainError, match="switch instants must be finite"):
            TemporalProfile((self.before, self.after, self.before), (0.0, value), 0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, value):
        with pytest.raises(DomainError, match="ramp width tau must be finite"):
            TemporalProfile.ramp(self.before, self.after, tau=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_period_rejected(self, value):
        with pytest.raises(DomainError, match="period must be finite"):
            TemporalProfile.periodic(self.before, self.after, period=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_duty_rejected(self, value):
        with pytest.raises(DomainError, match="duty must lie in"):
            TemporalProfile.periodic(self.before, self.after, duty=value)


def smoothstep_sample(stages, switches, tau, t):
    """The profile transcribed: the stage itself outside ramps, lo + (hi - lo) s(u) inside them."""
    for i, s in enumerate(switches):
        u = (t - (s - 0.5 * tau)) / tau if tau > 0.0 else 0.0
        if 0.0 < u < 1.0:
            w = u * u * (3.0 - 2.0 * u)
            lo, hi = stages[i], stages[i + 1]
            return MediumState(lo.epsilon + (hi.epsilon - lo.epsilon) * w, lo.mu + (hi.mu - lo.mu) * w)
    return stages[sum(t > s for s in switches)]


@st.composite
def profile_cases(draw):
    """1-4 positive stages, sharp or ramped switches, and sample times around every switch."""
    n = draw(st.integers(1, 4))
    stages = tuple(MediumState(draw(positive_param), draw(positive_param)) for _ in range(n))
    tau = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0))) if n > 1 else 0.0
    switches = [draw(st.floats(-5.0, 5.0))]
    for _ in range(n - 2):
        switches.append(switches[-1] + tau + draw(st.floats(0.01, 3.0)))
    switches = switches[: n - 1]
    width = max(tau, 1e-3)
    near = [s + width * draw(st.floats(-0.75, 0.75)) for s in switches]
    anywhere = draw(st.lists(st.floats(-10.0, 20.0), min_size=1, max_size=4))
    return stages, tuple(switches), tau, near + anywhere


class TestUnifiedSample:
    @hyp.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hyp.given(case=profile_cases())
    def test_sample_matches_transcription(self, case):
        stages, switches, tau, times = case
        profile = TemporalProfile(stages, switches, tau)
        for t in times:
            if tau == 0.0 and t in switches:
                continue
            assert profile.sample(t) == smoothstep_sample(stages, switches, tau, t)
        assert profile.switch_intervals() == [(s - 0.5 * tau, s + 0.5 * tau) for s in switches]

    @hyp.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hyp.given(case=profile_cases())
    def test_sharp_switch_is_two_valued(self, case):
        stages, switches, _, _ = case
        profile = TemporalProfile(stages, switches)
        for i, s in enumerate(switches):
            with pytest.raises(AmbiguityError):
                profile.sample(s)
            assert profile.sample(math.nextafter(s, -math.inf)) is stages[i]
            assert profile.sample(math.nextafter(s, math.inf)) is stages[i + 1]
