"""Mode-ODE integration oracle: eigenmodes, conservation, convergence."""

import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import timescatter.oracle as oracle_module

from timescatter import (
    ConstraintError,
    DomainError,
    MediumState,
    ModeAmplitudes,
    ModeState,
    PlaneWave,
    StiffnessError,
    TemporalProfile,
    TimelineSegment,
    TimescatterError,
    cascade_scatter,
    coefficients,
    convergence_study,
    floquet_exponent,
    integrate,
    mode_decompose,
    mode_reconstruct,
    mode_rhs,
    numeric_rt,
    phase_vector,
    plane_wave_mode_state,
)

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])

VACUUM = MediumState(1, 1)
DENSE = MediumState(4, 1)
TOL = 1e-10
POSITIVE = st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0))  # (epsilon, mu)
UNIT = st.floats(-1.0, 1.0)


def vacuum_wave(omega=1.0):
    return PlaneWave(Y_HAT.astype(complex), omega, X_HAT, 1.0)


class TestModeRhs:
    def test_plane_wave_is_eigenmode(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        state = plane_wave_mode_state(wave, VACUUM, t=0.3)
        dD, dB = mode_rhs(state, m, VACUUM)
        assert_allclose(dD, -1j * wave.omega * state.D, rtol=1e-13)
        assert_allclose(dB, -1j * wave.omega * state.B, rtol=1e-13)

    def test_zero_state_is_fixed_point(self):
        m = phase_vector(vacuum_wave())
        state = ModeState(np.zeros(3, complex), np.zeros(3, complex), 0.0)
        dD, dB = mode_rhs(state, m, VACUUM)
        assert_allclose(dD, np.zeros(3))
        assert_allclose(dB, np.zeros(3))

    def test_dispersion_scales_with_wavenumber(self):
        wave2 = vacuum_wave(omega=2.0)  # doubled m.
        m2 = phase_vector(wave2)
        state = plane_wave_mode_state(wave2, VACUUM, t=0.0)
        dD, _ = mode_rhs(state, m2, VACUUM)
        assert_allclose(dD, -2j * state.D, rtol=1e-13)

    def test_preserves_divergence_constraint(self):
        rng = np.random.default_rng(2)
        m = phase_vector(vacuum_wave())
        raw_d = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw_b = rng.normal(size=3) + 1j * rng.normal(size=3)
        proj = lambda v: v - np.dot(v, X_HAT) * X_HAT
        state = ModeState(proj(raw_d), proj(raw_b), 0.0)
        dD, dB = mode_rhs(state, m, DENSE)
        assert abs(np.dot(dD, m)) <= 1e-14
        assert abs(np.dot(dB, m)) <= 1e-14


class TestIntegrate:
    def test_zero_span_returns_the_initial_state(self):
        profile = Recorded(TemporalProfile.ramp(VACUUM, DENSE, tau=0.01))
        initial = plane_wave_mode_state(vacuum_wave(), VACUUM, 0.0)
        assert integrate(profile, phase_vector(vacuum_wave()), initial, 0.0) is initial
        assert profile.instants == []

    def test_one_period_in_constant_vacuum(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, VACUUM, 0.0)
        final = integrate(TemporalProfile.constant(VACUUM), m, initial, wave.period)
        assert np.max(np.abs(final.D - initial.D)) <= TOL
        assert np.max(np.abs(final.B - initial.B)) <= TOL

    def test_ramp_produces_two_mode_superposition(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.1 * wave.period)
        initial = plane_wave_mode_state(wave, VACUUM, -3 * wave.period)
        final = integrate(profile, m, initial, 3 * wave.period)
        amps = mode_decompose(final, DENSE, m)
        assert abs(amps.forward) > 0.1
        assert abs(amps.backward) > 0.01  # reflected branch appears

    def test_sudden_limit_is_continuity_of_D_and_B(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        tau = 1e-8
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=tau)
        initial = plane_wave_mode_state(wave, VACUUM, -1e-6)
        final = integrate(profile, m, initial, 1e-6)
        # Over a vanishing window the state cannot move: D and B are continuous.
        assert np.max(np.abs(final.D - initial.D)) < 1e-5
        assert np.max(np.abs(final.B - initial.B)) < 1e-5

    def test_time_reversal_round_trip(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.5)
        initial = plane_wave_mode_state(wave, VACUUM, -2.0)
        there = integrate(profile, m, initial, 3.0)
        back = integrate(profile, m, there, -2.0)
        assert np.max(np.abs(back.D - initial.D)) <= 20 * TOL
        assert np.max(np.abs(back.B - initial.B)) <= 20 * TOL

    def test_divergence_drift_stays_bounded(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.3)
        state = plane_wave_mode_state(wave, VACUUM, -5 * wave.period)
        state = integrate(profile, m, state, 5 * wave.period)
        assert abs(np.dot(state.D, m)) <= 10 * TOL
        assert abs(np.dot(state.B, m)) <= 10 * TOL

    def test_constants_of_motion_in_constant_medium(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, VACUUM, 0.0)
        amps0 = mode_decompose(initial, VACUUM, m)
        final = integrate(TemporalProfile.constant(VACUUM), m, initial, 2 * wave.period)
        amps1 = mode_decompose(final, VACUUM, m)
        assert abs(abs(amps1.forward) - abs(amps0.forward)) <= 10 * TOL
        assert abs(abs(amps1.backward) - abs(amps0.backward)) <= 10 * TOL

    def test_unreachable_tolerance_raises_stiffness_error(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, VACUUM, 0.0)
        with pytest.raises(StiffnessError) as excinfo:
            integrate(TemporalProfile.constant(VACUUM), m, initial, 1.0, tol=1e-30)
        assert excinfo.value.smallest_step is not None

    def test_step_cap_raises_stiffness_error(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_MAX_STEPS", 3)
        wave = vacuum_wave()
        profile = TemporalProfile.ramp(VACUUM, DENSE, tau=0.5 * wave.period)
        with pytest.raises(StiffnessError, match=r"^exceeded 3 steps \(smallest step \S+\)$") as excinfo:
            numeric_rt(profile, wave)
        smallest = excinfo.value.smallest_step
        assert 0.0 < smallest < math.inf and str(excinfo.value).endswith(f"(smallest step {smallest:.3e})")

    def test_invalid_tol_rejected(self):
        wave = vacuum_wave()
        with pytest.raises(DomainError):
            integrate(
                TemporalProfile.constant(VACUUM),
                phase_vector(wave),
                plane_wave_mode_state(wave, VACUUM, 0.0),
                1.0,
                tol=0.0,
            )

    def test_nan_tol_rejected(self):
        wave = vacuum_wave()
        with pytest.raises(DomainError):
            integrate(
                TemporalProfile.constant(VACUUM),
                phase_vector(wave),
                plane_wave_mode_state(wave, VACUUM, 0.0),
                1.0,
                tol=float("nan"),
            )

    def test_non_finite_state_raises_at_once(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.5)
        state = plane_wave_mode_state(wave, VACUUM, -1.0)
        D = state.D.copy()
        D[1] = complex(math.nan, 0.0)
        with pytest.raises(DomainError, match=r"mode state is not finite at t=-1\.0"):
            integrate(profile, m, ModeState(D, state.B, -1.0), 1.0)
        with pytest.raises(DomainError, match="mode state is not finite at t=-0.25"):
            integrate(TestExactPropagation.SampleOnly(profile), m, ModeState(D, state.B, -0.25), 1.0)

    def test_state_that_overflows_in_a_step_raises(self):
        # A launch near the float maximum whose D grows about 2.7-fold inside the ramp (a 1e307 launch
        # leaves it at 2.7e307): the state leaves the float range there, and the error names the ramp.
        wave = PlaneWave(1e308 * Y_HAT.astype(complex), 100.0, X_HAT, 1.0)
        profile = TemporalProfile.ramp(VACUUM, MediumState(16, 1), t0=0.0, tau=0.05)
        initial = plane_wave_mode_state(wave, VACUUM, -1.0)
        with pytest.raises(DomainError, match=r"mode state is not finite in the step from t=-0\.025 to t=0\.025"):
            integrate(profile, phase_vector(wave), initial, 1.0)
        # The same launch at omega = 1 through eps 1 -> 4 stays in range all the way.
        wave = PlaneWave(1e308 * Y_HAT.astype(complex), 1.0, X_HAT, 1.0)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.05)
        final = integrate(profile, phase_vector(wave), plane_wave_mode_state(wave, VACUUM, -1.0), 1.0)
        assert 0.5e308 < np.max(np.abs(final.D.view(float))) < 1.797e308

    def test_subnormal_permittivity_keeps_the_invariant(self):
        # eps = 1e-320: B/D of the medium's modes is about sqrt(mu/eps) = 7e159 whatever |m|, still a finite
        # state. The constant-medium ODE keeps mu |D|**2 + eps |B|**2 (for transverse D and B); at |m| = 1e-150
        # the phase w*h is 7e9.
        medium = MediumState(1e-320, 0.5)
        profile = TemporalProfile.periodic(medium, medium, period=1e-320)  # before its start: one constant piece
        initial = ModeState(Y_HAT, [0.0, 0.0, 1.0], 0.0)
        final = integrate(profile, [1e-150, 0.0, 0.0], initial, -0.5)
        invariant = medium.mu * np.sum(np.abs(final.D) ** 2) + np.sum(np.abs(math.sqrt(medium.epsilon) * final.B) ** 2)
        assert invariant == pytest.approx(medium.mu + medium.epsilon, rel=1e-12)
        assert np.max(np.abs(final.B)) > 1e159
        # At |m| = 1e-30 the phase is 7e129: one rounding of w*h spans many periods, so the phase is noise.
        with pytest.raises(DomainError, match=r"phase w\*h = -7\.07\d+e\+129 of a constant piece exceeds 2 pi / float"):
            integrate(profile, [1e-30, 0.0, 0.0], initial, -0.5)

    def test_phase_past_the_rounding_bound_raises(self):
        # 2 pi / float epsilon = 2.8e16 rad: a constant piece of vacuum at |m| = 1 runs up to that phase and no further.
        initial = plane_wave_mode_state(vacuum_wave(), VACUUM, 0.0)
        m, bound = phase_vector(vacuum_wave()), 2 * math.pi / sys.float_info.epsilon
        integrate(TemporalProfile.constant(VACUUM), m, initial, bound)
        with pytest.raises(DomainError, match=r"phase w\*h = 2\.8\d+e\+16 of a constant piece exceeds 2 pi / float"):
            integrate(TemporalProfile.constant(VACUUM), m, initial, math.nextafter(bound, math.inf))

    def test_phase_vector_below_normal_square_rejected(self):
        initial = plane_wave_mode_state(vacuum_wave(), VACUUM, 0.0)
        for m in ([0.0, 0.0, 0.0], [1e-160, 0.0, 0.0], [1e160, 0.0, 0.0]):
            with pytest.raises(DomainError, match=r"\|m\|\*\*2 must be a normal float"):
                integrate(TemporalProfile.constant(VACUUM), np.array(m), initial, 1.0)
            with pytest.raises(DomainError, match=r"\|m\|\*\*2 must be a normal float"):
                mode_decompose(initial, VACUUM, np.array(m))
        # A wrong shape or a non-finite entry is rejected once, by name, on every path.
        for m, message in (([1.0, 0.0], r"m must be a real 3-vector, got shape \(2,\)"),
                           ([[1.0, 0.0, 0.0]], r"m must be a real 3-vector, got shape \(1, 3\)"),
                           ([math.nan, 1.0, 0.0], "m must be finite"), ([math.inf, 0.0, 0.0], "m must be finite")):
            for call in (lambda: integrate(TemporalProfile.constant(VACUUM), m, initial, 1.0),
                         lambda: mode_decompose(initial, VACUUM, m),
                         lambda: mode_reconstruct(ModeAmplitudes(1.0, 0.0, Y_HAT), VACUUM, m, 0.0),
                         lambda: mode_rhs(initial, m, VACUUM)):
                with pytest.raises(DomainError, match=message):
                    call()

    def test_phase_vector_argument_is_not_frozen(self):
        m = np.array([1.0, 0.0, 0.0])
        integrate(TemporalProfile.constant(VACUUM), m, plane_wave_mode_state(vacuum_wave(), VACUUM, 0.0), 1.0)
        assert m.flags.writeable

    def test_smoothly_modulated_medium(self):
        # Continuously varying parameters away from any interface are exact
        # mode dynamics too: any object with a sample(t) method integrates.
        class Breathing:
            def sample(self, t):
                return MediumState(2.0 + 0.5 * math.sin(0.3 * t), 1.0)

        start = Breathing().sample(0.0)
        wave = PlaneWave(Y_HAT.astype(complex), 1.0, X_HAT, start.wave_speed)
        m = phase_vector(wave)
        state = plane_wave_mode_state(wave, start, 0.0)
        final = integrate(Breathing(), m, state, 10.0)
        assert abs(np.dot(final.D, m)) <= 10 * TOL
        back = integrate(Breathing(), m, final, 0.0)
        assert np.max(np.abs(back.D - state.D)) <= 20 * TOL

    def test_ramp_blend_past_the_float_range_raises(self):
        # Both stages at the largest float: the blend rounds up to inf inside the ramp, which sample rejects.
        stage = MediumState(1.7976931348623157e308, 1e-300)
        profile = TemporalProfile.ramp(stage, stage, t0=0.0, tau=1.0)
        with pytest.raises(DomainError):
            integrate(profile, X_HAT, ModeState(Y_HAT, [0.0, 0.0, 1.0], -1.0), 1.0)


def ref_periodic_pieces(profile, lo, hi):
    """A periodic profile's pieces from lo to hi as once built: every switch instant of the span listed and sorted."""
    t0, period = profile.switches[0], profile.period
    n, instants = math.floor(max(0.0, (lo - t0) / period)), []
    while (start := t0 + n * period) <= hi:
        instants += [start, start + profile.duty * period]
        n += 1
    pieces, cursor = [], lo
    for x in sorted(instants):
        if lo <= x <= hi and x >= cursor:
            if x > cursor:
                pieces.append((cursor, x, False))
            cursor = x
    return pieces + [(cursor, hi, False)] if hi > cursor else pieces


class TestPeriodicWalk:
    """A periodic span is walked a piece at a time, in either direction, with the pieces a sorted list gave."""

    PROFILE = TemporalProfile.periodic(VACUUM, DENSE, t0=0.0, period=2.0, duty=0.5)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        t0=st.floats(-5.0, 5.0), period=st.floats(0.1, 3.0), span=st.floats(0.0, 30.0),
        duty=st.sampled_from([0.5, 1e-9, 1 - 1e-9]) | st.floats(0.01, 0.99),
        offset=st.sampled_from([0.0, -3.0, 1e6, 1e15]) | st.floats(-10.0, 40.0),
    )
    def test_same_pieces_as_a_sorted_list(self, t0, period, duty, offset, span):
        # Far from t0, with a duty near 1, a duty switch can round to or past the next period's start.
        profile = TemporalProfile.periodic(VACUUM, DENSE, t0=t0, period=period, duty=duty)
        lo = t0 + offset
        hi = lo + span * period
        expected = ref_periodic_pieces(profile, lo, hi)
        pieces = oracle_module._pieces(profile, lo, hi)
        assert [bits(piece[:2]) + [piece[2]] for piece in pieces] == [bits(p[:2]) + [p[2]] for p in expected]
        assert [bits(p[:2]) for p in reversed(pieces)] == [bits(p[:2]) for p in reversed(expected)]

    def peak_memory(self, periods, backward):
        wave, ends = vacuum_wave(), [-0.5, 2.0 * periods - 0.5]
        start, end = ends[::-1] if backward else ends
        initial = plane_wave_mode_state(wave, VACUUM, start)
        tracemalloc.start()
        try:
            integrate(self.PROFILE, phase_vector(wave), initial, end)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_peak_memory_does_not_grow_with_the_span(self, backward):
        # A list of every switch instant and piece peaked at 62-86 KB for 300 periods and 0.9-1.0 MB for 3,000.
        self.peak_memory(30, backward)  # first-call allocations are not the walk's
        assert self.peak_memory(3000, backward) <= 2 * self.peak_memory(300, backward)


class TestNonFiniteTimes:
    """A NaN or infinite time raises at once, where it used to return a wrong state, crash or run without end."""

    PROFILES = {
        "step": TemporalProfile.step(VACUUM, DENSE),
        "ramp": TemporalProfile.ramp(VACUUM, DENSE, tau=0.5),
        "periodic": TemporalProfile.periodic(VACUUM, DENSE, period=1.0, duty=0.5),
        "constant": TemporalProfile.constant(VACUUM),
    }

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", [*PROFILES, "sample-only"])
    def test_t_end_rejected_at_once(self, kind, t_end):
        profile = self.PROFILES.get(kind) or TestExactPropagation.SampleOnly(self.PROFILES["ramp"])
        initial = plane_wave_mode_state(vacuum_wave(), VACUUM, -1.0)
        start = time.perf_counter()
        with pytest.raises(TimescatterError, match=r"t_end must be finite, got (nan|inf|-inf)$"):
            integrate(profile, phase_vector(vacuum_wave()), initial, t_end)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_state_time_rejected(self, t):
        with pytest.raises(DomainError, match=r"mode state time must be finite, got t=(nan|inf|-inf)$"):
            ModeState(Y_HAT, Y_HAT, t)

    def test_periodic_span_past_the_step_cap_rejected_before_listing(self):
        # 10**9 periods would list 2 * 10**9 switch instants; the count is checked first.
        profile = self.PROFILES["periodic"]
        initial = plane_wave_mode_state(vacuum_wave(), VACUUM, -1.0)
        start = time.perf_counter()
        message = r"holds about 2e\+09 periodic switch instants, more than the 10000000-step cap"
        with pytest.raises(StiffnessError, match=message):
            integrate(profile, phase_vector(vacuum_wave()), initial, 1e9)
        assert time.perf_counter() - start < 1.0


class TestMomentumLaw:
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(
        before=POSITIVE, after=POSITIVE, omega=st.floats(0.5, 2.0), log_tau=st.floats(-2.0, 0.5),
        log_tol=st.floats(-10.0, -6.0),
    )
    def test_momentum_drift_through_a_ramp_is_held_by_tol(self, before, after, omega, log_tau, log_tol):
        # The media are uniform in space, so Re(D x conj(B)) of one mode is exact for any eps(t), mu(t):
        # its time derivative i m (|D|**2/eps - |B|**2/mu) is imaginary. Its relative drift through a
        # ramp of tau periods stays below c * tol * max(1, tau): 0.48 at most over 200 random ramps,
        # so c = 2. With the Dormand-Prince entry a32 off by 1e-3, a one-period ramp from eps 1 to 4
        # drifts 557 to 784 tol, at tol from 1e-6 to 1e-10.
        before, after = MediumState(*before), MediumState(*after)
        wave = PlaneWave(Y_HAT.astype(complex), omega, X_HAT, before.wave_speed)
        tau, tol = 10.0**log_tau, 10.0**log_tol
        profile = TemporalProfile.ramp(before, after, tau=tau * wave.period)
        initial = plane_wave_mode_state(wave, before, -0.5 * profile.tau - 1.0)
        final = integrate(profile, phase_vector(wave), initial, 0.5 * profile.tau + 1.0, tol=tol)
        start, end = (np.cross(state.D, state.B.conj()).real for state in (initial, final))
        assert np.linalg.norm(end - start) <= 2.0 * tol * max(1.0, tau) * np.linalg.norm(start)


def ref_decompose(state, medium, m):
    """mode_decompose's amplitudes and polarization by np.cross and np.linalg.norm; its checks are left out."""
    kappa = m / float(np.linalg.norm(m))
    E, cross = state.D / medium.epsilon, medium.wave_speed * np.cross(kappa, state.B)
    D_f, D_b = medium.epsilon * (0.5 * (E - cross)), medium.epsilon * (0.5 * (E + cross))
    norm_f, norm_b = float(np.linalg.norm(D_f)), float(np.linalg.norm(D_b))  # unscaled: no part is near 2**+-500
    p = (D_f / norm_f) if norm_f >= norm_b else (D_b / norm_b)
    return complex(np.vdot(p, D_f)), complex(np.vdot(p, D_b)), p


def ref_numeric_rt(profile, incident, tol=TOL):
    """numeric_rt's former route: the incident wave's own 3-D state, integrated and split by mode_decompose."""
    intervals = sorted(profile.switch_intervals())
    before, after = profile.sample(intervals[0][0]), profile.sample(intervals[-1][1])
    m = phase_vector(incident)
    t_start = intervals[0][0] - 5.0 * incident.period
    t_end = intervals[-1][1] + 5.0 * 2.0 * math.pi / (float(np.linalg.norm(m)) * after.wave_speed)
    final = integrate(profile, m, plane_wave_mode_state(incident, before, t_start), t_end, tol=tol)
    amps = mode_decompose(final, after, m)
    size = float(np.linalg.norm(incident.amplitude))
    return abs(amps.backward) / after.epsilon / size, abs(amps.forward) / after.epsilon / size


class DoubleNegative:
    """A profile's media with epsilon and mu negated, on the branch -1 unless given."""

    def __init__(self, profile, branch=-1):
        self.profile, self.branch = profile, branch

    def sample(self, t):
        medium = self.profile.sample(t)
        return MediumState(-medium.epsilon, -medium.mu, self.branch)

    def switch_intervals(self):
        return self.profile.switch_intervals()


class TestModeDecompose:
    def test_pure_forward_wave(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        state = plane_wave_mode_state(wave, VACUUM, 0.7)
        amps = mode_decompose(state, VACUUM, m)
        assert abs(amps.forward) == pytest.approx(np.linalg.norm(state.D), rel=1e-13)
        assert abs(amps.backward) <= 1e-13

    def test_pure_backward_wave(self):
        # Reversed wave: negative frequency along -k keeps the same m.
        backward = PlaneWave(Y_HAT.astype(complex), -1.0, -X_HAT, 1.0)
        m = phase_vector(backward)
        state = plane_wave_mode_state(backward, VACUUM, 0.7)
        amps = mode_decompose(state, VACUUM, m)
        assert abs(amps.backward) == pytest.approx(np.linalg.norm(state.D), rel=1e-13)
        assert abs(amps.forward) <= 1e-13

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(4)
        m = phase_vector(vacuum_wave(omega=2.0))
        for medium in (VACUUM, DENSE):
            pol = np.array([0.0, 1.0, 1.0j]) / math.sqrt(2)
            f, b = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
            kappa = m / np.linalg.norm(m)
            D = (f + b) * pol
            B = ((f - b) / (medium.epsilon * medium.wave_speed)) * np.cross(kappa, pol)
            state = ModeState(D, B, 1.3)
            amps = mode_decompose(state, medium, m)
            rebuilt = mode_reconstruct(amps, medium, m, 1.3)
            assert np.max(np.abs(rebuilt.D - state.D)) <= 1e-12 * max(1, np.abs(f), np.abs(b))
            assert np.max(np.abs(rebuilt.B - state.B)) <= 1e-12 * max(1, np.abs(f), np.abs(b))

    def test_non_transversal_state_rejected(self):
        m = phase_vector(vacuum_wave())
        state = ModeState(X_HAT.astype(complex), np.zeros(3, complex) + Y_HAT, 0.0)
        with pytest.raises(ConstraintError):
            mode_decompose(state, VACUUM, m)

    def test_mixed_polarization_rejected(self):
        m = phase_vector(vacuum_wave())
        kappa = X_HAT
        # Forward along y, backward along z: no shared polarization exists.
        f_pol, b_pol = Y_HAT.astype(complex), np.array([0, 0, 1], dtype=complex)
        D = f_pol + b_pol
        B = (np.cross(kappa, f_pol) - np.cross(kappa, b_pol)) / 1.0
        state = ModeState(D, B, 0.0)
        with pytest.raises(ConstraintError):
            mode_decompose(state, VACUUM, m)

    def test_negative_branch_rejected(self):
        m = phase_vector(vacuum_wave())
        state = plane_wave_mode_state(vacuum_wave(), VACUUM, 0.0)
        with pytest.raises(DomainError):
            mode_decompose(state, MediumState(-1, -1, branch=-1), m)

    def test_zero_state_has_zero_amplitudes_and_a_transverse_polarization(self):
        zero = ModeState(np.zeros(3, complex), np.zeros(3, complex), 0.0)
        amps = mode_decompose(zero, VACUUM, phase_vector(vacuum_wave()))
        assert (amps.forward, amps.backward) == (0.0, 0.0)
        assert amps.polarization.tolist() == [0.0, 1.0, 0.0]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=st.data())
    def test_same_bits_as_np_cross_transcription(self, case):
        draw = case.draw
        k, pol = oblique_elliptic(draw)
        medium = MediumState(*draw(POSITIVE))
        m = 10.0 ** draw(st.floats(-3.0, 3.0)) * k
        f, b = complex(draw(UNIT), draw(UNIT)) + 1.5, complex(draw(UNIT), draw(UNIT)) - 1.5j  # neither is zero
        scale = 10.0 ** draw(st.floats(-100.0, 100.0))
        D = scale * (f + b) * pol
        B = scale * ((f - b) / (medium.epsilon * medium.wave_speed)) * np.cross(k, pol)
        state = ModeState(D, B, draw(UNIT))
        amps = mode_decompose(state, medium, m)
        forward, backward, polarization = ref_decompose(state, medium, m)
        assert bits([amps.forward.real, amps.forward.imag, amps.backward.real, amps.backward.imag]) == bits(
            [forward.real, forward.imag, backward.real, backward.imag]
        )
        assert bits(amps.polarization.view(np.float64).tolist()) == bits(polarization.view(np.float64).tolist())


class TestStateBuilders:
    """A state that overflows raises the DomainError integrate would raise, with no numpy warning."""

    def test_plane_wave_state_with_overflowing_phase(self):
        wave = PlaneWave(Y_HAT.astype(complex), 1e10, X_HAT, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^mode state is not finite at t=1e\+300: "):
                plane_wave_mode_state(wave, VACUUM, 1e300)

    @pytest.mark.parametrize(
        "amps, medium, m",
        [
            (ModeAmplitudes(1e300, -1e300, Y_HAT), MediumState(1e-10, 1e-10), [1e10, 0.0, 0.0]),
            (ModeAmplitudes(1e308, 1e308, Y_HAT), VACUUM, X_HAT),
        ],
        ids=["B-overflows", "D-overflows"],
    )
    def test_reconstructed_state_that_overflows(self, amps, medium, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^mode state is not finite at t=0\.0: "):
                mode_reconstruct(amps, medium, m, 0.0)


class TestNumericRT:
    def test_identity_medium(self):
        wave = vacuum_wave()
        profile = TemporalProfile.ramp(VACUUM, MediumState(1, 1), t0=0.0, tau=0.01)
        R, T = numeric_rt(profile, wave)
        assert R <= 1e-9
        assert T == pytest.approx(1.0, abs=1e-9)

    def test_eps_jump_matches_analytic(self):
        wave = vacuum_wave()
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=1e-3 * wave.period)
        R, T = numeric_rt(profile, wave)
        assert R == pytest.approx(0.125, abs=1e-2)
        assert T == pytest.approx(0.375, abs=1e-2)

    def test_multi_ramp_sequence_supported(self):
        wave = vacuum_wave()
        seq = TemporalProfile((VACUUM, DENSE, VACUUM), (0.0, 4.0), 0.05)
        R, T = numeric_rt(seq, wave)
        assert 0.0 < R < 1.0 and 0.0 < T < 2.0

    def test_step_profile_rejected(self):
        with pytest.raises(DomainError):
            numeric_rt(TemporalProfile.step(VACUUM, DENSE), vacuum_wave())

    def test_wrong_incident_medium_rejected(self):
        wave = PlaneWave(Y_HAT.astype(complex), 1.0, X_HAT, 0.5)
        profile = TemporalProfile.ramp(VACUUM, DENSE, tau=0.01)
        with pytest.raises(DomainError):
            numeric_rt(profile, wave)

    def test_non_transversal_wave_rejected_before_integrating(self):
        profile = Recorded(TemporalProfile.ramp(VACUUM, DENSE, tau=0.01))
        with pytest.raises(DomainError, match=r"^incident wave is not transversal \(A\.k != 0\)$"):
            numeric_rt(profile, PlaneWave(X_HAT.astype(complex), 1.0, X_HAT, 1.0))
        assert profile.instants == [-0.005]  # the first medium's lookup, and no integration step

    def test_negative_frequency_rejected(self):
        # A reversed wave would give R and T swapped: (0.375, 0.125).
        profile = TemporalProfile.ramp(VACUUM, DENSE, tau=0.01)
        with pytest.raises(DomainError, match="^incident frequency must be positive$"):
            numeric_rt(profile, vacuum_wave(omega=-1.0))

    @pytest.mark.parametrize("t0", [1e14, 1e15])
    def test_ramp_narrower_than_the_step_floor_raises(self, t0):
        # 0.05 periods is about 0.31 time units, under 1e-14 * t0; crossed unchanged, it would read as a step.
        wave = vacuum_wave()
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=t0, tau=0.05 * wave.period)
        with pytest.raises(StiffnessError, match=r"^varying interval from t=\S+ to t=\S+ is narrower than the step floor"):
            numeric_rt(profile, wave)

    @pytest.mark.parametrize(
        "profile, message",
        [
            (TemporalProfile.periodic(VACUUM, DENSE), "^numeric_rt needs a profile with finitely many transitions$"),
            (TemporalProfile.constant(VACUUM), "^profile has no transition; nothing to scatter off$"),
        ],
        ids=["periodic", "constant"],
    )
    def test_profile_without_finite_ramps_rejected(self, profile, message):
        with pytest.raises(DomainError, match=message):
            numeric_rt(profile, vacuum_wave())

    def test_one_integrate_call_and_no_plane_wave_route(self, monkeypatch):
        wave, calls = vacuum_wave(), []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return integrate(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle took the 3-D plane-wave route or a BLAS call")

        monkeypatch.setattr(oracle_module, "integrate", counting)
        for name in ("plane_wave_mode_state", "mode_decompose", "_norm", "PlaneWave"):
            monkeypatch.setattr(oracle_module, name, forbidden)
        monkeypatch.setattr(np, "vdot", forbidden)
        monkeypatch.setattr(np, "polyfit", forbidden)
        study = convergence_study(VACUUM, DENSE, wave, [0.5, 0.1, 0.02])
        assert len(calls) == 3 and math.isfinite(study.empirical_order)

    def test_last_medium_not_positive_index_rejected_after_integrating(self):
        profile = Recorded(DoubleNegative(TemporalProfile.ramp(VACUUM, DENSE, tau=0.01)))
        with pytest.raises(DomainError, match="^mode decomposition is defined for positive-index media$"):
            numeric_rt(profile, PlaneWave(Y_HAT.astype(complex), 1.0, X_HAT, -1.0))
        assert len(profile.instants) > 10  # the ramp was integrated first

    def test_negative_media_on_branch_one_give_moduli(self):
        # With epsilon and mu negated on the branch +1, B changes sign and D does not: the same R and T.
        # Divided by the signed epsilon, both once came out negative, (-0.125, -0.375) to rounding.
        profile = TemporalProfile.ramp(VACUUM, DENSE, tau=0.01)
        negated = DoubleNegative(profile, branch=1)
        assert_allclose(numeric_rt(negated, vacuum_wave()), numeric_rt(profile, vacuum_wave()), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "d1", [1.7e308 + 1.7e308j, 1.7e308], ids=["modulus-overflows", "part-overflows"]
    )
    def test_rt_past_the_float_range_raises(self, monkeypatch, d1):
        # In DENSE (v = 0.5) the final pair (d1, i b2) splits into forward 1.7e308 (1 + i), whose modulus
        # overflows, and backward 0 when b2 = d1 / 2; into a backward part 2.55e308 when b2 = -d1.
        b2 = d1 / 2 if isinstance(d1, complex) else -d1
        final = ModeState([0.0, d1, 0.0], [0.0, 0.0, b2], 0.0)
        monkeypatch.setattr(oracle_module, "integrate", lambda *args, **kwargs: final)
        with pytest.raises(DomainError, match=r"^R = \S+ and T = \S+ are not finite in medium "):
            numeric_rt(TemporalProfile.ramp(VACUUM, DENSE, tau=0.01), vacuum_wave())

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=st.data())
    def test_agrees_with_the_plane_wave_route(self, case):
        # The unit launch and the pair's split against the former 3-D route. Over 600 random ramps of
        # this kind the two differed by at most 3.2 eps max(1, R, T).
        draw = case.draw
        before, after = MediumState(*draw(POSITIVE)), MediumState(*draw(POSITIVE))
        k, pol = oblique_elliptic(draw)
        amplitude, omega = 10.0 ** draw(st.floats(-3.0, 3.0)) * pol, 10.0 ** draw(st.floats(-0.5, 0.5))
        wave = PlaneWave(amplitude, omega, k, before.wave_speed)
        tau = draw(st.sampled_from([0.1, 0.01, 0.001])) * wave.period
        profile = TemporalProfile.ramp(before, after, t0=draw(st.floats(-3.0, 3.0)), tau=tau)
        R, T = numeric_rt(profile, wave)
        R_ref, T_ref = ref_numeric_rt(profile, wave)
        assert max(abs(R - R_ref), abs(T - T_ref)) <= 8.0 * sys.float_info.epsilon * max(1.0, R, T)


class TestExtremeAmplitudes:
    """R and T are ratios: an incident amplitude whose squares leave the float range changes nothing."""

    # 1e-100 and 1e-150 once met integrate's absolute error budget: R was 3.7e-5 relative off.
    @pytest.mark.parametrize("scale", [1e-100, 1e-150, 1e-170, 1e-200, 1e-320, 1e200, 1e300, 1e308])
    def test_numeric_rt_matches_unit_amplitude(self, scale):
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.01 * vacuum_wave().period)
        unit = numeric_rt(profile, vacuum_wave())
        scaled = numeric_rt(profile, PlaneWave(scale * Y_HAT.astype(complex), 1.0, X_HAT, 1.0))
        assert_allclose(scaled, unit, rtol=1e-13, atol=0.0)

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(
        parts=st.lists(st.integers(-2**20, 2**20), min_size=4, max_size=4).filter(any),
        j=st.integers(-1000, 1000),
    )
    @example(parts=[3 * 2**18, 2**19, 0, -2**18], j=-1068)  # largest part 0.75 * 2**-1068, subnormal
    def test_numeric_rt_is_bit_identical_under_power_of_two_scaling(self, parts, j):
        # Parts of at most 21 significant bits stay exact when scaled by 2**j, down to the subnormals.
        y, z = np.ldexp(np.array(parts, dtype=float), -20).view(complex)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.01 * vacuum_wave().period)
        amplitude = np.array([0.0, y, z])
        unit = numeric_rt(profile, PlaneWave(amplitude, 1.0, X_HAT, 1.0))
        scaled = np.ldexp(amplitude.view(float), j).view(complex)
        assert np.array_equal(np.ldexp(scaled.view(float), -j), amplitude.view(float))
        assert numeric_rt(profile, PlaneWave(scaled, 1.0, X_HAT, 1.0)) == unit

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        a=st.complex_numbers(max_magnitude=1.0), b=st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
        log_scale=st.floats(-300.0, 307.5),
    )
    @example(a=0j, b=1 + 0j, log_scale=-320.0)  # subnormal, along z and so exactly transversal
    @example(a=0j, b=0.5 + 0j, log_scale=308.0)
    def test_bit_identical_across_polarizations_and_amplitudes(self, a, b, log_scale):
        # One 2x2 matrix carries every transverse state, so R and T are the media's alone. |b| >= 0.1 keeps the
        # amplitude normal, so rounding leaves it transversal.
        k, u, w = np.array([0.6, 0.8, 0.0]), np.array([-0.8, 0.6, 0.0]), np.array([0.0, 0.0, 1.0])
        profile = TemporalProfile.ramp(VACUUM, MediumState(2.5, 1.5), t0=0.2, tau=0.01 * 2.0 * math.pi / 1.3)
        unit = numeric_rt(profile, PlaneWave(w.astype(complex), 1.3, k, 1.0))
        scaled = numeric_rt(profile, PlaneWave(10.0**log_scale * (a * u + b * w), 1.3, k, 1.0))
        assert bits(scaled) == bits(unit)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_mode_decompose_scales_linearly(self, scale):
        wave = vacuum_wave()
        state = plane_wave_mode_state(wave, VACUUM, 0.7)
        amps = mode_decompose(ModeState(scale * state.D, scale * state.B, 0.7), VACUUM, phase_vector(wave))
        unit = mode_decompose(state, VACUUM, phase_vector(wave))
        assert amps.forward == pytest.approx(scale * unit.forward, rel=1e-14)
        assert abs(amps.backward) <= 1e-13 * scale
        assert_allclose(amps.polarization, unit.polarization, rtol=1e-15)


class TanhProfile:
    """1/epsilon(t) = a + b*tanh(rho*t) at mu = 1, held constant beyond |t| = 20/rho.

    Outside that span tanh is 1 to within 1e-17, so the clamp changes nothing
    the exact solution would notice.
    """

    def __init__(self, eps_before, eps_after, rho):
        self.a = 0.5 * (1.0 / eps_after + 1.0 / eps_before)
        self.b = 0.5 * (1.0 / eps_after - 1.0 / eps_before)
        self.rho, self.edge = rho, 20.0 / rho

    def sample(self, t):
        t = min(max(t, -self.edge), self.edge)
        return MediumState(1.0 / (self.a + self.b * math.tanh(self.rho * t)), 1.0)

    def switch_intervals(self):
        return [(-self.edge, self.edge)]


def tanh_rt(eps_before, eps_after, omega1, rho):
    """Exact (R, T) of the tanh profile (Birrell & Davies, Quantum Fields in Curved Space, sec. 3.4).

    The mode equation D'' + w(t)**2 D = 0 has w(t)**2 = k**2 / (mu eps(t)) = A + B tanh(rho t),
    whose Bogoliubov coefficients are known in closed form; R and T follow from
    |beta| and |alpha| by the E-field normalisation of numeric_rt.
    """
    w_in, w_out = omega1, omega1 * math.sqrt(eps_before / eps_after)
    beta2 = math.sinh(math.pi * (w_out - w_in) / (2.0 * rho)) ** 2 / (
        math.sinh(math.pi * w_in / rho) * math.sinh(math.pi * w_out / rho)
    )
    factor = math.sqrt(w_in / w_out) * eps_before / eps_after
    return math.sqrt(beta2) * factor, math.sqrt(1.0 + beta2) * factor


def tanh_errors(eps_before, eps_after, omega1, rho, tol):
    """Relative errors of numeric_rt's R and T against tanh_rt."""
    profile = TanhProfile(eps_before, eps_after, rho)
    wave = PlaneWave(Y_HAT.astype(complex), omega1, X_HAT, profile.sample(-profile.edge).wave_speed)
    R, T = numeric_rt(profile, wave, tol=tol)
    R_exact, T_exact = tanh_rt(eps_before, eps_after, omega1, rho)
    return abs(R - R_exact) / R_exact, abs(T - T_exact) / T_exact


class TestExactFiniteWidthReference:
    """numeric_rt through a smooth switch of finite width, against an exact solution (not the step limit)."""

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(contrast=st.floats(1.5, 4.0), rising=st.booleans(), omega1=st.floats(0.5, 2.0), log_rho=st.floats(0.0, 2.0))
    def test_matches_tanh_profile(self, contrast, rising, omega1, log_rho):
        eps_before, eps_after = (1.0, contrast) if rising else (contrast, 1.0)
        tol = 1e-8
        R_error, T_error = tanh_errors(eps_before, eps_after, omega1, 10.0**log_rho, tol)
        assert R_error <= 10.0 * tol and T_error <= 10.0 * tol

    def test_error_falls_with_tol(self):
        errors = [max(tanh_errors(1.0, 4.0, 1.0, 3.0, tol)) for tol in (1e-6, 1e-8, 1e-10)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-9


class TestConvergenceStudy:
    def test_errors_decrease(self):
        study = convergence_study(VACUUM, DENSE, vacuum_wave(), [0.5, 0.1, 0.02])
        for column in (study.R_errors, study.T_errors):
            assert all(b < a for a, b in zip(column, column[1:]))
        assert study.R_analytic == pytest.approx(0.125)
        assert math.isfinite(study.empirical_order)

    def test_rows_are_the_numeric_rt_pairs(self):
        wave = vacuum_wave()
        study = convergence_study(VACUUM, DENSE, wave, [0.5, 0.1, 0.02], t0=0.3)
        for tau, R_num, T_num, R_err, T_err in zip(
            study.taus, study.R_numeric, study.T_numeric, study.R_errors, study.T_errors
        ):
            profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.3, tau=tau * wave.period)
            assert (R_num, T_num) == numeric_rt(profile, wave)
            assert (R_err, T_err) == (abs(R_num - study.R_analytic), abs(T_num - study.T_analytic))

    def test_one_width_is_one_row_without_an_order(self):
        wave = vacuum_wave()
        study = convergence_study(VACUUM, DENSE, wave, [0.5])
        R_num, T_num = numeric_rt(TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.5 * wave.period), wave)
        assert (study.taus, study.R_numeric, study.T_numeric) == ((0.5,), (R_num,), (T_num,))
        assert study.R_errors == (abs(R_num - study.R_analytic),)
        assert math.isnan(study.empirical_order)

    def test_too_few_widths_rejected(self):
        with pytest.raises(DomainError):
            convergence_study(VACUUM, DENSE, vacuum_wave(), [])

    def test_non_decreasing_widths_rejected(self):
        with pytest.raises(DomainError):
            convergence_study(VACUUM, DENSE, vacuum_wave(), [0.5, 0.5, 0.1])

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        widest=st.floats(-1.0, 0.0), ratios=st.lists(st.floats(1.2, 5.0), min_size=1, max_size=4),
        order=st.floats(0.5, 3.0), data=st.data(),
    )
    def test_order_matches_polyfit(self, widest, ratios, order, data):
        # The closed-form slope against numpy's least squares, kept as an independent check. Scaled by the
        # conditioning K below, the two differed by at most 2.0 eps over 20,000 random fits of 2-5 points.
        taus = [10.0**widest]
        for ratio in ratios:
            taus.append(taus[-1] / ratio)
        R, T, _ = coefficients(VACUUM, DENSE)
        rows = iter([(R + 10.0 ** data.draw(st.floats(-2.0, 2.0)) * tau**order, T) for tau in taus])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle_module, "numeric_rt", lambda profile, incident, tol: next(rows))
            study = convergence_study(VACUUM, DENSE, vacuum_wave(), taus)
        x, y = np.log(study.taus), np.log(np.add(study.R_errors, study.T_errors))
        expected = float(np.polyfit(x, y, 1)[0])
        K = (np.abs(x).max() + np.abs(y).max() / max(1.0, abs(expected))) / x.std()
        assert abs(study.empirical_order - expected) <= 8.0 * sys.float_info.epsilon * max(1.0, abs(expected)) * K

    def test_identity_media_errors_at_tolerance_floor(self):
        study = convergence_study(VACUUM, MediumState(1, 1), vacuum_wave(), [0.5, 0.1, 0.02])
        assert all(err <= 1e-8 for err in study.R_errors)
        assert all(err <= 1e-8 for err in study.T_errors)


def oracle_amplitudes(initial, final, before, after, m):
    """Final (forward, backward) E-field scalars relative to the initial forward one.

    These are the units of cascade_scatter: D-scaled mode coefficients
    divided by the local epsilon, on the initial polarization.
    """
    first = mode_decompose(initial, before, m)
    last = mode_decompose(final, after, m)
    turn = np.vdot(first.polarization, last.polarization) / (first.forward / before.epsilon)
    return np.array([last.forward, last.backward]) * turn / after.epsilon


class TestSharpSwitches:
    # Vacuum and eps = 4 alternate every unit of time from t = 0 on.
    CRYSTAL = TemporalProfile.periodic(VACUUM, DENSE, period=2.0, duty=0.5)

    def crystal_timeline(self, periods, lead):
        timeline = [TimelineSegment(VACUUM, lead)]
        for _ in range(periods):
            timeline += [TimelineSegment(DENSE, 1.0), TimelineSegment(VACUUM, 1.0)]
        timeline[-1] = TimelineSegment(VACUUM, 1.0 - lead)
        return timeline

    def test_periodic_profile_matches_cascade(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, VACUUM, -0.5)
        final = integrate(self.CRYSTAL, m, initial, 5.5)
        cascade = cascade_scatter(self.crystal_timeline(3, 0.5), wave).amplitudes
        expected = np.array([cascade.forward, cascade.backward])
        got = oracle_amplitudes(initial, final, VACUUM, VACUUM, m)
        assert np.max(np.abs(got - expected)) <= 1e-9

    def test_one_cell_monodromy_has_floquet_eigenvalues(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        pol = Y_HAT.astype(complex)
        columns = []
        # One cell from just after a switch into vacuum: vacuum 1, then eps = 4 for 1.
        for amps in ((1.0, 0.0), (0.0, 1.0)):
            start = mode_reconstruct(ModeAmplitudes(*amps, pol), VACUUM, m, 1.0)
            end = mode_decompose(integrate(self.CRYSTAL, m, start, 3.0), VACUUM, m)
            turn = np.vdot(pol, end.polarization)
            columns.append([end.forward * turn, end.backward * turn])
        monodromy = np.array(columns).T
        cell = [TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 1.0)]
        expected = np.array(floquet_exponent(cell, wave.omega).eigenvalues)
        # The pair is complex conjugate: whichever of the two real parts rounds lower decides
        # np.sort_complex's order, so the eigenvalues are matched by their imaginary parts.
        by_imag = lambda values: sorted(values, key=lambda z: z.imag)
        assert_allclose(by_imag(np.linalg.eigvals(monodromy)), by_imag(expected), atol=1e-9)

    def test_step_profile_integrates_across_t0(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        profile = TemporalProfile.step(VACUUM, DENSE, t0=0.0)
        initial = plane_wave_mode_state(wave, VACUUM, -1.0)
        final = integrate(profile, m, initial, 1.0)
        timeline = [TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 1.0)]
        cascade = cascade_scatter(timeline, wave).amplitudes
        got = oracle_amplitudes(initial, final, VACUUM, DENSE, m)
        assert np.max(np.abs(got - [cascade.forward, cascade.backward])) <= 1e-9
        # Stopping on the instant itself leaves the state continuous.
        at_t0 = integrate(profile, m, initial, 0.0)
        assert np.max(np.abs(at_t0.D - plane_wave_mode_state(wave, VACUUM, 0.0).D)) <= 1e-12

    def test_backward_through_periodic_profile_returns_to_start(self):
        wave = vacuum_wave()
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, VACUUM, -0.5)
        there = integrate(self.CRYSTAL, m, initial, 5.5)
        back = integrate(self.CRYSTAL, m, there, -0.5)
        assert back.t == initial.t
        assert np.max(np.abs(back.D - initial.D)) <= 1e-12
        assert np.max(np.abs(back.B - initial.B)) <= 1e-12


    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(
        before=POSITIVE,
        after=POSITIVE,
        period=st.floats(0.5, 3.0),
        duty=st.floats(0.1, 0.9),
        periods=st.integers(1, 4),
        lead=st.floats(0.0, 2.0),
        trail=st.floats(0.0, 1.0),
        omega=st.floats(0.5, 2.0),
    )
    def test_random_periodic_profile_matches_cascade(self, before, after, period, duty, periods, lead, trail, omega):
        before, after = MediumState(*before), MediumState(*after)
        profile = TemporalProfile.periodic(before, after, t0=0.0, period=period, duty=duty)
        # Start ``lead`` before the first switch; stop ``trail`` (a fraction of the last
        # `before` stretch) into the last period, so the final medium is `before` again.
        rest = trail * (1.0 - duty) * period
        timeline = [TimelineSegment(before, lead)]
        for _ in range(periods):
            timeline += [TimelineSegment(after, duty * period), TimelineSegment(before, (1.0 - duty) * period)]
        timeline[-1] = TimelineSegment(before, rest)
        wave = PlaneWave(Y_HAT.astype(complex), omega, X_HAT, before.wave_speed)
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, before, -lead)
        final = integrate(profile, m, initial, (periods - 1 + duty) * period + rest)
        cascade = cascade_scatter(timeline, wave).amplitudes
        expected = np.array([cascade.forward, cascade.backward])
        got = oracle_amplitudes(initial, final, before, before, m)
        assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


LOG_PARAM = st.floats(-1.0, 1.0)  # log10 of |epsilon| and |mu|


def signed_medium(draw, negative):
    eps, mu = 10.0 ** draw(LOG_PARAM), 10.0 ** draw(LOG_PARAM)
    return MediumState(-eps, -mu, -1) if negative else MediumState(eps, mu)


def oblique_elliptic(draw):
    """A unit direction k and a unit elliptic polarization transverse to it."""
    direction = np.array([draw(UNIT), draw(UNIT), draw(UNIT)]) + [1.5, 0.0, 0.0]  # never zero
    k = direction / np.linalg.norm(direction)
    raw = np.array([complex(draw(UNIT), draw(UNIT)) for _ in range(3)]) + [0.0, 1.5, 1.5j]
    pol = raw - np.dot(raw, k) * k
    return k, pol / np.linalg.norm(pol)


@st.composite
def double_negative_timelines(draw):
    """Sharp timelines of 2-8 segments, positive at both ends; each inner one double-negative with probability 0.4."""
    n = draw(st.integers(2, 8))
    media = [signed_medium(draw, 0 < i < n - 1 and draw(st.floats(0.0, 1.0)) < 0.4) for i in range(n)]
    timeline = [TimelineSegment(medium, draw(st.floats(0.05, 2.0))) for medium in media]
    k, pol = oblique_elliptic(draw)
    wave = PlaneWave(pol, 10.0 ** draw(st.floats(-0.5, 0.5)), k, media[0].wave_speed)
    return timeline, wave


@st.composite
def double_negative_cells(draw):
    """A two-segment cell, positive then double-negative, and an oblique elliptic wave in its first medium."""
    before, after = signed_medium(draw, False), signed_medium(draw, True)
    cell = [TimelineSegment(before, draw(st.floats(0.05, 2.0))), TimelineSegment(after, draw(st.floats(0.05, 2.0)))]
    k, pol = oblique_elliptic(draw)
    return cell, PlaneWave(pol, 10.0 ** draw(st.floats(-0.5, 0.5)), k, before.wave_speed)


class TestDoubleNegativeSharpSwitches:
    """The oracle against the branch = -1 interface algebra: exact pieces through double-negative media."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(case=double_negative_timelines())
    def test_timeline_matches_cascade(self, case):
        # Over 2,000 draws of these timelines the worst relative difference was 3.4e-14 with the
        # six-component integrator and 3.6e-14 with the 2x2 fundamental matrix.
        timeline, wave = case
        media = [segment.medium for segment in timeline]
        switches = np.cumsum([segment.duration for segment in timeline[:-1]]).tolist()
        profile = TemporalProfile(tuple(media), tuple(switches))
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, media[0], 0.0)
        final = integrate(profile, m, initial, switches[-1] + timeline[-1].duration)
        cascade = cascade_scatter(timeline, wave).amplitudes
        expected = np.array([cascade.forward, cascade.backward])
        got = oracle_amplitudes(initial, final, media[0], media[-1], m)
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(case=double_negative_cells())
    def test_one_cell_monodromy_has_floquet_eigenvalues(self, case):
        # Over 2,000 draws of these cells the worst relative residual was 3.4e-14, with either integrator.
        cell, wave = case
        (before, dwell), (after, negative_dwell) = ((s.medium, s.duration) for s in cell)
        period = dwell + negative_dwell
        # From t = 0 the profile is `after` for the first negative_dwell of each period, then `before`.
        profile = TemporalProfile.periodic(before, after, period=period, duty=negative_dwell / period)
        m = phase_vector(wave)
        pol = wave.amplitude / np.linalg.norm(wave.amplitude)
        columns = []
        for amps in ((1.0, 0.0), (0.0, 1.0)):
            start = mode_reconstruct(ModeAmplitudes(*amps, pol), before, m, negative_dwell)
            end = mode_decompose(integrate(profile, m, start, negative_dwell + period), before, m)
            turn = np.vdot(pol, end.polarization)
            columns.append([end.forward * turn, end.backward * turn])
        monodromy = np.array(columns).T
        trace, det = np.trace(monodromy), np.linalg.det(monodromy)
        # Each eigenvalue is a root of the monodromy's characteristic polynomial. This form stays well
        # conditioned at a band edge, where the two eigenvalues meet: there eigvals' own error reached
        # 7.4e-13 in the calibration while the residual stayed below 3.5e-14.
        eigenvalues = floquet_exponent(cell, wave.omega).eigenvalues
        scale = max(1.0, *map(abs, eigenvalues)) ** 2
        assert max(abs(lam * lam - trace * lam + det) for lam in eigenvalues) <= 1e-12 * scale


class TestExactPropagation:
    class SampleOnly:
        """Hides switch_intervals, so integrate runs Dormand-Prince everywhere."""

        def __init__(self, profile):
            self.sample = profile.sample

    @pytest.mark.parametrize(
        "profile",
        [TemporalProfile.constant(DENSE), TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.5)],
        ids=["constant", "ramp"],
    )
    def test_agrees_with_dormand_prince_everywhere(self, profile):
        start = profile.sample(-4.0)
        wave = PlaneWave(Y_HAT.astype(complex), start.wave_speed, X_HAT, start.wave_speed)
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, start, -4.0)
        exact = integrate(profile, m, initial, 6.0)
        stepped = integrate(self.SampleOnly(profile), m, initial, 6.0)
        # tol bounds the local error per unit time, scaled by |state| (here 4).
        bound = TOL * 10.0 * 4.0
        assert np.max(np.abs(exact.D - stepped.D)) <= bound
        assert np.max(np.abs(exact.B - stepped.B)) <= bound

    class Declared:
        """A profile's sample with the switch intervals it is given."""

        def __init__(self, profile, intervals):
            self.sample, self.intervals = profile.sample, intervals

        def switch_intervals(self):
            return self.intervals

    @pytest.mark.parametrize(
        "intervals", [[(-1.0, 0.5), (0.0, 1.0)], [(-1.0, 1.0), (-0.5, 0.5)]], ids=["overlapping", "nested"]
    )
    def test_overlapping_intervals_merge_into_one(self, intervals):
        # The varying pieces merge into the one declared interval, so Dormand-Prince takes the same steps.
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=2.0)
        wave = vacuum_wave()
        m = phase_vector(wave)
        initial = plane_wave_mode_state(wave, VACUUM, -2.0)
        expected = integrate(self.Declared(profile, [(-1.0, 1.0)]), m, initial, 2.5)
        got = integrate(self.Declared(profile, intervals), m, initial, 2.5)
        assert (got.D.tolist(), got.B.tolist()) == (expected.D.tolist(), expected.B.tolist())


# --- Reference: the 2x2 Dormand-Prince step over four real entries, one loop pass per stage. ---
# oracle._dormand_prince writes the same arithmetic out by hand on Phi's four entries as floats.
# It must take exactly these steps, reproduce these values and sample at these instants, once at
# the repeated node c6 = c7 = 1.

REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
REF_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
ROWS = ((0, 1), (2, 3))  # the entries (p, q) and (r, s) of Phi = [[p, q], [r, s]]


def weighted(weights, values):
    """sum_j w_j * values[j] over the nonzero weights, added left to right."""
    terms = [w * x for w, x in zip(weights, values) if w != 0.0]
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def ref_slopes(medium, mag, phi):
    """A phi for A = [[0, -a], [b, 0]], a = |m|/mu, b = |m|/eps, on phi = [p, q, r, s] = [[p, q], [r, s]]."""
    p, q, r, s = phi
    a, b = mag / medium.mu, mag / medium.epsilon
    return [-a * r, -a * s, b * p, b * q]


def ref_fundamental(sample, mag, t, t_end, tol):
    direction = 1.0 if t_end > t else -1.0
    medium = sample(t)
    h = min(abs(t_end - t), 0.1 / (mag * abs(medium.wave_speed)))
    smallest = h
    phi = [1.0, 0.0, 0.0, 1.0]
    k1 = ref_slopes(medium, mag, phi)
    while True:
        remaining = abs(t_end - t)
        if remaining <= 1e-14 * max(1.0, abs(t_end)):
            return phi
        h_abs = min(h, remaining)
        if h_abs < 1e-14 * max(abs(t), 1.0):
            raise StiffnessError(f"step size underflow at t={t} (smallest step {smallest:.3e})")
        smallest = min(smallest, h_abs)
        hs = direction * h_abs
        K = [k1]
        for i in range(1, 7):
            stage = [x + hs * weighted(REF_A[i], [k[j] for k in K]) for j, x in enumerate(phi)]
            K.append(ref_slopes(sample(t + REF_C[i] * hs), mag, stage))
        # The error and the scale are the larger modulus of Phi's two rows, each taken as a complex number.
        err = h_abs * max(abs(complex(*(weighted(REF_ERR, [k[j] for k in K]) for j in row))) for row in ROWS)
        budget = tol * h_abs * max(1.0, *(abs(complex(*(x[j] for j in row))) for x in (phi, stage) for row in ROWS))
        if err <= budget:
            t, phi, k1 = t + hs, stage, K[6]
        factor = 0.9 * (budget / err) ** 0.2 if err > 0.0 else 5.0
        h = h_abs * min(5.0, max(0.2, factor))


def ref_apply(phi, m_hat, D, B):
    """phi on the transverse pair (D_T, G = -i m^ x B), which obeys the same 2x2 system; parts along m^ stay."""
    p, q, r, s = phi
    D_par, B_par = np.dot(m_hat, D) * m_hat, np.dot(m_hat, B) * m_hat
    D_T, G = D - D_par, -1j * np.cross(m_hat, B)
    D_T, G = p * D_T + q * G, r * D_T + s * G
    return D_T + D_par, -1j * np.cross(m_hat, G) + B_par


def ref_integrate(profile, m, initial, t_end, tol):
    """integrate, with each piece's matrix applied in the basis-free vector form of ref_apply."""
    mag = float(np.linalg.norm(m))
    t = initial.t
    pieces = oracle_module._pieces(profile, min(t, t_end), max(t, t_end))
    if t_end < t:
        pieces = [(b, a, varying) for a, b, varying in reversed(pieces)]
    D, B = initial.D, initial.B
    for start, end, varying in pieces:
        if varying:
            phi = ref_fundamental(profile.sample, mag, start, end, tol)
        else:
            medium, h = profile.sample(0.5 * (start + end)), end - start
            a, b, w = mag / medium.mu, mag / medium.epsilon, mag * abs(medium.wave_speed)
            phi = (math.cos(w * h), -a / w * math.sin(w * h), b / w * math.sin(w * h), math.cos(w * h))
        D, B = ref_apply(phi, m / mag, D, B)
    return ModeState(D, B, t_end)


class Recorded:
    """A profile that records the instants it is sampled at.

    ``sample_only`` hides everything but ``sample``, so the integrator runs
    Dormand-Prince over the whole span.
    """

    def __init__(self, profile, sample_only=False):
        self.profile, self.sample_only, self.instants = profile, sample_only, []

    def sample(self, t):
        self.instants.append(t)
        return self.profile.sample(t)

    def __getattr__(self, name):
        if name == "profile" or self.sample_only:
            raise AttributeError(name)
        return getattr(self.profile, name)


class RecordedByPiece(Recorded):
    """Recorded, with the instants of each lookup of ``sample`` in a list of their own.

    The integrators look ``sample`` up once per piece, so ``pieces`` holds one
    list per piece: an exact piece's one instant, or a Dormand-Prince piece's
    first instant followed by six per attempted step.
    """

    def __init__(self, profile, sample_only=False):
        super().__init__(profile, sample_only)
        self.pieces = []

    @property
    def sample(self):
        self.pieces.append([])
        record, sample = self.pieces[-1].append, super().sample

        def recording(t):
            record(t)
            return sample(t)

        return recording


def repeated_node_listed_once(piece):
    """A reference piece's instants with each step's second c = 1 instant (stages 5 and 6) listed once."""
    first, stages = piece[0], piece[1:]
    assert len(stages) % 6 == 0
    instants = [first]
    for j in range(0, len(stages), 6):
        assert stages[j + 4] == stages[j + 5]
        instants += stages[j : j + 5]
    return instants


@st.composite
def integration_cases(draw):
    """A profile, a mode, a time span and integrator settings."""
    kind = draw(st.sampled_from(["ramp", "sequence", "periodic", "sample-only"]))
    first = MediumState(*draw(POSITIVE))
    contrast = st.floats(0.1, 10.0)
    if kind == "sequence":
        stages = [first] + [
            MediumState(first.epsilon * draw(contrast), first.mu * draw(contrast))
            for _ in range(draw(st.integers(1, 3)))
        ]
        tau = draw(st.floats(1e-3, 1.0))
        # Gaps of at least 1.001 tau: at 1.0 tau the cumulative sum can round a gap below tau.
        centers = np.cumsum([tau * draw(st.floats(1.001, 3.0)) for _ in stages[1:]])
        profile = TemporalProfile(tuple(stages), tuple(float(c) for c in centers), tau)
        span = (-1.0, float(centers[-1]) + 1.0)
    else:
        after = MediumState(first.epsilon * draw(contrast), first.mu * draw(contrast))
        if kind == "periodic":
            profile = TemporalProfile.periodic(first, after, period=draw(st.floats(0.5, 3.0)), duty=draw(st.floats(0.1, 0.9)))
            span = (-draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 8.0)))
        else:
            profile = TemporalProfile.ramp(first, after, t0=0.0, tau=draw(st.floats(1e-3, 1.0)))
            span = (-0.5 * profile.tau - draw(st.floats(0.0, 1.0)), 0.5 * profile.tau + draw(st.floats(0.0, 1.0)))
    direction = np.array([draw(UNIT), draw(UNIT), draw(UNIT)]) + [1.5, 0.0, 0.0]  # never zero
    m = draw(st.floats(0.5, 2.0)) * direction / np.linalg.norm(direction)
    # D and B transverse to m, with random complex components (elliptic polarisation).
    transverse = lambda v: v - np.dot(v, m) * m / np.dot(m, m)
    D, B = (transverse(np.array([complex(draw(UNIT), draw(UNIT)) for _ in range(3)])) for _ in "DB")
    t_start, t_end = span if draw(st.booleans()) else span[::-1]
    tol = 10.0 ** draw(st.floats(-10.0, -6.0))
    return kind, profile, m, ModeState(D, B, t_start), t_end, tol


def bits(values):
    """Each float's exact bits, so -0.0 and 0.0 differ."""
    return [x.hex() for x in values]


def varying_pieces(profile, initial, t_end):
    lo, hi = min(initial.t, t_end), max(initial.t, t_end)
    pieces = [(a, b) for a, b, varying in oracle_module._pieces(profile, lo, hi) if varying]
    return pieces if t_end > initial.t else [(b, a) for a, b in reversed(pieces)]


class TestFundamentalMatrix:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=integration_cases())
    def test_same_steps_and_bits_as_transcription(self, case):
        kind, profile, m, initial, t_end, tol = case
        sample_only = kind == "sample-only"
        mag = oracle_module._modulus(m)[1]
        for start, end in varying_pieces(profile, initial, t_end):
            ref_profile, new_profile = RecordedByPiece(profile, sample_only), Recorded(profile, sample_only)
            expected = ref_fundamental(ref_profile.sample, mag, start, end, tol)
            got = oracle_module._dormand_prince(new_profile.sample, mag, start, end, tol)
            assert bits(got) == bits(expected)
            # The same instants, except that stage 7 reuses stage 6's medium: one sample fewer per attempted step.
            (piece,) = ref_profile.pieces
            assert new_profile.instants == repeated_node_listed_once(piece)

    def test_row_modulus_is_libm_hypot(self):
        # abs(complex(p, q)) is the C library's hypot; math.hypot can differ from it in the last bit, and here
        # that changes the steps: with it this ramp gives p = 0.9421614745686041.
        before = MediumState(0.6974823056175358, 0.7865559181741838)
        after = MediumState(1.7327578303230207, 0.9825112556053248)
        profile = TemporalProfile.ramp(before, after, t0=-0.5384265337152936, tau=0.6571026981975543)
        args = (0.48004828579972236, -0.8669778828140707, -0.20987518461651644, 3.733847359191366e-11)
        got = oracle_module._dormand_prince(profile.sample, *args)
        assert got[0] == 0.9421614745686042
        assert bits(got) == bits(ref_fundamental(profile.sample, *args))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=integration_cases())
    def test_same_instants_and_state_as_vector_form(self, case):
        # The vector form applies each piece's matrix to (D_T, -i m^ x B) instead of to basis coordinates,
        # so the two states agree to rounding: at most 3.7e-15 relative to the state's size over 500 cases.
        kind, profile, m, initial, t_end, tol = case
        sample_only = kind == "sample-only"
        ref_profile, new_profile = RecordedByPiece(profile, sample_only), Recorded(profile, sample_only)
        expected = ref_integrate(ref_profile, m, initial, t_end, tol)
        got = integrate(new_profile, m, initial, t_end, tol=tol)
        assert got.t == expected.t
        scale = max(np.max(np.abs(expected.D)), np.max(np.abs(expected.B)))
        assert np.max(np.abs(got.D - expected.D)) <= 1e-13 * scale
        assert np.max(np.abs(got.B - expected.B)) <= 1e-13 * scale
        assert new_profile.instants == [t for piece in ref_profile.pieces for t in repeated_node_listed_once(piece)]

    @pytest.mark.parametrize("sample_only", [False, True], ids=["ramp", "sample-only"])
    def test_same_underflow_message(self, sample_only):
        # At t ~ 1e12 the step floor 1e-14 * |t| = 0.01 is too coarse for a ramp of width 0.3.
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=1e12, tau=0.3)
        m = phase_vector(vacuum_wave())
        initial = plane_wave_mode_state(vacuum_wave(), VACUUM, 1e12 - 1.0)
        with pytest.raises(StiffnessError) as expected:
            ref_integrate(Recorded(profile, sample_only), m, initial, 1e12 + 1.0, TOL)
        with pytest.raises(StiffnessError, match="step size underflow at t=99999999999") as got:
            integrate(Recorded(profile, sample_only), m, initial, 1e12 + 1.0)
        assert str(got.value) == str(expected.value)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=integration_cases())
    def test_unit_determinant(self, case):
        # tr A = 0, so det Phi = 1 (Liouville's formula) through every ramp: the momentum law for every
        # state of this |m| at once. Over 500 cases |det Phi - 1| stayed below 0.016 of the bound's scale,
        # tol * max(1, span) * max(1, largest entry)**2.
        kind, profile, m, initial, t_end, tol = case
        mag = oracle_module._modulus(m)[1]
        for start, end in varying_pieces(profile, initial, t_end):
            p, q, r, s = oracle_module._dormand_prince(profile.sample, mag, start, end, tol)
            scale = tol * max(1.0, abs(end - start)) * max(1.0, p * p, q * q, r * r, s * s)
            assert abs(p * s - q * r - 1.0) <= 0.1 * scale

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=integration_cases(), along=st.tuples(UNIT, UNIT, UNIT, UNIT))
    def test_parts_along_m_pass_through(self, case, along):
        # m x v has no part along m, so D.m^ and B.m^ are constants of the mode ODE. Over 500 cases
        # they moved by at most 3.7e-16 of the state's size.
        kind, profile, m, initial, t_end, tol = case
        m_hat = m / np.linalg.norm(m)
        D = initial.D + complex(*along[:2]) * m_hat
        B = initial.B + complex(*along[2:]) * m_hat
        final = integrate(profile, m, ModeState(D, B, initial.t), t_end, tol=tol)
        scale = max(1.0, np.max(np.abs(final.D)), np.max(np.abs(final.B)))
        assert abs(np.dot(m_hat, final.D) - np.dot(m_hat, D)) <= 1e-14 * scale
        assert abs(np.dot(m_hat, final.B) - np.dot(m_hat, B)) <= 1e-14 * scale
