"""Mode-ODE integration oracle: eigenmodes, conservation, convergence."""

import math
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
    cascade_scatter,
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
        # A finite launch near the float maximum: the first Dormand-Prince step leaves the float range.
        wave = PlaneWave(1e308 * Y_HAT.astype(complex), 1.0, X_HAT, 1.0)
        profile = TemporalProfile.ramp(VACUUM, DENSE, t0=0.0, tau=0.05)
        initial = plane_wave_mode_state(wave, VACUUM, -1.0)
        with pytest.raises(DomainError, match=r"mode state is not finite in the step from t=-0\.025 to t=0\.025"):
            integrate(profile, phase_vector(wave), initial, 1.0)

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
        expected = np.sort_complex(np.array(floquet_exponent(cell, wave.omega).eigenvalues))
        assert_allclose(np.sort_complex(np.linalg.eigvals(monodromy)), expected, atol=1e-9)

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


# --- Reference integrator: the array form of the mode ODE, one numpy call per operation. ---
# The scalar-stage integrator in timescatter.oracle must take exactly its steps and
# reproduce its bits.

REF_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
REF_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
REF_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def ref_rhs(y, cross, medium):
    out = np.empty(6, dtype=np.complex128)
    out[:3] = (1j / medium.mu) * (cross @ y[3:])
    out[3:] = (-1j / medium.epsilon) * (cross @ y[:3])
    return out


def ref_propagate_exact(y, cross, mag, medium, h):
    w = mag * abs(medium.wave_speed)
    if w == 0.0:
        return y
    Ay = ref_rhs(y, cross, medium)
    half = math.sin(0.5 * w * h) / w
    return y + (math.sin(w * h) / w) * Ay + (2.0 * half * half) * ref_rhs(Ay, cross, medium)


def ref_dormand_prince(sample, cross, mag, y, t, t_end, tol):
    direction = 1.0 if t_end > t else -1.0
    span = abs(t_end - t)
    medium = sample(t)
    omega0 = mag * abs(medium.wave_speed)
    h = min(span, 0.1 / omega0 if omega0 > 0 else span)
    smallest = h
    k1 = ref_rhs(y, cross, medium)
    K = np.empty((7, 6), dtype=np.complex128)
    while True:
        remaining = abs(t_end - t)
        if remaining <= 1e-14 * max(1.0, abs(t_end)):
            return y
        h_abs = min(h, remaining)
        if h_abs < 1e-14 * max(abs(t), 1.0):
            raise StiffnessError(f"step size underflow at t={t} (smallest step {smallest:.3e})")
        smallest = min(smallest, h_abs)
        hs = direction * h_abs
        K[0] = k1
        for i in range(1, 7):
            yi = y + hs * (REF_A[i] @ K[:i])
            K[i] = ref_rhs(yi, cross, sample(t + REF_C[i] * hs))
        y_new = yi
        err = float(np.max(np.abs(hs * (REF_ERR @ K))))
        scale = max(1.0, float(np.max(np.abs(y))), float(np.max(np.abs(y_new))))
        budget = tol * h_abs * scale
        if err <= budget:
            t = t + hs
            y = y_new
            k1 = K[6].copy()
        factor = 0.9 * (budget / err) ** 0.2 if err > 0.0 else 5.0
        h = h_abs * min(5.0, max(0.2, factor))


def ref_integrate(profile, m, initial, t_end, tol):
    mx, my, mz = m
    cross = np.array([[0.0, -mz, my], [mz, 0.0, -mx], [-my, mx, 0.0]])
    mag = float(np.linalg.norm(m))
    t = initial.t
    pieces = oracle_module._pieces(profile, min(t, t_end), max(t, t_end))
    if t_end < t:
        pieces = [(b, a, varying) for a, b, varying in reversed(pieces)]
    y = np.concatenate([initial.D, initial.B])
    for start, end, varying in pieces:
        if varying:
            y = ref_dormand_prince(profile.sample, cross, mag, y, start, end, tol)
        else:
            y = ref_propagate_exact(y, cross, mag, profile.sample(0.5 * (start + end)), end - start)
    return ModeState(y[:3], y[3:], t_end)


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
        centers = np.cumsum([tau * draw(st.floats(1.0, 3.0)) for _ in stages[1:]])
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


class TestScalarStagesBitIdentical:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=integration_cases())
    def test_same_steps_and_bits_as_array_form(self, case):
        kind, profile, m, initial, t_end, tol = case
        sample_only = kind == "sample-only"
        ref_profile, new_profile = Recorded(profile, sample_only), Recorded(profile, sample_only)
        expected = ref_integrate(ref_profile, m, initial, t_end, tol)
        got = integrate(new_profile, m, initial, t_end, tol=tol)
        assert np.array_equal(got.D, expected.D) and np.array_equal(got.B, expected.B)
        assert got.t == expected.t
        assert new_profile.instants == ref_profile.instants

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


# Parts over the range that keeps every product finite: zeros of both signs, subnormals and 1e150.
STATE_PART = st.floats(min_value=-1e150, max_value=1e150)
M_PART = st.floats(min_value=-1e3, max_value=1e3)
SCALE = st.floats(1e-3, 1e3)
SIGNED_MEDIA = st.builds(
    lambda eps, mu, negative: MediumState(-eps, -mu, -1) if negative else MediumState(eps, mu),
    SCALE, SCALE, st.booleans(),
)


class TestScalarRhsBitIdentical:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        m=st.tuples(M_PART, M_PART, M_PART),
        y=st.lists(st.builds(complex, STATE_PART, STATE_PART), min_size=6, max_size=6),
        medium=SIGNED_MEDIA,
    )
    @example(m=(0.0, 0.0, -0.0), y=[0j, 0j, 0j, 0j, complex(-0.0, 0.0), 0j], medium=VACUUM)
    @example(
        m=(5e-324, -1e3, 0.5),
        y=[complex(1e150, -5e-324), -0j, 1e-300j, -1e150, complex(-0.0, -0.0), 2.5],
        medium=MediumState(-1e-3, -1e3, -1),
    )
    def test_same_bits_as_array_form(self, m, y, medium):
        rows = oracle_module._cross_rows(np.array(m))
        got = np.array(oracle_module._rhs(y, rows, medium))
        expected = ref_rhs(np.array(y), np.array(rows), medium)
        # numpy's row sums start from +0, so an exact zero may differ in sign, and only in sign:
        # adding +0.0 maps -0.0 to +0.0 and leaves every other value's bits as they are.
        assert (got + 0.0).view(np.int64).tolist() == (expected + 0.0).view(np.int64).tolist()
