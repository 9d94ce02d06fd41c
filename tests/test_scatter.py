"""Single-interface solver: frequencies, wave vectors, amplitudes, coefficients."""

import cmath
import dataclasses
import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_max_ulp

from timescatter import (
    DEFAULT_CONVENTION,
    ConsistencyError,
    DegenerateCaseError,
    DomainError,
    FrequencyConvention,
    MediumState,
    NoSolutionError,
    PlaneWave,
    TemporalProfile,
    TimescatterError,
    amplitudes,
    boundary_residual,
    coefficients,
    degenerate_amplitude,
    evaluate_E,
    frequencies,
    magnetic_from_electric,
    phase_vector,
    scatter_interface,
    scatter_kernel,
    swapped_coefficients,
    transversality_residual,
    wave_vectors,
)
from timescatter.errors import reject
from timescatter.scatter import _interface, scatter_grid

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])

VACUUM = MediumState(1, 1)
DENSE_EPS = MediumState(4, 1)
DENSE_MU = MediumState(1, 4)


def incident_wave(amplitude=None, omega=1.0, k=X_HAT, medium=VACUUM):
    amp = Y_HAT.astype(complex) if amplitude is None else np.asarray(amplitude, complex)
    return PlaneWave(amp, omega, k, medium.wave_speed)


def random_media_pair(rng):
    draw = lambda: 10.0 ** rng.uniform(-1, 1)
    return MediumState(draw(), draw()), MediumState(draw(), draw())


class TestFrequencies:
    def test_slowdown_halves_frequency(self):
        assert frequencies(1.0, 1.0, 0.5) == (-0.5, 0.5)

    def test_identical_media(self):
        assert frequencies(1.0, 1.0, 1.0) == (-1.0, 1.0)

    def test_speedup(self):
        assert frequencies(2.0, 0.5, 1.0) == (-4.0, 4.0)

    def test_backward_convention(self):
        conv = FrequencyConvention(transmitted="backward")
        assert frequencies(1.0, 1.0, 0.5, conv) == (0.5, -0.5)

    def test_positive_reflected_convention(self):
        conv = FrequencyConvention(reflected="positive")
        assert frequencies(1.0, 1.0, 0.5, conv) == (0.5, 0.5)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            frequencies(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            frequencies(1.0, 0.0, 0.5)

    def test_no_total_internal_reflection(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            before, after = random_media_pair(rng)
            omega2, omega3 = frequencies(1.0, before.wave_speed, after.wave_speed)
            assert math.isfinite(omega2) and math.isfinite(omega3)
            assert omega3 > 0.0


class TestWaveVectors:
    def test_default_branch(self):
        k_r, k_t = wave_vectors(X_HAT, 1.0, -0.5, 0.5, 1.0, 0.5)
        assert_allclose(k_t, X_HAT)
        assert_allclose(k_r, -X_HAT)

    def test_flipped_branch(self):
        k_r, k_t = wave_vectors(X_HAT, 1.0, 0.5, -0.5, 1.0, 0.5)
        assert_allclose(k_t, -X_HAT)
        assert_allclose(k_r, X_HAT)

    def test_negative_index_transmission(self):
        k_r, k_t = wave_vectors(X_HAT, 1.0, -0.5, 0.5, 1.0, -0.5)
        assert_allclose(k_t, -X_HAT)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ConsistencyError):
            wave_vectors(X_HAT, 1.0, -0.7, 0.7, 1.0, 0.5)


class TestAmplitudes:
    def test_worked_example(self):
        B_i = Y_HAT.astype(complex)
        B_r, B_t = amplitudes(B_i, 1.0, -0.5, 0.5, 1.0, 4.0)
        assert_allclose(B_r, -0.125 * B_i, rtol=1e-15)
        assert_allclose(B_t, 0.375 * B_i, rtol=1e-15)

    def test_identical_media_identity(self):
        B_i = Y_HAT.astype(complex)
        B_r, B_t = amplitudes(B_i, 1.0, -1.0, 1.0, 1.0, 1.0)
        assert_allclose(B_r, np.zeros(3), atol=1e-15)
        assert_allclose(B_t, B_i, rtol=1e-15)

    def test_mu_only_jump(self):
        B_i = Y_HAT.astype(complex)
        B_r, B_t = amplitudes(B_i, 1.0, -0.5, 0.5, 1.0, 1.0)
        assert_allclose(B_r, 0.25 * B_i, rtol=1e-15)
        assert_allclose(B_t, 0.75 * B_i, rtol=1e-15)

    def test_degenerate_frequencies_rejected(self):
        with pytest.raises(DegenerateCaseError):
            amplitudes(Y_HAT.astype(complex), 1.0, 0.5, 0.5, 1.0, 4.0)

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_extreme_incident_amplitude(self, size):
        # A tiny B_i is not zero, though the squares in its norm underflow.
        B_r, B_t = amplitudes([size, 0.0, 0.0], 1.0, -0.5, 0.5, 1.0, 4.0)
        assert B_r.tolist() == [-0.125 * size, 0.0, 0.0] and B_t.tolist() == [0.375 * size, 0.0, 0.0]

    def test_overflowing_amplitudes_raise_without_a_numpy_warning(self):
        # r = 4 and t = 6 times B_i = 1e308 leave the float range.
        with pytest.raises(DomainError, match="^amplitude must be finite$"):
            amplitudes([0, 1e308, 0], 1, -2, 2, 1, 0.1)

    def test_zero_incident_amplitude_rejected(self):
        with pytest.raises(DomainError, match="B_i must be nonzero"):
            amplitudes(np.zeros(3), 1.0, -0.5, 0.5, 1.0, 4.0)

    @pytest.mark.parametrize("omega1", [0.0, -1.0, math.inf, math.nan])
    def test_omega1_checked_as_frequencies_checks_it(self, omega1):
        # omega1 = 0 used to divide by zero in the factors.
        with pytest.raises(DomainError, match=r"^omega1 must be positive, got "):
            amplitudes(Y_HAT.astype(complex), omega1, -0.5, 0.5, 1.0, 4.0)

    def test_amplitude_sum_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            before, after = random_media_pair(rng)
            omega1 = 10.0 ** rng.uniform(-1, 1)
            omega2, omega3 = frequencies(omega1, before.wave_speed, after.wave_speed)
            B_i = rng.normal(size=3) + 1j * rng.normal(size=3)
            B_r, B_t = amplitudes(B_i, omega1, omega2, omega3, before.epsilon, after.epsilon)
            expected = (before.epsilon / after.epsilon) * B_i
            assert_allclose(B_r + B_t, expected, rtol=1e-12)

    def test_outputs_parallel_to_input(self):
        # No component along k_i is ever added to the scattered amplitudes.
        rng = np.random.default_rng(12)
        B_i = rng.normal(size=3) + 1j * rng.normal(size=3)
        B_r, B_t = amplitudes(B_i, 1.0, -0.5, 0.5, 1.0, 4.0)
        assert_allclose(np.cross(B_r, B_i), np.zeros(3), atol=1e-14)
        assert_allclose(np.cross(B_t, B_i), np.zeros(3), atol=1e-14)

    @hyp.settings(max_examples=50, deadline=None)
    @hyp.given(
        scale_re=st.floats(min_value=-5, max_value=5),
        scale_im=st.floats(min_value=-5, max_value=5),
    )
    def test_scale_invariance(self, scale_re, scale_im):
        scale = complex(scale_re, scale_im)
        hyp.assume(abs(scale) > 1e-6)
        B_i = Y_HAT.astype(complex)
        B_r, B_t = amplitudes(B_i, 1.0, -0.5, 0.5, 1.0, 4.0)
        B_r2, B_t2 = amplitudes(scale * B_i, 1.0, -0.5, 0.5, 1.0, 4.0)
        assert_allclose(B_r2, scale * B_r, rtol=1e-12)
        assert_allclose(B_t2, scale * B_t, rtol=1e-12)


class TestDegenerateAmplitude:
    def test_compatible_case(self):
        B_i = Y_HAT.astype(complex)
        combined = degenerate_amplitude(B_i, 1.0, 2.0, 2.0, 1.0)
        assert_allclose(combined, 2.0 * B_i, rtol=1e-15)

    def test_incompatible_case(self):
        with pytest.raises(NoSolutionError):
            degenerate_amplitude(Y_HAT.astype(complex), 1.0, 2.0, 1.0, 1.0)

    def test_identity_medium(self):
        B_i = np.array([0.3 + 0.4j, 1.0, -0.2j])
        assert_allclose(degenerate_amplitude(B_i, 1.0, 1.0, 1.0, 1.0), B_i)

    def test_overflowing_amplitude_raises_without_a_numpy_warning(self):
        with pytest.raises(DomainError, match="^amplitude must be finite$"):
            degenerate_amplitude([0, 1e308, 0], 1.0, 2.0, 2.0, 1.0)


class TestCoefficients:
    def test_eps_jump(self):
        R, T, total = coefficients(VACUUM, DENSE_EPS)
        assert R == pytest.approx(0.125, abs=1e-15)
        assert T == pytest.approx(0.375, abs=1e-15)
        assert total == pytest.approx(0.5, abs=1e-15)

    def test_mu_jump(self):
        R, T, total = coefficients(VACUUM, DENSE_MU)
        assert R == pytest.approx(0.25, abs=1e-15)
        assert T == pytest.approx(0.75, abs=1e-15)
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_identical_media(self):
        assert coefficients(VACUUM, MediumState(1, 1)) == (0.0, 1.0, 1.0)

    def test_swapped_roles(self):
        assert swapped_coefficients(VACUUM, DENSE_EPS) == pytest.approx((0.375, 0.125))
        assert swapped_coefficients(VACUUM, MediumState(1, 1)) == (1.0, 0.0)
        assert swapped_coefficients(VACUUM, DENSE_MU) == pytest.approx((0.75, 0.25))

    @pytest.mark.parametrize("solve", [coefficients, swapped_coefficients])
    def test_overflowing_factors_raise(self, solve):
        # eps-/eps+ overflows, so r and t would be infinite (and R + T NaN).
        with pytest.raises(DomainError, match="^amplitude must be finite$"):
            solve(MediumState(1e30, 1e-320), MediumState(-1e-320, -0.5))

    def test_energy_sum_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            before, after = random_media_pair(rng)
            R, T, total = coefficients(before, after)
            z1, z2 = before.impedance, after.impedance
            if z1 < z2:
                expected = before.epsilon / after.epsilon
            else:
                expected = math.sqrt(
                    before.epsilon * before.mu / (after.epsilon * after.mu)
                )
            assert total == pytest.approx(expected, rel=1e-12)


class TestScatterInterface:
    def test_worked_example_end_to_end(self):
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS))
        assert result.omega3 == 0.5
        assert result.omega2 == -0.5
        assert_allclose(result.transmitted.k, X_HAT)
        assert_allclose(result.reflected.k, -X_HAT)
        assert result.R == pytest.approx(0.125, abs=1e-15)
        assert result.T == pytest.approx(0.375, abs=1e-15)
        assert not result.degenerate

    def test_identical_media_transmits_identically(self):
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, MediumState(1, 1)))
        assert result.R == 0.0
        assert result.reflected is None
        assert_allclose(result.transmitted.amplitude, result.incident.amplitude)
        assert result.transmitted.omega == result.incident.omega
        assert_allclose(result.transmitted.k, result.incident.k)

    @pytest.mark.parametrize("after, omega, t0, message", [
        # omega3 = 1e200 (the speed ratio is 1e100), so omega3 * t0 overflows: cmath.exp used to fail.
        (MediumState(1e-100, 1e-100), 1e100, 1e110, "phase omega*t0 = 1e+200 * 1e+110 exceeds the float range"),
        (MediumState(1e-100, 1e-100), 1e100, -1e110, "phase omega*t0 = 1e+200 * -1e+110 exceeds the float range"),
        # omega1 * t0 overflows for the incident wave's own phase factor.
        (DENSE_EPS, 1e200, 1e200, "phase omega*t0 = 1e+200 * 1e+200 exceeds the float range"),
    ], ids=["scattered", "scattered-negative-t0", "incident"])
    def test_overflowing_interface_phase_raises(self, after, omega, t0, message):
        with pytest.raises(DomainError) as raised:
            scatter_interface(incident_wave(omega=omega), TemporalProfile.step(VACUUM, after, t0=t0))
        assert str(raised.value) == message

    def test_interface_time_only_changes_phases(self):
        res0 = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS, t0=0.0))
        res1 = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS, t0=1.0))
        assert res1.R == pytest.approx(res0.R, rel=1e-15)
        assert res1.T == pytest.approx(res0.T, rel=1e-15)
        # A amplitudes pick up exactly the interface phase factors: B scales
        # with exp(-i*omega1*t0) through B_i, and A = B * exp(+i*omega*t0).
        omega1 = res0.incident.omega
        assert_allclose(
            res1.reflected.amplitude,
            res0.reflected.amplitude * cmath.exp(1j * (res0.omega2 - omega1) * 1.0),
            rtol=1e-12,
        )
        assert_allclose(
            res1.transmitted.amplitude,
            res0.transmitted.amplitude * cmath.exp(1j * (res0.omega3 - omega1) * 1.0),
            rtol=1e-12,
        )
        # B moduli are t0-independent.
        assert np.linalg.norm(res1.B_reflected) == pytest.approx(
            np.linalg.norm(res0.B_reflected), rel=1e-12
        )

    def test_phase_vectors_all_equal(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            before, after = random_media_pair(rng)
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            amp = raw - np.dot(raw, k) * k
            wave = PlaneWave(amp, 10.0 ** rng.uniform(-0.5, 0.5), k, before.wave_speed)
            result = scatter_interface(wave, TemporalProfile.step(before, after))
            m_i = phase_vector(result.incident)
            assert_allclose(phase_vector(result.reflected), m_i, rtol=1e-12, atol=1e-12)
            assert_allclose(phase_vector(result.transmitted), m_i, rtol=1e-12, atol=1e-12)
            assert transversality_residual(result.reflected) <= 1e-12 * np.linalg.norm(
                result.reflected.amplitude
            )
            assert transversality_residual(result.transmitted) <= 1e-12 * np.linalg.norm(
                result.transmitted.amplitude
            )

    def test_scale_invariance_of_result(self):
        scale = 0.7 - 1.3j
        res1 = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS))
        res2 = scatter_interface(
            incident_wave(amplitude=scale * Y_HAT), TemporalProfile.step(VACUUM, DENSE_EPS)
        )
        assert res2.R == pytest.approx(res1.R, rel=1e-12)
        assert res2.T == pytest.approx(res1.T, rel=1e-12)
        assert_allclose(res2.B_reflected, scale * res1.B_reflected, rtol=1e-12)
        assert_allclose(res2.B_transmitted, scale * res1.B_transmitted, rtol=1e-12)

    def test_impedance_matched_has_no_reflection(self):
        matched = MediumState(3.0, 3.0)  # same impedance as vacuum
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, matched))
        assert result.reflected is None
        assert result.R == 0.0

    def test_degenerate_convention(self):
        conv = FrequencyConvention(reflected="positive")
        matched = MediumState(2.0, 2.0)
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, matched), conv)
        assert result.degenerate
        assert result.omega2 == result.omega3
        assert result.T == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(NoSolutionError):
            scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS), conv)

    @pytest.mark.parametrize(
        "profile",
        [
            TemporalProfile.ramp(VACUUM, DENSE_EPS, tau=0.1),
            TemporalProfile.constant(VACUUM),
            TemporalProfile.periodic(VACUUM, DENSE_EPS),
            TemporalProfile((VACUUM, DENSE_EPS, VACUUM), (0.0, 1.0)),
        ],
        ids=["ramp", "constant", "periodic", "three-stage"],
    )
    def test_rejects_non_step_profiles(self, profile):
        with pytest.raises(DomainError, match="needs a step profile"):
            scatter_interface(incident_wave(), profile)

    def test_preconditions(self):
        skew = PlaneWave([1.0, 1.0, 0.0], 1.0, X_HAT, 1.0)
        with pytest.raises(DomainError):
            scatter_interface(skew, TemporalProfile.step(VACUUM, DENSE_EPS))
        wrong_speed = PlaneWave(Y_HAT.astype(complex), 1.0, X_HAT, 0.5)
        with pytest.raises(DomainError):
            scatter_interface(wrong_speed, TemporalProfile.step(VACUUM, DENSE_EPS))


class TestNegativeIndex:
    def test_negative_time_refraction_signs(self):
        double_negative = MediumState(-1.0, -4.0, branch=-1)
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, double_negative))
        # omega3 shares the sign of omega1, so transmission reverses direction,
        # while omega2 < 0 keeps the reflected wave co-propagating.
        assert result.omega3 > 0.0
        assert_allclose(result.transmitted.k, -X_HAT)
        assert result.omega2 < 0.0
        assert_allclose(result.reflected.k, X_HAT)

    def test_opposite_sign_transmission_restores_direction(self):
        conv = FrequencyConvention(transmitted="backward")
        k_r, k_t = wave_vectors(X_HAT, 1.0, 0.5, -0.5, 1.0, -0.5)
        assert_allclose(k_t, X_HAT)


class TestBoundaryResidual:
    def setup_method(self):
        self.rng = np.random.default_rng(9)
        self.samples = self.rng.uniform(-10, 10, size=(100, 3))

    def test_worked_example_residuals_vanish(self):
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS))
        res_E, res_H = boundary_residual(result, self.samples)
        assert res_E <= 1e-10
        assert res_H <= 1e-10

    def test_identical_media_residual_zero(self):
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, MediumState(1, 1)))
        res_E, res_H = boundary_residual(result, self.samples)
        assert res_E <= 1e-14
        assert res_H <= 1e-14

    def test_tampered_amplitude_detected(self):
        result = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, DENSE_EPS))
        tampered = PlaneWave(
            2.0 * result.reflected.amplitude,
            result.reflected.omega,
            result.reflected.k,
            result.reflected.v,
        )
        bad = dataclasses.replace(result, reflected=tampered)
        res_E, _ = boundary_residual(bad, self.samples)
        scale = float(np.linalg.norm(result.B_incident)) * result.after.epsilon
        assert res_E > 0.01 * scale


def two_pass_residual(result, x_samples):
    """boundary_residual as it was written before the one-pass loop: E, then H from PlaneWaves."""
    x = np.atleast_2d(np.asarray(x_samples, dtype=np.float64))
    t0 = result.t0

    def field_sum(waves, weights, magnetics):
        total = np.zeros((x.shape[0], 3), dtype=np.complex128)
        for wave, weight, mag in zip(waves, weights, magnetics):
            if wave is None:
                continue
            w = magnetic_from_electric(wave, mag) if mag is not None else wave
            total += weight * evaluate_E(w, x, t0)
        return total

    eps_m, eps_p = result.before.epsilon, result.after.epsilon
    mu_m, mu_p = result.before.mu, result.after.mu
    waves = (result.transmitted, result.reflected, result.incident)
    jump_E = field_sum(waves, (eps_p, eps_p, -eps_m), (None, None, None))
    jump_H = field_sum(waves, (mu_p, mu_p, -mu_m), (mu_p, mu_p, mu_m))
    return float(np.max(rescaled_norms(jump_E))), float(np.max(rescaled_norms(jump_H)))


def rescaled_norms(jump):
    """Row norms by the rule waves._norm documents: np.linalg.norm, after an exact 2**e scaling that
    brings the largest real or imaginary part into [1, 2) when it lies outside [2**-500, 2**500]."""
    parts = jump.view(np.float64)
    peak = float(np.max(np.abs(parts)))
    e = 0 if peak == 0.0 or 2.0**-500 <= peak <= 2.0**500 else 1 - math.frexp(peak)[1]
    return np.ldexp(np.linalg.norm(np.ldexp(parts, e).view(np.complex128), axis=1), -e)


def subnormal_jump_case():
    """A matched step whose jumps have parts near 1e-289, far below 2**-500: a plain norm of
    them underflows to 0, while boundary_residual's rescaled norm is exact."""
    after = MediumState(math.sqrt(10.0), math.sqrt(10.0))
    wave = incident_wave(amplitude=[0.0, 1.0, 1.7899458781791352e-273j], k=np.array([1.0, 0.0, 0.0]))
    return scatter_interface(wave, TemporalProfile.step(VACUUM, after, 0.0)), np.zeros((1, 3))


@st.composite
def residual_cases(draw):
    """A solved interface (either convention, some media double-negative, some impedance-matched),
    possibly with tampered amplitudes, and sample points."""
    unit = st.floats(-1.0, 1.0)
    magnitude = lambda: 10.0 ** draw(st.floats(-1.0, 1.0))

    def medium():
        eps, mu = magnitude(), magnitude()
        return MediumState(-eps, -mu, -1) if draw(st.booleans()) else MediumState(eps, mu)

    before = medium()
    if draw(st.booleans()):  # same impedance sqrt(mu/eps): nothing is reflected
        scale = magnitude()
        after = MediumState(scale * before.epsilon, scale * before.mu, before.branch)
    else:
        after = medium()
    k = np.array([draw(unit), draw(unit), draw(unit)]) + [0.0, 0.0, 1.5]
    k /= np.linalg.norm(k)
    raw = np.array([complex(draw(unit), draw(unit)) for _ in range(3)]) + [1.0, 0.0, 0.0]
    amplitude = raw - np.dot(raw, k) * k
    wave = PlaneWave(amplitude, magnitude(), k, before.wave_speed)
    conv = FrequencyConvention(transmitted=draw(st.sampled_from(["forward", "backward"])))
    result = scatter_interface(wave, TemporalProfile.step(before, after, draw(st.floats(-5.0, 5.0))), conv)
    for name in ("incident", "reflected", "transmitted"):
        original = getattr(result, name)
        if original is not None and draw(st.booleans()):
            tampered = np.array([complex(draw(unit), draw(unit)) for _ in range(3)]) + [0.0, 0.0, 0.5j]
            replacement = PlaneWave(tampered, original.omega, original.k, original.v)
            result = dataclasses.replace(result, **{name: replacement})
    samples = np.array([[draw(st.floats(-10.0, 10.0)) for _ in range(3)] for _ in range(draw(st.integers(1, 8)))])
    return result, samples


class TestResidualBitIdentity:
    """boundary_residual's one pass over the waves gives the bits of the two-pass form."""

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(case=residual_cases())
    @hyp.example(case=subnormal_jump_case())
    def test_same_bits_as_two_pass(self, case):
        result, samples = case
        got, expected = boundary_residual(result, samples), two_pass_residual(result, samples)
        assert [value.hex() for value in got] == [value.hex() for value in expected]

    @pytest.mark.parametrize("transmitted", ["forward", "backward"])
    def test_matched_and_tampered_examples(self, transmitted):
        conv = FrequencyConvention(transmitted=transmitted)
        samples = np.random.default_rng(3).uniform(-10.0, 10.0, size=(50, 3))
        matched = scatter_interface(incident_wave(), TemporalProfile.step(VACUUM, MediumState(2, 2), 0.7), conv)
        assert (matched.reflected is None) == (transmitted == "forward") != (matched.transmitted is None)
        incident = matched.incident
        tampered = dataclasses.replace(matched, incident=PlaneWave(1j * incident.amplitude, incident.omega, incident.k, incident.v))
        for result in (matched, tampered):
            got, expected = boundary_residual(result, samples), two_pass_residual(result, samples)
            assert [value.hex() for value in got] == [value.hex() for value in expected]
        assert boundary_residual(tampered, samples)[0] > 0.1


class TestScatterKernel:
    BACKWARD = FrequencyConvention(transmitted="backward")

    def random_points(self, n=300, seed=31):
        rng = np.random.default_rng(seed)
        eps_m, mu_m, eps_p, mu_p = 10.0 ** rng.uniform(-1, 1, size=(4, n))
        double_negative = rng.uniform(size=n) < 0.3
        sign = np.where(double_negative, -1.0, 1.0)
        branch_p = np.where(double_negative, -1, 1)
        omega1 = 10.0 ** rng.uniform(-1, 1, size=n)
        return omega1, eps_m, mu_m, 1, sign * eps_p, sign * mu_p, branch_p

    @pytest.mark.parametrize("conv", [DEFAULT_CONVENTION, BACKWARD])
    def test_array_call_matches_scalar_calls(self, conv):
        args = self.random_points()
        grid = scatter_kernel(*args, conv)
        columns = np.broadcast_arrays(*args)
        points = [
            scatter_kernel(*(c[i].item() for c in columns), conv)
            for i in range(len(args[0]))
        ]
        for k, values in enumerate(zip(*points)):
            assert_array_max_ulp(grid[k], np.array(values), maxulp=1)

    @pytest.mark.parametrize("conv, sign", [(DEFAULT_CONVENTION, 1.0), (BACKWARD, -1.0)], ids=["forward", "backward"])
    def test_difference_of_squares_law(self, conv, sign):
        # t**2 - r**2 = +-(eps-/eps+) |v+/v-|, + for forward and - for backward transmission, with the
        # speed ratio taken here from sqrt(eps mu), not from the kernel's phase speeds.  Given t, the
        # law fixes |r| but not the sign of r: it is even in r.
        rng = np.random.default_rng(37)
        n = 4000
        eps_m, mu_m, eps_p, mu_p = 10.0 ** rng.uniform(-1, 1, size=(4, n))
        sign_m, sign_p = np.where(rng.uniform(size=(2, n)) < 0.4, -1, 1)  # about 40 % double-negative
        omega1 = 10.0 ** rng.uniform(-1, 1, size=n)
        _, _, r, t = scatter_kernel(
            omega1, sign_m * eps_m, sign_m * mu_m, sign_m, sign_p * eps_p, sign_p * mu_p, sign_p, conv
        )
        expected = sign * (sign_m * eps_m) / (sign_p * eps_p) * np.sqrt(eps_m * mu_m / (eps_p * mu_p))
        assert np.max(np.abs(t * t - r * r - expected) / np.abs(expected)) <= 1e-13

    def test_scalar_calls_return_python_floats(self):
        double_negative = MediumState(-1.0, -4.0, branch=-1)
        outputs = [
            *scatter_kernel(1.0, 1.0, 1.0, 1, -1.0, -4.0, -1),
            *scatter_kernel(1.0, 1.0, 1.0, 1, 2.0, 2.0, 1, FrequencyConvention(reflected="positive")),
            *frequencies(1.0, 1.0, 0.5),
            *coefficients(VACUUM, double_negative),
            *swapped_coefficients(VACUUM, double_negative),
        ]
        assert all(type(x) is float for x in outputs)

    def test_signed_coefficients_for_mixed_sign_media(self):
        double_negative = MediumState(-1.0, -4.0, branch=-1)
        R, T, total = coefficients(VACUUM, double_negative)
        assert (R, T, total) == (0.75, -0.25, 0.5)
        assert swapped_coefficients(VACUUM, double_negative) == (-0.25, 0.75)

    def test_overflowing_factors_raise(self):
        with pytest.raises(DomainError, match="^amplitude must be finite$"):
            scatter_kernel(1.0, 1e300, 1e-300, 1, 1e-300, 1e300, 1)

    @pytest.mark.parametrize("point", [
        (1.0, 1e300, 1e300, 1, 1e-300, 1e-300, 1),  # eps*mu overflows before the jump
        (1e308, 1.0, 1.0, 1, 0.25, 0.25, 1),  # |v+/v-| * omega1 overflows
        (1.0, 1e300, 1.0, 1, 1e-10, 1.0, 1),  # eps-/eps+ overflows
        (1.0, 1e-200, 1e-200, 1, 1e200, 1e200, 1),  # eps*mu underflows: no warning at any time
    ], ids=["speed", "frequency", "amplitude", "underflow"])
    @pytest.mark.parametrize("form", ["array", "numpy-scalar"])
    def test_overflowing_numpy_call_raises_the_scalar_error(self, point, form):
        # Python numbers overflow to inf silently and the checks reject it; numpy values must do
        # the same, not leak a RuntimeWarning (an error under this suite's warnings filter).
        with pytest.raises(TimescatterError) as scalar:
            scatter_kernel(*point)
        wrap = (lambda x: np.array([1.0, x])) if form == "array" else np.float64
        with pytest.raises(TimescatterError) as numpy_call:
            scatter_kernel(*(x if i in (3, 6) else wrap(x) for i, x in enumerate(point)))
        assert (type(numpy_call.value), str(numpy_call.value)) == (type(scalar.value), str(scalar.value))

    def test_array_call_raises_at_first_bad_point(self):
        eps_p = np.array([4.0, 2.0, 0.0, -3.0])
        with pytest.raises(DomainError) as grid_error:
            scatter_kernel(1.0, 1.0, 1.0, 1, eps_p, 1.0, 1)
        with pytest.raises(DomainError) as point_error:
            scatter_kernel(1.0, 1.0, 1.0, 1, 0.0, 1.0, 1)
        assert str(grid_error.value) == str(point_error.value)


def test_one_solve_checks_each_speed_and_scale_once(monkeypatch):
    import timescatter.scatter as scatter_mod

    calls = {"phase_speed": 0, "_scales": 0}
    for name in calls:
        original = getattr(scatter_mod, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(scatter_mod, name, counted)
    wave = PlaneWave(np.array([0, 1, 0], dtype=complex), 1.0, np.array([1.0, 0, 0]), 1.0)
    scatter_interface(wave, TemporalProfile.step(MediumState(1, 1), MediumState(4, 1)))
    assert calls == {"phase_speed": 2, "_scales": 1}


GRID_PATHS = ("omega1", "eps_minus", "mu_minus", "eps_plus", "mu_plus")
positive = st.floats(0.2, 5.0)
negative = st.floats(-5.0, -0.2)
special = st.sampled_from([0.0, -1.0, -4.0, math.inf, -math.inf, math.nan, 1e170, 1e-170, 1e308, 5e-324])
# Mostly valid values, mixed with zero, negative, non-finite, extreme and subnormal ones.
grid_values = st.one_of(*[positive] * 6, special)
grid_medium = st.one_of(
    st.tuples(positive, positive, st.just(1)),
    st.tuples(negative, negative, st.sampled_from([1, -1])),
    st.tuples(grid_values, grid_values, st.sampled_from([1, -1, 2])),
)


def point_loop(omega1, amplitude, k, before, after, conv):
    """(omega2, omega3, R, T) columns of MediumState plus the scalar interface checks, point by point."""
    columns = np.broadcast_arrays(omega1, *before, *after)
    rows = []
    for i in range(columns[0].size):
        w1, *values = (column.flat[i].item() for column in columns)
        media = [(m.epsilon, m.mu, m.branch) for m in (MediumState(*values[:3]), MediumState(*values[3:]))]
        _, w2, w3, r, t, _ = _interface(w1, amplitude, k, *media, conv, reject)
        rows.append((w2, w3, abs(r), abs(t)))
    return [np.array(column, dtype=np.float64) for column in zip(*rows)]


class TestScatterGridChecks:
    CONVENTIONS = [
        DEFAULT_CONVENTION,
        FrequencyConvention(transmitted="backward"),
        FrequencyConvention(reflected="positive"),
    ]

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(
        omega1=st.one_of(positive, grid_values),
        before=grid_medium,
        after=grid_medium,
        axes=st.lists(
            st.tuples(st.sampled_from(GRID_PATHS), st.lists(grid_values, min_size=1, max_size=4)), max_size=3
        ),
        conv=st.sampled_from(CONVENTIONS),
        transversal=st.one_of(st.just(True), st.booleans()),
    )
    @hyp.example(  # point 0 fails an interface check, point 1 a medium check that runs before it
        omega1=1.0,
        before=(1.0, 1.0, 1),
        after=(4.0, 1.0, 1),
        axes=[("omega1", [-1.0, 1.0]), ("eps_plus", [4.0, 0.0])],
        conv=DEFAULT_CONVENTION,
        transversal=True,
    )
    def test_grid_matches_a_loop_over_points(self, omega1, before, after, axes, conv, transversal):
        fields = dict(zip(GRID_PATHS, (omega1, *before[:2], *after[:2])))
        grids = np.meshgrid(*(np.array(values) for _, values in axes), indexing="ij")
        for (path, _), grid in zip(axes, grids):
            fields[path] = grid  # a repeated path takes its last axis, as in a sweep
        before = (fields["eps_minus"], fields["mu_minus"], before[2])
        after = (fields["eps_plus"], fields["mu_plus"], after[2])
        amplitude = np.array([0.0, 1.0, 0.0] if transversal else [0.6, 0.8, 0.0], dtype=complex)
        args = (fields["omega1"], amplitude, X_HAT, before, after, conv)
        try:
            expected = point_loop(*args)
        except TimescatterError as exc:
            with pytest.raises(type(exc)) as grid_error:
                scatter_grid(*args)
            assert type(grid_error.value) is type(exc)
            assert str(grid_error.value) == str(exc)
            return
        shape = np.broadcast_shapes(*(np.shape(x) for x in (fields["omega1"], *before, *after)))
        for column, want in zip(scatter_grid(*args), expected):
            assert np.broadcast_to(column, shape).ravel().tobytes() == want.tobytes()
