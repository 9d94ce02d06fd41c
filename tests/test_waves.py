"""Plane-wave fields, magnetic construction, and transversality checks."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timescatter import (
    DomainError,
    ExponentialSum,
    MediumState,
    ModeAmplitudes,
    ModeState,
    PlaneWave,
    TemporalProfile,
    TimelineSegment,
    cascade_scatter,
    evaluate_E,
    integrate,
    magnetic_from_electric,
    numeric_rt,
    phase_vector,
    scatter_interface,
    transversality_residual,
)
from timescatter.waves import _magnetic_amplitude

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def wave(amplitude, omega=1.0, k=Z_HAT, v=1.0):
    return PlaneWave(np.asarray(amplitude, dtype=complex), omega, k, v)


class TestEvaluate:
    def test_unit_phase_at_origin(self):
        w = wave(X_HAT)
        assert_allclose(evaluate_E(w, np.zeros(3), 0.0), X_HAT.astype(complex))

    def test_half_period_flips_sign(self):
        w = wave(X_HAT)
        assert_allclose(
            evaluate_E(w, np.zeros(3), math.pi), -X_HAT.astype(complex), atol=1e-15
        )

    def test_quarter_wavelength_gives_i(self):
        w = wave(X_HAT)
        value = evaluate_E(w, np.array([0.0, 0.0, math.pi / 2]), 0.0)
        assert_allclose(value, 1j * X_HAT, atol=1e-15)

    def test_periodic_in_time(self):
        w = wave([0.3 + 0.1j, 1.0, 0.0], omega=2.5)
        x = np.array([0.2, -0.7, 1.3])
        period = 2 * math.pi / 2.5
        assert_allclose(
            evaluate_E(w, x, 0.4), evaluate_E(w, x, 0.4 + period), rtol=1e-12
        )

    def test_batched_positions(self):
        w = wave(Y_HAT)
        xs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, math.pi / 2]])
        values = evaluate_E(w, xs, 0.0)
        assert values.shape == (2, 3)
        assert_allclose(values[0], Y_HAT.astype(complex))
        assert_allclose(values[1], 1j * Y_HAT, atol=1e-15)


class TestMagneticFromElectric:
    def test_right_handed_triplet(self):
        w = wave(Y_HAT, k=X_HAT, v=1.0)
        h = magnetic_from_electric(w, mu=1.0)
        assert_allclose(h.amplitude, Z_HAT.astype(complex), atol=1e-15)

    def test_slow_medium_scales_amplitude(self):
        w = wave(Y_HAT, k=X_HAT, v=0.5)
        h = magnetic_from_electric(w, mu=1.0)
        assert_allclose(h.amplitude, 2.0 * Z_HAT, atol=1e-15)

    def test_zero_amplitude_rejected_at_construction(self):
        with pytest.raises(DomainError):
            wave([0.0, 0.0, 0.0])

    def test_zero_mu_rejected(self):
        w = wave(Y_HAT, k=X_HAT)
        with pytest.raises(DomainError):
            magnetic_from_electric(w, mu=0.0)

    def test_preserves_transversality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            amp = raw - np.dot(raw, k) * k
            w = PlaneWave(amp, 1.3, k, 0.7)
            h = magnetic_from_electric(w, mu=2.0)
            assert transversality_residual(h) <= 1e-12 * np.linalg.norm(h.amplitude)

    def test_overflowing_amplitude_raises_without_a_numpy_warning(self):
        w = wave([0.0, 1e300, 0.0], k=X_HAT, v=1e-10)
        with pytest.raises(DomainError, match="^amplitude must be finite$"):
            magnetic_from_electric(w, mu=1e-10)

    @pytest.mark.parametrize("v", [0.7, -0.7])
    @pytest.mark.parametrize("k", [X_HAT, -Y_HAT, Z_HAT, -X_HAT], ids=["x", "-y", "z", "-x"])
    def test_amplitude_has_the_bits_of_np_cross(self, k, v):
        # Signed zeros come from the zero components of k and of A.
        rng = np.random.default_rng(11)
        for _ in range(40):
            amp = rng.normal(size=3) + 1j * rng.normal(size=3)
            amp[rng.integers(3)] = 0.0
            amp[rng.integers(3)] *= -1j
            w = PlaneWave(amp, 1.3, k, v)
            for mu in (2.0, -0.3):
                expected = -np.cross(w.amplitude, w.k) / (mu * w.v)
                np.testing.assert_array_equal(_magnetic_amplitude(w, mu).view(np.uint64), expected.view(np.uint64))


class TestTransversality:
    def test_orthogonal(self):
        assert transversality_residual(wave(Y_HAT, k=X_HAT)) == 0.0

    def test_parallel(self):
        assert transversality_residual(wave(X_HAT, k=X_HAT)) == 1.0

    def test_circular_polarization(self):
        amp = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2)
        assert transversality_residual(wave(amp, k=Z_HAT)) == 0.0


VACUUM = MediumState(1, 1)
DENSE = MediumState(4, 1)
# The three solvers that take an incident wave, each for vacuum switching to epsilon = 4.
SOLVERS = {
    "solve": lambda w: scatter_interface(w, TemporalProfile.step(VACUUM, DENSE)),
    "cascade": lambda w: cascade_scatter([TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 1.0)], w),
    "oracle": lambda w: numeric_rt(TemporalProfile.ramp(VACUUM, DENSE, tau=0.01), w),
}


class TestIncidentWaveCheck:
    """Every solver rejects an incident wave the jump conditions do not hold for, with one message."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_speed_mismatch(self, solver):
        message = r"^incident wave speed 0\.5 does not match the first medium \(1\.0\)$"
        with pytest.raises(DomainError, match=message):
            SOLVERS[solver](wave(Y_HAT, k=X_HAT, v=0.5))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_longitudinal_wave(self, solver):
        with pytest.raises(DomainError, match=r"^incident wave is not transversal \(A\.k != 0\)$"):
            SOLVERS[solver](wave(X_HAT, k=X_HAT))


class TestPhaseVector:
    def test_vacuum(self):
        assert_allclose(phase_vector(wave(Y_HAT, 1.0, X_HAT, 1.0)), X_HAT)

    def test_transmitted_branch_matches_incident(self):
        assert_allclose(phase_vector(wave(Y_HAT, 0.5, X_HAT, 0.5)), X_HAT)

    def test_reflected_branch_matches_incident(self):
        assert_allclose(phase_vector(wave(Y_HAT, -0.5, -X_HAT, 0.5)), X_HAT)

    def test_read_only_real_array(self):
        m = phase_vector(wave(Y_HAT, 2.0, X_HAT, 0.5))
        assert m.shape == (3,) and m.dtype == np.float64 and not m.flags.writeable
        assert m.tolist() == [4.0, 0.0, 0.0]

    def test_overflow_rejected(self):
        with pytest.raises(DomainError, match="m must be finite"):
            phase_vector(wave(Y_HAT, 1e300, X_HAT, 1e-300))


class TestInvariants:
    def test_nonunit_k_rejected(self):
        with pytest.raises(DomainError):
            PlaneWave(Y_HAT.astype(complex), 1.0, np.array([1.0, 1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("scale, shown", [(1e200, "1e+200"), (1e-200, "1e-200")])
    def test_extreme_k_rejected_with_its_norm(self, scale, shown):
        # The squares in np.linalg.norm overflow (a RuntimeWarning) or underflow (|k| = 0.0).
        with pytest.raises(DomainError, match=re.escape(f"|k| must be 1 within 1e-12, got {shown}")):
            PlaneWave(Y_HAT.astype(complex), 1.0, scale * X_HAT, 1.0)

    def test_zero_omega_rejected(self):
        with pytest.raises(DomainError):
            wave(Y_HAT, omega=0.0)

    def test_zero_speed_rejected(self):
        with pytest.raises(DomainError):
            wave(Y_HAT, v=0.0)

    def test_amplitude_is_read_only(self):
        w = wave(Y_HAT)
        with pytest.raises(ValueError):
            w.amplitude[0] = 1.0


class TestCallerArraysStayWriteable:
    """Each record stores a read-only copy: the caller's own array is never frozen or aliased."""

    def test_constructors_copy(self):
        amplitude, k = Y_HAT.astype(complex), X_HAT.copy()
        w = PlaneWave(amplitude, 1.0, k, 1.0)
        D, B = Y_HAT.astype(complex), Z_HAT.astype(complex)
        state = ModeState(D, B, 0.0)
        polarization = Y_HAT.astype(complex)
        amps = ModeAmplitudes(1.0, 0.0, polarization)
        terms, omegas = np.array([[1.0 + 0j, 2.0]]), np.array([1.0])
        exp_sum = ExponentialSum(terms, omegas)
        m = X_HAT.copy()
        integrate(TemporalProfile.constant(MediumState(1, 1)), m, state, 1.0)
        stored = [w.amplitude, w.k, state.D, state.B, amps.polarization, exp_sum.amplitudes, exp_sum.omegas]
        for array in (amplitude, k, D, B, polarization, terms, omegas, m):
            assert array.flags.writeable
            assert not any(np.shares_memory(array, kept) for kept in stored)
        assert not any(kept.flags.writeable for kept in stored)

    def test_mode_state_shape_is_checked_by_name(self):
        with pytest.raises(DomainError, match=r"B must be a 3-vector, got shape \(2,\)"):
            ModeState(Y_HAT.astype(complex), [1.0, 0.0], 0.0)
