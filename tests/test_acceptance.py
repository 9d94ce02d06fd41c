"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance and runtime bound asserted here is fixed; the expected
values are either closed-form or produced by the independent oracles
implemented in this file (direct formula transcription, ODE integration).
"""

import contextlib
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timescatter import (
    MediumState,
    NoSolutionError,
    PlaneWave,
    TemporalProfile,
    TimelineSegment,
    boundary_residual,
    cascade_scatter,
    coefficients,
    convergence_study,
    degenerate_amplitude,
    frequencies,
    integrate,
    interface_matrix,
    mode_decompose,
    phase_vector,
    plane_wave_mode_state,
    scatter_interface,
    sum_residual,
    transversality_residual,
    vandermonde_product,
    wave_vectors,
)
from timescatter.scatter import amplitudes
from timescatter.verify import ExponentialSum, canonical_grid

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
VACUUM = MediumState(1, 1)


@contextlib.contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS - {description} ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over budget {budget_seconds}s"


def vacuum_wave(omega=1.0):
    return PlaneWave(Y_HAT.astype(complex), omega, X_HAT, 1.0)


def log_grid_media(n_eps=20, n_mu=10):
    eps_values = np.geomspace(0.1, 10.0, n_eps)
    mu_values = np.geomspace(0.1, 10.0, n_mu)
    return [(eps, mu) for eps in eps_values for mu in mu_values]


def formula_R(eps_m, mu_m, eps_p, mu_p):
    # Direct transcription, independent of the solver path.
    return 0.5 * abs(eps_m / eps_p - math.sqrt(eps_m * mu_m) / math.sqrt(eps_p * mu_p))


def formula_T(eps_m, mu_m, eps_p, mu_p):
    return 0.5 * (eps_m / eps_p + math.sqrt(eps_m * mu_m) / math.sqrt(eps_p * mu_p))


def test_criterion_1_coefficient_formulas():
    with criterion(1, "closed-form R, T on a 200-point log grid", budget_seconds=1.0):
        grid = log_grid_media()
        assert len(grid) == 200
        for eps_p, mu_p in grid:
            after = MediumState(eps_p, mu_p)
            result = scatter_interface(vacuum_wave(), TemporalProfile.step(VACUUM, after))
            R_ref = formula_R(1.0, 1.0, eps_p, mu_p)
            T_ref = formula_T(1.0, 1.0, eps_p, mu_p)
            assert result.R == pytest.approx(R_ref, rel=1e-12)
            assert result.T == pytest.approx(T_ref, rel=1e-12)


def test_criterion_2_energy_sum_identities():
    with criterion(2, "impedance-ordered energy sums on the same grid", budget_seconds=1.0):
        for eps_p, mu_p in log_grid_media():
            after = MediumState(eps_p, mu_p)
            R, T, total = coefficients(VACUUM, after)
            z2 = after.impedance
            if z2 > 1.0:  # Z1 = 1 < Z2
                assert total == pytest.approx(1.0 / eps_p, rel=1e-12)
            elif z2 < 1.0:
                assert total == pytest.approx(1.0 / math.sqrt(eps_p * mu_p), rel=1e-12)
        # Impedance-matched boundary: both identities at once and R = 0.
        for c in np.geomspace(0.1, 10.0, 9):
            matched = MediumState(c, c)
            R, T, total = coefficients(VACUUM, matched)
            assert R == pytest.approx(0.0, abs=1e-15)
            assert total == pytest.approx(1.0 / c, rel=1e-12)
            assert total == pytest.approx(1.0 / math.sqrt(c * c), rel=1e-12)


def test_criterion_3_amplitude_algebra():
    with criterion(3, "amplitude sum identity on 1000 random parameter sets", budget_seconds=1.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            eps_m, mu_m, eps_p, mu_p = 10.0 ** rng.uniform(-1, 1, size=4)
            before, after = MediumState(eps_m, mu_m), MediumState(eps_p, mu_p)
            omega1 = 10.0 ** rng.uniform(-1, 1)
            omega2, omega3 = frequencies(omega1, before.wave_speed, after.wave_speed)
            B_i = rng.normal(size=3) + 1j * rng.normal(size=3)
            B_r, B_t = amplitudes(B_i, omega1, omega2, omega3, eps_m, eps_p)
            assert_allclose(B_r + B_t, (eps_m / eps_p) * B_i, rtol=1e-12)
            norm_i = np.linalg.norm(B_i)
            assert np.linalg.norm(B_r) / norm_i == pytest.approx(
                formula_R(eps_m, mu_m, eps_p, mu_p), rel=1e-12, abs=1e-14
            )
            assert np.linalg.norm(B_t) / norm_i == pytest.approx(
                formula_T(eps_m, mu_m, eps_p, mu_p), rel=1e-12
            )


def test_criterion_4_boundary_conditions():
    with criterion(4, "jump-condition residuals on 100 random solves", budget_seconds=1.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eps_m, mu_m, eps_p, mu_p = 10.0 ** rng.uniform(-1, 1, size=4)
            before, after = MediumState(eps_m, mu_m), MediumState(eps_p, mu_p)
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            amp = raw - np.dot(raw, k) * k
            amp /= np.linalg.norm(amp)
            wave = PlaneWave(amp, 10.0 ** rng.uniform(-0.5, 0.5), k, before.wave_speed)
            t0 = rng.uniform(-2, 2)
            result = scatter_interface(wave, TemporalProfile.step(before, after, t0))
            samples = rng.uniform(-10, 10, size=(100, 3))
            res_E, res_H = boundary_residual(result, samples)
            assert res_E <= 1e-10
            assert res_H <= 1e-10
        # Deliberate perturbation is detected.
        result = scatter_interface(vacuum_wave(), TemporalProfile.step(VACUUM, MediumState(4, 1)))
        import dataclasses

        tampered = dataclasses.replace(
            result,
            reflected=PlaneWave(
                1.01 * result.reflected.amplitude,
                result.reflected.omega,
                result.reflected.k,
                result.reflected.v,
            ),
        )
        res_E, _ = boundary_residual(tampered, rng.uniform(-10, 10, size=(100, 3)))
        scale = float(np.linalg.norm(result.B_incident)) * result.after.epsilon
        assert res_E >= 1e-3 * scale


def test_criterion_5_oracle_convergence():
    with criterion(5, "ODE oracle converges to analytic R, T as ramps sharpen", budget_seconds=60.0):
        taus = [0.5, 0.1, 0.02, 4e-3, 1e-3]
        for after in (MediumState(4, 1), MediumState(1, 4)):
            study = convergence_study(VACUUM, after, vacuum_wave(), taus)
            assert study.R_errors[-1] <= 1e-2
            assert study.T_errors[-1] <= 1e-2
            for column in (study.R_errors, study.T_errors):
                assert all(b < a for a, b in zip(column, column[1:])), (
                    f"errors not monotone for {after}: {column}"
                )


def test_criterion_6_transversality_and_phase_vectors():
    with criterion(6, "phase-vector and transversality invariants", budget_seconds=30.0):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            eps_m, mu_m, eps_p, mu_p = 10.0 ** rng.uniform(-1, 1, size=4)
            before, after = MediumState(eps_m, mu_m), MediumState(eps_p, mu_p)
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            amp = raw - np.dot(raw, k) * k
            wave = PlaneWave(amp, 10.0 ** rng.uniform(-0.5, 0.5), k, before.wave_speed)
            result = scatter_interface(wave, TemporalProfile.step(before, after))
            m_i = phase_vector(result.incident)
            scale = np.linalg.norm(m_i)
            assert np.max(np.abs(phase_vector(result.reflected) - m_i)) <= 1e-12 * scale
            assert np.max(np.abs(phase_vector(result.transmitted) - m_i)) <= 1e-12 * scale
            for scattered in (result.reflected, result.transmitted):
                residual = transversality_residual(scattered)
                assert residual <= 1e-12 * np.linalg.norm(scattered.amplitude)
        # Oracle keeps the divergence constraints over 10-period runs.
        wave = vacuum_wave()
        m = phase_vector(wave)
        ten_periods = 10 * wave.period
        for profile in (
            TemporalProfile.constant(VACUUM),
            TemporalProfile.ramp(VACUUM, MediumState(4, 1), t0=0.0, tau=0.3),
        ):
            state = plane_wave_mode_state(wave, VACUUM, -0.5 * ten_periods)
            state = integrate(profile, m, state, 0.5 * ten_periods)
            assert abs(np.dot(state.D, m)) <= 1e-9
            assert abs(np.dot(state.B, m)) <= 1e-9


def test_criterion_7_degenerate_case():
    with criterion(7, "degenerate frequencies: combined amplitude or no solution"):
        B_i = np.array([0.0 + 0.0j, 1.0 + 0.0j, 0.0 + 0.0j])
        # Ten compatible cases built from exact powers of two.
        compatible = [
            (2.0, 1.0, 1.0, 2.0),
            (4.0, 1.0, 1.0, 4.0),
            (4.0, 2.0, 1.0, 2.0),
            (1.0, 2.0, 4.0, 2.0),
            (8.0, 4.0, 2.0, 4.0),
            (1.0, 1.0, 1.0, 1.0),
            (2.0, 4.0, 2.0, 1.0),
            (16.0, 2.0, 0.5, 4.0),
            (0.5, 1.0, 2.0, 1.0),
            (2.0, 8.0, 8.0, 2.0),
        ]
        for eps_m, eps_p, omega1, omega2 in compatible:
            assert eps_m * omega1 == eps_p * omega2  # exact by construction
            combined = degenerate_amplitude(B_i, omega1, omega2, eps_m, eps_p)
            assert np.array_equal(combined, (eps_m / eps_p) * B_i)
        # Ten violating cases.
        violating = [
            (1.0, 1.0, 1.0, 2.0),
            (2.0, 1.0, 1.0, 1.0),
            (4.0, 2.0, 1.0, 1.0),
            (1.0, 4.0, 2.0, 1.0),
            (8.0, 2.0, 1.0, 2.0),
            (1.0, 2.0, 1.0, 1.0),
            (2.0, 4.0, 4.0, 1.0),
            (16.0, 2.0, 0.5, 2.0),
            (0.5, 1.0, 2.0, 4.0),
            (2.0, 8.0, 8.0, 1.0),
        ]
        for eps_m, eps_p, omega1, omega2 in violating:
            assert eps_m * omega1 != eps_p * omega2
            with pytest.raises(NoSolutionError):
                degenerate_amplitude(B_i, omega1, omega2, eps_m, eps_p)


def test_criterion_8_negative_index_branch():
    with criterion(8, "negative-index media: exact wave-vector sign relations"):
        for eps_p, mu_p in [(-1.0, -4.0), (-4.0, -1.0), (-2.0, -2.0), (-0.5, -8.0)]:
            after = MediumState(eps_p, mu_p, branch=-1)
            v_plus = after.wave_speed
            assert v_plus < 0.0
            omega2, omega3 = frequencies(1.0, 1.0, v_plus)
            k_r, k_t = wave_vectors(X_HAT, 1.0, omega2, omega3, 1.0, v_plus)
            # omega3 shares omega1's sign, so transmission reverses exactly;
            # omega2 has the opposite sign, so reflection co-propagates.
            assert omega3 > 0.0 and np.array_equal(k_t, -X_HAT)
            assert omega2 < 0.0 and np.array_equal(k_r, X_HAT)
            # Opposite-sign transmitted branch restores the direction.
            k_r2, k_t2 = wave_vectors(X_HAT, 1.0, -omega2, -omega3, 1.0, v_plus)
            assert np.array_equal(k_t2, X_HAT)
            assert np.array_equal(k_r2, -X_HAT)
            # End-to-end solver stores the same directions on the waves it
            # emits (a branch with exactly zero amplitude is None).
            result = scatter_interface(vacuum_wave(), TemporalProfile.step(VACUUM, after))
            if result.transmitted is not None:
                assert np.array_equal(result.transmitted.k, -X_HAT)
            if result.reflected is not None:
                assert np.array_equal(result.reflected.k, X_HAT)


def test_criterion_9_exponential_lemma():
    with criterion(9, "Vandermonde classification and non-cancellation bound", budget_seconds=1.0):
        rng = np.random.default_rng(31)
        pool = np.arange(-10, 11) * 0.25
        for _ in range(100):
            n = int(rng.integers(1, 7))
            if rng.random() < 0.5 and n >= 2:
                omegas = rng.choice(pool, size=n, replace=True)
                omegas[rng.integers(0, n - 1)] = omegas[-1]  # exact repeat
                assert vandermonde_product(omegas) == 0.0
            else:
                omegas = rng.choice(pool, size=n, replace=False)
                assert vandermonde_product(omegas) != 0.0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            while True:
                omegas = np.sort(rng.uniform(-5, 5, n))
                if np.min(np.diff(omegas)) >= 0.1:
                    break
            dim = int(rng.integers(1, 4))
            amps = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
            s = ExponentialSum(amps, omegas)
            residual = sum_residual(s, canonical_grid(omegas))
            assert residual >= 0.01 * np.max(np.linalg.norm(amps, axis=1))


def test_criterion_10_cascade_consistency():
    with criterion(10, "cascades match matrix products and the ODE oracle", budget_seconds=60.0):
        # Two-interface zero-gap cascade is the product of the single steps.
        middle, last = MediumState(4, 1), MediumState(2.25, 1)
        timeline = [
            TimelineSegment(VACUUM, 0.0),
            TimelineSegment(middle, 0.0),
            TimelineSegment(last, 0.0),
        ]
        result = cascade_scatter(timeline, vacuum_wave())
        net = interface_matrix(middle, last) @ interface_matrix(VACUUM, middle)
        assert_allclose(result.net_matrix, net, atol=1e-12)
        applied = net @ np.array([1.0, 0.0])
        assert abs(result.amplitudes.forward - applied[0]) <= 1e-12
        assert abs(result.amplitudes.backward - applied[1]) <= 1e-12

        # Three-interface cascade against one multi-ramp oracle integration.
        wave = vacuum_wave()
        media = [VACUUM, MediumState(4, 1), MediumState(2.25, 1), VACUUM]
        durations = [6.0, 4.0, 4.0, 6.0]
        cascade = cascade_scatter(
            [TimelineSegment(m, d) for m, d in zip(media, durations)], wave
        )
        tau = 1e-3 * wave.period
        centers = tuple(np.cumsum(durations[:-1]))
        sequence = TemporalProfile(tuple(media), centers, tau)
        m = phase_vector(wave)
        state = plane_wave_mode_state(wave, VACUUM, -5 * wave.period)
        state = integrate(sequence, m, state, centers[-1] + 5 * wave.period)
        oracle_amps = mode_decompose(state, VACUUM, m)
        assert abs(abs(oracle_amps.forward) - abs(cascade.amplitudes.forward)) <= 1e-2
        assert abs(abs(oracle_amps.backward) - abs(cascade.amplitudes.backward)) <= 1e-2
