"""Exponential-sum independence checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timescatter import (
    DomainError,
    ExponentialSum,
    ResolutionError,
    assert_forced_equality,
    canonical_grid,
    sum_residual,
    vandermonde_product,
)
from timescatter.verify import _amplitude_scale


def scalar_sum(pairs):
    return ExponentialSum.from_terms([(np.array([a], dtype=complex), w) for a, w in pairs])


class TestExponentialSumChecks:
    @pytest.mark.parametrize(
        "amplitudes, omegas, message",
        [
            ([[1.0], [2.0]], [1.0], "^need one amplitude vector per frequency$"),
            (np.zeros((0, 1)), [], "^need at least one term$"),
            ([[1.0]], [np.inf], "^frequencies must be finite$"),
        ],
        ids=["mismatched-lengths", "no-terms", "non-finite-frequency"],
    )
    def test_malformed_sum_rejected(self, amplitudes, omegas, message):
        with pytest.raises(DomainError, match=message):
            ExponentialSum(amplitudes, omegas)


class TestVandermondeProduct:
    def test_no_frequencies_rejected(self):
        with pytest.raises(DomainError, match="^need at least one frequency$"):
            vandermonde_product([])

    def test_single_frequency_empty_product(self):
        assert vandermonde_product([1.0]) == 1.0 + 0.0j

    def test_two_frequencies(self):
        assert vandermonde_product([1.0, 2.0]) == pytest.approx(1j)

    def test_repeated_frequency_is_zero(self):
        assert vandermonde_product([1.0, 1.0, 3.0]) == 0.0

    def test_zero_iff_repeated(self):
        rng = np.random.default_rng(13)
        pool = np.arange(-5, 6) * 0.5  # exactly representable values
        for _ in range(100):
            n = rng.integers(1, 6)
            if rng.random() < 0.5:
                omegas = rng.choice(pool, size=n, replace=False)
                assert vandermonde_product(omegas) != 0.0
            else:
                omegas = rng.choice(pool, size=max(n, 2), replace=True)
                omegas[0] = omegas[-1]  # plant an exact repeat
                assert vandermonde_product(omegas) == 0.0


class TestSumResidual:
    def test_single_unit_phasor(self):
        s = scalar_sum([(1.0, 1.0)])
        assert sum_residual(s, [0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_equal_frequency_cancellation(self):
        s = scalar_sum([(1.0, 5.0), (-1.0, 5.0)])
        assert sum_residual(s, [0.0, 0.3, 1.1, 2.7]) == 0.0

    def test_distinct_frequencies_do_not_cancel(self):
        s = scalar_sum([(1.0, 1.0), (-1.0, 2.0)])
        grid = np.linspace(0.0, 2 * np.pi, 8)
        assert sum_residual(s, grid) >= 0.5

    def test_grid_size_precondition(self):
        s = scalar_sum([(1.0, 1.0), (-1.0, 2.0)])
        with pytest.raises(DomainError):
            sum_residual(s, [0.0, 1.0, 1.0])  # only 2 distinct points < 2N

    def test_vector_amplitudes(self):
        s = ExponentialSum.from_terms(
            [(np.array([1.0, 1.0j]), 0.0), (np.array([-1.0, -1.0j]), 0.0)]
        )
        assert sum_residual(s, [0.0, 0.5, 1.0, 1.5]) == 0.0

    def test_zero_amplitude_rejected(self):
        with pytest.raises(DomainError):
            scalar_sum([(0.0, 1.0)])

    def test_tiny_amplitude_is_nonzero(self):
        # The squares of 1e-200 underflow, so a norm would call this amplitude zero.
        s = scalar_sum([(1e-200, 1.0), (1.0, 2.0)])
        assert sum_residual(s, canonical_grid(s.omegas)) == pytest.approx(1.0)

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_norm_squares_neither_underflow_nor_overflow(self, size):
        # The squares of 1e-200 underflow to 0 and those of 1e200 overflow to inf; the norms are
        # taken on a copy scaled by a power of two, so the residual and the scale are exact.
        s = scalar_sum([(size, 1.0), (size, 2.0)])
        assert sum_residual(s, canonical_grid(s.omegas)) == 2 * size
        assert _amplitude_scale(s) == 2 * size
        single = scalar_sum([(size, 1.0)])
        assert sum_residual(single, canonical_grid(single.omegas)) == _amplitude_scale(single) == size


class TestForcedEquality:
    def test_matched_scattering_system(self):
        # Phase-vector matching from the interface solver: all exponents equal.
        from timescatter import MediumState, PlaneWave, TemporalProfile, scatter_interface

        vacuum = MediumState(1, 1)
        after = MediumState(4, 1)
        wave = PlaneWave(np.array([0, 1, 0], complex), 1.0, np.array([1.0, 0, 0]), 1.0)
        result = scatter_interface(wave, TemporalProfile.step(vacuum, after))
        k_dir = np.array([1.0, 0.0, 0.0])
        # The matched jump condition: eps+ B_t + eps+ B_r - eps- B_i cancels
        # identically, which forces the three phase exponents to coincide.
        terms = [
            (after.epsilon * result.B_transmitted, float(np.dot(result.omega3 * result.transmitted.k / result.transmitted.v, k_dir))),
            (after.epsilon * result.B_reflected, float(np.dot(result.omega2 * result.reflected.k / result.reflected.v, k_dir))),
            (-vacuum.epsilon * result.B_incident, float(np.dot(result.incident.omega * result.incident.k / result.incident.v, k_dir))),
        ]
        s = ExponentialSum.from_terms(terms)
        assert sum_residual(s, canonical_grid(s.omegas)) <= 1e-12
        assert assert_forced_equality(s, 1e-9) is True

    def test_non_positive_tol_rejected(self):
        with pytest.raises(DomainError, match="^tol must be positive, got 0.0$"):
            assert_forced_equality(scalar_sum([(1.0, 3.0)]), 0.0)

    def test_single_term(self):
        assert assert_forced_equality(scalar_sum([(1.0, 3.0)]), 1e-9) is True

    def test_distinct_frequencies_return_false(self):
        s = scalar_sum([(1.0, 1.0), (-1.0, 2.0)])
        assert assert_forced_equality(s, 1e-9) is False

    def test_unresolvable_gap_raises(self):
        s = scalar_sum([(1.0, 1.0), (-1.0, 1.0 + 1e-12)])
        with pytest.raises(ResolutionError):
            assert_forced_equality(s, 1e-9)

    def test_bogus_cancellation_claim_raises(self):
        # A tolerance so loose that distinct frequencies "cancel" flags misuse.
        s = scalar_sum([(1.0, 1.0), (-1.0, 2.0)])
        with pytest.raises(ResolutionError):
            assert_forced_equality(s, 1e6)


class TestLinearIndependence:
    def test_phasor_system_only_zero_solution(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(2, 6)
            while True:
                omegas = np.sort(rng.uniform(-4, 4, n))
                if np.min(np.diff(omegas)) >= 0.1:
                    break
            gap = np.min(np.diff(omegas))
            x = np.linspace(0.0, 2 * np.pi / gap, n, endpoint=False)
            matrix = np.exp(1j * np.outer(x, omegas))
            solution = np.linalg.solve(matrix, np.zeros(n, dtype=complex))
            assert_allclose(solution, np.zeros(n), atol=1e-12)
            smallest_singular = np.linalg.svd(matrix, compute_uv=False)[-1]
            assert smallest_singular > 1e-8

    def test_canonical_grid_spans_beat_period(self):
        grid = canonical_grid([1.0, 1.5])
        assert grid.size == 8
        assert grid[-1] == pytest.approx(2 * np.pi / 0.5)
