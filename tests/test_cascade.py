"""Interface sequences, transfer matrices, and Floquet diagnostics."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import timescatter.cascade as cascade_module
from timescatter import (
    DegenerateCaseError,
    DomainError,
    FrequencyConvention,
    MediumState,
    NumericalDegeneracyWarning,
    PlaneWave,
    TemporalProfile,
    TimelineSegment,
    cascade_scatter,
    coefficients,
    floquet_exponent,
    floquet_from_net,
    interface_matrix,
    propagate,
    scatter_interface,
    scatter_kernel,
    wave_speed,
)

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])

VACUUM = MediumState(1, 1)
DENSE = MediumState(4, 1)
STRONG = MediumState(9, 1)
DOUBLE_NEGATIVE = MediumState(-4, -1, -1)


def vacuum_wave(omega=1.0):
    return PlaneWave(Y_HAT.astype(complex), omega, X_HAT, 1.0)


class TestInterfaceMatrix:
    def test_identity_media(self):
        assert_allclose(interface_matrix(VACUUM, MediumState(1, 1)), np.eye(2))

    def test_worked_example_column(self):
        matrix = interface_matrix(VACUUM, DENSE)
        assert_allclose(matrix[:, 0], [0.375, -0.125], rtol=1e-15)

    def test_matches_single_interface_solver(self):
        matrix = interface_matrix(VACUUM, DENSE)
        out = matrix @ np.array([1.0, 0.0])
        result = scatter_interface(vacuum_wave(), TemporalProfile.step(VACUUM, DENSE))
        B_i = result.B_incident
        ratio_t = result.B_transmitted[1] / B_i[1]
        ratio_r = result.B_reflected[1] / B_i[1]
        assert out[0] == pytest.approx(ratio_t, rel=1e-14)
        assert out[1] == pytest.approx(ratio_r, rel=1e-14)

    def test_overflowing_factors_raise(self):
        with pytest.raises(DomainError, match="^amplitude must be finite$"):
            interface_matrix(MediumState(1e30, 1e-320), MediumState(-1e-320, -0.5))

    def test_symmetric_structure(self):
        matrix = interface_matrix(VACUUM, DENSE)
        assert matrix[0, 0] == matrix[1, 1]
        assert matrix[0, 1] == matrix[1, 0]


class TestPropagate:
    def test_zero_duration_is_identity(self):
        assert_allclose(propagate(1.0, 0.0), np.eye(2))

    def test_full_period_is_identity(self):
        assert_allclose(propagate(1.0, 2 * math.pi), np.eye(2), atol=1e-15)

    def test_half_period_negates(self):
        assert_allclose(propagate(1.0, math.pi), -np.eye(2), atol=1e-15)

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            propagate(1.0, -1.0)

    @pytest.mark.parametrize(
        "omega, duration", [(math.nan, 1.0), (math.inf, 1.0), (math.inf, 0.0), (1e308, 1e10)]
    )
    def test_non_finite_phase_rejected(self, omega, duration):
        message = "^" + re.escape(f"phase |omega|*duration must be finite, got omega={omega}, duration={duration}") + "$"
        with pytest.raises(DomainError, match=message):
            propagate(omega, duration)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_duration_checked_as_timeline_segment_checks_it(self, duration):
        message = rf"^duration must be finite and >= 0, got {duration}$"
        for build in (lambda: propagate(1.0, duration), lambda: TimelineSegment(VACUUM, duration)):
            with pytest.raises(DomainError, match=message):
                build()


class TestCascadeScatter:
    def test_single_zero_length_segment_passes_through(self):
        result = cascade_scatter([TimelineSegment(VACUUM, 0.0)], vacuum_wave())
        assert result.amplitudes.forward == pytest.approx(1.0)
        assert result.amplitudes.backward == pytest.approx(0.0)
        assert result.omega_final == 1.0

    def test_single_segment_only_accumulates_phase(self):
        result = cascade_scatter([TimelineSegment(VACUUM, 1.7)], vacuum_wave())
        assert abs(result.amplitudes.forward) == pytest.approx(1.0, rel=1e-14)
        assert result.amplitudes.forward == pytest.approx(cmath.exp(-1.7j), rel=1e-14)
        assert result.amplitudes.backward == 0.0

    def test_zero_gap_pair_equals_matrix_product(self):
        third = MediumState(2.25, 1.0)
        timeline = [
            TimelineSegment(VACUUM, 0.0),
            TimelineSegment(DENSE, 0.0),
            TimelineSegment(third, 0.0),
        ]
        result = cascade_scatter(timeline, vacuum_wave())
        net = interface_matrix(DENSE, third) @ interface_matrix(VACUUM, DENSE)
        assert_allclose(result.net_matrix, net, atol=1e-12)
        applied = net @ np.array([1.0, 0.0])
        assert result.amplitudes.forward == pytest.approx(applied[0], rel=1e-12)
        assert result.amplitudes.backward == pytest.approx(applied[1], rel=1e-12)

    def test_up_down_with_zero_dwell_is_identity(self):
        timeline = [
            TimelineSegment(VACUUM, 0.0),
            TimelineSegment(DENSE, 0.0),
            TimelineSegment(MediumState(1, 1), 0.0),
        ]
        result = cascade_scatter(timeline, vacuum_wave())
        assert_allclose(result.net_matrix, np.eye(2), atol=1e-12)

    def test_repeated_cells_equal_matrix_power(self):
        cell = [TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 0.7)]
        n = 4
        timeline = (cell * n) + [TimelineSegment(VACUUM, 0.0)]
        result = cascade_scatter(timeline, vacuum_wave())
        single = cascade_scatter(cell + [TimelineSegment(VACUUM, 0.0)], vacuum_wave())
        power = np.linalg.matrix_power(single.net_matrix, n)
        applied = power @ np.array([1.0, 0.0])
        assert result.amplitudes.forward == pytest.approx(applied[0], rel=1e-11)
        assert result.amplitudes.backward == pytest.approx(applied[1], rel=1e-11)

    def test_frequency_bookkeeping(self):
        timeline = [TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 1.0)]
        result = cascade_scatter(timeline, vacuum_wave())
        assert result.omega_final == pytest.approx(0.5)
        kinds, _ = cascade_module._event_labels(len(result.trace_omega))
        assert kinds == ["propagate", "interface", "propagate"]
        assert result.trace_omega[1] == pytest.approx(0.5)

    def test_empty_timeline_rejected(self):
        with pytest.raises(DomainError):
            cascade_scatter([], vacuum_wave())

    def test_mismatched_incident_rejected(self):
        with pytest.raises(DomainError):
            cascade_scatter([TimelineSegment(DENSE, 1.0)], vacuum_wave())

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError, match="^incident frequency must be positive$"):
            cascade_scatter([TimelineSegment(VACUUM, 1.0)], vacuum_wave(omega=-1.0))

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            TimelineSegment(VACUUM, -1.0)

    def test_overflowing_phase_rejected_at_its_step(self):
        # |omega| * d = 1e310 overflows in the first dwell.
        timeline = [TimelineSegment(VACUUM, 1e300), TimelineSegment(DENSE, 1.0)]
        message = "cascade overflows at trace step 0 (propagate 0): the amplitudes or the frequency exceed the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cascade_scatter(timeline, vacuum_wave(omega=1e10))

    def test_overflowing_amplitudes_raise_without_a_numpy_warning(self):
        # The suite turns RuntimeWarnings into errors, so a leaked matmul overflow would fail here.
        with pytest.raises(DomainError, match=re.escape("cascade overflows at trace step 6679 (interface 3339)")):
            cascade_scatter(GAP_CELL * 3000, vacuum_wave())


class TestOracleConsistency:
    def test_dwell_cascade_matches_double_ramp_integration(self):
        from timescatter import (
            integrate,
            mode_decompose,
            phase_vector,
            plane_wave_mode_state,
        )

        wave = vacuum_wave()
        dwell = 5.0
        timeline = [
            TimelineSegment(VACUUM, 0.0),
            TimelineSegment(DENSE, dwell),
            TimelineSegment(VACUUM, 0.0),
        ]
        cascade = cascade_scatter(timeline, wave)

        tau = 1e-3 * wave.period
        sequence = TemporalProfile((VACUUM, DENSE, VACUUM), (0.0, dwell), tau)
        m = phase_vector(wave)
        state = plane_wave_mode_state(wave, VACUUM, -5 * wave.period)
        state = integrate(sequence, m, state, dwell + 5 * wave.period)
        oracle = mode_decompose(state, VACUUM, m)
        assert abs(oracle.forward) == pytest.approx(abs(cascade.amplitudes.forward), abs=1e-2)
        assert abs(oracle.backward) == pytest.approx(abs(cascade.amplitudes.backward), abs=1e-2)


class TestFloquet:
    def test_empty_cell_rejected(self):
        for floquet in (lambda: floquet_exponent([], 1.0), lambda: floquet_from_net([], np.eye(2))):
            with pytest.raises(DomainError, match="^cell must contain at least one segment$"):
                floquet()

    def test_trivial_cell(self):
        result = floquet_exponent([TimelineSegment(VACUUM, 1.0)], 1.0)
        imag_parts = sorted(exp.imag for exp in result.exponents)
        assert imag_parts == pytest.approx([-1.0, 1.0], rel=1e-12)
        for eigenvalue in result.eigenvalues:
            assert abs(eigenvalue) == pytest.approx(1.0, rel=1e-12)
        assert not result.momentum_gap

    def test_closed_cell_has_unit_determinant(self):
        cell = [TimelineSegment(VACUUM, 2.0), TimelineSegment(STRONG, 1.5)]
        result = floquet_exponent(cell, 1.0)
        det = np.linalg.det(result.period_matrix)
        assert abs(det - 1.0) <= 1e-9
        product = result.eigenvalues[0] * result.eigenvalues[1]
        assert abs(product - 1.0) <= 1e-9

    def test_strong_contrast_momentum_gap(self):
        cell = [TimelineSegment(VACUUM, 2.0), TimelineSegment(STRONG, 1.5)]
        result = floquet_exponent(cell, 1.0)
        assert abs(result.half_trace) > 1.0
        assert result.momentum_gap
        moduli = sorted(abs(e) for e in result.eigenvalues)
        assert moduli[0] < 1.0 < moduli[1]

    def test_exponents_sum_to_zero_for_unit_determinant(self):
        cell = [TimelineSegment(VACUUM, 0.8), TimelineSegment(DENSE, 0.6)]
        result = floquet_exponent(cell, 1.0)
        total = result.exponents[0] + result.exponents[1]
        assert abs(total.real) <= 1e-9

    def test_band_edge_triggers_degeneracy_warning(self):
        # Bisect a cell duration to the |trace/2| = 1 band edge, where the
        # period matrix becomes defective.
        def half_trace_excess(duration):
            cell = [TimelineSegment(VACUUM, duration), TimelineSegment(STRONG, 1.5)]
            with warnings.catch_warnings():  # the warning is asserted once, at the edge
                warnings.simplefilter("ignore", NumericalDegeneracyWarning)
                return abs(floquet_exponent(cell, 1.0).half_trace) - 1.0

        lo, hi = 1.0, 2.0  # excess changes sign in between
        assert half_trace_excess(lo) * half_trace_excess(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if half_trace_excess(lo) * half_trace_excess(mid) <= 0:
                hi = mid
            else:
                lo = mid
        cell = [TimelineSegment(VACUUM, 0.5 * (lo + hi)), TimelineSegment(STRONG, 1.5)]
        with pytest.warns(NumericalDegeneracyWarning):
            floquet_exponent(cell, 1.0)

    def test_zero_duration_cell_rejected(self):
        with pytest.raises(DomainError):
            floquet_exponent([TimelineSegment(VACUUM, 0.0)], 1.0)

    @pytest.mark.parametrize("omega_in", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_rejected_by_name(self, omega_in):
        with pytest.raises(DomainError, match=r"^omega_in must be finite, got"):
            floquet_exponent([TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 0.5)], omega_in)

    def test_zero_omega_rejected(self):
        with pytest.raises(DomainError, match="^omega_in must be nonzero$"):
            floquet_exponent([TimelineSegment(VACUUM, 1.0)], 0.0)


class TestPlainArrays:
    def test_matrices_are_read_only_complex_arrays(self):
        cell = [TimelineSegment(VACUUM, 1.0), TimelineSegment(DOUBLE_NEGATIVE, 0.7)]
        matrices = [
            interface_matrix(VACUUM, DENSE),
            propagate(1.0, 0.3),
            cascade_scatter(cell, vacuum_wave()).net_matrix,
            floquet_exponent(cell, 1.0).period_matrix,
        ]
        for matrix in matrices:
            assert type(matrix) is np.ndarray
            assert (matrix.shape, matrix.dtype) == ((2, 2), np.complex128)
            assert not matrix.flags.writeable

    @pytest.mark.parametrize("last", [VACUUM, STRONG, DOUBLE_NEGATIVE], ids=["closed", "open", "open-double-negative"])
    def test_floquet_from_net_equals_floquet_exponent(self, last):
        timeline = [TimelineSegment(VACUUM, 0.9), TimelineSegment(DOUBLE_NEGATIVE, 0.4)] * 3
        timeline.append(TimelineSegment(last, 0.5))
        net = cascade_scatter(timeline, vacuum_wave(1.3)).net_matrix
        from_net = floquet_from_net(timeline, net)
        direct = floquet_exponent(timeline, 1.3)
        entries = net.ravel().tolist()
        closed = entries if last == VACUUM else through(interface_matrix(last, VACUUM), entries)
        assert same_bits(direct.period_matrix, np.reshape(closed, (2, 2)))
        blas_closed = net if last == VACUUM else interface_matrix(last, VACUUM) @ net
        assert_allclose(direct.period_matrix, blas_closed, rtol=1e-14)
        assert np.array_equal(from_net.period_matrix, direct.period_matrix)
        assert from_net.eigenvalues == direct.eigenvalues
        assert from_net.exponents == direct.exponents
        assert (from_net.half_trace, from_net.momentum_gap, from_net.period) == (
            direct.half_trace,
            direct.momentum_gap,
            direct.period,
        )


class TestDoubleNegativeFloquet:
    """Cells with a (-eps, -mu, branch=-1) segment keep the invariants |tr/2| > 1 relies on.

    In a pass band |lambda| = 1 exactly, and rounding leaves max|lambda| within
    a few ulp of 1 on either side (1 + 2.2e-16 for the first cell), so the
    moduli are compared with 1 to the same 1e-9 as the determinant.
    """

    @pytest.mark.parametrize(
        "durations, gap",
        [((0.5, 0.3), False), ((2.0, 0.7), False), ((0.5, 0.7), True), ((1.0, 1.5), True)],
        ids=["pass-band", "pass-band-centre", "gap-edge", "gap"],
    )
    def test_unit_determinant_and_gap_from_moduli(self, durations, gap):
        cell = [TimelineSegment(VACUUM, durations[0]), TimelineSegment(DOUBLE_NEGATIVE, durations[1])]
        result = floquet_exponent(cell, 1.0)
        assert abs(np.linalg.det(result.period_matrix) - 1.0) <= 1e-9
        lam1, lam2 = result.eigenvalues
        assert abs(lam1 * lam2 - 1.0) <= 1e-9
        top = max(abs(lam1), abs(lam2))
        assert result.momentum_gap == (top > 1.0 + 1e-9) == gap
        if not gap:
            assert abs(top - 1.0) <= 1e-9


GAP_CELL = [TimelineSegment(VACUUM, 2.0), TimelineSegment(STRONG, 1.5)]


def assert_floquet_invariants(result):
    """lambda1 * lambda2 = 1, lambda1 + lambda2 = tr, and the gap flag from max|lambda|."""
    lam1, lam2 = result.eigenvalues
    assert abs(lam1 * lam2 - 1.0) <= 1e-9
    tr = 2.0 * result.half_trace
    assert abs(lam1 + lam2 - tr) <= 1e-9 * max(1.0, abs(tr))
    assert abs(sum(result.exponents).real) <= 1e-9
    assert result.momentum_gap == (max(abs(lam1), abs(lam2)) > 1.0 + 1e-9)


class TestFloquetUnitDeterminant:
    """A closed cell has det = 1; the eigenvalues rely on it, not on the matrix entries."""

    @pytest.mark.parametrize("repeats", [50, 200, 1000])
    def test_strongly_amplifying_cell(self, repeats):
        # The entries reach 1e9 (50 cells) and 1e36 (200 cells); det from
        # them gave |lambda1 * lambda2| = 625 and then log(0).  At 1000
        # cells the trace is 5e184, so tr**2 overflows unless it is scaled.
        result = floquet_exponent(GAP_CELL * repeats, 1.0)
        assert_floquet_invariants(result)
        assert result.momentum_gap
        assert abs(result.eigenvalues[0]) > 1e9

    def test_lambda1_is_the_plus_root(self):
        result = floquet_exponent(GAP_CELL, 1.0)
        tr = 2.0 * result.half_trace
        assert result.eigenvalues[0] == pytest.approx(0.5 * (tr + cmath.sqrt(tr * tr - 4.0)), rel=1e-12)
        assert abs(result.eigenvalues[0]) < 1.0 < abs(result.eigenvalues[1])

    def test_overflowing_period_matrix_rejected(self):
        # The product overflows; the suite turns a leaked RuntimeWarning into an error.
        with pytest.raises(DomainError, match="no finite nonzero Floquet eigenvalues"):
            floquet_exponent(GAP_CELL * 2000, 1.0)

    @pytest.mark.parametrize("cell, omega, message", [
        # The first dwell phase 1e10 * 1e300 overflows; the eigen-step used to name only a NaN trace.
        ([TimelineSegment(VACUUM, 1e300), TimelineSegment(DENSE, 1.0)], 1e10,
         "segment 0: phase |omega|*duration must be finite, got omega=10000000000.0, duration=1e+300"),
        # The second segment's frequency is halved by the switch into DENSE, and its phase still overflows.
        ([TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 1e300), TimelineSegment(VACUUM, 1e300)], 1e10,
         "segment 1: phase |omega|*duration must be finite, got omega=5000000000.0, duration=1e+300"),
    ], ids=["first-segment", "after-a-switch"])
    def test_overflowing_dwell_phase_is_named(self, cell, omega, message):
        with pytest.raises(DomainError) as raised:
            floquet_exponent(cell, omega)
        assert str(raised.value) == message

    def test_trace_modulus_overflow_rejected(self):
        # Both parts of the trace are finite, but its modulus is beyond the float range.
        net = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="no finite nonzero Floquet eigenvalues"):
            floquet_from_net([TimelineSegment(VACUUM, 1.0)], net)

    def test_overflowing_net_matrix_rejected_without_a_numpy_warning(self):
        # The closing interface's product overflows; the suite turns a leaked RuntimeWarning into an error.
        net = np.full((2, 2), 1e308, dtype=complex)
        with pytest.raises(DomainError, match="no finite nonzero Floquet eigenvalues"):
            floquet_from_net(GAP_CELL, net)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.floats(0.2, 10.0), st.floats(0.2, 10.0), st.booleans(), st.floats(0.05, 3.0)
            ),
            min_size=2,
            max_size=4,
        ),
        repeats=st.integers(1, 60),
        omega=st.floats(0.3, 3.0),
    )
    @example(segments=[(1.0, 1.0, False, 2.0), (9.0, 1.0, False, 1.5)], repeats=50, omega=1.0)
    def test_random_closed_cells(self, segments, repeats, omega):
        # Positive and double-negative media; repeating a gap cell amplifies strongly.
        cell = [
            TimelineSegment(MediumState(-eps, -mu, -1) if negative else MediumState(eps, mu), duration)
            for eps, mu, negative, duration in segments
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalDegeneracyWarning)
            result = floquet_exponent(cell * repeats, omega)
        assert_floquet_invariants(result)
        matrix = result.period_matrix
        scale = float(np.max(np.abs(matrix)))
        assert abs(np.linalg.det(matrix) - 1.0) <= 1e-9 + 1e-12 * scale**2


def through(step, entries):
    """An interface matrix [[t, r], [r, t]] times row-major ``entries`` as four row sums, the cascade's arithmetic."""
    (t, r), _ = step.tolist()
    a, b, c, d = entries
    return [t * a + r * c, t * b + r * d, r * a + t * c, r * b + t * d]


def events(segments, omega):
    """(kind, segment index, matrix, frequency after it) of each event, from propagate and interface_matrix."""
    for j, segment in enumerate(segments):
        yield "propagate", j, propagate(omega, segment.duration), omega
        if j + 1 < len(segments):
            before, after = segment.medium, segments[j + 1].medium
            _, factor, _, _ = scatter_kernel(
                1.0, before.epsilon, before.mu, before.branch, after.epsilon, after.mu, after.branch
            )
            omega *= factor
            yield "interface", j, interface_matrix(before, after), omega


def reference_product(segments, omega, close=False):
    """Event-by-event product in Python complex numbers: net matrix, final omega, trace rows.

    The cascade keeps the net matrix as four complex numbers in one pass
    and reads the amplitudes off its first column; this takes each event's
    matrix from propagate and interface_matrix, applies it as a dwell
    (diag(p, q) scales the rows) or an interface (``through``), and carries
    the amplitudes from (1, 0) as their own pair, to check those bits.
    """
    net, amps, rows = [1 + 0j, 0j, 0j, 1 + 0j], [1 + 0j, 0j], []
    for kind, j, step, omega in events(segments, omega):
        if kind == "propagate":
            (p, _), (_, q) = step.tolist()
            net, amps = [p * net[0], p * net[1], q * net[2], q * net[3]], [p * amps[0], q * amps[1]]
        else:
            (t, r), _ = step.tolist()
            net, amps = through(step, net), [t * amps[0] + r * amps[1], r * amps[0] + t * amps[1]]
        rows.append((kind, j, omega, *amps))
    if close and segments[-1].medium != segments[0].medium:
        net = through(interface_matrix(segments[-1].medium, segments[0].medium), net)
    return np.reshape(net, (2, 2)), omega, rows


def blas_product(segments, omega):
    """Event-by-event product through numpy's ``@`` (BLAS): net matrix, the amplitudes after each event, and the
    largest entry of the net matrix so far after each event."""
    net, amps, rows, sizes = np.eye(2, dtype=np.complex128), np.array([1.0, 0.0], dtype=np.complex128), [], []
    for _, _, step, _ in events(segments, omega):
        net, amps = step @ net, step @ amps
        rows.append(amps)
        sizes.append(np.max(np.abs(net)))
    return net, np.array(rows), np.maximum.accumulate(sizes)


def same_bits(a, b) -> bool:
    """Equal to the bit, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def medium_from(eps, mu, negative):
    return MediumState(-eps, -mu, -1) if negative else MediumState(eps, mu)


MEDIA = st.tuples(st.floats(0.2, 10.0), st.floats(0.2, 10.0), st.booleans())
DURATIONS = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


@st.composite
def timelines(draw, max_size=60):
    """Timelines of 1..max_size segments over a pool of 1..4 media, so media repeat."""
    pool = draw(st.lists(MEDIA, min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), DURATIONS), min_size=1, max_size=max_size))
    return [TimelineSegment(medium_from(*pool[i]), duration) for i, duration in picks]


class TestOnePassProduct:
    """The one-pass product equals the per-event loop to the bit, and numpy's ``@`` to rounding."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(segments=timelines(), omega=st.floats(0.3, 3.0))
    @example(segments=[TimelineSegment(VACUUM, 0.0)], omega=1.0)
    @example(segments=[TimelineSegment(VACUUM, 1.0), TimelineSegment(DOUBLE_NEGATIVE, 0.0)] * 30, omega=1.0)
    def test_bit_identical_to_event_loop(self, segments, omega):
        net, omega_final, rows = reference_product(segments, omega)
        result = cascade_scatter(segments, PlaneWave(Y_HAT.astype(complex), omega, X_HAT, wave_speed(segments[0].medium)))
        assert same_bits(result.net_matrix, net)
        assert same_bits(result.omega_final, omega_final)
        assert list(zip(*cascade_module._event_labels(len(result.trace_omega)))) == [row[:2] for row in rows]
        assert same_bits(result.trace_omega, [row[2] for row in rows])
        assert same_bits(result.trace_amplitudes, [row[3:] for row in rows])
        assert same_bits([result.amplitudes.forward, result.amplitudes.backward], rows[-1][3:])
        if sum(segment.duration for segment in segments) > 0.0:
            period_matrix = floquet_exponent(segments, omega).period_matrix
            assert same_bits(period_matrix, reference_product(segments, omega, close=True)[0])

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(segments=timelines(), omega=st.floats(0.3, 3.0))
    @example(segments=[TimelineSegment(VACUUM, 1.0), TimelineSegment(DOUBLE_NEGATIVE, 0.0)] * 30, omega=1.0)
    @example(segments=[TimelineSegment(VACUUM, 2.0), TimelineSegment(STRONG, 1.5)] * 30, omega=1.0)
    def test_close_to_the_blas_event_loop(self, segments, omega):
        # An independent check of the arithmetic: the same events multiplied by numpy's @, which BLAS
        # rounds its own way. Relative to the largest entry of the net matrix so far, the two differ
        # by at most 1.9 eps per event over 10,000 random timelines of up to 60 segments; the bound allows 4.
        net, rows, sizes = blas_product(segments, omega)
        incident = PlaneWave(Y_HAT.astype(complex), omega, X_HAT, wave_speed(segments[0].medium))
        result = cascade_scatter(segments, incident)
        bound = 4 * np.finfo(float).eps * np.arange(1, len(rows) + 1) * sizes
        assert np.max(np.abs(result.net_matrix - net)) <= bound[-1]
        assert np.all(np.max(np.abs(result.trace_amplitudes - rows), axis=1) <= bound)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(segments=timelines(), omega=st.floats(0.3, 3.0))
    @example(segments=[TimelineSegment(VACUUM, 1.0), TimelineSegment(DENSE, 0.7), TimelineSegment(DOUBLE_NEGATIVE, 0.4)],
             omega=1.0)
    def test_period_matrix_keeps_the_lossless_form(self, segments, omega):
        # Real t and r and conjugate dwell phases keep every product [[A, B], [conj(B), conj(A)]] to the bit,
        # so the trace is real; numpy's @ left an imaginary part of a few ulp in it.
        assume(sum(segment.duration for segment in segments) > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalDegeneracyWarning)
            result = floquet_exponent(segments, omega)
        (a, b), (c, d) = result.period_matrix.tolist()
        assert (d, c) == (a.conjugate(), b.conjugate())
        assert result.half_trace.imag == 0.0

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(segments=timelines(max_size=12), omega=st.floats(0.3, 3.0))
    def test_floquet_exponent_and_floquet_from_net_agree_to_the_bit(self, segments, omega):
        assume(sum(segment.duration for segment in segments) > 0.0)
        incident = PlaneWave(Y_HAT.astype(complex), omega, X_HAT, wave_speed(segments[0].medium))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalDegeneracyWarning)
            direct = floquet_exponent(segments, omega)
            from_net = floquet_from_net(segments, cascade_scatter(segments, incident).net_matrix)
        for field in ("period_matrix", "eigenvalues", "exponents", "half_trace", "momentum_gap", "period"):
            assert same_bits(getattr(direct, field), getattr(from_net, field)), field

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(segments=timelines(max_size=12), omega=st.floats(0.3, 3.0))
    def test_equal_media_give_the_bits_of_shared_media(self, segments, omega):
        # Each distinct interface is solved once per call, keyed on the media's values: one
        # object per distinct medium and a fresh object per segment must give the same bits.
        shared = {}
        shared_segments = [TimelineSegment(shared.setdefault(s.medium, s.medium), s.duration) for s in segments]
        distinct = [TimelineSegment(MediumState(s.medium.epsilon, s.medium.mu, s.medium.branch), s.duration)
                    for s in segments]
        incident = PlaneWave(Y_HAT.astype(complex), omega, X_HAT, wave_speed(segments[0].medium))
        results = [cascade_scatter(timeline, incident) for timeline in (shared_segments, distinct)]
        for field in ("net_matrix", "omega_final", "trace_omega", "trace_amplitudes"):
            assert same_bits(getattr(results[0], field), getattr(results[1], field)), field
        if sum(segment.duration for segment in segments) > 0.0:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericalDegeneracyWarning)
                matrices = [floquet_exponent(timeline, omega).period_matrix for timeline in (shared_segments, distinct)]
            assert same_bits(*matrices)

    def test_trace_columns_match_trace_steps(self):
        timeline = [TimelineSegment(VACUUM, 0.4), TimelineSegment(DENSE, 0.0), TimelineSegment(STRONG, 1.1)]
        result = cascade_scatter(timeline, vacuum_wave(1.2))
        assert list(zip(*cascade_module._event_labels(5))) == [
            ("propagate", 0), ("interface", 0), ("propagate", 1), ("interface", 1), ("propagate", 2)
        ]
        assert result.trace_amplitudes.shape == (5, 2) and not result.trace_amplitudes.flags.writeable
        assert isinstance(result.trace_omega, tuple) and len(result.trace_omega) == 5
        assert result.trace_omega[-1] == result.omega_final
        assert result.trace_amplitudes[-1].tolist() == [result.amplitudes.forward, result.amplitudes.backward]
        assert not hasattr(result, "trace")

    def test_interior_degenerate_interface_message(self):
        # v+/v- overflows: a DomainError naming the ratio, not a degenerate interface with omega2 = -omega3 = inf.
        cell = [TimelineSegment(MediumState(1e154, 1e154), 1.0), TimelineSegment(MediumState(1e-162, 1e-161), 1.0)]
        with pytest.raises(DomainError) as raised:
            floquet_exponent(cell, 1.0)
        assert str(raised.value) == "speed ratio |v+/v-| = |3.181212452095196e+161 / 1e-154| exceeds the float range"

    def test_overflowing_speed_ratio_is_a_domain_error_on_every_path(self):
        before, after = MediumState(1e154, 1e154), MediumState(2.3e-162, 2.3e-162)
        cell = [TimelineSegment(before, 1.0), TimelineSegment(after, 1.0)]
        incident = PlaneWave(Y_HAT.astype(complex), 1.0, X_HAT, wave_speed(before))
        message = r"^speed ratio \|v\+/v-\| = \|4\.4989137945431964e\+161 / 1e-154\| exceeds the float range$"
        for call in (lambda: coefficients(before, after), lambda: cascade_scatter(cell, incident),
                     lambda: floquet_exponent(cell, 1.0)):
            with pytest.raises(DomainError, match=message):
                call()

    def test_overflowing_interface_is_named(self):
        # The switch into the last medium overflows r and t; the closing switch back to vacuum does not.
        cell = [TimelineSegment(VACUUM, 1.0), TimelineSegment(MediumState(1e30, 1e-320), 1.0),
                TimelineSegment(MediumState(-1e-320, -0.5), 1.0)]
        for call in (lambda: cascade_scatter(cell, vacuum_wave()), lambda: floquet_exponent(cell, 1.0)):
            with pytest.raises(DomainError, match="^interface 1: amplitude must be finite$"):
                call()

    @pytest.mark.parametrize("failing, message", [
        (DENSE, "interface 1 is degenerate: no unique interface matrix: kernel says no"),
        (VACUUM, "no unique interface matrix: kernel says no"),
    ], ids=["interior", "closing"])
    def test_degenerate_interface_messages(self, monkeypatch, failing, message):
        # The kernel fails only on the switch into ``failing``: interior interface 1, or the closing one.
        kernel = cascade_module.scatter_kernel

        def picky_kernel(omega1, eps_minus, mu_minus, branch_minus, eps_plus, *rest):
            if (eps_minus, eps_plus) == (STRONG.epsilon, failing.epsilon):
                raise DegenerateCaseError("kernel says no")
            return kernel(omega1, eps_minus, mu_minus, branch_minus, eps_plus, *rest)

        monkeypatch.setattr(cascade_module, "scatter_kernel", picky_kernel)
        cell = [TimelineSegment(VACUUM, 1.0), TimelineSegment(STRONG, 1.0)]
        if failing is DENSE:
            cell.append(TimelineSegment(DENSE, 1.0))
        with pytest.raises(DegenerateCaseError) as raised:
            floquet_exponent(cell, 1.0)
        assert str(raised.value) == message


class TestTimelineProperties:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(medium=MEDIA, durations=st.lists(DURATIONS, min_size=1, max_size=60), omega=st.floats(0.3, 3.0))
    def test_equal_media_are_pure_phase(self, medium, durations, omega):
        medium = medium_from(*medium)
        timeline = [TimelineSegment(MediumState(medium.epsilon, medium.mu, medium.branch), d) for d in durations]
        result = cascade_scatter(timeline, PlaneWave(Y_HAT.astype(complex), omega, X_HAT, wave_speed(medium)))
        assert result.omega_final == omega
        assert result.amplitudes.backward == 0.0
        assert abs(abs(result.amplitudes.forward) - 1.0) <= 1e-12 * len(timeline)
        assert np.all(result.trace_amplitudes[:, 1] == 0.0)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(before=MEDIA, after=MEDIA, omega1=st.floats(0.01, 100.0), transmitted=st.sampled_from(["forward", "backward"]))
    def test_factors_sum_to_permittivity_ratio(self, before, after, omega1, transmitted):
        # B_r + B_t = (eps-/eps+) B_i, from the continuity of D.
        before, after = medium_from(*before), medium_from(*after)
        conv = FrequencyConvention(transmitted=transmitted)
        _, _, r, t = scatter_kernel(
            omega1, before.epsilon, before.mu, before.branch, after.epsilon, after.mu, after.branch, conv
        )
        ratio = before.epsilon / after.epsilon
        assert abs(r + t - ratio) <= 1e-14 * (abs(r) + abs(t) + abs(ratio))


def long_trace(count=200, seed=6):
    """A fixed trace of ``count`` segments, every third-or-so double-negative, as TestMomentumLaw draws them."""
    rng = np.random.default_rng(seed)
    return [(*rng.uniform(0.5, 4.0, 2).tolist(), int(rng.integers(0, 10)), float(rng.uniform(0.0, 3.0)))
            for _ in range(count)]


class TestMomentumLaw:
    """The field momentum of one mode is conserved through any timeline (the media are uniform in space).

    For E-field amplitudes (f, b) in a medium of permittivity eps and speed v
    it is P = (eps/|v|)(|f|**2 - |b|**2); the law uses none of the interface
    algebra, so it checks that algebra independently.
    """

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(
        segments=st.lists(
            st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.integers(0, 9), DURATIONS), min_size=1, max_size=200
        ),
        omega=st.floats(0.3, 3.0),
    )
    @example(segments=long_trace(), omega=1.0)
    def test_momentum_is_conserved_along_the_trace(self, segments, omega):
        # About 30 % of the segments are double-negative. Each event adds a rounding error of about
        # 1.6 ulp of (|eps|/|v|)(|f|**2 + |b|**2) at most (calibrated over 1,000 random traces of up
        # to 200 segments); the bound allows 8.
        timeline = [TimelineSegment(medium_from(eps, mu, draw < 3), d) for eps, mu, draw, d in segments]
        first = timeline[0].medium
        result = cascade_scatter(timeline, PlaneWave(Y_HAT.astype(complex), omega, X_HAT, wave_speed(first)))
        P0 = first.epsilon / abs(wave_speed(first))
        for k, (f, b) in enumerate(result.trace_amplitudes.tolist()):
            medium = timeline[(k + 1) // 2].medium  # dwell k // 2 for even k, the interface into (k + 1) // 2 for odd k
            weight = medium.epsilon / abs(wave_speed(medium))
            P, S = weight * (abs(f) ** 2 - abs(b) ** 2), abs(weight) * (abs(f) ** 2 + abs(b) ** 2)
            assert abs(P - P0) <= 8 * np.finfo(float).eps * (k + 1) * S
