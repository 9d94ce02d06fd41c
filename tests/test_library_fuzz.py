"""Library fuzz: every public entry point returns finite values or raises a TimescatterError.

Each argument is drawn from extreme floats: zeros, subnormals, 1e-200 and
1e-30, small numbers, 1e30, 1e200, 1e308, infinities and NaN, of both
signs.  A call, the construction of its arguments included, must return
only finite numbers or raise a :class:`TimescatterError`, and must emit no
warning.  The draws are derandomized, so a failure reproduces.

``integrate`` runs on profiles whose switch intervals are declared, and
``numeric_rt`` on ramps between moderate media: over an unbounded span a
profile that declares no switch intervals, or a ramp that holds many
oscillations, takes the integrator's full step allowance, which is slow
rather than wrong.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timescatter import (
    ExponentialSum,
    MediumState,
    ModeAmplitudes,
    ModeState,
    PlaneWave,
    TemporalProfile,
    TimelineSegment,
    TimescatterError,
    amplitudes,
    assert_forced_equality,
    boundary_residual,
    canonical_grid,
    cascade_scatter,
    coefficients,
    degenerate_amplitude,
    evaluate_E,
    floquet_exponent,
    floquet_from_net,
    frequencies,
    impedance,
    integrate,
    interface_matrix,
    magnetic_from_electric,
    mode_decompose,
    mode_reconstruct,
    numeric_rt,
    phase_vector,
    plane_wave_mode_state,
    propagate,
    refractive_index,
    scatter_interface,
    scatter_kernel,
    sum_residual,
    swapped_coefficients,
    vandermonde_product,
    wave_speed,
    wave_vectors,
)

MAGNITUDES = [1e-320, 1e-200, 1e-30, 0.5, 1.0, 2.0, 4.0, 1e30, 1e200, 1e308, math.inf]
EXTREME = st.sampled_from([0.0, -0.0, math.nan] + [sign * x for x in MAGNITUDES for sign in (1.0, -1.0)])
MODERATE = st.sampled_from([0.5, 1.0, 2.0, 4.0])
BRANCH = st.sampled_from([1, -1])
X_HAT = [1.0, 0.0, 0.0]


def finite(value):
    """Whether every number in a result (numbers, arrays, sequences, dataclasses) is finite."""
    if value is None or isinstance(value, (str, bool, np.bool_)):
        return True
    if isinstance(value, (int, float, complex, np.number)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


def medium(draw):
    """A medium from extreme parameters: half of the draws take one sign for both, and the matching branch."""
    epsilon, mu = draw(EXTREME), draw(EXTREME)
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        epsilon, mu = sign * abs(epsilon), sign * abs(mu)
        return MediumState(epsilon, mu, -1 if sign < 0 else 1)
    return MediumState(epsilon, mu, draw(BRANCH))


def vector(draw, values=EXTREME):
    return [draw(values) for _ in range(3)]


def complex_vector(draw):
    return [complex(draw(EXTREME), draw(EXTREME)) for _ in range(3)]


def wave(draw, before=None):
    """A wave along x with a y amplitude; its speed is the medium's in half of the draws that give one."""
    v = wave_speed(before) if before is not None and draw(st.booleans()) else draw(EXTREME)
    return PlaneWave([0.0, complex(draw(EXTREME), draw(EXTREME)), 0.0], draw(EXTREME), X_HAT, v)


def profile(draw):
    """A profile that declares its switch intervals: constant, step, ramp or periodic."""
    before, after = medium(draw), medium(draw)
    kind = draw(st.sampled_from(["constant", "step", "ramp", "periodic"]))
    if kind == "constant":
        return TemporalProfile.constant(before)
    if kind == "step":
        return TemporalProfile.step(before, after, t0=draw(EXTREME))
    if kind == "ramp":  # a ramp no wider than 4 holds few oscillations at |m| <= 4 and fails fast above
        return TemporalProfile.ramp(before, after, t0=draw(EXTREME), tau=draw(st.sampled_from(MAGNITUDES[:7])))
    return TemporalProfile.periodic(before, after, t0=draw(EXTREME), period=draw(EXTREME), duty=0.5)


def timeline(draw):
    return [TimelineSegment(medium(draw), draw(EXTREME)) for _ in range(draw(st.integers(1, 3)))]


def scattered(draw):
    before, after = medium(draw), medium(draw)
    return scatter_interface(wave(draw, before), TemporalProfile.step(before, after, t0=draw(EXTREME)))


def mode_state(draw):
    """A mode state at an extreme time: of extreme components, or of unit ones in half of the draws."""
    if draw(st.booleans()):
        return ModeState([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], draw(EXTREME))
    return ModeState(complex_vector(draw), complex_vector(draw), draw(EXTREME))


def mode_vector(draw):
    """A phase vector of extreme components, or along x in half of the draws."""
    return [draw(EXTREME), 0.0, 0.0] if draw(st.booleans()) else vector(draw)


def exponential_sum(draw):
    terms = draw(st.integers(1, 3))
    return ExponentialSum([complex_vector(draw) for _ in range(terms)], [draw(EXTREME) for _ in range(terms)])


def ramp_rt(draw):
    """numeric_rt through a ramp between moderate media, of a moderate width and frequency."""
    before = MediumState(draw(MODERATE), draw(MODERATE))
    after = MediumState(draw(MODERATE), draw(MODERATE))
    incident = PlaneWave([0.0, complex(draw(EXTREME), draw(EXTREME)), 0.0], draw(MODERATE), X_HAT, wave_speed(before))
    ramp = TemporalProfile.ramp(before, after, t0=draw(EXTREME), tau=draw(MODERATE) * incident.period)
    return numeric_rt(ramp, incident, tol=1e-6)


CALLS = {
    "MediumState": medium,
    "wave_speed": lambda draw: wave_speed(medium(draw)),
    "refractive_index": lambda draw: refractive_index(medium(draw)),
    "impedance": lambda draw: impedance(medium(draw)),
    "coefficients": lambda draw: coefficients(medium(draw), medium(draw)),
    "swapped_coefficients": lambda draw: swapped_coefficients(medium(draw), medium(draw)),
    "scatter_kernel": lambda draw: scatter_kernel(
        draw(EXTREME), draw(EXTREME), draw(EXTREME), draw(BRANCH), draw(EXTREME), draw(EXTREME), draw(BRANCH)
    ),
    "frequencies": lambda draw: frequencies(draw(EXTREME), draw(EXTREME), draw(EXTREME)),
    "wave_vectors": lambda draw: wave_vectors(X_HAT, *(draw(EXTREME) for _ in range(5))),
    "amplitudes": lambda draw: amplitudes(complex_vector(draw), *(draw(EXTREME) for _ in range(5))),
    "degenerate_amplitude": lambda draw: degenerate_amplitude(complex_vector(draw), *(draw(EXTREME) for _ in range(4))),
    "sample": lambda draw: profile(draw).sample(draw(EXTREME)),
    "PlaneWave": wave,
    "evaluate_E": lambda draw: evaluate_E(wave(draw), vector(draw), draw(EXTREME)),
    "magnetic_from_electric": lambda draw: magnetic_from_electric(wave(draw), draw(EXTREME)),
    "phase_vector": lambda draw: phase_vector(wave(draw)),
    "scatter_interface": scattered,
    "boundary_residual": lambda draw: boundary_residual(scattered(draw), [vector(draw), vector(draw)]),
    "interface_matrix": lambda draw: interface_matrix(medium(draw), medium(draw)),
    "propagate": lambda draw: propagate(draw(EXTREME), draw(EXTREME)),
    "cascade_scatter": lambda draw: cascade_scatter(timeline(draw), wave(draw)),
    "floquet_exponent": lambda draw: floquet_exponent(timeline(draw), draw(EXTREME)),
    "floquet_from_net": lambda draw: floquet_from_net(
        timeline(draw), [[complex(draw(EXTREME), draw(EXTREME)) for _ in range(2)] for _ in range(2)]
    ),
    "ModeState": mode_state,
    "plane_wave_mode_state": lambda draw: plane_wave_mode_state(wave(draw), medium(draw), draw(EXTREME)),
    "mode_decompose": lambda draw: mode_decompose(mode_state(draw), medium(draw), mode_vector(draw)),
    "mode_reconstruct": lambda draw: mode_reconstruct(
        ModeAmplitudes(complex(draw(EXTREME)), complex(draw(EXTREME)), complex_vector(draw)),
        medium(draw), vector(draw), draw(EXTREME),
    ),
    "integrate": lambda draw: integrate(profile(draw), mode_vector(draw), mode_state(draw), draw(EXTREME)),
    "numeric_rt": ramp_rt,
    "vandermonde_product": lambda draw: vandermonde_product([draw(EXTREME) for _ in range(draw(st.integers(1, 4)))]),
    "canonical_grid": lambda draw: canonical_grid([draw(EXTREME) for _ in range(draw(st.integers(1, 4)))]),
    "ExponentialSum.evaluate": lambda draw: exponential_sum(draw).evaluate([draw(EXTREME), draw(EXTREME)]),
    "sum_residual": lambda draw: sum_residual(exponential_sum(draw), [draw(EXTREME), draw(EXTREME)]),
    "assert_forced_equality": lambda draw: assert_forced_equality(exponential_sum(draw), draw(EXTREME)),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_finite_result_or_timescatter_error(name, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = CALLS[name](data.draw)
        except TimescatterError:
            return
    assert finite(result), result


LEAKS = {  # inputs on which a call leaked a Python error, a numpy warning or a non-finite value
    "frequencies overflow": lambda: frequencies(1e200, 1e-320, 1e-200),
    "frequencies of NaN speeds": lambda: frequencies(1.0, math.nan, math.nan),
    "wave_vectors of zero speeds": lambda: wave_vectors(X_HAT, 0.0, 0.0, 0.0, 0.0, 0.0),
    "amplitudes of a zero frequency": lambda: amplitudes([0.0, 1.0, 0.0], 1.0, 0.0, 1.0, 1.0, 1.0),
    "amplitudes with q2 = q3 by underflow": lambda: amplitudes([0.0, 1.0, 0.0], 1e-320, 1e30, -1e30, 0.0, math.nan),
    "degenerate_amplitude of eps_plus 0": lambda: degenerate_amplitude([0.0, 1.0, 0.0], 0.0, 0.0, 0.0, 0.0),
    "periodic sample at inf": lambda: TemporalProfile.periodic(MediumState(1, 1), MediumState(4, 1)).sample(math.inf),
    "periodic sample past the float range": lambda: TemporalProfile.periodic(
        MediumState(1, 1), MediumState(4, 1), t0=-1e308
    ).sample(1e308),
    "step sample at NaN": lambda: TemporalProfile.step(MediumState(1, 1), MediumState(4, 1)).sample(math.nan),
    "plane_wave_mode_state with mu * v = 0": lambda: plane_wave_mode_state(
        PlaneWave([0.0, 1e-320, 0.0], 1e-320, X_HAT, 1e-320), MediumState(0.5, 1e-320), 0.0
    ),
    "magnetic_from_electric with mu * v = 0": lambda: magnetic_from_electric(
        PlaneWave([0.0, 1e-320j, 0.0], 1e-320, X_HAT, 1e-320), 1e-320
    ),
    "mode_decompose overflow": lambda: mode_decompose(
        ModeState([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], 0.0), MediumState(1e-320, 0.5), [1e-30, 0.0, 0.0]
    ),
    "integrate over a subnormal period": lambda: integrate(
        TemporalProfile.periodic(MediumState(1e-320, 0.5), MediumState(1e-320, 0.5), period=1e-320),
        [1e-30, 0.0, 0.0], ModeState([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], 0.0), 0.5,
    ),
    "integrate across the float range": lambda: integrate(
        TemporalProfile.step(MediumState(1, 1), MediumState(4, 1)),
        [4.0, 0.0, 0.0], ModeState([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], -1e308), 1e308,
    ),
    "floquet_from_net of a 3x3 matrix": lambda: floquet_from_net([TimelineSegment(MediumState(1, 1), 1.0)], np.eye(3)),
    "floquet_from_net of a 1x2 matrix": lambda: floquet_from_net([TimelineSegment(MediumState(1, 1), 1.0)], [[1.0, 0.0]]),
    "floquet_from_net of a ragged list": lambda: floquet_from_net(
        [TimelineSegment(MediumState(1, 1), 1.0), TimelineSegment(MediumState(4, 1), 1.0)], [[1.0, 0.0], [0.0]]
    ),
    "scatter_interface amplitude overflow": lambda: scatter_interface(
        PlaneWave([0.0, 1e200j, 0.0], 1e-200, X_HAT, wave_speed(MediumState(0.5, 1e-320))),
        TemporalProfile.step(MediumState(0.5, 1e-320), MediumState(1e-200, 1e-30)),
    ),
}


@pytest.mark.parametrize("name", LEAKS)
def test_found_leak_raises_a_timescatter_error(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TimescatterError):
            LEAKS[name]()
