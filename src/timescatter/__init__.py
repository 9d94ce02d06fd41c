"""Scattering of electromagnetic plane waves at temporal interfaces.

A temporal interface is an instant at which the permittivity and
permeability of a spatially uniform medium change while a wave is
present: the time-domain analogue of a spatial boundary.  The wave
splits into a transmitted and a reflected part, both living after the
switch; the wavelength is preserved while the frequency rescales with
the phase speed, and the sum of the reflection and transmission
coefficients is set by the impedance contrast rather than pinned to 1.

The package provides the closed-form single-interface solver, an
independent ODE oracle that integrates the exact mode equations through
smoothly ramped switches, transfer-matrix composition of interface
sequences (including photonic-time-crystal Floquet diagnostics), and
executable checks of the exponential-independence argument underlying
the frequency matching.  Units: c = 1; epsilon and mu are relative.
"""

from .errors import (
    AmbiguityError,
    ConfigError,
    ConsistencyError,
    ConstraintError,
    DegenerateCaseError,
    DomainError,
    NoSolutionError,
    NumericalDegeneracyWarning,
    ResolutionError,
    StiffnessError,
    TimescatterError,
)
from .media import (
    VACUUM,
    MediumState,
    TemporalProfile,
    impedance,
    refractive_index,
    wave_speed,
)
from .waves import (
    PlaneWave,
    evaluate_E,
    magnetic_from_electric,
    phase_vector,
    transversality_residual,
)
from .scatter import (
    DEFAULT_CONVENTION,
    FrequencyConvention,
    ScatteringResult,
    amplitudes,
    boundary_residual,
    coefficients,
    degenerate_amplitude,
    frequencies,
    scatter_grid,
    scatter_interface,
    scatter_kernel,
    swapped_coefficients,
    wave_vectors,
)
from .oracle import (
    ConvergenceStudy,
    ModeAmplitudes,
    ModeState,
    convergence_study,
    integrate,
    mode_decompose,
    mode_reconstruct,
    mode_rhs,
    numeric_rt,
    plane_wave_mode_state,
)
from .cascade import (
    CascadeResult,
    FloquetResult,
    TimelineSegment,
    cascade_scatter,
    floquet_exponent,
    floquet_from_net,
    interface_matrix,
    propagate,
)
from .verify import (
    ExponentialSum,
    assert_forced_equality,
    canonical_grid,
    sum_residual,
    vandermonde_product,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "CascadeResult",
    "ConfigError",
    "ConsistencyError",
    "ConstraintError",
    "ConvergenceStudy",
    "DEFAULT_CONVENTION",
    "DegenerateCaseError",
    "DomainError",
    "ExponentialSum",
    "FloquetResult",
    "FrequencyConvention",
    "MediumState",
    "ModeAmplitudes",
    "ModeState",
    "NoSolutionError",
    "NumericalDegeneracyWarning",
    "PlaneWave",
    "ResolutionError",
    "ScatteringResult",
    "StiffnessError",
    "TemporalProfile",
    "TimelineSegment",
    "TimescatterError",
    "VACUUM",
    "amplitudes",
    "assert_forced_equality",
    "boundary_residual",
    "canonical_grid",
    "cascade_scatter",
    "coefficients",
    "convergence_study",
    "degenerate_amplitude",
    "evaluate_E",
    "floquet_exponent",
    "floquet_from_net",
    "frequencies",
    "impedance",
    "integrate",
    "interface_matrix",
    "magnetic_from_electric",
    "mode_decompose",
    "mode_reconstruct",
    "mode_rhs",
    "numeric_rt",
    "phase_vector",
    "plane_wave_mode_state",
    "propagate",
    "refractive_index",
    "scatter_grid",
    "scatter_interface",
    "scatter_kernel",
    "sum_residual",
    "swapped_coefficients",
    "transversality_residual",
    "vandermonde_product",
    "wave_speed",
    "wave_vectors",
]
