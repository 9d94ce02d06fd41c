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

from . import cascade, errors, media, oracle, scatter, verify, waves
from .cascade import *
from .errors import *
from .media import *
from .oracle import *
from .scatter import *
from .verify import *
from .waves import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package exports their union.
__all__ = []
__all__ += errors.__all__
__all__ += media.__all__
__all__ += waves.__all__
__all__ += scatter.__all__
__all__ += oracle.__all__
__all__ += cascade.__all__
__all__ += verify.__all__
