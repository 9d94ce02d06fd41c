"""Plane-wave fields: evaluation, magnetic-field construction, transversality.

A plane wave is A * exp(i*omega*(k.x/v - t)) with a complex 3-vector
amplitude A, real nonzero frequency omega, real unit wave vector k and a
signed phase speed v.  Polarization (linear, circular, elliptic) lives in
the complex amplitude; there is no separate polarization type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, reject

__all__ = [
    "PlaneWave",
    "evaluate_E",
    "magnetic_from_electric",
    "transversality_residual",
    "phase_vector",
]

_UNIT_TOL = 1e-12
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # component i of a x k is a[_NEXT]k[_PREV] - a[_PREV]k[_NEXT]


def _vector3(values, name: str, dtype=complex, finite: bool = True) -> np.ndarray:
    """A read-only copy of a complex (dtype=float: real) 3-vector; DomainError naming it if malformed."""
    arr = np.array(values, dtype=dtype)
    if arr.shape != (3,):
        raise DomainError(f"{name} must be a {'real ' if dtype is float else ''}3-vector, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _rescaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v * 2**e, e), exact: e = 0 unless the squares in |v| would overflow or lose digits.

    Otherwise max|v_i| * 2**e is in [1, 2).  ``v`` is a float or complex ndarray.
    """
    parts = v.view(np.float64)  # the real and imaginary parts of a complex v
    peak = float(np.max(np.abs(parts)))
    if peak == 0.0 or 2.0**-500 <= peak <= 2.0**500:
        return v, 0
    e = 1 - math.frexp(peak)[1]
    return np.ldexp(parts, e).view(v.dtype), e


def _norm(v: np.ndarray, axis=None):
    """np.linalg.norm(v, axis=axis), a float for axis None, on _rescaled(v): the same bits where not rescaled."""
    if axis is None and v.ndim == 1 and 2.0**-500 <= max(map(abs, v.view(np.float64).tolist())) <= 2.0**500:
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))  # np.linalg.norm's own sum; no square overflows
    scaled, e = _rescaled(v)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        norm = np.ldexp(np.linalg.norm(scaled, axis=axis), -e)
    return float(norm) if axis is None else norm


@dataclass(frozen=True, eq=False)
class PlaneWave:
    """Monochromatic plane wave with complex vector amplitude.

    Zero amplitudes are rejected: a scattered branch that vanishes is
    represented by ``None`` in results, not by a zero wave.
    """

    amplitude: np.ndarray
    omega: float
    k: np.ndarray
    v: float

    def __post_init__(self):
        amp = _vector3(self.amplitude, "amplitude")
        k = _vector3(self.k, "k", float)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "v", float(self.v))
        if not amp.any():  # a norm would overflow for huge amplitudes
            raise DomainError("zero amplitude rejected at construction")
        norm = math.hypot(*k.tolist())  # neither over- nor underflows, unlike np.linalg.norm
        if abs(norm - 1.0) > _UNIT_TOL:
            raise DomainError(f"|k| must be 1 within {_UNIT_TOL}, got {norm}")
        if self.omega == 0.0 or not math.isfinite(self.omega):
            raise DomainError("omega must be a nonzero finite real")
        if self.v == 0.0 or not math.isfinite(self.v):
            raise DomainError("phase speed v must be a nonzero finite real")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / abs(self.omega)


def _phase(w: PlaneWave, x: np.ndarray, t: float):
    """i*omega*(k.x/v - t) at float position(s) x, one per row of an (N, 3) batch."""
    return 1j * w.omega * (x @ w.k / w.v - t)


def _magnetic_amplitude(w: PlaneWave, mu: float) -> np.ndarray:
    """H amplitude -(1/mu) A x k / v of a transversal plane wave; np.cross's products and differences, its bits."""
    return -(w.amplitude[_NEXT] * w.k[_PREV] - w.amplitude[_PREV] * w.k[_NEXT]) / (mu * w.v)


def evaluate_E(w: PlaneWave, x, t: float) -> np.ndarray:
    """Electric field A * exp(i*omega*(k.x/v - t)) at position(s) x and time t.

    x may be a single 3-vector or an (N, 3) batch; the result has matching
    shape (3,) or (N, 3).  DomainError if the field leaves the float range.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite field raises below
        factor = np.exp(_phase(w, x, t))
        field = w.amplitude * factor if x.ndim == 1 else factor[:, None] * w.amplitude[None, :]
    if not np.isfinite(field).all():
        raise DomainError(f"E field is not finite at t={t}")
    return field


def magnetic_from_electric(w: PlaneWave, mu: float) -> PlaneWave:
    """Magnetic field of a transversal plane wave: H = -(1/mu) E x k / v.

    Returns a PlaneWave carrying the H amplitude with the same omega, k, v.
    The x-dependent integration field is taken to be identically zero.
    """
    if mu == 0.0:
        raise DomainError("mu must be nonzero")
    with np.errstate(all="ignore"):  # a non-finite H amplitude (mu * v may underflow to 0) raises in PlaneWave
        return PlaneWave(_magnetic_amplitude(w, mu), w.omega, w.k, w.v)


def _check_incident(amplitude, k, v, v_first, reject=reject):
    """What the jump conditions ask of an incident wave; every solver calls this one check.

    Its speed ``v`` (None skips this test) must be the first medium's phase
    speed ``v_first`` within 1e-9 of it, and it must be transversal:
    |A.k| <= 1e-9 |A|.  scatter_grid passes a ``reject`` that records failures.
    """
    if v is not None:
        bad = abs(v - v_first) > 1e-9 * abs(v_first)
        reject(bad, DomainError, "incident wave speed {} does not match the first medium ({})", v, v_first)
    # hypot: |A| near the float limit stays finite, so a huge A.k is still caught
    bad = abs(np.dot(amplitude, k)) > 1e-9 * math.hypot(*np.abs(amplitude))
    reject(bool(bad), DomainError, "incident wave is not transversal (A.k != 0)")


def transversality_residual(w: PlaneWave) -> float:
    """|A . k| (plain complex dot with the real k); 0 means divergence-free."""
    return float(abs(np.dot(w.amplitude, w.k)))


def phase_vector(w: PlaneWave) -> np.ndarray:
    """Phase vector m = omega * k / v, a read-only real 3-vector; DomainError if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        m = w.omega * w.k / w.v
    return _vector3(m, "m", float)
