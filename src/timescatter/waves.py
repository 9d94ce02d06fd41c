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

from .errors import DomainError

__all__ = [
    "PlaneWave",
    "PhaseVector",
    "evaluate_E",
    "magnetic_from_electric",
    "transversality_residual",
    "phase_vector",
]

_UNIT_TOL = 1e-12


def _as_complex3(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (3,):
        raise DomainError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise DomainError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _as_real3(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (3,):
        raise DomainError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


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
        amp = _as_complex3(self.amplitude, "amplitude")
        k = _as_real3(self.k, "k")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "v", float(self.v))
        if not amp.any():  # a norm would overflow for huge amplitudes
            raise DomainError("zero amplitude rejected at construction")
        if abs(np.linalg.norm(k) - 1.0) > _UNIT_TOL:
            raise DomainError(f"|k| must be 1 within {_UNIT_TOL}, got {np.linalg.norm(k)}")
        if self.omega == 0.0 or not math.isfinite(self.omega):
            raise DomainError("omega must be a nonzero finite real")
        if self.v == 0.0 or not math.isfinite(self.v):
            raise DomainError("phase speed v must be a nonzero finite real")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / abs(self.omega)


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """Spatial phase vector m = omega * k / v of a plane wave."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _as_real3(self.m, "m"))

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.m))

    @property
    def direction(self) -> np.ndarray:
        mag = self.magnitude
        if mag == 0.0:
            raise DomainError("zero phase vector has no direction")
        return self.m / mag


def evaluate_E(w: PlaneWave, x, t: float) -> np.ndarray:
    """Electric field A * exp(i*omega*(k.x/v - t)) at position(s) x and time t.

    x may be a single 3-vector or an (N, 3) batch; the result has matching
    shape (3,) or (N, 3).
    """
    x = np.asarray(x, dtype=np.float64)
    phase = 1j * w.omega * (x @ w.k / w.v - t)
    if x.ndim == 1:
        return w.amplitude * np.exp(phase)
    return np.exp(phase)[:, None] * w.amplitude[None, :]


def magnetic_from_electric(w: PlaneWave, mu: float) -> PlaneWave:
    """Magnetic field of a transversal plane wave: H = -(1/mu) E x k / v.

    Returns a PlaneWave carrying the H amplitude with the same omega, k, v.
    The x-dependent integration field is taken to be identically zero.
    """
    if mu == 0.0:
        raise DomainError("mu must be nonzero")
    h_amp = -np.cross(w.amplitude, w.k) / (mu * w.v)
    return PlaneWave(h_amp, w.omega, w.k, w.v)


def transversality_residual(w: PlaneWave) -> float:
    """|A . k| (plain complex dot with the real k); 0 means divergence-free."""
    return float(abs(np.dot(w.amplitude, w.k)))


def phase_vector(w: PlaneWave) -> PhaseVector:
    """Phase vector m = omega * k / v."""
    return PhaseVector(w.omega * w.k / w.v)
