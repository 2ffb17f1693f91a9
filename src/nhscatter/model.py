"""Scattering centers, port layouts, and lead dispersion.

A scattering system is a finite complex center matrix coupled to
semi-infinite uniform leads with hopping ``-J``.  Lead modes at wave
vector ``k`` (lattice constant 1) carry energy ``E = -2 J cos k`` and
group velocity ``v_g = 2 J sin k``; both vanish usefully only inside the
open band ``0 < k < pi``.

Site indexing is 0-based everywhere.  A port layout is a tuple of distinct
center sites in port order, checked by :func:`require_ports` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandEdgeError
from .numerics import as_complex_matrix, frozen_matrix

DEFAULT_PORTS = (0, 1)  # the two port sites when none are given: left lead, right lead

# Prototype kinds: dissipatively coupled two-site centers, with and without
# a common imaginary on-site shift.
DAMPED = "damped"
UNDAMPED = "undamped"
PROTOTYPE_KINDS = (DAMPED, UNDAMPED)


def require_in_band(k: float) -> float:
    """Validate ``0 < k < pi`` strictly, else raise :class:`BandEdgeError`."""
    k = float(k)
    if not 0.0 < k < math.pi:
        raise BandEdgeError(f"wave vector k={k} outside the open band (0, pi)")
    return k


def require_coupling(j: float) -> float:
    """The one check of a lead coupling J: > 0 with a finite band edge 2J, else ``ValueError``."""
    j = float(j)
    if not 0.0 < 2.0 * j < math.inf:
        raise ValueError(f"lead coupling must be positive with a finite band edge 2J, got {j}")
    return j


def require_ports(n: int, sites) -> np.ndarray:
    """The one check of port sites, returned as an array: distinct integer sites
    of the ``n``-site center, else ``ValueError``; a (K, P) stack row by row."""
    sites = np.asarray(sites)
    ordered = np.sort(sites, axis=-1)
    if (sites.dtype.kind not in "iu" or (ordered < 0).any() or (ordered >= n).any()
            or (ordered[..., 1:] == ordered[..., :-1]).any()):
        raise ValueError(f"port sites must be distinct sites of the {n}-site center")
    return sites


@dataclass(frozen=True)
class ScatteringSystem:
    """A center matrix, the sites of its ports in port order, and the lead coupling J."""

    center: np.ndarray
    ports: tuple[int, ...]
    coupling: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", frozen_matrix(self.center, square=True, name="center"))
        object.__setattr__(self, "ports", tuple(self.ports))
        if not self.ports:
            raise ValueError("a scattering system needs at least one port")
        require_ports(self.dim, self.ports)
        object.__setattr__(self, "coupling", require_coupling(self.coupling))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def n_ports(self) -> int:
        return len(self.ports)

    def daggered(self) -> "ScatteringSystem":
        """The Hermitian-conjugate system: same ports and leads, center -> center†."""
        return ScatteringSystem(dagger(self.center), self.ports, self.coupling)


@dataclass(frozen=True)
class ModeParameters:
    """Lead plane-wave data at wave vector k."""

    k: float
    coupling: float
    energy: float
    group_velocity: float


def make_prototype(kind: str, v: float, gamma: float) -> np.ndarray:
    """Build one of the two dissipatively coupled 2x2 prototype centers.

    Both couple the sites through ``-i*gamma`` and detune them by ``+/-v``.
    ``damped`` additionally shifts both sites by the common loss ``-i*gamma``;
    ``undamped`` has no on-site imaginary shift.
    """
    if kind not in PROTOTYPE_KINDS:
        raise ValueError(f"unknown prototype kind '{kind}' (choose from {PROTOTYPE_KINDS})")
    v = float(v)
    g = float(gamma)
    if kind == DAMPED:
        return np.array([[-1j * g + v, -1j * g], [-1j * g, -1j * g - v]], dtype=np.complex128)
    return np.array([[v, -1j * g], [-1j * g, -v]], dtype=np.complex128)


def prototype_system(kind: str, v: float, gamma: float, coupling: float = 1.0) -> ScatteringSystem:
    """Prototype center with the default two-port layout (left@0, right@1)."""
    return ScatteringSystem(make_prototype(kind, v, gamma), DEFAULT_PORTS, coupling)


def dagger(h: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(h, square=True, name="H").conj().T.copy()


def mode_params(k: float, coupling: float) -> ModeParameters:
    """Dispersion data ``E = -2 J cos k``, ``v_g = 2 J sin k`` for ``0 < k < pi``."""
    k = require_in_band(k)
    j = require_coupling(coupling)
    return ModeParameters(
        k=k,
        coupling=j,
        energy=-2.0 * j * math.cos(k),
        group_velocity=2.0 * j * math.sin(k),
    )
