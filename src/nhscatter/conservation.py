"""Verification of the universal scattering conservation law.

For any center H with scattering matrix S and its Hermitian conjugate
center H† with matrix S̄ (plain P x P arrays, or (K, P, P) stacks, at the
same k, in the same convention and port order),

    S̄† S = I

holds regardless of non-Hermiticity.  Its diagonal entries are the
unit-overlap relations conj(r̄) r + conj(t̄) t = 1 per input port, the
off-diagonal entries are the corresponding zero-overlap relations.  The
flux classifier checks the two-port intensity laws |r|^2 + |t|^2 = 1
(energy conserving) and |r|^2 - |t|^2 = 1 (energy-difference conserving).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotTwoPortError
from .numerics import frob

DEFAULT_FLUX_TOL = 1e-9


class FluxClass(str, Enum):
    ENERGY = "energy"
    ENERGY_DIFFERENCE = "energy-difference"
    NEITHER = "neither"


@dataclass(frozen=True)
class ConservationReport:
    """Residuals of the conservation law for one (S, S̄) pair.

    ``flux_class``/``flux_residual`` are None for port counts other than 2.
    """

    law_residual: float
    diag_residuals: tuple[complex, ...]
    offdiag_residuals: tuple[complex, ...]
    flux_class: FluxClass | None
    flux_residual: float | None


def conservation_defect(s: np.ndarray, s_bar: np.ndarray) -> np.ndarray:
    """``S̄† S - I`` for one pair of P x P entry matrices or for (K, P, P) stacks."""
    return np.swapaxes(s_bar, -1, -2).conj() @ s - np.eye(s.shape[-1])


def flux_deviations(s: np.ndarray):
    """Worst-port deviations (sum_dev, diff_dev) of the two intensity laws.

    ``s`` is one 2 x 2 scattering matrix; a (K, 2, 2) stack gives two
    length-K arrays.
    """
    s = np.asarray(s)
    if s.shape[-2:] != (2, 2):
        raise NotTwoPortError(f"flux classification needs 2 ports, got {s.shape[-1]}")
    r2 = np.abs(s[..., [0, 1], [0, 1]]) ** 2  # input port q reflects into q
    t2 = np.abs(s[..., [1, 0], [0, 1]]) ** 2  # and transmits into 1 - q
    sum_dev = np.abs(r2 + t2 - 1.0).max(axis=-1)
    diff_dev = np.abs(r2 - t2 - 1.0).max(axis=-1)
    return sum_dev, diff_dev


def classify_flux(s: np.ndarray, tol: float = DEFAULT_FLUX_TOL) -> tuple[FluxClass, float]:
    """Classify the two-port flux law and report the smaller deviation."""
    sum_dev, diff_dev = flux_deviations(s)
    if sum_dev < tol:
        cls = FluxClass.ENERGY
    elif diff_dev < tol:
        cls = FluxClass.ENERGY_DIFFERENCE
    else:
        cls = FluxClass.NEITHER
    return cls, min(sum_dev, diff_dev)


def verify_conservation_law(
    s: np.ndarray,
    s_bar: np.ndarray,
    tol: float = DEFAULT_FLUX_TOL,
) -> ConservationReport:
    """Residuals of S̄† S = I for the P x P matrices of a center and its
    conjugate, taken at one k in one convention with one port order.

    Anything but two square matrices of one shape raises ``ValueError``.
    """
    s, s_bar = np.asarray(s), np.asarray(s_bar)
    if s.shape != s_bar.shape or s.ndim != 2 or len(s) != s.shape[1]:
        raise ValueError(f"S and S̄ must be P x P matrices of one port count, "
                         f"got {s.shape} and {s_bar.shape}")
    product = conservation_defect(s, s_bar)
    n_ports = len(s)
    diag = tuple(map(complex, product.diagonal()))
    offdiag = tuple(map(complex, product[~np.eye(n_ports, dtype=bool)]))  # row-major, i != j
    flux_class, flux_residual = classify_flux(s, tol) if n_ports == 2 else (None, None)
    return ConservationReport(frob(product), diag, offdiag, flux_class, flux_residual)
