"""Temporal coupled-mode scattering and its conjugation relation.

Resonator modes H_c coupled to waveguide channels through an N x P
amplitude matrix D scatter monochromatic input at frequency omega as

    S = I - 2i D† (omega I - H_c + i D D†)^{-1} D.

For any H_c and D the matrices of a center and its conjugate satisfy
S†(H_c†) S(H_c) = I (:func:`nhscatter.conservation.conservation_defect`).
When a port-conditioned metric q additionally links H_c to H_c† and D is
aligned with the port sites, as :func:`two_port_coupling` builds it,
S(H_c†) equals diag(q_mm, q_nn) S(H_c) diag(q_mm, q_nn)^{-1}: reflections
coincide and transmissions pick up the sign q_mm * q_nn.
:func:`conjugation_defect` measures that relation for the signs of
:func:`nhscatter.symmetry.port_signature`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import require_ports
from .numerics import as_complex_matrix, frozen_matrix
from .smatrix import dressed_smatrix


@dataclass(frozen=True)
class CmtCoupling:
    """Mode-to-channel coupling amplitudes and the input frequency."""

    matrix: np.ndarray
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_matrix(self.matrix, name="coupling"))


def two_port_coupling(
    n_modes: int,
    m: int,
    n: int,
    kappa_m: float,
    kappa_n: float,
    omega: float = 0.0,
) -> CmtCoupling:
    """Aligned two-channel coupling: channel 0 feeds site m, channel 1 site n.

    One nonzero real entry per column aligns D with the port sites, so that
    ``q D = D diag(q_mm, q_nn)`` and ``q D D† q^{-1} = D D†`` hold for any
    port-conditioned metric q, the premises of the conjugation relation.
    """
    if kappa_m < 0.0 or kappa_n < 0.0:
        raise ValueError(f"coupling rates kappa must be non-negative, got ({kappa_m}, {kappa_n})")
    d = np.zeros((n_modes, 2))
    d[require_ports(n_modes, (m, n)), [0, 1]] = np.sqrt([kappa_m, kappa_n])
    return CmtCoupling(d, float(omega))


def cmt_smatrix(h_c: np.ndarray, coupling: CmtCoupling) -> np.ndarray:
    """P x P coupled-mode scattering matrix at the coupling's frequency.

    The K = 1 case of :func:`nhscatter.smatrix.dressed_smatrix`.
    """
    h = as_complex_matrix(h_c, square=True, name="H_c")
    return dressed_smatrix(h, coupling.matrix, [coupling.omega])[0]


def conjugation_defect(s: np.ndarray, s_bar: np.ndarray, signs) -> np.ndarray:
    """``S̄ - diag(signs) S diag(signs)`` for one P x P pair or for (K, P, P) stacks."""
    return s_bar - np.outer(signs, signs) * s

