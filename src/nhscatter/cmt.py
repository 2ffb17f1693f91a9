"""Temporal coupled-mode scattering and its conjugation relation.

Resonator modes H_c coupled to waveguide channels through an N x P
amplitude matrix D scatter monochromatic input at frequency omega as

    S = I - 2i D† (omega I - H_c + i D D†)^{-1} D.

For any H_c and D the matrices of a center and its conjugate satisfy
S†(H_c†) S(H_c) = I.  When a port-conditioned metric q additionally links
H_c to H_c† and D is aligned with the port sites, S(H_c†) equals
diag(q_mm, q_nn) S(H_c) diag(q_mm, q_nn)^{-1}, so reflections coincide and
transmissions pick up the sign q_mm * q_nn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conservation import conservation_defect
from .errors import NotTwoPortError, PremiseViolatedError
from .model import port_indicator
from .numerics import as_complex_matrix, frob, frozen_matrix, invert
from .smatrix import dressed_smatrix
from .symmetry import MetricOperator, port_signature


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

    One nonzero real entry per column automatically satisfies the premises
    of :func:`verify_cmt_relations` for any port-conditioned metric.
    """
    if kappa_m < 0.0 or kappa_n < 0.0:
        raise ValueError(f"coupling rates kappa must be non-negative, got ({kappa_m}, {kappa_n})")
    return CmtCoupling(port_indicator(n_modes, (m, n)) * np.sqrt([kappa_m, kappa_n]), float(omega))


def cmt_smatrix(h_c: np.ndarray, coupling: CmtCoupling) -> np.ndarray:
    """P x P coupled-mode scattering matrix at the coupling's frequency.

    The K = 1 case of :func:`nhscatter.smatrix.dressed_smatrix`.
    """
    h = as_complex_matrix(h_c, square=True, name="H_c")
    return dressed_smatrix(h, coupling.matrix, [coupling.omega])[0]


def conjugation_defect(s: np.ndarray, s_bar: np.ndarray, signs) -> np.ndarray:
    """``S̄ - diag(signs) S diag(signs)`` for one P x P pair or for (K, P, P) stacks."""
    return s_bar - np.outer(signs, signs) * s


class CmtResiduals(NamedTuple):
    conjugation: float
    conservation: float


def verify_cmt_relations(
    h_c: np.ndarray,
    coupling: CmtCoupling,
    q: MetricOperator | np.ndarray,
    m: int,
    n: int,
    tol: float = 1e-9,
) -> CmtResiduals:
    """Residuals of the sign relation and the conservation law in coupled-mode form.

    ``conjugation`` is |S(H†) - diag(s) S(H) diag(s)^{-1}|_F for the port
    signature signs of q; ``conservation`` is |S†(H†) S(H) - I|_F.  The two
    structural premises on (q, D) are checked first and raise
    :class:`PremiseViolatedError` naming the broken identity.
    """
    h = as_complex_matrix(h_c, square=True, name="H_c")
    signs = port_signature(q, m, n, tol)
    q_arr = q.matrix if isinstance(q, MetricOperator) else as_complex_matrix(q, square=True, name="q")
    d = coupling.matrix
    if d.shape[1] != 2:
        raise NotTwoPortError("the sign relation applies to two channels")

    q_inv = invert(q_arr)
    dd = d @ d.conj().T
    sign_diag = np.diag([float(signs[0]), float(signs[1])]).astype(np.complex128)

    dev = frob(q_arr @ dd @ q_inv - dd)
    if dev > tol * max(1.0, frob(dd)):
        raise PremiseViolatedError(
            f"q D D† q^-1 deviates from D D† by {dev:.3e}",
            identity="q DD† q^-1 = DD†",
        )
    dev = frob(q_arr @ d - d @ sign_diag)
    if dev > tol * max(1.0, frob(d)):
        raise PremiseViolatedError(
            f"q D deviates from D diag(s_m, s_n) by {dev:.3e}",
            identity="q D = D diag(q_mm, q_nn)",
        )

    s = cmt_smatrix(h, coupling)
    s_bar = cmt_smatrix(h.conj().T, coupling)
    conjugation = frob(conjugation_defect(s, s_bar, signs))
    conservation = frob(conservation_defect(s, s_bar))
    return CmtResiduals(conjugation=conjugation, conservation=conservation)
