"""Pseudo-Hermiticity metrics, port conditions, and anti-PT classification.

A Hermitian ``q`` with ``q H† q^{-1} = H`` links a center to its conjugate.
The solutions of the linear condition ``q H† = H q`` over Hermitian ``q``
form a real vector space; :func:`metric_space` computes a canonical basis
of it.  When some metric acts as the identity on the input-port site and as
``+/-`` identity on the output-port site, the scattering amplitudes of H
and H† coincide up to the sign on the transmissions, which pins the flux
law: sign product +1 gives energy conservation, -1 gives energy-difference
conservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionTooLargeError, PortConditionError
from .numerics import as_complex_matrix, determinant, frob, frozen_matrix, invert
from .model import port_indicator

METRIC_MAX_DIM = 8
NULLSPACE_RTOL = 1e-9
INVERTIBILITY_RTOL = 1e-9


class PhaseClass(str, Enum):
    """Anti-PT spectral phase of the two-site prototypes."""

    EXACT = "exact"
    EXCEPTIONAL_POINT = "exceptional-point"
    BROKEN = "broken"


@dataclass(frozen=True)
class MetricOperator:
    """One Hermitian solution of q H† = H q, canonically scaled.

    ``residual`` is the Frobenius norm of q H† - H q against the source
    center; ``invertible`` applies the determinant threshold
    |det q| > 1e-9 * max|q|^N.
    """

    matrix: np.ndarray
    invertible: bool
    residual: float

    def __post_init__(self):
        q = frozen_matrix(self.matrix, square=True, name="metric")
        if frob(q - q.conj().T) >= 1e-12 * max(1.0, frob(q)):
            raise ValueError("metric operator must be Hermitian")
        object.__setattr__(self, "matrix", q)


def _nullspace(mat: np.ndarray, rtol: float = NULLSPACE_RTOL) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of a real matrix: the right
    singular vectors whose singular value is at most ``rtol`` times the largest."""
    # a wide matrix needs the full right factor
    _, sv, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vt[np.count_nonzero(sv > rtol * sv[:1]):].T


def _canonical_nullspace(mat: np.ndarray, rtol: float = NULLSPACE_RTOL) -> np.ndarray:
    """The nullspace basis of a real matrix that row reduction gives, one vector per row.

    Column c is free when it lies in the span of the columns before it, that
    is when rank(null[c:]) > rank(null[c+1:]).  Each vector is 1 at its own
    free column and 0 at the others.  Entries at most ``rtol`` times the
    largest of their vector are rounding; they are set to exactly 0.
    """
    null = _nullspace(mat, rtol)
    cols = len(null)
    trailing = np.triu(np.ones((cols, cols)))[:, :, None] * null  # stack c: rows c, c+1, ...
    rank = np.count_nonzero(np.linalg.svd(trailing, compute_uv=False) > rtol, axis=1)
    basis = np.linalg.solve(null[rank > np.append(rank[1:], 0)].T, null.T)
    basis[np.abs(basis) <= rtol * np.abs(basis).max(axis=1, keepdims=True)] = 0.0
    return basis


def _hermitian_from_params(theta: np.ndarray, n: int) -> np.ndarray:
    """Assemble Hermitian matrices from their N^2 real parameters.

    Layout: N diagonal entries first, then (re, im) pairs of the strict
    upper triangle in row-major order.  A ``(..., N^2)`` stack of parameter
    vectors gives a ``(..., N, N)`` stack of matrices.
    """
    theta = np.asarray(theta)
    q = np.zeros(theta.shape[:-1] + (n, n), dtype=np.complex128)
    diag = np.arange(n)
    q[..., diag, diag] = theta[..., :n]
    rows, cols = np.triu_indices(n, 1)  # row-major, matching the parameter layout
    upper = theta[..., n::2] + 1j * theta[..., n + 1::2]
    q[..., rows, cols] = upper
    q[..., cols, rows] = upper.conj()
    return q


def _canonicalize(q: np.ndarray) -> np.ndarray:
    """Scale each matrix of a stack so its largest entry has magnitude 1, fix its sign.

    Only real scalings preserve Hermiticity, so the sign rule looks at the
    first row-major entry of non-negligible magnitude: its real part is made
    positive, falling back to a positive imaginary part when it is purely
    imaginary.
    """
    scale = np.abs(q).max(axis=(-2, -1), keepdims=True)
    out = q / scale
    flat = out.reshape(len(out), -1)
    # the largest entry has magnitude 1, so every matrix has a non-negligible one
    first = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-12, axis=1)]
    flip = (first.real < -1e-12) | ((np.abs(first.real) <= 1e-12) & (first.imag < 0.0))
    return np.where(flip[:, None, None], -out, out)


def _invertible(q: np.ndarray):
    """The rule of :attr:`MetricOperator.invertible` for one matrix or a stack."""
    det_floor = INVERTIBILITY_RTOL * np.abs(q).max(axis=(-2, -1)) ** q.shape[-1]
    return np.abs(determinant(q)) > det_floor


def metric_space(h: np.ndarray, tol: float = NULLSPACE_RTOL) -> list[MetricOperator]:
    """Canonical basis of the Hermitian solutions of q H† = H q.

    The condition is a homogeneous real-linear system in the N^2 real
    parameters of q, solved by singular value decompositions; ``tol`` is the
    relative singular-value threshold.  Element i is the solution whose i-th
    free parameter (as row reduction names them) is 1 and whose other free
    parameters are 0, scaled by :func:`_canonicalize`.  An empty list means
    only q = 0 solves.
    """
    h = as_complex_matrix(h, square=True, name="H")
    n = h.shape[0]
    if n > METRIC_MAX_DIM:
        raise DimensionTooLargeError(f"metric search capped at {METRIC_MAX_DIM}, got {n}")
    hd = h.conj().T
    n_params = n * n
    # column p holds the real and imaginary parts of the condition on the
    # p-th unit parameter vector
    units = _hermitian_from_params(np.eye(n_params), n)
    commutators = (units @ hd - h @ units).reshape(n_params, n_params)
    coeff = np.concatenate([commutators.real.T, commutators.imag.T])

    thetas = _canonical_nullspace(coeff, tol)
    if not len(thetas):
        return []
    qs = _canonicalize(_hermitian_from_params(thetas, n))
    residuals = frob(qs @ hd - h @ qs)
    invertible = _invertible(qs)
    return [
        MetricOperator(matrix=q, invertible=bool(inv), residual=float(res))
        for q, inv, res in zip(qs, invertible, residuals)
    ]


def port_signature(q: MetricOperator | np.ndarray, m: int, n: int,
                   tol: float = 1e-9) -> tuple[int, int]:
    """Signs (s_m, s_n) when q is +identity on row/column m and +/-identity on n.

    Raises :class:`PortConditionError` with the first offending entry index
    when the condition fails (site m first, then the sign entry (n, n), then
    site n); s_m is forced to +1.
    """
    mat = q.matrix if isinstance(q, MetricOperator) else as_complex_matrix(q, square=True, name="q")
    port_indicator(mat.shape[0], (m, n))
    diag = complex(mat[n, n])
    s_n = next((s for s in (1, -1) if abs(diag - s) <= tol), None)
    for site, sign in ((m, 1), (n, s_n)):
        if sign is None:
            raise PortConditionError(f"metric entry ({n}, {n}) = {diag:.3e} is neither +1 nor -1",
                                     index=(n, n))
        entries = np.stack([mat[site], mat[:, site]], axis=1)  # row then column entry of each j
        entries[site] -= sign
        bad = np.flatnonzero(np.abs(entries) > tol)
        if bad.size:
            j, column = divmod(int(bad[0]), 2)
            index = (j, site) if column else (site, j)
            raise PortConditionError(f"metric entry {index} = {complex(mat[index]):.3e} breaks the "
                                     f"port condition at site {site}", index=index)
    return 1, s_n


def port_metric(basis: list[MetricOperator], m: int, n: int,
                tol: float = 1e-9) -> tuple[tuple[int, int], np.ndarray] | None:
    """An invertible metric q in the span of ``basis`` meeting the port condition at (m, n).

    That rows m and n of ``q = sum_i c_i basis[i]`` equal e_m and s e_n (the
    columns follow, q being Hermitian) is linear in the real c; it is solved
    by least squares for s = +1, then s = -1.  q is the particular solution
    plus a fixed combination of the homogeneous directions, a generic point
    of the solution set, so it is invertible whenever some point of it is.
    Returns (:func:`port_signature` of q, q), or None when no sign has an
    invertible solution.
    """
    if not basis:
        return None
    qs = np.stack([op.matrix for op in basis])
    dim = qs.shape[-1]
    rows = (port_indicator(dim, (m, n)).T @ qs).reshape(len(qs), 2 * dim)  # rows m and n
    a = np.concatenate([rows.real, rows.imag], axis=1).T
    homogeneous = _nullspace(a)
    weights = np.random.default_rng(0).standard_normal(homogeneous.shape[1])  # fixed, generic
    for s in (1, -1):
        target = np.zeros((2, 2, dim))  # (re, im) of rows m and n
        target[0, 0, m], target[0, 1, n] = 1.0, s
        coef = np.linalg.lstsq(a, target.ravel(), rcond=None)[0] + homogeneous @ weights
        q = np.tensordot(coef, qs, axes=1)
        try:
            signature = port_signature(q, m, n, tol)
        except PortConditionError:
            continue
        if _invertible(q):
            return signature, q
    return None


def is_anti_pt(h: np.ndarray, parity: np.ndarray, tol: float = 1e-9) -> bool:
    """True when P conj(H) P^{-1} = -H for the supplied invertible parity."""
    h = as_complex_matrix(h, square=True, name="H")
    parity = as_complex_matrix(parity, square=True, name="parity")
    if parity.shape != h.shape:
        raise ValueError(f"parity shape {parity.shape} does not match H {h.shape}")
    transformed = parity @ h.conj() @ invert(parity)
    return frob(transformed + h) < tol


def phase_of(v: float, gamma: float) -> PhaseClass:
    """Anti-PT phase of the prototypes from the detuning/coupling magnitudes."""
    v = float(v)
    gamma = float(gamma)
    if v < 0.0 or gamma < 0.0:
        raise ValueError("phase classification expects v >= 0 and gamma >= 0")
    if v < gamma:
        return PhaseClass.EXACT
    if v == gamma:
        return PhaseClass.EXCEPTIONAL_POINT
    return PhaseClass.BROKEN

