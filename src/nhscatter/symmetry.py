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

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionTooLargeError
from .numerics import as_complex_matrix, frob, frozen_matrix, invert, invertible, unit_scaled
from .numerics import determinant  # noqa: F401  unused; bench/test_bench.py reads this binding
from .model import require_ports

METRIC_MAX_DIM = 8
NULLSPACE_RTOL = 1e-9


class PhaseClass(str, Enum):
    """Anti-PT spectral phase of the two-site prototypes."""

    EXACT = "exact"
    EXCEPTIONAL_POINT = "exceptional-point"
    BROKEN = "broken"


@dataclass(frozen=True)
class MetricOperator:
    """One Hermitian solution of q H† = H q, canonically scaled.

    ``residual`` is the Frobenius norm of q H† - H q against the source
    center; ``invertible`` is :func:`numerics.invertible` of q, invert's singularity rule.
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
    singular vectors whose singular value is at most ``rtol`` times the largest.
    The values alone count them, so a full rank computes no vectors."""
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = np.count_nonzero(sv > rtol * sv[:1])
    if rank == mat.shape[1]:
        return np.empty((rank, 0))
    # the vectors alone are read; a wide matrix needs the full right factor
    return np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])[2][rank:].T


def _canonical_nullspace(null: np.ndarray, rtol: float = NULLSPACE_RTOL) -> np.ndarray:
    """The row-reduction basis of the nullspace that ``null`` spans, one vector per row.

    Column c is free when it lies in the span of the columns before it, that
    is when rank(null[c:]) > rank(null[c+1:]).  The ranks are taken from the
    last row up and stop where they reach the nullity: no row above that can
    be free.  Each vector is 1 at its own free column and 0 at the others.
    Entries at most ``rtol`` times the largest of their vector are rounding;
    they are set to exactly 0.
    """
    rows, nullity = null.shape
    rank = np.zeros(rows + 1, dtype=int)  # rank[c] of null[c:]; rank[rows] = 0
    top = rows
    while top and rank[top] < nullity:
        # one row raises the rank by at most one, so the next rows are all needed
        start = max(top - (nullity - rank[top]), 0)
        # block c is null with its rows above c set to zero
        blocks = (np.arange(rows) >= np.arange(start, top)[:, None])[:, :, None] * null
        rank[start:top] = np.linalg.matrix_rank(blocks, tol=rtol)
        top = start
    free = top + np.flatnonzero(rank[top:-1] > rank[top + 1:])
    # one pivot per basis vector, unless the threshold is at the basis's own
    # singular values, which are 1
    if len(free) != nullity:
        raise ValueError(f"metric tol must be below 1 by more than rounding, got {rtol}")
    basis = np.linalg.solve(null[free].T, null.T)
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


@functools.cache
def _unit_hermitians(n: int) -> np.ndarray:
    """The N^2 Hermitian matrices of the unit parameter vectors, read-only."""
    units = _hermitian_from_params(np.eye(n * n), n)
    units.flags.writeable = False
    return units


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


def metric_space(h: np.ndarray, tol: float = NULLSPACE_RTOL) -> list[MetricOperator]:
    """Canonical basis of the Hermitian solutions of q H† = H q.

    The condition is a homogeneous real-linear system in the N^2 real
    parameters of q, solved by singular value decompositions; ``tol`` is the
    relative singular-value threshold, refused before any solve unless a normal
    float in (0, 1): it must be below 1 by more than rounding, since the ranks are
    taken of orthonormal columns, whose singular values are 1.  Element i is the
    solution whose i-th free parameter (as row reduction names them) is 1 and whose
    other free parameters are 0, scaled by :func:`_canonicalize`.  An empty list means
    only q = 0 solves; it is known from the singular values alone.  The condition
    is homogeneous in H: it is solved on :func:`unit_scaled` H, which cannot overflow.
    """
    h = as_complex_matrix(h, square=True, name="H")
    if not np.finfo(np.float64).tiny <= tol < 1.0:  # a basis entry is up to 1/tol
        raise ValueError(f"metric tol must be below 1 and a positive normal float, got {tol}")
    n = h.shape[0]
    if n > METRIC_MAX_DIM:
        raise DimensionTooLargeError(f"metric search capped at {METRIC_MAX_DIM}, got {n}")
    h, exponent = unit_scaled(h)
    hd = h.conj().T
    n_params = n * n
    # column p holds the real and imaginary parts of the condition on the
    # p-th unit parameter vector
    units = _unit_hermitians(n)
    commutators = (units @ hd - h @ units).reshape(n_params, n_params)
    coeff = np.concatenate([commutators.real.T, commutators.imag.T])

    null = _nullspace(coeff, tol)
    if not null.shape[1]:
        return []
    thetas = _canonical_nullspace(null, tol)
    qs = _canonicalize(_hermitian_from_params(thetas, n))
    residuals = np.ldexp(frob(qs @ hd - h @ qs), exponent)
    return [
        MetricOperator(matrix=q, invertible=bool(inv), residual=float(res))
        for q, inv, res in zip(qs, invertible(qs), residuals)
    ]


def port_signature(q: MetricOperator | np.ndarray, m: int, n: int,
                   tol: float = 1e-9) -> tuple[int, int] | None:
    """Signs (1, s_n) when q is +1 times the identity on row and column m and
    s_n = +/-1 times the identity on row and column n, each entry within ``tol``;
    None otherwise."""
    mat = q.matrix if isinstance(q, MetricOperator) else as_complex_matrix(q, square=True, name="q")
    sites = require_ports(mat.shape[0], (m, n))
    s_n = 1 if abs(mat[n, n] - 1) <= tol else -1
    target = np.eye(len(mat))[sites] * [[1], [s_n]]  # e_m and s_n e_n
    if np.abs(np.stack([mat[sites], mat[:, sites].T]) - target).max() <= tol:
        return 1, s_n
    return None


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
    rows = qs[:, require_ports(dim, (m, n))].reshape(len(qs), 2 * dim)  # rows m and n
    a = np.concatenate([rows.real, rows.imag], axis=1).T
    homogeneous = _nullspace(a)
    weights = np.random.default_rng(0).standard_normal(homogeneous.shape[1])  # fixed, generic
    for s in (1, -1):
        target = np.zeros((2, 2, dim))  # (re, im) of rows m and n
        target[0, 0, m], target[0, 1, n] = 1.0, s
        coef = np.linalg.lstsq(a, target.ravel(), rcond=None)[0] + homogeneous @ weights
        q = np.tensordot(coef, qs, axes=1)
        signature = port_signature(q, m, n, tol)
        if signature is not None and invertible(q):
            return signature, q
    return None


def is_anti_pt(h: np.ndarray, parity: np.ndarray, tol: float = 1e-9) -> bool:
    """True when P conj(H) P^{-1} = -H to ``tol`` times frob(H), for an invertible parity;
    both sides are linear in H and free of P's scale: they are compared on :func:`unit_scaled` H and P."""
    h = as_complex_matrix(h, square=True, name="H")
    parity = as_complex_matrix(parity, square=True, name="parity")
    if parity.shape != h.shape:
        raise ValueError(f"parity shape {parity.shape} does not match H {h.shape}")
    h, parity = unit_scaled(h)[0], unit_scaled(parity)[0]
    transformed = parity @ h.conj() @ invert(parity)
    return frob(transformed + h) <= tol * frob(h)


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

