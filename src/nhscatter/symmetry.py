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

from .errors import DimensionTooLargeError, NotTwoPortError, PortConditionError
from .numerics import as_complex_matrix, determinant, frob, invert
from .smatrix import ScatteringMatrix

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
        q = as_complex_matrix(self.matrix, square=True, name="metric")
        if frob(q - q.conj().T) >= 1e-12 * max(1.0, frob(q)):
            raise ValueError("metric operator must be Hermitian")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "matrix", q)


def _rref_nullspace(mat: np.ndarray, rtol: float = NULLSPACE_RTOL) -> list[np.ndarray]:
    """Nullspace basis of a real matrix via reduced row echelon form.

    Pivots below ``rtol`` times the largest coefficient count as zero.  The
    free-column back-substitution yields sparse, deterministic basis vectors.
    """
    a = np.array(mat, dtype=np.float64, copy=True)
    rows, cols = a.shape
    tol = rtol * float(np.abs(a).max())
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        local = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[local, c]) <= tol:
            continue
        if local != r:
            a[[r, local]] = a[[local, r]]
        a[r] /= a[r, c]
        factors = a[:, c].copy()
        factors[r] = 0.0
        a -= np.outer(factors, a[r])
        pivot_cols.append(c)
        r += 1
    basis = []
    for free in (c for c in range(cols) if c not in pivot_cols):
        v = np.zeros(cols)
        v[free] = 1.0
        for row, c in enumerate(pivot_cols):
            v[c] = -a[row, free]
        basis.append(v)
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


def metric_space(h: np.ndarray, tol: float = NULLSPACE_RTOL) -> list[MetricOperator]:
    """Canonical basis of the Hermitian solutions of q H† = H q.

    The condition is a homogeneous real-linear system in the N^2 real
    parameters of q and is solved by row reduction; ``tol`` is the relative
    pivot threshold.  An empty list means only q = 0 solves.
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

    thetas = _rref_nullspace(coeff, tol)
    if not thetas:
        return []
    qs = _canonicalize(_hermitian_from_params(thetas, n))
    residuals = frob(qs @ hd - h @ qs)
    det_floor = INVERTIBILITY_RTOL * np.abs(qs).max(axis=(-2, -1)) ** n
    invertible = np.abs(determinant(qs)) > det_floor
    return [
        MetricOperator(matrix=q, invertible=bool(inv), residual=float(res))
        for q, inv, res in zip(qs, invertible, residuals)
    ]


def port_signature(
    q: MetricOperator | np.ndarray,
    m: int,
    n: int,
    tol: float = 1e-9,
) -> tuple[int, int]:
    """Signs (s_m, s_n) when q is +identity on row/column m and +/-identity on n.

    Raises :class:`PortConditionError` with the first offending entry index
    when the condition fails; s_m is forced to +1.
    """
    mat = q.matrix if isinstance(q, MetricOperator) else as_complex_matrix(q, square=True, name="q")
    dim = mat.shape[0]
    if m == n:
        raise ValueError("port sites must be distinct")
    if not (0 <= m < dim and 0 <= n < dim):
        raise ValueError(f"port sites ({m}, {n}) outside metric dimension {dim}")

    def _check_unit(site: int, sign: float) -> None:
        for j in range(dim):
            want = sign if j == site else 0.0
            for index in ((site, j), (j, site)):
                if abs(mat[index] - want) > tol:
                    raise PortConditionError(
                        f"metric entry {index} = {complex(mat[index]):.3e} breaks the "
                        f"port condition at site {site}",
                        index=index,
                    )

    _check_unit(m, 1.0)
    diag = complex(mat[n, n])
    if abs(diag - 1.0) <= tol:
        s_n = 1
    elif abs(diag + 1.0) <= tol:
        s_n = -1
    else:
        raise PortConditionError(
            f"metric entry ({n}, {n}) = {diag:.3e} is neither +1 nor -1",
            index=(n, n),
        )
    _check_unit(n, float(s_n))
    return 1, s_n


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


def predict_conjugate_smatrix(s: ScatteringMatrix, s_m: int, s_n: int) -> ScatteringMatrix:
    """Scattering matrix of the conjugate center predicted from a port signature.

    Conjugation by diag(s_m, s_n) keeps the reflections and multiplies both
    transmissions by s_m * s_n.
    """
    if s.n_ports != 2:
        raise NotTwoPortError(f"signature prediction needs 2 ports, got {s.n_ports}")
    if s_m not in (1, -1) or s_n not in (1, -1):
        raise ValueError(f"signature signs must be +/-1, got ({s_m}, {s_n})")
    d = np.diag([float(s_m), float(s_n)])
    return ScatteringMatrix(s.k, d @ s.entries @ d, s.convention)
