"""Dense complex linear-algebra kernels.

Matrices throughout the package are plain ``numpy.ndarray`` objects with
dtype ``complex128`` in row-major layout.  All problem sizes are tiny
(centers are a handful of sites).  Inverses and determinants go to LAPACK
through ``numpy.linalg`` and accept a single matrix or a ``(K, N, N)``
stack, so a whole grid of points costs one call; a matrix whose reciprocal
condition is at most ``RCOND_MIN`` counts as singular.

The shared on-disk matrix format is JSON::

    {"n": 2, "re": [[...], [...]], "im": [[...], [...]]}

Non-square matrices (channel-coupling blocks) carry explicit ``rows`` and
``cols`` keys instead of ``n``.  Parsers reject ragged rows and non-finite
entries.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import SingularMatrixError

# Singularity threshold on the 1-norm reciprocal condition 1/(|A|_1 |A^-1|_1).
# At or below it invert() raises SingularMatrixError instead of returning an
# inverse dominated by rounding error.
RCOND_MIN = 1e-12


def as_complex_matrix(a: Any, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array (copy only if needed)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one entry, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def frozen_matrix(a: Any, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """A read-only copy of ``a``, checked by :func:`as_complex_matrix`: a frozen matrix field."""
    arr = as_complex_matrix(a, square=square, name=name).copy()
    arr.setflags(write=False)
    return arr


def _as_square(a: Any) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 square matrix or ``(K, N, N)`` stack."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise ValueError(f"A must be a square matrix or a stack of them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("A contains NaN or Inf entries")
    return arr


def frob(a: np.ndarray):
    """Frobenius norm: a plain float for one matrix, an array for a stack."""
    norms = np.linalg.norm(a, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix in a ``(K, N, N)`` stack.

    One batched LAPACK call.  Raises :class:`SingularMatrixError` when a
    matrix is exactly singular or its reciprocal condition
    ``1/(|A|_1 |A^-1|_1)`` is at most ``RCOND_MIN``; for a stack the error's
    ``index`` is the first offending matrix.
    """
    a = _as_square(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        # An exact zero pivot makes LAPACK's determinant exactly zero.
        index = int(np.flatnonzero(np.linalg.det(a) == 0)[0]) if a.ndim == 3 else None
        raise SingularMatrixError("matrix is exactly singular", index=index) from exc
    rcond = 1.0 / (np.linalg.norm(a, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1)))
    singular = ~(rcond > RCOND_MIN)
    if np.any(singular):
        index = int(np.argmax(singular)) if a.ndim == 3 else None
        first = float(rcond if index is None else rcond[index])
        raise SingularMatrixError(
            f"reciprocal condition {first:.3e} at or below {RCOND_MIN:g}", index=index
        )
    return inv


def determinant(a: np.ndarray):
    """Determinant from LAPACK's LU: a complex for one matrix, an array for a stack.

    An exactly singular matrix gives exactly 0.
    """
    det = np.linalg.det(_as_square(a))
    return complex(det) if det.ndim == 0 else det


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a matrix to the shared JSON format (square uses ``n``)."""
    a = as_complex_matrix(a)
    rows, cols = a.shape
    payload: dict[str, Any] = {"n": rows} if rows == cols else {"rows": rows, "cols": cols}
    payload["re"] = [[float(v) for v in row] for row in a.real]
    payload["im"] = [[float(v) for v in row] for row in a.imag]
    return payload


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the shared JSON matrix format, rejecting ragged or non-finite data."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    if "n" in obj:
        rows = cols = obj["n"]
    elif "rows" in obj and "cols" in obj:
        rows, cols = obj["rows"], obj["cols"]
    else:
        raise ValueError("matrix JSON needs either 'n' or 'rows'/'cols'")
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (rows, cols)):
        raise ValueError(f"invalid matrix dimensions {rows}x{cols}")
    parts = []
    for key in ("re", "im"):
        block = obj.get(key)
        if not isinstance(block, list) or len(block) != rows:
            raise ValueError(f"'{key}' must be a list of {rows} rows")
        for i, row in enumerate(block):
            if not isinstance(row, list) or len(row) != cols:
                raise ValueError(f"'{key}' row {i} is ragged (expected {cols} entries)")
        parts.append(np.asarray(block, dtype=np.float64))
    arr = parts[0] + 1j * parts[1]
    return as_complex_matrix(arr, name="matrix JSON")
