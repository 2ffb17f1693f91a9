"""Scattering matrices of lead-coupled centers.

Each semi-infinite lead is eliminated exactly by the boundary self-energy
``sigma(k) = -J e^{ik}`` acting on its attachment site.  With ``W`` the
N x P indicator of attachment sites, the dressed Green function
``G = (E I - H_c - sigma W W^T)^{-1}`` yields the P x P scattering matrix

    S_raw = -I + 2i J sin(k) W^T G W,

whose entry (p, q) is the outgoing amplitude at port p for a unit input at
port q.  For two ports the layout is ``[[r_L, t_R], [t_L, r_R]]``.
``W^T G W`` is the port block of ``G``: :func:`lead_smatrices` adds the
self-energy to the port diagonal, inverts, and reads that block off.

The temporal coupled-mode S-matrix (Fan, Suh and Joannopoulos, JOSA A 20,
569, 2003) has its own batched kernel, :func:`dressed_smatrix`, over
omega grids with a general coupling matrix.  With the self-energy split into
a real shift and a decay rate, the lead matrix is the coupled-mode one with
a k-dependent center and coupling; the tests check the two kernels against
each other through that identity.

Phase conventions.  ``S_raw`` references the in/out amplitudes through the
continuity value at the attachment site; the ``shifted`` convention applies
the global reference-plane phase ``e^{-2ik}`` and matches the closed-form
dimer coefficients, the tests' oracle in ``tests/helpers.py``.  Intensities
and every conservation quantity are convention independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ScatteringSingularityError, SingularMatrixError, WorkLimitError
from .model import ScatteringSystem, port_indicator, require_coupling, require_in_band
from .numerics import frozen_matrix, invert


# A grid of K points is refused above this many bytes in one (K, N, N) complex
# stack, before any is built.  The kernel holds a few such stacks at once and
# a sweep its CSV columns too: a dimer's sweep peaks near 13 stacks' bytes.
# 2**25 bytes are 524,288 k of a dimer and 58,254 of a 6-site center.
MAX_STACK_BYTES = 2 ** 25


def require_stack_fits(points: int, n: int, grid: str) -> None:
    """Raise :class:`WorkLimitError` when ``points`` grid points of an
    ``n``-site center need (K, N, N) complex stacks above
    :data:`MAX_STACK_BYTES`."""
    size = 16 * points * n * n
    if size > MAX_STACK_BYTES:
        raise WorkLimitError(f"{points} {grid} points of a {n}-site center take {size:.3g} bytes "
                             f"in each (K, N, N) stack, more than {MAX_STACK_BYTES:.3g}")


def _grid(points, name: str, **inputs) -> np.ndarray:
    """``points`` as a 1-D float grid of K points, else ``ValueError`` naming the shapes.

    Each of ``inputs`` is ``(array, axes)``: an array of ``axes`` axes serves
    every point, and one with an extra leading axis is a stack of K, one per
    point.
    """
    grid = np.asarray(points, dtype=np.float64)
    if grid.ndim != 1 or any(np.ndim(a) > axes and (np.ndim(a) > axes + 1 or len(a) != len(grid))
                             for a, axes in inputs.values()):
        shapes = ", ".join(f"{key} {np.shape(a)}" for key, (a, _) in inputs.items())
        raise ValueError(f"a grid must be 1-D and every stack as long: {name} {grid.shape}, {shapes}")
    return grid


class Convention(str, Enum):
    """Global reference-plane phase choice for the scattering amplitudes."""

    RAW = "raw"
    SHIFTED = "shifted"


@dataclass(frozen=True)
class ScatteringMatrix:
    """P x P scattering amplitudes at a fixed wave vector and convention."""

    k: float
    entries: np.ndarray
    convention: Convention

    def __post_init__(self):
        object.__setattr__(self, "entries", frozen_matrix(self.entries, square=True, name="entries"))
        object.__setattr__(self, "convention", Convention(self.convention))

    @property
    def n_ports(self) -> int:
        return self.entries.shape[0]


def dressed_smatrix(h: np.ndarray, d: np.ndarray, omega: np.ndarray | list[float]) -> np.ndarray:
    """Coupled-mode scattering matrices over a grid of K frequencies.

        S(omega_k) = I - 2i D† (omega_k I - H + i D D†)^{-1} D

    ``h`` (N x N) and ``d`` (N x P) are shared by every grid point or given
    per point as ``(K, N, N)`` and ``(K, N, P)`` stacks.  All K resolvents are
    inverted in one batched LAPACK call; the result is ``(K, P, P)``.  A
    singular resolvent raises :class:`SingularMatrixError` naming the first
    offending frequency, with its grid position as ``index``.  A ``d`` whose
    mode rows do not match the modes of ``h``, a grid that is not 1-D, or a
    stack whose length is not the grid's raises ``ValueError``.
    """
    omega = _grid(omega, "omega", h=(h, 2), d=(d, 2))
    n, p = d.shape[-2:]
    if n != h.shape[-1]:
        raise ValueError(f"coupling has {n} mode rows, center has {h.shape[-1]} modes")
    d_dag = np.swapaxes(d, -1, -2).conj()
    dressed = omega[:, None, None] * np.eye(n) - h + 1j * (d @ d_dag)
    try:
        g = invert(dressed)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"dressed resolvent is singular at omega={omega[exc.index]:.6g}", index=exc.index
        ) from exc
    return np.eye(p) - 2j * (d_dag @ g @ d)


def lead_smatrices(
    center: np.ndarray,
    sites,
    ks: np.ndarray | list[float],
    coupling: float = 1.0,
    convention: Convention | str = Convention.SHIFTED,
) -> np.ndarray:
    """``(K, P, P)`` scattering amplitudes over K wave vectors.

    ``center`` (N x N) and port ``sites`` (P) serve every k, or come per k as
    ``(K, N, N)`` and ``(K, P)`` stacks.  Each k adds the self-energy
    ``-J e^{ik}`` to the port diagonal of ``E I - H_c``; all K dressed
    matrices are inverted in one batched LAPACK call, and ``S_raw`` is read
    off the port block of each inverse.

    Raises :class:`BandEdgeError` for a k outside ``(0, pi)``,
    :class:`ScatteringSingularityError` naming the first k where the
    lead-dressed center is singular (a lasing / perfect-absorption momentum),
    and ``ValueError`` for a lead coupling that is not finite and positive, a
    grid that is not 1-D, or a stack whose length is not the grid's.
    """
    convention = Convention(convention)
    ks = _grid(ks, "ks", center=(center, 2), sites=(sites, 1))
    outside = ks[~((ks > 0.0) & (ks < math.pi))]
    if outside.size:
        require_in_band(outside[0])
    j = require_coupling(coupling)
    n = np.shape(center)[-1]
    port_indicator(n, sites)  # the check of the sites against the center
    sites = np.asarray(sites)
    at_k = np.arange(len(ks))[:, None]
    energy = -2.0 * j * np.cos(ks)
    dressed = energy[:, None, None] * np.eye(n) - np.asarray(center, dtype=np.complex128)
    dressed[at_k, sites, sites] += j * np.exp(1j * ks)[:, None]
    try:
        g = invert(dressed)
    except SingularMatrixError as exc:
        raise ScatteringSingularityError(
            f"lead-dressed center is singular at k={ks[exc.index]:.6g}", index=exc.index
        ) from exc
    port_block = g[at_k[..., None], sites[..., :, None], sites[..., None, :]]
    s = (2j * j * np.sin(ks))[:, None, None] * port_block - np.eye(sites.shape[-1])
    if convention is Convention.SHIFTED:
        s *= np.exp(-2j * ks)[:, None, None]
    return s


def scattering_matrix(
    system: ScatteringSystem,
    k: float,
    convention: Convention | str = Convention.SHIFTED,
) -> ScatteringMatrix:
    """Scattering matrix of ``system`` at wave vector ``k``: the K = 1 case of
    :func:`lead_smatrices`.
    """
    k = float(k)
    entries = lead_smatrices(system.center, system.ports, [k], system.coupling, convention)
    return ScatteringMatrix(k, entries[0], convention)

