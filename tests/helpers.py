"""Shared test utilities: random system draws, brute-force oracles and readouts."""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.linalg

from nhscatter import (
    DimensionTooLargeError,
    ScatteringSingularityError,
    ScatteringSystem,
    as_complex_matrix,
    block_intensities,
    propagate_rk4,
)
from nhscatter.dynamics import DEFAULT_FRAMES, EDGE_TOL
from nhscatter.model import require_in_band

# Hard cap for propagate_expm(); it is an oracle for small chains, not a workhorse.
EXPM_MAX_DIM = 64


def percent_csv(header: list[str], columns: list, tail: str = "") -> str:
    """The text of ``cli._write_table`` from one ``%`` template over every cell.

    The reference for the vectorized writer: each number as Python's
    ``'%.17g' % value``, then the constant text column ``tail`` if given.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1] + ([tail] if tail else []))
    template = "\n".join([",".join(header)] + [row] * len(table)) + "\n"
    return template % tuple(table.ravel().tolist())


def random_center(rng: np.random.Generator, n: int, radius: float = 1.0) -> np.ndarray:
    """Entries uniform in the complex disc of the given radius."""
    mag = radius * np.sqrt(rng.random((n, n)))
    ang = 2.0 * math.pi * rng.random((n, n))
    return mag * np.exp(1j * ang)


def random_system(rng: np.random.Generator, n: int | None = None, p: int | None = None,
                  radius: float = 1.0) -> ScatteringSystem:
    if n is None:
        n = int(rng.integers(max(2, p or 2), 7))
    if p is None:
        p = 2 if n < 3 else int(rng.integers(2, 4))
    if p > n:
        raise ValueError("cannot attach more ports than center sites")
    sites = sorted(int(s) for s in rng.permutation(n)[:p])
    return ScatteringSystem(random_center(rng, n, radius), sites, 1.0)


def random_k(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.05, math.pi - 0.05))


# ---------------------------------------------------------------------------
# closed-form dimer coefficients, the oracle of acceptance criterion 1


def closed_form_damped(k: float, gamma: float, coupling: float = 1.0) -> tuple[complex, complex]:
    """(r, t) of the damped dimer in the shifted convention.

        r = -(iJ + 2 gamma cos k) / (iJ + 2 gamma e^{ik})
        t =  2i gamma sin k       / (iJ + 2 gamma e^{ik})

    Valid for the zero-detuning dimer; ``gamma`` may be negative, which is
    the Hermitian-conjugate (gain) system.
    """
    k = require_in_band(k)
    j = float(coupling)
    g = float(gamma)
    den = 1j * j + 2.0 * g * cmath.exp(1j * k)
    if abs(den) <= 1e-12 * (j + 2.0 * abs(g)):
        raise ScatteringSingularityError(f"closed-form denominator vanishes at k={k:.6g}")
    r = -(1j * j + 2.0 * g * math.cos(k)) / den
    t = 2j * g * math.sin(k) / den
    return r, t


def closed_form_undamped(k: float, gamma: float, coupling: float = 1.0) -> tuple[complex, complex]:
    """(r, t) of the undamped dimer in the shifted convention.

        r = -(J^2 + gamma^2)      / (J^2 + gamma^2 e^{2ik})
        t =  2 J gamma sin k      / (J^2 + gamma^2 e^{2ik})

    Flipping the sign of ``gamma`` keeps r and negates t.
    """
    k = require_in_band(k)
    j = float(coupling)
    g = float(gamma)
    den = j * j + g * g * cmath.exp(2j * k)
    if abs(den) <= 1e-12 * (j * j + g * g):
        raise ScatteringSingularityError(f"closed-form denominator vanishes at k={k:.6g}")
    r = -(j * j + g * g) / den
    t = 2.0 * j * g * math.sin(k) / den
    return r, t


# ---------------------------------------------------------------------------
# brute-force cofactor inverse (kept free of the package's LU path)


def det_laplace(a: list[list[complex]]) -> complex:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0 + 0.0j
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in a[1:]]
        total += (-1) ** c * a[0][c] * det_laplace(minor)
    return total


def cofactor_inverse(matrix: np.ndarray) -> np.ndarray:
    a = [[complex(v) for v in row] for row in matrix]
    n = len(a)
    det = det_laplace(a)
    adj = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for ri, row in enumerate(a) if ri != i]
            adj[j, i] = (-1) ** (i + j) * det_laplace(minor)
    return adj / det


def port_metric_center(rng: np.random.Generator, n: int, sign: int) -> np.ndarray:
    """A center ``H = M q^-1`` with ``M`` Hermitian, so that ``q H† q^-1 = H``.

    ``q`` is Hermitian and invertible, the identity on site 0 and ``sign``
    times the identity on site n-1, with a random block on the sites between;
    with ports (0, n-1) the center obeys the flux law of that sign.
    """
    a = random_center(rng, n)
    b = random_center(rng, n - 2)
    q = np.zeros((n, n), dtype=np.complex128)
    q[0, 0], q[-1, -1] = 1.0, sign
    q[1:-1, 1:-1] = b + b.conj().T + np.diag(rng.choice([-2.0, 2.0], n - 2))
    return (a + a.conj().T) @ np.linalg.inv(q)


# ---------------------------------------------------------------------------
# propagation oracles and packet readouts


def propagate_expm(h, psi0: np.ndarray, t: float) -> np.ndarray:
    """Exact propagation ``exp(-i H t) psi0`` for chains of at most 64 sites.

    The exponential is ``scipy.linalg.expm`` (scaling and squaring with Pade
    approximants, Al-Mohy and Higham 2009).
    """
    dense = h.toarray() if hasattr(h, "toarray") else as_complex_matrix(h, square=True, name="H")
    if dense.shape[0] > EXPM_MAX_DIM:
        raise DimensionTooLargeError(
            f"exact propagation capped at {EXPM_MAX_DIM} sites, got {dense.shape[0]}"
        )
    psi0 = np.asarray(psi0, dtype=np.complex128)
    return scipy.linalg.expm(-1j * float(t) * dense) @ psi0


def overlap_series(h, psi0: np.ndarray, phi0: np.ndarray, dt: float, t_final: float,
                   frames: int = DEFAULT_FRAMES) -> np.ndarray:
    """The overlaps ``<phi(t)|psi(t)>`` of each frame, with psi evolved under H
    and phi under H† by two RK4 runs; a constant of motion for any H."""
    forward = propagate_rk4(h, psi0, dt, t_final, frames)
    backward = propagate_rk4(h.toarray().conj().T, phi0, dt, t_final, frames)
    return np.array([np.vdot(phi, psi) for psi, phi in zip(forward.states, backward.states)])


def final_rt(traj) -> tuple[float, float, float]:
    """Last-frame R, T and center leak of a packet run whose open ends are
    still empty: the edge rule of ``evolve``'s ``boundary_ok``, an edge
    occupancy below ``EDGE_TOL * (R + T)``, is asserted."""
    r, t, leak, edge = block_intensities(traj)
    assert edge < EDGE_TOL * (r + t), f"edge occupancy {edge:.3e} vs R+T={r + t:.3e}"
    return r, t, leak
