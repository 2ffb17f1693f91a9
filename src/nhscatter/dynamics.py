"""Time-domain wave-packet experiments on a finite embedding chain.

The two semi-infinite leads are truncated to ``left_len`` and ``right_len``
sites around the center block, giving an open chain of
``L = left_len + N + right_len`` sites ordered left lead, center, right
lead.  Lead sites carry signed offsets: ``j = -left_len .. -1`` on the
left, ``j = +1 .. right_len`` on the right, with the center block between.

A Gaussian packet launched in the left lead scatters off the center; the
intensity left of the center afterwards is the reflection, the intensity to
the right the transmission.  ``packet_experiment`` propagates
``i dpsi/dt = H psi`` exactly, frame by frame, with the truncated-Taylor
action of the matrix exponential on the chain's matvec, and checks the
first frame against classical fourth-order Runge-Kutta
(:func:`propagate_rk4`), an independent integrator.  The chain is a
:class:`ChainOperator` of numpy arrays, so a packet experiment needs no
scipy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryTooSmallError,
    NotTwoPortError,
    PacketOutOfBoundsError,
    WorkLimitError,
)
from .model import ScatteringSystem, mode_params, require_coupling, require_in_band
from .numerics import as_complex_matrix, frozen_matrix

# Experiment-scale defaults: lead lengths keep the reflected and transmitted
# packets clear of the open ends; dt sets the frame grid and the step of the
# RK4 cross-check, which it keeps well below the oracle floor.
DEFAULT_LEAD_LEN = 300
MIN_EXPERIMENT_LEAD = 50
DEFAULT_DT = 0.02
DEFAULT_FRAMES = 50
DEFAULT_N0 = -50.0  # with DEFAULT_SIGMA, the packet core ends at the center's first site
DEFAULT_SIGMA = 10.0
PACKET_SUPPORT_SIGMAS = 5.0
# A packet's squared norm on the lattice must be 1 within this: a packet much
# narrower than a site is mostly one site of amplitude (sqrt(pi) sigma)^(-1/2).
PACKET_NORM_TOL = 1e-3
EDGE_WINDOW = 10
EDGE_TOL = 1e-6  # R/T readouts need an edge occupancy below EDGE_TOL * (R + T)
NORM_CAP = 1e12  # a state norm above this warns that the system is amplifying
# Taylor terms of one substep stop at the unit roundoff of double precision;
# the cap (the largest degree of Al-Mohy and Higham) is reached only by a
# non-finite state, whose stopping test never passes.
TAYLOR_TOL = 2.0 ** -53
TAYLOR_MAX_TERMS = 55
# The largest ||tau H||_1 of one substep: theta_25 of Al-Mohy and Higham
# (Table 3.1), up to which a Taylor polynomial of degree 25 reaches the unit
# roundoff.
TAYLOR_THETA = 2.43
# A packet experiment refuses to start above this many exact-propagator
# substeps and RK4 steps in all: minutes of work on a 600-site chain, where
# the documented defaults take about 105 (50 substeps and 55 RK4 steps).
MAX_PROPAGATION_STEPS = 10 ** 6
MAX_STEP_COUNT = 2.0 ** 63  # the step counts of a frame schedule are int64


@dataclass
class WaveTrajectory:
    """Sampled chain states with their chain and packet metadata."""

    times: np.ndarray
    states: np.ndarray
    geometry: ChainOperator | None = None
    k: float | None = None
    n0: float | None = None
    sigma: float | None = None
    norm_cap_exceeded: bool = False
    rk4_deviation: float | None = None
    taylor_matvecs: int | None = None

    @property
    def initial_norm(self) -> float:
        return float(np.linalg.norm(self.states[0]))


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """A chain Hamiltonian as numpy arrays: the hopping ``hop`` between
    neighbouring sites, except on the rows ``rows``, which hold the dense
    block ``window`` over the columns ``cols`` and nothing else.

    ``h @ x`` sums each row in column order, as a CSR matrix-vector product
    does.  numpy may round a product of two complex numbers differently (by
    a fused multiply-add), so the two agree bit for bit where each entry is
    real or imaginary, as in the prototype dimers, and within rounding
    elsewhere.  One sign differs: CSR starts each row's sum at +0, and this
    sum starts at the row's first product, so a real or imaginary part whose
    products are all -0 (a hopping ``-J`` times an exact zero) is -0 here and
    +0 there.  The two compare equal, and adding the step to a state whose
    zeros are +0, as the propagators do, gives +0 either way.
    """

    size: int
    hop: complex
    rows: slice
    cols: slice
    window: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        p = self.hop * x
        y = np.empty_like(p)
        np.add(p[:-2], p[2:], out=y[1:-1])
        y[0] = p[1]
        y[-1] = p[-2]
        y[self.rows] = np.add.accumulate(self.window * x[self.cols], axis=1)[:, -1]
        return y

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.size, self.size), dtype=np.complex128)
        sites = np.arange(self.size - 1)
        dense[sites, sites + 1] = dense[sites + 1, sites] = self.hop
        dense[self.rows] = 0.0
        dense[self.rows, self.cols] = self.window
        return dense

    @functools.cached_property
    def norm1(self) -> float:
        """``||H||_1``, the largest column sum of ``|H|``, each summed down its
        column as CSR sums it, without the dense matrix; ``inf`` if a sum
        overflows."""
        hop = abs(self.hop)
        sums = np.full(self.size, 2.0 * hop)  # two hopping neighbours, one at each end
        sums[[0, -1]] = hop
        # a window column sums the hopping row above the window that reaches
        # it, the window's rows, then the hopping row below that reaches it
        c = np.arange(self.cols.start, self.cols.stop)
        above = np.where((c >= 1) & (c <= self.rows.start), hop, 0.0)
        below = np.where((c >= self.rows.stop - 1) & (c < self.size - 1), hop, 0.0)
        column = np.vstack([above, np.abs(self.window), below])
        with np.errstate(over="ignore"):
            sums[self.cols] = np.add.accumulate(column, axis=0)[-1]
        return float(sums.max())

    # The window rows run from the last left-lead site to the first
    # right-lead site, so they fix where the three blocks of the chain sit.
    @property
    def left_slice(self) -> slice:
        return slice(0, self.rows.start + 1)

    @property
    def center_slice(self) -> slice:
        return slice(self.rows.start + 1, self.rows.stop - 1)

    @property
    def right_slice(self) -> slice:
        return slice(self.rows.stop - 1, self.size)


def build_chain(
    system_or_center,
    left_len: int,
    right_len: int,
    coupling: float | None = None,
) -> ChainOperator:
    """Finite chain Hamiltonian embedding a scattering center.

    The chain carries its own layout: ``left_slice``, ``center_slice`` and
    ``right_slice`` are the ``left_len`` lead sites, the center's sites and
    the ``right_len`` lead sites, in that order along the chain.

    Accepts either a two-port :class:`ScatteringSystem`, whose first port
    takes the left lead and second the right lead (the order of the S-matrix
    layout), or a bare center matrix, in which case the leads attach to
    sites 0 and N-1 (the same site for a single-site center) with hopping
    ``coupling``.  All lead bonds and the lead-center bonds are ``-J``;
    boundaries are open.  A system carries its own ``J``, so passing
    ``coupling`` with one is a ``ValueError``.
    """
    if isinstance(system_or_center, ScatteringSystem):
        system = system_or_center
        if coupling is not None:
            raise ValueError("a ScatteringSystem carries its lead coupling; pass coupling "
                             "with a bare center only")
        if system.n_ports != 2:
            raise NotTwoPortError(f"chain embedding needs 2 ports, got {system.n_ports}")
        center = np.asarray(system.center)
        left_site, right_site = system.ports
        j = system.coupling
    else:
        center = as_complex_matrix(system_or_center, square=True, name="center")
        left_site = 0
        right_site = center.shape[0] - 1
        j = 1.0 if coupling is None else require_coupling(coupling)

    left_len = int(left_len)
    right_len = int(right_len)
    if left_len < 1 or right_len < 1:
        raise GeometryTooSmallError(
            f"each lead needs at least one site, got ({left_len}, {right_len})"
        )

    n = center.shape[0]
    size = left_len + n + right_len
    # The rows of the last left-lead site, the center and the first right-lead
    # site, over the columns left_len - 2 .. left_len + n + 1.
    block = np.zeros((n + 2, n + 4), dtype=np.complex128)
    block[1:-1, 2:-2] = center
    block[0, 0] = block[-1, -1] = -j  # the lead bonds into the block
    # the two attachment bonds: left-lead end to the left port site, right
    # port site to the right-lead start
    block[0, 2 + left_site] = block[1 + left_site, 1] = -j
    block[1 + right_site, n + 2] = block[-1, 2 + right_site] = -j
    # a lead of one site has no bond beyond the block
    origin = left_len - 2
    cols = slice(max(origin, 0), min(origin + n + 4, size))
    window = block[:, cols.start - origin:cols.stop - origin]
    rows = slice(left_len - 1, left_len + n + 1)
    return ChainOperator(size, complex(-j), rows, cols, frozen_matrix(window))


def gaussian_packet(geom: ChainOperator, n0: float, sigma: float, k: float) -> np.ndarray:
    """Normalized Gaussian packet in the left lead.

    ``psi(j) = Omega^{-1/2} exp(-(j - n0)^2 / (2 sigma^2)) exp(i k j)`` on
    the left-lead offsets with ``Omega = sqrt(pi) * sigma``; center and
    right-lead sites start empty.  The vector is not renormalized: by Poisson
    summation its squared norm is ``1 + 2 sum_m exp(-pi^2 sigma^2 m^2)
    cos(2 pi m n0)``, which misses 1 by 1.0e-4 at ``sigma = 1`` and by less
    than 1e-15 from ``sigma = 2``.  A packet whose squared norm misses 1 by
    more than ``PACKET_NORM_TOL`` (``sigma`` below about 0.88 at integer
    ``n0``), or is not finite, raises ``ValueError``.
    The core of the packet, ``n0 - 5 sigma`` to ``n0 + 5 sigma``, must lie
    within ``[-(left_len + 1), 0]``: its ends may reach the site past the
    open end and the center's first site, but not beyond.  The defaults
    (``n0 = -50``, ``sigma = 10``) put its right end exactly at 0.
    """
    k = require_in_band(k)
    sigma = float(sigma)
    n0 = float(n0)
    if sigma <= 0.0:
        raise ValueError(f"packet width sigma must be positive, got {sigma}")
    half_width = PACKET_SUPPORT_SIGMAS * sigma
    left_len = geom.left_slice.stop
    if n0 + half_width > 0.0 or n0 - half_width < -(left_len + 1):
        raise PacketOutOfBoundsError(
            f"packet core [{n0 - half_width!r}, {n0 + half_width!r}] leaves "
            f"[-{left_len + 1}, 0], the left lead [-{left_len}, -1] and one site "
            f"past each end"
        )
    offsets = np.arange(-left_len, 0)
    psi = np.zeros(geom.size, dtype=np.complex128)
    # a NaN, or a sigma whose square underflows, gives a packet refused below
    with np.errstate(all="ignore"):
        envelope = np.exp(-((offsets - n0) ** 2) / (2.0 * sigma ** 2))
        # normalization factor Omega = sqrt(pi) * sigma enters as Omega^{-1/2}
        psi[geom.left_slice] = (envelope * np.exp(1j * k * offsets)
                                / math.sqrt(math.sqrt(math.pi) * sigma))
        norm2 = float(np.vdot(psi, psi).real)
    if not abs(norm2 - 1.0) <= PACKET_NORM_TOL:
        raise ValueError(f"the packet of width sigma={sigma} at n0={n0} has squared norm "
                         f"{norm2:.6g} on the lattice, not 1 within {PACKET_NORM_TOL:g}")
    return psi


def _rk4_step(h, psi: np.ndarray, dt: float) -> np.ndarray:
    k1 = -1j * (h @ psi)
    k2 = -1j * (h @ (psi + (0.5 * dt) * k1))
    k3 = -1j * (h @ (psi + (0.5 * dt) * k2))
    k4 = -1j * (h @ (psi + dt * k3))
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _frame_schedule(dt: float, t_final: float, frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Steps of each frame and the frame times, which start at 0.

    ``t_final`` snaps to the nearest point ``n dt`` of the step grid, and the
    ``n`` steps split over the frames as evenly as they go: each frame takes
    ``n // frames`` or one more, so each takes at least one.  The last frame
    lands at ``n dt``, within ``dt / 2`` of ``t_final``.
    """
    valid = math.isfinite(dt) and math.isfinite(t_final) and dt > 0.0 and t_final > 0.0
    if valid and not t_final / dt < MAX_STEP_COUNT:
        raise ValueError(f"t_final / dt = {t_final / dt:.3g} steps, more than a step count "
                         f"holds ({MAX_STEP_COUNT:.3g})")
    steps = round(t_final / dt) if valid else 0
    if not 1 <= frames <= steps:
        raise ValueError(
            f"dt and t_final must be finite and positive and frames between 1 and "
            f"t_final / dt, got dt={dt}, t_final={t_final}, frames={frames}"
        )
    base, extra = divmod(steps, frames)
    index = np.arange(frames + 1)
    # frames 1..i take base * i + extra_steps[i] steps in all; on an even split
    # extra_steps is 0, and the times are dt * base * i bit for bit
    extra_steps = index * extra // frames
    times = dt * base * index + dt * extra_steps
    return base + np.diff(extra_steps), times


def _warn_norm_cap(times: np.ndarray, states: np.ndarray, norm_cap: float) -> bool:
    """Whether a frame's norm exceeds ``norm_cap``; the first such frame warns."""
    over = np.flatnonzero(np.linalg.norm(states, axis=1) > norm_cap)
    if over.size:
        warnings.warn(
            f"state norm exceeded {norm_cap:.1e} at t={times[over[0]]:.3g}; "
            "the system is amplifying",
            RuntimeWarning,
            stacklevel=3,
        )
    return bool(over.size)


def _taylor_substeps(h: ChainOperator, times: np.ndarray) -> np.ndarray:
    """Substeps ``s = ceil(||H||_1 dt / theta)`` of each frame interval
    ``dt``, at least one, so that ``||tau H||_1 <= theta`` at ``tau = dt / s``
    with ``theta =`` :data:`TAYLOR_THETA`; floats, so that a count too large
    for an integer is ``inf``."""
    with np.errstate(over="ignore"):
        return np.maximum(1.0, np.ceil(h.norm1 * np.diff(times) / TAYLOR_THETA))


def _taylor_frames(h: ChainOperator, psi0: np.ndarray,
                   times: np.ndarray) -> tuple[np.ndarray, int]:
    """The states ``exp(-i H t) psi0`` at ``times``, which start at 0, and
    the number of chain matvecs they took.

    The truncated-Taylor action of the matrix exponential (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33, 488, 2011) on the chain's matvec alone.
    Each frame interval splits into the :func:`_taylor_substeps` of length
    ``tau``, with ``||tau H||_1`` at most Al-Mohy and Higham's ``theta_25``.
    Each substep sums the Taylor terms of ``exp(-i tau H) psi`` until two
    consecutive terms add up to at most :data:`TAYLOR_TOL` times the partial
    sum (infinity norms), which takes about 25 terms at ``theta_25``.
    """
    states = np.empty((len(times), psi0.size), dtype=np.complex128)
    states[0] = psi0
    matvecs = 0
    intervals = np.diff(times).tolist()
    substep_counts = _taylor_substeps(h, times).astype(int).tolist()
    for frame, (interval, substeps) in enumerate(zip(intervals, substep_counts), start=1):
        scale = -1j * interval / substeps
        psi = states[frame - 1]
        for _ in range(substeps):
            term, psi = psi, psi.copy()
            # bound >= ||psi||_inf, so that norm is taken only near convergence
            bound = previous = np.abs(term).max()
            for j in range(1, TAYLOR_MAX_TERMS + 1):
                term = h @ term
                term *= scale / j
                current = np.abs(term).max()
                psi += term
                bound += current
                tail = previous + current
                if tail <= TAYLOR_TOL * bound and tail <= TAYLOR_TOL * np.abs(psi).max():
                    break
                previous = current
            matvecs += j
        states[frame] = psi
    return states, matvecs


def propagate_rk4(
    h,
    psi0: np.ndarray,
    dt: float,
    t_final: float,
    frames: int = DEFAULT_FRAMES,
    geometry: ChainOperator | None = None,
    k: float | None = None,
    n0: float | None = None,
    sigma: float | None = None,
    norm_cap: float = NORM_CAP,
) -> WaveTrajectory:
    """Integrate ``i dpsi/dt = H psi`` with classical RK4.

    ``t_final`` snaps to the dt grid, and its steps split over the frames as
    evenly as they go, at least one each (so ``frames`` may not exceed
    ``t_final / dt`` rounded).  ``times[-1]`` is the snapped final time,
    within ``dt / 2`` of ``t_final``.  Gain systems may legitimately amplify
    without bound; crossing ``norm_cap`` is reported through
    ``norm_cap_exceeded`` and a warning rather than an error.
    """
    psi = np.array(psi0, dtype=np.complex128, copy=True)
    frame_steps, times = _frame_schedule(dt, t_final, frames)
    states = np.empty((frames + 1, psi.size), dtype=np.complex128)
    states[0] = psi
    for frame, steps in enumerate(frame_steps, start=1):
        for _ in range(steps):
            psi = _rk4_step(h, psi, dt)
        states[frame] = psi
    return WaveTrajectory(
        times=times,
        states=states,
        geometry=geometry,
        k=k,
        n0=n0,
        sigma=sigma,
        norm_cap_exceeded=_warn_norm_cap(times, states, norm_cap),
    )


def block_intensities(traj: WaveTrajectory, frame: int = -1) -> tuple[float, float, float, float]:
    """(R, T, leak, edge) intensity sums of one frame.

    R and T sum the left and right lead blocks, leak the center block, and
    edge the outermost :data:`EDGE_WINDOW` sites at both open ends.
    """
    if traj.geometry is None:
        raise ValueError("trajectory carries no chain geometry")
    geom = traj.geometry
    density = np.abs(traj.states[frame]) ** 2
    left, right = density[geom.left_slice], density[geom.right_slice]
    leak = float(density[geom.center_slice].sum())
    edge = float(left[:EDGE_WINDOW].sum() + right[-EDGE_WINDOW:].sum())
    return float(left.sum()), float(right.sum()), leak, edge


def packet_experiment(
    system: ScatteringSystem,
    k: float,
    n0: float = DEFAULT_N0,
    sigma: float = DEFAULT_SIGMA,
    left_len: int = DEFAULT_LEAD_LEN,
    right_len: int = DEFAULT_LEAD_LEN,
    dt: float | None = None,
    t_final: float | None = None,
    frames: int = DEFAULT_FRAMES,
) -> WaveTrajectory:
    """Full scattering experiment: build chain, launch packet, propagate.

    Defaults follow the scale of the packet: leads of 300 sites (at least
    50 required so the packet and detectors fit with clearance), time step
    ``0.02 / J``, and final time ``(|n0| + 60) / v_g`` so the packet clears
    the center before any readout.

    The frames are exact (:func:`_taylor_frames`); ``dt`` only sets their
    grid, as in :func:`propagate_rk4`.  RK4 at step ``dt`` over the first
    frame cross-checks them: ``rk4_deviation`` is the largest deviation of
    its state from frame 1, relative to the largest amplitude of frame 1.
    ``taylor_matvecs`` counts the chain matvecs of the exact frames.
    A norm above :data:`NORM_CAP` warns and sets ``norm_cap_exceeded``.
    Above :data:`MAX_PROPAGATION_STEPS` Taylor substeps and RK4 steps in
    all, it raises :class:`WorkLimitError` before propagating.
    """
    if left_len < MIN_EXPERIMENT_LEAD or right_len < MIN_EXPERIMENT_LEAD:
        raise GeometryTooSmallError(
            f"packet experiments need leads of at least {MIN_EXPERIMENT_LEAD} sites, "
            f"got ({left_len}, {right_len})"
        )
    mode = mode_params(k, system.coupling)
    h = build_chain(system, left_len, right_len)
    psi0 = gaussian_packet(h, n0, sigma, k)
    if dt is None:
        dt = DEFAULT_DT / system.coupling
    if t_final is None:
        t_final = (abs(n0) + 60.0) / mode.group_velocity
    frame_steps, times = _frame_schedule(dt, t_final, frames)
    substeps = sum(_taylor_substeps(h, times).tolist())  # inf, not a warning, on overflow
    if not substeps + frame_steps[0] <= MAX_PROPAGATION_STEPS:
        raise WorkLimitError(
            f"the packet experiment would take {substeps:.3g} exact-propagator substeps "
            f"(||H||_1 = {h.norm1:.3g}) and {frame_steps[0]} RK4 steps, more than "
            f"{MAX_PROPAGATION_STEPS:.0e} in all"
        )
    states, matvecs = _taylor_frames(h, psi0, times)
    # the frames below report a norm-cap crossing; the check stays silent
    check = propagate_rk4(h, psi0, dt=dt, t_final=float(times[1]), frames=1, norm_cap=math.inf)
    deviation = np.abs(check.states[1] - states[1]).max() / np.abs(states[1]).max()
    return WaveTrajectory(
        times=times,
        states=states,
        geometry=h,
        k=mode.k,
        n0=n0,
        sigma=sigma,
        norm_cap_exceeded=_warn_norm_cap(times, states, NORM_CAP),
        rk4_deviation=float(deviation),
        taylor_matvecs=matvecs,
    )
