"""Time-domain wave-packet experiments on a finite embedding chain.

The two semi-infinite leads are truncated to ``left_len`` and ``right_len``
sites around the center block, giving an open chain of
``L = left_len + N + right_len`` sites ordered left lead, center, right
lead.  Lead sites carry signed offsets: ``j = -left_len .. -1`` on the
left, ``j = +1 .. right_len`` on the right, with the center block between.

A Gaussian packet launched in the left lead scatters off the center; the
intensity left of the center afterwards is the reflection, the intensity to
the right the transmission.  ``packet_experiment`` propagates
``i dpsi/dt = H psi`` exactly with a Chebyshev expansion of
``exp(-i H t)`` on the chain's matvec, one recurrence for a block of
consecutive frames, and checks the first frame against classical
fourth-order Runge-Kutta (:func:`propagate_rk4`), an independent
integrator.  The chain is a :class:`ChainOperator` of numpy arrays, so a
packet experiment needs no scipy.
"""

from __future__ import annotations

import functools
import itertools
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
# A Chebyshev block stops where its Bessel-weighted tail drops below the unit
# roundoff of double precision.
CHEBYSHEV_TOL = 2.0 ** -53
# The largest e^(eta tau) of one block, which bounds the cancellation between
# its terms, and the largest a tau, which bounds its stored vectors: at
# a tau = 64 and any eta / a, a block takes at most 117 terms beyond the first,
# within the CHEBYSHEV_ORDERS Bessel orders that the run tabulates.
CHEBYSHEV_GROWTH = 256.0
CHEBYSHEV_SPAN = 64.0
CHEBYSHEV_ORDERS = 128
# The most frames of one block; one Bessel table serves the blocks that start in
# one window of this many frames: fewer than 2 x 1,024 rows, a few MB of temporaries.
CHEBYSHEV_BATCH = 1024
# A packet experiment refuses to start above this many exact-propagator
# matvecs and RK4 steps in all: about ten seconds of work on a 600-site chain,
# where the documented defaults take at most 454 (399 matvecs and 55 RK4 steps).
MAX_PROPAGATION_STEPS = 10 ** 6
MAX_STEP_COUNT = 2.0 ** 63  # the step counts of a frame schedule are int64
# A packet experiment refuses to start when its (frames + 1, L) complex states
# take more bytes: 137 times the 0.49 MB of the defaults (a 602-site chain).
# A chain has at least 101 sites, so it refuses more than 41,526 frames too.
MAX_FRAME_BYTES = 2 ** 26


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
    propagator_matvecs: int | None = None

    @property
    def initial_norm(self) -> float:
        return float(np.linalg.norm(self.states[0]))


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """A chain Hamiltonian as numpy arrays: the hopping ``hop`` between
    neighbouring sites, except on the rows ``rows``, which hold the dense
    block ``window`` over the columns ``cols`` and nothing else.

    ``h @ x`` takes one state of ``size`` sites or a ``(size, m)`` block of
    ``m`` states.
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
        y[self.rows] = self.window @ x[self.cols]
        return y

    def toarray(self) -> np.ndarray:
        return self._block(0, self.size)

    def _block(self, start: int, stop: int) -> np.ndarray:
        """The dense block ``H[start:stop, start:stop]`` of sites that hold
        all of the window's rows and columns."""
        dense = np.zeros((stop - start, stop - start), dtype=np.complex128)
        sites = np.arange(stop - start - 1)
        dense[sites, sites + 1] = dense[sites + 1, sites] = self.hop
        rows = slice(self.rows.start - start, self.rows.stop - start)
        dense[rows] = 0.0
        dense[rows, self.cols.start - start:self.cols.stop - start] = self.window
        return dense

    @functools.cached_property
    def gershgorin(self) -> tuple[float, float, float, float]:
        """Gershgorin bounds ``(lo, hi, lo_b, hi_b)``, without the dense
        chain: the spectrum of the Hermitian part ``(H + H†) / 2`` lies in
        ``[lo, hi]`` and that of the anti-Hermitian part ``(H - H†) / 2i`` in
        ``[lo_b, hi_b]``; a bound that overflows is infinite.

        A row off the window's columns, which reach one site past its rows,
        holds only the hopping; the block of ``H`` on those columns and one
        site beyond holds every entry of both parts in their rows.
        """
        start, stop = max(self.cols.start - 1, 0), min(self.cols.stop + 1, self.size)
        cols = slice(self.cols.start - start, self.cols.stop - start)
        block = self._block(start, stop)
        neighbours = np.full(self.size, 2.0)
        neighbours[[0, -1]] = 1.0
        bounds = []
        with np.errstate(all="ignore"):
            # halves first, so that a finite entry gives a finite part
            for part, hop in ((block / 2 + block.conj().T / 2, self.hop.real),
                              ((block / 2 - block.conj().T / 2) / 1j, self.hop.imag)):
                centre, radius = np.zeros(self.size), neighbours * abs(hop)
                off_diagonal = np.abs(part)
                np.fill_diagonal(off_diagonal, 0.0)
                centre[self.cols] = part.diagonal().real[cols]
                radius[self.cols] = off_diagonal.sum(axis=1)[cols]
                bounds += [float((centre - radius).min()), float((centre + radius).max())]
        return tuple(bounds)

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


def _bessel_j(z: np.ndarray, orders: int) -> np.ndarray:
    """``J_0(z) .. J_{orders-1}(z)`` at each ``z >= 0``, shape ``(z.size, orders)``.

    Miller's backward recurrence ``J_{k-1} = (2k / z) J_k - J_{k+1}``, started
    from ``J_{N+1} = 0`` and ``J_N = 1`` at an even order ``N`` more than 32
    above the table and ``z``, and normalized by ``J_0 + 2 (J_2 + J_4 + ...)
    = 1``.  One step grows the values by at most ``2N / z + 1``; before that
    growth could pass ``2**1020``, the values above ``2**500`` and every
    higher order of their argument scale by ``2**-500``.  Below ``z = 2**-60``
    the series ``(z / 2)^k / k!`` is exact in double precision and takes the
    recurrence's place.
    """
    z = np.asarray(z, dtype=np.float64)
    small = z < 2.0 ** -60
    x = np.where(small, 1.0, z)
    top = 2 * ((max(orders, math.ceil(x.max())) + 34) // 2)
    factors = np.arange(top + 1)[:, None] * (2.0 / x)
    j = np.empty((top + 2, z.size))
    j[top + 1], j[top] = 0.0, 1.0
    growth = math.log2(2.0 * top / x.min() + 1.0)
    bits = 0.0  # the growth since the last check, in bits
    for k in range(top, 0, -1):
        np.multiply(factors[k], j[k], out=j[k - 1])
        j[k - 1] -= j[k + 1]
        bits += growth
        if bits + growth > 520.0:
            bits = 0.0
            big = np.abs(j[k - 1:k + 1]).max(axis=0) > 2.0 ** 500
            j[k - 1:, big] *= 2.0 ** -500
    table = (j[:orders] / (j[0] + 2.0 * j[2:top + 1:2].sum(axis=0))).T
    series = np.hstack([np.ones((z.size, 1)), z[:, None] / (2.0 * np.arange(1, orders))])
    table[small] = np.cumprod(series[small], axis=1)
    return table


@dataclass(frozen=True)
class _ChebyshevPlan:
    """The blocks of a Chebyshev propagation and the matvecs they take.

    ``centre`` and ``half_width`` scale the chain to ``X = (H - centre) /
    half_width``, and ``span`` is the longest time of one block.  Each block
    ``(first, stop, substeps, coefficients)`` advances frame ``first`` by
    ``substeps`` equal steps (one unless a frame interval is split); its
    coefficients, one row per frame ``first + 1 .. stop``, weigh the
    Chebyshev vectors of the state at the start of each step.  ``matvecs`` is
    a float, ``inf`` when the count overflows; a plan with infinite substeps
    has no blocks.
    """

    centre: float
    half_width: float
    span: float
    blocks: tuple
    matvecs: float


def _chebyshev_plan(h: ChainOperator, times: np.ndarray) -> _ChebyshevPlan:
    """Blocks of consecutive frames at ``times``, and the coefficients of
    ``exp(-i H tau)`` on each, for :func:`_chebyshev_frames`.

    With the bounds of :attr:`ChainOperator.gershgorin`, ``b = (hi + lo) / 2``,
    ``eta = max(|lo_b|, |hi_b|)`` and ``a`` the larger of ``(hi - lo) / 2`` and
    ``eta``, ``X = (H - b) / a`` has its spectrum in ``[-1, 1] x [-i, i] eta /
    a``, and ``exp(-i H tau) = sum_k c_k(tau) T_k(X)`` with ``c_k = (2 -
    delta_k0) (-i)^k e^(-i b tau) J_k(a tau)`` (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967, 1984).  A block spans frames up to ``tau = span``, where
    ``e^(eta tau)`` reaches :data:`CHEBYSHEV_GROWTH` or ``a tau`` reaches
    :data:`CHEBYSHEV_SPAN`, and over at most :data:`CHEBYSHEV_BATCH` frames;
    a longer frame interval splits into the fewest equal substeps within
    ``span``.  A block's series stops at the first
    ``K`` where ``sum_(k > K) max|c_k| rho^k``, with the maximum over its
    frames and ``rho = eta / a + sqrt(1 + (eta / a)^2)``, falls below
    :data:`CHEBYSHEV_TOL`.  ``a`` rises to ``eta`` on a strongly
    non-Hermitian chain so that ``rho <= 1 + sqrt(2)``: the Chebyshev vectors
    grow as ``rho^k`` at most, and cannot overflow before the frames do.
    """
    lo, hi, lo_b, hi_b = h.gershgorin
    eta = max(abs(lo_b), abs(hi_b))
    centre, half_width = hi / 2 + lo / 2, max(hi / 2 - lo / 2, eta)
    with np.errstate(all="ignore"):  # overflow gives inf; at eta = 0, a tau alone bounds a block
        span = min(np.log(CHEBYSHEV_GROWTH) / np.float64(eta),
                   CHEBYSHEV_SPAN / np.float64(half_width))
        substeps = np.maximum(1.0, np.ceil(np.diff(times) / span))
    if not np.isfinite(substeps).all():
        return _ChebyshevPlan(centre, half_width, span, (), math.inf)
    steps, first = [], 0
    for stop, count in enumerate(substeps.tolist(), start=1):
        if count > 1.0 or times[stop] - times[first] > span or stop - first > CHEBYSHEV_BATCH:
            if stop - 1 > first:
                steps.append((first, stop - 1, 1.0))
            first = stop - 1
        if count > 1.0:
            steps.append((first, stop, count))
            first = stop
    if first < len(times) - 1:
        steps.append((first, len(times) - 1, 1.0))

    orders = np.arange(CHEBYSHEV_ORDERS)
    weight = 2.0 - (orders == 0)
    ratio = eta / half_width
    tail_weights = weight * (ratio + math.sqrt(1.0 + ratio ** 2)) ** orders
    phases = weight * np.array([1.0, -1j, -1.0, 1j])[orders % 4]
    blocks, matvecs = [], 0.0
    # one Bessel table for the blocks that start in each window of
    # CHEBYSHEV_BATCH frames: one for the whole run at the defaults
    for _, group in itertools.groupby(steps, key=lambda step: step[0] // CHEBYSHEV_BATCH):
        group = list(group)
        taus = [(times[first + 1:stop + 1] - times[first]) / count for first, stop, count in group]
        bessel = _bessel_j(half_width * np.concatenate(taus), CHEBYSHEV_ORDERS)
        ends = np.cumsum([tau.size for tau in taus])[:-1]
        for (first, stop, count), tau, block_bessel in zip(group, taus, np.split(bessel, ends)):
            weights = np.abs(block_bessel).max(axis=0) * tail_weights
            beyond = np.append(np.cumsum(weights[::-1])[-2::-1], 0.0)  # sum over k > K
            terms = int(np.argmax(beyond < CHEBYSHEV_TOL)) + 1
            coefficients = (np.exp(-1j * centre * tau)[:, None] * phases[:terms]
                            * block_bessel[:, :terms])
            blocks.append((first, stop, int(count), coefficients))
            matvecs += count * (terms - 1)
    return _ChebyshevPlan(centre, half_width, span, tuple(blocks), matvecs)


def _chebyshev_frames(h, psi0: np.ndarray, plan: _ChebyshevPlan) -> np.ndarray:
    """The states ``exp(-i H t) psi0`` at the frame times of ``plan``, which start at 0.

    Each step of a block runs the three-term recurrence ``v_0 = psi``,
    ``v_1 = X v_0``, ``v_(k+1) = 2 X v_k - v_(k-1)`` on the chain's matvec and
    takes all the block's frames as one product ``coefficients @ v``.
    """
    states = np.empty((plan.blocks[-1][1] + 1, psi0.size), dtype=np.complex128)
    states[0] = psi0
    vectors = np.empty((max(block[3].shape[1] for block in plan.blocks), psi0.size),
                       dtype=np.complex128)
    scale, shift = 2.0 / plan.half_width, 2.0 * plan.centre / plan.half_width
    for first, stop, substeps, coefficients in plan.blocks:
        frames = states[first + 1:stop + 1]
        v = vectors[:coefficients.shape[1]]
        v[0] = states[first]
        for _ in range(substeps):
            for k in range(1, len(v)):
                np.multiply(h @ v[k - 1], scale, out=v[k])
                if shift:
                    v[k] -= shift * v[k - 1]
                if k == 1:
                    v[1] *= 0.5
                else:
                    v[k] -= v[k - 2]
            if len(frames) == 1:  # BLAS's one-row gemv sums in an order set by its threads
                np.einsum("k,kn->n", coefficients[0], v, out=frames[0])
            else:
                np.matmul(coefficients, v, out=frames)
            v[0] = frames[-1]
    return states


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

    The frames are exact, from the Chebyshev blocks of
    :func:`_chebyshev_plan`; ``dt`` only sets their grid, as in
    :func:`propagate_rk4`.  RK4 at step ``dt`` over the first frame
    cross-checks them: ``rk4_deviation`` is the largest deviation of its
    state from frame 1, relative to the largest amplitude of frame 1.
    ``propagator_matvecs`` is the plan's count of the exact frames' chain matvecs.
    A norm above :data:`NORM_CAP` warns and sets ``norm_cap_exceeded``.
    Above :data:`MAX_PROPAGATION_STEPS` planned matvecs, substeps included,
    and RK4 steps in all, it raises :class:`WorkLimitError` before
    propagating, and above :data:`MAX_FRAME_BYTES` of frames before building
    the chain.
    """
    if left_len < MIN_EXPERIMENT_LEAD or right_len < MIN_EXPERIMENT_LEAD:
        raise GeometryTooSmallError(
            f"packet experiments need leads of at least {MIN_EXPERIMENT_LEAD} sites, "
            f"got ({left_len}, {right_len})"
        )
    sites = left_len + system.dim + right_len
    size = 16 * (frames + 1) * sites
    if size > MAX_FRAME_BYTES:
        raise WorkLimitError(f"the initial state and {frames} frames of a {sites}-site chain take "
                             f"{size:.3g} bytes, more than {MAX_FRAME_BYTES:.3g}")
    mode = mode_params(k, system.coupling)
    h = build_chain(system, left_len, right_len)
    psi0 = gaussian_packet(h, n0, sigma, k)
    if dt is None:
        dt = DEFAULT_DT / system.coupling
    if t_final is None:
        t_final = (abs(n0) + 60.0) / mode.group_velocity
    frame_steps, times = _frame_schedule(dt, t_final, frames)
    plan = _chebyshev_plan(h, times)
    if not plan.matvecs + frame_steps[0] <= MAX_PROPAGATION_STEPS:
        raise WorkLimitError(
            f"the packet experiment would take {plan.matvecs:.3g} exact-propagator matvecs "
            f"(Chebyshev blocks of at most t = {plan.span:.3g}) "
            f"and {frame_steps[0]} RK4 steps, more than {MAX_PROPAGATION_STEPS:.0e} in all"
        )
    states = _chebyshev_frames(h, psi0, plan)
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
        propagator_matvecs=int(plan.matvecs),
    )
