import math

import numpy as np
import pytest
import scipy.sparse as sp

from nhscatter import (
    GeometryTooSmallError,
    PacketOutOfBoundsError,
    ScatteringSystem,
    block_intensities,
    build_chain,
    gaussian_packet,
    packet_experiment,
    propagate_rk4,
    prototype_system,
    scattering_matrix,
)
from nhscatter.dynamics import (
    EDGE_TOL,
    TAYLOR_THETA,
    _frame_schedule,
    _taylor_frames,
    _taylor_substeps,
)
from helpers import final_rt, overlap_series, propagate_expm, random_center

GAMMA = 1.0 / 3.0


def _lossy_center(rng, n, scale=0.2):
    """Random center biased towards loss, so long evolutions stay bounded."""
    return scale * random_center(rng, n) - 1j * scale * np.eye(n)


def _random_state(rng, size):
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# chain construction


def test_single_site_center_gives_uniform_chain():
    h = build_chain(np.zeros((1, 1)), 2, 2)
    dense = h.toarray()
    expected = np.zeros((5, 5), dtype=complex)
    for i in range(4):
        expected[i, i + 1] = expected[i + 1, i] = -1.0
    np.testing.assert_array_equal(dense, expected)
    assert h.size == 5
    assert h.center_slice == slice(2, 3)


def test_undamped_embedding_places_imaginary_coupling():
    system = prototype_system("undamped", 0.0, GAMMA)
    h = build_chain(system, 3, 3)
    dense = h.toarray()
    c0 = h.center_slice.start
    assert dense[c0, c0 + 1] == -1j * GAMMA
    assert dense[c0 + 1, c0] == -1j * GAMMA
    # lead-center bonds are -J
    assert dense[c0 - 1, c0] == -1.0
    assert dense[c0 + 1, c0 + 2] == -1.0


def test_hermitian_center_gives_hermitian_chain():
    rng = np.random.default_rng(4)
    a = random_center(rng, 3)
    h = build_chain(a + a.conj().T, 5, 5)
    dense = h.toarray()
    assert np.abs(dense - dense.conj().T).max() == 0.0


def _csr_chain(center, ports, left_len, right_len, j):
    """The chain as scipy.sparse assembles it: the reference of build_chain."""
    def lead(sites):
        return sp.diags([np.full(sites - 1, -j)] * 2, [-1, 1], shape=(sites, sites))

    h = sp.block_diag([lead(left_len), sp.coo_matrix(center), lead(right_len)],
                      format="lil", dtype=complex)
    n = center.shape[0]
    a, b = left_len - 1, left_len + ports[0]
    c, d = left_len + ports[1], left_len + n
    h[a, b] = h[b, a] = h[c, d] = h[d, c] = -j
    return h.tocsr()


def _chain_cases():
    """(center or system, left_len, right_len): the dimers, random 3- to
    8-site centers with reversed, non-adjacent ports, a one-site center, and
    empty dimers whose largest column sum is a lead bond's."""
    rng = np.random.default_rng(31)
    lossy = prototype_system("damped", 0.0, GAMMA)
    dimers = [lossy, lossy.daggered(),
              ScatteringSystem(prototype_system("undamped", 0.2, 0.4).center, (1, 0), 1.3)]
    cases = [(system, left, right) for system in dimers for left, right in ((300, 300), (1, 2))]
    for n in range(3, 9):
        ports = (n - 1, int(rng.integers(0, n - 2)))
        system = ScatteringSystem(random_center(rng, n), ports, float(rng.uniform(0.5, 2.0)))
        cases += [(system, 300, 300), (system, 1, 1), (system, 2, 5)]
    return cases + [(np.array([[0.4 - 0.2j]]), 4, 3), (np.zeros((2, 2)), 2, 1),
                    (np.zeros((2, 2)), 1, 2)]


@pytest.mark.parametrize("system, left_len, right_len", _chain_cases())
def test_chain_operator_matches_scipy_sparse(system, left_len, right_len):
    h = build_chain(system, left_len, right_len)
    if isinstance(system, ScatteringSystem):
        n = len(system.center)
        ref = _csr_chain(system.center, system.ports, left_len, right_len, system.coupling)
    else:
        n = len(system)
        ref = _csr_chain(system, (0, n - 1), left_len, right_len, 1.0)
    assert (h.left_slice, h.center_slice, h.right_slice) == (
        slice(0, left_len), slice(left_len, left_len + n),
        slice(left_len + n, left_len + n + right_len))
    dense = h.toarray()
    np.testing.assert_array_equal(dense, ref.toarray())
    # the same float as the sparse column sums, so the same Taylor substeps
    assert h.norm1 == float(np.abs(dense).sum(axis=0).max()) == float(abs(ref).sum(axis=0).max())
    rng = np.random.default_rng(h.size)
    x = rng.normal(size=h.size) + 1j * rng.normal(size=h.size)
    if n != 2:
        want = ref @ x
        assert np.abs(h @ x - want).max() <= 1e-15 * np.abs(want).max()
        return
    # bit for bit, signed zeros included, also on a state whose center and
    # right lead are exact zeros, as a packet's are at launch
    empty_right = x.copy()
    empty_right[h.center_slice.start:] = 0.0
    for state in (x, empty_right):
        np.testing.assert_array_equal((h @ state).view(np.uint64),
                                      _first_product_sums(ref, h, state).view(np.uint64))
    # past the window rows, the empty right lead's real parts are -0
    assert np.signbit((h @ empty_right).real[h.right_slice][1:]).all()


def _first_product_sums(ref, h, x):
    """``ref @ x`` with the zero sign of ``ChainOperator``'s sums, which start
    at a row's first product, not at +0 as CSR's do: a real or imaginary part
    is -0 where all the products of its row are -0.  A row's products are
    those of its hopping neighbours, or of its whole window row."""
    want = (ref @ x).view(np.float64).reshape(-1, 2).copy()
    dense = h.toarray()
    taken = dense != 0
    taken[h.rows, h.cols] = True
    products = (dense * x).view(np.float64).reshape(h.size, h.size, 2)
    negative_zero = (products == 0) & np.signbit(products)
    all_negative_zero = np.where(taken[:, :, None], negative_zero, True).all(axis=1)
    want[all_negative_zero] = -0.0
    return want.view(np.complex128).ravel()


def test_build_chain_rejects_empty_leads():
    with pytest.raises(GeometryTooSmallError):
        build_chain(np.zeros((2, 2)), 0, 5)


# ---------------------------------------------------------------------------
# initial packet


def test_packet_norm_close_to_one():
    geom = build_chain(np.zeros((2, 2)), 300, 300)
    psi = gaussian_packet(geom, -50.0, 10.0, math.pi / 2.0)
    # Riemann sum of the squared envelope vs the sqrt(pi)*sigma normalizer
    offsets = np.arange(-300, 0)
    riemann = float(np.exp(-((offsets + 50.0) ** 2) / 100.0).sum())
    assert abs(riemann / (math.sqrt(math.pi) * 10.0) - 1.0) < 1e-6
    assert abs(np.linalg.norm(psi) ** 2 - 1.0) < 1e-6


def test_packet_lives_only_in_left_lead():
    geom = build_chain(np.zeros((2, 2)), 120, 80)
    psi = gaussian_packet(geom, -60.0, 10.0, 1.2)
    assert np.abs(psi[geom.center_slice]).max() == 0.0
    assert np.abs(psi[geom.right_slice]).max() == 0.0


def test_packet_out_of_bounds():
    geom = build_chain(np.zeros((2, 2)), 120, 80)
    with pytest.raises(PacketOutOfBoundsError):
        gaussian_packet(geom, -60.0, 20.0, 1.2)  # support reaches the center
    with pytest.raises(PacketOutOfBoundsError):
        gaussian_packet(geom, -100.0, 10.0, 1.2)  # support reaches the open end
    # the core n0 -/+ 5 sigma may end exactly at -(left_len + 1) and at 0
    gaussian_packet(geom, -50.0, 10.0, 1.2)
    gaussian_packet(geom, -71.0, 10.0, 1.2)
    # just past each end, and the message tells the core apart from an admissible one
    with pytest.raises(PacketOutOfBoundsError, match=r"\[-99\.999, 0\.000999\d*\] leaves"):
        gaussian_packet(geom, -49.999, 10.0, 1.2)
    with pytest.raises(PacketOutOfBoundsError, match=r"\[-121\.001, -21\.001\d*\] leaves"):
        gaussian_packet(geom, -71.001, 10.0, 1.2)
    # the reference experiment geometry is exactly admissible
    geom300 = build_chain(np.zeros((2, 2)), 300, 300)
    gaussian_packet(geom300, -50.0, 10.0, math.pi / 2.0)


# ---------------------------------------------------------------------------
# propagation


def test_zero_hamiltonian_freezes_state():
    rng = np.random.default_rng(0)
    psi0 = _random_state(rng, 12)
    traj = propagate_rk4(np.zeros((12, 12)), psi0, dt=0.05, t_final=2.0, frames=10)
    np.testing.assert_array_equal(traj.states[-1], psi0)


@pytest.mark.parametrize("dt, t_final, frames", [(0.02, 45.0, 3000), (0.5, 2.0, 5)])
def test_rk4_refuses_more_frames_than_steps(dt, t_final, frames):
    # a frame takes at least one dt step, so more frames than steps would stretch the run
    with pytest.raises(ValueError) as exc:
        propagate_rk4(np.zeros((4, 4)), np.ones(4), dt=dt, t_final=t_final, frames=frames)
    assert f"dt={dt}, t_final={t_final}, frames={frames}" in str(exc.value)
    # one step per frame is the limit, also where t_final / dt is 2.9999999999999996
    traj = propagate_rk4(np.zeros((4, 4)), np.ones(4), dt=0.1, t_final=0.3, frames=3)
    assert traj.times.tolist() == [0.0, 0.1, 0.2, 0.1 * 3]


def test_frame_schedule_lands_within_half_a_step_of_t_final():
    # the documented default: 2,750 steps in 50 frames of 55, on the grid
    # dt * 55 * i bit for bit, as the packet frames CSV carries it
    steps, times = _frame_schedule(0.02, 55.0, 50)
    assert steps.tolist() == [55] * 50
    np.testing.assert_array_equal(times, 0.02 * 55 * np.arange(51))
    # 2,125 steps in 50 frames split 42 and 43 and end on t_final, not 42.0
    steps, times = _frame_schedule(0.02, 42.5, 50)
    assert set(steps.tolist()) == {42, 43} and steps.sum() == 2125
    assert times[-1] == 42.5
    np.testing.assert_allclose(times[1:], 0.02 * np.cumsum(steps), rtol=0.0, atol=1e-12)
    # RK4 takes the same steps however the frames cut them (74 in 50 here)
    rng = np.random.default_rng(3)
    h = _lossy_center(rng, 6)
    psi0 = _random_state(rng, 6)
    framed = propagate_rk4(h, psi0, dt=0.02, t_final=1.49, frames=50)
    whole = propagate_rk4(h, psi0, dt=0.02, t_final=1.49, frames=1)
    np.testing.assert_array_equal(framed.states[-1], whole.states[-1])
    assert framed.times[-1] == whole.times[-1]


def test_hermitian_chain_preserves_norm():
    # band-center packet on a uniform chain, long evolution with edge bounces
    h = build_chain(np.zeros((1, 1)), 120, 120)
    psi0 = gaussian_packet(h, -60.0, 10.0, math.pi / 2.0)
    psi0 = psi0 / np.linalg.norm(psi0)
    traj = propagate_rk4(h, psi0, dt=0.02, t_final=100.0, frames=20)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-8


def test_rk4_matches_expm_oracle_on_random_chain():
    rng = np.random.default_rng(11)
    h = build_chain(_lossy_center(rng, 4), 18, 18)
    assert h.size == 40
    psi0 = _random_state(rng, 40)
    traj = propagate_rk4(h, psi0, dt=0.02, t_final=10.0)
    exact = propagate_expm(h, psi0, float(traj.times[-1]))
    assert np.abs(traj.states[-1] - exact).max() < 1e-6


def test_rk4_is_fourth_order():
    rng = np.random.default_rng(11)
    h = build_chain(_lossy_center(rng, 4), 8, 8)
    psi0 = _random_state(rng, h.size)
    exact = propagate_expm(h, psi0, 5.0)
    errs = []
    for dt in (0.04, 0.02):
        traj = propagate_rk4(h, psi0, dt=dt, t_final=5.0, frames=25)
        assert float(traj.times[-1]) == 5.0
        errs.append(np.abs(traj.states[-1] - exact).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_scipy_expm_cross_check():
    # the scipy.linalg.expm propagator against an eigendecomposition of H
    rng = np.random.default_rng(9)
    h = build_chain(random_center(rng, 4), 13, 13)
    psi0 = _random_state(rng, h.size)
    mine = propagate_expm(h, psi0, 3.0)
    w, v = np.linalg.eig(h.toarray())
    ref = v @ (np.exp(-3j * w) * np.linalg.solve(v, psi0))
    assert np.abs(mine - ref).max() < 1e-11


def test_norm_cap_reported_not_raised():
    # strong gain on a small chain
    center = np.array([[1j]], dtype=complex)
    h = build_chain(center, 5, 5)
    psi0 = np.zeros(h.size, dtype=complex)
    psi0[h.center_slice] = 1.0
    with pytest.warns(RuntimeWarning, match="amplifying"):
        traj = propagate_rk4(h, psi0, dt=0.02, t_final=40.0, frames=10, norm_cap=1e3)
    assert traj.norm_cap_exceeded


@pytest.mark.parametrize("center", ["lossy", "gain", "undamped", "random"])
def test_taylor_frames_match_expm_oracle(center):
    rng = np.random.default_rng(7)
    centers = {
        "lossy": prototype_system("damped", 0.0, GAMMA),
        "gain": prototype_system("damped", 0.0, GAMMA).daggered(),
        "undamped": prototype_system("undamped", 0.0, GAMMA),
        "random": random_center(rng, 4),  # strongly non-Hermitian: the norm grows 1e8-fold
    }
    h = build_chain(centers[center], 20, 20)
    assert h.size <= 64
    psi0 = _random_state(rng, h.size)
    _, times = _frame_schedule(0.02, 20.0, 10)
    states, _ = _taylor_frames(h, psi0, times)
    # Each substep stops at the unit roundoff 2**-53 of its partial sum, and
    # rounding over at most 40 substeps of up to ~25 terms reaches ~1e-14
    # (4e-15 seen, the dense expm oracle included); 1e-12 leaves a hundredfold
    # margin.
    for state, t_now in zip(states, times):
        exact = propagate_expm(h, psi0, float(t_now))
        assert np.abs(state - exact).max() <= 1e-12 * np.abs(exact).max()


class _CountingChain:
    """A chain operator that counts its matvecs."""

    def __init__(self, h):
        self.h, self.norm1, self.matvecs = h, h.norm1, 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.h @ x


def test_default_packet_takes_one_taylor_substep_per_frame():
    # ||H||_1 = 2 over frame intervals of 1.1 is below theta_25: one substep a
    # frame of ~19 terms; three substeps a frame (||tau H||_1 <= 1) take about
    # 1,900 matvecs, which the bound of 1,000 refuses
    for system in (prototype_system("damped", 0.0, GAMMA),
                   prototype_system("damped", 0.0, GAMMA).daggered(),
                   prototype_system("undamped", 0.0, GAMMA)):
        traj = packet_experiment(system, k=math.pi / 2.0)
        h = build_chain(system, 300, 300)
        assert _taylor_substeps(h, traj.times).tolist() == [1.0] * 50
        counting = _CountingChain(h)
        states, matvecs = _taylor_frames(counting, traj.states[0], traj.times)
        np.testing.assert_array_equal(states, traj.states)
        assert matvecs == counting.matvecs == traj.taylor_matvecs <= 1000


@pytest.mark.parametrize("center", ["gain", "random"])
@pytest.mark.parametrize("side, substeps", [(1.0 - 1e-6, 1), (1.0 + 1e-6, 2)])
def test_taylor_substeps_at_theta_match_expm_oracle(center, side, substeps):
    # frame intervals with ||dt H||_1 just below and just above theta_25
    rng = np.random.default_rng(11)
    system = (prototype_system("damped", 0.0, GAMMA).daggered() if center == "gain"
              else random_center(rng, 4))
    h = build_chain(system, 20, 20)
    psi0 = _random_state(rng, h.size)
    times = np.arange(6) * (side * TAYLOR_THETA / h.norm1)
    assert _taylor_substeps(h, times).tolist() == [substeps] * 5
    states, _ = _taylor_frames(h, psi0, times)
    for state, t_now in zip(states, times):
        exact = propagate_expm(h, psi0, float(t_now))
        assert np.abs(state - exact).max() <= 1e-12 * np.abs(exact).max()


def test_packet_experiment_agrees_with_rk4_on_bench_dimers():
    # RK4 at the default dt is itself ~1.4e-10 off the exact propagator
    for system in (prototype_system("damped", 0.0, GAMMA),
                   prototype_system("damped", 0.0, GAMMA).daggered(),
                   prototype_system("undamped", 0.0, GAMMA)):
        traj = packet_experiment(system, k=math.pi / 2.0)
        h = build_chain(system, 300, 300)
        psi0 = gaussian_packet(h, -50.0, 10.0, math.pi / 2.0)
        rk4 = propagate_rk4(h, psi0, dt=0.02, t_final=float(traj.times[-1]), geometry=h)
        np.testing.assert_array_equal(traj.times, rk4.times)
        np.testing.assert_allclose(block_intensities(traj)[:3], block_intensities(rk4)[:3],
                                   rtol=1e-9, atol=1e-9)
        assert traj.rk4_deviation < 1e-9


def test_packet_experiment_reports_norm_cap():
    # on-site gain of 2 on both center sites: a bound state grows like exp(2t)
    system = ScatteringSystem(np.array([[2j, -1.0], [-1.0, 2j]]), (0, 1))
    with pytest.warns(RuntimeWarning, match=r"exceeded 1\.0e\+12 at t=\d") as caught:
        traj = packet_experiment(system, k=math.pi / 2.0)
    assert len(caught) == 1
    assert traj.norm_cap_exceeded
    norms = np.linalg.norm(traj.states, axis=1)
    first = int(np.argmax(norms > 1e12))
    assert f"at t={traj.times[first]:.3g};" in str(caught[0].message)


# ---------------------------------------------------------------------------
# measurements


def test_measure_rt_damped_prototype():
    traj = packet_experiment(prototype_system("damped", 0.0, GAMMA), k=math.pi / 2.0,
                             left_len=150, right_len=150)
    r, t, leak = final_rt(traj)
    assert abs(r - 0.36) < 0.02
    assert abs(t - 0.16) < 0.02
    assert leak < 1e-6


def test_measure_rt_daggered_damped_prototype():
    system = prototype_system("damped", 0.0, GAMMA).daggered()
    traj = packet_experiment(system, k=math.pi / 2.0, left_len=150, right_len=150)
    r, t, leak = final_rt(traj)
    assert abs(r - 8.9) < 0.3
    assert abs(t - 3.9) < 0.15


def test_packet_follows_port_order_not_labels():
    # the first port takes the left lead, as in the S-matrix layout, even at the higher site
    center = np.array([[0.3 - 0.2j, -0.4j], [-0.4j, -0.1]])
    system = ScatteringSystem(center, (1, 0))
    s = scattering_matrix(system, math.pi / 2.0).entries
    r, t, _ = final_rt(packet_experiment(system, k=math.pi / 2.0))
    assert abs(r - abs(s[0, 0]) ** 2) < 0.02
    assert abs(t - abs(s[1, 0]) ** 2) < 0.02


def test_packet_values_converge_to_plane_wave_with_width():
    # the band-average deviation from |r(k0)|^2 falls off as 1/sigma^2
    system = prototype_system("damped", 0.0, GAMMA)
    r_devs = []
    for sigma, n0 in ((5.0, -40.0), (10.0, -55.0), (15.0, -80.0)):
        traj = packet_experiment(system, k=math.pi / 2.0, n0=n0, sigma=sigma)
        r, t, _ = final_rt(traj)
        assert abs(r - 0.36) < 0.02
        assert abs(t - 0.16) < 0.02
        r_devs.append(abs(r - 0.36))
    assert r_devs[0] > r_devs[1] > r_devs[2]


def test_gain_packet_within_three_percent_of_plane_wave():
    system = prototype_system("damped", 0.0, GAMMA).daggered()
    traj = packet_experiment(system, k=math.pi / 2.0, left_len=150, right_len=150)
    r, t, _ = final_rt(traj)
    assert abs(r - 9.0) / 9.0 < 0.03
    assert abs(t - 4.0) / 4.0 < 0.04


def test_measure_rt_trivial_center_transmits_everything():
    system_center = np.zeros((1, 1))
    h = build_chain(system_center, 150, 150)
    psi0 = gaussian_packet(h, -50.0, 10.0, math.pi / 2.0)
    traj = propagate_rk4(h, psi0, dt=0.02, t_final=55.0, geometry=h)
    r, t, leak = final_rt(traj)
    assert abs((r + t) - 1.0) < 1e-6
    assert t > 0.999


def test_measure_rt_boundary_contamination():
    # a packet run past the open ends fails the edge rule of the R/T readout
    h = build_chain(np.zeros((1, 1)), 60, 60)
    psi0 = gaussian_packet(h, -50.0, 2.0, math.pi / 2.0)
    traj = propagate_rk4(h, psi0, dt=0.02, t_final=120.0, geometry=h)
    r, t, _, edge = block_intensities(traj)
    assert edge >= EDGE_TOL * (r + t)


def test_rt_series_starts_in_left_lead():
    traj = packet_experiment(prototype_system("undamped", 0.0, GAMMA), k=math.pi / 2.0,
                             left_len=150, right_len=150)
    r0, trans0, _, _ = block_intensities(traj, frame=0)
    assert traj.times[0] == 0.0
    assert abs(r0 - 1.0) < 1e-6
    assert trans0 < 1e-20


def test_rt_series_undamped_difference_locks_to_unity():
    traj = packet_experiment(prototype_system("undamped", 0.0, GAMMA), k=math.pi / 2.0,
                             left_len=150, right_len=150, t_final=70.0)
    post = []
    for frame, t_now in enumerate(traj.times):
        r, t, leak, _ = block_intensities(traj, frame=frame)
        if t_now > 0.0 and leak < 1e-4:
            post.append(r - t)
    assert len(post) >= 5
    assert max(abs(d - 1.0) for d in post) < 2e-2
    assert max(post) - min(post) < 1e-3


def test_rt_series_hermitian_center_conserves_total():
    system = prototype_system("undamped", 0.0, 0.0)  # gamma=0: Hermitian blocker
    traj = packet_experiment(system, k=1.2, left_len=150, right_len=150)
    for frame in range(len(traj.times)):
        r, t, leak, _ = block_intensities(traj, frame=frame)
        assert abs(r + t + leak - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# biorthogonal overlap


def test_overlap_constant_under_rk4():
    rng = np.random.default_rng(21)
    h = build_chain(0.15 * random_center(rng, 3), 14, 13)
    psi0 = _random_state(rng, h.size)
    phi0 = _random_state(rng, h.size)
    series = overlap_series(h, psi0, phi0, dt=0.01, t_final=10.0)
    assert np.abs(series - series[0]).max() < 1e-7


def test_overlap_constant_under_expm_oracle():
    rng = np.random.default_rng(22)
    h = build_chain(random_center(rng, 3), 14, 13)  # strongly non-Hermitian
    assert h.size == 30
    dense = h.toarray()
    psi0 = _random_state(rng, 30)
    phi0 = _random_state(rng, 30)
    start = np.vdot(phi0, psi0)
    for t in (1.0, 3.0, 7.0):
        psi = propagate_expm(dense, psi0, t)
        phi = propagate_expm(dense.conj().T, phi0, t)
        assert abs(np.vdot(phi, psi) - start) < 1e-8


def test_overlap_hermitian_self_is_unit_norm():
    h = build_chain(np.zeros((2, 2)), 12, 12)
    rng = np.random.default_rng(5)
    psi0 = _random_state(rng, h.size)
    series = overlap_series(h, psi0, psi0, dt=0.01, t_final=5.0, frames=10)
    assert np.abs(series - 1.0).max() < 1e-7


def test_orthogonal_states_stay_orthogonal():
    rng = np.random.default_rng(6)
    h = build_chain(0.3 * random_center(rng, 2), 12, 12)
    psi0 = _random_state(rng, h.size)
    phi0 = _random_state(rng, h.size)
    phi0 -= np.vdot(phi0, psi0).conjugate() * psi0 / np.linalg.norm(psi0) ** 2
    phi0 = phi0 / np.linalg.norm(phi0)
    psi0_perp = psi0 - np.vdot(phi0, psi0) * phi0
    series = overlap_series(h, psi0_perp, phi0, dt=0.02, t_final=4.0, frames=8)
    assert abs(series[0]) < 1e-12
    assert np.abs(series).max() < 1e-9


# ---------------------------------------------------------------------------
# experiment driver


def test_packet_experiment_enforces_minimum_leads():
    with pytest.raises(GeometryTooSmallError):
        packet_experiment(prototype_system("damped", 0.0, GAMMA), k=1.0, left_len=30)


def test_packet_experiment_records_metadata():
    traj = packet_experiment(prototype_system("damped", 0.0, GAMMA), k=math.pi / 2.0,
                             left_len=120, right_len=120, t_final=20.0, frames=10)
    assert traj.k == math.pi / 2.0
    assert traj.n0 == -50.0
    assert traj.sigma == 10.0
    assert traj.geometry.size == 242
    assert len(traj.times) == 11
    assert abs(traj.initial_norm - 1.0) < 1e-6
