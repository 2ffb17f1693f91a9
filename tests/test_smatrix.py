import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhscatter import (
    BandEdgeError,
    CmtCoupling,
    Convention,
    ScatteringSingularityError,
    ScatteringSystem,
    cmt_smatrix,
    dressed_smatrix,
    invert,
    lead_smatrices,
    port_indicator,
    port_signature,
    prototype_system,
    scattering_matrix,
    two_port_coupling,
)
from nhscatter.cli import run
from helpers import closed_form_damped, closed_form_undamped, random_k, random_system

GAMMA = 1.0 / 3.0


# ---------------------------------------------------------------------------
# self-energy


def _finite_lead_boundary(energy: complex, j: float, sites: int) -> complex:
    """Eliminate a finite lead site by site from the open end inward."""
    sigma = 0.0j
    for _ in range(sites):
        sigma = j * j / (energy - sigma)
    return sigma


def _self_energy_oracle(k: float, j: float = 1.0) -> complex:
    """Finite-lead elimination at complex energy, extrapolated to the real axis.

    At real in-band energy the finite chain only has standing waves, so the
    boundary term is evaluated at E + i*eta for a ladder of eta values and
    polynomially extrapolated to eta -> 0 (Neville scheme).
    """
    energy = -2.0 * j * math.cos(k)
    etas = [0.4, 0.2, 0.1, 0.05]
    vals = [_finite_lead_boundary(energy + 1j * eta, j, 4000) for eta in etas]
    for order in range(1, len(etas)):
        for i in range(len(etas) - order):
            vals[i] = vals[i + 1] + (vals[i] - vals[i + 1]) * etas[i + order] / (
                etas[i + order] - etas[i]
            )
    return vals[0]


def _kernel_self_energy(k: float) -> complex:
    """The boundary term that the S-matrix kernel applies at J = 1, read back from it.

    A one-site, one-port zero center has ``S_raw = -1 + 2i sin k / (E - sigma)``,
    so ``sigma = E - 2i sin k / (S_raw + 1)``.
    """
    s = lead_smatrices(np.zeros((1, 1)), [0], [k], 1.0, Convention.RAW)[0, 0, 0]
    return -2.0 * math.cos(k) - 2j * math.sin(k) / (s + 1.0)


def test_self_energy_at_band_center():
    assert abs(_kernel_self_energy(math.pi / 2.0) - (-1j)) < 1e-15
    assert abs(_kernel_self_energy(math.pi / 2.0) - _self_energy_oracle(math.pi / 2.0)) < 1e-3


def test_self_energy_matches_lead_elimination_oracle():
    for k in (0.7, math.pi / 3.0, 2.2):
        assert abs(_kernel_self_energy(k) - _self_energy_oracle(k)) < 1e-3


def test_self_energy_closed_value():
    expected = -(0.5 + 1j * math.sqrt(3.0) / 2.0)
    assert abs(_kernel_self_energy(math.pi / 3.0) - expected) < 1e-15


def test_self_energy_negative_imaginary_part():
    for k in np.linspace(0.01, math.pi - 0.01, 50):
        assert _kernel_self_energy(float(k)).imag < 0.0


def test_self_energy_band_edge():
    with pytest.raises(BandEdgeError):
        _kernel_self_energy(0.0)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_damped_band_center():
    r, t = closed_form_damped(math.pi / 2.0, GAMMA)
    assert abs(r - (-0.6)) < 1e-15
    assert abs(t - 0.4) < 1e-15
    assert abs(abs(r) ** 2 - 0.36) < 1e-15
    assert abs(abs(t) ** 2 - 0.16) < 1e-15


def test_closed_form_damped_conjugate_system():
    r, t = closed_form_damped(math.pi / 2.0, -GAMMA)
    assert abs(r - (-3.0)) < 1e-12
    assert abs(t - (-2.0)) < 1e-12
    assert abs(abs(r) ** 2 - 9.0) < 1e-12
    assert abs(abs(t) ** 2 - 4.0) < 1e-12


def test_closed_form_damped_decoupled_reflects_everything():
    for k in np.linspace(0.1, math.pi - 0.1, 7):
        r, t = closed_form_damped(float(k), 0.0)
        assert abs(r + 1.0) < 1e-14
        assert abs(t) < 1e-14


def test_closed_form_undamped_band_center():
    r, t = closed_form_undamped(math.pi / 2.0, GAMMA)
    assert abs(r - (-1.25)) < 1e-14
    assert abs(t - 0.75) < 1e-14
    assert abs((abs(r) ** 2 - abs(t) ** 2) - 1.0) < 1e-14


def test_closed_form_undamped_singularity():
    with pytest.raises(ScatteringSingularityError):
        closed_form_undamped(math.pi / 2.0, 1.0, 1.0)


def test_closed_form_undamped_gamma_sign_flip():
    for k in np.linspace(0.2, math.pi - 0.2, 9):
        r_plus, t_plus = closed_form_undamped(float(k), GAMMA)
        r_minus, t_minus = closed_form_undamped(float(k), -GAMMA)
        assert abs(r_plus - r_minus) < 1e-14
        assert abs(t_plus + t_minus) < 1e-14


# ---------------------------------------------------------------------------
# numeric scattering matrix


def test_raw_convention_differs_by_reference_plane_phase():
    system = prototype_system("undamped", 0.0, GAMMA)
    for k in (0.4, 1.1, 2.6):
        raw = scattering_matrix(system, k, Convention.RAW).entries
        shifted = scattering_matrix(system, k, Convention.SHIFTED).entries
        np.testing.assert_allclose(shifted, cmath.exp(-2j * k) * raw, atol=1e-14)
        # intensities are convention independent
        np.testing.assert_allclose(np.abs(shifted), np.abs(raw), atol=1e-14)


def test_decoupled_undamped_center_fully_reflects():
    system = prototype_system("undamped", 0.0, 0.0)
    for k in np.linspace(0.1, math.pi - 0.1, 7):
        s = scattering_matrix(system, float(k)).entries
        assert abs(s[1, 0]) < 1e-14
        assert abs(abs(s[0, 0]) - 1.0) < 1e-14


def test_numeric_singularity_is_typed():
    system = prototype_system("undamped", 0.0, 1.0)
    with pytest.raises(ScatteringSingularityError):
        scattering_matrix(system, math.pi / 2.0)


def test_band_edge_rejected():
    system = prototype_system("undamped", 0.0, GAMMA)
    with pytest.raises(BandEdgeError):
        scattering_matrix(system, 0.0)


def test_two_port_entry_layout():
    # entry (p, q) is the amplitude out of port p for input at port q: on a
    # dimer with hoppings a (site 1 to 0) and b (site 0 to 1), t_L = S[1, 0]
    # rides b and t_R = S[0, 1] rides a, and the reflections are equal
    a, b = -0.3, -0.8
    system = ScatteringSystem(np.array([[0.0, a], [b, 0.0]]), (0, 1))
    for k in (0.5, 1.0, 2.4):
        s = scattering_matrix(system, k).entries
        assert abs(s[1, 0] / s[0, 1] - b / a) < 1e-13
        assert abs(s[0, 0] - s[1, 1]) < 1e-13


def test_symmetric_s_for_zero_detuning_prototypes():
    for kind in ("damped", "undamped"):
        system = prototype_system(kind, 0.0, GAMMA)
        for k in (0.5, 1.3, 2.4):
            s = scattering_matrix(system, k).entries
            assert abs(s[0, 1] - s[1, 0]) < 1e-13
            assert abs(s[0, 0] - s[1, 1]) < 1e-13


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_hermitian_center_gives_unitary_s(seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    hermitian = ScatteringSystem(
        system.center + system.center.conj().T, system.ports, system.coupling
    )
    s = scattering_matrix(hermitian, random_k(rng)).entries
    p = s.shape[0]
    assert np.linalg.norm(s.conj().T @ s - np.eye(p), "fro") < 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_transpose_identity(seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    k = random_k(rng)
    s = scattering_matrix(system, k).entries
    s_t = scattering_matrix(
        ScatteringSystem(system.center.T, system.ports, system.coupling), k
    ).entries
    assert np.linalg.norm(s_t - s.T, "fro") < 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_conjugate_identity(seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    k = random_k(rng)
    s = scattering_matrix(system, k).entries
    s_c = scattering_matrix(
        ScatteringSystem(system.center.conj(), system.ports, system.coupling), k
    ).entries
    assert np.linalg.norm(s_c - invert(s.conj()), "fro") < 1e-10


# ---------------------------------------------------------------------------
# batched grid kernel


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 8),
    p=st.integers(2, 3),
    count=st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_batched_grid_equals_pointwise(seed, n, p, count):
    # one system over a k-grid, and a different system (center and sites) per k
    rng = np.random.default_rng(seed)
    p = min(p, n)
    systems = [random_system(rng, n=n, p=p) for _ in range(count)]
    ks = rng.uniform(0.05, math.pi - 0.05, count)
    centers = np.array([system.center for system in systems])
    sites = np.array([system.ports for system in systems])
    for convention in Convention:
        grid = lead_smatrices(systems[0].center, systems[0].ports, ks, 1.0, convention)
        stacked = lead_smatrices(centers, sites, ks, 1.0, convention)
        assert grid.shape == stacked.shape == (count, p, p)
        for k, system, s_grid, s_stacked in zip(ks, systems, grid, stacked):
            for one, s_k in ((systems[0], s_grid), (system, s_stacked)):
                pointwise = scattering_matrix(one, float(k), convention).entries
                assert np.abs(s_k - pointwise).max() <= 1e-13 * max(1.0, np.abs(pointwise).max())


@pytest.mark.parametrize("seed", range(8))
def test_lead_smatrix_is_coupled_mode_smatrix(seed):
    # S_raw(k) = -S_cmt(H_c - J cos k W W^T, D = sqrt(J sin k) W, omega = E);
    # the shifted convention multiplies both sides by e^{-2ik}.
    rng = np.random.default_rng(seed)
    drawn = random_system(rng, n=int(rng.integers(2, 7)))
    system = ScatteringSystem(drawn.center, drawn.ports, 1.0 + rng.random())
    k, j = random_k(rng), system.coupling
    w = port_indicator(system.dim, system.ports)
    energy = -2.0 * j * math.cos(k)
    coupling = CmtCoupling(math.sqrt(j * math.sin(k)) * w, energy)
    s_cmt = cmt_smatrix(system.center - j * math.cos(k) * (w @ w.T), coupling)

    # textbook lead elimination with the self-energy, solved directly
    sigma = -j * cmath.exp(1j * k)
    dressed = energy * np.eye(system.dim) - system.center - sigma * (w @ w.T)
    s_lead = -np.eye(system.n_ports) + 2j * j * math.sin(k) * (w.T @ np.linalg.solve(dressed, w))

    for convention, phase in ((Convention.RAW, 1.0), (Convention.SHIFTED, cmath.exp(-2j * k))):
        s = scattering_matrix(system, k, convention).entries
        scale = max(1.0, np.abs(s).max())
        assert np.abs(s + phase * s_cmt).max() <= 1e-12 * scale
        assert np.abs(s - phase * s_lead).max() <= 1e-12 * scale

    # a stack of K centers and port layouts over a k grid, against the same
    # identity through the coupled-mode kernel with (K, N, N) and (K, N, P) stacks
    count, n, p = int(rng.integers(2, 13)), system.dim, system.n_ports
    stack = [random_system(rng, n=n, p=p) for _ in range(count)]
    centers = np.array([one.center for one in stack])
    sites = np.array([one.ports for one in stack])
    ks = rng.uniform(0.05, math.pi - 0.05, count)
    w = port_indicator(n, sites)
    cos_k, sin_k = np.cos(ks)[:, None, None], np.sin(ks)[:, None, None]
    s_cmt = -dressed_smatrix(centers - j * cos_k * (w @ np.swapaxes(w, -1, -2)), np.sqrt(j * sin_k) * w,
                             -2.0 * j * np.cos(ks))
    for convention, phase in ((Convention.RAW, 1.0), (Convention.SHIFTED, np.exp(-2j * ks))):
        s = lead_smatrices(centers, sites, ks, j, convention)
        scale = np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
        assert (np.abs(s - np.reshape(phase, (-1, 1, 1)) * s_cmt).max(axis=(1, 2)) <= 1e-12 * scale).all()


def test_batched_singularity_names_first_singular_k():
    # undamped dimer at gamma = J: k = pi/2 is a lasing point
    system = prototype_system("undamped", 0.0, 1.0)
    ks = [0.4, math.pi / 2.0, 2.0]
    with pytest.raises(ScatteringSingularityError, match=r"k=1\.5708") as info:
        lead_smatrices(system.center, system.ports, ks)
    assert info.value.index == 1
    with pytest.raises(BandEdgeError):
        lead_smatrices(system.center, system.ports, [0.4, math.pi])


_D = np.ones((2, 1))
_BAD_GRIDS = {  # the shapes that the error names, and a call that passes them
    "ks ()": lambda: lead_smatrices(np.eye(2), (0, 1), 1.0),
    "ks (1, 2)": lambda: lead_smatrices(np.eye(2), (0, 1), [[1.0, 1.2]]),
    "ks (2,), center (3, 2, 2)": lambda: lead_smatrices(np.stack([np.eye(2)] * 3), (0, 1), [1.0, 1.2]),
    "sites (3, 2)": lambda: lead_smatrices(np.eye(2), [[0, 1]] * 3, [1.0, 1.2]),
    "center (1, 1, 2, 2)": lambda: lead_smatrices(np.eye(2)[None, None], (0, 1), [1.0]),
    "omega ()": lambda: dressed_smatrix(np.eye(2), _D, 0.5),
    "omega (2, 1)": lambda: dressed_smatrix(np.eye(2), _D, [[0.5], [0.6]]),
    "omega (2,), h (3, 2, 2)": lambda: dressed_smatrix(np.stack([np.eye(2)] * 3), _D, [0.5, 0.6]),
    "d (3, 2, 1)": lambda: dressed_smatrix(np.eye(2), np.stack([_D] * 3), [0.5, 0.6]),
}


@pytest.mark.parametrize("shapes", _BAD_GRIDS)
def test_bad_grid_is_refused_with_its_shapes(shapes):
    # one grid check for both kernels: a 1-D grid, and every stacked input as long
    with pytest.raises(ValueError, match=r"a grid must be 1-D and every stack as long: ") as info:
        _BAD_GRIDS[shapes]()
    assert shapes in str(info.value)


@pytest.mark.parametrize("sites", [(0, 0), (-1, 0), (0, 2), [[0, 1], [1, 1]]])
def test_lead_smatrices_rejects_bad_port_sites(sites, tmp_path, capsys):
    # one check of port sites: every entry point that takes them reports it alike
    message = "distinct sites of the 2-site center"
    with pytest.raises(ValueError, match=message):
        lead_smatrices(np.eye(2), sites, [1.0, 1.2])
    m, n = map(int, np.atleast_2d(sites)[-1])  # the bad layout of a stack is its last
    for build in (lambda: ScatteringSystem(np.eye(2), (m, n)),
                  lambda: two_port_coupling(2, m, n, 1.0, 1.0),
                  lambda: port_signature(np.eye(2), m, n)):
        with pytest.raises(ValueError, match=message):
            build()
    assert run(["classify", "--prototype", "damped", "--gamma", "0.3", "--ports", str(m), str(n),
                "--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == f"config error: port sites must be {message}\n"
