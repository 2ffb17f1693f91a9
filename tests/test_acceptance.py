"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output).  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from nhscatter import (
    CmtCoupling,
    FluxClass,
    ScatteringSystem,
    block_intensities,
    build_chain,
    classify_flux,
    cmt_smatrix,
    invert,
    is_anti_pt,
    make_prototype,
    metric_space,
    packet_experiment,
    phase_of,
    port_signature,
    PhaseClass,
    PortConditionError,
    propagate_rk4,
    prototype_system,
    scattering_matrix,
    two_port_coupling,
    verify_conservation_law,
)
from nhscatter.cmt import conjugation_defect
from nhscatter.conservation import conservation_defect
from nhscatter.numerics import frob
from helpers import (
    closed_form_damped,
    closed_form_undamped,
    final_rt,
    overlap_series,
    propagate_expm,
    random_center,
    random_k,
    random_system,
)

GAMMA = 1.0 / 3.0
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@contextmanager
def reported(label: str):
    try:
        yield
    except Exception:
        print(f"acceptance {label}: FAIL", flush=True)
        raise
    print(f"acceptance {label}: PASS", flush=True)


def _ensemble(seed: int = 2024, trials: int = 100):
    """The shared random ensemble: N in [2,6], P in {2,3}, k in the open band."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        yield random_system(rng), random_k(rng)


def test_criterion_1_closed_form_match():
    with reported("1 closed-form match"):
        start = time.perf_counter()
        ks = np.linspace(0.05, math.pi - 0.05, 200)
        damped = prototype_system("damped", 0.0, GAMMA)
        undamped = prototype_system("undamped", 0.0, GAMMA)
        worst = 0.0
        for k in ks:
            k = float(k)
            r, t = closed_form_damped(k, GAMMA)
            dev = np.abs(
                scattering_matrix(damped, k).entries - np.array([[r, t], [t, r]])
            ).max()
            worst = max(worst, float(dev))
            r, t = closed_form_undamped(k, GAMMA)
            dev = np.abs(
                scattering_matrix(undamped, k).entries - np.array([[r, t], [t, r]])
            ).max()
            worst = max(worst, float(dev))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"worst entrywise deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_wave_packet_reflection_transmission():
    with reported("2 wave-packet R/T"):
        system = prototype_system("damped", 0.0, GAMMA)

        start = time.perf_counter()
        traj = packet_experiment(system, k=math.pi / 2.0, n0=-50.0, sigma=10.0)
        elapsed_loss = time.perf_counter() - start
        r, t, _ = final_rt(traj)  # asserts the edge rule of evolve's boundary_ok
        assert abs(r - 0.36) < 0.02, f"lossy R={r:.4f}"
        assert abs(t - 0.16) < 0.02, f"lossy T={t:.4f}"

        start = time.perf_counter()
        traj = packet_experiment(system.daggered(), k=math.pi / 2.0, n0=-50.0, sigma=10.0)
        elapsed_gain = time.perf_counter() - start
        r, t, _ = final_rt(traj)
        assert abs(r - 8.9) < 0.3, f"gain R={r:.4f}"
        assert abs(t - 3.9) < 0.15, f"gain T={t:.4f}"

        assert elapsed_loss < 30.0 and elapsed_gain < 30.0


def test_criterion_3_energy_difference_conservation():
    with reported("3 energy-difference conservation"):
        system = prototype_system("undamped", 0.0, GAMMA)

        # time domain: R(t) - T(t) locks to 1 once the packet clears the center
        traj = packet_experiment(system, k=math.pi / 2.0, t_final=80.0)
        post = []
        for frame, t_now in enumerate(traj.times):
            r, t, leak, _ = block_intensities(traj, frame=frame)
            if t_now > 0.0 and leak < 1e-4:
                post.append(r - t)
        assert len(post) >= 5, "not enough post-scattering frames"
        assert max(abs(d - 1.0) for d in post) < 2e-2
        assert max(post) - min(post) < 1e-3

        # steady state: |r|^2 - |t|^2 = 1 at every grid momentum
        for k in np.linspace(0.05, math.pi - 0.05, 200):
            s = scattering_matrix(system, float(k)).entries
            diff = abs(s[0, 0]) ** 2 - abs(s[1, 0]) ** 2
            assert abs(diff - 1.0) < 1e-12


def test_criterion_4_universal_conservation_law():
    with reported("4 universal conservation law"):
        worst = 0.0
        for system, k in _ensemble():
            s = scattering_matrix(system, k)
            s_bar = scattering_matrix(system.daggered(), k)
            worst = max(worst, verify_conservation_law(s, s_bar).law_residual)
        assert worst < 1e-10, f"max law residual {worst:.3e}"

        # per-port overlap relations for the damped dimer across the grid
        system = prototype_system("damped", 0.0, GAMMA)
        daggered = system.daggered()
        for k in np.linspace(0.05, math.pi - 0.05, 200):
            s = scattering_matrix(system, float(k))
            s_bar = scattering_matrix(daggered, float(k))
            report = verify_conservation_law(s, s_bar)
            for dev in report.diag_residuals:
                assert abs(dev.real) < 1e-12  # Re(rbar* r) + Re(tbar* t) = 1
                assert abs(dev.imag) < 1e-12  # Im(rbar* r) + Im(tbar* t) = 0


def test_criterion_5_smatrix_identities():
    with reported("5 S-matrix identities"):
        worst_t = worst_c = worst_d = 0.0
        for system, k in _ensemble():
            s = scattering_matrix(system, k).entries

            def variant(mat):
                return scattering_matrix(
                    ScatteringSystem(mat, system.ports, system.coupling), k
                ).entries

            worst_t = max(worst_t, float(np.linalg.norm(variant(system.center.T) - s.T, "fro")))
            worst_c = max(
                worst_c,
                float(np.linalg.norm(variant(system.center.conj()) - invert(s.conj()), "fro")),
            )
            worst_d = max(
                worst_d,
                float(
                    np.linalg.norm(
                        variant(system.center.conj().T) - invert(s.conj().T), "fro"
                    )
                ),
            )
        assert worst_t < 1e-10, f"transpose identity {worst_t:.3e}"
        assert worst_c < 1e-10, f"conjugate identity {worst_c:.3e}"
        assert worst_d < 1e-10, f"dagger identity {worst_d:.3e}"


def test_criterion_6_symmetry_classification():
    with reported("6 symmetry classification"):
        # undamped dimer: 2-dimensional metric space containing an invertible
        # element with port signature (+1, -1), hence energy-difference class
        undamped = make_prototype("undamped", 0.0, GAMMA)
        basis = metric_space(undamped)
        assert len(basis) == 2
        found = None
        for op in basis:
            if not op.invertible:
                continue
            try:
                found = port_signature(op, 0, 1)
                break
            except PortConditionError:
                continue
        assert found == (1, -1)
        cls, _ = classify_flux(scattering_matrix(prototype_system("undamped", 0.0, GAMMA), 1.1))
        assert cls is FluxClass.ENERGY_DIFFERENCE

        # damped dimer: no invertible metric, flux class neither
        damped = make_prototype("damped", 0.0, GAMMA)
        assert not any(op.invertible for op in metric_space(damped))
        cls, _ = classify_flux(scattering_matrix(prototype_system("damped", 0.0, GAMMA), 1.1))
        assert cls is FluxClass.NEITHER

        # the damped center at zero detuning is anti-Hermitian
        assert np.abs(damped.conj().T + damped).max() < 1e-15

        # both prototypes are anti-PT symmetric under the swap parity
        assert is_anti_pt(damped, SIGMA_X)
        assert is_anti_pt(undamped, SIGMA_X)

        # phase boundary follows the detuning/coupling comparison
        assert phase_of(0.0, GAMMA) is PhaseClass.EXACT
        assert phase_of(GAMMA, GAMMA) is PhaseClass.EXCEPTIONAL_POINT
        assert phase_of(2.0 * GAMMA, GAMMA) is PhaseClass.BROKEN


def test_criterion_7_coupled_mode_relations():
    with reported("7 coupled-mode relations"):
        # port-aligned coupling with the diag(1,-1) metric
        h = make_prototype("undamped", 0.4, 0.3)
        signs = port_signature(SIGMA_Z, 0, 1)
        for omega in np.linspace(-1.5, 1.5, 11):
            coupling = two_port_coupling(2, 0, 1, 0.7, 0.4, omega=float(omega))
            s = cmt_smatrix(h, coupling)
            s_bar = cmt_smatrix(h.conj().T, coupling)
            assert frob(conjugation_defect(s, s_bar, signs)) < 1e-12
            assert frob(conservation_defect(s, s_bar)) < 1e-12
            assert abs(s_bar[0, 0] - s[0, 0]) < 1e-12
            assert abs(s_bar[0, 1] + s[0, 1]) < 1e-12

        # conservation law for random (center, coupling) pairs
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(2, 4))
            center = random_center(rng, n)
            d = random_center(rng, max(n, p))[:n, :p]
            coupling = CmtCoupling(d, omega=float(rng.uniform(-2, 2)))
            s = cmt_smatrix(center, coupling)
            s_bar = cmt_smatrix(center.conj().T, coupling)
            residual = np.linalg.norm(s_bar.conj().T @ s - np.eye(p), "fro")
            assert residual < 1e-10


def test_criterion_8_propagation_oracles():
    with reported("8 propagation oracles"):
        rng = np.random.default_rng(11)
        center = 0.2 * random_center(rng, 4) - 0.2j * np.eye(4)
        h = build_chain(center, 18, 18)
        assert h.size == 40
        psi0 = rng.normal(size=40) + 1j * rng.normal(size=40)
        psi0 /= np.linalg.norm(psi0)
        traj = propagate_rk4(h, psi0, dt=0.02, t_final=20.0)
        exact = propagate_expm(h, psi0, float(traj.times[-1]))
        dev = float(np.abs(traj.states[-1] - exact).max())
        assert dev < 1e-6, f"RK4 vs exponential oracle {dev:.3e}"

        # biorthogonal overlap drift on random non-Hermitian chains
        for seed in (21, 22, 23):
            rng = np.random.default_rng(seed)
            h = build_chain(0.15 * random_center(rng, 3), 14, 13)
            psi0 = rng.normal(size=30) + 1j * rng.normal(size=30)
            phi0 = rng.normal(size=30) + 1j * rng.normal(size=30)
            psi0 /= np.linalg.norm(psi0)
            phi0 /= np.linalg.norm(phi0)
            series = overlap_series(h, psi0, phi0, dt=0.01, t_final=10.0)
            drift = np.abs(series - series[0]).max()
            assert drift < 1e-7, f"overlap drift {drift:.3e}"
