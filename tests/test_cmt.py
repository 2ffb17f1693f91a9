import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhscatter import (
    CmtCoupling,
    NotTwoPortError,
    ScatteringSystem,
    build_chain,
    cmt_smatrix,
    flux_deviations,
    make_prototype,
    port_signature,
    two_port_coupling,
)
from nhscatter.cmt import conjugation_defect
from nhscatter.conservation import conservation_defect
from nhscatter.numerics import frob
from helpers import random_center

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _relation_residuals(h, coupling, q):
    """Frobenius norms of the conjugation defect, for the port signature of q
    at sites (0, 1), and of the conservation defect."""
    s = cmt_smatrix(h, coupling)
    s_bar = cmt_smatrix(h.conj().T, coupling)
    signs = port_signature(q, 0, 1)
    return frob(conjugation_defect(s, s_bar, signs)), frob(conservation_defect(s, s_bar))


def test_decoupled_resonator_is_identity():
    h = random_center(np.random.default_rng(0), 3)
    coupling = CmtCoupling(np.zeros((3, 2)), omega=0.7)
    np.testing.assert_allclose(cmt_smatrix(h, coupling), np.eye(2), atol=1e-15)


def test_coupling_rows_must_match_center():
    with pytest.raises(ValueError, match="coupling has 2 mode rows, center has 3 modes"):
        cmt_smatrix(np.eye(3), two_port_coupling(2, 0, 1, 1.0, 1.0))


def test_two_port_rule_has_one_error():
    # also a ValueError, so the command line reports it as a configuration error
    assert issubclass(NotTwoPortError, ValueError)
    with pytest.raises(NotTwoPortError):
        flux_deviations(np.eye(3)[None])
    with pytest.raises(NotTwoPortError):
        build_chain(ScatteringSystem(np.eye(3), (0, 1, 2)), 3, 3)


def test_single_mode_on_resonance_reflects_with_pi_phase():
    # one mode at omega0, one channel with rate kappa: S(omega0) = 1 - 2i kappa/(i kappa) = -1
    omega0, kappa = 0.4, 0.9
    h = np.array([[omega0]], dtype=complex)
    coupling = CmtCoupling(np.array([[math.sqrt(kappa)]], dtype=complex), omega=omega0)
    s = cmt_smatrix(h, coupling)
    assert abs(s[0, 0] + 1.0) < 1e-14


def test_two_port_coupling_layout():
    coupling = two_port_coupling(4, 1, 3, 0.25, 1.0, omega=0.0)
    d = coupling.matrix
    assert d.shape == (4, 2)
    assert d[1, 0] == 0.5
    assert d[3, 1] == 1.0
    assert np.count_nonzero(d) == 2
    with pytest.raises(ValueError):
        two_port_coupling(4, 2, 2, 1.0, 1.0, omega=0.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_hermitian_center_gives_unitary_cmt_s(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, 4))
    a = random_center(rng, n)
    h = a + a.conj().T
    d = random_center(rng, max(n, p))[:n, :p]
    coupling = CmtCoupling(d, omega=float(rng.uniform(-2, 2)))
    s = cmt_smatrix(h, coupling)
    assert np.linalg.norm(s.conj().T @ s - np.eye(p), "fro") < 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_conservation_law_in_cmt_for_random_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    p = int(rng.integers(2, 4))
    h = random_center(rng, n)
    d = random_center(rng, max(n, p))[:n, :p]
    coupling = CmtCoupling(d, omega=float(rng.uniform(-2, 2)))
    s = cmt_smatrix(h, coupling)
    s_bar = cmt_smatrix(h.conj().T, coupling)
    assert np.linalg.norm(s_bar.conj().T @ s - np.eye(p), "fro") < 1e-10


def test_sign_relation_for_metric_aligned_coupling():
    # sigma_z-pseudo-Hermitian center with channel-aligned coupling
    h = make_prototype("undamped", 0.4, 0.3)
    for omega in (-0.5, 0.0, 0.8):
        coupling = two_port_coupling(2, 0, 1, 0.7, 0.4, omega=omega)
        conjugation, conservation = _relation_residuals(h, coupling, SIGMA_Z)
        assert conjugation < 1e-12
        assert conservation < 1e-12
        # explicit sign pattern: reflections equal, transmissions flipped
        s = cmt_smatrix(h, coupling)
        s_bar = cmt_smatrix(h.conj().T, coupling)
        assert abs(s_bar[0, 0] - s[0, 0]) < 1e-13
        assert abs(s_bar[1, 1] - s[1, 1]) < 1e-13
        assert abs(s_bar[0, 1] + s[0, 1]) < 1e-13
        assert abs(s_bar[1, 0] + s[1, 0]) < 1e-13


def test_identity_metric_gives_all_plus_signs():
    rng = np.random.default_rng(8)
    a = random_center(rng, 2)
    h = a + a.conj().T
    coupling = two_port_coupling(2, 0, 1, 0.5, 0.5, omega=0.3)
    conjugation, _ = _relation_residuals(h, coupling, np.eye(2, dtype=complex))
    assert conjugation < 1e-12
    s = cmt_smatrix(h, coupling)
    s_bar = cmt_smatrix(h.conj().T, coupling)
    np.testing.assert_allclose(s_bar, s, atol=1e-13)


def test_random_center_keeps_conservation_but_not_sign_relation():
    rng = np.random.default_rng(13)
    h = random_center(rng, 2)
    coupling = two_port_coupling(2, 0, 1, 0.7, 0.4, omega=0.2)
    conjugation, conservation = _relation_residuals(h, coupling, SIGMA_Z)
    assert conservation < 1e-10
    assert conjugation > 1e-3  # no pseudo-Hermiticity, relation fails


def test_misaligned_coupling_violates_premises():
    # cross terms break q D = D diag(s_m, s_n), and with it the sign relation;
    # the conservation law holds for any coupling
    h = make_prototype("undamped", 0.0, 0.3)
    d = np.array([[0.5, 0.2], [0.1, 0.6]], dtype=complex)
    assert frob(SIGMA_Z @ d - d @ SIGMA_Z) > 1e-3
    conjugation, conservation = _relation_residuals(h, CmtCoupling(d, omega=0.1), SIGMA_Z)
    assert conjugation > 1e-3
    assert conservation < 1e-10


def test_coupling_mode_count_mismatch():
    h = make_prototype("undamped", 0.0, 0.3)
    with pytest.raises(ValueError):
        cmt_smatrix(h, CmtCoupling(np.ones((3, 2)), omega=0.0))
