import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhscatter import (
    Convention,
    FluxClass,
    NotTwoPortError,
    ScatteringSystem,
    classify_flux,
    prototype_system,
    scattering_matrix,
    verify_conservation_law,
)
from helpers import random_k, random_system

GAMMA = 1.0 / 3.0


def _pair(system, k, convention=Convention.SHIFTED):
    s = scattering_matrix(system, k, convention)
    s_bar = scattering_matrix(system.daggered(), k, convention)
    return s, s_bar


def test_hand_values_for_damped_pair_at_band_center():
    # r = -0.6, t = 0.4 and conjugates rbar = -3, tbar = -2:
    # conj(-3)(-0.6) + conj(-2)(0.4) = 1.8 - 0.8 = 1, cross term 1.2 - 1.2 = 0.
    s, s_bar = _pair(prototype_system("damped", 0.0, GAMMA), math.pi / 2.0)
    report = verify_conservation_law(s, s_bar)
    assert report.law_residual < 1e-12
    assert max(abs(d) for d in report.diag_residuals) < 1e-12
    assert max(abs(d) for d in report.offdiag_residuals) < 1e-12


def test_hermitian_center_reduces_to_unitarity():
    rng = np.random.default_rng(3)
    system = random_system(rng)
    hermitian = ScatteringSystem(
        system.center + system.center.conj().T, system.ports, system.coupling
    )
    s, s_bar = _pair(hermitian, 1.2)
    np.testing.assert_allclose(s, s_bar, atol=1e-12)
    assert verify_conservation_law(s, s_bar).law_residual < 1e-10


def test_three_port_entries_all_vanish():
    rng = np.random.default_rng(17)
    for _ in range(20):
        system = random_system(rng, p=3)
        s, s_bar = _pair(system, random_k(rng))
        product = s_bar.conj().T @ s - np.eye(3)
        assert np.abs(product).max() < 1e-10


def test_report_is_convention_invariant():
    system = prototype_system("damped", 0.0, GAMMA)
    for k in (0.6, 1.8):
        raw = verify_conservation_law(*_pair(system, k, Convention.RAW))
        shifted = verify_conservation_law(*_pair(system, k, Convention.SHIFTED))
        assert abs(raw.law_residual - shifted.law_residual) < 1e-14
        for a, b in zip(raw.diag_residuals, shifted.diag_residuals):
            assert abs(a - b) < 1e-14
        assert raw.flux_class == shifted.flux_class


def test_port_count_mismatch_rejected():
    # a plain array carries no shape guarantee: a stack or a non-square
    # matrix is refused like two port counts, not met by a raw TypeError
    rng = np.random.default_rng(5)
    s2 = scattering_matrix(random_system(rng, p=2), 1.0)
    s3 = scattering_matrix(random_system(rng, p=3), 1.0)
    for pair in ((s2, s3), (np.stack([s2, s2]), np.stack([s2, s2])), (s3[:2], s3[:2])):
        with pytest.raises(ValueError, match="must be P x P matrices of one port count"):
            verify_conservation_law(*pair)


# ---------------------------------------------------------------------------
# flux classification


def test_undamped_is_energy_difference_conserving():
    system = prototype_system("undamped", 0.0, GAMMA)
    for k in np.linspace(0.1, math.pi - 0.1, 25):
        cls, residual = classify_flux(scattering_matrix(system, float(k)))
        assert cls is FluxClass.ENERGY_DIFFERENCE
        assert residual < 1e-12


def test_hermitian_center_is_energy_conserving():
    rng = np.random.default_rng(8)
    system = random_system(rng, n=2, p=2)
    hermitian = ScatteringSystem(
        system.center + system.center.conj().T, system.ports, system.coupling
    )
    cls, residual = classify_flux(scattering_matrix(hermitian, 0.9))
    assert cls is FluxClass.ENERGY
    assert residual < 1e-12


def test_damped_is_neither():
    s = scattering_matrix(prototype_system("damped", 0.0, GAMMA), math.pi / 2.0)
    cls, residual = classify_flux(s)
    assert cls is FluxClass.NEITHER
    # |r|^2 + |t|^2 = 0.52 and |r|^2 - |t|^2 = 0.2, so the smaller miss is 0.48
    assert abs(residual - 0.48) < 1e-12


def test_full_reflection_counts_as_energy_conserving():
    s = scattering_matrix(prototype_system("undamped", 0.0, 0.0), 1.3)
    cls, residual = classify_flux(s)
    assert cls is FluxClass.ENERGY
    assert residual < 1e-12


def test_classify_flux_needs_two_ports():
    rng = np.random.default_rng(1)
    s = scattering_matrix(random_system(rng, p=3), 1.0)
    with pytest.raises(NotTwoPortError):
        classify_flux(s)


def test_report_flux_fields_none_for_multiport():
    rng = np.random.default_rng(21)
    system = random_system(rng, p=3)
    report = verify_conservation_law(*_pair(system, 1.0))
    assert report.flux_class is None
    assert report.flux_residual is None


def test_energy_conserving_iff_unitary():
    rng = np.random.default_rng(30)
    for _ in range(10):
        system = random_system(rng, p=2)
        hermitian = ScatteringSystem(
            system.center + system.center.conj().T, system.ports, system.coupling
        )
        s = scattering_matrix(hermitian, random_k(rng))
        cls, _ = classify_flux(s, tol=1e-9)
        unitarity = np.linalg.norm(s.conj().T @ s - np.eye(2), "fro")
        assert cls is FluxClass.ENERGY
        assert unitarity < 2e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_law_property_random(seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    report = verify_conservation_law(*_pair(system, random_k(rng)))
    assert report.law_residual < 1e-10
