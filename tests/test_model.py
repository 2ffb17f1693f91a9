import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhscatter
from nhscatter import (
    BandEdgeError,
    ScatteringSystem,
    build_chain,
    dagger,
    lead_smatrices,
    make_prototype,
    mode_params,
    prototype_system,
)
from nhscatter.model import require_coupling
from helpers import random_center


def test_damped_prototype_at_zero_detuning():
    h = make_prototype("damped", 0.0, 1.0)
    np.testing.assert_array_equal(h, np.array([[-1j, -1j], [-1j, -1j]]))


def test_undamped_prototype_values():
    np.testing.assert_array_equal(
        make_prototype("undamped", 2.0, 1.0),
        np.array([[2.0, -1j], [-1j, -2.0]]),
    )
    np.testing.assert_array_equal(make_prototype("undamped", 0.0, 0.0), np.zeros((2, 2)))


def _spectrum(h, key):
    return sorted(np.linalg.eigvals(h), key=key)


def test_undamped_prototype_spectrum():
    # +/- sqrt(v^2 - gamma^2): real above the exceptional point, imaginary below it
    v, gamma = 2.0, 1.0
    root = math.sqrt(v * v - gamma * gamma)
    lo, hi = _spectrum(make_prototype("undamped", v, gamma), key=np.real)
    assert abs(lo + root) < 1e-12 and abs(hi - root) < 1e-12
    lo, hi = _spectrum(make_prototype("undamped", 0.0, 1.0), key=np.imag)
    assert abs(lo + 1j) < 1e-12 and abs(hi - 1j) < 1e-12


def test_damped_prototype_spectrum_at_zero_detuning():
    lo, hi = _spectrum(make_prototype("damped", 0.0, 1.0), key=np.imag)
    assert abs(lo + 2j) < 1e-12
    assert abs(hi) < 1e-12


def test_unknown_prototype_kind():
    with pytest.raises(ValueError):
        make_prototype("bogus", 0.0, 1.0)


def test_dagger_flips_gamma_in_damped_prototype():
    gamma = 0.37
    np.testing.assert_allclose(
        dagger(make_prototype("damped", 0.0, gamma)),
        make_prototype("damped", 0.0, -gamma),
        atol=1e-15,
    )


def test_dagger_fixes_hermitian():
    h = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -1.0]])
    np.testing.assert_array_equal(dagger(h), h)


@given(seed=st.integers(0, 10_000), scale_re=st.floats(-2, 2), scale_im=st.floats(-2, 2))
@settings(max_examples=30, deadline=None)
def test_dagger_is_antilinear_involution(seed, scale_re, scale_im):
    a = random_center(np.random.default_rng(seed), 3)
    alpha = complex(scale_re, scale_im)
    np.testing.assert_allclose(dagger(dagger(a)), a, atol=1e-15)
    np.testing.assert_allclose(dagger(alpha * a), alpha.conjugate() * dagger(a), atol=1e-12)


def test_mode_params_values():
    mode = mode_params(math.pi / 2.0, 1.0)
    assert abs(mode.energy) < 1e-15
    assert abs(mode.group_velocity - 2.0) < 1e-15
    mode = mode_params(math.pi / 3.0, 1.0)
    assert abs(mode.energy + 1.0) < 1e-15
    assert abs(mode.group_velocity - math.sqrt(3.0)) < 1e-15


@pytest.mark.parametrize("k", [0.0, math.pi, -0.3, 4.0])
def test_mode_params_band_edges(k):
    with pytest.raises(BandEdgeError):
        mode_params(k, 1.0)


@given(k=st.floats(1e-6, math.pi - 1e-6), j=st.floats(0.1, 5.0))
@settings(max_examples=50, deadline=None)
def test_dispersion_circle_identity(k, j):
    mode = mode_params(k, j)
    # (E/2J)^2 + (v_g/2J)^2 = 1 exactly from cos^2 + sin^2
    val = (mode.energy / (2 * j)) ** 2 + (mode.group_velocity / (2 * j)) ** 2
    assert abs(val - 1.0) < 1e-12
    assert mode.group_velocity > 0.0


def test_prototype_system_default_layout():
    system = prototype_system("undamped", 0.0, 0.5)
    assert system.ports == (0, 1)
    assert system.coupling == 1.0


def test_system_validation():
    center = np.zeros((2, 2))
    with pytest.raises(ValueError, match="distinct"):
        ScatteringSystem(center, (0, 0))
    with pytest.raises(ValueError, match="site"):
        ScatteringSystem(center, (0, 5))
    with pytest.raises(ValueError, match="coupling"):
        ScatteringSystem(center, (0, 1), coupling=0.0)
    assert type(ScatteringSystem(center, (0, 1), coupling=2).coupling) is float  # the checked J
    with pytest.raises(ValueError):
        ScatteringSystem(center, ())
    with pytest.raises(ValueError):
        ScatteringSystem(np.full((2, 2), np.nan), (0, 1))
    # non-integer sites: a float is no index, and a boolean pair would be a mask
    for sites in [(0.5, 1), (True, False), np.array([0.0, 1.0])]:
        with pytest.raises(ValueError, match="port sites"):
            ScatteringSystem(center, sites)
        with pytest.raises(ValueError, match="port sites"):
            lead_smatrices(center, sites, [1.0])


@pytest.mark.parametrize("j", [0.0, -1.0, math.nan, math.inf])
def test_lead_coupling_has_one_check(j):
    with pytest.raises(ValueError) as owner:
        require_coupling(j)
    assert "lead coupling must" in str(owner.value)
    for build in (lambda: ScatteringSystem(np.eye(2), (0, 1), j),
                  lambda: mode_params(1.0, j),
                  lambda: lead_smatrices(np.eye(2), (0, 1), [1.0], j),
                  lambda: build_chain(np.eye(2), 3, 3, coupling=j)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == str(owner.value)


@pytest.mark.parametrize("j", [1.0, 2.0])
def test_system_lead_coupling_is_not_overridden(j):
    # a system carries its J; build_chain refuses a second one, even an equal one
    system = prototype_system("damped", 0.0, 0.3)
    with pytest.raises(ValueError, match="carries its lead coupling"):
        build_chain(system, 3, 3, coupling=j)
    assert build_chain(system, 3, 3).hop == -system.coupling


def test_system_center_is_readonly():
    system = prototype_system("undamped", 0.0, 0.5)
    with pytest.raises(ValueError):
        system.center[0, 0] = 1.0


def test_daggered_system_conjugates_center_only():
    system = prototype_system("damped", 0.3, 0.5)
    conj = system.daggered()
    np.testing.assert_array_equal(conj.center, dagger(system.center))
    assert conj.ports == system.ports
    assert conj.coupling == system.coupling


def test_export_list_is_the_public_imports():
    names = nhscatter.__all__
    assert len(set(names)) == len(names)
    assert not any(isinstance(getattr(nhscatter, name), types.ModuleType) for name in names)
    namespace = {}
    exec("from nhscatter import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
