import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhscatter import (
    DimensionTooLargeError,
    FluxClass,
    MetricOperator,
    PhaseClass,
    PortConditionError,
    ScatteringSystem,
    classify_flux,
    is_anti_pt,
    flux_deviations,
    lead_smatrices,
    make_prototype,
    metric_space,
    phase_of,
    port_metric,
    port_signature,
    prototype_system,
    scattering_matrix,
)
from nhscatter.cmt import conjugation_defect
from helpers import port_metric_center, random_center, random_k

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

GAMMA = 1.0 / 3.0


def _in_span(target: np.ndarray, basis: list[MetricOperator]) -> bool:
    """Least-squares membership of ``target`` in the real span of the basis."""
    if not basis:
        return False
    columns = np.stack(
        [np.concatenate([op.matrix.real.ravel(), op.matrix.imag.ravel()]) for op in basis],
        axis=1,
    )
    rhs = np.concatenate([target.real.ravel(), target.imag.ravel()])
    coef, *_ = np.linalg.lstsq(columns, rhs, rcond=None)
    return np.linalg.norm(columns @ coef - rhs) < 1e-9


# ---------------------------------------------------------------------------
# metric space


def test_undamped_metric_space_spans_sigma_y_and_sigma_z():
    basis = metric_space(make_prototype("undamped", 0.0, 0.7))
    assert len(basis) == 2
    assert _in_span(SIGMA_Z, basis)
    assert _in_span(SIGMA_Y, basis)
    invertibles = [op for op in basis if op.invertible]
    assert invertibles, "expected an invertible metric"
    assert all(op.residual < 1e-10 for op in basis)


def test_undamped_basis_contains_port_conditioned_sigma_z():
    basis = metric_space(make_prototype("undamped", 0.0, 0.7))
    signatures = []
    for op in basis:
        try:
            signatures.append((port_signature(op, 0, 1), op.invertible))
        except PortConditionError:
            signatures.append(None)
    assert ((1, -1), True) in signatures


def test_damped_metric_space_is_singular_line():
    basis = metric_space(make_prototype("damped", 0.0, 0.7))
    assert len(basis) == 1
    op = basis[0]
    assert not op.invertible
    # solutions are the multiples of (identity - swap)
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 1.0
    assert np.abs(op.matrix - expected).max() < 1e-10


def test_hermitian_center_metric_space_contains_identity():
    rng = np.random.default_rng(12)
    a = random_center(rng, 3)
    h = a + a.conj().T
    basis = metric_space(h)
    assert _in_span(np.eye(3, dtype=complex), basis)
    assert all(op.residual < 1e-9 for op in basis)


def test_metric_space_dimension_invariant_under_site_relabeling():
    # relabeling sites permutes the linear system's rows/columns; the
    # solution-space dimension must not change
    rng = np.random.default_rng(40)
    for n in (2, 3, 4):
        h = random_center(rng, n)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        assert len(metric_space(h)) == len(metric_space(p @ h @ p.T))


def _hermitian_params(q: np.ndarray) -> np.ndarray:
    """The N^2 real parameters of a Hermitian matrix: its diagonal, then the
    (re, im) pairs of its strict upper triangle in row-major order."""
    upper = q[np.triu_indices(len(q), 1)]
    return np.concatenate([q.diagonal().real, np.column_stack([upper.real, upper.imag]).ravel()])


def test_metric_space_is_the_row_echelon_basis_of_the_condition():
    # oracle: the condition matrix column by column from unit Hermitian
    # matrices, and its free columns from matrix_rank of leading column blocks
    rng = np.random.default_rng(21)
    cases = []
    for n in range(1, 7):
        a = random_center(rng, n)
        sign = np.diag(rng.choice([-1.0, 1.0], n))
        sparse = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        cases += [a, a + a.conj().T, a + sign @ a.conj().T @ sign, sparse, np.zeros((n, n))]
    for h in cases:
        n = len(h)
        columns = []
        for p in range(n * n):
            q = np.zeros((n, n), dtype=complex)
            if p < n:
                q[p, p] = 1.0
            else:
                i, j = (index[(p - n) // 2] for index in np.triu_indices(n, 1))
                q[i, j] = 1.0 if (p - n) % 2 == 0 else 1j
                q[j, i] = q[i, j].conjugate()
            c = q @ h.conj().T - h @ q
            columns.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
        condition = np.column_stack(columns)
        ranks = [np.linalg.matrix_rank(condition[:, :c]) if c else 0 for c in range(n * n + 1)]
        free = [c for c in range(n * n) if ranks[c + 1] == ranks[c]]
        basis = metric_space(h)
        assert len(basis) == n * n - ranks[-1] == len(free)
        for i, op in enumerate(basis):
            theta = _hermitian_params(op.matrix)
            assert abs(theta[free[i]]) > 1e-6
            expected = np.zeros(len(free))
            expected[i] = 1.0
            assert np.abs(theta[free] / theta[free[i]] - expected).max() < 1e-9


def test_metric_space_rejects_large_dimension():
    with pytest.raises(DimensionTooLargeError):
        metric_space(np.eye(9))


def test_every_basis_element_solves_the_metric_condition():
    rng = np.random.default_rng(77)
    for _ in range(5):
        b = random_center(rng, 3)
        q0 = np.diag([1.0, -1.0, 1.0])
        h = b + q0 @ b.conj().T @ q0  # pseudo-Hermitian by construction
        for op in metric_space(h):
            residual = np.linalg.norm(op.matrix @ h.conj().T - h @ op.matrix, "fro")
            assert residual < 1e-10
            assert op.residual < 1e-10


# ---------------------------------------------------------------------------
# port signature


def test_port_signature_sigma_z():
    assert port_signature(SIGMA_Z, 0, 1) == (1, -1)


def test_port_signature_identity():
    assert port_signature(np.eye(2, dtype=complex), 0, 1) == (1, 1)


def test_port_signature_sigma_y_fails_with_index():
    with pytest.raises(PortConditionError) as excinfo:
        port_signature(SIGMA_Y, 0, 1)
    assert excinfo.value.index is not None


def test_port_signature_validates_sites():
    with pytest.raises(ValueError):
        port_signature(SIGMA_Z, 0, 0)
    with pytest.raises(ValueError):
        port_signature(SIGMA_Z, 0, 5)


def test_port_signature_on_larger_metric():
    q = np.diag([1.0, -1.0, 2.5]).astype(complex)
    assert port_signature(q, 0, 1) == (1, -1)
    with pytest.raises(PortConditionError):
        port_signature(q, 0, 2)


def test_port_metric_finds_conditioned_metric_inside_the_span():
    # sigma_z is a basis element of the undamped metric space; the damped
    # space holds no metric meeting the port condition
    witness = port_metric(metric_space(make_prototype("undamped", 0.2, 0.7)), 0, 1)
    assert witness is not None and witness[0] == (1, -1)
    assert np.abs(witness[1] - SIGMA_Z).max() < 1e-12
    assert port_metric(metric_space(make_prototype("damped", 0.2, 0.7)), 0, 1) is None
    assert port_metric([], 0, 1) is None
    with pytest.raises(ValueError):
        port_metric(metric_space(np.eye(2)), 0, 0)


def test_port_metric_verdict_on_constructed_centers():
    # H = M q^-1 keeps q out of the basis itself, but in its span
    rng = np.random.default_rng(6)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(3, 7))
        sign = int(rng.choice([1, -1]))
        witness = port_metric(metric_space(port_metric_center(rng, n, sign)), 0, n - 1)
        verdicts.append(witness is not None and witness[0] == (1, sign))
    assert sum(verdicts) == 300


@given(seed=st.integers(0, 10_000), n=st.integers(2, 5),
       kind=st.sampled_from(["constructed", "hermitian", "generic", "damped", "undamped"]))
@settings(max_examples=40, deadline=None)
def test_predicted_flux_law_holds_on_k_grid(seed, n, kind):
    rng = np.random.default_rng(seed)
    sites = (0, n - 1)
    if kind == "constructed":
        sign = int(rng.choice([1, -1]))
        h = port_metric_center(rng, max(n, 3), sign)
        sites = (0, len(h) - 1)
    elif kind == "hermitian":
        a = random_center(rng, n)
        h = a + a.conj().T
    elif kind == "generic":
        h = random_center(rng, n)
    else:
        # gamma < J: the undamped dimer is singular at gamma^2 = J^2 + v^2, k = pi/2
        h = make_prototype(kind, rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9))
        sites = (0, 1)
    witness = port_metric(metric_space(h), *sites)
    if kind in ("constructed", "hermitian", "undamped"):
        assert witness is not None
    if kind == "constructed":
        assert witness[0] == (1, sign)
    if witness is None:
        return
    law = 0 if witness[0] == (1, 1) else 1  # energy, energy difference
    ks = np.linspace(0.1, math.pi - 0.1, 25)
    deviations = flux_deviations(lead_smatrices(h, sites, ks))[law]
    assert np.max(deviations) < 1e-8


# ---------------------------------------------------------------------------
# anti-PT and phases


def test_prototypes_are_anti_pt_under_sigma_x():
    for kind in ("damped", "undamped"):
        for v, gamma in ((0.0, 0.4), (0.7, 0.23), (1.5, 1.5)):
            assert is_anti_pt(make_prototype(kind, v, gamma), SIGMA_X)


def test_identity_is_not_anti_pt():
    assert not is_anti_pt(np.eye(2, dtype=complex), SIGMA_X)


def test_damped_zero_detuning_is_anti_hermitian():
    h = make_prototype("damped", 0.0, 0.9)
    assert np.abs(h.conj().T + h).max() < 1e-15


def test_phase_classification():
    assert phase_of(0.0, GAMMA) is PhaseClass.EXACT
    assert phase_of(0.2, 0.2) is PhaseClass.EXCEPTIONAL_POINT
    assert phase_of(0.4, 0.2) is PhaseClass.BROKEN
    with pytest.raises(ValueError):
        phase_of(-0.1, 0.2)


# ---------------------------------------------------------------------------
# conjugate-matrix prediction: S(H†) = diag(s) S(H) diag(s)


def test_prediction_matches_direct_computation_for_undamped():
    system = prototype_system("undamped", 0.0, GAMMA)
    for k in (0.5, math.pi / 2.0, 2.3):
        s = scattering_matrix(system, k)
        direct = scattering_matrix(system.daggered(), k)
        assert np.abs(conjugation_defect(s.entries, direct.entries, (1, -1))).max() < 1e-10


def test_prediction_value_at_band_center():
    system = prototype_system("undamped", 0.0, GAMMA)
    s = scattering_matrix(system, math.pi / 2.0).entries
    direct = scattering_matrix(system.daggered(), math.pi / 2.0).entries
    assert abs(direct[1, 0] - (-0.75)) < 1e-12
    assert abs(direct[0, 0] - s[0, 0]) < 1e-15


def test_trivial_signature_is_identity_map():
    s = scattering_matrix(prototype_system("damped", 0.0, GAMMA), 1.0).entries
    np.testing.assert_array_equal(conjugation_defect(s, s, (1, 1)), 0.0)


# ---------------------------------------------------------------------------
# signature sign product fixes the flux class


@given(seed=st.integers(0, 10_000), n=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_sign_product_rule_on_constructed_centers(seed, n):
    rng = np.random.default_rng(seed)
    diag = np.ones(n)
    diag[1] = -1.0
    q = np.diag(diag).astype(complex)
    b = random_center(rng, n)
    h = b + q @ b.conj().T @ q  # satisfies q H† q^{-1} = H
    assert port_signature(q, 0, 1) == (1, -1)
    system = ScatteringSystem(h, (0, 1), 1.0)
    k = random_k(rng)
    cls, residual = classify_flux(scattering_matrix(system, k))
    assert cls is FluxClass.ENERGY_DIFFERENCE
    assert residual < 1e-10
    s = scattering_matrix(system, k).entries
    direct = scattering_matrix(system.daggered(), k).entries
    assert np.abs(conjugation_defect(s, direct, (1, -1))).max() < 1e-10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_positive_sign_product_gives_energy_conservation(seed):
    rng = np.random.default_rng(seed)
    b = random_center(rng, 3)
    h = b + b.conj().T  # q = identity
    assert port_signature(np.eye(3, dtype=complex), 0, 1) == (1, 1)
    system = ScatteringSystem(h, (0, 1), 1.0)
    cls, residual = classify_flux(scattering_matrix(system, random_k(rng)))
    assert cls is FluxClass.ENERGY
    assert residual < 1e-10
