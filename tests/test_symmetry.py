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
from nhscatter import symmetry
from nhscatter.cmt import conjugation_defect
from nhscatter.numerics import RCOND_MIN
from helpers import port_metric_center, random_center, random_k, trailing_rank_nullspace

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
    signatures = [(port_signature(op, 0, 1), op.invertible) for op in basis]
    assert ((1, -1), True) in signatures


def test_damped_metric_space_is_singular_line():
    basis = metric_space(make_prototype("damped", 0.0, 0.7))
    assert len(basis) == 1
    op = basis[0]
    assert not op.invertible
    # solutions are the multiples of (identity - swap)
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 1.0
    assert np.abs(op.matrix - expected).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_metric_invertibility_is_the_inverse_singularity_rule(seed):
    # pseudo-Hermitian A D A^-1 with distinct real D, drawn as the benchmark's
    # random workload draws them: every metric is A X A† for a real diagonal X,
    # and at these seeds each basis element is invertible, its 1-norm
    # reciprocal condition far above RCOND_MIN.  At seed 0 one 8-site metric
    # has rcond 3.5e-4 yet |det q| below 1e-9 max|q|^N, a determinant floor
    # that called it singular.
    rng = np.random.default_rng(seed)
    for n in (6, 7, 8):
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = np.eye(n) + 0.3 * noise / math.sqrt(2.0)
        center = a @ np.diag(rng.uniform(-1.0, 1.0, n)) @ np.linalg.inv(a)
        basis = metric_space(center)
        assert len(basis) == n
        for op in basis:
            assert op.invertible == (1.0 / np.linalg.cond(op.matrix, 1) > RCOND_MIN)
            assert op.invertible


def test_metric_invertibility_of_a_stack_with_singular_members():
    # H = 0: every Hermitian q solves; the basis diag(1, 0), diag(0, 1),
    # sigma_x, sigma_y is judged as one stack whose first two are singular
    assert [op.invertible for op in metric_space(np.zeros((2, 2)))] == [False, False, True, True]


def test_metric_operator_must_be_hermitian():
    with pytest.raises(ValueError, match="metric operator must be Hermitian"):
        MetricOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), True, 0.0)


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


def _oracle_centers() -> list[np.ndarray]:
    """Centers of every metric-space shape, n = 1..8: pseudo-Hermitian A D A^-1
    (dimension n), generic (0), Hermitian, signed pseudo-Hermitian, sparse,
    zero, and the two prototypes."""
    rng = np.random.default_rng(23)
    cases = [make_prototype(kind, 0.0, GAMMA) for kind in ("damped", "undamped")]
    for n in range(1, 9):
        a = np.eye(n) + 0.3 * random_center(rng, n)
        pseudo = a @ np.diag(rng.uniform(-1.0, 1.0, n)) @ np.linalg.inv(a)
        b = random_center(rng, n)
        sign = np.diag(rng.choice([-1.0, 1.0], n))
        sparse = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        cases += [pseudo, b, b + b.conj().T, b + sign @ b.conj().T @ sign, sparse, np.zeros((n, n))]
    return cases


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 0.5])
def test_metric_space_matches_the_trailing_rank_oracle(monkeypatch, tol):
    # the pivots from bottom-up ranks that stop at the nullity give the basis
    # that ranking every trailing block gives, bit for bit
    def fields(h):
        return [(op.matrix.tobytes(), op.invertible, op.residual) for op in metric_space(h, tol)]

    for h in _oracle_centers():
        got = fields(h)
        with monkeypatch.context() as patch:
            patch.setattr(symmetry, "_canonical_nullspace", trailing_rank_nullspace)
            assert got == fields(h)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("tol", [1.0, 1.5, math.inf, math.nan, 1e308])
def test_metric_space_rejects_tol_of_one_or_more(n, tol):
    # the singular values of an orthonormal basis are 1, so no rank passes;
    # refused before the rank rule, whose tol * sv overflows at 1e308
    h = make_prototype("undamped", 0.0, 0.3) if n == 2 else random_center(np.random.default_rng(8), n)
    with pytest.raises(ValueError, match="metric tol must be below 1"):
        metric_space(h, tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [4, 8])
def test_metric_space_rejects_tol_within_rounding_of_one(n):
    # the largest float below 1 passes the entry check, but the basis's own
    # singular values, 1 to rounding, fall under it: the late check refuses it
    h = random_center(np.random.default_rng(8), n)
    with pytest.raises(ValueError, match="by more than rounding"):
        metric_space(h, np.nextafter(1.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [0.0, -1e-9, 5e-324, 1e-310])
def test_metric_space_rejects_tol_that_is_not_a_positive_normal_float(tol):
    # a basis entry is up to 1/tol, which overflows at a subnormal tol: the
    # damped dimer at v = 1e308 gave an inf entry and a nan metric
    with pytest.raises(ValueError, match="metric tol must be below 1 and a positive normal float"):
        metric_space(make_prototype("damped", 1e308, 0.3), tol)


def _refuse(*args):
    raise AssertionError("the singular vectors were computed")


@pytest.mark.parametrize("n", range(1, 9))
def test_metric_space_of_a_generic_center_stops_at_its_singular_values(monkeypatch, n):
    h = random_center(np.random.default_rng(n), n)
    monkeypatch.setattr(symmetry, "_canonical_nullspace", _refuse)
    assert metric_space(h) == []


def test_metric_space_decides_at_its_singular_values_with_no_margin():
    # the values-only singular values alone rank the condition: of two adjacent
    # tols either side of sv[-1] / sv[0], the lower gives [] and the upper a basis
    n = 3
    h = random_center(np.random.default_rng(5), n)
    units = symmetry._unit_hermitians(n)
    commutators = (units @ h.conj().T - h @ units).reshape(n * n, n * n)
    sv = np.linalg.svd(np.concatenate([commutators.real.T, commutators.imag.T]), compute_uv=False)
    at_threshold = above = sv[-1] / sv[0]
    while sv[-1] > above * sv[0]:
        above = np.nextafter(above, 1.0)
    while not sv[-1] > np.nextafter(above, 0.0) * sv[0]:
        above = np.nextafter(above, 0.0)
    below = np.nextafter(above, 0.0)
    assert abs(above - at_threshold) <= 4 * np.spacing(at_threshold)
    assert metric_space(h, below) == []
    assert len(metric_space(h, above)) == 1


def test_full_rank_systems_compute_no_singular_vectors(monkeypatch):
    # the port system of a prototype's basis and a generic center's condition
    # are of full rank, so their singular values alone decide
    bases = [metric_space(make_prototype(kind, 0.0, GAMMA)) for kind in ("damped", "undamped")]
    h = random_center(np.random.default_rng(3), 4)
    svd, compute_uv = np.linalg.svd, []

    def spy(mat, *args, **kwargs):
        compute_uv.append(kwargs.get("compute_uv", True))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for basis in bases:
        assert basis
        port_metric(basis, 0, 1)
    assert metric_space(h) == []
    assert compute_uv == [False] * 3


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


def _conjugate_pairs(h: np.ndarray) -> int:
    """Ordered eigenvalue pairs (i, j) with lambda_i = conj(lambda_j), within
    1e-8 max|H|: the metric space's real dimension for a diagonalizable H."""
    lam = np.linalg.eigvals(h)
    return int(np.sum(np.abs(lam[:, None] - lam.conj()) <= 1e-8 * np.abs(h).max()))


@pytest.mark.parametrize("family", ["pseudo-hermitian", "complex", "real"])
def test_metric_space_dimension_is_the_conjugate_pair_count(family):
    # q = V X V^dagger with X_ij = 0 unless lambda_i = conj(lambda_j) (Mostafazadeh,
    # J. Math. Phys. 43, 205 (2002)); 200 random diagonalizable centers of 2-8 sites
    # per family: eta^-1 A with eta positive definite and A Hermitian, generic complex, real
    rng = np.random.default_rng(["pseudo-hermitian", "complex", "real"].index(family))
    for _ in range(200):
        n = int(rng.integers(2, 9))
        if family == "pseudo-hermitian":
            b, a = random_center(rng, n), random_center(rng, n)
            h = np.linalg.solve(b @ b.conj().T + 0.1 * np.eye(n), a + a.conj().T)
        elif family == "complex":
            h = random_center(rng, n)
        else:
            h = rng.standard_normal((n, n)).astype(complex)
        assert len(metric_space(h)) == _conjugate_pairs(h), (family, n)


def test_conjugate_pair_count_overcounts_at_the_exceptional_point():
    # the undamped prototype at v = gamma has one 2x2 Jordan block at 0: the
    # count reads 4 while the metric space has dimension 2
    h = make_prototype("undamped", 0.5, 0.5)
    assert _conjugate_pairs(h) == 4
    assert len(metric_space(h)) == 2


# ---------------------------------------------------------------------------
# port signature


def test_port_signature_sigma_z():
    assert port_signature(SIGMA_Z, 0, 1) == (1, -1)


def test_port_signature_identity():
    assert port_signature(np.eye(2, dtype=complex), 0, 1) == (1, 1)


def test_port_signature_sigma_y_is_none():
    assert port_signature(SIGMA_Y, 0, 1) is None


def test_port_signature_validates_sites():
    with pytest.raises(ValueError):
        port_signature(SIGMA_Z, 0, 0)
    with pytest.raises(ValueError):
        port_signature(SIGMA_Z, 0, 5)


def test_port_signature_on_larger_metric():
    q = np.diag([1.0, -1.0, 2.5]).astype(complex)
    assert port_signature(q, 0, 1) == (1, -1)
    assert port_signature(q, 0, 2) is None


@given(seed=st.integers(0, 10_000), n=st.integers(2, 8), s=st.sampled_from([1, -1]),
       tol=st.floats(1e-10, 1e-3), factor=st.sampled_from([0.999, 1.001]))
@settings(max_examples=60, deadline=None)
def test_port_signature_holds_exactly_within_tol(seed, n, s, tol, factor):
    # a random Hermitian q with rows and columns m, k set to e_m and s e_k, and
    # one entry of them (with its mirror) moved by just below or just above tol
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = a + a.conj().T
    m, k = (int(site) for site in rng.choice(n, 2, replace=False))
    q[[m, k]] = 0.0
    q[:, [m, k]] = 0.0
    q[m, m], q[k, k] = 1.0, s
    site, j = (m, k)[rng.integers(2)], int(rng.integers(n))
    delta = factor * tol * (rng.choice([-1.0, 1.0]) if j == site
                            else np.exp(2j * math.pi * rng.random()))
    q[site, j] += delta
    if j != site:
        q[j, site] += np.conj(delta)
    assert port_signature(q, m, k, tol) == ((1, s) if factor < 1.0 else None)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_anti_pt_tolerance_is_relative_to_the_center():
    # frob(H) overflows past about 1e154, where tol * frob(H) would admit anything
    h = np.array([[1.0, 2.0], [3.0, 4.0j]])
    for scale in (1.0, 1e-12, 1e200):
        assert not is_anti_pt(scale * h, SIGMA_X)
        assert is_anti_pt(scale * make_prototype("undamped", 0.2, GAMMA), SIGMA_X)
    assert is_anti_pt(np.zeros((2, 2)), SIGMA_X)
    assert not is_anti_pt(1e200 * np.eye(2), np.eye(2))  # P H* P^-1 + H = 2H


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_anti_pt_verdict_does_not_change_with_the_parity_scale(seed, n):
    # P conj(H) P^-1 is the same for every scale of P: the verdicts on 2^e P and
    # on P agree, also with P's largest entry in the top binade [2^1023, 2^1024),
    # where P conj(H) overflows unless P is scaled first
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    parity = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)  # a real reflection: P conj(P) = I
    x = random_center(rng, n)
    anti_pt = x - parity @ x.conj() @ parity  # P conj(H) P^-1 = -H
    top = 1024 - np.frexp(np.abs(parity).max())[1]
    for h, verdict in ((anti_pt, True), (anti_pt + 1e-3 * x, False)):
        assert is_anti_pt(h, parity) is verdict
        for e in (-600, 600, top):
            assert is_anti_pt(h, np.ldexp(parity, e)) is verdict, e


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600, 1e308, 2.0 ** -1070])
def test_anti_pt_verdict_with_a_parity_at_the_ends_of_the_float_range(scale):
    h = 0.99 * np.array([[-1.0, 1.0], [1.0, 1.0]])
    parity = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert is_anti_pt(h, parity)
    assert is_anti_pt(h, scale * parity)


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
        assert np.abs(conjugation_defect(s, direct, (1, -1))).max() < 1e-10


def test_prediction_value_at_band_center():
    system = prototype_system("undamped", 0.0, GAMMA)
    s = scattering_matrix(system, math.pi / 2.0)
    direct = scattering_matrix(system.daggered(), math.pi / 2.0)
    assert abs(direct[1, 0] - (-0.75)) < 1e-12
    assert abs(direct[0, 0] - s[0, 0]) < 1e-15


def test_trivial_signature_is_identity_map():
    s = scattering_matrix(prototype_system("damped", 0.0, GAMMA), 1.0)
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
    s = scattering_matrix(system, k)
    direct = scattering_matrix(system.daggered(), k)
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
