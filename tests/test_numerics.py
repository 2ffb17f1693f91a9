import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhscatter import (
    CmtCoupling,
    DimensionTooLargeError,
    MetricOperator,
    ScatteringMatrix,
    ScatteringSystem,
    SingularMatrixError,
    build_chain,
    determinant,
    invert,
    matrix_from_json,
    matrix_to_json,
)
from nhscatter import numerics
from helpers import cofactor_inverse, percent_csv, propagate_expm, random_center


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# invert, and solves A X = B as invert(A) @ B


def test_solve_identity_returns_rhs():
    b = _rng(0).normal(size=(3, 2)) + 1j * _rng(1).normal(size=(3, 2))
    x = invert(np.eye(3)) @ b
    np.testing.assert_allclose(x, b, atol=1e-15)


def test_solve_diagonal_inverse():
    a = np.diag([2j, -1j])
    x = invert(a) @ np.eye(2)
    np.testing.assert_allclose(x, np.diag([-0.5j, 1j]), atol=1e-15)


def test_solve_matches_cofactor_inverse_at_n4():
    rng = _rng(42)
    a = random_center(rng, 4) + 2.0 * np.eye(4)
    b = random_center(rng, 4)
    x = invert(a) @ b
    expected = cofactor_inverse(a) @ b
    assert np.abs(x - expected).max() < 1e-12
    assert np.linalg.norm(a @ x - b, "fro") <= 1e-12 * np.linalg.norm(b, "fro")


def test_invert_permutation_is_self_inverse():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(invert(swap), swap, atol=1e-15)


def test_invert_lead_dressed_dimer_against_adjugate():
    # 2x2 with equal diagonal a and off-diagonal b: inverse = [[a,-b],[-b,a]]/(a^2-b^2)
    j, gamma, k = 1.0, 1.0 / 3.0, math.pi / 2.0
    a = -j * cmath.exp(-1j * k)
    b = 1j * gamma
    mat = np.array([[a, b], [b, a]])
    expected = np.array([[a, -b], [-b, a]]) / (a * a - b * b)
    np.testing.assert_allclose(invert(mat), expected, atol=1e-14)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        invert(np.zeros((2, 2)))


def test_near_singular_below_pivot_threshold_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(SingularMatrixError):
        invert(a)


def test_singular_matrix_in_stack_reports_its_index():
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-14]]])
    with pytest.raises(SingularMatrixError) as info:
        invert(stack)
    assert info.value.index == 1
    with pytest.raises(SingularMatrixError) as info:
        invert(stack[[0, 2]])
    assert info.value.index == 1


def test_stack_inverse_matches_each_matrix():
    rng = _rng(9)
    stack = np.array([random_center(rng, 4) + 2.0 * np.eye(4) for _ in range(5)])
    inverses = invert(stack)
    for a, a_inv in zip(stack, inverses):
        np.testing.assert_allclose(a_inv, invert(a), atol=1e-14)
        np.testing.assert_allclose(a @ a_inv, np.eye(4), atol=1e-12)


def test_rejects_nonfinite_input():
    with pytest.raises(ValueError):
        invert(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_determinant_matches_laplace_and_flags_singular():
    rng = _rng(5)
    a = random_center(rng, 4)
    from helpers import det_laplace

    expected = det_laplace([[complex(v) for v in row] for row in a])
    assert abs(determinant(a) - expected) < 1e-12 * max(1.0, abs(expected))
    assert determinant(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0


@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_invert_roundtrip_random_well_conditioned(seed, n):
    rng = _rng(seed)
    a = random_center(rng, n) + 1.5 * np.eye(n)  # diagonally shifted, well conditioned
    if np.linalg.cond(a) > 1e6:
        return
    residual = np.linalg.norm(a @ invert(a) - np.eye(n), "fro")
    assert residual < 1e-10


# ---------------------------------------------------------------------------
# the matrix exponential behind the exact propagator exp(-i t H) psi0


def test_expm_zero_is_identity():
    # a zero exponent -i H t, from H = 0 or from t = 0
    psi0 = _rng(4).normal(size=3) + 1j * _rng(5).normal(size=3)
    np.testing.assert_array_equal(propagate_expm(np.zeros((3, 3)), psi0, 2.0), psi0)
    psi0 = _rng(2).normal(size=6) + 1j * _rng(3).normal(size=6)
    np.testing.assert_allclose(propagate_expm(np.diag(np.arange(6.0)), psi0, 0.0), psi0, atol=1e-14)


def test_expm_diagonal_phase():
    out = propagate_expm(np.diag([math.pi / 2.0]), np.ones(1), 1.0)
    np.testing.assert_allclose(out, [-1j], atol=1e-15)
    psi0 = _rng(6).normal(size=6) + 1j * _rng(7).normal(size=6)
    out = propagate_expm(np.diag([2.0] * 6), psi0, 0.5)
    np.testing.assert_allclose(out, np.exp(-1j) * psi0, atol=1e-12)


def _expm_taylor_mpmath(a: np.ndarray, terms: int = 200) -> np.ndarray:
    """Long Taylor series summed in 60-digit arithmetic."""
    import mpmath

    with mpmath.workdps(60):
        n = a.shape[0]
        m = mpmath.matrix(n)
        for i in range(n):
            for j in range(n):
                m[i, j] = mpmath.mpc(a[i, j].real, a[i, j].imag)
        acc = mpmath.eye(n)
        term = mpmath.eye(n)
        for order in range(1, terms + 1):
            term = term * m / order
            acc += term
        out = np.empty((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                out[i, j] = complex(acc[i, j])
    return out


def test_expm_matches_long_taylor_series():
    # propagating the identity gives the whole propagator matrix
    h = 2.0 * random_center(_rng(7), 4)
    expected = _expm_taylor_mpmath(-1j * h)
    scale = np.abs(expected).max()
    assert np.abs(propagate_expm(h, np.eye(4), 1.0) - expected).max() < 1e-10 * scale


def test_expm_dimension_cap():
    # the cap counts sites, of a dense matrix and of a ChainOperator alike
    np.testing.assert_array_equal(propagate_expm(np.zeros((64, 64)), np.ones(64), 1.0), 1.0)
    with pytest.raises(DimensionTooLargeError):
        propagate_expm(np.zeros((65, 65)), np.ones(65), 1.0)
    rng = _rng(3)
    h = build_chain(0.2 * random_center(rng, 2) - 0.2j * np.eye(2), 10, 10)
    psi0 = rng.normal(size=h.size) + 1j * rng.normal(size=h.size)
    np.testing.assert_allclose(propagate_expm(h, psi0, 1.0), propagate_expm(h.toarray(), psi0, 1.0),
                               atol=1e-14)
    h = build_chain(np.zeros((2, 2)), 31, 32)
    with pytest.raises(DimensionTooLargeError):
        propagate_expm(h, np.ones(h.size), 1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_expm_inverse_property(seed):
    h = 1.2 * random_center(_rng(seed), 4)  # 1-norm stays below 5
    forward = propagate_expm(h, np.eye(4), 1.0)
    assert np.linalg.norm(propagate_expm(h, forward, -1.0) - np.eye(4), "fro") < 1e-9


# ---------------------------------------------------------------------------
# matrix JSON format


def test_matrix_json_roundtrip_square():
    a = random_center(_rng(9), 3)
    payload = matrix_to_json(a)
    assert payload["n"] == 3
    np.testing.assert_array_equal(matrix_from_json(payload), a)


def test_matrix_json_roundtrip_rectangular():
    a = np.arange(6, dtype=float).reshape(2, 3) + 1j
    payload = matrix_to_json(a)
    assert (payload["rows"], payload["cols"]) == (2, 3)
    np.testing.assert_array_equal(matrix_from_json(payload), a)


def test_matrix_json_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        matrix_from_json({"n": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})


def test_matrix_json_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 0, "re": [], "im": []})
    # bool is an int subclass; true would otherwise pass as a dimension of 1
    with pytest.raises(ValueError, match="invalid matrix dimensions"):
        matrix_from_json({"n": True, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ValueError, match="invalid matrix dimensions"):
        matrix_from_json({"rows": 1, "cols": True, "re": [[1.0]], "im": [[0.0]]})


def test_matrix_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "re": [[math.inf]], "im": [[0.0]]})


def test_matrix_fields_are_readonly_copies():
    source = np.eye(2, dtype=complex)
    fields = [ScatteringSystem(source, (0, 1)).center, ScatteringMatrix(1.0, source, "raw").entries,
              CmtCoupling(source, 0.0).matrix, MetricOperator(source, True, 0.0).matrix]
    source[0, 0] = 5.0
    for field in fields:
        assert field[0, 0] == 1.0
        with pytest.raises(ValueError):
            field[0, 0] = 2.0


# ---------------------------------------------------------------------------
# CSV text against Python's '%.17g' %


def _csv_cells(values) -> list[str]:
    """Each value through ``numerics.csv_text`` as a one-column table."""
    text = "".join(numerics.csv_text(np.asarray(values, dtype=np.float64)[:, None]))
    return text.splitlines()


def _bit_patterns(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_csv_cells_equal_percent_on_random_bit_patterns(bits):
    values = _bit_patterns(bits)
    assert _csv_cells(values) == ["%.17g" % v for v in values.tolist()]


def test_csv_cells_equal_percent_on_every_exponent():
    # uniform 64-bit patterns: every binary exponent, subnormals, both signs
    values = _bit_patterns(_rng(17).integers(0, 2 ** 64, 200_000, dtype=np.uint64))
    assert _csv_cells(values) == ["%.17g" % v for v in values.tolist()]


def test_csv_cells_equal_percent_on_pinned_cases():
    largest = np.finfo(np.float64).max
    pinned = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, largest, -largest,
              1.0, 0.1, 1 / 3, 123456789012345678.0, 99999999999999999.0, 9.999999999999999e16]
    # the fixed/scientific edges and every power of ten, each with its neighbours
    for center in [1e-5, 1e-4, 1e16, 1e17] + [float(f"1e{p}") for p in range(-323, 309)]:
        pinned += [np.nextafter(center, -math.inf), center, np.nextafter(center, math.inf)]
    values = np.array(pinned)
    values = np.concatenate([values, -values])
    assert _csv_cells(values) == ["%.17g" % v for v in values.tolist()]


def test_csv_decimal_ties_go_to_python(monkeypatch):
    # 1 + j 2^-17 for odd j has 18 significant digits, the last a 5: a tie
    # at the 17th, which only Python's correctly rounded conversion settles
    values = 1.0 + np.arange(1, 2 ** 17, 2) * 2.0 ** -17
    seen = []
    fallback = numerics._fallback

    def recording(value):
        seen.append(value)
        return fallback(value)

    monkeypatch.setattr(numerics, "_fallback", recording)
    assert _csv_cells(values) == ["%.17g" % v for v in values.tolist()]
    assert seen == values.tolist()


@pytest.mark.parametrize("rows, cols, tail", [
    (3 * (numerics.CSV_CHUNK_CELLS // 7) + 5, 7, ""),
    (2 * numerics.CSV_CHUNK_CELLS + 1, 1, ""),
    (1, 35, "shifted"),
    (0, 3, ""),
])
def test_csv_table_equals_the_percent_writer(rows, cols, tail):
    # tables across chunk boundaries, and one sweep row with its tail column
    rng = _rng(rows + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
    header = [f"c{j}" for j in range(cols)] + (["convention"] if tail else [])
    text = ",".join(header) + "\n" + "".join(numerics.csv_text(table, tail))
    assert text == percent_csv(header, list(table.T), tail)


@pytest.mark.parametrize("rows, layout, tail", [
    (3 * (numerics.CSV_CHUNK_CELLS // 6) + 7, "rprpPr", ""),
    (2 * numerics.CSV_CHUNK_CELLS + 3, "rr", ""),
    (5, "prP", "shifted"),
    (0, "rp", ""),
])
def test_csv_repeated_columns_equal_the_percent_writer(rows, layout, tail):
    # repeated columns (r) first, between plain columns (p) and 2-D blocks (P)
    # and last, their values with signed zeros, infinities, nan and integers,
    # across chunk boundaries
    rng = _rng(rows + len(layout))
    values = [np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 1 / 3, -2.5e-300, 1e22]),
              np.arange(-3, 600)]
    columns, flat = [], []
    for i, kind in enumerate(layout):
        if kind == "r":
            distinct = values[i % 2]
            picks = rng.integers(0, len(distinct), rows)
            columns.append(numerics.RepeatedColumn(distinct, picks))
            flat.append(distinct[picks])
        else:
            block = rng.standard_normal((rows, 1 if kind == "p" else 3))
            block *= 10.0 ** rng.integers(-30, 30, block.shape)
            columns.append(block[:, 0] if kind == "p" else block)
            flat += list(block.T)
    header = [f"c{j}" for j in range(len(flat))] + (["convention"] if tail else [])
    text = ",".join(header) + "\n" + "".join(numerics.csv_text(columns, tail))
    assert text == percent_csv(header, flat, tail)
