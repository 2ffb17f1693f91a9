"""Physics oracles for every benchmark op.

``check(op, code, stderr, workdir)`` returns ``None`` when the op exited as
expected and its outputs pass their oracle, and a one-line reason otherwise.
The oracles recompute what they can from the printed numbers (17 significant
digits) instead of trusting the program's own residual columns:

* sweep: ``S̄† S = I`` from the printed S and S̄, the dimer closed forms, and
  an independent numpy solve of the lead-dressed center at a few rows;
* cmt: the printed residuals, ``|r|^2 - |t|^2 = 1`` for the sign-conditioned
  dimer, and an independent numpy solve at a few rows for a coupling file;
* verify, campaign, classify: the reported residuals and verdicts, with the
  metric residuals recomputed from the printed basis;
* evolve: the R/T acceptance bands, ``boundary_ok``, and frame sums that
  reproduce R and T from the frames CSV.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

LAW_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
CMT_TOL = 1e-12
METRIC_TOL = 1e-9
REFERENCE_RTOL = 1e-10  # numpy reference solve against the printed S
ABS2_RTOL = 1e-12
SUM_RTOL = 1e-9  # frame sums against the summary R/T
SPOT_ROWS = 5


class CheckFailed(Exception):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check(op, code: int, stderr: str, workdir: Path) -> str | None:
    """``None`` if ``op`` exited with its expected code and passed its oracle."""
    if code != op.expect_exit:
        detail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {code}, expected {op.expect_exit} {detail[0]}".rstrip()
    try:
        CHECKS[op.check](op, stderr, Path(workdir))
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_matrix(path: Path) -> np.ndarray:
    payload = _read_json(path)
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    """Numeric columns of a CLI CSV by name (the text 'convention' column is skipped)."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    numeric = [i for i, name in enumerate(header) if name != "convention"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
    return {header[i]: data[:, j] for j, i in enumerate(numeric)}


def _entries(cols: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    """Stacked (rows, P, P) complex matrices from re_/im_/abs2_ column blocks."""
    p = math.isqrt(sum(1 for name in cols if name.startswith(f"re_{prefix}") and
                       name[len(prefix) + 3:].isdigit()))
    rows = len(next(iter(cols.values())))
    out = np.empty((rows, p, p), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            re, im = cols[f"re_{prefix}{i}{j}"], cols[f"im_{prefix}{i}{j}"]
            abs2 = cols[f"abs2_{prefix}{i}{j}"]
            _require_abs2(re, im, abs2, f"{prefix}{i}{j}")
            out[:, i, j] = re + 1j * im
    return out


def _require_abs2(re, im, abs2, label: str) -> None:
    dev = np.abs(abs2 - (re * re + im * im))
    bad = np.flatnonzero(dev > ABS2_RTOL * np.abs(abs2) + 1e-300)
    _require(bad.size == 0, f"abs2 of {label} disagrees with re/im at row {bad[:1]}")


def _spot_rows(rows: int) -> np.ndarray:
    return np.unique(np.linspace(0, rows - 1, SPOT_ROWS).round().astype(int))


def _require_close(got: np.ndarray, want: np.ndarray, rtol: float, label: str) -> None:
    dev = float(np.abs(got - want).max())
    _require(dev <= rtol * max(1.0, float(np.abs(want).max())), f"{label} off by {dev:.3e}")


# ---------------------------------------------------------------------------
# scattering over a momentum grid


def _closed_form(kind: str, k: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Dimer (r, t) in the shifted convention at J = 1 (see smatrix docstrings)."""
    if kind == "damped":
        den = 1j + 2.0 * gamma * np.exp(1j * k)
        return -(1j + 2.0 * gamma * np.cos(k)) / den, 2j * gamma * np.sin(k) / den
    den = 1.0 + gamma * gamma * np.exp(2j * k)
    return -(1.0 + gamma * gamma) / den, 2.0 * gamma * np.sin(k) / den


def _lead_smatrix(center: np.ndarray, ports: list[int], k: float) -> np.ndarray:
    """Shifted-convention lead S-matrix by a numpy solve, J = 1."""
    n, p = center.shape[0], len(ports)
    w = np.zeros((n, p))
    w[ports, range(p)] = 1.0
    dressed = -2.0 * math.cos(k) * np.eye(n) - center + cmath.exp(1j * k) * (w @ w.T)
    s = -np.eye(p) + 2j * math.sin(k) * (w.T @ np.linalg.solve(dressed, w))
    return cmath.exp(-2j * k) * s


def _check_sweep(op, stderr: str, workdir: Path) -> None:
    cols = _read_csv(workdir / op.outputs[0])
    k = cols["k"]
    count = int(op.argv[op.argv.index("--k-count") + 1])
    _require(k.size == count, f"{k.size} rows, expected {count}")
    _require(bool(np.all(np.diff(k) > 0.0)) and 0.0 < k[0] and k[-1] < math.pi,
             "k grid not increasing inside (0, pi)")
    s, s_bar = _entries(cols, "s"), _entries(cols, "sbar")
    p = s.shape[1]
    law = np.linalg.norm(np.conj(np.swapaxes(s_bar, 1, 2)) @ s - np.eye(p), axis=(1, 2))
    _require(float(law.max()) <= LAW_TOL, f"S̄†S - I reaches {law.max():.3e}")
    printed = cols["law_residual"]
    _require(float(printed.max()) <= LAW_TOL, f"law_residual reaches {printed.max():.3e}")
    _require(float(np.abs(printed - law).max()) <= 1e-13, "law_residual disagrees with S̄†S - I")
    if "prototype" in op.expect:
        r, t = _closed_form(op.expect["prototype"], k, op.expect["gamma"])
        want = np.stack([np.stack([r, t], axis=-1), np.stack([t, r], axis=-1)], axis=1)
        dev = float(np.abs(s - want).max())
        _require(dev <= CLOSED_FORM_TOL, f"closed-form deviation {dev:.3e}")
    else:
        center = _read_matrix(workdir / op.expect["center"])
        for row in _spot_rows(k.size):
            want = _lead_smatrix(center, op.expect["ports"], float(k[row]))
            _require_close(s[row], want, REFERENCE_RTOL, f"S at k={k[row]:.6g}")


# ---------------------------------------------------------------------------
# coupled-mode scattering


def _check_cmt(op, stderr: str, workdir: Path) -> None:
    cols = _read_csv(workdir / op.outputs[0])
    omega = cols["omega"]
    _require(omega.size == op.expect["rows"], f"{omega.size} rows, expected {op.expect['rows']}")
    s = _entries(cols, "s")
    worst = float(cols["conservation_residual"].max())
    _require(worst <= CMT_TOL, f"conservation_residual reaches {worst:.3e}")
    if "signs" in op.expect:
        worst = float(cols["conjugation_residual"].max())
        _require(worst <= CMT_TOL, f"conjugation_residual reaches {worst:.3e}")
        # S̄ = Σ S Σ and S̄† S = I give |r|^2 - |t|^2 = 1 for both inputs
        # when the sign product is -1.
        abs2 = np.abs(s) ** 2
        for q in (0, 1):
            dev = np.abs(abs2[:, q, q] - abs2[:, 1 - q, q] - 1.0)
            scale = np.maximum(1.0, abs2[:, q, q])
            _require(bool(np.all(dev <= REFERENCE_RTOL * scale)),
                     f"|r|^2 - |t|^2 - 1 reaches {dev.max():.3e} for input {q}")
    if "coupling" in op.expect:
        center = _read_matrix(workdir / op.expect["center"])
        d = _read_matrix(workdir / op.expect["coupling"])
        n, p = d.shape
        for row in _spot_rows(omega.size):
            dressed = omega[row] * np.eye(n) - center + 1j * (d @ d.conj().T)
            want = np.eye(p) - 2j * (d.conj().T @ np.linalg.solve(dressed, d))
            _require_close(s[row], want, REFERENCE_RTOL, f"S at omega={omega[row]:.6g}")


# ---------------------------------------------------------------------------
# single-shot verdicts


def _check_verify(op, stderr: str, workdir: Path) -> None:
    payload = _read_json(workdir / op.outputs[0])
    _require(payload["k"] == op.expect["k"], f"k {payload['k']} != {op.expect['k']}")
    law = payload["law_residual"]
    _require(law <= LAW_TOL, f"law_residual {law:.3e}")
    parts = [x for pair in payload["diag"] + payload["offdiag"] for x in pair]
    recomputed = math.sqrt(sum(x * x for x in parts))
    _require(abs(recomputed - law) <= 1e-15 + 1e-9 * law,
             f"law_residual {law:.3e} disagrees with its entries ({recomputed:.3e})")


def _check_campaign(op, stderr: str, workdir: Path) -> None:
    payload = _read_json(workdir / op.outputs[0])
    _require(payload["passed"] is True, "campaign did not pass")
    _require(payload["trials"] == op.expect["trials"], f"{payload['trials']} trials")
    for key in ("law", "transpose", "conjugate", "dagger"):
        value = payload[f"max_{key}_residual"]
        _require(value <= payload["tolerance"], f"max_{key}_residual {value:.3e}")


def _check_classify(op, stderr: str, workdir: Path) -> None:
    payload = _read_json(workdir / op.outputs[0])
    basis = payload["metric_basis"]
    want = op.expect["dimension"]
    _require(payload["dimension"] == len(basis) == want,
             f"metric dimension {payload['dimension']}, expected {want}")
    if "prototype" in op.expect:
        kind, gamma = op.expect["prototype"], op.expect["gamma"]
        center = np.array([[0.0, -1j * gamma], [-1j * gamma, 0.0]])
        if kind == "damped":
            center -= 1j * gamma * np.eye(2)
        flux = payload["predicted_flux_class"]
        _require(flux == op.expect["flux"], f"predicted {flux}, expected {op.expect['flux']}")
        _require(payload["anti_pt"] is True, "prototype not reported anti-PT")
    else:
        center = _read_matrix(workdir / op.expect["center"])
    for i, entry in enumerate(basis):
        q = np.asarray(entry["matrix"]["re"]) + 1j * np.asarray(entry["matrix"]["im"])
        _require(float(np.abs(q - q.conj().T).max()) <= 1e-12, f"metric {i} not Hermitian")
        recomputed = float(np.linalg.norm(q @ center.conj().T - center @ q))
        _require(entry["residual"] <= METRIC_TOL and recomputed <= METRIC_TOL,
                 f"metric {i} residual {entry['residual']:.3e} (recomputed {recomputed:.3e})")


def _check_numerical_error(op, stderr: str, workdir: Path) -> None:
    _require("numerical error" in stderr, "no numerical-error message on stderr")


# ---------------------------------------------------------------------------
# packet experiments


def _check_evolve(op, stderr: str, workdir: Path) -> None:
    frames_path, summary_path = (workdir / name for name in op.outputs)
    summary = _read_json(summary_path)
    r, t = summary["R"], summary["T"]
    _require(summary["boundary_ok"] is True, "boundary_ok is false")
    values = {"R": r, "T": t, "R_minus_T": r - t}
    for key, (center, width) in op.expect["bounds"].items():
        _require(abs(values[key] - center) < width,
                 f"{key} = {values[key]:.6g} outside {center} ± {width}")

    data = np.loadtxt(frames_path, delimiter=",", skiprows=1, ndmin=2)
    sites, frames = op.expect["sites"], op.expect["frames"]
    _require(data.shape == ((frames + 1) * sites, 5), f"frames CSV has shape {data.shape}")
    times, site, re, im, abs2 = data.T
    _require(bool(np.all(site == np.tile(np.arange(sites), frames + 1))), "site column out of order")
    _require(times[-1] == summary["t_final"], "last frame time differs from t_final")
    _require_abs2(re, im, abs2, "psi")
    left = summary["config"]["left_len"]
    last = abs2[-sites:]
    for label, got, want in (
        ("R", last[:left].sum(), r),
        ("T", last[sites - summary["config"]["right_len"]:].sum(), t),
        ("initial norm", math.sqrt(abs2[:sites].sum()), summary["initial_norm"]),
    ):
        _require(abs(got - want) <= SUM_RTOL * abs(want),
                 f"frames CSV gives {label} = {got:.12g}, summary {want:.12g}")


CHECKS = {
    "sweep": _check_sweep,
    "cmt": _check_cmt,
    "verify": _check_verify,
    "campaign": _check_campaign,
    "classify": _check_classify,
    "numerical_error": _check_numerical_error,
    "evolve": _check_evolve,
}
