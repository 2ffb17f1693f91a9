import argparse
import contextlib
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhscatter import (
    ScatteringSystem,
    build_chain,
    cli,
    gaussian_packet,
    matrix_to_json,
    numerics,
    packet_experiment,
    propagate_rk4,
    prototype_system,
    scattering_matrix,
)
from nhscatter.cli import _resolve, build_parser, run
from nhscatter.dynamics import EDGE_TOL
from nhscatter.errors import ScatteringSingularityError, WorkLimitError
from nhscatter.smatrix import require_stack_fits
from helpers import percent_csv, port_metric_center, random_center, traced_peak


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _assert_percent_formatted(path):
    # 17 significant digits read back exactly, so the file must be the bytes
    # that Python's % writes for the numbers it holds
    header, rows = _read_csv(path)
    tail = rows[0][-1] if header[-1] == "convention" else ""
    width = len(header) - (1 if tail else 0)
    columns = [np.array([float(row[i]) for row in rows]) for i in range(width)]
    assert path.read_bytes() == percent_csv(header, columns, tail).encode()


def _col(header, rows, name):
    idx = header.index(name)
    return [float(row[idx]) for row in rows]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_row_count_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run([
        "sweep", "--prototype", "undamped", "--gamma", "0.3333333333333333",
        "--k-min", "0.5", "--k-max", "2.5", "--k-count", "3", "--out", str(out),
    ])
    assert code == 0
    # exactly one header line plus the data rows, nothing else
    assert len(out.read_text().strip().split("\n")) == 4
    header, rows = _read_csv(out)
    assert len(rows) == 3
    for name in ("k", "E", "re_s00", "im_s11", "abs2_s10", "re_sbar01",
                 "law_residual", "flux_sum_dev", "flux_diff_dev", "convention"):
        assert name in header
    assert rows[0][header.index("convention")] == "shifted"


def test_sweep_undamped_difference_is_unity(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run([
        "sweep", "--prototype", "undamped", "--gamma", "0.3333333333333333",
        "--out", str(out),
    ]) == 0
    header, rows = _read_csv(out)
    assert len(rows) == 200
    diff_dev = _col(header, rows, "flux_diff_dev")
    assert max(diff_dev) < 1e-12
    law = _col(header, rows, "law_residual")
    assert max(law) < 1e-12
    _assert_percent_formatted(out)


def test_sweep_damped_band_center_values(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run([
        "sweep", "--prototype", "damped", "--gamma", "0.3333333333333333",
        "--k-min", str(math.pi / 4), "--k-max", str(3 * math.pi / 4),
        "--k-count", "3", "--out", str(out),
    ]) == 0
    header, rows = _read_csv(out)
    mid = rows[1]
    assert abs(float(mid[header.index("k")]) - math.pi / 2) < 1e-12
    assert abs(float(mid[header.index("abs2_s00")]) - 0.36) < 1e-12
    assert abs(float(mid[header.index("abs2_s10")]) - 0.16) < 1e-12
    # conjugate system columns carry the gain values
    assert abs(float(mid[header.index("abs2_sbar00")]) - 9.0) < 1e-12
    assert abs(float(mid[header.index("abs2_sbar10")]) - 4.0) < 1e-12


def test_sweep_three_port_center_file(tmp_path):
    center = tmp_path / "center.json"
    rng = np.random.default_rng(6)
    center.write_text(json.dumps(matrix_to_json(random_center(rng, 4))))
    out = tmp_path / "sweep.csv"
    assert run([
        "sweep", "--center-file", str(center), "--ports", "0", "1", "3",
        "--k-count", "7", "--out", str(out),
    ]) == 0
    header, rows = _read_csv(out)
    assert len(rows) == 7
    direct = [name for name in header
              if name.startswith("abs2_s") and not name.startswith("abs2_sbar")]
    assert len(direct) == 9
    assert "flux_sum_dev" not in header  # flux laws are two-port only
    assert max(_col(header, rows, "law_residual")) < 1e-10
    _assert_percent_formatted(out)


def test_sweep_peak_memory(tmp_path):
    # a dimer's sweep over 100,000 k holds S, S-bar, the law's defect and their
    # CSV columns, and writes its table one chunk at a time: 5.89 (K, N, N)
    # stacks measured; the bound is 0.5 stacks above it
    k_count = 100_000
    argv = ["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-count", str(k_count),
            "--out", str(tmp_path / "sweep.csv")]
    assert traced_peak(lambda: run(argv)) <= (5.89 + 0.5) * 16 * k_count * 2 ** 2


def test_sweep_17_digit_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run([
        "sweep", "--prototype", "undamped", "--gamma", "0.3333333333333333",
        "--k-count", "5", "--out", str(out),
    ]) == 0
    header, rows = _read_csv(out)
    k_idx = header.index("k")
    ks = np.linspace(0.05, math.pi - 0.05, 5)
    for row, expected in zip(rows, ks):
        assert float(row[k_idx]) == expected


# ---------------------------------------------------------------------------
# evolve


def test_evolve_reproduces_packet_values(tmp_path):
    frames = tmp_path / "frames.csv"
    summary = tmp_path / "summary.json"
    code = run([
        "evolve", "--prototype", "damped", "--gamma", "0.3333333333333333",
        "--k", str(math.pi / 2), "--left-len", "150", "--right-len", "150",
        "--out-frames", str(frames), "--out-summary", str(summary),
    ])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert abs(payload["R"] - 0.36) < 0.02
    assert abs(payload["T"] - 0.16) < 0.02
    assert payload["leak"] < 1e-6
    assert payload["boundary_ok"] is True
    assert payload["norm_cap_exceeded"] is False
    assert payload["rk4_deviation"] < 1e-9
    assert isinstance(payload["propagator_matvecs"], int) and payload["propagator_matvecs"] > 0
    assert payload["config"]["prototype"] == "damped"

    header, rows = _read_csv(frames)
    assert header == ["t", "site", "re_psi", "im_psi", "abs2"]
    total_sites = 150 + 2 + 150
    assert len(rows) == 51 * total_sites


def test_evolve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the default gain run, whose last block is one frame, at one and at two
    # BLAS threads, each in its own directory so that the summaries name the
    # same paths
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "nhscatter", "evolve", "--prototype", "damped",
                        "--gamma", "0.3333333333333333", "--dagger", "--out-frames", "f.csv",
                        "--out-summary", "s.json"], cwd=cwd, env=env, check=True)
        outputs.append([(cwd / name).read_bytes() for name in ("f.csv", "s.json")])
    assert outputs[0] == outputs[1]


def test_evolve_flags_packet_past_the_open_ends(tmp_path):
    # a narrow packet run until it reaches the ends of short leads: the run
    # succeeds and its summary marks the R/T readout as contaminated
    summary = tmp_path / "summary.json"
    code = run([
        "evolve", "--prototype", "damped", "--gamma", "0.3333333333333333",
        "--left-len", "60", "--right-len", "60", "--sigma", "2", "--t-final", "120",
        "--out-frames", str(tmp_path / "f.csv"), "--out-summary", str(summary),
    ])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["boundary_ok"] is False
    assert payload["edge_occupancy"] >= EDGE_TOL * (payload["R"] + payload["T"])


def test_evolve_daggered_center_amplifies(tmp_path):
    summary = tmp_path / "summary.json"
    code = run([
        "evolve", "--prototype", "damped", "--gamma", "0.3333333333333333",
        "--dagger", "--k", str(math.pi / 2), "--left-len", "150", "--right-len", "150",
        "--frames", "10", "--out-frames", str(tmp_path / "f.csv"),
        "--out-summary", str(summary),
    ])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert abs(payload["R"] - 8.9) < 0.3
    assert abs(payload["T"] - 3.9) < 0.15

    # the frames CSV against a per-site loop over the same trajectory
    system = prototype_system("damped", 0.0, 0.3333333333333333).daggered()
    traj = packet_experiment(system, math.pi / 2, left_len=150, right_len=150, frames=10)
    lines = (tmp_path / "f.csv").read_text().strip().split("\n")
    assert lines[0] == "t,site,re_psi,im_psi,abs2"
    cells = [line.split(",") for line in lines[1:]]
    expected = [(t_now, site, amp) for t_now, state in zip(traj.times, traj.states)
                for site, amp in enumerate(state)]
    assert len(cells) == len(expected) == 11 * 302
    for row, (t_now, site, amp) in zip(cells, expected):
        assert row[:4] == [f"{t_now:.17g}", str(site), f"{amp.real:.17g}", f"{amp.imag:.17g}"]
        assert abs(float(row[4]) - abs(amp) ** 2) <= 1e-15 * abs(amp) ** 2


def test_evolve_frame_grid_is_the_rk4_grid(tmp_path):
    # the t and site columns are those of an RK4 trajectory at the same dt
    frames = tmp_path / "f.csv"
    assert run([
        "evolve", "--prototype", "undamped", "--gamma", "0.3", "--left-len", "60",
        "--right-len", "60", "--n0", "-30", "--sigma", "5", "--dt", "0.03", "--t-final", "20",
        "--frames", "7", "--out-frames", str(frames), "--out-summary", str(tmp_path / "s.json"),
    ]) == 0
    h = build_chain(prototype_system("undamped", 0.0, 0.3), 60, 60)
    traj = propagate_rk4(h, gaussian_packet(h, -30.0, 5.0, math.pi / 2), 0.03, 20.0, 7)
    expected = [f"{t_now:.17g},{site}" for t_now in traj.times for site in range(h.size)]
    lines = frames.read_text().splitlines()[1:]
    assert [line.rsplit(",", 3)[0] for line in lines] == expected


@pytest.mark.parametrize("summary", ["./x", "ABSOLUTE"])
def test_evolve_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys, summary):
    # the summary would overwrite the frames CSV: refused before propagating
    monkeypatch.chdir(tmp_path)
    summary = str(tmp_path / "x") if summary == "ABSOLUTE" else summary
    assert run(["evolve", "--prototype", "damped", "--gamma", "0.3",
                "--out-frames", "x", "--out-summary", summary]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "--out-frames" in err and "--out-summary" in err
    assert list(tmp_path.iterdir()) == []


def test_evolve_file_center_hermitian_conserves_total(tmp_path):
    center = tmp_path / "center.json"
    rng = np.random.default_rng(14)
    a = random_center(rng, 2)
    center.write_text(json.dumps(matrix_to_json(a + a.conj().T)))
    summary = tmp_path / "summary.json"
    assert run([
        "evolve", "--center-file", str(center), "--k", str(math.pi / 2),
        "--left-len", "150", "--right-len", "150", "--frames", "10",
        "--out-frames", str(tmp_path / "f.csv"), "--out-summary", str(summary),
    ]) == 0
    payload = json.loads(summary.read_text())
    assert abs(payload["R"] + payload["T"] + payload["leak"] - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# classify


def test_classify_undamped(tmp_path):
    out = tmp_path / "classify.json"
    assert run([
        "classify", "--prototype", "undamped", "--gamma", "0.3333333333333333",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 2
    assert payload["predicted_flux_class"] == "energy-difference"
    assert payload["anti_pt"] is True
    # at zero detuning the pure imaginary coupling is itself anti-Hermitian
    assert payload["anti_hermitian"] is True
    assert payload["phase"] == "exact"
    signatures = [b["port_signature"] for b in payload["metric_basis"]]
    assert [1, -1] in signatures
    assert payload["port_metric"]["signature"] == [1, -1]
    witness = payload["port_metric"]["matrix"]
    assert np.abs(np.array(witness["re"]) - np.diag([1.0, -1.0])).max() < 1e-12
    assert np.abs(np.array(witness["im"])).max() < 1e-12


def test_classify_undamped_with_detuning(tmp_path):
    out = tmp_path / "classify.json"
    assert run([
        "classify", "--prototype", "undamped", "--v", "0.2",
        "--gamma", "0.3333333333333333", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 2
    assert payload["predicted_flux_class"] == "energy-difference"
    assert payload["anti_hermitian"] is False
    assert payload["phase"] == "exact"


def test_classify_verdicts_do_not_depend_on_the_scale(tmp_path):
    # --tol is relative to the center's norm: at scale 1e-12 the anti-PT and
    # anti-Hermitian residuals shrink with the center, and the verdicts stay
    center, out = tmp_path / "center.json", tmp_path / "classify.json"
    verdicts = []
    for scale in (1.0, 1e-12):
        center.write_text(json.dumps(matrix_to_json(scale * np.array([[1.0, 2.0], [3.0, 4.0j]]))))
        assert run(["classify", "--center-file", str(center), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        verdicts.append((payload["anti_pt"], payload["anti_hermitian"]))
    assert verdicts == [(False, False)] * 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, gamma", [("undamped", "1e200"), ("undamped", "1e308"),
                                         ("damped", "1e160")])
def test_classify_verdicts_hold_where_the_norm_overflows(tmp_path, kind, gamma):
    # frob(H) overflows past about 1e154 and the metric condition's products
    # near 1e308; the verdicts are those at gamma 1, with finite residuals
    def classify(g):
        out = tmp_path / f"{g}.json"
        assert run(["classify", "--prototype", kind, "--gamma", g, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        basis, witness = payload["metric_basis"], payload["port_metric"]
        assert all(b["residual"] <= 1e-12 * float(g) for b in basis)
        return ([(b["invertible"], b["port_signature"]) for b in basis],
                witness and witness["signature"], payload["anti_pt"], payload["anti_hermitian"],
                payload["predicted_flux_class"])

    assert classify(gamma) == classify("1")


def test_classify_damped(tmp_path):
    out = tmp_path / "classify.json"
    assert run([
        "classify", "--prototype", "damped", "--gamma", "0.3333333333333333",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 1
    assert payload["predicted_flux_class"] == "neither"
    assert payload["port_metric"] is None
    assert payload["anti_pt"] is True
    assert payload["anti_hermitian"] is True
    assert not any(b["invertible"] for b in payload["metric_basis"])
    assert run([
        "classify", "--prototype", "damped", "--v", "0.2",
        "--gamma", "0.3333333333333333", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["predicted_flux_class"] == "neither"


@pytest.mark.parametrize("sign, verdict", [(1, "energy"), (-1, "energy-difference")])
def test_classify_finds_port_metric_outside_the_basis(tmp_path, sign, verdict):
    rng = np.random.default_rng(8)
    center = tmp_path / "center.json"
    center.write_text(json.dumps(matrix_to_json(port_metric_center(rng, 4, sign))))
    out = tmp_path / "classify.json"
    assert run(["classify", "--center-file", str(center), "--ports", "0", "3",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["predicted_flux_class"] == verdict
    assert payload["port_metric"]["signature"] == [1, sign]
    # the witness is a combination of basis elements, none of which meets the condition
    assert all(b["port_signature"] is None for b in payload["metric_basis"])


def test_classify_file_center_with_parity(tmp_path):
    center = tmp_path / "center.json"
    rng = np.random.default_rng(3)
    a = random_center(rng, 2)
    h = a + a.conj().T
    center.write_text(json.dumps(matrix_to_json(h)))
    out = tmp_path / "classify.json"
    assert run(["classify", "--center-file", str(center), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["predicted_flux_class"] == "energy"
    assert payload["phase"] is None


# ---------------------------------------------------------------------------
# verify


def test_verify_emits_report(tmp_path):
    out = tmp_path / "verify.json"
    code = run([
        "verify", "--prototype", "damped", "--gamma", "0.3333333333333333",
        "--k", "1.0", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["law_residual"] < 1e-12
    assert payload["flux_class"] == "neither"
    assert len(payload["diag"]) == 2
    assert len(payload["offdiag"]) == 2
    assert max(abs(re) + abs(im) for re, im in payload["diag"]) < 1e-12


def test_verify_hermitian_center_is_energy_class(tmp_path):
    center = tmp_path / "center.json"
    rng = np.random.default_rng(9)
    a = random_center(rng, 3)
    center.write_text(json.dumps(matrix_to_json(a + a.conj().T)))
    out = tmp_path / "verify.json"
    assert run(["verify", "--center-file", str(center), "--k", "0.8",
                "--ports", "0", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["flux_class"] == "energy"


# ---------------------------------------------------------------------------
# cmt


def test_cmt_sweep_with_signs(tmp_path):
    out = tmp_path / "cmt.csv"
    code = run([
        "cmt", "--prototype", "undamped", "--v", "0.4", "--gamma", "0.3",
        "--kappa", "0.7", "0.4", "--omega-count", "11",
        "--port-signs", "1", "-1", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert len(rows) == 11
    assert max(_col(header, rows, "conservation_residual")) < 1e-12
    assert max(_col(header, rows, "conjugation_residual")) < 1e-12
    _assert_percent_formatted(out)


def test_cmt_single_omega_with_coupling_file(tmp_path):
    d_file = tmp_path / "d.json"
    d = np.zeros((2, 2), dtype=complex)
    d[0, 0] = 0.6
    d[1, 1] = 0.9
    d_file.write_text(json.dumps(matrix_to_json(d)))
    out = tmp_path / "cmt.csv"
    assert run([
        "cmt", "--prototype", "undamped", "--gamma", "0.3",
        "--coupling-file", str(d_file), "--omega-min", "0.25", "--omega-count", "1",
        "--out", str(out),
    ]) == 0
    header, rows = _read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][header.index("omega")]) == 0.25
    assert float(rows[0][header.index("conservation_residual")]) < 1e-12


@pytest.mark.parametrize(
    "argv, column, value, maximum",
    [
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-min", "3.1"], "k", 3.1,
         ["--k-max", "3.12"]),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega-min", "5"], "omega", 5.0, ["--omega-max", "6"]),
    ],
    ids=["sweep", "cmt"],
)
def test_one_point_grid_is_its_minimum(tmp_path, argv, column, value, maximum):
    # the README's one-point recipe: the minimum lies above the default maximum
    # (pi - 0.05 for k, 3 max|H_c| = 0.9 for omega here), which one point never reads
    count = "--k-count" if argv[0] == "sweep" else "--omega-count"
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run([*argv, count, "1", "--out", str(one)]) == 0
    assert run([*argv, *maximum, count, "2", "--out", str(two)]) == 0
    lines = one.read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    assert len(lines) == 2 and float(row[header.index(column)]) == value
    assert lines == two.read_text().splitlines()[:2]


# ---------------------------------------------------------------------------
# campaign


def test_campaign_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    argv = ["campaign", "--trials", "25", "--seed", "1"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    p1 = json.loads(out1.read_text())
    assert p1["passed"] is True
    assert p1["max_law_residual"] < 1e-10
    assert p1["max_transpose_residual"] < 1e-10
    assert p1["max_conjugate_residual"] < 1e-10
    assert p1["max_dagger_residual"] < 1e-10
    # byte identical apart from the output path inside the embedded config
    b1 = out1.read_text().replace(str(out1), "OUT")
    b2 = out2.read_text().replace(str(out2), "OUT")
    assert b1 == b2


def test_campaign_equals_reference_loop(tmp_path, monkeypatch):
    # stacked solves in blocks of 7 against one scattering_matrix call per trial
    # and variant on the same RNG draws: the same floating-point operations on
    # the same values, so the maxima over every prefix of the trials agree exactly
    monkeypatch.setattr(cli, "CAMPAIGN_BLOCK", 7)
    rng = np.random.default_rng(4)
    residuals = []  # per trial: law, transpose, conjugate, dagger
    for _ in range(30):
        n = int(rng.integers(2, 7))
        p = 2 if n < 3 else int(rng.integers(2, 4))
        sites = sorted(int(s) for s in rng.permutation(n)[:p])
        k = float(rng.uniform(0.05, math.pi - 0.05))
        center = random_center(rng, n)
        s, s_bar, s_t, s_c = (scattering_matrix(ScatteringSystem(h, sites), k)
                              for h in (center, center.conj().T, center.T, center.conj()))
        defects = (s_bar.conj().T @ s - np.eye(p), s_t - s.T,
                   s_c - np.linalg.inv(s.conj()), s_bar - np.linalg.inv(s.conj().T))
        residuals.append([float(np.linalg.norm(d, axis=(-2, -1))) for d in defects])
    out = tmp_path / "c.json"
    for trials in range(1, 31):
        assert run(["campaign", "--trials", str(trials), "--seed", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        keys = ("law", "transpose", "conjugate", "dagger")
        actual = [payload[f"max_{key}_residual"] for key in keys]
        assert actual == np.max(residuals[:trials], axis=0).tolist(), trials
        assert payload["solved"] == trials


def test_campaign_stops_on_a_singular_trial(tmp_path, monkeypatch, capsys):
    # a singular trial leaves no report: every written report solved all its trials
    def singular(*args, **kwargs):
        raise ScatteringSingularityError("lead-dressed center is singular at k=1", index=0)

    monkeypatch.setattr(cli, "lead_smatrices", singular)
    out = tmp_path / "campaign.json"
    assert run(["campaign", "--trials", "5", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert not out.exists()


def test_campaign_zero_trials_succeeds(tmp_path):
    out = tmp_path / "c.json"
    assert run(["campaign", "--trials", "0", "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == payload["solved"] == 0
    assert payload["passed"] is True
    assert payload["max_law_residual"] == 0.0


# ---------------------------------------------------------------------------
# config handling and exit codes


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "prototype": "undamped",
        "gamma": 0.3333333333333333,
        "k_count": 4,
        "out": str(tmp_path / "ignored.csv"),
    }))
    out = tmp_path / "actual.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    _, rows = _read_csv(out)
    assert len(rows) == 4


@pytest.mark.parametrize(
    "field, value",
    [
        ("bogus", 1),
        ("k_count", "abc"),
        ("k_count", 2.5),
        ("ports", 5),
        ("convention", "bogus"),
        ("coupling", "x"),
        ("dagger", "yes"),
        ("coupling", math.nan),
    ],
    ids=["unknown", "k_count-text", "k_count-float", "ports-scalar", "convention-choice",
         "coupling-text", "dagger-text", "coupling-nan"],
)
def test_config_unknown_field_rejected(tmp_path, capsys, field, value):
    # a config value goes through the same type, nargs and choices as its flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prototype": "undamped", "gamma": 0.3, field: value}))
    out = tmp_path / "o.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"'{field}'" in err or "--" + field.replace("_", "-") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, reason",
    [(None, "No such file or directory"), ("{not json", "Expecting property name"),
     ("[1, 2]", "expected a JSON object")],
    ids=["missing", "malformed", "array"],
)
def test_unreadable_config_file_is_config_error(tmp_path, capsys, text, reason):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --config {cfg}: ") and err.count("\n") == 1
    assert reason in err
    assert not out.exists()


def test_config_null_means_unset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prototype": "undamped", "gamma": 0.3, "k_min": None}))
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert run(["sweep", "--config", str(cfg), "--k-count", "3", "--out", str(from_file)]) == 0
    assert run(["sweep", "--prototype", "undamped", "--gamma", "0.3", "--k-count", "3",
                "--out", str(from_flags)]) == 0
    assert from_file.read_text() == from_flags.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--prototype", "damped", "--gamma", "0.3", "--dagger", "--k", "1.1",
         "--ports", "1", "0"],
        ["classify", "--prototype", "undamped", "--v", "0.2", "--gamma", "0.3", "--ports", "1", "0",
         "--tol", "1e-8"],
        ["evolve", "--prototype", "damped", "--gamma", "0.3", "--coupling", "1.5", "--left-len",
         "50", "--right-len", "50", "--n0", "-25", "--sigma", "4", "--frames", "5"],
        ["campaign", "--trials", "5", "--seed", "3", "--radius", "0.5"],
        ["verify", "--center-file", "CENTER", "--ports", "0", "2", "--k", "0.8"],
    ],
    ids=["verify", "classify", "evolve", "campaign", "verify-center-file"],
)
def test_config_block_of_an_output_reruns_it(tmp_path, monkeypatch, argv):
    # the embedded config (subcommand, nulls for unset fields) is itself a valid --config;
    # both runs write their default output names, each in its own directory
    center = tmp_path / "center.json"
    center.write_text(json.dumps(matrix_to_json(random_center(np.random.default_rng(2), 3))))
    argv = [str(center) if arg == "CENTER" else arg for arg in argv]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.chdir(first)
    assert run(argv) == 0
    report = "summary.json" if argv[0] == "evolve" else f"{argv[0]}.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads((first / report).read_text())["config"]))
    monkeypatch.chdir(second)
    assert run([argv[0], "--config", str(cfg)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert sorted(path.name for path in second.iterdir()) == names
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def _assert_keys_sorted(value) -> None:
    if isinstance(value, dict):
        assert list(value) == sorted(value)
        value = list(value.values())
    for item in value if isinstance(value, list) else ():
        _assert_keys_sorted(item)


@pytest.mark.parametrize(
    "argv, report",
    [
        (["verify", "--prototype", "damped", "--gamma", "0.3", "--ports", "1", "0"], "verify.json"),
        (["classify", "--prototype", "undamped", "--v", "0.2", "--gamma", "0.3"], "classify.json"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--left-len", "50", "--right-len",
          "50", "--n0", "-25", "--sigma", "4", "--frames", "5"], "summary.json"),
        (["campaign", "--trials", "5", "--seed", "3"], "campaign.json"),
    ],
    ids=["verify", "classify", "evolve", "campaign"],
)
def test_json_report_is_one_sorted_line(tmp_path, monkeypatch, argv, report):
    # the C encoder's compact text: one line, keys sorted at every level
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    text = (tmp_path / report).read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    payload = json.loads(text)
    _assert_keys_sorted(payload)
    assert text == json.dumps(payload, sort_keys=True) + "\n"


# The small input of each subcommand, and one alternative value for each of its
# options but the output paths and --config.  The input files are in the test's
# directory; FILE_CENTER replaces a base's six leading prototype tokens, and
# COUPLING_FILE the --kappa of the cmt base.
_BASE = {
    "sweep": ["--prototype", "damped", "--gamma", "0.3", "--v", "0.2", "--k-count", "3"],
    "evolve": ["--prototype", "damped", "--gamma", "0.3", "--v", "0.2", "--left-len", "50",
               "--right-len", "50", "--n0", "-25", "--sigma", "4", "--frames", "4"],
    "classify": ["--prototype", "undamped", "--gamma", "0.3", "--v", "0.2"],
    "verify": ["--prototype", "damped", "--gamma", "0.3", "--v", "0.2", "--k", "1.1"],
    "cmt": ["--prototype", "undamped", "--gamma", "0.3", "--v", "0.2", "--omega-count", "3",
            "--kappa", "0.7", "0.4"],
    "campaign": ["--trials", "5"],
}
_CENTER_VARIANTS = {
    "--prototype": ["--prototype", "undamped"],
    "--v": ["--v", "0.4"],
    "--gamma": ["--gamma", "0.5"],
    "--center-file": ["FILE_CENTER"],
    "--dagger": ["--dagger"],
    "--ports": ["--ports", "1", "0"],
}
_VARIANTS = {
    "sweep": {**_CENTER_VARIANTS, "--coupling": ["--coupling", "2"],
              "--k-min": ["--k-min", "0.5"], "--k-max": ["--k-max", "2.5"],
              "--k-count": ["--k-count", "4"], "--convention": ["--convention", "raw"]},
    "evolve": {**_CENTER_VARIANTS, "--coupling": ["--coupling", "1.5"], "--k": ["--k", "1.2"],
               "--n0": ["--n0", "-20"], "--sigma": ["--sigma", "5"],
               "--left-len": ["--left-len", "55"], "--right-len": ["--right-len", "55"],
               "--dt": ["--dt", "0.05"], "--t-final": ["--t-final", "30"],
               "--frames": ["--frames", "5"]},
    "classify": {**_CENTER_VARIANTS, "--prototype": ["--prototype", "damped"],
                 "--parity-file": ["--parity-file", "parity.json"], "--tol": ["--tol", "0.9"]},
    "verify": {**_CENTER_VARIANTS, "--coupling": ["--coupling", "1.5"], "--k": ["--k", "1.2"],
               "--tol": ["--tol", "1e-20"]},
    "cmt": {**_CENTER_VARIANTS, "--prototype": ["--prototype", "damped"],
            "--coupling-file": ["COUPLING_FILE"], "--kappa": ["--kappa", "0.5", "0.5"],
            "--omega-min": ["--omega-min", "-0.5"], "--omega-max": ["--omega-max", "0.5"],
            "--omega-count": ["--omega-count", "4"], "--port-signs": ["--port-signs", "1", "-1"]},
    "campaign": {"--trials": ["--trials", "6"], "--seed": ["--seed", "1"],
                 "--radius": ["--radius", "2"], "--tol": ["--tol", "1e-20"]},
}
_NOT_VARIED = {"--help", "--config", "--out", "--out-frames", "--out-summary", "--no-dagger"}


def _variant_argv(command: str, variant: list[str]) -> list[str]:
    base = _BASE[command]
    if variant == ["FILE_CENTER"]:
        return [command, "--center-file", "center.json", *base[6:]]
    if variant == ["COUPLING_FILE"]:
        return [command, *base[:-3], "--coupling-file", "coupling.json"]
    return [command, *base, *variant]


def _run_result(directory: Path, argv: list[str]):
    """Exit code and output files of one run in ``directory``, JSON config blocks removed."""
    directory.mkdir()
    if argv[0] == "evolve":
        outs = ["--out-frames", str(directory / "f"), "--out-summary", str(directory / "s")]
    else:
        outs = ["--out", str(directory / "o")]
    code = run(argv + outs)
    files = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text()
        if text.startswith("{"):
            payload = json.loads(text)
            del payload["config"]
            text = payload
        files[path.name] = text
    return code, files


def test_every_option_changes_the_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    center = random_center(np.random.default_rng(5), 3)
    (tmp_path / "center.json").write_text(json.dumps(matrix_to_json(center)))
    (tmp_path / "parity.json").write_text(json.dumps(matrix_to_json(np.eye(2))))
    (tmp_path / "coupling.json").write_text(json.dumps(matrix_to_json(np.diag([0.6, 0.9]))))
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unchanged = []
    for command, sub in subparsers.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings
                 if flag.startswith("--")}
        assert set(_VARIANTS[command]) == flags - _NOT_VARIED, command
        base = _run_result(tmp_path / command, [command, *_BASE[command]])
        assert base[0] == 0, command
        for flag, variant in _VARIANTS[command].items():
            argv = _variant_argv(command, variant)
            assert flag in argv, (command, flag)
            code, files = _run_result(tmp_path / f"{command}{flag}", argv)
            if code != 2 and (code, files) == base:
                unchanged.append(f"{command} {flag}")
    assert unchanged == []


@pytest.mark.parametrize(
    "argv, names",
    [
        (["classify", "--prototype", "damped", "--gamma", "0.3", "--ports", "0", "5"], "port"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "0.5", "0.5",
          "--ports", "0", "5"], "port"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "-1", "0.5"], "kappa"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--sigma", "-1"], "sigma"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--frames", "0"], "frames"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--dt", "-0.1"], "dt"),
        (["classify", "--center-file", "center.json", "--ports", "0", "7"], "3-site center"),
        (["cmt", "--center-file", "center.json", "--coupling-file", "center.json",
          "--ports", "0", "7"], "--ports"),
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--coupling", "inf"],
         "argument --coupling:"),
        (["evolve", "--center-file", "center.json", "--ports", "0", "1", "2"], "2 ports"),
        (["classify", "--prototype", "damped", "--gamma", "0.3", "--coupling", "-1"],
         "unrecognized arguments: --coupling"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--coupling", "-1",
          "--kappa", "1", "1"], "unrecognized arguments: --coupling"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--coupling-file", "center.json"],
         "mode rows"),
        (["classify", "--prototype", "undamped", "--gamma", "0.3", "--tol", "-1"], "--tol"),
        (["classify", "--prototype", "undamped", "--gamma", "0.3", "--tol", "1"], "metric tol"),
        (["verify", "--prototype", "undamped", "--gamma", "0.3", "--tol", "-1"], "--tol"),
        (["campaign", "--radius", "-1"], "--radius"),
        (["campaign", "--radius", "nan"], "--radius"),
        (["campaign", "--tol", "inf"], "--tol"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega-min", "nan"], "--omega-min"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega-min=-inf"], "--omega-min"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega-max", "inf"], "--omega-max"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--dt", "nan"], "argument --dt:"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--t-final", "inf"],
         "argument --t-final:"),
        (["verify", "--prototype", "damped", "--gamma", "0.3", "--k", "nan"], "argument --k:"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--k", "inf"], "argument --k:"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--n0", "inf"], "argument --n0:"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--sigma", "inf"],
         "argument --sigma:"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--v", "inf"], "argument --v:"),
        (["classify", "--prototype", "damped", "--gamma", "nan"], "argument --gamma:"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "nan", "1"],
         "argument --kappa:"),
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-min", "nan"],
         "argument --k-min:"),
        (["verify", "--prototype", "damped", "--gamma", "0.3", "--convention", "raw"],
         "unrecognized arguments: --convention"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega", "0.5"], "unrecognized arguments: --omega"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--left-len", "60",
          "--right-len", "60", "--n0", "-30", "--sigma", "5", "--frames", "3000"],
         "got dt=0.02, t_final=45.0, frames=3000"),
        (["sweep", "--center-file", "center.json", "--ports", "0", "2", "--gamma", "7"],
         "--v and --gamma"),
        (["sweep", "--center-file", "center.json", "--ports", "0", "2", "--v", "9"],
         "--v and --gamma"),
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-count", "0"], "k_count"),
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-min", "2", "--k-max", "1"],
         "k_min=2.0, k_max=1.0"),
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--ports", "0"], "--ports"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega-count", "0"], "omega_count"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--omega-min", "1", "--omega-max", "0"], "omega_min=1.0, omega_max=0.0"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "1", "1",
          "--port-signs", "2", "1"], "--port-signs"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3"], "coupling source"),
        (["cmt", "--center-file", "center.json", "--kappa", "1", "1",
          "--coupling-file", "center.json"], "coupling source"),
        (["cmt", "--center-file", "center.json", "--coupling-file", "center.json",
          "--port-signs", "1", "-1"], "two-channel"),
        (["cmt", "--center-file", "center.json", "--kappa", "1", "1", "--ports", "0", "1", "2"],
         "two port sites"),
        (["classify", "--center-file", "center.json", "--ports", "0", "1", "2"], "two port sites"),
        (["campaign", "--trials", "-1"], "trials"),
        # the 3x3 center as the parity of a dimer
        (["classify", "--prototype", "damped", "--gamma", "0.3", "--parity-file", "center.json"],
         "parity shape (3, 3) does not match H (2, 2)"),
        # a finite J whose band edge 2J overflows, and omega ranges that overflow
        (["verify", "--prototype", "damped", "--gamma", "0.3", "--coupling", "1e308"],
         "lead coupling must be positive with a finite band edge 2J, got 1e+308"),
        (["sweep", "--prototype", "damped", "--gamma", "0.3", "--coupling", "1e308"],
         "lead coupling must be positive with a finite band edge 2J, got 1e+308"),
        (["evolve", "--prototype", "damped", "--gamma", "0.3", "--coupling", "1e308"],
         "lead coupling must be positive with a finite band edge 2J, got 1e+308"),
        (["cmt", "--prototype", "undamped", "--gamma", "1e308", "--kappa", "0.7", "0.4"],
         "need a finite omega range, got omega_min=-inf, omega_max=inf"),
        (["cmt", "--prototype", "undamped", "--gamma", "1e308", "--kappa", "0.7", "0.4",
          "--omega-count", "1"], "need a finite omega range"),
        (["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "0.7", "0.4",
          "--omega-min=-1e308", "--omega-max", "1e308"],
         "need a finite omega range, got omega_min=-1e+308, omega_max=1e+308"),
    ],
    ids=["classify-ports", "cmt-ports", "cmt-kappa", "evolve-sigma", "evolve-frames", "evolve-dt",
         "classify-ports-empty-metric-space", "cmt-ports-with-coupling-file", "sweep-coupling-inf",
         "evolve-three-ports", "classify-coupling", "cmt-coupling", "cmt-coupling-rows",
         "classify-tol", "classify-tol-one", "verify-tol", "campaign-radius",
         "campaign-radius-nan", "campaign-tol-inf",
         "cmt-omega-nan", "cmt-omega-min-inf", "cmt-omega-max-inf", "evolve-dt-nan",
         "evolve-t-final-inf", "verify-k-nan", "evolve-k-inf", "evolve-n0-inf", "evolve-sigma-inf",
         "evolve-v-inf", "classify-gamma-nan", "cmt-kappa-nan", "sweep-k-min-nan",
         "verify-convention", "cmt-omega",
         "evolve-frames-above-steps", "sweep-file-center-gamma", "sweep-file-center-v",
         "sweep-k-count", "sweep-k-order", "sweep-one-port", "cmt-omega-count", "cmt-omega-order",
         "cmt-port-signs-values", "cmt-no-coupling", "cmt-two-couplings",
         "cmt-port-signs-three-channels", "cmt-kappa-three-ports", "classify-three-ports",
         "campaign-negative-trials", "classify-parity-shape", "verify-coupling-band-edge-inf",
         "sweep-coupling-band-edge-inf", "evolve-coupling-band-edge-inf", "cmt-omega-range-inf",
         "cmt-omega-one-point-inf", "cmt-omega-span-inf"],
)
def test_library_value_error_is_config_error(tmp_path, monkeypatch, capsys, argv, names):
    # a generic 3x3 center: no metric solves it, so only the port check can reject its ports
    monkeypatch.chdir(tmp_path)
    center = random_center(np.random.default_rng(0), 3)
    (tmp_path / "center.json").write_text(json.dumps(matrix_to_json(center)))
    if argv[0] == "evolve":
        outs = ["--out-frames", str(tmp_path / "f.csv"), "--out-summary", str(tmp_path / "s.json")]
    else:
        outs = ["--out", str(tmp_path / "o")]
    assert run(argv + outs) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert names in err
    assert [path.name for path in tmp_path.iterdir()] == ["center.json"]  # no output written


def _readme_commands() -> list[list[str]]:
    """The argv of each ``nhscatter`` line in the README's "Command line" sh block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("nhscatter ")]


def test_readme_covers_every_subcommand():
    assert {argv[0] for argv in _readme_commands()} == set(cli._SUBCOMMANDS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[-1])
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0


def test_readme_library_example_runs():
    # the block asserts its own result
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_exit_code_config_error_on_double_center(tmp_path):
    assert run([
        "sweep", "--prototype", "undamped", "--gamma", "0.3",
        "--center-file", "whatever.json", "--out", str(tmp_path / "o.csv"),
    ]) == 2


def test_exit_code_config_error_on_missing_gamma(tmp_path):
    assert run(["sweep", "--prototype", "undamped", "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("command", ["verify", "sweep", "evolve"])
def test_unwritable_output_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out"
    argv = [command, "--prototype", "damped", "--gamma", "0.3"]
    if command == "evolve":  # the frames file is written before the summary
        argv += ["--left-len", "50", "--right-len", "50", "--n0", "-25", "--sigma", "4",
                 "--out-frames", str(tmp_path / "f.csv"), "--out-summary", str(out)]
    else:
        argv += ["--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []  # a failed run leaves no output file


_RAGGED = ("bad.json", {"n": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]},
           "'re' must be a list of 2 rows")
# JSON strings and booleans are not numbers, though numpy would parse them as ones
_STRING = ("string.json", {"n": 2, "re": [[1.0, "1e3"], [0.0, 1.0]], "im": [[0, 0], [0, 0]]},
           "'re' row 0 has an entry that is not a number")
_BOOL = ("bool.json", {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0, 0], [0, True]]},
         "'im' row 1 has an entry that is not a number")
_FILE_FLAGS = {
    "--coupling-file": ["cmt", "--prototype", "undamped", "--gamma", "0.3"],
    "--parity-file": ["classify", "--prototype", "damped", "--gamma", "0.3"],
    "--center-file": ["verify"],
}


@pytest.mark.parametrize(
    "argv, flag, bad",
    [
        (_FILE_FLAGS["--coupling-file"], "--coupling-file", _RAGGED),
        (_FILE_FLAGS["--parity-file"], "--parity-file", _RAGGED),
        (["verify"], "--center-file", ("list.json", [[1.0]], "matrix JSON must be an object")),
        (["verify"], "--center-file", ("huge.json", {"n": 1, "re": [[10 ** 400]], "im": [[0]]},
                                       "int too large to convert to float")),
        *[(argv, flag, bad) for flag, argv in _FILE_FLAGS.items() for bad in (_STRING, _BOOL)],
    ],
    ids=["cmt-coupling-file", "classify-parity-file", "verify-center-file-list",
         "verify-center-file-huge-int",
         *[f"{argv[0]}{flag}-{kind}" for flag, argv in _FILE_FLAGS.items()
           for kind in ("string", "bool")]],
)
def test_bad_matrix_file_error_names_its_flag(tmp_path, monkeypatch, capsys, argv, flag, bad):
    name, payload, reason = bad
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(payload))
    assert run(argv + [flag, name, "--out", "o"]) == 2
    assert capsys.readouterr().err == f"config error: {flag} {name}: {reason}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dagger", [[], ["--dagger"]], ids=["plain", "dagger"])
@pytest.mark.parametrize("argv", [["sweep"], ["verify"], ["evolve"], ["classify"],
                                  ["cmt", "--kappa", "1", "1"]], ids=lambda argv: argv[0])
def test_non_square_center_file_is_one_config_error(tmp_path, monkeypatch, capsys, argv, dagger):
    # one check ahead of --dagger and of the coupling: a 2x3 center is not square
    monkeypatch.chdir(tmp_path)
    rect = {"rows": 2, "cols": 3, "re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "im": [[0.0] * 3] * 2}
    (tmp_path / "rect.json").write_text(json.dumps(rect))
    assert run(argv + ["--center-file", "rect.json", *dagger]) == 2
    assert capsys.readouterr().err == "config error: center must be square, got shape (2, 3)\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "rect.json"]


def test_consecutive_runs_share_no_state(tmp_path):
    # one process reuses its parser: a --config or --dagger run must not leak into the next
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prototype": "undamped", "gamma": 0.3, "k_count": 3}))
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["sweep", "--prototype", "undamped", "--out", str(tmp_path / "b.csv")]) == 2

    center = ["--prototype", "damped", "--gamma", "0.3", "--k", "1.1"]
    assert run(["verify", *center, "--dagger", "--out", str(tmp_path / "d.json")]) == 0
    same_process = tmp_path / "v.json"
    assert run(["verify", *center, "--out", str(same_process)]) == 0
    fresh_process = tmp_path / "w.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nhscatter", "verify", *center, "--out", str(fresh_process)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(same_process.read_text())["config"]["dagger"] is False
    assert same_process.read_text() == fresh_process.read_text().replace(
        str(fresh_process), str(same_process))


@pytest.mark.parametrize("center", [
    ["--prototype", "undamped", "--gamma", "1.0"],
    # verify solves H and H-dagger as one stack: here the second member is
    # singular, and with --dagger the first
    ["--prototype", "damped", "--gamma", "0.5"],
    ["--prototype", "damped", "--gamma", "0.5", "--dagger"],
], ids=["undamped", "damped", "damped-dagger"])
def test_exit_code_numerical_on_scattering_singularity(center, tmp_path, capsys):
    out = tmp_path / "o.json"
    assert run(["verify", *center, "--k", str(math.pi / 2), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical error: lead-dressed center is singular at k=1.5708\n"
    assert not out.exists()


def test_cmt_exit_code_names_the_singular_omega(tmp_path, capsys):
    # a zero center with zero coupling: omega I is singular at the grid's omega = 0
    center = tmp_path / "zero.json"
    center.write_text(json.dumps(matrix_to_json(np.zeros((2, 2)))))
    out = tmp_path / "o.csv"
    assert run(["cmt", "--center-file", str(center), "--kappa", "0", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical error: dressed resolvent is singular at omega=0\n")
    assert not out.exists()


def test_sweep_exit_code_names_the_singular_k(tmp_path, capsys):
    # undamped dimer at gamma = J: the middle of three grid points is k = pi/2,
    # a lasing point of the center
    out = tmp_path / "o.csv"
    assert run([
        "sweep", "--prototype", "undamped", "--gamma", "1.0",
        "--k-count", "3", "--out", str(out),
    ]) == 3
    assert "k=1.5708" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-count", "1000000000000"],
    ["cmt", "--prototype", "damped", "--gamma", "0.3", "--kappa", "1", "1",
     "--omega-count", "1000000000000"],
])
def test_grid_beyond_the_stack_cap_is_refused_before_allocating(tmp_path, capsys, argv):
    # both exited 1 with a numpy MemoryError traceback from the grid itself
    out = tmp_path / "o.csv"
    assert run([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert "2-site center take 6.4e+13 bytes in each (K, N, N) stack, more than 3.36e+07" in err
    assert not out.exists()
    # the cap in points of a 6-site center, 29 times the benchmark's largest grid
    require_stack_fits(58_254, 6, "k")
    with pytest.raises(WorkLimitError):
        require_stack_fits(58_255, 6, "k")


def test_exit_code_numerical_on_band_edge(tmp_path):
    assert run([
        "verify", "--prototype", "undamped", "--gamma", "0.3",
        "--k", "0.0", "--out", str(tmp_path / "o.json"),
    ]) == 3


@pytest.mark.parametrize("grid", [["--k-min", "0"], ["--k-max", "3.2"],
                                  ["--k-count", "1", "--k-min", "3.2"]],
                         ids=["k-min-zero", "k-max-above-pi", "one-point-above-pi"])
def test_sweep_grid_outside_the_band_is_a_band_edge(tmp_path, capsys, grid):
    # the kernel's band check, as for verify: exit 3 naming the first k outside (0, pi)
    out = tmp_path / "o.csv"
    assert run(["sweep", "--prototype", "damped", "--gamma", "0.3", *grid,
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert "outside the open band (0, pi)" in err
    assert not out.exists()


# Each subcommand with small grids and leads, and the numeric flags that the
# contract test draws from _EXTREMES: the ends of the float range, subnormals
# and signed zeros, where an overflow or an invalid value would show.
_CONTRACT_COMMANDS = {
    "sweep": (["--k-count", "3"], ["--v", "--gamma", "--coupling", "--k-min", "--k-max"]),
    "evolve": (["--left-len", "50", "--right-len", "50", "--n0", "-25", "--sigma", "2",
                "--t-final", "4", "--frames", "2"],
               ["--v", "--gamma", "--coupling", "--k", "--n0", "--sigma", "--dt", "--t-final"]),
    "classify": ([], ["--v", "--gamma", "--tol"]),
    "verify": ([], ["--v", "--gamma", "--coupling", "--k", "--tol"]),
    "cmt": (["--kappa", "0.5", "0.5", "--omega-count", "3"],
            ["--v", "--gamma", "--kappa", "--omega-min", "--omega-max"]),
    "campaign": (["--trials", "8"], ["--radius", "--tol"]),
}
_EXTREMES = ["0", "-0", "5e-324", "1e-310", "1e20", "-1e20", "1e160", "1e-160",
             "1e200", "1e-200", "1e308", "-1e308"]


@st.composite
def _extreme_argv(draw):
    command = draw(st.sampled_from(sorted(_CONTRACT_COMMANDS)))
    base, flags = _CONTRACT_COMMANDS[command]
    argv = [command]
    if command != "campaign":
        argv += ["--prototype", draw(st.sampled_from(["damped", "undamped"])), "--gamma", "0.3"]
    argv += base
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1, max_size=2, unique=True)):
        argv += [flag, *draw(st.lists(st.sampled_from(_EXTREMES), min_size=1 + (flag == "--kappa"),
                                      max_size=1 + (flag == "--kappa")))]
    return argv


def _refuse_constant(constant):
    raise ValueError(f"non-finite JSON value {constant}")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_extreme_argv())
@example(argv=["verify", "--prototype", "damped", "--gamma", "1e308"])
@example(argv=["sweep", "--prototype", "damped", "--gamma", "1e308", "--k-count", "3"])
@example(argv=["campaign", "--radius", "1e308", "--trials", "8"])
@example(argv=["classify", "--prototype", "damped", "--gamma", "3", "--tol", "1e308"])
@example(argv=["cmt", "--prototype", "damped", "--gamma", "1e160", "--kappa", "1e-300", "1",
               "--omega-count", "3"])
@example(argv=["cmt", "--prototype", "damped", "--gamma", "-0", "--omega-count", "3",
               "--kappa", "-0", "1e308"])
@example(argv=["verify", "--prototype", "undamped", "--gamma", "1e-310", "--coupling", "1e-310",
               "--k", "1.5"])
@example(argv=["campaign", "--tol", "1e-20"])
@example(argv=["classify", "--prototype", "damped", "--gamma", "0.3", "--v", "1e308",
               "--tol", "5e-324"])
@example(argv=["cmt", "--prototype", "undamped", "--gamma", "1e-310", "--kappa", "0", "0",
               "--omega-min=-1e200", "--omega-max", "1e200", "--omega-count", "3"])
@example(argv=["sweep", "--prototype", "undamped", "--v", "1e308", "--gamma", "0", "--coupling",
               "8e307", "--k-count", "3"])
@example(argv=["verify", "--prototype", "undamped", "--v", "1e308", "--gamma", "0", "--coupling",
               "8e307", "--k", "3.0"])
@example(argv=["cmt", "--prototype", "undamped", "--v", "1e308", "--gamma", "0", "--kappa", "1", "1",
               "--omega-min=-1.7e308", "--omega-max=-1e308", "--omega-count", "3"])
def test_every_exit_keeps_the_command_line_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _check_contract(argv, Path(tmp))


def _extreme_matrix(draw, rows: int, cols: int) -> dict:
    # a matrix file's payload whose entries are -1, -1/2, 0, 1/2 or 1 times one
    # _EXTREMES magnitude
    scale = float(draw(st.sampled_from(_EXTREMES)))
    entries = st.lists(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=cols,
                                max_size=cols), min_size=rows, max_size=rows)
    shape = {"n": rows} if rows == cols else {"rows": rows, "cols": cols}
    return {**shape, "re": (np.array(draw(entries)) * scale).tolist(),
            "im": (np.array(draw(entries)) * scale).tolist()}


@st.composite
def _extreme_center_file(draw):
    # a 2-4-site center
    n = draw(st.integers(2, 4))
    return _extreme_matrix(draw, n, n)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(command=st.sampled_from(["sweep", "verify", "classify", "cmt"]),
       payload=_extreme_center_file())
@example(command="verify", payload={"n": 2, "re": [[1, 0], [0, 1]], "im": [[math.inf, 0], [0, 0]]})
def test_every_center_file_keeps_the_command_line_contract(command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        center = Path(tmp) / "center.json"
        center.write_text(json.dumps(payload))
        out = Path(tmp) / "out"
        out.mkdir()
        _check_contract([command, "--center-file", str(center), *_CONTRACT_COMMANDS[command][0]], out)


@st.composite
def _extreme_matrix_files(draw):
    # a cmt coupling block of N x P with P from 1 to 3, a classify parity or an
    # evolve center, as a payload in argv; cmt and classify take a prototype or
    # a drawn center of N sites
    command = draw(st.sampled_from(["cmt", "classify", "evolve"]))
    if command == "evolve":
        return ["evolve", "--center-file", draw(_extreme_center_file()), *_CONTRACT_COMMANDS["evolve"][0]]
    center = draw(st.one_of(st.sampled_from(["damped", "undamped"]), _extreme_center_file()))
    argv = [command, *(["--center-file", center] if isinstance(center, dict)
                       else ["--prototype", center, "--gamma", "0.3"])]
    n = center["n"] if isinstance(center, dict) else 2
    if command == "cmt":
        return argv + ["--coupling-file", _extreme_matrix(draw, n, draw(st.integers(1, 3))),
                       "--omega-count", "3"]
    return argv + ["--parity-file", _extreme_matrix(draw, n, n)]


_UNIT_ANTI_PT = {"n": 2, "re": [[-0.99, 0.99], [0.99, 0.99]], "im": [[0, 0], [0, 0]]}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(argv=_extreme_matrix_files())
@example(argv=["cmt", "--prototype", "undamped", "--gamma", "0.3", "--coupling-file",
               {"rows": 2, "cols": 2, "re": [[1e200, 0], [0, 1e200]], "im": [[0, 0], [0, 0]]}])
@example(argv=["classify", "--center-file", _UNIT_ANTI_PT, "--parity-file",
               {"n": 2, "re": [[1e308, 1e308], [1e308, -1e308]], "im": [[0, 0], [0, 0]]}])
def test_every_matrix_file_keeps_the_command_line_contract(argv):
    # each payload in argv is passed as the path of a file that holds it
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp) / f"matrix{i}.json" for i in range(len(argv))]
        for path, arg in zip(files, argv):
            if isinstance(arg, dict):
                path.write_text(json.dumps(arg))
        out = Path(tmp) / "out"
        out.mkdir()
        _check_contract([str(path) if isinstance(arg, dict) else arg for path, arg in zip(files, argv)],
                        out)


# Each kernel scales its operands by one power of two before it combines them,
# so these inputs are solved as at unit scale; each overflowed in E I - H, in
# D D† or in the inverse of a subnormal dressed center when it was not.

_HUGE_HERMITIAN = ["--prototype", "undamped", "--v", "1e308", "--gamma", "0", "--coupling", "8e307"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_of_a_center_near_the_float_limit_conserves_energy(tmp_path):
    # v = 1e308 and a band edge 2J = 1.6e308: a Hermitian center, so |r|^2 + |t|^2 = 1
    out = tmp_path / "s.csv"
    assert run(["sweep", *_HUGE_HERMITIAN, "--k-count", "5", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    values = np.array([[float(cell) for cell in row[:-1]] for row in rows])
    assert np.isfinite(values).all()
    assert max(_col(header, rows, "flux_sum_dev")) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_of_a_center_near_the_float_limit_conserves_energy(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", *_HUGE_HERMITIAN, "--k", "3.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert payload["flux_class"] == "energy"
    assert payload["law_residual"] < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_of_a_subnormal_center_is_not_singular(tmp_path):
    # gamma = J = 1e-310: the undamped dimer's flux law, as at any scale
    out = tmp_path / "v.json"
    assert run(["verify", "--prototype", "undamped", "--gamma", "1e-310", "--coupling", "1e-310",
                "--k", "1.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text(), parse_constant=_refuse_constant)["flux_class"] == "energy-difference"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cmt_with_a_coupling_near_the_float_limit_reflects(tmp_path):
    # D = 1e200 I: D D† = 1e400 I dominates the resolvent, so S = -I to rounding
    coupling = tmp_path / "d.json"
    coupling.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[1e200, 0], [0, 1e200]],
                                    "im": [[0, 0], [0, 0]]}))
    out = tmp_path / "c.csv"
    assert run(["cmt", "--prototype", "undamped", "--gamma", "0.3", "--coupling-file", str(coupling),
                "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert len(rows) == 61
    for name, value in (("re_s00", -1.0), ("re_s11", -1.0), ("re_s01", 0.0), ("im_s00", 0.0)):
        assert np.abs(np.array(_col(header, rows, name)) - value).max() < 1e-12, name


def _check_contract(argv, out: Path):
    # exit 0, 2, 3 or 4 and no numpy RuntimeWarning; exits 2 and 3 print one
    # line and exit 2 writes nothing; every JSON is strict and no CSV holds
    # nan or inf, whatever the flags' values
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if argv[0] == "evolve":
            argv = argv + ["--out-frames", str(out / "f.csv"), "--out-summary", str(out / "s.json")]
        else:
            suffix = "csv" if argv[0] in ("sweep", "cmt") else "json"
            argv = argv + ["--out", str(out / f"o.{suffix}")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv)
        texts = {path.name: path.read_text() for path in out.iterdir()}
    err = err.getvalue()
    assert code in (0, 2, 3, 4), argv
    if code in (2, 3):
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    if code == 2:
        assert texts == {}, argv
    for name, text in texts.items():
        if name.endswith(".json"):
            json.loads(text, parse_constant=_refuse_constant)
        else:
            assert "nan" not in text and "inf" not in text, (argv, name)


def test_cli_entrypoint_via_module(tmp_path):
    out = tmp_path / "verify.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nhscatter", "verify", "--prototype", "undamped",
         "--gamma", "0.3333333333333333", "--k", "1.2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["flux_class"] == "energy-difference"


def test_subcommands_run_without_scipy(tmp_path):
    # with every scipy import refused, all six subcommands still run: scipy
    # serves only the tests' expm oracle
    script = f"""
import sys
sys.modules["scipy"] = None
from nhscatter.cli import run
print([
    run(["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-count", "5",
         "--out", {str(tmp_path / "s.csv")!r}]),
    run(["cmt", "--prototype", "undamped", "--gamma", "0.3", "--kappa", "0.7", "0.4",
         "--omega-count", "5", "--out", {str(tmp_path / "c.csv")!r}]),
    run(["verify", "--prototype", "undamped", "--gamma", "0.3",
         "--out", {str(tmp_path / "v.json")!r}]),
    run(["classify", "--prototype", "damped", "--gamma", "0.3",
         "--out", {str(tmp_path / "k.json")!r}]),
    run(["campaign", "--trials", "3", "--out", {str(tmp_path / "p.json")!r}]),
    run(["evolve", "--prototype", "damped", "--gamma", "0.3", "--left-len", "50",
         "--right-len", "50", "--n0", "-25", "--sigma", "4",
         "--out-frames", {str(tmp_path / "f.csv")!r},
         "--out-summary", {str(tmp_path / "e.json")!r}]),
])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0, 0]\n", proc.stderr


@pytest.mark.parametrize("argv, names", [
    (["--dt", "1e-300"], "t_final / dt = 5.5e+301 steps"),
    (["--dt", "5e-324"], "t_final / dt = inf steps"),
    (["--sigma", "1e-300"], "sigma=1e-300"),
    (["--sigma", "1e-170"], "sigma=1e-170"),
    pytest.param(["--sigma", "nan"], "argument --sigma:", id="argv4-sigma=nan"),
    (["--sigma", "1e-05", "--n0", "-50.5"], "sigma=1e-05 at n0=-50.5"),
    (["--sigma", "1e-160"], "sigma=1e-160 at n0=-50.0 has squared norm 5.6419e+159"),
])
def test_evolve_refuses_a_step_count_or_packet_it_cannot_represent(tmp_path, capsys, argv, names):
    # these crashed with an OverflowError, or wrote NaN into the summary and
    # the frames; the sixth packet is zero on every site, and the last one
    # site of amplitude 7.5e79, which the summary read as amplification
    frames, summary = tmp_path / "f.csv", tmp_path / "e.json"
    assert run(["evolve", "--prototype", "damped", "--gamma", "0.3", *argv,
                "--out-frames", str(frames), "--out-summary", str(summary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert names in err
    assert not frames.exists() and not summary.exists()


@pytest.mark.parametrize("argv", [["--gamma", "1e200"], ["--v", "1e308", "--gamma", "0.3"],
                                  ["--gamma", "0.3", "--dt", "1e-8"]])
def test_evolve_refuses_work_beyond_the_step_cap(tmp_path, argv):
    # the Chebyshev blocks split each frame interval into the substeps that
    # keep e^(eta tau) <= 256 and a tau <= 64: 8.1e202 matvecs at --gamma
    # 1e200 and a count that overflows to inf at --v 1e308; RK4 would take
    # 1.1e8 steps over frame 1: runs that never ended, so each runs in a
    # subprocess whose timeout fails the test
    script = f"""
import time
from nhscatter.cli import run
start = time.perf_counter()
code = run(["evolve", "--prototype", "damped", *{argv!r},
            "--out-frames", {str(tmp_path / "f.csv")!r},
            "--out-summary", {str(tmp_path / "e.json")!r}])
print(code, time.perf_counter() - start)
"""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, timeout=60)
    code, seconds = proc.stdout.split()
    assert code == "3" and float(seconds) < 1.0
    assert proc.stderr.startswith("numerical error: ") and proc.stderr.count("\n") == 1
    assert "RK4 steps, more than 1e+06 in all" in proc.stderr


@pytest.mark.parametrize("argv, names", [
    (["--left-len", "1000000000000000"],
     "50 frames of a 1000000000000302-site chain take 8.16e+17 bytes, more than 6.71e+07"),
    (["--frames", "1000000000000000", "--dt", "1e-14"],
     "1000000000000000 frames of a 602-site chain take 9.63e+18 bytes, more than 6.71e+07"),
    (["--left-len", "50", "--right-len", "50", "--n0", "-25", "--sigma", "4", "--frames", "41527"],
     "41527 frames of a 102-site chain take 6.78e+07 bytes"),
])
def test_evolve_refuses_frames_beyond_the_caps_before_allocating(tmp_path, argv, names):
    # the first two exited 1 with a numpy MemoryError traceback: the packet's
    # lead offsets and the frame schedule asked for 7 PiB; the third is the
    # fewest frames over the cap on the shortest dimer chain
    frames, summary = tmp_path / "f.csv", tmp_path / "e.json"
    script = f"""
import time
from nhscatter.cli import run
start = time.perf_counter()
code = run(["evolve", "--prototype", "damped", "--gamma", "0.3", *{argv!r},
            "--out-frames", {str(frames)!r}, "--out-summary", {str(summary)!r}])
print(code, time.perf_counter() - start)
"""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, timeout=60)
    code, seconds = proc.stdout.split()
    assert code == "3" and float(seconds) < 1.0
    assert proc.stderr.startswith("numerical error: ") and proc.stderr.count("\n") == 1
    assert names in proc.stderr
    assert not frames.exists() and not summary.exists()


def _percent_frames(traj) -> str:
    """The frames CSV of ``traj`` from the % writer of the same columns."""
    n_frames, n_sites = traj.states.shape
    psi = traj.states.ravel()
    columns = [np.repeat(traj.times, n_sites), np.tile(np.arange(n_sites), n_frames),
               psi.real, psi.imag, np.abs(psi) ** 2]
    return percent_csv(["t", "site", "re_psi", "im_psi", "abs2"], columns)


def test_evolve_frames_equal_the_generic_table_writer(tmp_path):
    frames = tmp_path / "f.csv"
    argv = ["--left-len", "60", "--right-len", "70", "--n0", "-30", "--sigma", "5",
            "--t-final", "30", "--frames", "7"]
    assert run(["evolve", "--prototype", "damped", "--gamma", "0.3", "--dagger", *argv,
                "--out-frames", str(frames), "--out-summary", str(tmp_path / "e.json")]) == 0
    traj = packet_experiment(prototype_system("damped", 0.0, 0.3).daggered(), k=math.pi / 2,
                             n0=-30.0, sigma=5.0, left_len=60, right_len=70, t_final=30.0,
                             frames=7)
    assert frames.read_bytes() == _percent_frames(traj).encode()


@pytest.mark.parametrize("center", [["damped"], ["damped", "--dagger"], ["undamped"]])
def test_evolve_frames_at_the_defaults_equal_the_generic_table_writer(tmp_path, center):
    # the bench shape: the lossy, gain and undamped dimers on a 602-site chain,
    # 51 frames written in 19 chunks, with runs of exact zeros across them
    frames = tmp_path / "f.csv"
    assert run(["evolve", "--prototype", *center, "--gamma", "0.3333333333333333",
                "--out-frames", str(frames), "--out-summary", str(tmp_path / "e.json")]) == 0
    system = prototype_system(center[0], 0.0, 1 / 3)
    traj = packet_experiment(system.daggered() if "--dagger" in center else system,
                             k=math.pi / 2)
    assert traj.states.shape == (51, 602)
    assert math.ceil(traj.states.size / (numerics.CSV_CHUNK_CELLS // 5)) == 19
    assert frames.read_bytes() == _percent_frames(traj).encode()


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file size limit")
def test_a_write_that_fails_midway_leaves_no_file(tmp_path):
    # a 64 kB file size limit stops the 1.4 MB sweep CSV partway through
    out = tmp_path / "s.csv"
    script = f"""
import resource, signal
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))
from nhscatter.cli import run
print(run(["sweep", "--prototype", "damped", "--gamma", "0.3", "--k-count", "2000",
           "--out", {str(out)!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout == "2\n", proc.stderr
    assert proc.stderr == f"config error: cannot write {out}: File too large\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_final", [1.49, 1.5])
def test_evolve_ends_within_half_a_step_of_t_final(tmp_path, t_final):
    # steps rounded per frame, 1 or 2 of them, would end these runs at 1.0 and 2.0
    frames, summary = tmp_path / "f.csv", tmp_path / "e.json"
    assert run(["evolve", "--prototype", "damped", "--gamma", "0.3", "--left-len", "60",
                "--right-len", "60", "--n0", "-30", "--sigma", "5",
                "--t-final", repr(t_final), "--frames", "50",
                "--out-frames", str(frames), "--out-summary", str(summary)]) == 0
    written = json.loads(summary.read_text())["t_final"]
    assert abs(written - t_final) <= 0.5 * 0.02 + 1e-12
    assert float(frames.read_text().splitlines()[-1].split(",")[0]) == written


def test_cli_help_exits_zero():
    assert run(["--help"]) == 0
    for command in PARSER_CONTRACT:
        assert run([command, "--help"]) == 0


# Every subcommand's options (flags, dest, nargs, choices) and its fully
# resolved defaults.  The center options and their defaults are shared; the
# lead coupling belongs to the subcommands with leads.
_CENTER_OPTIONS = [
    (["--prototype"], "prototype", None, ["damped", "undamped"]),
    (["--v"], "v", None, None),
    (["--gamma"], "gamma", None, None),
    (["--center-file"], "center_file", None, None),
    (["--dagger", "--no-dagger"], "dagger", 0, None),
    (["--ports"], "ports", "+", None),
]
_CENTER_DEFAULTS = {"prototype": None, "v": 0.0, "gamma": None, "center_file": "c.json",
                    "dagger": False, "ports": None}
_COUPLING = (["--coupling"], "coupling", None, None)
_CONVENTIONS = ["raw", "shifted"]

PARSER_CONTRACT = {
    "sweep": (
        [_COUPLING, (["--k-min"], "k_min", None, None), (["--k-max"], "k_max", None, None),
         (["--k-count"], "k_count", None, None),
         (["--convention"], "convention", None, _CONVENTIONS), (["--out"], "out", None, None)],
        {"coupling": 1.0, "k_min": 0.05, "k_max": 3.0915926535897933, "k_count": 200,
         "convention": "shifted", "out": "sweep.csv"},
    ),
    "evolve": (
        [_COUPLING, (["--k"], "k", None, None), (["--n0"], "n0", None, None),
         (["--sigma"], "sigma", None, None), (["--left-len"], "left_len", None, None),
         (["--right-len"], "right_len", None, None), (["--dt"], "dt", None, None),
         (["--t-final"], "t_final", None, None), (["--frames"], "frames", None, None),
         (["--out-frames"], "out_frames", None, None),
         (["--out-summary"], "out_summary", None, None)],
        {"coupling": 1.0, "k": 1.5707963267948966, "n0": -50.0, "sigma": 10.0, "left_len": 300,
         "right_len": 300, "dt": None, "t_final": None, "frames": 50,
         "out_frames": "frames.csv", "out_summary": "summary.json"},
    ),
    "classify": (
        [(["--parity-file"], "parity_file", None, None), (["--tol"], "tol", None, None),
         (["--out"], "out", None, None)],
        {"parity_file": None, "tol": 1e-9, "out": "classify.json"},
    ),
    "verify": (
        [_COUPLING, (["--k"], "k", None, None), (["--tol"], "tol", None, None),
         (["--out"], "out", None, None)],
        {"coupling": 1.0, "k": 1.5707963267948966, "tol": 1e-9, "out": "verify.json"},
    ),
    "cmt": (
        [(["--coupling-file"], "coupling_file", None, None), (["--kappa"], "kappa", 2, None),
         (["--omega-min"], "omega_min", None, None),
         (["--omega-max"], "omega_max", None, None),
         (["--omega-count"], "omega_count", None, None),
         (["--port-signs"], "port_signs", 2, [-1, 1]), (["--out"], "out", None, None)],
        {"coupling_file": None, "kappa": None, "omega_min": None,
         "omega_max": None, "omega_count": 61, "port_signs": None, "out": "cmt.csv"},
    ),
    "campaign": (
        [(["--trials"], "trials", None, None), (["--seed"], "seed", None, None),
         (["--radius"], "radius", None, None), (["--tol"], "tol", None, None),
         (["--out"], "out", None, None)],
        {"trials": 100, "seed": 0, "radius": 1.0, "tol": 1e-8, "out": "campaign.json"},
    ),
}


def test_parser_contract():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(PARSER_CONTRACT)
    for command, (options, defaults) in PARSER_CONTRACT.items():
        center = command != "campaign"
        expected = ([(["-h", "--help"], "help", 0, None)] + (_CENTER_OPTIONS if center else [])
                    + options + [(["--config"], "config", None, None)])
        actual = [
            (action.option_strings, action.dest, action.nargs,
             None if action.choices is None else list(action.choices))
            for action in subparsers.choices[command]._actions
        ]
        assert actual == expected, command
        argv = [command, "--center-file", "c.json"] if center else [command]
        cfg = json.loads(json.dumps(_resolve(parser.parse_args(argv)), default=str))
        assert cfg == {"subcommand": command, **(_CENTER_DEFAULTS if center else {}), **defaults}
