import argparse
import json
import math
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhscatter import (
    ScatteringSystem,
    build_chain,
    cli,
    gaussian_packet,
    matrix_to_json,
    packet_experiment,
    propagate_rk4,
    prototype_system,
    scattering_matrix,
)
from nhscatter.cli import _resolve, build_parser, run
from nhscatter.dynamics import EDGE_TOL
from nhscatter.errors import WorkLimitError
from nhscatter.smatrix import require_stack_fits
from helpers import percent_csv, port_metric_center, random_center


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
    assert isinstance(payload["taylor_matvecs"], int) and payload["taylor_matvecs"] > 0
    assert payload["config"]["prototype"] == "damped"

    header, rows = _read_csv(frames)
    assert header == ["t", "site", "re_psi", "im_psi", "abs2"]
    total_sites = 150 + 2 + 150
    assert len(rows) == 51 * total_sites


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
        s, s_bar, s_t, s_c = (scattering_matrix(ScatteringSystem(h, sites), k).entries
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
    ],
    ids=["classify-ports", "cmt-ports", "cmt-kappa", "evolve-sigma", "evolve-frames", "evolve-dt",
         "classify-ports-empty-metric-space", "cmt-ports-with-coupling-file", "sweep-coupling-inf",
         "evolve-three-ports", "classify-coupling", "cmt-coupling", "cmt-coupling-rows",
         "classify-tol", "verify-tol", "campaign-radius", "campaign-radius-nan", "campaign-tol-inf",
         "cmt-omega-nan", "cmt-omega-min-inf", "cmt-omega-max-inf", "evolve-dt-nan",
         "evolve-t-final-inf", "verify-k-nan", "evolve-k-inf", "evolve-n0-inf", "evolve-sigma-inf",
         "evolve-v-inf", "classify-gamma-nan", "cmt-kappa-nan", "sweep-k-min-nan",
         "verify-convention", "cmt-omega",
         "evolve-frames-above-steps", "sweep-file-center-gamma", "sweep-file-center-v"],
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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["cmt", "--prototype", "undamped", "--gamma", "0.3"], "--coupling-file"),
        (["classify", "--prototype", "damped", "--gamma", "0.3"], "--parity-file"),
    ],
    ids=["cmt-coupling-file", "classify-parity-file"],
)
def test_bad_matrix_file_error_names_its_flag(tmp_path, capsys, argv, flag):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}))
    assert run(argv + [flag, str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} {bad}: ") and err.count("\n") == 1


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


def test_exit_code_numerical_on_scattering_singularity(tmp_path):
    assert run([
        "verify", "--prototype", "undamped", "--gamma", "1.0",
        "--k", str(math.pi / 2), "--out", str(tmp_path / "o.json"),
    ]) == 3


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
    # ceil(||H||_1 dt / theta) Taylor substeps per frame were 1e200 times the
    # default work, and RK4 would take 1.1e8 steps over frame 1: runs that
    # never ended, so each runs in a subprocess whose timeout fails the test
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


def test_evolve_frames_equal_the_generic_table_writer(tmp_path):
    # the frames against the % writer of the same columns
    frames = tmp_path / "f.csv"
    argv = ["--left-len", "60", "--right-len", "70", "--n0", "-30", "--sigma", "5",
            "--t-final", "30", "--frames", "7"]
    assert run(["evolve", "--prototype", "damped", "--gamma", "0.3", "--dagger", *argv,
                "--out-frames", str(frames), "--out-summary", str(tmp_path / "e.json")]) == 0
    traj = packet_experiment(prototype_system("damped", 0.0, 0.3).daggered(), k=math.pi / 2,
                             n0=-30.0, sigma=5.0, left_len=60, right_len=70, t_final=30.0,
                             frames=7)
    n_frames, n_sites = traj.states.shape
    psi = traj.states.ravel()
    columns = [np.repeat(traj.times, n_sites), np.tile(np.arange(n_sites), n_frames),
               psi.real, psi.imag, np.abs(psi) ** 2]
    reference = percent_csv(["t", "site", "re_psi", "im_psi", "abs2"], columns)
    assert frames.read_bytes() == reference.encode()


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
         (["--port-signs"], "port_signs", 2, None), (["--out"], "out", None, None)],
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
