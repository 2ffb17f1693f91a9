"""Scenario runner: sweeps, packet evolutions, symmetry classification,
conservation checks, coupled-mode scattering, and randomized campaigns.

Every subcommand accepts its parameters as flags and, optionally, a JSON
config file (``--config``); explicit flags override file values.  Outputs
are deterministic for a fixed configuration and seed: CSV numbers carry 17
significant digits and JSON files embed the fully resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical error
(singularities, band edges, invalid geometry), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cmt import two_port_coupling
from .conservation import conservation_defect, flux_deviations, verify_conservation_law
from .dynamics import (
    DEFAULT_FRAMES,
    DEFAULT_LEAD_LEN,
    block_intensities,
    packet_experiment,
)
from .errors import ConfigError, PortConditionError, ScatterError
from .model import (
    LEFT,
    PROTOTYPE_KINDS,
    RIGHT,
    Port,
    ScatteringSystem,
    dagger,
    make_prototype,
)
from .numerics import frob, invert, matrix_from_json, matrix_to_json
from .smatrix import Convention, dressed_smatrix, lead_smatrices, scattering_matrix
from .symmetry import metric_space, is_anti_pt, phase_of, port_signature

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_table(path: Path, header: list[str], columns: list, tail: str = "") -> None:
    """One CSV row per grid point: every number to 17 significant digits,
    then the constant text column ``tail`` if given."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1] + ([tail] if tail else []))
    lines = [",".join(header)] + [row % tuple(values) for values in table.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _jsonable(cfg: dict) -> dict:
    out = {}
    for key, value in cfg.items():
        if isinstance(value, Path):
            out[key] = str(value)
        elif isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = value.item()
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# configuration resolution

_CENTER_DEFAULTS = {
    "prototype": None,
    "v": 0.0,
    "gamma": None,
    "center_file": None,
    "dagger": False,
    "coupling": 1.0,
    "ports": None,
}

_DEFAULTS: dict[str, dict] = {
    "sweep": {
        **_CENTER_DEFAULTS,
        "k_min": 0.05,
        "k_max": math.pi - 0.05,
        "k_count": 200,
        "convention": "shifted",
        "out": "sweep.csv",
    },
    "evolve": {
        **_CENTER_DEFAULTS,
        "k": math.pi / 2.0,
        "n0": -50.0,
        "sigma": 10.0,
        "left_len": DEFAULT_LEAD_LEN,
        "right_len": DEFAULT_LEAD_LEN,
        "dt": None,
        "t_final": None,
        "frames": DEFAULT_FRAMES,
        "out_frames": "frames.csv",
        "out_summary": "summary.json",
    },
    "classify": {
        **_CENTER_DEFAULTS,
        "parity_file": None,
        "tol": 1e-9,
        "out": "classify.json",
    },
    "verify": {
        **_CENTER_DEFAULTS,
        "k": math.pi / 2.0,
        "convention": "shifted",
        "tol": 1e-9,
        "out": "verify.json",
    },
    "cmt": {
        **_CENTER_DEFAULTS,
        "coupling_file": None,
        "kappa": None,
        "omega": None,
        "omega_min": None,
        "omega_max": None,
        "omega_count": 61,
        "port_signs": None,
        "out": "cmt.csv",
    },
    "campaign": {
        "trials": 100,
        "seed": 0,
        "radius": 1.0,
        "tol": 1e-8,
        "out": "campaign.json",
    },
}


def _resolve(args: argparse.Namespace) -> dict:
    cmd = args.command
    cfg = dict(_DEFAULTS[cmd])
    cfg["subcommand"] = cmd
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"--config {config_path}: expected a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"--config {config_path}: unknown field '{key}'")
            cfg[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config", "handler") or value is None:
            continue
        cfg[key] = value
    if cmd != "campaign":
        _validate_center_config(cfg)
    return cfg


def _validate_center_config(cfg: dict) -> None:
    has_proto = cfg.get("prototype") is not None
    has_file = cfg.get("center_file") is not None
    if has_proto == has_file:
        raise ConfigError("choose exactly one center source: --prototype or --center-file")
    if has_proto:
        if cfg["prototype"] not in PROTOTYPE_KINDS:
            raise ConfigError(f"--prototype must be one of {PROTOTYPE_KINDS}")
        if cfg.get("gamma") is None:
            raise ConfigError("--gamma is required with --prototype")
    ports = cfg.get("ports")
    if ports is not None:
        if len(ports) < 2 or len(set(ports)) != len(ports):
            raise ConfigError(f"--ports needs at least two distinct sites, got {ports}")


def _load_center_file(path) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return matrix_from_json(payload)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"--center-file {path}: {exc}") from exc


def _build_center(cfg: dict) -> np.ndarray:
    if cfg.get("prototype") is not None:
        center = make_prototype(cfg["prototype"], cfg["v"], cfg["gamma"])
    else:
        center = _load_center_file(cfg["center_file"])
    if cfg.get("dagger"):
        center = dagger(center)
    return center


def _build_system(cfg: dict) -> ScatteringSystem:
    center = _build_center(cfg)
    ports = cfg.get("ports")
    if ports is None:
        ports = (0, 1)
    if len(ports) == 2:
        port_objs = (Port(ports[0], LEFT), Port(ports[1], RIGHT))
    else:
        port_objs = tuple(Port(site, f"port{i}") for i, site in enumerate(ports))
    try:
        return ScatteringSystem(center, port_objs, cfg["coupling"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _smatrix_columns(s: np.ndarray, prefix: str) -> tuple[list[str], list[np.ndarray]]:
    """Names and column blocks of re, im and |.|^2 of every entry of a (K, P, P) stack."""
    p = s.shape[-1]
    flat = s.reshape(len(s), p * p)
    pairs = [f"{prefix}{i}{j}" for i in range(p) for j in range(p)]
    names = [f"{part}_{pair}" for part in ("re", "im", "abs2") for pair in pairs]
    return names, [flat.real, flat.imag, np.abs(flat) ** 2]


def _cmd_sweep(cfg: dict) -> int:
    system = _build_system(cfg)
    convention = Convention(cfg["convention"])
    if not 0.0 < cfg["k_min"] < cfg["k_max"] < math.pi:
        raise ConfigError("need 0 < k_min < k_max < pi")
    if int(cfg["k_count"]) < 1:
        raise ConfigError("k_count must be at least 1")
    ks = np.linspace(cfg["k_min"], cfg["k_max"], int(cfg["k_count"]))
    s = lead_smatrices(system, ks, convention)
    s_bar = lead_smatrices(system.daggered(), ks, convention)
    defect = conservation_defect(s, s_bar)
    p = system.n_ports

    names_s, cols_s = _smatrix_columns(s, "s")
    names_b, cols_b = _smatrix_columns(s_bar, "sbar")
    header = ["k", "E", *names_s, *names_b, "law_residual"]
    columns = [ks, -2.0 * system.coupling * np.cos(ks), *cols_s, *cols_b, frob(defect)]
    for i in range(p):
        header += [f"cons_diag_re_{i}", f"cons_diag_im_{i}"]
        columns += [defect[:, i, i].real, defect[:, i, i].imag]
    off_diagonal = ~np.eye(p, dtype=bool)
    header += [f"cons_off_abs_{i}{j}" for i in range(p) for j in range(p) if i != j]
    columns.append(np.abs(defect[:, off_diagonal]))
    if p == 2:
        header += ["flux_sum_dev", "flux_diff_dev"]
        columns += flux_deviations(s)
    header.append("convention")
    _write_table(Path(cfg["out"]), header, columns, tail=convention.value)
    return EXIT_OK


def _cmd_evolve(cfg: dict) -> int:
    system = _build_system(cfg)
    if system.n_ports != 2:
        raise ConfigError("evolve needs a two-port system")
    traj = packet_experiment(
        system,
        k=cfg["k"],
        n0=cfg["n0"],
        sigma=cfg["sigma"],
        left_len=int(cfg["left_len"]),
        right_len=int(cfg["right_len"]),
        dt=cfg["dt"],
        t_final=cfg["t_final"],
        frames=int(cfg["frames"]),
    )

    rows = []
    for frame, t_now in enumerate(traj.times):
        state = traj.states[frame]
        for site in range(state.size):
            amp = state[site]
            rows.append([float(t_now), site, amp.real, amp.imag, abs(amp) ** 2])
    _write_csv(Path(cfg["out_frames"]), ["t", "site", "re_psi", "im_psi", "abs2"], rows)

    r, t, leak, edge = block_intensities(traj, frame=-1)
    summary = {
        "R": r,
        "T": t,
        "leak": leak,
        "edge_occupancy": edge,
        "boundary_ok": bool(edge < 1e-6 * (r + t)),
        "norm_cap_exceeded": traj.norm_cap_exceeded,
        "initial_norm": traj.initial_norm,
        "t_final": float(traj.times[-1]),
        "config": _jsonable(cfg),
    }
    _write_json(Path(cfg["out_summary"]), summary)
    return EXIT_OK


def _cmd_classify(cfg: dict) -> int:
    center = _build_center(cfg)
    n = center.shape[0]
    ports = cfg.get("ports") or (0, 1)
    if len(ports) != 2:
        raise ConfigError("classify needs exactly two port sites")
    m, site_n = int(ports[0]), int(ports[1])
    tol = float(cfg["tol"])

    basis = metric_space(center, tol)
    basis_payload = []
    flux_prediction = "neither"
    for op in basis:
        try:
            signature = list(port_signature(op, m, site_n, tol))
        except PortConditionError:
            signature = None
        if signature is not None and op.invertible and flux_prediction == "neither":
            flux_prediction = "energy" if signature[0] * signature[1] == 1 else "energy-difference"
        basis_payload.append(
            {
                "matrix": matrix_to_json(op.matrix),
                "invertible": op.invertible,
                "residual": op.residual,
                "port_signature": signature,
            }
        )

    if cfg.get("parity_file") is not None:
        parity = _load_center_file(cfg["parity_file"])
        anti_pt = is_anti_pt(center, parity, tol)
    elif n == 2:
        anti_pt = is_anti_pt(center, _SIGMA_X, tol)
    else:
        anti_pt = None

    phase = None
    if cfg.get("prototype") is not None and cfg["v"] >= 0.0 and cfg["gamma"] >= 0.0:
        phase = phase_of(cfg["v"], cfg["gamma"]).value

    anti_hermitian = bool(frob(center.conj().T + center) < tol * max(1.0, frob(center)))
    payload = {
        "dimension": len(basis),
        "metric_basis": basis_payload,
        "anti_pt": anti_pt,
        "anti_hermitian": anti_hermitian,
        "predicted_flux_class": flux_prediction,
        "phase": phase,
        "config": _jsonable(cfg),
    }
    _write_json(Path(cfg["out"]), payload)
    return EXIT_OK


def _cmd_verify(cfg: dict) -> int:
    system = _build_system(cfg)
    convention = Convention(cfg["convention"])
    k = float(cfg["k"])
    s = scattering_matrix(system, k, convention)
    s_bar = scattering_matrix(system.daggered(), k, convention)
    report = verify_conservation_law(s, s_bar, float(cfg["tol"]))
    payload = {
        "k": k,
        "law_residual": report.law_residual,
        "flux_class": report.flux_class.value if report.flux_class else None,
        "flux_residual": report.flux_residual,
        "diag": [[dev.real, dev.imag] for dev in report.diag_residuals],
        "offdiag": [[dev.real, dev.imag] for dev in report.offdiag_residuals],
        "config": _jsonable(cfg),
    }
    _write_json(Path(cfg["out"]), payload)
    return EXIT_OK if report.law_residual <= float(cfg["tol"]) else EXIT_VERIFICATION


def _load_coupling(cfg: dict, n_modes: int) -> np.ndarray:
    """The N x P mode-to-channel coupling D from ``--coupling-file`` or ``--kappa``."""
    has_file = cfg.get("coupling_file") is not None
    has_kappa = cfg.get("kappa") is not None
    if has_file == has_kappa:
        raise ConfigError("choose exactly one coupling source: --coupling-file or --kappa")
    if has_file:
        d = _load_center_file(cfg["coupling_file"])
        if d.shape[0] != n_modes:
            raise ConfigError(
                f"coupling rows {d.shape[0]} do not match the {n_modes}-mode center"
            )
        return d
    kappa = cfg["kappa"]
    if len(kappa) != 2:
        raise ConfigError("--kappa needs exactly two rates")
    ports = cfg.get("ports") or (0, 1)
    if len(ports) != 2:
        raise ConfigError("aligned coupling needs exactly two port sites")
    return two_port_coupling(n_modes, int(ports[0]), int(ports[1]), kappa[0], kappa[1]).matrix


def _cmd_cmt(cfg: dict) -> int:
    center = _build_center(cfg)
    if cfg.get("omega") is not None:
        omegas = np.array([float(cfg["omega"])])
    else:
        scale = float(np.abs(center).max()) or 1.0
        lo = cfg["omega_min"] if cfg.get("omega_min") is not None else -3.0 * scale
        hi = cfg["omega_max"] if cfg.get("omega_max") is not None else 3.0 * scale
        if not lo < hi:
            raise ConfigError("need omega_min < omega_max")
        if int(cfg["omega_count"]) < 1:
            raise ConfigError("omega_count must be at least 1")
        omegas = np.linspace(lo, hi, int(cfg["omega_count"]))

    signs = cfg.get("port_signs")
    if signs is not None and (len(signs) != 2 or any(s not in (-1, 1) for s in signs)):
        raise ConfigError(f"--port-signs must be two values of +/-1, got {signs}")
    d = _load_coupling(cfg, center.shape[0])
    if signs is not None and d.shape[1] != 2:
        raise ConfigError("--port-signs applies to two-channel couplings")

    s = dressed_smatrix(center, d, omegas)
    s_bar = dressed_smatrix(dagger(center), d, omegas)
    names_s, cols_s = _smatrix_columns(s, "s")
    header = ["omega", *names_s, "conservation_residual"]
    columns = [omegas, *cols_s, frob(conservation_defect(s, s_bar))]
    if signs is not None:
        header.append("conjugation_residual")
        columns.append(frob(s_bar - np.outer(signs, signs) * s))
    _write_table(Path(cfg["out"]), header, columns)
    return EXIT_OK


def _random_center(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    mag = radius * np.sqrt(rng.random((n, n)))
    ang = 2.0 * math.pi * rng.random((n, n))
    return mag * np.exp(1j * ang)


def _cmd_campaign(cfg: dict) -> int:
    trials = int(cfg["trials"])
    if trials < 0:
        raise ConfigError("trials must be non-negative")
    rng = np.random.default_rng(int(cfg["seed"]))
    radius = float(cfg["radius"])
    maxima = {"law": 0.0, "transpose": 0.0, "conjugate": 0.0, "dagger": 0.0}

    for _ in range(trials):
        n = int(rng.integers(2, 7))
        p = 2 if n < 3 else int(rng.integers(2, 4))
        sites = [int(s) for s in sorted(rng.permutation(n)[:p])]
        k = float(rng.uniform(0.05, math.pi - 0.05))
        center = _random_center(rng, n, radius)
        if p == 2:
            ports = (Port(sites[0], LEFT), Port(sites[1], RIGHT))
        else:
            ports = tuple(Port(site, f"port{i}") for i, site in enumerate(sites))

        def smat(mat: np.ndarray) -> np.ndarray:
            return scattering_matrix(ScatteringSystem(mat, ports, 1.0), k).entries

        s = smat(center)
        s_bar = smat(center.conj().T)
        s_t = smat(center.T)
        s_c = smat(center.conj())
        eye = np.eye(p)
        maxima["law"] = max(maxima["law"], frob(s_bar.conj().T @ s - eye))
        maxima["transpose"] = max(maxima["transpose"], frob(s_t - s.T))
        maxima["conjugate"] = max(maxima["conjugate"], frob(s_c - invert(s.conj())))
        maxima["dagger"] = max(maxima["dagger"], frob(s_bar - invert(s.conj().T)))

    tol = float(cfg["tol"])
    worst = max(maxima.values()) if trials else 0.0
    payload = {
        "trials": trials,
        "max_law_residual": maxima["law"],
        "max_transpose_residual": maxima["transpose"],
        "max_conjugate_residual": maxima["conjugate"],
        "max_dagger_residual": maxima["dagger"],
        "tolerance": tol,
        "passed": bool(worst <= tol),
        "config": _jsonable(cfg),
    }
    _write_json(Path(cfg["out"]), payload)
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument parsing


def _add_center_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("scattering center")
    group.add_argument("--prototype", choices=PROTOTYPE_KINDS, help="built-in dimer center")
    group.add_argument("--v", type=float, help="prototype detuning (units of J)")
    group.add_argument("--gamma", type=float, help="prototype imaginary coupling (units of J)")
    group.add_argument("--center-file", type=Path, help="matrix JSON file with the center")
    group.add_argument(
        "--dagger",
        action=argparse.BooleanOptionalAction,
        help="use the Hermitian conjugate of the center",
    )
    group.add_argument("--coupling", type=float, help="lead hopping J > 0 (default 1)")
    group.add_argument("--ports", type=int, nargs="+", help="attachment sites (default 0 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhscatter",
        description="Scattering through non-Hermitian tight-binding centers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser("sweep", help="scattering coefficients over a momentum grid")
    _add_center_arguments(sweep)
    sweep.add_argument("--k-min", dest="k_min", type=float)
    sweep.add_argument("--k-max", dest="k_max", type=float)
    sweep.add_argument("--k-count", dest="k_count", type=int)
    sweep.add_argument("--convention", choices=[c.value for c in Convention])
    sweep.add_argument("--out", type=Path)
    sweep.set_defaults(handler=_cmd_sweep)

    evolve = subparsers.add_parser("evolve", help="Gaussian packet time evolution")
    _add_center_arguments(evolve)
    evolve.add_argument("--k", type=float)
    evolve.add_argument("--n0", type=float, help="packet center, sites left of the center block")
    evolve.add_argument("--sigma", type=float)
    evolve.add_argument("--left-len", dest="left_len", type=int)
    evolve.add_argument("--right-len", dest="right_len", type=int)
    evolve.add_argument("--dt", type=float)
    evolve.add_argument("--t-final", dest="t_final", type=float)
    evolve.add_argument("--frames", type=int)
    evolve.add_argument("--out-frames", dest="out_frames", type=Path)
    evolve.add_argument("--out-summary", dest="out_summary", type=Path)
    evolve.set_defaults(handler=_cmd_evolve)

    classify = subparsers.add_parser("classify", help="metric space and symmetry verdicts")
    _add_center_arguments(classify)
    classify.add_argument("--parity-file", dest="parity_file", type=Path)
    classify.add_argument("--tol", type=float)
    classify.add_argument("--out", type=Path)
    classify.set_defaults(handler=_cmd_classify)

    verify = subparsers.add_parser("verify", help="conservation law at one momentum")
    _add_center_arguments(verify)
    verify.add_argument("--k", type=float)
    verify.add_argument("--convention", choices=[c.value for c in Convention])
    verify.add_argument("--tol", type=float)
    verify.add_argument("--out", type=Path)
    verify.set_defaults(handler=_cmd_verify)

    cmt = subparsers.add_parser("cmt", help="coupled-mode scattering over frequency")
    _add_center_arguments(cmt)
    cmt.add_argument("--coupling-file", dest="coupling_file", type=Path)
    cmt.add_argument("--kappa", type=float, nargs=2, help="aligned decay rates for both channels")
    cmt.add_argument("--omega", type=float)
    cmt.add_argument("--omega-min", dest="omega_min", type=float)
    cmt.add_argument("--omega-max", dest="omega_max", type=float)
    cmt.add_argument("--omega-count", dest="omega_count", type=int)
    cmt.add_argument("--port-signs", dest="port_signs", type=int, nargs=2)
    cmt.add_argument("--out", type=Path)
    cmt.set_defaults(handler=_cmd_cmt)

    campaign = subparsers.add_parser("campaign", help="randomized conservation verification")
    campaign.add_argument("--trials", type=int)
    campaign.add_argument("--seed", type=int)
    campaign.add_argument("--radius", type=float)
    campaign.add_argument("--tol", type=float)
    campaign.add_argument("--out", type=Path)
    campaign.set_defaults(handler=_cmd_campaign)

    for sub in (sweep, evolve, classify, verify, cmt, campaign):
        sub.add_argument("--config", type=Path, help="JSON config; flags override its fields")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _resolve(args)
        return args.handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScatterError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
