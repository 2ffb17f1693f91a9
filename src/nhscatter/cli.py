"""Scenario runner: sweeps, packet evolutions, symmetry classification,
conservation checks, coupled-mode scattering, and randomized campaigns.

Every subcommand accepts its parameters as flags and, optionally, a JSON
config file (``--config``); explicit flags override file values.  Outputs
are deterministic for a fixed configuration and seed: CSV numbers read as
``'%.17g' % value`` and JSON files embed the fully resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical error
(singularities, band edges, invalid geometry, a packet run past its step
cap), 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cmt import conjugation_defect, two_port_coupling
from .conservation import conservation_defect, flux_deviations, verify_conservation_law
from .dynamics import (
    DEFAULT_FRAMES,
    DEFAULT_LEAD_LEN,
    DEFAULT_N0,
    DEFAULT_SIGMA,
    EDGE_TOL,
    block_intensities,
    packet_experiment,
)
from .errors import ConfigError, PortConditionError, ScatterError
from .model import (
    DEFAULT_PORTS,
    PROTOTYPE_KINDS,
    ScatteringSystem,
    dagger,
    make_prototype,
    port_indicator,
)
from .numerics import RepeatedColumn, csv_text, frob, invert, matrix_from_json, matrix_to_json
from .smatrix import (
    Convention,
    dressed_smatrix,
    lead_smatrices,
    require_stack_fits,
    scattering_matrix,
)
from .symmetry import is_anti_pt, metric_space, phase_of, port_metric, port_signature

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
# Campaign trials drawn and solved together; bounds memory for any --trials.
CAMPAIGN_BLOCK = 1024


def _write_table(path: Path, header: list[str], columns: list, tail: str = "") -> None:
    """One CSV row per row of the column blocks (see ``csv_text``): every number
    as ``'%.17g' %`` writes it, then the constant text column ``tail`` if given."""
    _write_text(path, itertools.chain([",".join(header) + "\n"], csv_text(columns, tail)))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to ``path``; a write that fails removes the file."""
    try:
        out = path.open("w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with out:
            for chunk in chunks:
                out.write(chunk)
    except OSError as exc:
        path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# configuration resolution

def _path(text: str) -> str:
    """A file flag's value as ``pathlib`` spells it (``./x.csv`` is ``x.csv``)."""
    return str(Path(text))


def _finite(text: str) -> float:
    """A flag's value as a finite float; argparse names the flag in the error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive(text: str) -> float:
    """A flag's value as a finite float above zero: a tolerance or a scale."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


@dataclass(frozen=True)
class _Option:
    """One flag and its config-file field ``dest``; ``type=bool`` makes ``--x``/``--no-x``."""

    flag: str
    default: object = None
    type: Callable[[str], object] | None = None
    nargs: int | str | None = None
    choices: tuple[str, ...] | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


@dataclass(frozen=True)
class _Subcommand:
    help: str
    handler: Callable[[dict], int]
    options: tuple[_Option, ...]


# the scattering center and its port sites
_CENTER_OPTIONS = (
    _Option("--prototype", choices=PROTOTYPE_KINDS, help="built-in dimer center"),
    _Option("--v", 0.0, _finite, help="prototype detuning (units of J)"),
    _Option("--gamma", None, _finite, help="prototype imaginary coupling (units of J)"),
    _Option("--center-file", None, _path, help="matrix JSON file with the center"),
    _Option("--dagger", False, bool, help="use the Hermitian conjugate of the center"),
    _Option("--ports", None, int, nargs="+", help="attachment sites (default 0 1)"),
)
_COUPLING = _Option("--coupling", 1.0, _finite, help="lead hopping J > 0 (default 1)")


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The fields of the JSON file ``args.config`` as flags of ``args.command``.

    Parsed ahead of the real flags, they get the same types, nargs and choices
    and lose to a flag given on the command line; ``null`` leaves a field unset.
    """
    try:
        loaded = json.loads(args.config.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(loaded, dict):
        raise ConfigError("expected a JSON object")
    fields = {opt.dest: opt for opt in _SUBCOMMANDS[args.command].options}
    argv = []
    for key, value in loaded.items():
        # the config block embedded in a JSON output names its subcommand
        if key == "subcommand" and value == args.command:
            continue
        opt = fields.get(key)
        if opt is None:
            raise ConfigError(f"unknown field '{key}'")
        if value is None:
            continue
        if opt.type is bool and isinstance(value, bool):
            argv.append(opt.flag if value else f"--no-{opt.flag[2:]}")
        elif opt.nargs is not None:
            argv += [opt.flag, *map(str, value if isinstance(value, list) else [value])]
        elif opt.type is not bool and not isinstance(value, (list, dict)):
            argv.append(f"{opt.flag}={value}")
        else:
            raise ConfigError(f"field '{key}' has the wrong JSON type")
    return argv


def _resolve(args: argparse.Namespace) -> dict:
    """The run's full configuration, each field as given or else its default."""
    spec = _SUBCOMMANDS[args.command]
    cfg = {"subcommand": args.command}
    for opt in spec.options:
        value = getattr(args, opt.dest)
        cfg[opt.dest] = opt.default if value is None else value
    if "prototype" not in cfg:
        return cfg
    has_proto = cfg["prototype"] is not None
    if has_proto == (cfg["center_file"] is not None):
        raise ConfigError("choose exactly one center source: --prototype or --center-file")
    if has_proto and cfg["gamma"] is None:
        raise ConfigError("--gamma is required with --prototype")
    if not has_proto and (cfg["v"] != 0.0 or cfg["gamma"] is not None):
        raise ConfigError("--v and --gamma set a --prototype center, not a --center-file")
    ports = cfg["ports"]
    if ports is not None and len(ports) < 2:
        raise ConfigError(f"--ports needs at least two distinct sites, got {ports}")
    return cfg


def _load_center_file(path, flag: str) -> np.ndarray:
    """The matrix JSON file ``path`` that the option ``flag`` named."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return matrix_from_json(payload)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"{flag} {path}: {exc}") from exc


def _build_center(cfg: dict) -> np.ndarray:
    if cfg.get("prototype") is not None:
        center = make_prototype(cfg["prototype"], cfg["v"], cfg["gamma"])
    else:
        center = _load_center_file(cfg["center_file"], "--center-file")
    if cfg.get("dagger"):
        center = dagger(center)
    return center


def _build_system(cfg: dict) -> ScatteringSystem:
    return ScatteringSystem(_build_center(cfg), cfg["ports"] or DEFAULT_PORTS, cfg["coupling"])


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
    if cfg["k_count"] < 1:
        raise ConfigError("k_count must be at least 1")
    require_stack_fits(cfg["k_count"], system.center.shape[0], "k")
    ks = np.linspace(cfg["k_min"], cfg["k_max"], cfg["k_count"])
    s, s_bar = (lead_smatrices(center, system.ports, ks, system.coupling, convention)
                for center in (system.center, dagger(system.center)))
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
    params = ("k", "n0", "sigma", "left_len", "right_len", "dt", "t_final", "frames")
    traj = packet_experiment(system, **{name: cfg[name] for name in params})

    n_sites = traj.states.shape[1]
    psi = traj.states.ravel()
    frame, site = np.divmod(np.arange(psi.size), n_sites)
    columns = [RepeatedColumn(traj.times, frame), RepeatedColumn(np.arange(n_sites), site),
               psi.real, psi.imag, np.abs(psi) ** 2]
    frames = Path(cfg["out_frames"])
    _write_table(frames, ["t", "site", "re_psi", "im_psi", "abs2"], columns)

    r, t, leak, edge = block_intensities(traj, frame=-1)
    summary = {
        "R": r,
        "T": t,
        "leak": leak,
        "edge_occupancy": edge,
        "boundary_ok": bool(edge < EDGE_TOL * (r + t)),
        "norm_cap_exceeded": traj.norm_cap_exceeded,
        "initial_norm": traj.initial_norm,
        "rk4_deviation": traj.rk4_deviation,
        "taylor_matvecs": traj.taylor_matvecs,
        "t_final": float(traj.times[-1]),
        "config": cfg,
    }
    try:
        _write_json(Path(cfg["out_summary"]), summary)
    except ConfigError:
        frames.unlink()  # a run that fails leaves no output behind
        raise
    return EXIT_OK


def _cmd_classify(cfg: dict) -> int:
    center = _build_center(cfg)
    ports = tuple(cfg["ports"] or DEFAULT_PORTS)
    port_indicator(center.shape[0], ports)  # the check of the sites against the center
    if len(ports) != 2:
        raise ConfigError("classify needs exactly two port sites")
    tol = cfg["tol"]

    basis = metric_space(center, tol)
    basis_payload = []
    for op in basis:
        try:
            signature = list(port_signature(op, *ports, tol))
        except PortConditionError:
            signature = None
        basis_payload.append({"matrix": matrix_to_json(op.matrix), "invertible": op.invertible,
                              "residual": op.residual, "port_signature": signature})
    witness = port_metric(basis, *ports, tol)
    port_metric_payload, flux_prediction = None, "neither"
    if witness is not None:
        (s_m, s_n), q = witness
        port_metric_payload = {"signature": [s_m, s_n], "matrix": matrix_to_json(q)}
        flux_prediction = "energy" if s_m * s_n == 1 else "energy-difference"

    if cfg.get("parity_file") is not None:
        parity = _load_center_file(cfg["parity_file"], "--parity-file")
        anti_pt = is_anti_pt(center, parity, tol)
    elif center.shape[0] == 2:
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
        "port_metric": port_metric_payload,
        "anti_pt": anti_pt,
        "anti_hermitian": anti_hermitian,
        "predicted_flux_class": flux_prediction,
        "phase": phase,
        "config": cfg,
    }
    _write_json(Path(cfg["out"]), payload)
    return EXIT_OK


def _cmd_verify(cfg: dict) -> int:
    system = _build_system(cfg)
    k = cfg["k"]
    s = scattering_matrix(system, k)
    s_bar = scattering_matrix(system.daggered(), k)
    report = verify_conservation_law(s, s_bar, cfg["tol"])
    payload = {
        "k": k,
        "law_residual": report.law_residual,
        "flux_class": report.flux_class.value if report.flux_class else None,
        "flux_residual": report.flux_residual,
        "diag": [[dev.real, dev.imag] for dev in report.diag_residuals],
        "offdiag": [[dev.real, dev.imag] for dev in report.offdiag_residuals],
        "config": cfg,
    }
    _write_json(Path(cfg["out"]), payload)
    return EXIT_OK if report.law_residual <= cfg["tol"] else EXIT_VERIFICATION


def _load_coupling(cfg: dict, n_modes: int) -> np.ndarray:
    """The N x P mode-to-channel coupling D from ``--coupling-file`` or ``--kappa``."""
    has_file = cfg.get("coupling_file") is not None
    has_kappa = cfg.get("kappa") is not None
    if has_file == has_kappa:
        raise ConfigError("choose exactly one coupling source: --coupling-file or --kappa")
    ports = cfg.get("ports")
    if has_file:
        if ports is not None:
            raise ConfigError("--ports sets the sites of a --kappa coupling, not of --coupling-file")
        return _load_center_file(cfg["coupling_file"], "--coupling-file")
    ports = ports or DEFAULT_PORTS
    if len(ports) != 2:
        raise ConfigError("aligned coupling needs exactly two port sites")
    return two_port_coupling(n_modes, *ports, *cfg["kappa"]).matrix


def _cmd_cmt(cfg: dict) -> int:
    center = _build_center(cfg)
    scale = float(np.abs(center).max()) or 1.0
    lo = cfg["omega_min"] if cfg["omega_min"] is not None else -3.0 * scale
    hi = cfg["omega_max"] if cfg["omega_max"] is not None else 3.0 * scale
    if not lo < hi:
        raise ConfigError("need omega_min < omega_max")
    if cfg["omega_count"] < 1:
        raise ConfigError("omega_count must be at least 1")
    require_stack_fits(cfg["omega_count"], center.shape[0], "omega")
    omegas = np.linspace(lo, hi, cfg["omega_count"])

    signs = cfg.get("port_signs")
    if signs is not None and any(s not in (-1, 1) for s in signs):
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
        columns.append(frob(conjugation_defect(s, s_bar, signs)))
    _write_table(Path(cfg["out"]), header, columns)
    return EXIT_OK


def _cmd_campaign(cfg: dict) -> int:
    trials = cfg["trials"]
    if trials < 0:
        raise ConfigError("trials must be non-negative")
    rng = np.random.default_rng(cfg["seed"])
    maxima = {"law": 0.0, "transpose": 0.0, "conjugate": 0.0, "dagger": 0.0}
    solved = 0  # trials whose four residuals entered the maxima
    for start in range(0, trials, CAMPAIGN_BLOCK):
        groups = defaultdict(list)  # (n, p) -> the block's trials of that shape, in draw order
        for _ in range(min(CAMPAIGN_BLOCK, trials - start)):
            n = int(rng.integers(2, 7))
            p = 2 if n < 3 else int(rng.integers(2, 4))
            sites = sorted(rng.permutation(n)[:p])
            k = float(rng.uniform(0.05, math.pi - 0.05))
            # a random center: entries uniform in the complex disc of the radius
            mag = cfg["radius"] * np.sqrt(rng.random((n, n)))
            groups[n, p].append((sites, k, mag * np.exp(1j * (2.0 * math.pi * rng.random((n, n))))))
        for group in groups.values():
            sites, ks, h = map(np.array, zip(*group))
            h_t = np.swapaxes(h, -1, -2)
            s, s_bar, s_t, s_c = (lead_smatrices(c, sites, ks) for c in (h, h_t.conj(), h_t, h.conj()))
            s_tr = np.swapaxes(s, -1, -2)  # S(H)^T
            defects = {"law": conservation_defect(s, s_bar), "transpose": s_t - s_tr,
                       "conjugate": s_c - invert(s.conj()), "dagger": s_bar - invert(s_tr.conj())}
            residuals = np.stack([frob(defect) for defect in defects.values()])  # (4, trials)
            for key, worst in zip(defects, residuals.max(axis=1)):
                maxima[key] = max(maxima[key], float(worst))
            solved += residuals.shape[1]

    tol = cfg["tol"]
    worst = max(maxima.values()) if trials else 0.0
    payload = {
        "trials": trials,
        "max_law_residual": maxima["law"],
        "max_transpose_residual": maxima["transpose"],
        "max_conjugate_residual": maxima["conjugate"],
        "max_dagger_residual": maxima["dagger"],
        "solved": solved,
        "tolerance": tol,
        "passed": bool(worst <= tol and solved == trials),
        "config": cfg,
    }
    _write_json(Path(cfg["out"]), payload)
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument parsing


_SUBCOMMANDS = {
    "sweep": _Subcommand("scattering coefficients over a momentum grid", _cmd_sweep, (
        *_CENTER_OPTIONS,
        _COUPLING,
        _Option("--k-min", 0.05, _finite),
        _Option("--k-max", math.pi - 0.05, _finite),
        _Option("--k-count", 200, int),
        _Option("--convention", "shifted", choices=tuple(c.value for c in Convention)),
        _Option("--out", "sweep.csv", _path),
    )),
    "evolve": _Subcommand("Gaussian packet time evolution", _cmd_evolve, (
        *_CENTER_OPTIONS,
        _COUPLING,
        _Option("--k", math.pi / 2.0, _finite),
        _Option("--n0", DEFAULT_N0, _finite, help="packet center, sites left of the center block"),
        _Option("--sigma", DEFAULT_SIGMA, _finite),
        _Option("--left-len", DEFAULT_LEAD_LEN, int),
        _Option("--right-len", DEFAULT_LEAD_LEN, int),
        _Option("--dt", None, _finite),
        _Option("--t-final", None, _finite),
        _Option("--frames", DEFAULT_FRAMES, int),
        _Option("--out-frames", "frames.csv", _path),
        _Option("--out-summary", "summary.json", _path),
    )),
    "classify": _Subcommand("metric space and symmetry verdicts", _cmd_classify, (
        *_CENTER_OPTIONS,
        _Option("--parity-file", None, _path),
        _Option("--tol", 1e-9, _positive),
        _Option("--out", "classify.json", _path),
    )),
    "verify": _Subcommand("conservation law at one momentum", _cmd_verify, (
        *_CENTER_OPTIONS,
        _COUPLING,
        _Option("--k", math.pi / 2.0, _finite),
        _Option("--tol", 1e-9, _positive),
        _Option("--out", "verify.json", _path),
    )),
    "cmt": _Subcommand("coupled-mode scattering over frequency", _cmd_cmt, (
        *_CENTER_OPTIONS,
        _Option("--coupling-file", None, _path),
        _Option("--kappa", None, _finite, nargs=2, help="aligned decay rates for both channels"),
        _Option("--omega-min", None, _finite),
        _Option("--omega-max", None, _finite),
        _Option("--omega-count", 61, int),
        _Option("--port-signs", None, int, nargs=2),
        _Option("--out", "cmt.csv", _path),
    )),
    "campaign": _Subcommand("randomized conservation verification", _cmd_campaign, (
        _Option("--trials", 100, int),
        _Option("--seed", 0, int),
        _Option("--radius", 1.0, _positive),
        _Option("--tol", 1e-8, _positive),
        _Option("--out", "campaign.json", _path),
    )),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag on one line as a :class:`ConfigError` instead of exiting."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache  # parsing leaves no state on the parser, so one per process serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nhscatter",
        description="Scattering through non-Hermitian tight-binding centers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        # no abbreviations: a flag that a subcommand lacks is refused, not taken for a longer one
        sub = subparsers.add_parser(name, help=spec.help, allow_abbrev=False)
        options = sub._optionals  # as sub.add_argument, minus a per-flag help-format check
        for opt in spec.options:
            kind = ({"action": argparse.BooleanOptionalAction} if opt.type is bool
                    else {"type": opt.type, "nargs": opt.nargs, "choices": opt.choices})
            options.add_argument(opt.flag, dest=opt.dest, help=opt.help, **kind)
        options.add_argument("--config", type=Path, help="JSON config; flags override its fields")
        sub.set_defaults(handler=spec.handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            try:
                args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
            except ConfigError as exc:
                raise ConfigError(f"--config {args.config}: {exc}") from exc
        return args.handler(_resolve(args))
    except SystemExit as exc:  # --help, --version
        return int(exc.code) if exc.code else EXIT_OK
    except (ConfigError, ValueError) as exc:
        # a ValueError here comes from a library check on a user-supplied value
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScatterError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
