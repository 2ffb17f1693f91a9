"""Seeded benchmark workloads: fixed lists of ``nhscatter`` CLI invocations.

``build(name, seed, workdir)`` writes the input files a workload needs into
``workdir`` and returns its ops.  Paths in an op's argv are relative to
``workdir``; ops run with it as the current directory, so the outputs (which
embed their own paths) are byte-identical across runs at one seed.

The seed changes the inputs (centers, couplings, momenta, campaign seeds,
op order) but not the amount of work: every shape and grid size is fixed,
so run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("grid", "random", "packet")

GAMMA = 1.0 / 3.0  # the documented prototype coupling
HALF_PI = repr(math.pi / 2.0)

GRID_K_COUNT = 2000
GRID_OMEGA_COUNT = 1000
DIMER_CMT_OMEGAS = 61  # the cmt default grid

RANDOM_SIZES = tuple(n for n in range(2, 9) for _ in range(8))
CAMPAIGNS = 3
CAMPAIGN_TRIALS = 40

# The documented evolve schedule: two 300-site leads around a two-site
# center, t_final = (|n0| + 60) / (2 J sin k) at n0 = -50, k = pi/2, J = 1,
# cut into 50 frames of round(t_final / 50 / dt) steps of dt = 0.02.
EVOLVE_SITES = 300 + 2 + 300
EVOLVE_FRAMES = 50
EVOLVE_STEPS = EVOLVE_FRAMES * round((50.0 + 60.0) / 2.0 / EVOLVE_FRAMES / 0.02)


@dataclass(frozen=True)
class Op:
    """One ``cli.run(argv)`` call and what its oracle expects of it."""

    argv: tuple[str, ...]
    check: str  # key into oracles.CHECKS
    outputs: tuple[str, ...] = ()
    expect_exit: int = 0
    solves: int = 0  # S-matrix evaluations, lead plus coupled-mode
    site_steps: int = 0  # chain sites x RK4 steps
    expect: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the inputs of workload ``name`` into ``workdir`` and return its ops."""
    rng = np.random.default_rng(seed)
    builders = {"grid": _grid, "random": _random, "packet": _packet}
    return builders[name](rng, Path(workdir))


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def write_matrix(path: Path, mat: np.ndarray) -> None:
    rows, cols = mat.shape
    payload: dict = {"n": rows} if rows == cols else {"rows": rows, "cols": cols}
    payload["re"] = mat.real.tolist()
    payload["im"] = mat.imag.tolist()
    path.write_text(json.dumps(payload), encoding="utf-8")


def _sweep(name: str, center_args: tuple[str, ...], expect: dict) -> Op:
    out = f"sweep_{name}.csv"
    argv = ("sweep",) + center_args + ("--k-count", str(GRID_K_COUNT), "--out", out)
    return Op(argv, "sweep", (out,), solves=2 * GRID_K_COUNT, expect=expect)


def _grid(rng: np.random.Generator, workdir: Path) -> list[Op]:
    # One lossy 6-site center, three of its sites attached to leads, and a
    # 6x3 coupled-mode coupling.  The loss (0.01-0.03 per site) stays well
    # below the radiative widths, so the conjugate (gain) center has no pole
    # near the real axis.  Over seeds 0-299 the worst cmt conservation
    # residual on the 1,000-point grid is 1.5e-13, against the 1e-12 bound.
    a = _crandn(rng, (6, 6))
    center = 0.3 * (a + a.conj().T) - 1j * np.diag(rng.uniform(0.01, 0.03, 6))
    ports = [str(int(s)) for s in sorted(rng.permutation(6)[:3])]
    write_matrix(workdir / "center.json", center)
    write_matrix(workdir / "coupling.json", 0.5 * _crandn(rng, (6, 3)))
    g_undamped, g_damped = (repr(float(g)) for g in rng.uniform(0.25, 0.45, 2))
    return [
        Op(
            ("cmt", "--prototype", "undamped", "--v", "0.4", "--gamma", "0.3",
             "--kappa", "0.7", "0.4", "--port-signs", "1", "-1", "--out", "cmt_dimer.csv"),
            "cmt", ("cmt_dimer.csv",), solves=2 * DIMER_CMT_OMEGAS,
            expect={"rows": DIMER_CMT_OMEGAS, "signs": (1, -1)},
        ),
        Op(
            ("cmt", "--center-file", "center.json", "--coupling-file", "coupling.json",
             "--omega-count", str(GRID_OMEGA_COUNT), "--out", "cmt_center.csv"),
            "cmt", ("cmt_center.csv",), solves=2 * GRID_OMEGA_COUNT,
            expect={"rows": GRID_OMEGA_COUNT, "center": "center.json", "coupling": "coupling.json"},
        ),
        _sweep("undamped", ("--prototype", "undamped", "--gamma", g_undamped),
               {"prototype": "undamped", "gamma": float(g_undamped)}),
        _sweep("damped", ("--prototype", "damped", "--gamma", g_damped),
               {"prototype": "damped", "gamma": float(g_damped)}),
        _sweep("center", ("--center-file", "center.json", "--ports", *ports),
               {"center": "center.json", "ports": [int(p) for p in ports]}),
    ]


def _random(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    for i, n in enumerate(RANDOM_SIZES):
        # campaign-style center: uniform in the disc of radius 1
        center = np.sqrt(rng.random((n, n))) * np.exp(2j * math.pi * rng.random((n, n)))
        p = 3 if n >= 3 and i % 2 else 2
        ports = [str(int(s)) for s in sorted(rng.permutation(n)[:p])]
        k = repr(float(rng.uniform(0.1, math.pi - 0.1)))
        name = f"v{i:02d}"
        write_matrix(workdir / f"{name}_center.json", center)
        ops.append(Op(
            ("verify", "--center-file", f"{name}_center.json", "--ports", *ports,
             "--k", k, "--out", f"{name}.json"),
            "verify", (f"{name}.json",), solves=2, expect={"k": float(k)},
        ))
    for i, n in enumerate(RANDOM_SIZES):
        # Even ops: pseudo-Hermitian A D A^-1 with distinct real D, whose
        # metric space has dimension n.  Odd ops: generic, dimension 0.
        if i % 2 == 0:
            a = np.eye(n) + 0.3 * _crandn(rng, (n, n))
            d = np.diag(rng.uniform(-1.0, 1.0, n))
            center = a @ d @ np.linalg.inv(a)
            dimension = n
        else:
            center = _crandn(rng, (n, n))
            dimension = 0
        ports = [str(int(s)) for s in sorted(rng.permutation(n)[:2])]
        name = f"c{i:02d}"
        write_matrix(workdir / f"{name}_center.json", center)
        ops.append(Op(
            ("classify", "--center-file", f"{name}_center.json", "--ports", *ports,
             "--out", f"{name}.json"),
            "classify", (f"{name}.json",),
            expect={"center": f"{name}_center.json", "dimension": dimension},
        ))
    for kind, flux, dimension in (("undamped", "energy-difference", 2), ("damped", "neither", 1)):
        gamma = repr(float(rng.uniform(0.2, 0.45)))
        ops.append(Op(
            ("classify", "--prototype", kind, "--gamma", gamma, "--out", f"proto_{kind}.json"),
            "classify", (f"proto_{kind}.json",),
            expect={"prototype": kind, "gamma": float(gamma), "dimension": dimension, "flux": flux},
        ))
    for i in range(CAMPAIGNS):
        out = f"campaign{i}.json"
        ops.append(Op(
            ("campaign", "--trials", str(CAMPAIGN_TRIALS),
             "--seed", str(int(rng.integers(0, 2**31))), "--out", out),
            "campaign", (out,), solves=4 * CAMPAIGN_TRIALS, expect={"trials": CAMPAIGN_TRIALS},
        ))
    # Inputs where exit code 3 is the correct answer: the exact lasing point
    # of the gain dimer, and a momentum on the band edge.
    ops.append(Op(
        ("verify", "--prototype", "damped", "--gamma", "0.5", "--dagger", "--k", HALF_PI,
         "--out", "lasing.json"),
        "numerical_error", ("lasing.json",), expect_exit=3,
    ))
    ops.append(Op(
        ("verify", "--prototype", "undamped", "--gamma", repr(GAMMA), "--k", repr(math.pi),
         "--out", "band_edge.json"),
        "numerical_error", ("band_edge.json",), expect_exit=3,
    ))
    # The first op doubles as the warm-up op; keep it a cheap verify.
    first, rest = ops[0], ops[1:]
    return [first] + [rest[i] for i in rng.permutation(len(rest))]


def _packet(rng: np.random.Generator, workdir: Path) -> list[Op]:
    g_undamped = repr(float(rng.uniform(0.25, 0.45)))
    cases = (
        ("loss", ("--prototype", "damped", "--gamma", repr(GAMMA)),
         {"R": (0.36, 0.02), "T": (0.16, 0.02)}),
        ("gain", ("--prototype", "damped", "--gamma", repr(GAMMA), "--dagger"),
         {"R": (8.9, 0.3), "T": (3.9, 0.15)}),
        ("undamped", ("--prototype", "undamped", "--gamma", g_undamped),
         {"R_minus_T": (1.0, 2e-2)}),
    )
    ops = []
    for name, center_args, bounds in cases:
        frames, summary = f"frames_{name}.csv", f"summary_{name}.json"
        ops.append(Op(
            ("evolve",) + center_args + ("--out-frames", frames, "--out-summary", summary),
            "evolve", (frames, summary), site_steps=EVOLVE_SITES * EVOLVE_STEPS,
            expect={"bounds": bounds, "sites": EVOLVE_SITES, "frames": EVOLVE_FRAMES},
        ))
    return [ops[i] for i in rng.permutation(len(ops))]
