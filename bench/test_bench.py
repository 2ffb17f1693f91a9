"""Tests of the benchmark itself: exact counts, non-vacuous oracles, contract.

Run from the checkout root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import calibrate
import oracles
import run
import tracing
import workloads

SEED = 7


def traced_pass(workload: str, seed: int) -> dict[str, float]:
    with run.work_directory() as workdir:
        runner = run.Runner(workloads.build(workload, seed, workdir), workdir)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.run_pass(calibrate.SpeedGauge(), tracer)
        finally:
            tracer.uninstall()
    assert runner.failures == []
    return tracer.layer_metrics(traced_wall_s=1.0, untraced_wall_s=1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_self_times_sum(workload):
    first, second = traced_pass(workload, SEED), traced_pass(workload, SEED)
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}
    assert first["cli.run.calls"] > 0
    assert first["workload.solves"] > 0 or first["dynamics.propagate_rk4.steps"] > 0
    layer_sum = sum(first[f"{m}.self_s"] for m in tracing.MODULES)
    assert layer_sum == pytest.approx(first["trace.op_s"], rel=1e-9)


def test_uninstall_restores_every_binding():
    from nhscatter import cli, model, numerics, smatrix, symmetry

    before = (cli.run, cli.scattering_matrix, smatrix.invert, symmetry.determinant,
              model.ScatteringSystem.__post_init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert hasattr(smatrix.invert, "__wrapped__") and smatrix.invert is numerics.invert
    assert cli.scattering_matrix is smatrix.scattering_matrix
    tracer.uninstall()
    after = (cli.run, cli.scattering_matrix, smatrix.invert, symmetry.determinant,
             model.ScatteringSystem.__post_init__)
    assert after == before
    assert not hasattr(smatrix.invert, "__wrapped__")


# ---------------------------------------------------------------------------
# oracle self-test: a 10% error in one output value must count as a failed op


def _scale_csv_entry(path, row: int | None, columns: tuple[str, str, str], factor: float) -> None:
    """Scale one complex entry (re, im by factor, abs2 by factor^2) in one CSV row.

    ``row=None`` picks the row with the largest abs2 in the last frame of an
    evolve frames CSV.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    re_i, im_i, abs2_i = (header.index(c) for c in columns)
    if row is None:
        sites = workloads.EVOLVE_SITES
        last = [float(line.split(",")[abs2_i]) for line in lines[-sites:]]
        row = len(lines) - 1 - sites + int(np.argmax(last))
    cells = lines[row + 1].split(",")
    for i, f in ((re_i, factor), (im_i, factor), (abs2_i, factor * factor)):
        cells[i] = repr(float(cells[i]) * f)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_json(path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _perturb(op, workdir) -> int:
    """Put a 10% error into one output value of ``op``; return the exit code to check."""
    out = workdir / op.outputs[0]
    if op.check in ("sweep", "cmt"):
        rows = len(out.read_text(encoding="utf-8").splitlines()) - 1
        _scale_csv_entry(out, rows // 2, ("re_s00", "im_s00", "abs2_s00"), 1.1)
    elif op.check == "evolve":
        _scale_csv_entry(out, None, ("re_psi", "im_psi", "abs2"), 1.1)
    elif op.check == "verify":
        _edit_json(out, lambda p: p["diag"][0].__setitem__(0, p["diag"][0][0] + 1.1 * oracles.LAW_TOL))
    elif op.check == "campaign":
        _edit_json(out, lambda p: p.__setitem__("max_law_residual", 1.1 * p["tolerance"]))
    elif op.check == "classify":
        def edit(payload):
            if payload["metric_basis"]:
                payload["metric_basis"][0]["matrix"]["re"][0][0] *= 1.1
            else:
                payload["dimension"] += 1
        _edit_json(out, edit)
    elif op.check == "numerical_error":
        return 0
    return op.expect_exit


def _perturb_summary_r(op, workdir) -> int:
    _edit_json(workdir / op.outputs[1], lambda p: p.__setitem__("R", 1.1 * p["R"]))
    return op.expect_exit


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_output_counts_as_failed(workload):
    perturbations = [_perturb] + ([_perturb_summary_r] if workload == "packet" else [])
    with run.work_directory() as workdir:
        ops = workloads.build(workload, SEED, workdir)
        for perturb in perturbations:
            runner = run.Runner(ops, workdir)
            for op in ops:
                runner.run_op(op)
                assert runner.failures == [], runner.failures
                code = perturb(op, workdir)
                assert oracles.check(op, code, "numerical error", workdir) is not None, op.argv


# ---------------------------------------------------------------------------
# contract


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS


def test_result_line(capsys):
    assert run.main(["--workload", "random", "--seed", str(SEED), "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
