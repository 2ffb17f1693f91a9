"""nhscatter benchmark: one workload of ``nhscatter.cli.run(argv)`` calls.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {grid,random,packet} --seed N --seconds S --trace {0,1}

The workload's inputs are generated from ``--seed`` (see workloads.py).  One
process, one caller, closed loop: the op list runs in passes until
``--seconds`` have elapsed (the last pass completes), each op timed
in-process and checked by its physics oracle (oracles.py).  ``setup_s`` is
the median over fresh interpreters of the time to import numpy, scipy and
nhscatter, generate the inputs and run one warm-up op.  Times are scaled to
a reference machine speed measured alongside the ops (calibrate.py).

With ``--trace 1`` one more pass runs with every public nhscatter function
wrapped (tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones.  The last stdout line is the JSON result; the lines before
it are a readable report with every metric and its unit.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# The benchmark measures the checkout it sits in, never an installed copy.
sys.path.insert(0, str(SRC))
try:
    import nhscatter  # noqa: E402
    from nhscatter import cli  # noqa: E402
except ImportError as _exc:
    sys.exit(f"bench: cannot import nhscatter from {SRC}: {_exc}")
if Path(nhscatter.__file__).resolve().parent.parent != SRC:
    sys.exit(f"bench: imported nhscatter from {nhscatter.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs and checks ops inside one work directory, counting failures."""

    def __init__(self, ops: list, workdir: Path) -> None:
        self.ops = ops
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, tracer: tracing.Tracer | None = None) -> float:
        """Run one op, check it, and return its latency in seconds."""
        for name in op.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        stderr = io.StringIO()
        if tracer is not None:
            tracer.begin_op(op)
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.run(list(op.argv))
            elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(op, code, self.bytes_written(op))
        self.attempted += 1
        reason = oracles.check(op, code, stderr.getvalue(), self.workdir)
        if reason is not None:
            self.failures.append(f"{op.argv[0]} -> {op.outputs[0]}: {reason}")
        return elapsed

    def bytes_written(self, op) -> int:
        return sum((self.workdir / n).stat().st_size for n in op.outputs if (self.workdir / n).exists())

    def run_pass(self, gauge: calibrate.SpeedGauge,
                 tracer: tracing.Tracer | None = None) -> tuple[list[float], list[float]]:
        """Run every op once; return raw and speed-scaled latencies."""
        raw, scaled = [], []
        for op in self.ops:
            gauge.refresh()
            before = len(gauge.samples)
            raw.append(self.run_op(op, tracer))
            gauge.refresh()  # samples again only after an op longer than the interval
            scaled.append(gauge.scale(raw[-1], since=before - 1))
        return raw, scaled


@contextlib.contextmanager
def work_directory():
    """A fresh directory under the checkout, made current and removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its first op is ready.

    The probe prints ``ready <time.monotonic()>``; that clock is system-wide,
    so the probe's clean-up after the timestamp is not counted.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--probe"]
    start = time.monotonic()
    probe = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           timeout=PROBE_TIMEOUT_S, check=False)
    words = probe.stdout.split()
    if probe.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed (exit {probe.returncode}, said {probe.stdout!r})")
    return float(words[1]) - start


def environment() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} threads={THREADS}")


def measure(args) -> tuple[dict, list[str], int, list[str]]:
    """Run the workload; return (metrics, report lines, attempted, failures)."""
    gauge = calibrate.SpeedGauge()
    with work_directory() as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(ops, workdir)
        runner.run_op(ops[0])  # warm-up, as in the setup probes
        setup_raw, setup = [], []
        for _ in range(SETUP_PROBES):
            gauge.sample()
            setup_raw.append(setup_probe(args.workload, args.seed))
            gauge.sample()
            setup.append(gauge.scale(setup_raw[-1], since=-2))

        raw_passes: list[list[float]] = []
        passes: list[list[float]] = []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            raw, scaled = runner.run_pass(gauge)
            raw_passes.append(raw)
            passes.append(scaled)
        # Each op's latency is its median over the passes; the op list's time
        # is their sum, the typical op latency their median.
        op_medians = [statistics.median(op_times) for op_times in zip(*passes)]
        wall_s = sum(op_medians)
        latencies = [t for scaled in passes for t in scaled]
        by_command: dict[str, list[float]] = {}
        for raw in raw_passes:
            for op, seconds in zip(ops, raw):
                by_command.setdefault(op.argv[0], []).append(seconds)

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, scaled = runner.run_pass(gauge, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(traced_wall_s=sum(scaled), untraced_wall_s=wall_s)
            layer_sum = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
            if abs(layer_sum - metrics["trace.op_s"]) > 1e-9 * metrics["trace.op_s"]:
                runner.failures.append(
                    f"layer self times sum to {layer_sum} s, traced op time is {metrics['trace.op_s']} s")
    failures = runner.failures

    solves = sum(op.solves for op in ops if op.expect_exit == 0)
    site_steps = sum(op.site_steps for op in ops)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * statistics.median(op_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(latencies)
    speed = calibrate.REFERENCE_S / statistics.median(gauge.samples)
    lines = [
        f"nhscatter benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"environment: {environment()}",
        f"closed loop, 1 caller: {len(ops)} ops per pass, {len(passes)} passes, {n} op samples",
        f"host speed: {speed:.3f} x reference ({len(gauge.samples)} gauge samples); "
        f"times below are scaled to the reference speed",
        f"setup_s           {e2e['setup_s']:.4f} s   (median of {SETUP_PROBES} fresh interpreters; "
        f"raw {statistics.median(setup_raw):.4f} s)",
        f"wall_s            {wall_s:.4f} s   (sum of per-op medians over {len(passes)} passes; "
        f"raw {sum(statistics.median(t) for t in zip(*raw_passes)):.4f} s)",
        f"op_p50_ms         {e2e['op_p50_ms']:.3f} ms  (median of {len(ops)} per-op medians; "
        f"{n} samples)",
    ]
    if n >= 100:
        p90 = 1e3 * statistics.quantiles(latencies, n=10)[-1]
        lines.append(f"op_p90_ms         {p90:.3f} ms  ({n} samples)")
    if solves:
        lines.append(f"solves_per_s      {solves / wall_s:.1f} 1/s ({solves} solves per pass)")
    if site_steps:
        lines.append(f"site_steps_per_s  {site_steps / wall_s:.4g} 1/s ({site_steps} per pass)")
    lines += [f"raw {name} op median {1e3 * statistics.median(v):.2f} ms ({len(v)} samples)"
              for name, v in by_command.items()]
    attempted = runner.attempted
    lines += [
        f"failed_frac       {len(failures) / attempted:.4g} ({len(failures)} of {attempted} ops)",
        f"peak_rss_mb       {e2e['peak_rss_mb']:.1f} MB",
    ]
    if args.trace:
        lines.append("per-layer metrics of one traced pass (self times raw):")
        lines += [f"  {name:46s} {value:.6g} {tracing.METRICS[name][0]}"
                  for name, value in metrics.items()]
        result = {name: {"value": metrics[name], "unit": tracing.METRICS[name][0]}
                  for name in tracing.METRICS}
    else:
        result = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return result, lines, attempted, failures


def probe(args) -> int:
    with work_directory() as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        Runner(ops, workdir).run_op(ops[0])
        print(f"ready {time.monotonic()!r}", flush=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured duration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    metrics, lines, attempted, failures = measure(args)
    for line in lines:
        print(line)
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
