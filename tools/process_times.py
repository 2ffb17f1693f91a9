"""Process wall time and peak RSS of each subcommand at its README example.

Usage, from the root of a git checkout:

    python3 tools/process_times.py LABEL=REV [LABEL=REV ...]

Each ``REV`` is a git revision of this repository; its ``src`` directory is
extracted with ``git archive`` into a temporary directory.  Every run is a
fresh ``python -m nhscatter ...`` process in an empty temporary directory
with ``PYTHONPATH`` at that ``src`` and one BLAS/OpenMP thread, as in
``bench/run.py``.  The runs alternate between the revisions, in an order
that reverses every round, so that drift of the machine hits them alike.
The wall time is taken around the process, start-up and exit included; the
peak RSS is the process's own ``ru_maxrss`` from ``wait4``.  The JSON report
on stdout names each revision's commit and ``src`` tree and holds the
medians of ``RUNS`` runs and every run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

# The example invocation of each subcommand in README.md, outputs included.
COMMANDS = {
    "sweep": ["sweep", "--prototype", "undamped", "--gamma", "0.3333333333333333",
              "--out", "sweep.csv"],
    "evolve": ["evolve", "--prototype", "damped", "--gamma", "0.3333333333333333",
               "--k", "1.5707963267948966", "--out-frames", "frames.csv",
               "--out-summary", "summary.json"],
    "classify": ["classify", "--prototype", "undamped", "--gamma", "0.3333333333333333",
                 "--out", "classify.json"],
    "verify": ["verify", "--prototype", "damped", "--gamma", "0.3333333333333333",
               "--k", "1.2", "--out", "verify.json"],
    "cmt": ["cmt", "--prototype", "undamped", "--v", "0.4", "--gamma", "0.3",
            "--kappa", "0.7", "0.4", "--port-signs", "1", "-1", "--out", "cmt.csv"],
    "campaign": ["campaign", "--trials", "100", "--seed", "1", "--out", "campaign.json"],
}
RUNS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(src: str, argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{v: "1" for v in THREAD_VARS})
    with tempfile.TemporaryDirectory() as workdir:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nhscatter", *argv], cwd=workdir,
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # wait4 reaped the child, so Popen must be told its exit status
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} with {src} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def extract_src(rev: str, dest: str) -> dict[str, str]:
    """Extract ``src`` of ``rev`` into ``dest``; its commit and tree hashes."""
    tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src"))).extractall(dest)
    return {"rev": rev,
            "commit": git("rev-parse", f"{rev}^{{commit}}").decode().strip(),
            "src_tree": git("rev-parse", f"{rev}:src").decode().strip()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=REV")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as root:
        trees, srcs = {}, {}
        for tree in args.trees:
            label, rev = tree.split("=", 1)
            trees[label] = extract_src(rev, os.path.join(root, label))
            srcs[label] = os.path.join(root, label, "src")

        results = {}
        for name, argv in COMMANDS.items():
            runs = {label: [] for label in srcs}
            order = list(srcs.items())
            for _ in range(RUNS):
                for label, src in order:
                    runs[label].append(run_once(src, argv))
                order.reverse()  # each revision runs first in every other round
            results[name] = {
                "argv": ["python", "-m", "nhscatter", *argv],
                **{label: {
                    "wall_s_median": round(statistics.median(w for w, _ in samples), 4),
                    "peak_rss_mb_median": round(statistics.median(r for _, r in samples), 1),
                    "wall_s": [round(w, 4) for w, _ in samples],
                    "peak_rss_mb": [round(r, 1) for _, r in samples],
                } for label, samples in runs.items()},
            }
    import numpy
    import scipy
    report = {
        "what": __doc__.split("\n\n")[0],
        "command": " ".join(["python3", *sys.argv]),
        "trees": trees,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "blas_threads": 1},
        "runs": RUNS,
        "subcommands": results,
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
