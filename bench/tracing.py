"""In-memory span tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each ``nhscatter`` module
by rebinding them where the calling modules look them up (``cli.scattering_matrix``,
``smatrix.invert``, ``symmetry.determinant``, ...).  Every call records a span
``(span_id, parent_id, op_id, name, start, end)``; a layer's self time is its
span durations minus the time covered by their child spans.  The root span of
each op is ``cli.run``, so the self times of all layers sum to the traced op
time.  The program is single-threaded and nothing waits on a queue or a lock,
so there are no waiting spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

from nhscatter.errors import ScatterError

# Wrapped callables per module.  "Class.method" wraps a method on the class.
TRACED = {
    "numerics": ("invert", "determinant", "matrix_from_json", "matrix_to_json"),
    "model": ("make_prototype", "dagger", "mode_params", "ScatteringSystem.__post_init__"),
    "smatrix": ("scattering_matrix",),
    "conservation": ("verify_conservation_law", "flux_deviations", "classify_flux"),
    "symmetry": ("metric_space", "port_signature", "is_anti_pt", "phase_of"),
    "cmt": ("cmt_smatrix", "two_port_coupling"),
    "dynamics": ("packet_experiment", "build_chain", "gaussian_packet", "propagate_rk4",
                 "block_intensities"),
    "cli": ("run", "build_parser", "_load_center_file"),
}
MODULES = tuple(TRACED)

# name -> (unit, better) of every metric ``layer_metrics`` reports.
METRICS: dict[str, tuple[str, str]] = {
    "numerics.invert.calls": ("count", "lower"),
    "numerics.invert.self_s": ("s", "lower"),
    "numerics.determinant.calls": ("count", "lower"),
    "numerics.determinant.self_s": ("s", "lower"),
    "smatrix.scattering_matrix.calls": ("count", "lower"),
    "smatrix.scattering_matrix.self_s": ("s", "lower"),
    "smatrix.scattering_matrix.us_per_call": ("us", "lower"),
    "cmt.cmt_smatrix.calls": ("count", "lower"),
    "cmt.cmt_smatrix.self_s": ("s", "lower"),
    "cmt.cmt_smatrix.us_per_call": ("us", "lower"),
    "conservation.verify_conservation_law.calls": ("count", "lower"),
    "conservation.verify_conservation_law.self_s": ("s", "lower"),
    "conservation.flux_deviations.self_s": ("s", "lower"),
    "symmetry.metric_space.calls": ("count", "lower"),
    "symmetry.metric_space.self_s": ("s", "lower"),
    "symmetry.port_signature.self_s": ("s", "lower"),
    "symmetry.is_anti_pt.self_s": ("s", "lower"),
    "dynamics.propagate_rk4.self_s": ("s", "lower"),
    "dynamics.propagate_rk4.steps": ("count", "lower"),
    "dynamics.propagate_rk4.us_per_step": ("us", "lower"),
    "dynamics.build_chain.self_s": ("s", "lower"),
    "dynamics.gaussian_packet.self_s": ("s", "lower"),
    "dynamics.block_intensities.self_s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.build_parser.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.matrix_from_json.calls": ("count", "lower"),
    "cli.coupling_read_useful_ratio": ("ratio", "higher"),
    **{f"{module}.self_s": ("s", "lower") for module in MODULES},
    **{f"{module}.errors": ("count", "lower") for module in MODULES},
    "trace.op_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "workload.solves": ("count", "higher"),
    "workload.site_steps": ("count", "higher"),
}

# Metrics that must repeat exactly for one seed.
EXACT = tuple(name for name, (unit, _) in METRICS.items() if unit in ("count", "bytes", "ratio"))


class Tracer:
    """Collects spans from wrapped ``nhscatter`` functions, one op at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op_id = -1
        self.rk4_steps = 0
        self.file_reads: list[tuple[int, str]] = []  # (op_id, path) per matrix file read
        self.bytes_written = 0
        self.solves = 0
        self.site_steps = 0
        self.coupling_files: dict[int, str] = {}  # op_id -> its --coupling-file
        self._stack: list[int] = []
        self._next_id = 0
        self._errors: Counter[str] = Counter()
        self._counted: list[BaseException] = []
        self._errors_before = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"nhscatter.{name}") for name in MODULES}
        for module_name, attrs in TRACED.items():
            home = modules[module_name]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    self._rebind(owner, fn_name, self._wrap(f"{module_name}.{attr}", owner.__dict__[fn_name]))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules.values():
                    if module.__dict__.get(fn_name) is original:
                        self._rebind(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        observe = {
            "dynamics.propagate_rk4": self._observe_rk4,
            "cli._load_center_file": self._observe_read,
        }.get(name)
        signature = inspect.signature(fn) if observe else None
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ScatterError as exc:
                self._count_error(module, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, self.op_id, name, start, end))
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _count_error(self, module: str, exc: BaseException) -> None:
        # An error passing through several spans counts once, where it arose.
        if not any(seen is exc for seen in self._counted):
            self._counted.append(exc)
            self._errors[module] += 1

    def _observe_rk4(self, arguments: dict, trajectory) -> None:
        self.rk4_steps += round(float(trajectory.times[-1]) / float(arguments["dt"]))

    def _observe_read(self, arguments: dict, result) -> None:
        self.file_reads.append((self.op_id, str(arguments["path"])))

    def begin_op(self, op) -> None:
        self.op_id += 1
        if "--coupling-file" in op.argv:
            self.coupling_files[self.op_id] = op.argv[op.argv.index("--coupling-file") + 1]
        self._errors_before = len(self._counted)

    def end_op(self, op, code: int, bytes_written: int) -> None:
        # A typed error the CLI raised and caught itself (exit 2 or 3) never
        # crosses a wrapped function; charge it to the cli layer.
        if code in (2, 3) and len(self._counted) == self._errors_before:
            self._errors["cli"] += 1
        self.bytes_written += bytes_written
        if code == 0:
            self.solves += op.solves
            self.site_steps += op.site_steps

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far.

        ``trace.overhead_frac`` compares the traced pass time with the median
        untraced pass time, both scaled to the reference speed.
        """
        covered: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        op_s = 0.0
        for span_id, parent, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - covered[span_id]
            if parent < 0:
                op_s += end - start
        module_self = {m: sum(v for k, v in self_s.items() if k.split(".", 1)[0] == m) for m in MODULES}

        coupling_reads = [(op, path) for op, path in self.file_reads
                          if self.coupling_files.get(op) == path]
        distinct = len(set(coupling_reads))

        out: dict[str, float] = {}
        for name in METRICS:
            head, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls[head]
            elif stat == "self_s" and head in TRACED:
                out[name] = module_self[head]
            elif stat == "self_s":
                out[name] = self_s[head]
            elif stat == "us_per_call":
                out[name] = 1e6 * self_s[head] / calls[head] if calls[head] else 0.0
            elif stat == "errors":
                out[name] = self._errors[head]
        out["cli.matrix_from_json.calls"] = calls["numerics.matrix_from_json"]
        steps = self.rk4_steps
        out["dynamics.propagate_rk4.steps"] = steps
        out["dynamics.propagate_rk4.us_per_step"] = (
            1e6 * self_s["dynamics.propagate_rk4"] / steps if steps else 0.0)
        out["cli.bytes_written"] = self.bytes_written
        # distinct coupling files per op over coupling-file reads; 1 when none is read
        out["cli.coupling_read_useful_ratio"] = distinct / len(coupling_reads) if coupling_reads else 1.0
        out["trace.op_s"] = op_s
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
        out["workload.solves"] = self.solves
        out["workload.site_steps"] = self.site_steps
        return out
