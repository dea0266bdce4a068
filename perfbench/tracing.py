"""Per-layer tracing installed from outside the library.

Each traced public function is replaced, at every binding a wsq module
holds (the modules use ``from .linalg import ...``, so patching only the
home module would miss calls), by a wrapper that records a span: name,
op id, parent span, start and end.  Spans stay in memory until the run
ends; self time is a span's duration minus the durations of its child
spans, which in one thread are nested and never overlap.

A function that a later refactor removes is listed as absent and its
metrics read zero; the run does not fail.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# layer -> public functions; ``DiscreteStatistic`` stands for its
# ``__post_init__`` validation
TRACED = {
    "linalg": ("hermitian_eig", "numerical_rank", "gram_matrix", "gram_schmidt",
               "psd_project"),
    "spectral": ("DiscreteStatistic", "statistic_from_matrix", "project_states",
                 "apply_coarse"),
    "phases": ("align_phases",),
    "sufficiency": ("check_weak_sufficiency", "instance_constraints",
                    "build_gamma_table", "exists_weakly_sufficient", "verify_witness"),
    "minimality": ("check_coarse_sufficient", "equivalence_classes",
                   "minimal_statistic"),
    "petz": ("petz_feasibility",),
    "fileio": ("parse_instance", "make_certificate", "serialize_certificate",
               "verify_certificate"),
    "cli": ("run_cli",),
}
EIG_BUCKETS = ((4, "d2_4"), (8, "d5_8"), (16, "d9_16"), (32, "d17_32"))
CLI_COMMANDS = ("check", "construct", "minimal", "petz")


def _eig_bucket(args, kwargs) -> str:
    m = args[0] if args else kwargs.get("m")
    n = np.shape(m)[0]
    for top, name in EIG_BUCKETS:
        if n <= top:
            return name
    return "d33_up"


class Tracer:
    """Finds every binding of the traced functions; ``enable`` puts the
    wrappers in place and ``disable`` puts the originals back."""

    def __init__(self):
        import importlib

        self.spans: list = []      # (label, op_id, parent index, start, end)
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._bindings: list = []  # (owner, attribute, original, wrapper)
        modules = [m for key, m in sys.modules.items()
                   if key == "wsq" or key.startswith("wsq.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"wsq.{layer}")
            for name in names:
                if name == "DiscreteStatistic":
                    cls = getattr(module, name, None)
                    hook = vars(cls).get("__post_init__") if cls else None
                    if hook is None:
                        self.absent.append(f"{layer}.{name}")
                    else:
                        self._bindings.append(
                            (cls, "__post_init__", hook, self._wrap(f"{layer}.{name}", hook)))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        tracer = self

        def count(key: str, amount) -> None:
            counters[key] = counters.get(key, 0) + amount

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "linalg.hermitian_eig":
                label = f"{name}.{_eig_bucket(args, kwargs)}"
            elif name == "cli.run_cli":
                argv = args[0] if args else kwargs.get("argv")
                label = f"{name}.{argv[0] if argv else 'none'}"
            elif name == "phases.align_phases":
                constraints = args[0] if args else kwargs.get("constraints")
                count("phases.align_phases.constraints", len(constraints))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, tracer.op_id, parent, start, end)
            if name == "petz.petz_feasibility":
                iterations = getattr(result, "iterations", 0) or 0
                count("petz.iterations", iterations)
                count("petz.decided_without_iterating", int(iterations == 0))
            elif name == "fileio.serialize_certificate":
                count("fileio.certificate_bytes", len(result.encode("utf-8")))
            return result

        return wrapper

    # -- reporting --------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """span label -> (calls, self seconds, total seconds)."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for (label, _, _, start, end), covered in zip(self.spans, child):
            entry = totals.setdefault(label, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered
            entry[2] += end - start
        return {k: tuple(v) for k, v in totals.items()}


def per_layer_metrics(tracer: Tracer, ops: int, untraced_s: float,
                      traced_s: float) -> dict[str, dict]:
    """Every per-layer metric, zero where the workload never calls the layer."""
    totals = tracer.layer_totals()
    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def calls_and_self(label: str) -> None:
        calls, self_s, _ = totals.get(label, (0, 0.0, 0.0))
        put(f"{label}.calls", calls, "count")
        put(f"{label}.self_s", self_s, "s")

    for _, bucket in EIG_BUCKETS:
        calls_and_self(f"linalg.hermitian_eig.{bucket}")
    for layer, names in TRACED.items():
        for name in names:
            if (layer, name) in (("linalg", "hermitian_eig"), ("cli", "run_cli")):
                continue
            calls_and_self(f"{layer}.{name}")
    for command in CLI_COMMANDS:
        calls, _, total_s = totals.get(f"cli.run_cli.{command}", (0, 0.0, 0.0))
        put(f"cli.run_cli.{command}.calls", calls, "count")
        put(f"cli.run_cli.{command}.total_s", total_s, "s")
    for key in ("phases.align_phases.constraints", "petz.iterations",
                "petz.decided_without_iterating", "fileio.certificate_bytes"):
        put(key, int(tracer.counters.get(key, 0)),
            "bytes" if key.endswith("bytes") else "count")

    def calls(label: str) -> int:
        return totals.get(label, (0,))[0]

    eig_calls = sum(calls(f"linalg.hermitian_eig.{b}") for _, b in EIG_BUCKETS)
    petz_calls = calls("petz.petz_feasibility")
    put("sufficiency.check_weak_sufficiency.calls_per_op",
        calls("sufficiency.check_weak_sufficiency") / ops, "ratio")
    put("linalg.hermitian_eig.calls_per_op", eig_calls / ops, "ratio")
    put("fileio.parse_instance.calls_per_op", calls("fileio.parse_instance") / ops, "ratio")
    put("petz.iterations_per_call",
        tracer.counters.get("petz.iterations", 0) / petz_calls if petz_calls else 0.0,
        "ratio")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    return metrics


def span_counts(metrics: dict[str, dict]) -> dict[str, int]:
    """The metrics that must repeat exactly between two traced runs on one seed."""
    exact = ("phases.align_phases.constraints", "petz.iterations",
             "petz.decided_without_iterating", "fileio.certificate_bytes")
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k in exact}
