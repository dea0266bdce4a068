"""Benchmark entry point: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there and nowhere else.  With ``--trace 0`` the ops run for
``--seconds`` seconds, then to the end of the round they are in (see
``workloads.ROUND_OPS``), and the end-to-end metrics are reported.  Op
and set-up times are reported twice: rescaled to a reference machine
speed (``ref_*`` and ``setup_s``, see ``SpeedProbe``) among the metrics,
and as measured in the metadata.  With
``--trace 1`` a fixed prefix of the ops runs once untraced and once
traced, and the per-layer metrics are reported.  Every op's verdict is
checked against the planted truth; a failed or raising op is counted,
never fatal.

The last line of stdout is the result object; the line before it holds
the run's metadata (machine, versions, seed, op count, the percentile
behind ``op_tail_ms``, the failure rate and the first failures).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
FRESH_SETUPS = 2   # set-ups in a fresh interpreter before the timed loop, and again after it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_GAP_S = 0.02          # interval of the speed probe
PROBE_MIN = 5               # fewest probes that rate the speed of one op
REFERENCE_PROBE_S = 1.6e-4  # the probe's time on an idle core of a 2-core x86_64 VM, Python 3.11


def _setup(workload: str, seed: int, workdir: Path):
    """Import wsq from the checkout, generate the corpus, write its files.

    Returns the ops and the set-up time as measured and rescaled to the
    reference speed by probes taken just before and just after it (the
    set-up's own work would slow probes taken during it).  numpy is
    imported before the clock starts, as the probe needs it.
    """
    probe = SpeedProbe()
    before = probe.now()
    start = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import wsq

    if Path(wsq.__file__).resolve().parent != (ROOT / "src" / "wsq").resolve():
        raise RuntimeError(f"imported wsq from {wsq.__file__}, not from this checkout")
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[workload](seed, workdir)
    elapsed = perf_counter() - start
    level = statistics.median([before, probe.now()])
    return ops, (elapsed, elapsed * REFERENCE_PROBE_S / level)


def _fresh_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time, measured and rescaled, in a fresh interpreter, as the
    main run pays it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Outcomes:
    """Latencies of the ops that ran, and what went wrong with the others."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, op) -> float:
        """Run and check one op; return its wall-clock time."""
        self.attempted += 1
        start = perf_counter()
        try:
            got = op.run()
        except Exception:   # a raising op is a failed op, not a failed run
            elapsed = perf_counter() - start
            problem = f"{op.kind} raised: {traceback.format_exc(limit=3)}"
        else:
            elapsed = perf_counter() - start
            problem = None if got == op.expect else (
                f"{op.kind}: got {got!r}, planted truth {op.expect!r}")
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
        return elapsed


class SpeedProbe:
    """How fast this machine runs, sampled while the ops run.

    A shared host changes the speed of one thread by half or more for
    seconds at a time (a tenant on the sibling hyperthread, frequency
    limits), which swamps any change to the library.  While active, a
    real-time interval timer interrupts the process every PROBE_GAP_S and
    the handler, which runs in the main thread between bytecodes, times
    a fixed slice of interpreter loop and small numpy calls, the mix the
    ops are made of.  Work done in [start, end] is rescaled to the
    reference speed by the median of the probes taken during it (at
    least PROBE_MIN of the nearest).  This is a model, not a measurement:
    code slows down under contention by its own factor, not the probe's
    (lattice ops by about 1.45x when the probe shows 1.65x), so a change
    that shifts an op's time between kinds of code can move its rescaled
    time by a different share than its measured time.  The measured
    figures are therefore reported beside the rescaled ones.  The probe
    never calls wsq, but it shares the thread, core and caches with it.
    Its cost (about 1%) is part of every op on every commit alike.
    """

    def __init__(self):
        import numpy as np

        self._array = np.ones((4, 4), dtype=complex)
        self._previous = None      # SIGALRM handler to restore on exit
        self.at: list[float] = []
        self.times: list[float] = []

    def _take(self, *_) -> None:
        start = perf_counter()
        x = 0
        for k in range(2000):
            x += k
        for _ in range(40):
            float(abs(self._array).max())
        end = perf_counter()
        self.at.append(end)
        self.times.append(end - start)

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def now(self, n: int = 40) -> float:
        """Median of n back-to-back probes: the speed at this moment."""
        first = len(self.times)
        for _ in range(n):
            self._take()
        return statistics.median(self.times[first:])

    def scale(self, start: float, end: float) -> float:
        """Factor that rescales work done in [start, end] to the reference speed."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if hi - lo < PROBE_MIN:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - PROBE_MIN // 2, len(self.at) - PROBE_MIN))
            hi = lo + PROBE_MIN
        return REFERENCE_PROBE_S / statistics.median(self.times[lo:hi])


def _tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples above) at ``percentile`` (nearest rank)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():   # not a clone; git would look further up
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_metrics(lat: list[float], stride: int, percentile: float, prefix: str) -> dict:
    """ops_per_s (median over rounds of ``stride`` ops), op_p50_ms, op_tail_ms."""
    rounds = [stride / sum(lat[k:k + stride]) for k in range(0, len(lat), stride)]
    metrics = {
        "ops_per_s": (statistics.median(rounds), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (_tail(lat, percentile)[0] * 1e3, "ms"),
    }
    return {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _end_to_end(ops, workload: str, seconds: float, meta: dict):
    """Run ops in a closed loop for ``seconds``, then to the end of the round."""
    import workloads

    stride = workloads.ROUND_OPS.get(workload, len(ops))
    percentile = workloads.TAIL_PERCENTILE[workload]
    outcomes = Outcomes()
    wall, spans = [], []
    with SpeedProbe() as probe:
        deadline = perf_counter() + seconds
        while len(wall) % stride or perf_counter() < deadline:
            start = perf_counter()
            wall.append(outcomes.execute(ops[len(wall) % len(ops)]))
            spans.append((start, perf_counter()))
    lat = [t * probe.scale(*span) for t, span in zip(wall, spans)]
    quartiles = statistics.quantiles(probe.times, n=4)
    meta.update({
        "ops": len(lat),
        "corpus_ops": len(ops),
        "rounds": len(lat) // stride,
        "op_tail_percentile": percentile,
        "op_tail_samples_above": _tail(wall, percentile)[1],
        "probe_s": {"count": len(probe.times), "q1": quartiles[0],
                    "median": quartiles[1], "q3": quartiles[2],
                    "reference": REFERENCE_PROBE_S},
        "measured": _op_metrics(wall, stride, percentile, ""),
    })
    metrics = _op_metrics(lat, stride, percentile, "ref_")
    metrics["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
    return outcomes, metrics


def _per_layer(ops, workload: str, meta: dict):
    """Each op of a fixed prefix runs untraced and traced, in alternating
    order, so that machine noise cancels out of the overhead ratio."""
    import tracing
    import workloads

    ops = ops[:workloads.TRACE_OPS.get(workload, len(ops))]
    outcomes = Outcomes()
    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}
    for n, op in enumerate(ops):
        tracer.op_id = n
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                tracer.enable()
            try:
                elapsed = outcomes.execute(op)
            finally:
                tracer.disable()
            spent[traced] += elapsed
    meta.update({"ops": len(ops), "spans": len(tracer.spans), "absent": tracer.absent})
    return outcomes, tracing.per_layer_metrics(tracer, len(ops), spent[False], spent[True])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lattice", "petz", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # one caller in one process: keep BLAS from adding threads of its own
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "wsq" / "__init__.py").is_file():
        print(f"error: no wsq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seed = args.seed & (2**64 - 1)   # numpy seeds must be nonnegative
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops, setup = _setup(args.workload, seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "machine": _machine()}
        if args.trace:
            outcomes, metrics = _per_layer(ops, args.workload, meta)
        else:
            # set-up samples spread over the run, so that one slow moment
            # of a shared machine does not decide the median
            samples = [setup]
            samples += [_fresh_setup(args.workload, seed) for _ in range(FRESH_SETUPS)]
            outcomes, metrics = _end_to_end(ops, args.workload, args.seconds, meta)
            samples += [_fresh_setup(args.workload, seed) for _ in range(FRESH_SETUPS)]
            metrics["setup_s"] = {"value": statistics.median(s for _, s in samples),
                                  "unit": "s"}
            meta["measured"]["setup_s"] = {"value": statistics.median(m for m, _ in samples),
                                           "unit": "s"}
            meta["setup_samples_s"] = [m for m, _ in samples]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    meta["attempted"] = outcomes.attempted
    meta["fail_rate"] = {"value": outcomes.failed / outcomes.attempted, "unit": "ratio"}
    meta["failures"] = outcomes.problems
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
