"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

For each workload: two traced runs on seed SEED must give identical
counts (every ``.calls``, ``petz.iterations``,
``petz.decided_without_iterating``, ``phases.align_phases.constraints``
and ``fileio.certificate_bytes``), and both traced runs and one
untraced run of SECONDS seconds on seed HELD_OUT must fail no op.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (numpy only; wsq is never imported here)

WORKLOADS = ("lattice", "petz", "certify")
SEED = 0
HELD_OUT = 1009
SECONDS = 10


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first = _run(workload, SEED, 1)
        second = _run(workload, SEED, 1)
        a, b = tracing.span_counts(first["metrics"]), tracing.span_counts(second["metrics"])
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        held = _run(workload, HELD_OUT, 0)
        failed = {"traced": first["failed"] + second["failed"], "held-out": held["failed"]}
        good = not differ and not any(failed.values())
        ok &= good
        print(f"{workload}: {'ok' if good else 'FAILED'}; {len(a)} counts compared, "
              f"differing: {differ or 'none'}; failed ops {failed} "
              f"of {first['attempted'] + second['attempted']} traced and "
              f"{held['attempted']} held-out")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
