"""The three workloads as lists of ops, each with the outcome it must give.

An op is one user-visible decision, timed on its own.  ``run`` calls the
library through module attributes at call time, so the wrappers the
tracer installs see every call.  ``expect`` is derived from the planted
truth only.  Verdicts are read by polarity (``.sufficient``, the exit
code or a certificate's ``verdict`` field) and certificates are replayed
with ``verify_certificate``; result class names are never compared, so
a later change of result types does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import corpus


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    expect: Any


def _partition(cmap, eigenvalues) -> list[tuple[int, ...]]:
    blocks: dict[float, list[int]] = {}
    for k, lam in enumerate(eigenvalues):
        blocks.setdefault(cmap.assignment[float(lam)], []).append(k)
    return [tuple(b) for b in blocks.values()]


def lattice(seed: int, workdir: Path) -> list[Op]:
    """Planted instances; one op per coarse-graining plus one minimal op each.

    A coarse-graining keeps weak sufficiency exactly when each of its
    blocks has its live atoms in one planted class, and the minimal
    statistic merges exactly the planted classes.  Together these make
    the minimal statistic a function of every sufficient coarse-graining,
    so checking both against the planted classes checks that property.
    """
    from wsq import minimality, spectral, sufficiency

    ops = []
    for item in corpus.lattice_corpus(seed):
        t = spectral.DiscreteStatistic(item.eigenvalues, tuple(item.projections))
        family = spectral.StateFamily(item.labels, item.vectors)
        home = {k: c for c in item.classes for k in c}

        def minimal(t=t, family=family):
            result = minimality.minimal_statistic(t, family)
            dead = getattr(result, "dead_atom", None)
            if dead is not None:
                return ("dead", dead)
            return ("classes", sorted(tuple(b) for b in result.partition))

        expect = (("dead", item.dead_atom) if item.dead_atom is not None
                  else ("classes", sorted(item.classes)))
        ops.append(Op("minimal", minimal, expect))

        for cmap in minimality.enumerate_coarse_grainings(t):
            sufficient = all(
                len({home[k] for k in block if k in home}) <= 1
                for block in _partition(cmap, item.eigenvalues)
            )

            def coarse(t=t, family=family, cmap=cmap):
                fast = minimality.check_coarse_sufficient(t, family, cmap)
                merged, _ = spectral.apply_coarse(t, cmap)
                direct = sufficiency.check_weak_sufficiency(merged, family).sufficient
                return (bool(fast), bool(direct))

            ops.append(Op("coarse", coarse, (sufficient, sufficient)))
    order = np.random.default_rng([seed, 4]).permutation(len(ops))
    return [ops[i] for i in order]


def petz(seed: int, workdir: Path) -> list[Op]:
    """petz_feasibility, then certificate, serialization and replay."""
    from wsq import fileio, petz as petz_mod, spectral

    ops = []
    for item in corpus.petz_corpus(seed):
        t = spectral.DiscreteStatistic(item.eigenvalues, tuple(item.projections))
        family = spectral.StateFamily(item.labels, item.vectors)

        def decide(t=t, family=family, unital=item.unital, text=item.text):
            instance = petz_mod.PetzInstance.from_parts(t, family, unital=unital)
            result = petz_mod.petz_feasibility(instance)
            cert = fileio.make_certificate("petz", result, parameters={"unital": unital})
            report = fileio.verify_certificate(text, fileio.serialize_certificate(cert))
            return (cert["verdict"] == "feasible", bool(report.ok))

        ops.append(Op(item.kind, decide, (item.feasible, True)))
    return ops


def certify(seed: int, workdir: Path) -> list[Op]:
    """Instance files through ``run_cli``; each certificate replayed from text."""
    from wsq import cli, fileio

    slots: list[list[Op]] = [[] for _ in corpus.CERTIFY_DIMS]
    for n, item in enumerate(corpus.certify_corpus(seed)):
        path = workdir / f"instance-{n:02d}-{item.kind}-d{item.dim}.json"
        path.write_text(item.text, encoding="utf-8")
        for command, affirmative in item.truth.items():
            def decide(command=command, path=str(path), text=item.text):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run_cli([command, "--input", path])
                if code not in (0, 1):
                    raise RuntimeError(f"{command} exited {code}: {err.getvalue().strip()}")
                report = fileio.verify_certificate(text, out.getvalue())
                return (code == 0, bool(report.ok))

            slots[n // len(corpus.CERTIFY_KINDS)].append(
                Op(f"{command}:{item.kind}:d{item.dim}", decide, (affirmative, True)))
    # shuffle within each dimension slot, then deal the slots round-robin:
    # the large-d solves dominate the cost, and any prefix keeps their share
    rng = np.random.default_rng([seed, 4])
    slots = [[slot[i] for i in rng.permutation(len(slot))] for slot in slots]
    return [op for round_ in zip(*slots) for op in round_]


WORKLOADS = {"lattice": lattice, "petz": petz, "certify": certify}
# A run stops only at the end of a round, and ops_per_s is the median
# over rounds.  A round of petz or certify is a pass over the corpus: a
# few distinct solver ops make up their slowest tenth, so the op mix of
# a run must not depend on where the clock ran out.  lattice has
# thousands of ops of similar cost in random order.
ROUND_OPS = {"lattice": 400}   # default: one pass
# op_tail_ms is this percentile of the op latencies, the same on every
# commit; a 30 s run on the seed code leaves 18 to 40 samples above it
TAIL_PERCENTILE = {"lattice": 99.0, "petz": 90.0, "certify": 90.0}
# ops in the traced run: a fixed prefix, so two runs on one seed count alike
TRACE_OPS = {"lattice": 800}   # default: one pass
