"""Coarse-grainings of a sufficient statistic and the minimal one.

Every question here reads one sufficiency.Decision of (T, F).  A
coarse-graining f(T) merges T's atoms into blocks, and the family's Gram
matrix on a block's atom is the sum of T's Gram stack over the block.
When T is weakly sufficient, T's versions make every block sum real, so
f(T) is weakly sufficient exactly when every block sum, dead atoms
included, passes the pair rule (Cauchy interlacing):
Decision.coarse_sufficient decides every map of T from one Decision, as
a direct check of f(T) would.  Two atoms are separated when their block
sum holds a pair of states of rank 2; the pair rule is monotone
(pair_rank_two), so no sufficient f(T) has separated atoms in one block.
The minimal statistic merges the live atoms (Decision.active) into the
connected components of "not separated" (equivalence_classes): each
block of every sufficient f(T) lies in one component, so the minimal
statistic is a function of f(T), and it is sufficient itself when every
component's block sum passes.  At a tolerance proportionality is not
transitive, so a component's sum can fail, and then equivalence_classes
raises.  When the family spans two dimensions or more a minimal
statistic exists only when every atom is live.  With a dead atom none
exists: merging it into each live atom in turn
(harness.dead_atom_counterexamples) gives incomparable sufficient
coarse-grainings.  A family on one line has the constant statistic, one
block of every atom, as its minimal one, dead atoms or not.  When T is
not weakly sufficient no f(T) is (g(f(T)) is a function of T), so the
Decision's refusal answers every question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator

import numpy as np

from .linalg import RANK_TOL, pair_rank_two
from .spectral import CoarseMap, DiscreteStatistic, StateFamily, block_sum
from .sufficiency import Decision, WitnessFactorization, build_witness, decide

MAX_ENUMERATED_ATOMS = 9     # Bell(10) = 115975 is past the exhaustive budget


@dataclass
class MinimalStatistic:
    """The minimal statistic, its partition of t's atoms (block n has value
    n + 1), and the witness of its sufficiency.

    spectrum is that of t, the statistic coarse-grained
    (DiscreteStatistic.spectrum), which a certificate records; results
    compare without it.
    """

    statistic: DiscreteStatistic
    partition: list[list[int]]
    witness: WitnessFactorization
    spectrum: tuple[float, ...] = field(default=(), compare=False)


@dataclass
class NoMinimalExists:
    """The statistic, of spectrum ``spectrum``, has an atom carrying no
    weight of any state."""

    dead_atom: int
    spectrum: tuple[float, ...] = field(default=(), compare=False)


def equivalence_classes(decision: Decision) -> list[list[int]]:
    """The live atoms grouped into the components of "not separated",
    ordered by smallest member.

    Atoms a and b are separated when gram[a] + gram[b] holds a pair of
    states of rank 2 (pair_rank_two): one call per live atom, on its sums
    with every later live atom.  One stacked call then applies the same
    rule to each component's Gram sum, the block-sum rule of
    Decision.coarse_sufficient, which bounds the merged statistic's
    witness (sufficiency.tolerances).  Raises ValueError, naming the
    component, where a sum holds a pair of rank 2: its atoms are joined
    pair by pair, but proportionality is not transitive at the tolerance.
    """
    gram, tol = decision.table.gram, decision.tol
    live = list(compress(range(len(gram)), decision.active))
    home = list(range(len(gram)))   # home[k]: the smallest atom yet joined to k
    for n, a in enumerate(live):
        later = live[n + 1:]
        for b in compress(later, ~pair_rank_two(gram[a] + gram[later], tol).any(axis=1)):
            low, high = sorted((home[a], home[b]))
            home = [low if h == high else h for h in home]
    classes: dict[int, list[int]] = {}
    for k in live:
        classes.setdefault(home[k], []).append(k)
    partition = list(classes.values())
    split = pair_rank_two(np.array([gram[block].sum(axis=0) for block in partition]), tol)
    if split.any():
        block = partition[int(split.any(axis=1).argmax())]
        raise ValueError(f"atoms {block} are joined pair by pair, but their Gram sum has "
                         f"rank 2 at tolerance {tol:g}, so no minimal statistic is claimed")
    return partition


def statistic_from_partition(t: DiscreteStatistic, partition) -> DiscreteStatistic:
    """The statistic with value n + 1 on the atoms of t in block n.

    partition is a list of nonempty blocks of atom indices (integers, not
    booleans) that holds each atom of t exactly once; anything else
    raises ValueError.
    """
    blocks = partition if isinstance(partition, (list, tuple)) else [None]
    atoms = [k for block in blocks if isinstance(block, (list, tuple)) for k in block]
    if not all(isinstance(block, (list, tuple)) and block for block in blocks) \
            or any(type(k) is not int for k in atoms) or sorted(atoms) != list(range(len(t))):
        raise ValueError(f"expected nonempty blocks with each of the {len(t)} atoms exactly once")
    projections = tuple(block_sum(t, block) for block in partition)
    return DiscreteStatistic(np.arange(1.0, len(partition) + 1.0), projections)


def check_coarse_sufficient(t: DiscreteStatistic, family: StateFamily, cmap: CoarseMap) -> bool:
    """Is f(T) still weakly sufficient?  Decision.coarse_sufficient of (t, family)."""
    return decide(t, family).coarse_sufficient(cmap)


def minimal_statistic(t: DiscreteStatistic, family: StateFamily,
                      tol: float = RANK_TOL):
    """Coarsest weakly sufficient relabelling of t, if one exists.

    Returns MinimalStatistic (atoms = the classes of equivalence_classes,
    values 1..m in order of smallest member), NoMinimalExists naming the first
    atom that is not Decision.active, or check's negative
    SufficiencyVerdict, which proves that no coarse-graining is
    sufficient.  A family spanning less than two dimensions gets the
    one-block partition, dead atoms included: the constant statistic, a
    function of every statistic, all sufficient for it.  One Decision of
    (t, family) gives all of it; the merged statistic's witness is built
    under t's versions (sufficiency.tolerances bounds it).  Raises
    ValueError when a class's Gram sum has rank 2 (equivalence_classes).
    """
    decision = decide(t, family, tol)
    if decision.violations:
        return decision.verdict()
    if not pair_rank_two(decision.table.gram.sum(axis=0), tol).any():
        partition = [list(range(len(t)))]
    elif not all(decision.active):
        return NoMinimalExists(dead_atom=decision.active.index(False), spectrum=t.spectrum)
    else:
        partition = equivalence_classes(decision)
    statistic = statistic_from_partition(t, partition)
    witness = build_witness(statistic, family, decision.versions, tol)
    return MinimalStatistic(statistic=statistic, partition=partition, witness=witness,
                            spectrum=t.spectrum)


def enumerate_coarse_grainings(t: DiscreteStatistic) -> Iterator[CoarseMap]:
    """All set partitions of the atoms, as coarse maps, in restricted-growth order.

    Yields Bell(#atoms) maps, the all-in-one-block partition first and the
    identity partition last.  Guarded against Bell-number explosion:
    more than MAX_ENUMERATED_ATOMS atoms raise ValueError.
    """
    n = len(t)
    if n > MAX_ENUMERATED_ATOMS:
        raise ValueError(
            f"{n} atoms would enumerate too many partitions "
            f"(limit {MAX_ENUMERATED_ATOMS})"
        )
    evs = [float(x) for x in t.eigenvalues]
    # one float per class value, shared by every map that uses it
    values = [float(v) for v in range(1, n + 1)]
    rgs = [0] * n
    while True:
        yield CoarseMap({evs[i]: values[rgs[i]] for i in range(n)})
        for i in range(n - 1, 0, -1):
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
        else:
            return
