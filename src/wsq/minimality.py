"""Coarse-grainings of a sufficient statistic and the minimal one.

Every question here reads one sufficiency.Decision of (T, F).  A
coarse-graining f(T) merges T's atoms into blocks, and the family's Gram
matrix on a block's atom is the sum of T's Gram stack over the block.
When T is weakly sufficient, T's versions make every block sum real, so
f(T) is weakly sufficient exactly when every block sum, dead atoms
included, passes the pair rule (Cauchy interlacing):
Decision.coarse_sufficient decides every map of T from one Decision, as
a direct check of f(T) would.  Atoms whose block sum has rank one, their
states' coordinates proportional, merge without loss of sufficiency; two
atoms whose block sum has rank 2 cannot merge.  The minimal statistic
merges the proportionality classes of the live atoms (Decision.active),
grown by block sums (equivalence_classes); when the family spans two
dimensions or more it exists exactly when every atom is live.  Its
certificate proves both halves: the merged statistic's witness, built
under T's versions, and for each pair of classes two states of rank 2 on
the merged atom of one atom from each.  At a tolerance proportionality
is not transitive, so two classes can lack such a pair, and then
equivalence_classes raises.  With a dead atom no minimal statistic
exists: merging it into each live atom in turn
(harness.dead_atom_counterexamples) gives incomparable sufficient
coarse-grainings.  A family on one line has the constant statistic, one
block of every atom, as its minimal one, dead atoms or not.  When T is
not weakly sufficient no f(T) is (g(f(T)) is a function of T), so the
Decision's refusal answers every question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

import numpy as np

from .linalg import RANK_TOL, _upper_triangle, pair_rank_two
from .spectral import CoarseMap, DiscreteStatistic, StateFamily, block_sum
from .sufficiency import Decision, WitnessFactorization, build_witness, decide

MAX_ENUMERATED_ATOMS = 9     # Bell(10) = 115975 is past the exhaustive budget


@dataclass
class AtomClasses:
    """Proportionality classes of active atoms, and what keeps them apart.

    classes are ordered by their smallest member.  For each pair of
    classes i < j, in order, separations holds atoms (a, b) of classes i
    and j and the labels (x, y) of two states whose Gram matrix projected
    onto e_a + e_b has rank 2 (pair_rank_two).  For a family spanning one
    dimension minimal_statistic puts every atom, dead ones included, in
    one class.
    """

    classes: list[tuple[int, ...]]
    separations: list[tuple[tuple[int, int], tuple[str, ...]]]


@dataclass
class MinimalStatistic:
    """The minimal statistic, its classes, and the witness of its sufficiency.

    spectrum is that of t, the statistic coarse-grained
    (DiscreteStatistic.spectrum), which a certificate records; results
    compare without it.
    """

    statistic: DiscreteStatistic
    classes: AtomClasses
    partition: list[list[int]]
    witness: WitnessFactorization
    spectrum: tuple[float, ...] = field(default=(), compare=False)


@dataclass
class NoMinimalExists:
    """The statistic, of spectrum ``spectrum``, has an atom carrying no
    weight of any state."""

    dead_atom: int
    spectrum: tuple[float, ...] = field(default=(), compare=False)


def equivalence_classes(decision: Decision) -> AtomClasses:
    """Group active atoms whose components are proportional, by block sums.

    In order, each active atom joins the first class whose running Gram
    sum plus its own has no pair of states of rank 2 (pair_rank_two, the
    block-sum rule of Decision.coarse_sufficient), or starts a class: every
    class sum passes, which bounds the merged statistic's witness
    (sufficiency.tolerances).  Classes i < j are separated by the
    first atoms a of i and b of j whose gram[a] + gram[b] has rank 2, the
    test the verifier applies: made as b started j if i then held a alone,
    else by one pair_rank_two call per a on all of j.  Raises ValueError,
    naming both classes, where no such pair exists.
    """
    gram, tol, labels = decision.table.gram, decision.tol, decision.family.labels
    pairs = list(zip(*_upper_triangle(len(labels))))
    classes: list[list[int]] = []
    sums = np.empty_like(gram)   # sums[n]: the Gram sum of classes[n]
    tested = []                  # tested[n][i]: classes[n][0] with a class i of one atom
    for k in (k for k, flag in enumerate(decision.active) if flag):
        n = len(classes)
        split = pair_rank_two(sums[:n] + gram[k], tol)
        fit = (split.any(axis=1).tolist() + [False]).index(False)
        if fit == n:
            tested.append({i: row for i, row in enumerate(split) if len(classes[i]) == 1})
            classes.append([])
            sums[n] = 0.0
        classes[fit].append(k)
        sums[fit] += gram[k]
    separations = []
    for i, j in combinations(range(len(classes)), 2):
        if i in tested[j]:
            a, b, row = classes[i][0], classes[j][0], tested[j][i]
        else:
            for a in classes[i]:
                split = pair_rank_two(gram[a] + gram[classes[j]], tol)
                if split.any():
                    n = int(split.any(axis=1).argmax())
                    b, row = classes[j][n], split[n]
                    break
            else:
                raise ValueError(f"classes {classes[i]} and {classes[j]} hold no pair of atoms "
                                 f"of rank 2 at tolerance {tol:g}, so no certificate can "
                                 f"separate them")
        separations.append(((a, b), tuple(labels[x] for x in pairs[row.argmax()])))
    return AtomClasses([tuple(cls) for cls in classes], separations)


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

    Returns MinimalStatistic (atoms = proportionality classes, values
    1..m in order of smallest member), NoMinimalExists naming the first
    atom that is not Decision.active, or check's negative
    SufficiencyVerdict, which proves that no coarse-graining is
    sufficient.  A family spanning less than two dimensions gets the
    one-block partition, dead atoms included: the constant statistic, a
    function of every statistic, all sufficient for it.  One Decision of
    (t, family) gives all of it; the merged statistic's witness is built
    under t's versions (sufficiency.tolerances bounds it).  Raises
    ValueError when two classes cannot be separated (equivalence_classes).
    """
    decision = decide(t, family, tol)
    if decision.violations:
        return decision.verdict()
    if not pair_rank_two(decision.table.gram.sum(axis=0), tol).any():
        classes = AtomClasses([tuple(range(len(t)))], [])
    elif not all(decision.active):
        return NoMinimalExists(dead_atom=decision.active.index(False), spectrum=t.spectrum)
    else:
        classes = equivalence_classes(decision)
    partition = [list(cls) for cls in classes.classes]
    statistic = statistic_from_partition(t, partition)
    witness = build_witness(statistic, family, decision.versions, tol)
    return MinimalStatistic(statistic=statistic, classes=classes, partition=partition,
                            witness=witness, spectrum=t.spectrum)


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
