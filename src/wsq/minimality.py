"""Coarse-grainings of a sufficient statistic and the minimal one.

A coarse-graining f(T) merges the atoms of T into blocks.  f(T)'s atom
for a block B is the sum of T's mutually orthogonal atoms in B, so the
family's Gram matrix on it is the block sum of T's Gram stack over B.
When T is weakly sufficient, the versions that aligned T make every
block sum real, and f(T) is weakly sufficient exactly when no block sum
holds a pair of states of rank 2 (Cauchy interlacing):
check_coarse_sufficient decides each coarse-graining from these sums,
dead atoms included, as a direct check of f(T) would.
Two atoms of a weakly sufficient statistic are interchangeable when
their two-atom block sum has rank one, that is, when their states'
coordinates on them are proportional: merging such atoms preserves
weak sufficiency, and merging any other pair destroys it.  An atom is
live when some state's weight on it exceeds the rank tolerance
(Analysis.active).  The minimal statistic merges exactly the
proportionality classes of the live atoms (equivalence_classes) --
when the family spans two dimensions or more it exists precisely when
every atom is live.  Its certificate proves both halves: a witness of
the merged statistic, and for each pair of classes two states of rank
2 on their merged atom.  When an atom of such a family is dead, no
minimal statistic exists: merging the dead atom into each live atom in
turn (harness.dead_atom_counterexamples) yields incomparable sufficient
coarse-grainings that witness the failure.  A family on one line has
the constant statistic, one block of every atom, as its minimal one,
dead atoms or not.
When T is not weakly sufficient no f(T) is (g(f(T)) is a function of
T), so the one decision of T each question starts from answers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .linalg import RANK_TOL, _upper_triangle, pair_rank_two
from .spectral import CoarseMap, DiscreteStatistic, StateFamily, coarse_blocks, project_states
from .sufficiency import (Analysis, SufficiencyVerdict, WitnessFactorization, analyze,
                          atom_directions, build_witness)

MAX_ENUMERATED_ATOMS = 9     # Bell(10) = 115975 is past the exhaustive budget


@dataclass
class AtomClasses:
    """Proportionality classes of active atoms, and what keeps them apart.

    classes are ordered by their leader, the smallest member.  For each
    pair of classes i < j, in order, separations holds the two leaders
    (a, b) and the labels (x, y) of the first pair of states whose Gram
    matrix projected onto e_a + e_b has rank 2 (pair_rank_two).  For a
    family spanning one dimension minimal_statistic puts every atom,
    dead ones included, in one class.
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


def equivalence_classes(analysis: Analysis) -> AtomClasses:
    """Group active atoms whose components are proportional.

    Atoms a < b are split when their merged Gram matrix gram[a] + gram[b]
    has rank 2 at analysis.tol, the test the verifier applies to a
    separation.  Leader by leader: the smallest atom not yet placed leads
    a class, one pair_rank_two call on its merged matrices with every
    atom still unplaced decides them all, and those not split from it
    join it.  The first pair of states split, in the order of
    pair_rank_two's flags, is kept for each atom left over; it is the
    separation when that atom leads a later class.
    """
    gram, tol = analysis.table.gram, analysis.tol
    labels = analysis.family.labels
    pairs = list(zip(*_upper_triangle(len(labels))))
    rest = [k for k, flag in enumerate(analysis.active) if flag]
    classes, firsts = [], {}
    while rest:
        lead, rest = rest[0], rest[1:]
        split = pair_rank_two(gram[lead] + gram[rest], tol)
        apart = split.any(axis=1).tolist()
        classes.append((lead, *(k for k, out in zip(rest, apart) if not out)))
        firsts[lead] = {k: pairs[row.argmax()] for k, row, out in zip(rest, split, apart) if out}
        rest = [k for k, out in zip(rest, apart) if out]
    leaders = [cls[0] for cls in classes]
    separations = [((a, b), tuple(labels[i] for i in firsts[a][b]))
                   for n, a in enumerate(leaders) for b in leaders[n + 1:]]
    return AtomClasses(classes, separations)


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
    projections = tuple(sum(t.projections[k] for k in block) for block in partition)
    return DiscreteStatistic(np.arange(1.0, len(partition) + 1.0), projections)


def check_coarse_sufficient(t: DiscreteStatistic, family: StateFamily, cmap: CoarseMap) -> bool:
    """Is f(T) still weakly sufficient?  Decided from one Analysis of (t, family).

    When t is not weakly sufficient the answer is False: no coarse-graining
    of it is.  Otherwise f(T)'s atom for a block B is the sum of t's
    mutually orthogonal atoms in B, so its Gram matrix is the block sum
    of gram[k] over B, dead atoms included.  The versions that aligned t
    make every block sum real, so no second phase alignment is needed:
    f(T) is weakly sufficient iff no block sum holds a pair of states of
    rank 2 (pair_rank_two), the rank test a direct check of f(T) runs on
    its own Gram stack.  One pair_rank_two call on the stacked block sums
    decides it; the coarse statistic is never built or projected.
    """
    blocks = coarse_blocks(t, cmap)
    analysis = analyze(t, family, RANK_TOL)
    violations, _ = analysis.decide()
    if violations:
        return False
    order = [k for _, block in blocks for k in block]
    starts = np.cumsum([0] + [len(block) for _, block in blocks[:-1]])
    sums = np.add.reduceat(analysis.table.gram[order], starts, axis=0)
    return not pair_rank_two(sums, RANK_TOL).any()


def minimal_statistic(t: DiscreteStatistic, family: StateFamily,
                      tol: float = RANK_TOL):
    """Coarsest weakly sufficient relabelling of t, if one exists.

    Returns MinimalStatistic (atoms = proportionality classes, values
    1..m in order of smallest member), NoMinimalExists naming the first
    atom that is not Analysis.active, or check's negative
    SufficiencyVerdict when t is not weakly sufficient, which proves that
    no coarse-graining is.  A family spanning less than two dimensions
    gets the one-block partition, dead atoms included: every statistic is
    sufficient for it, so the constant one, a function of them all, is
    minimal.  One decided Analysis of (t, family) gives the verdict, the
    span (its Gram stack sums to the family's Gram matrix), the dead atom
    and the classes.  The merged statistic is not decided again: its
    witness is built under t's versions, as in exists_weakly_sufficient.
    Near a tolerance the classes may merge atoms split from each other,
    and the witness then misses; verify_witness reports it.
    """
    analysis = analyze(t, family, tol)
    violations, versions = analysis.decide()
    if violations:
        return SufficiencyVerdict(False, None, violations, t.spectrum)
    if not pair_rank_two(analysis.table.gram.sum(axis=0), tol).any():
        classes = AtomClasses([tuple(range(len(t)))], [])
    elif not all(analysis.active):
        return NoMinimalExists(dead_atom=analysis.active.index(False), spectrum=t.spectrum)
    else:
        classes = equivalence_classes(analysis)
    partition = [list(cls) for cls in classes.classes]
    statistic = statistic_from_partition(t, partition)
    gamma, xi = atom_directions(project_states(statistic, family), tol)
    witness = build_witness(statistic, family, gamma, xi, versions)
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
