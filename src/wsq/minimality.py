"""Coarse-grainings of a sufficient statistic and the minimal one.

Two atoms of a weakly sufficient statistic are interchangeable when
their rows of the Analysis gamma matrix are proportional: merging such
atoms preserves weak sufficiency, and merging any other pair destroys
it.  The minimal statistic merges exactly the proportionality classes --
it exists precisely when every atom carries some weight of the family.
When an atom is dead, no minimal statistic exists, and merging the dead
atom into each live atom in turn yields a family of incomparable
sufficient coarse-grainings that witnesses the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import RANK_TOL, gram_matrix, pair_rank_two
from .spectral import CoarseMap, DiscreteStatistic, StateFamily, apply_coarse, coarse_blocks
from .sufficiency import Analysis, analyze

TRANSITIVITY_SLACK = 100.0   # relative loosening for the post-hoc class check
MAX_ENUMERATED_ATOMS = 9     # Bell(10) = 115975 is past the exhaustive budget


@dataclass
class AtomClasses:
    """Proportionality classes of active atoms, with pairwise factors.

    classes are ordered by smallest member; witnesses maps each same-class
    pair (j, m) with j < m to the factor beta such that
    gamma_row[j] ~= beta * gamma_row[m].
    """

    classes: list[tuple[int, ...]]
    witnesses: dict[tuple[int, int], complex]

    def class_index(self, atom: int) -> int | None:
        for i, cls in enumerate(self.classes):
            if atom in cls:
                return i
        return None


@dataclass
class MinimalStatistic:
    statistic: DiscreteStatistic
    classes: AtomClasses
    partition: list[list[int]]


@dataclass
class NoMinimalExists:
    """The statistic has an atom carrying no weight of any state."""

    dead_atom: int


def equivalence_classes(analysis: Analysis, tol: float = RANK_TOL,
                        strict_real: bool = False) -> AtomClasses:
    """Group active atoms whose gamma rows are proportional.

    All pairs are decided at once from H = gamma gamma^H: atoms j and m
    are proportional when the (j, m) principal submatrix of H has rank
    <= 1 (see pair_rank_two), as the Gram matrix of the merged atom's
    projected states then does.  The factor beta is complex in general;
    strict_real additionally requires beta to be real within tol,
    splitting classes accordingly.  Transitivity of the pairwise relation
    is re-verified on the computed classes at a composed tolerance and
    gross failures raise ValueError.
    """
    active = [k for k, flag in enumerate(analysis.active) if flag]
    rows = analysis.gamma[active]
    h = rows @ rows.conj().T
    split = pair_rank_two(h, tol)
    loose = pair_rank_two(h, tol * TRANSITIVITY_SLACK)
    beta = h / h.diagonal().real[None, :]   # gamma_row[j] ~= beta[j, m] gamma_row[m]
    parent = list(range(len(active)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(*np.nonzero(np.triu(~split, 1))):
        if strict_real and abs(beta[a, b].imag) > tol * abs(beta[a, b]):
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    grouped: dict[int, list[int]] = {}
    for a in range(len(active)):
        grouped.setdefault(find(a), []).append(a)
    witnesses: dict[tuple[int, int], complex] = {}
    for members in grouped.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                j, m = active[a], active[b]
                if loose[a, b]:
                    raise ValueError(
                        f"atoms {j} and {m} land in one class but are not "
                        "proportional at the composed tolerance"
                    )
                witnesses[(j, m)] = complex(beta[a, b])
    classes = sorted(tuple(active[a] for a in members) for members in grouped.values())
    return AtomClasses(classes=classes, witnesses=witnesses)


def _sufficient_analysis(t: DiscreteStatistic, family: StateFamily, tol: float) -> Analysis:
    analysis = analyze(t, family, tol)
    violations, _ = analysis.decide()
    if violations:
        raise ValueError("the statistic is not weakly sufficient for the family")
    return analysis


def check_coarse_sufficient(t: DiscreteStatistic, family: StateFamily,
                            cmap: CoarseMap, tol: float = RANK_TOL) -> bool:
    """Is f(T) still weakly sufficient?  Decided from the classes alone.

    Requires (t, family) itself to be weakly sufficient.  One Analysis
    of (t, family) gives both that verdict and the classes; a block of
    the coarse-graining is harmless iff all its active atoms lie in one
    proportionality class, so the coarse statistic is never built.
    """
    analysis = _sufficient_analysis(t, family, tol)
    classes = equivalence_classes(analysis, tol)
    for _, block in coarse_blocks(t, cmap):
        homes = {classes.class_index(k) for k in block if analysis.active[k]}
        if len(homes) > 1:
            return False
    return True


def minimal_statistic(t: DiscreteStatistic, family: StateFamily,
                      tol: float = RANK_TOL):
    """Coarsest weakly sufficient relabelling of t, if one exists.

    Returns MinimalStatistic (atoms = proportionality classes, values
    1..m in order of smallest member) or NoMinimalExists naming a dead
    atom.  Families spanning less than two dimensions are rejected: every
    statistic is sufficient for them, so minimality is vacuous.  One
    Analysis of (t, family) gives the verdict, the dead-atom weights and
    the classes.
    """
    analysis = _sufficient_analysis(t, family, tol)
    if not pair_rank_two(gram_matrix(family.vectors), tol).any():
        raise ValueError("family spans less than two dimensions; minimality is vacuous")
    weights = analysis.table.weights
    for k in range(len(t)):
        if float(weights[:, k].max()) <= tol:
            return NoMinimalExists(dead_atom=k)
    classes = equivalence_classes(analysis, tol)
    values: dict[float, float] = {}
    for i, cls in enumerate(classes.classes):
        for k in cls:
            values[float(t.eigenvalues[k])] = float(i + 1)
    coarse, partition = apply_coarse(t, CoarseMap(values))
    return MinimalStatistic(statistic=coarse, classes=classes, partition=partition)


def is_function_of(s: DiscreteStatistic, u: DiscreteStatistic,
                   tol: float = RANK_TOL):
    """Relabelling psi with s = psi(u), or None.

    Each atom of u must sit inside exactly one atom of s; the returned
    dict maps u-eigenvalues to s-eigenvalues.
    """
    if s.dim != u.dim:
        raise ValueError("statistics act on different dimensions")
    psi: dict[float, float] = {}
    for i, f in enumerate(u.projections):
        hosts = [
            j
            for j, q in enumerate(s.projections)
            if np.abs(q @ f - f).max() <= tol
        ]
        if len(hosts) != 1:
            return None
        psi[float(u.eigenvalues[i])] = float(s.eigenvalues[hosts[0]])
    return psi


def enumerate_coarse_grainings(t: DiscreteStatistic,
                               max_atoms: int = MAX_ENUMERATED_ATOMS) -> Iterator[CoarseMap]:
    """All set partitions of the atoms, as coarse maps, in restricted-growth order.

    Yields Bell(#atoms) maps, the all-in-one-block partition first and the
    identity partition last.  Guarded against Bell-number explosion.
    """
    n = len(t)
    if n > max_atoms:
        raise ValueError(
            f"{n} atoms would enumerate too many partitions (limit {max_atoms})"
        )
    evs = [float(x) for x in t.eigenvalues]
    rgs = [0] * n
    while True:
        yield CoarseMap({evs[i]: float(rgs[i] + 1) for i in range(n)})
        for i in range(n - 1, 0, -1):
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
        else:
            return


def dead_atom_counterexamples(t: DiscreteStatistic, dead_atom: int):
    """Merge the dead atom into each other atom in turn.

    Returns {n: statistic with atoms dead_atom and n merged under
    eigenvalue lambda_n}.  Each result is weakly sufficient whenever t
    is (the dead atom contributes nothing), yet only a scalar could be a
    function of them all -- which is why no minimal statistic exists.
    """
    if not 0 <= dead_atom < len(t):
        raise ValueError(f"no atom {dead_atom}")
    if len(t) < 2:
        raise ValueError("need at least two atoms to merge")
    out: dict[int, DiscreteStatistic] = {}
    for n in range(len(t)):
        if n == dead_atom:
            continue
        values = {
            float(lam): float(t.eigenvalues[n]) if k == dead_atom else float(lam)
            for k, lam in enumerate(t.eigenvalues)
        }
        merged, _ = apply_coarse(t, CoarseMap(values))
        out[n] = merged
    return out
