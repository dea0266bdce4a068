"""Alignment of state phases under reality constraints.

A constraint (left, right, value) demands that after replacing each state
by a unit-modulus multiple c_label, the dressed number
c_left * conj(c_right) * value becomes real -- of either sign.  In angle
terms: arg(c_left) - arg(c_right) + arg(value) must vanish modulo pi.
Feasibility is decided exactly by propagating angular offsets through a
union-find forest; infeasibility is witnessed by a cycle of constraints
whose angular defect is bounded away from 0 mod pi, which anyone can
re-check by summing arguments around the cycle.

The decision reads its constraints as arrays (Constraints: state
indices and values, one entry per overlap) and runs on integer state
indices.  A PhaseConstraint, which names its states by label, is built
only for the cycle a refusal returns, and by the verifier from a
certificate's cycle.  Each target angle comes from cmath.phase, one value
at a time, as cycle_defect reads it: np.angle differs from it in the
last bit on some values, which would move versions and witnesses.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import RANK_TOL

# Fault-injection point for the self-test harness: the physically correct
# modulus is pi (real of either sign).  Do not change outside the harness.
_CONSTRAINT_MODULUS = math.pi


@dataclass(frozen=True)
class PhaseConstraint:
    """Demand that value becomes real after dressing left and right.

    atom records which statistic atom produced the constraint, if any;
    it is carried through to certificates so a verifier can recompute
    the value from the instance.  The decision builds these only for a
    refusal's cycle, from overlaps above the cutoff of
    sufficiency.tolerances, so value is taken as given: finite, nonzero.
    """

    left: str
    right: str
    value: complex
    atom: int | None = None


@dataclass(frozen=True)
class Constraints:
    """Phase constraints as parallel arrays, in the order they are decided.

    Constraint n demands that value[n] becomes real after dressing the
    states with indices left[n] and right[n]; atom[n] is the statistic
    atom whose Gram matrix holds the overlap, and atom is None when the
    overlaps are the family's own, whose cycle edges name no atom.
    """

    left: np.ndarray        # (n,) int
    right: np.ndarray       # (n,) int
    value: np.ndarray       # (n,) complex
    atom: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.value)

    def named(self, n: int, labels) -> PhaseConstraint:
        """Constraint n as an object naming its states by label."""
        atom = None if self.atom is None else int(self.atom[n])
        return PhaseConstraint(labels[self.left[n]], labels[self.right[n]], self.value[n], atom)


@dataclass
class VersionAssignment:
    """Unit-modulus multiplier per label.  A plain record: align_phases
    builds each as cmath.exp of a real angle, and sufficiency.verify_witness
    checks those of a witness built by hand or read from a certificate."""

    phases: dict[str, complex]

    def phase(self, label: str) -> complex:
        return self.phases[label]


@dataclass
class Infeasible:
    """Witness of infeasibility: a closed walk with nonzero angular defect."""

    cycle: list[PhaseConstraint] = field(default_factory=list)


def align_phases(constraints: Constraints, labels, angle_tol: float = math.sqrt(RANK_TOL)):
    """Decide whether all constraints can be made real simultaneously.

    Returns a VersionAssignment on success (the lexicographically first
    label of each connected component gets phase 1) or an Infeasible
    witness carrying a cycle whose defect exceeds angle_tol (by default
    the angle of sufficiency.tolerances).  Offsets are propagated, never
    searched: a constraint that closes no cycle is met exactly, one that
    closes a cycle is left at its defect.  Constraints are taken in order,
    their states indices into labels, the family's unique strings; neither
    is checked again.  PhaseConstraint objects are built only for the
    cycle returned.  The modulus is read once per call, so the harness's
    fault switch reaches every comparison.
    """
    modulus = _CONSTRAINT_MODULUS
    n_states = len(labels)
    parent = list(range(n_states))
    offset = [0.0] * n_states   # angle(x) - angle(parent[x]), mod the modulus
    size = [1] * n_states
    tree: list[int] = []        # constraints accepted into the forest, in order

    def find(x: int) -> tuple[int, float]:
        chain = []
        while parent[x] != x:
            chain.append(x)
            x = parent[x]
        acc = 0.0
        for node in reversed(chain):
            acc = (acc + offset[node]) % modulus
            parent[node] = x
            offset[node] = acc
        return x, acc

    lefts, rights = constraints.left.tolist(), constraints.right.tolist()
    for n, value in enumerate(constraints.value.tolist()):
        target = (-cmath.phase(value)) % modulus   # required angle(left) - angle(right)
        root_l, off_l = find(lefts[n])
        root_r, off_r = find(rights[n])
        if root_l == root_r:
            frac = (off_l - off_r - target) % modulus
            if min(frac, modulus - frac) > angle_tol:
                path = _tree_path(lefts, rights, tree, lefts[n], rights[n])
                return Infeasible(cycle=[constraints.named(c, labels) for c in path + [n]])
            continue
        if size[root_l] < size[root_r]:
            parent[root_l] = root_r
            offset[root_l] = (off_r + target - off_l) % modulus
            size[root_r] += size[root_l]
        else:
            parent[root_r] = root_l
            offset[root_r] = (off_l - target - off_r) % modulus
            size[root_l] += size[root_r]
        tree.append(n)

    found = [find(x) for x in range(n_states)]
    lead: dict[int, int] = {}   # root -> the member with the first label
    for x, (root, _) in enumerate(found):
        if root not in lead or labels[x] < labels[lead[root]]:
            lead[root] = x
    return VersionAssignment({
        labels[x]: cmath.exp(1j * ((off - found[lead[root]][1]) % modulus))
        for x, (root, off) in enumerate(found)
    })


def _tree_path(lefts, rights, tree, start: int, goal: int) -> list[int]:
    """The accepted constraints on the unique forest path between two states."""
    if start == goal:
        return []
    forest: dict[int, list[tuple[int, int]]] = {}
    for c in tree:
        forest.setdefault(lefts[c], []).append((rights[c], c))
        forest.setdefault(rights[c], []).append((lefts[c], c))
    prev: dict[int, tuple[int, int] | None] = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if x == goal:
            break
        for y, c in forest.get(x, ()):
            if y not in prev:
                prev[y] = (x, c)
                queue.append(y)
    if goal not in prev:
        raise RuntimeError("states are not connected in the constraint forest")
    path = []
    node = goal
    while prev[node] is not None:
        node, c = prev[node]
        path.append(c)
    path.reverse()
    return path


def cycle_defect(cycle) -> float:
    """Angular defect of a closed walk of constraints, as a distance to 0 mod pi.

    Each constraint traversed left-to-right contributes +arg(value), the
    reverse direction -arg(value); a consistent set of constraints sums
    to 0 modulo pi around any cycle.
    """
    cycle = list(cycle)
    if not cycle:
        raise ValueError("empty cycle")
    if len(cycle) == 1:
        start = cycle[0].left
    else:
        shared = {cycle[0].left, cycle[0].right} & {cycle[1].left, cycle[1].right}
        if cycle[0].left in shared and cycle[0].right not in shared:
            start = cycle[0].right
        else:
            start = cycle[0].left
    current = start
    total = 0.0
    for c in cycle:
        if c.left == current:
            total += cmath.phase(c.value)
            current = c.right
        elif c.right == current:
            total -= cmath.phase(c.value)
            current = c.left
        else:
            raise ValueError("constraints do not form a closed walk")
    if current != start:
        raise ValueError("walk does not close")
    frac = total % math.pi
    return min(frac, math.pi - frac)
