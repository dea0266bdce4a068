"""Alignment of state phases under reality constraints.

A constraint (left, right, value) demands that after replacing each state
by a unit-modulus multiple c_label, the dressed number
c_left * conj(c_right) * value becomes real -- of either sign.  In angle
terms: arg(c_left) - arg(c_right) + arg(value) must vanish modulo pi.
Feasibility is decided exactly by propagating angular offsets through a
union-find forest; infeasibility is witnessed by a cycle of constraints
whose angular defect is bounded away from 0 mod pi, which anyone can
re-check by summing arguments around the cycle.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field

ANGLE_TOL = 1e-6

# Fault-injection point for the self-test harness: the physically correct
# modulus is pi (real of either sign).  Do not change outside the harness.
_CONSTRAINT_MODULUS = math.pi


@dataclass(frozen=True)
class PhaseConstraint:
    """Demand that value becomes real after dressing left and right.

    atom records which statistic atom produced the constraint, if any;
    it is carried through to certificates so a verifier can recompute
    the value from the instance.  Every producer keeps only overlaps of
    validated states above sufficiency.ZERO_TOL, so value is taken as
    given: finite and nonzero.
    """

    left: str
    right: str
    value: complex
    atom: int | None = None


@dataclass
class VersionAssignment:
    """Unit-modulus multiplier per label."""

    phases: dict[str, complex]

    def __post_init__(self):
        cleaned = {}
        for label, c in self.phases.items():
            c = complex(c)
            if abs(abs(c) - 1.0) > 1e-9:
                raise ValueError(f"phase for '{label}' is not unit modulus: {c!r}")
            cleaned[str(label)] = c
        self.phases = cleaned

    def phase(self, label: str) -> complex:
        return self.phases[label]


@dataclass
class Infeasible:
    """Witness of infeasibility: a closed walk with nonzero angular defect."""

    cycle: list[PhaseConstraint] = field(default_factory=list)


def _wrap(angle: float) -> float:
    return angle % _CONSTRAINT_MODULUS


def _defect_distance(angle: float) -> float:
    m = _CONSTRAINT_MODULUS
    frac = angle % m
    return min(frac, m - frac)


def align_phases(constraints, labels):
    """Decide whether all constraints can be made real simultaneously.

    Returns a VersionAssignment on success (the lexicographically first
    label of each connected component gets phase 1) or an Infeasible
    witness carrying a cycle whose defect exceeds ANGLE_TOL.  Exact up to
    floating-point accumulation: offsets are propagated, never searched.
    labels are the family's (unique strings, as StateFamily makes them)
    and every constraint names two of them; neither is checked again.
    """
    parent = {lab: lab for lab in labels}
    offset = {lab: 0.0 for lab in labels}   # angle(lab) - angle(parent[lab]), mod pi
    size = {lab: 1 for lab in labels}
    forest: dict[str, list[tuple[str, PhaseConstraint]]] = {lab: [] for lab in labels}

    def find(x: str) -> tuple[str, float]:
        chain = []
        while parent[x] != x:
            chain.append(x)
            x = parent[x]
        root = x
        acc = 0.0
        for node in reversed(chain):
            acc = _wrap(acc + offset[node])
            parent[node] = root
            offset[node] = acc
        return root, acc

    for c in constraints:
        target = _wrap(-cmath.phase(c.value))   # required angle(left) - angle(right)
        root_l, off_l = find(c.left)
        root_r, off_r = find(c.right)
        if root_l == root_r:
            if _defect_distance(off_l - off_r - target) > ANGLE_TOL:
                path = _forest_path(forest, c.left, c.right)
                return Infeasible(cycle=path + [c])
            continue
        if size[root_l] < size[root_r]:
            parent[root_l] = root_r
            offset[root_l] = _wrap(off_r + target - off_l)
            size[root_r] += size[root_l]
        else:
            parent[root_r] = root_l
            offset[root_r] = _wrap(off_l - target - off_r)
            size[root_l] += size[root_r]
        forest[c.left].append((c.right, c))
        forest[c.right].append((c.left, c))

    by_root: dict[str, list[str]] = {}
    angles = {}
    for lab in labels:
        root, off = find(lab)
        angles[lab] = off
        by_root.setdefault(root, []).append(lab)
    phases = {}
    for members in by_root.values():
        rep = min(members)
        for lab in members:
            phases[lab] = cmath.exp(1j * _wrap(angles[lab] - angles[rep]))
    return VersionAssignment(phases)


def _forest_path(forest, start: str, goal: str) -> list[PhaseConstraint]:
    """Unique path between two labels along accepted (tree) constraints."""
    if start == goal:
        return []
    prev: dict[str, tuple[str, PhaseConstraint] | None] = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if x == goal:
            break
        for y, c in forest[x]:
            if y not in prev:
                prev[y] = (x, c)
                queue.append(y)
    if goal not in prev:
        raise RuntimeError("labels are not connected in the constraint forest")
    path = []
    node = goal
    while prev[node] is not None:
        x, c = prev[node]
        path.append(c)
        node = x
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
