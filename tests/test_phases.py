import cmath
import math
from collections import deque

import numpy as np
import pytest

from wsq.harness import constraint_arrays, oracle_align, versions_satisfy, worst_residual
from wsq.phases import (
    Constraints,
    Infeasible,
    PhaseConstraint,
    VersionAssignment,
    align_phases,
    cycle_defect,
)


def constraints(*triples):
    """Constraints from (left, right, value) triples of state indices."""
    left, right, value = zip(*triples)
    return Constraints(np.array(left), np.array(right), np.array(value, dtype=complex))


def align(cs, labels):
    """align_phases on PhaseConstraint objects, converted as the harness does."""
    return align_phases(constraint_arrays(cs, labels), labels)


def grid_instance(rng, n_labels, n_constraints, steps=24, defect=0.0):
    """Constraints consistent with planted grid angles, optionally broken.

    With defect != 0 the last constraint's value is rotated by that angle,
    so the instance is infeasible whenever defect stays away from 0 mod pi.
    """
    labels = [f"t{i}" for i in range(n_labels)]
    angles = {lab: 2 * math.pi * rng.integers(0, steps) / steps for lab in labels}
    constraints = []
    for i in range(n_constraints):
        a, b = rng.choice(n_labels, size=2, replace=False)
        la, lb = labels[a], labels[b]
        mag = float(rng.uniform(0.5, 2.0))
        arg = angles[lb] - angles[la]
        if i == n_constraints - 1:
            arg += defect
        constraints.append(PhaseConstraint(la, lb, mag * cmath.exp(1j * arg)))
    return labels, constraints


# ------------------------------------------------------------ align_phases


def test_align_single_imaginary_overlap():
    out = align_phases(constraints((0, 1, 1j)), ["a", "b"])
    assert isinstance(out, VersionAssignment)
    assert out.phase("a") == 1.0
    dressed = out.phase("a") * np.conj(out.phase("b")) * 1j
    assert abs(dressed.imag) <= 1e-12


def test_align_accepts_negative_real_values():
    # real of either sign counts as aligned: the modulus is pi, not 2 pi
    out = align_phases(constraints((0, 1, -2.0)), ["a", "b"])
    assert isinstance(out, VersionAssignment)
    assert out.phase("b") == pytest.approx(1.0)


def test_align_consistent_grid_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        labels, cs = grid_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 10)))
        out = align(cs, labels)
        assert isinstance(out, VersionAssignment)
        assert worst_residual(cs, out) <= 1e-9


def test_align_planted_defect_yields_cycle():
    rng = np.random.default_rng(43)
    found = 0
    for _ in range(50):
        labels, cs = grid_instance(
            rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)), defect=math.pi / 4
        )
        out = align(cs, labels)
        if isinstance(out, Infeasible):
            found += 1
            assert cycle_defect(out.cycle) > 1e-3
    # the defect only bites when the broken constraint closes a cycle
    assert found > 10


def test_align_conflicting_parallel_constraints():
    out = align_phases(constraints((0, 1, 1.0), (0, 1, 1j)), ["a", "b"])
    assert isinstance(out, Infeasible)
    assert out.cycle == [PhaseConstraint("a", "b", 1.0), PhaseConstraint("a", "b", 1j)]
    assert cycle_defect(out.cycle) == pytest.approx(math.pi / 2, abs=1e-12)


THIRD = (1 + 1j) / (2 * math.sqrt(2))


def test_align_three_state_overlap_obstruction():
    # two real overlaps plus one at 45 degrees: defect pi/4 around the triangle
    out = align_phases(constraints((0, 1, 0.5), (1, 2, 0.5), (0, 2, THIRD)), ["a", "b", "c"])
    assert isinstance(out, Infeasible)
    assert [(c.left, c.right) for c in out.cycle] == [("a", "b"), ("b", "c"), ("a", "c")]
    assert cycle_defect(out.cycle) == pytest.approx(math.pi / 4, abs=1e-12)


def test_align_deterministic():
    rng = np.random.default_rng(44)
    labels, cs = grid_instance(rng, 4, 6)
    p1 = align(cs, labels).phases
    p2 = align(cs, labels).phases
    assert p1 == p2


def test_gauge_freedom_of_solutions():
    rng = np.random.default_rng(45)
    labels, cs = grid_instance(rng, 5, 8)
    out = align(cs, labels)
    assert isinstance(out, VersionAssignment)
    # global rotation and per-label sign flips leave all residuals unchanged
    rot = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    signs = {lab: (-1.0 if rng.random() < 0.5 else 1.0) for lab in labels}
    twisted = VersionAssignment(
        {lab: rot * signs[lab] * c for lab, c in out.phases.items()}
    )
    assert versions_satisfy(cs, twisted)


# ------------------------------------------------------------ constraints


def test_assignment_rejects_non_unit_phase():
    with pytest.raises(ValueError, match="unit modulus"):
        VersionAssignment({"a": 2.0})


def test_cycle_defect_rejects_broken_walk():
    cs = [PhaseConstraint("a", "b", 1.0), PhaseConstraint("c", "d", 1.0)]
    with pytest.raises(ValueError, match="closed walk"):
        cycle_defect(cs)


# ------------------------------------------------------------ oracle_align


def test_oracle_matches_align_on_grid_instances():
    rng = np.random.default_rng(46)
    for _ in range(30):
        labels, cs = grid_instance(rng, int(rng.integers(2, 5)), int(rng.integers(1, 8)))
        out = align(cs, labels)
        assert isinstance(out, VersionAssignment)
        _, residual = oracle_align(cs, labels, steps=24)
        assert residual <= 1e-9


def test_oracle_sees_planted_defects():
    rng = np.random.default_rng(47)
    for _ in range(20):
        labels, cs = grid_instance(rng, 3, 4, defect=math.pi / 4)
        out = align(cs, labels)
        _, residual = oracle_align(cs, labels, steps=24)
        feasible = isinstance(out, VersionAssignment)
        assert feasible == (residual <= 1e-5)


def test_oracle_three_state_overlap_best_residual():
    # pi/4 defect spread over three edges: best possible is sin(pi/12),
    # attained on the 360-step grid
    cs = [
        PhaseConstraint("a", "b", 0.5),
        PhaseConstraint("b", "c", 0.5),
        PhaseConstraint("a", "c", THIRD),
    ]
    assignment, residual = oracle_align(cs, ["a", "b", "c"], steps=360)
    assert residual == pytest.approx(math.sin(math.pi / 12), abs=1e-12)
    assert worst_residual(cs, assignment) == pytest.approx(residual, abs=1e-12)


def test_oracle_unconstrained_labels_get_unit_phase():
    cs = [PhaseConstraint("a", "b", 1j)]
    assignment, residual = oracle_align(cs, ["a", "b", "lonely"], steps=8)
    assert assignment.phase("lonely") == 1.0
    assert residual <= 1e-12


def test_align_rejects_unknown_label():
    # align_phases takes the family's labels as given; the reference
    # oracle keeps its own input checks
    with pytest.raises(ValueError, match="unknown label"):
        oracle_align([PhaseConstraint("a", "z", 1.0)], ["a", "b"])
    with pytest.raises(ValueError, match="unique"):
        oracle_align([], ["a", "a"])


def test_oracle_label_budget():
    with pytest.raises(ValueError, match="5 labels"):
        oracle_align([], [f"l{i}" for i in range(6)])


def test_oracle_deterministic():
    rng = np.random.default_rng(48)
    labels, cs = grid_instance(rng, 4, 5)
    a1, r1 = oracle_align(cs, labels, steps=24)
    a2, r2 = oracle_align(cs, labels, steps=24)
    assert r1 == r2 and a1.phases == a2.phases


# ------------------------------------------------- the label-keyed reference


def reference_align(cs, labels):
    """The union-find over PhaseConstraint objects and label-keyed dicts
    that align_phases replaced, kept as a plain reference: same constraint
    order, same union by size, same path compression, same tree path."""
    m = math.pi
    parent = {lab: lab for lab in labels}
    offset = {lab: 0.0 for lab in labels}
    size = {lab: 1 for lab in labels}
    forest = {lab: [] for lab in labels}

    def find(x):
        chain = []
        while parent[x] != x:
            chain.append(x)
            x = parent[x]
        acc = 0.0
        for node in reversed(chain):
            acc = (acc + offset[node]) % m
            parent[node] = x
            offset[node] = acc
        return x, acc

    def tree_path(start, goal):
        if start == goal:
            return []
        prev, queue = {start: None}, deque([start])
        while queue:
            x = queue.popleft()
            if x == goal:
                break
            for y, c in forest[x]:
                if y not in prev:
                    prev[y] = (x, c)
                    queue.append(y)
        path, node = [], goal
        while prev[node] is not None:
            node, c = prev[node]
            path.append(c)
        return path[::-1]

    for c in cs:
        target = (-cmath.phase(c.value)) % m
        root_l, off_l = find(c.left)
        root_r, off_r = find(c.right)
        if root_l == root_r:
            frac = (off_l - off_r - target) % m
            if min(frac, m - frac) > 1e-6:
                return Infeasible(cycle=tree_path(c.left, c.right) + [c])
            continue
        if size[root_l] < size[root_r]:
            parent[root_l] = root_r
            offset[root_l] = (off_r + target - off_l) % m
            size[root_r] += size[root_l]
        else:
            parent[root_r] = root_l
            offset[root_r] = (off_l - target - off_r) % m
            size[root_l] += size[root_r]
        forest[c.left].append((c.right, c))
        forest[c.right].append((c.left, c))
    by_root, angles = {}, {}
    for lab in labels:
        root, angles[lab] = find(lab)
        by_root.setdefault(root, []).append(lab)
    phases = {}
    for members in by_root.values():
        rep = min(members)
        for lab in members:
            phases[lab] = cmath.exp(1j * ((angles[lab] - angles[rep]) % m))
    return VersionAssignment(phases)


def bits(result):
    """A result as exact bits: versions by label, or the cycle's edges."""
    if isinstance(result, Infeasible):
        return [(c.left, c.right, complex(c.value).real.hex(), complex(c.value).imag.hex(),
                 c.atom) for c in result.cycle]
    return {lab: (c.real.hex(), c.imag.hex()) for lab, c in result.phases.items()}


def reference_instances():
    """The grid, planted-defect and three-state instances of the tests above."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        yield grid_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 10)))
    rng = np.random.default_rng(43)
    for _ in range(50):
        yield grid_instance(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)),
                            defect=math.pi / 4)
    rng = np.random.default_rng(46)
    for _ in range(30):
        yield grid_instance(rng, int(rng.integers(2, 5)), int(rng.integers(1, 8)))
    rng = np.random.default_rng(47)
    for _ in range(20):
        yield grid_instance(rng, 3, 4, defect=math.pi / 4)
    three = [PhaseConstraint("a", "b", 0.5), PhaseConstraint("b", "c", 0.5),
             PhaseConstraint("a", "c", THIRD)]
    yield ["a", "b", "c"], three
    # labels out of index order: the first label of a component is not index 0
    yield ["z", "y", "x", "w"], [PhaseConstraint("z", "y", 1j), PhaseConstraint("x", "w", -1j),
                                 PhaseConstraint("y", "x", 0.3 + 0.4j)]


def test_array_path_matches_the_label_reference_bit_for_bit():
    refused = 0
    for labels, cs in reference_instances():
        out, ref = align(cs, labels), reference_align(cs, labels)
        assert type(out) is type(ref)
        assert bits(out) == bits(ref)
        if isinstance(ref, Infeasible):
            refused += 1
            assert out.cycle == ref.cycle
    assert refused > 10


def test_targets_come_from_cmath_phase():
    # np.angle(z) is one ulp below cmath.phase(z) on numpy 2.4, and a target
    # taken from it moves b's version by three ulps; the target must be
    # the argument cmath.phase gives, which cycle_defect reads too
    z = complex(3 / 7, 16 / 11)
    out = align_phases(constraints((0, 1, z)), ["a", "b"])
    ref = reference_align([PhaseConstraint("a", "b", z)], ["a", "b"])
    assert bits(out) == bits(ref)
    angle = (-(-float(np.angle(z)) % math.pi)) % math.pi
    assert (out.phase("b") == cmath.exp(1j * angle)) == (float(np.angle(z)) == cmath.phase(z))


def test_cycle_edges_name_their_atoms():
    cs = Constraints(np.array([0, 1, 0]), np.array([1, 2, 2]),
                     np.array([0.5, 0.5, THIRD]), atom=np.array([3, 0, 2]))
    out = align_phases(cs, ["a", "b", "c"])
    assert [c.atom for c in out.cycle] == [3, 0, 2]
    assert all(type(c.atom) is int for c in out.cycle)
    assert len(cs) == 3
