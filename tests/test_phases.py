import cmath
import math

import numpy as np
import pytest

from wsq.harness import oracle_align, versions_satisfy, worst_residual
from wsq.phases import (
    Infeasible,
    PhaseConstraint,
    VersionAssignment,
    align_phases,
    cycle_defect,
)


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
    cs = [PhaseConstraint("a", "b", 1j)]
    out = align_phases(cs, ["a", "b"])
    assert isinstance(out, VersionAssignment)
    assert out.phase("a") == 1.0
    dressed = out.phase("a") * np.conj(out.phase("b")) * 1j
    assert abs(dressed.imag) <= 1e-12


def test_align_accepts_negative_real_values():
    # real of either sign counts as aligned: the modulus is pi, not 2 pi
    cs = [PhaseConstraint("a", "b", -2.0)]
    out = align_phases(cs, ["a", "b"])
    assert isinstance(out, VersionAssignment)
    assert out.phase("b") == pytest.approx(1.0)


def test_align_consistent_grid_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        labels, cs = grid_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 10)))
        out = align_phases(cs, labels)
        assert isinstance(out, VersionAssignment)
        assert worst_residual(cs, out) <= 1e-9


def test_align_planted_defect_yields_cycle():
    rng = np.random.default_rng(43)
    found = 0
    for _ in range(50):
        labels, cs = grid_instance(
            rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)), defect=math.pi / 4
        )
        out = align_phases(cs, labels)
        if isinstance(out, Infeasible):
            found += 1
            assert cycle_defect(out.cycle) > 1e-3
    # the defect only bites when the broken constraint closes a cycle
    assert found > 10


def test_align_conflicting_parallel_constraints():
    cs = [PhaseConstraint("a", "b", 1.0), PhaseConstraint("a", "b", 1j)]
    out = align_phases(cs, ["a", "b"])
    assert isinstance(out, Infeasible)
    assert len(out.cycle) == 2
    assert cycle_defect(out.cycle) == pytest.approx(math.pi / 2, abs=1e-12)


def test_align_three_state_overlap_obstruction():
    # two real overlaps plus one at 45 degrees: defect pi/4 around the triangle
    cs = [
        PhaseConstraint("a", "b", 0.5),
        PhaseConstraint("b", "c", 0.5),
        PhaseConstraint("a", "c", (1 + 1j) / (2 * math.sqrt(2))),
    ]
    out = align_phases(cs, ["a", "b", "c"])
    assert isinstance(out, Infeasible)
    assert cycle_defect(out.cycle) == pytest.approx(math.pi / 4, abs=1e-12)


def test_align_deterministic():
    rng = np.random.default_rng(44)
    labels, cs = grid_instance(rng, 4, 6)
    p1 = align_phases(cs, labels).phases
    p2 = align_phases(cs, labels).phases
    assert p1 == p2


def test_gauge_freedom_of_solutions():
    rng = np.random.default_rng(45)
    labels, cs = grid_instance(rng, 5, 8)
    out = align_phases(cs, labels)
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
        out = align_phases(cs, labels)
        assert isinstance(out, VersionAssignment)
        _, residual = oracle_align(cs, labels, steps=24)
        assert residual <= 1e-9


def test_oracle_sees_planted_defects():
    rng = np.random.default_rng(47)
    for _ in range(20):
        labels, cs = grid_instance(rng, 3, 4, defect=math.pi / 4)
        out = align_phases(cs, labels)
        _, residual = oracle_align(cs, labels, steps=24)
        feasible = isinstance(out, VersionAssignment)
        assert feasible == (residual <= 1e-5)


def test_oracle_three_state_overlap_best_residual():
    # pi/4 defect spread over three edges: best possible is sin(pi/12),
    # attained on the 360-step grid
    cs = [
        PhaseConstraint("a", "b", 0.5),
        PhaseConstraint("b", "c", 0.5),
        PhaseConstraint("a", "c", (1 + 1j) / (2 * math.sqrt(2))),
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
