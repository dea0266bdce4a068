import math

import numpy as np
import pytest

from wsq.linalg import gram_matrix, inner, numerical_rank
from wsq.phases import (
    PhaseConstraint,
    VersionAssignment,
    cycle_defect,
    versions_satisfy,
)
from wsq.spectral import StateFamily, statistic_from_matrix
from wsq.sufficiency import (
    ConstructedStatistic,
    NonExistence,
    PhaseObstruction,
    RankViolation,
    WitnessFactorization,
    analyze,
    check_weak_sufficiency,
    exists_weakly_sufficient,
    verify_witness,
)


def two_state_qubit():
    """diag(1, -1) with one basis state and one diagonal state."""
    t = statistic_from_matrix(np.diag([1.0, -1.0]))
    fam = StateFamily(
        ("phi1", "phi2"),
        (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)),
    )
    return t, fam


def random_real_family(rng, d, n):
    vecs = []
    for _ in range(n):
        v = rng.normal(size=d)
        vecs.append(v / np.linalg.norm(v))
    return StateFamily(tuple(f"s{i}" for i in range(n)), tuple(vecs))


def obstructed_triple():
    """Three states whose pairwise overlaps force an inconsistent phase cycle."""
    return StateFamily(
        ("p1", "p2", "p3"),
        (
            np.array([1.0, 0.0]),
            np.array([1.0, 1.0]) / np.sqrt(2),
            np.array([1.0, 1.0j]) / np.sqrt(2),
        ),
    )


# ------------------------------------------------- check_weak_sufficiency


def test_two_state_qubit_is_sufficient():
    t, fam = two_state_qubit()
    verdict = check_weak_sufficiency(t, fam)
    assert verdict.sufficient
    assert verdict.violations == []
    check = verify_witness(t, fam, verdict.witness, tol=1e-12)
    assert check.ok and check.max_residual <= 1e-12


def test_two_state_qubit_witness_in_closed_form():
    t, fam = two_state_qubit()
    w = check_weak_sufficiency(t, fam).witness
    assert w.chi == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2), abs=1e-12)
    assert w.functions["phi1"] == pytest.approx({-1.0: 0.0, 1.0: np.sqrt(2)})
    assert w.functions["phi2"] == pytest.approx({-1.0: 1.0, 1.0: 1.0})
    assert w.versions.phase("phi1") == 1.0
    assert w.versions.phase("phi2") == 1.0


def test_hand_built_witness_verifies():
    t, fam = two_state_qubit()
    w = WitnessFactorization(
        chi=np.array([1.0, 1.0]) / np.sqrt(2),
        functions={
            "phi1": {1.0: np.sqrt(2), -1.0: 0.0},
            "phi2": {1.0: 1.0, -1.0: 1.0},
        },
        versions=VersionAssignment({"phi1": 1.0, "phi2": 1.0}),
    )
    check = verify_witness(t, fam, w, tol=1e-12)
    assert check.ok


def test_merged_atom_rank_violation():
    t = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]))
    fam = StateFamily(
        ("e1", "e2"),
        (np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
    )
    verdict = check_weak_sufficiency(t, fam)
    assert not verdict.sufficient
    assert verdict.witness is None
    [violation] = verdict.violations
    assert isinstance(violation, RankViolation)
    assert violation.atom == 0 and violation.dim == 2


def test_phase_obstruction_is_statistic_relative():
    # for diag(1, -1) the two atoms demand incompatible relative phases...
    t = statistic_from_matrix(np.diag([1.0, -1.0]))
    fam = StateFamily(
        ("a", "b"),
        (np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, 1.0j]) / np.sqrt(2)),
    )
    verdict = check_weak_sufficiency(t, fam)
    assert not verdict.sufficient
    [violation] = verdict.violations
    assert isinstance(violation, PhaseObstruction)
    assert cycle_defect(violation.cycle) == pytest.approx(math.pi / 2, abs=1e-12)
    # ...yet the family alone admits a different sufficient statistic
    built = exists_weakly_sufficient(fam)
    assert isinstance(built, ConstructedStatistic)
    assert verify_witness(built.statistic, fam, built.witness).ok


# ------------------------------------------------ exists_weakly_sufficient


def test_obstructed_triple_has_no_sufficient_statistic():
    out = exists_weakly_sufficient(obstructed_triple())
    assert isinstance(out, NonExistence)
    assert cycle_defect(out.cycle) == pytest.approx(math.pi / 4, abs=1e-12)


def test_construction_on_random_real_families():
    rng = np.random.default_rng(77)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        fam = random_real_family(rng, d, n)
        out = exists_weakly_sufficient(fam)
        assert isinstance(out, ConstructedStatistic)
        verdict = check_weak_sufficiency(out.statistic, fam)
        assert verdict.sufficient
        assert verify_witness(out.statistic, fam, out.witness, tol=1e-9).ok
        evs = out.statistic.eigenvalues
        r = int(evs[-1])
        expected = list(range(1, r + 1)) if evs[0] == 1.0 else list(range(r + 1))
        assert list(evs) == [float(x) for x in expected]


def test_single_state_sufficient_for_any_statistic():
    rng = np.random.default_rng(78)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = statistic_from_matrix(0.5 * (a + a.conj().T))
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        fam = StateFamily(("only",), (v / np.linalg.norm(v),))
        verdict = check_weak_sufficiency(t, fam)
        assert verdict.sufficient
        assert verify_witness(t, fam, verdict.witness).ok


def test_verdicts_are_version_invariant():
    rng = np.random.default_rng(79)
    fam = random_real_family(rng, 4, 3)
    built = exists_weakly_sufficient(fam)
    assert isinstance(built, ConstructedStatistic)
    for _ in range(20):
        dressing = np.exp(1j * rng.uniform(0, 2 * math.pi, size=3))
        dressed = StateFamily(
            fam.labels, tuple(c * v for c, v in zip(dressing, fam.vectors))
        )
        verdict = check_weak_sufficiency(built.statistic, dressed)
        assert verdict.sufficient
        assert verify_witness(built.statistic, dressed, verdict.witness).ok
    # a phase dressing cannot cure an obstructed family either
    tri = obstructed_triple()
    dressing = np.exp(1j * rng.uniform(0, 2 * math.pi, size=3))
    dressed_tri = StateFamily(
        tri.labels, tuple(c * v for c, v in zip(dressing, tri.vectors))
    )
    assert isinstance(exists_weakly_sufficient(dressed_tri), NonExistence)


def test_sufficient_versions_make_the_full_gram_real():
    rng = np.random.default_rng(80)
    for _ in range(10):
        fam = random_real_family(rng, 5, 4)
        dressing = np.exp(1j * rng.uniform(0, 2 * math.pi, size=4))
        fam = StateFamily(
            fam.labels, tuple(c * v for c, v in zip(dressing, fam.vectors))
        )
        built = exists_weakly_sufficient(fam)
        verdict = check_weak_sufficiency(built.statistic, fam)
        assert verdict.sufficient
        constraints = []
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                v = inner(fam.vectors[i], fam.vectors[j])
                if abs(v) > 1e-10:
                    constraints.append(
                        PhaseConstraint(fam.labels[i], fam.labels[j], v)
                    )
        assert versions_satisfy(constraints, verdict.witness.versions, 1e-6)


# ----------------------------------------------------------- verification


def test_verify_witness_requires_all_labels():
    t, fam = two_state_qubit()
    w = check_weak_sufficiency(t, fam).witness
    del w.functions["phi2"]
    with pytest.raises(ValueError, match="no function for state 'phi2'"):
        verify_witness(t, fam, w)


def test_tampered_witness_fails_verification():
    t, fam = two_state_qubit()
    w = check_weak_sufficiency(t, fam).witness
    w.functions["phi1"][1.0] += 0.1
    check = verify_witness(t, fam, w)
    assert not check.ok
    assert check.residuals["phi1"] > 0.05


def test_check_rejects_dimension_mismatch():
    t = statistic_from_matrix(np.diag([1.0, -1.0]))
    fam = StateFamily(("a",), (np.array([1.0, 0, 0]),))
    with pytest.raises(ValueError, match="dimension"):
        check_weak_sufficiency(t, fam)


# ---------------------------------------------------------------- analyze


def test_analysis_factors_each_atom():
    rng = np.random.default_rng(81)
    fam = random_real_family(rng, 5, 3)
    built = exists_weakly_sufficient(fam)
    t = built.statistic
    analysis = analyze(t, fam)
    comps = analysis.table.components
    for k, is_active in enumerate(analysis.active):
        assert is_active == (analysis.ranks[k] >= 1)
        if not is_active:
            assert np.abs(analysis.gamma[k]).max() <= 1e-9
            continue
        xi = analysis.xi[k]
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-12
        for i in range(len(fam)):
            assert np.abs(comps[k, i] - analysis.gamma[k, i] * xi).max() <= 1e-9
    active = sorted(analysis.xi)
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            assert abs(inner(analysis.xi[active[a]], analysis.xi[active[b]])) <= 1e-9


def test_analysis_gram_stack_matches_the_components():
    rng = np.random.default_rng(82)
    t = statistic_from_matrix(np.diag([1.0, 1.0, 2.0, 3.0, 3.0]))
    vecs = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    fam = StateFamily(("a", "b", "c"), tuple(v / np.linalg.norm(v) for v in vecs))
    table = analyze(t, fam).table
    for k in range(len(t)):
        assert np.abs(table.gram[k] - gram_matrix(table.components[k])).max() <= 1e-12
        assert np.array_equal(np.diagonal(table.gram[k]).real, table.weights[:, k])


def test_analysis_ranks_and_constraints_match_the_loop_reference():
    t = statistic_from_matrix(np.diag([1.0, 1.0, -1.0]))
    fam = StateFamily(
        ("p", "q", "r"),
        (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
         np.array([1.0, 1.0j, 1.0]) / np.sqrt(3)),
    )
    analysis = analyze(t, fam)
    comps = analysis.table.components
    assert analysis.ranks == tuple(numerical_rank(comps[k]) for k in range(len(t)))
    assert analysis.ranks == (1, 2)
    expected = [
        (fam.labels[i], fam.labels[j], k)
        for k in range(len(t))
        for i in range(len(fam))
        for j in range(i + 1, len(fam))
        if abs(inner(comps[k, i], comps[k, j])) > 1e-10
    ]
    assert [(c.left, c.right, c.atom) for c in analysis.constraints] == expected
    for c in analysis.constraints:
        k, i, j = c.atom, fam.index(c.left), fam.index(c.right)
        assert abs(c.value - inner(comps[k, i], comps[k, j])) <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_analysis_rank_classes_match_numerical_rank(seed):
    # atoms of rank 0 (weight 1e-12, below the cutoff), 1, 2 and 3 (full for
    # three states), read without an eigensolve except for ranks 2 and 3
    rng = np.random.default_rng(90 + seed)
    raw = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    basis, _ = np.linalg.qr(raw)
    blocks = [basis[:, :1], basis[:, 1:3], basis[:, 3:6], basis[:, 6:]]
    t = statistic_from_matrix(sum(k * (b @ b.conj().T) for k, b in enumerate(blocks)))

    def coef(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    line = blocks[1] @ coef(2)
    vecs = []
    for _ in range(3):
        v = (1e-6 * blocks[0][:, 0] + coef(1)[0] * line
             + blocks[2][:, :2] @ coef(2) + blocks[3] @ coef(3))
        vecs.append(v / np.linalg.norm(v))
    fam = StateFamily(("a", "b", "c"), tuple(vecs))
    analysis = analyze(t, fam)
    comps = analysis.table.components
    order = np.argsort(t.eigenvalues)
    assert analysis.ranks == tuple(numerical_rank(comps[k]) for k in range(len(t)))
    assert [analysis.ranks[k] for k in order] == [0, 1, 2, 3]


def test_decision_is_the_verdict_without_its_witness():
    rank_case = (statistic_from_matrix(np.diag([1.0, 1.0, 2.0])),
                 StateFamily(("e1", "e2"), (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))))
    phase_case = (statistic_from_matrix(np.diag([1.0, -1.0])),
                  StateFamily(("a", "b"), (np.array([1.0, 1.0]) / np.sqrt(2),
                                           np.array([1.0, 1.0j]) / np.sqrt(2))))
    for t, fam in (two_state_qubit(), rank_case, phase_case):
        analysis = analyze(t, fam)
        violations, versions = analysis.decide()
        verdict = analysis.verdict()
        assert verdict.violations == violations
        assert (versions is None) == bool(violations) == (not verdict.sufficient)
        if versions is not None:
            assert versions.phases == verdict.witness.versions.phases


def test_check_is_deterministic():
    t, fam = two_state_qubit()
    w1 = check_weak_sufficiency(t, fam).witness
    w2 = check_weak_sufficiency(t, fam).witness
    assert np.array_equal(w1.chi, w2.chi)
    assert w1.functions == w2.functions
    assert w1.versions.phases == w2.versions.phases
