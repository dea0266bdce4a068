import math

import numpy as np
import pytest

from wsq.harness import GeneratorSpec, generate, gram_schmidt, versions_satisfy
from wsq.linalg import RANK_TOL, gram_matrix, inner
from wsq.phases import PhaseConstraint, VersionAssignment, align_phases, cycle_defect
from wsq.spectral import StateFamily, statistic_from_matrix
from wsq.sufficiency import (
    ConstructedStatistic,
    NonExistence,
    PhaseObstruction,
    RankViolation,
    WitnessFactorization,
    _phase_constraints,
    check_weak_sufficiency,
    decide,
    exists_weakly_sufficient,
    family_constraints,
    statistic_from_directions,
    verify_witness,
)


def numpy_rank(g, tol=RANK_TOL):
    """Eigenvalues of a Gram matrix above tol * max(1, the largest), by numpy."""
    w = np.linalg.eigvalsh(np.asarray(g))
    return int(np.count_nonzero(w > tol * max(1.0, w.max())))


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
    assert violation.atom == 0 and violation.states == ("e1", "e2")


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


def test_constraint_objects_are_built_only_for_a_refusal_cycle(monkeypatch):
    # the decision reads its constraints as arrays; a PhaseConstraint names
    # states by label and is built only for the cycle a refusal returns
    built = []
    init = PhaseConstraint.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhaseConstraint, "__init__", counting)
    t, fam = two_state_qubit()
    assert len(_phase_constraints(decide(t, fam).table.gram, atoms=True)) == 1
    assert check_weak_sufficiency(t, fam).sufficient
    assert isinstance(exists_weakly_sufficient(random_real_family(np.random.default_rng(3), 4, 3)),
                      ConstructedStatistic)
    assert built == []
    s = 1.0 / math.sqrt(2.0)
    crossed = StateFamily(("u", "v"), (np.array([s, s]), np.array([s, 1j * s])))
    refused = check_weak_sufficiency(t, crossed)
    cycle = refused.violations[0].cycle
    assert len(built) == len(cycle) == 2 and cycle_defect(cycle) > 1.0
    built.clear()
    cycle = exists_weakly_sufficient(obstructed_triple()).cycle
    assert len(built) == len(cycle) == 3 and cycle_defect(cycle) > 0.1


def test_construction_decides_existence_once(monkeypatch):
    import wsq.sufficiency as sufficiency

    calls = {"align_phases": 0, "check_weak_sufficiency": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(sufficiency, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sufficiency, name, counting)
    fam = random_real_family(np.random.default_rng(3), 4, 3)
    out = exists_weakly_sufficient(fam)
    assert isinstance(out, ConstructedStatistic)
    assert calls == {"align_phases": 1, "check_weak_sufficiency": 0}
    assert verify_witness(out.statistic, fam, out.witness, tol=1e-9).ok


def greedy_directions(family, tol=RANK_TOL):
    """The earlier construction, as the reference: keep each dressed state
    that raises the numerical rank of the states kept before it, then
    orthonormalize the kept states by Gram-Schmidt."""
    aligned = align_phases(family_constraints(family), family.labels)
    dressed = [aligned.phase(lab) * v for lab, v in zip(family.labels, family.vectors)]
    kept = []
    for vec in dressed:
        if numpy_rank(gram_matrix(kept + [vec]), tol) == len(kept) + 1:
            kept.append(vec)
    ortho, _ = gram_schmidt(kept, tol)
    return np.array(ortho)


@pytest.mark.parametrize("flavor", ["real_vectors", "complex_vectors", "orthogonal_planted"])
def test_one_pass_selection_equals_the_greedy_rank_rule(flavor):
    built = dropped = 0
    for seed in range(60):
        dim = 1 + seed % 6
        n = 1 + seed // 6 % 8 if flavor != "orthogonal_planted" else 1 + seed // 6 % dim
        _, family = generate(GeneratorSpec(dim=dim, n_states=n, flavor=flavor, seed=seed))
        out = exists_weakly_sufficient(family)
        if isinstance(out, NonExistence):
            continue
        reference = greedy_directions(family)
        assert out.directions.shape == reference.shape, seed
        assert np.abs(out.directions - reference).max() <= 1e-12, seed
        assert len(out.statistic) == len(reference) + (len(reference) < dim)
        built += 1
        dropped += len(family) - len(reference)
    assert built >= 20
    assert dropped > 0 or flavor == "orthogonal_planted"


def test_statistic_from_directions_numbers_the_directions():
    s = 1.0 / math.sqrt(2.0)
    rows = np.array([[s, s, 0.0], [s, -s, 0.0]], dtype=complex)
    t = statistic_from_directions(rows)
    assert list(t.eigenvalues) == [0.0, 1.0, 2.0]
    assert np.allclose(t.projections[0], np.diag([0.0, 0.0, 1.0]), atol=1e-15)
    assert np.allclose(t.projections[1] @ rows[0], rows[0], atol=1e-15)
    full = statistic_from_directions(np.eye(2, dtype=complex))
    assert list(full.eigenvalues) == [1.0, 2.0]
    with pytest.raises(ValueError, match="not orthogonal"):
        statistic_from_directions(np.array([[1.0, 0.0], [s, s]], dtype=complex))


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
    w = check_weak_sufficiency(t, fam).witness
    del w.functions["phi1"][-1.0]
    with pytest.raises(ValueError, match="'phi1' has no value for eigenvalue -1.0"):
        verify_witness(t, fam, w)
    w = check_weak_sufficiency(t, fam).witness
    w.chi = np.append(w.chi, 0.0)
    with pytest.raises(ValueError, match="chi has dimension 3, the statistic 2"):
        verify_witness(t, fam, w)
    w.chi = 0.5   # a plain record takes any chi; the check reads it as a vector
    with pytest.raises(ValueError, match="chi has dimension 1, the statistic 2"):
        verify_witness(t, fam, w)


def test_tampered_witness_fails_verification():
    t, fam = two_state_qubit()
    w = check_weak_sufficiency(t, fam).witness
    w.functions["phi1"][1.0] += 0.1
    check = verify_witness(t, fam, w)
    assert not check.ok
    assert check.residuals["phi1"] > 0.05
    # the one product against a state-by-state, atom-by-atom evaluation
    for lab, phi in zip(fam.labels, fam.vectors):
        reached = sum(w.functions[lab][lam] * (p @ w.chi)
                      for lam, p in zip(t.eigenvalues, t.projections))
        expected = np.linalg.norm(reached - w.versions.phase(lab) * phi)
        assert check.residuals[lab] == pytest.approx(expected, abs=1e-14)


def test_a_zero_chi_is_refused_by_its_residual_not_raised():
    # no rule of its own: f(T) 0 = 0 leaves each state its whole norm
    t, fam = two_state_qubit()
    w = check_weak_sufficiency(t, fam).witness
    w.chi = np.zeros(2)
    check = verify_witness(t, fam, w)
    assert not check.ok
    assert check.residuals == pytest.approx({"phi1": 1.0, "phi2": 1.0}, abs=1e-15)
    assert WitnessFactorization([0j, 0j], w.functions, w.versions).chi == [0j, 0j]


def test_check_rejects_dimension_mismatch():
    t = statistic_from_matrix(np.diag([1.0, -1.0]))
    fam = StateFamily(("a",), (np.array([1.0, 0, 0]),))
    with pytest.raises(ValueError, match="dimension"):
        check_weak_sufficiency(t, fam)


# ----------------------------------------------------------------- decide


def test_analysis_factors_each_atom():
    rng = np.random.default_rng(81)
    fam = random_real_family(rng, 5, 3)
    built = exists_weakly_sufficient(fam)
    t = built.statistic
    decision = decide(t, fam)
    comps = decision.table.components
    for k, is_active in enumerate(decision.active):
        assert is_active == (numpy_rank(decision.table.gram[k]) >= 1)
        if not is_active:
            assert np.abs(decision.gamma[k]).max() <= 1e-9
            continue
        xi = decision.xi[k]
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-12
        for i in range(len(fam)):
            assert np.abs(comps[k, i] - decision.gamma[k, i] * xi).max() <= 1e-9
    active = sorted(decision.xi)
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            assert abs(inner(decision.xi[active[a]], decision.xi[active[b]])) <= 1e-9


@pytest.mark.parametrize("w", [5e-9, 8e-9])
def test_witness_covers_an_atom_loaded_below_the_rank_tolerance(w):
    # states (sqrt(1 - w), +-sqrt(w)) on T = diag(1, 2): no state loads atom 1
    # above tol, though their total (2w = 1.6e-8 at w = 8e-9) may; the
    # witness still covers it, from its heaviest state's column
    t = statistic_from_matrix(np.diag([1.0, 2.0]))
    a, b = np.sqrt(1.0 - w), np.sqrt(w)
    fam = StateFamily(("p", "m"), (np.array([a, b]), np.array([a, -b])))
    decision = decide(t, fam)
    assert decision.active == (True, False) and sorted(decision.xi) == [0, 1]
    assert np.array_equal(decision.xi[1], decision.table.components[1, 0] / b)
    verdict = decision.verdict()
    assert verdict.sufficient
    assert verify_witness(t, fam, verdict.witness).max_residual <= 1e-15


def test_analysis_gram_stack_matches_the_components():
    rng = np.random.default_rng(82)
    t = statistic_from_matrix(np.diag([1.0, 1.0, 2.0, 3.0, 3.0]))
    vecs = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    fam = StateFamily(("a", "b", "c"), tuple(v / np.linalg.norm(v) for v in vecs))
    table = decide(t, fam).table
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
    decision = decide(t, fam)
    comps = decision.table.components
    assert [numpy_rank(gram_matrix(comps[k])) for k in range(len(t))] == [1, 2]
    assert decision.violations == [RankViolation(atom=1, states=("p", "q"))]
    assert decision.active == (True, True)
    expected = [
        (fam.labels[i], fam.labels[j], k)
        for k in range(len(t))
        for i in range(len(fam))
        for j in range(i + 1, len(fam))
        if abs(inner(comps[k, i], comps[k, j])) > 1e-10
    ]
    cs = _phase_constraints(decision.table.gram, atoms=True)
    found = list(zip(cs.left.tolist(), cs.right.tolist(), cs.atom.tolist()))
    assert [(fam.labels[i], fam.labels[j], k) for i, j, k in found] == expected
    for (i, j, k), value in zip(found, cs.value):
        assert abs(value - inner(comps[k, i], comps[k, j])) <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_analysis_rank_classes_match_numerical_rank(seed):
    # atoms of rank 0 (weight 1e-12, below the cutoff), 1, 2 and 3 (full for
    # three states), read without an eigensolve
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
    decision = decide(t, fam)
    comps = decision.table.components
    ranks = [numpy_rank(gram_matrix(comps[k])) for k in range(len(t))]
    assert [ranks[k] for k in np.argsort(t.eigenvalues)] == [0, 1, 2, 3]
    assert decision.active == tuple(rank >= 1 for rank in ranks)
    assert [v.atom for v in decision.violations] == [k for k, rank in enumerate(ranks) if rank >= 2]
    for v in decision.violations:
        i, j = (fam.labels.index(label) for label in v.states)
        assert i < j and numpy_rank(gram_matrix(comps[v.atom][[i, j]])) == 2


def test_decision_is_the_verdict_without_its_witness():
    rank_case = (statistic_from_matrix(np.diag([1.0, 1.0, 2.0])),
                 StateFamily(("e1", "e2"), (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))))
    phase_case = (statistic_from_matrix(np.diag([1.0, -1.0])),
                  StateFamily(("a", "b"), (np.array([1.0, 1.0]) / np.sqrt(2),
                                           np.array([1.0, 1.0j]) / np.sqrt(2))))
    for t, fam in (two_state_qubit(), rank_case, phase_case):
        decision = decide(t, fam)
        verdict = decision.verdict()
        assert verdict.violations == decision.violations
        assert (decision.versions is None) == bool(decision.violations) == (not verdict.sufficient)
        if decision.versions is not None:
            assert decision.versions.phases == verdict.witness.versions.phases


def test_check_is_deterministic():
    t, fam = two_state_qubit()
    w1 = check_weak_sufficiency(t, fam).witness
    w2 = check_weak_sufficiency(t, fam).witness
    assert np.array_equal(w1.chi, w2.chi)
    assert w1.functions == w2.functions
    assert w1.versions.phases == w2.versions.phases
