import itertools
import json
import math
import sys

import numpy as np
import pytest

from wsq import linalg, minimality, spectral, sufficiency
from wsq.harness import dead_atom_counterexamples, gram_schmidt, is_function_of
from wsq.linalg import RANK_TOL, gram_matrix, hermitian_part, pair_rank_two
from wsq.fileio import make_certificate, serialize_instance, verify_certificate
from wsq.minimality import (
    AtomClasses,
    MinimalStatistic,
    NoMinimalExists,
    check_coarse_sufficient,
    enumerate_coarse_grainings,
    equivalence_classes,
    minimal_statistic,
    statistic_from_partition,
)
from wsq.spectral import CoarseMap, DiscreteStatistic, StateFamily, apply_coarse, statistic_from_matrix
from wsq.sufficiency import (
    build_witness,
    check_weak_sufficiency,
    decide,
    exists_weakly_sufficient,
    tolerances,
    verify_witness,
)


def numpy_rank(g, tol=RANK_TOL):
    """Eigenvalues of a Gram matrix above tol * max(1, the largest), by numpy."""
    w = np.linalg.eigvalsh(np.asarray(g))
    return int(np.count_nonzero(w > tol * max(1.0, w.max())))


def patch_every_binding(monkeypatch, original, replacement):
    """Replace a wsq function in every wsq module that imported it."""
    for name, module in list(sys.modules.items()):
        if name == "wsq" or name.startswith("wsq."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def count_eigensolves(monkeypatch):
    """Record the size of every hermitian_eig call, whichever binding makes it."""
    calls = []
    original = linalg.hermitian_eig

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m)[0])
        return original(m, *args, **kwargs)

    patch_every_binding(monkeypatch, original, counting)
    return calls


def count_kernel_runs(monkeypatch):
    """Record the shape of every matrix the eigen kernel solves."""
    calls = []
    original = linalg._eigen

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eigen", counting)
    return calls


def two_plus_one_instance():
    """Three basis atoms; the first two carry the same state, the third another."""
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    fam = StateFamily(
        ("s0", "s1"),
        (np.array([1.0, 1.0, 0.0]) / np.sqrt(2), np.array([0.0, 0.0, 1.0])),
    )
    return t, fam


def planted_instance(rng, dims, coeff):
    """Statistic over a random basis with one state direction per atom.

    dims gives the rank of each atom; coeff is a real (atoms x states)
    matrix of combination coefficients, so gamma rows are proportional
    exactly when coeff rows are.  Zero rows plant dead atoms.
    """
    coeff = np.asarray(coeff, dtype=float)
    d = int(sum(dims))
    raw = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(d)]
    basis, _ = gram_schmidt(raw)
    projections, directions = [], []
    start = 0
    for dim in dims:
        block = basis[start : start + dim]
        start += dim
        proj = sum(hermitian_part(np.outer(b, b.conj())) for b in block)
        projections.append(hermitian_part(proj))
        mix = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        eta = sum(c * b for c, b in zip(mix, block))
        directions.append(eta / np.linalg.norm(eta))
    t = DiscreteStatistic(
        np.arange(1.0, len(dims) + 1.0), tuple(projections)
    )
    states = []
    for j in range(coeff.shape[1]):
        v = sum(coeff[k, j] * directions[k] for k in range(len(dims)))
        states.append(v / np.linalg.norm(v))
    fam = StateFamily(tuple(f"s{j}" for j in range(coeff.shape[1])), tuple(states))
    return t, fam


# ------------------------------------------------------ equivalence_classes


def test_classes_of_worked_example():
    t, fam = two_plus_one_instance()
    classes = equivalence_classes(decide(t, fam))
    assert classes.classes == [(0, 1), (2,)]
    # s0 loads atom 0 and s1 atom 2: independent on the merged atom
    assert classes.separations == [((0, 2), ("s0", "s1"))]


def test_complex_proportionality_factor_is_accepted():
    # atoms 0 and 1 see the same real row up to the factor i, atom 2 its own
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    fam = StateFamily(
        ("s0", "s1"),
        (np.array([1.0, 1.0j, 1.0]) / np.sqrt(3), np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)),
    )
    decision = decide(t, fam)
    classes = equivalence_classes(decision)
    assert classes.classes == [(0, 1), (2,)]
    assert classes.separations == [((0, 2), ("s0", "s1"))]


@pytest.mark.parametrize("rows", [
    ([1.0, 2.0j, 0.5], [0.5j - 0.5, -1.0 - 1.0j, 0.25j - 0.25]),   # factor (i - 1) / 2
    ([1.0, 0.0, 1.0j], [0.0, 1.0, 1.0]),                           # independent
    ([1.0, 0.99999, 0.0], [1.0, 1.0, 0.0]),        # lo = 2.5e-11: split only at 1e-12
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [0.3, 0.0, 1.0j]),
])
def test_closed_form_pair_test_agrees_with_numerical_rank(rows):
    gamma = np.array(rows, dtype=complex)
    for tol in (1e-8, 1e-12):
        split = pair_rank_two(gamma @ gamma.conj().T, tol)
        assert split.shape == (1,)   # one pair of states
        assert (not split[0]) == (numpy_rank(gram_matrix(gamma), tol) <= 1)


# -------------------------------------------------------------- work counts


def test_classes_make_no_eigensolver_call(monkeypatch):
    t, fam = two_plus_one_instance()
    decision = decide(t, fam)
    calls = count_eigensolves(monkeypatch)
    assert equivalence_classes(decision).classes == [(0, 1), (2,)]
    assert calls == []


def test_sufficiency_checks_run_no_kernel(monkeypatch):
    rng = np.random.default_rng(64)
    coeff = np.array([[1.0, 2.0], [-2.0, -4.0], [1.0, 0.0], [0.0, 1.0]])
    t, fam = planted_instance(rng, (1, 1, 2, 1), coeff)
    # atoms {0, 1} and {2, 3} each see two independent states, atom {4} one
    refused = statistic_from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0]))
    basis = np.eye(5)
    spread = StateFamily(("a", "b", "c", "d"),
                         (basis[0], basis[1], (basis[2] + basis[4]) / np.sqrt(2), basis[3]))
    # diag(1, -1) demands incompatible relative phases of u and v
    twisted = statistic_from_matrix(np.diag([1.0, -1.0]))
    s = 1.0 / np.sqrt(2.0)
    cycle = StateFamily(("u", "v"), (np.array([s, s]), np.array([s, 1j * s])))
    lone = count_eigensolves(monkeypatch)
    runs = count_kernel_runs(monkeypatch)
    assert check_weak_sufficiency(t, fam).sufficient
    merge_first_two = CoarseMap({1.0: 1.0, 2.0: 1.0, 3.0: 2.0, 4.0: 3.0})
    assert check_coarse_sufficient(t, fam, merge_first_two)
    assert not check_coarse_sufficient(t, fam, CoarseMap({1.0: 1.0, 2.0: 2.0, 3.0: 1.0, 4.0: 3.0}))
    verdict = check_weak_sufficiency(refused, spread)
    assert [(v.atom, v.states) for v in verdict.violations] == [(0, ("a", "b")), (1, ("c", "d"))]
    assert decide(refused, spread).violations == verdict.violations
    assert [type(v).__name__ for v in check_weak_sufficiency(twisted, cycle).violations] == \
        ["PhaseObstruction"]
    assert lone == [] and runs == []


def test_coarse_check_builds_no_witness_and_minimal_builds_one(monkeypatch):
    built = []
    original = sufficiency.build_witness

    def counting(t, *args, **kwargs):
        built.append(len(t))
        return original(t, *args, **kwargs)

    patch_every_binding(monkeypatch, original, counting)
    t, fam = two_plus_one_instance()
    verdicts = [check_coarse_sufficient(t, fam, cmap) for cmap in enumerate_coarse_grainings(t)]
    assert verdicts == [False, True, False, False, True]
    assert built == []
    # the one witness is that of the two-atom minimal statistic
    assert minimal_statistic(t, fam).partition == [[0, 1], [2]]
    assert built == [2]


def test_witness_directions_are_computed_only_for_a_witness(monkeypatch):
    calls = []
    original = sufficiency.atom_directions

    def counting(table, *args, **kwargs):
        calls.append(len(table.gram))
        return original(table, *args, **kwargs)

    patch_every_binding(monkeypatch, original, counting)
    rng = np.random.default_rng(66)
    coeff = [[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.3, -1.0, 1.0], [0.0, 0.0, 0.0]]
    t, fam = planted_instance(rng, (1, 2, 1, 1), coeff)
    decision = decide(t, fam)
    maps = list(enumerate_coarse_grainings(t))
    assert sum(check_coarse_sufficient(t, fam, cmap) for cmap in maps) == 7
    assert sum(decision.coarse_sufficient(cmap) for cmap in maps) == 7
    assert calls == []
    # a check refused by an atom of rank 2 or by a phase cycle computes none
    basis, s = np.eye(3), 1.0 / np.sqrt(2.0)
    spread = StateFamily(("e1", "e2"), (basis[0], basis[1]))
    assert not check_weak_sufficiency(statistic_from_matrix(np.diag([1.0, 1.0, 2.0])),
                                      spread).sufficient
    cycle = StateFamily(("u", "v"), (np.array([s, s]), np.array([s, 1j * s])))
    assert not check_weak_sufficiency(statistic_from_matrix(np.diag([1.0, -1.0])),
                                      cycle).sufficient
    assert calls == []
    # a sufficient one computes exactly one, on t's own table
    assert check_weak_sufficiency(t, fam).sufficient
    assert calls == [4]


def test_coarse_check_does_not_rerun_the_weak_check(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("check_weak_sufficiency called")

    patch_every_binding(monkeypatch, sufficiency.check_weak_sufficiency, forbidden)
    t, fam = two_plus_one_instance()
    assert check_coarse_sufficient(t, fam, CoarseMap({1.0: 10.0, 2.0: 10.0, 3.0: 20.0}))


def test_coarse_check_builds_no_statistic(monkeypatch):
    t, fam = two_plus_one_instance()
    built = []
    original = DiscreteStatistic.__post_init__

    def counting(self):
        built.append(len(self.eigenvalues))
        original(self)

    monkeypatch.setattr(DiscreteStatistic, "__post_init__", counting)
    verdicts = [check_coarse_sufficient(t, fam, cmap) for cmap in enumerate_coarse_grainings(t)]
    assert verdicts == [False, True, False, False, True]
    assert built == []
    with pytest.raises(ValueError, match="no value for eigenvalue"):
        check_coarse_sufficient(t, fam, CoarseMap({1.0: 10.0, 2.0: 10.0}))
    apply_coarse(t, CoarseMap({1.0: 10.0, 2.0: 10.0, 3.0: 20.0}))
    assert built == [2]


def test_coarse_check_takes_no_classes_and_projects_only_t(monkeypatch):
    # f(T)'s Gram stack is a block sum of T's: T is projected once per
    # map, and neither the classes nor a coarse statistic are reached
    calls = {"equivalence_classes": [], "project_states": []}
    for module, name in ((minimality, "equivalence_classes"), (spectral, "project_states")):
        def recording(first, *args, name=name, original=getattr(module, name), **kwargs):
            calls[name].append(first)
            return original(first, *args, **kwargs)

        patch_every_binding(monkeypatch, getattr(module, name), recording)
    t, fam = two_plus_one_instance()
    verdicts = [check_coarse_sufficient(t, fam, cmap) for cmap in enumerate_coarse_grainings(t)]
    assert verdicts == [False, True, False, False, True]
    assert calls["equivalence_classes"] == []
    assert [s is t for s in calls["project_states"]] == [True] * 5


# -------------------------------------------------- check_coarse_sufficient


def test_merging_within_a_class_is_harmless():
    t, fam = two_plus_one_instance()
    assert check_coarse_sufficient(t, fam, CoarseMap({1.0: 10.0, 2.0: 10.0, 3.0: 20.0}))


def test_merging_across_classes_destroys_sufficiency():
    t, fam = two_plus_one_instance()
    assert not check_coarse_sufficient(t, fam, CoarseMap({1.0: 1.0, 2.0: 2.0, 3.0: 2.0}))


def test_coarse_check_agrees_with_direct_recheck():
    rng = np.random.default_rng(60)
    coeff = np.array([[1.0, 2.0], [-2.0, -4.0], [1.0, 0.0], [0.0, 1.0]])
    t, fam = planted_instance(rng, (1, 1, 2, 1), coeff)
    assert check_weak_sufficiency(t, fam).sufficient
    for cmap in enumerate_coarse_grainings(t):
        coarse, _ = apply_coarse(t, cmap)
        direct = check_weak_sufficiency(coarse, fam).sufficient
        assert check_coarse_sufficient(t, fam, cmap) == direct


@pytest.mark.parametrize("coeff, sufficient", [
    ([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.3, -1.0, 1.0], [0.0, 0.0, 0.0]], 7),
    ([[1.0], [0.5], [0.0], [-2.0]], 15),
], ids=["dead_atom", "one_state"])
def test_coarse_check_agrees_with_direct_recheck_with_a_dead_atom(coeff, sufficient):
    # the block sums take the dead atom in, as the direct check does: atoms
    # 0 and 1 are one class, atom 2 another, atom 3 dead and free to go
    # anywhere; a single state makes every coarse-graining sufficient
    rng = np.random.default_rng(66)
    t, fam = planted_instance(rng, (1, 2, 1, 1), coeff)
    verdicts = []
    for cmap in enumerate_coarse_grainings(t):
        coarse, _ = apply_coarse(t, cmap)
        direct = check_weak_sufficiency(coarse, fam).sufficient
        assert check_coarse_sufficient(t, fam, cmap) == direct
        verdicts.append(direct)
    assert len(verdicts) == 15 and sum(verdicts) == sufficient


def test_an_insufficient_statistic_has_no_sufficient_coarse_graining():
    # a sufficient f(T) would make T sufficient: g(f(T)) is a function of T.
    # Atom 0 of diag(1, 1, 2) sees e1 and e2 at rank 2; diag(1, -1, 2)
    # demands incompatible relative phases of u and v.
    s = 1.0 / np.sqrt(2.0)
    for diagonal, labels, vectors in (
            ([1.0, 1.0, 2.0], ("e1", "e2"), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])),
            ([1.0, -1.0, 2.0], ("u", "v"), ([s, s, 0.0], [s, 1j * s, 0.0]))):
        t = statistic_from_matrix(np.diag(diagonal))
        fam = StateFamily(labels, tuple(np.array(v) for v in vectors))
        verdict = check_weak_sufficiency(t, fam)
        assert not verdict.sufficient
        assert minimal_statistic(t, fam) == verdict
        for cmap in enumerate_coarse_grainings(t):
            coarse, _ = apply_coarse(t, cmap)
            assert not check_weak_sufficiency(coarse, fam).sufficient
            assert check_coarse_sufficient(t, fam, cmap) is False


# --------------------------------------------------------- minimal_statistic


def test_minimal_statistic_of_worked_example():
    t, fam = two_plus_one_instance()
    result = minimal_statistic(t, fam)
    assert isinstance(result, MinimalStatistic)
    assert result.partition == [[0, 1], [2]]
    assert np.array_equal(result.statistic.eigenvalues, [1.0, 2.0])
    assert np.abs(result.statistic.matrix() - np.diag([1.0, 1.0, 2.0])).max() <= 1e-12


def test_separations_split_every_pair_of_classes_in_order():
    rng = np.random.default_rng(65)
    coeff = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 1.0], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]])
    t, fam = planted_instance(rng, (1, 1, 2, 1), coeff)
    classes = equivalence_classes(decide(t, fam))
    assert classes.classes == [(0, 2), (1,), (3,)]
    assert [atoms for atoms, _ in classes.separations] == [(0, 1), (0, 3), (1, 3)]
    for (a, b), labels in classes.separations:
        rows = np.array([fam.vector(label) for label in labels])
        merged = t.projections[a] + t.projections[b]
        assert pair_rank_two(gram_matrix(rows @ merged.T))[0]


def test_classes_take_one_pair_test_on_the_merged_gram_stack(monkeypatch):
    # growing the classes takes one call per live atom, on the class sums
    # so far plus its own Gram matrix (an empty stack for the first atom).  An atom
    # that starts a class is thereby tested against every class of one
    # atom; another pair of classes takes one call per atom of the earlier
    # class, on its merged Gram matrices with the later class, until one
    # splits: here atom 0 with class (3,).  At most atoms x states^2
    # entries at once
    rng = np.random.default_rng(65)
    coeff = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 1.0], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]])
    t, fam = planted_instance(rng, (1, 1, 2, 1), coeff)
    decision = decide(t, fam)
    shapes = []

    def recording(h, tol):
        shapes.append(np.shape(h))
        return pair_rank_two(h, tol)

    monkeypatch.setattr(minimality, "pair_rank_two", recording)
    assert equivalence_classes(decision).classes == [(0, 2), (1,), (3,)]
    assert shapes == [(0, 3, 3), (1, 3, 3), (2, 3, 3), (2, 3, 3), (1, 3, 3)]


def test_classes_of_many_atoms_stay_within_a_small_memory_bound():
    # T = diag(1..48) and 48 random real states: every pair of atoms is
    # split, so 48 leaders; a stack over every pair of atoms would hold
    # 48^2 merged 48 x 48 Gram matrices, 85 MB before any temporary
    import tracemalloc

    rng = np.random.default_rng(48)
    t = DiscreteStatistic(np.arange(1.0, 49.0), tuple(np.diag(row) for row in np.eye(48)))
    vectors = rng.normal(size=(48, 48))
    fam = StateFamily(tuple(f"s{n}" for n in range(48)),
                      tuple(v / np.linalg.norm(v) for v in vectors))
    decision = decide(t, fam)
    tracemalloc.start()
    try:
        classes = equivalence_classes(decision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes.classes == [(k,) for k in range(48)]
    assert len(classes.separations) == 48 * 47 // 2
    assert peak < 32 * 2 ** 20


def test_classes_near_a_tolerance_grow_by_block_sums():
    # atom 1 and atom 2 each pass for atom 0's class at tol 1e-4, their
    # rows (x, d) and (x, -d) being within d^2 / 2 of atom 0's (x, 0), but
    # split from each other (2 d^2 > 1e-4).  Atom 1 joins atom 0; the block
    # sum of atoms 0-2 then has rank 2, so atom 2 starts a class of its own,
    # where pairwise tests against atom 0 alone would merge all three
    x, d = 1.0 / np.sqrt(3.0), 1e-2
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    fam = StateFamily(("s0", "s1"), (np.array([x, x, x, 0.0]),
                                     np.array([0.0, d, -d, np.sqrt(1.0 - 2.0 * d * d)])))
    classes = equivalence_classes(decide(t, fam, 1e-4))
    assert classes.classes == [(0, 1), (2,), (3,)]
    # atoms 0 and 2 pass as a pair, so the first cross pair of rank 2 is (1, 2)
    assert [atoms for atoms, _ in classes.separations] == [(1, 2), (0, 3), (2, 3)]
    coarse = minimal_statistic(t, fam, 1e-4)
    assert coarse.partition == [[0, 1], [2], [3]]
    assert verify_witness(coarse.statistic, fam, coarse.witness,
                          tol=tolerances(1e-4)["witness"]).ok
    fine = minimal_statistic(t, fam)
    assert fine.partition == [[0], [1], [2], [3]]
    assert verify_witness(fine.statistic, fam, fine.witness).ok


def test_a_light_atom_does_not_merge_two_heavy_atoms_apart():
    # T = diag(1, 2, 3) and two states whose coordinate pairs on atoms 0-2
    # are 1e-5 (cos 45, sin 45) and 0.7 (cos(45 +- delta), sin(45 +- delta)):
    # atom 0 is live but light, so its block sum with atom 1 or with atom 2
    # passes, while atoms 1 and 2, delta = 1e-3 apart, have rank 2 together.
    # Grown by block sums, atom 2 cannot join {0, 1}.  A class led by atom 0
    # and grown pair by pair would merge all three, with a witness residual
    # of about 2e-3 against the witness tolerance 2.8e-6
    delta, quarter = 1e-3, math.pi / 4
    rows = [r * np.array([math.cos(x), math.sin(x)])
            for r, x in ((1e-5, quarter), (0.7, quarter + delta), (0.7, quarter - delta))]
    a, b = (np.array(coords) / np.linalg.norm(coords) for coords in zip(*rows))
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    fam = StateFamily(("a", "b"), (a, b))
    instance_text = serialize_instance(t, fam)
    result = minimal_statistic(t, fam)
    assert isinstance(result, MinimalStatistic) and result.partition == [[0, 1], [2]]
    assert result.classes.separations == [((1, 2), ("a", "b"))]
    assert verify_certificate(instance_text, json.dumps(make_certificate("minimality", result))).ok

    merged = statistic_from_partition(t, [[0, 1, 2]])
    witness = build_witness(merged, fam, decide(t, fam).versions)
    assert verify_witness(merged, fam, witness).max_residual > 1e-3
    forged = MinimalStatistic(merged, AtomClasses([(0, 1, 2)], []), [[0, 1, 2]], witness,
                              t.spectrum)
    report = verify_certificate(instance_text, json.dumps(make_certificate("minimality", forged)))
    assert not report.ok and "exceeds 2.8e-06" in report.detail


def test_minimal_decides_the_statistic_once(monkeypatch):
    calls = {"align_phases": 0, "check_weak_sufficiency": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(sufficiency, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        patch_every_binding(monkeypatch, getattr(sufficiency, name), counting)
    t, fam = two_plus_one_instance()
    result = minimal_statistic(t, fam)
    assert result.partition == [[0, 1], [2]]
    assert calls == {"align_phases": 1, "check_weak_sufficiency": 0}
    assert verify_witness(result.statistic, fam, result.witness).ok


def test_built_statistics_run_no_pair_rule_and_no_phase_constraints(monkeypatch):
    # minimal and construct build their witness under versions already
    # found: the built statistic is projected, never tested again
    seen = {"pair_rank_two": [], "_phase_constraints": []}
    for name in seen:
        def recording(first, *args, name=name, original=getattr(sufficiency, name), **kwargs):
            seen[name].append(len(first))
            return original(first, *args, **kwargs)

        monkeypatch.setattr(sufficiency, name, recording)
    t, fam = two_plus_one_instance()
    result = minimal_statistic(t, fam)
    assert result.partition == [[0, 1], [2]]
    assert verify_witness(result.statistic, fam, result.witness).ok
    # the three atoms of t, and no stack of the two-atom minimal statistic
    assert seen == {"pair_rank_two": [3], "_phase_constraints": [3]}
    for calls in seen.values():
        calls.clear()
    built = exists_weakly_sufficient(fam)
    assert verify_witness(built.statistic, fam, built.witness).ok
    # the family's own overlaps, one row, and nothing of the built statistic
    assert seen == {"pair_rank_two": [], "_phase_constraints": [1]}


@pytest.mark.parametrize("partition", [
    [[0, 1]], [[0], [1], [1], [2]], [[0, 1], [2], [3]], [[0, 1], []], [[0, True], [2]],
    [[0, 1.0], [2]], [[0, 1], "2"], [[0, 1], 2], {"0": [0, 1, 2]}, None,
], ids=["omits", "repeats", "out_of_range", "empty_block", "bool", "float", "string",
        "bare_atom", "object", "null"])
def test_statistic_from_partition_refuses_what_is_no_partition(partition):
    t, _ = two_plus_one_instance()
    with pytest.raises(ValueError):
        statistic_from_partition(t, partition)


def test_minimal_is_function_of_every_sufficient_coarse_graining():
    rng = np.random.default_rng(61)
    coeff = np.array([[1.0, 2.0], [-2.0, -4.0], [1.0, 0.0], [0.0, 1.0]])
    t, fam = planted_instance(rng, (1, 1, 2, 1), coeff)
    result = minimal_statistic(t, fam)
    assert isinstance(result, MinimalStatistic)
    s = result.statistic
    checked = 0
    for cmap in enumerate_coarse_grainings(t):
        coarse, _ = apply_coarse(t, cmap)
        if not check_weak_sufficiency(coarse, fam).sufficient:
            continue
        checked += 1
        psi = is_function_of(s, coarse)
        assert psi is not None
        rebuilt = sum(
            psi[float(mu)] * f
            for mu, f in zip(coarse.eigenvalues, coarse.projections)
        )
        assert np.abs(rebuilt - s.matrix()).max() <= 1e-8
    assert checked >= 2  # at least the identity and the class merge


def test_dead_atom_blocks_minimality():
    rng = np.random.default_rng(62)
    coeff = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
    t, fam = planted_instance(rng, (1, 1, 1), coeff)
    result = minimal_statistic(t, fam)
    assert isinstance(result, NoMinimalExists)
    assert result.dead_atom == 2


def test_dead_atom_counterexample_family():
    rng = np.random.default_rng(63)
    coeff = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
    t, fam = planted_instance(rng, (1, 1, 1), coeff)
    merged = dead_atom_counterexamples(t, 2)
    assert sorted(merged) == [0, 1]
    for n, tn in merged.items():
        assert len(tn) == len(t) - 1
        assert check_weak_sufficiency(tn, fam).sufficient
    # no sufficient coarse-graining is a function of every merged statistic
    for cmap in enumerate_coarse_grainings(t):
        coarse, _ = apply_coarse(t, cmap)
        if not check_weak_sufficiency(coarse, fam).sufficient:
            continue
        compatible = all(
            is_function_of(coarse, tn) is not None for tn in merged.values()
        )
        assert not compatible


def test_minimal_of_a_one_dimensional_family_is_one_block():
    # every statistic is sufficient for a family on one line, so the
    # constant one is minimal, though atom 1 is dead
    t = statistic_from_matrix(np.diag([1.0, 2.0]))
    fam = StateFamily(("only",), (np.array([1.0, 0.0]),))
    result = minimal_statistic(t, fam)
    assert isinstance(result, MinimalStatistic)
    assert result.partition == [[0, 1]] and result.classes.separations == []
    assert verify_witness(result.statistic, fam, result.witness).ok


def test_minimal_span_check_reads_the_family_gram_without_a_solve(monkeypatch):
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    phi = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    runs = count_kernel_runs(monkeypatch)
    same_ray = StateFamily(("a", "b", "c"), (phi, 1j * phi, -phi))
    # atom 2 is dead, but the family spans one dimension
    assert minimal_statistic(t, same_ray).partition == [[0, 1, 2]]
    two_dims = StateFamily(("a", "b"), (phi, np.array([0.0, 0.0, 1.0])))
    assert minimal_statistic(t, two_dims).partition == [[0, 1], [2]]
    assert runs == []


def test_minimal_statistic_is_deterministic():
    t, fam = two_plus_one_instance()
    r1 = minimal_statistic(t, fam)
    r2 = minimal_statistic(t, fam)
    assert np.array_equal(r1.statistic.eigenvalues, r2.statistic.eigenvalues)
    for p, q in zip(r1.statistic.projections, r2.statistic.projections):
        assert np.array_equal(p, q)


# ------------------------------------------------------------ is_function_of


def test_function_of_maps_fine_to_coarse():
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    s = DiscreteStatistic(
        np.array([1.0, 2.0]),
        (np.diag([1.0 + 0j, 1.0, 0.0]), np.diag([0j, 0.0, 1.0])),
    )
    assert is_function_of(s, t) == {1.0: 1.0, 2.0: 1.0, 3.0: 2.0}
    assert is_function_of(t, s) is None


# ------------------------------------------------ enumerate_coarse_grainings


# up to the declared limit, Bell(9) maps
@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52),
                                    (minimality.MAX_ENUMERATED_ATOMS, 21147)])
def test_enumeration_counts_partitions(n, bell):
    t = statistic_from_matrix(np.diag(np.arange(1.0, n + 1.0)))
    maps = list(enumerate_coarse_grainings(t))
    assert len(maps) == bell
    assert len({tuple(cmap.assignment.values()) for cmap in maps}) == bell
    # first merges everything, last is the identity partition
    assert len(set(maps[0].assignment.values())) == 1
    assert len(set(maps[-1].assignment.values())) == n


def test_coarse_maps_share_one_float_per_class_value():
    # a lattice run keeps every map, so equal class values are one object
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    evs = [float(x) for x in t.eigenvalues]
    growth = [r for r in itertools.product(range(4), repeat=4)
              if all(r[i] <= max(r[:i], default=-1) + 1 for i in range(4))]
    maps = list(enumerate_coarse_grainings(t))
    assert maps == [CoarseMap({lam: float(k + 1) for lam, k in zip(evs, r)}) for r in growth]
    shared = {}
    for cmap in maps:
        for value in cmap.assignment.values():
            assert shared.setdefault(value, value) is value
    assert sorted(shared) == [1.0, 2.0, 3.0, 4.0]


def test_enumeration_guards_against_explosion():
    t = statistic_from_matrix(np.diag(np.arange(1.0, 11.0)))
    with pytest.raises(ValueError, match="too many partitions"):
        next(enumerate_coarse_grainings(t))


@pytest.mark.xfail(strict=True, reason="pair proportionality is not transitive at the "
                                       "tolerance (ROADMAP item 22)")
def test_a_minimal_partition_refines_every_sufficient_coarse_map():
    # atom 1 carries weight 1.6e-14 per state: proportional to atom 0, and
    # not separated from atom 2, so minimal merges {0, 1} while the map
    # {0}, {1, 2}, {3} is sufficient too
    x, s, theta = 0.5, 2.5e-7, math.atan(0.5)
    rows = []
    for y, sign in ((0.6 * math.cos(math.pi / 4 + theta), 1.0),
                    (0.6 * math.sin(math.pi / 4 + theta), -1.0)):
        rows.append([x, s * x, y, sign * math.sqrt(1.0 - x * x * (1.0 + s * s) - y * y)])
    vectors = np.array(rows, dtype=complex)
    family = StateFamily(("p", "q"), vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    cmap = CoarseMap(dict(zip(t.eigenvalues.tolist(), [1.0, 2.0, 2.0, 3.0])))
    merged, blocks = apply_coarse(t, cmap)
    assert blocks == [[0], [1, 2], [3]]
    assert check_coarse_sufficient(t, family, cmap)
    assert check_weak_sufficiency(merged, family).sufficient
    try:
        result = minimal_statistic(t, family)
    except ValueError:   # no minimal statistic claimed
        return
    if isinstance(result, MinimalStatistic):
        # a function of f(T): each block lies inside one block of the map
        assert all(any(set(block) <= set(b) for b in blocks) for block in result.partition)
