import sys

import numpy as np
import pytest

from wsq import linalg, sufficiency
from wsq.linalg import gram_schmidt, hermitian_part, numerical_rank, pair_rank_two
from wsq.minimality import (
    AtomClasses,
    MinimalStatistic,
    NoMinimalExists,
    check_coarse_sufficient,
    dead_atom_counterexamples,
    enumerate_coarse_grainings,
    equivalence_classes,
    is_function_of,
    minimal_statistic,
)
from wsq.spectral import CoarseMap, DiscreteStatistic, StateFamily, apply_coarse, statistic_from_matrix
from wsq.sufficiency import analyze, check_weak_sufficiency


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
    """Record the shape of every matrix the Jacobi kernel solves."""
    calls = []
    original = linalg._jacobi

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_jacobi", counting)
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
    classes = equivalence_classes(analyze(t, fam))
    assert classes.classes == [(0, 1), (2,)]
    assert classes.witnesses[(0, 1)] == pytest.approx(1.0, abs=1e-12)


def test_complex_proportionality_factor_is_accepted():
    # atoms 0 and 1 see the same real row up to the factor i, atom 2 its own
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    fam = StateFamily(
        ("s0", "s1"),
        (np.array([1.0, 1.0j, 1.0]) / np.sqrt(3), np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)),
    )
    analysis = analyze(t, fam)
    classes = equivalence_classes(analysis)
    assert classes.classes == [(0, 1), (2,)]
    assert classes.witnesses[(0, 1)] == pytest.approx(-1.0j, abs=1e-12)
    # the strict mode splits them again
    strict = equivalence_classes(analysis, strict_real=True)
    assert strict.classes == [(0,), (1,), (2,)]


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
        assert not split[0, 0] and not split[1, 1] and split[0, 1] == split[1, 0]
        assert (not split[0, 1]) == (numerical_rank(gamma, tol) <= 1)


# -------------------------------------------------------------- work counts


def test_classes_make_no_eigensolver_call(monkeypatch):
    t, fam = two_plus_one_instance()
    analysis = analyze(t, fam)
    calls = count_eigensolves(monkeypatch)
    assert equivalence_classes(analysis).classes == [(0, 1), (2,)]
    assert calls == []


def test_only_atoms_of_rank_two_or_more_are_solved(monkeypatch):
    rng = np.random.default_rng(64)
    coeff = np.array([[1.0, 2.0], [-2.0, -4.0], [1.0, 0.0], [0.0, 1.0]])
    t, fam = planted_instance(rng, (1, 1, 2, 1), coeff)
    # atoms {0, 1} and {2, 3} each see two independent states, atom {4} one
    refused = statistic_from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0]))
    basis = np.eye(5)
    spread = StateFamily(("a", "b", "c", "d"),
                         (basis[0], basis[1], (basis[2] + basis[4]) / np.sqrt(2), basis[3]))
    lone = count_eigensolves(monkeypatch)
    runs = count_kernel_runs(monkeypatch)
    assert check_weak_sufficiency(t, fam).sufficient
    merge_first_two = CoarseMap({1.0: 1.0, 2.0: 1.0, 3.0: 2.0, 4.0: 3.0})
    assert check_coarse_sufficient(t, fam, merge_first_two)
    assert lone == [] and runs == []
    verdict = check_weak_sufficiency(refused, spread)
    assert [(v.atom, v.dim) for v in verdict.violations] == [(0, 2), (1, 2)]
    assert lone == [] and runs == [(4, 4), (4, 4)]
    assert analyze(refused, spread).ranks == (2, 2, 1)


def test_coarse_check_and_minimal_build_no_witness(monkeypatch):
    def forbidden(self, versions):
        raise AssertionError("witness built")

    monkeypatch.setattr(sufficiency.Analysis, "_witness", forbidden)
    t, fam = two_plus_one_instance()
    verdicts = [check_coarse_sufficient(t, fam, cmap) for cmap in enumerate_coarse_grainings(t)]
    assert verdicts == [False, True, False, False, True]
    assert minimal_statistic(t, fam).partition == [[0, 1], [2]]
    with pytest.raises(AssertionError, match="witness built"):
        check_weak_sufficiency(t, fam)


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


def test_coarse_check_requires_sufficient_input():
    t = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]))
    fam = StateFamily(
        ("e1", "e2"), (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    )
    with pytest.raises(ValueError, match="not weakly sufficient"):
        check_coarse_sufficient(t, fam, CoarseMap({1.0: 1.0, 2.0: 2.0}))


# --------------------------------------------------------- minimal_statistic


def test_minimal_statistic_of_worked_example():
    t, fam = two_plus_one_instance()
    result = minimal_statistic(t, fam)
    assert isinstance(result, MinimalStatistic)
    assert result.partition == [[0, 1], [2]]
    assert np.array_equal(result.statistic.eigenvalues, [1.0, 2.0])
    assert np.abs(result.statistic.matrix() - np.diag([1.0, 1.0, 2.0])).max() <= 1e-12


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


def test_minimal_requires_nontrivial_family():
    t = statistic_from_matrix(np.diag([1.0, 2.0]))
    fam = StateFamily(("only",), (np.array([1.0, 0.0]),))
    with pytest.raises(ValueError, match="vacuous"):
        minimal_statistic(t, fam)


def test_minimal_span_check_reads_the_family_gram_without_a_solve(monkeypatch):
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    phi = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    runs = count_kernel_runs(monkeypatch)
    same_ray = StateFamily(("a", "b", "c"), (phi, 1j * phi, -phi))
    with pytest.raises(ValueError, match="vacuous"):
        minimal_statistic(t, same_ray)
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


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_enumeration_counts_partitions(n, bell):
    t = statistic_from_matrix(np.diag(np.arange(1.0, n + 1.0)))
    maps = list(enumerate_coarse_grainings(t))
    assert len(maps) == bell
    # first merges everything, last is the identity partition
    assert len(set(maps[0].assignment.values())) == 1
    assert len(set(maps[-1].assignment.values())) == n


def test_enumeration_guards_against_explosion():
    t = statistic_from_matrix(np.diag(np.arange(1.0, 11.0)))
    with pytest.raises(ValueError, match="too many partitions"):
        next(enumerate_coarse_grainings(t))
