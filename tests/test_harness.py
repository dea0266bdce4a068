import collections
import json
import math

import numpy as np
import pytest

from wsq import harness
from wsq.fileio import (load_bundled_instance, make_certificate, serialize_instance,
                        verify_certificate)
from wsq.harness import (
    GeneratorSpec,
    brute_force_weak_sufficiency,
    bundled_example_checks,
    generate,
    run_property_suite,
    shrink_instance,
)
from wsq.petz import Feasible, PetzInstance, petz_feasibility
from wsq.linalg import gram_matrix
from wsq.minimality import minimal_statistic
from wsq.spectral import statistic_from_matrix
from wsq.sufficiency import NonExistence, check_weak_sufficiency, exists_weakly_sufficient


def test_real_vectors_flavor_is_real():
    spec = GeneratorSpec(dim=4, n_states=3, flavor="real_vectors", seed=7)
    statistic, family = generate(spec)
    gram = gram_matrix(family.vectors)
    assert np.max(np.abs(gram.imag)) < 1e-15
    for label in family.labels:
        assert abs(np.linalg.norm(family.vector(label)) - 1.0) < 1e-12
    assert np.max(np.abs(np.array(statistic.projections).imag)) < 1e-15


def test_orthogonal_planted_flavor():
    spec = GeneratorSpec(dim=6, n_states=4, flavor="orthogonal_planted", seed=2)
    statistic, family = generate(spec)
    gram = gram_matrix(family.vectors)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-10
    verdict = check_weak_sufficiency(statistic, family)
    assert verdict.sufficient


def test_atom_planted_flavor_is_petz_feasible():
    spec = GeneratorSpec(dim=4, n_states=2, flavor="atom_planted", seed=3)
    statistic, family = generate(spec)
    instance = PetzInstance.from_parts(statistic, family)
    assert isinstance(petz_feasibility(instance), Feasible)


def test_phase_obstructed_flavor_refuses_construction():
    spec = GeneratorSpec(dim=4, n_states=3, flavor="phase_obstructed", seed=5)
    _, family = generate(spec)
    result = exists_weakly_sufficient(family)
    assert isinstance(result, NonExistence)
    from wsq.phases import cycle_defect
    assert cycle_defect(result.cycle) > 1e-3


def test_generation_is_deterministic():
    for flavor in harness.FLAVORS:
        spec = GeneratorSpec(dim=5, n_states=3, flavor=flavor, seed=11)
        a = serialize_instance(*generate(spec))
        b = serialize_instance(*generate(spec))
        assert a == b
        other = GeneratorSpec(dim=5, n_states=3, flavor=flavor, seed=12)
        assert serialize_instance(*generate(other)) != a


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=33, n_states=3, flavor="real_vectors", seed=0),
        dict(dim=4, n_states=9, flavor="real_vectors", seed=0),
        dict(dim=4, n_states=3, flavor="no_such_flavor", seed=0),
        dict(dim=3, n_states=4, flavor="orthogonal_planted", seed=0),
        dict(dim=3, n_states=4, flavor="atom_planted", seed=0),
        dict(dim=4, n_states=2, flavor="phase_obstructed", seed=0),
        dict(dim=0, n_states=1, flavor="real_vectors", seed=0),
    ],
)
def test_generator_spec_guards(kwargs):
    with pytest.raises(ValueError):
        GeneratorSpec(**kwargs)


def test_brute_force_on_shipped_instance():
    statistic, family = load_bundled_instance()
    assert brute_force_weak_sufficiency(statistic, family) is True


def test_brute_force_sees_rank_violation():
    statistic = statistic_from_matrix(2.0 * np.eye(2, dtype=complex))
    from wsq.spectral import StateFamily
    family = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    assert brute_force_weak_sufficiency(statistic, family) is False


def test_brute_force_sees_phase_obstruction():
    spec = GeneratorSpec(dim=2, n_states=3, flavor="phase_obstructed", seed=4)
    statistic, family = generate(spec)
    assert brute_force_weak_sufficiency(statistic, family) is False
    verdict = check_weak_sufficiency(statistic, family)
    assert verdict.sufficient is False


def test_brute_force_takes_the_checker_cutoffs():
    # e1 and (e1 + 5e-8 e2)/|.| on T = diag(1, 1, 2): the shared atom's
    # second singular value, about 3.5e-8, squares to a Gram eigenvalue
    # below the rank tolerance 1e-14, so both answer sufficient
    from wsq.spectral import StateFamily
    statistic = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]).astype(complex))
    tilted = np.array([1.0, 5e-8, 0.0], dtype=complex)
    family = StateFamily(labels=("a", "b"), vectors=(np.array([1.0, 0.0, 0.0], dtype=complex),
                                                     tilted / np.linalg.norm(tilted)))
    assert check_weak_sufficiency(statistic, family).sufficient is True
    assert brute_force_weak_sufficiency(statistic, family) is True
    # states at angles x and -x: the Gram eigenvalues are about 2 x^2 and 2,
    # so both answers turn at x = 1e-7, where 2 x^2 = rank * 2
    for x, sufficient in (8.5e-8, True), (9.9e-8, True), (1.01e-7, False), (1e-5, False):
        family = StateFamily(labels=("a", "b"), vectors=(
            np.array([np.cos(x), np.sin(x), 0.0], dtype=complex),
            np.array([np.cos(x), -np.sin(x), 0.0], dtype=complex)))
        assert check_weak_sufficiency(statistic, family).sufficient is sufficient
        assert brute_force_weak_sufficiency(statistic, family) is sufficient
    # states at angles x, -x and 0: the pair at x and -x has lo about 2 x^2
    # against hi about 2, past the rank tolerance from x = 1e-7, while the
    # atom's whole Gram matrix, with first eigenvalue about 3, stays below it
    # up to x = 1.22e-7; both answers take the pair rule
    for x, sufficient in (0.99e-7, True), (1.05e-7, False), (1.15e-7, False), (1.25e-7, False):
        family = StateFamily(labels=("a", "b", "c"), vectors=tuple(
            np.array([np.cos(y), np.sin(y), 0.0], dtype=complex) for y in (x, -x, 0.0)))
        assert check_weak_sufficiency(statistic, family).sufficient is sufficient, x
        assert brute_force_weak_sufficiency(statistic, family) is sufficient, x


def test_witness_bound_property_holds_at_the_proven_bound():
    # every check and minimal witness on 3 x 500 near-threshold instances
    # lies within sqrt(8 K) eps, the bound of sufficiency.tolerances
    for seed in range(3):
        ok, detail, _ = harness._prop_witness_bound(np.random.default_rng(seed), 500)
        assert ok, detail


def test_brute_force_size_guards():
    statistic, family = load_bundled_instance()
    rng = np.random.default_rng(0)
    from wsq.spectral import StateFamily
    vectors = rng.normal(size=(5, 8))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    big_family = StateFamily(
        labels=tuple(f"s{i}" for i in range(5)),
        vectors=vectors.astype(complex),
    )
    big_statistic = statistic_from_matrix(np.diag(np.arange(8.0)).astype(complex))
    with pytest.raises(ValueError, match="states"):
        brute_force_weak_sufficiency(big_statistic, big_family)
    with pytest.raises(ValueError, match="atoms"):
        brute_force_weak_sufficiency(big_statistic, family)


def test_checker_agrees_with_brute_force_on_seeded_batch():
    for seed in range(8):
        flavor = harness.FLAVORS[seed % len(harness.FLAVORS)]
        n_states = 3 if flavor == "phase_obstructed" else 2 + seed % 2
        spec = GeneratorSpec(dim=4, n_states=n_states, flavor=flavor, seed=seed)
        statistic, family = generate(spec)
        expected = brute_force_weak_sufficiency(statistic, family)
        got = check_weak_sufficiency(statistic, family).sufficient
        assert got == expected, f"disagreement on {spec}"


def test_bundled_example_checks_pass():
    assert bundled_example_checks() == []


def test_property_suite_empty_run():
    report = run_property_suite(seed=0, count=0)
    assert report.ok
    assert report.results == []


def test_near_threshold_certificates_verify_at_their_recorded_tolerances():
    # the generator of the property witness_bound_near_thresholds: every
    # check and minimal answer on it has a certificate that verifies, each
    # witness within the recorded witness tolerance (sufficiency.tolerances)
    rng = np.random.default_rng(32)
    seen = collections.Counter()
    for _ in range(150):
        statistic, family = harness.near_threshold_instance(rng)
        text = serialize_instance(statistic, family)
        verdict = check_weak_sufficiency(statistic, family)
        minimal = minimal_statistic(statistic, family)
        kind = "minimality" if verdict.sufficient else "weak_sufficiency"
        for cert in make_certificate("weak_sufficiency", verdict), make_certificate(kind, minimal):
            report = verify_certificate(text, json.dumps(cert))
            assert report.ok, (cert["verdict"], report.detail, text)
        seen[verdict.sufficient, type(minimal).__name__] += 1
    assert set(seen) == {(True, "MinimalStatistic"), (True, "NoMinimalExists"),
                         (False, "SufficiencyVerdict")}


def test_property_suite_clean_run():
    report = run_property_suite(seed=0, count=12)
    assert report.ok, "\n".join(
        f"{r.name}: {r.detail}" for r in report.failures()
    )
    assert len(report.results) == 20
    rendered = report.render()
    assert "PASS" in rendered and "FAIL" not in rendered


@pytest.mark.parametrize("mutation", sorted(harness.MUTATIONS))
def test_mutations_are_detected(mutation):
    report = run_property_suite(seed=0, count=12, mutation=mutation)
    assert report.mutation == mutation
    assert not report.ok
    assert len(report.failures()) >= 1
    # the fault flag must be restored afterwards
    module, attr, _ = harness.MUTATIONS[mutation]
    clean = run_property_suite(seed=0, count=4)
    assert clean.ok, f"flag {attr} left flipped on {module.__name__}"


def test_failed_properties_carry_counterexamples():
    report = run_property_suite(seed=0, count=12, mutation="skip_rank_check")
    witnessed = [r for r in report.failures() if r.counterexample]
    assert witnessed, "no failure carried a serialized counterexample"
    from wsq.fileio import read_instance
    instance = read_instance(witnessed[0].counterexample)
    statistic, family = instance.statistic, instance.family
    assert family.dim >= 1


def test_shrink_instance_reduces_size():
    spec = GeneratorSpec(dim=6, n_states=5, flavor="complex_vectors", seed=9)
    statistic, family = generate(spec)

    def still_failing(t, fam):
        return len(fam.labels) >= 2 and len(t) >= 1

    small_t, small_f = shrink_instance(statistic, family, still_failing)
    assert len(small_f.labels) == 2
    assert len(small_t) <= len(statistic)
    assert still_failing(small_t, small_f)


def test_shrink_preserves_failure_semantics():
    spec = GeneratorSpec(dim=4, n_states=4, flavor="phase_obstructed", seed=1)
    statistic, family = generate(spec)

    def still_failing(t, fam):
        try:
            return not brute_force_weak_sufficiency(t, fam)
        except ValueError:
            return False

    assert still_failing(statistic, family)
    small_t, small_f = shrink_instance(statistic, family, still_failing)
    assert still_failing(small_t, small_f)
    assert len(small_f.labels) <= len(family.labels)
