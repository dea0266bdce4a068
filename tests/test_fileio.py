import json
import math
from pathlib import Path

import numpy as np
import pytest

from wsq import fileio, linalg, spectral
from wsq.fileio import (
    SchemaError,
    load_bundled_instance,
    make_certificate,
    parse_certificate,
    read_instance,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.harness import (
    GeneratorSpec,
    certificate_corpus,
    certificate_edits,
    dense_instance_text,
    edited_certificate,
    generate,
    node_at,
)
from wsq.minimality import minimal_statistic
from wsq.petz import PetzInstance, petz_feasibility
from wsq.spectral import StateFamily, statistic_from_matrix
from wsq.sufficiency import (
    SufficiencyVerdict,
    check_weak_sufficiency,
    exists_weakly_sufficient,
    tolerances,
)


def obstructed_family():
    s = 1.0 / math.sqrt(2.0)
    vectors = np.array(
        [[1.0, 0.0], [s, s], [s, 1j * s]], dtype=complex
    )
    return StateFamily(labels=("a", "b", "c"), vectors=vectors)


def test_bundled_instance_contents():
    statistic, family = load_bundled_instance()
    assert list(statistic.eigenvalues) == [-1.0, 1.0]
    assert family.labels == ("phi1", "phi2")
    assert np.allclose(family.vector("phi1"), [1.0, 0.0])
    assert np.allclose(family.vector("phi2"),
                       [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def test_instance_roundtrip_is_exact():
    rng = np.random.default_rng(3)
    for flavor in ("complex_vectors", "atom_planted"):
        spec = GeneratorSpec(dim=4, n_states=3, flavor=flavor,
                             seed=int(rng.integers(2**63)))
        statistic, family = generate(spec)
        text = serialize_instance(statistic, family)
        instance = read_instance(text)
        statistic2, family2 = instance.statistic, instance.family
        assert family2.labels == family.labels
        for label in family.labels:
            assert np.array_equal(family2.vector(label), family.vector(label))
        assert np.array_equal(statistic2.eigenvalues, statistic.eigenvalues)
        for p, q in zip(statistic2.projections, statistic.projections):
            assert np.array_equal(p, q)
        assert serialize_instance(statistic2, family2) == text


def test_statistic_is_optional():
    instance = read_instance('{"dimension": 2, "states": {"x": [[1.0, 0.0], [0.0, 0.0]]}}')
    assert instance.statistic is None
    assert instance.family.labels == ("x",)


@pytest.mark.parametrize(
    "text, path_fragment",
    [
        ("not json at all", "$: invalid JSON"),
        ("[1, 2]", "$: expected a JSON object"),
        ('{"states": {}}', "missing required key 'dimension'"),
        ('{"dimension": -1, "states": {"x": []}}', "$.dimension"),
        ('{"dimension": 2, "states": "nope"}', "$.states"),
        ('{"dimension": 2, "states": {"x": [[1.0, 0.0]]}}', "$.states.x"),
        ('{"dimension": 2, "states": {"x": [[1.0, 0.0], [0.0]]}}', "$.states.x[1]"),
        ('{"dimension": 2, "states": {"x": [[1.0, 0.0], [0.0, "i"]]}}',
         "$.states.x[1][1]"),
        ('{"dimension": 1, "states": {"x": [[1.0, 0.0]]}, "statistic": {}}',
         "$.statistic"),
        pytest.param('{"dimension": 1, "states": {"x": [[1.0, %d]]}}' % 10**400,
                     "$.states.x[0][1]", id="huge-integer-state"),
        pytest.param('{"dimension": 1, "states": {"x": [[1.0, 0.0]]}, '
                     '"statistic": {"matrix": [[[1.0, %d]]]}}' % -10**400,
                     "$.statistic.matrix[0][0][1]", id="huge-integer-matrix"),
        pytest.param("[" * 100000, "$: invalid JSON", id="deep-nesting"),
        pytest.param('{"dimension": 1, "states": {"x": ' + "[" * 100000 + "}}",
                     "$: invalid JSON", id="deep-nesting-in-states"),
    ],
)
def test_schema_errors_are_path_addressed(text, path_fragment):
    with pytest.raises(SchemaError) as err:
        read_instance(text)
    assert path_fragment in str(err.value)


def test_dense_matrix_is_checked_at_read_time_and_decomposed_when_read():
    def text(matrix):
        return json.dumps({
            "dimension": 2,
            "states": {"x": [[1.0, 0.0], [0.0, 0.0]]},
            "statistic": {"matrix": [[[v, 0.0] for v in row] for row in matrix]},
        })

    with pytest.raises(ValueError, match="not hermitian"):
        read_instance(text([[1.0, 1.0], [0.0, 2.0]]))
    # too close to be two atoms, too far apart to be grouped into one
    instance = read_instance(text([[0.0, 0.0], [0.0, 1e-13]]))
    assert instance.has_statistic
    assert instance.family.labels == ("x",)
    with pytest.raises(ValueError, match="strictly ascending"):
        instance.statistic
    instance = read_instance(text([[2.0, 0.0], [0.0, -1.0]]))
    assert instance.statistic is instance.statistic
    assert list(instance.statistic.eigenvalues) == [-1.0, 2.0]
    assert not read_instance(
        '{"dimension": 1, "states": {"x": [[1.0, 0.0]]}}').has_statistic


def test_invariant_violations_are_named():
    with pytest.raises(ValueError, match="state 'phi1' not unit norm"):
        read_instance('{"dimension": 2, "states": {"phi1": [[0.9, 0.0], [0.0, 0.0]]}}')
    # projections that do not sum to the identity: keep one of two atoms
    text = json.dumps({
        "dimension": 2,
        "states": {"x": [[1.0, 0.0], [0.0, 0.0]]},
        "statistic": {
            "eigenvalues": [1.0],
            "projections": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        },
    })
    with pytest.raises(ValueError, match="identity"):
        read_instance(text)


def test_weak_sufficiency_certificate_roundtrip():
    statistic, family = load_bundled_instance()
    instance_text = serialize_instance(statistic, family)
    verdict = check_weak_sufficiency(statistic, family)
    cert = make_certificate("weak_sufficiency", verdict)
    text = serialize_certificate(cert)
    assert serialize_certificate(parse_certificate(text)) == text
    report = verify_certificate(instance_text, text)
    assert report.ok, report.detail


def test_tampered_witness_is_rejected():
    statistic, family = load_bundled_instance()
    instance_text = serialize_instance(statistic, family)
    verdict = check_weak_sufficiency(statistic, family)
    cert = make_certificate("weak_sufficiency", verdict)
    cert["payload"]["witness"]["chi"][0][0] += 0.25
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "residual" in report.detail


def fourier_texts():
    """T = F diag(1, 2, 3) F^H, F the 3-point Fourier matrix, and two
    overlapping states, as a dense matrix and as eigenvalues 1, 2, 3 with
    the projectors F e_k e_k^H F^H written out: the last bits of the
    decomposed eigenvalues need not be those of the written ones."""
    f = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3.0)
    family = StateFamily(labels=("a", "b"),
                         vectors=np.array([f[:, 0], (f[:, 0] + f[:, 1]) / np.sqrt(2.0)]))

    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    root = json.loads(serialize_instance(None, family))
    matrix = f @ np.diag([1.0, 2.0, 3.0]) @ f.conj().T
    dense = {**root, "statistic": {"matrix": pairs(matrix)}}
    explicit = {**root, "statistic": {"eigenvalues": [1.0, 2.0, 3.0],
                                      "projections": [pairs(np.outer(v, v.conj())) for v in f.T]}}
    return json.dumps(dense), json.dumps(explicit)


def test_witness_entries_name_atoms_by_position_not_by_eigenvalue():
    dense, explicit = fourier_texts()
    # written with eigenvalues 1, 2, 3 and replayed on the dense matrix, whose
    # decomposed eigenvalues differ in the last bits: the recorded spectrum
    # holds the written values, and the covariants at them are T's atoms
    instance = read_instance(explicit)
    verdict = check_weak_sufficiency(instance.statistic, instance.family)
    cert = serialize_certificate(make_certificate("weak_sufficiency", verdict))
    assert read_instance(dense).statistic.spectrum != verdict.spectrum
    report = verify_certificate(dense, cert)
    assert verdict.sufficient and report.ok, report.detail
    # an explicit statistic's eigenvalues must be recorded exactly
    instance = read_instance(dense)
    verdict = check_weak_sufficiency(instance.statistic, instance.family)
    cert = serialize_certificate(make_certificate("weak_sufficiency", verdict))
    report = verify_certificate(explicit, cert)
    assert verdict.sufficient and not report.ok
    assert "$.payload.spectrum: expected the eigenvalues" in report.detail


def test_rank_violation_certificate_verifies():
    statistic = statistic_from_matrix(np.eye(2, dtype=complex) * 2.0)
    family = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    verdict = check_weak_sufficiency(statistic, family)
    assert not verdict.sufficient
    cert = make_certificate("weak_sufficiency", verdict)
    assert cert["payload"] == {"rank_violations": [{"atom": 0, "states": ["e1", "e2"]}],
                               "spectrum": [2.0]}
    instance_text = serialize_instance(statistic, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    for forged in ([3], 3, [], [{"atom": 0, "states": ["e1", "e1"]}], [{"atom": "0"}],
                   [{"atom": 0, "states": ["e1", "e2"]}, {"atom": 0, "states": ["e2"]}]):
        cert["payload"]["rank_violations"] = forged
        report = verify_certificate(instance_text, serialize_certificate(cert))
        assert not report.ok


def test_phase_cycle_certificate_verifies_and_rejects_foreign_edges():
    instance_text, cert = phase_cycle_certificate()
    for edge, message in (({"atom": 2}, "expected an atom index below 2"),
                          ({"right": "x"}, "no state labelled 'x'")):
        forged = json.loads(json.dumps(cert))
        forged["payload"]["phase_cycle"]["constraints"][0].update(edge)
        report = verify_certificate(instance_text, serialize_certificate(forged))
        assert not report.ok
        assert message in report.detail


def test_existence_certificates_roundtrip():
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(3, 4))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    family = StateFamily(labels=("a", "b", "c"), vectors=vectors.astype(complex))
    built = exists_weakly_sufficient(family)
    cert = make_certificate("existence", built)
    instance_text = serialize_instance(None, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail

    refused = exists_weakly_sufficient(obstructed_family())
    cert = make_certificate("existence", refused)
    instance_text = serialize_instance(None, obstructed_family())
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    assert "defect" in report.detail


def test_minimality_certificates_roundtrip():
    statistic, family = load_bundled_instance()
    minimal = minimal_statistic(statistic, family)
    cert = make_certificate("minimality", minimal)
    instance_text = serialize_instance(statistic, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail

    # dead atom: a three-atom statistic whose last atom carries no state
    basis = np.eye(3, dtype=complex)
    statistic = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
    family = StateFamily(
        labels=("p", "q"),
        vectors=np.array(
            [basis[0], (basis[0] + basis[1]) / math.sqrt(2.0)], dtype=complex
        ),
    )
    missing = minimal_statistic(statistic, family)
    cert = make_certificate("minimality", missing)
    instance_text = serialize_instance(statistic, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    cert["payload"]["dead_atom"] = 0
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok


def test_minimal_certificate_replayed_on_unsuitable_instances_is_rejected():
    statistic, family = load_bundled_instance()
    cert = make_certificate("minimality", minimal_statistic(statistic, family))
    # not weakly sufficient: one atom sees two orthogonal states
    doubled = statistic_from_matrix(2.0 * np.eye(2, dtype=complex))
    insufficient = serialize_instance(
        doubled, StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex)))
    # a family spanning one dimension makes minimality vacuous
    vacuous = serialize_instance(
        statistic, StateFamily(labels=("only",), vectors=np.eye(2, dtype=complex)[:1])
    )
    for instance_text, replayed_on in ((insufficient, doubled), (vacuous, statistic)):
        # the instance's own spectrum, so that the replay reaches the claim
        cert["payload"]["spectrum"] = list(replayed_on.spectrum)
        report = verify_certificate(instance_text, serialize_certificate(cert))
        assert not report.ok
        assert "no minimal statistic" in report.detail


def test_petz_certificates_roundtrip():
    statistic = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    family = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    instance = PetzInstance.from_parts(statistic, family)
    feasible = petz_feasibility(instance)
    params = {"unital": True}
    cert = make_certificate("petz", feasible, parameters=params)
    instance_text = serialize_instance(statistic, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    assert cert["payload"] == {"owners": ["e2", "e1"], "spectrum": [-1.0, 1.0]}
    cert["payload"]["owners"] = ["e1", "e2"]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok

    bundled_statistic, bundled_family = load_bundled_instance()
    overlap_cert = petz_feasibility(
        PetzInstance.from_parts(bundled_statistic, bundled_family)
    )
    cert = make_certificate("petz", overlap_cert, parameters=params)
    instance_text = serialize_instance(bundled_statistic, bundled_family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail

    contradictory = statistic_from_matrix(3.0 * np.eye(2, dtype=complex))
    shared = petz_feasibility(PetzInstance.from_parts(contradictory, family))
    cert = make_certificate("petz", shared, parameters=params)
    assert cert["verdict"] == "infeasible_shared_atoms"
    assert cert["payload"] == {"state": "e1", "pairs": [[0, "e2"]], "spectrum": [3.0]}
    instance_text = serialize_instance(contradictory, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    assert "shared atoms" in report.detail


def _two_shared_atoms():
    # (e0+e2)/sqrt2 and (e1+e3)/sqrt2 both load span(e0, e1) and
    # span(e2, e3); no state loads the last atom, span(e4)
    s = 1.0 / math.sqrt(2.0)
    statistic = statistic_from_matrix(np.diag([1.0, 1.0, 2.0, 2.0, 3.0]).astype(complex))
    vectors = np.array([[s, 0, s, 0, 0], [0, s, 0, s, 0]], dtype=complex)
    family = StateFamily(labels=("phi1", "phi2"), vectors=vectors)
    return statistic, family


@pytest.mark.parametrize("unital", [True, False])
def test_tampered_shared_atom_certificates_are_rejected(unital):
    statistic, family = _two_shared_atoms()
    result = petz_feasibility(PetzInstance.from_parts(statistic, family, unital=unital))
    cert = make_certificate("petz", result, parameters={"unital": unital})
    instance_text = serialize_instance(statistic, family)
    expected = [[0, "phi2"]] if unital else [[0, "phi2"], [1, "phi2"]]
    spectrum = [1.0, 2.0, 3.0]
    assert cert["payload"] == {"state": "phi1", "pairs": expected, "spectrum": spectrum}
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok

    def replay(pairs, state="phi1"):
        forged = json.loads(json.dumps(cert))
        forged["payload"] = {"state": state, "pairs": pairs, "spectrum": spectrum}
        return verify_certificate(instance_text, serialize_certificate(forged))

    # both states load atoms 0 and 1, so neither owns one of them
    for owners in (["phi1", "phi2", None], [None, None, None]):
        forged = json.loads(json.dumps(cert))
        forged["verdict"] = "feasible"
        forged["payload"] = {"owners": owners, "spectrum": spectrum}
        report = verify_certificate(instance_text, serialize_certificate(forged))
        assert not report.ok and "malformed" not in report.detail

    # atom 2 carries no load of either state
    assert not replay([[2, "phi2"]]).ok
    # an atom paired with its own state, an unknown state, a bad index
    assert not replay([[0, "phi1"]]).ok
    assert not replay([[0, "nobody"]]).ok
    assert not replay([["0", "phi2"]]).ok
    assert not replay([[0, "phi2"]], state="nobody").ok
    assert not replay([[0]]).ok
    if unital:
        assert not replay([]).ok
    else:
        # phi1 also loads atom 1, which could still carry it
        assert not replay([[0, "phi2"]]).ok


def owned_atoms():
    """T = diag(1, 2, 3, 4): a = 0.6 e0 + 0.8 e1 owns atoms 0 and 1, b owns
    atom 2, and atom 3 is idle; feasible unital and non-unital."""
    statistic = statistic_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    family = StateFamily(labels=("a", "b"), vectors=np.array(
        [[0.6, 0.8, 0, 0], [0, 0, 1, 0]], dtype=complex))
    return serialize_instance(statistic, family), statistic, family


@pytest.mark.parametrize("owners, unital, message", [
    (["nobody", "a", "b", None], True, "'nobody' is not the one loader of atom 0"),
    ([True, "a", "b", None], True, "True is not the one loader of atom 0"),
    ([0, "a", "b", None], True, "0 is not the one loader of atom 0"),
    ([["a"], "a", "b", None], True, "['a'] is not the one loader of atom 0"),
    (["a", "a", "b"], True, "expected 4 labels or nulls, one per atom"),
    (["a", "a", "b", None, None], False, "expected 4 labels or nulls, one per atom"),
    (["b", "a", "b", None], True, "'b' is not the one loader of atom 0"),
    (["a", "a", "b", "a"], False, "'a' is not the one loader of atom 3"),
    ([None, "a", "b", None], True, "atom 0 is loaded but names no owner"),
    (["a", "a", None, None], False, "state 'b' owns no atom"),
], ids=["unknown", "true", "zero", "list", "short", "long", "not_loading", "idle_atom",
        "null_on_loaded", "owns_nothing"])
def test_tampered_petz_owners_are_rejected_not_raised(owners, unital, message):
    instance_text, statistic, family = owned_atoms()
    result = petz_feasibility(PetzInstance.from_parts(statistic, family, unital=unital))
    cert = make_certificate("petz", result, parameters={"unital": unital})
    assert cert["payload"] == {"owners": ["a", "a", "b", None], "spectrum": [1.0, 2.0, 3.0, 4.0]}
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok
    cert["payload"]["owners"] = owners
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert message in report.detail, report.detail


def test_non_unital_owners_may_leave_a_private_atom_idle():
    # rho_0 = 0 and rho_1 = |a><a| / 0.64 still rebuild a: a valid channel
    instance_text, statistic, family = owned_atoms()
    result = petz_feasibility(PetzInstance.from_parts(statistic, family, unital=False))
    cert = make_certificate("petz", result, parameters={"unital": False})
    cert["payload"]["owners"] = [None, "a", "b", None]
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok


@pytest.mark.parametrize("parameters, ok", [
    (None, True),                       # no block: unital
    ({"unital": True}, True),
    ({"unital": 1}, False),
    ({"unital": "true"}, False),
    ({}, False),
    ([True], False),
])
def test_petz_parameters_must_name_a_boolean_unital(parameters, ok):
    statistic = statistic_from_matrix(3.0 * np.eye(2, dtype=complex))
    family = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    cert = make_certificate("petz", petz_feasibility(PetzInstance.from_parts(statistic, family)))
    if parameters is not None:
        cert["parameters"] = parameters
    report = verify_certificate(serialize_instance(statistic, family),
                                serialize_certificate(cert))
    assert report.ok is ok, report.detail


def test_minimal_certificate_classes_must_match():
    # the classes are the partition's blocks; a certificate may not state them apart
    statistic, family = load_bundled_instance()
    cert = make_certificate("minimality", minimal_statistic(statistic, family))
    instance_text = serialize_instance(statistic, family)
    assert cert["payload"]["partition"] == [[0], [1]]
    assert cert["payload"]["separations"] == [{"atoms": [0, 1], "states": ["phi1", "phi2"]}]
    for forged in ([[0, 1]], [[1], [0]], [[0]], [[0.0], [1.0]], [[False], [True]]):
        edited = json.loads(json.dumps(cert))
        edited["payload"]["partition"] = forged
        report = verify_certificate(instance_text, serialize_certificate(edited))
        assert not report.ok, forged
    cert["payload"]["classes"] = [[0], [1]]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok and "$.payload.classes: unexpected key" in report.detail


def three_class_instance(dead=False):
    """T = diag(1, ..., 5) and states x, y, z: atoms 0 and 2 load the
    states in proportion, so do atoms 1 and 3, and atom 4 on its own,
    unless dead, when no state loads it."""
    a, b, c = np.array([1.0, 0.5, -0.3]), np.array([0.4, -1.0, 0.9]), np.array([0.2, 0.7, 0.6])
    coeff = np.column_stack([a, b, 1.3 * a, -1.7 * b, 0.0 * c if dead else c])
    family = StateFamily(labels=("x", "y", "z"),
                         vectors=(coeff / np.linalg.norm(coeff, axis=1)[:, None]).astype(complex))
    return statistic_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)), family


def three_class_certificate():
    statistic, family = three_class_instance()
    cert = make_certificate("minimality", minimal_statistic(statistic, family))
    assert cert["payload"]["partition"] == [[0, 2], [1, 3], [4]]
    assert [item["atoms"] for item in cert["payload"]["separations"]] == [[0, 1], [0, 4], [1, 4]]
    instance_text = serialize_instance(statistic, family)
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok
    return instance_text, cert


def swap(items, i, j):
    items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("edit, message", [
    (lambda s: s[0].update(atoms=[0, 2]), "expected an atom of block 0 and one of block 1"),
    (lambda s: s[0].update(atoms=[0, 5]), "expected an atom of block 0 and one of block 1"),
    (lambda s: s[0].update(atoms=[0, True]), "expected an atom of block 0 and one of block 1"),
    (lambda s: s[0].update(atoms=[0.0, 1]), "expected an atom of block 0 and one of block 1"),
    (lambda s: s[0].update(atoms="01"), "expected an atom of block 0 and one of block 1"),
    (lambda s: s[1].update(states=["x", "x"]), "do not separate atoms [0, 4] of blocks 0 and 2"),
    (lambda s: s[1].update(states=["x", "nobody"]), "no state labelled 'nobody'"),
    (lambda s: s[1].update(states=["x"]), "expected two state labels"),
    (lambda s: s[2].update(note=0), "$.payload.separations[2].note: unexpected key"),
    (lambda s: s.pop(), "expected 3 separations"),
    (lambda s: s.append(s[0]), "expected 3 separations"),
    (lambda s: swap(s, 0, 1), "expected an atom of block 0 and one of block 1"),
    (lambda s: swap(s, 1, 2), "expected an atom of block 0 and one of block 2"),
], ids=["one_block", "out_of_range", "true", "float", "string", "parallel", "unknown",
        "short", "extra_key", "missing", "extra", "out_of_order", "out_of_order_2"])
def test_tampered_separations_are_rejected_not_raised(edit, message):
    instance_text, cert = three_class_certificate()
    edit(cert["payload"]["separations"])
    report = verify_certificate(instance_text, json.dumps(cert))
    assert not report.ok
    assert message in report.detail


@pytest.mark.parametrize("partition", [
    [[0, 2], [1, 3], [4], [4]], [[0, 2], [1, 3]], [[0, 2, 2], [1, 3], [4]]],
    ids=["repeats_a_block", "omits", "repeats_an_atom"])
def test_partition_must_hold_each_atom_once(partition):
    instance_text, cert = three_class_certificate()
    cert["payload"]["partition"] = partition
    report = verify_certificate(instance_text, json.dumps(cert))
    assert not report.ok and "exactly once" in report.detail, report.detail


def test_live_partition_over_a_dead_atom_is_refused():
    _, cert = three_class_certificate()
    report = verify_certificate(serialize_instance(*three_class_instance(dead=True)),
                                json.dumps(cert))
    assert not report.ok and "atom 4 carries weight 0.000e+00" in report.detail


def test_petz_verifier_rejects_unknown_pair_label():
    statistic, family = load_bundled_instance()
    result = petz_feasibility(PetzInstance.from_parts(statistic, family))
    cert = make_certificate("petz", result)
    cert["payload"]["pair"] = ["phi1", "nobody"]
    report = verify_certificate(serialize_instance(statistic, family),
                                serialize_certificate(cert))
    assert not report.ok
    assert "not in the instance" in report.detail


def test_petz_verifier_needs_a_statistic():
    statistic, family = load_bundled_instance()
    result = petz_feasibility(PetzInstance.from_parts(statistic, family))
    cert = make_certificate("petz", result)
    report = verify_certificate(serialize_instance(None, family),
                                serialize_certificate(cert))
    assert not report.ok
    assert "no statistic" in report.detail


def test_certificate_schema_validation():
    with pytest.raises(SchemaError, match="kind"):
        parse_certificate('{"verdict": "yes", "payload": {}}')
    with pytest.raises(SchemaError, match="payload"):
        parse_certificate('{"kind": "petz", "verdict": "feasible"}')
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_certificate("{")


def test_unknown_certificate_kind_rejected():
    with pytest.raises(ValueError, match="unknown certificate kind"):
        make_certificate("nonsense", None)


# ------------------------------------------- unreadable certificate payloads


def phase_cycle_certificate():
    """diag(1, -1): u and v demand incompatible relative phases on the two
    atoms; w lies in atom 1 and overlaps nothing on atom 0."""
    s = 1.0 / math.sqrt(2.0)
    statistic = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    family = StateFamily(labels=("u", "v", "w"),
                         vectors=np.array([[s, s], [s, 1j * s], [1, 0]], dtype=complex))
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    assert cert["payload"]["phase_cycle"]["constraints"] == [
        {"left": "u", "right": "v", "atom": 0}, {"left": "u", "right": "v", "atom": 1}]
    instance_text = serialize_instance(statistic, family)
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok
    return instance_text, cert


def test_zero_cycle_value_is_rejected_not_raised():
    instance_text, cert = phase_cycle_certificate()
    cert["payload"]["phase_cycle"]["constraints"][0]["right"] = "w"
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "cycle edge 0 has overlap 0.000e+00" in report.detail


def test_empty_cycle_is_rejected_not_raised():
    instance_text, cert = phase_cycle_certificate()
    cert["payload"]["phase_cycle"]["constraints"] = []
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "nonempty 'constraints'" in report.detail


def test_cycle_that_is_not_an_object_is_rejected_not_raised():
    instance_text, cert = phase_cycle_certificate()
    cert["payload"]["phase_cycle"] = [1, 2]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "$.payload.phase_cycle" in report.detail


def spread_certificate():
    """T = diag(1, 2, 2): a = e1 and b = e2 are independent on atom 1,
    span(e1, e2), where c = (e0 + e1)/sqrt2 is parallel to a."""
    s = 1.0 / math.sqrt(2.0)
    statistic = statistic_from_matrix(np.diag([1.0, 2.0, 2.0]).astype(complex))
    family = StateFamily(labels=("a", "b", "c"),
                         vectors=np.array([[0, 1, 0], [0, 0, 1], [s, s, 0]], dtype=complex))
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    assert cert["payload"] == {"rank_violations": [{"atom": 1, "states": ["a", "b"]}],
                               "spectrum": [1.0, 2.0]}
    instance_text = serialize_instance(statistic, family)
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok
    return instance_text, cert


@pytest.mark.parametrize("item, message", [
    ({"atom": 1, "states": ["a", "c"]}, "are not independent on atom 1"),   # rank 1
    ({"atom": 1, "states": ["b", "b"]}, "are not independent on atom 1"),   # itself
    ({"atom": 0, "states": ["a", "b"]}, "are not independent on atom 0"),   # rank 0
    ({"atom": 1, "states": ["a", "nobody"]}, "no state labelled 'nobody'"),
    ({"atom": 1, "states": ["a"]}, "expected two state labels"),
    ({"atom": 1, "states": ["a", "b", "c"]}, "expected two state labels"),
    ({"atom": 1, "states": "ab"}, "expected two state labels"),
    ({"atom": 2, "states": ["a", "b"]}, "expected an atom index below 2"),
    ({"atom": -1, "states": ["a", "b"]}, "expected an atom index below 2"),
    ({"atom": True, "states": ["a", "b"]}, "expected an atom index below 2"),
    ({"atom": 1.0, "states": ["a", "b"]}, "expected an atom index below 2"),
    ({"atom": 1, "states": ["a", "b"], "dimension": 2}, "keys atom, states"),
], ids=["rank_one", "itself", "empty_atom", "unknown", "short", "long", "string",
        "atom_2", "atom_-1", "atom_true", "atom_float", "extra_key"])
def test_tampered_rank_violation_is_rejected_not_raised(item, message):
    instance_text, cert = spread_certificate()
    cert["payload"]["rank_violations"] = [item]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert message in report.detail


@pytest.mark.parametrize("edges, message", [
    ([("u", "w", 0), ("u", "v", 1)], "cycle edge 0 has overlap"),
    ([("u", "v", 2), ("u", "v", 1)], "expected an atom index below 2"),
    ([("u", "v", None), ("u", "v", 1)], "expected an atom index below 2"),
    ([("u", "v", False), ("u", "v", 1)], "expected an atom index below 2"),
    ([("u", "v", 1), ("w", "u", 1)], "walk does not close"),
    ([("u", "v", 1), ("w", "w", 1)], "do not form a closed walk"),
    ([("u", "v", 0), ("u", "nobody", 1)], "no state labelled 'nobody'"),
    ([("u", "v", 0)], "walk does not close"),
], ids=["no_overlap", "atom_2", "null_atom", "atom_false", "open", "broken", "unknown",
        "single"])
def test_tampered_cycle_is_rejected_not_raised(edges, message):
    instance_text, cert = phase_cycle_certificate()
    cert["payload"]["phase_cycle"]["constraints"] = [
        {"left": left, "right": right, "atom": atom} for left, right, atom in edges]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert message in report.detail


def test_existence_cycle_edges_name_no_atom():
    family = obstructed_family()
    instance_text = serialize_instance(None, family)
    cert = make_certificate("existence", exists_weakly_sufficient(family))
    assert {edge["atom"] for edge in cert["payload"]["phase_cycle"]["constraints"]} == {None}
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok
    cert["payload"]["phase_cycle"]["constraints"][0]["atom"] = 0
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok and "atom: expected null" in report.detail


@pytest.mark.parametrize("values, message", [
    ([1.0], "expected a list of 2 reals, one per atom"),
    ([1.0, 1.0, 1.0], "expected a list of 2 reals, one per atom"),
    ([1.0, [1.0, 0.0]], "expected a real number"),
    ([1.0, "1"], "expected a real number"),
    ([True, 1.0], "expected a real number"),
    ({"-1.0": 1.0, "1.0": 1.0}, "expected a list of 2 reals, one per atom"),
], ids=["short", "long", "pair", "string", "bool", "object"])
def test_tampered_witness_functions_are_rejected_not_raised(values, message):
    statistic, family = load_bundled_instance()
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    assert cert["payload"]["witness"]["functions"]["phi2"] == pytest.approx([1.0, 1.0])
    cert["payload"]["witness"]["functions"]["phi2"] = values
    report = verify_certificate(serialize_instance(statistic, family),
                                serialize_certificate(cert))
    assert not report.ok
    assert "$.payload.witness.functions.phi2" in report.detail and message in report.detail


def parent_format(cert, eigenvalues, rhos=()):
    """cert as the earlier encoding wrote it: rank violations with their
    dimension, cycle edges with their value, witness functions as
    [eigenvalue, value] rows, a petz feasible answer as its dense rhos, a
    minimal statistic as its partition and classes."""
    old = json.loads(json.dumps(cert))
    payload = old["payload"]
    if payload.pop("separations", None) is not None:
        del payload["witness"]
        payload["classes"] = payload["partition"]
    if payload.pop("owners", None) is not None:
        payload["rhos"] = [[[[z.real, z.imag] for z in row] for row in rho] for rho in rhos]
        payload["max_constraint_residual"] = 0.0
    for item in payload.get("rank_violations", []):
        item["dimension"] = 2
        del item["states"]
    for edge in payload.get("phase_cycle", {}).get("constraints", []):
        edge["value"] = [0.5, 0.0]
    for label, values in payload.get("witness", {}).get("functions", {}).items():
        payload["witness"]["functions"][label] = [[float(ev), v]
                                                  for ev, v in zip(eigenvalues, values)]
    return old


def test_parent_format_certificates_are_refused():
    doubled = statistic_from_matrix(2.0 * np.eye(2, dtype=complex))
    basis = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    bundled = load_bundled_instance()
    instance_text, cycle = phase_cycle_certificate()
    built = exists_weakly_sufficient(obstructed_family())
    constructed_text, constructed, constructed_cert = constructed_certificate()
    diag = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    feasible = petz_feasibility(PetzInstance.from_parts(diag, basis))
    cases = [
        (serialize_instance(*bundled), bundled[0].eigenvalues,
         make_certificate("weak_sufficiency", check_weak_sufficiency(*bundled))),
        (serialize_instance(doubled, basis), doubled.eigenvalues,
         make_certificate("weak_sufficiency", check_weak_sufficiency(doubled, basis))),
        (instance_text, [], cycle),
        (serialize_instance(None, obstructed_family()), [], make_certificate("existence", built)),
        (constructed_text, constructed.statistic.eigenvalues, constructed_cert),
        (serialize_instance(diag, basis), [], make_certificate("petz", feasible)),
        (serialize_instance(*bundled), [],
         make_certificate("minimality", minimal_statistic(*bundled))),
    ]
    verdicts = set()
    for text, eigenvalues, cert in cases:
        assert verify_certificate(text, serialize_certificate(cert)).ok
        old = parent_format(cert, eigenvalues, feasible.rhos)
        report = verify_certificate(text, serialize_certificate(old))
        assert not report.ok, cert["verdict"]
        assert "malformed certificate" in report.detail, report.detail
        verdicts.add((cert["verdict"], *sorted(cert["payload"])))
    assert len(verdicts) == 7


def test_stated_defect_and_overlap_are_refused():
    # the verifier recomputes both, so a certificate may not state them
    instance_text, cycle = phase_cycle_certificate()
    cycle["payload"]["phase_cycle"]["defect"] = 0.0
    statistic, family = load_bundled_instance()
    overlap = make_certificate(
        "petz", petz_feasibility(PetzInstance.from_parts(statistic, family)))
    overlap["payload"]["overlap"] = [0.0, 0.0]
    for text, cert in ((instance_text, cycle), (serialize_instance(statistic, family), overlap)):
        report = verify_certificate(text, serialize_certificate(cert))
        assert not report.ok and "malformed certificate" in report.detail, report.detail


def test_witness_of_wrong_length_is_rejected_not_raised():
    statistic, family = load_bundled_instance()
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    cert["payload"]["witness"]["chi"] = cert["payload"]["witness"]["chi"][:1]
    report = verify_certificate(serialize_instance(statistic, family),
                                serialize_certificate(cert))
    assert not report.ok
    assert "$.payload.witness.chi" in report.detail


@pytest.mark.parametrize("part, edit, message", [
    ("functions", lambda node: node.pop("phi1"), "no function for state"),
    ("versions", lambda node: node.update(phi1=[0.0, 0.0]), "not unit modulus"),
])
def test_witness_that_does_not_fit_is_rejected_not_raised(part, edit, message):
    statistic, family = load_bundled_instance()
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    edit(cert["payload"]["witness"][part])
    report = verify_certificate(serialize_instance(statistic, family),
                                serialize_certificate(cert))
    assert not report.ok
    assert message in report.detail


def constructed_certificate():
    """Three real states in dimension 4: three directions and a complement."""
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(3, 4))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    family = StateFamily(labels=("a", "b", "c"), vectors=vectors.astype(complex))
    built = exists_weakly_sufficient(family)
    return serialize_instance(None, family), built, make_certificate("existence", built)


def test_constructed_certificate_carries_the_directions():
    instance_text, built, cert = constructed_certificate()
    assert sorted(cert["payload"]) == ["directions", "witness"]
    rows = np.array([[complex(*z) for z in row] for row in cert["payload"]["directions"]])
    assert np.array_equal(rows, built.directions)
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok


def test_constructed_statistic_that_is_no_partition_is_rejected_not_raised():
    instance_text, _, cert = constructed_certificate()
    directions = cert["payload"]["directions"]
    directions[0] = directions[1]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "$.payload.directions" in report.detail


def scaled(row, factor):
    return [[factor * re, factor * im] for re, im in row]


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.__setitem__(2, d[0]), "not idempotent"),            # a copied direction
    (lambda d: d.__setitem__(1, scaled(d[1], 1.01)), "not idempotent"),   # not unit
    (lambda d: d[1].pop(), "expected a list of 4 [re, im] pairs"),
    (lambda d: d.extend(d[:2]), "expected a list of 1 to 4 directions"),
    (lambda d: d.clear(), "expected a list of 1 to 4 directions"),
    (lambda d: d.__setitem__(1, "x"), "expected a list of 4 [re, im] pairs"),
    (lambda d: d[0][3].__setitem__(1, None), "expected a real number"),
    (lambda d: d[0].__setitem__(3, [1e309, 0.0]), "number must be finite"),
], ids=["copied", "not_unit", "short", "too_many", "empty", "junk_row", "junk_entry",
        "infinite"])
def test_tampered_directions_are_rejected_not_raised(edit, message):
    instance_text, _, cert = constructed_certificate()
    edit(cert["payload"]["directions"])
    report = verify_certificate(instance_text, json.dumps(cert))
    assert not report.ok
    assert "$.payload.directions" in report.detail
    assert message in report.detail


def test_constructed_certificate_with_projections_is_refused():
    # the earlier encoding wrote the statistic's dense projections instead
    # of its directions; there is no reader for it
    instance_text, built, cert = constructed_certificate()
    cert["payload"] = {
        "statistic": {
            "eigenvalues": [float(v) for v in built.statistic.eigenvalues],
            "projections": [[[[z.real, z.imag] for z in row] for row in p]
                            for p in built.statistic.projections],
        },
        "witness": cert["payload"]["witness"],
    }
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "$.payload.directions" in report.detail


def test_deeply_nested_certificate_is_rejected_not_raised():
    statistic, family = load_bundled_instance()
    instance_text = serialize_instance(statistic, family)
    for text in ("[" * 100000, '{"kind": "petz", "verdict": "feasible", "payload": '
                 + "[" * 100000 + "}"):
        report = verify_certificate(instance_text, text)
        assert not report.ok
        assert "$: invalid JSON" in report.detail


def test_malformed_instance_still_raises():
    statistic, family = load_bundled_instance()
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    with pytest.raises(SchemaError, match="invalid JSON"):
        verify_certificate("{", serialize_certificate(cert))


# ------------------------------------------------- junk in every certificate node


def every_certificate_on_both_encodings():
    """Each certificate of certificate_corpus, replayed on its instance
    with T written as projections and as a dense matrix: the recorded
    spectrum is checked against the eigenvalues, or through the
    covariants of the matrix."""
    for dense in (False, True):
        yield from certificate_corpus(dense)


def test_junk_in_any_certificate_node_is_rejected_not_raised():
    # every edit the harness property samples, each one tried: junk at
    # every node, extra and dropped keys, truncated lists and texts, zeroed
    # vectors (a witness chi, a row of directions), and nodes spliced from
    # certificates of the other kinds and verdicts; junk in tool_version,
    # which no verdict rests on, must only not raise
    corpus = list(every_certificate_on_both_encodings())
    verdicts, edits = set(), set()
    for instance_text, cert in corpus:
        verdicts.add((cert["verdict"], *sorted(cert["payload"])))
        assert verify_certificate(instance_text, serialize_certificate(cert)).ok
        donors = [other for _, other in corpus
                  if (other["kind"], other["verdict"]) != (cert["kind"], cert["verdict"])]
        for what, path, value in certificate_edits(cert, donors):
            edited = edited_certificate(cert, what, path, value)
            if edited is None:
                continue
            edits.add(what)
            report = verify_certificate(instance_text, edited)
            assert what == "unread" or not report.ok, (cert["verdict"], what, path, value)
    assert len(verdicts) == 10   # a rank refusal and a cycle refusal among them
    assert edits == {"junk", "unread", "extra", "drop", "truncate", "zero", "splice", "cut"}


def test_the_verifier_never_raises_on_a_state_the_reader_accepts():
    # norm 1 + 0.9e-8 lies within the reader's unit-norm tolerance, and an
    # asymmetry of 0.9e-10 within its Hermitian tolerance: the covariants at
    # the recorded spectrum are still the atoms of the symmetrized matrix
    for instance_text, cert in every_certificate_on_both_encodings():
        root = json.loads(instance_text)
        first = min(root["states"])
        root["states"][first] = [[(1.0 + 0.9e-8) * x for x in pair]
                                 for pair in root["states"][first]]
        if "matrix" in root.get("statistic", {}):
            root["statistic"]["matrix"][0][1][0] += 0.9e-10
        report = verify_certificate(json.dumps(root), serialize_certificate(cert))
        assert report.ok, (cert["verdict"], report.detail)


def test_only_a_petz_certificate_records_parameters():
    stray = {"anything": [1, 2, 3]}
    kinds = set()
    for instance_text, cert in certificate_corpus():
        if cert["kind"] == "petz":
            continue
        kinds.add(cert["kind"])
        report = verify_certificate(instance_text, json.dumps({**cert, "parameters": stray}))
        assert not report.ok and "$.parameters: unexpected key" in report.detail
    assert kinds == {"weak_sufficiency", "existence", "minimality"}


# ------------------------------------------------- the recorded tolerance block


DEFAULTS = {"rank": 1e-14, "angle": 1e-7, "witness": 28 * 1e-7, "petz_feasibility": 1e-7}
KEYS = {
    "weak_sufficiency": ["angle", "rank", "witness"],
    "existence": ["angle", "rank", "witness"],
    "minimality": ["angle", "rank", "witness"],
    "petz": ["petz_feasibility"],
}


def test_each_kind_records_only_what_its_decision_applies():
    for _, cert in certificate_corpus():
        kind = cert["kind"]
        assert cert["tolerances"] == {key: DEFAULTS[key] for key in KEYS[kind]}
    # one tolerance block per tol: rank is tol, angle and witness derive from it
    statistic, family = load_bundled_instance()
    eps = math.sqrt(3e-9)
    cases = [("weak_sufficiency", check_weak_sufficiency(statistic, family),
              {"rank": 3e-9, "angle": eps, "witness": 28 * eps}),
             ("minimality", minimal_statistic(statistic, family),
              {"rank": 3e-9, "angle": eps, "witness": 28 * eps}),
             ("petz", petz_feasibility(PetzInstance.from_parts(statistic, family)),
              {"petz_feasibility": 3e-9})]
    for kind, result, block in cases:
        assert make_certificate(kind, result, tol=3e-9)["tolerances"] == block
    assert tolerances(3e-9) == cases[0][2]


@pytest.mark.parametrize("tol", [0.0, -1e-8, 1e-15, 2e-3, 1.0, math.nan, math.inf, 1, True, "1e-8"])
def test_make_certificate_refuses_a_tolerance_outside_the_range(tol):
    statistic, family = load_bundled_instance()
    with pytest.raises(ValueError, match="tolerance must be a number in"):
        make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family), tol=tol)


def edited_blocks(kind):
    """(edit, tolerance block) pairs the verifier must refuse for a kind.
    angle and witness are amplitudes, in fileio.AMPLITUDE_RANGE, which
    ends at 0.885; the other keys end at 1e-3."""
    good = {key: DEFAULTS[key] for key in KEYS[kind]}
    yield "missing block", None
    yield "non-object block", [DEFAULTS[key] for key in KEYS[kind]]
    for key in KEYS[kind]:
        yield f"missing {key}", {k: v for k, v in good.items() if k != key}
        above = 0.9 if key in ("angle", "witness") else 2e-3
        for bad in (0.0, -1e-8, 1e-15, above, math.nan, 1, True, "1e-8", None):
            yield f"{key} = {bad!r}", {**good, key: bad}
    yield "unknown key", {**good, "petz_structural": 1e-6}


def test_every_malformed_tolerance_block_is_rejected_not_raised():
    kinds = set()
    for instance_text, cert in certificate_corpus():
        kinds.add(cert["kind"])
        for edit, block in edited_blocks(cert["kind"]):
            forged = json.loads(json.dumps(cert))
            if block is None:
                del forged["tolerances"]
            else:
                forged["tolerances"] = block
            report = verify_certificate(instance_text, json.dumps(forged))
            assert not report.ok, (cert["verdict"], edit)
            assert "$.tolerances" in report.detail, (cert["verdict"], edit)
    assert kinds == set(KEYS)


def replayed(instance_text, cert, **recorded):
    """The verifier's report on cert with some recorded tolerances edited."""
    forged = json.loads(json.dumps(cert))
    forged["tolerances"].update(recorded)
    return verify_certificate(instance_text, json.dumps(forged))


def near_parallel_pair(eps):
    """T = diag(1, 1, 2) and states e0, (e0 + eps e1)/|.|: one atom, rank 1 or 2."""
    b = np.array([1.0, eps, 0.0]) / math.hypot(1.0, eps)
    family = StateFamily(labels=("a", "b"), vectors=np.array([[1, 0, 0], b], dtype=complex))
    return statistic_from_matrix(np.diag([1.0, 1.0, 2.0]).astype(complex)), family


def test_rank_refusal_and_witness_are_replayed_at_the_recorded_tolerances():
    statistic, family = near_parallel_pair(1e-5)
    instance_text = serialize_instance(statistic, family)
    refused = make_certificate(
        "weak_sufficiency", check_weak_sufficiency(statistic, family, tol=1e-12), tol=1e-12)
    assert refused["payload"] == {"rank_violations": [{"atom": 0, "states": ["a", "b"]}],
                                  "spectrum": [1.0, 2.0]}
    assert verify_certificate(instance_text, json.dumps(refused)).ok
    report = replayed(instance_text, refused, rank=1e-8)
    assert not report.ok and "['a', 'b'] are not independent on atom 0" in report.detail

    accepted = make_certificate(
        "weak_sufficiency", check_weak_sufficiency(statistic, family, tol=1e-4), tol=1e-4)
    assert verify_certificate(instance_text, json.dumps(accepted)).ok
    report = replayed(instance_text, accepted, witness=1e-7)
    assert not report.ok and "exceeds 1.0e-07" in report.detail


def test_minimal_partition_and_dead_atom_are_replayed_at_the_recorded_rank():
    # the rows (0.6, 0.3) and (0.6, 0.303) of atoms 0 and 1 have a merged
    # Gram matrix with lo = 3.6e-6: split at rank 1e-8, not at 1e-4
    s = math.sqrt(0.28)
    b = (0.3, 0.303, math.sqrt(1.0 - 0.09 - 0.303 ** 2))
    statistic = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
    family = StateFamily(labels=("a", "b"), vectors=np.array([[0.6, 0.6, s], b], dtype=complex))
    instance_text = serialize_instance(statistic, family)
    fine = make_certificate("minimality", minimal_statistic(statistic, family))
    assert fine["payload"]["partition"] == [[0], [1], [2]]
    assert fine["payload"]["separations"][0] == {"atoms": [0, 1], "states": ["a", "b"]}
    assert verify_certificate(instance_text, json.dumps(fine)).ok
    report = replayed(instance_text, fine, rank=1e-4)
    assert not report.ok and "do not separate atoms [0, 1]" in report.detail
    # merged at 1e-4, the classes leave a witness residual of about 2e-3:
    # within the recorded witness 28 sqrt(1e-4), not within a forged 1e-4
    coarse = make_certificate("minimality", minimal_statistic(statistic, family, 1e-4), tol=1e-4)
    assert coarse["payload"]["partition"] == [[0, 1], [2]]
    assert verify_certificate(instance_text, json.dumps(coarse)).ok
    report = replayed(instance_text, coarse, witness=1e-4)
    assert not report.ok and "exceeds 1.0e-04" in report.detail

    # atom 2 carries weight 1e-6 of b: dead at rank 1e-5, alive at 1e-8
    b = np.array([1.0, 1.0, math.sqrt(2e-6)]) / math.sqrt(2.0 + 2e-6)
    family = StateFamily(labels=("a", "b"), vectors=np.array([[1, 0, 0], b], dtype=complex))
    instance_text = serialize_instance(statistic, family)
    dead = make_certificate("minimality", minimal_statistic(statistic, family, 1e-5), tol=1e-5)
    assert dead["payload"] == {"dead_atom": 2, "spectrum": [1.0, 2.0, 3.0]}
    assert verify_certificate(instance_text, json.dumps(dead)).ok
    report = replayed(instance_text, dead, rank=1e-8)
    assert not report.ok and "not dead" in report.detail


def test_a_one_dimensional_family_is_answered_by_one_block_not_by_a_dead_atom():
    # T = diag(1, 2, 3) and states e1, i e1: atoms 1 and 2 are dead, but the
    # constant statistic is minimal, so naming a dead atom forges the answer
    statistic = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
    family = StateFamily(labels=("a", "b"),
                         vectors=np.array([[1, 0, 0], [1j, 0, 0]], dtype=complex))
    instance_text = serialize_instance(statistic, family)
    minimal = make_certificate("minimality", minimal_statistic(statistic, family))
    assert minimal["payload"]["partition"] == [[0, 1, 2]]
    assert verify_certificate(instance_text, json.dumps(minimal)).ok
    forged = dict(minimal, verdict="no_minimal_exists",
                  payload={"dead_atom": 1, "spectrum": [1.0, 2.0, 3.0]})
    report = verify_certificate(instance_text, json.dumps(forged))
    assert not report.ok and "spans one dimension" in report.detail

    # one block on a family spanning two dimensions: its witness fails
    statistic, family = load_bundled_instance()
    cert = make_certificate("minimality", minimal_statistic(statistic, family))
    assert cert["payload"]["partition"] == [[0], [1]]
    cert["payload"]["partition"], cert["payload"]["separations"] = [[0, 1]], []
    functions = cert["payload"]["witness"]["functions"]
    cert["payload"]["witness"]["functions"] = {lab: f[:1] for lab, f in functions.items()}
    report = verify_certificate(serialize_instance(statistic, family), json.dumps(cert))
    assert not report.ok and "witness residual" in report.detail


def test_cycle_is_replayed_at_the_recorded_angle():
    # the planted cycle has defect 1e-5: refused at angle 1e-6, not at 1e-4
    s = 1.0 / math.sqrt(2.0)
    twist = np.exp(2e-5j)
    family = StateFamily(labels=("a", "b", "c"), vectors=np.array(
        [[1.0, 0.0], [s, s], [s, s * twist]], dtype=complex))
    instance_text = serialize_instance(None, family)
    cert = make_certificate("existence", exists_weakly_sufficient(family))
    assert cert["verdict"] == "no_statistic_exists"
    assert verify_certificate(instance_text, json.dumps(cert)).ok
    report = replayed(instance_text, cert, angle=1e-4)
    assert not report.ok and "below tolerance" in report.detail


def edge_cutoff_cases():
    """(instance text, cycle certificate, the angle at which its edges' cutoff
    meets their overlap), for an atom edge and a family edge."""
    # u = (0.8, 0.6) and v = (0.6, 0.8 i) on T = diag(1, -1): each atom's edge
    # has overlap 0.48 and weights 0.64 and 0.36, so its cutoff, angle times
    # sqrt(0.64), meets the overlap at angle 0.6; the cycle's defect is pi/2
    t = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    crossed = StateFamily(("u", "v"), np.array([[0.8, 0.6], [0.6, 0.8j]]))
    verdict = check_weak_sufficiency(t, crossed)
    yield serialize_instance(t, crossed), make_certificate("weak_sufficiency", verdict), 0.6
    # e1, (e1 + e2)/sqrt2 and (e1 + i e2)/sqrt2: every overlap of the family
    # has modulus sqrt(1/2), and a family edge's cutoff is the angle itself;
    # the cycle's defect is pi/4
    s = 1.0 / math.sqrt(2.0)
    obstructed = StateFamily(("a", "b", "c"), np.array([[1, 0], [s, s], [s, 1j * s]]))
    built = exists_weakly_sufficient(obstructed)
    yield serialize_instance(None, obstructed), make_certificate("existence", built), s


def test_a_cycle_edge_at_its_cutoff_constrains_nothing():
    # an edge constrains the phases only above angle sqrt(max(w)), w its two
    # states' weights on its atom (1 for an edge of the family), as the
    # decision cut it
    cases = list(edge_cutoff_cases())
    for instance_text, cert, edge in cases:
        assert verify_certificate(instance_text, json.dumps(cert)).ok
        assert replayed(instance_text, cert, angle=edge * (1.0 - 1e-9)).ok
        report = replayed(instance_text, cert, angle=edge * (1.0 + 1e-9))
        assert not report.ok and "which constrains nothing" in report.detail
    # with the smaller weight the atom edges' cutoff would meet them at 0.8
    instance_text, cert, _ = cases[0]
    assert not replayed(instance_text, cert, angle=0.79).ok


# the check certificate of the bundled instance as printed before the three
# tolerances derived from one Gram tolerance, with the earlier default block
EARLIER_CHECK_CERTIFICATE = (
    '{"kind":"weak_sufficiency","payload":{"spectrum":[-1.0,1.0],"witness":{"chi":'
    '[[0.7071067811865475,0.0],[0.7071067811865475,0.0]],"functions":{"phi1":'
    '[0.0,1.4142135623730951],"phi2":[1.0000000000000002,1.0000000000000002]},'
    '"versions":{"phi1":[1.0,0.0],"phi2":[1.0,0.0]}}},"tolerances":{"angle":1e-06,'
    '"rank":1e-08,"witness":1e-07},"tool_version":"0.1.0","verdict":"sufficient"}')


def test_an_earlier_tolerance_block_still_verifies():
    instance_text = serialize_instance(*load_bundled_instance())
    cert = parse_certificate(EARLIER_CHECK_CERTIFICATE)
    assert cert["tolerances"] == {"angle": 1e-6, "rank": 1e-8, "witness": 1e-7}
    assert verify_certificate(instance_text, EARLIER_CHECK_CERTIFICATE).ok
    # the README's example is what check prints now, and verifies too
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = next(line for line in readme.splitlines()
                   if line.startswith('{"kind":"weak_sufficiency"'))
    statistic, family = load_bundled_instance()
    now = serialize_certificate(make_certificate(
        "weak_sufficiency", check_weak_sufficiency(statistic, family)))
    assert example == now and verify_certificate(instance_text, example).ok


def test_shared_atom_is_replayed_at_the_recorded_petz_feasibility():
    # b puts weight 1e-5 on a's atom span(e0, e1): shared at 1e-7, not at 1e-4
    statistic = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]).astype(complex))
    b = [0.0, math.sqrt(1e-5), math.sqrt(1.0 - 1e-5)]
    family = StateFamily(labels=("a", "b"), vectors=np.array([[1, 0, 0], b], dtype=complex))
    instance_text = serialize_instance(statistic, family)
    cert = make_certificate("petz", petz_feasibility(PetzInstance.from_parts(statistic, family)))
    assert cert["verdict"] == "infeasible_shared_atoms"
    assert verify_certificate(instance_text, json.dumps(cert)).ok
    report = replayed(instance_text, cert, petz_feasibility=1e-4)
    assert not report.ok and "not loaded by both" in report.detail


def test_owner_sharing_its_atom_is_refused_below_the_residual_bound():
    # b puts weight 5e-7 on a's atom span(e0, e1): shared at 1e-7, yet the
    # owners [a, b] rebuild both states within RECONSTRUCTION_TOL
    statistic = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]).astype(complex))
    b = [0.0, math.sqrt(5e-7), math.sqrt(1.0 - 5e-7)]
    family = StateFamily(labels=("a", "b"), vectors=np.array([[1, 0, 0], b], dtype=complex))
    instance_text = serialize_instance(statistic, family)
    cert = make_certificate("petz", petz_feasibility(PetzInstance.from_parts(statistic, family)))
    assert cert["verdict"] == "infeasible_shared_atoms"
    cert["verdict"] = "feasible"
    cert["payload"] = {"owners": ["a", "b"], "spectrum": cert["payload"]["spectrum"]}
    report = verify_certificate(instance_text, json.dumps(cert))
    assert not report.ok and "'a' is not the one loader of atom 0" in report.detail
    assert replayed(instance_text, cert, petz_feasibility=1e-6).ok


# ------------------------------------------------- one numpy conversion, the walker's answers


def pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def equivalence_instances():
    """Valid instances at d 1, 2, 8 and 32, dense and explicit, holding
    -0.0, integer entries and integers near 2**53 (on a dense diagonal)."""
    rng = np.random.default_rng(15)
    for d in (1, 2, 8, 32):
        v = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        v[0] = v[0].real
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        states = {f"s{i}": pairs(row) for i, row in enumerate(v)}
        states["s0"] = [[re, -0.0] for re, _ in states["s0"]]
        states["basis"] = [[1, 0]] + [[0, -0.0] for _ in range(d - 1)]
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        matrix = pairs(h + h.conj().T)
        for k, big in enumerate((2**53 - 1, 2**53 + 1, -(2**53) - 3, 7)[:d]):
            matrix[k][k] = [big, -0.0]
        if d > 1:
            matrix[0][1], matrix[1][0] = [3, -0.0], [3, 0]
        upper = np.diag(np.arange(d) < max(1, d // 2)).astype(complex)
        explicit = {"eigenvalues": [0.0, 1.0][:1 + (d > 1)],
                    "projections": [pairs(p) for p in (upper, np.eye(d) - upper)][:1 + (d > 1)]}
        for statistic in ({"matrix": matrix}, explicit):
            yield {"dimension": d, "states": states, "statistic": statistic}
    # a label that reads like a JSON boolean takes the walker
    yield {"dimension": 1, "states": {"true": [[1.0, 0.0]]}, "statistic": {"matrix": [[[2, 0]]]}}


def read_outcome(text):
    """The arrays read_instance reads, as bytes, or the type and message it raises."""
    try:
        instance = read_instance(text)
    except Exception as exc:
        return type(exc), str(exc)
    explicit = instance._explicit
    read = [np.array(instance.family.vectors), instance.matrix,
            None if explicit is None else explicit.projections]
    return instance.family.labels, [np.ascontiguousarray(a).tobytes() for a in read
                                    if a is not None]


def walked_outcome(text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_converted", lambda node, shape: None)
        return read_outcome(text)


def picked(d: int):
    """The entries edited in a row of d: all of them up to d = 8, else the
    first and the last, to keep the d = 32 edits few."""
    return range(d) if d <= 8 else (0, d - 1)


def number_rows(root):
    """The path to each list of the states and the dense matrix whose entries
    are [re, im] pairs or rows of them."""
    for label in root["states"]:
        yield ("states", label)
    if "matrix" in root["statistic"]:
        yield ("statistic", "matrix")
        yield from (("statistic", "matrix", i) for i in picked(root["dimension"]))


def number_leaves(root):
    """The path to each number of the states and the dense matrix."""
    d = root["dimension"]
    for label in root["states"]:
        yield from (("states", label, i, part) for i in picked(d) for part in (0, 1))
    if "matrix" in root["statistic"]:
        yield from (("statistic", "matrix", i, j, part)
                    for i in picked(d) for j in picked(d) for part in (0, 1))


LEAF_JUNK = (True, False, None, "1.0", 10**400, math.nan, math.inf, [1.0], [])


def witness_certificates():
    """(instance text, certificate) for check, construct and minimal on
    planted dense instances at d 3 and 8: every witness chi and every
    constructed statistic's directions the verifier reads."""
    rng = np.random.default_rng(27)
    for values, sizes in (([1.0, 2.0, 3.0], [1, 1, 1]), ([-1.0, 0.5, 2.0], [2, 3, 3])):
        text, _ = planted_dense(rng, values, sizes)
        certificates = certificates_of(text)
        certificates.append(make_certificate("existence", exists_weakly_sufficient(
            read_instance(text).family)))
        for cert in certificates:
            yield text, json.loads(serialize_certificate(cert))


def certificate_number_edits(cert):
    """(path, junk) for the numbers and [re, im] rows of a certificate's chi
    and directions, as number_leaves and number_rows edit an instance."""
    payload = cert["payload"]
    vectors = [("payload", "witness", "chi")]
    if "directions" in payload:
        vectors += [("payload", "directions", n) for n in range(len(payload["directions"]))]
        rows = payload["directions"]
        yield ("payload", "directions"), rows[:-1]
        yield ("payload", "directions"), rows + rows[:1]
    for path in vectors:
        row = node_at(cert, path)
        yield path, row[:-1]
        yield path, row + row[:1]
        for i in picked(len(row)):
            for part in (0, 1):
                yield from ((path + (i, part), junk) for junk in LEAF_JUNK)


def verified_outcome(instance_text, cert_text, monkeypatch):
    """verify_certificate's (ok, detail), with the bytes of each witness chi
    and statistic it replays."""
    replayed = []
    verify_witness = fileio.sufficiency.verify_witness

    def recording(statistic, family, witness, tol):
        replayed.append([witness.chi.tobytes()]
                        + [np.ascontiguousarray(p).tobytes() for p in statistic.projections])
        return verify_witness(statistic, family, witness, tol=tol)

    with monkeypatch.context() as patch:
        patch.setattr(fileio.sufficiency, "verify_witness", recording)
        report = verify_certificate(instance_text, cert_text)
    return report.ok, report.detail, replayed


def walked_verification(instance_text, cert_text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_converted", lambda node, shape: None)
        return verified_outcome(instance_text, cert_text, monkeypatch)


def test_one_conversion_reads_what_the_walker_reads(monkeypatch):
    for root in equivalence_instances():
        text = json.dumps(root)
        outcome = read_outcome(text)
        assert not isinstance(outcome[0], type), outcome
        assert outcome == walked_outcome(text, monkeypatch)
        edits = [(path, junk) for path in number_leaves(root) for junk in LEAF_JUNK]
        for path in number_rows(root):
            row = node_at(root, path)
            edits += [(path, row[:-1]), (path, row + row[:1])]
        for path, value in edits:
            parent = node_at(root, path[:-1])
            kept, parent[path[-1]] = parent[path[-1]], value
            edited = json.dumps(root)
            parent[path[-1]] = kept
            outcome = read_outcome(edited)
            assert outcome == walked_outcome(edited, monkeypatch), (root["dimension"], path)
            assert issubclass(outcome[0], ValueError), (path, value, outcome)
    # a certificate's chi and directions
    for text, cert in witness_certificates():
        cert_text = json.dumps(cert)
        outcome = verified_outcome(text, cert_text, monkeypatch)
        assert outcome[0] and outcome[2], outcome[1]
        assert outcome == walked_verification(text, cert_text, monkeypatch)
        for path, value in certificate_number_edits(cert):
            parent = node_at(cert, path[:-1])
            kept, parent[path[-1]] = parent[path[-1]], value
            edited = json.dumps(cert)
            parent[path[-1]] = kept
            outcome = verified_outcome(text, edited, monkeypatch)
            assert outcome == walked_verification(text, edited, monkeypatch), (cert["kind"], path)
            assert not outcome[0], (cert["kind"], path, value)


def test_a_valid_instance_never_enters_the_walker(monkeypatch):
    root = next(r for r in equivalence_instances()
                if r["dimension"] == 32 and "matrix" in r["statistic"])

    def walked(node, path):
        raise AssertionError(f"walked {path}")

    monkeypatch.setattr(fileio, "_pair", walked)
    instance = read_instance(json.dumps(root))
    assert len(instance.family) == 4 and instance.has_statistic


# ------------------------------------------------- the recorded spectrum


def count_eigensolves(monkeypatch) -> list:
    """The shape of every matrix the eigen kernel solves from now on."""
    calls = []
    original = linalg._eigen

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(linalg, "_eigen", counting)
    return calls


def planted_dense(rng, values, sizes, n_states=3):
    """A dense T with eigenvalue values[k] on a random block of sizes[k]
    dimensions, and states with real coefficients on one direction of
    each block, so that T is weakly sufficient; returns (instance text, T)."""
    d = sum(sizes)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    blocks = np.split(basis, np.cumsum(sizes)[:-1], axis=1)
    matrix = sum(v * (b @ b.conj().T) for v, b in zip(values, blocks))
    matrix = 0.5 * (matrix + matrix.conj().T)
    directions = np.array([b[:, 0] for b in blocks])
    vectors = rng.normal(size=(n_states, len(blocks))) @ directions
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    root = json.loads(serialize_instance(None, StateFamily(
        tuple(f"s{i}" for i in range(n_states)), vectors)))
    root["statistic"] = {"matrix": pairs(matrix)}
    return json.dumps(root), matrix


def certificates_of(text):
    """The check and minimal certificates of an instance, as the commands print them."""
    instance = read_instance(text)
    statistic, family = instance.statistic, instance.family
    minimal = minimal_statistic(statistic, family)
    kind = "weak_sufficiency" if isinstance(minimal, SufficiencyVerdict) else "minimality"
    return [make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family)),
            make_certificate(kind, minimal)]


def test_a_dense_certificate_is_verified_without_an_eigensolve(monkeypatch):
    # d = 16, four atoms: the parent's verifier decomposed T once more
    text, _ = planted_dense(np.random.default_rng(16), [1.0, 2.0, 3.0, 4.0], [1, 3, 5, 7])
    cert = serialize_certificate(certificates_of(text)[0])
    solves = count_eigensolves(monkeypatch)
    report = verify_certificate(text, cert)
    assert report.ok, report.detail
    assert solves == []


@pytest.mark.parametrize("values, sizes, seed", [
    (np.sort(np.random.default_rng(24).normal(size=24)), [1] * 24, 24),
    ([1.0, 1.0 + 1e-8, 2.0, 3.0], [2, 2, 2, 2], 8),
], ids=["generic_d24", "gap_1e-8"])
def test_hard_spectra_fall_back_to_the_eigensolve_and_verify(monkeypatch, values, sizes, seed):
    text, matrix = planted_dense(np.random.default_rng(seed), values, sizes)
    decomposed = statistic_from_matrix(matrix)
    assert len(decomposed) == len(values)
    with pytest.raises(ValueError):
        spectral.statistic_from_spectrum(matrix, decomposed.spectrum)
    for cert in certificates_of(text):
        assert cert["verdict"] in ("sufficient", "minimal_constructed")
        solves = count_eigensolves(monkeypatch)
        report = verify_certificate(text, serialize_certificate(cert))
        assert report.ok, (cert["verdict"], report.detail)
        assert solves == [matrix.shape]   # the fallback, once


def missed_by_e1(rng, kind):
    """(instance text, T) for a dense T whose eigenspaces e1 does not all
    meet: diagonal, or block-diagonal with e1 in the first of two 8 x 8
    blocks; states with real coefficients on one direction of each atom."""
    if kind == "diagonal":
        values, basis = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0]), np.eye(6)
    else:
        values = np.repeat([1.0, 2.0, 3.0, 4.0], 4)
        basis = np.zeros((16, 16), dtype=complex)
        for block in slice(0, 8), slice(8, 16):
            q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
            basis[block, block] = q
    matrix = (basis * values) @ basis.conj().T
    matrix = 0.5 * (matrix + matrix.conj().T)
    directions = basis[:, np.unique(values, return_index=True)[1]].T
    vectors = rng.normal(size=(3, len(directions))) @ directions
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    root = json.loads(serialize_instance(None, StateFamily(("s0", "s1", "s2"), vectors)))
    root["statistic"] = {"matrix": pairs(matrix)}
    return json.dumps(root), matrix


@pytest.mark.parametrize("kind", ["diagonal", "block_diagonal"])
def test_a_statistic_whose_eigenspace_e1_misses_falls_back_and_verifies(monkeypatch, kind):
    # the Krylov block of e1 holds only some of T's eigenvalues, so their
    # covariants fail their checks and the eigenpairs give the atoms
    text, matrix = missed_by_e1(np.random.default_rng(34), kind)
    solves, eigenpairs = [], spectral.statistic_from_eigenpairs

    def solving(m):
        solves.append(m.shape)
        return eigenpairs(m)

    monkeypatch.setattr(spectral, "statistic_from_eigenpairs", solving)
    assert len(linalg.krylov_eigvals(linalg.as_hermitian(matrix))) < 4
    decomposed = statistic_from_matrix(matrix)
    assert solves == [matrix.shape]
    reference = eigenpairs(matrix)
    assert np.abs(decomposed.eigenvalues - reference.eigenvalues).max() <= 1e-14
    assert np.abs(decomposed.stack - reference.stack).max() <= 1e-12
    for cert in certificates_of(text):
        assert cert["verdict"] in ("sufficient", "minimal_constructed")
        report = verify_certificate(text, serialize_certificate(cert))
        assert report.ok, (cert["verdict"], report.detail)


def test_the_verifier_tries_the_covariants_of_a_record_once(monkeypatch):
    # fifteen atoms, two of them 1e-6 apart: the covariants of the recorded
    # values fail their checks, and T is decomposed into eigenpairs at once,
    # with no second try through values-only QL and the same covariants;
    # the command line's read takes the same one eigenpair solve
    values = [1.0, 1.0 + 1e-6, *np.arange(2.0, 15.0)]
    text, _ = planted_dense(np.random.default_rng(15), values, [2] * 15)
    solves, eigenpairs = [], spectral.statistic_from_eigenpairs

    def solving(m):
        solves.append(m.shape)
        return eigenpairs(m)

    monkeypatch.setattr(spectral, "statistic_from_eigenpairs", solving)
    cert = serialize_certificate(certificates_of(text)[0])
    assert solves == [(30, 30)]
    proofs, original = [], spectral.statistic_from_spectrum

    def counting(m, spectrum):
        proofs.append(len(spectrum))
        return original(m, spectrum)

    monkeypatch.setattr(spectral, "statistic_from_spectrum", counting)
    del solves[:]
    report = verify_certificate(text, cert)
    assert report.ok, report.detail
    assert proofs == [15] and solves == [(30, 30)]


# records that are not the spectrum 1, 2, 3, 4 of a T of dimension 6
TAMPERED_SPECTRA = {
    "dropped": [1.0, 2.0, 3.0],
    "spurious_far": [1.0, 2.0, 3.0, 4.0, 14.0],
    "shifted_1e-6": [1.0, 2.0, 3.0, 4.0 + 1e-6],
    "split_atom": [1.0, 2.0, 2.0 + 1e-10, 3.0, 4.0],
    "unsorted": [4.0, 3.0, 2.0, 1.0],
    "wrong_length": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    "nan": [1.0, 2.0, 3.0, math.nan],
    "string": [1.0, 2.0, 3.0, "4.0"],
    "empty": [],
}


@pytest.mark.parametrize("name", list(TAMPERED_SPECTRA))
def test_a_tampered_spectrum_is_rejected_not_raised(name):
    text, _ = planted_dense(np.random.default_rng(4), [1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    record = TAMPERED_SPECTRA[name]
    for cert in certificates_of(text):
        assert verify_certificate(text, serialize_certificate(cert)).ok
        cert["payload"]["spectrum"] = record
        report = verify_certificate(text, json.dumps(cert))
        assert not report.ok
        assert "$.payload.spectrum" in report.detail, (name, report.detail)


def test_a_spurious_value_cannot_name_an_empty_atom_dead():
    # the covariant of a value T lacks is an empty atom, which passes the
    # partition checks; unless the verifier refuses it, a forged
    # no_minimal_exists could name it as T's dead atom
    text, matrix = planted_dense(np.random.default_rng(5), [1.0, 2.0, 3.0], [1, 2, 3])
    with pytest.raises(ValueError, match="projection 3 is empty"):
        spectral.statistic_from_spectrum(matrix, [1.0, 2.0, 3.0, 10.0])
    cert = certificates_of(text)[1]
    assert cert["verdict"] == "minimal_constructed"
    cert["verdict"] = "no_minimal_exists"
    cert["payload"] = {"dead_atom": 3, "spectrum": [1.0, 2.0, 3.0, 10.0]}
    report = verify_certificate(text, json.dumps(cert))
    assert not report.ok and "$.payload.spectrum" in report.detail, report.detail


def test_a_spectrum_merging_two_atoms_is_rejected():
    # T = diag(0, 1, 1 + 5e-9) has three atoms at the grouping cutoff, and
    # is weakly sufficient for these states; a refusal of the statistic that
    # merges the last two, recording one value between them, must not verify
    s = 1.0 / math.sqrt(2.0)
    family = StateFamily(labels=("a", "b"), vectors=np.array(
        [[s, s, 0.0], [s, 0.0, s]], dtype=complex))
    split = statistic_from_matrix(np.diag([0.0, 1.0, 1.0 + 5e-9]).astype(complex))
    text = dense_instance_text(split, family)
    instance = read_instance(text)
    assert len(split) == 3
    assert check_weak_sufficiency(instance.statistic, instance.family).sufficient
    merged = spectral.DiscreteStatistic(np.array([0.0, 1.0 + 2.5e-9]), (
        split.projections[0], split.projections[1] + split.projections[2]))
    forged = make_certificate("weak_sufficiency", check_weak_sufficiency(merged, family))
    assert forged["verdict"] == "not_sufficient"
    report = verify_certificate(text, serialize_certificate(forged))
    assert not report.ok and "$.payload.spectrum" in report.detail, report.detail


def test_the_spectrum_is_recorded_exactly_where_a_verdict_reads_the_statistic():
    for instance_text, cert in every_certificate_on_both_encodings():
        reads = cert["kind"] != "existence" and cert["verdict"] != "infeasible_orthogonality"
        assert ("spectrum" in cert["payload"]) == reads, cert["verdict"]
        edited = json.loads(json.dumps(cert))
        if reads:
            del edited["payload"]["spectrum"]
            expected = "$.payload.spectrum: missing key"
        else:
            edited["payload"]["spectrum"] = [1.0]
            expected = "$.payload.spectrum: unexpected key"
        report = verify_certificate(instance_text, json.dumps(edited))
        assert not report.ok and expected in report.detail, report.detail


def test_certificates_are_compact_json_with_sorted_keys():
    statistic, family = load_bundled_instance()
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    text = serialize_certificate(cert)
    assert text == json.dumps(cert, sort_keys=True, separators=(",", ":"))
    assert "\n" not in text and ", " not in text and json.loads(text) == cert
