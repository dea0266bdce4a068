import json
import math

import numpy as np
import pytest

from wsq.fileio import (
    SchemaError,
    load_bundled_instance,
    make_certificate,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.harness import GeneratorSpec, generate
from wsq.minimality import minimal_statistic
from wsq.petz import PetzInstance, petz_feasibility
from wsq.spectral import StateFamily, statistic_from_matrix
from wsq.sufficiency import check_weak_sufficiency, exists_weakly_sufficient


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
        statistic2, family2 = parse_instance(text)
        assert family2.labels == family.labels
        for label in family.labels:
            assert np.array_equal(family2.vector(label), family.vector(label))
        assert np.array_equal(statistic2.eigenvalues, statistic.eigenvalues)
        for p, q in zip(statistic2.projections, statistic.projections):
            assert np.array_equal(p, q)
        assert serialize_instance(statistic2, family2) == text


def test_statistic_is_optional():
    statistic, family = parse_instance(
        '{"dimension": 2, "states": {"x": [[1.0, 0.0], [0.0, 0.0]]}}'
    )
    assert statistic is None
    assert family.labels == ("x",)


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
    ],
)
def test_schema_errors_are_path_addressed(text, path_fragment):
    with pytest.raises(SchemaError) as err:
        parse_instance(text)
    assert path_fragment in str(err.value)


def test_invariant_violations_are_named():
    with pytest.raises(ValueError, match="state 'phi1' not unit norm"):
        parse_instance(
            '{"dimension": 2, "states": {"phi1": [[0.9, 0.0], [0.0, 0.0]]}}'
        )
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
        parse_instance(text)


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


def test_rank_violation_certificate_verifies():
    statistic = statistic_from_matrix(np.eye(2, dtype=complex) * 2.0)
    family = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    verdict = check_weak_sufficiency(statistic, family)
    assert not verdict.sufficient
    cert = make_certificate("weak_sufficiency", verdict)
    instance_text = serialize_instance(statistic, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    cert["payload"]["rank_violations"][0]["dimension"] = 7
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    for forged in ([3], 3, [], [{"atom": 0, "dimension": 1}], [{"atom": "0"}]):
        cert["payload"]["rank_violations"] = forged
        report = verify_certificate(instance_text, serialize_certificate(cert))
        assert not report.ok


def test_phase_cycle_certificate_verifies_and_rejects_foreign_edges():
    s = 1.0 / math.sqrt(2.0)
    statistic = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    family = StateFamily(labels=("u", "v"),
                         vectors=np.array([[s, s], [s, 1j * s]], dtype=complex))
    verdict = check_weak_sufficiency(statistic, family)
    assert not verdict.sufficient
    cert = make_certificate("weak_sufficiency", verdict)
    instance_text = serialize_instance(statistic, family)
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert report.ok, report.detail
    cert["payload"]["phase_cycle"]["constraints"][0]["value"] = [5.0, 5.0]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "not a constraint" in report.detail


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
    cert = serialize_certificate(
        make_certificate("minimality", minimal_statistic(statistic, family))
    )
    # not weakly sufficient: one atom sees two orthogonal states
    insufficient = serialize_instance(
        statistic_from_matrix(2.0 * np.eye(2, dtype=complex)),
        StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex)),
    )
    # a family spanning one dimension makes minimality vacuous
    vacuous = serialize_instance(
        statistic, StateFamily(labels=("only",), vectors=np.eye(2, dtype=complex)[:1])
    )
    for instance_text in (insufficient, vacuous):
        report = verify_certificate(instance_text, cert)
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
    cert["payload"]["rhos"][0][0][0][0] += 0.5
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
    assert cert["payload"] == {"state": "e1", "pairs": [[0, "e2"]]}
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
    assert cert["payload"] == {"state": "phi1", "pairs": expected}
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok

    def replay(pairs, state="phi1"):
        forged = json.loads(json.dumps(cert))
        forged["payload"] = {"state": state, "pairs": pairs}
        return verify_certificate(instance_text, serialize_certificate(forged))

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
    s = 1.0 / math.sqrt(2.0)
    statistic = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    family = StateFamily(labels=("u", "v"),
                         vectors=np.array([[s, s], [s, 1j * s]], dtype=complex))
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    instance_text = serialize_instance(statistic, family)
    assert verify_certificate(instance_text, serialize_certificate(cert)).ok
    return instance_text, cert


def test_zero_cycle_value_is_rejected_not_raised():
    instance_text, cert = phase_cycle_certificate()
    cert["payload"]["phase_cycle"]["constraints"][0]["value"] = [0, 0]
    report = verify_certificate(instance_text, serialize_certificate(cert))
    assert not report.ok
    assert "constraints[0].value" in report.detail


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


def test_constructed_statistic_that_is_no_partition_is_rejected_not_raised():
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(3, 4))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    family = StateFamily(labels=("a", "b", "c"), vectors=vectors.astype(complex))
    cert = make_certificate("existence", exists_weakly_sufficient(family))
    projections = cert["payload"]["statistic"]["projections"]
    projections[0] = projections[1]
    report = verify_certificate(serialize_instance(None, family), serialize_certificate(cert))
    assert not report.ok
    assert "$.payload.statistic" in report.detail


def test_malformed_instance_still_raises():
    statistic, family = load_bundled_instance()
    cert = make_certificate("weak_sufficiency", check_weak_sufficiency(statistic, family))
    with pytest.raises(SchemaError, match="invalid JSON"):
        verify_certificate("{", serialize_certificate(cert))


# ------------------------------------------------- junk in every certificate node


JUNK = (None, [], {}, "x", 1e309)
# nodes no verdict rests on: the verifier reads none of them
UNREAD = {
    "tool_version", "tolerances", "parameters", "defect", "max_constraint_residual",
    "overlap", ("minimal_constructed", "statistic"), ("minimal_constructed", "classes"),
}


def one_certificate_of_every_verdict():
    s = 1.0 / math.sqrt(2.0)
    bundled = load_bundled_instance()
    basis = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    diag = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    cycle = (diag, StateFamily(labels=("u", "v"),
                               vectors=np.array([[s, s], [s, 1j * s]], dtype=complex)))
    real = StateFamily(labels=("a", "b"), vectors=np.array([[1, 0, 0], [s, s, 0]], dtype=complex))
    dead = (statistic_from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex)), real)
    doubled = statistic_from_matrix(2.0 * np.eye(2, dtype=complex))
    cases = [
        ("weak_sufficiency", bundled, check_weak_sufficiency(*bundled)),
        ("weak_sufficiency", (doubled, basis), check_weak_sufficiency(doubled, basis)),
        ("weak_sufficiency", cycle, check_weak_sufficiency(*cycle)),
        ("existence", (None, real), exists_weakly_sufficient(real)),
        ("existence", (None, obstructed_family()), exists_weakly_sufficient(obstructed_family())),
        ("minimality", bundled, minimal_statistic(*bundled)),
        ("minimality", dead, minimal_statistic(*dead)),
    ]
    for pair in ((diag, basis), bundled, (doubled, basis)):
        cases.append(("petz", pair, petz_feasibility(PetzInstance.from_parts(*pair))))
    for kind, (statistic, family), result in cases:
        cert = make_certificate(kind, result, parameters={"unital": True} if kind == "petz" else None)
        yield serialize_instance(statistic, family), cert


def node_paths(node, here=()):
    yield here
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, here + (key,))


def with_node(cert, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(cert))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def test_junk_in_any_certificate_node_is_rejected_not_raised():
    verdicts = set()
    for instance_text, cert in one_certificate_of_every_verdict():
        verdicts.add((cert["verdict"], *sorted(cert["payload"])))
        assert verify_certificate(instance_text, serialize_certificate(cert)).ok
        for path in node_paths(cert):
            unread = any(key in UNREAD or (cert["verdict"], key) in UNREAD for key in path)
            for junk in JUNK:
                edited = with_node(cert, path, junk)
                if edited == cert:
                    continue
                report = verify_certificate(instance_text, json.dumps(edited))
                assert unread or not report.ok, (cert["verdict"], path, junk)
    assert len(verdicts) == 10   # a rank refusal and a cycle refusal among them
