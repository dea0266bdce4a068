import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import wsq.petz as petz_mod
from wsq.fileio import (
    make_certificate,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.harness import (
    _shared_atom_instance,
    gram_schmidt,
    petz_implies_weak_check,
    structural_check,
)
from wsq.linalg import hermitian_eig
from wsq.petz import (
    Feasible,
    InfeasibleOrthogonality,
    InfeasibleSharedAtoms,
    PetzInstance,
    orthogonality_precheck,
    petz_feasibility,
)
from wsq.spectral import StateFamily, statistic_from_matrix
from wsq.sufficiency import check_weak_sufficiency


def basis_pair_instance():
    t = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    fam = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    return PetzInstance.from_parts(t, fam)


def shared_atom_instance(unital=True):
    """e0/e2 and e1/e3 superpositions sharing the atom span(e0, e1).

    Each state also owns an atom, so only the trace-one constraint
    (the unital case) makes the shared atom fatal.
    """
    a, b = np.sqrt(0.6), np.sqrt(0.4)
    t = statistic_from_matrix(np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex))
    vectors = np.array([[a, 0, b, 0], [0, a, 0, b]], dtype=complex)
    fam = StateFamily(labels=("phi1", "phi2"), vectors=vectors)
    return PetzInstance.from_parts(t, fam, unital=unital)


def planted_instance(rng, dim, block_sizes, n_states=None):
    """Statistic with random orthonormal atom blocks; one state per block.

    Each state sits inside its own atom, so the channel-feasibility
    system has the projector solution and the structural guarantee
    applies.  Blocks beyond n_states carry no weight at all.
    """
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = gram_schmidt(raw)
    mat = np.zeros((dim, dim), dtype=complex)
    start = 0
    leads = []
    for k, size in enumerate(block_sizes):
        proj = np.zeros((dim, dim), dtype=complex)
        for i in range(start, start + size):
            proj += np.outer(basis[i], basis[i].conj())
        mat += (k + 1.0) * proj
        leads.append(start)
        start += size
    if n_states is None:
        n_states = len(block_sizes)
    vectors = np.array([basis[leads[k]] for k in range(n_states)])
    labels = tuple(f"s{k}" for k in range(n_states))
    t = statistic_from_matrix(mat)
    return PetzInstance.from_parts(t, StateFamily(labels=labels, vectors=vectors))


def test_orthogonal_basis_pair_is_feasible():
    inst = basis_pair_instance()
    cert = petz_feasibility(inst)
    assert isinstance(cert, Feasible)
    assert cert.max_constraint_residual <= 1e-7
    # eigenvalue -1 is the first atom, carrying e2; +1 carries e1
    assert cert.owners == ("e2", "e1")
    assert np.abs(cert.rhos[0] - np.diag([0.0, 1.0])).max() < 1e-7
    assert np.abs(cert.rhos[1] - np.diag([1.0, 0.0])).max() < 1e-7
    for rho in cert.rhos:
        evals, _ = hermitian_eig(rho)
        assert evals.min() > -1e-9
        assert abs(np.trace(rho).real - 1.0) < 1e-7


def test_overlapping_pair_is_infeasible_by_orthogonality():
    t = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    s = 1.0 / np.sqrt(2.0)
    fam = StateFamily(
        labels=("phi1", "phi2"),
        vectors=np.array([[1.0, 0.0], [s, s]], dtype=complex),
    )
    cert = petz_feasibility(PetzInstance.from_parts(t, fam))
    assert isinstance(cert, InfeasibleOrthogonality)
    assert cert.pair == ("phi1", "phi2")
    assert abs(cert.overlap) == pytest.approx(s, abs=1e-12)


def test_contradictory_shared_atom_is_refused():
    # a single-atom statistic would need one rho equal to two different
    # projectors at once, so the refusal names that atom and both states
    t = statistic_from_matrix(3.0 * np.eye(2, dtype=complex))
    fam = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    for unital in (True, False):
        cert = petz_feasibility(PetzInstance.from_parts(t, fam, unital=unital))
        assert cert == InfeasibleSharedAtoms(state="e1", pairs=((0, "e2"),))


def test_shared_atom_is_fatal_only_when_unital():
    cert = petz_feasibility(shared_atom_instance(unital=True))
    assert cert == InfeasibleSharedAtoms(state="phi1", pairs=((0, "phi2"),))
    assert isinstance(petz_feasibility(shared_atom_instance(unital=False)), Feasible)


S = 1.0 / np.sqrt(2.0)
NO_PRIVATE_ATOMS = {
    # two states against a single atom
    "single_atom": (np.diag([3.0, 3.0]), ("e1", "e2"), np.eye(2)),
    # every atom shared: e0 and (e1+e2)/sqrt2 on diag(1,1,0,0),
    # (e1+e2)/sqrt2 and e3 on diag(0,0,1,1)
    "every_atom_shared": (
        np.diag([1.0, 1.0, 2.0, 2.0]),
        ("e0", "e12", "e3"),
        np.array([[1, 0, 0, 0], [0, S, S, 0], [0, 0, 0, 1]]),
    ),
}


@pytest.mark.parametrize("unital", [True, False])
@pytest.mark.parametrize("case", sorted(NO_PRIVATE_ATOMS))
def test_refusal_without_private_atoms_verifies(case, unital):
    matrix, labels, vectors = NO_PRIVATE_ATOMS[case]
    t = statistic_from_matrix(matrix.astype(complex))
    fam = StateFamily(labels=labels, vectors=vectors.astype(complex))
    cert = petz_feasibility(PetzInstance.from_parts(t, fam, unital=unital))
    assert isinstance(cert, InfeasibleSharedAtoms)
    assert cert.state == fam.labels[0]
    text = make_certificate("petz", cert, parameters={"unital": unital})
    report = verify_certificate(serialize_instance(t, fam), serialize_certificate(text))
    assert report.ok, report.detail


def test_precheck_reports_first_overlap():
    vecs = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, 0.8]], dtype=complex
    )
    fam = StateFamily(labels=("a", "b", "c"), vectors=vecs)
    hit = orthogonality_precheck(fam)
    assert hit is not None
    pair, overlap = hit
    assert pair == ("b", "c")
    assert overlap == pytest.approx(0.6, abs=1e-12)
    assert orthogonality_precheck(StateFamily(labels=("a", "b"), vectors=vecs[:2])) is None


def test_planted_instances_feasible_with_structure():
    rng = np.random.default_rng(31)
    for trial in range(10):
        dim = int(rng.integers(3, 8))
        n_blocks = int(rng.integers(2, min(dim, 4) + 1))
        sizes = [1] * n_blocks
        if dim > n_blocks:
            sizes.append(dim - n_blocks)
        inst = planted_instance(rng, dim, sizes, n_states=n_blocks)
        cert = petz_feasibility(inst)
        assert isinstance(cert, Feasible)
        report = structural_check(inst, cert)
        assert report.ok, report.violations
        for rho in cert.rhos:
            evals, _ = hermitian_eig(rho)
            assert evals.min() > -1e-9
        assert petz_implies_weak_check(inst, cert)


def test_state_spread_over_two_atoms_is_feasible():
    # a single state split 0.9/0.1 across two atoms owns both of them,
    # so both carry its projector
    alpha = 0.95
    beta = np.sqrt(1.0 - alpha**2)
    t = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    fam = StateFamily(labels=("phi",), vectors=np.array([[alpha, beta]], dtype=complex))
    inst = PetzInstance.from_parts(t, fam)
    cert = petz_feasibility(inst)
    assert isinstance(cert, Feasible)
    projector = np.outer(fam.vectors[0], fam.vectors[0].conj())
    for rho in cert.rhos:
        assert np.abs(rho - projector).max() < 1e-15
        assert abs(np.trace(rho).real - 1.0) < 1e-6
    report = structural_check(inst, cert)
    assert report.ok, report.violations


def test_non_unital_solution_need_not_have_unit_traces():
    # the shared atom takes rho = 0; each private atom carries its
    # state's projector divided by that state's private weight 0.4
    cert = petz_feasibility(shared_atom_instance(unital=False))
    assert isinstance(cert, Feasible)
    assert cert.owners == (None, "phi1", "phi2")
    assert np.abs(cert.rhos[0]).max() == 0.0
    assert cert.max_constraint_residual <= 1e-15
    traces = [np.trace(rho).real for rho in cert.rhos]
    assert traces == pytest.approx([0.0, 2.5, 2.5], abs=1e-12)


def test_structural_check_detects_corruption():
    rng = np.random.default_rng(55)
    inst = planted_instance(rng, 4, [1, 1, 2], n_states=2)
    cert = petz_feasibility(inst)
    assert isinstance(cert, Feasible)
    assert structural_check(inst, cert).ok

    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 1] = 0.01
    bump[1, 0] = 0.01
    bad = Feasible(
        rhos=[cert.rhos[0] + bump] + cert.rhos[1:],
        max_constraint_residual=cert.max_constraint_residual,
        owners=cert.owners,
    )
    report = structural_check(inst, bad)
    assert not report.ok
    assert "rho[0]" in report.violations[0]

    # the third atom carries no state weight, so its block is free
    free = Feasible(
        rhos=cert.rhos[:2] + [cert.rhos[2] + bump],
        max_constraint_residual=cert.max_constraint_residual,
        owners=cert.owners,
    )
    assert structural_check(inst, free).ok


def test_non_unital_feasibility_with_a_shared_atom_need_not_be_weak():
    # each state owns an atom, so dropping the trace rows makes the shared
    # atom's rho 0; both states load that atom independently, at rank 2
    statistic, family = _shared_atom_instance(np.random.default_rng(0), 4)
    inst = PetzInstance.from_parts(statistic, family, unital=False)
    cert = petz_feasibility(inst)
    assert isinstance(cert, Feasible)
    assert cert.owners == (None, "phi1", "phi2")
    assert (inst.weights[:, 0] > 0.3).all() and not cert.rhos[0].any()
    assert not petz_implies_weak_check(inst, cert)
    assert not check_weak_sufficiency(statistic, family).sufficient
    assert not isinstance(petz_feasibility(PetzInstance.from_parts(statistic, family)),
                          Feasible)


@pytest.mark.parametrize("w", [1e-15, 1e-12, 5e-8])
def test_implication_allows_the_weight_feasibility_ignored(w):
    # T = 2I - uu^T with u = (sqrt(1-w), sqrt(w)): each basis state puts
    # weight w <= FEASIBILITY_TOL on the atom the other owns
    u = np.array([np.sqrt(1 - w), np.sqrt(w)])
    statistic = statistic_from_matrix((2 * np.eye(2) - np.outer(u, u)).astype(complex))
    family = StateFamily(labels=("e0", "e1"), vectors=np.eye(2, dtype=complex))
    inst = PetzInstance.from_parts(statistic, family)
    cert = petz_feasibility(inst)
    assert isinstance(cert, Feasible)
    assert check_weak_sufficiency(statistic, family).sufficient
    assert petz_implies_weak_check(inst, cert)


def test_implication_is_shown_by_the_owners_witness_without_deciding(monkeypatch):
    from wsq import phases, sufficiency

    calls = {}
    for module, name in ((sufficiency, "check_weak_sufficiency"), (phases, "align_phases")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        calls[name] = 0
        for key, loaded in list(sys.modules.items()):
            if key == "wsq" or key.startswith("wsq."):
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        monkeypatch.setattr(loaded, attr, counting)
    inst = planted_instance(np.random.default_rng(31), 5, [1, 1, 3], n_states=2)
    assert petz_implies_weak_check(inst, petz_feasibility(inst))
    assert calls == {"check_weak_sufficiency": 0, "align_phases": 0}
    tree = ast.parse(Path(petz_mod.__file__).read_text())
    imported = [f"{getattr(node, 'module', None) or ''}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [name for name in imported if "sufficiency" in name.split(".")] == []


def test_implication_check_requires_feasible_certificate():
    inst = basis_pair_instance()
    with pytest.raises(ValueError):
        petz_implies_weak_check(inst, InfeasibleSharedAtoms(state="e1", pairs=((0, "e2"),)))
    with pytest.raises(ValueError):
        structural_check(inst, InfeasibleOrthogonality(pair=("a", "b"), overlap=0.5))


def test_solver_is_deterministic():
    rng = np.random.default_rng(90)
    inst = planted_instance(rng, 5, [1, 1, 3], n_states=2)
    first = petz_feasibility(inst)
    second = petz_feasibility(inst)
    assert first.max_constraint_residual == second.max_constraint_residual
    for a, b in zip(first.rhos, second.rhos):
        assert np.array_equal(a, b)


def test_dropping_trace_rows_is_observable():
    # the self-test harness relies on this flag deciding unital shared-atom
    # instances by the non-unital rule, with traces away from one
    inst = shared_atom_instance(unital=True)
    petz_mod._KEEP_TRACE_ROWS = False
    try:
        cert = petz_feasibility(inst)
    finally:
        petz_mod._KEEP_TRACE_ROWS = True
    assert isinstance(cert, Feasible)
    assert max(abs(np.trace(r).real - 1.0) for r in cert.rhos) > 0.1
