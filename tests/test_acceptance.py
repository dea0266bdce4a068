"""Acceptance gate: one test per shipped guarantee, each with a time budget.

Every test prints a single line `criterion N: PASS (...)` on success; a
failed assertion marks the criterion failed.  The budgets are asserted,
not advisory.
"""

import math
import time

import numpy as np

from wsq.cli import run_cli
from wsq.fileio import load_bundled_instance, serialize_instance
from wsq.harness import (
    MUTATIONS,
    GeneratorSpec,
    dead_atom_counterexamples,
    generate,
    is_function_of,
    petz_implies_weak_check,
    run_property_suite,
    structural_check,
)
from wsq.linalg import hermitian_eig
from wsq.minimality import (
    MinimalStatistic,
    NoMinimalExists,
    check_coarse_sufficient,
    enumerate_coarse_grainings,
    minimal_statistic,
)
from wsq.petz import (
    Feasible,
    InfeasibleOrthogonality,
    PetzInstance,
    orthogonality_precheck,
    petz_feasibility,
)
from wsq.phases import VersionAssignment
from wsq.spectral import apply_coarse
from wsq.sufficiency import (
    ConstructedStatistic,
    NonExistence,
    WitnessFactorization,
    check_weak_sufficiency,
    exists_weakly_sufficient,
    verify_witness,
)
from wsq.harness import _planted_class_instance


def _passed(n: int, elapsed: float, message: str) -> None:
    print(f"criterion {n}: PASS ({elapsed:.2f}s) {message}")


def test_criterion_1_shipped_instance_is_certified_sufficient(tmp_path, capsys):
    statistic, family = load_bundled_instance()
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(statistic, family))

    start = time.perf_counter()
    code = run_cli(["check", "--input", str(path)])
    verdict = check_weak_sufficiency(statistic, family)
    emitted = verify_witness(statistic, family, verdict.witness)
    closed_form = WitnessFactorization(
        chi=family.vector("phi2"),
        functions={
            "phi1": {1.0: math.sqrt(2.0), -1.0: 0.0},
            "phi2": {1.0: 1.0, -1.0: 1.0},
        },
        versions=VersionAssignment(phases={"phi1": 1.0 + 0j, "phi2": 1.0 + 0j}),
    )
    explicit = verify_witness(statistic, family, closed_form)
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    assert code == 0
    assert verdict.sufficient
    assert emitted.max_residual <= 1e-12
    assert explicit.max_residual <= 1e-12
    assert elapsed < 0.1
    with capsys.disabled():
        _passed(1, elapsed,
                f"shipped instance sufficient; witness residuals "
                f"{emitted.max_residual:.1e} (emitted), "
                f"{explicit.max_residual:.1e} (closed form)")


def test_criterion_2_shipped_instance_fails_petz_orthogonality(tmp_path, capsys):
    statistic, family = load_bundled_instance()
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(statistic, family))

    start = time.perf_counter()
    code = run_cli(["petz", "--input", str(path)])
    result = petz_feasibility(PetzInstance.from_parts(statistic, family))
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    assert code == 1
    assert isinstance(result, InfeasibleOrthogonality)
    assert abs(abs(result.overlap) - 1.0 / math.sqrt(2.0)) <= 1e-12
    assert elapsed < 0.1
    with capsys.disabled():
        _passed(2, elapsed,
                f"shipped instance infeasible; overlap {abs(result.overlap):.12f}")


def test_criterion_3_construction_roundtrip_and_refusal(capsys):
    start = time.perf_counter()
    for seed in range(100):
        spec = GeneratorSpec(dim=2 + seed % 7, n_states=2 + seed % 4,
                             flavor="real_vectors", seed=seed)
        _, family = generate(spec)
        built = exists_weakly_sufficient(family)
        assert isinstance(built, ConstructedStatistic), f"seed {seed} refused"
        verdict = check_weak_sufficiency(built.statistic, family)
        assert verdict.sufficient, f"seed {seed} constructed a failing statistic"
    for seed in range(20):
        n_states = 3 + seed % 3
        dim = 2 + (n_states - 3) + seed % 3
        spec = GeneratorSpec(dim=dim, n_states=n_states,
                             flavor="phase_obstructed", seed=seed)
        _, family = generate(spec)
        refused = exists_weakly_sufficient(family)
        assert isinstance(refused, NonExistence), f"seed {seed} missed obstruction"
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    with capsys.disabled():
        _passed(3, elapsed,
                "100 constructions verified, 20 obstructions refused")


def test_criterion_4_coarse_graining_shortcut_matches_direct_checks(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    cases = 0
    max_atoms_seen = 0
    for i in range(30):
        n_atoms = (3, 3, 4, 4, 5)[i % 5] if i < 28 else 7
        dim = n_atoms + int(rng.integers(0, 3))
        n_states = 2 + int(rng.integers(0, 3))
        statistic, family = _planted_class_instance(rng, dim, n_atoms, n_states)
        assert check_weak_sufficiency(statistic, family).sufficient
        max_atoms_seen = max(max_atoms_seen, len(statistic))
        for cmap in enumerate_coarse_grainings(statistic):
            shortcut = check_coarse_sufficient(statistic, family, cmap)
            applied, _ = apply_coarse(statistic, cmap)
            direct = check_weak_sufficiency(applied, family).sufficient
            assert shortcut == direct, (
                f"instance {i}: shortcut {shortcut} vs direct {direct} on {cmap}"
            )
            cases += 1
    elapsed = time.perf_counter() - start

    assert max_atoms_seen == 7  # the largest lattice has Bell(7) = 877 members
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(4, elapsed,
                f"{cases} coarse-grainings over 30 instances, 100% agreement")


def test_criterion_5_minimal_statistic_is_a_function_of_every_sufficient_coarsening(capsys):
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    sufficient_coarsenings = 0
    for i in range(30):
        n_atoms = (3, 4, 4, 5, 5, 6)[i % 6] if i < 28 else 7
        dim = n_atoms + int(rng.integers(0, 2))
        n_states = 2 + int(rng.integers(0, 3))
        statistic, family = _planted_class_instance(rng, dim, n_atoms, n_states)
        minimal = minimal_statistic(statistic, family)
        assert isinstance(minimal, MinimalStatistic), f"instance {i} had a dead atom"
        for cmap in enumerate_coarse_grainings(statistic):
            applied, _ = apply_coarse(statistic, cmap)
            if not check_weak_sufficiency(applied, family).sufficient:
                continue
            relabelling = is_function_of(minimal.statistic, applied)
            assert relabelling is not None, (
                f"instance {i}: minimal statistic is not a function of {cmap}"
            )
            sufficient_coarsenings += 1
    for i in range(10):
        n_atoms = 3 + i % 3
        dim = n_atoms + 1
        statistic, family = _planted_class_instance(
            rng, dim, n_atoms, n_states=3, dead_atom=True
        )
        missing = minimal_statistic(statistic, family)
        assert isinstance(missing, NoMinimalExists), f"dead-atom instance {i}"
        merged = dead_atom_counterexamples(statistic, missing.dead_atom)
        assert merged, f"dead-atom instance {i} produced no counterexamples"
        for merged_statistic in merged.values():
            verdict = check_weak_sufficiency(merged_statistic, family)
            assert verdict.sufficient, (
                f"dead-atom instance {i}: merged statistic lost sufficiency"
            )
    elapsed = time.perf_counter() - start

    assert elapsed < 60.0
    with capsys.disabled():
        _passed(5, elapsed,
                f"30 minimality checks ({sufficient_coarsenings} sufficient "
                f"coarsenings), 10 dead-atom refusals with counterexamples")


def test_criterion_6_petz_feasibility_structure_and_necessity(capsys):
    start = time.perf_counter()
    for seed in range(50):
        spec = GeneratorSpec(dim=4 + seed % 4, n_states=2 + seed % 3,
                             flavor="atom_planted", seed=seed)
        statistic, family = generate(spec)
        instance = PetzInstance.from_parts(statistic, family)
        cert = petz_feasibility(instance)
        assert isinstance(cert, Feasible), f"seed {seed} not feasible"
        report = structural_check(instance, cert)
        assert report.ok, f"seed {seed}: {report.violations}"
        assert petz_implies_weak_check(instance, cert), f"seed {seed}"
    for seed in range(50):
        spec = GeneratorSpec(dim=3 + seed % 4, n_states=2 + seed % 3,
                             flavor="complex_vectors", seed=seed)
        statistic, family = generate(spec)
        instance = PetzInstance.from_parts(statistic, family)
        assert orthogonality_precheck(family) is not None, (
            f"seed {seed} produced an orthogonal family"
        )
        result = petz_feasibility(instance)
        assert not isinstance(result, Feasible), f"seed {seed} wrongly feasible"
    elapsed = time.perf_counter() - start

    assert elapsed < 30.0
    with capsys.disabled():
        _passed(6, elapsed,
                "50 planted instances feasible with projector structure; "
                "50 overlapping families all infeasible")


def test_criterion_7_eigensolver_reconstruction_floor(capsys):
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        d = 2 + i % 31
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        matrix = 0.5 * (raw + raw.conj().T)
        w, v = hermitian_eig(matrix)
        rebuilt = v @ np.diag(w) @ v.conj().T
        rel = np.linalg.norm(rebuilt - matrix) / max(np.linalg.norm(matrix), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-9, f"matrix {i} (d={d}): relative residual {rel:.3e}"
    elapsed = time.perf_counter() - start

    assert elapsed < 5.0
    with capsys.disabled():
        _passed(7, elapsed,
                f"100 reconstructions; worst relative residual {worst:.2e}")


def test_criterion_8_mutations_are_each_detected(capsys):
    start = time.perf_counter()
    detected = {}
    for name in sorted(MUTATIONS):
        report = run_property_suite(seed=0, count=40, mutation=name)
        failures = report.failures()
        assert failures, f"mutation {name!r} went undetected"
        detected[name] = [r.name for r in failures]
    clean = run_property_suite(seed=0, count=12)
    assert clean.ok, "a mutation flag leaked into the clean suite"
    elapsed = time.perf_counter() - start

    with capsys.disabled():
        summary = "; ".join(
            f"{name} -> {len(props)} failing properties"
            for name, props in detected.items()
        )
        _passed(8, elapsed, summary)
