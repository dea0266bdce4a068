"""Seeded instance generators, brute-force oracles, and the property suite.

The generators plant known structure (real Gram matrices, orthogonal
families, states confined to disjoint atoms, an inconsistent phase
cycle) so that every theorem-level claim in the library has a corpus on
which it must hold; their random bases come from gram_schmidt.  The
brute-force decision procedure re-decides weak sufficiency by exhaustive
means — rank tests through numpy and a phase grid search (oracle_align)
— sharing none of the production checker's union-find path; an
alternating-projection solver with psd_project likewise re-decides
channel feasibility without the exact rule of petz.py.  No command
reaches the theorem oracles is_function_of, dead_atom_counterexamples,
structural_check and petz_implies_weak_check (by the owners witness), so
they live here.  All serve only the tests and the property suite, so no
production module imports this one at module level.
near_threshold_instance pushes planted classes towards the tolerances,
for the property witness_bound_near_thresholds, which stands in for the
witness checks that check and minimal do not make.
run_property_suite executes the whole catalog and reports pass/fail per
property, serializing and shrinking a counterexample for any failure.
certificate_corpus holds a certificate of every kind and verdict, and
certificate_edits every edit of one that the verifier must refuse or, at
a node no verdict rests on, survive; the property
verifier_refuses_edited_certificates samples those edits.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import petz as petz_mod
from . import phases as phases_mod
from . import sufficiency as sufficiency_mod
from .fileio import (
    load_bundled_instance,
    make_certificate,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from .linalg import RANK_TOL, _require_finite, hermitian_eig, hermitian_part, inner, norm
from .minimality import (
    MinimalStatistic,
    NoMinimalExists,
    enumerate_coarse_grainings,
    minimal_statistic,
)
from .petz import (
    FEASIBILITY_TOL,
    Feasible,
    PetzInstance,
    petz_feasibility,
)
from .phases import (
    Constraints,
    Infeasible,
    PhaseConstraint,
    VersionAssignment,
    align_phases,
    cycle_defect,
)
from .spectral import (
    PARTITION_TOL,
    CoarseMap,
    DiscreteStatistic,
    StateFamily,
    apply_coarse,
    statistic_from_matrix,
)
from .sufficiency import (
    NonExistence,
    WitnessFactorization,
    check_weak_sufficiency,
    decide,
    exists_weakly_sufficient,
    tolerances,
    verify_witness,
)

FLAVORS = (
    "real_vectors",
    "complex_vectors",
    "orthogonal_planted",
    "atom_planted",
    "phase_obstructed",
)

MAX_DIM = 32
MAX_STATES = 8
BRUTE_FORCE_MAX_STATES = 4
BRUTE_FORCE_MAX_ATOMS = 6
STRUCTURAL_TOL = 1e-6
DEFAULT_TOLERANCES = tolerances()   # what check, construct and minimal apply by default


@dataclass(frozen=True)
class GeneratorSpec:
    dim: int
    n_states: int
    flavor: str
    seed: int

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor '{self.flavor}'")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside [1, {MAX_DIM}]")
        if not 1 <= self.n_states <= MAX_STATES:
            raise ValueError(f"family size {self.n_states} outside [1, {MAX_STATES}]")
        if self.flavor == "orthogonal_planted" and self.n_states > self.dim:
            raise ValueError(
                f"cannot plant {self.n_states} orthogonal states in dimension {self.dim}"
            )
        if self.flavor == "atom_planted" and self.n_states > self.dim:
            raise ValueError(
                f"cannot give {self.n_states} states disjoint atoms in dimension {self.dim}"
            )
        if self.flavor == "phase_obstructed":
            if self.n_states < 3:
                raise ValueError("the planted cycle needs at least 3 states")
            if self.dim < 2 + max(0, self.n_states - 3):
                raise ValueError(
                    f"dimension {self.dim} too small for {self.n_states} states "
                    "around a planted cycle"
                )


class RankDeficiencyError(ValueError):
    """Raised by gram_schmidt when a vector depends on its predecessors."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"vector {index} is linearly dependent on its predecessors "
            f"(residual norm {residual:.3e})"
        )


def gram_schmidt(vectors, tol: float = math.sqrt(RANK_TOL)):
    """Orthonormalize a linearly independent family, tracking expressions.

    Returns (ortho, coeffs): ortho is the list of orthonormal vectors and
    coeffs a lower-triangular complex array with
    ortho[k] = sum_j coeffs[k, j] * vectors[j].  When the Gram matrix of
    the input is entrywise real, the coefficients are real as well (they
    are rational expressions in Gram entries); tests rely on this.

    Raises RankDeficiencyError naming the first dependent vector: one
    whose residual is at most tol times its norm, an amplitude ratio.
    """
    vs = [np.asarray(v, dtype=complex) for v in vectors]
    n = len(vs)
    ortho: list[np.ndarray] = []
    coeffs = np.zeros((n, n), dtype=complex)
    for i, vec in enumerate(vs):
        _require_finite(vec, f"vector {i}")
        resid = vec.copy()
        expr = np.zeros(n, dtype=complex)
        expr[i] = 1.0
        # two passes: the second re-orthogonalization keeps the result
        # orthonormal to machine precision even for ill-conditioned input
        for _ in range(2):
            for j, xi in enumerate(ortho):
                ov = inner(resid, xi)
                resid = resid - ov * xi
                expr = expr - ov * coeffs[j]
        rnorm = norm(resid)
        if rnorm <= tol * norm(vec):
            raise RankDeficiencyError(i, rnorm)
        ortho.append(resid / rnorm)
        coeffs[i] = expr / rnorm
    return ortho, coeffs


def _random_basis(rng, dim: int, real: bool = False) -> np.ndarray:
    raw = rng.normal(size=(dim, dim))
    if not real:
        raw = raw + 1j * rng.normal(size=(dim, dim))
    basis, _ = gram_schmidt(raw.astype(complex))
    return np.array(basis)


def _random_composition(rng, total: int, parts: int) -> list[int]:
    sizes = [1] * parts
    for _ in range(total - parts):
        sizes[int(rng.integers(parts))] += 1
    return sizes


def _blocked_statistic(basis: np.ndarray, sizes: list[int],
                       eigenvalues=None) -> DiscreteStatistic:
    if eigenvalues is None:
        eigenvalues = [float(k + 1) for k in range(len(sizes))]
    projections = []
    start = 0
    for size in sizes:
        block = basis[start : start + size]
        projections.append(hermitian_part(block.T @ block.conj()))
        start += size
    return DiscreteStatistic(np.array(eigenvalues, dtype=float), tuple(projections))


def _random_statistic(rng, dim: int, real: bool = False,
                      max_atoms: int = BRUTE_FORCE_MAX_ATOMS) -> DiscreteStatistic:
    n_atoms = 1 if dim == 1 else int(rng.integers(2, min(dim, max_atoms) + 1))
    sizes = _random_composition(rng, dim, n_atoms)
    return _blocked_statistic(_random_basis(rng, dim, real=real), sizes)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"phi{i + 1}" for i in range(n))


def generate(spec: GeneratorSpec) -> tuple[DiscreteStatistic, StateFamily]:
    """Deterministically produce (statistic, family) with planted structure."""
    rng = np.random.default_rng(spec.seed)
    d, m = spec.dim, spec.n_states

    if spec.flavor == "real_vectors":
        vectors = rng.normal(size=(m, d))
        vectors = vectors / np.linalg.norm(vectors, axis=1)[:, np.newaxis]
        family = StateFamily(labels=_labels(m), vectors=vectors.astype(complex))
        return _random_statistic(rng, d, real=True), family

    if spec.flavor == "complex_vectors":
        vectors = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        vectors = vectors / np.linalg.norm(vectors, axis=1)[:, np.newaxis]
        family = StateFamily(labels=_labels(m), vectors=vectors)
        return _random_statistic(rng, d), family

    if spec.flavor == "orthogonal_planted":
        basis = _random_basis(rng, d)
        family = StateFamily(labels=_labels(m), vectors=basis[:m].copy())
        projections = [
            hermitian_part(np.outer(basis[i], basis[i].conj())) for i in range(m)
        ]
        eigenvalues = [float(i + 1) for i in range(m)]
        if m < d:
            block = basis[m:]
            projections.insert(0, hermitian_part(block.T @ block.conj()))
            eigenvalues.insert(0, 0.0)
        statistic = DiscreteStatistic(np.array(eigenvalues), tuple(projections))
        return statistic, family

    if spec.flavor == "atom_planted":
        extra = 1 if d > m and rng.integers(2) else 0
        n_blocks = m + extra
        sizes = _random_composition(rng, d, n_blocks)
        basis = _random_basis(rng, d)
        statistic = _blocked_statistic(basis, sizes)
        vectors = []
        start = 0
        for k in range(m):
            block = basis[start : start + sizes[k]]
            coeff = rng.normal(size=sizes[k]) + 1j * rng.normal(size=sizes[k])
            vec = coeff @ block
            vectors.append(vec / norm(vec))
            start += sizes[k]
        family = StateFamily(labels=_labels(m), vectors=np.array(vectors))
        return statistic, family

    # phase_obstructed: three states in a planted plane whose overlap
    # arguments sum to pi/4 around a cycle; extras are orthogonal padding
    basis = _random_basis(rng, d)
    b1, b2 = basis[0], basis[1]
    s = 1.0 / math.sqrt(2.0)
    vectors = [b1, s * (b1 + b2), s * (b1 + 1j * b2)]
    for i in range(m - 3):
        vectors.append(basis[2 + i])
    family = StateFamily(labels=_labels(m), vectors=np.array(vectors))
    return _random_statistic(rng, d), family


def constraint_arrays(constraints, labels) -> Constraints:
    """PhaseConstraint objects as the arrays align_phases reads, in the same
    order: each end becomes its index in labels.  Atoms are kept when every
    constraint names one, and dropped when none does."""
    index = {label: n for n, label in enumerate(labels)}
    atoms = [c.atom for c in constraints]
    return Constraints(
        np.array([index[c.left] for c in constraints], dtype=int),
        np.array([index[c.right] for c in constraints], dtype=int),
        np.array([c.value for c in constraints], dtype=complex),
        None if all(a is None for a in atoms) else np.array(atoms, dtype=int),
    )


def worst_residual(constraints, assignment: VersionAssignment) -> float:
    """Largest normalized imaginary part |Im(dressed)| / |value| over constraints."""
    worst = 0.0
    for c in constraints:
        dressed = assignment.phase(c.left) * np.conj(assignment.phase(c.right)) * c.value
        worst = max(worst, abs(dressed.imag) / abs(c.value))
    return worst


def versions_satisfy(constraints, assignment: VersionAssignment,
                     angle_tol: float = DEFAULT_TOLERANCES["angle"]) -> bool:
    """True when every dressed constraint value is real within angle_tol."""
    return worst_residual(constraints, assignment) <= angle_tol


def _phase_grid(steps: int) -> np.ndarray:
    """Distinct values of the angles 2 pi j / steps reduced modulo pi."""
    n_eff = steps // 2 if steps % 2 == 0 else steps
    return math.pi * np.arange(n_eff) / n_eff


def oracle_align(constraints, labels, steps: int = 360):
    """Exhaustive grid search over phase assignments; the slow reference.

    Minimizes the worst normalized imaginary residual |sin(angle defect)|
    over all assignments of grid angles (multiples of 2 pi / steps) to
    labels.  One label per connected component is pinned to angle 0 and
    the grid is folded modulo pi; both reductions are exact for this
    objective.  Returns (best assignment, best worst-residual).  Labels
    must be unique and name the ends of every constraint.
    """
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    for c in constraints:
        for end in (c.left, c.right):
            if end not in labels:
                raise ValueError(f"constraint references unknown label '{end}'")
    if len(labels) > 5:
        raise ValueError("grid oracle is limited to 5 labels")
    if steps < 2:
        raise ValueError("need at least 2 grid steps")
    grid = _phase_grid(steps)

    # connected components of the constraint graph
    comp_of = {lab: lab for lab in labels}

    def comp_find(x):
        while comp_of[x] != x:
            comp_of[x] = comp_of[comp_of[x]]
            x = comp_of[x]
        return x

    for c in constraints:
        ra, rb = comp_find(c.left), comp_find(c.right)
        if ra != rb:
            comp_of[ra] = rb
    components: dict[str, list[str]] = {}
    for lab in labels:
        components.setdefault(comp_find(lab), []).append(lab)

    best_angles: dict[str, float] = {}
    overall = 0.0
    for members in components.values():
        members = sorted(members, key=labels.index)
        fixed, free = members[0], members[1:]
        comp_constraints = [
            c for c in constraints if comp_find(c.left) == comp_find(fixed)
        ]
        index = {lab: i for i, lab in enumerate(free)}

        def residual(angles):
            def ang(lab):
                i = index.get(lab)
                return 0.0 if i is None else angles[i]

            total = None
            for c in comp_constraints:
                r = np.abs(np.sin(ang(c.left) - ang(c.right) + cmath.phase(c.value)))
                total = r if total is None else np.maximum(total, r)
            return np.float64(0.0) if total is None else total

        angles, value = _grid_search(grid, len(free), residual)
        best_angles[fixed] = 0.0
        for lab, a in zip(free, angles):
            best_angles[lab] = a
        overall = max(overall, value)
    assignment = VersionAssignment(
        {lab: cmath.exp(1j * best_angles[lab]) for lab in labels}
    )
    return assignment, overall


def _grid_search(grid: np.ndarray, n_free: int, residual):
    """Minimize residual over grid^n_free; chunks the first axis for n_free > 3."""
    if n_free == 0:
        return [], float(residual([]))
    if n_free <= 3:
        mesh = np.meshgrid(*([grid] * n_free), indexing="ij")
        total = residual(list(mesh))
        idx = np.unravel_index(int(np.argmin(total)), total.shape)
        return [float(grid[i]) for i in idx], float(total[idx])
    mesh = np.meshgrid(*([grid] * (n_free - 1)), indexing="ij")
    best_angles, best_value = None, math.inf
    for a0 in grid:
        total = residual([float(a0)] + list(mesh))
        idx = np.unravel_index(int(np.argmin(total)), total.shape)
        if float(total[idx]) < best_value:
            best_value = float(total[idx])
            best_angles = [float(a0)] + [float(grid[i]) for i in idx]
    return best_angles, best_value


def brute_force_weak_sufficiency(statistic: DiscreteStatistic, family: StateFamily,
                                 phase_steps: int = 24,
                                 angle_tol: float = DEFAULT_TOLERANCES["angle"]) -> bool:
    """Exhaustively re-decide weak sufficiency on a small instance.

    Rank tests go through numpy's SVD; phase feasibility goes through
    the grid-search oracle.  Nothing here shares code with the
    production checker's union-find alignment.  The cutoffs are the
    checker's, from sufficiency.tolerances: an atom has rank two when the
    second eigenvalue of its Gram matrix, the square of a singular value,
    exceeds rank * max(1, the first), as pair_rank_two asks of a pair; an
    overlap constrains the phases above angle_tol times the larger of the
    two components' norms.
    """
    if len(family) > BRUTE_FORCE_MAX_STATES:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_MAX_STATES} states, "
            f"got {len(family)}"
        )
    if len(statistic) > BRUTE_FORCE_MAX_ATOMS:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_MAX_ATOMS} atoms, "
            f"got {len(statistic)}"
        )
    components = [
        [proj @ vec for vec in family.vectors] for proj in statistic.projections
    ]
    for comps in components:
        eigenvalues = np.linalg.svd(np.array(comps), compute_uv=False) ** 2
        # the yardstick is the unit norm of the states, so an atom seeing
        # only roundoff-sized components counts as empty, not as rank 2
        if len(eigenvalues) > 1 and \
                eigenvalues[1] > DEFAULT_TOLERANCES["rank"] * max(1.0, eigenvalues[0]):
            return False
    constraints = []
    for k, comps in enumerate(components):
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                value = np.sum(comps[i] * np.conj(comps[j]))
                cutoff = angle_tol * max(norm(comps[i]), norm(comps[j]))
                if abs(value) > cutoff:
                    constraints.append(
                        PhaseConstraint(family.labels[i], family.labels[j],
                                        complex(value), atom=k)
                    )
    _, best = oracle_align(constraints, family.labels, steps=phase_steps)
    return best <= 10.0 * angle_tol


def bundled_example_checks() -> list[str]:
    """Worked-example checks on the shipped instance; returns failure strings."""
    failures: list[str] = []
    statistic, family = load_bundled_instance()

    verdict = check_weak_sufficiency(statistic, family)
    if not verdict.sufficient:
        failures.append("shipped instance was not judged weakly sufficient")
    else:
        check = verify_witness(statistic, family, verdict.witness, tol=1e-12)
        if not check.ok:
            failures.append(
                f"emitted witness residual {check.max_residual:.3e} exceeds 1e-12"
            )

    closed_form = sufficiency_mod.WitnessFactorization(
        chi=family.vector("phi2"),
        functions={
            "phi1": {1.0: math.sqrt(2.0), -1.0: 0.0},
            "phi2": {1.0: 1.0, -1.0: 1.0},
        },
        versions=phases_mod.VersionAssignment(phases={"phi1": 1.0, "phi2": 1.0}),
    )
    check = verify_witness(statistic, family, closed_form, tol=1e-12)
    if not check.ok:
        failures.append(
            f"closed-form witness residual {check.max_residual:.3e} exceeds 1e-12"
        )

    cert = petz_feasibility(PetzInstance.from_parts(statistic, family))
    if not isinstance(cert, petz_mod.InfeasibleOrthogonality):
        failures.append(
            f"channel feasibility returned {type(cert).__name__}, "
            "expected an orthogonality obstruction"
        )
    elif abs(abs(cert.overlap) - 1.0 / math.sqrt(2.0)) > 1e-12:
        failures.append(f"overlap {abs(cert.overlap):.12f} is not 1/sqrt(2)")

    minimal = minimal_statistic(statistic, family)
    if not isinstance(minimal, MinimalStatistic):
        failures.append(f"shipped instance gave {type(minimal).__name__}, not a minimal statistic")
    elif [list(b) for b in minimal.partition] != [[0], [1]]:
        failures.append(f"minimal partition {minimal.partition} is not [[0], [1]]")
    return failures


# ---------------------------------------------------------------------------
# Property suite


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None


@dataclass
class PropertyReport:
    seed: int
    count: int
    mutation: str | None
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[PropertyResult]:
        return [r for r in self.results if not r.passed]

    def render(self) -> str:
        header = f"property suite: seed={self.seed} count={self.count}"
        if self.mutation:
            header += f" mutation={self.mutation}"
        lines = [header]
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark} {r.name}: {r.detail}")
            if r.counterexample is not None:
                lines.append("  counterexample instance:")
                for cx_line in r.counterexample.splitlines():
                    lines.append("    " + cx_line)
        verdict = "all properties passed" if self.ok else (
            f"{len(self.failures())} of {len(self.results)} properties FAILED"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _drop_state(family: StateFamily, index: int) -> StateFamily:
    keep = [i for i in range(len(family)) if i != index]
    return StateFamily(
        labels=tuple(family.labels[i] for i in keep),
        vectors=tuple(family.vectors[i].copy() for i in keep),
    )


def _merge_last_atoms(statistic: DiscreteStatistic) -> DiscreteStatistic:
    projections = list(statistic.projections)
    merged = hermitian_part(projections[-2] + projections[-1])
    return DiscreteStatistic(
        eigenvalues=statistic.eigenvalues[:-1].copy(),
        projections=tuple(projections[:-2]) + (merged,),
    )


def _round_instance(statistic, family):
    vectors = np.round(family.vectors, 3)
    norms = np.linalg.norm(vectors, axis=1)
    if norms.min() < 0.5:
        raise ValueError("rounding collapsed a state")
    rounded_family = StateFamily(
        labels=family.labels, vectors=vectors / norms[:, np.newaxis]
    )
    rounded_statistic = None
    if statistic is not None:
        rounded_statistic = statistic_from_matrix(np.round(statistic.matrix(), 3))
    return rounded_statistic, rounded_family


def shrink_instance(statistic, family, still_failing):
    """Greedy counterexample reduction: drop states, merge atoms, round.

    still_failing(statistic, family) must return True while the reduced
    instance keeps exhibiting the failure.  Every candidate reduction is
    validated by the domain constructors; invalid reductions are skipped.
    """
    changed = True
    while changed and len(family) > 1:
        changed = False
        for i in range(len(family)):
            candidate = _drop_state(family, i)
            try:
                if still_failing(statistic, candidate):
                    family = candidate
                    changed = True
                    break
            except Exception:
                continue
    while statistic is not None and len(statistic) > 1:
        try:
            candidate = _merge_last_atoms(statistic)
            if not still_failing(candidate, family):
                break
            statistic = candidate
        except Exception:
            break
    try:
        rounded_statistic, rounded_family = _round_instance(statistic, family)
        if still_failing(rounded_statistic, rounded_family):
            statistic, family = rounded_statistic, rounded_family
    except Exception:
        pass
    return statistic, family


def _planted_class_instance(rng, dim: int, n_atoms: int, n_states: int,
                            dead_atom: bool = False):
    """Weakly sufficient instance whose atoms fall into planted classes.

    Each atom carries one unit direction; states are real combinations
    of those directions.  Atoms sharing a (scaled) coefficient column
    merge in the minimal statistic; a dead atom gets the zero column.
    """
    basis = _random_basis(rng, dim)
    sizes = _random_composition(rng, dim, n_atoms)
    statistic = _blocked_statistic(basis, sizes)
    directions = []
    start = 0
    for size in sizes:
        block = basis[start : start + size]
        coeff = rng.normal(size=size)
        vec = coeff @ block
        directions.append(vec / norm(vec))
        start += size
    n_classes = n_atoms if n_atoms <= 2 else max(2, n_atoms // 2)
    assignment = [k % n_classes for k in range(n_atoms)]
    columns = rng.uniform(0.4, 1.2, size=(n_states, n_classes))
    columns *= rng.choice([-1.0, 1.0], size=(n_states, n_classes))
    coeff = np.zeros((n_states, n_atoms))
    for k in range(n_atoms):
        coeff[:, k] = columns[:, assignment[k]] * rng.uniform(0.5, 1.5)
    if dead_atom:
        coeff[:, n_atoms - 1] = 0.0
    vectors = coeff @ np.array(directions)
    vectors = vectors / np.linalg.norm(vectors, axis=1)[:, np.newaxis]
    family = StateFamily(labels=_labels(n_states), vectors=vectors)
    return statistic, family


def near_threshold_instance(rng):
    """A planted instance pushed towards the tolerances of sufficiency.tolerances.

    d 2-16 on a random unitary basis, 2-8 atoms and 2-6 states whose
    coordinates fall into planted classes (_planted_class_instance), the
    last atom dead in 30% of instances; then complex noise of amplitude
    log-uniform in [1e-11, 1e-5] is added to every state, which is
    normalized again.  The noise straddles every tolerance derived from
    RANK_TOL: rank pairs near it, light atoms, phase defects and dropped
    overlaps near the angle.
    """
    dim = int(rng.integers(2, 17))
    n_atoms = int(rng.integers(2, min(dim, 8) + 1))
    n_states = int(rng.integers(2, 7))
    statistic, family = _planted_class_instance(rng, dim, n_atoms, n_states,
                                                dead_atom=bool(rng.random() < 0.3))
    amplitude = 10.0 ** rng.uniform(-11.0, -5.0)
    noise = rng.normal(size=(n_states, dim)) + 1j * rng.normal(size=(n_states, dim))
    vectors = family.vectors + amplitude * noise
    vectors /= np.linalg.norm(vectors, axis=1)[:, np.newaxis]
    return statistic, StateFamily(labels=family.labels, vectors=vectors)


def _random_phase_instance(rng, n_labels: int, n_constraints: int,
                           steps: int = 24, defect: float = 0.0):
    """Constraint set satisfiable by grid phases, plus an optional cycle defect."""
    labels = tuple(f"c{i}" for i in range(n_labels))
    # offsets live on the grid the search oracle actually visits, which
    # folds an even step count onto steps/2 points modulo pi
    fold = steps // 2 if steps % 2 == 0 else steps
    offsets = math.pi * rng.integers(0, fold, size=n_labels) / fold
    constraints = []
    for i in range(1, n_labels):
        j = int(rng.integers(0, i))
        value = np.exp(1j * (offsets[j] - offsets[i])) * float(rng.uniform(0.5, 2.0))
        if rng.integers(2):
            value = -value
        constraints.append(PhaseConstraint(labels[i], labels[j], complex(value)))
    for _ in range(max(0, n_constraints - (n_labels - 1))):
        i, j = rng.choice(n_labels, size=2, replace=False)
        value = np.exp(1j * (offsets[j] - offsets[i])) * float(rng.uniform(0.5, 2.0))
        constraints.append(PhaseConstraint(labels[i], labels[j], complex(value)))
    if defect:
        # the defective edge must close a cycle, so add it on top of the
        # spanning tree rather than twisting a possibly tree-only edge
        i, j = rng.choice(n_labels, size=2, replace=False)
        value = np.exp(1j * (offsets[j] - offsets[i] + defect))
        constraints.append(PhaseConstraint(labels[i], labels[j], complex(value)))
    return labels, constraints


def _rephase(rng, family: StateFamily) -> StateFamily:
    factors = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=len(family)))
    return StateFamily(labels=family.labels,
                       vectors=family.vectors * factors[:, np.newaxis])


# --- individual properties -------------------------------------------------


def _prop_eig_reconstruction(rng, count):
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(2, 13))
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = hermitian_part(raw)
        evals, evecs = hermitian_eig(h)
        rebuilt = (evecs * evals[np.newaxis, :]) @ evecs.conj().T
        scale = max(1.0, float(np.abs(h).max()))
        worst = max(worst, float(np.abs(rebuilt - h).max()) / scale)
    return worst <= 1e-9, f"worst relative reconstruction residual {worst:.3e}", None


def _prop_statistic_roundtrip(rng, count):
    for trial in range(count):
        d = int(rng.integers(2, 9))
        statistic = _random_statistic(rng, d)
        rebuilt = statistic_from_matrix(statistic.matrix())
        if len(rebuilt) != len(statistic):
            return False, f"atom count changed on trial {trial}", None
        drift = float(np.abs(rebuilt.eigenvalues - statistic.eigenvalues).max())
        gap = float(
            max(np.abs(p - q).max() for p, q in
                zip(rebuilt.projections, statistic.projections))
        )
        if drift > 1e-8 or gap > 1e-8:
            return False, f"roundtrip drift {max(drift, gap):.3e} on trial {trial}", None
    return True, f"{count} statistics rebuilt from their matrices", None


def _prop_phase_soundness(rng, count):
    worst = 0.0
    for trial in range(count):
        labels, constraints = _random_phase_instance(
            rng, int(rng.integers(2, 7)), int(rng.integers(1, 10))
        )
        result = align_phases(constraint_arrays(constraints, labels), labels)
        if isinstance(result, Infeasible):
            return False, f"consistent instance judged infeasible on trial {trial}", None
        worst = max(worst, worst_residual(constraints, result))
    return worst <= 1e-6, f"worst alignment residual {worst:.3e}", None


def _prop_phase_obstruction(rng, count):
    for trial in range(count):
        labels, constraints = _random_phase_instance(
            rng, int(rng.integers(3, 7)), int(rng.integers(3, 10)),
            defect=float(rng.uniform(0.3, math.pi / 2.0)),
        )
        result = align_phases(constraint_arrays(constraints, labels), labels)
        if not isinstance(result, Infeasible):
            return False, f"planted defect went undetected on trial {trial}", None
        defect = cycle_defect(result.cycle)
        if defect <= DEFAULT_TOLERANCES["angle"]:
            return False, f"cycle with defect {defect:.3e} on trial {trial}", None
    return True, f"{count} planted defects produced valid cycles", None


def _prop_oracle_agreement(rng, count):
    for trial in range(count):
        defect = 0.0 if rng.integers(2) else float(rng.uniform(0.3, math.pi / 2.0))
        labels, constraints = _random_phase_instance(
            rng, int(rng.integers(2, 5)), int(rng.integers(1, 7)), defect=defect
        )
        produced = align_phases(constraint_arrays(constraints, labels), labels)
        _, best = oracle_align(constraints, labels, steps=24)
        oracle_feasible = best <= 1e-5
        if isinstance(produced, Infeasible) == oracle_feasible:
            return (
                False,
                f"checker and grid oracle disagree on trial {trial} "
                f"(grid residual {best:.3e})",
                None,
            )
    return True, f"{count} instances agree with the grid oracle", None


def _agreement_corpus(seed, count):
    specs = []
    flavors = ("real_vectors", "orthogonal_planted", "atom_planted", "phase_obstructed")
    rng = np.random.default_rng(seed)
    for trial in range(count):
        flavor = flavors[trial % len(flavors)]
        if flavor == "phase_obstructed":
            dim = int(rng.integers(2, 6))
            m = 3
        else:
            dim = int(rng.integers(2, 7))
            m = int(rng.integers(2, min(dim, BRUTE_FORCE_MAX_STATES) + 1))
        specs.append(GeneratorSpec(dim=dim, n_states=m, flavor=flavor,
                                   seed=int(rng.integers(2**63))))
    return specs


def _prop_checker_vs_brute_force(rng, count):
    specs = _agreement_corpus(int(rng.integers(2**63)), count)
    for spec in specs:
        statistic, family = generate(spec)
        produced = check_weak_sufficiency(statistic, family).sufficient
        brute = brute_force_weak_sufficiency(statistic, family)
        if produced != brute:
            def still_failing(t, f):
                return (
                    t is not None
                    and check_weak_sufficiency(t, f).sufficient
                    != brute_force_weak_sufficiency(t, f)
                )

            small_t, small_f = shrink_instance(statistic, family, still_failing)
            return (
                False,
                f"checker={produced} but brute force={not produced} ({spec.flavor})",
                serialize_instance(small_t, small_f),
            )
    return True, f"{len(specs)} instances agree with brute force", None


def _prop_witness_soundness(rng, count):
    specs = _agreement_corpus(int(rng.integers(2**63)), count)
    worst = 0.0
    checked = 0
    for spec in specs:
        statistic, family = generate(spec)
        verdict = check_weak_sufficiency(statistic, family)
        if not verdict.sufficient:
            continue
        checked += 1
        check = verify_witness(statistic, family, verdict.witness)
        worst = max(worst, check.max_residual)
        if not check.ok:
            def still_failing(t, f):
                if t is None:
                    return False
                v = check_weak_sufficiency(t, f)
                return v.sufficient and not verify_witness(t, f, v.witness).ok

            small_t, small_f = shrink_instance(statistic, family, still_failing)
            return (
                False,
                f"witness residual {check.max_residual:.3e} exceeds "
                f"{DEFAULT_TOLERANCES['witness']:.1e} "
                f"({spec.flavor})",
                serialize_instance(small_t, small_f),
            )
    return True, f"{checked} witnesses verified, worst residual {worst:.3e}", None


def _prop_witness_bound(rng, count):
    """The bound of sufficiency.tolerances on near-threshold instances: every
    sufficient check verdict and every minimal statistic has a witness
    within the witness tolerance its certificate records, and within the
    bound proven there, sqrt(8 K) eps for the K atoms of the statistic
    decided.  A minimal statistic whose classes cannot be separated
    raises, and is no answer."""
    tol = DEFAULT_TOLERANCES["witness"]
    checked, worst = 0, 0.0
    for trial in range(count):
        statistic, family = near_threshold_instance(rng)
        verdict = check_weak_sufficiency(statistic, family)
        answers = [("check", statistic, verdict.witness)] if verdict.sufficient else []
        try:
            minimal = minimal_statistic(statistic, family)
        except ValueError:
            minimal = None
        if isinstance(minimal, MinimalStatistic):
            answers.append(("minimal", minimal.statistic, minimal.witness))
        bound = min(tol, math.sqrt(8 * len(statistic)) * DEFAULT_TOLERANCES["angle"])
        for command, t, witness in answers:
            check = verify_witness(t, family, witness, tol=bound)
            checked += 1
            worst = max(worst, check.max_residual)
            if not check.ok:
                return False, (f"{command} witness residual {check.max_residual:.3e} exceeds "
                               f"{bound:.1e} (trial {trial})"), \
                    serialize_instance(statistic, family)
    return True, (f"{checked} check and minimal witnesses within sqrt(8 K) eps, "
                  f"worst residual {worst:.3e}"), None


def _prop_construction_roundtrip(rng, count):
    worst = 0.0
    for trial in range(count):
        dim = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        spec = GeneratorSpec(dim=dim, n_states=m, flavor="real_vectors",
                             seed=int(rng.integers(2**63)))
        _, family = generate(spec)
        result = exists_weakly_sufficient(family)
        if not isinstance(result, sufficiency_mod.ConstructedStatistic):
            return False, f"construction failed on a real family (trial {trial})", \
                serialize_instance(None, family)
        check = verify_witness(result.statistic, family, result.witness)
        worst = max(worst, check.max_residual)
        if not check.ok:
            return False, f"constructed witness residual {check.max_residual:.3e}", \
                serialize_instance(result.statistic, family)
    return True, f"{count} constructions verified, worst residual {worst:.3e}", None


def _prop_nonexistence_on_obstructed(rng, count):
    for trial in range(count):
        dim = int(rng.integers(2, 9))
        m = int(rng.integers(3, min(4, dim + 1) + 1))
        m = min(m, 3 + (dim - 2))
        spec = GeneratorSpec(dim=dim, n_states=m, flavor="phase_obstructed",
                             seed=int(rng.integers(2**63)))
        _, family = generate(spec)
        result = exists_weakly_sufficient(family)
        if not isinstance(result, NonExistence):
            return False, f"obstructed family passed existence (trial {trial})", \
                serialize_instance(None, family)
        defect = cycle_defect(result.cycle)
        if defect <= DEFAULT_TOLERANCES["angle"]:
            return False, f"cycle defect {defect:.3e} too small (trial {trial})", \
                serialize_instance(None, family)
    return True, f"{count} obstructed families refused with certified cycles", None


def _prop_version_invariance(rng, count):
    for trial in range(count):
        flavor = "atom_planted" if rng.integers(2) else "complex_vectors"
        dim = int(rng.integers(2, 7))
        m = int(rng.integers(2, min(dim, 5) + 1))
        spec = GeneratorSpec(dim=dim, n_states=m, flavor=flavor,
                             seed=int(rng.integers(2**63)))
        statistic, family = generate(spec)
        base = check_weak_sufficiency(statistic, family).sufficient
        for _ in range(3):
            redressed = check_weak_sufficiency(statistic, _rephase(rng, family))
            if redressed.sufficient != base:
                return False, f"verdict changed under rephasing (trial {trial})", \
                    serialize_instance(statistic, family)
    return True, f"{count} instances invariant under version changes", None


def _prop_coarse_cross_validation(rng, count):
    # the dead-atom trials come after the live ones, which keep their draws
    trials = max(2, count // 8)
    checked = 0
    for dead_atom in [False] * trials + [True] * max(1, trials // 2):
        dim = int(rng.integers(3, 7))
        n_atoms = int(rng.integers(2, min(dim, 5) + 1))
        n_states = int(rng.integers(2, 5))
        statistic, family = _planted_class_instance(rng, dim, n_atoms, n_states,
                                                    dead_atom=dead_atom)
        decision = decide(statistic, family)
        for mapping in enumerate_coarse_grainings(statistic):
            checked += 1
            fast = decision.coarse_sufficient(mapping)
            coarse, _ = apply_coarse(statistic, mapping)
            direct = check_weak_sufficiency(coarse, family).sufficient
            if fast != direct:
                def still_failing(t, f):
                    shortcut = None if t is None else decide(t, f)
                    if shortcut is None or shortcut.violations:
                        return False
                    for cmap in enumerate_coarse_grainings(t):
                        c, _ = apply_coarse(t, cmap)
                        if (shortcut.coarse_sufficient(cmap)
                                != check_weak_sufficiency(c, f).sufficient):
                            return True
                    return False

                small_t, small_f = shrink_instance(statistic, family, still_failing)
                return (
                    False,
                    "fast coarse-graining check disagrees with the direct checker",
                    serialize_instance(small_t, small_f),
                )
    return True, f"{checked} coarse-grainings cross-validated", None


def is_function_of(s: DiscreteStatistic, u: DiscreteStatistic):
    """Relabelling psi with s = psi(u), or None.

    Each atom of u must sit inside exactly one atom of s (to the projector
    algebra's PARTITION_TOL, entrywise); the returned
    dict maps u-eigenvalues to s-eigenvalues.
    """
    if s.dim != u.dim:
        raise ValueError("statistics act on different dimensions")
    psi: dict[float, float] = {}
    for i, f in enumerate(u.projections):
        hosts = [
            j
            for j, q in enumerate(s.projections)
            if np.abs(q @ f - f).max() <= PARTITION_TOL
        ]
        if len(hosts) != 1:
            return None
        psi[float(u.eigenvalues[i])] = float(s.eigenvalues[hosts[0]])
    return psi


def dead_atom_counterexamples(t: DiscreteStatistic, dead_atom: int):
    """Merge the dead atom into each other atom in turn.

    Returns {n: statistic with atoms dead_atom and n merged under
    eigenvalue lambda_n}.  Each result is weakly sufficient whenever t
    is (the dead atom contributes nothing), yet only a scalar could be a
    function of them all -- which is why no minimal statistic exists.
    """
    if not 0 <= dead_atom < len(t):
        raise ValueError(f"no atom {dead_atom}")
    if len(t) < 2:
        raise ValueError("need at least two atoms to merge")
    out: dict[int, DiscreteStatistic] = {}
    for n in range(len(t)):
        if n == dead_atom:
            continue
        values = {
            float(lam): float(t.eigenvalues[n]) if k == dead_atom else float(lam)
            for k, lam in enumerate(t.eigenvalues)
        }
        merged, _ = apply_coarse(t, CoarseMap(values))
        out[n] = merged
    return out


def _prop_minimal_function_property(rng, count):
    trials = max(2, count // 8)
    for trial in range(trials):
        dim = int(rng.integers(3, 7))
        n_atoms = int(rng.integers(2, min(dim, 5) + 1))
        n_states = int(rng.integers(2, 5))
        statistic, family = _planted_class_instance(rng, dim, n_atoms, n_states)
        minimal = minimal_statistic(statistic, family)
        if not isinstance(minimal, MinimalStatistic):
            # a refusal must fail here: it would skip every coarse-graining below
            return False, f"planted live instance gave {type(minimal).__name__}", \
                serialize_instance(statistic, family)
        decision = decide(statistic, family)
        for mapping in enumerate_coarse_grainings(statistic):
            if not decision.coarse_sufficient(mapping):
                continue
            coarse, _ = apply_coarse(statistic, mapping)
            if is_function_of(minimal.statistic, coarse) is None:
                return (
                    False,
                    "minimal statistic is not a function of a sufficient coarse-graining",
                    serialize_instance(statistic, family),
                )
    return True, f"{trials} minimal statistics verified against all coarse-grainings", None


def _prop_dead_atom_family(rng, count):
    trials = max(2, count // 8)
    for trial in range(trials):
        dim = int(rng.integers(3, 7))
        n_atoms = int(rng.integers(3, min(dim, 5) + 1))
        n_states = int(rng.integers(2, 5))
        statistic, family = _planted_class_instance(rng, dim, n_atoms, n_states,
                                                    dead_atom=True)
        missing = minimal_statistic(statistic, family)
        if not isinstance(missing, NoMinimalExists):
            return False, f"dead-atom instance gave {type(missing).__name__}", \
                serialize_instance(statistic, family)
        counterexamples = dead_atom_counterexamples(statistic, missing.dead_atom)
        for merged in counterexamples.values():
            if not check_weak_sufficiency(merged, family).sufficient:
                return False, "a merged counterexample lost sufficiency", \
                    serialize_instance(statistic, family)
    return True, f"{trials} dead-atom families produced verified counterexamples", None


def _petz_corpus(rng, count):
    specs = []
    for _ in range(count):
        dim = int(rng.integers(2, 8))
        m = int(rng.integers(1, min(dim, 4) + 1))
        specs.append(GeneratorSpec(dim=dim, n_states=m, flavor="atom_planted",
                                   seed=int(rng.integers(2**63))))
    return specs


def _shared_atom_instance(rng, dim: int, private_atoms: bool = True):
    """Two orthogonal states loading one shared two-dimensional atom.

    With private_atoms each state also has an atom of its own: infeasible
    unital, feasible non-unital.  Without, the first state lies inside the
    shared atom and the instance is infeasible both ways.
    """
    basis = _random_basis(rng, dim)
    a = math.sqrt(rng.uniform(0.3, 0.7))
    b = math.sqrt(1.0 - a * a)
    if private_atoms:
        sizes = [2] + _random_composition(rng, dim - 2, 2)
        vectors = (a * basis[0] + b * basis[2], a * basis[1] + b * basis[2 + sizes[1]])
    else:
        sizes = [2, dim - 2]
        vectors = (basis[0], a * basis[1] + b * basis[2])
    family = StateFamily(labels=_labels(2), vectors=vectors)
    return _blocked_statistic(basis, sizes), family


def _petz_replay(statistic, family, unital: bool):
    """Decide, then replay the certificate from the instance text alone."""
    cert = petz_feasibility(PetzInstance.from_parts(statistic, family, unital=unital))
    text = serialize_certificate(make_certificate("petz", cert, parameters={"unital": unital}))
    return cert, verify_certificate(serialize_instance(statistic, family), text)


def _prop_petz_soundness(rng, count):
    # (statistic, family, unital, planted verdict)
    cases = [(*generate(spec), True, True) for spec in _petz_corpus(rng, count)]
    for _ in range(max(1, min(3, count // 16))):
        statistic, family = _shared_atom_instance(rng, int(rng.integers(4, 8)))
        cases += [(statistic, family, True, False), (statistic, family, False, True)]
    for statistic, family, unital, planted in cases:
        cert, report = _petz_replay(statistic, family, unital)
        if isinstance(cert, Feasible) != planted or not report.ok:
            def still_failing(t, f):
                return t is not None and not _petz_replay(t, f, unital)[1].ok

            small_t, small_f = shrink_instance(statistic, family, still_failing)
            planting = "feasible" if planted else "infeasible"
            return False, (
                f"{type(cert).__name__} on a planted-{planting} instance "
                f"(unital={unital}): {report.detail}"
            ), serialize_instance(small_t, small_f)
    return True, f"{len(cases)} verdicts match their planting and replay from file", None


def psd_project(m) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius distance."""
    h = hermitian_part(np.asarray(m, dtype=complex))
    w, v = hermitian_eig(h)
    w = np.clip(w, 0.0, None)
    return hermitian_part((v * w) @ v.conj().T)


def _petz_oracle(instance: PetzInstance) -> bool | None:
    """Re-decide channel feasibility by iterating, independently of petz.py.

    Dykstra-style alternating projections from rho_k = I/d between the
    affine set (one least-squares operator on the flattened blocks) and
    the PSD cones.  True once the residual reaches FEASIBILITY_TOL, False
    when 100 iterations gain nothing well above it, None after 20000
    iterations.  The trace rows follow instance.unital, never a fault switch.
    """
    d, m = instance.statistic.dim, len(instance.statistic)
    a = np.kron(instance.weights, np.eye(d * d))
    b = np.concatenate([np.outer(phi, phi.conj()).ravel() for phi in instance.family.vectors])
    if instance.unital:
        a = np.vstack([a, np.kron(np.eye(m), np.eye(d).ravel())])
        b = np.concatenate([b, np.ones(m)])
    pinv = np.linalg.pinv(a)

    x = np.tile(np.eye(d, dtype=complex).ravel() / d, m)
    correction = np.zeros_like(x)
    history: list[float] = []
    for _ in range(20000):
        z = x - pinv @ (a @ x - b) + correction
        x = np.concatenate([psd_project(block.reshape(d, d)).ravel()
                            for block in z.reshape(m, d * d)])
        correction = z - x
        residual = float(np.abs(a @ x - b).max())
        if residual <= FEASIBILITY_TOL:
            return True
        history.append(residual)
        if len(history) > 100 and residual > 10.0 * FEASIBILITY_TOL \
                and history[-101] - residual < 1e-12 * history[-101]:
            return False
    return None


def _prop_petz_oracle_agreement(rng, count):
    # a fixed handful at d <= 4, whatever count is: the oracle is slow
    dim = int(rng.integers(2, 5))
    planted = GeneratorSpec(dim=dim, n_states=int(rng.integers(1, min(dim, 3) + 1)),
                            flavor="atom_planted", seed=int(rng.integers(2**63)))
    cases = [
        generate(planted),
        _shared_atom_instance(rng, 4),
        _shared_atom_instance(rng, int(rng.integers(3, 5)), private_atoms=False),
    ]
    for statistic, family in cases:
        for unital in (True, False):
            instance = PetzInstance.from_parts(statistic, family, unital=unital)
            exact = isinstance(petz_feasibility(instance), Feasible)
            oracle = _petz_oracle(instance)
            if oracle != exact:
                return False, (
                    f"exact decision feasible={exact} but oracle {oracle} "
                    f"(unital={unital})"
                ), serialize_instance(statistic, family)
    return True, f"{2 * len(cases)} decisions agree with the iterative oracle", None


@dataclass
class StructuralReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def structural_check(instance: PetzInstance, cert: Feasible) -> StructuralReport:
    """Verify the representation structure of a feasible certificate.

    Every atom carrying weight above STRUCTURAL_TOL of some state must be
    loaded by exactly one state, and its rho must be the projector onto
    that state, within 10 STRUCTURAL_TOL.  Atoms
    carrying no weight are unconstrained.  Only meaningful for unital
    instances; scaling is allowed otherwise.
    """
    if not isinstance(cert, Feasible):
        raise ValueError("structural check needs a Feasible certificate")
    w = instance.weights
    fam = instance.family
    violations: list[str] = []
    for k in range(len(instance.statistic)):
        loaded = [n for n in range(len(fam)) if w[n, k] > STRUCTURAL_TOL]
        if len(loaded) > 1:
            names = ", ".join(fam.labels[n] for n in loaded)
            violations.append(f"atom {k} is loaded by several states: {names}")
            continue
        if not loaded:
            continue
        n = loaded[0]
        target = np.outer(fam.vectors[n], fam.vectors[n].conj())
        deviation = float(np.abs(cert.rhos[k] - target).max())
        if deviation > 10.0 * STRUCTURAL_TOL:
            violations.append(
                f"rho[{k}] deviates from the projector onto "
                f"'{fam.labels[n]}' by {deviation:.3e}"
            )
    return StructuralReport(ok=not violations, violations=violations)


def petz_implies_weak_check(instance: PetzInstance, cert: Feasible) -> bool:
    """Weak sufficiency of a feasible pair, by the owners witness verify_witness
    checks: chi = sum phi_theta / sqrt(n), f_theta = sqrt(n) on the atoms theta
    owns and 0 elsewhere, every version 1.  Its residual for theta is at most
    sqrt(n S), S the weight at most FEASIBILITY_TOL that states put on atoms
    they do not own, which feasibility ignored; it is checked against the
    default witness tolerance plus that bound.  It holds on unital answers and on non-unital
    ones without a shared atom (rho = 0, possibly rank 2).  Nothing is decided again."""
    if not isinstance(cert, Feasible):
        raise ValueError("implication check needs a Feasible certificate")
    t, family, w, n = instance.statistic, instance.family, instance.weights, len(instance.family)
    owned = np.array([[owner == label for owner in cert.owners] for label in family.labels])
    functions = {label: {float(lam): math.sqrt(n) * bool(own) for lam, own in zip(t.eigenvalues, row)}
                 for label, row in zip(family.labels, owned)}
    witness = WitnessFactorization(sum(family.vectors) / math.sqrt(n), functions,
                                   VersionAssignment(dict.fromkeys(family.labels, 1.0)))
    ignored = float(w[~owned & (w <= FEASIBILITY_TOL)].clip(0).sum())
    bound = DEFAULT_TOLERANCES["witness"] + math.sqrt(n * ignored)
    return verify_witness(t, family, witness, tol=bound).ok


def _prop_petz_structural(rng, count):
    for spec in _petz_corpus(rng, count):
        statistic, family = generate(spec)
        instance = PetzInstance.from_parts(statistic, family)
        cert = petz_feasibility(instance)
        if not isinstance(cert, Feasible):
            return False, f"planted-feasible instance judged {type(cert).__name__}", \
                serialize_instance(statistic, family)
        report = structural_check(instance, cert)
        if not report.ok:
            return False, "; ".join(report.violations), \
                serialize_instance(statistic, family)
        if not petz_implies_weak_check(instance, cert):
            return False, "feasible instance failed the weak-sufficiency implication", \
                serialize_instance(statistic, family)
    return True, "structure and weak-sufficiency implication hold on the corpus", None


def _prop_petz_orthogonality(rng, count):
    for trial in range(count):
        dim = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        spec = GeneratorSpec(dim=dim, n_states=m, flavor="complex_vectors",
                             seed=int(rng.integers(2**63)))
        statistic, family = generate(spec)
        gram_off = [
            abs(inner(family.vectors[i], family.vectors[j]))
            for i in range(m) for j in range(i + 1, m)
        ]
        if max(gram_off) <= 1e-6:
            continue  # astronomically unlikely, but then the theorem is silent
        cert = petz_feasibility(PetzInstance.from_parts(statistic, family))
        if isinstance(cert, Feasible):
            return False, "overlapping family judged feasible", \
                serialize_instance(statistic, family)
    return True, f"{count} overlapping families all refused", None


def _prop_generator_determinism(rng, count):
    for flavor in FLAVORS:
        dim = 4 if flavor != "phase_obstructed" else 3
        m = 3
        spec = GeneratorSpec(dim=dim, n_states=m, flavor=flavor,
                             seed=int(rng.integers(2**63)))
        first = serialize_instance(*generate(spec))
        second = serialize_instance(*generate(spec))
        if first != second:
            return False, f"flavor {flavor} is not reproducible", None
    return True, "all flavors serialize byte-identically per seed", None


# --- certificates under edits ----------------------------------------------


_JUNK = (None, [], {}, "x", 1e309, 10**400, True, False)


def dense_instance_text(statistic, family) -> str:
    """The instance with its statistic written as the dense matrix sum_k l_k P_k."""
    root = json.loads(serialize_instance(None, family))
    if statistic is not None:
        m = statistic.matrix()
        root["statistic"] = {"matrix": np.stack([m.real, m.imag], axis=-1).tolist()}
    return json.dumps(root)


def certificate_corpus(dense: bool = False):
    """(instance text, certificate) for each of the ten kinds and verdicts:
    weak sufficiency proved by a witness and refused by a rank violation
    and by a phase cycle; a constructed statistic and a family refused by
    a cycle; a minimal statistic and a dead atom; and the three petz
    verdicts, unital.  With dense the instance writes T as a dense matrix,
    whose recorded spectrum the verifier proves through the covariants."""
    s = 1.0 / math.sqrt(2.0)
    bundled = load_bundled_instance()
    basis = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    diag = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    crossed = StateFamily(labels=("u", "v"),
                          vectors=np.array([[s, s], [s, 1j * s]], dtype=complex))
    obstructed = StateFamily(labels=("a", "b", "c"),
                             vectors=np.array([[1, 0], [s, s], [s, 1j * s]], dtype=complex))
    real = StateFamily(labels=("a", "b"), vectors=np.array([[1, 0, 0], [s, s, 0]], dtype=complex))
    dead = (statistic_from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex)), real)
    doubled = statistic_from_matrix(2.0 * np.eye(2, dtype=complex))
    cases = [
        ("weak_sufficiency", bundled, check_weak_sufficiency(*bundled)),
        ("weak_sufficiency", (doubled, basis), check_weak_sufficiency(doubled, basis)),
        ("weak_sufficiency", (diag, crossed), check_weak_sufficiency(diag, crossed)),
        ("existence", (None, real), exists_weakly_sufficient(real)),
        ("existence", (None, obstructed), exists_weakly_sufficient(obstructed)),
        ("minimality", bundled, minimal_statistic(*bundled)),
        ("minimality", dead, minimal_statistic(*dead)),
    ]
    for pair in ((diag, basis), bundled, (doubled, basis)):
        cases.append(("petz", pair, petz_feasibility(PetzInstance.from_parts(*pair))))
    for kind, (statistic, family), result in cases:
        cert = make_certificate(kind, result,
                                parameters={"unital": True} if kind == "petz" else None)
        yield (dense_instance_text if dense else serialize_instance)(statistic, family), cert


def _node_paths(node, here=()):
    yield here
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, here + (key,))


def node_at(node, path):
    """The node of a parsed JSON document at path, a tuple of keys and indices."""
    for key in path:
        node = node[key]
    return node


def certificate_edits(cert: dict, donors=()):
    """Every edit of cert, as (what, path, value).  The verifier must
    refuse each one but the unread ones, and must not raise on any.

    junk puts each of _JUNK at each node; extra adds a key to each
    object, holding a copy of a sibling's value; drop removes each key;
    truncate drops the last entry of each nonempty list; zero sets each
    list of [re, im] pairs (a witness chi, a row of directions) to as
    many zero pairs; splice puts at
    each node but the root the node at the same path of each donor,
    certificates of other kinds or verdicts (a whole donor may be a valid
    certificate of the same instance); cut ends the text early.  unread
    puts each of _JUNK at tool_version, which no verdict rests on, so the
    verifier may accept it.  Left alone: a petz certificate's unital
    flag, where another boolean, or no parameters at all (read as
    unital), asks a question the certificate may answer too.
    """
    for path in _node_paths(cert):
        if "tool_version" in path:
            for junk in _JUNK:
                yield "unread", path, junk
            continue
        for junk in _JUNK:
            if not (path == ("parameters", "unital") and isinstance(junk, bool)):
                yield "junk", path, junk
        node = node_at(cert, path)
        if isinstance(node, dict):
            yield "extra", path + ("extra",), node[min(node)] if node else None
            for key in node:
                if path + (key,) not in (("tool_version",), ("parameters",)):
                    yield "drop", path + (key,), None
        elif isinstance(node, list) and node:
            yield "truncate", path, node[:-1]
            if all(isinstance(z, list) and len(z) == 2 and all(type(x) is float for x in z)
                   for z in node):
                yield "zero", path, [[0.0, 0.0]] * len(node)
        for donor in donors if path else ():
            try:
                yield "splice", path, node_at(donor, path)
            except (KeyError, IndexError, TypeError):
                continue
    length = len(serialize_certificate(cert))
    for n in (1, length // 2, length - 1):
        yield "cut", (), n


def edited_certificate(cert: dict, what: str, path: tuple, value):
    """The certificate text after one edit of certificate_edits, or None
    when the edit leaves the certificate as it was."""
    if what == "cut":
        return serialize_certificate(cert)[:value]
    out = json.loads(json.dumps(cert))
    if not path:
        out = value
    else:
        parent = node_at(out, path[:-1])
        if what == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return None if out == cert else json.dumps(out)


def _prop_verifier_refuses_edits(rng, count):
    """Edited certificates of every kind and verdict, on both encodings of
    T: each but an unread edit must give ok=False, and none may raise."""
    corpus = [pair for dense in (False, True) for pair in certificate_corpus(dense)]
    for text, cert in corpus:
        report = verify_certificate(text, serialize_certificate(cert))
        if not report.ok:
            return False, (f"unedited {cert['kind']} {cert['verdict']} certificate "
                           f"refused: {report.detail}"), text
    refused = 0
    for _ in range(count):
        text, cert = corpus[int(rng.integers(len(corpus)))]
        donors = [other for _, other in corpus
                  if (other["kind"], other["verdict"]) != (cert["kind"], cert["verdict"])]
        edits = list(certificate_edits(cert, donors))
        what, path, value = edits[int(rng.integers(len(edits)))]
        edited = edited_certificate(cert, what, path, value)
        if edited is None:
            continue
        where = f"{what} at {list(path)} of a {cert['kind']} {cert['verdict']} certificate"
        try:
            report = verify_certificate(text, edited)
        except Exception as exc:
            return False, f"{where} raised {exc!r}", text
        if report.ok and what != "unread":
            return False, f"{where} verified: {report.detail}", text
        refused += not report.ok
    return True, f"{refused} edited certificates refused, none raised", None


_PROPERTIES = [
    ("eigensolver_reconstruction", _prop_eig_reconstruction),
    ("statistic_matrix_roundtrip", _prop_statistic_roundtrip),
    ("phase_alignment_soundness", _prop_phase_soundness),
    ("phase_obstruction_certificates", _prop_phase_obstruction),
    ("phase_oracle_agreement", _prop_oracle_agreement),
    ("checker_matches_brute_force", _prop_checker_vs_brute_force),
    ("witness_soundness", _prop_witness_soundness),
    ("witness_bound_near_thresholds", _prop_witness_bound),
    ("construction_roundtrip", _prop_construction_roundtrip),
    ("nonexistence_on_obstructed_families", _prop_nonexistence_on_obstructed),
    ("version_invariance", _prop_version_invariance),
    ("coarse_graining_cross_validation", _prop_coarse_cross_validation),
    ("minimal_function_property", _prop_minimal_function_property),
    ("dead_atom_counterexamples", _prop_dead_atom_family),
    ("petz_feasible_soundness", _prop_petz_soundness),
    ("petz_structural_theorem", _prop_petz_structural),
    ("petz_orthogonality_necessity", _prop_petz_orthogonality),
    ("petz_oracle_agreement", _prop_petz_oracle_agreement),
    ("generator_determinism", _prop_generator_determinism),
    ("verifier_refuses_edited_certificates", _prop_verifier_refuses_edits),
]

MUTATIONS = {
    "mod_2pi_phases": (phases_mod, "_CONSTRAINT_MODULUS", 2.0 * math.pi),
    "skip_rank_check": (sufficiency_mod, "_RANK_CHECK_ENABLED", False),
    "drop_trace_rows": (petz_mod, "_KEEP_TRACE_ROWS", False),
}


def run_property_suite(seed: int = 0, count: int = 100,
                       mutation: str | None = None) -> PropertyReport:
    """Execute the property catalog; optionally under an injected bug.

    The three documented mutations flip private module flags for the
    duration of the run (weakening the phase modulus to 2*pi, skipping
    the per-atom rank test, deciding unital channel feasibility by the
    non-unital rule); the originals are always restored.
    """
    report = PropertyReport(seed=seed, count=count, mutation=mutation)
    if count <= 0:
        return report
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation '{mutation}'; expected one of "
                f"{', '.join(sorted(MUTATIONS))}"
            )
        module, attr, injected = MUTATIONS[mutation]
        original = getattr(module, attr)
        setattr(module, attr, injected)
        try:
            return _run_all(report)
        finally:
            setattr(module, attr, original)
    return _run_all(report)


def _run_all(report: PropertyReport) -> PropertyReport:
    master = np.random.default_rng(report.seed)
    for name, prop in _PROPERTIES:
        rng = np.random.default_rng(master.integers(2**63))
        try:
            passed, detail, counterexample = prop(rng, report.count)
        except Exception as exc:
            passed, detail, counterexample = False, f"raised {exc!r}", None
        report.results.append(
            PropertyResult(name=name, passed=passed, detail=detail,
                           counterexample=counterexample)
        )
    return report
