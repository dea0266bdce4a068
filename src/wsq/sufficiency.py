"""Weak sufficiency of a discrete statistic for a family of pure states.

A statistic T is weakly sufficient for a labelled family of unit vectors
when, after replacing each state by a unit-modulus multiple, every state
can be written as a real function of T applied to one common vector chi.
For discrete T this reduces to two checkable conditions:

  1. each atom projects the family onto a subspace of dimension <= 1;
  2. the per-atom overlaps can all be made real by one choice of
     unit-modulus multipliers (a phase-alignment problem modulo pi).

check_weak_sufficiency decides the pair (T, F) and returns either an
explicit witness factorization or structured violations.  The existence
question -- is there any weakly sufficient statistic for F? -- depends
only on the Gram matrix of F and is decided (and made constructive) by
exists_weakly_sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    RANK_TOL,
    gram_matrix,
    gram_rank,
    gram_schmidt,
    hermitian_part,
    norm,
    numerical_rank,
    pair_rank_two,
)
from .phases import (
    ANGLE_TOL,
    Infeasible,
    PhaseConstraint,
    VersionAssignment,
    align_phases,
)
from .spectral import AtomProjectionTable, DiscreteStatistic, StateFamily, project_states

ZERO_TOL = 1e-10          # overlaps below this (times the norms) impose nothing
REPRESENTATIVE_FLOOR = 1e-6   # relative norm floor when picking a direction

# Fault-injection point for the self-test harness; never disable otherwise.
_RANK_CHECK_ENABLED = True


@dataclass
class RankViolation:
    """Atom whose projected family spans more than one dimension."""

    atom: int
    dim: int


@dataclass
class PhaseObstruction:
    """Inconsistent cycle of reality constraints."""

    cycle: list[PhaseConstraint]


@dataclass
class WitnessFactorization:
    """Explicit factorization: versions[theta] * phi_theta = f_theta(T) chi."""

    chi: np.ndarray
    functions: dict[str, dict[float, float]]
    versions: VersionAssignment

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex).reshape(-1)
        if norm(chi) == 0.0:
            raise ValueError("witness vector chi must be nonzero")
        funcs = {}
        for label, f in self.functions.items():
            funcs[str(label)] = {float(k): float(v) for k, v in f.items()}
        self.chi = chi
        self.functions = funcs


@dataclass
class SufficiencyVerdict:
    sufficient: bool
    witness: WitnessFactorization | None
    violations: list = field(default_factory=list)

    def __post_init__(self):
        if self.sufficient != (self.witness is not None):
            raise ValueError("sufficient verdicts carry a witness, negative ones do not")
        if self.sufficient and self.violations:
            raise ValueError("sufficient verdicts carry no violations")
        if not self.sufficient and not self.violations:
            raise ValueError("negative verdicts must name at least one violation")


@dataclass
class WitnessCheck:
    ok: bool
    residuals: dict[str, float]
    max_residual: float


@dataclass
class Analysis:
    """Everything the questions about (t, family) read from the Gram stack.

    table carries the components e_k phi_theta and gram[k] = C_k C_k^H.
    ranks[k] is the numerical rank of gram[k].  No eigensolve decides
    rank <= 1: gram[k] has rank >= 2 when some 2x2 principal submatrix
    does (pair_rank_two), else rank 0 when its trace is at most tol and
    rank 1 otherwise.  Only an atom of rank >= 2 is solved, alone, for
    its exact rank.  constraints are the
    off-diagonal entries above ZERO_TOL, in (atom, left, right) order.
    Each active atom (rank >= 1) factors as e_k phi_theta =
    gamma[k, theta] xi[k]; gamma rows of inactive atoms are zero.
    """

    statistic: DiscreteStatistic
    family: StateFamily
    table: AtomProjectionTable
    ranks: tuple[int, ...]
    constraints: list[PhaseConstraint]
    gamma: np.ndarray                # (n_atoms, n_states) complex
    xi: dict[int, np.ndarray]
    active: tuple[bool, ...]

    def decide(self, angle_tol: float = ANGLE_TOL) -> tuple[list, VersionAssignment | None]:
        """Rank test, then phase alignment: (violations, versions).

        Exactly one of the two is empty: the violations refuse, the
        versions make every constraint real.  No witness is built.
        """
        if _RANK_CHECK_ENABLED:
            violations = [RankViolation(atom=k, dim=r)
                          for k, r in enumerate(self.ranks) if r > 1]
            if violations:
                return violations, None
        aligned = align_phases(self.constraints, self.family.labels, angle_tol)
        if isinstance(aligned, Infeasible):
            return [PhaseObstruction(aligned.cycle)], None
        return [], aligned

    def verdict(self, angle_tol: float = ANGLE_TOL) -> SufficiencyVerdict:
        """The decision, with the witness built from its versions."""
        violations, versions = self.decide(angle_tol)
        if violations:
            return SufficiencyVerdict(False, None, violations)
        return SufficiencyVerdict(True, self._witness(versions), [])

    def _witness(self, versions: VersionAssignment) -> WitnessFactorization:
        t, family = self.statistic, self.family
        phases = np.array([versions.phase(lab) for lab in family.labels])
        dressed = self.gamma * phases[np.newaxis, :]
        active = sorted(self.xi)
        coef = 1.0 / np.sqrt(len(active))
        chi = np.zeros(t.dim, dtype=complex)
        values = np.zeros((len(t), len(family)))
        for k in active:
            row = dressed[k]
            lead = int(np.argmax(np.abs(row)))
            u = row[lead] / abs(row[lead])
            values[k] = (row * np.conj(u)).real
            chi += coef * (u * self.xi[k])
        functions = {
            lab: {float(lam): values[k, i] / coef for k, lam in enumerate(t.eigenvalues)}
            for i, lab in enumerate(family.labels)
        }
        return WitnessFactorization(chi=chi, functions=functions, versions=versions)


def analyze(t: DiscreteStatistic, family: StateFamily,
            tol: float = RANK_TOL) -> Analysis:
    """Project the family once and read every per-atom quantity from gram[k].

    The direction xi_k is the first projected state above a relative
    norm floor, normalized and rotated so its largest-magnitude entry is
    positive real; gamma[k] is then a column of gram[k] rescaled.
    """
    table = project_states(t, family)
    spread = pair_rank_two(table.gram, tol).any(axis=(1, 2))
    empty = table.weights.sum(axis=0) <= tol
    ranks = tuple(gram_rank(table.gram[k], tol) if spread[k] else int(not empty[k])
                  for k in range(len(t)))
    norms = np.array([norm(v) for v in family.vectors])
    overlaps = np.abs(table.gram) > ZERO_TOL * np.outer(norms, norms)
    labels = family.labels
    constraints = [
        PhaseConstraint(labels[i], labels[j], table.gram[k, i, j], atom=int(k))
        for k, i, j in zip(*np.nonzero(np.triu(overlaps, 1)))
    ]
    gamma = np.zeros((len(t), len(family)), dtype=complex)
    xi: dict[int, np.ndarray] = {}
    for k, rank in enumerate(ranks):
        if rank == 0:
            continue
        lengths = np.sqrt(table.weights[:, k])
        pick = int(np.argmax(lengths >= REPRESENTATIVE_FLOOR * lengths.max()))
        direction = table.components[k, pick] / lengths[pick]
        anchor = int(np.argmax(np.abs(direction)))
        turn = np.conj(direction[anchor]) / abs(direction[anchor])
        xi[k] = direction * turn
        gamma[k] = table.gram[k, :, pick] * np.conj(turn) / lengths[pick]
    return Analysis(t, family, table, ranks, constraints, gamma, xi,
                    tuple(rank >= 1 for rank in ranks))


def check_weak_sufficiency(t: DiscreteStatistic, family: StateFamily,
                           tol: float = RANK_TOL,
                           angle_tol: float = ANGLE_TOL) -> SufficiencyVerdict:
    """Decide whether t is weakly sufficient for the family.

    Returns a verdict carrying either a witness factorization (chi, one
    real function per label, unit-modulus versions) or the structured
    violations: atoms of projected dimension >= 2 and/or an inconsistent
    phase cycle.
    """
    return analyze(t, family, tol).verdict(angle_tol)


def verify_witness(t: DiscreteStatistic, family: StateFamily,
                   witness: WitnessFactorization, tol: float = 1e-7) -> WitnessCheck:
    """Independently re-check a witness: ||f_theta(T) chi - c_theta phi_theta||.

    Uses only function evaluation on the statistic; nothing from the
    decision path is reused.
    """
    from .spectral import evaluate_function_on_statistic

    residuals = {}
    for i, lab in enumerate(family.labels):
        if lab not in witness.functions:
            raise ValueError(f"witness has no function for state '{lab}'")
        if lab not in witness.versions.phases:
            raise ValueError(f"witness has no version phase for state '{lab}'")
        reached = evaluate_function_on_statistic(t, witness.functions[lab], witness.chi)
        target = witness.versions.phase(lab) * family.vectors[i]
        residuals[lab] = norm(reached - target)
    worst = max(residuals.values())
    return WitnessCheck(ok=worst <= tol, residuals=residuals, max_residual=worst)


@dataclass
class ConstructedStatistic:
    statistic: DiscreteStatistic
    witness: WitnessFactorization


@dataclass
class NonExistence:
    """No weakly sufficient statistic exists; the cycle certifies it."""

    cycle: list[PhaseConstraint]


def family_constraints(family: StateFamily) -> list[PhaseConstraint]:
    """Reality constraints from nonzero entries of the full Gram matrix."""
    g = gram_matrix(family.vectors)
    constraints = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if abs(g[i, j]) > ZERO_TOL:
                constraints.append(
                    PhaseConstraint(family.labels[i], family.labels[j], g[i, j])
                )
    return constraints


def exists_weakly_sufficient(family: StateFamily, tol: float = RANK_TOL,
                             angle_tol: float = ANGLE_TOL):
    """Decide whether any weakly sufficient statistic exists for the family.

    Existence depends only on whether the full Gram matrix can be made
    entrywise real by dressing the states.  On success the statistic is
    built explicitly: orthonormalize a maximal independent subfamily of
    the dressed states, give the n-th direction eigenvalue n, and park
    the orthogonal complement (if any) on eigenvalue 0.  The returned
    witness is produced by running the pair through
    check_weak_sufficiency, not copied from the construction.
    """
    labels = family.labels
    constraints = family_constraints(family)
    aligned = align_phases(constraints, labels, angle_tol)
    if isinstance(aligned, Infeasible):
        return NonExistence(cycle=aligned.cycle)
    dressed = [aligned.phase(lab) * vec for lab, vec in zip(labels, family.vectors)]
    selected: list[np.ndarray] = []
    for vec in dressed:
        if numerical_rank(selected + [vec], tol) == len(selected) + 1:
            selected.append(vec)
    ortho, _ = gram_schmidt(selected, tol)
    d = family.dim
    eigenvalues = [float(n) for n in range(1, len(ortho) + 1)]
    projections = [hermitian_part(np.outer(xi, xi.conj())) for xi in ortho]
    if len(ortho) < d:
        complement = hermitian_part(np.eye(d) - sum(projections))
        eigenvalues = [0.0] + eigenvalues
        projections = [complement] + projections
    statistic = DiscreteStatistic(np.array(eigenvalues), tuple(projections))
    verdict = check_weak_sufficiency(statistic, family, tol, angle_tol)
    if not verdict.sufficient:   # pragma: no cover - internal consistency
        raise RuntimeError("constructed statistic failed its own sufficiency check")
    return ConstructedStatistic(statistic=statistic, witness=verdict.witness)
