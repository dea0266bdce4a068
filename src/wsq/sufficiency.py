"""Weak sufficiency of a discrete statistic for a family of pure states.

A statistic T is weakly sufficient for a labelled family of unit vectors
when, after replacing each state by a unit-modulus multiple, every state
can be written as a real function of T applied to one common vector chi.
For discrete T this reduces to two checkable conditions:

  1. each atom projects the family onto a subspace of dimension <= 1;
  2. the per-atom overlaps can all be made real by one choice of
     unit-modulus multipliers (a phase-alignment problem modulo pi).

decide(T, F) projects the family once and settles both, as one Decision
that every question about (T, F) reads: check_weak_sufficiency is its
verdict, Decision.coarse_sufficient decides each coarse-graining of T
from block sums of its Gram stack, and minimal_statistic reads its
classes and versions.  Whether any weakly sufficient
statistic exists for F depends only on the Gram matrix of F and is
decided by exists_weakly_sufficient: when the states can be dressed so
that their Gram matrix is real, an orthonormal basis of the dressed
states' span, found in one orthogonalization pass, gives one through
statistic_from_directions, and the same dressing is its witness.
Certificates carry those directions, and the verifier rebuilds the
statistic through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RANK_TOL, _upper_triangle, gram_matrix, hermitian_part, pair_rank_two
from .phases import Constraints, Infeasible, PhaseConstraint, VersionAssignment, align_phases
from .spectral import (AtomProjectionTable, CoarseMap, DiscreteStatistic, StateFamily,
                       coarse_blocks, project_states)

ZERO_TOL = 1e-10          # overlaps below this impose nothing
WITNESS_TOL = 1e-7        # largest residual a verified witness may leave

# Fault-injection point for the self-test harness; never disable otherwise.
_RANK_CHECK_ENABLED = True


@dataclass
class RankViolation:
    """Atom whose projected family spans more than one dimension.

    states names two states whose projections onto the atom are
    independent: their 2x2 Gram matrix has rank 2 (pair_rank_two), so by
    Cauchy interlacing the atom's whole Gram matrix has rank >= 2.
    """

    atom: int
    states: tuple[str, str]


@dataclass
class PhaseObstruction:
    """Inconsistent cycle of reality constraints."""

    cycle: list[PhaseConstraint]


@dataclass
class WitnessFactorization:
    """Explicit factorization: versions[theta] * phi_theta = f_theta(T) chi.

    functions[label] maps each eigenvalue of T to a real value.  A plain
    record: verify_witness is the one check of a witness.
    """

    chi: np.ndarray
    functions: dict[str, dict[float, float]]
    versions: VersionAssignment


@dataclass
class SufficiencyVerdict:
    """The decision on (T, F).  spectrum is T's (DiscreteStatistic.spectrum),
    which a certificate records; it names the statistic decided, not the
    answer, so verdicts compare without it.  A plain record: the functions
    that make it, Decision.verdict and minimal_statistic's refusal, give a
    sufficient verdict a witness and no violations, a negative one no
    witness and at least one violation.
    """

    sufficient: bool
    witness: WitnessFactorization | None
    violations: list = field(default_factory=list)
    spectrum: tuple[float, ...] = field(default=(), compare=False)


@dataclass
class WitnessCheck:
    ok: bool
    residuals: dict[str, float]
    max_residual: float


@dataclass
class Decision:
    """The decision on (t, family), made once; every question reads it.

    table carries the components e_k phi_theta and gram[k] = C_k C_k^H.
    An atom is active when some state's weight on it exceeds tol.  Exactly
    one of violations and versions is empty: the violations refuse t, the
    versions make every entry of every gram[k] real.  gamma and xi are
    atom_directions(table, tol), from which verdict builds the witness.
    tol is the rank and activity tolerance of the decision; everything
    read from it applies tol.
    """

    statistic: DiscreteStatistic
    family: StateFamily
    table: AtomProjectionTable
    tol: float
    active: tuple[bool, ...]
    violations: list
    versions: VersionAssignment | None
    gamma: np.ndarray                # (n_atoms, n_states) complex
    xi: dict[int, np.ndarray]

    def verdict(self) -> SufficiencyVerdict:
        """check's verdict: the violations, or the witness under the versions."""
        spectrum = self.statistic.spectrum
        if self.violations:
            return SufficiencyVerdict(False, None, self.violations, spectrum)
        witness = build_witness(self.statistic, self.family, self.versions,
                                directions=(self.gamma, self.xi))
        return SufficiencyVerdict(True, witness, [], spectrum)

    def coarse_sufficient(self, cmap: CoarseMap) -> bool:
        """Is f(T) still weakly sufficient?  False when t is refused, as
        no coarse-graining of it is; otherwise iff no block sum of gram[k]
        over a block of f, dead atoms included, holds a pair of states of
        rank 2 (pair_rank_two), the rank test a direct check of f(T) runs
        (see the minimality module).  f(T) is never built or projected.
        """
        blocks = coarse_blocks(self.statistic, cmap)
        if self.violations:
            return False
        order = [k for _, block in blocks for k in block]
        starts = np.cumsum([0] + [len(block) for _, block in blocks[:-1]])
        sums = np.add.reduceat(self.table.gram[order], starts, axis=0)
        return not pair_rank_two(sums, self.tol).any()


def atom_directions(table: AtomProjectionTable,
                    tol: float = RANK_TOL) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """(gamma, xi): each atom's direction and its states' coordinates on it.

    Each atom k that some state loads above tol**2 (a weight at or below
    it is projector rounding) gets xi[k], its heaviest state h's component
    e_k phi_h / ||e_k phi_h|| with no rotation, and the gamma row
    gram[k, :, h] / ||e_k phi_h||, so that e_k phi_theta = gamma[k, theta]
    xi[k] when gram[k] has rank at most one.  gamma rows of the other
    atoms are zero, and the witness covers exactly the atoms of xi.
    """
    heaviest, weight = table.weights.argmax(axis=0), table.weights.max(axis=0)
    lit = np.flatnonzero(weight > tol * tol)
    lead, length = heaviest[lit], np.sqrt(weight[lit])[:, np.newaxis]
    gamma = np.zeros(table.gram.shape[:2], dtype=complex)
    gamma[lit] = table.gram[lit, :, lead] / length
    xi = dict(zip(lit.tolist(), table.components[lit, lead] / length))
    return gamma, xi


def build_witness(t: DiscreteStatistic, family: StateFamily, versions: VersionAssignment,
                  tol: float = RANK_TOL, directions=None) -> WitnessFactorization:
    """The factorization of the family through t under versions.

    directions is (gamma, xi), the atom_directions at tol of t's
    projection table of the family, computed here unless the caller holds
    them.  The witness is exact when the versions make each dressed gamma
    row real up to one phase, as verify_witness checks.  Nothing here
    decides t: the versions come from t's own decision, or from that of a
    statistic or Gram matrix whose versions serve t too.
    """
    if directions is None:
        directions = atom_directions(project_states(t, family), tol)
    gamma, xi = directions
    phases = np.array([versions.phase(lab) for lab in family.labels])
    dressed = gamma * phases[np.newaxis, :]
    coef = 1.0 / np.sqrt(len(xi))
    chi = np.zeros(t.dim, dtype=complex)
    values = np.zeros((len(t), len(family)))
    for k in xi:
        row = dressed[k]
        lead = int(np.argmax(np.abs(row)))
        u = row[lead] / abs(row[lead])
        values[k] = (row * np.conj(u)).real
        chi += coef * (u * xi[k])
    eigenvalues, rows = t.eigenvalues.tolist(), (values / coef).T.tolist()
    functions = {lab: dict(zip(eigenvalues, row)) for lab, row in zip(family.labels, rows)}
    return WitnessFactorization(chi=chi, functions=functions, versions=versions)


def _phase_constraints(gram: np.ndarray, atoms: bool) -> Constraints:
    """One constraint per entry of gram[k] right of the diagonal above
    ZERO_TOL, in (k, left, right) order; k is recorded as the atom when
    atoms is set.  The rank test reads the same strict upper triangle."""
    rows, cols = _upper_triangle(gram.shape[-1])
    upper = gram[:, rows, cols]
    k, pair = np.nonzero(np.abs(upper) > ZERO_TOL)
    return Constraints(rows[pair], cols[pair], upper[k, pair], k if atoms else None)


def decide(t: DiscreteStatistic, family: StateFamily, tol: float = RANK_TOL) -> Decision:
    """Project the family once, then the rank test and the phase alignment.

    No eigensolve runs.  An atom where some 2x2 principal submatrix of
    gram[k] has rank 2 (pair_rank_two) is refused as it stands, naming
    the first such pair of states.  Otherwise the entries of every gram[k]
    right of the diagonal whose modulus exceeds ZERO_TOL are aligned
    (align_phases): either versions make them all real, or a cycle
    refuses t.
    """
    table = project_states(t, family)
    active = tuple((table.weights.max(axis=0) > tol).tolist())
    split = pair_rank_two(table.gram, tol)
    spread = np.flatnonzero(split.any(axis=1))
    violations, versions = [], None
    if _RANK_CHECK_ENABLED and spread.size:
        rows, cols = _upper_triangle(len(family))
        first, labels = split[spread].argmax(axis=1), family.labels
        violations = [RankViolation(atom=k, states=(labels[i], labels[j])) for k, i, j
                      in zip(spread.tolist(), rows[first].tolist(), cols[first].tolist())]
    else:
        aligned = align_phases(_phase_constraints(table.gram, atoms=True), family.labels)
        if isinstance(aligned, Infeasible):
            violations = [PhaseObstruction(aligned.cycle)]
        else:
            versions = aligned
    return Decision(t, family, table, tol, active, violations, versions,
                    *atom_directions(table, tol))


def check_weak_sufficiency(t: DiscreteStatistic, family: StateFamily,
                           tol: float = RANK_TOL) -> SufficiencyVerdict:
    """Decide whether t is weakly sufficient for the family.

    Returns a verdict carrying either a witness factorization (chi, one
    real function per label, unit-modulus versions) or the structured
    violations: the spread atoms, each with a pair of states it keeps
    apart, or else an inconsistent phase cycle.
    """
    return decide(t, family, tol).verdict()


def verify_witness(t: DiscreteStatistic, family: StateFamily,
                   witness: WitnessFactorization, tol: float = WITNESS_TOL) -> WitnessCheck:
    """Independently re-check a witness: ||f_theta(T) chi - c_theta phi_theta||.

    The one check of a witness, built by hand, read from a certificate or
    built by a decision.  values[theta, k] = f_theta(lambda_k), so values @
    (P_k chi) evaluates every f_theta(T) chi in one product; nothing from
    the decision path is reused.  A state missing from or foreign to the
    family, an eigenvalue with no value, a chi of the wrong dimension and
    a version that is not unit modulus raise ValueError; a zero chi leaves
    every state a residual of 1.
    """
    labels, eigenvalues = family.labels, t.eigenvalues.tolist()
    unknown = (set(witness.functions) | set(witness.versions.phases)) - set(labels)
    if unknown:
        raise ValueError(f"witness names state '{min(unknown)}', which is not in the family")
    for lab in labels:
        if lab not in witness.functions:
            raise ValueError(f"witness has no function for state '{lab}'")
        if lab not in witness.versions.phases:
            raise ValueError(f"witness has no version phase for state '{lab}'")
        missed = [lam for lam in eigenvalues if lam not in witness.functions[lab]]
        if missed:
            raise ValueError(f"function for state '{lab}' has no value "
                             f"for eigenvalue {missed[0]!r}")
    chi = np.atleast_1d(witness.chi)
    if chi.shape != (t.dim,):
        raise ValueError(f"chi has dimension {chi.shape[0]}, the statistic {t.dim}")
    phases = np.array([witness.versions.phase(lab) for lab in labels], dtype=complex)
    skewed = np.flatnonzero(np.abs(np.abs(phases) - 1.0) > 1e-9)
    if skewed.size:
        n = int(skewed[0])
        raise ValueError(f"phase for '{labels[n]}' is not unit modulus: {complex(phases[n])!r}")
    values = np.array([[witness.functions[lab][lam] for lam in eigenvalues] for lab in labels])
    reached = values @ (np.array(t.projections) @ chi)
    gap = reached - phases[:, np.newaxis] * np.array(family.vectors)
    residuals = dict(zip(labels, np.sqrt((gap * gap.conj()).real.sum(axis=1)).tolist()))
    worst = max(residuals.values())
    return WitnessCheck(ok=worst <= tol, residuals=residuals, max_residual=worst)


@dataclass
class ConstructedStatistic:
    """A weakly sufficient statistic built on orthonormal directions.

    directions is an (r, d) array of orthonormal rows and statistic is
    statistic_from_directions(directions); the witness is built on that
    statistic under the versions that made the family's Gram matrix real.
    """

    statistic: DiscreteStatistic
    directions: np.ndarray
    witness: WitnessFactorization


@dataclass
class NonExistence:
    """No weakly sufficient statistic exists; the cycle certifies it."""

    cycle: list[PhaseConstraint]


def family_constraints(family: StateFamily) -> Constraints:
    """Reality constraints from the entries of the full Gram matrix above
    ZERO_TOL, which name no atom."""
    return _phase_constraints(gram_matrix(family.vectors)[np.newaxis], atoms=False)


def statistic_from_directions(directions) -> DiscreteStatistic:
    """The statistic with value n on direction n and 0 on their complement.

    directions is an (r, d) array whose rows are numbered 1..r; the
    complement atom is added only when r < d.  DiscreteStatistic refuses
    rows that are not orthonormal, naming the defect.
    """
    rows = np.asarray(directions, dtype=complex)
    r, d = rows.shape
    eigenvalues = [float(n) for n in range(1, r + 1)]
    projections = [hermitian_part(np.outer(xi, xi.conj())) for xi in rows]
    if r < d:
        eigenvalues = [0.0] + eigenvalues
        projections = [hermitian_part(np.eye(d) - sum(projections))] + projections
    return DiscreteStatistic(np.array(eigenvalues), tuple(projections))


def exists_weakly_sufficient(family: StateFamily, tol: float = RANK_TOL):
    """Decide whether any weakly sufficient statistic exists for the family.

    Existence depends only on whether the full Gram matrix can be made
    entrywise real by dressing the states.  On success one in-order pass
    over the dressed states builds the statistic: each state is
    orthogonalized, twice, against the directions found so far and kept
    as the next direction when its squared residual exceeds tol; then
    statistic_from_directions gives direction n the value n.  The
    dressing is the witness: those versions make every dressed overlap
    real, so each atom's dressed row is real too, and build_witness
    builds the witness from them: the statistic is projected, not decided
    again; near a threshold the witness may miss its tolerance, which
    verify_witness reports.
    """
    labels = family.labels
    aligned = align_phases(family_constraints(family), labels)
    if isinstance(aligned, Infeasible):
        return NonExistence(cycle=aligned.cycle)
    directions: list[np.ndarray] = []
    for lab, vec in zip(labels, family.vectors):
        resid = aligned.phase(lab) * vec
        # the second pass keeps the directions orthonormal to machine
        # precision even when a state lies close to their span
        for _ in range(2):
            for xi in directions:
                resid = resid - np.vdot(xi, resid) * xi
        square = float(np.vdot(resid, resid).real)
        if square > tol:
            directions.append(resid / np.sqrt(square))
    rows = np.array(directions).reshape(-1, family.dim)
    statistic = statistic_from_directions(rows)
    witness = build_witness(statistic, family, aligned, tol)
    return ConstructedStatistic(statistic=statistic, directions=rows, witness=witness)
