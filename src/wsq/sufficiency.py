"""Weak sufficiency of a discrete statistic for a family of pure states.

T is weakly sufficient for a labelled family of unit vectors when, after
each state is replaced by a unit-modulus multiple (its version), every
state is a real function of T applied to one common vector chi.  For
discrete T that is two conditions, judged at one Gram tolerance
(tolerances): each atom projects the family onto at most one dimension,
and one choice of versions makes every per-atom overlap real (a phase
alignment modulo pi).  decide(T, F) projects the family once and settles
both, as one Decision that every question about (T, F) reads: check's
verdict, the block sums of each coarse-graining, and the minimal
statistic's classes and versions.  Whether any weakly sufficient
statistic exists depends only on the family's Gram matrix
(exists_weakly_sufficient): when versions make it real, an orthonormal
basis of the dressed states' span gives one through
statistic_from_directions, with those versions as its witness.
Certificates carry the directions, and the verifier rebuilds the
statistic through the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import RANK_TOL, _upper_triangle, gram_matrix, hermitian_part, pair_rank_two
from .phases import Constraints, Infeasible, PhaseConstraint, VersionAssignment, align_phases
from .spectral import (AtomProjectionTable, CoarseMap, DiscreteStatistic, StateFamily,
                       coarse_blocks, project_states)

WITNESS_FACTOR = 28       # the witness tolerance in units of sqrt(tol); see tolerances

# Fault-injection point for the self-test harness; never disable otherwise.
_RANK_CHECK_ENABLED = True


def tolerances(tol: float = RANK_TOL) -> dict[str, float]:
    """The tolerances of check, construct and minimal, from their one Gram
    tolerance tol and eps = sqrt(tol).  "rank" is tol: the pair rule's
    cutoff (pair_rank_two), and the weight above which an atom is live and
    lit (Decision.active, atom_directions).  "angle" is eps: the defect
    align_phases accepts; an overlap G_ij of a Gram matrix G constrains the
    phases when |G_ij| > eps sqrt(max(G_ii, G_jj)).  "witness" is
    WITNESS_FACTOR eps, which bounds every witness check and minimal build.

    Proof.  Take a block B of atoms whose Gram sum passes the pair rule (an
    atom for check, a class for minimal; K atoms in all), h its heaviest
    state, of weight w_h.  build_witness keeps state theta's part along
    e_B phi_h, turned real by c_h, h's version.  theta misses by two
    orthogonal parts.  Off that direction, by det / w_h <= 2 lo <= 2 eps^2
    in the square: det and lo are the pair (theta, h)'s determinant and the
    pair rule's lo = det / hi <= tol, and hi <= 2 w_h.  Along it, by
    |Im(c_theta conj(c_h) G_theta,h)| / sqrt(w_h).  Each atom k of B adds
    to G_theta,h an entry a_k whose dressed imaginary part is at most
    eps |a_k| (aligned to within angle eps) or |a_k| <= eps sqrt(max(
    w_k,theta, w_k,h)) (constraining nothing), so at most eps
    (sqrt(w_k,theta) + sqrt(w_k,h)); by Cauchy-Schwarz the part is at most
    2 eps sqrt(K_B).  A block whose weights are all at most tol is
    left out, at most eps^2 in the square.  Over the orthogonal blocks the
    squares add to at most sum_B (2 + 4 K_B) eps^2 <= 6 K eps^2 <= 8 K eps^2,
    and sqrt(8 MAX_DIM) = 22.6 leaves WITNESS_FACTOR room for rounding.  construct's
    witness has no such bound, as its directions' error grows with the
    family's conditioning; the command line checks it.
    """
    eps = math.sqrt(tol)
    return {"rank": tol, "angle": eps, "witness": WITNESS_FACTOR * eps}


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
    """The decision on (T, F): a witness and no violations, or no witness
    and at least one violation.  spectrum is T's, which a certificate
    records; it names the statistic decided, not the answer, so verdicts
    compare without it."""

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
    An atom is active when some state's weight on it exceeds tol, the
    Gram tolerance that everything read from the decision applies.
    Exactly one of violations and versions is empty: the violations refuse
    t, the versions make every entry of every gram[k] real.
    """

    statistic: DiscreteStatistic
    family: StateFamily
    table: AtomProjectionTable
    tol: float
    active: tuple[bool, ...]
    violations: list
    versions: VersionAssignment | None

    def verdict(self) -> SufficiencyVerdict:
        """check's verdict: the violations, or the witness on atom_directions(table, tol)."""
        spectrum = self.statistic.spectrum
        if self.violations:
            return SufficiencyVerdict(False, None, self.violations, spectrum)
        witness = build_witness(self.statistic, self.family, self.versions,
                                directions=atom_directions(self.table, self.tol))
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
        order, starts = [], []
        for _, block in blocks:
            starts.append(len(order))
            order += block
        sums = np.add.reduceat(self.table.gram[order], starts, axis=0)
        return not pair_rank_two(sums, self.tol).any()


def atom_directions(table: AtomProjectionTable,
                    tol: float = RANK_TOL) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """(gamma, xi): each atom's direction and its states' coordinates on it.

    Each atom k that some state loads above tol gets xi[k], its heaviest
    state h's component e_k phi_h / ||e_k phi_h|| with no rotation, and the
    gamma row gram[k, :, h] / ||e_k phi_h||, so that e_k phi_theta =
    gamma[k, theta] xi[k] when gram[k] has rank at most one.  Other atoms'
    gamma rows are zero; the witness, the one reader of both, covers
    exactly the atoms of xi.
    """
    heaviest, weight = table.weights.argmax(axis=0), table.weights.max(axis=0)
    lit = np.flatnonzero(weight > tol)
    lead, length = heaviest[lit], np.sqrt(weight[lit])[:, np.newaxis]
    gamma = np.zeros(table.gram.shape[:2], dtype=complex)
    gamma[lit] = table.gram[lit, :, lead] / length
    xi = dict(zip(lit.tolist(), table.components[lit, lead] / length))
    return gamma, xi


def build_witness(t: DiscreteStatistic, family: StateFamily, versions: VersionAssignment,
                  tol: float = RANK_TOL, directions=None) -> WitnessFactorization:
    """The factorization of the family through t under versions, which
    come from a decision of t or of a statistic or Gram matrix whose
    versions serve t too; t is not decided here.  directions is (gamma,
    xi), atom_directions at tol, computed here unless the caller passes
    them, as Decision.verdict does.  The witness is exact when the
    versions make each dressed gamma row real up to one phase.
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


def _phase_constraints(gram: np.ndarray, tol: float, atoms: bool) -> Constraints:
    """One constraint per entry G_ij of gram[k] right of the diagonal with
    |G_ij| > sqrt(tol max(G_ii, G_jj)), the cutoff of tolerances(tol), in
    (k, left, right) order; k is recorded as the atom when atoms is set.
    The rank test reads the same strict upper triangle."""
    rows, cols = _upper_triangle(gram.shape[-1])
    upper = gram[:, rows, cols]
    weights = np.diagonal(gram, axis1=1, axis2=2).real
    cut = math.sqrt(tol) * np.sqrt(np.maximum(weights[:, rows], weights[:, cols]))
    k, pair = np.nonzero(np.abs(upper) > cut)
    return Constraints(rows[pair], cols[pair], upper[k, pair], k if atoms else None)


def decide(t: DiscreteStatistic, family: StateFamily, tol: float = RANK_TOL) -> Decision:
    """Project the family once, then the rank test and the phase alignment,
    with no eigensolve.  An atom where some pair of states has rank 2
    (pair_rank_two) is refused, naming the first such pair.  Otherwise the
    entries of every gram[k] above the cutoff of tolerances(tol) are
    aligned at its angle (align_phases): versions make them all real, or a
    cycle refuses t.  Only Decision.verdict computes the witness directions.
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
        aligned = align_phases(_phase_constraints(table.gram, tol, atoms=True), family.labels,
                               math.sqrt(tol))
        if isinstance(aligned, Infeasible):
            violations = [PhaseObstruction(aligned.cycle)]
        else:
            versions = aligned
    return Decision(t, family, table, tol, active, violations, versions)


def check_weak_sufficiency(t: DiscreteStatistic, family: StateFamily,
                           tol: float = RANK_TOL) -> SufficiencyVerdict:
    """Decide whether t is weakly sufficient for the family: a verdict with
    a witness factorization, or with the spread atoms, each with a pair of
    states it keeps apart, or else an inconsistent phase cycle."""
    return decide(t, family, tol).verdict()


def verify_witness(t: DiscreteStatistic, family: StateFamily, witness: WitnessFactorization,
                   tol: float = tolerances()["witness"]) -> WitnessCheck:
    """Independently re-check a witness: ||f_theta(T) chi - c_theta phi_theta||
    against tol, by default tolerances()["witness"].

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
    reached = values @ (t.stack @ chi)
    gap = reached - phases[:, np.newaxis] * family.stack
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


def family_constraints(family: StateFamily, tol: float = RANK_TOL) -> Constraints:
    """Reality constraints from the entries of the full Gram matrix above
    the cutoff of tolerances(tol), which name no atom."""
    return _phase_constraints(gram_matrix(family.stack)[np.newaxis], tol, atoms=False)


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

    It does when versions make the family's Gram matrix real.  Then one
    in-order pass over the dressed states builds the statistic: each is
    orthogonalized, twice, against the directions found so far and kept as
    the next direction when its squared residual exceeds tol, and
    statistic_from_directions gives direction n the value n.  Those
    versions make every dressed row real, and build_witness builds the
    witness under them, without deciding the statistic again.  Its residual
    grows with the family's conditioning, which tolerances does not bound.
    """
    labels = family.labels
    aligned = align_phases(family_constraints(family, tol), labels, math.sqrt(tol))
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
