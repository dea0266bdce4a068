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
only on the Gram matrix of F and is decided by exists_weakly_sufficient.
When the states can be dressed so that their Gram matrix is real, any
orthonormal basis of the dressed states' span gives one: it is found in
one orthogonalization pass, and statistic_from_directions turns it into
the statistic.  The same dressing is its witness, so existence is decided
once.  Certificates carry those directions, and the verifier rebuilds the
statistic through the same function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import RANK_TOL, gram_matrix, hermitian_part, norm, pair_rank_two
from .phases import Constraints, Infeasible, PhaseConstraint, VersionAssignment, align_phases
from .spectral import AtomProjectionTable, DiscreteStatistic, StateFamily, project_states

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
    """The decision on (T, F).  spectrum is T's (DiscreteStatistic.spectrum),
    which a certificate records; it names the statistic decided, not the
    answer, so verdicts compare without it."""

    sufficient: bool
    witness: WitnessFactorization | None
    violations: list = field(default_factory=list)
    spectrum: tuple[float, ...] = field(default=(), compare=False)

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
    No eigensolve runs: spread maps each atom where some 2x2 principal
    submatrix of gram[k] has rank 2 (pair_rank_two) to the state indices
    (i, j), i < j, of the first such pair, and such an atom is refused as
    it stands.  An atom is active when some state's weight on it exceeds
    tol; a spread atom always is.  constraints hold the entries of gram[k]
    right of the diagonal whose modulus exceeds ZERO_TOL, as arrays in
    (atom, left, right) order; both tests read the one strict upper
    triangle index (_upper_triangle).  Each atom that
    some state loads above tol**2 (a weight at or below it is projector
    rounding) gets a direction xi[k], its heaviest state's component
    normalized with no rotation, and a gamma row, that state's column of
    gram[k] rescaled, with e_k phi_theta = gamma[k, theta] xi[k] unless
    the atom is spread; the witness covers exactly these atoms, and
    gamma rows of the others are zero.  tol is the rank and activity
    tolerance the analysis was built with; everything read from it
    applies tol.
    """

    statistic: DiscreteStatistic
    family: StateFamily
    table: AtomProjectionTable
    spread: dict[int, tuple[int, int]]
    constraints: Constraints
    gamma: np.ndarray                # (n_atoms, n_states) complex
    xi: dict[int, np.ndarray]
    active: tuple[bool, ...]
    tol: float

    def decide(self) -> tuple[list, VersionAssignment | None]:
        """Rank test, then phase alignment: (violations, versions).

        Exactly one of the two is empty: the violations refuse, the
        versions make every constraint real.  No witness is built.
        """
        if _RANK_CHECK_ENABLED and self.spread:
            labels = self.family.labels
            return [RankViolation(atom=k, states=(labels[i], labels[j]))
                    for k, (i, j) in self.spread.items()], None
        aligned = align_phases(self.constraints, self.family.labels)
        if isinstance(aligned, Infeasible):
            return [PhaseObstruction(aligned.cycle)], None
        return [], aligned

    def verdict(self) -> SufficiencyVerdict:
        """The decision, with the witness built from its versions."""
        violations, versions = self.decide()
        spectrum = self.statistic.spectrum
        if violations:
            return SufficiencyVerdict(False, None, violations, spectrum)
        return SufficiencyVerdict(True, self.witness(versions), [], spectrum)

    def witness(self, versions: VersionAssignment) -> WitnessFactorization:
        """The factorization under versions; exact when they make each
        dressed gamma row real up to one phase, as verify_witness checks."""
        t, family = self.statistic, self.family
        phases = np.array([versions.phase(lab) for lab in family.labels])
        dressed = self.gamma * phases[np.newaxis, :]
        coef = 1.0 / np.sqrt(len(self.xi))
        chi = np.zeros(t.dim, dtype=complex)
        values = np.zeros((len(t), len(family)))
        for k in self.xi:
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


@functools.lru_cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries right of the diagonal of an
    n x n matrix, row by row; shared, so read-only."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _phase_constraints(upper: np.ndarray, rows, cols, atoms: bool) -> Constraints:
    """One constraint per entry of upper[k] above ZERO_TOL, in (k, left,
    right) order; upper[k] holds gram[k][rows, cols], and k is recorded as
    the atom when atoms is set."""
    k, pair = np.nonzero(np.abs(upper) > ZERO_TOL)
    return Constraints(rows[pair], cols[pair], upper[k, pair], k if atoms else None)


def analyze(t: DiscreteStatistic, family: StateFamily,
            tol: float = RANK_TOL) -> Analysis:
    """Project the family once and read every per-atom quantity from gram[k].

    Atom k's heaviest state h fixes it when its rank is at most one:
    xi_k = e_k phi_h / ||e_k phi_h|| and gamma[k] = gram[k, :, h] /
    ||e_k phi_h||, for every atom whose heaviest weight exceeds tol**2.
    """
    table = project_states(t, family)
    rows, cols = _upper_triangle(len(family))
    split = pair_rank_two(table.gram, tol)[:, rows, cols]
    spread_atoms = np.flatnonzero(split.any(axis=1))
    # a single state has no pair to take an argmax over, and spreads nothing
    first = split[spread_atoms].argmax(axis=1) if spread_atoms.size else spread_atoms
    spread = dict(zip(spread_atoms.tolist(), zip(rows[first].tolist(), cols[first].tolist())))
    heaviest, weight = table.weights.argmax(axis=0), table.weights.max(axis=0)
    constraints = _phase_constraints(table.gram[:, rows, cols], rows, cols, atoms=True)
    lit = np.flatnonzero(weight > tol * tol)
    lead, length = heaviest[lit], np.sqrt(weight[lit])[:, np.newaxis]
    gamma = np.zeros((len(t), len(family)), dtype=complex)
    gamma[lit] = table.gram[lit, :, lead] / length
    xi = dict(zip(lit.tolist(), table.components[lit, lead] / length))
    return Analysis(t, family, table, spread, constraints, gamma, xi,
                    tuple((weight > tol).tolist()), tol)


def check_weak_sufficiency(t: DiscreteStatistic, family: StateFamily,
                           tol: float = RANK_TOL) -> SufficiencyVerdict:
    """Decide whether t is weakly sufficient for the family.

    Returns a verdict carrying either a witness factorization (chi, one
    real function per label, unit-modulus versions) or the structured
    violations: the spread atoms, each with a pair of states it keeps
    apart, or else an inconsistent phase cycle.
    """
    return analyze(t, family, tol).verdict()


def verify_witness(t: DiscreteStatistic, family: StateFamily,
                   witness: WitnessFactorization, tol: float = WITNESS_TOL) -> WitnessCheck:
    """Independently re-check a witness: ||f_theta(T) chi - c_theta phi_theta||.

    values[theta, k] = f_theta(lambda_k), so values @ (P_k chi) evaluates
    every f_theta(T) chi in one product; nothing from the decision path is
    reused.  A state missing from or foreign to the family, an eigenvalue
    with no value and a chi of the wrong dimension raise ValueError.
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
    if witness.chi.shape != (t.dim,):
        raise ValueError(f"chi has dimension {witness.chi.shape[0]}, the statistic {t.dim}")
    values = np.array([[witness.functions[lab][lam] for lam in eigenvalues] for lab in labels])
    reached = values @ (np.array(t.projections) @ witness.chi)
    phases = np.array([witness.versions.phase(lab) for lab in labels])
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
    rows, cols = _upper_triangle(len(family))
    upper = gram_matrix(family.vectors)[rows, cols][np.newaxis]
    return _phase_constraints(upper, rows, cols, atoms=False)


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
    real, so each atom's dressed row is real too, and Analysis builds the
    witness from them without deciding the statistic again; near a
    threshold it may miss its tolerance, which verify_witness reports.
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
    witness = analyze(statistic, family, tol).witness(aligned)
    return ConstructedStatistic(statistic=statistic, directions=rows, witness=witness)
