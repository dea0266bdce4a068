"""Channel-sufficiency (Petz-style) feasibility for discrete statistics.

The coarse-graining channel of a discrete statistic replaces a state by
a mixture over atoms: alpha(x) = sum_k tr(rho_k x) e_k for some family
of positive operators rho_k.  The family of pure states is invariant
under some such channel exactly when the affine system

    sum_k w[theta, k] * rho_k = |phi_theta><phi_theta|   for every theta
    (and tr rho_k = 1 for every k, in the unital case)

admits a positive semidefinite solution, where w[theta, k] is the weight
of state theta on atom k.  Invariant families of pure states are
necessarily pairwise orthogonal, so an overlap precheck runs first.
Past it the answer is closed-form (petz_feasibility), and tolerances
bounds the residual it leaves.  Its test oracles live in wsq.harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import MAX_DIM, inner
from .spectral import DiscreteStatistic, StateFamily, project_states

FEASIBILITY_TOL = 1e-7


def tolerances(tol: float = FEASIBILITY_TOL) -> dict[str, float]:
    """petz's tolerances from its one tolerance: "petz_feasibility" = tol
    cuts overlaps and loads; "reconstruction" = 4 MAX_DIM tol bounds every
    feasible residual.  Proof, for unit states on atoms summing to I: an
    owner o is its atom's heaviest state, so another state puts at most
    tol S_o on o's atoms, S_o o's weight there.  Non-unital, rho = P_o / S_o
    rebuilds P_theta from theta's atoms, and each other owner adds at most
    tol to an entry: (n - 1) tol.  Unital, rho = P_o on live atoms and I/d
    on the m dead ones, of weight at most tol: theta's atoms miss at most
    (n - 1 + m) tol of P_theta, and the rest add as much.  Past the overlap
    check the states are independent and, unital, each owns an atom, so
    n + m <= d: both bounds are at most 2 (d - 1) tol <= 126 tol, half of it.
    """
    return {"petz_feasibility": tol, "reconstruction": 4 * MAX_DIM * tol}


def load_mask(weights: np.ndarray, tol: float) -> np.ndarray:
    """loads[theta, k]: k is live, m_k = max w[:, k] > tol, and w[theta, k] > tol m_k."""
    heaviest = weights.max(axis=0)
    return (weights > tol * heaviest) & (heaviest > tol)


# Fault-injection point for the self-test harness: decides unital
# instances by the non-unital rule, as if the trace-one rows were dropped.
_KEEP_TRACE_ROWS = True


@dataclass
class PetzInstance:
    """A statistic and a family; weights[theta, k] = ||e_k phi_theta||^2 is
    derived from them once, by project_states, and not checked again."""

    statistic: DiscreteStatistic
    family: StateFamily
    unital: bool = True
    weights: np.ndarray = field(init=False)   # (n_states, n_atoms)

    def __post_init__(self):
        self.weights = project_states(self.statistic, self.family).weights

    @classmethod
    def from_parts(cls, statistic: DiscreteStatistic, family: StateFamily,
                   unital: bool = True) -> "PetzInstance":
        return cls(statistic, family, unital)


@dataclass
class Feasible:
    """The closed-form solution: owners[k] is the label of the one state
    that loads atom k, or None, and rhos and max_constraint_residual are
    what rhos_from_owners builds from them.  spectrum is the statistic's
    (DiscreteStatistic.spectrum), which a certificate records; results
    compare without it."""

    rhos: list[np.ndarray]
    max_constraint_residual: float
    owners: tuple[str | None, ...]
    spectrum: tuple[float, ...] = field(default=(), compare=False)


@dataclass
class InfeasibleOrthogonality:
    """Two states overlap, so no invariant channel can exist."""

    pair: tuple[str, str]
    overlap: complex


@dataclass
class InfeasibleSharedAtoms:
    """Pairs (atom, other state) of atoms that ``state`` shares, so rho = 0.

    Unital, one pair contradicts trace one.  Non-unital, the pairs cover
    every atom the state loads, so nothing can rebuild it.  spectrum is as
    in Feasible.
    """

    state: str
    pairs: tuple[tuple[int, str], ...]
    spectrum: tuple[float, ...] = field(default=(), compare=False)


def orthogonality_precheck(family: StateFamily, tol: float = FEASIBILITY_TOL):
    """The refusal of the first pair overlapping above tol, or None."""
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            overlap = inner(family.vectors[i], family.vectors[j])
            if abs(overlap) > tol:
                return InfeasibleOrthogonality((family.labels[i], family.labels[j]), overlap)
    return None


def petz_feasibility(instance: PetzInstance, tol: float = FEASIBILITY_TOL):
    """Decide channel-invariance feasibility for the instance at tol.

    A rho_k that state theta loads (load_mask) is a multiple of
    |phi_theta><phi_theta|, an extreme ray of the PSD cone (Petz 1988), so
    one that two orthogonal states load is 0.  Unital: feasible iff no atom
    is loaded twice; non-unital, iff every state loads an atom of its own.
    A feasible answer names each atom's owner, the one state that loads it,
    and builds the rho's from them (rhos_from_owners); refusals are
    InfeasibleOrthogonality, then InfeasibleSharedAtoms.
    """
    refusal = orthogonality_precheck(instance.family, tol)
    if refusal is not None:
        return refusal
    fam, w = instance.family, instance.weights
    unital = instance.unital and _KEEP_TRACE_ROWS
    loads = load_mask(w, tol)
    shared = loads.sum(axis=0) > 1
    private = loads & ~shared

    def refuse(n: int, atoms) -> InfeasibleSharedAtoms:
        pairs = tuple(
            (int(k), fam.labels[next(j for j in np.flatnonzero(loads[:, k]) if j != n)])
            for k in atoms
        )
        return InfeasibleSharedAtoms(state=fam.labels[n], pairs=pairs,
                                     spectrum=instance.statistic.spectrum)

    if unital:
        if shared.any():
            k = int(np.argmax(shared))
            return refuse(int(np.argmax(loads[:, k])), [k])
    else:
        for n in range(len(fam)):
            if not private[n].any():
                return refuse(n, np.flatnonzero(loads[n]))

    owners = tuple(fam.labels[col.argmax()] if col.any() else None for col in private.T)
    rhos, residual = rhos_from_owners(fam, w, owners, unital)
    return Feasible(rhos=rhos, max_constraint_residual=residual, owners=owners,
                    spectrum=instance.statistic.spectrum)


def rhos_from_owners(family: StateFamily, weights: np.ndarray, owners, unital: bool):
    """The rho of each atom and the largest state reconstruction residual.

    owners[k] is the label of the state that owns atom k, or None.  An
    owned atom gets its owner's projector over the owner's weight on the
    atoms it owns (non-unital) or on all (unital, so of trace one); any
    other atom gets I/d (unital) or 0.  Those are PSD by construction.
    """
    vectors = family.stack
    projectors = np.einsum("ni,nj->nij", vectors, vectors.conj())
    owned = np.array([[label == owner for owner in owners] for label in family.labels])
    scale = (weights if unital else weights * owned).sum(axis=1)
    d = family.dim
    idle = np.eye(d, dtype=complex) / d if unital else np.zeros((d, d), dtype=complex)
    rhos = [projectors[row.argmax()] / scale[row.argmax()] if row.any() else idle.copy()
            for row in owned.T]
    residual = float(np.abs(np.einsum("nk,kij->nij", weights, np.array(rhos)) - projectors).max())
    return rhos, residual
