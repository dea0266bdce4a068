"""Discrete statistics and state families.

A discrete statistic is a Hermitian observable with finitely many
eigenvalues, held as the list of (eigenvalue, spectral projector) atoms.
Everything downstream -- sufficiency checks, coarse-graining, channel
feasibility -- consumes this atom form rather than raw matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import as_hermitian, hermitian_eig, hermitian_part, norm

PARTITION_TOL = 1e-8       # projector algebra defects tolerated on construction
UNIT_NORM_TOL = 1e-8
WEIGHT_ROW_TOL = 1e-8      # stochasticity defect allowed in projection weights
GROUP_FACTOR = 1e-9        # eigenvalue grouping cutoff, relative to spectral radius
EIGENVALUE_GAP_TOL = 1e-12


@dataclass
class DiscreteStatistic:
    """Observable T = sum_k lambda_k e_k with atoms in ascending eigenvalue order.

    The projectors must form a partition of the identity; construction
    validates idempotence, mutual orthogonality and completeness and
    raises ValueError naming the defect otherwise.  Treat instances as
    immutable once built.
    """

    eigenvalues: np.ndarray
    projections: tuple[np.ndarray, ...]

    def __post_init__(self):
        evs = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        projs = tuple(as_hermitian(p, tol=PARTITION_TOL) for p in self.projections)
        if len(evs) == 0:
            raise ValueError("statistic needs at least one atom")
        if len(evs) != len(projs):
            raise ValueError(
                f"{len(evs)} eigenvalues but {len(projs)} projections"
            )
        if not np.isfinite(evs).all():
            raise ValueError("eigenvalues contain non-finite entries")
        d = projs[0].shape[0]
        for k, p in enumerate(projs):
            if p.shape != (d, d):
                raise ValueError(f"projection {k} has shape {p.shape}, expected {(d, d)}")
            defect = np.abs(p @ p - p).max()
            if defect > PARTITION_TOL:
                raise ValueError(f"projection {k} is not idempotent (defect {defect:.3e})")
        gap_scale = max(1.0, float(np.abs(evs).max()))
        if np.any(np.diff(evs) <= EIGENVALUE_GAP_TOL * gap_scale):
            raise ValueError("eigenvalues must be strictly ascending and separated")
        for j in range(len(projs)):
            for k in range(j + 1, len(projs)):
                cross = np.abs(projs[j] @ projs[k]).max()
                if cross > PARTITION_TOL:
                    raise ValueError(
                        f"projections {j} and {k} are not orthogonal "
                        f"(overlap {cross:.3e})"
                    )
        total = sum(projs)
        defect = np.abs(total - np.eye(d)).max()
        if defect > PARTITION_TOL:
            raise ValueError(
                f"projections do not sum to the identity (defect {defect:.3e})"
            )
        self.eigenvalues = evs
        self.projections = projs

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def __len__(self) -> int:
        return len(self.projections)

    def matrix(self) -> np.ndarray:
        return sum(lam * p for lam, p in zip(self.eigenvalues, self.projections))


@dataclass
class StateFamily:
    """Labelled family of unit vectors, one per parameter value."""

    labels: tuple[str, ...]
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.vectors)
        if len(labels) == 0:
            raise ValueError("state family is empty")
        if len(labels) != len(vecs):
            raise ValueError(f"{len(labels)} labels but {len(vecs)} vectors")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        d = vecs[0].shape[0]
        for lab, v in zip(labels, vecs):
            if v.shape[0] != d:
                raise ValueError(f"state '{lab}' has dimension {v.shape[0]}, expected {d}")
            if not np.isfinite(v).all():
                raise ValueError(f"state '{lab}' contains non-finite entries")
            if abs(norm(v) - 1.0) > UNIT_NORM_TOL:
                raise ValueError(f"state '{lab}' not unit norm")
        self.labels = labels
        self.vectors = vecs

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no state labelled '{label}'") from None

    def vector(self, label: str) -> np.ndarray:
        return self.vectors[self.index(label)]


@dataclass
class CoarseMap:
    """Real-valued relabelling of eigenvalues, defining a function of a statistic."""

    assignment: dict[float, float]

    def __post_init__(self):
        amap = {float(k): float(v) for k, v in self.assignment.items()}
        for k, v in amap.items():
            if not (np.isfinite(k) and np.isfinite(v)):
                raise ValueError("coarse map entries must be finite")
        self.assignment = amap

    def value_for(self, eigenvalue: float) -> float:
        try:
            return self.assignment[float(eigenvalue)]
        except KeyError:
            raise ValueError(
                f"coarse map has no value for eigenvalue {eigenvalue!r}"
            ) from None


@dataclass
class AtomProjectionTable:
    """Per-atom components C_k (rows e_k phi_theta) and their Gram stack.

    gram[k] = C_k C_k^H holds the overlaps <e_k phi_i, e_k phi_j>; its
    diagonal is the weight table w[theta, k] = ||e_k phi_theta||^2.
    """

    components: np.ndarray   # (n_atoms, n_states, dim)
    gram: np.ndarray         # (n_atoms, n_states, n_states)
    weights: np.ndarray = field(init=False)   # (n_states, n_atoms), rows sum to 1

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=complex)
        g = np.asarray(self.gram, dtype=complex)
        if comp.ndim != 3:
            raise ValueError("components must be a (atoms, states, dim) array")
        if g.shape != (comp.shape[0], comp.shape[1], comp.shape[1]):
            raise ValueError(f"gram shape {g.shape} inconsistent with components")
        w = np.diagonal(g, axis1=1, axis2=2).T.real
        if np.any(w < -WEIGHT_ROW_TOL):
            raise ValueError("weights must be nonnegative")
        rowsum = w.sum(axis=1)
        worst = float(np.abs(rowsum - 1.0).max())
        if worst > WEIGHT_ROW_TOL:
            raise ValueError(f"weight rows must sum to 1 (defect {worst:.3e})")
        self.components = comp
        self.gram = g
        self.weights = w


def statistic_from_matrix(m, group_tol: float | None = None) -> DiscreteStatistic:
    """Eigendecompose a Hermitian matrix and group near-degenerate eigenvalues.

    Eigenvalues closer than group_tol (default GROUP_FACTOR times the
    spectral radius, chain linkage) share an atom whose projector spans
    their eigenvectors.
    """
    h = as_hermitian(m)
    w, v = hermitian_eig(h)
    if group_tol is None:
        group_tol = GROUP_FACTOR * float(np.abs(w).max())
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][-1]] <= group_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    eigenvalues = [float(np.mean(w[g])) for g in groups]
    projections = [hermitian_part(v[:, g] @ v[:, g].conj().T) for g in groups]
    return DiscreteStatistic(np.array(eigenvalues), tuple(projections))


def coarse_blocks(t: DiscreteStatistic, cmap: CoarseMap) -> list[tuple[float, list[int]]]:
    """Atoms of t grouped by their value under a coarse map f.

    Returns (value, atom indices) pairs in ascending value order, indices
    ascending within each block.  The map must assign a value to every
    eigenvalue of t.
    """
    blocks: dict[float, list[int]] = {}
    for k, lam in enumerate(t.eigenvalues):
        blocks.setdefault(cmap.value_for(lam), []).append(k)
    return sorted(blocks.items(), key=lambda item: item[0])


def apply_coarse(t: DiscreteStatistic, cmap: CoarseMap):
    """Build the statistic f(T) induced by a coarse map f.

    Returns (coarse statistic, partition): partition[i] lists the atom
    indices of t merged into atom i of the coarse statistic, in the same
    (ascending value) order as its atoms.  The map must assign a value to
    every eigenvalue of t.
    """
    ordered = coarse_blocks(t, cmap)
    eigenvalues = np.array([val for val, _ in ordered])
    projections = tuple(
        sum(t.projections[k] for k in idxs) for _, idxs in ordered
    )
    coarse = DiscreteStatistic(eigenvalues, projections)
    return coarse, [idxs for _, idxs in ordered]


def project_states(t: DiscreteStatistic, family: StateFamily) -> AtomProjectionTable:
    """Tabulate e_k phi_theta and the per-atom Gram stack of those components."""
    if t.dim != family.dim:
        raise ValueError(
            f"statistic dimension {t.dim} does not match states of dimension {family.dim}"
        )
    comp = np.array(family.vectors) @ np.array(t.projections).transpose(0, 2, 1)
    return AtomProjectionTable(comp, comp @ comp.conj().transpose(0, 2, 1))


def evaluate_function_on_statistic(t: DiscreteStatistic, f, vec) -> np.ndarray:
    """Apply f(T) to a vector, f given as a map eigenvalue -> real value."""
    if isinstance(f, CoarseMap):
        f = f.assignment
    elif not isinstance(f, Mapping):
        raise ValueError("f must be a mapping from eigenvalues to real values")
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.shape[0] != t.dim:
        raise ValueError(f"vector dimension {v.shape[0]} does not match {t.dim}")
    out = np.zeros(t.dim, dtype=complex)
    for lam, p in zip(t.eigenvalues, t.projections):
        try:
            val = f[float(lam)]
        except KeyError:
            raise ValueError(f"function has no value for eigenvalue {lam!r}") from None
        try:
            scaled = float(val)
        except (TypeError, ValueError):
            raise ValueError(f"function value for eigenvalue {lam!r} must be real") from None
        out += scaled * (p @ v)
    return out
