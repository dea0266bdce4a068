"""Discrete statistics and state families.

A discrete statistic is a Hermitian observable with finitely many
eigenvalues, held as the list of (eigenvalue, spectral projector) atoms.
Everything downstream -- sufficiency checks, coarse-graining, channel
feasibility -- consumes this atom form rather than raw matrices.
Input is checked once, where it enters (DiscreteStatistic, StateFamily);
what project_states derives from it is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (EPS, _upper_triangle, as_hermitian, hermitian_eig, hermitian_part,
                     krylov_eigvals, norm)

PARTITION_TOL = 1e-8       # projector algebra defects tolerated on construction
UNIT_NORM_TOL = 1e-8
GROUP_FACTOR = 1e-9        # eigenvalue grouping cutoff, relative to spectral radius
EIGENVALUE_GAP_TOL = 1e-12
_PAIR_ENTRIES = 1 << 16    # entries of atom-pair products held at once (_partition_defects)


class SpectrumError(ValueError):
    """Values that are not the spectrum of the matrix given with them."""


def _hermitian_stack(projections):
    """The projections checked and symmetrized as as_hermitian does at
    PARTITION_TOL, and the stack of those up to the first whose shape
    differs from the first one's; the stacked projections are views of it.

    Projections of one square shape are checked as one stack, each
    against its own scale, and the first one refused is handed to
    as_hermitian, which raises its error; any others go through
    as_hermitian one by one.
    """
    try:
        stack = np.array(projections, dtype=complex)
    except (TypeError, ValueError):   # ragged, or shapes that differ
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        projs = tuple(as_hermitian(p, tol=PARTITION_TOL) for p in projections)
        same = next((k for k, p in enumerate(projs) if p.shape != projs[0].shape), len(projs))
        stack = np.array(projs[:same])
        return tuple(stack) + projs[same:], stack
    adjoint = stack.conj().transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):   # a non-finite entry is refused on its own
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        asym = np.abs(stack - adjoint).max(axis=(1, 2))
        bad = ~np.isfinite(stack).all(axis=(1, 2)) | (asym > PARTITION_TOL * scale)
    if bad.any():
        as_hermitian(projections[int(bad.argmax())], tol=PARTITION_TOL)   # raises
    stack = 0.5 * (stack + adjoint)
    return tuple(stack), stack


def _check_orthogonal(stack: np.ndarray) -> None:
    """Raise ValueError naming the first pair j < k of the (m, d, d) stack,
    in row-major order, with max|e_j e_k| above PARTITION_TOL.

    The pairs go in batches of max(m, _PAIR_ENTRIES / d^2): memory near
    m d^2 entries, one batch up to 1024 pairs of 8 x 8.
    """
    d = stack.shape[1]
    rows, cols = _upper_triangle(len(stack))
    step = max(len(stack), _PAIR_ENTRIES // (d * d))
    for start in range(0, len(rows), step):
        j, k = rows[start:start + step], cols[start:start + step]
        cross = np.abs(stack[j] @ stack[k]).max(axis=(1, 2))
        bad = cross > PARTITION_TOL
        if bad.any():
            i = bad.argmax()
            raise ValueError(
                f"projections {j[i]} and {k[i]} are not orthogonal "
                f"(overlap {cross[i]:.3e})"
            )


def _partition_defects(evs: np.ndarray, projs: tuple, stack: np.ndarray) -> np.ndarray:
    """DiscreteStatistic's partition checks on ascending eigenvalues evs and
    their projections projs, of which stack holds those up to the first
    of another shape (_hermitian_stack); returns each stacked atom's
    idempotence defect max|e e - e|.

    Raises ValueError naming the first defect: no atoms, counts that
    differ, a non-finite eigenvalue, an atom that is not idempotent or is
    empty, a shape that differs, eigenvalues that do not ascend, atoms
    that are not orthogonal, or a sum that is not the identity.

    Completeness bounds orthogonality, so the pair scan (_check_orthogonal)
    runs only where that bound does not clear.  Take the d x d Hermitian
    atoms E_k, their idempotence defects delta_k and their sum I + D.
    Then every max|E_j E_k| is at most b = ||D||_F + 4 d sum_k delta_k +
    4 d^2 max_k delta_k^2, and where b <= PARTITION_TOL / 2 no pair fails.

    Proof.  Let P_k be the projector on E_k's eigenvalues above 1/2 and
    A_k = E_k - P_k.  An eigenvalue mu of E_k has |mu^2 - mu| <= d delta_k,
    which b bounds far below 1/4, so mu lies within 2 |mu^2 - mu| of 0 or 1
    and ||A_k||_F <= 2 ||E_k^2 - E_k||_F <= 2 d delta_k.  The traces sum to
    d + tr D, |tr D| <= sqrt(d) ||D||_F and |tr E_k - tr P_k| <= sqrt(d)
    ||A_k||_F, so the integer ranks tr P_k add to within sqrt(d) b < 1 of d,
    hence to d.  Then H = sum_k P_k - I has ||H||_F^2 = tr H^2 = sum_{j != k}
    tr(P_j P_k) + d - sum_k tr P_k = sum_{j != k} ||P_j P_k||_F^2, and ||H||_F
    <= ||D||_F + sum_k ||A_k||_F.  Last, E_j E_k = P_j P_k + A_j P_k + P_j A_k
    + A_j A_k, so max|E_j E_k| <= ||E_j E_k||_F <= ||H||_F + 2 d (delta_j +
    delta_k) + 4 d^2 delta_j delta_k <= b.  The atoms are exactly Hermitian
    (_hermitian_stack) and b is computed from them; rounding moves each
    delta_k and each entry of the scan's products by about d eps, and b by
    about 4 m d^2 eps for m atoms (2.3e-10 at 64 atoms of d = 64), inside
    the other half of PARTITION_TOL.  So the fast path passes only stacks
    that the scan and the sum check pass, and every error is the scan's.
    """
    if len(evs) == 0:
        raise ValueError("statistic needs at least one atom")
    if len(evs) != len(projs):
        raise ValueError(
            f"{len(evs)} eigenvalues but {len(projs)} projections"
        )
    if not np.isfinite(evs).all():
        raise ValueError("eigenvalues contain non-finite entries")
    d, same = projs[0].shape[0], len(stack)
    defects = np.abs(stack @ stack - stack).max(axis=(1, 2))
    traces = stack.trace(axis1=1, axis2=2).real
    bad = (defects > PARTITION_TOL) | (traces < 0.5)
    if np.count_nonzero(bad):
        k = bad.argmax()
        if defects[k] > PARTITION_TOL:
            raise ValueError(f"projection {k} is not idempotent (defect {defects[k]:.3e})")
        raise ValueError(f"projection {k} is empty (trace {traces[k]:.3e})")
    if same < len(projs):
        raise ValueError(
            f"projection {same} has shape {projs[same].shape}, expected {(d, d)}"
        )
    values = evs.tolist()
    gap = EIGENVALUE_GAP_TOL * max(1.0, max(map(abs, values)))
    if any(b - a <= gap for a, b in zip(values, values[1:])):
        raise ValueError("eigenvalues must be strictly ascending and separated")
    excess = stack.sum(axis=0) - np.eye(d)
    deltas = defects.tolist()
    bound = (math.sqrt(np.vdot(excess, excess).real) + 4 * d * sum(deltas)
             + 4 * d * d * max(deltas) ** 2)
    if bound > PARTITION_TOL / 2:
        _check_orthogonal(stack)
    defect = np.abs(excess).max()
    if defect > PARTITION_TOL:
        raise ValueError(
            f"projections do not sum to the identity (defect {defect:.3e})"
        )
    return defects


@dataclass
class DiscreteStatistic:
    """Observable T = sum_k lambda_k e_k with atoms in ascending eigenvalue order.

    The projectors must form a partition of the identity; construction
    symmetrizes them (_hermitian_stack), validates idempotence, mutual
    orthogonality and completeness (_partition_defects) and raises
    ValueError naming the defect otherwise.  Each atom must also be
    nonempty: a projection whose trace, an idempotent's rank, is below
    1/2 is refused, so no eigenvalue can name an atom that holds no
    vector.  statistic_from_spectrum alone builds one without running the
    checks here, on covariants it has just run them on.  The atoms are
    kept once, as the (m, d, d) array stack, and projections are views of
    its rows.  Treat instances as immutable once built.
    """

    eigenvalues: np.ndarray
    projections: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        evs = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        projs, stack = _hermitian_stack(self.projections)
        _partition_defects(evs, projs, stack)
        self.eigenvalues, self.projections, self.stack = evs, projs, stack

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.projections)

    def matrix(self) -> np.ndarray:
        return sum(lam * p for lam, p in zip(self.eigenvalues, self.projections))

    @property
    def spectrum(self) -> tuple[float, ...]:
        """The eigenvalues as floats, one per atom: what a certificate records."""
        return tuple(self.eigenvalues.tolist())


@dataclass
class StateFamily:
    """Labelled family of unit vectors, one per parameter value, kept once
    as the (n, d) array stack; vectors are views of its rows."""

    labels: tuple[str, ...]
    vectors: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

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
        self.labels, self.stack = labels, np.array(vecs)
        self.vectors = tuple(self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

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
    """Real-valued relabelling of eigenvalues, defining a function of a statistic.

    Each key and value is converted with float() and checked with
    math.isfinite on that float; nan, an infinity, or an integer too large
    for a float raises ValueError.
    """

    assignment: dict[float, float]

    def __post_init__(self):
        try:
            amap = {float(k): float(v) for k, v in self.assignment.items()}
        except OverflowError:
            raise ValueError("coarse map entries must be finite") from None
        for k, v in amap.items():
            if not (math.isfinite(k) and math.isfinite(v)):
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
    real diagonal, computed once, is the weight table w[theta, k] =
    ||e_k phi_theta||^2.  Row theta sums to ||phi_theta||^2, which
    StateFamily bounds, so nothing is checked again.
    """

    components: np.ndarray   # (n_atoms, n_states, dim)
    gram: np.ndarray         # (n_atoms, n_states, n_states)
    weights: np.ndarray = field(init=False)   # (n_states, n_atoms)

    def __post_init__(self):
        self.weights = np.diagonal(self.gram, axis1=1, axis2=2).T.real


def _groups(w: np.ndarray) -> list[list[int]]:
    """Indices of ascending eigenvalues w, chained while a step is at most
    GROUP_FACTOR times the spectral radius."""
    cutoff = GROUP_FACTOR * float(np.abs(w).max())
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][-1]] <= cutoff:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def statistic_from_matrix(m) -> DiscreteStatistic:
    """Decompose a Hermitian matrix and group near-degenerate eigenvalues.

    Eigenvalues closer than GROUP_FACTOR times the spectral radius (chain
    linkage) share an atom, the projector onto their eigenvectors, and
    its eigenvalue is their mean.  m is checked and symmetrized once.  The
    values come from e1's Krylov block (krylov_eigvals), and the atoms are
    their Frobenius covariants (statistic_from_spectrum), whose checks
    prove them all of the spectrum; where they fail, as where e1 misses an
    eigenspace, the atoms are the eigenpairs' (statistic_from_eigenpairs).
    """
    h = as_hermitian(m)
    w = krylov_eigvals(h)
    values = np.array([float(np.mean(w[g])) for g in _groups(w)])
    try:
        return statistic_from_spectrum(h, values)
    except ValueError:
        return statistic_from_eigenpairs(h)


def statistic_from_eigenpairs(m) -> DiscreteStatistic:
    """statistic_from_matrix from the eigenvectors: each atom is V_g V_g^H,
    V_g the eigenvectors of its group, from one full eigensolve."""
    w, v = hermitian_eig(m)
    groups = _groups(w)
    eigenvalues = [float(np.mean(w[g])) for g in groups]
    projections = [hermitian_part(v[:, g] @ v[:, g].conj().T) for g in groups]
    return DiscreteStatistic(np.array(eigenvalues), tuple(projections))


def statistic_from_values(m, values) -> DiscreteStatistic:
    """The statistic of a Hermitian m whose distinct eigenvalues, ascending
    and grouped by GROUP_FACTOR, are values; ValueError unless they are.

    The atoms are the values' Frobenius covariants where those pass their
    checks (statistic_from_spectrum).  Where they do not, m is decomposed
    into eigenpairs (statistic_from_eigenpairs), and its grouped
    eigenvalues must be the values: as many, each within the grouping
    cutoff GROUP_FACTOR * max|values|, or SpectrumError is raised.  A
    matrix that fails to decompose raises what statistic_from_eigenpairs
    raises.
    """
    try:
        return statistic_from_spectrum(m, values)
    except ValueError:
        statistic = statistic_from_eigenpairs(m)
    cutoff = GROUP_FACTOR * float(np.abs(values).max())
    if len(statistic) != len(values) or (np.abs(statistic.eigenvalues - values) > cutoff).any():
        raise SpectrumError(f"expected the matrix's {len(statistic)} eigenvalues, "
                            f"each within {cutoff:.3e}")
    return statistic


def statistic_from_spectrum(m, spectrum) -> DiscreteStatistic:
    """The statistic of a Hermitian m whose distinct eigenvalues are spectrum,
    its atoms the Frobenius covariants of those values.

    Atom k is the Frobenius covariant prod_{j != k} (m - l_j) / (l_k - l_j)
    (Higham, Functions of Matrices, 2008, section 1.2), built from prefix
    and suffix products of the factors taken from both ends of the
    spectrum in turn, about 2 * len(spectrum) matrix products and no
    eigensolve.  For any distinct values the covariants sum to the
    identity and reproduce m, so that proves nothing; but
    DiscreteStatistic's idempotence, emptiness and orthogonality checks
    (_partition_defects; every atom's trace, a projector's rank, at least
    1) force the values to be m's spectrum and the atoms its spectral
    projectors, to within the partition tolerance.  They run once, on the
    symmetrized covariants, which are exactly Hermitian and, with entries
    at most 2, finite, so DiscreteStatistic would take them bit for bit
    and its checks are not run again; the statistic keeps them as its
    stack.  So that no value stands for
    eigenvalues statistic_from_matrix would put in two atoms, each must
    also leave ||(m - l_k) e_k||_F at most half the grouping cutoff
    GROUP_FACTOR * max|l|: two eigenvalues of e_k further apart than the
    cutoff leave more.  (m - l_k) e_k is prod_j (m - l_j) / prod_{j != k}
    (l_k - l_j), so one product gives every residual.  Last, every atom's
    idempotence defect must be at most len(spectrum) * d * EPS, the
    rounding level of the chained d x d products that made them.  Raises
    ValueError when any of this fails, which also happens when rounding
    spoils the products (many atoms with values close against their
    spread: 12 or more equispaced ones, or two 1e-6 apart), and for a
    single value, whose one covariant is I whatever m is.
    """
    values = np.asarray(spectrum, dtype=float)
    if len(values) < 2:
        raise ValueError("one value has the covariant I whatever the matrix is")
    d = len(m)
    eye = np.eye(d, dtype=complex)
    with np.errstate(all="ignore"):   # what leaves the float range is refused below
        # the values shifted and scaled onto [-1, 1], so the products stay in range
        center, half = values[-1] / 2 + values[0] / 2, values[-1] / 2 - values[0] / 2
        nodes = (values - center) / half
        factors = (np.asarray(m, dtype=complex) - center * eye) / half \
            - nodes[:, np.newaxis, np.newaxis] * eye
        # lowest, highest, second lowest, ...: each partial product then
        # holds values from both ends of the spectrum and stays small on it
        order = np.column_stack((np.arange(len(values)), np.arange(len(values))[::-1]))
        order = order.ravel()[:len(values)]
        chain = factors[order]
        prefix, suffix = [chain[0]], [chain[-1]]
        for f, g in zip(chain[1:-1], chain[-2:0:-1]):
            prefix.append(prefix[-1] @ f)
            suffix.append(g @ suffix[-1])
        products = np.empty_like(factors)
        products[order] = [suffix[-1], *(p @ s for p, s in zip(prefix, suffix[-2::-1])),
                           prefix[-1]]
        gaps = nodes[:, np.newaxis] - nodes[np.newaxis, :]
        np.fill_diagonal(gaps, 1)
        scales = gaps.prod(axis=1)
        atoms = products / scales[:, np.newaxis, np.newaxis]
        atoms = (atoms + atoms.conj().transpose(0, 2, 1)) / 2
        whole = np.sqrt((np.abs(prefix[-1] @ chain[-1]) ** 2).sum())
    # a projector's entries are at most 1 in modulus; past 2, the checks'
    # own products could leave the float range
    if not np.abs(atoms).max() <= 2:
        raise ValueError("the covariants are not projectors")
    projections = tuple(atoms)
    defect = _partition_defects(values, projections, atoms).max()
    residuals = half * whole / np.abs(scales)
    cutoff = GROUP_FACTOR * float(np.abs(values).max())
    if (residuals > cutoff / 2).any():
        k = int(residuals.argmax())
        raise ValueError(f"the eigenvalues of atom {k} lie {residuals[k]:.3e} from value "
                         f"{float(values[k])!r}, past half the grouping cutoff {cutoff:.3e}")
    if defect > len(values) * d * EPS:
        raise ValueError(f"the covariants are idempotent only to {defect:.3e}, "
                         f"past the rounding level {len(values) * d * EPS:.3e}")
    statistic = object.__new__(DiscreteStatistic)   # checked above, bit for bit
    statistic.eigenvalues, statistic.projections, statistic.stack = values, projections, atoms
    return statistic


def coarse_blocks(t: DiscreteStatistic, cmap: CoarseMap) -> list[tuple[float, list[int]]]:
    """Atoms of t grouped by their value under a coarse map f.

    Returns (value, atom indices) pairs in ascending value order, indices
    ascending within each block.  The map must assign a value to every
    eigenvalue of t; value_for names the first that it misses.
    """
    blocks: dict[float, list[int]] = {}
    values = cmap.assignment
    for k, lam in enumerate(t.eigenvalues.tolist()):
        value = values[lam] if lam in values else cmap.value_for(t.eigenvalues[k])
        blocks.setdefault(value, []).append(k)
    return sorted(blocks.items())   # the values are distinct, so the lists are never compared


def apply_coarse(t: DiscreteStatistic, cmap: CoarseMap):
    """Build the statistic f(T) induced by a coarse map f.

    Returns (coarse statistic, partition): partition[i] lists the atom
    indices of t merged into atom i of the coarse statistic, in the same
    (ascending value) order as its atoms.  The map must assign a value to
    every eigenvalue of t.
    """
    ordered = coarse_blocks(t, cmap)
    eigenvalues = np.array([val for val, _ in ordered])
    rows = t.projections   # summed in order from the first row, bitwise as stack.sum(axis=0)
    projections = tuple(sum((rows[k] for k in idxs[1:]), rows[idxs[0]]) for _, idxs in ordered)
    coarse = DiscreteStatistic(eigenvalues, projections)
    return coarse, [idxs for _, idxs in ordered]


def project_states(t: DiscreteStatistic, family: StateFamily) -> AtomProjectionTable:
    """Tabulate e_k phi_theta and the per-atom Gram stack of those components."""
    if t.dim != family.dim:
        raise ValueError(
            f"statistic dimension {t.dim} does not match states of dimension {family.dim}"
        )
    comp = family.stack @ t.stack.transpose(0, 2, 1)
    return AtomProjectionTable(comp, comp @ comp.conj().transpose(0, 2, 1))
