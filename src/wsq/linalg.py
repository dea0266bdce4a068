"""Dense complex linear algebra for desk-scale problems.

All spectral work in this package runs through one Jacobi kernel,
written out explicitly so that every eigenvalue claim can be traced to a
small, inspectable loop.  The kernel solves a whole stack of Hermitian
matrices at once: a sweep visits the off-diagonal pairs in round-robin
order, and the disjoint rotations of each round, for every matrix of the
stack, form one block unitary per matrix, applied by batched matrix
products.  hermitian_eig is its one-matrix case and gram_ranks reads the
ranks of a Gram stack from one eigenvalues-only solve.  numpy's own
eigensolvers are not called here; the test suite uses them as an
independent cross-check of this module, and nothing else does.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

HERMITIAN_TOL = 1e-10   # relative asymmetry tolerated on ingest
RANK_TOL = 1e-8         # relative eigenvalue / residual cutoff
EIG_TOL = 1e-12         # relative off-diagonal target for Jacobi
MAX_SWEEPS = 100
MAX_DIM = 64            # hard guard: this is a desk-scale solver


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep budget runs out before convergence."""


class RankDeficiencyError(ValueError):
    """Raised by gram_schmidt when a vector depends on its predecessors."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"vector {index} is linearly dependent on its predecessors "
            f"(residual norm {residual:.3e})"
        )


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")


def inner(u, v) -> complex:
    """Inner product sum_i u_i * conj(v_i), conjugate-linear in v."""
    a = np.asarray(u, dtype=complex)
    b = np.asarray(v, dtype=complex)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("inner expects 1-d vectors")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.vdot(b, a))


def norm(v) -> float:
    a = np.asarray(v, dtype=complex)
    return math.sqrt(float(np.real(np.vdot(a, a))))


def hermitian_part(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    return 0.5 * (a + a.conj().T)


def as_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate that m is Hermitian within tol (relative) and symmetrize it."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a, "matrix")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.conj().T).max())
    if asym > tol * scale:
        raise ValueError(
            f"matrix is not hermitian: asymmetry {asym:.3e} exceeds "
            f"{tol:.1e} relative to scale {scale:.3e}"
        )
    return hermitian_part(a)


def hermitian_stack(stack, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """as_hermitian for each matrix of a (b, n, n) stack, in one pass.

    Each matrix is judged against its own scale.  When any fails, the
    first one that does raises the error as_hermitian raises for it.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    adjoint = a.conj().transpose(0, 2, 1)
    passed = bool(np.isfinite(a).all())
    if passed:
        scale = np.abs(a).max(axis=(1, 2), initial=1.0)
        asym = np.abs(a - adjoint).max(axis=(1, 2))
        passed = not np.count_nonzero(asym > tol * scale)
    if not passed:   # the first matrix that fails raises, as it would alone
        for m in a:
            as_hermitian(m, tol)
    return 0.5 * (a + adjoint)


def _max_offdiag(a: np.ndarray) -> np.ndarray:
    """Largest off-diagonal magnitude of each matrix of a (b, n, n) stack."""
    n = a.shape[-1]
    b = np.abs(a)
    b.reshape(-1, n * n)[:, :: n + 1] = 0.0
    return b.max(axis=(1, 2))


@lru_cache(maxsize=MAX_DIM)
def round_robin_rounds(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One Jacobi sweep for an n x n matrix as rounds of disjoint (p, q) pairs.

    The circle method of a round-robin tournament: index 0 stays put and
    the others rotate one seat per round, so each of the n(n-1)/2 pairs
    p < q meets exactly once.  An odd n gains a phantom index n whose
    partner sits out the round (a bye), giving n rounds instead of n-1.
    """
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = tuple(
            (min(x, y), max(x, y))
            for x, y in zip(seats[: m // 2], reversed(seats[m // 2:]))
            if max(x, y) < n
        )
        rounds.append(pairs)
        seats = [seats[0], seats[-1], *seats[1:-1]]
    # the last round generated holds (0, 1); starting there makes an n = 3
    # sweep visit its pairs in row-cyclic order
    return tuple(reversed(rounds))


@lru_cache(maxsize=MAX_DIM)
def _identity(n: int) -> np.ndarray:
    """Read-only complex identity of shape (1, n, n), repeated into a stack
    once per active set and copied per round rather than rebuilt."""
    eye = np.eye(n, dtype=complex)[np.newaxis]
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=MAX_DIM)
def _round_plans(n: int) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Flat index arrays for each round of round_robin_rounds(n).

    Per round: the pair count k; where to take [a_pq..., a_pp..., a_qq...];
    where to put the 2x2 blocks [u_pp..., u_pq..., u_qp..., u_qq...]; and
    where to zero the pivots [a_pq..., a_qp...].  Gathering each group
    with one call keeps the per-round cost flat for the 2x2 to 4x4
    matrices that make up most solves.
    """
    plans = []
    for pairs in round_robin_rounds(n):
        p, q = np.array(pairs, dtype=np.intp).T
        pp, pq, qp, qq = p * n + p, p * n + q, q * n + p, q * n + q
        index = (np.concatenate([pq, pp, qq]), np.concatenate([pp, pq, qp, qq]),
                 np.concatenate([pq, qp]))
        for arr in index:
            arr.flags.writeable = False
        plans.append((len(pairs), *index))
    return tuple(plans)


def _stack_plans(n: int, b: int):
    """_round_plans(n) as flat indices into a contiguous (b, n, n) stack.

    Each group of a round lists its entries for matrix 0, then matrix 1,
    and so on, so the per-round arrays stay one-dimensional whatever b
    is; for b = 1 they are _round_plans(n) itself.  Built once per change
    of the active set, not per sweep.
    """
    if b == 1:
        return _round_plans(n)
    base = np.arange(0, b * n * n, n * n, dtype=np.intp)[:, np.newaxis]

    def spread(index, groups):
        return (base + index.reshape(groups, 1, -1)).reshape(-1)

    return tuple((b * k, spread(take, 3), spread(put, 4), spread(zero, 2))
                 for k, take, put, zero in _round_plans(n))


def _sweep(a: np.ndarray, v: np.ndarray | None, skip: np.ndarray, plans,
           eye: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """One round-robin sweep of a (b, n, n) stack; each round is one unitary
    similarity per matrix.

    The pairs of a round are disjoint, so their rotations commute and
    assemble into one block unitary u, identity outside the (p, q)
    planes, where u = [[c, -s e^{i phi}], [s e^{-i phi}, c]] with
    phi = arg a[p, q].  A pivot at or below its matrix's skip threshold
    (skip holds one per pivot of a round) gets the identity block, and a
    matrix whose pivots all sit at or below it is left untouched, as a
    lone solve skipping the round would leave it.  eye is an identity
    stack of a's shape.  v, when not None, accumulates the eigenvectors.
    """
    for k, take, put, zero in plans:
        x = a.take(take)
        g = x[:k]
        rho = np.abs(g)
        live = rho > skip
        n_live = np.count_nonzero(live)
        if n_live == 0:
            continue
        if n_live < k:
            rho[~live] = 1.0
            if len(a) > 1:
                # a lone solve skips a round with no live pivot, so a matrix
                # with none here keeps its small pivots rather than zeroing them
                busy = live.reshape(len(a), -1).any(axis=1)
                if not busy.all():
                    zero = zero.reshape(2, len(a), -1)[:, busy].reshape(-1)
        diag = x.real
        tau = (diag[2 * k:] - diag[k:2 * k]) / (2.0 * rho)
        # smaller-magnitude root of t^2 - 2 tau t - 1 = 0, free of cancellation
        t = np.where(tau >= 0.0, -1.0, 1.0) / (np.abs(tau) + np.hypot(1.0, tau))
        if n_live < k:
            t[~live] = 0.0
        c = 1.0 / np.hypot(1.0, t)
        sp = (t * c) * (g / rho)
        u = eye.copy()
        u.put(put, np.concatenate((c, -sp, sp.conj(), c)))
        a = u.conj().transpose(0, 2, 1) @ a @ u
        a.put(zero, 0.0)
        if v is not None:
            v = v @ u
    return a, v


def _jacobi(a: np.ndarray, tol: float, max_sweeps: int, vectors: bool):
    """Round-robin Jacobi on a stack a (b, n, n) of Hermitian matrices.

    Each matrix keeps its own scale, off-diagonal target tol * scale and
    skip threshold, and leaves the active set at the first sweep boundary
    where it meets its target, so its arithmetic is exactly that of a
    lone solve.  Eigenvectors are accumulated only when vectors is true.
    Raises JacobiConvergenceError, naming the first matrix still above
    its target, when max_sweeps sweeps are not enough.

    Returns (w, v): w (b, n) holds each matrix's eigenvalues in the order
    of its diagonal, not sorted; v (b, n, n) the matching eigenvectors as
    columns, or None.
    """
    b, n = a.shape[0], a.shape[-1]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the desk-scale limit {MAX_DIM}")
    target = tol * np.abs(a).max(axis=(1, 2))
    skip = target / (4.0 * n * n)
    w = np.empty((b, n))
    vs = np.empty_like(a) if vectors else None
    v = _identity(n).repeat(b, axis=0) if vectors else None
    active = np.arange(b)
    plans = None
    for sweep in range(max_sweeps + 1):
        off = _max_offdiag(a)
        done = off <= target
        n_done = np.count_nonzero(done)
        if n_done == len(done):
            break
        if n_done:
            keep = ~done
            w[active[done]] = np.diagonal(a[done], axis1=1, axis2=2).real
            if vectors:
                vs[active[done]] = v[done]
                v = v[keep]
            active, a, off, target, skip = (
                active[keep], a[keep], off[keep], target[keep], skip[keep])
            plans = None
        if sweep == max_sweeps:
            raise JacobiConvergenceError(
                f"off-diagonal {off[0]:.3e} above target {target[0]:.3e} "
                f"after {max_sweeps} sweeps"
            )
        if plans is None:
            plans = _stack_plans(n, len(a))
            eye = _identity(n).repeat(len(a), axis=0)
            pivot_skip = skip.repeat(n // 2)
        a, v = _sweep(a, v, pivot_skip, plans, eye)
    if len(a) == b:   # no matrix left early: a and v are in stack order
        return np.diagonal(a, axis1=1, axis2=2).real, v
    w[active] = np.diagonal(a, axis1=1, axis2=2).real
    if vectors:
        vs[active] = v
    return w, vs


def hermitian_eig(m, tol: float = EIG_TOL, max_sweeps: int = MAX_SWEEPS):
    """Eigendecomposition of a Hermitian matrix by round-robin Jacobi sweeps.

    The one-matrix case of the stacked kernel: each sweep visits every
    off-diagonal pair once, in the rounds of round_robin_rounds, and the
    n/2 disjoint rotations of a round are applied together as one block
    unitary through matrix products (Brent & Luk, 1985).

    Parameters
    ----------
    m : array_like, square, Hermitian within HERMITIAN_TOL, dim <= MAX_DIM
    tol : off-diagonal target, relative to the largest entry magnitude
    max_sweeps : sweep budget; exhaustion raises JacobiConvergenceError
        rather than returning a silently unconverged answer

    Returns
    -------
    (w, v) : eigenvalues ascending (real ndarray), eigenvectors as the
        columns of a unitary ndarray, so that m = v @ diag(w) @ v.conj().T
    """
    w, v = _jacobi(as_hermitian(m)[np.newaxis], tol, max_sweeps, vectors=True)
    order = np.argsort(w[0], kind="stable")
    return w[0, order], v[0][:, order]


def gram_ranks(stack, tol: float = RANK_TOL) -> np.ndarray:
    """Numerical rank of each Gram matrix of a (b, n, n) stack.

    One eigenvalues-only solve of the whole stack; eigenvalues above
    tol * max(1, largest eigenvalue of that matrix) count toward its rank.
    """
    w, _ = _jacobi(hermitian_stack(stack), EIG_TOL, MAX_SWEEPS, vectors=False)
    threshold = tol * np.maximum(1.0, w.max(axis=1, keepdims=True))
    return np.count_nonzero(w > threshold, axis=1)


def gram_matrix(vectors) -> np.ndarray:
    """Pairwise inner products of a family; exactly Hermitian by construction."""
    if len(vectors) == 0:
        raise ValueError("empty family has no Gram matrix")
    vs = np.asarray(vectors, dtype=complex)
    if vs.ndim != 2:
        raise ValueError("vectors must share a common dimension")
    _require_finite(vs, "vectors")
    g = vs @ vs.conj().T
    return 0.5 * (g + g.conj().T)


def numerical_rank(vectors, tol: float = RANK_TOL) -> int:
    """Rank of a family of vectors, read from its Gram matrix by gram_ranks."""
    if len(vectors) == 0:
        return 0
    return int(gram_ranks(gram_matrix(vectors)[np.newaxis], tol)[0])


def gram_schmidt(vectors, tol: float = RANK_TOL):
    """Orthonormalize a linearly independent family, tracking expressions.

    Returns (ortho, coeffs): ortho is the list of orthonormal vectors and
    coeffs a lower-triangular complex array with
    ortho[k] = sum_j coeffs[k, j] * vectors[j].  When the Gram matrix of
    the input is entrywise real, the coefficients are real as well (they
    are rational expressions in Gram entries); tests rely on this.

    Raises RankDeficiencyError naming the first dependent vector.
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


def psd_project(m) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius distance."""
    h = hermitian_part(np.asarray(m, dtype=complex))
    w, v = hermitian_eig(h)
    w = np.clip(w, 0.0, None)
    return hermitian_part((v * w) @ v.conj().T)
