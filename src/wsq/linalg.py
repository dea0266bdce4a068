"""Dense complex linear algebra for desk-scale problems.

All spectral work in this package runs through :func:`hermitian_eig`, a
cyclic Jacobi iteration written out explicitly so that every eigenvalue
claim can be traced to a small, inspectable loop.  numpy's own
eigensolvers are not called here; the test suite uses them as an
independent cross-check of this module, and nothing else does.
"""

from __future__ import annotations

import math

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


def _max_offdiag(a: np.ndarray) -> float:
    b = np.abs(a)
    np.fill_diagonal(b, 0.0)
    return float(b.max())


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Apply one Jacobi rotation zeroing a[p, q] (and its mirror) in place."""
    g = a[p, q]
    rho = abs(g)
    phase = g / rho
    tau = (a[q, q].real - a[p, p].real) / (2.0 * rho)
    # smaller-magnitude root of t^2 - 2 tau t - 1 = 0
    if tau >= 0.0:
        t = -1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = 1.0 / (-tau + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    # a <- U* a U with U the identity except in the (p, q) plane, where
    # U = [[c, -s e^{i phi}], [s e^{-i phi}, c]] and phi = arg a[p, q].
    ap, aq = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * ap + s * np.conj(phase) * aq
    a[:, q] = -s * phase * ap + c * aq
    rp, rq = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * rp + s * phase * rq
    a[q, :] = -s * np.conj(phase) * rp + c * rq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    vp, vq = v[:, p].copy(), v[:, q].copy()
    v[:, p] = c * vp + s * np.conj(phase) * vq
    v[:, q] = -s * phase * vp + c * vq


def hermitian_eig(m, tol: float = EIG_TOL, max_sweeps: int = MAX_SWEEPS):
    """Eigendecomposition of a Hermitian matrix by row-cyclic Jacobi sweeps.

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
    a = as_hermitian(m)
    n = a.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the desk-scale limit {MAX_DIM}")
    v = np.eye(n, dtype=complex)
    scale = float(np.abs(a).max())
    if n == 1 or scale == 0.0:
        w = np.real(np.diag(a)).copy()
    else:
        target = tol * scale
        skip = target / (4.0 * n * n)
        for _ in range(max_sweeps):
            if _max_offdiag(a) <= target:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    if abs(a[p, q]) > skip:
                        _rotate(a, v, p, q)
        else:
            if _max_offdiag(a) > target:
                raise JacobiConvergenceError(
                    f"off-diagonal {_max_offdiag(a):.3e} above target "
                    f"{target:.3e} after {max_sweeps} sweeps"
                )
        w = np.real(np.diag(a)).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


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
    """Rank of a family of vectors, read from its Gram matrix by gram_rank."""
    if len(vectors) == 0:
        return 0
    return gram_rank(gram_matrix(vectors), tol)


def gram_rank(g, tol: float = RANK_TOL) -> int:
    """Eigenvalues of a Gram matrix above tol * max(1, largest) count as rank."""
    w, _ = hermitian_eig(g)
    threshold = tol * max(1.0, float(w[-1]))
    return int(np.sum(w > threshold))


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
