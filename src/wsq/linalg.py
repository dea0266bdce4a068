"""Dense complex linear algebra for desk-scale problems.

All spectral work in this package runs through one eigen kernel,
written out explicitly so that every eigenvalue claim can be traced to
small, inspectable loops.  The kernel solves one Hermitian matrix: it
scales the matrix by a power of two, reduces it by Householder
reflectors to a real symmetric tridiagonal matrix, and diagonalizes that
by implicit-shift QL sweeps (Wilkinson & Reinsch, tred2/tql2).  It has
two callers.  hermitian_eig builds the eigenvectors too.  krylov_eigvals
builds none and stops the reduction where the Krylov space of e1 closes
(Parlett, The Symmetric Eigenvalue Problem, ch. 13): m distinct
eigenvalues, if e1 meets each eigenspace, take m - 1 reflectors and an
m x m QL, and a dense statistic needs no more.
No verdict reads a numerical rank: whether a Gram matrix has rank at
most one needs no eigensolve, and pair_rank_two reads it, for a whole
stack at once, from the closed-form spectra of the 2x2 principal
submatrices.  numpy's own eigensolvers are not called here; the test
suite uses them as an independent cross-check of this module, and
nothing else does.
"""

from __future__ import annotations

import functools
import math

import numpy as np

HERMITIAN_TOL = 1e-10   # relative asymmetry tolerated on ingest
RANK_TOL = 1e-14        # the one Gram tolerance of check, construct and minimal
QL_SWEEPS = 30          # implicit QL sweeps allowed per eigenvalue
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)   # the smallest normal float
MAX_DIM = 64            # hard guard: this is a desk-scale solver
MAX_STATES = 128        # states per instance: a Gram stack holds atoms x states^2 entries


class EigenConvergenceError(RuntimeError):
    """Raised when an eigenvalue is not split off within QL_SWEEPS sweeps."""


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


def _tridiagonalize(a: np.ndarray, vectors: bool = True):
    """Householder reduction of a Hermitian a (n, n), which is overwritten.

    Step k reflects the column below a[k, k] onto a multiple of its first
    entry with H = I - tau v v^H, and applies H a H to the trailing block
    as one rank-2 update.  A diagonal phase similarity then makes the
    Hermitian tridiagonal matrix real.  Returns (d, e, q): the diagonal d
    and the nonnegative subdiagonal e of a real symmetric tridiagonal S,
    and, when vectors is set, a unitary q with a = q S q^H (else None).
    Without vectors, S is only the leading (k + 1) x (k + 1) block, e1's
    Krylov space, for the first column k at most n^2 EPS below the
    diagonal, the reduction's backward error n EPS ||a||_F at max|a| <= 1.
    """
    n = a.shape[0]
    reflectors = []
    for k in range(n - 1):
        x = a[k + 1:, k]
        tail = np.vdot(x[1:], x[1:]).real
        r0 = abs(x[0])
        if not vectors and r0 * r0 + tail <= (n * n * EPS) ** 2:
            return np.diagonal(a).real[:k + 1], np.abs(np.diagonal(a, -1)[:k]), None
        if tail == 0.0:
            continue
        norm_x = math.sqrt(r0 * r0 + tail)
        phase = x[0] / r0 if r0 else 1.0
        v = x.copy()
        v[0] = phase * (r0 + norm_x)
        tau = 1.0 / (norm_x * (norm_x + r0))   # 2 / (v^H v)
        p = tau * (a[k + 1:, k + 1:] @ v)
        w = p - (0.5 * tau * np.vdot(v, p).real) * v
        a[k + 1:, k + 1:] -= v[:, None] * w.conj() + w[:, None] * v.conj()
        a[k + 1, k] = -phase * norm_x
        reflectors.append((k, v, tau))
    d, sub = np.diagonal(a).real, np.diagonal(a, -1)
    e = np.abs(sub)
    if not vectors:
        return d, e, None
    q = np.eye(n, dtype=complex)
    for k, v, tau in reversed(reflectors):
        block = q[k + 1:, k + 1:]
        block -= tau * np.outer(v, v.conj() @ block)
    # phases[k + 1] / phases[k] = sub[k] / |sub[k]| turns sub into e
    unit = np.divide(sub, e, out=np.ones_like(sub), where=e > 0.0)
    phases = np.concatenate(([1.0], np.cumprod(unit)))
    return d, e, q * phases


def _tql(d: list, e: list, z: np.ndarray | None) -> None:
    """Implicit-shift QL on a real symmetric tridiagonal matrix, in place.

    d holds the diagonal and e[i] the entry coupling i and i + 1, with
    e[n - 1] = 0; on return d holds the eigenvalues, unsorted.  Each
    sweep chases a Wilkinson-shifted bulge up the unreduced block
    starting at l with Givens rotations (tql2 of Wilkinson & Reinsch).
    When z is given they are applied to its rows, so that row j of z
    ends up as the eigenvector of d[j]; that update never feeds back
    into d or e.  Raises EigenConvergenceError
    when an eigenvalue needs more than QL_SWEEPS sweeps.
    """
    n = len(d)
    for l in range(n):
        for sweep in range(QL_SWEEPS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if sweep == QL_SWEEPS:
                raise EigenConvergenceError(
                    f"eigenvalue {l} not split off after {QL_SWEEPS} QL sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:   # the block splits at i + 1: sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    z[i:i + 2] = np.array(((c, -s), (s, c))) @ z[i:i + 2]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def _eigen(a: np.ndarray, vectors: bool = True):
    """(w, v): the eigenvalues of one Hermitian matrix a (n, n), not sorted,
    and, when vectors is set, the matching eigenvectors as columns, else
    None and only the eigenvalues of e1's Krylov block; a is left untouched.

    a is divided by the power of two just above max|a|, an exact scaling
    that lets the kernel work at any finite scale, reduced to a real
    tridiagonal matrix (_tridiagonalize) and solved by implicit-shift QL
    (_tql).  The eigenvectors are built once, as q @ z.T.
    """
    n = a.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the desk-scale limit {MAX_DIM}")
    top = float(np.abs(a).max())
    if top == 0.0:
        return np.zeros(n), np.eye(n, dtype=complex) if vectors else None
    _, exponent = math.frexp(top)
    d, e, q = _tridiagonalize(np.ldexp(a.view(float), -exponent).view(complex), vectors)
    d, e = d.tolist(), [*e.tolist(), 0.0]
    z = np.eye(n) if vectors else None
    _tql(d, e, z)
    return np.ldexp(np.array(d), exponent), q @ z.T if vectors else None


def hermitian_eig(m):
    """Eigendecomposition (w, v) of a Hermitian matrix m (square, Hermitian
    within HERMITIAN_TOL, dim <= MAX_DIM) by Householder reduction and
    implicit-shift QL (Wilkinson & Reinsch, Handbook for Automatic
    Computation II, tred2/tql2): w the eigenvalues ascending, v a unitary
    whose columns are the eigenvectors, m = v @ diag(w) @ v.conj().T.  A
    diagonal matrix needs no sweep.  Raises EigenConvergenceError, rather
    than return an unconverged answer, when an eigenvalue needs more than
    QL_SWEEPS sweeps.
    """
    w, v = _eigen(as_hermitian(m))
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def krylov_eigvals(h) -> np.ndarray:
    """The eigenvalues, ascending, of a Hermitian h (as as_hermitian returns
    it) whose eigenspaces e1 meets: those of e1's Krylov block, m of them
    from m - 1 reflectors and an m x m QL; where the reduction does not
    stop early, all n, bitwise hermitian_eig's."""
    w, _ = _eigen(h, vectors=False)
    return np.sort(w, kind="stable")


@functools.lru_cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries right of the diagonal of an
    n x n matrix, row by row; shared, so read-only."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.lru_cache
def _upper_flat(n: int) -> np.ndarray:
    """_upper_triangle(n) as indices into a flattened n x n matrix; read-only."""
    rows, cols = _upper_triangle(n)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def pair_rank_two(h, tol: float = RANK_TOL) -> np.ndarray:
    """Which 2x2 principal submatrices of a Gram stack (..., n, n) have rank 2.

    One flag per pair of states j < m, in the order of _upper_triangle(n),
    for [[a, c], [conj(c), b]] with a = h[j, j], b = h[m, m], c = h[j, m].
    Its eigenvalues are hi = (a+b)/2 + sqrt(((a-b)/2)^2 + |c|^2) and lo =
    max(ab - |c|^2, 0) / hi, and it has rank 2 when lo > tol.
    On a Gram stack hi = 0 only where both rows are zero, and ab - |c|^2
    <= hi^2 is 0, in floats too, wherever hi is below the smallest normal
    float TINY; so lo = max(ab - |c|^2, 0) / max(hi, TINY) is 0 there.
    A positive semidefinite matrix has rank <= 1 exactly when none of its
    pairs has rank 2: by Cauchy interlacing its second eigenvalue is at
    least the largest lo, and it is at most the sum of the lo over all
    C(n, 2) pairs.  The rule is monotone: lo, the smallest eigenvalue of
    the 2x2 submatrix, only grows when a positive semidefinite term is
    added (Weyl), so a pair of rank 2 in gram[a] + gram[b] keeps rank 2 in
    every block sum that holds atoms a and b.
    """
    h = np.asarray(h)
    n = h.shape[-1]
    rows, cols = _upper_triangle(n)
    a = np.diagonal(h, axis1=-2, axis2=-1).real
    # take on the flattened matrices costs less than fancy indexing at 2-4 states
    ai, aj = a.take(rows, axis=-1), a.take(cols, axis=-1)
    cc = np.abs(h.reshape(*h.shape[:-2], n * n).take(_upper_flat(n), axis=-1)) ** 2
    hi = (ai + aj) / 2 + np.sqrt(((ai - aj) / 2) ** 2 + cc)
    det = np.maximum(ai * aj - cc, 0.0)
    return det / np.maximum(hi, TINY) > tol


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
