"""Tests for the hand-rolled linear algebra kernel.

numpy.linalg appears here as an independent oracle only; the package
itself never calls it for spectral work.
"""

import warnings

import numpy as np
import pytest

from wsq import linalg
from wsq.linalg import (
    EIG_TOL,
    MAX_DIM,
    MAX_SWEEPS,
    JacobiConvergenceError,
    RankDeficiencyError,
    as_hermitian,
    RANK_TOL,
    gram_matrix,
    gram_rank,
    gram_schmidt,
    hermitian_eig,
    inner,
    norm,
    numerical_rank,
    pair_rank_two,
    psd_project,
    round_robin_rounds,
)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def random_unit(rng, d, real=False):
    v = rng.normal(size=d) + (0.0 if real else 1j * rng.normal(size=d))
    return v / norm(v)


# ---------------------------------------------------------------- inner


def test_inner_is_conjugate_linear_in_second_slot():
    u = np.array([1.0, 2j])
    v = np.array([3j, 1.0])
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)))
    assert inner(u, 2j * v) == pytest.approx(-2j * inner(u, v))


def test_inner_overlap_of_basis_state_with_diagonal_state():
    phi1 = np.array([1.0, 0.0])
    phi2 = np.array([1.0, 1.0]) / np.sqrt(2)
    assert inner(phi1, phi2) == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_inner_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="mismatch"):
        inner(np.ones(2), np.ones(3))


# ---------------------------------------------------------- hermitian_eig


def test_eig_diagonal_matrix_is_exact():
    w, v = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-15


def test_eig_exchange_matrix():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert w == pytest.approx([-1.0, 1.0], abs=1e-12)
    # eigenvectors are (1, -+1)/sqrt(2) up to phase
    assert np.abs(v) == pytest.approx(np.full((2, 2), 1 / np.sqrt(2)), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_eig_reconstructs_random_hermitian(d):
    rng = np.random.default_rng(100 + d)
    m = random_hermitian(rng, d)
    w, v = hermitian_eig(m)
    scale = np.abs(m).max()
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-9 * scale
    assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-9
    assert np.all(np.diff(w) >= 0)
    # oracle: numpy's eigensolver agrees on the spectrum
    assert w == pytest.approx(np.linalg.eigvalsh(m), abs=1e-9 * scale)


def test_eig_zero_and_single():
    w, v = hermitian_eig(np.zeros((3, 3)))
    assert np.array_equal(w, np.zeros(3))
    w1, v1 = hermitian_eig(np.array([[2.5]]))
    assert w1[0] == 2.5 and v1[0, 0] == 1.0


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_oversized_matrix():
    with pytest.raises(ValueError, match="desk-scale"):
        hermitian_eig(np.eye(65))


def test_eig_reports_exhausted_sweep_budget():
    rng = np.random.default_rng(7)
    with pytest.raises(JacobiConvergenceError):
        hermitian_eig(random_hermitian(rng, 6), max_sweeps=0)


@pytest.mark.parametrize("n", range(2, 10))
def test_round_robin_rounds_cover_every_pair_once(n):
    rounds = round_robin_rounds(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    for pairs in rounds:
        touched = [i for pair in pairs for i in pair]
        assert len(touched) == len(set(touched))   # disjoint within a round
        assert all(0 <= p < q < n for p, q in pairs)
    visited = [pair for pairs in rounds for pair in pairs]
    assert sorted(visited) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def random_unitary(rng, d):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    return q


def test_eig_degenerate_projector_sum():
    # three atoms of multiplicity 1, 3 and 5 at d = 9, as in dense instance files
    rng = np.random.default_rng(9)
    q = random_unitary(rng, 9)
    blocks = [q[:, :1], q[:, 1:4], q[:, 4:]]
    m = sum(lam * (b @ b.conj().T) for lam, b in zip((-1.0, 0.5, 2.0), blocks))
    w, v = hermitian_eig(m)
    assert w == pytest.approx([-1.0] + [0.5] * 3 + [2.0] * 5, abs=1e-12)
    assert np.abs(v.conj().T @ v - np.eye(9)).max() <= 1e-12
    for cols, b in zip((slice(0, 1), slice(1, 4), slice(4, 9)), blocks):
        span = v[:, cols] @ v[:, cols].conj().T
        assert np.abs(span - b @ b.conj().T).max() <= 1e-11


def test_eig_identity_plus_rank_one():
    rng = np.random.default_rng(10)
    x = random_unit(rng, 6)
    m = np.eye(6) + 3.0 * np.outer(x, x.conj())
    w, v = hermitian_eig(m)
    assert w == pytest.approx([1.0] * 5 + [4.0], abs=1e-12)
    assert abs(abs(np.vdot(v[:, -1], x)) - 1.0) <= 1e-12
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-12


def test_eig_nearly_diagonal_matrix_raises_no_warning():
    # pivots of 2e-11 against diagonal gaps of order 1 give |tau| > 1e9
    m = np.diag([0.0, 1.0, 2.5, -3.0]).astype(complex)
    m[np.triu_indices(4, 1)] = 2e-11j
    m = m + np.triu(m, 1).conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = hermitian_eig(m)
    assert w == pytest.approx([-3.0, 0.0, 1.0, 2.5], abs=1e-12)
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-12 * 3.0


def test_eig_one_sweep_does_not_converge_at_d32():
    rng = np.random.default_rng(32)
    with pytest.raises(JacobiConvergenceError, match="after 1 sweeps"):
        hermitian_eig(random_hermitian(rng, 32), max_sweeps=1)


def test_eig_accepts_the_largest_dimension():
    rng = np.random.default_rng(64)
    m = random_hermitian(rng, MAX_DIM)
    w, v = hermitian_eig(m)
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-9 * np.abs(m).max()
    assert np.abs(v.conj().T @ v - np.eye(MAX_DIM)).max() <= 1e-9


def test_eig_is_bitwise_repeatable():
    rng = np.random.default_rng(17)
    for d in (2, 3, 9, 24):
        m = random_hermitian(rng, d)
        w1, v1 = hermitian_eig(m)
        w2, v2 = hermitian_eig(m)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


# ------------------------------------------------------ gram_rank, pairs


def test_kernel_solves_zero_single_and_diagonal_input_without_a_sweep():
    for m in (np.zeros((4, 4)), np.array([[2.5]]), np.array([[0.0]]),
              np.diag([3.0, -1.0, 0.0, 2.0])):
        a = as_hermitian(m)
        w, v = linalg._jacobi(a, EIG_TOL, 0, vectors=True)
        assert np.array_equal(w, np.diagonal(m)) and np.array_equal(v, np.eye(len(m)))
        w_only, v_none = linalg._jacobi(a, EIG_TOL, 0, vectors=False)
        assert v_none is None and np.array_equal(w_only, w)
    assert [gram_rank(m) for m in (np.zeros((4, 4)), [[2.5]], [[0.0]], [[-1.0]])] == [0, 1, 0, 0]
    assert gram_rank(np.diag([3.0, -1.0, 0.0, 2.0])) == 2   # -1 is no rank
    rng = np.random.default_rng(32)
    with pytest.raises(JacobiConvergenceError, match="after 0 sweeps"):
        linalg._jacobi(as_hermitian(random_hermitian(rng, 3)), EIG_TOL, 0, vectors=False)


def test_stacked_solve_mixes_easy_and_slow_matrices():
    # the matrices one stacked solve used to mix, each now solved alone
    rng = np.random.default_rng(31)
    slow = random_hermitian(rng, 4) * 1e6
    near = np.diag([1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-9]).astype(complex)
    near[0, 1] = near[1, 0] = 3e-10
    near[2, 3], near[3, 2] = 1e-9j, -1e-9j
    mixed = [np.zeros((4, 4)), np.diag([3.0, -1.0, 0.0, 2.0]), slow,
             np.zeros((4, 4)), near, random_hermitian(rng, 4)]
    solved = [hermitian_eig(m) for m in mixed]
    for m, (w, v) in zip(mixed, solved):
        scale = max(np.abs(m).max(), 1e-300)
        assert w == pytest.approx(np.linalg.eigvalsh(m), abs=1e-9 * scale)
        assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-9 * scale
    assert np.array_equal(solved[0][0], np.zeros(4)) and np.array_equal(solved[0][1], np.eye(4))
    assert np.array_equal(solved[1][0], [-1.0, 0.0, 2.0, 3.0])
    assert [gram_rank(m ** 2) for m in mixed[:2]] == [0, 3]
    for value, rank in [(2.5, 1), (0.0, 0), (-1.0, 0)]:
        w, v = hermitian_eig(np.array([[value]]))
        assert np.array_equal(w, [value]) and np.array_equal(v, np.ones((1, 1)))
        assert gram_rank(np.array([[value]])) == rank


def test_stacked_solve_raises_when_a_member_runs_out_of_sweeps():
    # one sweep settles a diagonal matrix but not a random one at d = 32
    rng = np.random.default_rng(32)
    w, _ = hermitian_eig(np.diag(np.arange(32.0)), max_sweeps=1)
    assert np.array_equal(w, np.arange(32.0))
    with pytest.raises(JacobiConvergenceError, match="after 1 sweeps"):
        hermitian_eig(random_hermitian(rng, 32), max_sweeps=1)
    # no sweep is needed for matrices already diagonal or zero
    w0, _ = hermitian_eig(np.zeros((3, 3)), max_sweeps=0)
    w1, _ = hermitian_eig(np.diag([2.0, 1.0, 0.0]), max_sweeps=0)
    assert np.array_equal(w0, [0.0, 0.0, 0.0]) and np.array_equal(w1, [0.0, 1.0, 2.0])


def test_gram_rank_validates_its_input():
    with pytest.raises(ValueError, match="not hermitian"):
        gram_rank(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        gram_rank(np.eye(3) * np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        gram_rank(np.diag([1.0, np.inf]))
    with pytest.raises(ValueError, match="square matrix"):
        gram_rank(np.ones((2, 3)))
    with pytest.raises(ValueError, match="desk-scale"):
        gram_rank(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    assert gram_rank(np.zeros((MAX_DIM, MAX_DIM))) == 0


def test_gram_rank_is_repeatable_and_silent():
    tiny = np.diag([0.0, 1.0, 2.5, -3.0]).astype(complex)
    tiny[np.triu_indices(4, 1)] = 2e-11j   # |tau| > 1e9
    tiny = tiny + np.triu(tiny, 1).conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = linalg._jacobi(as_hermitian(tiny), EIG_TOL, MAX_SWEEPS, vectors=False)
        second = linalg._jacobi(as_hermitian(tiny), EIG_TOL, MAX_SWEEPS, vectors=False)
        rank = gram_rank(tiny)
    assert np.array_equal(first[0], second[0])
    assert rank == 2


def random_gram_stack(rng, atoms, states, rank):
    """Gram matrices of `states` vectors spanning `rank` dimensions per atom."""
    stack = []
    for _ in range(atoms):
        c = rng.normal(size=(states, rank)) + 1j * rng.normal(size=(states, rank))
        c = c @ (rng.normal(size=(rank, 6)) + 1j * rng.normal(size=(rank, 6)))
        stack.append(c @ c.conj().T)
    return np.array(stack)


@pytest.mark.parametrize("atoms", [3, 5, 7])
@pytest.mark.parametrize("states", [2, 3, 4])
def test_gram_rank_and_pair_rule_on_planted_gram_stacks(atoms, states):
    rng = np.random.default_rng(10 * atoms + states)
    for rank in sorted({1, 2, states}):
        stack = random_gram_stack(rng, atoms, states, rank)
        for g in stack:
            w, _ = hermitian_eig(g)
            assert gram_rank(g) == np.count_nonzero(w > RANK_TOL * max(1.0, w[-1])) == rank
        assert pair_rank_two(stack).any(axis=(1, 2)).tolist() == [rank >= 2] * atoms


def planted_gram(rng, spectrum):
    """U diag(spectrum) U^H for a random unitary U."""
    n = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * np.asarray(spectrum, dtype=float)) @ q.conj().T


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_pair_rule_matches_the_rank_class(n):
    # rank >= 2 exactly when some 2x2 principal submatrix has rank 2, as long
    # as the second eigenvalue stays more than C(n, 2) <= 28 from the cutoff
    rng = np.random.default_rng(50 + n)
    cutoff = RANK_TOL * 5.0   # the cutoff of a matrix whose top eigenvalue is 5
    cases = [
        ([0.0] * n, 0),
        ([RANK_TOL / 100] + [0.0] * (n - 1), 0),
        ([100 * RANK_TOL] + [0.0] * (n - 1), 1),
        ([1.0] + [0.0] * (n - 1), 1),
        ([5.0, cutoff / 100] + [0.0] * (n - 2), 1),
        ([5.0, 100 * cutoff] + [0.0] * (n - 2), 2),
        ([5.0, 0.3] + [0.0] * (n - 2), 2),
        ([3.0, 1.0] + [0.0] * (n - 2), 2),
        (list(rng.uniform(0.5, 4.0, size=n)), n),
    ]
    for spectrum, rank in cases:
        for _ in range(5):
            g = planted_gram(rng, spectrum)
            assert gram_rank(g) == rank
            assert bool(pair_rank_two(g).any()) == (rank >= 2)
    stack = np.array([planted_gram(rng, s) for s, _ in cases])
    assert pair_rank_two(stack).any(axis=(1, 2)).tolist() == [r >= 2 for _, r in cases]


# ----------------------------------------------------------- gram_matrix


def test_gram_matrix_is_exactly_hermitian():
    rng = np.random.default_rng(3)
    vs = [random_unit(rng, 5) for _ in range(4)]
    g = gram_matrix(vs)
    assert np.array_equal(g, g.conj().T)
    assert np.diag(g).real == pytest.approx(np.ones(4), abs=1e-12)


def test_gram_matrix_rejects_empty_family():
    with pytest.raises(ValueError, match="empty"):
        gram_matrix([])


# -------------------------------------------------------- numerical_rank


@pytest.mark.parametrize("k", [1, 2, 3])
def test_numerical_rank_of_planted_span(k):
    rng = np.random.default_rng(40 + k)
    basis = [random_unit(rng, 6) for _ in range(k)]
    fam = list(basis)
    for _ in range(3):  # add dependent combinations
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        fam.append(sum(ci * b for ci, b in zip(c, basis)))
    assert numerical_rank(fam) == k
    # oracle: SVD-based rank on the stacked family agrees
    assert np.linalg.matrix_rank(np.array(fam)) == k


def test_numerical_rank_edge_cases():
    assert numerical_rank([]) == 0
    assert numerical_rank([np.zeros(3)]) == 0
    assert numerical_rank([np.zeros(3), np.array([0, 1.0, 0])]) == 1


# ---------------------------------------------------------- gram_schmidt


def test_gram_schmidt_two_overlapping_states():
    vs = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    ortho, coeffs = gram_schmidt(vs)
    assert ortho[0] == pytest.approx([1.0, 0.0], abs=1e-14)
    assert ortho[1] == pytest.approx([0.0, 1.0], abs=1e-14)
    # second orthonormal vector expressed in the originals: -v1 + sqrt(2) v2
    assert coeffs[1] == pytest.approx([-1.0, np.sqrt(2)], abs=1e-12)


def test_gram_schmidt_orthonormality_and_expression():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = rng.integers(3, 9)
        n = int(rng.integers(2, d + 1))
        vs = [random_unit(rng, d) for _ in range(n)]
        ortho, coeffs = gram_schmidt(vs)
        q = np.array(ortho)
        assert np.abs(q @ q.conj().T - np.eye(n)).max() <= 1e-9
        rebuilt = coeffs @ np.array(vs)
        assert np.abs(rebuilt - q).max() <= 1e-9


def test_gram_schmidt_real_family_gives_real_coefficients():
    rng = np.random.default_rng(12)
    vs = [random_unit(rng, 5, real=True) for _ in range(4)]
    _, coeffs = gram_schmidt(vs)
    assert np.abs(coeffs.imag).max() <= 1e-10


def test_gram_schmidt_names_the_dependent_vector():
    vs = [
        np.array([1.0, 0, 0]),
        np.array([0, 1.0, 0]),
        np.array([1.0, 1.0, 0]) / np.sqrt(2),
    ]
    with pytest.raises(RankDeficiencyError, match="vector 2") as exc:
        gram_schmidt(vs)
    assert exc.value.index == 2


# ----------------------------------------------------------- psd_project


def test_psd_project_fixes_psd_matrices():
    rng = np.random.default_rng(21)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = b.conj().T @ b
    assert np.abs(psd_project(m) - m).max() <= 1e-9 * np.abs(m).max()


def test_psd_project_clips_negative_eigenvalues():
    rng = np.random.default_rng(22)
    for _ in range(10):
        m = random_hermitian(rng, 5)
        p = psd_project(m)
        # oracle: clip the spectrum with numpy's eigensolver
        w, v = np.linalg.eigh(m)
        expected = (v * np.clip(w, 0, None)) @ v.conj().T
        assert np.abs(p - expected).max() <= 1e-9
        assert np.linalg.eigvalsh(p).min() >= -1e-12


# ---------------------------------------------------------- as_hermitian


def test_as_hermitian_symmetrizes_roundoff():
    m = np.array([[1.0, 1e-13 + 1j], [2e-13 - 1j, 2.0]])
    h = as_hermitian(m)
    assert np.array_equal(h, h.conj().T)


def test_as_hermitian_rejects_gross_asymmetry():
    with pytest.raises(ValueError, match="not hermitian"):
        as_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_as_hermitian_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
