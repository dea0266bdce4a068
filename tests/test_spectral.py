import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wsq import fileio, spectral
from wsq.linalg import hermitian_eig
from wsq.minimality import enumerate_coarse_grainings, statistic_from_partition
from wsq.spectral import (
    GROUP_FACTOR,
    CoarseMap,
    DiscreteStatistic,
    StateFamily,
    apply_coarse,
    project_states,
    statistic_from_matrix,
    statistic_from_spectrum,
    statistic_from_values,
)


def random_statistic(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return statistic_from_matrix(0.5 * (a + a.conj().T))


def random_family(rng, d, n):
    vecs = []
    for _ in range(n):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        vecs.append(v / np.linalg.norm(v))
    return StateFamily(tuple(f"s{i}" for i in range(n)), tuple(vecs))


# --------------------------------------------------- statistic_from_matrix


def test_diagonal_matrix_splits_into_basis_atoms():
    t = statistic_from_matrix(np.diag([1.0, -1.0]))
    assert np.array_equal(t.eigenvalues, [-1.0, 1.0])
    assert np.array_equal(t.projections[0], np.diag([0.0, 1.0 + 0j]))
    assert np.array_equal(t.projections[1], np.diag([1.0 + 0j, 0.0]))


def test_degenerate_eigenvalues_share_an_atom():
    t = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]))
    assert len(t) == 2
    assert np.trace(t.projections[0]).real == pytest.approx(2.0, abs=1e-12)


def test_grouping_uses_relative_gap():
    t = statistic_from_matrix(np.diag([0.0, 1e-12, 1.0]))
    assert len(t) == 2  # 0 and 1e-12 merge below the relative cutoff
    t2 = statistic_from_matrix(np.diag([0.0, 1e-6, 1.0]))
    assert len(t2) == 3


def test_reconstruction_from_atoms():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = 0.5 * (a + a.conj().T)
        t = statistic_from_matrix(m)
        assert np.abs(t.matrix() - m).max() <= 1e-8 * np.abs(m).max()


# --------------------------------------------------- statistic_from_spectrum


def dense_with_atoms(rng, d, m):
    """A random Hermitian d x d matrix with m atoms of random sizes and
    eigenvalues spaced by at least a tenth of their spread."""
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    cuts = np.sort(rng.choice(np.arange(1, d), m - 1, replace=False))
    values = np.cumsum(rng.uniform(0.1, 1.0, m)) * rng.uniform(0.5, 5.0) - rng.uniform(0.0, 3.0)
    matrix = sum(v * (b @ b.conj().T) for v, b in zip(values, np.split(basis, cuts, axis=1)))
    return 0.5 * (matrix + matrix.conj().T)


def test_covariants_are_the_decomposed_projectors():
    rng = np.random.default_rng(12)
    for d in (3, 8, 16, 24, 32):
        for m in range(3, min(d, 6) + 1):
            matrix = dense_with_atoms(rng, d, m)
            decomposed = statistic_from_matrix(matrix)
            assert len(decomposed) == m
            built = statistic_from_spectrum(matrix, decomposed.spectrum)
            assert built.spectrum == decomposed.spectrum
            for p, q in zip(built.projections, decomposed.projections):
                assert np.abs(p - q).max() <= 1e-12, (d, m)


def grouped_eigenpairs(matrix):
    """statistic_from_matrix's answer built from hermitian_eig's eigenvectors:
    (eigenvalues, projectors), grouped by the same chain rule."""
    w, v = hermitian_eig(matrix)
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][-1]] <= GROUP_FACTOR * np.abs(w).max():
            groups[-1].append(i)
        else:
            groups.append([i])
    return (np.array([np.mean(w[g]) for g in groups]),
            [v[:, g] @ v[:, g].conj().T for g in groups])


def planted(rng, values, sizes):
    """A random Hermitian matrix with eigenvalue values[k] on sizes[k] dimensions."""
    d = sum(sizes)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    blocks = np.split(basis, np.cumsum(sizes)[:-1], axis=1)
    matrix = sum(v * (b @ b.conj().T) for v, b in zip(values, blocks))
    return 0.5 * (matrix + matrix.conj().T)


def stress_spectra():
    """(name, matrix, bound on the projectors' distance from the eigenpair path)."""
    rng = np.random.default_rng(32)
    for m in range(4, 21):
        sizes = np.diff(np.linspace(0, 32, m + 1).round()).astype(int)
        yield f"equispaced_{m}", planted(rng, np.linspace(-1.0, 2.0, m), sizes), 1e-12
    for m in range(6, 13):
        yield f"random_{m}", dense_with_atoms(rng, 32, m), 1e-12
    # a relative gap g leaves two atoms' projectors determined only to about
    # eps / g by any backward-stable method, 2e-10 here, on either path
    yield "gap_1e-6", planted(rng, [1.0, 1.0 + 1e-6, 2.0, 3.0], [6, 6, 6, 6]), 1e-9
    yield "repeated", planted(rng, [-1.0, 0.5, 2.0], [3, 10, 3]), 1e-12
    yield "zero", np.zeros((8, 8), dtype=complex), 1e-12


def test_values_only_statistic_matches_the_eigenpair_path(monkeypatch):
    fallbacks = []
    eigenpairs = spectral.statistic_from_eigenpairs

    def counting(m, *args):
        fallbacks.append(name)
        return eigenpairs(m, *args)

    monkeypatch.setattr(spectral, "statistic_from_eigenpairs", counting)
    for name, matrix, bound in stress_spectra():
        t = statistic_from_matrix(matrix)
        values, projectors = grouped_eigenpairs(matrix)
        assert len(t) == len(values), name
        # the Krylov block's eigenvalues are the eigenpair path's to rounding
        assert np.abs(t.eigenvalues - values).max() <= 1e-14 * np.abs(values).max(), name
        for p, q in zip(t.projections, projectors):
            assert np.abs(p - q).max() <= bound, name
    # rounding leaves the covariants of 12 or more equispaced atoms, of two
    # of the random spectra and across the 1e-6 gap short of projectors, and
    # one value has no covariant but I: these take the eigenpair path
    assert fallbacks == [*(f"equispaced_{m}" for m in range(12, 21)),
                         "random_11", "random_12", "gap_1e-6", "zero"]


def test_covariants_refuse_values_that_are_not_the_spectrum():
    matrix = np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex)
    for values, message in [
        ([2.0], "one value"),                          # its covariant is I
        ([1.0, 3.0], "not idempotent"),                # 2 is dropped
        ([1.0, 2.0, 3.0 + 1e-6], "not idempotent"),    # shifted
        ([1.0, 2.0, 3.0, 10.0], "projection 3 is empty"),   # spurious
        ([0.0, 1e-300], "not projectors"),             # products out of range
    ]:
        with pytest.raises(ValueError, match=message):
            statistic_from_spectrum(matrix, values)
    assert statistic_from_spectrum(matrix, [1.0, 2.0, 3.0]).spectrum == (1.0, 2.0, 3.0)
    # 1 and 1 + 5e-9 are two atoms at the cutoff 1e-9 * (1 + 5e-9); one
    # value between them passes the partition checks, but not the cutoff
    split = np.diag([0.0, 1.0, 1.0 + 5e-9]).astype(complex)
    assert len(statistic_from_matrix(split)) == 3
    with pytest.raises(ValueError, match="past half the grouping cutoff"):
        statistic_from_spectrum(split, [0.0, 1.0 + 2.5e-9])
    # two eigenvalues the cutoff groups are one atom, and one value holds them;
    # its covariant is idempotent only to their spread, so the eigenpairs prove it
    grouped = np.diag([0.0, 1.0, 1.0 + 5e-10]).astype(complex)
    with pytest.raises(ValueError, match="past the rounding level"):
        statistic_from_spectrum(grouped, statistic_from_matrix(grouped).spectrum)
    assert statistic_from_values(grouped, statistic_from_matrix(grouped).spectrum)


def count_calls(monkeypatch, module, name) -> list:
    """The arguments of every call of module.name from now on."""
    calls, original = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_separated_covariants_are_checked_once_and_not_refined(monkeypatch):
    checks = count_calls(monkeypatch, spectral, "_partition_defects")
    solves = count_calls(monkeypatch, spectral, "statistic_from_eigenpairs")
    rng = np.random.default_rng(28)
    for d, values in [(4, [-1.0, 2.0]), (8, [0.5, 1.5, 4.0]),
                      (16, [-3.0, -1.0, 0.0, 2.5, 6.0]), (32, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])]:
        sizes = np.diff(np.linspace(0, d, len(values) + 1).round()).astype(int)
        matrix = planted(rng, values, sizes)
        del checks[:]
        built = statistic_from_spectrum(matrix, values)
        assert (len(checks), len(solves)) == (1, 0), d
        # the one pass is DiscreteStatistic's own, on the stack it would build
        rebuilt = DiscreteStatistic(built.eigenvalues, built.projections)
        assert len(checks) == 2
        assert built.eigenvalues.tobytes() == rebuilt.eigenvalues.tobytes()
        assert len(built.projections) == len(rebuilt.projections) == len(values)
        for p, q in zip(built.projections, rebuilt.projections):
            assert p.tobytes() == q.tobytes(), d
    # sixteen equispaced atoms leave the covariants a defect above rounding,
    # so the matrix is decomposed into eigenpairs, once
    matrix = next(m for name, m, _ in stress_spectra() if name == "equispaced_16")
    del checks[:]
    built = statistic_from_values(matrix, np.linspace(-1.0, 2.0, 16))
    assert len(built) == 16 and (len(checks), len(solves)) == (2, 1)


def test_partition_of_identity_invariants():
    rng = np.random.default_rng(6)
    t = random_statistic(rng, 6)
    total = sum(t.projections)
    assert np.abs(total - np.eye(6)).max() <= 1e-8
    for j, p in enumerate(t.projections):
        assert np.abs(p @ p - p).max() <= 1e-8
        for q in t.projections[j + 1 :]:
            assert np.abs(p @ q).max() <= 1e-8


# ------------------------------------------------------- DiscreteStatistic


def test_statistic_rejects_incomplete_partition():
    p = np.diag([1.0 + 0j, 0.0])
    with pytest.raises(ValueError, match="sum to the identity"):
        DiscreteStatistic(np.array([1.0]), (p,))


def test_statistic_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        DiscreteStatistic(np.array([1.0]), (0.5 * np.eye(2, dtype=complex),))


def test_statistic_rejects_overlapping_projections():
    p = np.diag([1.0 + 0j, 0.0])
    with pytest.raises(ValueError, match="not orthogonal"):
        DiscreteStatistic(np.array([0.0, 1.0]), (p, p))


def loop_partition_error(evs, projections, tol=1e-8):
    """The partition checks as a per-atom, per-pair loop: the first error."""
    from wsq.linalg import as_hermitian

    try:
        projs = [as_hermitian(p, tol=tol) for p in projections]
    except ValueError as exc:
        return str(exc)
    if len(evs) == 0:
        return "statistic needs at least one atom"
    if len(evs) != len(projs):
        return f"{len(evs)} eigenvalues but {len(projs)} projections"
    d = projs[0].shape[0]
    for k, p in enumerate(projs):
        if p.shape != (d, d):
            return f"projection {k} has shape {p.shape}, expected {(d, d)}"
        defect = np.abs(p @ p - p).max()
        if defect > tol:
            return f"projection {k} is not idempotent (defect {defect:.3e})"
        trace = np.trace(p).real
        if trace < 0.5:
            return f"projection {k} is empty (trace {trace:.3e})"
    if np.any(np.diff(evs) <= 1e-12 * max(1.0, float(np.abs(evs).max()))):
        return "eigenvalues must be strictly ascending and separated"
    for j in range(len(projs)):
        for k in range(j + 1, len(projs)):
            cross = np.abs(projs[j] @ projs[k]).max()
            if cross > tol:
                return f"projections {j} and {k} are not orthogonal (overlap {cross:.3e})"
    defect = np.abs(sum(projs) - np.eye(d)).max()
    if defect > tol:
        return f"projections do not sum to the identity (defect {defect:.3e})"
    return None


def ray(v):
    return np.outer(v, v.conj()) / np.vdot(v, v)


def test_partition_errors_match_the_pairwise_loop(monkeypatch):
    rng = np.random.default_rng(8)
    basis = random_statistic(rng, 5).projections     # five rank-one atoms
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    tilted = ray(x)
    u = [p[:, np.diag(p).real.argmax()] for p in basis]   # each atom's direction
    # pairs (0, 2) and (1, 3) fail, the later one with the larger overlap
    two_pairs = [basis[0], basis[1], ray(u[2] + 1e-3 * u[0]), ray(u[3] + 0.1 * u[1]), basis[4]]
    first = loop_partition_error(np.arange(1.0, 6.0), two_pairs)
    assert first.startswith("projections 0 and 2 are not orthogonal")
    assert np.abs(two_pairs[1] @ two_pairs[3]).max() > 10 * np.abs(two_pairs[0] @ two_pairs[2]).max()
    skew = np.triu(np.ones((5, 5)))
    zero = np.zeros((5, 5))
    cases = [
        [basis[0], basis[1], tilted, basis[3], tilted],     # pairs (0, 2) first
        [basis[0], basis[1], basis[2], basis[3], basis[1]],   # pair (1, 4) only
        [basis[0], basis[1], basis[2], basis[3], basis[3]],   # the last pair only
        [basis[0], 0.5 * basis[1], basis[2], tilted],          # idempotence before pairs
        [basis[0], 0.5 * basis[1], basis[2][:4, :4]],          # idempotence before shape
        [basis[0], basis[1][:4, :4], 0.5 * basis[2]],          # shape before idempotence
        [basis[0], basis[1], skew, np.full((5, 5), np.nan)],   # first bad matrix wins
        [basis[0], np.full((5, 5), np.nan), skew],
        [basis[0], basis[1], basis[2]],                        # incomplete
        [basis[0], basis[1], zero, basis[2], basis[3], basis[4]],   # empty, else a partition
        [basis[0], zero, 0.5 * basis[2], tilted],              # atom by atom: empty first
        [basis[0], 0.5 * basis[1], zero],                      # atom by atom: idempotence first
        [basis[0], np.ones((5, 4))],
        two_pairs,
    ]
    # with one entry per batch the pairs are checked len(projections) at a time
    for pair_entries in (spectral._PAIR_ENTRIES, 1):
        monkeypatch.setattr(spectral, "_PAIR_ENTRIES", pair_entries)
        for projections in cases:
            evs = np.arange(1.0, len(projections) + 1.0)
            expected = loop_partition_error(evs, projections)
            assert expected is not None
            with pytest.raises(ValueError) as exc:
                DiscreteStatistic(evs, tuple(projections))
            assert str(exc.value) == expected
    valid = DiscreteStatistic(np.arange(5.0), basis)
    assert all(np.array_equal(p, q) for p, q in zip(valid.projections, basis))


def test_the_orthogonality_check_holds_its_pair_products_in_bounded_memory():
    # MAX_DIM rank-one atoms: 2016 pairs of 64 x 64 products, which taken
    # at once would hold about 130 MB per array; in batches of 64 pairs the
    # whole check peaks near four stacks of the atoms, 16 MB
    import tracemalloc
    from wsq.linalg import MAX_DIM

    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(MAX_DIM, MAX_DIM)) + 1j * rng.normal(size=(MAX_DIM, MAX_DIM)))
    projections = tuple(np.outer(c, c.conj()) for c in q.T)
    tracemalloc.start()
    try:
        DiscreteStatistic(np.arange(float(MAX_DIM)), projections)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * MAX_DIM ** 3 * 16   # bytes: eight stacks of the atoms


def near_partition(rng):
    """Eigenvalues and Hermitian near-projections at d 2-16: a random
    partition of a random unitary basis, in 70% of cases with one atom's
    direction tilted towards another's by an angle log-uniform in
    [10^-9.5, 10^-6.5], across PARTITION_TOL, and every atom given
    Hermitian noise of amplitude log-uniform in [1e-16, 1e-6]."""
    d = int(rng.integers(2, 17))
    m = int(rng.integers(1, d + 1))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False))
    cols = np.split(q, cuts, axis=1)
    if m > 1 and rng.random() < 0.7:
        j, k = rng.choice(m, size=2, replace=False)
        angle = 10.0 ** rng.uniform(-9.5, -6.5)
        cols[j] = cols[j].copy()
        cols[j][:, 0] = np.cos(angle) * cols[j][:, 0] + np.sin(angle) * cols[k][:, 0]
    projections = []
    for c in cols:
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        noise = 10.0 ** rng.uniform(-16.0, -6.0) * (noise + noise.conj().T) / 2
        projections.append(c @ c.conj().T + noise)
    return np.arange(1.0, m + 1.0), projections


def test_the_completeness_bound_passes_only_what_the_pair_scan_passes(monkeypatch):
    scans = count_calls(monkeypatch, spectral, "_check_orthogonal")
    rng = np.random.default_rng(33)
    seen = set()
    for _ in range(1000):
        evs, projections = near_partition(rng)
        expected = loop_partition_error(evs, projections)
        del scans[:]
        try:
            built = DiscreteStatistic(evs, tuple(projections))
        except ValueError as exc:
            assert str(exc) == expected
            seen.add(str(exc).split(" (")[0].split()[-1])
            continue
        assert expected is None
        seen.add("scanned" if scans else "bound")
        spectral._check_orthogonal(built.stack)   # the scan passes it too
    assert {"bound", "scanned", "idempotent", "orthogonal", "identity"} <= seen


def test_statistics_of_the_benchmark_corpora_need_no_pair_scan(monkeypatch):
    # the module that makes the benchmark's seeded corpora
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("benchmark_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)   # its dataclasses look it up
    spec.loader.exec_module(corpus)
    scans = count_calls(monkeypatch, spectral, "_check_orthogonal")
    checks = count_calls(monkeypatch, spectral, "_partition_defects")
    for seed in range(3):
        for item in corpus.lattice_corpus(seed):
            t = DiscreteStatistic(item.eigenvalues, tuple(item.projections))
            for cmap in enumerate_coarse_grainings(t):
                apply_coarse(t, cmap)
        for item in corpus.certify_corpus(seed):
            fileio.read_instance(item.text).statistic
    assert len(checks) > 7000 and scans == []
    # MAX_DIM rank-one atoms: the scan would take 2016 pair products
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    DiscreteStatistic(np.arange(64.0), tuple(np.outer(c, c.conj()) for c in q.T))
    assert scans == []


def test_coarse_block_sums_are_the_sequential_sums_bit_for_bit():
    rng = np.random.default_rng(34)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    t = statistic_from_matrix(planted(rng, values, [1, 2, 1, 2, 1, 1]))
    assert len(t) == 6
    maps = list(enumerate_coarse_grainings(t))
    assert len(maps) == 203
    for cmap in maps:
        coarse, partition = apply_coarse(t, cmap)
        sums = tuple(sum(t.projections[k] for k in block) for block in partition)
        for built in coarse, statistic_from_partition(t, partition):
            reference = DiscreteStatistic(built.eigenvalues, sums)
            assert built.stack.tobytes() == reference.stack.tobytes()


def test_statistics_and_families_keep_one_stack():
    rng = np.random.default_rng(35)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        t = random_statistic(rng, d)
        fam = random_family(rng, d, int(rng.integers(1, 6)))
        for held, rows in (t.stack, t.projections), (fam.stack, fam.vectors):
            assert all(row.base is held for row in rows)
        # project_states on the stacks is the product of the re-stacked tuples
        comp = np.array(fam.vectors) @ np.array(t.projections).transpose(0, 2, 1)
        table = project_states(t, fam)
        assert table.components.tobytes() == comp.tobytes()
        assert table.gram.tobytes() == (comp @ comp.conj().transpose(0, 2, 1)).tobytes()


def test_a_projection_that_is_not_hermitian_is_named_as_the_loop_names_it():
    rng = np.random.default_rng(9)
    basis = random_statistic(rng, 4).projections       # four rank-one atoms
    bent = basis[2] + 5e-8 * np.triu(np.ones((4, 4)), 1)
    # projection 0's scale is 100; projection 2 is held to its own, 1
    projections = (100.0 * basis[0], basis[1], bent, np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="not hermitian: asymmetry 5.000e-08") as exc:
        DiscreteStatistic(np.arange(4.0), projections)
    assert str(exc.value) == loop_partition_error(np.arange(4.0), projections)


def test_statistic_rejects_coincident_eigenvalues():
    p1 = np.diag([1.0 + 0j, 0.0])
    p2 = np.diag([0.0, 1.0 + 0j])
    with pytest.raises(ValueError, match="ascending"):
        DiscreteStatistic(np.array([1.0, 1.0]), (p1, p2))


# ------------------------------------------------------------- StateFamily


def test_family_rejects_non_unit_state():
    with pytest.raises(ValueError, match="'phi1' not unit norm"):
        StateFamily(("phi1",), (np.array([1.0, 1.0]),))


def test_family_rejects_duplicate_labels():
    v = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="unique"):
        StateFamily(("a", "a"), (v, v))


def test_family_lookup_by_label():
    v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    fam = StateFamily(("x", "y"), (v1, v2))
    assert np.array_equal(fam.vector("y"), v2)
    with pytest.raises(ValueError, match="no state labelled"):
        fam.vector("z")


# ------------------------------------------------------------ apply_coarse


def test_apply_coarse_merges_and_orders_atoms():
    t = statistic_from_matrix(np.diag([1.0, 2.0, 3.0]))
    coarse, partition = apply_coarse(
        t, CoarseMap({1.0: 5.0, 2.0: 5.0, 3.0: 1.0})
    )
    assert np.array_equal(coarse.eigenvalues, [1.0, 5.0])
    assert partition == [[2], [0, 1]]
    assert np.abs(coarse.projections[1] - np.diag([1.0, 1.0, 0.0])).max() == 0.0


def test_apply_coarse_requires_total_map():
    from wsq.sufficiency import decide

    t = statistic_from_matrix(np.diag([1.0, 2.0]))
    family = StateFamily(("a",), (np.array([1.0, 0.0]),))
    message = f"coarse map has no value for eigenvalue {t.eigenvalues[1]!r}"
    for answer in (lambda m: apply_coarse(t, m), decide(t, family).coarse_sufficient):
        with pytest.raises(ValueError) as exc:
            answer(CoarseMap({1.0: 0.0}))
        assert str(exc.value) == message


def test_coarse_map_entries_are_finite_floats_checked_without_numpy(monkeypatch):
    for bad in (float("nan"), float("inf"), float("-inf"), 10**400, -10**400):
        with pytest.raises(ValueError, match="coarse map entries must be finite"):
            CoarseMap({bad: 1.0})
        with pytest.raises(ValueError, match="coarse map entries must be finite"):
            CoarseMap({1.0: bad})
    # a lattice builds Bell(n) maps, so each entry's check is scalar math
    t = statistic_from_matrix(np.diag(np.arange(1.0, 7.0)))
    calls, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or isfinite(*a, **k))
    maps = list(enumerate_coarse_grainings(t))
    assert len(maps) == 203 and calls == []


def test_coarse_composition_matches_composed_map():
    rng = np.random.default_rng(9)
    t = random_statistic(rng, 5)
    first = CoarseMap({lam: float(i // 2) for i, lam in enumerate(t.eigenvalues)})
    u, _ = apply_coarse(t, first)
    second = CoarseMap({lam: float(-lam) for lam in u.eigenvalues})
    left, _ = apply_coarse(u, second)
    composed = CoarseMap(
        {lam: second.value_for(first.value_for(lam)) for lam in t.eigenvalues}
    )
    right, _ = apply_coarse(t, composed)
    assert np.array_equal(left.eigenvalues, right.eigenvalues)
    for p, q in zip(left.projections, right.projections):
        assert np.abs(p - q).max() <= 1e-12


# ---------------------------------------------------------- project_states


def test_projection_weights_are_stochastic():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        t = random_statistic(rng, d)
        fam = random_family(rng, d, int(rng.integers(1, 5)))
        table = project_states(t, fam)
        assert np.abs(table.weights.sum(axis=1) - 1.0).max() <= 1e-9
        assert table.weights.min() >= -1e-12
        # components of each state add back up to the state
        for i, phi in enumerate(fam.vectors):
            assert np.abs(table.components[:, i].sum(axis=0) - phi).max() <= 1e-9


def test_project_states_rejects_dimension_mismatch():
    t = statistic_from_matrix(np.diag([1.0, 2.0]))
    fam = StateFamily(("a",), (np.array([1.0, 0.0, 0.0]),))
    with pytest.raises(ValueError, match="dimension"):
        project_states(t, fam)
