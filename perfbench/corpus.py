"""Seeded, numpy-only corpora for the three benchmark workloads.

Nothing here imports wsq: the library receives only the vectors,
projections and instance text made below, so edits to ``wsq.harness``
cannot move the workloads.  Every item carries its planted truth, which
the benchmark checks each verdict against.

Each generator takes two random streams.  ``shape`` is the same for
every seed and fixes the structure: dimensions, block sizes, atom and
state counts, planted classes, the mix of kinds.  ``rng`` comes from the
seed and draws the numbers: bases, directions, coefficients.  The cost
of the library's iterative solvers depends on the structure (a Jacobi
solve on a spectrum with large multiplicities, the Dykstra loop on the
weights), so runs on different seeds do the same work on different
numbers, and their spread measures the machine rather than the draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Planted cases must sit far from every tolerance the library applies,
# so that the planted truth is the only correct verdict.
MIN_SEPARATION = 0.05   # |sin| of the angle between coefficient columns of distinct classes
MIN_DEFECT = 0.1        # radians of phase defect a refusal is planted with, away from 0 mod pi
MIN_OVERLAP = 0.05      # largest pairwise overlap of a family petz must refuse at once


def _streams(seed: int, workload: int):
    """(shape, rng): the fixed structure stream and the seeded value stream."""
    return np.random.default_rng([0, workload]), np.random.default_rng([seed, workload])


def _basis(rng, d: int) -> np.ndarray:
    """Rows of a Haar-random unitary."""
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(raw)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


def _composition(rng, total: int, parts: int, least: int = 1) -> list[int]:
    sizes = [least] * parts
    for _ in range(total - least * parts):
        sizes[int(rng.integers(parts))] += 1
    return sizes


def _blocks(basis: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    out, start = [], 0
    for size in sizes:
        out.append(basis[start:start + size])
        start += size
    return out


def _projector(rows: np.ndarray) -> np.ndarray:
    p = rows.T @ rows.conj()
    return 0.5 * (p + p.conj().T)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1)[:, np.newaxis]


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"phi{i + 1}" for i in range(n))


def _pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def instance_text(labels, vectors, *, matrix=None, eigenvalues=None,
                  projections=None) -> str:
    """Instance JSON in the documented file format, floats written exactly."""
    root: dict = {
        "dimension": int(vectors.shape[1]),
        "states": {lab: [_pair(z) for z in vec] for lab, vec in zip(labels, vectors)},
    }
    if matrix is not None:
        root["statistic"] = {"matrix": [[_pair(z) for z in row] for row in matrix]}
    elif eigenvalues is not None:
        root["statistic"] = {
            "eigenvalues": [float(x) for x in eigenvalues],
            "projections": [[[_pair(z) for z in row] for row in p] for p in projections],
        }
    return json.dumps(root)


def _triple_defect(vectors: np.ndarray) -> float:
    """Distance from 0 mod pi of arg(G12 G23 G31) for the first three states."""
    g = vectors @ vectors.conj().T
    angle = float(np.angle(g[0, 1] * g[1, 2] * g[2, 0])) % np.pi
    return min(angle, np.pi - angle)


def _max_overlap(vectors: np.ndarray) -> float:
    g = np.abs(vectors @ vectors.conj().T)
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def _class_columns(rng, n_states: int, n_classes: int) -> np.ndarray:
    """Real coefficient columns, pairwise far from proportional."""
    while True:
        cols = rng.uniform(0.4, 1.2, size=(n_states, n_classes))
        cols *= rng.choice([-1.0, 1.0], size=(n_states, n_classes))
        unit = cols / np.linalg.norm(cols, axis=0)
        cos = np.abs(unit.T @ unit)
        np.fill_diagonal(cos, 0.0)
        if np.sqrt(max(0.0, 1.0 - float(cos.max()) ** 2)) >= MIN_SEPARATION:
            return cols


def _planted_classes(shape, rng, d: int, n_atoms: int, n_states: int, dead: bool):
    """Weakly sufficient (T, F) whose atoms fall into planted classes.

    Each atom carries one unit direction and every state is a real
    combination of the directions; atoms whose coefficient columns are
    proportional form a class.  Returns (sizes, basis, vectors, classes,
    dead_atom) with classes as sorted tuples of live atom indices.
    """
    basis = _basis(rng, d)
    sizes = _composition(shape, d, n_atoms)
    directions = []
    for rows in _blocks(basis, sizes):
        vec = (rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))) @ rows
        directions.append(vec / np.linalg.norm(vec))
    n_classes = max(2, n_atoms // 2)
    assignment = shape.permutation([k % n_classes for k in range(n_atoms)])
    cols = _class_columns(rng, n_states, n_classes)
    coeff = np.zeros((n_states, n_atoms))
    for k in range(n_atoms):
        coeff[:, k] = cols[:, assignment[k]] * rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
    dead_atom = None
    if dead:
        # the dead atom must not empty its class, or the classes change
        counts = np.bincount(assignment, minlength=n_classes)
        candidates = [k for k in range(n_atoms) if counts[assignment[k]] > 1]
        dead_atom = int(shape.choice(candidates))
        coeff[:, dead_atom] = 0.0
    vectors = _unit_rows(coeff @ np.array(directions))
    classes = sorted(
        tuple(k for k in range(n_atoms) if assignment[k] == c and k != dead_atom)
        for c in range(n_classes)
    )
    return sizes, basis, vectors, classes, dead_atom


# ---------------------------------------------------------------------------
# lattice: planted class structure, every coarse-graining checked


@dataclass
class LatticeItem:
    eigenvalues: np.ndarray        # 1..n_atoms, ascending
    projections: list[np.ndarray]
    labels: tuple[str, ...]
    vectors: np.ndarray
    classes: list[tuple[int, ...]]  # planted classes of live atoms
    dead_atom: int | None


# (atoms, states, dead) per instance: Bell(atoms) coarse maps each
LATTICE_SCHEDULE = (
    (3, 2, False), (4, 3, False), (5, 4, False), (6, 2, False), (7, 3, False),
    (3, 4, False), (4, 2, False), (5, 3, False), (6, 4, False), (7, 2, False),
    (4, 3, True), (5, 2, True),
)


def lattice_corpus(seed: int) -> list[LatticeItem]:
    shape, rng = _streams(seed, 1)
    items = []
    for n_atoms, n_states, dead in LATTICE_SCHEDULE:
        d = int(shape.integers(n_atoms, 10))
        sizes, basis, vectors, classes, dead_atom = _planted_classes(
            shape, rng, d, n_atoms, n_states, dead)
        items.append(LatticeItem(
            eigenvalues=np.arange(1.0, n_atoms + 1.0),
            projections=[_projector(rows) for rows in _blocks(basis, sizes)],
            labels=_labels(n_states),
            vectors=vectors,
            classes=classes,
            dead_atom=dead_atom,
        ))
    return items


# ---------------------------------------------------------------------------
# petz: feasible at once, refused at once by overlap, decided by the solver


@dataclass
class PetzItem:
    kind: str                      # "planted", "overlap" or "shared_atom"
    unital: bool
    eigenvalues: np.ndarray
    projections: list[np.ndarray]
    labels: tuple[str, ...]
    vectors: np.ndarray
    feasible: bool
    text: str


def _petz_planted(shape, rng, d: int, m: int):
    """Each state lives inside its own atom; one spare atom when room allows."""
    n_blocks = m + (1 if d > m else 0)
    sizes = _composition(shape, d, n_blocks)
    blocks = _blocks(_basis(rng, d), sizes)
    vectors = []
    for rows in blocks[:m]:
        vectors.append((rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))) @ rows)
    return blocks, _unit_rows(np.array(vectors))


def _petz_overlap(shape, rng, d: int, m: int):
    """Random complex states over a random blocked statistic."""
    sizes = _composition(shape, d, int(shape.integers(2, min(d, 4) + 1)))
    blocks = _blocks(_basis(rng, d), sizes)
    while True:
        vectors = _unit_rows(rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d)))
        if _max_overlap(vectors) >= MIN_OVERLAP:
            return blocks, vectors


def _petz_shared_atom(shape, rng, d: int, m: int, shared_weight: float):
    """Orthogonal states that all load one shared atom.

    The shared atom holds one basis direction per state, so the states
    stay orthogonal; each state puts the rest of its weight in a private
    atom.  No pair overlaps, so only the solver can decide: unital, no
    channel exists and the iteration runs until it plateaus; non-unital,
    the shared block can be zero and the solver converges to it.

    The solver is unitarily equivariant, so with the weight and the
    block sizes fixed by the schedule its iteration count does not
    depend on the seed.
    """
    basis = _basis(rng, d)
    shared = basis[:m]
    rest = _blocks(basis[m:], _composition(shape, d - m, m))
    a = np.sqrt(shared_weight)
    vectors = []
    for i in range(m):
        private = (rng.normal(size=len(rest[i])) + 1j * rng.normal(size=len(rest[i]))) @ rest[i]
        vectors.append(a * shared[i] + np.sqrt(1 - a * a) * private / np.linalg.norm(private))
    return [shared] + rest, _unit_rows(np.array(vectors))


PETZ_DIMS = (4, 5, 6, 7, 8)
PETZ_SHARED_WEIGHTS = (0.35, 0.5, 0.65)
# one group of the repeating pattern.  Three ops in five are the instant
# refusal, so the median op is one of them and op_p50_ms follows the
# precheck, while the solver ops set ops_per_s and op_tail_ms.
PETZ_PATTERN = ("overlap", "planted", "overlap", "shared_atom", "overlap")
# 45 ops a pass: 90% and 50% of a whole number of passes then fall in
# the middle of one op's repeats, not between two different ops
PETZ_GROUPS = 9


def petz_corpus(seed: int) -> list[PetzItem]:
    """Items in a fixed interleaved order, so any prefix keeps the mix."""
    shape, rng = _streams(seed, 2)
    items = []
    for g in range(PETZ_GROUPS):
        for j, kind in enumerate(PETZ_PATTERN):
            # every kind meets every dimension, unital and not
            d = PETZ_DIMS[(g + j) % len(PETZ_DIMS)]
            unital = g % 2 == 0
            if kind == "planted":
                blocks, vectors = _petz_planted(shape, rng, d, 2 if d < 6 else 3)
            elif kind == "overlap":
                blocks, vectors = _petz_overlap(shape, rng, d, 2 if d < 6 else 3)
            else:
                weight = PETZ_SHARED_WEIGHTS[g % len(PETZ_SHARED_WEIGHTS)]
                blocks, vectors = _petz_shared_atom(shape, rng, d, 2, weight)
            eigenvalues = np.arange(1.0, len(blocks) + 1.0)
            projections = [_projector(rows) for rows in blocks]
            labels = _labels(len(vectors))
            items.append(PetzItem(
                kind=kind, unital=unital, eigenvalues=eigenvalues,
                projections=projections, labels=labels, vectors=vectors,
                feasible=kind == "planted" or (kind == "shared_atom" and not unital),
                text=instance_text(labels, vectors, eigenvalues=eigenvalues,
                                   projections=projections),
            ))
    return items


# ---------------------------------------------------------------------------
# certify: dense-matrix instance files through the command line


@dataclass
class CertifyItem:
    kind: str
    dim: int
    text: str
    truth: dict[str, bool]   # command -> affirmative?


def _dense(blocks: list[np.ndarray]) -> np.ndarray:
    """Hermitian matrix with eigenvalue k + 1 on block k."""
    matrix = sum(float(k + 1) * _projector(rows) for k, rows in enumerate(blocks))
    return 0.5 * (matrix + matrix.conj().T)


def _certify_sufficient(shape, rng, d: int, dead: bool):
    n_atoms, n_states = int(shape.integers(4, 7)), int(shape.integers(3, 5))
    structure = shape.bit_generator.state
    while True:
        # a redraw must not move the structure stream
        shape.bit_generator.state = structure
        sizes, basis, vectors, _, _ = _planted_classes(shape, rng, d, n_atoms, n_states, dead)
        if _max_overlap(vectors) >= MIN_OVERLAP:
            break
    return _dense(_blocks(basis, sizes)), vectors


def _certify_rank_violation(shape, rng, d: int):
    """Three random complex states; every atom is at least two-dimensional."""
    n_atoms = int(shape.integers(3, 5))
    matrix = _dense(_blocks(_basis(rng, d), _composition(shape, d, n_atoms, least=2)))
    while True:
        vectors = _unit_rows(rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d)))
        if _triple_defect(vectors) >= MIN_DEFECT:
            return matrix, vectors


def _certify_phase_obstructed(shape, rng, d: int):
    """Three states, one direction per atom, complex coefficients.

    Every atom projects the family onto one dimension, so the refusal
    must come from the phase cycle; its defect in the full Gram matrix
    carries over to the per-atom constraints.
    """
    n_atoms = int(shape.integers(3, 6))
    basis = _basis(rng, d)
    sizes = _composition(shape, d, n_atoms)
    blocks = _blocks(basis, sizes)
    directions = np.array([rows[0] for rows in blocks])
    while True:
        coeff = rng.uniform(0.4, 1.2, size=(3, n_atoms)) * np.exp(
            1j * rng.uniform(0.0, 2 * np.pi, size=(3, n_atoms)))
        vectors = _unit_rows(coeff @ directions)
        if _triple_defect(vectors) >= MIN_DEFECT:
            return _dense(blocks), vectors


# one pass of the corpus; d = 24 comes twice so that the median op is a
# large solve rather than the midpoint between the small and large ones
CERTIFY_DIMS = (8, 16, 24, 32, 24)
CERTIFY_KINDS = ("sufficient", "dead_atom", "rank_violation", "phase_obstructed")
_TRUTH = {
    "sufficient": {"check": True, "construct": True, "minimal": True, "petz": False},
    "dead_atom": {"check": True, "construct": True, "minimal": False, "petz": False},
    "rank_violation": {"check": False, "construct": False, "petz": False},
    "phase_obstructed": {"check": False, "construct": False, "petz": False},
}


def certify_corpus(seed: int) -> list[CertifyItem]:
    shape, rng = _streams(seed, 3)
    items = []
    for d in CERTIFY_DIMS:
        for kind in CERTIFY_KINDS:
            if kind in ("sufficient", "dead_atom"):
                matrix, vectors = _certify_sufficient(shape, rng, d, kind == "dead_atom")
            elif kind == "rank_violation":
                matrix, vectors = _certify_rank_violation(shape, rng, d)
            else:
                matrix, vectors = _certify_phase_obstructed(shape, rng, d)
            labels = _labels(len(vectors))
            items.append(CertifyItem(
                kind=kind, dim=d,
                text=instance_text(labels, vectors, matrix=matrix),
                truth=dict(_TRUTH[kind]),
            ))
    return items
