"""
The lattice of sufficient coarse-grainings and its minimal element
==================================================================

Applying a function to a statistic merges atoms.  Some merges keep
weak sufficiency, some destroy it.  When every atom carries weight
of some state there is a single coarsest sufficient merge -- the
minimal statistic; a dead atom makes the minimum disappear, and the
toolkit produces the family of incomparable merges that proves it.
States on one line are the exception: there the constant statistic is
minimal, dead atoms or not.
The minimal statistic's certificate proves its own claim: a witness
that the merge is sufficient, and the partition, whose every two atoms
of different classes the verifier shows cannot share one dimension.
"""

import numpy as np

from wsq.fileio import (
    make_certificate,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.harness import dead_atom_counterexamples, is_function_of
from wsq.minimality import (
    MinimalStatistic,
    NoMinimalExists,
    enumerate_coarse_grainings,
    minimal_statistic,
)
from wsq.spectral import DiscreteStatistic, StateFamily, apply_coarse
from wsq.sufficiency import check_weak_sufficiency

# ---------------------------------------------------------------- instance
# A 5-atom statistic on C^6: the first atom is a 2-dimensional block,
# the rest are coordinate axes.  Each atom holds one unit direction.
basis = np.eye(6, dtype=complex)
blocks = [basis[0:2], basis[2:3], basis[3:4], basis[4:5], basis[5:6]]
statistic = DiscreteStatistic(
    eigenvalues=np.arange(1.0, 6.0),
    projections=np.array([b.T @ b.conj() for b in blocks]),
)
directions = np.array([
    (basis[0] + basis[1]) / np.sqrt(2.0),
    basis[2], basis[3], basis[4], basis[5],
])

# Three states as real combinations of those directions.  The
# coefficient columns are planted so that atoms {0, 2, 4} scale one
# common column and atoms {1, 3} another: within each group the
# states load the atoms proportionally, across groups they do not.
a = np.array([1.0, 0.5, -0.3])
b = np.array([0.4, -1.0, 0.9])
coeff = np.column_stack([a, b, 1.3 * a, 1.7 * b, 0.8 * a])
vectors = coeff @ directions
vectors /= np.linalg.norm(vectors, axis=1)[:, None]
family = StateFamily(labels=("phi1", "phi2", "phi3"), vectors=vectors)
print("atoms:", len(statistic), " states:", len(family.labels))

# ---------------------------------------------------------------- lattice
total = sufficient = 0
for cmap in enumerate_coarse_grainings(statistic):
    applied, partition = apply_coarse(statistic, cmap)
    total += 1
    if check_weak_sufficiency(applied, family).sufficient:
        sufficient += 1
print(f"coarse-grainings: {total} (Bell number), sufficient: {sufficient}")

# ---------------------------------------------------------------- minimum
minimal = minimal_statistic(statistic, family)
assert isinstance(minimal, MinimalStatistic)
print("minimal statistic merges atoms as:", minimal.partition)

# Minimality means: a function of every sufficient coarse-graining.
# Re-walk the lattice and demand the relabelling each time.
for cmap in enumerate_coarse_grainings(statistic):
    applied, partition = apply_coarse(statistic, cmap)
    if not check_weak_sufficiency(applied, family).sufficient:
        continue
    relabelling = is_function_of(minimal.statistic, applied)
    assert relabelling is not None
print("the minimal statistic is a function of all",
      sufficient, "sufficient coarse-grainings")

# ------------------------------------------------------------- certificate
# The certificate carries T's spectrum, the partition and the witness of
# the merged statistic; the verifier checks them from the instance alone,
# and separates every two atoms of different classes itself, without
# deciding minimality again.
text = serialize_certificate(make_certificate("minimality", minimal))
print(text)
report = verify_certificate(serialize_instance(statistic, family), text)
assert report.ok
print("verifier:", report.detail)

# ---------------------------------------------------------------- dead atom
# Zero out the last coefficient column: atom 4 now carries no state.
# Merging the dead atom into any live atom stays sufficient, and those
# merges have no common refinement below them -- no minimal statistic.
dead_coeff = coeff.copy()
dead_coeff[:, 4] = 0.0
dead_vectors = dead_coeff @ directions
dead_vectors /= np.linalg.norm(dead_vectors, axis=1)[:, None]
dead_family = StateFamily(labels=("phi1", "phi2", "phi3"), vectors=dead_vectors)

missing = minimal_statistic(statistic, dead_family)
assert isinstance(missing, NoMinimalExists)
print("\ndead atom detected at index", missing.dead_atom)
counterexamples = dead_atom_counterexamples(statistic, missing.dead_atom)
for n, merged in sorted(counterexamples.items()):
    ok = check_weak_sufficiency(merged, dead_family).sufficient
    print(f"  merge dead atom into atom {n}: still sufficient? {ok}")

# ------------------------------------------------------------ one dimension
# When every state is a phase multiple of one vector, every statistic is
# sufficient, and the constant one -- all atoms in one block -- is a
# function of them all.  That holds even with dead atoms: here atoms 3
# and 4 carry no state, and the minimal statistic still exists.
line = coeff[0, 0] * directions[0] + coeff[0, 1] * directions[1] + coeff[0, 2] * directions[2]
line /= np.linalg.norm(line)
line_family = StateFamily(labels=("phi1", "phi2", "phi3"),
                          vectors=np.array([line, 1j * line, -line]))
constant = minimal_statistic(statistic, line_family)
assert isinstance(constant, MinimalStatistic)
assert constant.partition == [[0, 1, 2, 3, 4]]
print("\none-dimensional family: minimal partition", constant.partition)
text = serialize_certificate(make_certificate("minimality", constant))
report = verify_certificate(serialize_instance(statistic, line_family), text)
assert report.ok
print("verifier:", report.detail)
