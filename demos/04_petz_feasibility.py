"""
Petz sufficiency decided exactly
================================

A statistic is sufficient in the stronger, channel-based sense when
there are density matrices rho_k, one per atom, reproducing every
state's projector as a weighted sum.  A pure state's projector is an
extreme ray of the PSD cone, so every rho_k a state loads must be a
multiple of that projector.  The answer is therefore exact: two states
that overlap are refused at once, an atom loaded by two orthogonal
states must take rho_k = 0, and otherwise the solution is closed-form.
"""

import numpy as np

from wsq import load_bundled_instance
from wsq.fileio import (
    make_certificate,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.harness import GeneratorSpec, generate, petz_implies_weak_check, structural_check
from wsq.petz import (
    Feasible,
    InfeasibleOrthogonality,
    InfeasibleSharedAtoms,
    PetzInstance,
    petz_feasibility,
)
from wsq.spectral import StateFamily, statistic_from_matrix

# ---------------------------------------------------------------- feasible
# A planted instance: each state lives inside its own atom, so the
# solution loads each atom with the corresponding rank-one projector.
statistic, family = generate(
    GeneratorSpec(dim=5, n_states=3, flavor="atom_planted", seed=1)
)
instance = PetzInstance.from_parts(statistic, family)
cert = petz_feasibility(instance)
assert isinstance(cert, Feasible)
print("feasible; max constraint residual", f"{cert.max_constraint_residual:.2e}")

report = structural_check(instance, cert)
print("loaded atoms carry rank-one projectors?", report.ok)
print("feasibility implies the weak factorization too?",
      petz_implies_weak_check(instance, cert))

# The certificate names each atom's owner, the one state that loads it
# (null for an idle atom), not the density matrices: the owners fix every
# rho_k, so the verifier rebuilds them and checks the reconstruction.
text = serialize_certificate(make_certificate("petz", cert, parameters={"unital": True}))
print(text)
print("verifier:", verify_certificate(serialize_instance(statistic, family), text).detail)

# ---------------------------------------------------------------- orthogonality
# Distinct states must be orthogonal for feasibility.  The bundled
# two-state instance overlaps at 1/sqrt(2), so the verdict is
# immediate.
bundled_statistic, bundled_family = load_bundled_instance()
verdict = petz_feasibility(PetzInstance.from_parts(bundled_statistic, bundled_family))
assert isinstance(verdict, InfeasibleOrthogonality)
print("\nbundled instance: infeasible,",
      f"states {verdict.pair[0]} and {verdict.pair[1]}",
      f"overlap at {abs(verdict.overlap):.6f}")

# ---------------------------------------------------------------- shared atom
# Orthogonal states can still be jointly unreachable.  Two basis
# states against a statistic with a single atom covering both need one
# rho that is a multiple of two different projectors, so rho = 0, which
# has no unit trace and rebuilds neither state.  The refusal names the
# shared atom, and the verifier replays it from the instance file.
contradictory = statistic_from_matrix(3.0 * np.eye(2, dtype=complex))
basis_pair = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
for unital in (True, False):
    stuck = petz_feasibility(
        PetzInstance.from_parts(contradictory, basis_pair, unital=unital)
    )
    assert isinstance(stuck, InfeasibleSharedAtoms)
    cert = make_certificate("petz", stuck, parameters={"unital": unital})
    report = verify_certificate(serialize_instance(contradictory, basis_pair),
                                serialize_certificate(cert))
    assert report.ok
    print(f"\ncontradictory shared atom ({'unital' if unital else 'non-unital'}):",
          f"state {stuck.state} shares atom {stuck.pairs[0][0]}",
          f"with {stuck.pairs[0][1]}; verifier: {report.detail}")
