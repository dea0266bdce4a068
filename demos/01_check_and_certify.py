"""
Checking weak sufficiency of a statistic and certifying the verdict
===================================================================

A two-state qubit family against the statistic diag(1, -1): the
checker finds a witness factorization, we compare it with the
closed-form one, and emit a certificate that an independent party
can re-verify from the instance file alone.
"""

import math

import numpy as np

from wsq import (
    check_weak_sufficiency,
    load_bundled_instance,
    make_certificate,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
    verify_witness,
)
from wsq.phases import VersionAssignment
from wsq.sufficiency import WitnessFactorization

# ---------------------------------------------------------------- load
# The bundled instance: T = diag(1, -1), phi1 = (1, 0),
# phi2 = (1, 1)/sqrt(2).  The two atoms are the coordinate axes.
statistic, family = load_bundled_instance()
print("eigenvalues:", statistic.eigenvalues)
for label in family.labels:
    print(f"  {label} = {np.round(family.vector(label), 6)}")

# ---------------------------------------------------------------- check
verdict = check_weak_sufficiency(statistic, family)
print("\nsufficient?", verdict.sufficient)

# The witness: a reference vector chi and one real function per state,
# evaluated on the eigenvalues of T.  Applying the function to T and
# hitting chi reproduces each state up to a unit-modulus version.
witness = verdict.witness
print("chi =", np.round(witness.chi, 6))
for label, fn in sorted(witness.functions.items()):
    print(f"  function for {label}: {fn}")
check = verify_witness(statistic, family, witness)
print("max witness residual:", check.max_residual)

# ---------------------------------------------------------------- closed form
# The same factorization can be written down by hand: chi = phi2,
# with the function for phi1 sending eigenvalue 1 to sqrt(2) and
# eigenvalue -1 to 0, and the function for phi2 the constant 1.
closed_form = WitnessFactorization(
    chi=family.vector("phi2"),
    functions={
        "phi1": {1.0: math.sqrt(2.0), -1.0: 0.0},
        "phi2": {1.0: 1.0, -1.0: 1.0},
    },
    versions=VersionAssignment(phases={"phi1": 1.0 + 0j, "phi2": 1.0 + 0j}),
)
by_hand = verify_witness(statistic, family, closed_form)
print("closed-form witness residual:", by_hand.max_residual)

# ---------------------------------------------------------------- certify
# Certificates are compact JSON.  They record T's spectrum, from which
# verify_certificate rebuilds T's atoms, and it re-derives every claim
# from the instance text, so a tampered certificate is caught.
certificate = serialize_certificate(make_certificate("weak_sufficiency", verdict))
instance_text = serialize_instance(statistic, family)
report = verify_certificate(instance_text, certificate)
print("\ncertificate verifies?", report.ok, "--", report.detail)
print("\n" + certificate)
