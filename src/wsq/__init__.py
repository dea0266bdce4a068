"""Weak sufficiency of discrete quantum statistics: decision, construction,
certification, and brute-force cross-checks for finite families of pure states.

The package root exports the four questions (check, construct, minimal,
petz), the verifier and the file I/O, with their argument and result
types.  Everything else is reached through its module; the seeded
generators and brute-force oracles live in wsq.harness, which importing
wsq does not load.
"""

__version__ = "0.1.0"

from .spectral import DiscreteStatistic, StateFamily
from .sufficiency import (
    ConstructedStatistic,
    NonExistence,
    PhaseObstruction,
    RankViolation,
    SufficiencyVerdict,
    WitnessFactorization,
    check_weak_sufficiency,
    exists_weakly_sufficient,
    verify_witness,
)
from .minimality import AtomClasses, MinimalStatistic, NoMinimalExists, minimal_statistic
from .petz import (
    Feasible,
    InfeasibleOrthogonality,
    InfeasibleSharedAtoms,
    PetzInstance,
    petz_feasibility,
)
from .fileio import (
    SchemaError,
    VerificationReport,
    load_bundled_instance,
    make_certificate,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
