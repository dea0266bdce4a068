"""Weak sufficiency of discrete quantum statistics: decision, construction,
certification, and brute-force cross-checks for finite families of pure states.

The package root exports the four questions (check, construct, minimal,
petz), the verifier and the file I/O, with their argument and result
types.  The decision exports load with the root; the petz and file I/O
exports load on first use (PEP 562), so a process that only decides never
loads wsq.petz or wsq.fileio.  Everything else is reached through its
module; the seeded generators and brute-force oracles live in wsq.harness,
which importing wsq does not load.
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
from .minimality import MinimalStatistic, NoMinimalExists, minimal_statistic

_PETZ_EXPORTS = frozenset({"Feasible", "InfeasibleOrthogonality", "InfeasibleSharedAtoms",
                           "PetzInstance", "petz_feasibility"})
_FILEIO_EXPORTS = frozenset({"SchemaError", "VerificationReport", "load_bundled_instance",
                             "make_certificate", "parse_certificate",
                             "serialize_certificate", "serialize_instance",
                             "verify_certificate"})


def __getattr__(name: str):
    """A petz or file I/O export, imported on first use.  The name is
    checked first, so asking for any other attribute imports nothing."""
    if name in _PETZ_EXPORTS:
        from .petz import (Feasible, InfeasibleOrthogonality, InfeasibleSharedAtoms,
                           PetzInstance, petz_feasibility)
    elif name in _FILEIO_EXPORTS:
        from .fileio import (SchemaError, VerificationReport, load_bundled_instance,
                             make_certificate, parse_certificate, serialize_certificate,
                             serialize_instance, verify_certificate)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return locals()[name]


def __dir__():
    """Every export, loaded or not, with the names the root holds."""
    return sorted({*globals(), *_PETZ_EXPORTS, *_FILEIO_EXPORTS})
