"""Weak sufficiency of discrete quantum statistics: decision, construction,
certification, and brute-force cross-checks for finite families of pure states."""

__version__ = "0.1.0"

from .linalg import (
    EigenConvergenceError,
    RankDeficiencyError,
    gram_matrix,
    gram_schmidt,
    hermitian_eig,
    inner,
    numerical_rank,
    psd_project,
)
from .spectral import (
    AtomProjectionTable,
    CoarseMap,
    DiscreteStatistic,
    StateFamily,
    apply_coarse,
    evaluate_function_on_statistic,
    project_states,
    statistic_from_matrix,
)
from .phases import (
    Infeasible,
    PhaseConstraint,
    VersionAssignment,
    align_phases,
    cycle_defect,
    oracle_align,
    versions_satisfy,
)
from .sufficiency import (
    Analysis,
    ConstructedStatistic,
    NonExistence,
    PhaseObstruction,
    RankViolation,
    SufficiencyVerdict,
    WitnessCheck,
    WitnessFactorization,
    analyze,
    check_weak_sufficiency,
    exists_weakly_sufficient,
    verify_witness,
)
from .minimality import (
    AtomClasses,
    MinimalStatistic,
    NoMinimalExists,
    check_coarse_sufficient,
    dead_atom_counterexamples,
    enumerate_coarse_grainings,
    equivalence_classes,
    is_function_of,
    minimal_statistic,
)
from .petz import (
    Feasible,
    InfeasibleOrthogonality,
    InfeasibleSharedAtoms,
    PetzInstance,
    StructuralReport,
    orthogonality_precheck,
    petz_feasibility,
    petz_implies_weak_check,
    structural_check,
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
from .harness import (
    GeneratorSpec,
    PropertyReport,
    PropertyResult,
    brute_force_weak_sufficiency,
    bundled_example_checks,
    generate,
    run_property_suite,
    shrink_instance,
)
