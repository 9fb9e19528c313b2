"""Synchronization subspaces for bipartite quantum clock systems."""

from .opcore import (
    NumericalError,
    Spectrum,
    Subspace,
    as_complex_matrix,
    operator_norm,
    projector,
)
from .clocks import (
    ClockObservable,
    CompatibilityVerdict,
    classify_compatibility,
    make_clock,
)
from .sync import (
    DriftReport,
    SyncOperatorBundle,
    SyncSystem,
    drift_trace,
    make_system,
    sample_kernel_state,
    sync_bundle,
)
from .grouprep import (
    CharacterTable,
    ContainmentReport,
    FiniteGroup,
    HsyncVerdict,
    IsotypicDecomposition,
    Representation,
    SchurReport,
    builtin_group,
    commutant_dimension,
    hsync_membership,
    isotypic_clock,
    isotypic_projectors,
    make_group,
    make_representation,
    multiplicities,
    observable_from_class_function,
    representation_from_generators,
    schur_scalars,
    validate_representation,
    verify_kernel_containment,
)

__version__ = "0.1.0"
