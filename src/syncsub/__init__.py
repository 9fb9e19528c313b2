"""Synchronization subspaces for bipartite quantum clock systems."""

from .opcore import (
    NumericalError,
    Subspace,
    as_complex_matrix,
    operator_norm,
    projector,
)
from .clocks import (
    ClockObservable,
    classify_compatibility,
    make_clock,
)
from .sync import (
    SyncOperatorBundle,
    SyncSystem,
    drift_trace,
    make_system,
    sample_kernel_state,
    sync_bundle,
)
from .grouprep import (
    FiniteGroup,
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
