"""Density-matrix simulator for Deutsch closed-timelike-curve circuits.

The package solves the CTC self-consistency condition spectrally, builds
the SWAP-then-controlled discrimination circuit for any set of N
distinct states in N dimensions, and runs the two-CTC protocol that
writes a requested superposition of two set members onto an ancilla.
"""

from .deutsch import (
    FixedPointResult,
    consistency_residual,
    ctc_map,
    fixed_point,
    output_state,
    superoperator_matrix,
    von_neumann_entropy,
)
from .discrimination import (
    DistinguishResult,
    DistinguisherBundle,
    MemberResults,
    build_distinguisher,
    build_uk,
    controlled_stack,
    distinguish,
    distinguish_members,
    swap_operator,
)
from .errors import (
    Condition2Exhausted,
    CtcSimError,
    DegenerateSuperposition,
    DimensionError,
    InputNotInSetWarning,
    NoFixedPointNumerical,
    NonUniqueFixedPoint,
    NormalizationError,
    PurityLoss,
)
from .linalg import (
    DensityMatrix,
    InvariantCheck,
    StateSet,
    StateVector,
    UnitaryMatrix,
    ValidityReport,
    basis_state,
    partial_trace,
    projector,
    state_fidelity,
    tensor_product,
    unitary_from_first_column,
    validate,
)
from .superpose import (
    SuperpositionSpec,
    SweepResult,
    build_omega,
    build_u_ij,
    build_u_prime,
    pure_state_from_density,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Condition2Exhausted",
    "CtcSimError",
    "DegenerateSuperposition",
    "DensityMatrix",
    "DimensionError",
    "DistinguishResult",
    "DistinguisherBundle",
    "FixedPointResult",
    "InputNotInSetWarning",
    "InvariantCheck",
    "MemberResults",
    "NoFixedPointNumerical",
    "NonUniqueFixedPoint",
    "NormalizationError",
    "PurityLoss",
    "StateSet",
    "StateVector",
    "SuperpositionSpec",
    "SweepResult",
    "UnitaryMatrix",
    "ValidityReport",
    "basis_state",
    "build_distinguisher",
    "build_omega",
    "build_u_ij",
    "build_u_prime",
    "build_uk",
    "consistency_residual",
    "controlled_stack",
    "ctc_map",
    "distinguish",
    "distinguish_members",
    "fixed_point",
    "output_state",
    "partial_trace",
    "projector",
    "pure_state_from_density",
    "run_sweep",
    "state_fidelity",
    "superoperator_matrix",
    "swap_operator",
    "tensor_product",
    "unitary_from_first_column",
    "validate",
    "von_neumann_entropy",
]
