"""Dimension witnesses for prepare-and-measure experiments.

Compute and certify the minimal system dimension compatible with observed
conditional probabilities: closed-form quantum and classical ceilings,
witness evaluation, exact deterministic-strategy maxima, see-saw
attainability searches, and Born-rule simulation with optional noise.
"""

from .classical import (
    DeterministicStrategy,
    balanced_partition_value,
    enumerate_max,
    strategy_table,
)
from .errors import (
    BadArgument,
    DimensionMismatch,
    DimWitnessError,
    FileFormatError,
    IncompleteDecoding,
    NonMonotonic,
    NotAPovm,
    NotHermitian,
    NotPure,
    OutOfRange,
    ShapeMismatch,
    TooLarge,
)
from .linalg import (
    EigenDecomposition,
    eig_hermitian,
    positive_part_projector,
    trace_norm,
)
from .quantum import (
    DensityMatrix,
    Effect,
    Ensemble,
    PairMeasurementSet,
    StateVector,
    average_state,
    fidelity_pure,
    fourier_ensemble,
    helstrom_effect,
    helstrom_measurements,
    overlap_sum_identity_check,
    pure_overlaps,
    pure_state,
    purity,
    trace_distance,
)
from .seesaw import (
    TIGHT_DIMENSIONS,
    SeesawConfig,
    SeesawResult,
    TightnessEntry,
    optimize,
    verify_table2,
)
from .simulate import NoiseModel, born_table, depolarize, guessing_table, noisy_table
from .witnesses import (
    BoundReport,
    CertifiedDimensions,
    ProbabilityTable,
    WitnessKind,
    bound_report,
    certify_dimension,
    classical_bound,
    eval_guessing,
    eval_linear,
    eval_quadratic,
    evaluate,
    pair_differences,
    pair_labels,
    quantum_bound,
)

__version__ = "0.1.0"
