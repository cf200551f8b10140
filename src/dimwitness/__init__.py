"""Dimension witnesses for prepare-and-measure experiments.

Compute and certify the minimal system dimension compatible with observed
conditional probabilities: closed-form quantum and classical ceilings,
witness evaluation, exact deterministic-strategy maxima, see-saw
attainability searches, and Born-rule simulation with optional noise.
"""

from .classical import (
    DeterministicStrategy,
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
from .kernels import pair_labels
from .linalg import trace_norm
from .quantum import (
    DensityMatrix,
    Effect,
    Ensemble,
    PairMeasurementSet,
    StateVector,
    average_state,
    fidelity_pure,
    fourier_ensemble,
    helstrom_differences,
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
    CertifiedDimensions,
    ProbabilityTable,
    WitnessKind,
    certify_dimension,
    classical_bound,
    evaluate,
    pair_differences,
    pair_value,
    quantum_bound,
)

__version__ = "0.1.0"
