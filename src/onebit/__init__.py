"""Numerical verification toolkit for information invariance over
complementary measurements and the one-bit positivity criterion.

The library works with two-dimensional states given as probability
6-vectors over three mutually complementary binary measurements, the
linear maps induced on them by frame changes, and N-dimensional states
from which pair qubits are prepared by post-selection.  Every claim it
checks is backed by an independent oracle in the test suite.
"""

from .measures import (
    QUADRATIC,
    SHANNON,
    EntropyMeasure,
    entropy,
    entropy_sum,
    normalized_measure,
    pair_entropy,
    total_uncertainty,
    validate_distribution,
)
from .qubit import (
    CANONICAL_FRAME,
    ComplementaryFrame,
    QubitState,
    is_pure,
    malus_probability,
    probabilities_from_mean,
    random_state,
    total_uncertainty_state,
)
from .transforms import (
    InducedMap,
    InvarianceReport,
    PreserverCandidate,
    alpha_norm,
    apply,
    example_permutation_map,
    induced_from_rotation,
    invariance_scan,
    is_sector_stochastic,
    permutation_distance,
    random_rotation,
    search_norm_preservers,
)
from .highdim import (
    GptStateN,
    HermitianOperator,
    PositivityVerdict,
    PositivityWitness,
    conjugate_into_basis,
    counting_consistency,
    degrees_of_freedom,
    eigen_positivity_oracle,
    gpt_from_density,
    gpt_invariant_violations,
    info_positivity_check,
    minor_condition,
    pair_uncertainty,
    postselect,
)

__version__ = "0.1.0"
