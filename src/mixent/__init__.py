"""Numerical laboratory for a unitary collision model of friction.

Collisions of Gibbs-state molecules with an external field dissipate work;
a graceful mixing map (randomizing molecule identities) converts the
thermodynamic entropy production into informatic entropy. This package
computes both sides exactly at desk scale and studies the convergence of the
entropy of mixing to the relative entropy.
"""

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InfiniteRelativeEntropyError,
    InvalidStateError,
    MixentError,
)
from .states import (
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    apply_unitary,
    energy_mean,
    gibbs_state,
    nats_to_bits,
    random_haar_unitary,
    random_hermitian,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .collisions import (
    CollisionLedger,
    CollisionSpec,
    collision_energy_transfer,
    commutator_norm,
    reservoir_hamiltonian,
    run_collision_sequence,
)
from .mixing import (
    GracefulReport,
    MixingRecord,
    SymmetrizedMixture,
    TypeClassSpectrum,
    classical_mixing_entropy_exact,
    convergence_sweep,
    graceful_checks,
    mixing_entropy,
    permutation_twirl_dense,
    symmetrized_state_dense,
    type_class_spectrum,
)
from .combinatorics import (
    classical_mixing_increase_formula,
    insertion_factor,
    log_multinomial,
    round_counts,
    typicality_entropy_check,
)

__version__ = "0.1.0"

__all__ = [
    "MixentError",
    "DimensionMismatchError",
    "InvalidStateError",
    "InfiniteRelativeEntropyError",
    "CapExceededError",
    "HermitianOperator",
    "DensityOperator",
    "UnitaryOperator",
    "ClassicalDistribution",
    "gibbs_state",
    "apply_unitary",
    "von_neumann_entropy",
    "shannon_entropy",
    "relative_entropy",
    "energy_mean",
    "random_hermitian",
    "random_haar_unitary",
    "nats_to_bits",
    "CollisionSpec",
    "CollisionLedger",
    "collision_energy_transfer",
    "run_collision_sequence",
    "reservoir_hamiltonian",
    "commutator_norm",
    "SymmetrizedMixture",
    "TypeClassSpectrum",
    "MixingRecord",
    "GracefulReport",
    "symmetrized_state_dense",
    "type_class_spectrum",
    "mixing_entropy",
    "classical_mixing_entropy_exact",
    "permutation_twirl_dense",
    "graceful_checks",
    "convergence_sweep",
    "log_multinomial",
    "round_counts",
    "typicality_entropy_check",
    "insertion_factor",
    "classical_mixing_increase_formula",
    "__version__",
]
