"""SIC-POVMs from complex Hadamard matrices, with independent certification.

Construction of the d^2 equiangular-line candidates from a Hadamard matrix and
a complex parameter (the Hoggar lines at d = 8), measurement-entropy and
mutual-information machinery, optimizer-based certification of the minimum
entropy and informational power, the (64, 28, 12) zero-block design, and the
twin-simplex Bloch geometry.
"""

from .algebra import (
    HadamardMatrix,
    dephase,
    fourier_matrix,
    int_to_bits,
    is_hadamard,
    sylvester_hadamard,
)
from .bloch import (
    HermitianBasis,
    bloch_matrix,
    hermitian_basis,
    reflect_coordinates,
    simplex_check,
    transpose_reflection_check,
)
from .designs import (
    StateSet,
    ZeroBlockDesign,
    block_translation_check,
    difference_set_check,
    frame_potential,
    haar_moment,
    verify_symmetric_design,
    zero_blocks,
)
from .errors import (
    HoggarError,
    InvalidArgumentError,
    InvalidPovmError,
    NotADesignError,
    UnsupportedError,
)
from .infotheory import (
    Ensemble,
    OutcomeDistribution,
    holevo_quantity,
    ht_minimizer,
    index_of_coincidence,
    mutual_information,
    outcome_distribution,
    outcome_matrix,
    power_from_min_entropy,
    shannon_entropy,
    sic_min_entropy_bound,
    sic_power_bound,
    twin_ensemble,
    uniform_ensemble,
)
from .optimize import (
    BAResult,
    OptimizerConfig,
    SearchResult,
    blahut_arimoto,
    capacity_search,
    entropy_gradient,
    min_entropy_search,
    random_pure_state,
)
from .sic import (
    ADMISSIBLE_V,
    PauliLabel,
    SicFamily,
    all_overlap_tables,
    conjugate_set,
    hadamard_sic_family,
    hoggar_family,
    pauli_operator,
    projector_distance,
    tetrahedral_family,
    verify_covariance,
    verify_sic,
)

__version__ = "0.1.0"
