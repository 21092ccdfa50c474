"""Max-algebra linear algebra: semirings where addition is max.

The package works over max-times (nonnegative reals, plus = max,
times = ordinary product) and its logarithmic twin max-plus, in exact
rational or tolerance-based float arithmetic. It covers Kleene stars,
cycle means and eigenvectors, the family of diagonal similarity scaling
problems, max-balancing, the asymptotics of matrix powers, and commuting
matrix pairs, with every computed object certified against its defining
property before being returned.
"""

from .asymptotics import (
    CsrTerm,
    CsrTriple,
    Expansion,
    PeriodicityProfile,
    TransientBound,
    critical_matrix,
    csr_decompose,
    csr_power,
    expansion_power,
    nachtigall_expansion,
    normalize_to_unit,
    strong_path_table,
    strong_path_weight,
    transient_and_period,
    transient_bound,
)
from .balancing import (
    BalancingCertificate,
    is_max_balanced_cut,
    is_max_balanced_cyclecover,
    max_balance,
)
from .commuting import (
    BooleanDigraphPair,
    CommonEigenvector,
    boolean_saturation_pair,
    common_eigenvector,
    commutes,
    commuting_cycle_witness,
)
from .digraph import (
    Digraph,
    Path,
    SccDecomposition,
    digraph_of,
    enumerate_cycles,
    graph_cyclicity,
    is_strongly_connected,
    scc,
    threshold_digraph,
    threshold_spectrum,
)
from .errors import (
    AcyclicMatrixError,
    AcyclicNodeError,
    CertificationError,
    DimensionError,
    DivergenceError,
    ExactnessError,
    HadamardFailsError,
    InapplicableError,
    IterationBudgetError,
    MaxAlgebraError,
    ModeError,
    NegativeAnswer,
    NoConstraintError,
    NoScalingError,
    NotAnFpScalingError,
    NotCommutingError,
    NotIrreducibleError,
    ParseError,
    PatternViolationError,
    SizeLimitError,
    UndefinedDivisionError,
    WitnessNotFoundError,
    ZeroDiagonalError,
)
from .matrix import (
    MaxMatrix,
    MaxVector,
    entrywise_div,
    kleene_star,
    left_residual,
    mat_power,
    oplus,
    otimes,
    semiring_convert,
)
from .scaling import (
    DiagonalScaling,
    SaturationGraph,
    ScalingFamily,
    apply_scaling,
    as_scaling,
    fp_scaling,
    hadamard_scaling_test,
    has_rowcol_maxima_diagonal,
    is_fp_scaling,
    row_col_maxima_scalings,
    sandwich_scalings,
    satisfies_sandwich,
    saturation_graph,
    strong_fp_scaling,
)
from .semiring import (
    EXACT_PLUS,
    EXACT_TIMES,
    FLOAT_PLUS,
    FLOAT_TIMES,
    NEG_INF,
    PLUS,
    TIMES,
    Semiring,
    gmean_cmp,
    gmean_cmp_one,
    gmean_eq,
    gmean_float,
    gmean_value,
)
from .spectral import (
    CriticalGraph,
    CycleMean,
    SpectralAnalysis,
    critical_graph,
    eigenspace_basis,
    is_eigenvector,
    is_irreducible,
    max_cycle_gmean,
    principal_eigenvector,
    spectral_analysis,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
