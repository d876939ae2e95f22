"""Discrete-time scattering quantum walks on star graphs with anomalies.

The walk lives on directed edge states, laid out as contiguous blocks, and
advances by one structured unitary step.  The package builds these operators for a family of structural
anomalies, reduces them to their invariant subspaces, analyzes spectra
and eigenphase shifts, and runs the searches the anomalies enable.
"""

from types import ModuleType as _ModuleType

from .collapse import (
    ReducedBasis,
    ReducedOperator,
    invariant_basis,
    lift,
    project,
    reduce_operator,
    reduce_seeds,
)
from .edgespace import (
    BasisLabel,
    EdgeBasis,
    WalkState,
    edge_probabilities,
    make_basis,
    make_state,
)
from .errors import (
    AnomalyWalkError,
    ConfigurationError,
    DimensionMismatchError,
    IndexRangeError,
    InsufficientDataError,
    InvarianceError,
    MatchingError,
    NoPredictionError,
    NothingToFindError,
    NumericalFailureError,
    SelfEdgeError,
    SizeError,
    SpecSemanticError,
    SpecSyntaxError,
)
from .numerics import DEFAULT_POLICY, NumericPolicy
from .perturb import (
    EigenShift,
    ScalingFit,
    SweepResult,
    build_unperturbed,
    eigenphase_shifts,
    fit_scaling,
    limit_reduced_operator,
    perturbation_sweep,
)
from .search import (
    BaselineResult,
    BaselineStatistics,
    InitialStateKind,
    MeasurementResult,
    SearchResult,
    StepRecord,
    baseline_statistics,
    classical_baseline,
    family_seeds,
    initial_state,
    measure_accessible,
    predicted_hitting_step,
    run_search,
)
from .spectral import Spectrum, eigendecompose, power_apply
from .stargraph import (
    Anomaly,
    PhaseAngle,
    StarGraph,
    build_star,
    parse_spec,
    serialize_spec,
)
from .stepop import (
    StepOperator,
    UnitarityReport,
    apply_adjoint,
    apply_step,
    build_step_operator,
    check_unitarity,
)

__version__ = "0.1.0"

# the public names are the ones imported above; the submodules are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
