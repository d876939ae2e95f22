"""Discrete-time scattering quantum walks on star graphs with anomalies.

The walk lives on directed edge states, laid out as contiguous blocks, and
advances by one structured unitary step.  The package builds these operators for a family of structural
anomalies, reduces them to the star's invariant cells, analyzes spectra
and eigenphase shifts, and runs the searches the anomalies enable.
"""

from types import ModuleType as _ModuleType

from .collapse import ReducedBasis
from .edgespace import BasisLabel, EdgeBasis, make_basis
from .errors import (
    AnomalyWalkError,
    ConfigurationError,
    DimensionMismatchError,
    IndexRangeError,
    InsufficientDataError,
    InvarianceError,
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
    fit_scaling,
    perturbation_sweep,
)
from .search import (
    BaselineStatistics,
    InitialStateKind,
    SearchResult,
    baseline_statistics,
    family_seeds,
    predicted_hitting_step,
    run_search,
)
from .spectral import Spectrum, secular_spectrum
from .stargraph import (
    Anomaly,
    PhaseAngle,
    StarGraph,
    build_star,
    parse_spec,
    serialize_spec,
)
from .stepop import (
    BlockWalk,
    StepOperator,
    UnitarityReport,
    build_step_operator,
    check_unitarity,
)

__version__ = "0.1.0"

# the public names are the ones imported above; the submodules are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
