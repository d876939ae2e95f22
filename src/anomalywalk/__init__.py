"""Discrete-time scattering quantum walks on star graphs with anomalies.

The walk lives on directed edge states, laid out as contiguous blocks, and
advances by one structured unitary step.  The package builds these operators for a family of structural
anomalies, reduces them to the star's invariant cells, analyzes spectra
and eigenphase shifts, and runs the searches the anomalies enable.

A public name loads its module on first use, so importing the package
loads none of them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names, by the module that defines each
_EXPORTS = {
    "collapse": ("ReducedBasis",),
    "edgespace": ("BasisLabel", "EdgeBasis", "make_basis"),
    "errors": ("AnomalyWalkError", "ConfigurationError", "DimensionMismatchError",
               "IndexRangeError", "InsufficientDataError", "InvarianceError",
               "NoPredictionError", "NothingToFindError", "NumericalFailureError",
               "SelfEdgeError", "SizeError", "SpecSemanticError", "SpecSyntaxError"),
    "numerics": ("DEFAULT_POLICY", "NumericPolicy"),
    "perturb": ("EigenShift", "ScalingFit", "SweepResult", "fit_scaling",
                "perturbation_sweep"),
    "search": ("BaselineStatistics", "InitialStateKind", "SearchResult",
               "baseline_statistics", "family_seeds", "predicted_hitting_step",
               "run_search"),
    "spectral": ("Spectrum", "secular_spectrum"),
    "stargraph": ("Anomaly", "PhaseAngle", "StarGraph", "build_star", "parse_spec",
                  "serialize_spec"),
    "stepop": ("BlockWalk", "StepOperator", "UnitarityReport", "build_step_operator",
               "check_unitarity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module, which this first read imports,
    and kept here for later reads."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
