"""Public API tests."""

import inspect

import anomalywalk


def test_no_public_callable_takes_a_policy():
    # thresholds are read from numerics.DEFAULT_POLICY when a call runs,
    # never passed in
    takers = [name for name in anomalywalk.__all__
              if callable(value := getattr(anomalywalk, name))
              and not (inspect.isclass(value) and issubclass(value, Exception))
              and "policy" in inspect.signature(value).parameters]
    assert takers == []


def test_public_names_are_pinned():
    # the library's public surface, one reviewable list: no name takes or
    # returns a full-length state vector
    assert set(anomalywalk.__all__) == {
        "Anomaly", "AnomalyWalkError", "BaselineStatistics", "BasisLabel", "BlockWalk",
        "ConfigurationError", "DEFAULT_POLICY", "DimensionMismatchError", "EdgeBasis",
        "EigenShift", "IndexRangeError", "InitialStateKind", "InsufficientDataError",
        "InvarianceError", "NoPredictionError", "NothingToFindError",
        "NumericPolicy", "NumericalFailureError", "PhaseAngle", "ReducedBasis", "ScalingFit", "SearchResult", "SelfEdgeError", "SizeError",
        "SpecSemanticError", "SpecSyntaxError", "Spectrum", "StarGraph", "StepOperator",
        "SweepResult", "UnitarityReport", "baseline_statistics", "build_star",
        "build_step_operator", "check_unitarity",
        "family_seeds", "fit_scaling", "make_basis", "parse_spec", "perturbation_sweep",
        "predicted_hitting_step", "run_search", "secular_spectrum",
        "serialize_spec",
    }
