"""The package's record types: immutable named tuples with the field order
and repr they have always had.  No module defines a dataclass, whose
import a launch would pay (`tests/test_cli.py` sees that no verb loads
dataclasses); StepOperator, which refuses tables that do not tile when it
is constructed, is a plain class."""

import importlib
import inspect
import math
import pkgutil
import typing
from array import array

import pytest

import anomalywalk
from anomalywalk.collapse import ReducedBasis
from anomalywalk.edgespace import BasisLabel, EdgeBasis
from anomalywalk.numerics import NumericPolicy
from anomalywalk.perturb import EigenShift, ScalingFit, SweepResult
from anomalywalk.search import BaselineStatistics, InitialStateKind, SearchResult
from anomalywalk.spectral import Spectrum
from anomalywalk.stargraph import VARIANT_SCHEMA, Anomaly, PhaseAngle, StarGraph, VariantSchema
from anomalywalk.stepop import UnitarityReport

FIELDS = {
    BasisLabel: ("kind", "u", "v"),
    EdgeBasis: ("n_spokes", "anomaly"),
    EigenShift: ("theta0", "multiplicity0", "shifts", "overlap"),
    ScalingFit: ("branch_theta0", "slope", "intercept", "r_squared", "points_used", "excluded"),
    SweepResult: ("samples", "fits"),
    ReducedBasis: ("n_spokes", "anomalous", "blocks", "units", "full_dim"),
    Spectrum: ("eigenphases", "blocks", "multiplicities", "poles", "roots"),
    InitialStateKind: ("variant", "amp_out", "amp_in"),
    SearchResult: ("p_target_spokes", "p_anomaly", "p_rest", "peak_step", "peak_detectable",
                   "peak_undetected", "predicted_step", "warnings"),
    BaselineStatistics: ("trials", "mean", "std", "expected_mean"),
    UnitarityReport: ("max_deviation", "tolerance"),
    NumericPolicy: ("unit_norm_tol", "unitarity_tol",
                    "invariance_tol", "reduced_unitarity_tol", "spot_check_tol",
                    "spot_check_steps", "eig_residual_tol", "projector_tol", "structure_tol",
                    "shift_floor", "peak_slack"),
    PhaseAngle: ("num", "den", "rad"),
    Anomaly: ("variant", "u", "v", "at", "mark_phase"),
    StarGraph: ("n_spokes", "anomaly"),
    VariantSchema: ("fields", "defaults", "tail", "hops", "mark", "loops", "swap"),
}

_UNMARKED = "mark_phase=PhaseAngle(num=0, den=1, rad=None)"
_BASIS = ReducedBasis(n_spokes=2, anomalous=(1,), blocks=(slice(0, 2),), units=(1,),
                      full_dim=2)
_BASIS_REPR = ("ReducedBasis(n_spokes=2, anomalous=(1,), blocks=(slice(0, 2, None),), "
               "units=(1,), full_dim=2)")

# one value of each type and its repr, which is the dataclass format
SAMPLES = [
    (BasisLabel.edge(0, 1), "BasisLabel(kind='edge', u=0, v=1)"),
    (EdgeBasis(3, Anomaly.none()),
     f"EdgeBasis(n_spokes=3, anomaly=Anomaly(variant='none', u=None, v=None, at=None, "
     f"{_UNMARKED}))"),
    (EigenShift(theta0=0.0, multiplicity0=2, shifts=(0.5, -0.5), overlap=1.0),
     "EigenShift(theta0=0.0, multiplicity0=2, shifts=(0.5, -0.5), overlap=1.0)"),
    (ScalingFit(branch_theta0=3.0, slope=-0.5, intercept=0.25, r_squared=1.0, points_used=4,
                excluded=0),
     "ScalingFit(branch_theta0=3.0, slope=-0.5, intercept=0.25, r_squared=1.0, "
     "points_used=4, excluded=0)"),
    (SweepResult(samples=(), fits=()), "SweepResult(samples=(), fits=())"),
    (_BASIS, _BASIS_REPR),
    (Spectrum(eigenphases=(0.0,), blocks=(((1 + 0j,),),), multiplicities=(1,), poles=(0.0,),
              roots=(math.pi,)),
     "Spectrum(eigenphases=(0.0,), blocks=((((1+0j),),),), multiplicities=(1,), "
     "poles=(0.0,), roots=(3.141592653589793,))"),
    (InitialStateKind.inout(1, -1j),
     "InitialStateKind(variant='inout', amp_out=(1+0j), amp_in=(-0-1j))"),
    (SearchResult(p_target_spokes=array("d", [0.5]), p_anomaly=array("d", [0.25]),
                  p_rest=array("d", [0.25]), peak_step=0, peak_detectable=0.5,
                  peak_undetected=0.25, predicted_step=None),
     "SearchResult(p_target_spokes=array('d', [0.5]), p_anomaly=array('d', [0.25]), "
     "p_rest=array('d', [0.25]), peak_step=0, peak_detectable=0.5, peak_undetected=0.25, "
     "predicted_step=None, warnings=())"),
    (BaselineStatistics(trials=10, mean=2.0, std=1.0, expected_mean=2.5),
     "BaselineStatistics(trials=10, mean=2.0, std=1.0, expected_mean=2.5)"),
    (UnitarityReport(max_deviation=1e-16, tolerance=1e-12),
     "UnitarityReport(max_deviation=1e-16, tolerance=1e-12)"),
    (NumericPolicy(),
     "NumericPolicy(unit_norm_tol=1e-10, unitarity_tol=1e-12, "
     "invariance_tol=1e-09, reduced_unitarity_tol=1e-10, "
     "spot_check_tol=1e-09, spot_check_steps=25, eig_residual_tol=1e-08, "
     "projector_tol=1e-09, structure_tol=1e-10, shift_floor=1e-13, "
     "peak_slack=2)"),
    (PhaseAngle.from_radians(0.5), "PhaseAngle(num=None, den=None, rad=0.5)"),
    (Anomaly.extra_edge(1, 2),
     f"Anomaly(variant='extra_edge', u=1, v=2, at=None, {_UNMARKED})"),
    (StarGraph(3, Anomaly.missing_loop(1)),
     "StarGraph(n_spokes=3, anomaly=Anomaly(variant='missing_loop', u=None, v=None, at=1, "
     "mark_phase=PhaseAngle(num=1, den=1, rad=None)))"),
    (VARIANT_SCHEMA["loop"],
     "VariantSchema(fields=('at',), defaults=(1,), tail=('aa',), "
     "hops=(('0a', 'aa'), ('aa', 'a0')), mark=None, loops=False, swap=False)"),
]
_IDS = [type(value).__name__ for value, _ in SAMPLES]


def test_no_record_type_holds_a_string_annotation():
    # a string annotation costs a compiled ForwardRef per field at import
    found = {f"{name}.{field}"
             for info in pkgutil.iter_modules(anomalywalk.__path__, "anomalywalk.")
             for name, obj in vars(importlib.import_module(info.name)).items()
             if inspect.isclass(obj) and obj.__module__ == info.name
             and issubclass(obj, tuple) and hasattr(obj, "_fields")
             for field, hint in obj.__annotations__.items()
             if isinstance(hint, (str, typing.ForwardRef))}
    assert found == set()


def test_every_record_type_has_a_sample():
    assert sorted(_IDS) == sorted(t.__name__ for t in FIELDS)


@pytest.mark.parametrize("value,text", SAMPLES, ids=_IDS)
def test_field_order_and_repr(value, text):
    assert type(value)._fields == FIELDS[type(value)]
    assert repr(value) == text


@pytest.mark.parametrize("value", [value for value, _ in SAMPLES], ids=_IDS)
def test_assignment_is_refused(value):
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[type(value)][0], None)
    with pytest.raises(AttributeError):
        value.extra = None
