"""Public API tests, and a guard that keeps the tests at the package's seams."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

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


def defining_modules() -> dict[str, list[str]]:
    """The modules of the package whose top level defines each name: by a
    def, a class or an assignment, not an import."""
    found = {}
    for path in sorted(Path(anomalywalk.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append(path.stem)
    return found


def test_each_public_name_is_its_defining_modules_object():
    # the package namespace reads each name from the one module defining it
    defined = defining_modules()
    for name in anomalywalk.__all__:
        (module,) = defined[name]
        assert getattr(anomalywalk, name) is getattr(
            importlib.import_module(f"anomalywalk.{module}"), name), name


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from anomalywalk import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == anomalywalk.__all__
    assert len(anomalywalk.__all__) == 44
    assert set(anomalywalk.__all__) <= set(dir(anomalywalk))
    assert anomalywalk.__version__ == "0.1.0"


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        getattr(types.ModuleType("anomalywalk"), "no_such_name")
    with pytest.raises(AttributeError) as package:
        getattr(anomalywalk, "no_such_name")
    assert str(package.value) == str(plain.value) == (
        "module 'anomalywalk' has no attribute 'no_such_name'")


# The tests reach the package through its seams: the public names, the CLI
# and tests/oracle.py.  A test that reaches a private name holds the
# package's internals still, so each reach left is listed here with why no
# seam serves it.
SEAM_EXCEPTIONS = {
    "test_acceptance.py::_walk_norm2":
        "criterion 2(b) reads the squared norm a million-spoke run takes of its "
        "state at its end, which no output reports; the acceptance file is fixed",
    "test_search.py::_walk_norm2":
        "a run takes its state's squared norm once, at its end; how many such "
        "norms a run takes, which no output reports, is counted on this function",
    "test_search.py::_uniforms":
        "the sampler's inversion is held at uniforms on its rank thresholds, "
        "which no seed can be chosen to draw",
    "test_numerics.py::_unit":
        "a nan among eigenvectors that passed their residual, a fault no input "
        "can cause, is planted to show the frame certificate refuses it",
}

# A recording (oracle.recorded) reads what a verb hands a public function:
# how often the verb calls it, and the arguments it passes by name.  That
# order and those names are the package's internals too, so each test or
# oracle function that records a call inside a verb is listed here, with
# the functions it watches and what it holds still.
RECORDED_READS = {
    "oracle.py::start_values": (
        "BlockWalk", "run_search hands its first block walk the start values as `start`"),
    "oracle.py::sweep_spectra": (
        "secular_spectrum", "a sweep reads the limit's spectrum first, then one per size"),
    "test_cli.py::test_every_verb_runs_at_the_largest_size": (
        "BlockWalk", "each verb builds one block walk per full walk or spot check, "
                     "and no other"),
    "test_cli.py::test_spectrum_steps_no_state": (
        "BlockWalk", "the reduced spectrum builds no block walk"),
    "test_cli.py::test_sweep_builds_one_operator_per_size": (
        "BlockWalk, build_scattering_operator",
        "a sweep builds one step per size and no block walk"),
    "test_cli.py::test_the_recording_sees_a_full_walk": (
        "BlockWalk", "a full evolution builds one block walk"),
    "test_cli.py::test_repeated_size_is_refused": (
        "build_star", "a repeated size is refused before any star is built"),
    "test_perturb.py::test_limit_branch_structure": (
        "secular_spectrum", "the first spectrum a sweep reads is its limit"),
    "test_perturb.py::test_a_sweep_reads_the_limit_once": (
        "secular_spectrum", "a sweep reads one spectrum per size and the limit once"),
    "test_perturb.py::test_pairing_is_the_overlap_matching": (
        "secular_spectrum", "a sweep reads the limit, then one spectrum per size in order"),
    "test_perturb.py::test_pairing_follows_every_eigenvalue_from_the_limit": (
        "secular_spectrum", "the limit's and the first size's spectra are the first "
                            "two calls, their walks passed as `q` and `i`"),
    "test_search.py::test_complex_kinds_are_complex": (
        "BlockWalk", "the first block walk is the search's, its walk `self` and "
                     "its start `start`"),
    "test_search.py::test_each_step_reads_only_its_rows": (
        "BlockWalk.gather, anomalywalk.search._walk_norm2, norm2",
        "a full walk gathers its rows once a step, passed as `located`, takes "
        "its norm once at its end and no vector norm"),
    "test_search.py::test_spot_check_is_read_from_the_policy": (
        "BlockWalk.gather", "the reduced search's spot check gathers its full walk's "
                            "rows at step 0 and once a step of the checked prefix"),
}

# names that every NamedTuple carries, and StepOperator documents
NAMEDTUPLE_API = frozenset({"_replace", "_fields", "_asdict", "_make", "_field_defaults"})


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def private_names(sources) -> set[str]:
    """The single-underscore names the sources bind: functions, classes,
    assignment targets and attributes."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return set(filter(is_private, names)) - NAMEDTUPLE_API


def private_reaches(source: str, private) -> list[tuple[int, str]]:
    """(line, name) of each reach to a private name: a `_` name imported
    from anomalywalk, an attribute named in `private`, and a string naming
    one, alone (as getattr and monkeypatch.setattr on an object take it) or
    dotted after anomalywalk (as monkeypatch.setattr takes a path)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "anomalywalk":
            found += [(node.lineno, alias.name) for alias in node.names if is_private(alias.name)]
        elif isinstance(node, ast.Attribute) and node.attr in private:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            last = node.value.rsplit(".", 1)[-1]
            if last in private and (node.value == last or node.value.startswith("anomalywalk.")):
                found.append((node.lineno, last))
    return sorted(found)


def recorded_reads(source: str) -> dict[str, set[str]]:
    """The functions each function of the source watches by `recorded`."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "recorded"):
                    found.setdefault(fn.name, set()).add(ast.unparse(node.args[0]))
    return found


def test_guard_sees_a_planted_reach():
    private = private_names(["def _f():\n    pass\nclass A:\n    def _g(self):\n"
                             "        self._h = _K = 1\n"])
    assert private == {"_f", "_g", "_h", "_K"}
    assert private_reaches("from anomalywalk.perturb import fit_scaling, _x\n", private) == [
        (1, "_x")]
    assert private_reaches("import anomalywalk.search\nanomalywalk.search._f(w)\n"
                           "op._replace(amp=())\nwalk._g()\n", private) == [(2, "_f"), (4, "_g")]
    assert private_reaches("mp.setattr('anomalywalk.search._h', f)\nmp.setattr(m, '_K', f)\n"
                           "getattr(m, '_other')\nprint('see anomalywalk._f')\n", private) == [
        (1, "_h"), (2, "_K")]


def test_tests_reach_the_package_only_through_its_seams():
    src = Path(anomalywalk.__file__).parent
    private = private_names(path.read_text() for path in src.glob("*.py"))
    reaches = {f"{path.name}::{name}" for path in Path(__file__).parent.glob("*.py")
               for _, name in private_reaches(path.read_text(), private)}
    assert reaches - set(SEAM_EXCEPTIONS) == set()
    assert set(SEAM_EXCEPTIONS) - reaches == set()  # an exception no test needs goes


def test_guard_sees_a_planted_recording():
    assert recorded_reads("def f():\n    with recorded(A.g) as a, recorded(h) as b:\n"
                          "        pass\nclass T:\n    def test(self):\n"
                          "        with recorded(m._k):\n            pass\n"
                          "def other():\n    record(h)\n") == {
        "f": {"A.g", "h"}, "test": {"m._k"}}


def test_every_recording_inside_a_verb_is_listed():
    reads = {f"{path.name}::{fn}": ", ".join(sorted(watched))
             for path in Path(__file__).parent.glob("*.py")
             for fn, watched in recorded_reads(path.read_text()).items()}
    assert reads == {key: watched for key, (watched, _) in RECORDED_READS.items()}
