"""The one certificate check: `require_within`, the certificates that call
it, and a guard that keeps every other module from comparing a value with
a certificate tolerance by hand; and a guard on the numpy a run may load."""

import argparse
import ast
import math
import re
from array import array
from pathlib import Path

import numpy as np
import pytest
from oracle import eigendecompose, make_state, place

import anomalywalk
import anomalywalk.cli
import anomalywalk.errors
import anomalywalk.search
import anomalywalk.spectral
from anomalywalk.cli import main
from anomalywalk.collapse import certify
from anomalywalk.edgespace import make_basis
from anomalywalk.errors import (
    AnomalyWalkError,
    ConfigurationError,
    InvarianceError,
    NumericalFailureError,
)
from anomalywalk.numerics import NumericPolicy, largest, require_within
from anomalywalk.search import InitialStateKind, run_search
from anomalywalk.spectral import secular_spectrum
from anomalywalk.stargraph import Anomaly, build_star
from anomalywalk.stepop import UnitarityReport

NAN = float("nan")
LOOP8 = '{"n_spokes": 8, "anomaly": {"type": "loop", "at": 1}}'

# the upper-bound certificates' tolerances; closure_residual, structure_tol,
# shift_floor and peak_slack are thresholds of another kind and may be
# compared directly
CERTIFICATE_TOLERANCES = frozenset({
    "unit_norm_tol", "unitarity_tol", "invariance_tol",
    "reduced_unitarity_tol", "spot_check_tol", "eig_residual_tol", "projector_tol",
})


class TestRequireWithin:
    def test_passes_at_and_below_the_tolerance(self):
        require_within("unused", 1e-10, 1e-10)
        require_within("unused", 0.0, 1e-10)
        require_within("unused", -1.0, 0.0)

    @pytest.mark.parametrize("value", [2e-10, NAN, float("inf")])
    def test_refuses_past_the_tolerance_and_nan(self, value):
        with pytest.raises(NumericalFailureError):
            require_within("unused", value, 1e-10)

    def test_message_fills_the_slots(self):
        with pytest.raises(NumericalFailureError) as exc:
            require_within("drift {value:.3e} past {tol:.1e}", 3e-9, 1e-9)
        assert str(exc.value) == "drift 3.000e-09 past 1.0e-09"
        with pytest.raises(NumericalFailureError) as exc:
            require_within("drift {value:.3e} past {tol:.1e}", NAN, 1e-9)
        assert str(exc.value) == "drift nan past 1.0e-09"

    def test_raises_the_given_error(self):
        with pytest.raises(InvarianceError, match="^leaks$"):
            require_within("leaks", 1.0, 0.5, InvarianceError)

    def test_unitarity_report_passes_at_equality(self):
        assert UnitarityReport(max_deviation=1e-12, tolerance=1e-12).passed
        assert not UnitarityReport(max_deviation=2e-12, tolerance=1e-12).passed
        assert not UnitarityReport(max_deviation=NAN, tolerance=1e-12).passed


def test_largest_reads_nan_as_numpy_max_does():
    assert largest([0.5, 2.0, 1.0]) == 2.0
    for values in ([NAN, 1.0], [1.0, NAN], [1.0, 2.0, NAN]):
        assert math.isnan(largest(values)), values
        assert math.isnan(np.max(values)), values


def _loop_state(at_row):
    """A loop star's basis and a vector with a nan at the given row and 1 on the next."""
    basis = make_basis(build_star(8, Anomaly.loop(1)))
    x = np.zeros(basis.dim)
    x[at_row], x[at_row + 1] = NAN, 1.0
    return basis, x


def _place(monkeypatch):
    basis, x = _loop_state(3)  # a bulk row: its part outside the cells is nan
    return lambda: place(basis, [x])


def _place_unit(monkeypatch):
    basis, x = _loop_state(8)  # the anomaly vertex's in row, a unit cell
    return lambda: place(basis, [x])


def _start_values(monkeypatch):
    # a named kind whose weights hold a nan: its closed-form squared norm
    # reads nan, and the run is refused before a walk starts
    monkeypatch.setattr(anomalywalk.search, "_block_weights", lambda graph, kind: (NAN, -1.0))
    graph = build_star(64, Anomaly.loop(3))
    return lambda: run_search(graph, InitialStateKind.minus(), 30)


def _eigen_residual(monkeypatch):
    # the oracle's eigensolver returning a nan eigenvalue; the residual reads nan
    eig = np.linalg.eig

    def poisoned(mat):
        values, vectors = eig(mat)
        values[0] = NAN
        return values, vectors
    monkeypatch.setattr(np.linalg, "eig", poisoned)
    return lambda: eigendecompose(np.eye(2))


def _secular_residual(monkeypatch):
    # a reflection walk with a nan amplitude: the eigenpair residual reads nan
    return lambda: secular_spectrum([[NAN, 0.0], [0.0, 1.0]], [1.0, 0.0], 1)


def _secular_frame(monkeypatch):
    # eigenvectors let past their residual with a nan among them: the
    # frame's deviation reads nan
    unit = anomalywalk.spectral._unit
    monkeypatch.setattr(anomalywalk.spectral, "_unit", lambda v: [NAN] + unit(v)[1:])
    require = anomalywalk.spectral.require_within
    monkeypatch.setattr(anomalywalk.spectral, "require_within",
                        lambda what, *args: what.startswith("eigenpair") or require(what, *args))
    return lambda: secular_spectrum([[0.0, -1.0], [1.0, 0.0]], [0.0, 1.0], 2)


def _spot_check(monkeypatch):
    # the full walk's p_anomaly column reads nan at the checked step
    evolve = anomalywalk.search._evolve_full

    def poisoned(op, x0, k, *rows):
        pts, pas, rests = evolve(op, x0, k, *rows)
        pas = array("d", pas)
        pas[k] = NAN
        return pts, pas, rests
    monkeypatch.setattr(anomalywalk.search, "_evolve_full", poisoned)
    graph = build_star(64, Anomaly.loop(3))
    return lambda: run_search(graph, InitialStateKind.minus(), 30, method="reduced")


def _unitarity_report(monkeypatch):
    monkeypatch.setattr(anomalywalk.cli, "check_unitarity",
                        lambda op: UnitarityReport(max_deviation=NAN, tolerance=1e-12))
    return lambda: anomalywalk.cli._cmd_check(argparse.Namespace(spec=LOOP8))


# make_state and place are the references' full-length state and its
# placement on the star's cells
NAN_CASES = {
    "make_state": (lambda mp: lambda: make_state(np.array([NAN, 1.0])), ConfigurationError),
    "start_values": (_start_values, ConfigurationError),
    "place": (_place, InvarianceError),
    "place_unit_row": (_place_unit, InvarianceError),
    "certify_leakage": (lambda mp: lambda: certify(np.eye(2), NAN), InvarianceError),
    "certify_matrix": (lambda mp: lambda: certify(np.array([[NAN, 0.0], [0.0, 1.0]]), 0.0),
                       NumericalFailureError),
    "eigendecompose_matrix": (lambda mp: lambda: eigendecompose([[NAN]]),
                              NumericalFailureError),
    "eigendecompose_residual": (_eigen_residual, NumericalFailureError),
    "secular_residual": (_secular_residual, NumericalFailureError),
    "secular_frame": (_secular_frame, NumericalFailureError),
    "spot_check": (_spot_check, NumericalFailureError),
    "unitarity_report": (_unitarity_report, NumericalFailureError),
}


@pytest.mark.parametrize("case", NAN_CASES.values(), ids=NAN_CASES)
def test_every_certificate_refuses_nan(case, monkeypatch):
    make_call, error = case
    with pytest.raises(error, match="(?i)nan"):
        make_call(monkeypatch)()


def test_place_refuses_a_nan_on_every_row():
    # bulk rows and the unit cells, the anomaly vertex's out and in rows
    # (0 and 8) and its loop (16), all leak a nan part
    basis = make_basis(build_star(8, Anomaly.loop(1)))
    for row in range(basis.dim):
        x = np.ones(basis.dim)
        x[row] = NAN
        with pytest.raises(InvarianceError, match="leakage nan"):
            place(basis, [x])


@pytest.mark.parametrize("entry", [float("inf"), -float("inf"), NAN])
def test_eigendecompose_refuses_a_non_finite_matrix(entry):
    mat = np.eye(3, dtype=complex)
    mat[1, 2] = entry
    with pytest.raises(NumericalFailureError, match="holds an inf or a nan"):
        eigendecompose(mat)


def test_check_verb_reports_a_nan_deviation(capsys, monkeypatch):
    monkeypatch.setattr(anomalywalk.cli, "check_unitarity",
                        lambda op: UnitarityReport(max_deviation=NAN, tolerance=1e-12))
    code = main(["check", "--spec", LOOP8])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "dim=17 unitary=fail max_dev=nan\n"
    assert captured.err == "error:numerical:unitarity deviation nan exceeds tolerance 1.0e-12\n"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _names(node) -> set[str]:
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}


def _own_nodes(scope) -> list:
    """The nodes of a scope, not descending into the functions it defines."""
    nodes, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        nodes.append(node := stack.pop())
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _scan(scope, held: frozenset) -> list[int]:
    """Lines of the scope's comparisons that read a held name, where a
    name assigned in the scope from a held one is held too, and in the
    functions the scope defines."""
    nodes = _own_nodes(scope)
    assigns = [n for n in nodes
               if isinstance(n, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and n.value]
    while True:  # until no assignment carries a tolerance to a new name
        carried = {t.id for n in assigns if _names(n.value) & held
                   for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
                   for t in ast.walk(target) if isinstance(t, ast.Name)}
        if carried <= held:
            break
        held |= carried
    lines = [n.lineno for n in nodes if isinstance(n, ast.Compare) and _names(n) & held]
    for fn in (n for n in nodes if isinstance(n, FUNCTIONS)):
        lines += _scan(fn, held)
    return sorted(lines)


def hand_compared_tolerances(source: str) -> list[int]:
    """Lines of the comparisons in source that read a certificate tolerance,
    directly or through a name assigned from one in the same or an
    enclosing function."""
    return _scan(ast.parse(source), CERTIFICATE_TOLERANCES)


def test_guard_sees_a_hand_written_certificate():
    assert hand_compared_tolerances(
        "if dev > policy.spot_check_tol:\n    raise E()\n") == [1]
    assert hand_compared_tolerances(
        "tol = DEFAULT_POLICY.unit_norm_tol * 2\nlimit = tol\nok = not drift <= limit\n") == [3]
    assert hand_compared_tolerances(
        "def f():\n    tol = p.invariance_tol\n    return lambda x: x > tol\n") == [3]
    # a threshold of another kind, a tolerance passed on, and a name that
    # holds a tolerance only in another function are not certificates
    assert hand_compared_tolerances(
        "if rdiag.min() < policy.rank_tol:\n    pass\n"
        "require_within('x', dev, policy.spot_check_tol)\n"
        "def f():\n    tol = p.invariance_tol\n"
        "def g(tol):\n    return 1 <= tol\n") == []


def test_only_numerics_compares_a_value_with_a_certificate_tolerance():
    package = Path(anomalywalk.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if path.name != "numerics.py"
             and (lines := hand_compared_tolerances(path.read_text(encoding="utf-8")))}
    assert found == {}


def policy_fields_read(source: str) -> set[str]:
    """The `NumericPolicy` fields that source reads as an attribute."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute)} & set(NumericPolicy._fields)


def test_guard_sees_which_policy_fields_are_read():
    assert policy_fields_read("tol = DEFAULT_POLICY.unit_norm_tol\nx.shift_floor(1)\n") == {
        "unit_norm_tol", "shift_floor"}
    # a name or a string that spells a field reads nothing
    assert policy_fields_read("unit_norm_tol = 1\ngetattr(p, 'cluster_tol')\n") == set()


def test_every_policy_field_is_read_outside_numerics():
    # a field that no module but its definition reads is a knob that turns nothing
    package = Path(anomalywalk.__file__).parent
    read = set().union(*(policy_fields_read(path.read_text(encoding="utf-8"))
                         for path in package.glob("*.py") if path.name != "numerics.py"))
    assert set(NumericPolicy._fields) - read == set()


# every error class a run may raise, each one an error:<category>: line of the CLI
ERRORS = frozenset(cls.__name__ for cls in vars(anomalywalk.errors).values()
                   if isinstance(cls, type) and issubclass(cls, AnomalyWalkError)
                   and cls is not AnomalyWalkError)


def errors_unnamed(sources) -> set[str]:
    """The error classes that no source names, as a name it reads."""
    return ERRORS - {n.id for source in sources for n in ast.walk(ast.parse(source))
                     if isinstance(n, ast.Name)}


def test_guard_sees_which_errors_are_named():
    named = "try:\n    raise SizeError('x')\nexcept (ConfigurationError, KeyError):\n    pass\n"
    # an attribute or a string that spells a class names nothing
    spelt = "x.InvarianceError\ny = 'SelfEdgeError'\n"
    assert errors_unnamed([named, spelt]) == ERRORS - {"SizeError", "ConfigurationError"}


def test_every_error_category_is_raised():
    # a class that no module but its definition names is an error:<category>:
    # line that the CLI's contract lists and no run can print
    package = Path(anomalywalk.__file__).parent
    assert errors_unnamed(path.read_text(encoding="utf-8") for path in package.glob("*.py")
                          if path.name != "errors.py") == set()


# the numpy that no run may load or page in: np.random (through secrets,
# OpenSSL), numpy.ma (np.isin's sort path imports it), numpy.polynomial,
# np.polyfit's least squares, every LAPACK routine, the eigensolver too,
# since every spectrum is read from the step's structure (np.linalg.norm,
# no LAPACK routine, is the one np.linalg name allowed), and the sort,
# search, diff and take kernels: every table the program sorts or searches
# has a few entries
FORBIDDEN_NUMPY = re.compile(
    r"\b(?:np|numpy)\.(?:random|ma|polynomial|isin|polyfit|linalg\.(?!norm\b)\w+"
    r"|sort|argsort|lexsort|searchsorted|diff|take)\b")


def _dotted(node, aliases) -> str:
    """An attribute chain as a dotted name, its root resolved through the
    names the source imports."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([aliases.get(node.id, node.id), *reversed(parts)])


def forbidden_numpy_references(source: str) -> list[int]:
    """Lines of source that reference forbidden numpy: an attribute, an
    import or a quoted annotation."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) if a.asname else (a.name.split(".")[0],) * 2
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [_dotted(node, aliases)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            names = [prefix + alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(FORBIDDEN_NUMPY.search(name) for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_guard_sees_a_numpy_random_reference():
    assert forbidden_numpy_references("x = np.random.default_rng(1)\n") == [1]
    assert forbidden_numpy_references("import numpy.random\n") == [1]
    assert forbidden_numpy_references("import numpy.random as npr\n") == [1]
    assert forbidden_numpy_references("from numpy.random import default_rng\n") == [1]
    assert forbidden_numpy_references("from numpy import linalg, random\n") == [1]
    assert forbidden_numpy_references("def f() -> 'np.random.Generator':\n    pass\n") == [1]
    # the standard library's generator and numpy's linalg module are not,
    # but its eigensolver is
    assert forbidden_numpy_references("import random\nrandom.Random(1)\n"
                                      "from numpy import linalg\nnp.linalg.norm(a)\n") == []
    assert forbidden_numpy_references("x = 1\nnp.linalg.eig(a)\n") == [2]


def test_guard_sees_numpy_that_pages_in_more_than_the_eigensolver():
    for call in ("np.isin(a, b)", "np.polyfit(x, y, 1)", "numpy.ma.masked_invalid(a)",
                 "np.polynomial.Polynomial.fit(x, y, 1)", "np.linalg.qr(a)",
                 "np.linalg.lstsq(a, b)", "np.linalg.eigh(a)", "np.linalg.eigvals(a)",
                 "np.linalg.svd(a)", "np.linalg.solve(a, b)", "np.linalg.LinAlgError",
                 "np.linalg.eig(a)", "numpy.linalg.eig(a)"):
        assert forbidden_numpy_references(f"x = 1\ny = {call}\n") == [2], call
    for line in ("import numpy.ma", "import numpy.polynomial.polynomial as P",
                 "from numpy import isin", "from numpy import ma",
                 "from numpy.linalg import qr", "from numpy.linalg import eig, lstsq",
                 "def f(a) -> 'numpy.ma.MaskedArray':\n    pass"):
        assert forbidden_numpy_references(line + "\n") == [1], line
    # a routine reached through an imported name or alias
    assert forbidden_numpy_references("from numpy import linalg\nlinalg.qr(a)\n") == [2]
    assert forbidden_numpy_references("import numpy.linalg as la\nla.pinv(a)\n") == [2]
    assert forbidden_numpy_references("import numpy as xp\nxp.isin(a, b)\n") == [2]
    assert forbidden_numpy_references("from numpy.linalg import eig, norm\n") == [1]
    # the norm and names that only share a prefix are not
    assert forbidden_numpy_references(
        "import numpy as np\nimport numpy.linalg\nfrom numpy.linalg import norm\n"
        "np.linalg.norm(a, axis=0)\nnp.isinf(a)\nnp.isfinite(a)\n"
        "np.matmul(a, b)\nnp.polyval(p, x)\nnp.random_walk\nrandom.random()\n") == []


def test_guard_sees_numpy_sort_and_search_kernels():
    for call in ("np.sort(a)", "np.argsort(a)", "np.lexsort((a, b))", "numpy.sort(a)",
                 "np.searchsorted(a, v, side='right')", "np.diff(a)", "np.take(a, i)"):
        assert forbidden_numpy_references(f"x = 1\ny = {call}\n") == [2], call
    assert forbidden_numpy_references("from numpy import searchsorted\n") == [1]
    assert forbidden_numpy_references("from numpy import diff as d, take\n") == [1]
    assert forbidden_numpy_references("import numpy as xp\nxp.argsort(a)\n") == [2]
    # Python's sort and bisection, and numpy names that share a prefix, are not
    assert forbidden_numpy_references(
        "from bisect import bisect_right\nsorted(a, key=b.__getitem__)\nbisect_right(a, x)\n"
        "np.argmax(a)\nnp.cumsum(a)\nnp.diag(a)\n") == []


def eager_numpy_imports(source: str) -> list[int]:
    """Lines of source that import numpy when the module is imported: an
    `import numpy` or a `from numpy ...` anywhere but inside a function,
    whose body runs only when it is called."""
    lines, nodes = [], [ast.parse(source)]
    while nodes:
        for node in ast.iter_child_nodes(nodes.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            if any(module.split(".")[0] == "numpy" for module in modules):
                lines.append(node.lineno)
            nodes.append(node)
    return sorted(lines)


def test_guard_sees_an_eager_numpy_import():
    for line in ("import numpy", "import numpy as np", "import numpy.linalg",
                 "import math, numpy as xp", "from numpy import linalg",
                 "from numpy.linalg import eig"):
        assert eager_numpy_imports(f"x = 1\n{line}\n") == [2], line
    # a class body, a conditional and a try run at import too
    for block in ("class A:\n    import numpy", "if x:\n    import numpy as np",
                  "try:\n    from numpy import ndarray\nexcept ImportError:\n    pass"):
        assert eager_numpy_imports(block + "\n") == [2], block
    # an import inside a function runs when it is called; the package's own
    # modules and names that only share a prefix are not numpy
    assert eager_numpy_imports(
        "def f():\n    import numpy as np\n"
        "class A:\n    def g(self):\n        from numpy import eye\n"
        "async def h():\n    import numpy\n"
        "import numpyro\nfrom .numerics import norm2\nfrom . import numerics\n"
        "x: 'np.ndarray' = None\n") == []


def test_no_module_imports_numpy_at_import():
    # numpy's import costs every launch about 50 ms and 14 MiB; only the
    # functions that need it import it
    package = Path(anomalywalk.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := eager_numpy_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_no_module_references_forbidden_numpy():
    package = Path(anomalywalk.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := forbidden_numpy_references(path.read_text(encoding="utf-8")))}
    assert found == {}
