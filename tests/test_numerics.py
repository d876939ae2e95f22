"""The one certificate check: `require_within`, the certificates that call
it, and a guard that keeps every other module from comparing a value with
a certificate tolerance by hand; and a guard that keeps numpy out of the
package."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from oracle import eigendecompose, make_state, place

import anomalywalk
import anomalywalk.errors
import anomalywalk.spectral
import anomalywalk.stepop
from anomalywalk.cli import main
from anomalywalk.collapse import certify
from anomalywalk.edgespace import make_basis
from anomalywalk.errors import (
    AnomalyWalkError,
    ConfigurationError,
    InvarianceError,
    NumericalFailureError,
)
from anomalywalk.numerics import (
    NumericPolicy,
    frame_deviation,
    largest,
    matmul,
    norm2,
    require_within,
)
from anomalywalk.search import InitialStateKind, run_search
from anomalywalk.spectral import secular_spectrum
from anomalywalk.stargraph import VARIANTS, Anomaly, build_star
from anomalywalk.stepop import BlockWalk, UnitarityReport

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


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_norm2_is_numpy_s():
    rng = np.random.default_rng(3)
    for v in (_complex(rng, 1, 15)[0], rng.standard_normal(6), np.zeros(4, complex)):
        assert norm2(v.tolist()) == pytest.approx(np.vdot(v, v).real, rel=1e-14, abs=0.0)


def test_matmul_is_numpy_s():
    # the largest product the cells take: 15 by 15, of Python complexes
    rng = np.random.default_rng(5)
    a, b = _complex(rng, 15, 15), _complex(rng, 15, 15)
    got = matmul(a.tolist(), b.tolist())
    assert type(got) is tuple and {type(row) for row in got} == {tuple}
    np.testing.assert_allclose(np.array(got), a @ b, rtol=0.0, atol=1e-13)
    assert matmul(((1, 2),), ((3,), (4,))) == ((11,),)


def _frame(kind):
    rng = np.random.default_rng(7)
    v = _complex(rng, 15, 6)
    if kind == "orthonormal":
        return np.linalg.qr(v)[0]
    if kind == "nan":
        v[4, 2] = NAN
    return v


@pytest.mark.parametrize("kind", ["orthonormal", "skewed", "nan"])
def test_frame_deviation_is_numpy_s(kind):
    # the largest entry of |V*V - I|, V's columns the vectors, and nan when
    # any entry is, as numpy's max reads it
    v = _frame(kind)
    got = frame_deviation(v.T.tolist())
    want = np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()
    if kind == "nan":
        assert math.isnan(got) and math.isnan(want)
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert frame_deviation([]) == 0.0


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


def _nan_start(monkeypatch):
    # an inout kind built past its factory, whose coefficients hold a nan:
    # its closed-form squared norm reads nan, and the run is refused before
    # a walk starts
    graph = build_star(64, Anomaly.loop(3))
    return lambda: run_search(graph, InitialStateKind("inout", NAN, -1.0), 30)


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
    # the spot check's full walk reads nan at its rows, so its records do
    monkeypatch.setattr(BlockWalk, "gather", lambda walk, located: [complex(NAN)] * len(located))
    graph = build_star(64, Anomaly.loop(3))
    return lambda: run_search(graph, InitialStateKind.minus(), 30, method="reduced")


# make_state and place are the references' full-length state and its
# placement on the star's cells
NAN_CASES = {
    "make_state": (lambda mp: lambda: make_state(np.array([NAN, 1.0])), ConfigurationError),
    "start_values": (_nan_start, ConfigurationError),
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
    # the unitarity report's certificate refuses a nan deviation
    monkeypatch.setattr(anomalywalk.stepop, "check_unitarity",
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


def _is_variant_name(node) -> bool:
    """Whether an operand is a variant's name as a string literal, alone or
    among the items of a literal tuple, list or set."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in VARIANTS
               for n in items)


def variant_name_comparisons(source: str) -> list[tuple[str | None, int]]:
    """The enclosing function and line of each comparison in source, and of
    each match case, that reads an anomaly variant's name as a literal."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        operands = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
                    else [node.value] if isinstance(node, ast.MatchValue) else [])
        if any(map(_is_variant_name, operands)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_a_comparison_with_a_variant_name():
    assert variant_name_comparisons("def f(a):\n    return a.variant == \"loop\"\n") == [("f", 2)]
    assert variant_name_comparisons(
        "if 'none' != v:\n    pass\n"
        "ok = g.anomaly.variant in ('extra_edge', 'loop')\n"
        "match v:\n    case 'missing_loop':\n        pass\n") == [
        (None, 1), (None, 3), (None, 5)]
    # a start kind's name, a variant name passed on and a label's kind are not variants
    assert variant_name_comparisons(
        "ok = kind.variant in ('loop_pi', 'loop_third')\n"
        "Anomaly.of('loop', at=1)\nBasisLabel('loop', 1, 1)\nok = label.kind == 'edge'\n") == []


def test_only_the_variant_table_names_a_variant():
    # every per-variant rule is a field of stargraph.VARIANT_SCHEMA; the
    # paper's two closed-form hitting steps are the one exception
    package = Path(anomalywalk.__file__).parent
    found = [(path.name, function) for path in sorted(package.glob("*.py"))
             if path.name != "stargraph.py"
             for function, _ in variant_name_comparisons(path.read_text(encoding="utf-8"))]
    allowed = ("search.py", "predicted_hitting_step")
    assert [at for at in found if at != allowed] == []
    assert found.count(allowed) <= 2


def _numpy_roots(tree) -> set[str]:
    """The names that stand for numpy in a module: np and numpy, and every
    name an import of numpy, or from it, binds."""
    roots = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.asname for a in node.names if a.asname and _is_numpy(a.name))
        elif isinstance(node, ast.ImportFrom) and not node.level and _is_numpy(node.module):
            roots.update(a.asname or a.name for a in node.names)
    return roots


def _is_numpy(module: str | None) -> bool:
    return (module or "").split(".")[0] == "numpy"


def numpy_references(source: str) -> list[int]:
    """Lines of source that import numpy or name it, anywhere, inside
    functions too: an import of numpy or of a module under it, a name that
    stands for it, and a quoted annotation that names one."""
    tree = ast.parse(source)
    roots = _numpy_roots(tree)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(_is_numpy(a.name) for a in node.names):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level and _is_numpy(node.module):
            lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in roots:
            lines.add(node.lineno)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            quoted = [n.value for n in ast.walk(hint or ast.Pass())
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            if any(isinstance(n, ast.Name) and n.id in roots
                   for text in quoted for n in ast.walk(ast.parse(text, mode="eval"))):
                lines.add(hint.lineno)
    return sorted(lines)


# sources and the lines of each that the guard refuses
NUMPY_CASES = [
    # an import anywhere: inside a function, which runs only when it is
    # called, in a class body, under a condition or in a try; and every name
    # an import binds
    ("def f():\n    import numpy as np\n    return np.eye(2)\n", [2, 3]),
    ("import math, numpy.linalg as la\nla.norm(a)\n", [1, 2]),
    ("class A:\n    def g(self):\n        from numpy import eye\n        return eye(2)\n", [3, 4]),
    ("from numpy import diff as d, take\nd(a)\n", [1, 2]),
    ("import numpy as xp\nxp.isin(a, b)\n", [1, 2]),
    ("x = 1\nimport numpy.random\n", [2]),
    ("x = 1\nfrom numpy import linalg, random\n", [2]),
    ("from numpy.linalg import eig\neig(a)\n", [1, 2]),
    ("class A:\n    import numpy\n", [2]),
    ("if x:\n    import numpy as np\n", [2]),
    ("try:\n    from numpy import ndarray\nexcept ImportError:\n    pass\n", [2]),
    # a name that stands for numpy, and a quoted annotation, alone or inside another
    ("x = 1\ny = np.random.default_rng(1)\n", [2]),
    ("def f(x: 'np.ndarray') -> 'tuple[int, numpy.ndarray]':\n    pass\n", [1]),
    ("x: list['np.ndarray'] = []\n", [1]),
    # the package's own modules, names that only share a prefix, an
    # attribute spelt np, prose, the standard library's generator and
    # Python's sort and bisection are not numpy
    ("import numpyro\nfrom .numerics import norm2\nfrom . import numerics\nx.np = 1\n"
     "y: 'list[float]' = []\n\"\"\"as numpy's argmax reads it\"\"\"\n", []),
    ("import random\nrandom.Random(1)\nrandom.random()\n", []),
    ("from bisect import bisect_right\nsorted(a, key=b.__getitem__)\nbisect_right(a, x)\n"
     "a.sort()\n", []),
]


@pytest.mark.parametrize("source, lines", NUMPY_CASES)
def test_guard_sees_numpy_anywhere(source, lines):
    assert numpy_references(source) == lines


def test_no_module_references_numpy():
    # numpy's import costs a launch about 60 ms and 13 MiB, and everything
    # the package computes fits in a few tuples of Python numbers
    package = Path(anomalywalk.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := numpy_references(path.read_text(encoding="utf-8")))}
    assert found == {}
