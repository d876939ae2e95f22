"""Property tests of the error contract: hostile input fails with one error line.

parse_spec may only raise AnomalyWalkError, and cli.main may only return an
exit status, whatever text, spec object or argv it is given.  Sizes that
would run are kept small (N at most 1e4, at most 20,000 trials); hostile
sizes are ones that must be refused before anything is allocated.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anomalywalk.cli import main
from anomalywalk.errors import AnomalyWalkError
from anomalywalk.stargraph import VARIANTS, StarGraph, parse_spec

# deterministic examples: a tier-1 run must not depend on the draw
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

HUGE = (10 ** 13, 10 ** 20, 2 ** 63, 10 ** 400)
INTS = st.one_of(st.integers(-3, 60), st.integers(-2 ** 70, 2 ** 70),
                 st.integers(-10 ** 450, 10 ** 450), st.sampled_from(HUGE))
SCALARS = st.one_of(INTS, st.floats(), st.booleans(), st.none(),
                    st.text(max_size=4))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=12)
ANOMALY_KEYS = ("u", "v", "at", "phase_num", "phase_den", "phase_rad", "colour")


@st.composite
def spec_objects(draw, sizes=INTS):
    """Spec-shaped objects: mostly the right keys, with any values."""
    anomaly = {"type": draw(st.sampled_from(VARIANTS + ("zap",)) | JSON)}
    for key in draw(st.sets(st.sampled_from(ANOMALY_KEYS))):
        anomaly[key] = draw(SCALARS)
    spec = {"n_spokes": draw(sizes), "anomaly": draw(st.just(anomaly) | JSON)}
    if draw(st.booleans()):
        spec[draw(st.text(max_size=6))] = draw(JSON)
    return spec


def parses_or_refuses(text):
    try:
        assert isinstance(parse_spec(text), StarGraph)
    except AnomalyWalkError:
        pass


@PROPERTY
@given(st.text())
def test_parse_spec_on_any_text(text):
    parses_or_refuses(text)


@PROPERTY
@given(JSON)
def test_parse_spec_on_any_json(obj):
    parses_or_refuses(json.dumps(obj))


@PROPERTY
@given(spec_objects())
def test_parse_spec_on_spec_objects(spec):
    parses_or_refuses(json.dumps(spec))


SMALL_SIZES = st.one_of(st.integers(-2, 200), st.just(10_000), st.sampled_from(HUGE))
SPEC_ARGS = st.one_of(spec_objects(SMALL_SIZES).map(json.dumps), st.text(max_size=12))
COUNTS = st.one_of(st.integers(-3, 20_000), st.sampled_from(HUGE + (-(2 ** 63),)))
OPTION_VALUES = st.one_of(COUNTS.map(str), st.integers().map(str), st.text(max_size=6))


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(("check", "baseline")))
    argv = [verb, "--spec", draw(SPEC_ARGS)]
    if verb == "baseline":
        if draw(st.booleans()):
            argv += ["--trials", draw(COUNTS.map(str) | OPTION_VALUES)]
        if draw(st.booleans()):
            argv += ["--seed", draw(OPTION_VALUES)]
    if draw(st.integers(0, 9)) == 0:  # a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=6)))
    return argv


@PROPERTY
@given(argvs())
def test_cli_main_never_raises(tmp_path, monkeypatch, argv):
    # relative spec paths resolve in an empty directory
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 0:
        assert not errors and out.getvalue()
    elif "unitary=fail" in out.getvalue():
        assert code == 2 and not errors
    else:
        assert code in (1, 2) and len(errors) == 1
        assert err.getvalue().endswith(errors[0] + "\n")
