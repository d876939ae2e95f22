"""Property tests of the error contract: hostile input fails with one error line.

parse_spec may only raise AnomalyWalkError, and cli.main may only return an
exit status, whatever text, spec object or argv it is given.  Sizes that
would run are kept small (N at most 1e4, at most 20,000 trials; N at most
200, horizons at most 200 and at most 3 sizes of at most 256 for the walk
verbs); hostile sizes are ones that must be refused before anything is
allocated.  Free text never holds digits, since int() reads digits of any
script and a stray valid size could run a large walk.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anomalywalk.cli import main
from anomalywalk.errors import AnomalyWalkError
from anomalywalk.stargraph import VARIANT_SCHEMA, VARIANTS, StarGraph, parse_spec

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


def run_main(tmp_path, monkeypatch, argv):
    """cli.main's status and output; it must keep the one-error-line contract."""
    # relative spec paths resolve in an empty directory
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 0:
        assert not errors
    elif "unitary=fail" in out.getvalue():
        assert code == 2 and not errors
    else:
        assert code in (1, 2) and len(errors) == 1
        assert err.getvalue().endswith(errors[0] + "\n")
    return code, out.getvalue()


@PROPERTY
@given(argvs())
def test_cli_main_never_raises(tmp_path, monkeypatch, argv):
    code, out = run_main(tmp_path, monkeypatch, argv)
    if code == 0:
        assert out


def mostly(valid, hostile):
    """valid for most draws, so that most argv reach the walk.

    Hypothesis favours small integers, so the hostile branch sits at the top.
    """
    return st.integers(0, 4).flatmap(lambda k: hostile if k == 4 else valid)


WORDS = st.text(alphabet="abxyz_+-.,= \t", max_size=6)
STEPS = mostly(st.integers(1, 200),
               st.sampled_from(HUGE + (0, -1, -3, -(10 ** 400))) | st.integers(-3, 0)).map(str)
VALUES = mostly(STEPS, WORDS)
AMPS = mostly(
    st.sampled_from(("0", "1", "-1", "0.6", "0.8j", "(1-2j)", "1e154", "1e-154",
                     "-1e-3", "-0.5j")),
    st.one_of(st.sampled_from(("nan", "inf", "-inf", "nanj", "1+infj", "1e308", "-1e308",
                               "1e400", "1e200", "1e-200", "1e-320", "0j")),
              st.floats().map(repr), st.complex_numbers().map(str), WORDS))
PHASE_INTS = mostly(st.integers(-12, 12), st.sampled_from(HUGE + (-(10 ** 400),)))
PHASE_RADS = mostly(st.floats(-10, 10).map(repr) | st.just("-1e-3"),
                    st.sampled_from(("nan", "inf", "1e400", "-1e400")) | WORDS)
N_LISTS = mostly(
    st.lists(mostly(st.integers(3, 256), st.integers(-3, 2) | st.sampled_from(HUGE)),
             min_size=1, max_size=3).map(lambda sizes: ",".join(map(str, sizes))),
    WORDS)
KINDS = mostly(st.sampled_from(("minus", "plus", "inout", "loop_pi", "loop_third")), WORDS)
METHODS = mostly(st.sampled_from(("full", "reduced")), WORDS)


@st.composite
def walk_specs(draw):
    """Valid-looking specs with N at most 200, with hostile vertices and phases."""
    n = draw(st.integers(3, 200))
    # the plain star last: it has nothing to search for
    variant = draw(st.sampled_from(VARIANTS[1:] + VARIANTS[:1]))
    anomaly = {"type": variant}
    for field in VARIANT_SCHEMA[variant].fields:
        anomaly[field] = draw(mostly(st.integers(1, n), st.sampled_from((0, n + 1) + HUGE)))
    if VARIANT_SCHEMA[variant].fields and draw(st.booleans()):
        if draw(st.booleans()):
            anomaly.update(phase_num=draw(PHASE_INTS), phase_den=draw(PHASE_INTS))
        else:
            anomaly["phase_rad"] = draw(mostly(st.floats(-10, 10), st.floats() | PHASE_INTS))
    return json.dumps({"n_spokes": n, "anomaly": anomaly})


WALK_SPECS = mostly(walk_specs(), spec_objects(st.integers(-2, 200) | st.sampled_from(HUGE))
                    .map(json.dumps))
START = {"--kind": KINDS, "--amp-out": AMPS, "--amp-in": AMPS}
WALK_OPTIONS = {
    "evolve": {**START, "--steps": VALUES, "--method": METHODS},
    "search": {**START, "--max-steps": VALUES, "--method": METHODS},
    "spectrum": START,
    "sweep": {**START, "--max-steps": VALUES, "--method": METHODS},
    "perturb": {"--at": VALUES, "--u": VALUES, "--v": VALUES,
                "--phase-num": PHASE_INTS.map(str), "--phase-den": PHASE_INTS.map(str),
                "--phase-rad": PHASE_RADS},
}


@st.composite
def walk_argvs(draw, verb):
    argv = [verb]
    # perturb takes at most 3 sizes, like sweep, so that a valid list stays small
    if verb in ("sweep", "perturb"):
        argv += ["--n-list", draw(N_LISTS)]
    # perturb takes its anomaly from exactly one of --spec and --anomaly
    source = "spec"
    if verb == "perturb":
        source = draw(mostly(st.sampled_from(("anomaly", "spec")),
                             st.sampled_from(("both", "neither"))))
    if source in ("spec", "both"):
        argv += ["--spec", draw(WALK_SPECS)]
    if source in ("anomaly", "both"):
        argv += ["--anomaly", draw(mostly(st.sampled_from(VARIANTS), WORDS))]
    for flag, values in WALK_OPTIONS[verb].items():
        if draw(st.booleans()):
            value = draw(values)
            # a value may be joined by '=' or follow as a token of its own,
            # negative numbers such as -1e-3 and -inf included
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    out = "out.json" if verb == "search" else "out.csv"
    argv += ["--out", out]
    if draw(st.integers(0, 9)) == 9:  # a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(WORDS))
    return argv


def assert_finite_csv(directory):
    """Every number in every CSV written is finite.

    The one exception is documented: a perturb fit with points_used 0 marks
    a branch whose shifts all sat below the noise floor with nan.
    """
    for path in directory.glob("*.csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                floor = row.get("points_used") == "0"
                for column, cell in row.items():
                    if cell == "" and column == "predicted_step":
                        continue
                    if floor and column in ("slope", "intercept", "r_squared"):
                        assert cell == "nan"
                        continue
                    assert math.isfinite(float(cell)), (path.name, column, cell)


@pytest.mark.parametrize("verb", sorted(WALK_OPTIONS))
@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_walk_verbs_keep_the_contract(tmp_path_factory, monkeypatch, verb, data):
    tmp_path = tmp_path_factory.mktemp(verb)
    argv = data.draw(walk_argvs(verb))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may reach stderr
        code, _ = run_main(tmp_path, monkeypatch, argv)
    if code == 0:
        assert_finite_csv(tmp_path)
