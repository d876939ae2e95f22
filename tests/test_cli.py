"""End-to-end CLI tests driving main() with argv lists."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import anomalywalk
from anomalywalk.cli import main

EXTRA100 = '{"n_spokes": 100, "anomaly": {"type": "extra_edge", "u": 2, "v": 7}}'
LOOP100 = '{"n_spokes": 100, "anomaly": {"type": "loop", "at": 4}}'
PLAIN = '{"n_spokes": 12, "anomaly": {"type": "none"}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_inline_spec(self, capsys):
        code, out, err = run(capsys, "check", "--spec", EXTRA100)
        assert code == 0
        assert out.startswith("dim=202 unitary=pass")
        assert err == ""

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(LOOP100)
        code, out, _ = run(capsys, "check", "--spec", str(path))
        assert code == 0
        assert "dim=201" in out

    def test_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_spokes": 10,')
        code, _, err = run(capsys, "check", "--spec", str(path))
        assert code == 1
        assert err.startswith("error:syntax:")
        assert "bad.json" in err

    def test_semantic_error_inline(self, capsys):
        code, _, err = run(capsys, "check", "--spec",
                           '{"n_spokes": 10, "anomaly": {"type": "zap"}}')
        assert code == 1
        assert err.startswith("error:semantic:")

    @pytest.mark.parametrize("name", ["bad\x00name.json", "two\nlines.json"])
    def test_unreadable_spec_path(self, capsys, tmp_path, name):
        code, _, err = run(capsys, "check", "--spec", str(tmp_path / name))
        assert code == 1
        assert err.startswith("error:config:")
        assert len(err.splitlines()) == 1

    def test_undecodable_spec_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n_spokes": 10, "anomaly": {"type": "\xe9"}}')
        code, _, err = run(capsys, "check", "--spec", str(path))
        assert code == 1
        assert err.startswith("error:config:")
        assert len(err.splitlines()) == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--spec", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.startswith("error:config:")

    def test_deep_nesting_is_a_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "check", "--spec", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:syntax:")
        assert len(err.splitlines()) == 1

    def test_out_of_range_vertex(self, capsys):
        code, _, err = run(capsys, "check", "--spec",
                           '{"n_spokes": 5, "anomaly": {"type": "loop", "at": 9}}')
        assert code == 1
        assert err.startswith("error:index:")


HUGE = ('{"n_spokes": 100000000000000000000, '
        '"anomaly": {"type": "loop", "at": 1}}')


@pytest.mark.parametrize("verb", ["check", "evolve", "spectrum"])
def test_size_beyond_memory_fails_fast(capsys, tmp_path, verb):
    argv = [verb, "--spec", HUGE]
    if verb != "check":
        argv += ["--out", str(tmp_path / "out.csv")]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:size:")
    assert len(err.splitlines()) == 1


def test_closure_beyond_memory_is_a_size_error(capsys, tmp_path, monkeypatch):
    # the graph fits, but the closure's row block does not: it must be
    # refused before allocation, under the CLI error contract
    import anomalywalk.collapse
    monkeypatch.setattr(anomalywalk.collapse, "physical_memory_bytes",
                        lambda: 4096.0)
    code, out, err = run(capsys, "spectrum", "--spec", LOOP100,
                         "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:size:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


def test_closure_result_beyond_memory_is_a_size_error(capsys, tmp_path,
                                                     monkeypatch):
    # the cells fit, but not together with the basis the closure returns
    import anomalywalk.collapse
    from anomalywalk.search import InitialStateKind, family_seeds
    from anomalywalk.stargraph import parse_spec
    from anomalywalk.stepop import build_step_operator
    graph = parse_spec(LOOP100)
    op = build_step_operator(graph)
    dim = anomalywalk.collapse.invariant_basis(
        op, family_seeds(graph, InitialStateKind.minus())).dim
    # float64 cells: the bulk uniform in the out and in blocks, and unit
    # cells on the loop vertex's out and in rows and on the loop
    rows = 5 * op.dimension * 8
    result = dim * op.dimension * 8
    for memory, code_wanted in ((rows + result // 2, 1), (rows + result, 0)):
        monkeypatch.setattr(anomalywalk.collapse, "physical_memory_bytes",
                            lambda: float(memory))
        code, out, err = run(capsys, "spectrum", "--spec", LOOP100,
                             "--out", str(tmp_path / "out.csv"))
        assert code == code_wanted
        if code_wanted:
            assert out == ""
            assert err.startswith("error:size:")
            assert len(err.splitlines()) == 1
            assert not (tmp_path / "out.csv").exists()


HUGE_DEN = str(10 ** 400)


@pytest.mark.parametrize("argv", [
    ("check", "--spec", '{"n_spokes": 10, "anomaly": {"type": "missing_loop", '
                        '"at": 1, "phase_num": 1, "phase_den": ' + HUGE_DEN + '}}'),
    ("check", "--spec", '{"n_spokes": 10, "anomaly": {"type": "loop", '
                        '"at": 1, "phase_rad": ' + HUGE_DEN + '}}'),
    ("perturb", "--anomaly", "missing_loop", "--phase-num", "1",
     "--phase-den", HUGE_DEN),
])
def test_phase_beyond_float_range_is_a_semantic_error(capsys, tmp_path, argv):
    argv = list(argv)
    if argv[0] == "perturb":
        argv += ["--out", str(tmp_path / "shifts.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:semantic:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "shifts.csv").exists()


def test_import_does_not_load_scipy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(anomalywalk.__file__).resolve().parents[1]))
    probe = "import sys, anomalywalk.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestUsage:
    def test_no_verb(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_verb(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "error:usage:" in err

    def test_bad_choice(self, capsys):
        code, _, err = run(capsys, "search", "--spec", EXTRA100,
                           "--kind", "sideways")
        assert code == 1
        assert "error:usage:" in err

    def test_missing_required_out(self, capsys):
        code, _, err = run(capsys, "evolve", "--spec", EXTRA100)
        assert code == 1
        assert "error:usage:" in err


class TestEvolve:
    def test_writes_per_step_csv(self, capsys, tmp_path):
        out = tmp_path / "steps.csv"
        code, _, _ = run(capsys, "evolve", "--spec", EXTRA100,
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,p_target_spokes,p_anomaly,p_rest"
        # default horizon is twice the predicted step plus slack
        assert len(lines) == 1 + 2 * 14 + 6 + 1

    def test_deterministic_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "evolve", "--spec", LOOP100, "--out", str(a))
        run(capsys, "evolve", "--spec", LOOP100, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_output_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "evolve", "--spec", EXTRA100,
                           "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == 1
        assert err.startswith("error:config:")

    def test_plain_star_has_no_target(self, capsys, tmp_path):
        code, _, err = run(capsys, "evolve", "--spec", PLAIN,
                           "--out", str(tmp_path / "steps.csv"))
        assert code == 1
        assert err.startswith("error:nothing-to-find:")


class TestSearch:
    def test_summary_to_stdout(self, capsys):
        code, out, err = run(capsys, "search", "--spec", EXTRA100)
        assert code == 0
        payload = json.loads(out)
        assert payload["peak_step"] == 14
        assert payload["predicted_step"] == 14
        assert payload["kind"] == "minus"
        assert payload["spec"]["anomaly"]["u"] == 2

    def test_summary_file_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        code, _, _ = run(capsys, "search", "--spec", LOOP100,
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["peak_step"] == 19
        sidecar = tmp_path / "summary.steps.csv"
        assert sidecar.exists()
        assert sidecar.read_text().startswith("n,p_target_spokes")

    def test_explicit_per_step_path(self, capsys, tmp_path):
        steps = tmp_path / "mysteps.csv"
        code, out, _ = run(capsys, "search", "--spec", EXTRA100,
                           "--per-step-out", str(steps))
        assert code == 0
        assert steps.exists()
        json.loads(out)  # summary still lands on stdout

    def test_short_horizon_warns_on_stderr(self, capsys):
        code, out, err = run(capsys, "search", "--spec", EXTRA100,
                             "--max-steps", "5")
        assert code == 0
        assert err.startswith("warning:")
        assert "predicted" in err

    def test_inout_kind_requires_amplitudes(self, capsys):
        code, _, err = run(capsys, "search", "--spec", EXTRA100,
                           "--kind", "inout")
        assert code == 1
        assert err.startswith("error:config:")

    def test_inout_kind_with_amplitudes(self, capsys):
        code, out, _ = run(capsys, "search", "--spec", EXTRA100,
                           "--kind", "inout", "--amp-out", "1",
                           "--amp-in", "-1", "--method", "reduced")
        assert code == 0
        assert json.loads(out)["peak_step"] == 14

    def test_bad_amplitude_literal(self, capsys):
        code, _, err = run(capsys, "search", "--spec", EXTRA100,
                           "--kind", "inout", "--amp-out", "one",
                           "--amp-in", "0")
        assert code == 1
        assert err.startswith("error:config:")

    def test_loop_kind_on_wrong_variant(self, capsys):
        code, _, err = run(capsys, "search", "--spec", EXTRA100,
                           "--kind", "loop_pi")
        assert code == 1
        assert err.startswith("error:config:")


HORIZON_ARGV = {
    "evolve": ("evolve", "--spec", LOOP100, "--steps"),
    "search": ("search", "--spec", LOOP100, "--max-steps"),
    "sweep": ("sweep", "--spec", LOOP100, "--n-list", "64,100", "--max-steps"),
}


class TestHorizon:
    @pytest.mark.parametrize("verb", sorted(HORIZON_ARGV))
    def test_zero_horizon_refused(self, capsys, tmp_path, verb):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, *HORIZON_ARGV[verb], "0", "--out", str(out))
        assert code == 1
        assert err.startswith("error:config:")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("verb", sorted(HORIZON_ARGV))
    def test_horizon_beyond_memory_refused_at_once(self, capsys, tmp_path, monkeypatch,
                                                   verb):
        import anomalywalk.search
        monkeypatch.setattr(anomalywalk.search, "physical_memory_bytes",
                            lambda: float(2 ** 30))
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        code, _, err = run(capsys, *HORIZON_ARGV[verb], str(10 ** 15), "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error:size:")
        assert len(err.splitlines()) == 1
        assert not out.exists()
        code, _, _ = run(capsys, *HORIZON_ARGV[verb], "30", "--out", str(out))
        assert code == 0


class TestStartCoefficients:
    @pytest.mark.parametrize("amp_out, amp_in", [
        ("nan", "1"), ("inf", "1"), ("1", "-inf"), ("nanj", "0"), ("1+infj", "1"),
        ("1e308", "1e308"), ("1e154", "1e154"), ("1e200", "0"), ("1e-200", "0"),
    ])
    def test_unusable_coefficients_refused(self, capsys, tmp_path, amp_out, amp_in):
        out = tmp_path / "steps.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            code, _, err = run(capsys, "evolve", "--spec", LOOP100, "--kind", "inout",
                               f"--amp-out={amp_out}", f"--amp-in={amp_in}",
                               "--out", str(out))
        assert code == 1
        assert err.startswith("error:config:")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("amp_out, amp_in", [("1e150", "-1e150"), ("1e-150", "2e-150j")])
    def test_extreme_finite_coefficients_run(self, capsys, tmp_path, amp_out, amp_in):
        out = tmp_path / "steps.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "evolve", "--spec", LOOP100, "--kind", "inout",
                               f"--amp-out={amp_out}", f"--amp-in={amp_in}",
                               "--steps", "20", "--out", str(out))
        assert (code, err) == (0, "")
        values = [float(x) for line in out.read_text().splitlines()[1:]
                  for x in line.split(",")]
        assert all(math.isfinite(x) for x in values)

    @pytest.mark.parametrize("amp_in", ["-1e-3", "-0.5j", "-1e150"])
    def test_negative_coefficient_as_its_own_token(self, capsys, tmp_path, amp_in):
        out = tmp_path / "steps.csv"
        code, _, err = run(capsys, "evolve", "--spec", LOOP100, "--kind", "inout",
                           "--amp-out", "1", "--amp-in", amp_in,
                           "--steps", "20", "--out", str(out))
        assert (code, err) == (0, "")
        assert out.exists()

    def test_negative_infinity_reaches_the_coefficient_check(self, capsys, tmp_path):
        code, _, err = run(capsys, "evolve", "--spec", LOOP100, "--kind", "inout",
                           "--amp-out", "-inf", "--amp-in", "1",
                           "--out", str(tmp_path / "steps.csv"))
        assert code == 1
        assert err.startswith("error:config:")
        assert len(err.splitlines()) == 1


def count_calls(monkeypatch, fn):
    """Route every anomalywalk module's reference to fn through a counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("anomalywalk") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestSinglePass:
    """The reduced paths apply U once per cell and never to the lifted basis."""

    @pytest.mark.parametrize("spec,cells", [(LOOP100, 5), (EXTRA100, 8)],
                             ids=["loop", "extra_edge"])
    def test_spectrum_applies_once_per_cell(self, capsys, tmp_path, monkeypatch,
                                            spec, cells):
        applies = count_calls(monkeypatch, anomalywalk.stepop.apply_into)
        code, _, _ = run(capsys, "spectrum", "--spec", spec,
                         "--out", str(tmp_path / "spec.csv"))
        assert code == 0
        assert len(applies) == cells

    def test_sweep_builds_one_operator_per_size(self, monkeypatch):
        builds = count_calls(monkeypatch, anomalywalk.stepop.build_scattering_operator)
        applies = count_calls(monkeypatch, anomalywalk.stepop.apply_into)
        anomalywalk.perturbation_sweep(anomalywalk.Anomaly.extra_edge(1, 2),
                                       sizes=(64, 128, 256, 512))
        assert (len(builds), len(applies)) == (4, 32)


class TestSpectrum:
    def test_reduced_spectrum_csv(self, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        code, stdout, _ = run(capsys, "spectrum", "--spec", EXTRA100,
                              "--out", str(out))
        assert code == 0
        assert stdout.strip() == "dim=5 branches=5"
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,multiplicity"
        assert len(lines) == 6

    def test_million_spoke_loop_near_first_vertex(self, capsys, tmp_path):
        spec = '{"n_spokes": 1000000, "anomaly": {"type": "loop", "at": 1}}'
        code, stdout, err = run(capsys, "spectrum", "--spec", spec,
                                "--out", str(tmp_path / "spec.csv"))
        assert (code, err) == (0, "")
        assert stdout.strip() == "dim=5 branches=5"

    def test_plain_star_two_branches(self, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        code, stdout, _ = run(capsys, "spectrum", "--spec", PLAIN,
                              "--out", str(out))
        assert code == 0
        assert stdout.strip() == "dim=2 branches=2"


def labels_at_pi(tmp_path):
    """The labels of the branch at +-pi in p.csv and in p-fits.csv."""
    def labels(name, column):
        rows = [line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]
        return {row[column] for row in rows if abs(abs(float(row[column])) - math.pi) < 1e-6}
    return labels("p.csv", 1), labels("p-fits.csv", 0)


class TestPerturb:
    def test_anomaly_flags(self, capsys, tmp_path):
        out = tmp_path / "shifts.csv"
        code, stdout, _ = run(capsys, "perturb", "--anomaly", "extra_edge",
                              "--u", "1", "--v", "2",
                              "--n-list", "64,128,256,512",
                              "--out", str(out))
        assert code == 0
        assert out.read_text().startswith(
            "N,branch_theta0,multiplicity0,delta_theta,overlap")
        fits = tmp_path / "shifts-fits.csv"
        assert fits.exists()
        assert "slope" in fits.read_text().splitlines()[0]
        assert "below-floor" in stdout  # the stationary branch.

    def test_negative_phase_as_its_own_token(self, capsys, tmp_path):
        code, stdout, err = run(capsys, "perturb", "--anomaly", "extended_edge",
                                "--phase-rad", "-1e-3", "--n-list", "64,128,256,512",
                                "--out", str(tmp_path / "shifts.csv"))
        assert (code, err) == (0, "")
        assert "branch=0.785148 " in stdout  # pi/4 + phase/4

    def test_branch_at_pi_is_one_branch(self, capsys, tmp_path):
        # the branch at pi is one branch with one label at every size,
        # in the shifts and in the fits
        code, stdout, err = run(capsys, "perturb", "--anomaly", "extended_edge",
                                "--phase-rad", "0.7", "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (0, "")
        fits = dict(line.split(" ", 1) for line in stdout.splitlines())
        assert len(fits) == 6
        slope = float(fits["branch=3.141593"].split()[0].removeprefix("slope="))
        assert -1.05 < slope < -0.95
        assert labels_at_pi(tmp_path) == ({"3.14159265359"}, {"3.14159265359"})

    def test_pi_branch_has_one_label_at_a_third_of_pi(self, capsys, tmp_path):
        code, _, err = run(capsys, "perturb", "--anomaly", "extended_edge",
                           "--phase-num", "1", "--phase-den", "3",
                           "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (0, "")
        assert labels_at_pi(tmp_path) == ({"3.14159265359"}, {"3.14159265359"})

    def test_spec_and_anomaly_flags_conflict(self, capsys, tmp_path):
        code, _, err = run(capsys, "perturb", "--spec", EXTRA100,
                           "--anomaly", "loop",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:config:")

    def test_neither_spec_nor_anomaly(self, capsys, tmp_path):
        code, _, err = run(capsys, "perturb", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:config:")

    def test_phase_fraction_needs_both_parts(self, capsys, tmp_path):
        code, _, err = run(capsys, "perturb", "--anomaly", "missing_loop",
                           "--at", "1", "--phase-num", "1",
                           "--n-list", "64,128,256,512",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:config:")

    def test_bad_n_list(self, capsys, tmp_path):
        code, _, err = run(capsys, "perturb", "--anomaly", "loop",
                           "--n-list", "64,eight",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:config:")


class TestSweep:
    def test_peaks_across_sizes(self, capsys, tmp_path):
        out = tmp_path / "peaks.csv"
        code, _, _ = run(capsys, "sweep", "--spec", EXTRA100,
                         "--n-list", "64,256", "--method", "reduced",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,predicted_step,peak_step,peak_detectable,peak_undetected"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("64", "11", "11"), ("256", "22", "22")]

    def test_predicted_column_empty_without_formula(self, capsys, tmp_path):
        out = tmp_path / "peaks.csv"
        spec = '{"n_spokes": 64, "anomaly": {"type": "extended_edge", "at": 1}}'
        code, _, _ = run(capsys, "sweep", "--spec", spec,
                         "--n-list", "64", "--out", str(out))
        assert code == 0
        row = out.read_text().splitlines()[1]
        assert row.startswith("64,,")


class TestBaseline:
    def test_payload_fields(self, capsys):
        code, out, _ = run(capsys, "baseline", "--spec", LOOP100,
                           "--trials", "2000", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_spokes"] == 100
        assert payload["anomaly"] == "loop"
        assert payload["trials"] == 2000
        assert payload["expected_mean"] == pytest.approx(50.5)
        assert payload["mean_queries"] == pytest.approx(50.5, rel=0.05)
        assert payload["predicted_quantum_step"] == 19
        assert payload["quantum_classical_ratio"] == pytest.approx(
            19 / payload["mean_queries"])

    def test_no_prediction_leaves_null(self, capsys):
        spec = '{"n_spokes": 50, "anomaly": {"type": "missing_loop", "at": 3}}'
        code, out, _ = run(capsys, "baseline", "--spec", spec,
                           "--trials", "500")
        assert code == 0
        payload = json.loads(out)
        assert payload["predicted_quantum_step"] is None
        assert payload["quantum_classical_ratio"] is None

    def test_json_file_output(self, capsys, tmp_path):
        out = tmp_path / "baseline.json"
        code, _, _ = run(capsys, "baseline", "--spec", LOOP100,
                         "--trials", "100", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["trials"] == 100

    def test_trials_beyond_memory_are_refused(self, capsys, monkeypatch):
        import anomalywalk.search
        monkeypatch.setattr(anomalywalk.search, "physical_memory_bytes",
                            lambda: float(2 ** 30))
        start = time.perf_counter()
        code, out, err = run(capsys, "baseline", "--spec", LOOP100,
                             "--trials", "10000000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error:size:")
        assert len(err.splitlines()) == 1
        code, out, _ = run(capsys, "baseline", "--spec", LOOP100, "--trials", "1000")
        assert code == 0

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(capsys, "baseline", "--spec", LOOP100, "--seed", "-1")
        assert code == 1
        assert err.startswith("error:config:")
        assert len(err.splitlines()) == 1

    def test_plain_star_rejected(self, capsys):
        code, _, err = run(capsys, "baseline", "--spec", PLAIN)
        assert code == 1
        assert err.startswith("error:nothing-to-find:")
