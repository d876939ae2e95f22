"""End-to-end CLI tests driving main() with argv lists."""

import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest
from oracle import recorded

import anomalywalk
import anomalywalk.collapse
import anomalywalk.search
import anomalywalk.stargraph
import anomalywalk.stepop
from anomalywalk.cli import main
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.stargraph import VARIANT_SCHEMA, build_star
from anomalywalk.stepop import BlockWalk, build_scattering_operator

EXTRA100 = '{"n_spokes": 100, "anomaly": {"type": "extra_edge", "u": 2, "v": 7}}'
LOOP100 = '{"n_spokes": 100, "anomaly": {"type": "loop", "at": 4}}'
LOOP256 = '{"n_spokes": 256, "anomaly": {"type": "loop", "at": 7}}'
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

    def test_failed_certificate_reports_one_error_line(self, capsys, monkeypatch):
        # a tolerance below the closed-form deviation at N=100 fails the
        # certificate: the status line stays, then one numerical error line
        monkeypatch.setattr(anomalywalk.stepop, "DEFAULT_POLICY",
                            DEFAULT_POLICY._replace(unitarity_tol=1e-20))
        code, out, err = run(capsys, "check", "--spec", EXTRA100)
        assert code == 2
        assert out == "dim=202 unitary=fail max_dev=1.110e-16\n"
        assert err == ("error:numerical:unitarity deviation 1.110e-16 "
                       "exceeds tolerance 1.0e-20\n")


HORIZON_ARGV = {
    "evolve": ("evolve", "--spec", LOOP100, "--steps"),
    "search": ("search", "--spec", LOOP100, "--max-steps"),
    "sweep": ("sweep", "--spec", LOOP100, "--n-list", "64,100", "--max-steps"),
}


# specs refused as they are read, each with one error line of its category:
# a file's name and bytes (None for a name no file can have)
SPEC_FILE_ERRORS = {
    "syntax": ("bad.json", b'{"n_spokes": 10,', "syntax"),
    "deep_nesting": ("deep.json", b"[" * 100000, "syntax"),
    "undecodable": ("latin1.json", b'{"n_spokes": 10, "anomaly": {"type": "\xe9"}}', "config"),
    "nul_in_name": ("bad\x00name.json", None, "config"),
    "newline_in_name": ("two\nlines.json", None, "config"),
}


@pytest.mark.parametrize("name,content,category", SPEC_FILE_ERRORS.values(),
                         ids=SPEC_FILE_ERRORS)
def test_refused_spec_file_is_one_line(capsys, tmp_path, name, content, category):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "check", "--spec", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error:{category}:")
    assert len(err.splitlines()) == 1
    assert name != "bad.json" or name in err


HUGE_DEN = str(10 ** 400)
MISSING_LOOP_HUGE_DEN = ('{"n_spokes": 10, "anomaly": {"type": "missing_loop", "at": 1, '
                         '"phase_num": 1, "phase_den": ' + HUGE_DEN + '}}')
LOOP_HUGE_RAD = ('{"n_spokes": 10, "anomaly": {"type": "loop", "at": 1, "phase_rad": '
                 + HUGE_DEN + '}}')
INOUT = ("evolve", "--spec", LOOP100, "--kind", "inout")
# start coefficients that are not finite, or whose weight overflows or
# underflows a float
UNUSABLE_COEFFICIENTS = [("nan", "1"), ("inf", "1"), ("1", "-inf"), ("nanj", "0"),
                         ("1+infj", "1"), ("1e308", "1e308"), ("1e154", "1e154"),
                         ("1e200", "0"), ("1e-200", "0")]

# runs refused before anything is computed or written, each with one error
# line of its category; a warning fails the run
REFUSED = {
    "missing_spec_file": ("config", ("check", "--spec", "{tmp}/nope.json")),
    "missing_output_directory": ("config", ("evolve", "--spec", EXTRA100,
                                            "--out", "{tmp}/no/dir.csv")),
    "inout_without_amplitudes": ("config", ("search", "--spec", EXTRA100, "--kind", "inout")),
    "bad_amplitude_literal": ("config", ("search", "--spec", EXTRA100, "--kind", "inout",
                                         "--amp-out", "one", "--amp-in", "0")),
    "loop_kind_on_a_loopless_star": ("config", ("search", "--spec", EXTRA100,
                                                "--kind", "loop_pi")),
    "spec_and_anomaly": ("config", ("perturb", "--spec", EXTRA100, "--anomaly", "loop",
                                    "--out", "{tmp}/x.csv")),
    "neither_spec_nor_anomaly": ("config", ("perturb", "--out", "{tmp}/x.csv")),
    "half_a_phase_fraction": ("config", ("perturb", "--anomaly", "missing_loop", "--at", "1",
                                         "--phase-num", "1", "--n-list", "64,128,256,512",
                                         "--out", "{tmp}/x.csv")),
    "bad_n_list": ("config", ("perturb", "--anomaly", "loop", "--n-list", "64,eight",
                              "--out", "{tmp}/x.csv")),
    "negative_seed": ("config", ("baseline", "--spec", LOOP100, "--seed", "-1")),
    **{f"zero_horizon_{verb}": ("config", (*argv, "0", "--out", "{tmp}/out.csv"))
       for verb, argv in HORIZON_ARGV.items()},
    **{f"coefficients_{amp_out}_{amp_in}": ("config", (
        *INOUT, f"--amp-out={amp_out}", f"--amp-in={amp_in}", "--out", "{tmp}/s.csv"))
       for amp_out, amp_in in UNUSABLE_COEFFICIENTS},
    # -inf as its own token is a value, not an option
    "negative_infinity_token": ("config", (*INOUT, "--amp-out", "-inf", "--amp-in", "1",
                                           "--out", "{tmp}/s.csv")),
    "semantic_inline": ("semantic", ("check", "--spec",
                                     '{"n_spokes": 10, "anomaly": {"type": "zap"}}')),
    "huge_phase_den": ("semantic", ("check", "--spec", MISSING_LOOP_HUGE_DEN)),
    "huge_phase_rad": ("semantic", ("check", "--spec", LOOP_HUGE_RAD)),
    "huge_perturb_phase_den": ("semantic", ("perturb", "--anomaly", "missing_loop",
                                            "--phase-num", "1", "--phase-den", HUGE_DEN,
                                            "--out", "{tmp}/shifts.csv")),
    "out_of_range_vertex": ("index", ("check", "--spec",
                                      '{"n_spokes": 5, "anomaly": {"type": "loop", "at": 9}}')),
    "plain_star_has_no_target": ("nothing-to-find", ("evolve", "--spec", PLAIN,
                                                     "--out", "{tmp}/steps.csv")),
}


@pytest.mark.parametrize("category,argv", REFUSED.values(), ids=REFUSED)
def test_refused_run_is_one_line(capsys, tmp_path, category, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error:{category}:")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


LARGEST = 2 ** 40
LOOP_AT = '{"type": "loop", "at": 1}'
LARGEST_ARGV = {
    "check": ("check",),
    "spectrum": ("spectrum", "--out", "spectrum.csv"),
    "perturb": ("perturb", "--n-list", ",".join(str(2 ** e) for e in range(37, 41)),
                "--out", "shifts.csv"),
    "search": ("search", "--method", "reduced", "--max-steps", "30", "--out", "s.json"),
    "evolve": ("evolve", "--method", "full", "--steps", "50", "--out", "steps.csv"),
    "sweep": ("sweep", "--n-list", str(LARGEST), "--max-steps", "30", "--out", "peaks.csv"),
    "baseline": ("baseline", "--trials", "1000"),
}


@pytest.mark.parametrize("verb", sorted(LARGEST_ARGV))
def test_every_verb_runs_at_the_largest_size(capsys, tmp_path, monkeypatch, verb):
    # no verb allocates anything of length N, so each runs at N = 2**40;
    # the full evolution walks once, and the reduced search and sweep run
    # their spot check against one full walk
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    with recorded(BlockWalk) as walks:
        code, stdout, err = run(capsys, *LARGEST_ARGV[verb], "--spec", sized(LARGEST, LOOP_AT))
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert len(walks) == (verb in ("evolve", "search", "sweep"))
    if verb == "spectrum":
        assert elapsed < 1.0
        assert run(capsys, "spectrum", "--spec", sized(10 ** 6, LOOP_AT),
                   "--out", "million.csv")[1] == stdout == "dim=5 branches=5\n"


@pytest.mark.parametrize("verb", ["check", "evolve", "spectrum"])
def test_size_past_the_largest_is_refused(capsys, tmp_path, verb):
    # one more spoke than 2**40, and a size past any memory, are refused at
    # once as the spec is read, before any operator is built or output
    # written
    for n in (LARGEST + 1, 10 ** 20):
        argv = [verb, "--spec", sized(n, LOOP_AT)]
        if verb != "check":
            argv += ["--out", str(tmp_path / "out.csv")]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error:size:n_spokes must be at most 2**40 = {LARGEST}, got {n}\n"
        assert list(tmp_path.iterdir()) == []


NUL_ARGV = {
    "evolve": ("evolve", "--spec", LOOP100, "--steps", "3", "--out"),
    "search": ("search", "--spec", LOOP100, "--max-steps", "3", "--out"),
    "search_per_step": ("search", "--spec", LOOP100, "--max-steps", "3", "--per-step-out"),
    "search_both": ("search", "--spec", LOOP100, "--max-steps", "3", "--out", "s.json",
                    "--per-step-out"),
    "spectrum": ("spectrum", "--spec", LOOP100, "--out"),
    "perturb": ("perturb", "--anomaly", "loop", "--n-list", "64,128,256,512", "--out"),
    "perturb_fits": ("perturb", "--anomaly", "loop", "--n-list", "64,128,256,512",
                     "--out", "shifts.csv", "--fits-out"),
    "sweep": ("sweep", "--spec", LOOP100, "--n-list", "64,100", "--max-steps", "3", "--out"),
    "baseline": ("baseline", "--spec", LOOP100, "--trials", "10", "--out"),
}


@pytest.mark.parametrize("case", sorted(NUL_ARGV))
def test_nul_byte_in_an_output_path_is_refused(capsys, tmp_path, monkeypatch, case):
    # no file name holds a NUL byte: each output flag refuses it with one
    # error line, and nothing is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *NUL_ARGV[case], "a\0b")
    assert (code, out) == (1, "")
    assert err == "error:config:output path 'a\\x00b' holds a NUL byte\n"
    assert list(tmp_path.iterdir()) == []


# modules a launch must not load: numpy's import costs one about 60 ms and
# 13 MiB, and dataclasses (with copy, which it imports) about 1 ms
UNWANTED = ("scipy", "numpy", "dataclasses")


def loaded_by_import(argv=None, module="anomalywalk.cli"):
    """The modules of UNWANTED, and of the package by their names within
    it, that importing `module` in a fresh interpreter, and running the CLI
    on argv if given, loads.  The run must exit 0."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(anomalywalk.__file__).resolve().parents[1]))
    probe = f"import sys, {module}; "
    if argv is not None:
        probe += f"import anomalywalk.cli; assert anomalywalk.cli.main({list(argv)!r}) == 0; "
    probe += (f"print(*[m.removeprefix('anomalywalk.') for m in sys.modules "
              f"if m in {UNWANTED!r} or m.startswith('anomalywalk.')])")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


# starts one CLI launch and prints its exit code and its peak resident set
# in KiB, read from its rusage by os.wait4, as the benchmark reads it
_RSS_LAUNCHER = (
    "import os, subprocess, sys; "
    "child = subprocess.Popen([sys.executable, '-c', sys.argv[1], *sys.argv[2:]], "
    "stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(child.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def peak_rss_mib(*argv):
    """The peak resident set, in MiB, of one CLI launch with the given argv.
    The launch must exit 0.

    Linux carries a process's peak across exec, so a child's peak is at
    least the resident set of the process that forked it.  A fresh
    interpreter of about 10 MiB starts the launch: started from this test
    run, whose resident set can pass 40 MiB, every launch would read the
    same peak."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(anomalywalk.__file__).resolve().parents[1]))
    code = "import sys; from anomalywalk.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, code, *argv],
                            env=env, capture_output=True, text=True, check=True)
    status, peak = map(int, result.stdout.split())
    assert status == 0
    return peak / 1024  # ru_maxrss is in KiB on Linux


needs_wait4 = pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")


def sized(n, anomaly):
    """A spec of n spokes with the anomaly given as JSON."""
    return f'{{"n_spokes": {n}, "anomaly": {anomaly}}}'


EXTRA_FAR = '{"n_spokes": 100, "anomaly": {"type": "extra_edge", "u": 1, "v": 60}}'
VERB_RUNS = {
    "check": ("check", "--spec", EXTRA_FAR),
    "evolve": ("evolve", "--spec", EXTRA_FAR, "--steps", "20", "--out", "{tmp}/steps.csv"),
    "search": ("search", "--spec", EXTRA_FAR, "--method", "reduced"),
    "spectrum": ("spectrum", "--spec", EXTRA_FAR, "--out", "{tmp}/spec.csv"),
    "perturb": ("perturb", "--anomaly", "extra_edge", "--u", "1", "--v", "60",
                "--out", "{tmp}/shifts.csv"),
    "sweep": ("sweep", "--spec", EXTRA_FAR, "--n-list", "64,100", "--out", "{tmp}/peaks.csv"),
    "baseline": ("baseline", "--spec", EXTRA_FAR, "--trials", "100"),
}


# every verb, each walk by both methods: the cells, the spectra, the fits,
# the reduced walk and the baseline's sampler all run in plain Python
VERB_AND_METHOD_RUNS = {
    **VERB_RUNS,
    "evolve-reduced": ("evolve", "--spec", EXTRA_FAR, "--steps", "20", "--method", "reduced",
                       "--out", "{tmp}/steps.csv"),
    "search-full": ("search", "--spec", EXTRA_FAR, "--method", "full"),
    "sweep-full": ("sweep", "--spec", EXTRA_FAR, "--method", "full", "--n-list", "64,100",
                   "--out", "{tmp}/peaks.csv"),
}


# the package modules the CLI's import loads: what reads a spec and the
# arguments; a launch compiles every module it loads
CLI_MODULES = {"cli", "errors", "stargraph"}
WALK_MODULES = CLI_MODULES | {"edgespace", "numerics", "stepop"}

# what each run of VERB_AND_METHOD_RUNS loads past the CLI's import: the
# modules its verb runs, and none of UNWANTED.  Only a reduced walk, the
# spectrum and perturb read the cells (collapse); only the spectrum and
# perturb read spectra; check runs no search
LOADED_BY_RUN = {
    "check": WALK_MODULES,
    "evolve": WALK_MODULES | {"search"},
    "search": WALK_MODULES | {"search", "collapse"},
    "spectrum": WALK_MODULES | {"search", "collapse", "spectral"},
    "perturb": WALK_MODULES | {"collapse", "spectral", "perturb"},
    "sweep": WALK_MODULES | {"search", "collapse"},
    "baseline": WALK_MODULES | {"search"},
    "evolve-reduced": WALK_MODULES | {"search", "collapse"},
    "search-full": WALK_MODULES | {"search"},
    "sweep-full": WALK_MODULES | {"search"},
}


def test_package_import_loads_no_submodule():
    # a public name loads its module on first use
    assert loaded_by_import(module="anomalywalk") == set()


def test_import_loads_no_unwanted_module():
    assert loaded_by_import() == CLI_MODULES


@pytest.mark.parametrize("run", VERB_AND_METHOD_RUNS)
def test_no_verb_loads_an_unwanted_module(run, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in VERB_AND_METHOD_RUNS[run]]
    assert loaded_by_import(argv) == LOADED_BY_RUN[run]


@needs_wait4
def test_every_launch_peaks_near_a_full_walk_launch(tmp_path):
    # the spectrum, the sweep's spectra and fits and the baseline's sampler
    # hold a few tuples of Python numbers: their launches peaked within
    # 0.31 MiB of an evolve launch's 15.5 MiB, where loading numpy added 13
    walk = peak_rss_mib("evolve", "--spec", EXTRA_FAR, "--steps", "200",
                        "--out", str(tmp_path / "steps.csv"))
    peaks = {argv[0]: peak_rss_mib(*(a.replace("{tmp}", str(tmp_path)) for a in argv))
             for argv in (VERB_RUNS["spectrum"], VERB_RUNS["perturb"], VERB_RUNS["baseline"])}
    assert all(peak - walk <= 1.0 for peak in peaks.values()), (walk, peaks)


def python(*args):
    """A fresh interpreter run with args and this package on its path.  Its
    stdout is block-buffered, so output the exit drops would show."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(anomalywalk.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def _fresh(probe):
    """The last line a fresh interpreter prints running probe."""
    result = python("-c", probe)
    assert result.returncode == 0, result.stderr
    return result.stdout.decode().splitlines()[-1]


def test_cli_import_freezes_the_import_graph():
    # the import's objects sit in the permanent generation, which neither a
    # verb's collections nor the shutdown walks
    assert int(_fresh("import gc, anomalywalk.cli; print(gc.get_freeze_count())")) > 0


def test_package_import_leaves_the_collector_alone():
    assert _fresh("import gc, anomalywalk; print(gc.get_freeze_count(), gc.isenabled())") == (
        "0 True")


@pytest.mark.parametrize("verb,flags", [
    ("search", ("--method", "reduced", "--out")),
    ("search", ("--method", "full", "--out")),
    ("search", ("--per-step-out",)),  # the summary goes to stdout
    ("evolve", ("--out",)),
    ("check", ()),
    ("sweep", ("--method", "full", "--n-list", "64,100", "--out")),
])
def test_launch_writes_what_main_writes(capsys, tmp_path, verb, flags):
    # a launch ends with its import graph frozen, and a full walk's launch
    # loads no numpy: its output and files must be those of the same run
    # in process, byte for byte
    outputs = {}
    for where in ("launch", "main"):
        (tmp_path / where).mkdir()
        out_path = (str(tmp_path / where / "out"),) if flags else ()
        argv = (verb, "--spec", EXTRA100, *flags, *out_path)
        if where == "launch":
            done = python("-m", "anomalywalk.cli", *argv)
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            code, out, err = run(capsys, *argv)
            out, err = out.encode(), err.encode()
        files = {path.name: path.read_bytes() for path in (tmp_path / where).iterdir()}
        outputs[where] = (code, out, err, files)
    assert outputs["launch"] == outputs["main"]
    code, out, _, files = outputs["main"]
    assert code == 0
    assert len(files) == (2 if "--out" in flags and verb == "search" else min(len(flags), 1))
    assert out.startswith(b"{") == ("--per-step-out" in flags)


@pytest.mark.parametrize("argv,category", [
    (("evolve", "--spec", '{"n_spokes": 5, "anomaly": {"type": "loop", "at": 9}}'), "index"),
    (("evolve", "--spec", EXTRA100, "--steps", "abc"), "usage")], ids=["index", "usage"])
def test_failing_launch_prints_one_error_line(tmp_path, argv, category):
    done = python("-m", "anomalywalk.cli", *argv, "--out", str(tmp_path / "steps.csv"))
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.decode().startswith(f"error:{category}:")
    assert len(done.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


USAGE_ERRORS = {
    "no_verb": ((), "the following arguments are required: verb (see anomalywalk --help)"),
    "unknown_verb": (("frobnicate",), "argument verb: invalid choice: 'frobnicate'"),
    "bad_choice": (("search", "--spec", EXTRA100, "--kind", "sideways"),
                   "argument --kind: invalid choice: 'sideways'"),
    "missing_required_out": (("evolve", "--spec", EXTRA100),
                             "the following arguments are required: --out"),
    "bad_int": (("evolve", "--spec", EXTRA100, "--steps", "abc", "--out", "x.csv"),
                "argument --steps: invalid int value: 'abc' (see anomalywalk evolve --help)"),
    "missing_value": (("perturb", "--out"), "argument --out: expected one argument"),
}


class TestUsage:
    @pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_is_one_line(self, capsys, argv, message):
        # argparse's usage block is not printed: the one error line names
        # the fault and points to --help
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:usage:") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [("--help",), ("search", "--help")])
    def test_help_goes_to_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: anomalywalk")


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

    def test_norm_drift_reports_one_error_line(self, capsys, monkeypatch, tmp_path):
        # patches of modulus 2 add weight on every pass through the loop;
        # the run's end-of-walk certificate refuses it before anything is
        # written
        build = anomalywalk.search.build_step_operator
        monkeypatch.setattr(anomalywalk.search, "build_step_operator",
                            lambda graph: build(graph)._replace(
                                amp=[2 * a for a in build(graph).amp]))
        out = tmp_path / "steps.csv"
        code, stdout, err = run(capsys, "evolve", "--spec", LOOP256, "--steps", "40",
                                "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:numerical:the full walk's squared norm drifts ")
        assert err.endswith(" over 40 steps, past the tolerance 1.0e-10\n")
        assert not out.exists()

    def test_reduced_norm_drift_reports_one_error_line(self, capsys, monkeypatch, tmp_path):
        # M scaled by 1 + 1e-8 breaks the conserved norm of the reduced walk;
        # its end-of-walk certificate refuses the run before anything is written
        cells_operator = anomalywalk.collapse.cells_operator
        monkeypatch.setattr(anomalywalk.collapse, "cells_operator",
                            lambda op, cells: tuple(tuple(x * (1 + 1e-8) for x in row)
                                                    for row in cells_operator(op, cells)))
        out = tmp_path / "steps.csv"
        code, stdout, err = run(capsys, "evolve", "--spec", LOOP100, "--method", "reduced",
                                "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:numerical:the reduced walk's squared norm drifts ")
        assert err.endswith(" past the tolerance 1.0e-10\n")
        assert not out.exists()

    def test_stale_carried_sum_reports_one_error_line(self, capsys, monkeypatch, tmp_path):
        # a row of the block the hub reads, written behind the walk's back,
        # moves the state off its start, whose squared norm the run took in
        # closed form; the run's end-of-walk certificate refuses it before
        # anything is written
        init = BlockWalk.__init__

        def stale(walk, *args):
            init(walk, *args)
            walk.rows[1][3] = walk.bulk[1] + 1e-6
        monkeypatch.setattr(BlockWalk, "__init__", stale)
        out = tmp_path / "steps.csv"
        code, stdout, err = run(capsys, "evolve", "--spec", LOOP256, "--steps", "40",
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == ("error:numerical:the full walk's squared norm drifts 8.839e-08 over 40 "
                       "steps, past the tolerance 1.0e-10\n")
        assert not out.exists()

    @needs_wait4
    def test_ten_million_spokes_peak_near_a_small_run(self, tmp_path):
        # the named start is held as one bulk value per block, and no step
        # writes any row but the patch rows: a full walk at N=1e7 stays
        # within 8 MiB of one at N=1e3, where one complex128 full vector
        # adds 305 MiB
        extra = '{"type": "extra_edge", "u": 1, "v": 2}'
        small, large = (peak_rss_mib("evolve", "--spec", sized(n, extra), "--steps", "200",
                                     "--out", str(tmp_path / f"steps{n}.csv"))
                        for n in (1000, 10 ** 7))
        assert large - small <= 8.0, (small, large)


class TestSearch:
    @needs_wait4
    def test_ten_million_spokes_reduced_peak_near_a_small_run(self):
        # the reduced walk's spot check starts the full walk from the named
        # kind's values per block: at N=1e7 the launch stays within 8 MiB
        # of one at N=1e3
        loop = '{"type": "loop", "at": 1}'
        small, large = (peak_rss_mib("search", "--spec", sized(n, loop), "--method", "reduced")
                        for n in (1000, 10 ** 7))
        assert large - small <= 8.0, (small, large)

    def test_summary_to_stdout(self, capsys):
        code, out, err = run(capsys, "search", "--spec", EXTRA100)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["peak_step"] == 14
        assert payload["predicted_step"] == 14
        assert payload["kind"] == "minus"
        assert payload["spec"] == {"anomaly": {"type": "extra_edge", "u": 2, "v": 7},
                                   "n_spokes": 100}
        assert "warnings" not in payload

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

    def test_summary_and_per_step_path_must_differ(self, capsys, tmp_path, monkeypatch):
        # two spellings of one path are refused before the search runs
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "search", "--spec", EXTRA100,
                             "--out", "s.json", "--per-step-out", "./s.json")
        assert (code, out) == (1, "")
        assert err == "error:config:--out and --per-step-out name the same file ./s.json\n"
        assert list(tmp_path.iterdir()) == []

    def test_short_horizon_warns_on_stderr(self, capsys):
        code, out, err = run(capsys, "search", "--spec", EXTRA100,
                             "--max-steps", "5")
        assert code == 0
        assert err.startswith("warning:")
        assert "predicted" in err

    def test_inout_kind_with_amplitudes(self, capsys):
        code, out, _ = run(capsys, "search", "--spec", EXTRA100,
                           "--kind", "inout", "--amp-out", "1",
                           "--amp-in", "-1", "--method", "reduced")
        assert code == 0
        assert json.loads(out)["peak_step"] == 14



class TestHorizon:
    @pytest.mark.parametrize("verb", sorted(HORIZON_ARGV))
    def test_horizon_beyond_memory_refused_at_once(self, capsys, tmp_path, monkeypatch,
                                                   verb):
        monkeypatch.setattr(anomalywalk.stargraph, "physical_memory_bytes",
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

class TestSinglePass:
    """The reduced paths read the cells' operator in a single pass over the
    role table and patches: they construct no block walk."""

    @pytest.mark.parametrize("spec", [LOOP100, EXTRA100], ids=["loop", "extra_edge"])
    def test_spectrum_steps_no_state(self, capsys, tmp_path, spec):
        with recorded(BlockWalk) as walks:
            code, _, _ = run(capsys, "spectrum", "--spec", spec,
                             "--out", str(tmp_path / "spec.csv"))
        assert code == 0
        assert walks == []

    def test_sweep_builds_one_operator_per_size(self):
        with recorded(build_scattering_operator) as builds, recorded(BlockWalk) as walks:
            anomalywalk.perturbation_sweep(anomalywalk.Anomaly.extra_edge(1, 2),
                                           sizes=(64, 128, 256, 512))
        assert (len(builds), walks) == (4, [])

    def test_the_recording_sees_a_full_walk(self, capsys, tmp_path):
        # the same recording on a full evolution: one walk
        with recorded(BlockWalk) as walks:
            code, _, _ = run(capsys, "evolve", "--spec", LOOP100, "--steps", "3",
                             "--out", str(tmp_path / "steps.csv"))
        assert code == 0
        assert len(walks) == 1


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

    @staticmethod
    def traced_spectrum(capsys, tmp_path, spec, *kind):
        """A spectrum run's exit code, stdout, stderr and tracemalloc peak,
        after one untraced run at N=1e3 has loaded what the verb loads on
        first use."""
        small = json.dumps({**json.loads(spec), "n_spokes": 1000})
        out = str(tmp_path / "spec.csv")
        assert run(capsys, "spectrum", "--spec", small, *kind, "--out", out)[0] == 0
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "spectrum", "--spec", spec, *kind, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, stdout, err, peak

    def test_million_spoke_loop_near_first_vertex(self, capsys, tmp_path):
        # the seeds are rows on the cells and the uniform bulk profile is
        # held in closed form, so the run allocates nothing of length N
        # (76 KB measured at N=1e6 and 1e7; one complex128 full vector would
        # be 32 MB)
        spec = '{"n_spokes": 1000000, "anomaly": {"type": "loop", "at": 1}}'
        code, stdout, err, peak = self.traced_spectrum(capsys, tmp_path, spec)
        assert (code, err) == (0, "")
        assert stdout.strip() == "dim=5 branches=5"
        assert peak < 256 * 2 ** 10

    @pytest.mark.parametrize("anomaly,kind,dims", [
        ('{"type": "extra_edge", "u": 2, "v": 7}', ["--kind", "minus"], "dim=5 branches=5"),
        ('{"type": "loop", "at": 4}', ["--kind", "plus"], "dim=5 branches=5"),
        ('{"type": "extended_edge", "at": 3}',
         ["--kind", "inout", "--amp-out", "0.6", "--amp-in", "0.8j"], "dim=4 branches=4"),
        ('{"type": "missing_loop", "at": 3}', ["--kind", "loop_pi"], "dim=6 branches=6"),
        ('{"type": "missing_loop", "at": 3, "phase_num": 1, "phase_den": 3}',
         ["--kind", "loop_third"], "dim=6 branches=6"),
    ], ids=["minus", "plus", "inout", "loop_pi", "loop_third"])
    def test_ten_million_spokes_hold_nothing_of_length_n(self, capsys, tmp_path, anomaly,
                                                         kind, dims):
        # every named kind at N=1e7, where one complex128 full vector is 320 MB
        spec = f'{{"n_spokes": 10000000, "anomaly": {anomaly}}}'
        code, stdout, err, peak = self.traced_spectrum(capsys, tmp_path, spec, *kind)
        assert (code, err) == (0, "")
        assert stdout.strip() == dims
        assert peak < 256 * 2 ** 10

    @needs_wait4
    def test_ten_million_spokes_peak_near_a_small_run(self, tmp_path):
        # the launch's own peak resident set, as the benchmark reads it: a
        # run at N=1e7 stays within 8 MiB of one at N=1e3, where a bulk
        # profile of length N would add 76 MiB
        loop = '{"type": "loop", "at": 1}'
        small, large = (peak_rss_mib("spectrum", "--spec", sized(n, loop),
                                     "--out", str(tmp_path / f"spec{n}.csv"))
                        for n in (1000, 10 ** 7))
        assert large - small <= 8.0, (small, large)

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

    def test_shift_and_fit_paths_must_differ(self, capsys, tmp_path, monkeypatch):
        # two spellings of one path are refused before the sweep runs
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "perturb", "--anomaly", "loop",
                             "--n-list", "64,128,256,512", "--out", "x.csv", "--fits-out", "./x.csv")
        assert (code, out) == (1, "")
        assert err == "error:config:--out and --fits-out name the same file ./x.csv\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("powers", [(36, 37, 38, 39), (37, 38, 39, 40)])
    def test_extended_edge_sweeps_at_the_largest_sizes(self, capsys, tmp_path, powers):
        # no frame certificate fails near N = 2**39, and the branch at pi
        # splits like N^-1/2, in criterion 8's band for a degenerate branch
        out, fits = tmp_path / "shifts.csv", tmp_path / "fits.csv"
        code, _, err = run(capsys, "perturb", "--anomaly", "extended_edge",
                           "--n-list", ",".join(str(2 ** p) for p in powers),
                           "--out", str(out), "--fits-out", str(fits))
        assert (code, err) == (0, "")
        rows = {row["branch_theta0"]: row for row in csv.DictReader(fits.open())}
        at_pi = rows[f"{math.pi:.12g}"]
        assert int(at_pi["points_used"]) == 8
        assert abs(float(at_pi["slope"]) + 0.5) <= 0.1

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

    @pytest.mark.parametrize("flags", [
        ("--anomaly", "extended_edge", "--at", "3", "--phase-num", "1", "--phase-den", "3"),
        ("--anomaly", "loop", "--at", "3")])
    def test_one_label_per_branch(self, capsys, tmp_path, flags):
        # every size's sample of a branch carries its fit's label, the
        # limit's eigenphase, the zero branch's too
        code, _, err = run(capsys, "perturb", *flags, "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (0, "")

        def column(name, k):
            return [line.split(",")[k]
                    for line in (tmp_path / name).read_text().splitlines()[1:]]
        fits = column("p-fits.csv", 0)
        assert len(set(fits)) == len(fits)
        assert set(column("p.csv", 1)) == set(fits)
        assert set(column("p.csv", 0)) == {str(2 ** k) for k in range(6, 13)}

    @pytest.mark.parametrize("flags", [
        ("--anomaly", "extended_edge", "--at", "3", "--phase-num", "1", "--phase-den", "3"),
        ("--anomaly", "missing_loop", "--at", "3", "--phase-rad", "0.7")])
    def test_zero_branch_is_labelled_zero(self, capsys, tmp_path, flags):
        # the limit's zero branch is printed and written as exactly 0, never
        # as round-off of either sign
        code, stdout, err = run(capsys, "perturb", *flags, "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (0, "")
        assert "branch=0.000000 " in stdout
        assert "-0.000000" not in stdout
        for name, k in (("p.csv", 1), ("p-fits.csv", 0)):
            labels = [line.split(",")[k]
                      for line in (tmp_path / name).read_text().splitlines()[1:]]
            assert "0" in labels
            assert not [label for label in labels if abs(float(label)) < 1e-9 and label != "0"]

    @pytest.mark.parametrize("flags", [
        ("--phase-num", "1", "--phase-den", "3"), ("--phase-rad", "1"), ("--at", "3"),
        ("--u", "1"), ("--v", "2")])
    def test_spec_refuses_anomaly_flags(self, capsys, tmp_path, flags):
        # the spec gives the vertices and the phase; a flag next to it
        # would be dropped, so it is refused
        spec = '{"n_spokes": 64, "anomaly": {"type": "missing_loop", "at": 3}}'
        code, out, err = run(capsys, "perturb", "--spec", spec, *flags,
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (1, "")
        assert err == (f"error:config:{flags[0]} cannot be given with --spec, "
                       f"which gives the anomaly\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("variant,key,value", [
        ("none", "phase_rad", "1"), ("none", "phase_den", "3"), ("none", "at", "1"),
        ("loop", "u", "3"), ("extended_edge", "v", "3"), ("extra_edge", "at", "3"),
        ("missing_loop", "u", "3")])
    def test_flags_the_variant_does_not_read(self, capsys, tmp_path, variant, key, value):
        # refused as the spec refuses the same key, not dropped
        flags = ["--anomaly", variant, f"--{key.replace('_', '-')}", value]
        if key == "phase_den":  # the first unknown key in sorted order, as the spec's
            flags += ["--phase-num", "1"]
        code, out, err = run(capsys, "perturb", *flags, "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (1, "")
        assert err == f"error:semantic:unknown key {key!r} for anomaly {variant!r}\n"
        assert list(tmp_path.iterdir()) == []
        spec = json.dumps({"n_spokes": 64, "anomaly": {
            "type": variant, **{f: 1 for f in VARIANT_SCHEMA[variant].fields}, key: 1}})
        assert run(capsys, "check", "--spec", spec) == (1, "", err)

    @pytest.mark.parametrize("flags,branches", [
        (("--anomaly", "extra_edge", "--u", "1", "--v", "2", "--n-list", "3,4,5,6,7"),
         {"-1.0471975512": "1", "0": "1", "1.0471975512": "1", "3.14159265359": "2"}),
        (("--anomaly", "missing_loop", "--at", "1", "--phase-rad", "0.7", "--n-list", "3,4,5,6"),
         {"-2.09439510239": "1", "-1.22079632679": "1", "0": "2", "1.92079632679": "1",
          "2.09439510239": "1"})])
    def test_tiny_sizes_pair_by_structure(self, capsys, tmp_path, flags, branches):
        # at N = 3 two branches' eigenvectors overlap a cluster almost
        # equally; the pairing by structure does not read overlaps, and
        # every size gives each branch its multiplicity
        code, _, err = run(capsys, "perturb", *flags, "--out", str(tmp_path / "p.csv"))
        assert (code, err) == (0, "")
        rows = list(csv.DictReader((tmp_path / "p.csv").open()))
        sizes = flags[flags.index("--n-list") + 1].split(",")
        for n in sizes:
            got = Counter((r["branch_theta0"], r["multiplicity0"]) for r in rows if r["N"] == n)
            assert got == {(theta, m): int(m) for theta, m in branches.items()}
        fits = list(csv.DictReader((tmp_path / "p-fits.csv").open()))
        assert [f["branch_theta0"] for f in fits] == list(branches)

    def test_repeated_size_is_refused(self, capsys, tmp_path):
        # a size given twice would be computed twice and weigh twice in the
        # fit; it is refused before any size is computed or file written
        with recorded(build_star) as built:
            code, out, err = run(capsys, "perturb", "--anomaly", "loop", "--at", "1",
                                 "--n-list", "64,64,128,256,512",
                                 "--out", str(tmp_path / "x.csv"))
        assert (code, out, built) == (1, "", [])
        assert err == "error:config:size list repeats a size: 64,64,128,256,512\n"
        assert list(tmp_path.iterdir()) == []


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

    def test_repeated_size_is_refused(self, capsys, tmp_path):
        # the size would be searched again and its row written twice
        spec = '{"n_spokes": 64, "anomaly": {"type": "loop", "at": 3}}'
        code, out, err = run(capsys, "sweep", "--spec", spec, "--n-list", "64,64,128",
                             "--out", str(tmp_path / "peaks.csv"))
        assert (code, out) == (1, "")
        assert err == "error:config:size list repeats a size: 64,64,128\n"
        assert list(tmp_path.iterdir()) == []

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
        monkeypatch.setattr(anomalywalk.stargraph, "physical_memory_bytes",
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

    def test_plain_star_rejected(self, capsys):
        code, _, err = run(capsys, "baseline", "--spec", PLAIN)
        assert code == 1
        assert err.startswith("error:nothing-to-find:")
