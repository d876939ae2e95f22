"""Command-line front end: `anomalywalk VERB [--flag VALUE ...]`.

One table, `_VERBS`, gives each verb's handler, help line and flags: it
parses argv, prints `--help` and words every usage error.

A spec argument is either a path to a JSON file or an inline JSON object
(anything starting with '{').  Every failure prints one line starting
with ``error:<category>:`` on stderr; exit status is 1 for validation
problems and 2 for numerical certification failures.

Each verb's handler imports the package modules the verb runs, so a
launch loads, and compiles, no module its verb does not run.
"""

import gc
import json
import math
import os
import sys
from types import SimpleNamespace

from .errors import (
    AnomalyWalkError,
    ConfigurationError,
    SpecSemanticError,
    SpecSyntaxError,
)
from .stargraph import (
    DEFAULT_SWEEP_SIZES,
    VARIANT_SCHEMA,
    Anomaly,
    PhaseAngle,
    StarGraph,
    build_star,
    check_anomaly_keys,
    parse_spec,
)

_KIND_NAMES = ("minus", "plus", "inout", "loop_pi", "loop_third")


def _report(category: str, message) -> None:
    # messages can echo user text, which must not break the one-line contract
    sys.stderr.write(f"error:{category}:" + " ".join(str(message).splitlines()) + "\n")


def _load_graph(spec_arg: str) -> StarGraph:
    if spec_arg.lstrip().startswith("{"):
        return parse_spec(spec_arg)
    try:
        with open(spec_arg, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read spec file {spec_arg}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL in the path, or text that is not UTF-8
        raise ConfigurationError(
            f"cannot read spec file {spec_arg}: {exc}") from None
    try:
        return parse_spec(text)
    except SpecSyntaxError as exc:
        err = SpecSyntaxError(f"{spec_arg}: {exc}")
        err.line, err.column = exc.line, exc.column
        raise err from None
    except SpecSemanticError as exc:
        raise SpecSemanticError(f"{spec_arg}: {exc}") from None


def _output_path(path_str: str) -> str:
    """The path, refused when it holds a NUL byte, which no file name can."""
    if "\0" in path_str:
        raise ConfigurationError(f"output path {path_str!r} holds a NUL byte")
    return path_str


def _require_out(path_str: str) -> str:
    parent = os.path.dirname(_output_path(path_str)) or "."
    if not os.path.exists(parent):
        raise ConfigurationError(f"output directory {parent} does not exist")
    return path_str


def _require_distinct(out: str, other: str, flag: str) -> None:
    """Refuse two output paths that resolve to one file, where one write
    would overwrite the other."""
    if os.path.realpath(_output_path(out)) == os.path.realpath(_output_path(other)):
        raise ConfigurationError(f"--out and {flag} name the same file {other}")


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects a complex literal, got {text!r}") from None


def _parse_kind(args):
    from .search import InitialStateKind
    if args.kind != "inout":  # the parse has checked the name against _KIND_NAMES
        return getattr(InitialStateKind, args.kind)()
    if args.amp_out is None or args.amp_in is None:
        raise ConfigurationError("kind inout requires --amp-out and --amp-in")
    return InitialStateKind.inout(_parse_complex(args.amp_out, "--amp-out"),
                                  _parse_complex(args.amp_in, "--amp-in"))


def _parse_sizes(text: str | None) -> tuple[int, ...]:
    if text is None:
        return DEFAULT_SWEEP_SIZES
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(
            f"--n-list expects comma-separated integers, got {text!r}") from None
    if not sizes:
        raise ConfigurationError("--n-list is empty")
    if len(set(sizes)) < len(sizes):  # as `perturbation_sweep` refuses it
        raise ConfigurationError(f"size list repeats a size: {','.join(map(str, sizes))}")
    return sizes


def _horizon(steps: int | None, graph: StarGraph) -> int:
    """The given horizon, or when none is given one bracketing the first peak.

    The evolution is nearly periodic, so a window much longer than the
    first peak lets a later revival win the argmax; with a closed-form
    prediction the window stops well before the next revival.
    """
    from .search import predicted_step
    if steps is not None:
        return steps
    predicted = predicted_step(graph)
    return int(4 * math.sqrt(graph.n_spokes)) + 10 if predicted is None else 2 * predicted + 6


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    from .numerics import require_within
    from .stepop import build_step_operator, check_unitarity
    graph = _load_graph(args.spec)
    op = build_step_operator(graph)
    report = check_unitarity(op)
    status = "pass" if report.passed else "fail"
    print(f"dim={graph.hilbert_dim} unitary={status} "
          f"max_dev={report.max_deviation:.3e}")
    require_within("unitarity deviation {value:.3e} exceeds tolerance {tol:.1e}",
                   report.max_deviation, report.tolerance)
    return 0


def _cmd_evolve(args) -> int:
    from .search import run_search, write_per_step_csv
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    out = _require_out(args.out)
    result = run_search(graph, kind, _horizon(args.steps, graph), method=args.method)
    write_per_step_csv(result, out)
    return 0


def _cmd_search(args) -> int:
    from .search import run_search, search_summary, write_per_step_csv
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    if args.out and args.per_step_out:
        _require_distinct(args.out, args.per_step_out, "--per-step-out")
    out = _require_out(args.out) if args.out else None
    csv_path = None
    if args.per_step_out:
        csv_path = _require_out(args.per_step_out)
    elif out is not None:
        csv_path = os.path.splitext(out)[0] + ".steps.csv"
    result = run_search(graph, kind, _horizon(args.max_steps, graph), method=args.method)
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    _emit_json(search_summary(graph, kind, result), out)
    if csv_path is not None:
        write_per_step_csv(result, csv_path)
    return 0


def _cmd_spectrum(args) -> int:
    from .collapse import cells_operator
    from .search import family_seeds
    from .spectral import dump_spectrum_csv, secular_spectrum
    from .stepop import build_scattering_operator
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    out = _require_out(args.out)
    cells, seeds = family_seeds(graph, kind)
    reflection = cells_operator(build_scattering_operator(graph, 1.0, 0.0), cells)
    spectrum = secular_spectrum(reflection, cells.uniform(1), len(cells.blocks), family=seeds)
    dump_spectrum_csv(spectrum, out)
    print(f"dim={sum(spectrum.multiplicities)} branches={len(spectrum.eigenphases)}")
    return 0


# perturb's anomaly flags, as their spec keys
_ANOMALY_KEYS = ("at", "u", "v", "phase_num", "phase_den", "phase_rad")


def _anomaly_from_args(args, given: list[str]) -> Anomaly:
    check_anomaly_keys(args.anomaly, given)
    phase = None
    if args.phase_num is not None or args.phase_den is not None:
        if args.phase_num is None or args.phase_den is None:
            raise ConfigurationError(
                "--phase-num and --phase-den must be given together")
        if args.phase_rad is not None:
            raise ConfigurationError(
                "give the phase as a fraction of pi or in radians, not both")
        phase = PhaseAngle.from_pi_fraction(args.phase_num, args.phase_den)
    elif args.phase_rad is not None:
        phase = PhaseAngle.from_radians(args.phase_rad)
    schema = VARIANT_SCHEMA[args.anomaly]
    vertices = {f: getattr(args, f) if f in given else default
                for f, default in zip(schema.fields, schema.defaults)}
    return Anomaly.of(args.anomaly, phase, **vertices)


def _cmd_perturb(args) -> int:
    from .perturb import perturbation_sweep, write_fits_csv, write_shifts_csv
    if bool(args.spec) == bool(args.anomaly):
        raise ConfigurationError("provide exactly one of --spec or --anomaly")
    given = [key for key in _ANOMALY_KEYS if getattr(args, key) is not None]
    if args.spec:
        if given:
            raise ConfigurationError(
                f"--{given[0].replace('_', '-')} cannot be given with --spec, "
                f"which gives the anomaly")
        anomaly = _load_graph(args.spec).anomaly
    else:
        anomaly = _anomaly_from_args(args, given)
    sizes = _parse_sizes(args.n_list)
    out = _require_out(args.out)
    if args.fits_out:
        _require_distinct(args.out, args.fits_out, "--fits-out")
        fits_out = _require_out(args.fits_out)
    else:
        root, ext = os.path.splitext(out)
        fits_out = f"{root}-fits{ext}"
    sweep = perturbation_sweep(anomaly, sizes)
    write_shifts_csv(sweep.samples, out)
    write_fits_csv(sweep.fits, fits_out)
    for fit in sweep.fits:
        if fit.below_floor:
            print(f"branch={fit.branch_theta0:.6f} below-floor "
                  f"excluded={fit.excluded}")
        else:
            print(f"branch={fit.branch_theta0:.6f} slope={fit.slope:.4f} "
                  f"r2={fit.r_squared:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    from .search import run_search
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    sizes = _parse_sizes(args.n_list)
    out = _require_out(args.out)

    rows = []
    for n in sizes:
        sized = build_star(n, graph.anomaly)
        steps = _horizon(args.max_steps, sized)
        rows.append((n, run_search(sized, kind, steps, method=args.method)))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("N,predicted_step,peak_step,peak_detectable,peak_undetected\n")
        for n, res in rows:
            pred = "" if res.predicted_step is None else res.predicted_step
            fh.write(f"{n},{pred},{res.peak_step},"
                     f"{res.peak_detectable:.12g},{res.peak_undetected:.12g}\n")
    return 0


def _cmd_baseline(args) -> int:
    from .search import baseline_statistics, predicted_step
    graph = _load_graph(args.spec)
    out = _require_out(args.out) if args.out else None
    stats = baseline_statistics(graph, args.trials, args.seed)
    predicted = predicted_step(graph)
    ratio = predicted / stats.mean if predicted is not None and stats.mean else None
    payload = {
        "n_spokes": graph.n_spokes,
        "anomaly": graph.anomaly.variant,
        "trials": stats.trials,
        "seed": args.seed,
        "mean_queries": stats.mean,
        "std_queries": stats.std,
        "expected_mean": stats.expected_mean,
        "predicted_quantum_step": predicted,
        "quantum_classical_ratio": ratio,
    }
    _emit_json(payload, out)
    return 0


def _flag(name: str, help: str, convert=None, default=None, required=False, choices=None):
    # convert is int, float or None to keep the text; choices None takes any
    return name, convert, default, required, choices, help


_SPEC = _flag("--spec", "graph spec file path, or an inline JSON object", required=True)
_KIND = (_flag("--kind", "start-state kind (default minus)", default="minus",
               choices=_KIND_NAMES),
         _flag("--amp-out", "outgoing coefficient for --kind inout (complex literal)"),
         _flag("--amp-in", "incoming coefficient for --kind inout"))
_N_LIST = _flag("--n-list", "comma-separated sizes (default 64..4096 powers of two)")


def _method(default: str):
    return _flag("--method", f"evolution path (default {default})", default=default,
                 choices=("full", "reduced"))


# each verb's handler, help line and flags, in the order the help lists them
_VERBS = {
    "check": (_cmd_check, "validate a spec and certify unitarity", (_SPEC,)),
    "evolve": (_cmd_evolve, "write the per-step probability CSV", (
        _SPEC, *_KIND,
        _flag("--steps", "number of steps (default scales with sqrt(N))", int),
        _method("full"),
        _flag("--out", "per-step CSV path", required=True))),
    "search": (_cmd_search, "run one search and summarize it", (
        _SPEC, *_KIND,
        _flag("--max-steps", "evolution horizon (default scales with sqrt(N))", int),
        _method("full"),
        _flag("--out", "summary JSON path (stdout when omitted); the per-step CSV "
                       "lands next to it as <stem>.steps.csv"),
        _flag("--per-step-out", "explicit per-step CSV path"))),
    "spectrum": (_cmd_spectrum, "eigenphases of the reduced walk operator", (
        _SPEC, *_KIND,
        _flag("--out", "spectrum CSV path", required=True))),
    "perturb": (_cmd_perturb, "eigenphase shifts against the infinite-size limit", (
        _flag("--spec", "take the anomaly from this spec (its size is ignored)"),
        _flag("--anomaly", "anomaly variant, placed at the default location",
              choices=tuple(VARIANT_SCHEMA)),
        _flag("--at", "anomaly vertex for --anomaly (default 1)", int),
        _flag("--u", "extra-edge endpoint for --anomaly (default 1)", int),
        _flag("--v", "extra-edge endpoint for --anomaly (default 2)", int),
        _flag("--phase-num", "marking phase numerator, units of pi", int),
        _flag("--phase-den", "marking phase denominator, units of pi", int),
        _flag("--phase-rad", "marking phase in radians", float),
        _N_LIST,
        _flag("--out", "shift CSV path", required=True),
        _flag("--fits-out", "fit CSV path (default <out stem>-fits<ext>)"))),
    "sweep": (_cmd_sweep, "peak steps across a list of sizes", (
        _SPEC, *_KIND, _N_LIST,
        _flag("--max-steps", "fixed horizon for every size (default per-size sqrt rule)", int),
        _method("reduced"),
        _flag("--out", "peak-step CSV path", required=True))),
    "baseline": (_cmd_baseline, "classical adjacency-list statistics", (
        _SPEC,
        _flag("--trials", "number of Monte Carlo shuffles (default 10000)", int, 10000),
        _flag("--seed", "random seed (default 0)", int, 0),
        _flag("--out", "statistics JSON path (stdout when omitted)"))),
}
_HELP = ("-h", "--help")


def _usage(message: str, prog: str) -> SystemExit:
    _report("usage", f"{message} (see {prog} --help)")
    return SystemExit(1)


def _help(usage: str, about: str, rows) -> SystemExit:
    print(f"usage: {usage}\n\n{about}\n")
    print("\n".join(f"  {left:22} {text}" if len(left) <= 22 else f"  {left}\n{'':25}{text}"
                    for left, text in rows))
    return SystemExit(0)


def _metavar(name: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else name[2:].upper().replace("-", "_")


def _parse(argv: list[str]):
    """The verb's handler and its flags' values, read from argv by `_VERBS`.

    A flag takes `--flag value` or `--flag=value`: the value is the next
    token unless it starts with '--', so a negative number needs no '='.
    A repeated flag keeps its last value; help and usage errors raise SystemExit.
    """
    verb = argv[0] if argv else None
    if verb in _HELP:
        raise _help("anomalywalk [-h] verb [--flag VALUE ...]",
                    "Quantum walks on star graphs with structural anomalies.",
                    [(name, about) for name, (_, about, _) in _VERBS.items()]
                    + [("-h, --help", "show this help; after a verb, the verb's flags")])
    if verb not in _VERBS:
        raise _usage("the following arguments are required: verb" if verb is None else
                     f"argument verb: invalid choice: {verb!r} "
                     f"(choose from {', '.join(map(repr, _VERBS))})",
                     "anomalywalk")
    handler, about, flags = _VERBS[verb]
    prog = f"anomalywalk {verb}"
    table = {flag[0]: flag for flag in flags}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            raise _help(f"{prog} [-h] [--flag VALUE ...]", about,
                        [("-h, --help", "show this help")]
                        + [(f"{name} {_metavar(name, choices)}", text + " (required)" * required)
                           for name, _, _, required, choices, text in flags])
        name, joined, value = token.partition("=")
        if name not in table:
            raise _usage(f"unrecognized arguments: {token}", prog)
        if not joined:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _usage(f"argument {name}: expected one argument", prog)
        _, convert, _, _, choices, _ = table[name]
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                raise _usage(f"argument {name}: invalid {convert.__name__} value: {value!r}",
                             prog) from None
        if choices is not None and value not in choices:
            raise _usage(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})", prog)
        values[name] = value
    missing = [name for name, _, _, required, _, _ in flags if required and name not in values]
    if missing:
        raise _usage(f"the following arguments are required: {', '.join(missing)}", prog)
    return handler, SimpleNamespace(**{name[2:].replace("-", "_"): values.get(name, default)
                                       for name, _, default, _, _, _ in flags})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return handler(args)
    except AnomalyWalkError as exc:
        _report(exc.category, exc)
        return exc.exit_code
    except OSError as exc:
        _report("io", exc)
        return 1


# Every object the collector tracks once the import is done (those of the
# standard library's modules and the few package modules imported above,
# some 11,800, of which `site`'s preloads are 3,000) moves to its permanent
# generation, so neither a verb's collections nor the interpreter's shutdown
# walks them or tears down their cycles.  Only the CLI, whose process ends
# with its verb, does this: an import of the package alone leaves the
# collector as it was.  Each verb then imports the modules it runs, which
# the freeze does not cover: 600 to 900 objects more.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
