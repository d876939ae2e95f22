"""Command-line front end.

Verbs:
  check     validate a graph spec, print dimension and unitarity status
  evolve    write the per-step probability CSV for one walk
  search    run one search, write a JSON summary plus per-step CSV
  spectrum  write the eigenphase CSV of the reduced walk operator
  perturb   run the eigenphase-shift sweep, write shift and fit CSVs
  sweep     run searches across a size list, write the peak-step CSV
  baseline  classical adjacency-list query statistics as JSON

A spec argument is either a path to a JSON file or an inline JSON object
(anything starting with '{').  Every failure prints one line starting
with ``error:<category>:`` on stderr; exit status is 1 for validation
problems and 2 for numerical certification failures.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .collapse import reduce_seeds
from .errors import (
    AnomalyWalkError,
    ConfigurationError,
    NoPredictionError,
    SpecSemanticError,
    SpecSyntaxError,
)
from .perturb import (
    DEFAULT_SWEEP_SIZES,
    perturbation_sweep,
    write_fits_csv,
    write_shifts_csv,
)
from .search import (
    InitialStateKind,
    baseline_statistics,
    family_seeds,
    predicted_hitting_step,
    run_search,
    search_summary,
    write_per_step_csv,
)
from .spectral import dump_spectrum_csv, eigendecompose
from .stargraph import VARIANT_SCHEMA, Anomaly, PhaseAngle, StarGraph, build_star, parse_spec
from .stepop import build_step_operator, check_unitarity

_KIND_NAMES = ("minus", "plus", "inout", "loop_pi", "loop_third")


def _report(category: str, message) -> None:
    # messages can echo user text, which must not break the one-line contract
    sys.stderr.write(f"error:{category}:" + " ".join(str(message).splitlines()) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; remap to the validation status 1
    # and keep the machine-parsable prefix
    def error(self, message):
        self.print_usage(sys.stderr)
        _report("usage", message)
        raise SystemExit(1)


# tokens that argparse takes for option names but that read as negative numbers
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each negative number to the long option before it, as in --amp-in=-1e-3.

    argparse reads -1e-3, -inf or -0.5j as an option name, but reads the
    joined form as a value; every long option here but --help takes one.
    """
    joined: list[str] = []
    for token in argv:
        prev = joined[-1] if joined else ""
        if (prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
                and _NEGATIVE.match(token)):
            joined[-1] = f"{prev}={token}"
        else:
            joined.append(token)
    return joined


def _load_graph(spec_arg: str) -> StarGraph:
    if spec_arg.lstrip().startswith("{"):
        return parse_spec(spec_arg)
    try:
        text = Path(spec_arg).read_text(encoding="utf-8")
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


def _require_out(path_str: str) -> Path:
    path = Path(path_str)
    if not path.parent.exists():
        raise ConfigurationError(
            f"output directory {path.parent} does not exist")
    return path


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects a complex literal, got {text!r}") from None


def _parse_kind(args) -> InitialStateKind:
    if args.kind != "inout":  # argparse has checked the name against _KIND_NAMES
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
    return sizes


def _horizon(steps: int | None, graph: StarGraph) -> int:
    """The given horizon, or when none is given one bracketing the first peak.

    The evolution is nearly periodic, so a window much longer than the
    first peak lets a later revival win the argmax; with a closed-form
    prediction the window stops well before the next revival.
    """
    if steps is not None:
        return steps
    try:
        return 2 * predicted_hitting_step(graph) + 6
    except NoPredictionError:
        return int(4 * math.sqrt(graph.n_spokes)) + 10


def _emit_json(payload: dict, out: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _cmd_check(args) -> int:
    graph = _load_graph(args.spec)
    op = build_step_operator(graph)
    report = check_unitarity(op)
    status = "pass" if report.passed else "fail"
    print(f"dim={graph.hilbert_dim} unitary={status} "
          f"max_dev={report.max_deviation:.3e}")
    return 0 if report.passed else 2


def _cmd_evolve(args) -> int:
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    result = run_search(graph, kind, _horizon(args.steps, graph), method=args.method)
    write_per_step_csv(result, _require_out(args.out))
    return 0


def _cmd_search(args) -> int:
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    result = run_search(graph, kind, _horizon(args.max_steps, graph), method=args.method)
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    out = _require_out(args.out) if args.out else None
    _emit_json(search_summary(graph, kind, result), out)
    csv_path = None
    if args.per_step_out:
        csv_path = _require_out(args.per_step_out)
    elif out is not None:
        csv_path = out.with_name(out.stem + ".steps.csv")
    if csv_path is not None:
        write_per_step_csv(result, csv_path)
    return 0


def _cmd_spectrum(args) -> int:
    graph = _load_graph(args.spec)
    kind = _parse_kind(args)
    reduced = reduce_seeds(build_step_operator(graph), family_seeds(graph, kind))
    spectrum = eigendecompose(reduced)
    dump_spectrum_csv(spectrum, _require_out(args.out))
    print(f"dim={reduced.dim} branches={len(spectrum.eigenphases)}")
    return 0


def _anomaly_from_args(args) -> Anomaly:
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
    fields = VARIANT_SCHEMA[args.anomaly].fields
    return Anomaly.of(args.anomaly, phase, **{f: getattr(args, f) for f in fields})


def _cmd_perturb(args) -> int:
    if bool(args.spec) == bool(args.anomaly):
        raise ConfigurationError("provide exactly one of --spec or --anomaly")
    if args.spec:
        anomaly = _load_graph(args.spec).anomaly
    else:
        anomaly = _anomaly_from_args(args)
    sizes = _parse_sizes(args.n_list)
    out = _require_out(args.out)
    if args.fits_out:
        fits_out = _require_out(args.fits_out)
    else:
        fits_out = out.with_name(out.stem + "-fits" + out.suffix)
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
    graph = _load_graph(args.spec)
    stats = baseline_statistics(graph, args.trials, args.seed)
    try:
        predicted = predicted_hitting_step(graph)
    except NoPredictionError:
        predicted = None
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
    _emit_json(payload, _require_out(args.out) if args.out else None)
    return 0


def _add_spec(p) -> None:
    p.add_argument("--spec", required=True,
                   help="graph spec file path, or an inline JSON object")


def _add_kind(p, default: str = "minus") -> None:
    p.add_argument("--kind", choices=list(_KIND_NAMES), default=default,
                   help=f"start-state kind (default {default})")
    p.add_argument("--amp-out", default=None,
                   help="outgoing coefficient for --kind inout (complex literal)")
    p.add_argument("--amp-in", default=None,
                   help="incoming coefficient for --kind inout")


def _add_method(p, default: str) -> None:
    p.add_argument("--method", choices=["full", "reduced"], default=default,
                   help=f"evolution path (default {default})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="anomalywalk",
                     description="Quantum walks on star graphs with "
                                 "structural anomalies.")
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    p = sub.add_parser("check", help="validate a spec and certify unitarity")
    _add_spec(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("evolve", help="write the per-step probability CSV")
    _add_spec(p)
    _add_kind(p)
    p.add_argument("--steps", type=int, default=None,
                   help="number of steps (default scales with sqrt(N))")
    _add_method(p, "full")
    p.add_argument("--out", required=True, help="per-step CSV path")
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("search", help="run one search and summarize it")
    _add_spec(p)
    _add_kind(p)
    p.add_argument("--max-steps", type=int, default=None,
                   help="evolution horizon (default scales with sqrt(N))")
    _add_method(p, "full")
    p.add_argument("--out", default=None,
                   help="summary JSON path (stdout when omitted); the "
                        "per-step CSV lands next to it as <stem>.steps.csv")
    p.add_argument("--per-step-out", default=None,
                   help="explicit per-step CSV path")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("spectrum",
                       help="eigenphases of the reduced walk operator")
    _add_spec(p)
    _add_kind(p)
    p.add_argument("--out", required=True, help="spectrum CSV path")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("perturb",
                       help="eigenphase shifts against the infinite-size limit")
    p.add_argument("--spec", default=None,
                   help="take the anomaly from this spec (its size is ignored)")
    p.add_argument("--anomaly", choices=list(VARIANT_SCHEMA), default=None,
                   help="anomaly variant, placed at the default location")
    p.add_argument("--at", type=int, default=1, help="anomaly vertex (default 1)")
    p.add_argument("--u", type=int, default=1, help="extra-edge endpoint (default 1)")
    p.add_argument("--v", type=int, default=2, help="extra-edge endpoint (default 2)")
    p.add_argument("--phase-num", type=int, default=None,
                   help="marking phase numerator, units of pi")
    p.add_argument("--phase-den", type=int, default=None,
                   help="marking phase denominator, units of pi")
    p.add_argument("--phase-rad", type=float, default=None,
                   help="marking phase in radians")
    p.add_argument("--n-list", default=None,
                   help="comma-separated sizes (default 64..4096 powers of two)")
    p.add_argument("--out", required=True, help="shift CSV path")
    p.add_argument("--fits-out", default=None,
                   help="fit CSV path (default <out stem>-fits<ext>)")
    p.set_defaults(handler=_cmd_perturb)

    p = sub.add_parser("sweep", help="peak steps across a list of sizes")
    _add_spec(p)
    _add_kind(p)
    p.add_argument("--n-list", default=None,
                   help="comma-separated sizes (default 64..4096 powers of two)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="fixed horizon for every size (default per-size sqrt rule)")
    _add_method(p, "reduced")
    p.add_argument("--out", required=True, help="peak-step CSV path")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("baseline", help="classical adjacency-list statistics")
    _add_spec(p)
    p.add_argument("--trials", type=int, default=10000,
                   help="number of Monte Carlo shuffles (default 10000)")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed (default 0)")
    p.add_argument("--out", default=None,
                   help="statistics JSON path (stdout when omitted)")
    p.set_defaults(handler=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except AnomalyWalkError as exc:
        _report(exc.category, exc)
        return exc.exit_code
    except OSError as exc:
        _report("io", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
