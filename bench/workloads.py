"""The benchmark's workloads: fixed lists of CLI jobs and their output checks.

A workload seed picks the anomaly positions and the baseline seed; the
program sees only the generated specs and flags.  Reference outputs live in
`refs/` and do not depend on the positions: spokes of a star are
interchangeable, so every reported probability is the same wherever the
anomaly sits (checked by `make_refs.py`, which also cross-checks the full
and reduced evolution paths).
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS = Path(__file__).resolve().parent / "refs"
PROB_TOL = 1e-9
PEAK_SLACK = 2
# integer columns must match exactly; every other column is a probability
# or phase compared within PROB_TOL
INT_COLUMNS = {"n", "N", "predicted_step", "peak_step", "multiplicity"}


@dataclass(frozen=True)
class Output:
    """What one finished job left behind."""
    stem: Path          # output path without extension
    stdout: str


@dataclass(frozen=True)
class Job:
    name: str
    verb: str
    spec: dict | None           # written to <stem>.spec.json, passed as --spec
    args: tuple[str, ...]       # "{stem}" expands to the output stem
    check: Callable[[Output], list[str]]

    def argv(self, stem: Path) -> list[str]:
        argv = [self.verb]
        if self.spec is not None:
            argv += ["--spec", f"{stem}.spec.json"]
        return argv + [a.replace("{stem}", str(stem)) for a in self.args]


def _spec(n: int, anomaly: dict) -> dict:
    return {"n_spokes": n, "anomaly": anomaly}


def predicted_step(variant: str, n: int) -> int:
    """Closed-form hitting step of the paper, for extra_edge and loop."""
    if variant == "extra_edge":
        return round(math.pi * math.sqrt(3.0 * n) / 4.0)
    return round((math.pi / 2.0) * math.sqrt(1.5 * n))


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def compare_csv(got_path: Path, ref_path: Path) -> list[str]:
    """Integer columns exactly, the rest within PROB_TOL."""
    try:
        got = read_rows(got_path)
    except OSError as exc:
        return [f"missing output {got_path.name}: {exc.strerror}"]
    ref = read_rows(ref_path)
    if len(got) != len(ref):
        return [f"{got_path.name}: {len(got)} rows, reference has {len(ref)}"]
    if got and list(got[0]) != list(ref[0]):
        return [f"{got_path.name}: columns {list(got[0])}, "
                f"reference has {list(ref[0])}"]
    for k, (g, r) in enumerate(zip(got, ref)):
        for col, want in r.items():
            have = g[col]
            if col in INT_COLUMNS:
                if have != want:
                    return [f"{got_path.name} row {k} {col}={have}, "
                            f"reference {want}"]
            elif abs(float(have) - float(want)) > PROB_TOL:
                return [f"{got_path.name} row {k} {col}={have}, "
                        f"reference {want}"]
    return []


def _first_peak(rows: list[dict], horizon: int) -> int:
    scores = [float(r["p_target_spokes"]) + float(r["p_anomaly"])
              for r in rows[:horizon + 1]]
    return scores.index(max(scores))


def check_evolve(ref: str, variant: str, n: int):
    def check(out: Output) -> list[str]:
        problems = compare_csv(out.stem.with_suffix(".csv"), REFS / f"{ref}.csv")
        if problems or variant not in ("extra_edge", "loop"):
            return problems
        pred = predicted_step(variant, n)
        # the CLI's default horizon brackets the first peak the same way
        peak = _first_peak(read_rows(out.stem.with_suffix(".csv")), 2 * pred + 6)
        if abs(peak - pred) > PEAK_SLACK:
            return [f"first peak {peak} is more than {PEAK_SLACK} steps "
                    f"from the closed form {pred}"]
        return []
    return check


def check_search(ref: str, variant: str, n: int):
    def check(out: Output) -> list[str]:
        try:
            summary = json.loads(out.stem.with_suffix(".json").read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable search summary: {exc}"]
        want = json.loads((REFS / f"{ref}.json").read_text())
        problems = []
        for key in ("predicted_step", "peak_step"):
            if summary.get(key) != want[key]:
                problems.append(f"{key}={summary.get(key)}, reference {want[key]}")
        for key in ("peak_detectable", "peak_undetected"):
            if abs(summary.get(key, math.inf) - want[key]) > PROB_TOL:
                problems.append(f"{key}={summary.get(key)}, reference {want[key]}")
        pred = predicted_step(variant, n)
        if abs(summary.get("peak_step", -99) - pred) > PEAK_SLACK:
            problems.append(f"peak {summary.get('peak_step')} is more than "
                            f"{PEAK_SLACK} steps from the closed form {pred}")
        return problems + compare_csv(out.stem.with_suffix(".steps.csv"),
                                      REFS / f"{ref}.steps.csv")
    return check


def check_sweep(ref: str, variant: str):
    def check(out: Output) -> list[str]:
        path = out.stem.with_suffix(".csv")
        problems = compare_csv(path, REFS / f"{ref}.csv")
        if problems:
            return problems
        for row in read_rows(path):
            pred = predicted_step(variant, int(row["N"]))
            if (int(row["predicted_step"]) != pred
                    or abs(int(row["peak_step"]) - pred) > PEAK_SLACK):
                problems.append(f"N={row['N']}: peak {row['peak_step']}, "
                                f"prediction {row['predicted_step']}, "
                                f"closed form {pred}")
        return problems
    return check


def check_spectrum(ref: str):
    def check(out: Output) -> list[str]:
        want = json.loads((REFS / f"{ref}.json").read_text())["stdout"]
        if out.stdout.strip() != want:
            return [f"stdout {out.stdout.strip()!r}, reference {want!r}"]
        return compare_csv(out.stem.with_suffix(".csv"), REFS / f"{ref}.csv")
    return check


def check_perturb(out: Output) -> list[str]:
    """Slopes in the bands of acceptance criterion 8.

    Degenerate limit branches (multiplicity >= 2) must split like N^-1/2;
    simple ones like N^-1 or not at all (below the shift floor).
    """
    shifts = out.stem.with_suffix(".csv")
    fits = out.stem.with_name(out.stem.name + "-fits.csv")
    try:
        mult = {r["branch_theta0"]: int(r["multiplicity0"])
                for r in read_rows(shifts)}
        fit_rows = read_rows(fits)
    except OSError as exc:
        return [f"missing perturb output: {exc.strerror}"]
    if not fit_rows:
        return ["no fits written"]
    problems = []
    for row in fit_rows:
        theta = row["branch_theta0"]
        floor = int(row["points_used"]) == 0
        slope = float(row["slope"])
        if theta not in mult:
            problems.append(f"fit branch {theta} has no shifts")
        elif mult[theta] >= 2:
            if floor or abs(slope + 0.5) > 0.1:
                problems.append(f"degenerate branch {theta}: slope {row['slope']}")
        elif not (floor or abs(slope + 1.0) <= 0.15):
            problems.append(f"simple branch {theta}: slope {row['slope']}")
    return problems


def check_unitary(dim: int):
    def check(out: Output) -> list[str]:
        if not re.fullmatch(rf"dim={dim} unitary=pass max_dev=\S+",
                            out.stdout.strip()):
            return [f"check printed {out.stdout.strip()!r}"]
        return []
    return check


def check_baseline(n: int, k: int, trials: int):
    def check(out: Output) -> list[str]:
        try:
            stats = json.loads(out.stdout)
        except ValueError:
            return [f"baseline printed {out.stdout[:80]!r}"]
        expected = (n + 1) / (k + 1)
        mean = stats.get("mean_queries", math.nan)
        if stats.get("trials") != trials or not abs(mean - expected) <= 0.05 * expected:
            return [f"baseline mean {mean} over {stats.get('trials')} trials, "
                    f"expected {expected:.2f} within 5%"]
        return []
    return check


def full_walk(rng: random.Random) -> list[Job]:
    n = 100_000
    u, v = rng.sample(range(1, n + 1), 2)
    return [
        Job("search_extra_edge", "search",
            _spec(n, {"type": "extra_edge", "u": u, "v": v}),
            ("--method", "full", "--out", "{stem}.json"),
            check_search("search_extra_edge", "extra_edge", n)),
        Job("evolve_loop", "evolve",
            _spec(n, {"type": "loop", "at": rng.randint(1, n)}),
            ("--method", "full", "--steps", "2400", "--out", "{stem}.csv"),
            check_evolve("evolve_loop", "loop", n)),
        Job("evolve_missing_loop", "evolve",
            _spec(n, {"type": "missing_loop", "at": rng.randint(1, n)}),
            ("--method", "full", "--kind", "loop_pi", "--steps", "1200",
             "--out", "{stem}.csv"),
            check_evolve("evolve_missing_loop", "missing_loop", n)),
    ]


def reduced_large(rng: random.Random) -> list[Job]:
    n = 1_000_000
    at = rng.randint(1, n)
    # sweep endpoints must exist at the smallest size of the list
    u, v = rng.sample(range(1, 1001), 2)
    return [
        Job("spectrum_loop", "spectrum",
            _spec(n, {"type": "loop", "at": at}),
            ("--out", "{stem}.csv"),
            check_spectrum("spectrum_loop")),
        Job("sweep_extra_edge", "sweep",
            _spec(1000, {"type": "extra_edge", "u": u, "v": v}),
            ("--method", "reduced", "--n-list", "1000,10000,100000",
             "--out", "{stem}.csv"),
            check_sweep("sweep_extra_edge", "extra_edge")),
    ]


def small_n(rng: random.Random) -> list[Job]:
    # positions must exist at the smallest default perturb size, 64
    u, v = rng.sample(range(1, 65), 2)
    jobs = [Job("perturb_none", "perturb", None,
                ("--anomaly", "none", "--out", "{stem}.csv"), check_perturb),
            Job("perturb_extra_edge", "perturb", None,
                ("--anomaly", "extra_edge", "--u", str(u), "--v", str(v),
                 "--out", "{stem}.csv"), check_perturb)]
    for variant in ("loop", "extended_edge", "missing_loop"):
        jobs.append(Job(f"perturb_{variant}", "perturb", None,
                        ("--anomaly", variant, "--at", str(rng.randint(1, 64)),
                         "--out", "{stem}.csv"), check_perturb))
    n_base, trials = 10_000, 20_000
    bu, bv = rng.sample(range(1, n_base + 1), 2)
    return jobs + [
        Job("sweep_loop", "sweep",
            _spec(64, {"type": "loop", "at": rng.randint(1, 64)}),
            ("--out", "{stem}.csv"),
            check_sweep("sweep_loop", "loop")),
        Job("check_missing_loop", "check",
            _spec(1000, {"type": "missing_loop", "at": rng.randint(1, 1000)}),
            (), check_unitary(3000)),
        Job("baseline_extra_edge", "baseline",
            _spec(n_base, {"type": "extra_edge", "u": bu, "v": bv}),
            ("--trials", str(trials), "--seed", str(rng.randrange(2**31))),
            check_baseline(n_base, 2, trials)),
    ]


WORKLOADS = {"full_walk": full_walk, "reduced_large": reduced_large,
             "small_n": small_n}
