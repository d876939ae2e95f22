"""Regenerate the reference outputs in bench/refs/.

    python3 bench/make_refs.py

Each reference comes from one evolution method at the anomaly positions
of workload seed 0.  It is kept only if (a) the same method at the
positions of seed 1 passes the benchmark's own output check against it,
and (b) the other method (full against reduced evolution) at those
positions matches every integer column and comes within CROSS_TOL on the
probabilities.  CROSS_TOL is looser than the benchmark's 1e-9 because
the reduced path is the less exact one: its small operator is unitary
only to about 1e-12, so over the 2400-step loop evolution its total
probability drifts by 2.8e-9 while the full path's drifts by 4e-13.
The N=1e6 spectrum has a single (reduced) path; its reference is taken
at vertex 999999, one of the positions where eigendecompose passes its
orthonormal-frame check.  Takes about two minutes and 1.2 GB of memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from workloads import INT_COLUMNS, REFS, WORKLOADS, Job, Output, read_rows

ROOT = Path(__file__).resolve().parent.parent
# reference job -> the method it is cross-checked against
CROSS = {
    "search_extra_edge": "reduced",
    "evolve_loop": "reduced",
    "evolve_missing_loop": "reduced",
    "sweep_extra_edge": "full",
    "sweep_loop": "full",
}
SPECTRUM_AT = 999_999
CROSS_TOL = 1e-8


def _run(job: Job, stem: Path) -> Output:
    from anomalywalk import cli

    if job.spec is not None:
        Path(f"{stem}.spec.json").write_text(json.dumps(job.spec))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(job.argv(stem))
    if status != 0:
        raise SystemExit(f"{job.name} exited {status}")
    return Output(stem=stem, stdout=buf.getvalue())


def _with_method(job: Job, method: str) -> Job:
    args = list(job.args)
    if "--method" in args:
        args[args.index("--method") + 1] = method
    else:
        args += ["--method", method]
    return replace(job, args=tuple(args))


def _deviation(got: Path, ref: Path) -> float:
    """Largest probability difference; infinite if an integer differs."""
    rows = list(zip(read_rows(got), read_rows(ref), strict=True))
    worst = 0.0
    for g, r in rows:
        for col, want in r.items():
            if col in INT_COLUMNS:
                if g[col] != want:
                    return float("inf")
            else:
                worst = max(worst, abs(float(g[col]) - float(want)))
    return worst


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    REFS.mkdir(exist_ok=True)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        for make in WORKLOADS.values():
            alt = {j.name: j for j in make(random.Random(1))}
            for job in make(random.Random(0)):
                if job.name in CROSS:
                    out = _run(job, tmp / job.name)
                    for path in tmp.glob(f"{job.name}.*"):
                        if not path.name.endswith(".spec.json"):
                            shutil.copy(path, REFS / path.name)
                    if job.verb == "search":
                        summary = json.loads((REFS / f"{job.name}.json").read_text())
                        keep = ("predicted_step", "peak_step", "peak_detectable",
                                "peak_undetected")
                        (REFS / f"{job.name}.json").write_text(json.dumps(
                            {k: summary[k] for k in keep}, indent=1) + "\n")
                    for got in (out, _run(alt[job.name], tmp / "alt")):
                        problems = job.check(got)
                        if problems:
                            raise SystemExit(f"{job.name}: {problems}")
                    method = CROSS[job.name]
                    _run(_with_method(alt[job.name], method), tmp / "cross")
                    csv = ".steps.csv" if job.verb == "search" else ".csv"
                    dev = _deviation(tmp / f"cross{csv}", REFS / f"{job.name}{csv}")
                    if dev > CROSS_TOL:
                        raise SystemExit(f"{job.name}: {method} method deviates "
                                         f"by {dev:.3e}")
                    print(f"{job.name}: reference written, {method} method "
                          f"within {dev:.2e}", flush=True)
                elif job.name == "spectrum_loop":
                    spec = dict(job.spec, anomaly=dict(job.spec["anomaly"],
                                                       at=SPECTRUM_AT))
                    out = _run(replace(job, spec=spec), tmp / job.name)
                    shutil.copy(tmp / f"{job.name}.csv", REFS / f"{job.name}.csv")
                    (REFS / f"{job.name}.json").write_text(json.dumps(
                        {"stdout": out.stdout.strip()}) + "\n")
                    print(f"{job.name}: reference written", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
