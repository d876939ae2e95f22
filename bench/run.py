"""Layered benchmark of the anomalywalk CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed list of CLI jobs (see workloads.py), each in a
fresh interpreter, one after another: a closed loop with one client.
With --trace 0 it repeats whole passes until S seconds have gone by and
reports the end-to-end metrics.  With --trace 1 it runs one untraced pass
and one traced pass and reports the per-layer metrics.  Every job's
output is checked.  The last line of stdout is the result as JSON; the
line before it describes the machine and the jobs.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine
from layers import layer_metrics
from workloads import WORKLOADS, Job, Output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
VERBS = ("search", "evolve", "spectrum", "sweep", "perturb", "check", "baseline")
# import-only launches per run, on top of the one import in every job
IMPORT_LAUNCHES = 5
# a run must end within 180 s; stop short of that, whatever the program does
BUDGET_S = 170.0
ERROR_LINE = re.compile(r"error:[a-z_]+:")


class BudgetExceeded(Exception):
    pass


def unit(name: str) -> str:
    for suffix, u in (("_gbps", "GB/s"), ("_ns_per_amp", "ns"), ("_per_s", "1/s"),
                      ("_bytes", "B"), ("_mb", "MiB"), ("_s", "s")):
        if name.endswith(suffix):
            return u
    return "count"


class Launcher:
    """Runs child processes one at a time and reads each one's own rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        # users leave the thread cap unset; so does the benchmark
        self.env.pop("ANOMALY_WALK_THREADS", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.count = 0

    def run(self, argv: list[str], stem: Path) -> tuple[int, float, float]:
        """Exit status, wall seconds and peak RSS in MiB of one child."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BudgetExceeded("time budget spent before a launch")
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0 and time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"{argv[-1]} killed at the time budget")
        # ru_maxrss is in KiB on Linux
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def python(self, script: str, args: list[str], name: str) -> tuple[Path, int]:
        stem = self.work / name
        status, _, _ = self.run([sys.executable, str(HERE / script), *args], stem)
        return stem, status

    def import_only(self, probe: bool = False) -> dict:
        self.count += 1
        meta = self.work / f"import{self.count}.json"
        stem, status = self.python("job.py", [str(meta)] + ["--probe"] * probe,
                                   f"import{self.count}")
        if status != 0:
            raise RuntimeError(f"import-only launch failed: "
                               f"{Path(f'{stem}.err').read_text()[-500:]}")
        return json.loads(meta.read_text())


@dataclass
class JobResult:
    job: Job
    status: int
    wall_s: float
    rss_mib: float
    import_s: float | None
    spans: list
    failed: bool = False
    wrong: bool = False
    note: str = ""


@dataclass
class Pass:
    wall_s: float
    jobs: list[JobResult] = field(default_factory=list)

    def verb_s(self, verb: str) -> float:
        return sum(r.wall_s for r in self.jobs if r.job.verb == verb)


def judge(result: JobResult, stem: Path) -> None:
    """Mark a job failed if it did not succeed, wrong if its output is bad.

    A job that exits 1 or 2 with exactly one `error:<category>:` line on
    stderr kept the CLI's contract: it failed, but reported the failure
    correctly.  Any other non-zero exit, or a zero exit whose outputs do
    not pass the job's check, is also a wrong answer.
    """
    stdout = Path(f"{stem}.out").read_text(errors="replace")
    stderr = Path(f"{stem}.err").read_text(errors="replace").strip()
    if result.status == 0:
        try:
            problems = result.job.check(Output(stem=stem, stdout=stdout))
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
        result.failed = result.wrong = bool(problems)
        result.note = "; ".join(problems)
        return
    lines = stderr.splitlines()
    kept_contract = (result.status in (1, 2) and len(lines) == 1
                     and ERROR_LINE.match(lines[0]) is not None)
    result.failed = True
    result.wrong = not kept_contract
    result.note = f"exit {result.status}: {stderr[-300:]}"


def run_pass(launcher: Launcher, jobs: list[Job], pass_dir: Path,
             trace: bool) -> Pass:
    pass_dir.mkdir()
    for job in jobs:
        if job.spec is not None:
            (pass_dir / f"{job.name}.spec.json").write_text(json.dumps(job.spec))
    flags = ["--trace"] if trace else []
    launched = []
    start = time.perf_counter()
    for job in jobs:
        stem = pass_dir / job.name
        argv = [sys.executable, str(HERE / "job.py"), f"{stem}.meta.json",
                *flags, "--", *job.argv(stem)]
        launched.append((job, stem, *launcher.run(argv, stem)))
    result = Pass(wall_s=time.perf_counter() - start)
    # checks run after the clock stops
    for job, stem, status, wall, rss in launched:
        try:
            meta = json.loads(Path(f"{stem}.meta.json").read_text())
        except (OSError, ValueError):
            meta = {}
        r = JobResult(job=job, status=status, wall_s=wall, rss_mib=rss,
                      import_s=meta.get("import_s"), spans=meta.get("spans", []))
        judge(r, stem)
        result.jobs.append(r)
    return result


def measure(args, jobs: list[Job], work: Path) -> tuple[dict, list[Pass], dict]:
    launcher = Launcher(work, time.monotonic() + BUDGET_S)
    # the first launch compiles bytecode and warms the file cache; not timed
    probe = launcher.import_only(probe=True).get("probe", {})
    import_s = [launcher.import_only()["import_s"] for _ in range(IMPORT_LAUNCHES)]
    env = {"machine": machine.describe(copy=False), "jobs_saw": probe}
    if args.trace:
        plain = run_pass(launcher, jobs, work / "plain", trace=False)
        traced = run_pass(launcher, jobs, work / "traced", trace=True)
        # after the passes, so its 0.8 GB of arrays cannot disturb them
        stem, status = launcher.python("machine.py", ["--copy"], "machine")
        if status != 0:
            raise RuntimeError("bandwidth probe failed")
        env["machine"] = json.loads(Path(f"{stem}.out").read_text())
        passes = [plain, traced]
        metrics = layer_metrics([r.spans for r in traced.jobs])
        metrics.update({f"{verb}_s": plain.verb_s(verb) for verb in VERBS})
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics["machine.copy_gbps"] = env["machine"]["copy_gbps"]
    else:
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(run_pass(launcher, jobs, work / f"pass{len(passes)}",
                                   trace=False))
        import_s += [r.import_s for p in passes for r in p.jobs
                     if r.import_s is not None]
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(import_s),
            "peak_rss_mb": statistics.median(max(r.rss_mib for r in p.jobs)
                                             for p in passes),
        }
    return metrics, passes, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anomalywalk" / "cli.py").is_file():
        print(f"error: no anomalywalk sources at {SRC}", file=sys.stderr)
        return 1
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    # on SIGTERM, unwind like an interrupt: kill and reap the running job,
    # then remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, passes, env = measure(args, jobs, work)
    except (BudgetExceeded, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p.jobs]
    for r in results:
        if r.failed:
            print(f"job {r.job.name} failed ({'wrong' if r.wrong else 'reported'}): "
                  f"{r.note}")
    env.update(workload=args.workload, seed=args.seed, trace=args.trace,
               passes=[{"wall_s": p.wall_s,
                        "jobs": {r.job.name: {"wall_s": r.wall_s, "rss_mib": r.rss_mib,
                                              "import_s": r.import_s,
                                              "status": r.status}
                                 for r in p.jobs}} for p in passes])
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
