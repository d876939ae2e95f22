"""Summarise and compare result sets of bench/run.py.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

A result set is a file with one result per line: the last stdout line of
each run, for one workload and one --trace setting.  For each metric this
prints the number of runs, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median).  Given a second
set, it prints the change of each median and, for end-to-end metrics, the
verdict against the bound in BENCHMARK.json:

  worse      the new median is worse than the base by more than the bound
  unresolved a spread exceeds the bound, so the sets cannot be told apart
  ok         otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            for name, m in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return values


def summary(xs: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in argv]
    for name in sets[0]:
        rows = [summary(s[name]) for s in sets if name in s]
        line = "  ".join(f"n={len(s[name])} med={r[0]:.6g} q1={r[1]:.6g} "
                         f"q3={r[2]:.6g} spread={r[3]:.3f}"
                         for s, r in zip(sets, rows))
        if len(rows) == 2:
            base, new = rows
            change = (new[0] - base[0]) / base[0] if base[0] else float("nan")
            line += f"  change={change:+.3f}"
            if name in e2e:
                bound = e2e[name]["bound"]
                worse = change if e2e[name]["better"] == "lower" else -change
                if worse > bound:
                    line += "  worse"
                elif max(base[3], new[3]) > bound:
                    line += "  unresolved"
                else:
                    line += "  ok"
        print(f"{name:34s} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
