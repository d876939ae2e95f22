"""Machine description and a memory-bandwidth reference.

    python3 bench/machine.py [--copy]

Prints one JSON object: CPU model, CPUs usable, cache sizes and, with
`--copy`, the measured copy bandwidth.  The benchmark runs this in a
process of its own so the large copy arrays never count toward a job's
peak RSS.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

COPY_REPEATS = 5


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict:
    """Per-instance unified or data cache sizes by level, in bytes."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def copy_gbps(nbytes: int) -> float:
    """Median GB/s of a plain array copy, counting read plus write bytes."""
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    rates = []
    for _ in range(COPY_REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def describe(copy: bool) -> dict:
    caches = cache_sizes()
    info = {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
    }
    if copy:
        # at least four times the last-level cache, so the copy streams
        # from memory rather than from cache
        llc = caches.get("L3") or caches.get("L2") or 64 << 20
        info["copy_array_bytes"] = 4 * llc
        info["copy_gbps"] = copy_gbps(4 * llc)
    return info


if __name__ == "__main__":
    print(json.dumps(describe("--copy" in sys.argv[1:])))
