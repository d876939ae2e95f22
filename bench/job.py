"""Launch one anomalywalk CLI job in this fresh interpreter.

    python3 bench/job.py META [--trace] [--probe] [-- CLI-ARGS...]

Times the import of `anomalywalk.cli`, optionally installs the span
recorder, runs `cli.main(CLI-ARGS)` and exits with its status.  With no
CLI arguments the job only imports (an import-only launch).  `--probe`
also records the thread and BLAS settings this process sees.  META
receives a JSON record (import time, spans, probe) when the job ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

_THREAD_VARS = ("ANOMALY_WALK_THREADS", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_threads():
    """Threads the numpy-bundled OpenBLAS will use, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _probe() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "cpu_count": os.cpu_count(),
        "env": {name: os.environ.get(name) for name in _THREAD_VARS},
    }


def main(argv: list[str]) -> int:
    meta_path, flags = argv[0], argv[1:]
    cli_args: list[str] = []
    if "--" in flags:
        cut = flags.index("--")
        flags, cli_args = flags[:cut], flags[cut + 1:]
    record: dict = {}
    status = 0
    try:
        start = time.perf_counter()
        import anomalywalk.cli as cli
        record["import_s"] = time.perf_counter() - start
        if "--probe" in flags:
            record["probe"] = _probe()
        tracer = None
        if "--trace" in flags:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        if cli_args:
            try:
                status = cli.main(cli_args)
            finally:
                if tracer is not None:
                    record["spans"] = tracer.spans
    finally:
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
