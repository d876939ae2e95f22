"""In-memory span recorder that wraps the public functions of anomalywalk.

Spans are recorded from outside the package: `install` replaces every
module-level reference to a traced function, aliases included (for
example `apply_into` as imported into `search`, `collapse` and
`perturb`), with a timing wrapper.  Nothing inside `src/` is edited.

Each thread keeps its own span stack, so spans of the size-sweep thread
pools nest under the span that submitted the work rather than under
whatever the other worker happened to be running.  Spans stay in memory
and are written out by the job when it ends.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import inspect
import itertools
import threading
import time

# Module names double as layer names.  `numerics` and `errors` do no
# timed work and are left alone.
LAYERS = ("cli", "stargraph", "edgespace", "stepop", "collapse", "spectral",
          "search", "perturb")


def _apply_info(args, kwargs, result):
    # compulsory traffic of one step: read x, write out, read the three
    # singleton arrays (source index, destination index, amplitude)
    op, x, out = args[:3]
    return {"amps": x.size,
            "bytes": (x.nbytes + out.nbytes + op.perm_src.nbytes
                      + op.perm_dst.nbytes + op.perm_amp.nbytes)}


def _closure_info(args, kwargs, result):
    return {"dim": result.dim}


def _search_info(args, kwargs, result):
    full = kwargs.get("method", "full") == "full"
    return {"steps_full": args[2] if full else 0}


def _baseline_info(args, kwargs, result):
    return {"trials": args[1]}


# extra numbers recorded per call, computed from arguments and result
_INFO = {
    "stepop.apply_into": _apply_info,
    "stepop.apply_adjoint_into": _apply_info,
    "collapse.invariant_basis": _closure_info,
    "search.run_search": _search_info,
    "search.baseline_statistics": _baseline_info,
}


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, info); parent 0 is the root
        self.spans: list[tuple] = []
        # next() on itertools.count and list.append are single calls into
        # C, so threads can share them without a lock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info:
                    extra = info(args, kwargs, result)
                return result
            finally:
                # a span that raised is kept too: the failing spectrum job
                # still spent its time in these layers
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, extra))

        return traced

    def adopt(self, fn):
        """Run fn in another thread as a child of the caller's current span."""
        parent = self.current()

        def adopted(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"anomalywalk.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        package = importlib.import_module("anomalywalk")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        tracer = self
        submit = concurrent.futures.ThreadPoolExecutor.submit

        def submit_adopted(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer.adopt(fn), *args, **kwargs)

        concurrent.futures.ThreadPoolExecutor.submit = submit_adopted
