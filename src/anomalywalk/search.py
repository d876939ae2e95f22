"""Search drivers over anomalous star walks.

Builds the standard start states, evolves them while recording where the
probability sits, predicts hitting steps where a closed form exists,
simulates the accessible-edge measurement, and provides the classical
adjacency-list baseline for comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .collapse import decompose, reduce_seeds
from .edgespace import (
    WalkState,
    all_loops_state,
    hub_in_state,
    hub_out_state,
    make_basis,
    make_state,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NoPredictionError,
    NothingToFindError,
    NumericalFailureError,
    SizeError,
)
from .numerics import DEFAULT_POLICY
from .stargraph import StarGraph, physical_memory_bytes, serialize_spec
from .stepop import apply_into, build_step_operator, walk_dtype


@dataclass(frozen=True)
class InitialStateKind:
    """Named family of start states; use the factory methods."""

    variant: str
    amp_out: complex = 0j
    amp_in: complex = 0j
    amplitudes: tuple = ()

    @staticmethod
    def minus() -> "InitialStateKind":
        """Uniform outgoing minus incoming superposition."""
        return InitialStateKind("minus")

    @staticmethod
    def plus() -> "InitialStateKind":
        """Sign-flipped variant that fails to localize."""
        return InitialStateKind("plus")

    @staticmethod
    def inout(amp_out, amp_in) -> "InitialStateKind":
        """Arbitrary combination of the outgoing and incoming uniforms."""
        amp_out, amp_in = _coefficients((amp_out, amp_in), "inout state")
        return InitialStateKind("inout", amp_out=amp_out, amp_in=amp_in)

    @staticmethod
    def loop_pi() -> "InitialStateKind":
        return InitialStateKind("loop_pi")

    @staticmethod
    def loop_third() -> "InitialStateKind":
        return InitialStateKind("loop_third")

    @staticmethod
    def custom(amplitudes) -> "InitialStateKind":
        return InitialStateKind("custom", amplitudes=_coefficients(amplitudes, "custom state"))


def _coefficients(values, what: str) -> tuple[complex, ...]:
    """The values as complex numbers, refused unless their squared norm is a
    finite normal float, so that their state normalises without overflow."""
    coeffs = tuple(complex(v) for v in values)
    square = sum(c.real * c.real + c.imag * c.imag for c in coeffs)  # nan or inf if any is
    if not np.finfo(float).tiny <= square < np.inf:
        raise ConfigurationError(f"{what} needs finite coefficients whose squared norm "
                                 f"is a normal float, got {square:.3g}")
    return coeffs


def _real_if_exact(coeffs: tuple) -> tuple:
    """The coefficients as floats when none has an imaginary part, so that
    a real family's state stays real."""
    return coeffs if any(c.imag for c in coeffs) else tuple(c.real for c in coeffs)


def _family(graph: StarGraph, kind: InitialStateKind) -> tuple[list[WalkState], tuple]:
    """Generators of the kind's state family, and the kind's coefficients on them."""
    basis = make_basis(graph)
    hubs = [hub_out_state(basis), hub_in_state(basis)]
    if kind.variant == "minus":
        return hubs, (1.0, -1.0)
    if kind.variant == "plus":
        return hubs, (1.0, 1.0)
    if kind.variant == "inout":
        return hubs, _real_if_exact((kind.amp_out, kind.amp_in))
    if kind.variant in ("loop_pi", "loop_third"):
        seeds = hubs + [all_loops_state(basis)]  # refused unless every vertex has a loop
        if kind.variant == "loop_pi":
            return seeds, (1.0, 1.0, 1.0)
        w = np.exp(2j * np.pi / 3)
        # for a negative marking phase the walk is the complex conjugate
        # of the positive-phase walk, so the start state conjugates too
        if graph.anomaly.mark_phase.value < 0:
            w = w.conjugate()
        return seeds, (w.conjugate(), 1.0, w)
    if kind.variant == "custom":
        amps = np.asarray(_real_if_exact(kind.amplitudes))
        if amps.size != basis.dim:
            raise DimensionMismatchError(
                f"custom state has {amps.size} amplitudes, basis needs {basis.dim}")
        return [make_state(amps / np.linalg.norm(amps))], (1.0,)
    raise ConfigurationError(f"unknown initial-state kind {kind.variant!r}")


def initial_state(graph: StarGraph, kind: InitialStateKind) -> WalkState:
    """Unit-norm start state of the requested kind on this graph: float64
    when its coefficients are real, complex128 otherwise."""
    seeds, coefficients = _family(graph, kind)
    amps = sum(c * s.amplitudes for c, s in zip(coefficients, seeds))
    return make_state(amps / np.linalg.norm(amps))


def family_seeds(graph: StarGraph, kind: InitialStateKind) -> list[WalkState]:
    """Generators of the smallest state family containing the kind.

    Closing these under the walk gives one invariant subspace that serves
    every start state of the family, not just a single seed's orbit.
    """
    return _family(graph, kind)[0]


def predicted_hitting_step(graph: StarGraph) -> int:
    """Closed-form peak step, available for extra_edge and loop only."""
    n = graph.n_spokes
    variant = graph.anomaly.variant
    if variant == "extra_edge":
        return int(round(np.pi * np.sqrt(3.0 * n) / 4.0))
    if variant == "loop":
        return int(round((np.pi / 2.0) * np.sqrt(1.5 * n)))
    raise NoPredictionError(f"no hitting-step formula for variant {variant!r}")


@dataclass(frozen=True)
class StepRecord:
    n: int
    p_target_spokes: float
    p_anomaly: float
    p_rest: float


@dataclass(frozen=True)
class SearchResult:
    per_step: tuple[StepRecord, ...]
    peak_step: int
    peak_detectable: float
    peak_undetected: float
    predicted_step: int | None
    warnings: tuple[str, ...] = ()


def _partition_rows(graph: StarGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of target-spoke states and anomaly-only states."""
    targets = graph.anomaly_vertices
    if not targets:
        raise NothingToFindError("plain star has no anomaly to search for")
    basis = make_basis(graph)
    rows = np.concatenate((basis.out_rows(targets), basis.in_rows(targets)))
    return np.sort(rows), basis.anomaly_only_rows


# peak bytes per step of a run's records, its list and its tuple (tracemalloc)
_RECORD_BYTES = 256


def _require_memory(count: int, bytes_each: int, what: str) -> None:
    """Refuse, before anything is allocated, a count that cannot fit in memory."""
    memory = physical_memory_bytes()
    if count * bytes_each > memory:
        raise SizeError(f"{count} {what} need more than the "
                        f"{memory / 2 ** 30:.3g} GiB of physical memory")


def _record(n: int, target: np.ndarray, anomaly: np.ndarray,
            whole: np.ndarray) -> StepRecord:
    """Probability split of one step, from the amplitudes on each part."""
    pt = float((np.abs(target) ** 2).sum())
    pa = float((np.abs(anomaly) ** 2).sum())
    # a real vector's total is one pass with no temporaries
    total = float((np.abs(whole) ** 2).sum()) if np.iscomplexobj(whole) else float(whole @ whole)
    return StepRecord(n=n, p_target_spokes=pt, p_anomaly=pa,
                      p_rest=max(total - pt - pa, 0.0))


def _evolve_full(op, x0, max_steps, target_rows, anomaly_rows):
    x = x0.astype(walk_dtype(op, x0))
    buf = np.empty_like(x)
    records = [_record(0, x[target_rows], x[anomaly_rows], x)]
    for n in range(1, max_steps + 1):
        apply_into(op, x, buf)
        x, buf = buf, x
        records.append(_record(n, x[target_rows], x[anomaly_rows], x))
    return records


def _evolve_reduced(graph, op, kind, x0, max_steps, target_rows, anomaly_rows):
    reduced = reduce_seeds(op, family_seeds(graph, kind))
    v = reduced.basis.matrix
    c, leakage = decompose(v, x0)
    if leakage > DEFAULT_POLICY.invariance_tol:
        raise NumericalFailureError(
            f"start state leaks {leakage:.3e} outside its reduced family")
    m = reduced.matrix
    tmat = v[target_rows, :]
    amat = v[anomaly_rows, :]
    records = [_record(0, tmat @ c, amat @ c, c)]
    for n in range(1, max_steps + 1):
        c = m @ c
        records.append(_record(n, tmat @ c, amat @ c, c))
    _spot_check(op, x0, records, target_rows, anomaly_rows)
    return records


def _spot_check(op, x0, records, target_rows, anomaly_rows):
    """Cross-check a prefix of the reduced run against the full walk."""
    k = min(len(records) - 1, 25)
    ref = _evolve_full(op, x0, k, target_rows, anomaly_rows)[k]
    got = records[k]
    dev = max(abs(ref.p_target_spokes - got.p_target_spokes),
              abs(ref.p_anomaly - got.p_anomaly))
    if dev > 1e-9:
        raise NumericalFailureError(
            f"reduced evolution drifts {dev:.3e} from the full walk at step {k}")


def run_search(graph: StarGraph, kind: InitialStateKind, max_steps: int, *,
               method: str = "full") -> SearchResult:
    """Evolve the start state and record the probability split per step.

    p_target_spokes covers the spoke edges adjacent to the anomaly,
    p_anomaly the states only the anomaly provides, p_rest everything
    else.  The peak is the argmax of their sum; ties break to the
    earliest step.  method="reduced" evolves inside the invariant family
    subspace and spot-checks a prefix against the full walk.
    """

    if max_steps < 1:
        raise ConfigurationError("max_steps must be at least 1")
    _require_memory(max_steps, _RECORD_BYTES, "steps")
    if method not in ("full", "reduced"):
        raise ConfigurationError(f"unknown evolution method {method!r}")
    target_rows, anomaly_rows = _partition_rows(graph)
    op = build_step_operator(graph)
    x0 = initial_state(graph, kind).amplitudes
    if method == "full":
        records = _evolve_full(op, x0, max_steps, target_rows, anomaly_rows)
    else:
        records = _evolve_reduced(graph, op, kind, x0, max_steps, target_rows,
                                  anomaly_rows)
    scores = [r.p_target_spokes + r.p_anomaly for r in records]
    peak = int(np.argmax(scores))
    try:
        predicted = predicted_hitting_step(graph)
    except NoPredictionError:
        predicted = None
    warnings: tuple[str, ...] = ()
    if predicted is not None and abs(predicted - peak) > 2:
        warnings = (f"empirical peak step {peak} is more than 2 steps "
                    f"from predicted step {predicted}",)
    return SearchResult(per_step=tuple(records), peak_step=peak,
                        peak_detectable=records[peak].p_target_spokes,
                        peak_undetected=records[peak].p_anomaly,
                        predicted_step=predicted, warnings=warnings)


def write_per_step_csv(result: SearchResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,p_target_spokes,p_anomaly,p_rest\n")
        for r in result.per_step:
            fh.write(f"{r.n},{r.p_target_spokes:.12g},"
                     f"{r.p_anomaly:.12g},{r.p_rest:.12g}\n")


def search_summary(graph: StarGraph, kind: InitialStateKind,
                   result: SearchResult) -> dict:
    """JSON-ready summary mirroring the per-step CSV scalars."""
    summary = {
        "spec": json.loads(serialize_spec(graph)),
        "kind": kind.variant,
        "predicted_step": result.predicted_step,
        "peak_step": result.peak_step,
        "peak_detectable": result.peak_detectable,
        "peak_undetected": result.peak_undetected,
    }
    if result.warnings:
        summary["warnings"] = list(result.warnings)
    return summary


@dataclass(frozen=True)
class MeasurementResult:
    distribution: dict
    p_undetected: float
    detected_edge: int | None
    sampled: bool


def measure_accessible(state: WalkState, graph: StarGraph, *,
                       seed: int | None = None) -> MeasurementResult:
    """Outcome distribution of measuring the edges present in the graph.

    Amplitude on states the anomaly alone provides (extra edge, loop on
    the marked vertex, extension edge, dummy loop) is aggregated into a
    single undetected mass.  For missing_loop the real loops are part of
    the graph, so their weight counts toward their own vertex's outcome.
    Passing a seed draws one outcome; detected_edge stays None when the
    undetected outcome is drawn.
    """

    basis = make_basis(graph)
    if state.basis_dim != basis.dim:
        raise DimensionMismatchError(
            f"state dimension {state.basis_dim} != basis dimension {basis.dim}")
    n = graph.n_spokes
    w = np.abs(state.amplitudes) ** 2
    spoke = w[basis.out_block] + w[basis.in_block]
    undetected = float(w[basis.anomaly_only_rows].sum())
    if graph.anomaly.schema.loops:
        loops = w[basis.anomaly_block].copy()
        loops[graph.anomaly.at - 1] = 0.0
        spoke = spoke + loops
    distribution = {j + 1: float(spoke[j]) for j in range(n)}
    detected = None
    sampled = False
    if seed is not None:
        rng = _rng(seed)
        probs = np.clip(np.append(spoke, undetected), 0.0, None)
        probs /= probs.sum()
        outcome = int(rng.choice(n + 1, p=probs))
        detected = outcome + 1 if outcome < n else None
        sampled = True
    return MeasurementResult(distribution=distribution,
                             p_undetected=float(undetected),
                             detected_edge=detected, sampled=sampled)


@dataclass(frozen=True)
class BaselineResult:
    queries: int


@dataclass(frozen=True)
class BaselineStatistics:
    trials: int
    mean: float
    std: float
    expected_mean: float


# bytes per trial while sampling: the Beta keys, the counts and one temporary
_BASELINE_BYTES_PER_TRIAL = 24


def _rng(seed: int) -> np.random.Generator:
    """The generator of a non-negative integer seed."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _sample_queries(graph: StarGraph, trials: int, seed: int) -> np.ndarray:
    """Query counts of independent scans of shuffled adjacency lists.

    A shuffle orders the vertices by iid uniform keys.  The smallest key
    of the k anomaly-adjacent vertices is Beta(1, k), and each of the other
    N - k vertices comes before it with that probability, so the count is
    exactly 1 + Binomial(N - k, Beta(1, k)): O(trials) work, not O(trials N).
    """
    if graph.anomaly.variant == "none":
        raise NothingToFindError("plain star has no anomaly to find")
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    rng = _rng(seed)
    _require_memory(trials, _BASELINE_BYTES_PER_TRIAL, "trials")
    k = len(graph.anomaly_vertices)
    return 1 + rng.binomial(graph.n_spokes - k, rng.beta(1.0, k, size=trials))


def classical_baseline(graph: StarGraph, seed: int) -> BaselineResult:
    """Scan a shuffled list of outer vertices until the anomaly shows.

    One query inspects one vertex's neighbor list, which exposes an
    anomalous degree or loop immediately.
    """
    return BaselineResult(queries=int(_sample_queries(graph, 1, seed)[0]))


def baseline_statistics(graph: StarGraph, trials: int,
                        seed: int) -> BaselineStatistics:
    """Query-count statistics over independent shuffles."""
    out = _sample_queries(graph, trials, seed)
    expected = (graph.n_spokes + 1) / (len(graph.anomaly_vertices) + 1)
    return BaselineStatistics(trials=trials, mean=float(out.mean()),
                              std=float(out.std()), expected_mean=expected)
