"""Search drivers over anomalous star walks.

Defines each named start state once, as one value per block of the
basis, for the full walk and the star's cells; evolves start states
while recording where the probability sits, predicts hitting steps where
a closed form exists, and samples the classical adjacency-list baseline
for comparison.
"""

import json
import math
import random
from typing import NamedTuple

import numpy as np

from .collapse import ReducedBasis, cells_operator, star_cells
from .edgespace import make_basis
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NoPredictionError,
    NothingToFindError,
)
from .numerics import DEFAULT_POLICY, largest, norm2, require_within
from .stargraph import StarGraph, require_memory, serialize_spec
from .stepop import BlockWalk, build_step_operator


class InitialStateKind(NamedTuple):
    """Named family of start states; use the factory methods."""

    variant: str
    amp_out: complex = 0j
    amp_in: complex = 0j

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
        amp_out, amp_in = _coefficients((amp_out, amp_in), "inout state").tolist()
        return InitialStateKind("inout", amp_out=amp_out, amp_in=amp_in)

    @staticmethod
    def loop_pi() -> "InitialStateKind":
        return InitialStateKind("loop_pi")

    @staticmethod
    def loop_third() -> "InitialStateKind":
        return InitialStateKind("loop_third")


def _coefficients(values, what: str) -> np.ndarray:
    """The values as a new complex128 array, refused unless their squared
    norm is a finite normal float, so their state normalises without overflow."""
    coeffs = np.array(values, dtype=complex)
    if coeffs.ndim != 1:
        raise DimensionMismatchError(f"{what} needs a one-dimensional sequence of coefficients")
    # scaled by the largest part: a square past the float range is inf, with no overflow
    scale = float(np.abs(coeffs.view(np.float64)).max(initial=0.0))
    square = scale * scale * norm2(coeffs / scale) if 0.0 < scale < np.inf else scale
    if not np.finfo(float).tiny <= square < np.inf:
        raise ConfigurationError(f"{what} needs finite coefficients whose squared norm "
                                 f"is a normal float, got {square:.3g}")
    return coeffs


def _block_weights(graph: StarGraph, kind: InitialStateKind) -> tuple:
    """A named kind's coefficients on the uniform states of the bulk blocks:
    out, in and, for the loop kinds, the loops."""
    if kind.variant == "minus":
        return (1.0, -1.0)
    if kind.variant == "plus":
        return (1.0, 1.0)
    if kind.variant == "inout":
        return (kind.amp_out, kind.amp_in)
    if kind.variant in ("loop_pi", "loop_third"):
        if not graph.anomaly.schema.loops:
            raise ConfigurationError("graph does not carry a loop on every vertex")
        if kind.variant == "loop_pi":
            return (1.0, 1.0, 1.0)
        w = np.exp(2j * np.pi / 3)
        # for a negative marking phase the walk is the complex conjugate
        # of the positive-phase walk, so the start state conjugates too
        if graph.anomaly.mark_phase.value < 0:
            w = w.conjugate()
        return (w.conjugate(), 1.0, w)
    raise ConfigurationError(f"initial-state kind {kind.variant!r} is not a named family")


def _uniform_norm2(lengths, values) -> float:
    """The squared norm of a state that is constant on each block: the sum
    of len_b |value_b|^2."""
    return sum(n * abs(v) ** 2 for n, v in zip(lengths, values))


def _start_values(graph: StarGraph, kind: InitialStateKind) -> tuple:
    """A named kind's start as one value per block of the basis, the one
    definition of a named start: its block weights over the closed-form
    norm of their uniform states, sqrt(sum |w_b|^2 len_b), and 0 on every
    block it does not weigh.  Their squared norm, taken in closed form,
    is certified to be 1 within `unit_norm_tol`."""
    weights = _block_weights(graph, kind)
    bounds = make_basis(graph).bounds
    lengths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    norm = math.sqrt(_uniform_norm2(lengths, weights))
    values = tuple(w / norm for w in weights) + (0.0,) * (len(lengths) - len(weights))
    require_within("state is not unit-norm: its squared norm is {value:.3e} from 1",
                   abs(_uniform_norm2(lengths, values) - 1.0), DEFAULT_POLICY.unit_norm_tol,
                   ConfigurationError)
    return values


def family_seeds(graph: StarGraph, kind: InitialStateKind) -> tuple[ReducedBasis, np.ndarray]:
    """The star's cells, and as rows on them the generators of the smallest
    state family containing a named kind: the uniform state of each block
    it weighs.

    Closing these under the walk gives one invariant subspace that serves
    every start state of the family, not just a single seed's orbit.
    """
    weights = _block_weights(graph, kind)
    cells = star_cells(make_basis(graph))
    return cells, np.array([cells.uniform(k) for k in range(len(weights))])


def predicted_hitting_step(graph: StarGraph) -> int:
    """Closed-form peak step, available for extra_edge and loop only."""
    n = graph.n_spokes
    variant = graph.anomaly.variant
    if variant == "extra_edge":
        return int(round(np.pi * np.sqrt(3.0 * n) / 4.0))
    if variant == "loop":
        return int(round((np.pi / 2.0) * np.sqrt(1.5 * n)))
    raise NoPredictionError(f"no hitting-step formula for variant {variant!r}")


def predicted_step(graph: StarGraph) -> int | None:
    """The closed-form peak step, or None for a variant with no formula."""
    try:
        return predicted_hitting_step(graph)
    except NoPredictionError:
        return None


class SearchResult(NamedTuple):
    """The probability split of every step as three read-only float64
    columns, named as in the per-step CSV and indexed by the step n, and
    the peak read from them."""

    p_target_spokes: np.ndarray
    p_anomaly: np.ndarray
    p_rest: np.ndarray
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
    targets = sorted(targets)  # ascending out rows, then ascending in rows
    rows = np.concatenate((basis.out_rows(targets), basis.in_rows(targets)))
    return rows, basis.anomaly_only_rows


# peak bytes per step of a run (tracemalloc): the widest rows of complex
# amplitudes, held while their weights are summed into the columns
_RECORD_BYTES = 160


def _records(walk, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns p_target_spokes, p_anomaly and p_rest of a walk.

    `walk()` returns the amplitudes at the target rows (the first k
    columns) and the anomaly rows, one array row per step, and the
    squared norm.  The walk's array is read one column at a time, never
    written, and freed before p_rest is taken.
    """
    amps, total = walk()
    pts, pas = np.zeros(len(amps)), np.zeros(len(amps))
    # each step's weights re^2 + im^2, added in column order as a row sums
    for j in range(amps.shape[1]):
        weight = amps[:, j].real ** 2
        weight += amps[:, j].imag ** 2
        split = pts if j < k else pas
        split += weight
    del amps, weight
    rests = total - pts
    rests -= pas
    np.maximum(rests, 0.0, out=rests)
    for column in (pts, pas, rests):
        column.flags.writeable = False
    return pts, pas, rests


def _walk_norm2(walk: BlockWalk) -> float:
    """The squared norm of a block walk's state: per block, its bulk
    value's weight over the rows no step wrote plus the written rows'."""
    return sum((n - len(rows)) * abs(v) ** 2 + sum(abs(x) ** 2 for x in rows.values())
               for n, v, rows in zip(walk.lengths, walk.bulk, walk.rows))


def _evolve_full(op, start, max_steps, target_rows, anomaly_rows):
    """The full walk's columns, one entry per step.

    The state is stepped as a `BlockWalk` from the start, one value per
    block, and its target and anomaly rows are gathered at their (block,
    offset) into one row of a preallocated array per step.  The walk
    conserves the squared norm, so its total is taken once at the start,
    in closed form from the start values, and carried into every step's
    p_rest.  At the end the walk's squared norm is taken again, from its
    bulk values and written rows, and a drift past `unit_norm_tol` is
    refused.  In between, no step reads the state in full.
    """
    located = op.basis.locate(np.concatenate((target_rows, anomaly_rows)))

    def walk():
        state = BlockWalk(op, start)
        amps = np.empty((max_steps + 1, len(located)), complex)
        amps[0] = state.gather(located)
        total = _uniform_norm2(state.lengths, start)
        for n in range(1, max_steps + 1):
            state.step()
            amps[n] = state.gather(located)
        require_within(f"the full walk's squared norm drifts {{value:.3e}} over {max_steps} "
                       "steps, past the tolerance {tol:.1e}", abs(_walk_norm2(state) - total),
                       DEFAULT_POLICY.unit_norm_tol)
        return amps, total

    return _records(walk, len(target_rows))


def _evolve_reduced(graph, op, kind, start, max_steps, target_rows, anomaly_rows):
    """The walk on the star's cells C, stepped by M = C*UC, from the start
    state's row on them: the named kind's block values, times sqrt(N), on
    the family's uniform rows.  `cells_operator` certifies that M keeps to
    the cells and is unitary; the squared norm is carried as in the full walk."""
    cells, seeds = family_seeds(graph, kind)
    row = np.sqrt(graph.n_spokes) * np.asarray(start[:len(seeds)]) @ seeds
    m = cells_operator(op, cells)
    rows = cells.rows(np.concatenate((target_rows, anomaly_rows)))

    def walk(c=row):
        amps = np.empty((max_steps + 1, len(rows)), complex)
        amps[0], total = rows @ c, norm2(c)
        for n in range(1, max_steps + 1):
            c = m @ c
            amps[n] = rows @ c
        require_within(f"the reduced walk's squared norm drifts {{value:.3e}} over {max_steps} "
                       "steps, past the tolerance {tol:.1e}", abs(norm2(c) - total),
                       DEFAULT_POLICY.unit_norm_tol)
        return amps, total

    columns = _records(walk, len(target_rows))
    _spot_check(op, start, columns, target_rows, anomaly_rows)
    return columns


def _spot_check(op, start, columns, target_rows, anomaly_rows):
    """Cross-check a prefix of the reduced run against the full walk."""
    policy = DEFAULT_POLICY
    k = min(len(columns[0]) - 1, policy.spot_check_steps)
    ref = _evolve_full(op, start, k, target_rows, anomaly_rows)
    require_within(f"reduced evolution drifts {{value:.3e}} from the full walk at step {k}",
                   largest(abs(ref[j].item(k) - columns[j].item(k)) for j in (0, 1)),
                   policy.spot_check_tol)


def run_search(graph: StarGraph, kind: InitialStateKind, max_steps: int, *,
               method: str = "full") -> SearchResult:
    """Evolve the start state and record the probability split per step.

    p_target_spokes covers the spoke edges adjacent to the anomaly,
    p_anomaly the states only the anomaly provides, p_rest everything
    else.  The peak is the argmax of their sum; ties break to the
    earliest step.  method="reduced" steps the start state's row on the
    star's cells and spot-checks a prefix against the full walk.  Both
    walks start from the kind's values per block, and neither builds a
    full-length vector.
    """

    if max_steps < 1:
        raise ConfigurationError("max_steps must be at least 1")
    require_memory(max_steps * _RECORD_BYTES, f"{max_steps} steps")
    if method not in ("full", "reduced"):
        raise ConfigurationError(f"unknown evolution method {method!r}")
    target_rows, anomaly_rows = _partition_rows(graph)
    op = build_step_operator(graph)
    start = _start_values(graph, kind)
    if method == "full":
        pts, pas, rests = _evolve_full(op, start, max_steps, target_rows, anomaly_rows)
    else:
        pts, pas, rests = _evolve_reduced(graph, op, kind, start, max_steps, target_rows,
                                          anomaly_rows)
    peak = int(np.argmax(pts + pas))
    predicted = predicted_step(graph)
    warnings: tuple[str, ...] = ()
    slack = DEFAULT_POLICY.peak_slack
    if predicted is not None and abs(predicted - peak) > slack:
        warnings = (f"empirical peak step {peak} is more than {slack} steps "
                    f"from predicted step {predicted}",)
    return SearchResult(p_target_spokes=pts, p_anomaly=pas, p_rest=rests,
                        peak_step=peak, peak_detectable=float(pts[peak]),
                        peak_undetected=float(pas[peak]),
                        predicted_step=predicted, warnings=warnings)


def write_per_step_csv(result: SearchResult, path) -> None:
    columns = (result.p_target_spokes, result.p_anomaly, result.p_rest)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,p_target_spokes,p_anomaly,p_rest\n")
        for n, (pt, pa, rest) in enumerate(zip(*(c.tolist() for c in columns))):
            fh.write(f"{n},{pt:.12g},{pa:.12g},{rest:.12g}\n")


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


class BaselineStatistics(NamedTuple):
    trials: int
    mean: float
    std: float
    expected_mean: float


# peak bytes per trial while sampling (tracemalloc): two 8-byte arrays,
# the uniforms, turned into ranks in place, and their int64 copy
_BASELINE_BYTES_PER_TRIAL = 17

# uniforms drawn per call to randbytes: randbytes(n) is getrandbits(8 n),
# whose bit count is a C int, and a chunk bounds the temporaries
_UNIFORM_CHUNK = 2 ** 12


def _uniforms(seed: int, count: int) -> np.ndarray:
    """`count` uniforms on [0, 1), on the 53-bit grid, from the standard
    library's generator seeded by a non-negative integer.

    Every chunk is a whole number of 32-bit words of the generator's
    stream, so the draws do not depend on the chunk size.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    out = np.empty(count)
    for start in range(0, count, _UNIFORM_CHUNK):
        chunk = out[start:start + _UNIFORM_CHUNK]
        bits = np.frombuffer(rng.randbytes(8 * len(chunk)), "<u8") >> 11
        np.multiply(bits, 2.0 ** -53, out=chunk)
    return out


def _sample_queries(graph: StarGraph, trials: int, seed: int) -> np.ndarray:
    """Query counts of independent scans of shuffled adjacency lists.

    The count Q is the rank of the first of the k anomaly-adjacent vertices
    in a uniform shuffle of the N outer ones, so P(Q > q) = C(N - q, k) /
    C(N, k) = f(N - q) / f(N) for the falling factorial f(m) = m (m - 1) ...
    (m - k + 1).  Each Q is drawn by inversion of one uniform u: Q = N - m
    for the largest m in [k - 1, N - 1] with f(m) <= u f(N).  For k <= 2,
    f(m) = (m - c)^k - c^2 with c = (k - 1) / 2, so that m is the floor of
    c + (u f(N) + c^2)^(1/k).  The law is exact but for float64 rounding,
    which gives a u the rank of a u' within a few ulps of it, so it moves a
    draw to the next rank only for a u that close to that rank's threshold.
    That is O(trials) work, not O(trials N), with no Python loop per trial.
    """
    if graph.anomaly.variant == "none":
        raise NothingToFindError("plain star has no anomaly to find")
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    require_memory(trials * _BASELINE_BYTES_PER_TRIAL, f"{trials} trials")
    n, k = graph.n_spokes, len(graph.anomaly_vertices)
    c = (k - 1) / 2
    m = _uniforms(seed, trials)
    m *= float(math.perm(n, k))
    m += c * c
    if k == 2:  # the root; k is 1 or 2, the anomaly's one or two vertices
        np.sqrt(m, out=m)
    m += c
    np.floor(m, out=m)
    np.clip(m, k - 1, n - 1, out=m)
    np.subtract(n, m, out=m)
    return m.astype(np.int64)


def baseline_statistics(graph: StarGraph, trials: int,
                        seed: int) -> BaselineStatistics:
    """Query-count statistics over independent shuffles."""
    out = _sample_queries(graph, trials, seed)
    expected = (graph.n_spokes + 1) / (len(graph.anomaly_vertices) + 1)
    return BaselineStatistics(trials=trials, mean=float(out.mean()),
                              std=float(out.std()), expected_mean=expected)
