"""Search drivers over anomalous star walks.

Defines each named start state once, as one value per block of the
basis, for the full walk and the star's cells; evolves start states
while recording where the probability sits, predicts hitting steps where
a closed form exists, and samples the classical adjacency-list baseline
for comparison.

Both walks record into the same three `array('d')` columns, one entry a
step, and run in plain Python, as does the baseline's sampler.
"""

import cmath
import math
import operator
import random
import sys
from array import array
from typing import NamedTuple

from .edgespace import make_basis
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NoPredictionError,
    NothingToFindError,
)
from .numerics import DEFAULT_POLICY, largest, nonzeros, norm2, require_within
from .stargraph import StarGraph, require_memory, spec_dict
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
        amp_out, amp_in = _coefficients((amp_out, amp_in), "inout state")
        return InitialStateKind("inout", amp_out=amp_out, amp_in=amp_in)

    @staticmethod
    def loop_pi() -> "InitialStateKind":
        return InitialStateKind("loop_pi")

    @staticmethod
    def loop_third() -> "InitialStateKind":
        return InitialStateKind("loop_third")


def _coefficients(values, what: str) -> list[complex]:
    """The values as Python complexes, refused unless their squared norm is
    a finite normal float, so their state normalises without overflow."""
    try:
        coeffs = [complex(v) for v in values]
    except TypeError:  # a value that is itself a sequence, or no number at all
        raise DimensionMismatchError(f"{what} needs one complex number per coefficient") from None
    parts = [abs(x) for z in coeffs for x in (z.real, z.imag)]
    # scaled by the largest part: a square past the float range is inf, with no overflow
    scale = largest(parts)
    square = (scale * scale * sum((x / scale) ** 2 for x in parts) if 0.0 < scale < math.inf
              else scale)
    if not sys.float_info.min <= square < math.inf:
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
        w = cmath.exp(2j * math.pi / 3)
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


def family_seeds(graph: StarGraph, kind: InitialStateKind) -> tuple:
    """The star's cells, a `ReducedBasis`, and as rows on them, a tuple of
    tuples, the generators of the smallest state family containing a named
    kind: the uniform state of each block it weighs.

    Their smallest invariant subspace serves every start state of the
    family, not just a single seed's orbit.
    """
    from .collapse import star_cells
    weights = _block_weights(graph, kind)
    cells = star_cells(make_basis(graph))
    return cells, tuple(cells.uniform(k) for k in range(len(weights)))


def predicted_hitting_step(graph: StarGraph) -> int:
    """Closed-form peak step, available for extra_edge and loop only."""
    n = graph.n_spokes
    variant = graph.anomaly.variant
    if variant == "extra_edge":
        return int(round(math.pi * math.sqrt(3.0 * n) / 4.0))
    if variant == "loop":
        return int(round((math.pi / 2.0) * math.sqrt(1.5 * n)))
    raise NoPredictionError(f"no hitting-step formula for variant {variant!r}")


def predicted_step(graph: StarGraph) -> int | None:
    """The closed-form peak step, or None for a variant with no formula."""
    try:
        return predicted_hitting_step(graph)
    except NoPredictionError:
        return None


class SearchResult(NamedTuple):
    """The probability split of every step as three `array('d')` columns,
    named as in the per-step CSV and indexed by the step n, and the peak
    read from them."""

    p_target_spokes: array
    p_anomaly: array
    p_rest: array
    peak_step: int
    peak_detectable: float
    peak_undetected: float
    predicted_step: int | None
    warnings: tuple[str, ...] = ()


def _partition_rows(graph: StarGraph) -> tuple[list[int], list[int]]:
    """Row indices of target-spoke states and anomaly-only states."""
    targets = graph.anomaly_vertices
    if not targets:
        raise NothingToFindError("plain star has no anomaly to search for")
    basis = make_basis(graph)
    targets = sorted(targets)  # ascending out rows, then ascending in rows
    return basis.out_rows(targets) + basis.in_rows(targets), basis.anomaly_only_rows


# peak bytes per step of a run (tracemalloc): the three float64 columns,
# allocated once for the whole horizon, plus the run's fixed cost, which
# at 10,000 steps brought the worst case measured to 24.98
_RECORD_BYTES = 26


def _records(amps, k: int, total: float, steps: int) -> tuple[array, array, array]:
    """The columns p_target_spokes, p_anomaly and p_rest of a walk of `steps` steps.

    `amps` yields, step by step, the amplitudes at the target rows (the
    first k) and at the anomaly rows as Python complexes.  Each weight
    re^2 + im^2 is added in row order, the float operations numpy's
    column sums made, and p_rest is the squared norm `total` less both,
    floored at 0.  The columns are allocated once, for the whole horizon.
    """
    pts, pas, rests = (array("d", [0.0]) * (steps + 1) for _ in range(3))
    for n, row in enumerate(amps):
        pt = pa = 0.0
        for z in row[:k]:
            pt += z.real * z.real + z.imag * z.imag
        for z in row[k:]:
            pa += z.real * z.real + z.imag * z.imag
        rest = total - pt
        rest -= pa
        pts[n], pas[n], rests[n] = pt, pa, max(rest, 0.0)
    return pts, pas, rests


def _walk_norm2(walk: BlockWalk) -> float:
    """The squared norm of a block walk's state: per block, its bulk
    value's weight over the rows no step wrote plus the written rows'."""
    return sum((n - len(rows)) * abs(v) ** 2 + sum(abs(x) ** 2 for x in rows.values())
               for n, v, rows in zip(walk.lengths, walk.bulk, walk.rows))


def _evolve_full(op, start, max_steps, target_rows, anomaly_rows):
    """The full walk's columns, one entry per step.

    The state is stepped as a `BlockWalk` from the start, one value per
    block, and each step's target and anomaly rows are gathered at their
    (block, offset) for `_records`.  The walk conserves the squared norm,
    so its total is taken once at the start, in closed form from the start
    values, and carried into every step's p_rest.  At the end the walk's
    squared norm is taken again, from its bulk values and written rows,
    and a drift past `unit_norm_tol` is refused.  In between, no step
    reads the state in full.
    """
    located = op.basis.locate([*target_rows, *anomaly_rows])
    state = BlockWalk(op, start)
    total = _uniform_norm2(state.lengths, start)

    def walk():
        yield state.gather(located)
        for _ in range(max_steps):
            state.step()
            yield state.gather(located)
        require_within(f"the full walk's squared norm drifts {{value:.3e}} over {max_steps} "
                       "steps, past the tolerance {tol:.1e}", abs(_walk_norm2(state) - total),
                       DEFAULT_POLICY.unit_norm_tol)

    return _records(walk(), len(target_rows), total, max_steps)


def _evolve_reduced(graph, op, kind, start, max_steps, target_rows, anomaly_rows):
    """The walk on the star's cells C, stepped by M = C*UC, from the start
    state's row on them: the named kind's block values, times sqrt(N), on
    the family's uniform rows.  `cells_operator` certifies that M keeps to
    the cells and is unitary.  M is a generalised permutation plus the hub's
    rank-one term, so a step reads only M's nonzero entries, and each target
    or anomaly row lies in one cell, (cell, weight); each step's rows go to
    `_records` as Python complexes, and the squared norm is carried as in
    the full walk."""
    from .collapse import cells_operator
    cells, seeds = family_seeds(graph, kind)
    scaled = [math.sqrt(graph.n_spokes) * v for v in start[:len(seeds)]]
    row = [sum(v * seed[j] for v, seed in zip(scaled, seeds)) for j in range(cells.dim)]
    m = [nonzeros(r) for r in cells_operator(op, cells)]
    reads = [cell for (cell,) in map(nonzeros, cells.rows([*target_rows, *anomaly_rows]))]
    total = norm2(row)

    def walk(c=row):
        yield [x * c[j] for j, x in reads]
        for _ in range(max_steps):
            c = [sum([x * c[j] for j, x in r]) for r in m]
            yield [x * c[j] for j, x in reads]
        require_within(f"the reduced walk's squared norm drifts {{value:.3e}} over {max_steps} "
                       "steps, past the tolerance {tol:.1e}", abs(norm2(c) - total),
                       DEFAULT_POLICY.unit_norm_tol)

    columns = _records(walk(), len(target_rows), total, max_steps)
    _spot_check(op, start, columns, target_rows, anomaly_rows)
    return columns


def _spot_check(op, start, columns, target_rows, anomaly_rows):
    """Cross-check a prefix of the reduced run against the full walk."""
    policy = DEFAULT_POLICY
    k = min(len(columns[0]) - 1, policy.spot_check_steps)
    ref = _evolve_full(op, start, k, target_rows, anomaly_rows)
    require_within(f"reduced evolution drifts {{value:.3e}} from the full walk at step {k}",
                   largest(abs(ref[j][k] - columns[j][k]) for j in (0, 1)),
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
    # the first step of the largest sum
    peak = max(range(len(pts)), key=lambda n: pts[n] + pas[n])
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
    """The per-step CSV of a result from `run_search`, its columns read one
    step at a time."""
    columns = (result.p_target_spokes, result.p_anomaly, result.p_rest)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,p_target_spokes,p_anomaly,p_rest\n")
        for n, (pt, pa, rest) in enumerate(zip(*columns)):
            fh.write(f"{n},{pt:.12g},{pa:.12g},{rest:.12g}\n")


def search_summary(graph: StarGraph, kind: InitialStateKind,
                   result: SearchResult) -> dict:
    """JSON-ready summary mirroring the per-step CSV scalars."""
    summary = {
        "spec": spec_dict(graph),
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


# peak bytes per trial while sampling (tracemalloc): the draws, one
# 8-byte int each in an array('q') that grows by a sixteenth, plus a chunk
# of uniforms, which at 200,000 trials brought the worst case measured to 9.18
_BASELINE_BYTES_PER_TRIAL = 10

# uniforms drawn per call to randbytes: randbytes(n) is getrandbits(8 n),
# whose bit count is a C int, and a chunk bounds the temporaries
_UNIFORM_CHUNK = 2 ** 12


def _uniforms(seed: int, count: int):
    """`count` uniforms on [0, 1), on the 53-bit grid, from the standard
    library's generator seeded by a non-negative integer, yielded as lists
    of at most `_UNIFORM_CHUNK`: the top 53 bits of each little-endian
    64-bit word of its bytes, times 2^-53.

    Every chunk is a whole number of 32-bit words of the generator's
    stream, so the draws do not depend on the chunk size.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    for start in range(0, count, _UNIFORM_CHUNK):
        words = array("Q", rng.randbytes(8 * min(_UNIFORM_CHUNK, count - start)))
        if sys.byteorder == "big":
            words.byteswap()
        yield [(w >> 11) * 2.0 ** -53 for w in words]


def _sample_queries(graph: StarGraph, trials: int, seed: int) -> array:
    """Query counts of independent scans of shuffled adjacency lists, as an
    `array('q')`.

    The count Q is the rank of the first of the k anomaly-adjacent vertices
    in a uniform shuffle of the N outer ones, so P(Q > q) = C(N - q, k) /
    C(N, k) = f(N - q) / f(N) for the falling factorial f(m) = m (m - 1) ...
    (m - k + 1).  Each Q is drawn by inversion of one uniform u: Q = N - m
    for the largest m in [k - 1, N - 1] with f(m) <= u f(N).  For k <= 2,
    f(m) = (m - c)^k - c^2 with c = (k - 1) / 2, so that m is the floor of
    c + (u f(N) + c^2)^(1/k).  The law is exact but for float64 rounding,
    which gives a u the rank of a u' within a few ulps of it, so it moves a
    draw to the next rank only for a u that close to that rank's threshold.
    Every m is at least k - 1, as u >= 0, and rounding can take it to N, so
    it is clipped to N - 1.  That is O(trials) work, not O(trials N).
    """
    if graph.anomaly.variant == "none":
        raise NothingToFindError("plain star has no anomaly to find")
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    require_memory(trials * _BASELINE_BYTES_PER_TRIAL, f"{trials} trials")
    n, k = graph.n_spokes, len(graph.anomaly_vertices)
    c = (k - 1) / 2
    scale, square, top, floor = float(math.perm(n, k)), c * c, n - 1, math.floor
    # the root; k is 1 or 2, the anomaly's one or two vertices, and float
    # returns a float as it is
    root = math.sqrt if k == 2 else float
    draws = array("q")
    for chunk in _uniforms(seed, trials):
        draws.extend([n - min(floor(root(u * scale + square) + c), top) for u in chunk])
    return draws


def baseline_statistics(graph: StarGraph, trials: int,
                        seed: int) -> BaselineStatistics:
    """Query-count statistics over independent shuffles: the counts' mean
    and standard deviation, from their exact integer sum S and sum of
    squares Q over the T trials: S / T and the root of (T Q - S^2) / T^2,
    each quotient rounded once."""
    out = _sample_queries(graph, trials, seed)
    total, squares = sum(out), sum(map(operator.mul, out, out))
    expected = (graph.n_spokes + 1) / (len(graph.anomaly_vertices) + 1)
    return BaselineStatistics(trials=trials, mean=total / trials,
                              std=math.sqrt((trials * squares - total * total) / trials ** 2),
                              expected_mean=expected)
