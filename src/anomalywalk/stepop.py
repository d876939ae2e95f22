"""One-step unitary of the scattering walk.

The operator never materializes as a matrix on the hot path.  Hub columns
all share one structure (reflection -r on the matching outgoing state plus
transmission t to every other one), so the hub maps the in block x to
t*sum(x) - x, the same rule on every row, and every outer-vertex column
has exactly one nonzero.  Those follow the block layout of `EdgeBasis`:
the blocks trade places (out to in, or out to loops to in on a star
with loops), then one patch per hop of the variant's `VariantSchema`
overwrites the row that hop reroutes.

`StepOperator` holds the step as that O(1) data alone: a role table over
the blocks and (block, offset) pairs for the patches, checked when the
operator is constructed.  `BlockWalk`, the one stepping implementation,
holds each block as one bulk value plus the few rows the patches wrote,
so a step costs O(patches) and a walk holds nothing of length N whatever
N is, and `collapse` reads the operator on the star's cells from the
same table.
"""

from typing import NamedTuple

from .edgespace import EdgeBasis, make_basis
from .errors import ConfigurationError, DimensionMismatchError, NumericalFailureError
from .numerics import DEFAULT_POLICY, largest
from .stargraph import StarGraph


class StepOperator:
    """Hub amplitudes, role table and patches of one walk step.

    After a step, new block k is old block roles[k] of the basis's layout:
    new block 0 (out) through the hub rule, t*sum(in) - in, every other one
    unchanged until the patches overwrite their rows.  Patch i reads old
    row src[i] and writes amp[i] times it to new row dst[i], both given as
    (block, offset); amp is held as a tuple of Python complexes.  Hub
    amplitudes with r + t != 1 (the rule steps the reflection as t - 1)
    and a table that does not read each row once and write each row
    outside the out block once are refused when the operator is
    constructed.  The fields cannot be assigned; `_replace`
    builds a new operator, so every path goes through that refusal.
    """

    __slots__ = ("basis", "hub_r", "hub_t", "roles", "src", "dst", "amp")
    basis: EdgeBasis
    hub_r: float
    hub_t: float
    roles: tuple[int, ...]
    src: tuple[tuple[int, int], ...]
    dst: tuple[tuple[int, int], ...]
    amp: tuple[complex, ...]

    def __init__(self, basis, hub_r, hub_t, roles, src, dst, amp):
        amp = tuple(map(complex, amp))
        for name, value in zip(self.__slots__, (basis, hub_r, hub_t, roles, src, dst, amp)):
            object.__setattr__(self, name, value)
        if hub_r + hub_t != 1.0:
            raise ConfigurationError(f"hub amplitudes need r + t = 1, got {hub_r} + {hub_t}")
        fault = self._tiling_fault()
        if fault:
            raise NumericalFailureError(fault)

    def __setattr__(self, name, value):
        raise AttributeError(f"StepOperator is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"StepOperator is immutable: cannot delete {name!r}")

    def _replace(self, **changes) -> "StepOperator":
        """A new operator with the given fields changed, checked as any other."""
        return StepOperator(**{name: getattr(self, name) for name in self.__slots__} | changes)

    def _tiling_fault(self) -> str | None:
        """Why the table does not read each row once and write each row
        outside the out block once, or None when it does."""
        bounds, roles, src, dst = self.basis.bounds, self.roles, self.src, self.dst
        tail = len(bounds) - 2  # the anomaly tail is the last block
        # the hub turns the in block into the out block, every bulk block
        # moves and the tail keeps its place
        if (sorted(roles) != list(range(tail + 1)) or roles[0] != 1 or roles[tail] != tail
                or any(roles[k] == k for k in range(tail))):
            return f"roles {roles} do not relabel the blocks"
        if len(src) != len(dst) or len(src) != len(self.amp) or not all(
                0 <= b <= tail and 0 <= k < bounds[b + 1] - bounds[b] for b, k in src + dst):
            return "patch rows do not pair up inside the basis"
        home = {role: k for k, role in enumerate(roles)}  # where each old block goes
        return next((what for untiled, what in (
                (len(set(dst)) < len(dst), "patches write a row twice"),
                (len(set(src)) < len(src), "patches read a row twice"),
                (any(b == 0 for b, _ in dst), "a patch writes the out block, as the hub does"),
                (any(b == roles[0] for b, _ in src), "a patch reads the in block, as the hub does"),
                (sum(b == tail for b, _ in dst) < bounds[-1] - bounds[-2],
                 "patches leave a row of the anomaly tail unwritten"),
                # a patch over a relabelled row must read the row it came from
                ({(home[b], k) for b, k in src} != set(dst),
                 "patches and roles do not read each row once")) if untiled), None)

    @property
    def dimension(self) -> int:
        return self.basis.dim

    @property
    def n_spokes(self) -> int:
        return self.basis.n_spokes


class UnitarityReport(NamedTuple):
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance  # as in require_within: a nan fails


def build_scattering_operator(graph: StarGraph, hub_r: float, hub_t: float) -> StepOperator:
    """Assemble the walk operator with explicit hub amplitudes.

    Outer-vertex rules depend only on the anomaly: plain spokes bounce the
    particle straight back toward the hub, and each hop of the variant's
    `VariantSchema` reroutes one state, the marking phase multiplying the
    one hop it marks.
    """

    basis = make_basis(graph)
    schema = graph.anomaly.schema
    phasor = graph.anomaly.mark_phase.phasor
    # every plain spoke bounces (0,j) straight back to (j,0): the out block
    # becomes the in block, and the tail (block 2) keeps its place; through
    # the loops, out becomes the loops, the loops become in, and the empty
    # tail stays
    roles = (1, 2, 0, 3) if schema.loops else (1, 0, 2)
    src = [basis.position(basis.state(word)) for word, _ in schema.hops]
    dst = [basis.position(basis.state(word)) for _, word in schema.hops]
    amp = [phasor if k == schema.mark else 1.0 for k in range(len(schema.hops))]
    return StepOperator(basis, float(hub_r), float(hub_t), roles, basis.locate(src),
                        basis.locate(dst), amp)


def build_step_operator(graph: StarGraph) -> StepOperator:
    n = graph.n_spokes
    return build_scattering_operator(graph, (n - 2) / n, 2 / n)


class BlockWalk:
    """A walk whose state is one bulk value per block plus the rows steps wrote.

    Blocks follow the basis's layout (out, in, the loops of missing_loop,
    the anomaly tail).  Row k of block b reads rows[b][k] where a step has
    written it and bulk[b] everywhere else, so a step reads each patch's
    source row, maps the bulk value and the written rows of the block the
    hub reads to t*S - x, S = bulk*(len - #written) + sum(written), relabels
    the blocks by the role table and writes the patch rows: O(patches) work
    whatever N is, and nothing of length N is ever allocated.

    The start is one value per block, held as the bulk values with no row
    written.  Every value is a Python complex; `lengths` gives each block's
    length, which relabelling keeps, since it only moves blocks of length N.
    """

    def __init__(self, op: StepOperator, start: tuple):
        bounds = op.basis.bounds
        if len(start) != len(bounds) - 1:
            raise DimensionMismatchError(
                f"{len(start)} block values for the {len(bounds) - 1} blocks of the basis")
        self.lengths = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        self.bulk = [complex(v) for v in start]
        self.rows: list[dict[int, complex]] = [{} for _ in start]
        self._op = op

    def step(self) -> None:
        op, roles = self._op, self._op.roles
        bulk, rows = self.bulk, self.rows
        values = [a * rows[b].get(k, bulk[b]) for a, (b, k) in zip(op.amp, op.src)]
        hub = roles[0]
        written = rows[hub]
        ts = op.hub_t * (bulk[hub] * (self.lengths[hub] - len(written)) + sum(written.values()))
        bulk[hub] = ts - bulk[hub]
        for k, x in written.items():
            written[k] = ts - x
        bulk = self.bulk = [bulk[role] for role in roles]
        rows = self.rows = [rows[role] for role in roles]
        for (b, k), value in zip(op.dst, values):
            rows[b][k] = value

    def gather(self, located) -> list[complex]:
        """The amplitudes at (block, offset) pairs, in their order."""
        bulk, rows = self.bulk, self.rows
        return [rows[b].get(k, bulk[b]) for b, k in located]


def check_unitarity(op: StepOperator) -> UnitarityReport:
    """Max elementwise deviation of U†U from identity, read from the step's tables.

    Once the table tiles the rows (the constructor's test, run again here),
    U is the hub block, which maps the in block onto the out block with -r
    on the diagonal and t off it, plus a generalised permutation from every
    other column to every other row whose entries are 1 or a patch
    amplitude.  The two parts share no row or column, so U†U - I is the
    hub block's Gram minus I, with r² + (N-1)t² - 1 on the diagonal and
    (N-2)t² - 2rt off it, and |amp|² - 1 on the patch columns.  A table
    that does not tile reports a deviation of at least 1, as the dense
    product of such a table of unit-modulus entries does.
    """

    n = op.n_spokes
    r, t = op.hub_r, op.hub_t
    diag = r * r + (n - 1) * t * t
    offdiag = (n - 2) * t * t - 2 * r * t
    dev = largest([abs(diag - 1.0), abs(offdiag),
                   *(abs(abs(a) ** 2 - 1.0) for a in op.amp)])
    if op._tiling_fault():
        dev = max(dev, 1.0)
    return UnitarityReport(max_deviation=dev, tolerance=DEFAULT_POLICY.unitarity_tol)
