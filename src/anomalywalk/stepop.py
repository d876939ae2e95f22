"""One-step unitary of the scattering walk.

The operator never materializes as a matrix on the hot path.  Hub columns
all share one structure (reflection -r on the matching outgoing state plus
transmission t to every other one), so a full application costs O(N): one
running sum over hub-incoming amplitudes, then the outer-vertex columns,
each of which has exactly one nonzero.  Those follow the block layout:
one or two length-N blocks move whole from one role to another (out to
in, or out to loops to in for missing_loop), then a few patches overwrite
the rows the anomaly reroutes.

`StepOperator.routing` states that layout once, in O(1) data: a role
table over the blocks and (block, offset) pairs for the patches.
`BlockWalk`, the one stepping implementation, steps a state held as one
buffer per block by that table (hub rule in place over the in buffer,
relabelled buffers, scattered patches), and `collapse` reads the
operator on the star's cells from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .edgespace import BasisLabel, EdgeBasis, make_basis
from .errors import ConfigurationError, DimensionMismatchError, NumericalFailureError, SizeError
from .numerics import DEFAULT_POLICY
from .stargraph import StarGraph


@dataclass(frozen=True)
class StepOperator:
    """Hub amplitudes, block copies and patches of one walk step.

    Each copy (dst, src) moves the length-N block starting at src to the
    one starting at dst with amplitude 1; the patches (perm_src, perm_dst,
    perm_amp) are applied after the copies and overwrite their rows.
    """

    basis: EdgeBasis
    hub_r: float
    hub_t: float
    copies: tuple[tuple[int, int], ...]
    perm_src: np.ndarray
    perm_dst: np.ndarray
    perm_amp: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.dim

    @property
    def n_spokes(self) -> int:
        return self.basis.n_spokes

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.perm_amp.imag == 0.0))

    @cached_property
    def routing(self) -> "Routing":
        """The copies and patches as moves between blocks, derived once.

        The blocks are out, in and, for missing_loop, the loops (each of
        length N), then the anomaly tail (possibly empty).  The hub rule
        turns the in block into the new out block, each copy (dst, src)
        makes block src the new block dst, and the tail keeps its buffer,
        which the patches rewrite whole.  A table that does not read each
        row once and write each row outside the out block once is refused.
        """
        n = self.n_spokes
        blocks = 3 if self.basis.anomaly.schema.loops else 2
        bounds = (*range(0, blocks * n + 1, n), self.dimension)
        roles = list(range(len(bounds) - 1))
        roles[0] = 1
        for to, frm in self.copies:
            if to % n or frm % n or not 0 < to // n < blocks or not 0 <= frm // n < blocks:
                raise NumericalFailureError(f"copy ({to}, {frm}) is not a whole spoke block")
            roles[to // n] = frm // n
        if sorted(roles) != list(range(len(roles))) or any(roles[k] == k for k in range(1, blocks)):
            raise NumericalFailureError(f"copies do not relabel the blocks: roles {roles}")
        rows = np.concatenate((self.perm_src, self.perm_dst))
        if self.perm_src.size != self.perm_dst.size or np.any((rows < 0) | (rows >= bounds[-1])):
            raise NumericalFailureError("patch rows do not pair up inside the basis")
        table = Routing(bounds, tuple(roles), (), ())
        src, dst = table.locate(self.perm_src), table.locate(self.perm_dst)
        home = {role: k for k, role in enumerate(roles)}  # where each old block goes
        for untiled, what in (
                (len(set(dst)) < len(dst), "patches write a row twice"),
                (len(set(src)) < len(src), "patches read a row twice"),
                (any(b == 0 for b, _ in dst), "a patch writes the out block, as the hub does"),
                (any(b == roles[0] for b, _ in src), "a patch reads the in block, as the hub does"),
                (sum(b == len(roles) - 1 for b, _ in dst) < bounds[-1] - bounds[-2],
                 "patches leave a row of the anomaly tail unwritten"),
                # a patch over a copied row must read the row the copy read
                ({(home[b], o) for b, o in src} != set(dst),
                 "patches and copies do not read each row once")):
            if untiled:
                raise NumericalFailureError(what)
        return table._replace(src=src, dst=dst)


class Routing(NamedTuple):
    """A step as a relabelling of blocks.

    Block k holds rows bounds[k]..bounds[k+1]-1.  After a step, new block
    k is old block roles[k]: new block 0 (out) through the hub rule, every
    other one unchanged until the patches overwrite their rows.  Patch i
    reads old row src[i] and writes new row dst[i], both (block, offset).
    A named tuple: a frozen dataclass adds about a millisecond to import.
    """

    bounds: tuple[int, ...]
    roles: tuple[int, ...]
    src: tuple[tuple[int, int], ...]
    dst: tuple[tuple[int, int], ...]

    def locate(self, rows) -> tuple[tuple[int, int], ...]:
        """The (block, offset) of each row, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        blocks = np.searchsorted(self.bounds, rows, side="right") - 1
        return tuple(zip(blocks.tolist(), (rows - np.take(self.bounds, blocks)).tolist()))

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Views of the blocks of a full-length vector."""
        return [x[lo:hi] for lo, hi in zip(self.bounds, self.bounds[1:])]


@dataclass(frozen=True)
class UnitarityReport:
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


def build_scattering_operator(graph: StarGraph, hub_r: float, hub_t: float) -> StepOperator:
    """Assemble the walk operator with explicit hub amplitudes.

    Outer-vertex rules depend only on the anomaly: plain spokes bounce the
    particle straight back toward the hub, anomaly-adjacent vertices route
    it through the anomaly, and the marking phase multiplies exactly one
    designated hop.
    """

    if hub_r + hub_t != 1.0:
        raise ConfigurationError(f"hub amplitudes need r + t = 1, got {hub_r} + {hub_t}")
    basis = make_basis(graph)
    n = graph.n_spokes
    a = graph.anomaly
    src: list[int] = []
    dst: list[int] = []
    amp: list[complex] = []

    def patch(src_label: BasisLabel, dst_label: BasisLabel, amplitude: complex = 1.0) -> None:
        src.append(basis.position(src_label))
        dst.append(basis.position(dst_label))
        amp.append(amplitude)

    edge = BasisLabel.edge
    phase = a.mark_phase.phasor if a.variant != "none" else 1.0 + 0j
    # every plain spoke bounces (0,j) straight back to (j,0)
    copies: tuple[tuple[int, int], ...] = ((n, 0),)
    if a.variant == "extra_edge":
        patch(edge(0, a.u), edge(a.u, a.v))
        patch(edge(0, a.v), edge(a.v, a.u))
        patch(edge(a.u, a.v), edge(a.v, 0))
        patch(edge(a.v, a.u), edge(a.u, 0))
    elif a.variant == "loop":
        patch(edge(0, a.at), BasisLabel.loop(a.at))
        patch(BasisLabel.loop(a.at), edge(a.at, 0))
    elif a.variant == "extended_edge":
        tip = n + 1
        patch(edge(0, a.at), edge(a.at, tip))
        patch(edge(a.at, tip), edge(tip, a.at), phase)
        patch(edge(tip, a.at), edge(a.at, 0))
    elif a.variant == "missing_loop":
        # unmarked spokes route (0,j) through their loop, loops exit to (j,0)
        copies = ((2 * n, 0), (n, 2 * n))
        # marked vertex: direct bounce carrying the marking phase, and its
        # dummy loop is a fixed point
        patch(edge(0, a.at), edge(a.at, 0), phase)
        patch(BasisLabel.loop(a.at), BasisLabel.loop(a.at))

    op = StepOperator(basis, float(hub_r), float(hub_t), copies, np.asarray(src, dtype=np.intp),
                      np.asarray(dst, dtype=np.intp), np.asarray(amp, dtype=complex))
    op.routing  # derived now, so that an untiled step is refused at build time
    return op


def build_step_operator(graph: StarGraph) -> StepOperator:
    n = graph.n_spokes
    return build_scattering_operator(graph, (n - 2) / n, 2 / n)


def walk_dtype(op: StepOperator, x: np.ndarray):
    """The arithmetic of a walk from x: float64 for a real x on a real operator,
    complex128 otherwise."""
    return np.float64 if op.is_real and not np.iscomplexobj(x) else np.complex128


def _patch_amplitudes(op: StepOperator, out: np.ndarray) -> np.ndarray:
    """The patch amplitudes in the arithmetic of the output buffer.

    A float64 buffer takes the real parts, which is exact only for a real
    operator; any other operator needs complex buffers.
    """
    if np.iscomplexobj(out):
        return op.perm_amp
    if not op.is_real:
        raise ConfigurationError(
            "a walk with complex phases cannot write into a real buffer")
    return op.perm_amp.real


class BlockWalk:
    """A walk whose state is held as one buffer per block of the routing.

    `blocks` lists the buffers in layout order (out, in, the loops of
    missing_loop, the anomaly tail).  A step gathers the patch sources,
    writes the hub rule over the in buffer in place, relabels the
    buffers by the role table and scatters the patches: after the start,
    no buffer is allocated or copied.  The arithmetic is fixed at the
    start: float64 for a real start on a real operator, else complex128.
    """

    def __init__(self, op: StepOperator, x0: np.ndarray):
        if x0.size != op.dimension:
            raise DimensionMismatchError(
                f"state dimension {x0.size} != operator dimension {op.dimension}")
        routing = op.routing
        dtype = walk_dtype(op, x0)
        self.blocks = [np.array(b, dtype=dtype) for b in routing.split(x0)]
        self._t = op.hub_t
        self._routing = routing
        self._amp = _patch_amplitudes(op, self.blocks[0])

    def step(self) -> None:
        routing = self._routing
        # one array product, as in the flat oracle step, so both round alike
        values = self._amp * self.gather(routing.src)
        hub = self.blocks[routing.roles[0]]
        np.subtract(self._t * hub.sum(), hub, out=hub)
        new = self.blocks = [self.blocks[role] for role in routing.roles]
        for (b, k), value in zip(routing.dst, values):
            new[b][k] = value

    def gather(self, located) -> np.ndarray:
        """The amplitudes at (block, offset) pairs, in their order."""
        return np.array([self.blocks[b][k] for b, k in located], dtype=self.blocks[0].dtype)


def _dense_columns(op: StepOperator, lo: int, hi: int, dtype=complex) -> np.ndarray:
    """Columns lo..hi-1 of the materialized matrix, float64 ones only for a real operator."""
    n = op.n_spokes
    u = np.zeros((op.dimension, hi - lo), dtype=dtype)
    hub = np.arange(max(lo, n), min(hi, 2 * n))
    u[0:n, hub - lo] = op.hub_t
    u[hub - n, hub - lo] = -op.hub_r
    for to, frm in op.copies:
        cols = np.arange(max(lo, frm), min(hi, frm + n))
        u[to + cols - frm, cols - lo] = 1.0
    u[op.perm_dst] = 0.0
    inside = (lo <= op.perm_src) & (op.perm_src < hi)
    u[op.perm_dst[inside], op.perm_src[inside] - lo] = _patch_amplitudes(op, u)[inside]
    return u


def dense_matrix(op: StepOperator) -> np.ndarray:
    """Materialized matrix, for tests and diagnostics only."""
    cap = DEFAULT_POLICY.dense_cap
    if op.dimension > cap:
        raise SizeError(f"dimension {op.dimension} over dense cap {cap}")
    return _dense_columns(op, 0, op.dimension)


def check_unitarity(op: StepOperator) -> UnitarityReport:
    """Max elementwise deviation of U†U from identity.

    Hub-column inner products take exactly two values (diagonal and
    off-diagonal), so the structural check is O(1) plus a scan of the
    patch amplitudes (block copies carry amplitude 1); for small
    dimensions the result is cross-checked against an explicit dense
    product, formed one block of column slabs at a time, in float64 for
    a real operator.
    """

    n = op.n_spokes
    r, t = op.hub_r, op.hub_t
    diag = r * r + (n - 1) * t * t
    offdiag = (n - 2) * t * t - 2 * r * t
    dev = max(abs(diag - 1.0), abs(offdiag))
    if op.perm_amp.size:
        dev = max(dev, float(np.abs(np.abs(op.perm_amp) ** 2 - 1.0).max()))
    d = op.dimension
    if d <= DEFAULT_POLICY.dense_cap:
        # column slabs of 2^20 entries (16 MiB complex) keep the memory far below
        # that of U itself; U†U is Hermitian, so the blocks on and above
        # the diagonal cover every entry
        width = max(1, (1 << 20) // d)
        dtype = float if op.is_real else complex
        for lo in range(0, d, width):
            left = _dense_columns(op, lo, min(d, lo + width), dtype).conj().T
            for lo2 in range(lo, d, width):
                gram = left @ _dense_columns(op, lo2, min(d, lo2 + width), dtype)
                if lo2 == lo:
                    gram -= np.eye(len(gram))
                dev = max(dev, float(np.abs(gram).max()))
    return UnitarityReport(max_deviation=dev, tolerance=DEFAULT_POLICY.unitarity_tol)
