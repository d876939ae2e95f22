"""Walk Hilbert space: directed-edge and loop basis states over a star graph.

The enumeration order is frozen so CSV dumps and golden tests are stable:
all hub-outgoing states (0,j) for j = 1..N, then all hub-incoming states
(j,0), then anomaly states in a fixed documented order (extra-edge pair,
loop states ascending vertex, extension pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, NumericalFailureError
from .numerics import DEFAULT_POLICY
from .stargraph import Anomaly, StarGraph


@dataclass(frozen=True, order=True)
class BasisLabel:
    """Either a directed edge (u -> v, u != v) or a loop sitting at one vertex."""

    kind: str  # "edge" or "loop"
    u: int
    v: int

    @staticmethod
    def edge(u: int, v: int) -> "BasisLabel":
        if u == v:
            raise ConfigurationError("directed edge endpoints must differ")
        return BasisLabel("edge", u, v)

    @staticmethod
    def loop(at: int) -> "BasisLabel":
        return BasisLabel("loop", at, at)

    @property
    def at(self) -> int:
        if self.kind != "loop":
            raise ConfigurationError("not a loop label")
        return self.u

    def __str__(self) -> str:
        if self.kind == "loop":
            return f"l{self.u}"
        return f"{self.u}->{self.v}"


@dataclass(frozen=True)
class EdgeBasis:
    """The frozen enumeration as arithmetic over three or four blocks.

    Position j-1 holds (0,j), position N+j-1 holds (j,0), and the anomaly
    states follow from 2N on; no per-state table is kept.  Outside the step
    kernel, code reads rows through the block slices and row accessors.
    """

    n_spokes: int
    anomaly: Anomaly

    @property
    def dim(self) -> int:
        return StarGraph(self.n_spokes, self.anomaly).hilbert_dim

    def _fixed_block(self) -> tuple[BasisLabel, ...]:
        """Anomaly states of the variants whose block size does not grow with N."""
        a = self.anomaly
        if a.variant == "extra_edge":
            return (BasisLabel.edge(a.u, a.v), BasisLabel.edge(a.v, a.u))
        if a.variant == "loop":
            return (BasisLabel.loop(a.at),)
        if a.variant == "extended_edge":
            # the extension endpoint gets the next free vertex id
            tip = self.n_spokes + 1
            return (BasisLabel.edge(a.at, tip), BasisLabel.edge(tip, a.at))
        return ()

    @property
    def out_block(self) -> slice:
        """Rows of the hub-outgoing states (0,j)."""
        return slice(0, self.n_spokes)

    @property
    def in_block(self) -> slice:
        """Rows of the hub-incoming states (j,0)."""
        return slice(self.n_spokes, 2 * self.n_spokes)

    @property
    def anomaly_block(self) -> slice:
        """Rows of the anomaly's states: N loops for missing_loop, else at most two."""
        return slice(2 * self.n_spokes, self.dim)

    @property
    def anomaly_only_rows(self) -> np.ndarray:
        """Rows of the states only the anomaly provides; of missing_loop's, the dummy loop."""
        if self.anomaly.schema.loops:
            return np.array([self.position(BasisLabel.loop(self.anomaly.at))])
        return np.arange(self.anomaly_block.start, self.dim)

    def out_rows(self, vertices) -> np.ndarray:
        """Rows of (0,j) for the outer vertices j, in the given order."""
        if not isinstance(vertices, np.ndarray):  # any iterable; arrays stay vectorized
            vertices = list(vertices)
        rows = np.asarray(vertices, dtype=np.intp) - 1
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_spokes):
            raise ConfigurationError(f"vertex outside 1..{self.n_spokes}")
        return rows

    def in_rows(self, vertices) -> np.ndarray:
        """Rows of (j,0) for the outer vertices j, in the given order."""
        return self.out_rows(vertices) + self.n_spokes

    def position(self, label: BasisLabel) -> int:
        n = self.n_spokes
        if label.kind == "edge":
            if label.u == 0 and 1 <= label.v <= n:
                return label.v - 1
            if label.v == 0 and 1 <= label.u <= n:
                return n + label.u - 1
        elif self.anomaly.schema.loops and 1 <= label.u <= n:
            return 2 * n + label.u - 1
        block = self._fixed_block()
        if label in block:
            return 2 * n + block.index(label)
        raise ConfigurationError(f"label {label} not in basis")

    def label(self, pos: int) -> BasisLabel:
        """Inverse of position."""
        n = self.n_spokes
        if not 0 <= pos < self.dim:
            raise ConfigurationError(f"position {pos} outside 0..{self.dim - 1}")
        if pos < n:
            return BasisLabel.edge(0, pos + 1)
        if pos < 2 * n:
            return BasisLabel.edge(pos - n + 1, 0)
        if self.anomaly.schema.loops:
            return BasisLabel.loop(pos - 2 * n + 1)
        return self._fixed_block()[pos - 2 * n]


@dataclass(frozen=True)
class WalkState:
    amplitudes: np.ndarray
    basis_dim: int


def make_basis(graph: StarGraph) -> EdgeBasis:
    return EdgeBasis(n_spokes=graph.n_spokes, anomaly=graph.anomaly)


def make_state(amplitudes: np.ndarray, *, require_unit: bool = True) -> WalkState:
    """A frozen copy of the amplitudes: float64 when they are real, else complex128."""
    amps = np.asarray(amplitudes)
    amps = np.array(amps, dtype=float if amps.dtype.kind in "biuf" else complex)
    if amps.ndim != 1:
        raise DimensionMismatchError("amplitudes must be a one-dimensional vector")
    if require_unit and abs(np.linalg.norm(amps) - 1.0) > DEFAULT_POLICY.unit_norm_tol:
        raise ConfigurationError("state is not unit-norm")
    amps.setflags(write=False)
    return WalkState(amplitudes=amps, basis_dim=amps.size)


def _uniform_state(basis: EdgeBasis, rows) -> WalkState:
    """Equal amplitudes on the rows (a slice or an index array), zero elsewhere."""
    amps = np.zeros(basis.dim)
    count = amps[rows].size
    if not count:
        raise ConfigurationError("vertex set must be non-empty")
    amps[rows] = 1.0 / np.sqrt(count)
    return make_state(amps)


def hub_out_state(basis: EdgeBasis) -> WalkState:
    """Uniform superposition over all hub-outgoing spoke states."""
    return _uniform_state(basis, basis.out_block)


def hub_in_state(basis: EdgeBasis) -> WalkState:
    return _uniform_state(basis, basis.in_block)


def all_loops_state(basis: EdgeBasis) -> WalkState:
    """Uniform superposition over all loop states (needs one loop per vertex)."""
    if not basis.anomaly.schema.loops:
        raise ConfigurationError("graph does not carry a loop on every vertex")
    return _uniform_state(basis, basis.anomaly_block)


def symmetric_out_state(basis: EdgeBasis, vertices) -> WalkState:
    """Uniform superposition of (0,j) over the given outer vertices."""
    return _uniform_state(basis, basis.out_rows(vertices))


def symmetric_in_state(basis: EdgeBasis, vertices) -> WalkState:
    return _uniform_state(basis, basis.in_rows(vertices))


def edge_probabilities(state: WalkState, basis: EdgeBasis) -> dict:
    """Probability per undirected edge or loop.

    Keys are ('spoke', j) for hub spokes, ('edge', u, v) with u < v for
    non-spoke edges, and ('loop', at).  Directed amplitudes of the same
    undirected edge are summed.
    """

    if state.basis_dim != basis.dim:
        raise DimensionMismatchError(
            f"state dimension {state.basis_dim} != basis dimension {basis.dim}")
    vertices = range(1, basis.n_spokes + 1)
    weights = np.abs(state.amplitudes) ** 2
    probs = dict(zip(zip(repeat("spoke"), vertices),
                     (weights[basis.out_block] + weights[basis.in_block]).tolist()))
    if basis.anomaly.schema.loops:
        probs.update(zip(zip(repeat("loop"), vertices),
                         weights[basis.anomaly_block].tolist()))
    block = basis._fixed_block()
    if block:  # one loop, or both directions of one non-spoke edge
        u, v = block[0].u, block[0].v
        key = ("loop", u) if block[0].kind == "loop" else ("edge", min(u, v), max(u, v))
        probs[key] = float(weights[basis.anomaly_block].sum())
    total = sum(probs.values())
    if abs(total - 1.0) > DEFAULT_POLICY.probability_tol:
        raise NumericalFailureError(f"probabilities sum to {total}, expected 1")
    return probs
