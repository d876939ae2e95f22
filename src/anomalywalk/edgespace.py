"""Walk Hilbert space: directed-edge and loop basis states over a star graph.

The enumeration order is frozen so CSV dumps and golden tests are stable:
all hub-outgoing states (0,j) for j = 1..N, then all hub-incoming states
(j,0), then, where every outer vertex has one, the loops in ascending
vertex, then the anomaly tail in the order of its `VariantSchema.tail`.
"""

from bisect import bisect_right
from operator import index
from typing import NamedTuple

from .errors import ConfigurationError
from .stargraph import Anomaly, StarGraph


class BasisLabel(NamedTuple):
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
        if self.kind == "edge":
            raise ConfigurationError("not a loop label")
        return self.u

    def __str__(self) -> str:
        if self.kind != "edge":
            return f"l{self.u}"
        return f"{self.u}->{self.v}"


class EdgeBasis(NamedTuple):
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

    def state(self, word: str) -> BasisLabel:
        """The state a `VariantSchema` word names: "xy" the edge x -> y, "xx"
        the loop at x, over the hub 0, the anomaly's u, v and a (`at`), and
        t, the extension's tip, which gets the next free vertex id."""
        a = self.anomaly
        x, y = ({"0": 0, "u": a.u, "v": a.v, "a": a.at, "t": self.n_spokes + 1}[c]
                for c in word)
        return BasisLabel.loop(x) if x == y else BasisLabel.edge(x, y)

    @property
    def anomaly_block(self) -> slice:
        """Rows of the anomaly's states: N loops for missing_loop, else at most two."""
        return slice(2 * self.n_spokes, self.dim)

    @property
    def bounds(self) -> tuple[int, ...]:
        """Where each block starts, then the dimension: block k holds rows
        bounds[k]..bounds[k+1]-1.  The blocks are out, in and, for
        missing_loop, the loops (each of length N), then the anomaly tail
        (possibly empty)."""
        bulk = 3 if self.anomaly.schema.loops else 2
        return (*range(0, bulk * self.n_spokes + 1, self.n_spokes), self.dim)

    def locate(self, rows) -> tuple[tuple[int, int], ...]:
        """The (block, offset) of each row, in the given order, by bisection of `bounds`."""
        bounds = self.bounds
        located = []
        for row in map(int, rows):
            block = bisect_right(bounds, row) - 1
            located.append((block, row - bounds[block]))
        return tuple(located)

    @property
    def anomaly_only_rows(self) -> list[int]:
        """Rows of the states only the anomaly provides; of missing_loop's, the dummy loop."""
        if self.anomaly.schema.loops:
            return [self.position(BasisLabel.loop(self.anomaly.at))]
        return list(range(self.anomaly_block.start, self.dim))

    def out_rows(self, vertices) -> list[int]:
        """Rows of (0,j) for the outer vertices j, in the given order.

        Rows come as a list of ints, never a tuple: a list indexes a numpy
        array row by row, where a tuple of two would read one element."""
        rows = [index(j) - 1 for j in vertices]
        if not all(0 <= row < self.n_spokes for row in rows):
            raise ConfigurationError(f"vertex outside 1..{self.n_spokes}")
        return rows

    def in_rows(self, vertices) -> list[int]:
        """Rows of (j,0) for the outer vertices j, in the given order."""
        return [row + self.n_spokes for row in self.out_rows(vertices)]

    def position(self, label: BasisLabel) -> int:
        n = self.n_spokes
        if label.kind == "edge":
            if label.u == 0 and 1 <= label.v <= n:
                return label.v - 1
            if label.v == 0 and 1 <= label.u <= n:
                return n + label.u - 1
        elif self.anomaly.schema.loops and 1 <= label.u <= n:
            return 2 * n + label.u - 1
        block = [self.state(word) for word in self.anomaly.schema.tail]
        if label in block:
            return 2 * n + block.index(label)
        raise ConfigurationError(f"label {label} not in basis")


def make_basis(graph: StarGraph) -> EdgeBasis:
    return EdgeBasis(n_spokes=graph.n_spokes, anomaly=graph.anomaly)
