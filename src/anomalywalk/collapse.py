"""The star's cells and the step on them.

The walk treats every bulk (non-anomaly) spoke alike, so the rows of the
star split into a few cells whose span is invariant whatever N is: the
equitable-partition quotient of the star.  This module builds those cells
and reads the step on them from its role table, certified to keep to
them and to be unitary.

The cells are held in closed form, never as full-length vectors: the
uniform bulk profile of each bulk block and the unit rows.  A vector or
an operator on them is a tuple of Python numbers, at most 15 of them a
row.
"""

import math
from typing import NamedTuple

from .edgespace import EdgeBasis
from .errors import DimensionMismatchError, InvarianceError, NumericalFailureError
from .numerics import DEFAULT_POLICY, frame_deviation, require_within
from .stargraph import StarGraph
from .stepop import StepOperator


class ReducedBasis(NamedTuple):
    """The star's cells, orthonormal vectors spanning a subspace closed
    under the walk step.

    The cells are the uniform bulk profile, 1/sqrt(N - k) off the k
    anomaly offsets and held in closed form, in each bulk block, block by
    block, then one unit cell per entry of units.
    """

    n_spokes: int
    anomalous: tuple[int, ...]  # the anomaly offsets, where the uniform profile is zero
    blocks: tuple[slice, ...]  # the bulk blocks, each of length N
    units: tuple[int, ...]  # the position of each unit cell
    full_dim: int

    @property
    def dim(self) -> int:
        return len(self.blocks) + len(self.units)

    @property
    def uniform_sum(self) -> float:
        """The uniform profile's sum, sqrt(N - k); it is one over its value."""
        return math.sqrt(self.n_spokes - len(self.anomalous))

    def rows(self, index) -> tuple:
        """The rows of the full-dimension cells C at the given positions,
        each a tuple of floats, one per cell."""
        rows = []
        for row in map(int, index):
            cells = [0.0] * self.dim
            for k, block in enumerate(self.blocks):
                if block.start <= row < block.stop and row - block.start not in self.anomalous:
                    cells[k] = 1.0 / self.uniform_sum
            for j, unit in enumerate(self.units):
                if unit == row:
                    cells[len(self.blocks) + j] = 1.0
            rows.append(tuple(cells))
        return tuple(rows)

    def uniform(self, k: int) -> tuple:
        """The uniform state on bulk block k in cell coordinates: its all-ones
        over sqrt(N), where the block's cell weighs the uniform's sum and
        each unit in the block 1."""
        block = self.blocks[k]
        cells = [0.0] * self.dim
        cells[k] = self.uniform_sum
        for j, unit in enumerate(self.units):
            if block.start <= unit < block.stop:
                cells[len(self.blocks) + j] = 1.0
        return tuple(x / math.sqrt(self.n_spokes) for x in cells)


def star_cells(basis: EdgeBasis) -> ReducedBasis:
    """The star's cells as a basis: its span is invariant under the walk.

    Each bulk block (out, in, and missing_loop's loops) carries the
    uniform bulk profile, in closed form, zero on the anomaly vertices.
    Every other row is a unit cell of its own.
    """
    vertices = StarGraph(basis.n_spokes, basis.anomaly).anomaly_vertices
    bounds = basis.bounds  # every block but the anomaly tail is a bulk block
    return ReducedBasis(
        n_spokes=basis.n_spokes, anomalous=tuple(basis.out_rows(vertices)),
        blocks=tuple(slice(lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])),
        units=tuple(basis.out_rows(vertices) + basis.in_rows(vertices)
                    + basis.anomaly_only_rows),
        full_dim=basis.dim)


def cells_operator(op: StepOperator, cells: ReducedBasis) -> tuple:
    """M = C*UC on the cells C of a basis, read from the operator's role
    table and patches, certified, and held as a tuple of rows.

    The hub writes t*sum(in) - in over the out block, whose all-ones is
    sqrt(N) `uniform(0)`; a bulk cell sums to sqrt(N - k), a unit to 1.
    Every other block is the old block of its role, cell by cell, each
    unit moving to the unit at its offset, and each patch moves one unit
    to another with its amplitude.  A move onto a row that no cell of
    its kind holds is refused: invariance is checked, not assumed.
    """
    if cells.full_dim != op.dimension:
        raise DimensionMismatchError(f"cells in dimension {cells.full_dim}, not {op.dimension}")
    # each cell as (block, key): a unit's key is its offset, and the bulk
    # cells share the key -1 in every bulk block
    where = ([(op.basis.bounds.index(block.start), -1) for block in cells.blocks]
             + list(op.basis.locate(cells.units)))
    column = {at: col for col, at in enumerate(where)}
    home = {role: k for k, role in enumerate(op.roles)}
    sums = [cells.uniform_sum] * len(cells.blocks) + [1.0] * len(cells.units)
    out = cells.uniform(0)
    matrix = [[0j] * len(where) for _ in where]
    for col, (block, key) in enumerate(where):
        hub = block == op.roles[0]
        to = (0 if hub else home[block], key)
        if to not in column:
            raise NumericalFailureError(f"the step moves cell {col} onto {to}, which no cell holds")
        if hub:
            scale = op.hub_t * sums[col] * math.sqrt(op.n_spokes)
            for row, x in zip(matrix, out):
                row[col] = complex(scale * x)
        matrix[column[to]][col] += -1.0 if hub else 1.0
    for src, dst, amp in zip(op.src, op.dst, op.amp):
        if src not in column or dst not in column:
            raise NumericalFailureError(f"patch {src} -> {dst} moves a row that is not a unit")
        matrix[column[dst]] = [0j] * len(where)
        matrix[column[dst]][column[src]] = amp
    certify(matrix, 0.0)
    return tuple(map(tuple, matrix))


def certify(matrix, leakage: float) -> None:
    """Pass a reduced operator, held as rows, once its basis leakage (the
    largest part of an image, or of a state the basis must hold, outside
    it) and its deviation from unitarity are within policy; refuse it
    otherwise."""
    require_within("basis is not invariant: leakage {value:.3e} exceeds {tol:.1e}",
                   leakage, DEFAULT_POLICY.invariance_tol, InvarianceError)
    require_within("reduced matrix deviates from unitarity by {value:.3e}",
                   frame_deviation(zip(*matrix)), DEFAULT_POLICY.reduced_unitarity_tol)
