"""Invariant-subspace discovery and operator reduction.

The walk treats every bulk (non-anomaly) spoke alike, so the rows of the
star split into a few cells whose span is invariant whatever N is: the
equitable-partition quotient of the star.  This module builds those cells,
reads the step on them from its role table, closes the seeds under it in
their coordinates, and expresses the step inside the closure.

Seeds are rows on the cells.  A basis is held on the cells, never as
full-length vectors: the uniform bulk profile in closed form, the unit
rows, and the coordinates of each basis vector on the cells.  The cells
and their operators are numpy arrays; numpy is imported by the functions
that build or read them, so a run that needs no cells never loads it.
"""

import math
from typing import NamedTuple

from .edgespace import EdgeBasis
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvarianceError,
    NumericalFailureError,
)
from .numerics import DEFAULT_POLICY, orthogonalize, require_within
from .stargraph import StarGraph
from .stepop import StepOperator


class ReducedBasis(NamedTuple):
    """Orthonormal vectors spanning a subspace closed under the walk step,
    held on the star's cells.

    The cells are the uniform bulk profile, 1/sqrt(N - k) off the k
    anomaly offsets and held in closed form, in each bulk block, block by
    block, then one unit cell per entry of units.  The cells are
    orthonormal; basis vector k is sum_j coords[k, j] cell_j.
    """

    # the numpy arrays are annotated `object`: an annotation is evaluated
    # at import, before numpy is loaded
    n_spokes: int
    anomalous: object  # intp array of the anomaly offsets, where the uniform profile is zero
    blocks: tuple[slice, ...]  # the bulk blocks, each of length N
    units: object  # intp array of the position of each unit cell
    coords: object  # dim x (len(blocks) + len(units)) array, orthonormal rows
    full_dim: int

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @property
    def uniform_sum(self) -> float:
        """The uniform profile's sum, sqrt(N - k); it is one over its value."""
        return math.sqrt(self.n_spokes - len(self.anomalous))

    def rows(self, index) -> "np.ndarray":
        """The rows of the full-dimension basis V at the given positions."""
        import numpy as np

        index = np.asarray(index, dtype=np.intp)
        cells = np.zeros((index.size, self.coords.shape[1]), complex)
        for k, block in enumerate(self.blocks):
            inside = (index >= block.start) & (index < block.stop)
            offsets = index[inside] - block.start
            # off the at most two anomaly offsets; np.isin may import numpy.ma
            bulk = (offsets[:, None] != self.anomalous).all(axis=1)
            cells[inside, k] = bulk / self.uniform_sum
        cells[:, len(self.blocks):] = index[:, None] == self.units
        return cells @ self.coords.T

    def uniform(self, k: int) -> "np.ndarray":
        """The uniform state on bulk block k in cell coordinates: its all-ones
        over sqrt(N), where the block's cell weighs the uniform's sum and
        each unit in the block 1."""
        import numpy as np

        block = self.blocks[k]
        cells = np.zeros(self.coords.shape[1], complex)
        cells[k] = self.uniform_sum
        cells[len(self.blocks):] = (block.start <= self.units) & (self.units < block.stop)
        return cells / math.sqrt(self.n_spokes)


class ReducedOperator(NamedTuple):
    matrix: object  # dim x dim numpy array, unitary
    basis: ReducedBasis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _accept(vec: "np.ndarray", rows: "np.ndarray") -> "np.ndarray":
    """Orthogonalize vec against the rows and append it, normalised, unless
    its residual is at most DEFAULT_POLICY.closure_residual or the rows
    already span the space; returns the rows."""
    import numpy as np

    tol = DEFAULT_POLICY.closure_residual
    res = orthogonalize(vec, rows, tol)
    if res <= tol or len(rows) == vec.size:
        return rows
    vec *= 1.0 / res  # not vec / res: a complex division by a nan residual warns
    return np.vstack((rows, vec))


def star_cells(basis: EdgeBasis) -> ReducedBasis:
    """The star's cells as a basis: its span is invariant under the walk.

    Each bulk block (out, in, and missing_loop's loops) carries the
    uniform bulk profile, in closed form, zero on the anomaly vertices.
    Every other row is a unit cell of its own.
    """
    import numpy as np

    vertices = StarGraph(basis.n_spokes, basis.anomaly).anomaly_vertices
    anomalous = np.array(basis.out_rows(vertices), dtype=np.intp)
    bounds = basis.bounds  # every block but the anomaly tail is a bulk block
    blocks = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1]))
    units = np.array(basis.out_rows(vertices) + basis.in_rows(vertices)
                     + basis.anomaly_only_rows, dtype=np.intp)
    return ReducedBasis(n_spokes=basis.n_spokes, anomalous=anomalous, blocks=blocks,
                        units=units, coords=np.eye(len(blocks) + len(units), dtype=complex),
                        full_dim=basis.dim)


def cells_operator(op: StepOperator, cells: ReducedBasis) -> "np.ndarray":
    """M = C*UC on the cells C of a basis, read from the operator's role
    table and patches, and certified.

    The hub writes t*sum(in) - in over the out block, whose all-ones is
    sqrt(N) `uniform(0)`; a bulk cell sums to sqrt(N - k), a unit to 1.
    Every other block is the old block of its role, cell by cell, each
    unit moving to the unit at its offset, and each patch moves one unit
    to another with its amplitude.  A move onto a row that no cell of
    its kind holds is refused: invariance is checked, not assumed.
    """
    import numpy as np

    if cells.full_dim != op.dimension:
        raise DimensionMismatchError(f"cells in dimension {cells.full_dim}, not {op.dimension}")
    # each cell as (block, key): a unit's key is its offset, and the bulk
    # cells share the key -1 in every bulk block
    where = ([(op.basis.bounds.index(block.start), -1) for block in cells.blocks]
             + list(op.basis.locate(cells.units)))
    column = {at: col for col, at in enumerate(where)}
    home = {role: k for k, role in enumerate(op.roles)}
    sums = [cells.uniform_sum] * len(cells.blocks) + [1.0] * len(cells.units)
    matrix = np.zeros((len(where),) * 2, complex)
    for col, (block, key) in enumerate(where):
        hub = block == op.roles[0]
        to = (0 if hub else home[block], key)
        if to not in column:
            raise NumericalFailureError(f"the step moves cell {col} onto {to}, which no cell holds")
        if hub:
            matrix[:, col] = op.hub_t * sums[col] * math.sqrt(op.n_spokes) * cells.uniform(0)
        matrix[column[to], col] += -1.0 if hub else 1.0
    for src, dst, amp in zip(op.src, op.dst, op.amp):
        if src not in column or dst not in column:
            raise NumericalFailureError(f"patch {src} -> {dst} moves a row that is not a unit")
        matrix[column[dst]] = 0.0
        matrix[column[dst], column[src]] = amp
    certify(matrix, 0.0)
    return matrix


def reduce_seeds(op: StepOperator, cells: ReducedBasis, seeds) -> ReducedOperator:
    """Close the span of the seeds, rows on the cells, under the operator,
    and express the operator inside the closure.

    The closure runs in the coordinates of the cells C, on M = C*UC read
    from the operator's role table.  Vectors are accepted in a
    deterministic order: seeds first, then the image under M of each
    accepted vector.  M is unitary, so a span it maps into itself is
    closed under its adjoint too.  Residuals of at most
    DEFAULT_POLICY.closure_residual count as contained.  The accepted rows
    Q are the basis's coordinates on the cells, and the operator on it is
    conj(Q) M Q^T.
    """
    import numpy as np

    seeds = np.asarray(seeds)
    if not len(seeds):
        raise ConfigurationError("at least one seed is required")
    m = cells.coords.shape[1]
    if seeds.shape[1:] != (m,):
        raise DimensionMismatchError(f"seeds of shape {seeds.shape} on {m} cells")
    reduced = cells_operator(op, cells)
    q = np.empty((0, m), complex)
    for c in seeds:
        q = _accept(c.astype(complex), q)
    head = 0
    while head < len(q):
        q = _accept(reduced @ q[head], q)
        head += 1
    images = reduced @ q.T
    matrix = q.conj() @ images
    leakage = np.linalg.norm(images - q.T @ matrix, axis=0).max(initial=0.0)
    certify(matrix, leakage)
    q.setflags(write=False)
    return ReducedOperator(matrix=matrix, basis=cells._replace(coords=q))


def certify(matrix: "np.ndarray", leakage: float) -> None:
    """Freeze a reduced operator once its basis leakage (the largest part of
    an image, or of a state the basis must hold, outside it) and its
    deviation from unitarity are within policy; refuse it otherwise."""
    import numpy as np

    require_within("basis is not invariant: leakage {value:.3e} exceeds {tol:.1e}",
                   leakage, DEFAULT_POLICY.invariance_tol, InvarianceError)
    require_within("reduced matrix deviates from unitarity by {value:.3e}",
                   np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max(initial=0.0),
                   DEFAULT_POLICY.reduced_unitarity_tol)
    matrix.setflags(write=False)
