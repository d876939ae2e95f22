"""Invariant-subspace discovery and operator reduction.

The walk treats every bulk (non-anomaly) spoke alike, so the rows of the
star split into a few cells whose span is invariant whatever N is: the
equitable-partition quotient of the star.  This module builds those cells,
reads the step on them from its role table, closes the seeds under it in
their coordinates, and expresses the step inside the closure.

Seeds are rows on the cells; `place` is the one path from full-length
vectors to them.  A basis is held on the cells, never as full-length
vectors: the uniform bulk profile in closed form, the profiles of placed
vectors as rows of length N, the unit rows, and the coordinates of each
basis vector on the cells.
"""

import math
from typing import NamedTuple

import numpy as np

from .edgespace import EdgeBasis
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvarianceError,
    NumericalFailureError,
)
from .numerics import DEFAULT_POLICY, inner, norm2, orthogonalize, require_within
from .stargraph import StarGraph
from .stepop import StepOperator


_LEAKAGE = "basis is not invariant: leakage {value:.3e} exceeds {tol:.1e}"


class ReducedBasis(NamedTuple):
    """Orthonormal vectors spanning a subspace closed under the walk step,
    held on the star's cells.

    The cells are each bulk profile placed in each bulk block, block by
    block, then one unit cell per entry of units.  The first profile is
    uniform, 1/sqrt(N - k) off the k anomaly offsets, and held in closed
    form; the rest are the orthonormal rows of `profiles`, zero on those
    offsets and orthogonal to it, so each sums to 0.  The cells are
    orthonormal; basis vector k is sum_j coords[k, j] cell_j.
    """

    profiles: np.ndarray  # p x N, the profiles besides the uniform one
    anomalous: np.ndarray  # the anomaly offsets, where every profile is zero
    blocks: tuple[slice, ...]  # the bulk blocks, each of length N
    units: np.ndarray  # the position of each unit cell
    coords: np.ndarray  # dim x (len(blocks) (p + 1) + len(units)), orthonormal rows
    full_dim: int

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @property
    def uniform_sum(self) -> float:
        """The uniform profile's sum, sqrt(N - k); it is one over its value."""
        return math.sqrt(self.profiles.shape[1] - len(self.anomalous))

    def rows(self, index) -> np.ndarray:
        """The rows of the full-dimension basis V at the given positions."""
        index = np.asarray(index, dtype=np.intp)
        p = 1 + len(self.profiles)
        cells = np.zeros((index.size, self.coords.shape[1]), complex)
        for k, block in enumerate(self.blocks):
            inside = (index >= block.start) & (index < block.stop)
            offsets = index[inside] - block.start
            # off the at most two anomaly offsets; np.isin may import numpy.ma
            bulk = (offsets[:, None] != self.anomalous).all(axis=1)
            cells[inside, k * p] = bulk / self.uniform_sum
            cells[inside, k * p + 1:(k + 1) * p] = self.profiles[:, offsets].T
        cells[:, len(self.blocks) * p:] = index[:, None] == self.units
        return cells @ self.coords.T

    def uniform(self, k: int) -> np.ndarray:
        """The uniform state on bulk block k in cell coordinates: its all-ones
        over sqrt(N), where the uniform cell weighs the uniform's sum, each
        other profile's cell its sum, 0, and each unit in the block 1."""
        p = 1 + len(self.profiles)
        block = self.blocks[k]
        cells = np.zeros(self.coords.shape[1], complex)
        cells[k * p] = self.uniform_sum
        cells[len(self.blocks) * p:] = (block.start <= self.units) & (self.units < block.stop)
        return cells / math.sqrt(self.profiles.shape[1])


class ReducedOperator(NamedTuple):
    matrix: np.ndarray  # dim x dim, unitary
    basis: ReducedBasis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _accept(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Orthogonalize vec against the rows and append it, normalised, unless
    its residual is at most DEFAULT_POLICY.closure_residual or the rows
    already span the space; returns the rows."""
    tol = DEFAULT_POLICY.closure_residual
    res = orthogonalize(vec, rows, tol)
    if res <= tol or len(rows) == vec.size:
        return rows
    vec *= 1.0 / res  # not vec / res: a complex division by a nan residual warns
    return np.vstack((rows, vec))


def star_cells(basis: EdgeBasis, vectors=()) -> ReducedBasis:
    """The star's cells as a basis: its span is invariant under the walk
    and holds the vectors.

    Each bulk block (out, in, and missing_loop's loops) carries the bulk
    profiles: the uniform one, in closed form, and each vector's part in
    each bulk block, orthonormalised against it, zero on the anomaly
    vertices.  Every other row is a unit cell of its own.
    """
    n = basis.n_spokes
    vertices = StarGraph(n, basis.anomaly).anomaly_vertices
    anomalous = basis.out_rows(vertices)
    bounds = basis.bounds  # every block but the anomaly tail is a bulk block
    blocks = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1]))
    profiles = np.empty((0, n), complex)
    for vec in (x[block].astype(complex) for x in vectors for block in blocks):
        for _ in range(2):  # the uniform part, removed twice as in CGS2
            vec[anomalous] = 0.0
            vec -= vec.sum() / (n - len(anomalous))
        vec[anomalous] = 0.0
        profiles = _accept(vec, profiles)
    units = np.concatenate((anomalous, basis.in_rows(vertices), basis.anomaly_only_rows))
    m = len(blocks) * (1 + len(profiles)) + len(units)
    profiles.setflags(write=False)
    return ReducedBasis(profiles=profiles, anomalous=anomalous, blocks=blocks, units=units,
                        coords=np.eye(m, dtype=complex), full_dim=basis.dim)


def cells_operator(op: StepOperator, cells: ReducedBasis) -> np.ndarray:
    """M = C*UC on the cells C of a basis, read from the operator's role
    table and patches, and certified.

    The hub writes t*sum(in) - in over the out block, whose all-ones is
    sqrt(N) `uniform(0)`; a uniform cell sums to sqrt(N - k), another bulk
    cell to 0, a unit to 1.
    Every other block is the old block of its role, cell by cell, each
    unit moving to the unit at its offset, and each patch moves one unit
    to another with its amplitude.  A move onto a row that no cell of
    its kind holds is refused: invariance is checked, not assumed.
    """
    if cells.full_dim != op.dimension:
        raise DimensionMismatchError(f"cells in dimension {cells.full_dim}, not {op.dimension}")
    p = 1 + len(cells.profiles)
    # each cell as (block, key): a unit's key is its offset, and profile
    # j's cells share the key -1 - j in every bulk block
    where = [(op.basis.bounds.index(block.start), -1 - j) for block in cells.blocks
             for j in range(p)] + list(op.basis.locate(cells.units))
    column = {at: col for col, at in enumerate(where)}
    home = {role: k for k, role in enumerate(op.roles)}
    sums = [cells.uniform_sum, *[0.0] * (p - 1)] * len(cells.blocks) + [1.0] * len(cells.units)
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


def place(basis: EdgeBasis, vectors) -> tuple[ReducedBasis, np.ndarray]:
    """Cells that hold full-length vectors, and the vectors' rows on them.

    A part that the cells drop (a block part within the closure residual)
    is leakage, refused as for a closure.
    """
    vectors = [np.asarray(x) for x in vectors]
    if any(x.shape != (basis.dim,) for x in vectors):
        raise DimensionMismatchError(f"vectors must be of the basis dimension {basis.dim}")
    cells = star_cells(basis, vectors)
    parts = [_cell_row(cells, x) for x in vectors]
    require_within(_LEAKAGE, np.max([leak for _, leak in parts], initial=0.0),
                   DEFAULT_POLICY.invariance_tol, InvarianceError)
    return cells, np.array([c for c, _ in parts])


def _cell_row(cells: ReducedBasis, x: np.ndarray) -> tuple[np.ndarray, float]:
    """A full-length vector's row on cells with identity coordinates, and
    the norm of its part that they drop, read one bulk block at a time.
    The unit cells hold their rows exactly, so they drop nothing unless a
    row is not finite, which makes the norm nan."""
    bulk, s = len(cells.blocks) * (1 + len(cells.profiles)), cells.uniform_sum
    row = np.empty(cells.coords.shape[1], complex)
    row[bulk:] = x[cells.units]
    rest = 0.0 if np.isfinite(row[bulk:]).all() else math.nan
    for h, block in zip(row[:bulk].reshape(len(cells.blocks), -1), cells.blocks):
        part = x[block].astype(complex)
        part[cells.anomalous] = 0.0
        h[0], h[1:] = part.sum() / s, inner(cells.profiles, part)
        part -= h[1:] @ cells.profiles
        part -= h[0] / s
        part[cells.anomalous] = 0.0
        rest += norm2(part)
    return row, math.sqrt(rest)


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


def certify(matrix: np.ndarray, leakage: float) -> None:
    """Freeze a reduced operator once its basis leakage (the largest part of
    an image, or of a state the basis must hold, outside it) and its
    deviation from unitarity are within policy; refuse it otherwise."""
    require_within(_LEAKAGE, leakage, DEFAULT_POLICY.invariance_tol, InvarianceError)
    require_within("reduced matrix deviates from unitarity by {value:.3e}",
                   np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max(initial=0.0),
                   DEFAULT_POLICY.reduced_unitarity_tol)
    matrix.setflags(write=False)
