"""Invariant-subspace discovery and operator reduction.

The walk treats every bulk (non-anomaly) spoke alike, so the rows of the
star split into a few cells whose span is invariant whatever N is: the
equitable-partition quotient of the star.  This module builds those cells,
closes the seeds under the walk in their coordinates, expresses the step
operator inside the closure, and maps states back and forth.

The basis it returns is the transpose of one C-ordered block of rows: a
d x m matrix whose columns are contiguous, so every projection is a BLAS
product over contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edgespace import EdgeBasis, WalkState, make_state
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvarianceError,
    NumericalFailureError,
    SizeError,
)
from .numerics import DEFAULT_POLICY
from .stargraph import StarGraph, physical_memory_bytes
from .stepop import StepOperator, apply_into, walk_dtype


@dataclass(frozen=True)
class ReducedBasis:
    """Orthonormal columns spanning a subspace closed under the walk step."""

    matrix: np.ndarray  # full_dim x dim, orthonormal columns

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def full_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ReducedOperator:
    matrix: np.ndarray  # dim x dim, unitary
    basis: ReducedBasis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _inner(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<q_k, x> for every row q_k, reading the rows in place."""
    return (x.conj() @ rows.T).conj()


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def decompose(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients c = V*x on orthonormal columns v, and the norm of x - Vc.

    A real basis splits a complex x into its real and imaginary parts, so
    that V is never cast to complex.
    """
    if not np.iscomplexobj(v) and np.iscomplexobj(x):
        c_re, leak_re = decompose(v, x.real)
        c_im, leak_im = decompose(v, x.imag)
        return c_re + 1j * c_im, math.hypot(leak_re, leak_im)
    c = _inner(v.T, x)
    rest = v @ c
    np.subtract(x, rest, out=rest)
    return c, _norm(rest)


def _orthogonalize(vec: np.ndarray, rows: np.ndarray, tol: float) -> float:
    """Remove the span of the orthonormal rows from vec, in place.

    Classical Gram-Schmidt run twice (CGS2), each sweep one projection
    h = <Q, vec> and one update vec -= h Q; the second sweep is skipped
    when the first already leaves a residual of at most tol, since a
    further projection could only shrink it.  Returns the residual norm.
    """
    if len(rows):
        for _ in range(2):
            vec -= _inner(rows, vec) @ rows
            res = _norm(vec)
            if res <= tol:
                break
        return res
    return _norm(vec)


def _allocate_rows(count: int, d: int, dtype, held: int = 0) -> np.ndarray:
    """A zeroed count x d block, refused when it and `held` bytes cannot fit."""
    need = count * d * np.dtype(dtype).itemsize + held
    memory = physical_memory_bytes()
    if need > memory:
        raise SizeError(f"invariant closure needs {need / 2 ** 30:.3g} GiB, more "
                        f"than the {memory / 2 ** 30:.3g} GiB of physical memory")
    return np.zeros((count, d), dtype=dtype)


def _accept(vec: np.ndarray, rows: np.ndarray, count: int, tol: float) -> int:
    """Orthogonalize vec against rows[:count] and store it, normalised, as
    rows[count] unless its residual is at most tol; returns the new count."""
    res = _orthogonalize(vec, rows[:count], tol)
    if res <= tol or count == len(rows):
        return count
    np.divide(vec, res, out=rows[count])
    return count + 1


def _cells(basis: EdgeBasis, seeds: list[np.ndarray], dtype, tol: float) -> np.ndarray:
    """Orthonormal rows whose span is invariant under the walk and holds the seeds.

    Each bulk block (out, in, and missing_loop's loops) carries the bulk
    profiles: the uniform vector and each seed's part in each bulk block,
    orthonormalised, zero on the anomaly vertices.  Every other row is a
    unit cell of its own.  The supports are disjoint, so the rows are
    orthonormal as built.
    """
    n = basis.n_spokes
    vertices = StarGraph(n, basis.anomaly).anomaly_vertices
    anomalous = basis.out_rows(vertices)
    blocks = [basis.out_block, basis.in_block]
    if basis.anomaly.schema.loops:
        blocks.append(basis.anomaly_block)
    candidates = [np.ones(n, dtype)] + [seed[block] for seed in seeds for block in blocks]
    profiles = np.empty((len(candidates), n), dtype)
    count = 0
    for vec in candidates:
        vec = vec.astype(dtype)
        vec[anomalous] = 0.0
        count = _accept(vec, profiles, count, tol)
    units = np.concatenate((anomalous, basis.in_rows(vertices), basis.anomaly_only_rows))
    cells = _allocate_rows(len(blocks) * count + len(units), basis.dim, dtype)
    for k, block in enumerate(blocks):
        cells[k * count:(k + 1) * count, block] = profiles[:count]
    cells[np.arange(len(blocks) * count, len(cells)), units] = 1.0
    return cells


def reduce_seeds(op: StepOperator, seeds: list[WalkState]) -> ReducedOperator:
    """Close the span of the seeds under the operator and its adjoint, and
    express the operator inside the closure.

    The closure runs in the coordinates of the cells C, whose reduction
    M = C*UC (the only pass over the full dimension) and the seeds' leakage
    certify that they hold it.  Vectors are accepted in a deterministic
    order: seeds first, then for each accepted vector its image under M
    followed by its image under M adjoint; residuals of at most
    DEFAULT_POLICY.closure_residual count as contained.  For the accepted rows Q
    the basis is QC, in float64 when the operator and every seed are real
    and in complex128 otherwise, and the operator on it is conj(Q) M Q^T.
    """

    if not seeds:
        raise ConfigurationError("at least one seed state is required")
    d = op.dimension
    for seed in seeds:
        if seed.basis_dim != d:
            raise DimensionMismatchError(
                f"seed dimension {seed.basis_dim} != operator dimension {d}")
    real = op.is_real and not any(np.any(seed.amplitudes.imag) for seed in seeds)
    dtype = np.float64 if real else np.complex128
    tol = DEFAULT_POLICY.closure_residual
    amps = [seed.amplitudes.real if real else seed.amplitudes for seed in seeds]
    cells = _cells(op.basis, amps, dtype, tol)
    reduced = reduce_operator(op, ReducedBasis(cells.T)).matrix
    starts = [decompose(cells.T, x) for x in amps]
    q = np.zeros((len(cells), len(cells)), dtype=dtype)
    count = 0
    for c, _ in starts:
        count = _accept(c, q, count, tol)
    head = 0
    while head < count:
        count = _accept(reduced @ q[head], q, count, tol)
        count = _accept(reduced.conj().T @ q[head], q, count, tol)
        head += 1
    q = q[:count]
    images = reduced @ q.T
    matrix = q.conj() @ images
    leakage = np.linalg.norm(images - q.T @ matrix, axis=0).max(initial=0.0)
    certify(matrix, max([leakage] + [leak for _, leak in starts]))
    basis = _allocate_rows(count, d, dtype, cells.nbytes)
    np.matmul(q, cells, out=basis)
    basis.setflags(write=False)
    return ReducedOperator(matrix=matrix, basis=ReducedBasis(matrix=basis.T))


def invariant_basis(op: StepOperator, seeds: list[WalkState]) -> ReducedBasis:
    """The basis of reduce_seeds: the closure of the seeds' span."""
    return reduce_seeds(op, seeds).basis


def certify(matrix: np.ndarray, leakage: float) -> None:
    """Freeze a reduced operator once its basis leakage (the largest part of
    an image, or of a state the basis must hold, outside it) and its
    deviation from unitarity are within policy; refuse it otherwise."""
    policy = DEFAULT_POLICY
    if leakage > policy.invariance_tol:
        raise InvarianceError(f"basis is not invariant: leakage {leakage:.3e} "
                              f"exceeds {policy.invariance_tol:.1e}")
    gram_dev = np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max(initial=0.0)
    if gram_dev > policy.reduced_unitarity_tol:
        raise NumericalFailureError(
            f"reduced matrix deviates from unitarity by {gram_dev:.3e}")
    matrix.setflags(write=False)


def reduce_operator(op: StepOperator, basis: ReducedBasis) -> ReducedOperator:
    """Express the step operator in the reduced basis as V* U V.

    The images are streamed: each column's image goes into one reused work
    vector and is expanded on the basis.  The basis must actually be
    invariant: the part of each image outside the span is the invariance
    residual, certified against DEFAULT_POLICY.invariance_tol.
    """

    if basis.full_dim != op.dimension:
        raise DimensionMismatchError(
            f"basis lives in dimension {basis.full_dim}, "
            f"operator in {op.dimension}")
    v = basis.matrix
    dtype = walk_dtype(op, v)
    work = np.empty(basis.full_dim, dtype=dtype)
    reduced = np.empty((basis.dim, basis.dim), dtype=dtype)
    leakage = 0.0
    for k in range(basis.dim):
        reduced[:, k], leak = decompose(v, apply_into(op, v[:, k], work))
        leakage = max(leakage, leak)
    certify(reduced, leakage)
    return ReducedOperator(matrix=reduced, basis=basis)


def project(state: WalkState, basis: ReducedBasis) -> np.ndarray:
    """Coefficients of the state on the reduced basis columns."""
    if state.basis_dim != basis.full_dim:
        raise DimensionMismatchError(
            f"state dimension {state.basis_dim} != basis dimension {basis.full_dim}")
    return decompose(basis.matrix, state.amplitudes)[0]


def lift(coefficients: np.ndarray, basis: ReducedBasis) -> WalkState:
    """Full-space state with the given reduced coefficients."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size != basis.dim:
        raise DimensionMismatchError(
            f"expected {basis.dim} coefficients, got shape {coeffs.shape}")
    return make_state(basis.matrix @ coeffs, require_unit=False)
