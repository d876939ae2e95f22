"""Invariant-subspace discovery and operator reduction.

The walk operators carry a large permutation part and a single dense hub
rule, so the orbit of a symmetric seed state closes after a handful of
directions.  This module finds that closure numerically, expresses the step
operator inside it, and maps states back and forth.

The closure holds its directions as the rows of one C-ordered block, so
every projection is a BLAS product over contiguous memory, and the basis
it returns is the transpose of that block: a d x m matrix whose columns
are contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edgespace import WalkState, make_state
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvarianceError,
    NumericalFailureError,
    SizeError,
    SubspaceTooLargeError,
)
from .numerics import DEFAULT_POLICY, NumericPolicy
from .stargraph import physical_memory_bytes
from .stepop import StepOperator, apply_adjoint_into, apply_into


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


def coefficients(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients c = V*x of x on orthonormal columns v.

    A real basis splits a complex x into its real and imaginary parts, so
    that V is never cast to complex; decompose does the same.
    """
    if not np.iscomplexobj(v) and np.iscomplexobj(x):
        return _inner(v.T, x.real) + 1j * _inner(v.T, x.imag)
    return _inner(v.T, x)


def decompose(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients c = V*x on orthonormal columns v, and the norm of x - Vc."""
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


def invariant_basis(op: StepOperator, seeds: list[WalkState],
                    policy: NumericPolicy = DEFAULT_POLICY) -> ReducedBasis:
    """Close the span of the seeds under the operator and its adjoint.

    Vectors are accepted in a deterministic order: seeds first, then for
    each accepted vector its image under U followed by its image under U
    adjoint.  Residuals below policy.closure_residual are treated as
    already contained.  Accepted directions are the contiguous rows of one
    block, held in float64 when the operator and every seed are real and
    in complex128 otherwise.
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
    cap = policy.closure_cap
    rows = _allocate_rows(min(cap, max(8, 2 * len(seeds))), d, dtype)
    count = 0

    def absorb(vec: np.ndarray) -> None:
        nonlocal rows, count
        res = _orthogonalize(vec, rows[:count], policy.closure_residual)
        if res <= policy.closure_residual:
            return
        if count >= cap:
            raise SubspaceTooLargeError(
                f"invariant closure exceeded {cap} directions")
        if count == len(rows):
            grown = _allocate_rows(min(cap, 2 * count), d, dtype, rows.nbytes)
            grown[:count] = rows
            rows = grown
        np.divide(vec, res, out=rows[count])
        count += 1

    for seed in seeds:
        amps = seed.amplitudes.real if real else seed.amplitudes
        absorb(amps.astype(dtype))

    work = np.empty(d, dtype=dtype)
    head = 0
    while head < count:
        src = rows[head]
        absorb(apply_into(op, src, work))
        absorb(apply_adjoint_into(op, src, work))
        head += 1

    # Gram-Schmidt leaves the rows orthonormal only to a few 1e-12 at
    # N=1e6, too loose for the eigenframe check downstream; one Cholesky
    # QR pass restores them to the precision of their Gram matrix G = LL*.
    # The rows become conj(L^-1) Q: the unique triangular
    # re-orthonormalisation whose R = L* has a positive diagonal, so each
    # direction keeps the phase Gram-Schmidt gave it
    q = rows[:count]
    chol = np.linalg.cholesky(q.conj() @ q.T)
    basis = _allocate_rows(count, d, dtype, rows.nbytes)
    np.matmul(np.linalg.inv(chol).conj(), q, out=basis)
    basis.setflags(write=False)
    return ReducedBasis(matrix=basis.T)


def streamed_reduction(op: StepOperator, v: np.ndarray) -> tuple[np.ndarray, float]:
    """V*UV for orthonormal columns v, and the largest leakage of an image.

    The images are streamed: each column's image goes into one reused work
    vector, is expanded on the basis and measured for the part outside it.
    """
    m = v.shape[1]
    dtype = v.dtype if op.is_real else np.complex128
    work = np.empty(v.shape[0], dtype=dtype)
    reduced = np.empty((m, m), dtype=dtype)
    leakage = 0.0
    for k in range(m):
        reduced[:, k], leak = decompose(v, apply_into(op, v[:, k], work))
        leakage = max(leakage, leak)
    return reduced, leakage


def reduce_operator(op: StepOperator, basis: ReducedBasis,
                    policy: NumericPolicy = DEFAULT_POLICY) -> ReducedOperator:
    """Express the step operator in the reduced basis as V* U V.

    The basis must actually be invariant: the part of each image outside
    the span is the invariance residual and must stay below
    policy.invariance_tol.
    """

    if basis.full_dim != op.dimension:
        raise DimensionMismatchError(
            f"basis lives in dimension {basis.full_dim}, "
            f"operator in {op.dimension}")
    m = basis.dim
    reduced, residual = streamed_reduction(op, basis.matrix)
    if residual > policy.invariance_tol:
        raise InvarianceError(
            f"basis is not invariant: leakage {residual:.3e} "
            f"exceeds {policy.invariance_tol:.1e}")
    gram_dev = np.abs(reduced.conj().T @ reduced - np.eye(m)).max() if m else 0.0
    if gram_dev > policy.reduced_unitarity_tol:
        raise NumericalFailureError(
            f"reduced matrix deviates from unitarity by {gram_dev:.3e}")
    reduced.setflags(write=False)
    return ReducedOperator(matrix=reduced, basis=basis)


def project(state: WalkState, basis: ReducedBasis) -> np.ndarray:
    """Coefficients of the state on the reduced basis columns."""
    if state.basis_dim != basis.full_dim:
        raise DimensionMismatchError(
            f"state dimension {state.basis_dim} != basis dimension {basis.full_dim}")
    return coefficients(basis.matrix, state.amplitudes)


def lift(coefficients: np.ndarray, basis: ReducedBasis) -> WalkState:
    """Full-space state with the given reduced coefficients."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size != basis.dim:
        raise DimensionMismatchError(
            f"expected {basis.dim} coefficients, got shape {coeffs.shape}")
    return make_state(basis.matrix @ coeffs, require_unit=False)
