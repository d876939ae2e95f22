"""Invariant-subspace discovery and operator reduction.

The walk operators carry a large permutation part and a single dense hub
rule, so the orbit of a symmetric seed state closes after a handful of
directions.  This module finds that closure numerically, expresses the step
operator inside it, and maps states back and forth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edgespace import WalkState, make_state
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvarianceError,
    NumericalFailureError,
    SubspaceTooLargeError,
)
from .numerics import DEFAULT_POLICY, NumericPolicy
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

    @property
    def vectors(self) -> list[WalkState]:
        return [make_state(self.matrix[:, k]) for k in range(self.dim)]


@dataclass(frozen=True)
class ReducedOperator:
    matrix: np.ndarray  # dim x dim, unitary
    basis: ReducedBasis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _orthogonalize(vec: np.ndarray, cols: np.ndarray, count: int) -> float:
    """Remove the span of the first `count` columns from vec, in place.

    Modified Gram-Schmidt with one full reorthogonalization pass; returns
    the residual norm.
    """
    for _ in range(2):
        for k in range(count):
            q = cols[:, k]
            vec -= (q.conj() @ vec) * q
    return float(np.linalg.norm(vec))


def invariant_basis(op: StepOperator, seeds: list[WalkState],
                    policy: NumericPolicy = DEFAULT_POLICY) -> ReducedBasis:
    """Close the span of the seeds under the operator and its adjoint.

    Vectors are accepted in a deterministic order: seeds first, then for
    each accepted vector its image under U followed by its image under U
    adjoint.  Residuals below policy.closure_residual are treated as
    already contained.
    """

    if not seeds:
        raise ConfigurationError("at least one seed state is required")
    d = op.dimension
    cap = policy.closure_cap
    cols = np.zeros((d, min(cap, max(8, 2 * len(seeds)))), dtype=complex)
    count = 0

    def absorb(vec: np.ndarray) -> None:
        nonlocal cols, count
        res = _orthogonalize(vec, cols, count)
        if res <= policy.closure_residual:
            return
        if count >= cap:
            raise SubspaceTooLargeError(
                f"invariant closure exceeded {cap} directions")
        if count == cols.shape[1]:
            cols = np.concatenate(
                [cols, np.zeros((d, min(cap, 2 * count) - count), dtype=complex)],
                axis=1)
        cols[:, count] = vec / res
        count += 1

    for seed in seeds:
        if seed.basis_dim != d:
            raise DimensionMismatchError(
                f"seed dimension {seed.basis_dim} != operator dimension {d}")
        absorb(seed.amplitudes.astype(complex, copy=True))

    work = np.empty(d, dtype=complex)
    head = 0
    while head < count:
        src = cols[:, head].copy()
        absorb(apply_into(op, src, work).copy())
        absorb(apply_adjoint_into(op, src, work).copy())
        head += 1

    # Gram-Schmidt leaves the columns orthonormal only to ~1e-11 at large
    # N, too loose for the eigenframe check downstream; one QR pass
    # restores it, and rotating each column by the phase of its R diagonal
    # keeps it aligned with the direction Gram-Schmidt accepted
    basis, r = np.linalg.qr(cols[:, :count])
    diag = np.diag(r)
    basis *= diag / np.abs(diag)
    basis.setflags(write=False)
    return ReducedBasis(matrix=basis)


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
    v = basis.matrix
    m = basis.dim
    images = np.empty((op.dimension, m), dtype=complex)
    work = np.empty(op.dimension, dtype=complex)
    for k in range(m):
        images[:, k] = apply_into(op, v[:, k].copy(), work)
    reduced = v.conj().T @ images
    residual = np.linalg.norm(images - v @ reduced, axis=0).max() if m else 0.0
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
    return basis.matrix.conj().T @ state.amplitudes


def lift(coefficients: np.ndarray, basis: ReducedBasis) -> WalkState:
    """Full-space state with the given reduced coefficients."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size != basis.dim:
        raise DimensionMismatchError(
            f"expected {basis.dim} coefficients, got shape {coeffs.shape}")
    return make_state(basis.matrix @ coeffs, require_unit=False)


def dump_reduced_csv(reduced: ReducedOperator, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,col,re,im\n")
        m = reduced.matrix
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                fh.write(f"{i},{j},{m[i, j].real:.12g},{m[i, j].imag:.12g}\n")
