"""Dense references that the reduced path is checked against.

None of them reduces through `ReducedBasis`: operators are reduced on
dense columns, one column at a time with `apply_into`, and closures are
grown in the full dimension.  A basis held on cells is compared with
them after its full lift through `rows`.
"""

import numpy as np

from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.stepop import apply_adjoint_into, apply_into, dense_matrix


def lifted(basis):
    """The full-dimension columns V of a basis held on cells, through `rows`."""
    return basis.rows(np.arange(basis.full_dim))


def reduce_columns(op, cols):
    """V*UV for orthonormal columns V, U applied column by column, and the
    largest norm of an image outside the span of V."""
    work = np.empty(op.dimension, dtype=complex)
    images = np.stack([apply_into(op, col.astype(complex), work).copy()
                       for col in cols.T], axis=1)
    matrix = cols.conj().T @ images
    return matrix, np.linalg.norm(images - cols @ matrix, axis=0).max()


def reference_closure(op, seeds, policy=DEFAULT_POLICY, cap=200):
    """The closure as first written, in the full dimension: complex columns
    of a (dim x cap) array, projected out one strided column at a time by
    modified Gram-Schmidt with one reorthogonalization pass, then one QR
    whose R diagonal phases are rotated back onto the columns."""
    d = op.dimension
    cols = np.zeros((d, cap), dtype=complex)
    count = 0

    def absorb(vec):
        nonlocal count
        for _ in range(2):
            for k in range(count):
                q = cols[:, k]
                vec -= (q.conj() @ vec) * q
        res = np.linalg.norm(vec)
        if res > policy.closure_residual:
            cols[:, count] = vec / res
            count += 1

    for seed in seeds:
        absorb(seed.amplitudes.astype(complex))
    work = np.empty(d, dtype=complex)
    head = 0
    while head < count:
        src = cols[:, head].copy()
        absorb(apply_into(op, src, work).copy())
        absorb(apply_adjoint_into(op, src, work).copy())
        head += 1
    q, r = np.linalg.qr(cols[:, :count])
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_closure(op, seeds):
    """Orthonormal columns spanning the closure of the seeds under the dense
    U and U adjoint: the column space is grown by SVD rank until it stops."""
    u = dense_matrix(op)
    cols = np.stack([seed.amplitudes for seed in seeds], axis=1)
    while True:
        left, sv, _ = np.linalg.svd(np.hstack((cols, u @ cols, u.conj().T @ cols)),
                                    full_matrices=False)
        grown = left[:, :int((sv > 1e-9).sum())]
        if grown.shape[1] == cols.shape[1]:
            return grown
        cols = grown


def projector_gap(a, b):
    """||P_a - P_b|| in the 2-norm for orthonormal columns of equal count,
    computed as ||(1 - P_b) a|| so that no d x d matrix is formed."""
    return np.linalg.norm(a - b @ (b.conj().T @ a), 2)
