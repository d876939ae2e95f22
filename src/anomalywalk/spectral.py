"""Eigenphase decomposition of small unitary operators.

Eigenvalues of the walk operators all lie on the unit circle, so the
decomposition is organized around phases theta with U = sum over clusters
of e^{i theta} P.  Clusters group phases closer than a threshold, which is
what separates exact degeneracies from perturbative splittings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collapse import ReducedOperator
from .errors import DimensionMismatchError, NumericalFailureError, SizeError
from .numerics import DEFAULT_POLICY
from .stepop import StepOperator, dense_matrix


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigensystem of a unitary matrix.

    eigenphases are cluster representatives in (-pi + tol, pi + tol] for
    the cluster threshold tol, ascending (a branch at pi has one label).  Each
    block holds orthonormal eigenvector columns for its cluster, so the
    projector is block @ block.conj().T and multiplicities sum to dim.
    """

    eigenphases: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0] if self.blocks else 0

    def projector(self, k: int) -> np.ndarray:
        b = self.blocks[k]
        return b @ b.conj().T


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, ReducedOperator):
        return np.asarray(op.matrix, dtype=complex)
    if isinstance(op, StepOperator):
        return dense_matrix(op)
    return np.asarray(op, dtype=complex)


def _cluster_phases(thetas: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group sorted phase indices whose neighbors are within tol.

    The two ends of (-pi, pi] are identified, so clusters hugging the
    branch cut from both sides are merged.
    """
    order = np.argsort(thetas)
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if thetas[idx] - thetas[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    if len(groups) > 1:
        wrap_gap = (thetas[groups[0][0]] + 2.0 * np.pi) - thetas[groups[-1][-1]]
        if wrap_gap <= tol:
            groups[-1].extend(groups[0])
            groups.pop(0)
    return [np.array(g) for g in groups]


def _representative(thetas: np.ndarray, tol: float) -> float:
    """Circular mean, stable for clusters straddling the branch cut; a mean
    within tol of -pi is the branch at pi, reported there as theta + 2 pi."""
    theta = float(np.angle(np.exp(1j * thetas).sum()))
    if theta <= -np.pi + tol:
        theta += 2.0 * np.pi
    return theta


def eigendecompose(op, cluster_tol: float | None = None) -> Spectrum:
    """Full certified eigensystem of a unitary matrix.

    Accepts a ReducedOperator, a StepOperator small enough to materialize,
    or a plain square matrix.  Every eigenpair is certified by its residual
    and every eigenvalue must sit on the unit circle before its phase is
    taken; failures raise rather than degrade.
    """

    policy = DEFAULT_POLICY
    mat = _as_matrix(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    d = mat.shape[0]
    if d > policy.dense_cap:
        raise SizeError(f"dimension {d} exceeds dense cap {policy.dense_cap}")
    if d == 0:
        return Spectrum(eigenphases=(), blocks=(), multiplicities=())
    if cluster_tol is None:
        cluster_tol = policy.cluster_tol

    values, vectors = np.linalg.eig(mat)
    residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
    worst = float(residuals.max())
    if worst > policy.eig_residual_tol:
        raise NumericalFailureError(
            f"eigenpair residual {worst:.3e} exceeds {policy.eig_residual_tol:.1e}")
    moduli = np.abs(values)
    off = float(np.abs(moduli - 1.0).max())
    if off > policy.unit_circle_tol:
        raise NumericalFailureError(
            f"eigenvalue modulus deviates from 1 by {off:.3e}")
    thetas = np.angle(values / moduli)

    phases = []
    blocks = []
    mults = []
    for group in _cluster_phases(thetas, cluster_tol):
        q, r = np.linalg.qr(vectors[:, group])
        # a normal matrix gives |R_ii| ~ 1 here; deficiency means the
        # cluster's eigenvectors do not span their multiplicity
        rdiag = np.abs(np.diag(r))
        if rdiag.min() < 1e-8:
            raise NumericalFailureError(
                "eigenvector cluster is rank deficient; matrix is not normal")
        phases.append(_representative(thetas[group], cluster_tol))
        blocks.append(q)
        mults.append(len(group))
    order = np.argsort(phases)
    phases = [phases[k] for k in order]
    blocks = [blocks[k] for k in order]
    mults = [mults[k] for k in order]

    stacked = np.concatenate(blocks, axis=1)
    completeness = float(np.abs(
        stacked.conj().T @ stacked - np.eye(d)).max())
    if completeness > policy.projector_tol:
        raise NumericalFailureError(
            f"eigenvector clusters are not an orthonormal frame "
            f"(deviation {completeness:.3e})")
    for b in blocks:
        b.setflags(write=False)
    return Spectrum(eigenphases=tuple(phases), blocks=tuple(blocks),
                    multiplicities=tuple(mults))


def power_apply(spec: Spectrum, n: int, state: np.ndarray) -> np.ndarray:
    """Apply the n-th power of the decomposed operator through its spectrum."""
    x = np.asarray(state, dtype=complex)
    if x.shape != (spec.dim,):
        raise DimensionMismatchError(
            f"state shape {x.shape} does not match dimension {spec.dim}")
    out = np.zeros_like(x)
    for theta, block in zip(spec.eigenphases, spec.blocks):
        out += np.exp(1j * theta * n) * (block @ (block.conj().T @ x))
    return out


def dump_spectrum_csv(spec: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,multiplicity\n")
        for theta, mult in zip(spec.eigenphases, spec.multiplicities):
            fh.write(f"{theta:.12g},{mult}\n")
