"""Eigenphase decomposition of small unitary operators.

Eigenvalues of the walk operators all lie on the unit circle, so the
decomposition is organized around phases theta with U = sum over clusters
of e^{i theta} P.  Clusters group phases closer than a threshold, which is
what separates exact degeneracies from perturbative splittings.
"""

import math
from typing import NamedTuple

from .errors import DimensionMismatchError, NumericalFailureError, SizeError
from .numerics import DEFAULT_POLICY, orthogonalize, require_within


class Spectrum(NamedTuple):
    """Clustered eigensystem of a unitary matrix.

    eigenphases are cluster representatives in (-pi + tol, pi + tol] for
    the cluster threshold tol, ascending (a branch at pi has one label).  Each
    block holds orthonormal eigenvector columns for its cluster, so the
    projector is block @ block.conj().T and multiplicities sum to dim.
    """

    eigenphases: tuple[float, ...]
    blocks: tuple  # numpy arrays; an annotation naming numpy would load it at import
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0] if self.blocks else 0

    def projector(self, k: int) -> "np.ndarray":
        b = self.blocks[k]
        return b @ b.conj().T


def _cluster_phases(thetas: "np.ndarray", tol: float) -> list[list[int]]:
    """Group sorted phase indices whose neighbors are within tol.

    The two ends of (-pi, pi] are identified, so clusters hugging the
    branch cut from both sides are merged.
    """
    thetas = thetas.tolist()
    order = sorted(range(len(thetas)), key=thetas.__getitem__)
    groups: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if thetas[idx] - thetas[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    if len(groups) > 1:
        wrap_gap = (thetas[groups[0][0]] + 2.0 * math.pi) - thetas[groups[-1][-1]]
        if wrap_gap <= tol:
            groups[-1].extend(groups[0])
            groups.pop(0)
    return groups


def _representative(thetas: "np.ndarray", tol: float) -> float:
    """Circular mean, stable for clusters straddling the branch cut; a mean
    within tol of -pi is the branch at pi, reported there as theta + 2 pi."""
    import numpy as np

    theta = float(np.angle(np.exp(1j * thetas).sum()))
    if theta <= -math.pi + tol:
        theta += 2.0 * math.pi
    return theta


def eigendecompose(mat, cluster_tol: float | None = None) -> Spectrum:
    """Full certified eigensystem of a square unitary matrix.

    Every eigenpair is certified by its residual and every eigenvalue must
    sit on the unit circle before its phase is taken; failures raise
    rather than degrade.
    """
    import numpy as np

    policy = DEFAULT_POLICY
    try:
        mat = np.asarray(mat, dtype=complex)
    except ValueError:  # ragged input, such as a ReducedOperator
        raise DimensionMismatchError(
            f"expected a square matrix, got a ragged {type(mat).__name__}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    d = mat.shape[0]
    if d > policy.dense_cap:
        raise SizeError(f"dimension {d} exceeds dense cap {policy.dense_cap}")
    if d == 0:
        return Spectrum(eigenphases=(), blocks=(), multiplicities=())
    if cluster_tol is None:
        cluster_tol = policy.cluster_tol

    if not np.isfinite(mat).all():
        raise NumericalFailureError("the matrix holds an inf or a nan")
    values, vectors = np.linalg.eig(mat)
    residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
    require_within("eigenpair residual {value:.3e} exceeds {tol:.1e}", residuals.max(),
                   policy.eig_residual_tol)
    moduli = np.abs(values)
    require_within("eigenvalue modulus deviates from 1 by {value:.3e}",
                   np.abs(moduli - 1.0).max(), policy.unit_circle_tol)
    thetas = np.angle(values / moduli)

    phases = []
    blocks = []
    mults = []
    for group in _cluster_phases(thetas, cluster_tol):
        frame = vectors[:, group].T.copy()
        for i, vec in enumerate(frame):
            res = orthogonalize(vec, frame[:i], policy.rank_tol)
            if not res >= policy.rank_tol:  # a nan fails too, before the division
                raise NumericalFailureError(
                    "eigenvector cluster is rank deficient; matrix is not normal")
            vec *= 1.0 / res
        phases.append(_representative(thetas[group], cluster_tol))
        blocks.append(frame.T)
        mults.append(len(group))
    order = sorted(range(len(phases)), key=phases.__getitem__)
    phases, blocks, mults = ([seq[k] for k in order] for seq in (phases, blocks, mults))

    stacked = np.concatenate(blocks, axis=1)
    require_within("eigenvector clusters are not an orthonormal frame (deviation {value:.3e})",
                   np.abs(stacked.conj().T @ stacked - np.eye(d)).max(), policy.projector_tol)
    for b in blocks:
        b.setflags(write=False)
    return Spectrum(eigenphases=tuple(phases), blocks=tuple(blocks),
                    multiplicities=tuple(mults))


def dump_spectrum_csv(spec: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,multiplicity\n")
        for theta, mult in zip(spec.eigenphases, spec.multiplicities):
            fh.write(f"{theta:.12g},{mult}\n")
