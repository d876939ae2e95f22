"""Perturbation analysis of the walk around its infinite-size limit.

On the star's cells the step is Q(I - 2|i><i|), for the pure-reflection
walk Q and the uniform incoming state i.  As N grows i concentrates on
the bulk incoming cell bi, so the limit Q(I - 2|bi><bi|) has
size-independent eigenphases; both spectra are read from Q's structure,
on extra_edge in the sector symmetric under swapping u and v.  Matching
finite-size eigenphases to the limit's branch by branch isolates the
shifts, and fitting them against the graph size separates the degenerate
branches (shift of order one over square root of N) from the simple ones
(order one over N).
"""

import math
from typing import NamedTuple

from .collapse import cells_operator, certify, star_cells
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InsufficientDataError,
    MatchingError,
)
from .numerics import DEFAULT_POLICY
from .spectral import Spectrum, secular_spectrum
from .stargraph import Anomaly, PhaseAngle, StarGraph, build_star
from .stepop import build_scattering_operator

DEFAULT_SWEEP_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)


def _sweep_spectra(graph: StarGraph) -> tuple[Spectrum, Spectrum]:
    """The spectra of the step and of its limit on the star's cells.  The
    swap of u and v, a symmetry of extra_edge, exchanges its unit cells
    held as adjacent pairs (out_u, out_v; in_u, in_v; (u,v), (v,u)); both
    spectra keep to the sector symmetric under it, which holds i and bi,
    and Q's leakage from it is certified."""
    import numpy as np

    op = build_scattering_operator(graph, 1.0, 0.0)
    cells = star_cells(op.basis)
    reflection = cells_operator(op, cells)
    sector = cell = np.eye(len(reflection), dtype=complex)  # the bulk cells, then the units
    k = len(cells.blocks)
    if graph.anomaly.variant == "extra_edge":
        sector = np.vstack((cell[:k], (cell[k::2] + cell[k + 1::2]) / math.sqrt(2)))
    images = reflection @ sector.T
    q = sector @ images
    certify(q, np.linalg.norm(images - sector.T @ q, axis=0).max())
    return (secular_spectrum(q, sector @ cells.uniform(1), k),
            secular_spectrum(q, sector[:, 1], k))


class EigenShift(NamedTuple):
    """Finite-size phase shifts of one limit-operator branch."""

    theta0: float
    multiplicity0: int
    shifts: tuple[float, ...]
    overlap: float
    unmatched: bool


class ScalingFit(NamedTuple):
    branch_theta0: float
    slope: float
    intercept: float
    r_squared: float
    points_used: int
    excluded: int

    @property
    def below_floor(self) -> bool:
        """True when every shift of the branch sat below the noise floor."""
        return self.points_used == 0


def _wrap(angle: float) -> float:
    return PhaseAngle.from_radians(angle).value


def eigenphase_shifts(perturbed: Spectrum, unperturbed: Spectrum) -> list[EigenShift]:
    """Match perturbed clusters to limit branches and read off the shifts.

    Matching goes by eigenvector subspace overlap, not nearest phase, so
    a branch keeps its identity even when its split crosses a neighbor.
    Every limit branch must receive exactly its multiplicity.
    """
    import numpy as np

    if perturbed.dim != unperturbed.dim:
        raise DimensionMismatchError(
            f"spectra have dimensions {perturbed.dim} and {unperturbed.dim}")
    match_tol = DEFAULT_POLICY.match_tol
    k0 = len(unperturbed.eigenphases)
    kc = len(perturbed.eigenphases)
    overlap = np.empty((k0, kc))
    for k, w0 in enumerate(unperturbed.blocks):
        for c, wc in enumerate(perturbed.blocks):
            overlap[k, c] = (np.linalg.norm(w0.conj().T @ wc) ** 2
                             / wc.shape[1])

    assigned: list[list[int]] = [[] for _ in range(k0)]
    for c in range(kc):
        col = overlap[:, c].tolist()
        order = sorted(range(k0), key=col.__getitem__, reverse=True)
        best = col[order[0]]
        second = col[order[1]] if k0 > 1 else 0.0
        if best - second < match_tol:
            raise MatchingError(
                f"cluster at phase {perturbed.eigenphases[c]:.6f} overlaps "
                f"branches {unperturbed.eigenphases[order[0]]:.6f} and "
                f"{unperturbed.eigenphases[order[1]]:.6f} almost equally "
                f"({best:.3f} vs {second:.3f})")
        assigned[order[0]].append(c)

    shifts_out = []
    for k in range(k0):
        theta0 = unperturbed.eigenphases[k]
        mult0 = unperturbed.multiplicities[k]
        received = sum(perturbed.multiplicities[c] for c in assigned[k])
        if received != mult0:
            raise MatchingError(
                f"branch {theta0:.6f} received {received} eigenvalues, "
                f"expected {mult0}")
        shifts: list[float] = []
        quality = 0.0
        for c in assigned[k]:
            delta = _wrap(perturbed.eigenphases[c] - theta0)
            shifts.extend([delta] * perturbed.multiplicities[c])
            quality += perturbed.multiplicities[c] * overlap[k, c]
        quality /= mult0
        shifts_out.append(EigenShift(
            theta0=theta0, multiplicity0=mult0, shifts=tuple(shifts),
            overlap=quality, unmatched=quality < 1.0 - match_tol))
    return shifts_out


def _branch_labels(samples) -> list[float]:
    """The label of each sample's branch: the limit phase of its first sample.

    Branches are told apart at 1e-9 in circular distance, so the two ends
    of (-pi, pi] are one branch, and so are round-off variants of one phase;
    the branch at 0 is labelled exactly 0.
    """
    labels: list[float] = []
    for _, shift in samples:
        near = (label for label in labels if round(_wrap(shift.theta0 - label), 9) == 0)
        labels.append(next(near, 0.0 if round(shift.theta0, 9) == 0 else shift.theta0))
    return labels


def fit_scaling(samples) -> list[ScalingFit]:
    """Least-squares power-law fits of shift magnitude against size, one per branch.

    samples: iterable of (n_spokes, EigenShift) pairs.  Shifts at or
    below the noise floor are excluded and counted; a branch whose every
    shift is excluded is reported with points_used 0 instead of a fit,
    since an exactly preserved eigenphase is a result, not bad data.
    """
    import numpy as np

    samples = list(samples)
    groups: dict[float, list] = {}
    for label, sample in zip(_branch_labels(samples), samples):
        groups.setdefault(label, []).append(sample)
    floor = DEFAULT_POLICY.shift_floor
    fits = []
    for theta0, entries in sorted(groups.items()):
        points = [(n, abs(delta)) for n, shift in entries
                  for delta in shift.shifts]
        usable = [(n, delta) for n, delta in points if delta > floor]
        excluded = len(points) - len(usable)
        if not usable:
            nan = float("nan")
            fits.append(ScalingFit(branch_theta0=theta0, slope=nan,
                                   intercept=nan, r_squared=nan,
                                   points_used=0, excluded=excluded))
            continue
        if len({n for n, _ in usable}) < 4:
            raise InsufficientDataError(
                f"branch {theta0:.6f} has usable shifts at "
                f"{len({n for n, _ in usable})} sizes, need at least 4")
        logn = np.log([float(n) for n, _ in usable])
        logd = np.log([delta for _, delta in usable])
        x, y = logn - logn.mean(), logd - logd.mean()
        slope = float(x @ y) / float(x @ x)
        intercept = logd.mean() - slope * logn.mean()
        residual = logd - (slope * logn + intercept)
        ss_tot = float(y @ y)
        r2 = 1.0 - float(residual @ residual) / ss_tot if ss_tot > 0 else 1.0
        fits.append(ScalingFit(branch_theta0=theta0, slope=float(slope),
                               intercept=float(intercept), r_squared=r2,
                               points_used=len(usable), excluded=excluded))
    return fits


class SweepResult(NamedTuple):
    samples: tuple  # (n_spokes, EigenShift) pairs, each under its fit's branch label
    fits: tuple[ScalingFit, ...]


def _sweep_point(anomaly: Anomaly, n: int):
    finite, limit = _sweep_spectra(build_star(n, anomaly))
    return [(n, shift) for shift in eigenphase_shifts(finite, limit)]


def perturbation_sweep(anomaly: Anomaly, sizes=DEFAULT_SWEEP_SIZES) -> SweepResult:
    """Shift-vs-size sweep for one anomaly across a list of graph sizes."""
    sizes = tuple(int(n) for n in sizes)
    if not sizes:
        raise ConfigurationError("size list must be non-empty")
    if len(set(sizes)) < len(sizes):
        raise ConfigurationError(f"size list repeats a size: {','.join(map(str, sizes))}")
    samples = [pair for n in sizes for pair in _sweep_point(anomaly, n)]
    # one label per branch at every size, so shift and fit rows join on it
    samples = tuple((n, shift._replace(theta0=label))
                    for label, (n, shift) in zip(_branch_labels(samples), samples))
    return SweepResult(samples=samples, fits=tuple(fit_scaling(samples)))


def write_shifts_csv(samples, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("N,branch_theta0,multiplicity0,delta_theta,overlap\n")
        for n, shift in samples:
            for delta in shift.shifts:
                fh.write(f"{n},{shift.theta0:.12g},{shift.multiplicity0},"
                         f"{delta:.12g},{shift.overlap:.12g}\n")


def write_fits_csv(fits, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("branch_theta0,slope,intercept,r_squared,points_used\n")
        for fit in fits:
            fh.write(f"{fit.branch_theta0:.12g},{fit.slope:.12g},"
                     f"{fit.intercept:.12g},{fit.r_squared:.12g},"
                     f"{fit.points_used}\n")
