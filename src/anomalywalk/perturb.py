"""Perturbation analysis of the walk around its infinite-size limit.

Setting the hub to pure reflection (r=1, t=0) gives the limit operator.
Its eigenphases are size-independent inside the reduced family space, so
matching finite-size eigenphases branch by branch isolates the shifts,
and fitting them against the graph size separates the degenerate branches
(shift of order one over square root of N) from the simple ones (order
one over N).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .collapse import (
    ReducedBasis,
    ReducedOperator,
    certify,
    decompose,
    reduce_operator,
    reduce_seeds,
)
from .edgespace import (
    hub_in_state,
    hub_out_state,
    make_basis,
    symmetric_in_state,
    symmetric_out_state,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InsufficientDataError,
    MatchingError,
)
from .numerics import DEFAULT_POLICY
from .search import InitialStateKind, family_seeds
from .spectral import Spectrum, eigendecompose
from .stargraph import Anomaly, PhaseAngle, StarGraph, build_star
from .stepop import (
    StepOperator,
    build_scattering_operator,
    build_step_operator,
)

DEFAULT_SWEEP_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)


def build_unperturbed(graph: StarGraph) -> StepOperator:
    """Walk operator with the hub replaced by pure reflection.

    Anomaly-vertex rules are unchanged; only the hub loses its
    transmission.  This is the size-infinity limit of the step operator;
    the reduced limit is built without it, so it serves as a reference.
    """
    return build_scattering_operator(graph, 1.0, 0.0)


def sweep_seeds(graph: StarGraph) -> list:
    """Closure seeds for perturbation runs.

    The uniform family generators alone can miss limit eigenvectors that
    live on the anomaly spokes, so the symmetric anomaly-local outgoing
    state is always added; it is absorbed for free when already covered.
    """
    kind = InitialStateKind.loop_pi() if graph.anomaly.schema.loops else InitialStateKind.minus()
    seeds = family_seeds(graph, kind)
    if graph.anomaly_vertices:
        seeds.append(symmetric_out_state(make_basis(graph), graph.anomaly_vertices))
    return seeds


def _limit(finite: ReducedOperator, graph: StarGraph) -> ReducedOperator:
    """The limit operator on the basis of a finite one.

    The finite hub is pure reflection plus 2|o><i| over the uniform spoke
    states; in the limit the uniforms concentrate on the bulk (non-anomaly)
    spokes, bo and bi, so the limit adds 2(|bo><bi| - |o><i|) to the finite
    operator.  The basis must hold all four uniforms, which with its closure
    under the walk closes it under the reflection walk; both are certified.
    """
    basis = make_basis(graph)
    anomalous = np.asarray(graph.anomaly_vertices, dtype=np.intp) - 1
    bulk = np.delete(np.arange(1, graph.n_spokes + 1), anomalous)
    uniforms = (hub_out_state(basis), hub_in_state(basis),
                symmetric_out_state(basis, bulk), symmetric_in_state(basis, bulk))
    parts = [decompose(finite.basis.matrix, s.amplitudes) for s in uniforms]
    (co, _), (ci, _), (cbo, _), (cbi, _) = parts
    matrix = finite.matrix + 2.0 * (np.outer(cbo, cbi.conj()) - np.outer(co, ci.conj()))
    certify(matrix, max(leak for _, leak in parts))
    return ReducedOperator(matrix=matrix, basis=finite.basis)


def limit_reduced_operator(graph: StarGraph, basis: ReducedBasis) -> ReducedOperator:
    """Limit operator expressed in a reduced basis computed for finite size.

    The basis must be closed under the walk and hold the uniform spoke
    states, both over all spokes and over the bulk ones.
    """
    return _limit(reduce_operator(build_step_operator(graph), basis), graph)


@dataclass(frozen=True)
class EigenShift:
    """Finite-size phase shifts of one limit-operator branch."""

    theta0: float
    multiplicity0: int
    shifts: tuple[float, ...]
    overlap: float
    unmatched: bool


@dataclass(frozen=True)
class ScalingFit:
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
        col = overlap[:, c]
        order = np.argsort(col)[::-1]
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
    of (-pi, pi] are one branch, and so are round-off variants of one phase.
    """
    labels: list[float] = []
    for _, shift in samples:
        near = (label for label in labels if round(_wrap(shift.theta0 - label), 9) == 0)
        labels.append(next(near, shift.theta0))
    return labels


def fit_scaling(samples) -> list[ScalingFit]:
    """Power-law fits of shift magnitude against size, one per branch.

    samples: iterable of (n_spokes, EigenShift) pairs.  Shifts at or
    below the noise floor are excluded and counted; a branch whose every
    shift is excluded is reported with points_used 0 instead of a fit,
    since an exactly preserved eigenphase is a result, not bad data.
    """

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
        slope, intercept = np.polyfit(logn, logd, 1)
        residual = logd - (slope * logn + intercept)
        total = logd - logd.mean()
        ss_tot = float(total @ total)
        r2 = 1.0 - float(residual @ residual) / ss_tot if ss_tot > 0 else 1.0
        fits.append(ScalingFit(branch_theta0=theta0, slope=float(slope),
                               intercept=float(intercept), r_squared=r2,
                               points_used=len(usable), excluded=excluded))
    return fits


@dataclass(frozen=True)
class SweepResult:
    samples: tuple  # (n_spokes, EigenShift) pairs, each under its fit's branch label
    fits: tuple[ScalingFit, ...]


def _sweep_point(anomaly: Anomaly, n: int):
    graph = build_star(n, anomaly)
    reduced = reduce_seeds(build_step_operator(graph), sweep_seeds(graph))
    limit = _limit(reduced, graph)
    # keep the cluster threshold well under the smallest expected
    # splitting, which shrinks like 1/N on simple branches
    tol = min(DEFAULT_POLICY.cluster_tol, 0.01 / n)
    spec_fin = eigendecompose(reduced, tol)
    spec_lim = eigendecompose(limit, tol)
    shifts = eigenphase_shifts(spec_fin, spec_lim)
    return [(n, shift) for shift in shifts]


def perturbation_sweep(anomaly: Anomaly, sizes=DEFAULT_SWEEP_SIZES) -> SweepResult:
    """Shift-vs-size sweep for one anomaly across a list of graph sizes."""
    sizes = tuple(int(n) for n in sizes)
    if not sizes:
        raise ConfigurationError("size list must be non-empty")
    samples = [pair for n in sizes for pair in _sweep_point(anomaly, n)]
    # one label per branch at every size, so shift and fit rows join on it
    samples = tuple((n, replace(shift, theta0=label))
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
