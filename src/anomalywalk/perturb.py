"""Perturbation analysis of the walk around its infinite-size limit.

On the star's cells the step is Q(I - 2|i><i|), for the pure-reflection
walk Q and the uniform incoming state i.  As N grows i concentrates on
the bulk incoming cell bi, so the limit Q(I - 2|bi><bi|) has
size-independent eigenphases; both spectra are read from Q's structure,
on extra_edge in the sector symmetric under swapping u and v.  Pairing
each finite-size eigenphase with the limit branch it continues from, by
that structure, isolates the shifts, and fitting them against the graph
size separates the degenerate branches (shift of order one over square
root of N) from the simple ones (order one over N).
"""

import math
import operator
from typing import NamedTuple

from .collapse import cells_operator, certify, star_cells
from .errors import ConfigurationError, InsufficientDataError, NumericalFailureError
from .numerics import DEFAULT_POLICY, largest, matmul, norm2
from .spectral import Spectrum, secular_spectrum
from .stargraph import DEFAULT_SWEEP_SIZES, Anomaly, PhaseAngle, StarGraph, build_star
from .stepop import build_scattering_operator


def _sweep_spectra(graph: StarGraph, limit: Spectrum | None = None) -> tuple[Spectrum, Spectrum]:
    """The spectra of the step and of its limit on the star's cells, the
    limit read only when none is given.  The swap of u and v, a symmetry of
    extra_edge, exchanges its unit cells held as adjacent pairs (out_u,
    out_v; in_u, in_v; (u,v), (v,u)); both spectra keep to the sector
    symmetric under it, which holds i and bi, and Q's leakage from it is
    certified."""
    op = build_scattering_operator(graph, 1.0, 0.0)
    cells = star_cells(op.basis)
    q, i, k = cells_operator(op, cells), cells.uniform(1), len(cells.blocks)
    if graph.anomaly.variant == "extra_edge":
        # the sector's rows on the cells: the bulk cells, then the pairs
        half = 1.0 / math.sqrt(2)
        sector = [[float(c == r) for c in range(len(q))] for r in range(k)] + [
            [half * (r <= c <= r + 1) for c in range(len(q))] for r in range(k, len(q), 2)]
        images = matmul(q, zip(*sector))
        q = matmul(sector, images)
        back = matmul(zip(*sector), q)
        certify(q, largest(math.sqrt(norm2([x - y for x, y in zip(col, bcol)]))
                           for col, bcol in zip(zip(*images), zip(*back))))
        i = [sum(x * y for x, y in zip(row, i)) for row in sector]
    if limit is None:  # bi, the bulk incoming cell, is coordinate 1 in either basis
        limit = secular_spectrum(q, [float(c == 1) for c in range(len(q))], k)
    return secular_spectrum(q, i, k), limit


class EigenShift(NamedTuple):
    """Finite-size phase shifts of one limit-operator branch."""

    theta0: float
    multiplicity0: int
    shifts: tuple[float, ...]
    overlap: float


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


def _pair(finite: Spectrum, limit: Spectrum) -> list[EigenShift]:
    """The shifts of each limit branch, its finite eigenvalues paired with
    it by the step's structure.  An eigenvalue that stays at a pole stays
    on that pole's branch.  The roots interlace with the poles i meets, so
    none crosses a pole the limit's bi meets as i turns from bi: taken
    around the circle from one such pole, the finite roots pair in order
    with the limit's roots and the weak poles, which only i's unit part
    meets.  Every limit branch must receive exactly its multiplicity.  Each
    branch's overlap is the share of its finite eigenspaces, |W0* Wc|^2
    over Wc's columns, that lies in the limit's."""
    start = limit.poles[0]

    def around(phases):
        return sorted(phases, key=lambda theta: (theta - start) % (2.0 * math.pi))

    weak = set(finite.poles) - set(limit.poles)
    root_of = dict(zip(around(finite.roots), around([*limit.roots, *weak])))
    # each branch's finite clusters, one entry per eigenvalue, in ascending
    # phase; an eigenvalue paired with no branch leaves one short
    received: dict[float, list[int]] = {theta: [] for theta in limit.eigenphases}
    for c, (theta, mult) in enumerate(zip(finite.eigenphases, finite.multiplicities)):
        targets = [theta] * mult
        if theta in root_of:  # the cluster holds a root
            targets[0] = root_of[theta]
        for target in targets:
            received.setdefault(target, []).append(c)

    shifts_out = []
    for theta0, mult0, w0 in zip(limit.eigenphases, limit.multiplicities, limit.blocks):
        entries = received[theta0]
        if len(entries) != mult0:
            raise NumericalFailureError(
                f"branch {theta0:.6f} received {len(entries)} eigenvalues, expected {mult0}")
        quality = 0.0
        for c in sorted(set(entries)):
            wc = finite.blocks[c]
            quality += entries.count(c) * (norm2(
                sum(x.conjugate() * y for x, y in zip(a, b))
                for a in zip(*w0) for b in zip(*wc)) / len(wc[0]))
        shifts_out.append(EigenShift(
            theta0=theta0, multiplicity0=mult0, overlap=quality / mult0,
            shifts=tuple(_wrap(finite.eigenphases[c] - theta0) for c in entries)))
    return shifts_out


def fit_scaling(samples) -> list[ScalingFit]:
    """Least-squares power-law fits of shift magnitude against size, one per branch.

    samples: iterable of (n_spokes, EigenShift) pairs, grouped into branches
    by their labels theta0.  Shifts at or below the noise floor are excluded
    and counted; a branch whose every shift is excluded is reported with
    points_used 0 instead of a fit, since an exactly preserved eigenphase is
    a result, not bad data.  The sums are taken by `math.fsum`.
    """
    groups: dict[float, list] = {}
    for sample in samples:
        groups.setdefault(sample[1].theta0, []).append(sample)
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
        logn = [math.log(n) for n, _ in usable]
        logd = [math.log(delta) for _, delta in usable]
        mean_n, mean_d = math.fsum(logn) / len(logn), math.fsum(logd) / len(logd)
        x, y = [v - mean_n for v in logn], [v - mean_d for v in logd]
        slope = math.fsum(map(operator.mul, x, y)) / math.fsum(map(operator.mul, x, x))
        intercept = mean_d - slope * mean_n
        residual = [d - (slope * n + intercept) for n, d in zip(logn, logd)]
        ss_tot = math.fsum(map(operator.mul, y, y))
        r2 = 1.0 - math.fsum(map(operator.mul, residual, residual)) / ss_tot if ss_tot > 0 else 1.0
        fits.append(ScalingFit(branch_theta0=theta0, slope=slope,
                               intercept=intercept, r_squared=r2,
                               points_used=len(usable), excluded=excluded))
    return fits


class SweepResult(NamedTuple):
    samples: tuple  # (n_spokes, EigenShift) pairs, each labelled by its limit eigenphase
    fits: tuple[ScalingFit, ...]


def perturbation_sweep(anomaly: Anomaly, sizes=DEFAULT_SWEEP_SIZES) -> SweepResult:
    """Shift-vs-size sweep for one anomaly across a list of graph sizes.  The
    limit does not depend on N, so it is read once, and its eigenphases
    label the branches at every size."""
    sizes = tuple(int(n) for n in sizes)
    if not sizes:
        raise ConfigurationError("size list must be non-empty")
    if len(set(sizes)) < len(sizes):
        raise ConfigurationError(f"size list repeats a size: {','.join(map(str, sizes))}")
    samples, limit = [], None
    for n in sizes:
        finite, limit = _sweep_spectra(build_star(n, anomaly), limit)
        samples += [(n, shift) for shift in _pair(finite, limit)]
    return SweepResult(samples=tuple(samples), fits=tuple(fit_scaling(samples)))


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
