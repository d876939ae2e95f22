"""Perturbation-sweep tests: limit operator, pairing, scaling fits."""

import math

import numpy as np
import pytest
from oracle import (
    branch_labels,
    build_unperturbed,
    dense_matrix,
    eigendecompose,
    eigenphase_shifts,
    homotopy_branches,
    recorded,
    reference_sweep,
    sweep_spectra,
    wrap,
)

import anomalywalk.perturb
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InsufficientDataError,
    NumericalFailureError,
)
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.perturb import (
    DEFAULT_SWEEP_SIZES,
    EigenShift,
    fit_scaling,
    perturbation_sweep,
    write_fits_csv,
    write_shifts_csv,
)
from anomalywalk.spectral import secular_spectrum
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import build_step_operator


def shift_of(theta0, deltas, mult=None):
    deltas = tuple(deltas)
    return EigenShift(theta0=theta0, multiplicity0=mult or len(deltas),
                      shifts=deltas, overlap=1.0)


def labelled(samples):
    """The samples under the labels the reference sweep gives them."""
    return [(n, shift._replace(theta0=label))
            for label, (n, shift) in zip(branch_labels(samples), samples)]


class TestFitScaling:
    def test_recovers_exact_power_laws(self):
        sizes = [50, 100, 200, 400, 800]
        samples = []
        for n in sizes:
            samples.append((n, shift_of(0.5, [2.0 * n ** -0.5])))
            samples.append((n, shift_of(-1.1, [0.3 * n ** -1.0])))
        fits = {round(f.branch_theta0, 6): f for f in fit_scaling(samples)}
        assert fits[0.5].slope == pytest.approx(-0.5, abs=1e-9)
        assert fits[0.5].intercept == pytest.approx(math.log(2.0), abs=1e-9)
        assert fits[0.5].r_squared == pytest.approx(1.0, abs=1e-12)
        assert fits[-1.1].slope == pytest.approx(-1.0, abs=1e-9)
        assert fits[-1.1].points_used == len(sizes)

    def test_floor_exclusion_counted(self):
        sizes = [50, 100, 200, 400, 800]
        samples = [(n, shift_of(0.2, [1e-15 if n == 100 else n ** -0.5]))
                   for n in sizes]
        fit, = fit_scaling(samples)
        assert fit.points_used == 4
        assert fit.excluded == 1
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_all_below_floor_is_a_result_not_an_error(self):
        samples = [(n, shift_of(1.0, [0.0, 1e-16]))
                   for n in (50, 100, 200, 400)]
        fit, = fit_scaling(samples)
        assert fit.below_floor
        assert fit.points_used == 0
        assert fit.excluded == 8
        assert math.isnan(fit.slope)

    def test_too_few_sizes_raises(self):
        samples = [(n, shift_of(0.5, [n ** -0.5])) for n in (50, 100, 200)]
        with pytest.raises(InsufficientDataError):
            fit_scaling(samples)

    def test_branches_at_plus_minus_pi_are_one_group(self):
        # the reference sweep's dense limit can label one branch pi or -pi
        # at different sizes; its labels identify them
        samples = []
        for n in (50, 100, 200, 400):
            theta = math.pi if n % 100 else -math.pi
            samples.append((n, shift_of(theta, [n ** -0.5])))
        fits = fit_scaling(labelled(samples))
        assert len(fits) == 1
        assert fits[0].slope == pytest.approx(-0.5, abs=1e-9)

    def test_one_ulp_inside_minus_pi_is_the_pi_branch(self):
        # a dense limit spectrum can give the pi branch as -pi plus one ulp,
        # which the fold into (-pi, pi] leaves where it is
        near = math.nextafter(-math.pi, 0.0)
        samples = [(n, shift_of(math.pi if n < 400 else near, [n ** -1.0]))
                   for n in (50, 100, 200, 400, 800)]
        fit, = fit_scaling(labelled(samples))
        assert fit.branch_theta0 == math.pi
        assert fit.points_used == 5
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_multiplicity_two_shifts_both_enter(self):
        samples = [(n, shift_of(0.5, [2.0 * n ** -0.5, 1.0 * n ** -0.5]))
                   for n in (50, 100, 200, 400)]
        fit, = fit_scaling(samples)
        assert fit.points_used == 8
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_agrees_with_numpy_least_squares_on_the_default_sweeps(self):
        # np.polyfit is the oracle of the closed-form fit, on every branch
        # of each default anomaly's default sweep
        floor = DEFAULT_POLICY.shift_floor
        fitted = 0
        for anomaly in (Anomaly.none(), Anomaly.extra_edge(1, 2), Anomaly.loop(1),
                        Anomaly.extended_edge(1), Anomaly.missing_loop(1)):
            result = perturbation_sweep(anomaly)
            for fit in result.fits:
                points = [(n, abs(delta)) for n, shift in result.samples
                          if shift.theta0 == fit.branch_theta0 for delta in shift.shifts]
                usable = [(n, delta) for n, delta in points if delta > floor]
                assert (fit.points_used, fit.excluded) == (len(usable), len(points) - len(usable))
                if fit.below_floor:
                    continue
                logn = np.log([float(n) for n, _ in usable])
                logd = np.log([delta for _, delta in usable])
                slope, intercept = np.polyfit(logn, logd, 1)
                assert fit.slope == pytest.approx(slope, rel=1e-12, abs=0.0)
                assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=0.0)
                fitted += 1
        assert fitted == 11


class TestMatching:
    # the reference sweep's overlap matching, in tests/oracle.py
    def test_identical_spectra_give_zero_shifts(self):
        mat = np.diag(np.exp(1j * np.array([0.3, -0.7, 2.0])))
        spec = eigendecompose(mat)
        shifts = eigenphase_shifts(spec, spec)
        assert len(shifts) == 3
        for s in shifts:
            assert s.shifts == (0.0,)
            assert s.overlap == pytest.approx(1.0, abs=1e-12)

    def test_small_rotation_tracked_by_subspace_not_phase(self):
        # the perturbed phase moves but the eigenvector stays put
        base = np.diag(np.exp(1j * np.array([0.0, 1.0])))
        moved = np.diag(np.exp(1j * np.array([0.1, 1.0])))
        shifts = eigenphase_shifts(eigendecompose(moved), eigendecompose(base))
        assert shifts[0].shifts[0] == pytest.approx(0.1, abs=1e-12)
        assert shifts[1].shifts[0] == pytest.approx(0.0, abs=1e-12)

    def test_wraparound_shift_measured_short_way(self):
        base = np.diag([np.exp(1j * (math.pi - 0.01)), 1.0])
        moved = np.diag([np.exp(1j * (-math.pi + 0.01)), 1.0])
        shifts = eigenphase_shifts(eigendecompose(moved), eigendecompose(base))
        assert abs(shifts[-1].shifts[0]) == pytest.approx(0.02, abs=1e-12)

    def test_ambiguous_overlap_raises(self):
        base = np.diag([1.0, -1.0]).astype(complex)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(NumericalFailureError, match="almost equally"):
            eigenphase_shifts(eigendecompose(swap), eigendecompose(base))

    def test_dimension_mismatch(self):
        a = eigendecompose(np.eye(2, dtype=complex))
        b = eigendecompose(np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            eigenphase_shifts(a, b)


# every variant at each of these phases, and the plain star
PHASES = [PhaseAngle.zero(), PhaseAngle.from_pi_fraction(1, 3), PhaseAngle.from_pi_fraction(-1, 3),
          PhaseAngle.from_pi_fraction(1, 2), PhaseAngle.from_pi_fraction(2, 3), PhaseAngle.pi(),
          PhaseAngle.from_radians(0.7), PhaseAngle.from_radians(2.5)]
CASES = [Anomaly.none()] + [
    Anomaly.of(variant, phase, **vertices) for phase in PHASES
    for variant, vertices in (("extra_edge", {"u": 1, "v": 2}), ("loop", {"at": 1}),
                              ("extended_edge", {"at": 1}), ("missing_loop", {"at": 1}))]
LIMIT_SIZES = (3, 4, 64, 4096, 10**6, 2**30, 2**40)
PAIRING_SIZES = (4, 8, 16, *(2 ** p for p in range(6, 13)), 10**5, 10**7, 2**30, 2**40)


class TestLimitOperator:
    def test_reflection_walk_eigenphases_on_plain_star(self):
        # with full reflection each spoke is a two-state rotation
        graph = build_star(4, Anomaly.none())
        u0 = dense_matrix(build_unperturbed(graph))
        spec = eigendecompose(u0)
        np.testing.assert_allclose(spec.eigenphases, [-np.pi / 2, np.pi / 2])
        assert spec.multiplicities == (4, 4)

    def test_hub_difference_shrinks_with_size(self):
        norms = []
        for n in (10, 100, 1000):
            graph = build_star(n, Anomaly.loop(2))
            du = (dense_matrix(build_step_operator(graph))
                  - dense_matrix(build_unperturbed(graph)))
            norms.append(float(np.linalg.norm(du, axis=0).max()))
            assert norms[-1] == pytest.approx(2.0 / math.sqrt(n), abs=1e-12)
        assert norms[0] > norms[1] > norms[2]

    @pytest.mark.parametrize("anomaly,phases,mults", [
        (Anomaly.extra_edge(2, 5),
         [-1 / 3, 0.0, 1 / 3, 1.0], [1, 1, 1, 2]),
        (Anomaly.loop(3),
         [-1 / 3, 0.0, 1 / 3, 1.0], [1, 1, 1, 2]),
        (Anomaly.extended_edge(3),
         [-1 / 2, 0.0, 1 / 2, 1.0], [1, 2, 1, 2]),
        (Anomaly.missing_loop(3),
         [-2 / 3, 0.0, 2 / 3, 1.0], [1, 3, 1, 1]),
        (Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 3)),
         [-2 / 3, -1 / 3, 0.0, 2 / 3], [1, 1, 2, 2]),
    ])
    def test_limit_branch_structure(self, anomaly, phases, mults):
        # the branches a sweep from N=200 reads off its limit there, and
        # that limit's eigenvectors, an orthonormal frame of its sector
        with recorded(secular_spectrum) as calls:
            sweep = perturbation_sweep(anomaly, sizes=(200, 400, 800, 1600))
        limit = calls[0][1]
        stacked = np.concatenate(limit.blocks, axis=1)
        np.testing.assert_allclose(stacked.conj().T @ stacked, np.eye(limit.dim), atol=1e-12)
        branches = [(s.theta0, s.multiplicity0) for n, s in sweep.samples if n == 200]
        np.testing.assert_allclose(
            np.array([theta for theta, _ in branches]) / np.pi, phases, atol=1e-12)
        assert tuple(m for _, m in branches) == tuple(mults)

    def test_limit_is_size_free(self):
        # a sweep reads the limit once, at its first size, and labels every
        # size's branches with it: it is the same to the bit at every N
        for anomaly in CASES:
            first, *rest = (sweep_spectra(build_star(n, anomaly))[0][1] for n in LIMIT_SIZES)
            for limit in rest:
                assert limit[::2] == first[::2], anomaly  # phases, multiplicities, roots
                assert limit.poles == first.poles, anomaly
                assert limit.blocks == first.blocks, anomaly

    def test_a_sweep_reads_the_limit_once(self):
        with recorded(secular_spectrum) as calls:
            perturbation_sweep(Anomaly.loop(1), sizes=(64, 128, 256, 512, 1024))
        assert len(calls) == 5 + 1


class TestSweep:
    def test_extra_edge_short_sweep_slopes(self):
        result = perturbation_sweep(Anomaly.extra_edge(1, 2),
                                    sizes=(64, 128, 256, 512))
        by_branch = {round(f.branch_theta0 / math.pi, 3): f
                     for f in result.fits}
        assert by_branch[1.0].slope == pytest.approx(-0.5, abs=0.05)
        assert by_branch[round(-1 / 3, 3)].slope == pytest.approx(-1.0, abs=0.1)
        assert by_branch[round(1 / 3, 3)].slope == pytest.approx(-1.0, abs=0.1)
        assert by_branch[0.0].below_floor

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            perturbation_sweep(Anomaly.loop(1), sizes=())

    def test_default_sizes_span_two_decades(self):
        assert DEFAULT_SWEEP_SIZES[0] == 64
        assert DEFAULT_SWEEP_SIZES[-1] == 4096

    def test_csv_writers(self, tmp_path):
        result = perturbation_sweep(Anomaly.extra_edge(1, 2),
                                    sizes=(64, 128, 256, 512))
        shifts_path = tmp_path / "shifts.csv"
        fits_path = tmp_path / "fits.csv"
        write_shifts_csv(result.samples, shifts_path)
        write_fits_csv(result.fits, fits_path)
        shift_lines = shifts_path.read_text().splitlines()
        assert shift_lines[0] == "N,branch_theta0,multiplicity0,delta_theta,overlap"
        # every size contributes one row per eigenvalue of the 5-dim space
        assert len(shift_lines) == 1 + 4 * 5
        fit_lines = fits_path.read_text().splitlines()
        assert fit_lines[0] == "branch_theta0,slope,intercept,r_squared,points_used"
        assert len(fit_lines) == 1 + len(result.fits)


SWEEP_CASES = [Anomaly.none()] + [
    Anomaly.of(variant, phase, **vertices)
    for phase in (PhaseAngle.pi(), PhaseAngle.from_pi_fraction(1, 3), PhaseAngle.from_radians(0.7))
    for variant, vertices in (("extra_edge", {"u": 1, "v": 2}), ("extra_edge", {"u": 1, "v": 60}),
                              ("loop", {"at": 1}), ("extended_edge", {"at": 1}),
                              ("missing_loop", {"at": 1}))]


@pytest.mark.parametrize("anomaly", SWEEP_CASES)
def test_sweep_matches_the_closure_reference(anomaly):
    # the default sweep, its spectra read from the step's structure, against
    # the sweep on the closure of its first seeds, whose limit reduces the
    # reflection walk column by column, decomposed by the dense eigensolver
    # and matched by overlap: the same labels as written, multiplicities, floor rows and fits, the
    # shifts above the floor within 1e-12 and the fits within 1e-10
    got = perturbation_sweep(anomaly)
    want = reference_sweep(anomaly)
    floor = DEFAULT_POLICY.shift_floor

    def rows(result):
        return [(n, f"{s.theta0:.12g}", s.multiplicity0, [abs(d) > floor for d in s.shifts])
                for n, s in result.samples]

    assert rows(got) == rows(want)
    for (_, a), (_, b) in zip(got.samples, want.samples):
        above = [(x, y) for x, y in zip(a.shifts, b.shifts) if abs(y) > floor]
        assert max((abs(x - y) for x, y in above), default=0.0) <= 1e-12
    assert ([(f"{f.branch_theta0:.12g}", f.points_used, f.excluded) for f in got.fits]
            == [(f"{f.branch_theta0:.12g}", f.points_used, f.excluded) for f in want.fits])
    np.testing.assert_allclose([f[1:4] for f in got.fits], [f[1:4] for f in want.fits],
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("anomaly", CASES, ids=repr)
def test_pairing_is_the_overlap_matching(anomaly):
    # on the spectra the sweep reads, the pairing by structure gives the
    # overlap matching's branches and shifts to the bit, wherever overlaps
    # decide, and its overlaps, summed in Python where the matching takes
    # numpy's norm, within 1e-15; the sweep reads the limit at its first
    # size, the same at every size
    with recorded(secular_spectrum) as calls:
        sweep = perturbation_sweep(anomaly, PAIRING_SIZES)
    (_, limit), *finites = calls
    matched = 0
    for n, (_, finite) in zip(PAIRING_SIZES, finites, strict=True):
        try:
            want = eigenphase_shifts(finite, limit)
        except NumericalFailureError:
            continue
        got = [shift for size, shift in sweep.samples if size == n]
        assert [s[:3] for s in got] == [s[:3] for s in want], n
        assert max(abs(a.overlap - b.overlap) for a, b in zip(got, want)) <= 1e-15, n
        matched += 1
    assert matched >= len(PAIRING_SIZES) - 1


def test_a_branch_short_of_its_multiplicity_fails(monkeypatch):
    # a finite root with no limit root or weak pole to pair with leaves a
    # branch one eigenvalue short, which the count certificate refuses; the
    # limit, read first, is handed over short of its first root
    spectra = []

    def short_limit(*args):
        spec = secular_spectrum(*args)
        spectra.append(spec)
        return spec._replace(roots=spec.roots[1:]) if len(spectra) == 1 else spec
    monkeypatch.setattr(anomalywalk.perturb, "secular_spectrum", short_limit)
    with pytest.raises(NumericalFailureError, match="received 0 eigenvalues, expected 1"):
        perturbation_sweep(Anomaly.extra_edge(1, 2), (64, 128, 256, 512))


@pytest.mark.parametrize("anomaly", [Anomaly.extra_edge(1, 2),
                                     Anomaly.missing_loop(1, PhaseAngle.from_radians(0.7))],
                         ids=repr)
@pytest.mark.parametrize("n", [3, 4])
def test_pairing_follows_every_eigenvalue_from_the_limit(anomaly, n):
    # the pairing against the dense homotopy from bi to i, each finite
    # eigenphase on the branch it continues from, at sizes where the overlap
    # matching ties (N = 3) or nearly does
    with recorded(secular_spectrum) as calls:
        sweep = perturbation_sweep(anomaly, (n, 5, 6, 7))
    (limit, _), (finite, _) = calls[:2]
    followed = homotopy_branches(limit["q"], limit["i"], finite["i"])
    for shift in (shift for size, shift in sweep.samples if size == n):
        for delta in shift.shifts:
            near = [pair for pair in followed
                    if max(abs(wrap(pair[0] - shift.theta0)),
                           abs(wrap(pair[1] - shift.theta0 - delta))) <= 1e-9]
            assert near, (shift.theta0, delta)
            followed.remove(near[0])
    assert followed == []
