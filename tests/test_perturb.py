"""Perturbation-sweep tests: limit operator, matching, scaling fits."""

import math

import numpy as np
import pytest

from anomalywalk.collapse import invariant_basis, reduce_operator
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InsufficientDataError,
    MatchingError,
)
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.perturb import (
    DEFAULT_SWEEP_SIZES,
    EigenShift,
    build_unperturbed,
    eigenphase_shifts,
    fit_scaling,
    limit_reduced_operator,
    perturbation_sweep,
    sweep_seeds,
    write_fits_csv,
    write_shifts_csv,
)
from anomalywalk.spectral import eigendecompose
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import build_step_operator, dense_matrix


def shift_of(theta0, deltas, mult=None):
    deltas = tuple(deltas)
    return EigenShift(theta0=theta0, multiplicity0=mult or len(deltas),
                      shifts=deltas, overlap=1.0, unmatched=False)


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
        # the same physical branch can be labeled pi or -pi at different
        # sizes; grouping must identify them
        samples = []
        for n in (50, 100, 200, 400):
            theta = math.pi if n % 100 else -math.pi
            samples.append((n, shift_of(theta, [n ** -0.5])))
        fits = fit_scaling(samples)
        assert len(fits) == 1
        assert fits[0].slope == pytest.approx(-0.5, abs=1e-9)

    def test_one_ulp_inside_minus_pi_is_the_pi_branch(self):
        # a limit spectrum can give the pi branch as -pi plus one ulp, which
        # the fold into (-pi, pi] leaves where it is
        near = math.nextafter(-math.pi, 0.0)
        samples = [(n, shift_of(math.pi if n < 400 else near, [n ** -1.0]))
                   for n in (50, 100, 200, 400, 800)]
        fit, = fit_scaling(samples)
        assert fit.branch_theta0 == math.pi
        assert fit.points_used == 5
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_multiplicity_two_shifts_both_enter(self):
        samples = [(n, shift_of(0.5, [2.0 * n ** -0.5, 1.0 * n ** -0.5]))
                   for n in (50, 100, 200, 400)]
        fit, = fit_scaling(samples)
        assert fit.points_used == 8
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)


class TestMatching:
    def test_identical_spectra_give_zero_shifts(self):
        mat = np.diag(np.exp(1j * np.array([0.3, -0.7, 2.0])))
        spec = eigendecompose(mat)
        shifts = eigenphase_shifts(spec, spec)
        assert len(shifts) == 3
        for s in shifts:
            assert s.shifts == (0.0,)
            assert s.overlap == pytest.approx(1.0, abs=1e-12)
            assert not s.unmatched

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
        with pytest.raises(MatchingError):
            eigenphase_shifts(eigendecompose(swap), eigendecompose(base))

    def test_dimension_mismatch(self):
        a = eigendecompose(np.eye(2, dtype=complex))
        b = eigendecompose(np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            eigenphase_shifts(a, b)


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
        graph = build_star(200, anomaly)
        op = build_step_operator(graph)
        rb = invariant_basis(op, sweep_seeds(graph))
        limit = limit_reduced_operator(graph, rb)
        gram = limit.matrix.conj().T @ limit.matrix
        np.testing.assert_allclose(gram, np.eye(limit.dim), atol=1e-12)
        spec = eigendecompose(limit)
        np.testing.assert_allclose(
            np.array(spec.eigenphases) / np.pi, phases, atol=1e-12)
        assert spec.multiplicities == tuple(mults)

    def test_limit_is_size_free(self):
        a64 = None
        for n in (64, 256):
            graph = build_star(n, Anomaly.extra_edge(1, 2))
            op = build_step_operator(graph)
            rb = invariant_basis(op, sweep_seeds(graph))
            spec = eigendecompose(limit_reduced_operator(graph, rb))
            if a64 is None:
                a64 = spec.eigenphases
            else:
                np.testing.assert_allclose(spec.eigenphases, a64, atol=1e-12)


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


def test_sweep_seeds_include_anomaly_direction():
    graph = build_star(20, Anomaly.extended_edge(4))
    seeds = sweep_seeds(graph)
    assert len(seeds) == 3  # two uniforms plus the anomaly-local spoke
    local = seeds[-1].amplitudes
    assert abs(local[3]) == pytest.approx(1.0)


def test_sweep_seeds_missing_loop_has_four():
    graph = build_star(20, Anomaly.missing_loop(4))
    assert len(sweep_seeds(graph)) == 4
