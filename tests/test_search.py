"""Search dynamics tests: start states, peaks, measurement, baseline."""

import csv
import math

import numpy as np
import pytest

import anomalywalk.search
from anomalywalk.edgespace import make_basis
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    NoPredictionError,
    NothingToFindError,
)
from anomalywalk.search import (
    InitialStateKind,
    baseline_statistics,
    classical_baseline,
    family_seeds,
    initial_state,
    measure_accessible,
    predicted_hitting_step,
    run_search,
    search_summary,
    write_per_step_csv,
)
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import apply_step, build_step_operator


class TestInitialStates:
    def test_minus_amplitudes(self):
        graph = build_star(8, Anomaly.extra_edge(1, 2))
        s = initial_state(graph, InitialStateKind.minus())
        np.testing.assert_allclose(s.amplitudes[:8], 0.25)
        np.testing.assert_allclose(s.amplitudes[8:16], -0.25)
        np.testing.assert_allclose(s.amplitudes[16:], 0)

    def test_plus_amplitudes(self):
        graph = build_star(8, Anomaly.loop(3))
        s = initial_state(graph, InitialStateKind.plus())
        np.testing.assert_allclose(s.amplitudes[:16], 0.25)

    def test_inout_normalizes(self):
        graph = build_star(4, Anomaly.loop(1))
        s = initial_state(graph, InitialStateKind.inout(3.0, 4.0j))
        out_amp = s.amplitudes[0]
        in_amp = s.amplitudes[4]
        assert abs(out_amp) == pytest.approx(0.3)
        assert abs(in_amp) == pytest.approx(0.4)
        assert in_amp / out_amp == pytest.approx(4j / 3)

    def test_inout_zero_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            InitialStateKind.inout(0, 0)

    @pytest.mark.parametrize("amp_out, amp_in", [
        (math.nan, 1), (math.inf, 1), (1, -math.inf), (complex(1, math.nan), 0),
        (1e308, 1e308), (1e154, 1e154), (1e200, 0), (1e-200, 0),
    ])
    def test_unusable_coefficients_rejected_at_construction(self, amp_out, amp_in):
        with pytest.raises(ConfigurationError):
            InitialStateKind.inout(amp_out, amp_in)
        with pytest.raises(ConfigurationError):
            InitialStateKind.custom([amp_out, amp_in, 0, 0, 0, 0, 0, 0])

    def test_loop_pi_uniform_over_three_families(self):
        graph = build_star(12, Anomaly.missing_loop(5))
        s = initial_state(graph, InitialStateKind.loop_pi())
        expected = 1.0 / math.sqrt(3 * 12)
        np.testing.assert_allclose(np.abs(s.amplitudes), expected)
        # all in phase
        np.testing.assert_allclose(s.amplitudes, s.amplitudes[0])

    def test_loop_third_relative_phases(self):
        graph = build_star(12, Anomaly.missing_loop(
            5, PhaseAngle.from_pi_fraction(1, 3)))
        s = initial_state(graph, InitialStateKind.loop_third())
        w = np.exp(2j * np.pi / 3)
        out_amp, in_amp, loop_amp = (s.amplitudes[0], s.amplitudes[12],
                                     s.amplitudes[24])
        assert abs(out_amp) == pytest.approx(1 / math.sqrt(36))
        assert out_amp / in_amp == pytest.approx(w.conjugate())
        assert loop_amp / in_amp == pytest.approx(w)

    def test_loop_third_conjugated_for_negative_phase(self):
        pos = build_star(12, Anomaly.missing_loop(
            5, PhaseAngle.from_pi_fraction(1, 3)))
        neg = build_star(12, Anomaly.missing_loop(
            5, PhaseAngle.from_pi_fraction(-1, 3)))
        sp = initial_state(pos, InitialStateKind.loop_third())
        sn = initial_state(neg, InitialStateKind.loop_third())
        np.testing.assert_allclose(sn.amplitudes, np.conj(sp.amplitudes))

    def test_loop_kinds_need_missing_loop(self):
        graph = build_star(6, Anomaly.loop(2))
        with pytest.raises(ConfigurationError):
            initial_state(graph, InitialStateKind.loop_pi())
        with pytest.raises(ConfigurationError):
            family_seeds(graph, InitialStateKind.loop_third())

    def test_custom_checks(self):
        graph = build_star(4, Anomaly.none())
        with pytest.raises(ConfigurationError):
            InitialStateKind.custom([0, 0])
        with pytest.raises(DimensionMismatchError):
            initial_state(graph, InitialStateKind.custom([1.0, 0.0]))
        amps = np.zeros(8)
        amps[3] = 2.0  # normalized on the way in
        s = initial_state(graph, InitialStateKind.custom(amps))
        assert abs(s.amplitudes[3]) == pytest.approx(1.0)

    def test_family_seeds_counts(self):
        spoke = build_star(9, Anomaly.extra_edge(1, 5))
        assert len(family_seeds(spoke, InitialStateKind.minus())) == 2
        missing = build_star(9, Anomaly.missing_loop(5))
        assert len(family_seeds(missing, InitialStateKind.loop_pi())) == 3


class TestRealArithmetic:
    """Real walks step in float64; complex128 copies of their start states are the oracle."""

    @pytest.mark.parametrize("kind", [
        InitialStateKind.minus(), InitialStateKind.plus(), InitialStateKind.loop_pi(),
        InitialStateKind.inout(1, -1), InitialStateKind.custom([1.0] + [0.0] * 35)])
    def test_real_kinds_are_float64(self, kind):
        graph = build_star(12, Anomaly.missing_loop(5))
        assert initial_state(graph, kind).amplitudes.dtype == np.float64

    @pytest.mark.parametrize("kind", [
        InitialStateKind.loop_third(), InitialStateKind.inout(1, 1j),
        InitialStateKind.custom([1j] + [0.0] * 35)])
    def test_complex_kinds_are_complex128(self, kind):
        graph = build_star(12, Anomaly.missing_loop(5))
        assert initial_state(graph, kind).amplitudes.dtype == np.complex128

    def test_criterion_10b_start_state_is_float64(self):
        # the acceptance suite's norm-drift walk: 10,000 float64 steps at N=1e6
        graph = build_star(1_000_000, Anomaly.loop(1))
        assert build_step_operator(graph).is_real
        assert initial_state(graph, InitialStateKind.minus()).amplitudes.dtype == np.float64

    @staticmethod
    def walks(n, phase):
        """Every variant marked by the phase, each with its real start states."""
        loops = Anomaly.missing_loop(2, phase)
        anomalies = [Anomaly.none(), Anomaly.extra_edge(1, n, phase), Anomaly.loop(n, phase),
                     Anomaly.extended_edge(n, phase), loops]
        rng = np.random.default_rng(n)
        for anomaly in anomalies:
            graph = build_star(n, anomaly)
            kinds = [InitialStateKind.minus(), InitialStateKind.plus(),
                     InitialStateKind.custom(rng.standard_normal(graph.hilbert_dim))]
            if anomaly is loops:
                kinds.append(InitialStateKind.loop_pi())
            for kind in kinds:
                yield graph, kind

    @pytest.mark.parametrize("phase", [PhaseAngle.zero(), PhaseAngle.pi()])
    @pytest.mark.parametrize("n", [*range(3, 13), 256, 4096])
    def test_float64_walk_matches_complex128(self, n, phase, monkeypatch):
        dtypes = []
        apply_into = anomalywalk.search.apply_into

        def spy(op, x, out):
            dtypes.append(x.dtype)
            return apply_into(op, x, out)
        monkeypatch.setattr(anomalywalk.search, "apply_into", spy)
        for graph, kind in self.walks(n, phase):
            op = build_step_operator(graph)
            assert op.is_real
            if graph.anomaly.variant == "none":
                rows = (np.array([0, n]), np.array([], dtype=np.intp))
            else:
                rows = anomalywalk.search._partition_rows(graph)
            x0 = initial_state(graph, kind).amplitudes
            assert x0.dtype == np.float64
            dtypes.clear()
            real = anomalywalk.search._evolve_full(op, x0, 40, *rows)
            assert set(dtypes) == {np.dtype(np.float64)}
            dtypes.clear()
            cplx = anomalywalk.search._evolve_full(op, x0.astype(complex), 40, *rows)
            assert set(dtypes) == {np.dtype(np.complex128)}
            for a, b in zip(real, cplx, strict=True):
                assert a.n == b.n
                assert abs(a.p_target_spokes - b.p_target_spokes) <= 1e-12
                assert abs(a.p_anomaly - b.p_anomaly) <= 1e-12
                assert abs(a.p_rest - b.p_rest) <= 1e-12


class TestPrediction:
    @pytest.mark.parametrize("n,expected", [(100, 14), (400, 27), (1000, 43)])
    def test_extra_edge_step(self, n, expected):
        graph = build_star(n, Anomaly.extra_edge(1, 2))
        assert predicted_hitting_step(graph) == expected

    def test_loop_step(self):
        assert predicted_hitting_step(build_star(100, Anomaly.loop(1))) == 19

    @pytest.mark.parametrize("anomaly", [
        Anomaly.none(), Anomaly.extended_edge(1), Anomaly.missing_loop(1)])
    def test_no_formula(self, anomaly):
        with pytest.raises(NoPredictionError):
            predicted_hitting_step(build_star(100, anomaly))


class TestRunSearch:
    def test_extra_edge_peak_values(self):
        graph = build_star(100, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.minus(), 34)
        assert result.peak_step == 14 == result.predicted_step
        assert result.peak_detectable == pytest.approx(0.6947, abs=1e-3)
        assert result.peak_undetected == pytest.approx(0.2990, abs=1e-3)
        assert result.warnings == ()

    def test_loop_peak_values(self):
        graph = build_star(100, Anomaly.loop(4))
        result = run_search(graph, InitialStateKind.minus(), 44)
        assert result.peak_step == 19
        assert result.peak_detectable == pytest.approx(0.6357, abs=1e-3)
        assert result.peak_undetected == pytest.approx(0.3626, abs=1e-3)

    def test_records_cover_every_step(self):
        graph = build_star(50, Anomaly.loop(4))
        result = run_search(graph, InitialStateKind.minus(), 20)
        assert [r.n for r in result.per_step] == list(range(21))
        for r in result.per_step:
            total = r.p_target_spokes + r.p_anomaly + r.p_rest
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_reduced_matches_full(self):
        graph = build_star(120, Anomaly.extra_edge(3, 9))
        full = run_search(graph, InitialStateKind.minus(), 40, method="full")
        fast = run_search(graph, InitialStateKind.minus(), 40, method="reduced")
        assert full.peak_step == fast.peak_step
        for a, b in zip(full.per_step, fast.per_step):
            assert a.p_target_spokes == pytest.approx(b.p_target_spokes, abs=1e-9)
            assert a.p_anomaly == pytest.approx(b.p_anomaly, abs=1e-9)

    @pytest.mark.parametrize("anomaly", [
        Anomaly.extra_edge(3, 9), Anomaly.loop(4), Anomaly.extended_edge(5),
        Anomaly.missing_loop(6, PhaseAngle.from_radians(0.7))])
    def test_reduced_matches_full_from_random_complex_state(self, anomaly):
        # a generic start state fills every bulk profile of the cells
        graph = build_star(2048, anomaly)
        rng = np.random.default_rng(7)
        dim = graph.hilbert_dim
        kind = InitialStateKind.custom(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        full = run_search(graph, kind, 60, method="full")
        fast = run_search(graph, kind, 60, method="reduced")
        for a, b in zip(full.per_step, fast.per_step, strict=True):
            assert abs(a.p_target_spokes - b.p_target_spokes) <= 1e-12
            assert abs(a.p_anomaly - b.p_anomaly) <= 1e-12
            assert abs(a.p_rest - b.p_rest) <= 1e-12

    def test_reduced_supports_loop_start_states(self):
        graph = build_star(90, Anomaly.missing_loop(4))
        full = run_search(graph, InitialStateKind.loop_pi(), 20, method="full")
        fast = run_search(graph, InitialStateKind.loop_pi(), 20, method="reduced")
        for a, b in zip(full.per_step, fast.per_step):
            assert a.p_target_spokes == pytest.approx(b.p_target_spokes, abs=1e-9)

    def test_plus_state_stays_delocalized(self):
        graph = build_star(64, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.plus(), 80)
        assert result.peak_detectable + result.peak_undetected <= 0.2

    def test_missing_loop_anomaly_mass_is_dummy_loop_only(self):
        graph = build_star(30, Anomaly.missing_loop(4))
        result = run_search(graph, InitialStateKind.loop_pi(), 25)
        # the dummy loop never gains weight from this start state
        assert max(r.p_anomaly for r in result.per_step) < 0.05

    def test_warning_when_peak_far_from_prediction(self):
        graph = build_star(100, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.minus(), 5)
        assert result.warnings
        assert "predicted" in result.warnings[0]

    def test_argument_validation(self):
        graph = build_star(10, Anomaly.loop(1))
        with pytest.raises(ConfigurationError):
            run_search(graph, InitialStateKind.minus(), 0)
        with pytest.raises(ConfigurationError):
            run_search(graph, InitialStateKind.minus(), 5, method="magic")

    def test_plain_star_has_nothing_to_find(self):
        graph = build_star(10, Anomaly.none())
        with pytest.raises(NothingToFindError):
            run_search(graph, InitialStateKind.minus(), 5)

    def test_per_step_csv(self, tmp_path):
        graph = build_star(40, Anomaly.loop(2))
        result = run_search(graph, InitialStateKind.minus(), 12)
        path = tmp_path / "steps.csv"
        write_per_step_csv(result, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "p_target_spokes", "p_anomaly", "p_rest"]
        assert len(rows) == 14
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == pytest.approx(result.per_step[0].p_target_spokes)

    def test_summary_fields(self):
        graph = build_star(100, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.minus(), 34)
        summary = search_summary(graph, InitialStateKind.minus(), result)
        assert summary["spec"]["n_spokes"] == 100
        assert summary["kind"] == "minus"
        assert summary["peak_step"] == 14
        assert summary["predicted_step"] == 14
        assert "warnings" not in summary


class TestMeasurement:
    def test_distribution_and_undetected(self):
        graph = build_star(100, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.minus(), 14)
        op = build_step_operator(graph)
        state = initial_state(graph, InitialStateKind.minus())
        for _ in range(14):
            state = apply_step(op, state)
        m = measure_accessible(state, graph)
        assert m.p_undetected == pytest.approx(result.peak_undetected, abs=1e-12)
        assert m.distribution[2] + m.distribution[7] == pytest.approx(
            result.peak_detectable, abs=1e-12)
        assert sum(m.distribution.values()) + m.p_undetected == pytest.approx(1.0)
        assert not m.sampled and m.detected_edge is None

    def test_missing_loop_folds_real_loops_into_spokes(self):
        graph = build_star(6, Anomaly.missing_loop(2))
        basis = make_basis(graph)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[12] = 0.8  # loop on vertex 1 (real structure)
        amps[13] = 0.6  # dummy loop on the marked vertex
        from anomalywalk.edgespace import make_state
        m = measure_accessible(make_state(amps), graph)
        assert m.distribution[1] == pytest.approx(0.64)
        assert m.p_undetected == pytest.approx(0.36)

    def test_sampling_is_seeded(self):
        graph = build_star(30, Anomaly.loop(3))
        state = initial_state(graph, InitialStateKind.minus())
        a = measure_accessible(state, graph, seed=7)
        b = measure_accessible(state, graph, seed=7)
        assert a.sampled and a.detected_edge == b.detected_edge

    def test_negative_seed_refused(self):
        graph = build_star(30, Anomaly.loop(3))
        state = initial_state(graph, InitialStateKind.minus())
        with pytest.raises(ConfigurationError, match="seed must be non-negative"):
            measure_accessible(state, graph, seed=-1)

    def test_dimension_check(self):
        graph = build_star(5, Anomaly.none())
        from anomalywalk.edgespace import make_state
        with pytest.raises(DimensionMismatchError):
            measure_accessible(make_state(np.array([1.0])), graph)


class TestClassicalBaseline:
    def test_single_location_uniform_over_positions(self):
        graph = build_star(3, Anomaly.loop(2))
        counts = {1: 0, 2: 0, 3: 0}
        for seed in range(3000):
            counts[classical_baseline(graph, seed).queries] += 1
        mean = sum(k * c for k, c in counts.items()) / 3000
        assert mean == pytest.approx(2.0, abs=0.06)
        for c in counts.values():
            assert c > 800  # roughly uniform over the three ranks

    def test_statistics_single_location(self):
        graph = build_star(10, Anomaly.loop(4))
        stats = baseline_statistics(graph, trials=20000, seed=1)
        assert stats.expected_mean == pytest.approx(5.5)
        assert stats.mean == pytest.approx(5.5, rel=0.02)
        assert stats.trials == 20000

    def test_statistics_two_locations(self):
        graph = build_star(10, Anomaly.extra_edge(2, 9))
        stats = baseline_statistics(graph, trials=20000, seed=1)
        assert stats.expected_mean == pytest.approx(11.0 / 3.0)
        assert stats.mean == pytest.approx(11.0 / 3.0, rel=0.03)

    def test_statistics_deterministic_in_seed(self):
        graph = build_star(50, Anomaly.loop(4))
        a = baseline_statistics(graph, trials=500, seed=9)
        b = baseline_statistics(graph, trials=500, seed=9)
        assert a == b

    # 0.999 quantiles of the chi-square law, by degrees of freedom
    CHI2_999 = {8: 26.124, 9: 27.877}

    @pytest.mark.parametrize("anomaly", [Anomaly.loop(4), Anomaly.extra_edge(2, 9)])
    def test_sampler_matches_exact_law(self, anomaly):
        # P(Q = q) = C(N - q, k - 1) / C(N, k): the first of k marked
        # vertices in a uniform shuffle of N sits at rank q
        n, trials = 10, 100_000
        graph = build_star(n, anomaly)
        k = len(graph.anomaly_vertices)
        draws = anomalywalk.search._sample_queries(graph, trials, seed=5)
        ranks = np.arange(1, n - k + 2)
        exact = np.array([math.comb(n - q, k - 1) for q in ranks]) / math.comb(n, k)
        assert exact.sum() == pytest.approx(1.0)
        counts = np.bincount(draws, minlength=n + 2)[1:n - k + 2]
        assert counts.sum() == trials  # no draw outside 1..N-k+1
        expected = trials * exact
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < self.CHI2_999[len(ranks) - 1]

    @pytest.mark.parametrize("n,anomaly", [(1000, Anomaly.loop(7)),
                                           (1000, Anomaly.extra_edge(3, 700)),
                                           (10 ** 6, Anomaly.loop(1))])
    def test_sampler_mean(self, n, anomaly):
        graph = build_star(n, anomaly)
        k = len(graph.anomaly_vertices)
        stats = baseline_statistics(graph, trials=200_000, seed=2)
        assert stats.expected_mean == (n + 1) / (k + 1)
        # five standard errors of the mean
        assert abs(stats.mean - stats.expected_mean) < 5 * stats.std / math.sqrt(200_000)

    def test_single_scan_is_the_first_draw(self):
        graph = build_star(300, Anomaly.extra_edge(5, 6))
        for seed in range(20):
            one = baseline_statistics(graph, trials=1, seed=seed)
            assert classical_baseline(graph, seed).queries == one.mean

    def test_argument_validation(self):
        plain = build_star(10, Anomaly.none())
        with pytest.raises(NothingToFindError):
            classical_baseline(plain, seed=0)
        with pytest.raises(ConfigurationError):
            baseline_statistics(build_star(10, Anomaly.loop(1)), trials=0, seed=0)
        with pytest.raises(ConfigurationError):
            classical_baseline(build_star(10, Anomaly.loop(1)), seed=-1)
