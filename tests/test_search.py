"""Search dynamics tests: start states, peaks, the detected split, baseline."""

import csv
import math
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from oracle import (
    apply_into,
    flat_walk_records,
    named_start,
    recorded,
    records,
    reduce_seeds,
    reference_draws,
    reference_statistics,
    search_rows,
    start_values,
    walk_state,
    walk_values,
)

import anomalywalk.search
import anomalywalk.stargraph
from anomalywalk.collapse import cells_operator
from anomalywalk.edgespace import make_basis
from anomalywalk.errors import (
    ConfigurationError,
    NoPredictionError,
    NothingToFindError,
    NumericalFailureError,
    SizeError,
)
from anomalywalk.numerics import DEFAULT_POLICY, norm2
from anomalywalk.search import (
    InitialStateKind,
    baseline_statistics,
    family_seeds,
    predicted_hitting_step,
    run_search,
    search_summary,
    write_per_step_csv,
)
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import BlockWalk, build_step_operator


def within(a, b, tol):
    """Same shape, and every entry within tol."""
    assert np.shape(a) == np.shape(b)
    np.testing.assert_allclose(a, b, rtol=0, atol=tol)


def columns(result):
    """A result's three columns as numpy views of their `array('d')`."""
    return tuple(np.asarray(c) for c in (result.p_target_spokes, result.p_anomaly, result.p_rest))


class TestInitialStates:
    """The named start states as the references build them; the block fill
    that `run_search` starts from is held to them."""

    def test_minus_amplitudes(self):
        graph = build_star(8, Anomaly.extra_edge(1, 2))
        s = named_start(graph, InitialStateKind.minus())
        np.testing.assert_allclose(s[:8], 0.25)
        np.testing.assert_allclose(s[8:16], -0.25)
        np.testing.assert_allclose(s[16:], 0)

    def test_plus_amplitudes(self):
        graph = build_star(8, Anomaly.loop(3))
        s = named_start(graph, InitialStateKind.plus())
        np.testing.assert_allclose(s[:16], 0.25)

    def test_inout_normalizes(self):
        graph = build_star(4, Anomaly.loop(1))
        s = named_start(graph, InitialStateKind.inout(3.0, 4.0j))
        out_amp = s[0]
        in_amp = s[4]
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

    def test_loop_pi_uniform_over_three_families(self):
        graph = build_star(12, Anomaly.missing_loop(5))
        s = named_start(graph, InitialStateKind.loop_pi())
        expected = 1.0 / math.sqrt(3 * 12)
        np.testing.assert_allclose(np.abs(s), expected)
        # all in phase
        np.testing.assert_allclose(s, s[0])

    def test_loop_third_relative_phases(self):
        graph = build_star(12, Anomaly.missing_loop(
            5, PhaseAngle.from_pi_fraction(1, 3)))
        s = named_start(graph, InitialStateKind.loop_third())
        w = np.exp(2j * np.pi / 3)
        out_amp, in_amp, loop_amp = s[0], s[12], s[24]
        assert abs(out_amp) == pytest.approx(1 / math.sqrt(36))
        assert out_amp / in_amp == pytest.approx(w.conjugate())
        assert loop_amp / in_amp == pytest.approx(w)

    def test_loop_third_conjugated_for_negative_phase(self):
        pos = build_star(12, Anomaly.missing_loop(
            5, PhaseAngle.from_pi_fraction(1, 3)))
        neg = build_star(12, Anomaly.missing_loop(
            5, PhaseAngle.from_pi_fraction(-1, 3)))
        sp = named_start(pos, InitialStateKind.loop_third())
        sn = named_start(neg, InitialStateKind.loop_third())
        np.testing.assert_allclose(sn, np.conj(sp))

    def test_loop_kinds_need_missing_loop(self):
        graph = build_star(6, Anomaly.loop(2))
        with pytest.raises(ConfigurationError):
            run_search(graph, InitialStateKind.loop_pi(), 1)
        with pytest.raises(ConfigurationError):
            family_seeds(graph, InitialStateKind.loop_third())

    def test_family_seeds_counts(self):
        spoke = build_star(9, Anomaly.extra_edge(1, 5))
        assert len(family_seeds(spoke, InitialStateKind.minus())[1]) == 2
        missing = build_star(9, Anomaly.missing_loop(5))
        assert len(family_seeds(missing, InitialStateKind.loop_pi())[1]) == 3
        # a kind that names no family is refused
        with pytest.raises(ConfigurationError, match="not a named family"):
            family_seeds(spoke, InitialStateKind("zap"))

    @pytest.mark.parametrize("n", [3, 7, 1000])
    @pytest.mark.parametrize("kind", [
        InitialStateKind.minus(), InitialStateKind.plus(), InitialStateKind.inout(0.3, -0.7),
        InitialStateKind.inout(1.0, -0.5j), InitialStateKind.loop_pi(),
        InitialStateKind.loop_third(),
    ], ids=["minus", "plus", "inout_real", "inout_complex", "loop_pi", "loop_third"])
    @pytest.mark.parametrize("phase", [(1, 3), (-1, 3), (1, 1)], ids=["pi_3", "-pi_3", "pi"])
    def test_named_states_are_the_generator_sums(self, n, kind, phase):
        # the values per block, filled into their blocks, against the sum of
        # the full-length generators as first written, normalised by its
        # norm summed exactly: the closed-form norm leaves each entry within
        # 2 ulps of it (0.85 measured up to N=1e6), where np.linalg.norm's
        # sum over the vector rounds 32 ulps away at N=1000
        graph = build_star(n, Anomaly.missing_loop(2, PhaseAngle.from_pi_fraction(*phase)))
        want = named_start(graph, kind)
        got = np.repeat(start_values(graph, kind), np.diff(make_basis(graph).bounds))
        np.testing.assert_allclose(got, want, rtol=2 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("phase", [(1, 1), (1, 3)], ids=["pi", "pi_3"])
@pytest.mark.parametrize("kind", [
    InitialStateKind.minus(), InitialStateKind.plus(), InitialStateKind.loop_pi(),
    InitialStateKind.loop_third(), InitialStateKind.inout(1, -1), InitialStateKind.inout(1, 1j)],
    ids=["minus", "plus", "loop_pi", "loop_third", "inout_real", "inout_complex"])
def test_every_cells_operator_is_complex_and_every_closure_complex128(kind, phase):
    # one arithmetic for every walk, real-valued or not, on a real operator
    # (marked by pi) and on a complex one: the cells' operator holds Python
    # complexes, and the oracle's closure of the family is complex128
    graph = build_star(12, Anomaly.missing_loop(5, PhaseAngle.from_pi_fraction(*phase)))
    op = build_step_operator(graph)
    cells, seeds = family_seeds(graph, kind)
    assert {type(x) for row in cells_operator(op, cells) for x in row} == {complex}
    closure = reduce_seeds(op, cells, seeds)
    for matrix in (closure.matrix, closure.basis.coords):
        assert matrix.dtype == np.complex128


class TestRealArithmetic:
    """Real start values walk as Python complexes, as every start does, and
    bit for bit as their complex copies."""

    @pytest.mark.parametrize("kind", [
        InitialStateKind.loop_third(), InitialStateKind.inout(1, 1j)])
    def test_complex_kinds_are_complex(self, kind):
        with recorded(BlockWalk) as walks:
            run_search(build_star(12, Anomaly.missing_loop(5)), kind, 1)
        assert any(v.imag for v in walks[0][0]["start"])
        assert {type(v) for v in walk_values(walks[0][0]["self"])} == {complex}

    @staticmethod
    def walks(n, phase):
        """Every variant marked by the phase, each with its real start states."""
        loops = Anomaly.missing_loop(2, phase)
        anomalies = [Anomaly.extra_edge(1, n, phase), Anomaly.loop(n, phase),
                     Anomaly.extended_edge(n, phase), loops]
        for anomaly in anomalies:
            graph = build_star(n, anomaly)
            kinds = [InitialStateKind.minus(), InitialStateKind.plus()]
            if anomaly is loops:
                kinds.append(InitialStateKind.loop_pi())
            for kind in kinds:
                yield graph, kind

    @pytest.mark.parametrize("phase", [PhaseAngle.zero(), PhaseAngle.pi()])
    @pytest.mark.parametrize("n", [*range(3, 13), 256, 4096])
    def test_real_walk_matches_its_complex_copy(self, n, phase):
        # the search rows of every step, and the whole state after 40
        for graph, kind in self.walks(n, phase):
            op = build_step_operator(graph)
            target_rows, anomaly_rows = search_rows(graph)
            located = op.basis.locate(target_rows + anomaly_rows)
            values = start_values(graph, kind)
            assert {type(v) for v in values} == {float}
            real, cplx = BlockWalk(op, values), BlockWalk(op, tuple(map(complex, values)))
            for _ in range(40):
                assert real.gather(located) == cplx.gather(located)
                real.step()
                cplx.step()
            assert {type(v) for v in walk_values(real)} == {complex}
            np.testing.assert_array_equal(walk_state(real), walk_state(cplx), strict=True)


class TestBlockWalk:
    """The full walk on bulk values and written rows against the walk stepped
    as one flat vector."""

    @staticmethod
    def cases(n):
        third, rad = PhaseAngle.from_pi_fraction(1, 3), PhaseAngle.from_radians(0.7)
        minus = InitialStateKind.minus()
        return [(Anomaly.extra_edge(1, n), minus), (Anomaly.extra_edge(2, 3), minus),
                (Anomaly.loop(n), minus), (Anomaly.loop(1), InitialStateKind.plus()),
                (Anomaly.extended_edge(1), minus), (Anomaly.extended_edge(n, rad), minus),
                (Anomaly.missing_loop(1), InitialStateKind.loop_pi()),
                (Anomaly.missing_loop(n, third), InitialStateKind.loop_third()),
                (Anomaly.missing_loop(2, rad), minus),
                (Anomaly.missing_loop(n), InitialStateKind.inout(0.6, -0.8j))]

    @pytest.mark.parametrize("n", [256, 4096, 100_000])
    def test_records_match_flat_apply(self, n):
        # the walk sums the block the hub reads from its bulk value and
        # written rows, so its records round apart from the flat walk's,
        # within 1e-12 of them
        cases = [(*case, 200) for case in self.cases(n)]
        if n == 100_000:
            # the benchmark's size: the real loop walk over the 2400 steps of
            # its `evolve` job, and a complex walk past its first peak
            cases = [(*cases[2][:2], 2400), (*cases[7][:2], 600)]
        for anomaly, kind, steps in cases:
            graph = build_star(n, anomaly)
            op = build_step_operator(graph)
            rows = search_rows(graph)
            got = columns(run_search(graph, kind, steps))
            want = flat_walk_records(op, named_start(graph, kind), steps, *rows)
            for a, b in zip(got, want, strict=True):
                within(a, b, 1e-12)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_split_is_bit_equal_to_numpy_column_sums(self, n):
        # the records add each step's re^2 + im^2 in row order in Python,
        # the float operations of numpy's column sums: the walk's gathered
        # amplitudes, split by the oracle as numpy first did, give the same bits
        for anomaly, kind in self.cases(n):
            graph = build_star(n, anomaly)
            op = build_step_operator(graph)
            target_rows, anomaly_rows = search_rows(graph)
            located = op.basis.locate(target_rows + anomaly_rows)
            start = start_values(graph, kind)
            walk = BlockWalk(op, start)
            amps = [walk.gather(located)]
            for _ in range(200):
                walk.step()
                amps.append(walk.gather(located))
            total = sum(length * abs(v) ** 2 for length, v in zip(walk.lengths, start))
            want = records(lambda: (np.array(amps), total), len(target_rows))
            for a, b in zip(columns(run_search(graph, kind, 200)), want, strict=True):
                np.testing.assert_array_equal(a, b, strict=True)

    @pytest.mark.parametrize("phase", [PhaseAngle.zero(), PhaseAngle.pi(),
                                       PhaseAngle.from_pi_fraction(1, 3),
                                       PhaseAngle.from_radians(0.7)],
                             ids=["0", "pi", "pi_3", "0.7rad"])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 256, 4096])
    def test_records_match_flat_apply_on_every_variant(self, n, phase):
        # every variant marked by the phase, the anomaly at either end, from
        # the real minus state and a complex inout one, started as
        # `run_search` starts them, over at least twice the dimension at
        # small N and past the first peak at large N
        steps = 100 if n <= 12 else 130
        for anomaly in (Anomaly.extra_edge(1, n, phase), Anomaly.extra_edge(2, 3, phase),
                        Anomaly.loop(1, phase), Anomaly.loop(n, phase),
                        Anomaly.extended_edge(1, phase), Anomaly.extended_edge(n, phase),
                        Anomaly.missing_loop(1, phase), Anomaly.missing_loop(n, phase)):
            graph = build_star(n, anomaly)
            op = build_step_operator(graph)
            rows = search_rows(graph)
            for kind in (InitialStateKind.minus(), InitialStateKind.inout(0.8, 0.6j)):
                got = columns(run_search(graph, kind, steps))
                want = flat_walk_records(op, named_start(graph, kind), steps, *rows)
                for a, b in zip(got, want, strict=True):
                    within(a, b, 1e-12)

    @pytest.mark.parametrize("phase", [PhaseAngle.zero(), PhaseAngle.pi(),
                                       PhaseAngle.from_pi_fraction(1, 3),
                                       PhaseAngle.from_radians(0.7)],
                             ids=["0", "pi", "pi_3", "0.7rad"])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 256, 4096])
    def test_named_start_is_the_initial_state(self, n, phase):
        # a walk started from a named kind's values per block holds, before
        # its first step, the references' named start: its bulk values, each
        # a Python complex, with no row written
        loops = (InitialStateKind.loop_pi(), InitialStateKind.loop_third())
        for anomaly in (Anomaly.extra_edge(1, n, phase), Anomaly.loop(n, phase),
                        Anomaly.extended_edge(1, phase), Anomaly.missing_loop(2, phase)):
            graph = build_star(n, anomaly)
            op = build_step_operator(graph)
            for kind in (InitialStateKind.minus(), InitialStateKind.plus(),
                         InitialStateKind.inout(0.6, -0.8), InitialStateKind.inout(1.0, 0.5j),
                         *(loops if anomaly.schema.loops else ())):
                walk = BlockWalk(op, start_values(graph, kind))
                want = named_start(graph, kind)
                assert {type(v) for v in walk_values(walk)} == {complex}
                assert walk.rows == [{}] * len(walk.bulk)
                within(walk_state(walk), want, 1e-15)

    def test_ten_million_spokes_start_in_closed_form(self):
        # the named start's norm is taken in closed form, not summed over
        # 2e7 entries, so step 0 of extra_edge reads 4/(2N) on its target
        # rows and the rest of the unit norm
        graph = build_star(10 ** 7, Anomaly.extra_edge(1, 2))
        result = run_search(graph, InitialStateKind.minus(), 1)
        assert abs(result.p_target_spokes[0] / 2e-7 - 1.0) <= 1e-15
        assert abs(result.p_rest[0] - 0.9999998) <= 1e-15

    @pytest.mark.parametrize("anomaly", [Anomaly.loop(7), Anomaly.extra_edge(2, 9),
                                         Anomaly.missing_loop(7, PhaseAngle.from_pi_fraction(1, 3))],
                             ids=["loop", "extra_edge", "missing_loop_pi_3"])
    def test_step_touches_only_patch_rows(self, anomaly):
        # a step is O(patches): after 200 steps at N=1e6 the walk has
        # written only the patch rows; every other row reads its block's
        # bulk value, and every value is a Python complex
        graph = build_star(1_000_000, anomaly)
        op = build_step_operator(graph)
        walk = BlockWalk(op, start_values(graph, InitialStateKind.minus()))
        for _ in range(200):
            walk.step()
        written = {k for rows in walk.rows for k in rows}
        assert written and written <= {k for _, k in op.dst}
        assert {type(v) for v in walk_values(walk)} == {complex}

    @staticmethod
    def _traced(anomaly, kind, steps):
        """The tracemalloc (peak, current) and the columns of a named full
        search at N=1e3 and at N=1e7, after one untraced run has loaded
        what the search loads on first use."""
        run_search(build_star(1000, anomaly), kind, steps)
        traced, runs = [], []
        for n in (1000, 10 ** 7):
            graph = build_star(n, anomaly)
            tracemalloc.start()
            try:
                runs.append(columns(run_search(graph, kind, steps)))
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            traced.append((peak, current))
        return traced, runs

    def test_buffers_are_allocated_once(self):
        # the search holds nothing of length N: it peaks at the same memory,
        # within 4 KiB, at N=1e3 and N=1e7, and net of the columns it
        # returns, its peak does not grow with the number of steps
        net = {}
        for steps in (10, 1000):
            traced, runs = self._traced(Anomaly.loop(7), InitialStateKind.minus(), steps)
            assert [len(c) for got in runs for c in got] == [steps + 1] * 6
            (small, _), (large, current) = traced
            assert abs(large - small) <= 4096, traced
            net[steps] = large - current
        assert net[1000] <= net[10] + (1 << 16)

    def test_complex_walk_takes_its_norm_without_temporaries(self):
        # a complex walk's squared norm at its end allocates nothing of a
        # block's length either: the same peak, within 4 KiB, at N=1e3 and 1e7
        (small, _), (large, _) = self._traced(
            Anomaly.missing_loop(7, PhaseAngle.from_pi_fraction(1, 3)),
            InitialStateKind.loop_third(), 10)[0]
        assert abs(large - small) <= 4096, (small, large)

    @pytest.mark.parametrize("steps", [10, 1000])
    def test_each_step_reads_only_its_rows(self, steps):
        # the total is taken in closed form from the start values and
        # certified once at the end from the walk's bulk values and written
        # rows: each step reads the walk once, at its target and anomaly
        # rows, and no vector norm is taken
        graph = build_star(4096, Anomaly.loop(7))
        with (recorded(BlockWalk.gather) as reads, recorded(norm2) as norms,
              recorded(anomalywalk.search._walk_norm2) as walk_norms):
            result = run_search(graph, InitialStateKind.minus(), steps)
        assert [len(c) for c in columns(result)] == [steps + 1] * 3
        assert len(reads) == steps + 1 and norms == []
        assert len(walk_norms) == 1
        assert {len(args["located"]) for args, _ in reads} == {sum(map(len, search_rows(graph)))}


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

    def test_columns_are_float_arrays_and_hold_the_peak(self):
        graph = build_star(50, Anomaly.loop(4))
        for method in ("full", "reduced"):
            result = run_search(graph, InitialStateKind.minus(), 20, method=method)
            for column in (result.p_target_spokes, result.p_anomaly, result.p_rest):
                assert type(column) is array and column.typecode == "d" and len(column) == 21
            within(sum(columns(result)), np.ones(21), 1e-10)
            assert result.peak_detectable == result.p_target_spokes[result.peak_step]
            assert result.peak_undetected == result.p_anomaly[result.peak_step]
            assert type(result.peak_detectable) is type(result.peak_undetected) is float
        # on four spokes the walk's sum reaches its largest value at steps
        # 2, 3, 7 and 8, to the bit: the earliest wins
        result = run_search(build_star(4, Anomaly.extra_edge(1, 2)), InitialStateKind.minus(), 8)
        sums = [pt + pa for pt, pa in zip(result.p_target_spokes, result.p_anomaly)]
        assert [k for k, x in enumerate(sums) if x == max(sums)] == [2, 3, 7, 8]
        assert result.peak_step == 2

    @pytest.mark.parametrize("n,anomaly,kind,steps", [
        (120, Anomaly.extra_edge(3, 9), InitialStateKind.minus(), 40),
        (90, Anomaly.missing_loop(4), InitialStateKind.loop_pi(), 20)], ids=["minus", "loop_pi"])
    def test_reduced_matches_full(self, n, anomaly, kind, steps):
        graph = build_star(n, anomaly)
        full = run_search(graph, kind, steps, method="full")
        fast = run_search(graph, kind, steps, method="reduced")
        assert full.peak_step == fast.peak_step
        within(full.p_target_spokes, fast.p_target_spokes, 1e-9)
        within(full.p_anomaly, fast.p_anomaly, 1e-9)

    @pytest.mark.parametrize("anomaly", [
        Anomaly.extra_edge(3, 9), Anomaly.loop(4), Anomaly.extended_edge(5),
        Anomaly.missing_loop(6, PhaseAngle.from_radians(0.7))])
    def test_reduced_matches_full_from_random_complex_state(self, anomaly):
        # a random complex start of the inout family
        graph = build_star(2048, anomaly)
        rng = np.random.default_rng(7)
        kind = InitialStateKind.inout(*(rng.normal(size=2) + 1j * rng.normal(size=2)).tolist())
        full = run_search(graph, kind, 60, method="full")
        fast = run_search(graph, kind, 60, method="reduced")
        for a, b in zip(columns(full), columns(fast)):
            within(a, b, 1e-12)

    @pytest.mark.parametrize("anomaly,kind,steps", [
        (Anomaly.extended_edge(3, PhaseAngle.from_radians(0.7)), InitialStateKind.minus(),
         int(4 * math.sqrt(10 ** 5)) + 10),
        (Anomaly.missing_loop(3), InitialStateKind.loop_pi(), 1200),
        (Anomaly.loop(4242), InitialStateKind.minus(), 2400),
        (Anomaly.extra_edge(17, 90210), InitialStateKind.minus(),
         int(4 * math.sqrt(10 ** 5)) + 10),
    ], ids=["extended_edge_0.7rad", "missing_loop_loop_pi", "loop", "extra_edge"])
    def test_reduced_keeps_to_the_full_walk_at_large_n(self, anomaly, kind, steps):
        # over the default search horizon of N=1e5 (and the benchmark's 1200
        # and 2400 steps of the missing loop and the loop) every record of
        # the reduced walk stays within 1e-11 of the full walk's
        graph = build_star(10 ** 5, anomaly)
        full = run_search(graph, kind, steps, method="full")
        fast = run_search(graph, kind, steps, method="reduced")
        for a, b in zip(columns(full), columns(fast)):
            within(a, b, 1e-11)

    @pytest.mark.parametrize("kind", [
        InitialStateKind.minus(), InitialStateKind.inout(0.6, 0.8j)], ids=["minus", "inout"])
    def test_reduced_builds_the_start_state_once(self, kind):
        # the reduced walk starts from the start state's row on the cells,
        # and the spot check from its values per block: the start is never
        # built at full length, and the spot check's walk holds nothing of
        # length N either, so the run peaks at a few KB
        graph = build_star(200_000, Anomaly.loop(3))
        tracemalloc.start()
        try:
            fast = run_search(graph, kind, 30, method="reduced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 16
        full = run_search(graph, kind, 30, method="full")
        within(full.p_target_spokes, fast.p_target_spokes, 1e-12)
        within(full.p_anomaly, fast.p_anomaly, 1e-12)

    def test_plus_state_stays_delocalized(self):
        graph = build_star(64, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.plus(), 80)
        assert result.peak_detectable + result.peak_undetected <= 0.2

    def test_missing_loop_anomaly_mass_is_dummy_loop_only(self):
        graph = build_star(30, Anomaly.missing_loop(4))
        result = run_search(graph, InitialStateKind.loop_pi(), 25)
        # the dummy loop never gains weight from this start state
        assert max(result.p_anomaly) < 0.05

    def test_peak_slack_is_read_from_the_policy(self, monkeypatch):
        # the peak of a 5-step run lies 9 or more steps before the predicted 14
        graph = build_star(100, Anomaly.extra_edge(2, 7))
        minus = InitialStateKind.minus()
        assert "more than 2 steps" in run_search(graph, minus, 5).warnings[0]
        for slack, warned in ((3, True), (20, False)):
            monkeypatch.setattr(anomalywalk.search, "DEFAULT_POLICY",
                                DEFAULT_POLICY._replace(peak_slack=slack))
            warnings = run_search(graph, minus, 5).warnings
            assert bool(warnings) == warned
            assert not warned or f"more than {slack} steps" in warnings[0]

    def test_spot_check_is_read_from_the_policy(self, monkeypatch):
        # the spot check's full walk reads its rows at step 0 and at each
        # step of the checked prefix
        graph = build_star(64, Anomaly.loop(3))
        minus = InitialStateKind.minus()
        prefixes = []
        for policy in (DEFAULT_POLICY, DEFAULT_POLICY._replace(spot_check_steps=7)):
            monkeypatch.setattr(anomalywalk.search, "DEFAULT_POLICY", policy)
            with recorded(BlockWalk.gather) as reads:
                run_search(graph, minus, 30, method="reduced")
            prefixes.append(len(reads) - 1)
        assert prefixes == [25, 7]
        monkeypatch.setattr(anomalywalk.search, "DEFAULT_POLICY",
                            policy._replace(spot_check_tol=-1.0))
        with pytest.raises(NumericalFailureError, match="from the full walk at step 7"):
            run_search(graph, minus, 30, method="reduced")

    def test_argument_validation(self):
        graph = build_star(10, Anomaly.loop(1))
        with pytest.raises(ConfigurationError):
            run_search(graph, InitialStateKind.minus(), 0)
        with pytest.raises(ConfigurationError):
            run_search(graph, InitialStateKind.minus(), 5, method="magic")

    @pytest.mark.parametrize("method,case", [
        *[pytest.param(method, "loop", id=method) for method in ("full", "reduced")],
        *[pytest.param(method, case, id=f"{case}-{method}")
          for case in ("extra_edge_inout", "missing_loop_loop_third")
          for method in ("full", "reduced")]])
    def test_records_fit_the_memory_refusal(self, monkeypatch, method, case):
        # run_search refuses a horizon by the bytes it takes a step; at a
        # small N the per-step arrays are the whole peak, on the widest
        # complex rows too, and a machine one byte short of the peak refuses
        # the run
        if case == "loop":
            graph, kind = build_star(50, Anomaly.loop(3)), InitialStateKind.minus()
        elif case == "extra_edge_inout":
            graph, kind = build_star(50, Anomaly.extra_edge(2, 7)), InitialStateKind.inout(0.6, 0.8j)
        else:
            graph = build_star(50, Anomaly.missing_loop(4, PhaseAngle.from_pi_fraction(1, 3)))
            kind = InitialStateKind.loop_third()
        steps = 10_000
        tracemalloc.start()
        try:
            run_search(graph, kind, steps, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(anomalywalk.stargraph, "physical_memory_bytes", lambda: peak - 1)
        with pytest.raises(SizeError, match=f"^{steps} steps need more than"):
            run_search(graph, kind, steps, method=method)

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
        assert float(rows[1][1]) == pytest.approx(result.p_target_spokes[0])

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
        # the peak's split is the accessible-edge measurement's: the weight
        # on the anomaly's spokes is detected, the weight on the states only
        # the anomaly provides is not, read off the flat walk's state
        graph = build_star(100, Anomaly.extra_edge(2, 7))
        result = run_search(graph, InitialStateKind.minus(), 14)
        op = build_step_operator(graph)
        x = named_start(graph, InitialStateKind.minus())
        for _ in range(14):
            x = apply_into(op, x, np.empty_like(x))
        weight = np.abs(x) ** 2
        basis = op.basis
        bounds = basis.bounds
        spokes = weight[bounds[0]:bounds[1]] + weight[bounds[1]:bounds[2]]
        undetected = weight[basis.anomaly_only_rows].sum()
        assert undetected == pytest.approx(result.peak_undetected, abs=1e-12)
        assert spokes[1] + spokes[6] == pytest.approx(result.peak_detectable, abs=1e-12)
        assert spokes.sum() + undetected == pytest.approx(1.0)


class TestClassicalBaseline:
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
    CHI2_999 = {2: 13.816, 8: 26.124, 9: 27.877}

    @pytest.mark.parametrize("n,anomaly", [(3, Anomaly.loop(2)), (10, Anomaly.loop(4)),
                                           (10, Anomaly.extra_edge(2, 9))])
    def test_sampler_matches_exact_law(self, n, anomaly):
        # P(Q = q) = C(N - q, k - 1) / C(N, k): the first of k marked
        # vertices in a uniform shuffle of N sits at rank q.  The law is
        # read off the reference draws, whose exact sum and sum of squares
        # the package's draws share
        trials = 100_000
        graph = build_star(n, anomaly)
        k = len(graph.anomaly_vertices)
        assert baseline_statistics(graph, trials, seed=5) == reference_statistics(graph, trials, 5)
        draws = reference_draws(graph, trials, seed=5)
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

    @staticmethod
    def exact_rank(u, n, k):
        # Q = N - m for the largest m in [k - 1, N - 1] with f(m) <= u f(N),
        # f the falling factorial, in rational arithmetic
        bound = Fraction(u) * math.perm(n, k)
        lo, hi = k - 1, n - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if math.perm(mid, k) <= bound else (lo, mid - 1)
        return n - lo

    @pytest.mark.parametrize("n", [3, 1000, 12_345, 10 ** 9, 2 ** 40])
    @pytest.mark.parametrize("anomaly", [Anomaly.loop(1), Anomaly.extra_edge(1, 2)])
    def test_sampler_inverts_at_the_rank_thresholds(self, monkeypatch, n, anomaly):
        # the uniforms at which the rank changes, f(m) / f(N), one ulp and
        # 2^-40 of it either side, and the ends of [0, 1): each draw is the
        # exact rank of a u' within 4 ulps of its u, as the sampler's
        # docstring allows, so it is exact 2^-40 off a threshold.  Each u
        # is the one uniform of a one-trial baseline, whose mean is its draw
        graph = build_star(n, anomaly)
        k = len(graph.anomaly_vertices)
        us = [0.0, 1.0 - 2.0 ** -53]
        for m in sorted({k - 1, k, k + 1, n // 3, n // 2, n - 2, n - 1}):
            threshold = math.perm(m, k) / math.perm(n, k)
            us += [threshold * (1 - 2.0 ** -40), np.nextafter(threshold, 0.0), threshold,
                   np.nextafter(threshold, 1.0), threshold * (1 + 2.0 ** -40)]
        us = [float(u) for u in us if 0.0 <= u < 1.0]
        draws = []
        for u in us:
            monkeypatch.setattr(anomalywalk.search, "_uniforms", lambda seed, count: [[u]])
            draws.append(int(baseline_statistics(graph, trials=1, seed=0).mean))
        tolerance = 4 * 2.0 ** -52
        for u, q in zip(us, draws):
            low = self.exact_rank(min(u * (1 + tolerance), 1.0 - 2.0 ** -53), n, k)
            high = self.exact_rank(u * (1 - tolerance), n, k)
            assert low <= q <= high, (u, q)
        assert draws[0] == n - k + 1 and draws[1] == 1  # u = 0 and the largest u

    @pytest.mark.parametrize("n", [1000, 10 ** 9])
    @pytest.mark.parametrize("anomaly", [Anomaly.loop(1), Anomaly.extra_edge(1, 2)])
    def test_draws_are_the_numpy_reference_draws(self, n, anomaly):
        # the draws, each taken in Python, against the reference's drawn in
        # whole-array numpy operations from the same uniforms, for k = 1 and
        # k = 2: bit-equal draws give bit-equal statistics, both read from
        # the draws' exact sum and sum of squares, and numpy's mean and
        # standard deviation of the reference draws agree.  The 10,000
        # uniforms span three of the sampler's chunks, where the reference
        # takes them in one call
        graph = build_star(n, anomaly)
        for seed in (0, 11):
            got = baseline_statistics(graph, trials=10_000, seed=seed)
            assert got == reference_statistics(graph, 10_000, seed)
            draws = reference_draws(graph, 10_000, seed)
            assert got.mean == draws.mean()
            assert got.std == pytest.approx(draws.std(), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("anomaly", [Anomaly.loop(7), Anomaly.extra_edge(3, 700)])
    def test_trials_fit_the_memory_refusal(self, monkeypatch, anomaly):
        # baseline_statistics refuses a trial count by the bytes it takes a
        # trial; the per-trial arrays are the whole peak, for k = 1 and
        # k = 2, and a machine one byte short of the peak refuses the run
        graph = build_star(1000, anomaly)
        trials = 200_000
        tracemalloc.start()
        try:
            baseline_statistics(graph, trials=trials, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(anomalywalk.stargraph, "physical_memory_bytes", lambda: peak - 1)
        with pytest.raises(SizeError, match=f"^{trials} trials need more than"):
            baseline_statistics(graph, trials=trials, seed=4)

    def test_argument_validation(self):
        plain = build_star(10, Anomaly.none())
        with pytest.raises(NothingToFindError):
            baseline_statistics(plain, trials=1, seed=0)
        with pytest.raises(ConfigurationError):
            baseline_statistics(build_star(10, Anomaly.loop(1)), trials=0, seed=0)
        with pytest.raises(ConfigurationError, match="seed must be non-negative"):
            baseline_statistics(build_star(10, Anomaly.loop(1)), trials=1, seed=-1)
