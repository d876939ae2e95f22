"""Step-operator tests: hub rule, anomaly rewiring, unitarity, apply paths."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import anomalywalk.stepop
from anomalywalk.edgespace import BasisLabel, make_basis, make_state
from anomalywalk.errors import ConfigurationError, DimensionMismatchError, SizeError
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import (
    apply_adjoint,
    apply_adjoint_into,
    apply_into,
    apply_step,
    build_step_operator,
    check_unitarity,
    build_scattering_operator,
    dense_matrix,
)

ALL_VARIANTS = [
    Anomaly.none(),
    Anomaly.extra_edge(2, 5),
    Anomaly.loop(3),
    Anomaly.extended_edge(3),
    Anomaly.missing_loop(3),
    Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 3)),
    Anomaly.extended_edge(3, PhaseAngle.from_radians(0.4)),
]


def random_unit_state(dim, seed):
    """Seeded complex Gaussian state, normalized."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_state(amps / np.linalg.norm(amps))


def column_of(graph, label):
    """Dense column of the step operator indexed by a basis label."""
    op = build_step_operator(graph)
    u = dense_matrix(op)
    return u[:, op.basis.position(label)], op.basis


def test_hub_scattering_column():
    # incoming amplitude reflects with -r and transmits with t = 2/N
    graph = build_star(4, Anomaly.none())
    col, basis = column_of(graph, BasisLabel.edge(1, 0))
    r, t = 0.5, 0.5  # (N-2)/N and 2/N at N=4
    expected = np.zeros(8, dtype=complex)
    expected[0] = -r
    expected[1:4] = t
    np.testing.assert_allclose(col, expected, atol=1e-15)


@pytest.mark.parametrize("r, t", [(0.5, 0.25), (0.9, 0.2), (1.0, math.nan), (math.inf, 0.0)])
def test_hub_amplitudes_must_sum_to_one(r, t):
    with pytest.raises(ConfigurationError):
        build_scattering_operator(build_star(4, Anomaly.loop(1)), r, t)


@pytest.mark.parametrize("n", [3, 7, 1000, 12345])
def test_hub_subtraction_matches_two_term_rule(n):
    # t*sum(in) - in against the rule it replaced, -(r+t)*in + t*sum(in),
    # equal up to the sign of zero since (N-2)/N + 2/N is exactly 1
    op = build_step_operator(build_star(n, Anomaly.loop(1)))
    x = random_unit_state(op.dimension, seed=n).amplitudes
    for kernel, src, dst in ((apply_into, op.basis.in_block, op.basis.out_block),
                             (apply_adjoint_into, op.basis.out_block, op.basis.in_block)):
        expected = x[src] * -(op.hub_r + op.hub_t) + op.hub_t * x[src].sum()
        got = kernel(op, x, np.empty(op.dimension, dtype=complex))[dst]
        assert np.array_equal(got, expected)
        got = kernel(op, x.real.copy(), np.empty(op.dimension))[dst]
        assert np.array_equal(got, x.real[src] * -(op.hub_r + op.hub_t)
                              + op.hub_t * x.real[src].sum())


def test_hub_is_rank_one_away_from_reflection():
    # U = U0 + 2|out><in| with U0 the r=1 reflection walk
    graph = build_star(7, Anomaly.extra_edge(1, 4))
    u = dense_matrix(build_step_operator(graph))
    u0 = dense_matrix(build_scattering_operator(graph, 1.0, 0.0))
    n = graph.n_spokes
    out = np.zeros(graph.hilbert_dim, dtype=complex)
    out[0:n] = n ** -0.5
    inc = np.zeros(graph.hilbert_dim, dtype=complex)
    inc[n:2 * n] = n ** -0.5
    np.testing.assert_allclose(u, u0 + 2.0 * np.outer(out, inc), atol=1e-14)


def test_plain_star_return_column():
    graph = build_star(5, Anomaly.none())
    col, basis = column_of(graph, BasisLabel.edge(0, 2))
    expected = np.zeros(10, dtype=complex)
    expected[basis.position(BasisLabel.edge(2, 0))] = 1.0
    np.testing.assert_allclose(col, expected)


def test_extra_edge_detour():
    graph = build_star(5, Anomaly.extra_edge(2, 4))
    # 0->2 enters the chord, chord exits to 4->0, and mirrored
    col, basis = column_of(graph, BasisLabel.edge(0, 2))
    assert col[basis.position(BasisLabel.edge(2, 4))] == 1.0
    col, _ = column_of(graph, BasisLabel.edge(2, 4))
    assert col[basis.position(BasisLabel.edge(4, 0))] == 1.0
    col, _ = column_of(graph, BasisLabel.edge(0, 4))
    assert col[basis.position(BasisLabel.edge(4, 2))] == 1.0
    col, _ = column_of(graph, BasisLabel.edge(4, 2))
    assert col[basis.position(BasisLabel.edge(2, 0))] == 1.0


def test_loop_detour():
    graph = build_star(5, Anomaly.loop(3))
    col, basis = column_of(graph, BasisLabel.edge(0, 3))
    assert col[basis.position(BasisLabel.loop(3))] == 1.0
    col, _ = column_of(graph, BasisLabel.loop(3))
    assert col[basis.position(BasisLabel.edge(3, 0))] == 1.0


def test_extended_edge_three_leg_path_with_phase():
    graph = build_star(5, Anomaly.extended_edge(3))  # default phase pi
    basis = make_basis(graph)
    tip = 6
    col, _ = column_of(graph, BasisLabel.edge(0, 3))
    assert col[basis.position(BasisLabel.edge(3, tip))] == 1.0
    col, _ = column_of(graph, BasisLabel.edge(3, tip))
    assert col[basis.position(BasisLabel.edge(tip, 3))] == pytest.approx(-1.0)
    col, _ = column_of(graph, BasisLabel.edge(tip, 3))
    assert col[basis.position(BasisLabel.edge(3, 0))] == 1.0


def test_extended_edge_generic_phase():
    chi = 0.4
    graph = build_star(5, Anomaly.extended_edge(3, PhaseAngle.from_radians(chi)))
    basis = make_basis(graph)
    col, _ = column_of(graph, BasisLabel.edge(3, 6))
    amp = col[basis.position(BasisLabel.edge(6, 3))]
    assert amp == pytest.approx(np.exp(1j * chi))


def test_missing_loop_columns_at_n5():
    graph = build_star(5, Anomaly.missing_loop(2))  # phase defaults to pi
    basis = make_basis(graph)
    # marked spoke: direct phased bounce back to the hub
    col, _ = column_of(graph, BasisLabel.edge(0, 2))
    assert col[basis.position(BasisLabel.edge(2, 0))] == pytest.approx(-1.0)
    # its dummy loop is a fixed point
    col, _ = column_of(graph, BasisLabel.loop(2))
    assert col[basis.position(BasisLabel.loop(2))] == 1.0
    # unmarked spokes route through their loop
    col, _ = column_of(graph, BasisLabel.edge(0, 1))
    assert col[basis.position(BasisLabel.loop(1))] == 1.0
    col, _ = column_of(graph, BasisLabel.loop(1))
    assert col[basis.position(BasisLabel.edge(1, 0))] == 1.0


def test_missing_loop_rational_phase():
    graph = build_star(5, Anomaly.missing_loop(2, PhaseAngle.from_pi_fraction(1, 3)))
    basis = make_basis(graph)
    col, _ = column_of(graph, BasisLabel.edge(0, 2))
    assert col[basis.position(BasisLabel.edge(2, 0))] == pytest.approx(np.exp(1j * math.pi / 3))


def exact_phase(angle):
    """e^{i theta}, exact on the quarter turns 0, pi/2, pi and -pi/2."""
    if angle.is_rational and angle.den in (1, 2):
        return 1j ** (2 * angle.num // angle.den % 4)
    return complex(np.exp(1j * angle.value))


def rule_triplets(graph, hub_r, hub_t):
    """Sparse (row, col, amplitude) entries of the walk, rule by rule.

    One rule per vertex and label, with no block arithmetic: an
    independent reference for the operator's copies and patches.
    """
    basis = make_basis(graph)
    n = graph.n_spokes
    a = graph.anomaly
    edge = BasisLabel.edge
    entries = []

    def rule(src, dst, amp=1.0):
        entries.append((basis.position(dst), basis.position(src), amp))

    for j in range(1, n + 1):
        for k in range(1, n + 1):
            rule(edge(j, 0), edge(0, k), -hub_r if k == j else hub_t)
    phase = exact_phase(a.mark_phase)
    for j in range(1, n + 1):
        if a.variant == "extra_edge" and j in (a.u, a.v):
            rule(edge(0, j), edge(j, a.v if j == a.u else a.u))
        elif a.variant == "loop" and j == a.at:
            rule(edge(0, j), BasisLabel.loop(j))
        elif a.variant == "extended_edge" and j == a.at:
            rule(edge(0, j), edge(j, n + 1))
        elif a.variant == "missing_loop":
            if j == a.at:
                rule(edge(0, j), edge(j, 0), phase)
                rule(BasisLabel.loop(j), BasisLabel.loop(j))
            else:
                rule(edge(0, j), BasisLabel.loop(j))
                rule(BasisLabel.loop(j), edge(j, 0))
        else:
            rule(edge(0, j), edge(j, 0))
    if a.variant == "extra_edge":
        rule(edge(a.u, a.v), edge(a.v, 0))
        rule(edge(a.v, a.u), edge(a.u, 0))
    elif a.variant == "loop":
        rule(BasisLabel.loop(a.at), edge(a.at, 0))
    elif a.variant == "extended_edge":
        rule(edge(a.at, n + 1), edge(n + 1, a.at), phase)
        rule(edge(n + 1, a.at), edge(a.at, 0))
    return entries


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_dense_and_sparse_agree(anomaly):
    # the dense matrix equals the sparse rule-by-rule triplets, entry for entry
    graph = build_star(6, anomaly)
    for r, t in ((4 / 6, 2 / 6), (1.0, 0.0)):
        expected = np.zeros((graph.hilbert_dim, graph.hilbert_dim), dtype=complex)
        for row, col, amp in rule_triplets(graph, r, t):
            assert expected[row, col] == 0
            expected[row, col] = amp
        op = build_scattering_operator(graph, r, t)
        np.testing.assert_array_equal(dense_matrix(op), expected)


def _oracle_variants(n):
    third = PhaseAngle.from_pi_fraction(1, 3)
    rad = PhaseAngle.from_radians(0.7)
    return [Anomaly.none(), Anomaly.extra_edge(1, n), Anomaly.extra_edge(2, 3),
            Anomaly.loop(1), Anomaly.loop(n), Anomaly.extended_edge(1),
            Anomaly.extended_edge(n, third), Anomaly.extended_edge(2, rad),
            Anomaly.missing_loop(1), Anomaly.missing_loop(n, third),
            Anomaly.missing_loop(2, rad)]


@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_apply_paths_match_dense(n):
    for anomaly in _oracle_variants(n):
        graph = build_star(n, anomaly)
        for op in (build_step_operator(graph),
                   build_scattering_operator(graph, 1.0, 0.0)):
            u = dense_matrix(op)
            x = random_unit_state(op.dimension, seed=n).amplitudes
            # NaN in the buffer shows any position the apply path skips
            out = np.full(op.dimension, np.nan, dtype=complex)
            np.testing.assert_allclose(apply_into(op, x, out), u @ x,
                                       rtol=0, atol=1e-14)
            out = np.full(op.dimension, np.nan, dtype=complex)
            np.testing.assert_allclose(apply_adjoint_into(op, x, out),
                                       u.conj().T @ x, rtol=0, atol=1e-14)


@pytest.mark.parametrize("variant", ["none", "extra_edge", "loop",
                                     "extended_edge", "missing_loop"])
def test_patches_are_few(variant):
    anomaly = {"none": Anomaly.none(), "extra_edge": Anomaly.extra_edge(1, 9),
               "loop": Anomaly.loop(5), "extended_edge": Anomaly.extended_edge(5),
               "missing_loop": Anomaly.missing_loop(5)}[variant]
    op = build_step_operator(build_star(10 ** 5, anomaly))
    assert op.perm_src.size == op.perm_dst.size == op.perm_amp.size <= 4
    assert len(op.copies) == (2 if variant == "missing_loop" else 1)


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_unitary(anomaly):
    report = check_unitarity(build_step_operator(build_star(6, anomaly)))
    assert report.passed
    assert report.max_deviation < 1e-12


def test_dense_cross_check_spans_slabs():
    # two patches feeding one row: every amplitude has modulus one, so only
    # the explicit product sees it, and the two columns sit in different
    # column slabs of the cross-check
    graph = build_star(1100, Anomaly.extra_edge(1, 1100))
    op = build_step_operator(graph)
    assert check_unitarity(op).passed
    broken = dataclasses.replace(op, perm_dst=np.full_like(op.perm_dst, op.perm_dst[0]))
    assert check_unitarity(broken).max_deviation >= 1.0


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_apply_matches_dense(anomaly):
    graph = build_star(6, anomaly)
    op = build_step_operator(graph)
    x = random_unit_state(op.dimension, seed=11)
    stepped = apply_step(op, x)
    np.testing.assert_allclose(stepped.amplitudes,
                               dense_matrix(op) @ x.amplitudes, atol=1e-14)
    back = apply_adjoint(op, stepped)
    np.testing.assert_allclose(back.amplitudes, x.amplitudes, atol=1e-13)


def test_is_real_flag():
    assert build_step_operator(build_star(5, Anomaly.extra_edge(1, 2))).is_real
    # the default marking phase is pi, exactly -1
    assert build_step_operator(build_star(5, Anomaly.missing_loop(1))).is_real
    assert build_step_operator(build_star(5, Anomaly.extended_edge(1))).is_real
    marked = build_step_operator(
        build_star(5, Anomaly.missing_loop(1, PhaseAngle.from_pi_fraction(1, 3))))
    assert not marked.is_real


@pytest.mark.parametrize("make", [Anomaly.extended_edge, Anomaly.missing_loop])
@pytest.mark.parametrize("num, amplitude", [(0, 1.0), (2, 1.0), (1, -1.0), (-3, -1.0)])
def test_phases_zero_and_pi_are_exact(make, num, amplitude):
    angle = PhaseAngle.from_pi_fraction(num, 1)
    assert angle.phasor == amplitude and angle.phasor.imag == 0.0
    op = build_step_operator(build_star(8, make(3, angle)))
    assert op.is_real
    assert not np.any(op.perm_amp.imag)
    assert set(op.perm_amp.real.tolist()) == {1.0, amplitude}


@pytest.mark.parametrize("num, den, amplitude", [(1, 2, 1j), (-1, 2, -1j), (3, 2, -1j),
                                                  (5, -2, -1j)])
def test_quarter_turns_are_exact(num, den, amplitude):
    angle = PhaseAngle.from_pi_fraction(num, den)
    assert angle.phasor == amplitude and angle.phasor.real == 0.0
    op = build_step_operator(build_star(8, Anomaly.missing_loop(3, angle)))
    assert amplitude in op.perm_amp.tolist()
    assert not op.is_real


@pytest.mark.parametrize("angle", [PhaseAngle.from_pi_fraction(1, 3),
                                   PhaseAngle.from_pi_fraction(-2, 3),
                                   PhaseAngle.from_radians(0.7)])
def test_other_phases_follow_exp(angle):
    want = np.exp(1j * angle.value)
    got = angle.phasor
    np.testing.assert_array_max_ulp(np.array([got.real, got.imag]),
                                    np.array([want.real, want.imag]), maxulp=1)
    for make in (Anomaly.extended_edge, Anomaly.missing_loop):
        assert not build_step_operator(build_star(8, make(3, angle))).is_real


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_apply_step_keeps_real_states_real(anomaly):
    op = build_step_operator(build_star(6, anomaly))
    rng = np.random.default_rng(5)
    real = make_state(rng.standard_normal(op.dimension), require_unit=False)
    cplx = make_state(real.amplitudes.astype(complex), require_unit=False)
    assert real.amplitudes.dtype == np.float64 and cplx.amplitudes.dtype == np.complex128
    for step in (apply_step, apply_adjoint):
        assert step(op, real).amplitudes.dtype == (np.float64 if op.is_real else np.complex128)
        assert step(op, cplx).amplitudes.dtype == np.complex128
        np.testing.assert_allclose(step(op, real).amplitudes, step(op, cplx).amplitudes,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_dense_cross_check_is_real_for_a_real_operator(anomaly, monkeypatch):
    op = build_step_operator(build_star(20, anomaly))
    seen = set()
    columns = anomalywalk.stepop._dense_columns

    def spy(*args):
        u = columns(*args)
        seen.add(u.dtype)
        return u
    monkeypatch.setattr(anomalywalk.stepop, "_dense_columns", spy)
    assert check_unitarity(op).passed
    assert seen == {np.dtype(np.float64) if op.is_real else np.dtype(np.complex128)}
    assert dense_matrix(op).dtype == np.complex128


@pytest.mark.parametrize("n", [3, 7, 16])
def test_real_buffers_match_complex_path(n):
    # a real operator steps float64 buffers as it steps the complex ones:
    # the real part of the complex result, up to the order in which the
    # hub sum adds its terms
    rng = np.random.default_rng(n)
    for anomaly in _oracle_variants(n):
        graph = build_star(n, anomaly)
        for op in (build_step_operator(graph),
                   build_scattering_operator(graph, 1.0, 0.0)):
            if not op.is_real:
                continue
            x = rng.standard_normal(op.dimension)
            for kernel in (apply_into, apply_adjoint_into):
                want = kernel(op, x.astype(complex), np.empty(op.dimension, complex))
                out = np.full(op.dimension, np.nan)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = kernel(op, x, out)
                assert got is out and got.dtype == np.float64
                np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-14)
                assert not np.any(want.imag)


# marking phases off the real axis, the quarter turns +-pi/2 among them
COMPLEX_VARIANTS = [
    Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 3)),
    Anomaly.extended_edge(3, PhaseAngle.from_radians(0.4)),
    Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 2)),
    Anomaly.extended_edge(3, PhaseAngle.from_pi_fraction(-1, 2)),
]


@pytest.mark.parametrize("anomaly", COMPLEX_VARIANTS)
def test_real_buffer_rejected_for_complex_operator(anomaly):
    op = build_step_operator(build_star(6, anomaly))
    x = np.ones(op.dimension)
    for kernel in (apply_into, apply_adjoint_into):
        with pytest.raises(ConfigurationError):
            kernel(op, x, np.empty(op.dimension))


def test_raw_buffers_roundtrip_without_allocation():
    op = build_step_operator(build_star(50, Anomaly.loop(7)))
    x = random_unit_state(op.dimension, seed=3).amplitudes.copy()
    buf = np.empty_like(x)
    back = np.empty_like(x)
    apply_into(op, x, buf)
    apply_adjoint_into(op, buf, back)
    np.testing.assert_allclose(back, x, atol=1e-13)
    assert abs(np.linalg.norm(buf) - 1.0) < 1e-13


def test_apply_step_dimension_check():
    op = build_step_operator(build_star(5, Anomaly.none()))
    with pytest.raises(DimensionMismatchError):
        apply_step(op, make_state(np.array([1.0])))


def test_dense_cap_enforced():
    op = build_step_operator(build_star(5000, Anomaly.none()))
    with pytest.raises(SizeError):
        dense_matrix(op)


def test_swapped_dense_cap_is_obeyed(monkeypatch):
    # the cap is read when a call runs: at the dimension both dense paths
    # run, one below it dense_matrix refuses and check_unitarity skips its
    # dense cross-check
    op = build_step_operator(build_star(10, Anomaly.loop(3)))
    slabs = []
    columns = anomalywalk.stepop._dense_columns
    monkeypatch.setattr(anomalywalk.stepop, "_dense_columns",
                        lambda *args: slabs.append(args) or columns(*args))
    for cap, dense in ((op.dimension, True), (op.dimension - 1, False)):
        monkeypatch.setattr(anomalywalk.stepop, "DEFAULT_POLICY",
                            dataclasses.replace(DEFAULT_POLICY, dense_cap=cap))
        slabs.clear()
        assert check_unitarity(op).passed
        assert bool(slabs) == dense
        if dense:
            assert dense_matrix(op).shape == (op.dimension, op.dimension)
        else:
            with pytest.raises(SizeError, match=f"over dense cap {cap}"):
                dense_matrix(op)
