"""Step-operator tests: hub rule, anomaly rewiring, unitarity, apply paths."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import oracle
from oracle import (
    apply_adjoint_into,
    apply_into,
    dense_deviation,
    dense_matrix,
    eigendecompose,
    flat_rows,
    is_real,
    make_state,
    walk_dtype,
    walk_state,
    walk_values,
)

from anomalywalk.edgespace import BasisLabel, make_basis
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalFailureError,
    SizeError,
)
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import (
    BlockWalk,
    StepOperator,
    build_step_operator,
    check_unitarity,
    build_scattering_operator,
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


def test_constructor_refuses_hub_amplitudes_off_one():
    # the walk steps the hub's own entry as t - 1, the certificate and the
    # dense oracle as -r: the two agree only when r + t = 1
    op = build_step_operator(build_star(6, Anomaly.loop(2)))
    with pytest.raises(ConfigurationError, match=r"need r \+ t = 1, got 0.5 \+ "):
        op._replace(hub_r=0.5)


def test_operator_refuses_assignment():
    # a table changed after construction would skip the tiling test; only
    # _replace, which constructs anew, changes a field
    op = build_step_operator(build_star(6, Anomaly.loop(2)))
    for name in ("roles", "amp", "extra"):
        with pytest.raises(AttributeError):
            setattr(op, name, None)
        with pytest.raises(AttributeError):
            delattr(op, name)
    assert op.roles == (1, 0, 2)
    with pytest.raises(TypeError):
        op._replace(extra=None)
    moved = op._replace(amp=[-a for a in op.amp])
    assert (moved.basis, moved.roles, moved.src, moved.dst) == (op.basis, op.roles, op.src,
                                                                  op.dst)
    assert moved.amp == tuple(-a for a in op.amp)


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
    independent reference for the operator's role table and patches.
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


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("make", [
    lambda n: Anomaly.none(), lambda n: Anomaly.extra_edge(2, n),
    *(lambda n, a=anomaly: a for anomaly in ALL_VARIANTS[2:])])
def test_dense_and_sparse_agree(n, make):
    # the dense matrix equals the sparse rule-by-rule triplets, entry for
    # entry: the hub's -r and t, and every vertex's routing and phase
    graph = build_star(n, make(n))
    for r, t in (((n - 2) / n, 2 / n), (1.0, 0.0)):
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


@pytest.mark.parametrize("n", [3, 4, 6, 7, 16])
def test_apply_paths_match_dense(n):
    for anomaly in _oracle_variants(n):
        graph = build_star(n, anomaly)
        for op in (build_step_operator(graph),
                   build_scattering_operator(graph, 1.0, 0.0)):
            u = dense_matrix(op)
            x = random_unit_state(op.dimension, seed=n)
            # NaN in the buffer shows any position the apply path skips
            out = np.full(op.dimension, np.nan, dtype=complex)
            np.testing.assert_allclose(apply_into(op, x, out), u @ x,
                                       rtol=0, atol=1e-14)
            out = np.full(op.dimension, np.nan, dtype=complex)
            np.testing.assert_allclose(apply_adjoint_into(op, x, out),
                                       u.conj().T @ x, rtol=0, atol=1e-14)


WALK_PHASES = [PhaseAngle.zero(), PhaseAngle.pi(), PhaseAngle.from_pi_fraction(1, 3),
               PhaseAngle.from_radians(0.7)]


def phased_variants(n, phase):
    """Every variant on n spokes marked by the phase, the anomaly at either end."""
    return [Anomaly.none(), Anomaly.extra_edge(1, n, phase), Anomaly.extra_edge(2, 3, phase),
            Anomaly.loop(1, phase), Anomaly.loop(n, phase), Anomaly.extended_edge(1, phase),
            Anomaly.extended_edge(n, phase), Anomaly.missing_loop(1, phase),
            Anomaly.missing_loop(n, phase)]


@pytest.mark.parametrize("phase", WALK_PHASES, ids=["0", "pi", "pi_3", "0.7rad"])
@pytest.mark.parametrize("n", range(3, 13))
def test_block_walk_matches_dense(n, phase):
    # every step of the relabelled walk against powers of the dense U, from
    # real and complex values per block, over 3*dim steps
    rng = np.random.default_rng(n)
    for anomaly in phased_variants(n, phase):
        op = build_step_operator(build_star(n, anomaly))
        u = dense_matrix(op)
        lengths = np.diff(op.basis.bounds)
        real = rng.standard_normal(len(lengths))
        for values in (real, real + 1j * rng.standard_normal(len(lengths))):
            walk = BlockWalk(op, tuple(values.tolist()))
            want = np.repeat(values, lengths).astype(complex)
            worst = 0.0
            for _ in range(3 * op.dimension):
                walk.step()
                want = u @ want
                worst = max(worst, float(np.abs(walk_state(walk) - want).max()))
            assert worst <= 1e-12, (anomaly, values.dtype, worst)


@pytest.mark.parametrize("anomaly, roles", [
    (Anomaly.none(), (1, 0, 2)), (Anomaly.extra_edge(2, 5), (1, 0, 2)),
    (Anomaly.loop(3), (1, 0, 2)), (Anomaly.extended_edge(3), (1, 0, 2)),
    (Anomaly.missing_loop(3), (1, 2, 0, 3))])
def test_routing_relabels_blocks(anomaly, roles):
    # out <- in through the hub, in <- out (or in <- loops <- out), and the
    # tail keeps its place; a table that does not permute the blocks, or
    # that leaves a bulk block in place, is refused when it is constructed
    op = build_step_operator(build_star(6, anomaly))
    assert op.roles == roles
    assert op.basis.bounds[-1] == op.dimension
    assert op.basis.locate(flat_rows(op, op.dst)) == op.dst
    for bad in NOT_RELABELLINGS[len(roles)]:
        with pytest.raises(NumericalFailureError, match="do not relabel the blocks"):
            op._replace(roles=bad)


# role tables of the three-block (out, in, tail) and four-block (out, in,
# loops, tail) layouts: too short, not a permutation, a bulk block left in
# place, the hub reading another block than in, the tail moved
NOT_RELABELLINGS = {
    3: [(1, 0), (1, 1, 2), (0, 1, 2), (2, 0, 1), (1, 2, 0)],
    4: [(1, 2, 0), (1, 2, 0, 0), (1, 0, 2, 3), (2, 0, 1, 3), (1, 2, 3, 0)],
}

# extra_edge(2, 5) on eight spokes patches (0,2) -> (2,5) -> (5,0) and
# (0,5) -> (5,2) -> (2,0): rows 1 -> 16 -> 12 and 4 -> 17 -> 9, which are
# (0, 1) -> (2, 0) -> (1, 4) and (0, 4) -> (2, 1) -> (1, 1) as (block, offset)
SRC = ((0, 1), (0, 4), (2, 0), (2, 1))
DST = ((2, 0), (2, 1), (1, 4), (1, 1))
UNTILED = {
    "tail_row_unwritten": (SRC[1:], DST[1:], "tail unwritten"),
    "row_written_twice": (SRC, DST[:3] + ((1, 4),), "write a row twice"),
    "row_read_twice": (((0, 1), (0, 1)) + SRC[2:], DST, "read a row twice"),
    "out_block_written": (SRC, DST[:2] + ((0, 4), (1, 1)), "writes the out block"),
    "in_block_read": (SRC[:2] + ((1, 4), (2, 1)), DST, "reads the in block"),
    "copied_row_read_again": (((0, 2),) + SRC[1:], DST, "read each row once"),
    "offset_outside_block": (SRC, DST[:3] + ((1, 8),), "pair up inside the basis"),
    "block_outside_layout": (SRC[:3] + ((3, 0),), DST, "pair up inside the basis"),
    "negative_offset": (SRC, DST[:3] + ((1, -1),), "pair up inside the basis"),
    "unpaired_source": (SRC, DST[:3], "pair up inside the basis"),
}


@pytest.mark.parametrize("src,dst,message", UNTILED.values(), ids=UNTILED)
def test_routing_refuses_untiled_patches(src, dst, message):
    op = build_step_operator(build_star(8, Anomaly.extra_edge(2, 5)))
    assert (op.src, op.dst) == (SRC, DST)
    assert (flat_rows(op, op.src).tolist(), flat_rows(op, op.dst).tolist()) == (
        [1, 4, 16, 17], [16, 17, 12, 9])
    with pytest.raises(NumericalFailureError, match=message):
        op._replace(src=src, dst=dst, amp=np.ones(len(src), dtype=complex))


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_build_allocates_nothing_of_the_full_length(anomaly):
    # the constructor and the certificate read the role table and the
    # patches only, so a million-spoke star, build and certificate hold no
    # array of length N, and the report is the one a ten-spoke star gets
    tracemalloc.start()
    try:
        op = build_step_operator(build_star(10 ** 6, anomaly))
        report = check_unitarity(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.roles[0] == 1
    assert peak < 1 << 20
    small = check_unitarity(build_step_operator(build_star(10, anomaly)))
    assert type(report) is type(small) and report.tolerance == small.tolerance
    assert report.passed and small.passed


@pytest.mark.parametrize("variant", ["none", "extra_edge", "loop",
                                     "extended_edge", "missing_loop"])
def test_patches_are_few(variant):
    anomaly = {"none": Anomaly.none(), "extra_edge": Anomaly.extra_edge(1, 9),
               "loop": Anomaly.loop(5), "extended_edge": Anomaly.extended_edge(5),
               "missing_loop": Anomaly.missing_loop(5)}[variant]
    op = build_step_operator(build_star(10 ** 5, anomaly))
    assert len(op.src) == len(op.dst) == len(op.amp) <= 4
    assert len(op.roles) == (4 if variant == "missing_loop" else 3)


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_unitary(anomaly):
    report = check_unitarity(build_step_operator(build_star(6, anomaly)))
    assert report.passed
    assert report.max_deviation < 1e-12


@pytest.mark.parametrize("phase", WALK_PHASES, ids=["0", "pi", "pi_3", "0.7rad"])
def test_certificate_matches_dense_oracle(phase):
    # the table certificate against max|U†U - I| of the materialized matrix
    for n in range(3, 61):
        for anomaly in phased_variants(n, phase):
            op = build_step_operator(build_star(n, anomaly))
            report = check_unitarity(op)
            assert report.passed
            assert abs(report.max_deviation - dense_deviation(op)) <= 1e-14, (n, anomaly)


def corrupted(op, **fields):
    """A shallow copy of the operator with fields swapped past the constructor."""
    broken = object.__new__(StepOperator)
    for name in StepOperator.__slots__:
        object.__setattr__(broken, name, fields.get(name, getattr(op, name)))
    return broken


def tiles(op, fields):
    """Whether the table with the fields swapped passes the constructor's
    tiling test, which hub amplitudes off r + t = 1 do not reach."""
    try:
        op._replace(**fields)
    except NumericalFailureError:
        return False
    except ConfigurationError:
        pass
    return True


CORRUPTIONS = {
    "duplicate_dst": lambda op: {"dst": op.dst[:1] * len(op.dst)},
    "duplicate_src": lambda op: {"src": op.src[:1] * len(op.src)},
    "dst_in_out_block": lambda op: {"dst": ((0, 0),) + op.dst[1:]},
    "src_in_hub_block": lambda op: {"src": ((op.roles[0], 0),) + op.src[1:]},
    "roles_not_a_permutation": lambda op: {"roles": (1, 1) + op.roles[2:]},
    "amp_scaled": lambda op: {"amp": tuple(1.5 * a for a in op.amp)},
    "hub_t_scaled": lambda op: {"hub_t": op.hub_t * 1.01},
    # the diagonal of the hub Gram keeps r², so only its off-diagonal sees this
    "hub_r_negated": lambda op: {"hub_r": -op.hub_r},
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_certificate_on_corrupted_tables(corrupt):
    # a table that no longer tiles, which the constructor refuses, fails
    # the certificate by at least 1, as the dense product does; any other
    # fault is read off exactly.  Every variant but the plain star has
    # patches to corrupt
    for n in (3, 8, 21):
        for anomaly in _oracle_variants(n)[1:]:
            op = build_step_operator(build_star(n, anomaly))
            broken = corrupted(op, **corrupt(op))
            report, dense = check_unitarity(broken), dense_deviation(broken)
            assert not report.passed
            if not tiles(op, corrupt(op)):
                assert report.max_deviation >= 1.0 and dense >= 1.0
            else:
                assert abs(report.max_deviation - dense) <= 1e-14, (n, anomaly)


def test_dense_cross_check_spans_slabs():
    # two patches feeding one row: every amplitude has modulus one, so only
    # the tiling test and the dense product see it, and the two columns sit
    # in different column slabs of the oracle's product.  The constructor
    # refuses such patches, so the broken operator is made without it, as a
    # shallow copy with its destinations swapped in place
    graph = build_star(1100, Anomaly.extra_edge(1, 1100))
    op = build_step_operator(graph)
    assert check_unitarity(op).passed
    dst = (op.dst[0],) * len(op.dst)
    with pytest.raises(NumericalFailureError, match="write a row twice"):
        op._replace(dst=dst)
    broken = corrupted(op, dst=dst)
    src = flat_rows(op, op.src)
    width = (1 << 20) // op.dimension
    assert src[0] // width != src[-1] // width
    assert check_unitarity(broken).max_deviation >= 1.0
    assert dense_deviation(broken) >= 1.0


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_apply_matches_dense(anomaly):
    graph = build_star(6, anomaly)
    op = build_step_operator(graph)
    x = random_unit_state(op.dimension, seed=11)
    stepped = apply_into(op, x, np.empty(op.dimension, dtype=complex))
    np.testing.assert_allclose(stepped, dense_matrix(op) @ x, atol=1e-14)
    back = apply_adjoint_into(op, stepped, np.empty(op.dimension, dtype=complex))
    np.testing.assert_allclose(back, x, atol=1e-13)


def test_is_real_flag():
    # the operators whose amplitudes carry no imaginary part, on which the
    # references of tests/oracle.py run in float64
    assert is_real(build_step_operator(build_star(5, Anomaly.extra_edge(1, 2))))
    # the default marking phase is pi, exactly -1
    assert is_real(build_step_operator(build_star(5, Anomaly.missing_loop(1))))
    assert is_real(build_step_operator(build_star(5, Anomaly.extended_edge(1))))
    marked = build_step_operator(
        build_star(5, Anomaly.missing_loop(1, PhaseAngle.from_pi_fraction(1, 3))))
    assert not is_real(marked)


@pytest.mark.parametrize("make", [Anomaly.extended_edge, Anomaly.missing_loop])
@pytest.mark.parametrize("num, amplitude", [(0, 1.0), (2, 1.0), (1, -1.0), (-3, -1.0)])
def test_phases_zero_and_pi_are_exact(make, num, amplitude):
    angle = PhaseAngle.from_pi_fraction(num, 1)
    assert angle.phasor == amplitude and angle.phasor.imag == 0.0
    op = build_step_operator(build_star(8, make(3, angle)))
    assert not any(a.imag for a in op.amp)
    assert {a.real for a in op.amp} == {1.0, amplitude}


@pytest.mark.parametrize("num, den, amplitude", [(1, 2, 1j), (-1, 2, -1j), (3, 2, -1j),
                                                  (5, -2, -1j)])
def test_quarter_turns_are_exact(num, den, amplitude):
    angle = PhaseAngle.from_pi_fraction(num, den)
    assert angle.phasor == amplitude and angle.phasor.real == 0.0
    op = build_step_operator(build_star(8, Anomaly.missing_loop(3, angle)))
    assert amplitude in op.amp
    assert not is_real(op)


@pytest.mark.parametrize("angle", [PhaseAngle.from_pi_fraction(1, 3),
                                   PhaseAngle.from_pi_fraction(-2, 3),
                                   PhaseAngle.from_radians(0.7)])
def test_other_phases_follow_exp(angle):
    want = np.exp(1j * angle.value)
    got = angle.phasor
    np.testing.assert_array_max_ulp(np.array([got.real, got.imag]),
                                    np.array([want.real, want.imag]), maxulp=1)
    for make in (Anomaly.extended_edge, Anomaly.missing_loop):
        assert not is_real(build_step_operator(build_star(8, make(3, angle))))


def walk_once(op, x):
    walk = BlockWalk(op, x)
    walk.step()
    return walk


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_apply_step_keeps_real_states_real(anomaly):
    # the block walk steps float values per block as their complex copies,
    # in complex128 and bit for bit, and a real operator leaves no imaginary
    # part; the oracle's adjoint runs in the arithmetic its `walk_dtype` picks
    op = build_step_operator(build_star(6, anomaly))
    rng = np.random.default_rng(5)
    values = rng.standard_normal(len(op.basis.bounds) - 1).tolist()
    real_walk = walk_once(op, tuple(values))
    cplx_walk = walk_once(op, tuple(map(complex, values)))
    real = rng.standard_normal(op.dimension)
    cplx = real.astype(complex)
    assert {type(v) for v in walk_values(real_walk) + walk_values(cplx_walk)} == {complex}
    np.testing.assert_array_equal(walk_state(real_walk), walk_state(cplx_walk), strict=True)
    if is_real(op):
        assert not np.any(walk_state(real_walk).imag)
    back = apply_adjoint_into(op, real, np.empty(op.dimension, walk_dtype(op, real)))
    assert back.dtype == (np.float64 if is_real(op) else np.complex128)
    np.testing.assert_allclose(back, apply_adjoint_into(op, cplx, np.empty_like(cplx)),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("anomaly", ALL_VARIANTS)
def test_dense_cross_check_is_real_for_a_real_operator(anomaly, monkeypatch):
    # the oracle's product runs in float64 for a real operator, and the
    # certificate matches it
    op = build_step_operator(build_star(20, anomaly))
    seen = set()
    columns = oracle._dense_columns

    def spy(*args):
        u = columns(*args)
        seen.add(u.dtype)
        return u
    monkeypatch.setattr(oracle, "_dense_columns", spy)
    assert abs(check_unitarity(op).max_deviation - oracle.dense_deviation(op)) <= 1e-14
    assert seen == {np.dtype(np.float64) if is_real(op) else np.dtype(np.complex128)}
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
            if not is_real(op):
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


def test_apply_step_dimension_check():
    op = build_step_operator(build_star(5, Anomaly.none()))
    with pytest.raises(DimensionMismatchError):
        BlockWalk(op, np.array([1.0]))
    # values per block: the plain star has out, in and an empty tail
    with pytest.raises(DimensionMismatchError, match="2 block values for the 3 blocks"):
        BlockWalk(op, (0.5, -0.5))


def test_dense_cap_enforced():
    # the oracle refuses a dense matrix past the cap; the certificate reads
    # the same operator off its tables
    op = build_step_operator(build_star(5000, Anomaly.none()))
    assert op.dimension > oracle.DENSE_CAP
    with pytest.raises(SizeError):
        dense_matrix(op)
    assert check_unitarity(op).passed


def test_swapped_dense_cap_is_obeyed(monkeypatch):
    # the oracle's cap is read when a call runs: at the dimension the dense
    # matrix and its eigendecomposition run, one below it both refuse, and
    # the certificate, which forms no dense matrix, reports the same either way
    op = build_step_operator(build_star(10, Anomaly.loop(3)))
    want = check_unitarity(op)
    for cap, dense in ((op.dimension, True), (op.dimension - 1, False)):
        monkeypatch.setattr(oracle, "DENSE_CAP", cap)
        assert check_unitarity(op) == want
        if dense:
            assert dense_matrix(op).shape == (op.dimension, op.dimension)
            assert eigendecompose(dense_matrix(op)).eigenphases
        else:
            with pytest.raises(SizeError, match=f"over dense cap {cap}"):
                dense_matrix(op)
            with pytest.raises(SizeError, match=f"exceeds dense cap {cap}"):
                eigendecompose(np.eye(op.dimension))
