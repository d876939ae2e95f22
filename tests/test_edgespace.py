"""Edge-basis enumeration and state helper tests."""

import numpy as np
import pytest
from oracle import (
    all_loops_state,
    flat_rows,
    hub_in_state,
    hub_out_state,
    label_at,
    make_state,
    symmetric_in_state,
    symmetric_out_state,
)

from anomalywalk.edgespace import BasisLabel, make_basis
from anomalywalk.errors import ConfigurationError, DimensionMismatchError
from anomalywalk.stargraph import Anomaly, build_star
from anomalywalk.stepop import build_step_operator


def test_label_str_forms():
    assert str(BasisLabel.edge(0, 3)) == "0->3"
    assert str(BasisLabel.edge(3, 0)) == "3->0"
    assert str(BasisLabel.loop(7)) == "l7"


def test_label_self_edge_rejected():
    with pytest.raises(ConfigurationError):
        BasisLabel.edge(4, 4)
    with pytest.raises(ConfigurationError):
        BasisLabel.edge(3, 0).at  # at only makes sense for loops


def test_plain_star_enumeration():
    basis = make_basis(build_star(3, Anomaly.none()))
    assert [str(label_at(basis, k)) for k in range(basis.dim)] == [
        "0->1", "0->2", "0->3", "1->0", "2->0", "3->0"]
    assert basis.position(BasisLabel.edge(0, 2)) == 1
    assert basis.position(BasisLabel.edge(2, 0)) == 4


def test_extra_edge_pair_comes_last():
    basis = make_basis(build_star(4, Anomaly.extra_edge(2, 4)))
    assert [str(label_at(basis, k)) for k in (8, 9)] == ["2->4", "4->2"]
    assert basis.dim == 10


def test_loop_state_last():
    basis = make_basis(build_star(4, Anomaly.loop(3)))
    assert str(label_at(basis, basis.dim - 1)) == "l3"


def test_extension_uses_next_vertex_id():
    basis = make_basis(build_star(4, Anomaly.extended_edge(2)))
    assert [str(label_at(basis, k)) for k in (8, 9)] == ["2->5", "5->2"]


def test_missing_loop_enumerates_all_loops_ascending():
    basis = make_basis(build_star(4, Anomaly.missing_loop(2)))
    assert [str(label_at(basis, k)) for k in range(8, 12)] == ["l1", "l2", "l3", "l4"]


@pytest.mark.parametrize("n", [3, 7, 16, 40])
@pytest.mark.parametrize("make", [
    Anomaly.none,
    lambda: Anomaly.extra_edge(1, 2),
    lambda: Anomaly.loop(1),
    lambda: Anomaly.extended_edge(1),
    lambda: Anomaly.missing_loop(1),
])
def test_dim_matches_graph(n, make):
    # the blocks the basis lays out end at the graph's Hilbert dimension
    graph = build_star(n, make())
    basis = make_basis(graph)
    assert basis.dim == basis.bounds[-1] == graph.hilbert_dim


def test_position_unknown_label():
    basis = make_basis(build_star(3, Anomaly.none()))
    with pytest.raises(ConfigurationError):
        basis.position(BasisLabel.loop(1))


def _layout_variants(n):
    mid = (n + 1) // 2
    return [Anomaly.none(), Anomaly.extra_edge(1, n), Anomaly.extra_edge(mid, mid + 1),
            Anomaly.loop(1), Anomaly.loop(n), Anomaly.extended_edge(mid),
            Anomaly.extended_edge(n), Anomaly.missing_loop(1), Anomaly.missing_loop(n)]


@pytest.mark.parametrize("n", range(3, 13))
def test_label_position_roundtrip(n):
    for anomaly in _layout_variants(n):
        basis = make_basis(build_star(n, anomaly))
        labels = [label_at(basis, k) for k in range(basis.dim)]
        assert len(set(labels)) == basis.dim
        for k, label in enumerate(labels):
            assert basis.position(label) == k
            assert label_at(basis, basis.position(label)) == label
        for pos in (-1, basis.dim):
            with pytest.raises(ConfigurationError):
                label_at(basis, pos)
        unknown = [BasisLabel.edge(0, n + 1), BasisLabel.edge(n + 1, 0),
                   BasisLabel.edge(n + 2, 1), BasisLabel.loop(n + 1),
                   BasisLabel.loop(0)]
        if anomaly.variant != "missing_loop":
            unknown += [BasisLabel.loop(j) for j in range(1, n + 1)
                        if anomaly.variant != "loop" or j != anomaly.at]
        if anomaly.variant != "extra_edge":
            unknown.append(BasisLabel.edge(1, 2))
        for label in unknown:
            with pytest.raises(ConfigurationError):
                basis.position(label)


def _accessor_variants(n):
    # every at of missing_loop, and each other variant at the first and last vertex
    return ([Anomaly.none(), Anomaly.extra_edge(1, n), Anomaly.extra_edge(2, 3),
             Anomaly.loop(1), Anomaly.loop(n), Anomaly.extended_edge(1),
             Anomaly.extended_edge(n)]
            + [Anomaly.missing_loop(at) for at in range(1, n + 1)])


@pytest.mark.parametrize("n", range(3, 13))
def test_layout_accessors_match_position(n):
    edge = BasisLabel.edge
    for anomaly in _accessor_variants(n):
        graph = build_star(n, anomaly)
        basis = make_basis(graph)
        spokes = range(1, n + 1)
        rows = np.arange(basis.dim)
        out, inc = (rows[basis.bounds[b]:basis.bounds[b + 1]] for b in (0, 1))
        assert list(out) == [basis.position(edge(0, j)) for j in spokes]
        assert list(inc) == [basis.position(edge(j, 0)) for j in spokes]
        assert list(rows[basis.anomaly_block]) == list(range(2 * n, basis.dim))
        if anomaly.variant == "missing_loop":
            only = [basis.position(BasisLabel.loop(anomaly.at))]
        else:  # every state past the spokes is the anomaly's own
            only = [basis.position(label_at(basis, k)) for k in range(2 * n, basis.dim)]
        assert list(basis.anomaly_only_rows) == only
        vertices = graph.anomaly_vertices
        assert list(basis.out_rows(vertices)) == [basis.position(edge(0, j)) for j in vertices]
        assert list(basis.in_rows(vertices)) == [basis.position(edge(j, 0)) for j in vertices]
        for outside in ([0], [n + 1], [1, n + 1]):
            with pytest.raises(ConfigurationError):
                basis.out_rows(outside)
            with pytest.raises(ConfigurationError):
                basis.in_rows(outside)


@pytest.mark.parametrize("anomaly", [
    Anomaly.none(), Anomaly.extra_edge(2, 5), Anomaly.loop(3), Anomaly.extended_edge(3),
    Anomaly.missing_loop(3)], ids=lambda a: a.variant)
def test_locate_at_the_block_edges(anomaly):
    # the first and last row of every block: none's and missing_loop's tails
    # are empty, so their last rows end the block before; extended_edge's
    # tail ends at the tip's edge
    op = build_step_operator(build_star(6, anomaly))
    bounds = op.basis.bounds
    rows = [row for lo, hi in zip(bounds, bounds[1:]) if hi > lo for row in (lo, hi - 1)]
    located = op.basis.locate(rows)
    assert flat_rows(op, located).tolist() == rows
    blocks = np.searchsorted(bounds, rows, side="right") - 1
    assert located == tuple(zip(blocks.tolist(), (rows - np.take(bounds, blocks)).tolist()))
    if anomaly.variant == "extended_edge":
        tip = op.basis.position(BasisLabel.edge(7, 3))
        assert op.basis.locate([tip]) == ((2, 1),) and rows[-1] == tip


def test_make_state_checks():
    with pytest.raises(ConfigurationError):
        make_state(np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        make_state(np.eye(2))
    s = make_state(np.array([0.6, 0.8j]))
    assert np.linalg.norm(s) == pytest.approx(1.0)
    # stored amplitudes are frozen
    with pytest.raises(ValueError):
        s[0] = 0.0


@pytest.mark.parametrize("amps", [
    np.array([0.6, 0.8]), np.full(4, 0.5, dtype=np.float32), [0, 1], [0.6, 0.8j],
    np.array([0.6, 0.8], dtype=complex)])
def test_make_state_is_complex128(amps):
    # real amplitudes of any type are held as complex128, each value exactly
    s = make_state(amps)
    assert s.dtype == np.complex128
    np.testing.assert_array_equal(s, np.asarray(amps))


def test_uniform_states():
    basis = make_basis(build_star(5, Anomaly.none()))
    out = hub_out_state(basis)
    inc = hub_in_state(basis)
    np.testing.assert_allclose(out[:5], np.full(5, 5 ** -0.5))
    np.testing.assert_allclose(out[5:], 0)
    np.testing.assert_allclose(inc[5:], np.full(5, 5 ** -0.5))
    assert abs(np.vdot(out, inc)) == 0


def test_all_loops_state_requires_loops_everywhere():
    full = make_basis(build_star(4, Anomaly.missing_loop(2)))
    s = all_loops_state(full)
    np.testing.assert_allclose(s[8:], np.full(4, 0.5))
    with pytest.raises(ConfigurationError):
        all_loops_state(make_basis(build_star(4, Anomaly.loop(2))))


def test_symmetric_states():
    basis = make_basis(build_star(6, Anomaly.extra_edge(2, 5)))
    out = symmetric_out_state(basis, (2, 5))
    assert out[1] == pytest.approx(2 ** -0.5)
    assert out[4] == pytest.approx(2 ** -0.5)
    inc = symmetric_in_state(basis, (2, 5))
    assert inc[7] == pytest.approx(2 ** -0.5)
    with pytest.raises(ConfigurationError):
        symmetric_out_state(basis, ())
