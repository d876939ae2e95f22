"""Edge-basis enumeration and state helper tests."""

import numpy as np
import pytest

from anomalywalk.edgespace import (
    BasisLabel,
    all_loops_state,
    edge_probabilities,
    hub_in_state,
    hub_out_state,
    make_basis,
    make_state,
    symmetric_in_state,
    symmetric_out_state,
)
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalFailureError,
)
from anomalywalk.stargraph import Anomaly, build_star


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
    assert [str(basis.label(k)) for k in range(basis.dim)] == [
        "0->1", "0->2", "0->3", "1->0", "2->0", "3->0"]
    assert basis.position(BasisLabel.edge(0, 2)) == 1
    assert basis.position(BasisLabel.edge(2, 0)) == 4


def test_extra_edge_pair_comes_last():
    basis = make_basis(build_star(4, Anomaly.extra_edge(2, 4)))
    assert [str(basis.label(k)) for k in (8, 9)] == ["2->4", "4->2"]
    assert basis.dim == 10


def test_loop_state_last():
    basis = make_basis(build_star(4, Anomaly.loop(3)))
    assert str(basis.label(basis.dim - 1)) == "l3"


def test_extension_uses_next_vertex_id():
    basis = make_basis(build_star(4, Anomaly.extended_edge(2)))
    assert [str(basis.label(k)) for k in (8, 9)] == ["2->5", "5->2"]


def test_missing_loop_enumerates_all_loops_ascending():
    basis = make_basis(build_star(4, Anomaly.missing_loop(2)))
    assert [str(basis.label(k)) for k in range(8, 12)] == ["l1", "l2", "l3", "l4"]


@pytest.mark.parametrize("n", [3, 7, 16, 40])
@pytest.mark.parametrize("make", [
    Anomaly.none,
    lambda: Anomaly.extra_edge(1, 2),
    lambda: Anomaly.loop(1),
    lambda: Anomaly.extended_edge(1),
    lambda: Anomaly.missing_loop(1),
])
def test_dim_matches_graph(n, make):
    graph = build_star(n, make())
    assert make_basis(graph).dim == graph.hilbert_dim


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
        labels = [basis.label(k) for k in range(basis.dim)]
        assert len(set(labels)) == basis.dim
        for k, label in enumerate(labels):
            assert basis.position(label) == k
            assert basis.label(basis.position(label)) == label
        for pos in (-1, basis.dim):
            with pytest.raises(ConfigurationError):
                basis.label(pos)
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
        assert list(rows[basis.out_block]) == [basis.position(edge(0, j)) for j in spokes]
        assert list(rows[basis.in_block]) == [basis.position(edge(j, 0)) for j in spokes]
        assert list(rows[basis.anomaly_block]) == list(range(2 * n, basis.dim))
        if anomaly.variant == "missing_loop":
            only = [basis.position(BasisLabel.loop(anomaly.at))]
        else:  # every state past the spokes is the anomaly's own
            only = [basis.position(basis.label(k)) for k in range(2 * n, basis.dim)]
        assert list(basis.anomaly_only_rows) == only
        vertices = graph.anomaly_vertices
        assert list(basis.out_rows(vertices)) == [basis.position(edge(0, j)) for j in vertices]
        assert list(basis.in_rows(vertices)) == [basis.position(edge(j, 0)) for j in vertices]
        for outside in ([0], [n + 1], [1, n + 1]):
            with pytest.raises(ConfigurationError):
                basis.out_rows(outside)
            with pytest.raises(ConfigurationError):
                basis.in_rows(outside)


def test_make_state_checks():
    with pytest.raises(ConfigurationError):
        make_state(np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        make_state(np.eye(2))
    s = make_state(np.array([0.6, 0.8j]))
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)
    # stored amplitudes are frozen
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


@pytest.mark.parametrize("amps, dtype", [
    (np.array([0.6, 0.8]), np.float64), (np.array([0.6, 0.8], dtype=np.float32), np.float64),
    ([0, 1], np.float64), ([0.6, 0.8j], np.complex128),
    (np.array([0.6, 0.8], dtype=complex), np.complex128)])
def test_make_state_keeps_real_amplitudes_real(amps, dtype):
    s = make_state(amps, require_unit=False)
    assert s.amplitudes.dtype == dtype


def test_uniform_states_are_float64():
    basis = make_basis(build_star(5, Anomaly.missing_loop(2)))
    for state in (hub_out_state(basis), hub_in_state(basis), all_loops_state(basis),
                  symmetric_out_state(basis, (1, 3))):
        assert state.amplitudes.dtype == np.float64


def test_make_state_unnormalized_allowed_when_asked():
    s = make_state(np.array([2.0, 0.0]), require_unit=False)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(2.0)


def test_uniform_states():
    basis = make_basis(build_star(5, Anomaly.none()))
    out = hub_out_state(basis)
    inc = hub_in_state(basis)
    np.testing.assert_allclose(out.amplitudes[:5], np.full(5, 5 ** -0.5))
    np.testing.assert_allclose(out.amplitudes[5:], 0)
    np.testing.assert_allclose(inc.amplitudes[5:], np.full(5, 5 ** -0.5))
    assert abs(np.vdot(out.amplitudes, inc.amplitudes)) == 0


def test_all_loops_state_requires_loops_everywhere():
    full = make_basis(build_star(4, Anomaly.missing_loop(2)))
    s = all_loops_state(full)
    np.testing.assert_allclose(s.amplitudes[8:], np.full(4, 0.5))
    with pytest.raises(ConfigurationError):
        all_loops_state(make_basis(build_star(4, Anomaly.loop(2))))


def test_symmetric_states():
    basis = make_basis(build_star(6, Anomaly.extra_edge(2, 5)))
    out = symmetric_out_state(basis, (2, 5))
    assert out.amplitudes[1] == pytest.approx(2 ** -0.5)
    assert out.amplitudes[4] == pytest.approx(2 ** -0.5)
    inc = symmetric_in_state(basis, (2, 5))
    assert inc.amplitudes[7] == pytest.approx(2 ** -0.5)
    with pytest.raises(ConfigurationError):
        symmetric_out_state(basis, ())


def test_edge_probabilities_groups_directions():
    graph = build_star(3, Anomaly.extra_edge(1, 3))
    basis = make_basis(graph)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.position(BasisLabel.edge(1, 3))] = 0.6
    amps[basis.position(BasisLabel.edge(3, 1))] = 0.6j
    amps[basis.position(BasisLabel.edge(0, 2))] = 0.18 ** 0.5
    amps[basis.position(BasisLabel.edge(2, 0))] = -(0.10 ** 0.5)
    probs = edge_probabilities(make_state(amps), basis)
    assert probs[("edge", 1, 3)] == pytest.approx(0.72)
    assert probs[("spoke", 2)] == pytest.approx(0.28)
    assert sum(probs.values()) == pytest.approx(1.0)


def test_edge_probabilities_loop_key():
    graph = build_star(3, Anomaly.loop(2))
    basis = make_basis(graph)
    loop = make_state(np.eye(basis.dim)[basis.position(BasisLabel.loop(2))])
    probs = edge_probabilities(loop, basis)
    assert probs[("loop", 2)] == pytest.approx(1.0)


def test_edge_probabilities_rejects_leaky_state():
    graph = build_star(3, Anomaly.none())
    basis = make_basis(graph)
    half = make_state(np.full(basis.dim, 0.1), require_unit=False)
    with pytest.raises(NumericalFailureError):
        edge_probabilities(half, basis)


def test_edge_probabilities_dim_check():
    basis = make_basis(build_star(3, Anomaly.none()))
    with pytest.raises(DimensionMismatchError):
        edge_probabilities(make_state(np.array([1.0])), basis)
