"""Eigenphase decomposition tests, including the reduced-walk spectrum."""

import dataclasses

import numpy as np
import pytest

import anomalywalk.spectral
from anomalywalk.collapse import ReducedBasis, project, reduce_operator
from anomalywalk.edgespace import (
    BasisLabel,
    make_basis,
    symmetric_in_state,
    symmetric_out_state,
)
from anomalywalk.errors import DimensionMismatchError, NumericalFailureError, SizeError
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.search import InitialStateKind, initial_state
from anomalywalk.spectral import (
    dump_spectrum_csv,
    eigendecompose,
    power_apply,
)
from anomalywalk.stargraph import Anomaly, build_star
from anomalywalk.stepop import build_step_operator


def hand_reduced(n, u=2, v=5):
    """Reduced walk matrix on the hand-built 5-dim invariant basis."""
    graph = build_star(n, Anomaly.extra_edge(u, v))
    basis = make_basis(graph)
    bulk = [j for j in range(1, n + 1) if j not in (u, v)]
    chord = np.zeros(basis.dim, dtype=complex)
    chord[basis.position(BasisLabel.edge(u, v))] = 2 ** -0.5
    chord[basis.position(BasisLabel.edge(v, u))] = 2 ** -0.5
    cols = np.stack([
        symmetric_out_state(basis, (u, v)).amplitudes,
        symmetric_in_state(basis, (u, v)).amplitudes,
        symmetric_out_state(basis, bulk).amplitudes,
        symmetric_in_state(basis, bulk).amplitudes,
        chord,
    ], axis=1)
    op = build_step_operator(graph)
    rb = ReducedBasis(cols)
    reduced = reduce_operator(op, rb)
    x0 = project(initial_state(graph, InitialStateKind.minus()), rb)
    return graph, reduced, x0


def test_identity_single_branch():
    spec = eigendecompose(np.eye(4, dtype=complex))
    assert spec.eigenphases == (0.0,)
    assert spec.multiplicities == (4,)
    np.testing.assert_allclose(spec.projector(0), np.eye(4), atol=1e-12)


def test_swap_two_branches():
    spec = eigendecompose(np.array([[0, 1], [1, 0]], dtype=complex))
    assert spec.multiplicities == (1, 1)
    np.testing.assert_allclose(spec.eigenphases, [0.0, np.pi], atol=1e-12)


def test_diagonal_phases_sorted():
    phases = [-2.0, 0.5, 3.0]
    spec = eigendecompose(np.diag(np.exp(1j * np.array(phases))))
    np.testing.assert_allclose(spec.eigenphases, sorted(phases), atol=1e-12)


def test_cluster_tol_merges_near_degenerate():
    mat = np.diag(np.exp(1j * np.array([0.0, 1e-8, 1.0])))
    spec = eigendecompose(mat, cluster_tol=1e-6)
    assert spec.multiplicities == (2, 1)
    split = eigendecompose(mat, cluster_tol=1e-10)
    assert split.multiplicities == (1, 1, 1)


def test_phase_one_ulp_above_minus_pi_is_labelled_pi():
    # the two ends of the cut are one branch, reported on the pi side
    theta = np.nextafter(-np.pi, 0.0)
    spec = eigendecompose(np.diag(np.exp(1j * np.array([0.5, theta]))))
    assert spec.multiplicities == (1, 1)
    assert spec.eigenphases[0] == pytest.approx(0.5, abs=1e-12)
    assert spec.eigenphases[1] > 3.14
    assert spec.eigenphases[1] == pytest.approx(np.pi, abs=1e-12)


def test_branch_cut_cluster_merges_across_pi():
    eps = 1e-9
    mat = np.diag(np.exp(1j * np.array([np.pi - eps, -np.pi + eps])))
    spec = eigendecompose(mat, cluster_tol=1e-6)
    assert spec.multiplicities == (2,)
    assert spec.eigenphases[0] == pytest.approx(np.pi, abs=1e-6)


def test_reduced_spectrum_matches_characteristic_polynomial():
    # independent oracle: the five phases solve
    # x^5 - a x^3 + a x^2 - 1 = 0 with a the reflection-minus-transmission gap
    n = 100
    _, reduced, _ = hand_reduced(n)
    spec = eigendecompose(reduced)
    a = (n - 2) / n - 2 / n
    roots = np.roots([1, 0, -a, a, 0, -1])
    np.testing.assert_allclose(np.abs(roots), 1.0, atol=1e-9)
    expected = np.sort(np.angle(roots))
    assert spec.multiplicities == (1, 1, 1, 1, 1)
    np.testing.assert_allclose(spec.eigenphases, expected, atol=1e-9)


def test_reduced_spectrum_phase_values():
    _, reduced, _ = hand_reduced(100)
    spec = eigendecompose(reduced)
    over_pi = np.array(spec.eigenphases) / np.pi
    np.testing.assert_allclose(
        over_pi, [-0.9631, -0.3358, 0.0, 0.3358, 0.9631], atol=5e-4)


def reconstruct(spec):
    """Rebuild the matrix from phases and projectors."""
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for theta, block in zip(spec.eigenphases, spec.blocks):
        out += np.exp(1j * theta) * (block @ block.conj().T)
    return out


def test_reconstruct_roundtrip():
    _, reduced, _ = hand_reduced(50)
    spec = eigendecompose(reduced)
    np.testing.assert_allclose(reconstruct(spec), reduced.matrix, atol=1e-10)


def test_power_apply_semigroup_and_identity():
    _, reduced, x0 = hand_reduced(64)
    spec = eigendecompose(reduced)
    np.testing.assert_allclose(power_apply(spec, 0, x0), x0, atol=1e-12)
    once = power_apply(spec, 1, x0)
    np.testing.assert_allclose(once, reduced.matrix @ x0, atol=1e-10)
    np.testing.assert_allclose(
        power_apply(spec, 5, x0),
        power_apply(spec, 2, power_apply(spec, 3, x0)), atol=1e-10)
    direct = np.linalg.matrix_power(reduced.matrix, 9) @ x0
    np.testing.assert_allclose(power_apply(spec, 9, x0), direct, atol=1e-9)


def test_start_state_coefficients_in_hand_basis():
    for n in (100, 400):
        _, _, x0 = hand_reduced(n)
        d = np.sqrt((n - 2) / (2 * n))
        np.testing.assert_allclose(
            x0.real, [n ** -0.5, -(n ** -0.5), d, -d, 0.0], atol=1e-12)
        np.testing.assert_allclose(x0.imag, 0.0, atol=1e-12)


def test_peak_state_concentrates_on_anomaly_directions():
    # after the hitting step the weight sits on the anomaly spokes and the
    # chord, each coefficient near 1/sqrt(3), with the bulk nearly empty
    _, reduced, x0 = hand_reduced(100)
    x = x0.copy()
    for _ in range(14):
        x = reduced.matrix @ x
    s = 3 ** -0.5
    np.testing.assert_allclose(x.real, [s, s, 0.0, 0.0, -s], atol=0.08)
    np.testing.assert_allclose(x.imag, 0.0, atol=1e-10)


def test_sinusoidal_profile_error_shrinks_with_size():
    # closed-form small-angle profile of the reduced evolution; its error
    # halves each time the graph quadruples
    def profile(step, n):
        delta = np.sqrt(4.0 / (3.0 * n))
        s, c = np.sin(step * delta), np.cos(step * delta)
        vec = np.array([s, s, np.sqrt(1.5) * c, -np.sqrt(1.5) * c, -s])
        return ((-1) ** step) * vec / np.sqrt(3)

    errors = []
    for n in (100, 400, 1600):
        _, reduced, x0 = hand_reduced(n)
        x = x0.copy()
        horizon = int(2 * np.pi * np.sqrt(3 * n) / 4)
        worst = 0.0
        for step in range(1, horizon + 1):
            x = reduced.matrix @ x
            worst = max(worst, float(np.abs(x - profile(step, n)).max()))
        errors.append(worst)
    assert errors[0] < 0.12
    assert errors[2] < 0.03
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] / errors[0] == pytest.approx(0.5, abs=0.1)


def test_projectors_resolve_identity():
    _, reduced, _ = hand_reduced(30)
    spec = eigendecompose(reduced)
    total = sum(spec.projector(k) for k in range(len(spec.eigenphases)))
    np.testing.assert_allclose(total, np.eye(5), atol=1e-10)


def test_rejects_non_unitary():
    with pytest.raises(NumericalFailureError):
        eigendecompose(np.diag([2.0, 1.0]).astype(complex))


def test_rejects_defective_matrix():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericalFailureError):
        eigendecompose(jordan)


def test_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        eigendecompose(np.ones((2, 3)))


def test_dense_cap(monkeypatch):
    monkeypatch.setattr(anomalywalk.spectral, "DEFAULT_POLICY",
                        dataclasses.replace(DEFAULT_POLICY, dense_cap=3))
    with pytest.raises(SizeError):
        eigendecompose(np.eye(4))


def test_accepts_step_operator_directly():
    op = build_step_operator(build_star(4, Anomaly.none()))
    spec = eigendecompose(op)
    assert sum(spec.multiplicities) == op.dimension


def test_dump_spectrum_csv(tmp_path):
    _, reduced, _ = hand_reduced(40)
    spec = eigendecompose(reduced)
    path = tmp_path / "spectrum.csv"
    dump_spectrum_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,multiplicity"
    assert len(lines) == 1 + len(spec.eigenphases)
    theta, mult = lines[1].split(",")
    assert float(theta) == pytest.approx(spec.eigenphases[0], abs=1e-10)
    assert int(mult) == spec.multiplicities[0]
