"""Eigenphase decomposition tests, including the reduced-walk spectrum."""

import warnings

import numpy as np
import pytest
from oracle import (
    named_start,
    reduce_columns,
    reference_operators,
    symmetric_in_state,
    symmetric_out_state,
)

import anomalywalk.spectral
from anomalywalk.collapse import reduce_seeds
from anomalywalk.edgespace import BasisLabel, make_basis
from anomalywalk.errors import DimensionMismatchError, NumericalFailureError, SizeError
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.perturb import cluster_tol_at
from anomalywalk.search import InitialStateKind, family_seeds
from anomalywalk.spectral import dump_spectrum_csv, eigendecompose
from anomalywalk.stargraph import Anomaly, build_star
from anomalywalk.stepop import build_step_operator


def hand_reduced(n, u=2, v=5):
    """Reduced walk matrix on the hand-built 5-dim invariant basis, and the
    start state's coefficients on it."""
    graph = build_star(n, Anomaly.extra_edge(u, v))
    basis = make_basis(graph)
    bulk = [j for j in range(1, n + 1) if j not in (u, v)]
    chord = np.zeros(basis.dim, dtype=complex)
    chord[basis.position(BasisLabel.edge(u, v))] = 2 ** -0.5
    chord[basis.position(BasisLabel.edge(v, u))] = 2 ** -0.5
    cols = np.stack([
        symmetric_out_state(basis, (u, v)),
        symmetric_in_state(basis, (u, v)),
        symmetric_out_state(basis, bulk),
        symmetric_in_state(basis, bulk),
        chord,
    ], axis=1)
    reduced, leakage = reduce_columns(build_step_operator(graph), cols)
    assert leakage <= DEFAULT_POLICY.invariance_tol
    x0 = cols.conj().T @ named_start(graph, InitialStateKind.minus())
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
    np.testing.assert_allclose(reconstruct(spec), reduced, atol=1e-10)


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
        x = reduced @ x
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
            x = reduced @ x
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


def test_rejects_ragged_input():
    # a reduced operator passed whole, not its .matrix, and a ragged list
    graph = build_star(10, Anomaly.loop(2))
    reduced = reduce_seeds(build_step_operator(graph),
                           *family_seeds(graph, InitialStateKind.minus()))
    for mat, name in ((reduced, "ReducedOperator"), ([[1.0, 0.0], [0.0]], "list")):
        with pytest.raises(DimensionMismatchError, match=f"got a ragged {name}$"):
            eigendecompose(mat)
    assert eigendecompose(reduced.matrix).dim == reduced.matrix.shape[0]


def test_dense_cap(monkeypatch):
    monkeypatch.setattr(anomalywalk.spectral, "DEFAULT_POLICY",
                        DEFAULT_POLICY._replace(dense_cap=3))
    with pytest.raises(SizeError):
        eigendecompose(np.eye(4))


def test_rank_tol_is_read_from_the_policy(monkeypatch):
    # eigenvalues 1e-10 apart share a cluster whose eigenvectors are 1e-10
    # from parallel: R's second diagonal entry is 1e-10
    nearly_defective = np.array([[1.0, 1.0], [0.0, np.exp(1e-10j)]])
    with pytest.raises(NumericalFailureError, match="rank deficient"):
        eigendecompose(nearly_defective)
    monkeypatch.setattr(anomalywalk.spectral, "DEFAULT_POLICY",
                        DEFAULT_POLICY._replace(rank_tol=1e-12))
    assert eigendecompose(nearly_defective).multiplicities == (2,)
    monkeypatch.setattr(anomalywalk.spectral, "DEFAULT_POLICY",
                        DEFAULT_POLICY._replace(rank_tol=2.0))
    with pytest.raises(NumericalFailureError, match="rank deficient"):
        eigendecompose(np.eye(2))


def qr_projectors(mat, tol):
    """The oracle: each cluster's projector, in eigendecompose's order, from
    a QR of the eigenvectors numpy's eig gives for the cluster."""
    values, vectors = np.linalg.eig(mat)
    thetas = np.angle(values / np.abs(values))
    groups = anomalywalk.spectral._cluster_phases(thetas, tol)
    phases = [anomalywalk.spectral._representative(thetas[g], tol) for g in groups]
    projectors = []
    for k in np.argsort(phases):
        q, _ = np.linalg.qr(vectors[:, groups[k]])
        projectors.append(q @ q.conj().T)
    return projectors


def unitary_with_phases(phases, seed):
    """V diag(e^{i phases}) V* for a random unitary V."""
    rng = np.random.default_rng(seed)
    d = len(phases)
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return v @ np.diag(np.exp(1j * np.asarray(phases))) @ v.conj().T


def test_cluster_projectors_match_a_qr_oracle():
    # every cluster of multiplicity 2 or more: the limit and finite reduced
    # operators of each default anomaly on the closure of the sweep's first
    # seeds, and unitaries with planted repeats
    cases = []
    for anomaly in (Anomaly.none(), Anomaly.extra_edge(1, 2), Anomaly.loop(1),
                    Anomaly.extended_edge(1), Anomaly.missing_loop(1)):
        for n in (64, 4096):
            graph = build_star(n, anomaly)
            finite, limit = reference_operators(graph)
            tol = cluster_tol_at(n)
            cases += [(finite.matrix, tol), (limit.matrix, tol)]
    for seed, phases in enumerate(([0.3, 0.3, -1.0, -1.0, 2.0, np.pi, np.pi, 0.0],
                                   [1.0] * 3 + [-2.5] * 5, [np.pi] * 4 + [-np.pi] * 4)):
        cases.append((unitary_with_phases(phases, seed), DEFAULT_POLICY.cluster_tol))
    compared = 0
    for mat, tol in cases:
        spec = eigendecompose(mat, tol)
        oracle = qr_projectors(mat, tol)
        assert len(oracle) == len(spec.multiplicities)
        for k, mult in enumerate(spec.multiplicities):
            if mult >= 2:
                assert np.abs(spec.projector(k) - oracle[k]).max() <= DEFAULT_POLICY.projector_tol
                compared += 1
    assert compared == 16


def test_rejects_a_diagonalizable_non_normal_matrix():
    # eigenvalues 1, 1 and -1 with a full set of eigenvectors, but the one
    # of -1 is not orthogonal to those of 1: each cluster spans its
    # multiplicity, and the clusters are no orthonormal frame
    s = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    mat = s @ np.diag([1.0, 1.0, -1.0]) @ np.linalg.inv(s)
    with pytest.raises(NumericalFailureError, match="not an orthonormal frame"):
        eigendecompose(mat)


def test_rank_test_refuses_a_nan_cluster_without_a_warning(monkeypatch):
    # an eigenvector with a nan, let past the residual certificate: its
    # residual in the cluster's frame reads nan, and it is refused before
    # anything divides by it
    eig, require_within = np.linalg.eig, anomalywalk.spectral.require_within

    def poisoned(mat):
        values, vectors = eig(mat)
        vectors[0, 1] = np.nan
        return values, vectors

    def past_the_residual(what, *args):
        if not what.startswith("eigenpair residual"):
            require_within(what, *args)
    monkeypatch.setattr(np.linalg, "eig", poisoned)
    monkeypatch.setattr(anomalywalk.spectral, "require_within", past_the_residual)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="rank deficient"):
            eigendecompose(np.eye(3))


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
