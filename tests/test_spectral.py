"""Spectrum tests: the spectrum read from the step's structure, held to
the dense reference eigensolver in the oracle, and that reference's own
tests, including the reduced-walk spectrum."""

import warnings

import numpy as np
import pytest
import oracle
from oracle import (
    cluster_phases,
    cluster_tol_at,
    eigendecompose,
    hand_columns,
    named_kinds,
    named_start,
    projector,
    reduce_columns,
    reduce_seeds,
    reference_operators,
    representative,
    sweep_spectra,
)

from anomalywalk.collapse import cells_operator, star_cells
from anomalywalk.edgespace import make_basis
from anomalywalk.errors import DimensionMismatchError, NumericalFailureError
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.search import InitialStateKind, family_seeds
from anomalywalk.spectral import dump_spectrum_csv, secular_spectrum
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import build_scattering_operator, build_step_operator


def hand_reduced(n, u=2, v=5):
    """Reduced walk matrix on the hand-built 5-dim invariant basis, and the
    start state's coefficients on it."""
    graph = build_star(n, Anomaly.extra_edge(u, v))
    cols = hand_columns(make_basis(graph), u, v)
    reduced, leakage = reduce_columns(build_step_operator(graph), cols)
    assert leakage <= DEFAULT_POLICY.invariance_tol
    x0 = cols.conj().T @ named_start(graph, InitialStateKind.minus())
    return graph, reduced, x0


def test_identity_single_branch():
    spec = eigendecompose(np.eye(4, dtype=complex))
    assert spec.eigenphases == (0.0,)
    assert spec.multiplicities == (4,)
    np.testing.assert_allclose(projector(spec, 0), np.eye(4), atol=1e-12)


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
    np.testing.assert_allclose(np.array(spec.eigenphases) / np.pi,
                               [-0.9631, -0.3358, 0.0, 0.3358, 0.9631], atol=5e-4)


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
    total = sum(projector(spec, k) for k in range(len(spec.eigenphases)))
    np.testing.assert_allclose(total, np.eye(5), atol=1e-10)


# the last is diagonalizable, with eigenvalues 1, 1 and -1, but the
# eigenvector of -1 is not orthogonal to those of 1: each cluster spans
# its multiplicity, and the clusters are no orthonormal frame
NON_NORMAL = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
UNDECOMPOSABLE = {
    "non_unitary": (np.diag([2.0, 1.0]).astype(complex), NumericalFailureError, None),
    "defective": (np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), NumericalFailureError, None),
    "non_square": (np.ones((2, 3)), DimensionMismatchError, None),
    "non_normal": (NON_NORMAL @ np.diag([1.0, 1.0, -1.0]) @ np.linalg.inv(NON_NORMAL),
                   NumericalFailureError, "not an orthonormal frame"),
}


@pytest.mark.parametrize("mat,error,match", UNDECOMPOSABLE.values(), ids=UNDECOMPOSABLE)
def test_rejects_what_it_cannot_decompose(mat, error, match):
    with pytest.raises(error, match=match):
        eigendecompose(mat)


def test_rejects_ragged_input():
    # a closure passed whole, not its .matrix, and a ragged list
    graph = build_star(10, Anomaly.loop(2))
    reduced = reduce_seeds(build_step_operator(graph),
                           *family_seeds(graph, InitialStateKind.minus()))
    for mat, name in ((reduced, "Closure"), ([[1.0, 0.0], [0.0]], "list")):
        with pytest.raises(DimensionMismatchError, match=f"got a ragged {name}$"):
            eigendecompose(mat)
    assert eigendecompose(reduced.matrix).dim == reduced.matrix.shape[0]


def test_rank_tol_is_read_from_the_policy(monkeypatch):
    # the oracle's rank threshold, read when a call runs: eigenvalues 1e-10
    # apart share a cluster whose eigenvectors are 1e-10 from parallel: R's
    # second diagonal entry is 1e-10
    nearly_defective = np.array([[1.0, 1.0], [0.0, np.exp(1e-10j)]])
    with pytest.raises(NumericalFailureError, match="rank deficient"):
        eigendecompose(nearly_defective)
    monkeypatch.setattr(oracle, "RANK_TOL", 1e-12)
    assert eigendecompose(nearly_defective).multiplicities == (2,)
    monkeypatch.setattr(oracle, "RANK_TOL", 2.0)
    with pytest.raises(NumericalFailureError, match="rank deficient"):
        eigendecompose(np.eye(2))


def qr_projectors(mat, tol):
    """The oracle: each cluster's projector, in eigendecompose's order, from
    a QR of the eigenvectors numpy's eig gives for the cluster."""
    values, vectors = np.linalg.eig(mat)
    thetas = np.angle(values / np.abs(values))
    groups = cluster_phases(thetas, tol)
    phases = [representative(thetas[g], tol) for g in groups]
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
        cases.append((unitary_with_phases(phases, seed), oracle.CLUSTER_TOL))
    compared = 0
    for mat, tol in cases:
        spec = eigendecompose(mat, tol)
        reference = qr_projectors(mat, tol)
        assert len(reference) == len(spec.multiplicities)
        for k, mult in enumerate(spec.multiplicities):
            if mult >= 2:
                assert (np.abs(projector(spec, k) - reference[k]).max()
                        <= DEFAULT_POLICY.projector_tol)
                compared += 1
    assert compared == 16


def test_rank_test_refuses_a_nan_cluster_without_a_warning(monkeypatch):
    # an eigenvector with a nan, let past the residual certificate: its
    # residual in the cluster's frame reads nan, and it is refused before
    # anything divides by it
    eig, require_within = np.linalg.eig, oracle.require_within

    def poisoned(mat):
        values, vectors = eig(mat)
        vectors[0, 1] = np.nan
        return values, vectors

    def past_the_residual(what, *args):
        if not what.startswith("eigenpair residual"):
            require_within(what, *args)
    monkeypatch.setattr(np.linalg, "eig", poisoned)
    monkeypatch.setattr(oracle, "require_within", past_the_residual)
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


# every variant, the marked ones at each phase, and the sizes the
# certificates are held at, up to the largest star accepted
STEP_CASES = [Anomaly.none(), Anomaly.extra_edge(1, 2), Anomaly.loop(1)] + [
    Anomaly.of(variant, phase, at=1) for variant in ("extended_edge", "missing_loop")
    for phase in (PhaseAngle.zero(), PhaseAngle.from_pi_fraction(1, 3),
                  PhaseAngle.from_pi_fraction(1, 2), PhaseAngle.from_radians(0.7),
                  PhaseAngle.pi())]
CERTIFIED_SIZES = (4, 64, 4096, 10**6, 10**7, 2**30, 2**39, 2**40)
ORACLE_SIZES = (4, 64, 4096, 10**6, 10**7)


def step_parts(graph):
    """The cells, the reflection walk Q on them and the uniform incoming state i."""
    cells = star_cells(make_basis(graph))
    q = cells_operator(build_scattering_operator(graph, 1.0, 0.0), cells)
    return cells, np.array(q), np.array(cells.uniform(1))


def certificates(spec, q, i):
    """The largest eigenpair residual of M = Q(I - 2|i><i|) and the blocks'
    deviation from an orthonormal frame."""
    m = q @ (np.eye(len(q)) - 2.0 * np.outer(i, np.conj(i)))
    stacked = np.concatenate(spec.blocks, axis=1)
    values = np.concatenate([np.full(m, np.exp(1j * theta))
                             for theta, m in zip(spec.eigenphases, spec.multiplicities)])
    residual = np.linalg.norm(m @ stacked - stacked * values, axis=0).max()
    frame = np.abs(stacked.conj().T @ stacked - np.eye(stacked.shape[1])).max()
    return residual, frame


@pytest.mark.parametrize("anomaly", STEP_CASES, ids=repr)
def test_the_step_is_the_reflection_walk_times_one_reflection(anomaly):
    for n in (4, 64, 10**6, 2**40):
        graph = build_star(n, anomaly)
        cells, q, i = step_parts(graph)
        step = np.array(cells_operator(build_step_operator(graph), cells))
        assert np.abs(step - q @ (np.eye(len(q)) - 2.0 * np.outer(i, i.conj()))).max() <= 1e-15


@pytest.mark.parametrize("anomaly", STEP_CASES, ids=repr)
def test_certificates_hold_at_every_size(anomaly):
    # the whole spectrum on the cells, and the sweep's pair in its sector
    for n in CERTIFIED_SIZES:
        graph = build_star(n, anomaly)
        cells, q, i = step_parts(graph)
        spec = secular_spectrum(q, i, len(cells.blocks))
        assert sum(spec.multiplicities) == spec.dim == len(q)
        residual, frame = certificates(spec, q, i)
        assert residual <= DEFAULT_POLICY.eig_residual_tol
        assert frame <= DEFAULT_POLICY.projector_tol
        for _, part in sweep_spectra(graph):
            assert sum(part.multiplicities) == part.dim
            stacked = np.concatenate(part.blocks, axis=1)
            assert (np.abs(stacked.conj().T @ stacked - np.eye(part.dim)).max()
                    <= DEFAULT_POLICY.projector_tol)


@pytest.mark.parametrize("anomaly", STEP_CASES, ids=repr)
def test_phases_match_the_dense_oracle(anomaly):
    # the whole spectrum against numpy's eig of M, clustered as a sweep at
    # N clusters, and each named family's against the closure of its seeds
    for n in ORACLE_SIZES:
        graph = build_star(n, anomaly)
        cells, q, i = step_parts(graph)
        got = secular_spectrum(q, i, len(cells.blocks))
        want = eigendecompose(cells_operator(build_step_operator(graph), cells), cluster_tol_at(n))
        assert got.multiplicities == want.multiplicities
        assert np.abs(np.subtract(got.eigenphases, want.eigenphases)).max() <= 1e-12
        if not graph.anomaly_vertices:
            continue
        for kind in named_kinds(graph):
            cells, seeds = family_seeds(graph, kind)
            got = secular_spectrum(q, i, len(cells.blocks), family=seeds)
            closure = reduce_seeds(build_step_operator(graph), cells, seeds)
            want = eigendecompose(closure.matrix, cluster_tol_at(n))
            assert got.multiplicities == want.multiplicities, kind
            assert np.abs(np.subtract(got.eigenphases, want.eigenphases)).max() <= 1e-12


@pytest.mark.parametrize("n", [10, 1000, 10**6])
def test_a_root_on_an_empty_pole_is_one_branch(n):
    # missing_loop marked by 0: Q is real, so a root lies exactly at 0, on
    # the dummy loop's empty pole, which loop_pi's third seed reaches
    graph = build_star(n, Anomaly.missing_loop(1, PhaseAngle.zero()))
    cells, seeds = family_seeds(graph, InitialStateKind.loop_pi())
    _, q, i = step_parts(graph)
    spec = secular_spectrum(q, i, len(cells.blocks), family=seeds)
    at_zero = [k for k, theta in enumerate(spec.eigenphases) if abs(theta) <= 2e-16]
    assert [spec.multiplicities[k] for k in at_zero] == [2]


def test_a_simple_branch_at_the_largest_size_is_its_own_branch():
    # at N = 2^40 the loop's branches at +-pi/3 move by about 1e-12, and
    # nothing merges them with another phase
    graph = build_star(2**40, Anomaly.loop(1))
    cells, seeds = family_seeds(graph, InitialStateKind.minus())
    _, q, i = step_parts(graph)
    spec = secular_spectrum(q, i, len(cells.blocks), family=seeds)
    assert spec.multiplicities == (1,) * 5
    shifts = sorted(abs(abs(theta) - np.pi / 3) for theta in spec.eigenphases)[:2]
    assert 0 < shifts[0] <= shifts[1] < 1e-11


def test_the_reflection_walk_must_be_a_generalised_permutation():
    with pytest.raises(NumericalFailureError, match="not a generalised permutation"):
        secular_spectrum(np.ones((2, 2)), [1.0, 0.0], 1)
    with pytest.raises(NumericalFailureError, match="not a permutation"):
        secular_spectrum(np.array([[1.0, 1.0], [0.0, 0.0]]), [1.0, 0.0], 1)
    with pytest.raises(DimensionMismatchError):
        secular_spectrum(np.eye(2), [1.0, 0.0, 0.0], 1)
