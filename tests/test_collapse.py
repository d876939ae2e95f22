"""Invariant-subspace closure and reduction tests."""

import numpy as np
import pytest

from anomalywalk.collapse import (
    ReducedBasis,
    invariant_basis,
    lift,
    project,
    reduce_operator,
)
from anomalywalk.edgespace import (
    BasisLabel,
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
    InvarianceError,
    SubspaceTooLargeError,
)
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.perturb import sweep_seeds
from anomalywalk.search import InitialStateKind, family_seeds, initial_state
from anomalywalk.stargraph import Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import (
    apply_adjoint_into,
    apply_into,
    build_step_operator,
    dense_matrix,
)


def basis_vector(basis, label):
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.position(label)] = 1.0
    return make_state(amps)


def family_basis(graph, kind=None):
    op = build_step_operator(graph)
    kind = kind or InitialStateKind.minus()
    return op, invariant_basis(op, family_seeds(graph, kind))


def reference_closure(op, seeds, policy=DEFAULT_POLICY):
    """The closure as first written: complex columns of a (dim x capacity)
    array, projected out one strided column at a time by modified
    Gram-Schmidt with one reorthogonalization pass, then one QR whose R
    diagonal phases are rotated back onto the columns."""
    d = op.dimension
    cols = np.zeros((d, policy.closure_cap), dtype=complex)
    count = 0

    def absorb(vec):
        nonlocal count
        for _ in range(2):
            for k in range(count):
                q = cols[:, k]
                vec -= (q.conj() @ vec) * q
        res = np.linalg.norm(vec)
        if res > policy.closure_residual:
            cols[:, count] = vec / res
            count += 1

    for seed in seeds:
        absorb(seed.amplitudes.astype(complex))
    work = np.empty(d, dtype=complex)
    head = 0
    while head < count:
        src = cols[:, head].copy()
        absorb(apply_into(op, src, work).copy())
        absorb(apply_adjoint_into(op, src, work).copy())
        head += 1
    q, r = np.linalg.qr(cols[:, :count])
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector_gap(a, b):
    """||P_a - P_b|| in the 2-norm for orthonormal columns of equal count,
    computed as ||(1 - P_b) a|| so that no d x d matrix is formed."""
    return np.linalg.norm(a - b @ (b.conj().T @ a), 2)


ORACLE_CASES = [
    (Anomaly.none(), InitialStateKind.minus()),
    (Anomaly.extra_edge(2, 5), InitialStateKind.minus()),
    (Anomaly.loop(3), InitialStateKind.minus()),
    (Anomaly.loop(3, PhaseAngle.from_radians(0.7)), InitialStateKind.minus()),
    (Anomaly.extended_edge(3), InitialStateKind.minus()),
    (Anomaly.missing_loop(3), InitialStateKind.loop_pi()),
    (Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 3)),
     InitialStateKind.loop_third()),
]


@pytest.mark.parametrize("n", [16, 256, 4096])
@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("seeding", ["family", "sweep"])
def test_closure_matches_strided_reference(n, case, seeding):
    anomaly, kind = case
    graph = build_star(n, anomaly)
    op = build_step_operator(graph)
    seeds = family_seeds(graph, kind) if seeding == "family" else sweep_seeds(graph)
    basis = invariant_basis(op, seeds)
    ref = reference_closure(op, seeds)
    assert basis.dim == ref.shape[1]
    assert basis.matrix.dtype == (np.float64 if op.is_real else np.complex128)
    assert projector_gap(basis.matrix, ref) <= 1e-12
    gram = basis.matrix.conj().T @ basis.matrix
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


@pytest.mark.parametrize("anomaly", [Anomaly.none(), Anomaly.extra_edge(2, 5),
                                     Anomaly.loop(3)])
def test_complex_seed_takes_complex_path(anomaly):
    # a seed with an imaginary part forces complex arithmetic; it spans the
    # same complex subspace as the real seeds, so the projectors agree
    graph = build_star(256, anomaly)
    op = build_step_operator(graph)
    seeds = sweep_seeds(graph)
    real = invariant_basis(op, seeds)
    turned = [make_state(1j * seeds[0].amplitudes)] + seeds[1:]
    cplx = invariant_basis(op, turned)
    assert real.matrix.dtype == np.float64
    assert cplx.matrix.dtype == np.complex128
    assert cplx.dim == real.dim
    assert projector_gap(cplx.matrix, real.matrix) <= 1e-12
    spec_real = np.sort(np.angle(np.linalg.eigvals(reduce_operator(op, real).matrix)))
    spec_cplx = np.sort(np.angle(np.linalg.eigvals(reduce_operator(op, cplx).matrix)))
    np.testing.assert_allclose(spec_cplx, spec_real, atol=1e-12)


def test_plain_star_family_closes_at_two():
    # U swaps the two uniform superpositions, so the family space is a plane
    op, basis = family_basis(build_star(20, Anomaly.none()))
    assert basis.dim == 2
    reduced = reduce_operator(op, basis).matrix
    np.testing.assert_allclose(np.abs(reduced), [[0, 1], [1, 0]], atol=1e-14)


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("case", [
    (Anomaly.extra_edge(2, 5), InitialStateKind.minus(), 5),
    (Anomaly.loop(3), InitialStateKind.minus(), 5),
    (Anomaly.extended_edge(3), InitialStateKind.minus(), 4),
    (Anomaly.missing_loop(3), InitialStateKind.loop_pi(), 6),
    (Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 3)),
     InitialStateKind.loop_third(), 6),
])
def test_family_closure_dim_is_size_independent(n, case):
    anomaly, kind, expected = case
    _, basis = family_basis(build_star(n, anomaly), kind)
    assert basis.dim == expected


def test_single_seed_orbit_is_smaller_than_family():
    # the start state alone misses the stationary direction; seeding with
    # the family generators is what yields the full five dimensions
    graph = build_star(100, Anomaly.extra_edge(2, 5))
    op = build_step_operator(graph)
    alone = invariant_basis(op, [initial_state(graph, InitialStateKind.minus())])
    assert alone.dim == 4
    family = invariant_basis(op, family_seeds(graph, InitialStateKind.minus()))
    assert family.dim == 5
    # the missing direction is a fixed vector of the step
    u = dense_matrix(op)
    p_alone = alone.matrix @ alone.matrix.conj().T
    p_family = family.matrix @ family.matrix.conj().T
    extra = p_family - p_alone
    vals, vecs = np.linalg.eigh(extra)
    fixed = vecs[:, np.argmax(vals)]
    np.testing.assert_allclose(u @ fixed, fixed, atol=1e-10)


def test_orbit_matches_dense_rank_brute_force():
    # independent oracle: grow the orbit with the dense matrix and SVD rank
    graph = build_star(3, Anomaly.none())
    op = build_step_operator(graph)
    u = dense_matrix(op)
    seed = np.zeros(6, dtype=complex)
    seed[2] = 1.0  # the 0->3 state
    stack = [seed]
    rank = 1
    while True:
        images = [u @ w for w in stack] + [u.conj().T @ w for w in stack]
        m = np.stack(stack + images, axis=1)
        new_rank = np.linalg.matrix_rank(m, tol=1e-10)
        if new_rank == rank:
            break
        q = np.linalg.svd(m, full_matrices=False)[0][:, :new_rank]
        stack = [q[:, i] for i in range(new_rank)]
        rank = new_rank
    basis = invariant_basis(op, [basis_vector(op.basis, BasisLabel.edge(0, 3))])
    assert basis.dim == rank == 4


def test_reduced_matrix_golden_extra_edge():
    # hand-built invariant basis: anomaly spokes out/in, bulk out/in, chord
    n = 10
    graph = build_star(n, Anomaly.extra_edge(2, 5))
    basis = make_basis(graph)
    bulk = [j for j in range(1, n + 1) if j not in (2, 5)]
    chord = np.zeros(basis.dim, dtype=complex)
    chord[basis.position(BasisLabel.edge(2, 5))] = 2 ** -0.5
    chord[basis.position(BasisLabel.edge(5, 2))] = 2 ** -0.5
    cols = np.stack([
        symmetric_out_state(basis, (2, 5)).amplitudes,
        symmetric_in_state(basis, (2, 5)).amplitudes,
        symmetric_out_state(basis, bulk).amplitudes,
        symmetric_in_state(basis, bulk).amplitudes,
        chord,
    ], axis=1)
    op = build_step_operator(graph)
    reduced = reduce_operator(op, ReducedBasis(cols)).matrix
    r, t = (n - 2) / n, 2 / n
    a = r - t
    b = 2 * (r * t) ** 0.5
    expected = np.zeros((5, 5))
    expected[4, 0] = 1.0
    expected[0, 1] = -a
    expected[2, 1] = b
    expected[3, 2] = 1.0
    expected[0, 3] = b
    expected[2, 3] = a
    expected[1, 4] = 1.0
    np.testing.assert_allclose(reduced, expected, atol=1e-12)


def test_family_closure_spans_hand_basis():
    # the automatic closure and the hand construction give the same projector
    n = 12
    graph = build_star(n, Anomaly.extra_edge(3, 7))
    basis = make_basis(graph)
    bulk = [j for j in range(1, n + 1) if j not in (3, 7)]
    chord = np.zeros(basis.dim, dtype=complex)
    chord[basis.position(BasisLabel.edge(3, 7))] = 2 ** -0.5
    chord[basis.position(BasisLabel.edge(7, 3))] = 2 ** -0.5
    hand = np.stack([
        symmetric_out_state(basis, (3, 7)).amplitudes,
        symmetric_in_state(basis, (3, 7)).amplitudes,
        symmetric_out_state(basis, bulk).amplitudes,
        symmetric_in_state(basis, bulk).amplitudes,
        chord,
    ], axis=1)
    op, auto = family_basis(graph)
    p_hand = hand @ hand.conj().T
    p_auto = auto.matrix @ auto.matrix.conj().T
    np.testing.assert_allclose(p_auto, p_hand, atol=1e-10)


def test_reduction_agrees_with_dense_conjugation():
    graph = build_star(9, Anomaly.loop(4))
    op, basis = family_basis(graph)
    reduced = reduce_operator(op, basis)
    u = dense_matrix(op)
    v = basis.matrix
    np.testing.assert_allclose(reduced.matrix, v.conj().T @ u @ v, atol=1e-13)
    gram = reduced.matrix.conj().T @ reduced.matrix
    np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-12)


def test_basis_columns_orthonormal():
    _, basis = family_basis(build_star(30, Anomaly.extra_edge(1, 30)))
    assert basis.matrix.shape == (basis.full_dim, basis.dim)
    gram = basis.matrix.conj().T @ basis.matrix
    np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-12)
    for k in range(basis.dim):
        assert basis.matrix[:, k].flags.c_contiguous


def test_million_spoke_closure_is_orthonormal():
    # Gram-Schmidt alone leaves ~1e-11 here, which the eigenframe check rejects
    _, basis = family_basis(build_star(10 ** 6, Anomaly.loop(1)))
    gram = basis.matrix.conj().T @ basis.matrix
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


def test_project_lift_roundtrip():
    graph = build_star(15, Anomaly.loop(6))
    op, basis = family_basis(graph)
    x = initial_state(graph, InitialStateKind.minus())
    coeffs = project(x, basis)
    assert coeffs.shape == (basis.dim,)
    back = lift(coeffs, basis)
    np.testing.assert_allclose(back.amplitudes, x.amplitudes, atol=1e-12)


def test_project_drops_component_outside_span():
    graph = build_star(15, Anomaly.loop(6))
    op, basis = family_basis(graph)
    outside = basis_vector(op.basis, BasisLabel.edge(0, 1))
    coeffs = project(outside, basis)
    assert np.linalg.norm(coeffs) < 1.0  # strictly shrinks


def test_empty_seed_list_rejected():
    op = build_step_operator(build_star(5, Anomaly.none()))
    with pytest.raises(ConfigurationError):
        invariant_basis(op, [])


def test_seed_dimension_mismatch():
    op = build_step_operator(build_star(5, Anomaly.none()))
    wrong = make_state(np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        invariant_basis(op, [wrong])


def test_closure_cap():
    graph = build_star(6, Anomaly.none())
    op = build_step_operator(graph)
    seed = basis_vector(op.basis, BasisLabel.edge(0, 1))
    tight = DEFAULT_POLICY.with_overrides(closure_cap=2)
    with pytest.raises(SubspaceTooLargeError):
        invariant_basis(op, [seed], tight)


def test_reduce_rejects_non_invariant_basis():
    graph = build_star(6, Anomaly.none())
    op = build_step_operator(graph)
    single = basis_vector(op.basis, BasisLabel.edge(0, 1))
    lonely = ReducedBasis(single.amplitudes.reshape(-1, 1))
    with pytest.raises(InvarianceError):
        reduce_operator(op, lonely)


def test_reduce_dimension_mismatch():
    op5 = build_step_operator(build_star(5, Anomaly.none()))
    op6 = build_step_operator(build_star(6, Anomaly.none()))
    basis = invariant_basis(op6, [hub_out_state(op6.basis), hub_in_state(op6.basis)])
    with pytest.raises(DimensionMismatchError):
        reduce_operator(op5, basis)


def test_lift_length_check():
    _, basis = family_basis(build_star(8, Anomaly.loop(2)))
    with pytest.raises(DimensionMismatchError):
        lift(np.zeros(basis.dim + 1), basis)

