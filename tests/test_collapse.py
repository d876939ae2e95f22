"""Invariant-subspace closure and reduction tests."""

import dataclasses

import numpy as np
import pytest

import anomalywalk.collapse
from anomalywalk.collapse import (
    ReducedBasis,
    invariant_basis,
    lift,
    project,
    reduce_operator,
    reduce_seeds,
)
from anomalywalk.edgespace import (
    BasisLabel,
    all_loops_state,
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
)
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.perturb import _limit, build_unperturbed, sweep_seeds
from anomalywalk.search import InitialStateKind, family_seeds, initial_state
from anomalywalk.stargraph import VARIANT_SCHEMA, VARIANTS, Anomaly, PhaseAngle, build_star
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


def reference_closure(op, seeds, policy=DEFAULT_POLICY, cap=200):
    """The closure as first written, in the full dimension: complex columns
    of a (dim x cap) array, projected out one strided column at a time by
    modified Gram-Schmidt with one reorthogonalization pass, then one QR
    whose R diagonal phases are rotated back onto the columns."""
    d = op.dimension
    cols = np.zeros((d, cap), dtype=complex)
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


def dense_closure(op, seeds):
    """Orthonormal columns spanning the closure of the seeds under the dense
    U and U adjoint: the column space is grown by SVD rank until it stops."""
    u = dense_matrix(op)
    cols = np.stack([seed.amplitudes for seed in seeds], axis=1)
    while True:
        left, sv, _ = np.linalg.svd(np.hstack((cols, u @ cols, u.conj().T @ cols)),
                                    full_matrices=False)
        grown = left[:, :int((sv > 1e-9).sum())]
        if grown.shape[1] == cols.shape[1]:
            return grown
        cols = grown


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


DENSE_ANOMALIES = [Anomaly.none()] + [
    Anomaly.of(variant, phase, **dict(zip(VARIANT_SCHEMA[variant].fields, (2, 3))))
    for variant in VARIANTS[1:]
    for phase in (None, PhaseAngle.from_pi_fraction(1, 3), PhaseAngle.from_radians(0.7))]


def seedings(graph, op):
    """The family seeds of every kind the graph admits, those of a random
    complex custom state, and the sweep seeds."""
    rng = np.random.default_rng(graph.n_spokes)
    amps = rng.normal(size=op.dimension) + 1j * rng.normal(size=op.dimension)
    kinds = [InitialStateKind.minus(), InitialStateKind.plus(),
             InitialStateKind.inout(1.0, 0.5j), InitialStateKind.custom(amps)]
    if graph.anomaly.schema.loops:
        kinds += [InitialStateKind.loop_pi(), InitialStateKind.loop_third()]
    return [family_seeds(graph, kind) for kind in kinds] + [sweep_seeds(graph)]


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_cells_close_like_the_dense_walk(n, anomaly):
    # the cell closure against the SVD closure of the dense matrix
    graph = build_star(n, anomaly)
    op = build_step_operator(graph)
    for seeds in seedings(graph, op):
        basis = invariant_basis(op, seeds)
        ref = dense_closure(op, seeds)
        assert basis.dim == ref.shape[1]
        assert projector_gap(basis.matrix, ref) <= 1e-12


def reference_limit(graph, basis):
    """V*U0V + 2(V*bo)(V*bi)* with U0 the reflection walk applied column by
    column and bo, bi the bulk uniforms; None when the basis is not closed
    under U0 or misses a bulk uniform."""
    u0 = build_unperturbed(graph)
    v = basis.matrix
    work = np.empty(basis.full_dim, dtype=complex)
    images = np.stack([apply_into(u0, v[:, k].astype(complex), work).copy()
                       for k in range(basis.dim)], axis=1)
    core = v.conj().T @ images
    bulk = [j for j in range(1, graph.n_spokes + 1) if j not in graph.anomaly_vertices]
    bo = symmetric_out_state(u0.basis, bulk).amplitudes
    bi = symmetric_in_state(u0.basis, bulk).amplitudes
    cbo, cbi = v.conj().T @ bo, v.conj().T @ bi
    leakage = max(np.linalg.norm(images - v @ core, axis=0).max(),
                  np.linalg.norm(bo - v @ cbo), np.linalg.norm(bi - v @ cbi))
    if leakage > DEFAULT_POLICY.invariance_tol:
        return None
    return core + 2.0 * np.outer(cbo, cbi.conj())


ORACLE_SIZES = [*range(3, 13), 16, 256, 4096]


@pytest.mark.parametrize("n", ORACLE_SIZES)
@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_seeds_operator_matches_two_pass_reduction(n, anomaly):
    # the operator from the cells' single pass against U applied again to
    # the lifted basis, and the limit built on it against the reflection
    # walk reduced column by column
    graph = build_star(n, anomaly)
    op = build_step_operator(graph)
    cases = seedings(graph, op)
    for k, seeds in enumerate(cases):
        finite = reduce_seeds(op, seeds)
        again = reduce_operator(op, finite.basis).matrix
        assert np.abs(finite.matrix - again).max() <= 1e-12
        ref = reference_limit(graph, finite.basis)
        if ref is None:
            # only the perturbation runs' own seeds must carry the limit
            assert k < len(cases) - 1
            with pytest.raises(InvarianceError):
                _limit(finite, graph)
        else:
            assert np.abs(_limit(finite, graph).matrix - ref).max() <= 1e-12


def test_truncated_closure_fails_its_certificate(monkeypatch):
    # a coarse closure residual drops a direction the walk reaches; the
    # cells still pass their own pass, and the leakage of the images in
    # cell coordinates is what refuses the result
    graph = build_star(64, Anomaly.missing_loop(3))
    op = build_step_operator(graph)
    coarse = dataclasses.replace(DEFAULT_POLICY, closure_residual=0.5)
    monkeypatch.setattr(anomalywalk.collapse, "DEFAULT_POLICY", coarse)
    with pytest.raises(InvarianceError, match="leakage 1.26"):
        reduce_seeds(op, sweep_seeds(graph))


@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_sweep_seeds_are_the_family_generators_and_anomaly_spoke(anomaly):
    # the seeds as they were listed by hand
    graph = build_star(10, anomaly)
    basis = make_basis(graph)
    hand = [hub_out_state(basis), hub_in_state(basis)]
    if anomaly.schema.loops:
        hand.append(all_loops_state(basis))
    if graph.anomaly_vertices:
        hand.append(symmetric_out_state(basis, graph.anomaly_vertices))
    seeds = sweep_seeds(graph)
    assert len(seeds) == len(hand)
    for seed, ref in zip(seeds, hand):
        np.testing.assert_array_equal(seed.amplitudes, ref.amplitudes)


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
    # the eigenframe check downstream rejects a basis orthonormal only to ~1e-11
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

