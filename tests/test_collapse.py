"""The star's cells and the step on them, against the oracle's closure
and reduction."""

import tracemalloc

import numpy as np
import pytest
import oracle
from oracle import (
    all_loops_state,
    decompose,
    dense_closure,
    dense_matrix,
    eigendecompose,
    explicit_reduced_records,
    hand_columns,
    hub_in_state,
    hub_out_state,
    lift,
    lifted,
    make_state,
    named_kinds,
    named_start,
    held,
    place,
    projector,
    projector_gap,
    reduce_columns,
    reduce_operator,
    reduce_seeds,
    reduce_states,
    reference_closure,
    reference_limit,
    search_rows,
    seed_vectors,
    sweep_seeds,
    sweep_spectra,
    symmetric_out_state,
)

from anomalywalk.collapse import ReducedBasis, cells_operator, star_cells
from anomalywalk.edgespace import BasisLabel, make_basis
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvarianceError,
    NumericalFailureError,
)
from anomalywalk.numerics import DEFAULT_POLICY
from anomalywalk.search import (
    InitialStateKind,
    family_seeds,
    run_search,
)
from anomalywalk.spectral import secular_spectrum
from anomalywalk.stargraph import VARIANT_SCHEMA, VARIANTS, Anomaly, PhaseAngle, build_star
from anomalywalk.stepop import build_scattering_operator, build_step_operator


def basis_vector(basis, label):
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.position(label)] = 1.0
    return make_state(amps)


def family_basis(graph, kind=None):
    op = build_step_operator(graph)
    kind = kind or InitialStateKind.minus()
    return op, reduce_seeds(op, *family_seeds(graph, kind)).basis


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
    basis = reduce_seeds(op, *seeds).basis
    ref = reference_closure(op, seed_vectors(*seeds))
    assert basis.dim == ref.shape[1]
    assert basis.coords.dtype == np.complex128
    v = lifted(basis)
    assert projector_gap(v, ref) <= 1e-12
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


DENSE_ANOMALIES = [Anomaly.none()] + [
    Anomaly.of(variant, phase, **dict(zip(VARIANT_SCHEMA[variant].fields, (2, 3))))
    for variant in VARIANTS[1:]
    for phase in (None, PhaseAngle.from_pi_fraction(1, 3), PhaseAngle.from_radians(0.7))]


def seedings(graph):
    """The cells and seed rows of every kind the graph admits, and of the
    perturbation sweep as first written."""
    return [family_seeds(graph, kind) for kind in named_kinds(graph)] + [sweep_seeds(graph)]


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_cells_close_like_the_dense_walk(n, anomaly):
    # the cell closure against the SVD closure of the dense matrix
    graph = build_star(n, anomaly)
    op = build_step_operator(graph)
    for seeds in seedings(graph):
        basis = reduce_seeds(op, *seeds).basis
        ref = dense_closure(op, seed_vectors(*seeds))
        assert basis.dim == ref.shape[1]
        assert projector_gap(lifted(basis), ref) <= 1e-12


ORACLE_SIZES = [*range(3, 13), 16, 256, 4096]


@pytest.mark.parametrize("n", ORACLE_SIZES)
@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_seeds_operator_matches_two_pass_reduction(n, anomaly):
    # the operator from the cells' single pass against U applied again to
    # the lifted basis column by column and to the basis on its cells; the
    # perturbation sweep's step and limit on its own basis against the same,
    # the limit's reflection walk reduced column by column
    graph = build_star(n, anomaly)
    op = build_step_operator(graph)
    for seeds in seedings(graph):
        finite = reduce_seeds(op, *seeds)
        again, leakage = reduce_columns(op, lifted(finite.basis))
        assert leakage <= DEFAULT_POLICY.invariance_tol
        assert np.abs(finite.matrix - again).max() <= 1e-12
        again = reduce_operator(op, finite.basis).matrix
        assert np.abs(finite.matrix - again).max() <= 1e-12
    # the sweep's sector: the cells, and on extra_edge its unit cells'
    # adjacent pairs symmetrised
    cells = star_cells(op.basis)
    sector = cell = np.eye(cells.dim, dtype=complex)
    k = len(cells.blocks)
    if anomaly.variant == "extra_edge":
        sector = np.vstack((cell[:k], (cell[k::2] + cell[k + 1::2]) / np.sqrt(2)))
    basis = held(cells, sector)
    for (_, spec), want in zip(sweep_spectra(graph), (reference_limit(graph, basis),
                                                     reduce_operator(op, basis).matrix)):
        got = sum(np.exp(1j * theta) * projector(spec, j)
                  for j, theta in enumerate(spec.eigenphases))
        assert np.abs(got - want).max() <= 1e-12


WALK_PHASES = [PhaseAngle.zero(), PhaseAngle.pi(), PhaseAngle.from_pi_fraction(1, 3),
               PhaseAngle.from_radians(0.7)]


@pytest.mark.parametrize("n", [*range(3, 13), 64, 4096])
@pytest.mark.parametrize("phase", WALK_PHASES, ids=["0", "pi", "pi_3", "0.7rad"])
def test_cells_operator_matches_the_stepped_oracles(n, phase):
    # M read from the role table against C*UC of the dense U on the lifted
    # cells, and at larger N against the oracle that steps each cell;
    # every variant at both ends of the star, the cells of every named
    # kind and of the sweep seeds.  M holds Python complexes, on a real
    # operator too
    anomalies = [Anomaly.none()] + [
        Anomaly.of(variant, phase, **dict(zip(VARIANT_SCHEMA[variant].fields, ends)))
        for variant in VARIANTS[1:] for ends in ((1, n), (3, 2))]
    for anomaly in anomalies:
        graph = build_star(n, anomaly)
        op = build_step_operator(graph)
        for cells, _ in seedings(graph):
            if n <= 12:
                c = lifted(cells)
                want = c.conj().T @ dense_matrix(op) @ c
            else:
                want = reduce_operator(op, cells).matrix
            m = cells_operator(op, cells)
            assert {type(x) for row in m for x in row} == {complex}
            assert np.abs(m - want).max() <= 1e-12, anomaly


def wrapped(angles):
    """Angles folded into (-pi, pi], so that -pi and pi are one phase."""
    return np.angle(np.exp(1j * np.asarray(angles)))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 256, 4096])
@pytest.mark.parametrize("phase", WALK_PHASES, ids=["0", "pi", "pi_3", "0.7rad"])
def test_implicit_uniform_profile_matches_the_explicit_row(n, phase):
    # the uniform bulk profile held in closed form against the explicit row
    # of length N that the oracle builds, for every variant and every
    # seeding: the cells' M against C*UC, the closure's matrix and its
    # eigenphases against V*UV, the rows of V against its columns lifted
    # block by block, and the reduced search's columns against the walk
    # stepped on V*UV from V*x0
    anomalies = [Anomaly.none()] + [
        Anomaly.of(variant, phase, **dict(zip(VARIANT_SCHEMA[variant].fields, (2, 3))))
        for variant in VARIANTS[1:]]
    for anomaly in anomalies:
        graph = build_star(n, anomaly)
        op = build_step_operator(graph)
        for cells, rows in seedings(graph):
            want = reduce_operator(op, cells).matrix
            assert np.abs(cells_operator(op, cells) - want).max() <= 1e-12, anomaly
            finite = reduce_seeds(op, cells, rows)
            want = reduce_operator(op, finite.basis).matrix
            assert np.abs(finite.matrix - want).max() <= 1e-12, anomaly
            got, ref = eigendecompose(finite.matrix), eigendecompose(want)
            assert got.multiplicities == ref.multiplicities
            assert np.abs(wrapped(np.subtract(got.eigenphases, ref.eigenphases))).max() <= 1e-12
            columns = np.stack([lift(finite.basis, e) for e in np.eye(finite.dim)], axis=1)
            assert np.abs(lifted(finite.basis) - columns).max() <= 1e-15
        if not graph.anomaly_vertices:
            continue  # a plain star has nothing to search for
        target_rows, anomaly_rows = search_rows(graph)
        for kind in named_kinds(graph):
            cells, _ = family_seeds(graph, kind)
            want = explicit_reduced_records(op, cells, named_start(graph, kind), 40, target_rows,
                                            anomaly_rows)
            got = run_search(graph, kind, 40, method="reduced")
            for column, ref in zip((got.p_target_spokes, got.p_anomaly, got.p_rest), want):
                assert np.abs(column - ref).max() <= 1e-12, (anomaly, kind.variant)


def test_cells_operator_refuses_moves_off_the_cells():
    graph = build_star(8, Anomaly.loop(3))
    op = build_step_operator(graph)
    cells, _ = family_seeds(graph, InitialStateKind.minus())
    pos = op.basis.position
    edge, loop = BasisLabel.edge, BasisLabel.loop
    # the loop exits onto spoke 5's incoming row and (0,5) enters (3,0): the
    # rows still tile, but the loop's unit lands on a bulk row
    locate = op.basis.locate
    rerouted = op._replace(
        src=locate([pos(edge(0, 3)), pos(loop(3)), pos(edge(0, 5))]),
        dst=locate([pos(loop(3)), pos(edge(5, 0)), pos(edge(3, 0))]),
        amp=np.ones(3, dtype=complex))
    with pytest.raises(NumericalFailureError, match="not a unit"):
        cells_operator(rerouted, cells)
    # cells without the unit of (3,0): the relabelled (0,3) lands on no cell
    short = cells._replace(units=tuple(u for u in cells.units if u != pos(edge(3, 0))))
    with pytest.raises(NumericalFailureError, match="no cell"):
        cells_operator(op, short)


def test_truncated_closure_fails_its_certificate(monkeypatch):
    # a coarse closure residual drops a direction the walk reaches; the
    # cells' operator is read from the role table whatever the residual, and
    # the leakage of the images in cell coordinates is what refuses the
    # result
    graph = build_star(64, Anomaly.missing_loop(3))
    op = build_step_operator(graph)
    monkeypatch.setattr(oracle, "CLOSURE_RESIDUAL", 0.5)
    with pytest.raises(InvarianceError, match="leakage 1.26"):
        reduce_seeds(op, *sweep_seeds(graph))


@pytest.mark.parametrize("anomaly,kind", [
    (Anomaly.loop(3), InitialStateKind.minus()),
    (Anomaly.extra_edge(2, 5), InitialStateKind.minus()),
    (Anomaly.missing_loop(3, PhaseAngle.from_pi_fraction(1, 3)), InitialStateKind.loop_third()),
])
def test_the_family_spectrum_allocates_nothing_of_length_n(anomaly, kind):
    # the seeds are rows on the cells, the cells' operator is read from the
    # role table and the uniform bulk profile is held in closed form, so the
    # family's spectrum, as the spectrum verb reads it, allocates nothing of
    # length N, where one complex128 vector of the full dimension would be
    # 6.4 MB
    graph = build_star(200_000, anomaly)
    tracemalloc.start()
    try:
        cells, seeds = family_seeds(graph, kind)
        q = cells_operator(build_scattering_operator(graph, 1.0, 0.0), cells)
        secular_spectrum(q, cells.uniform(1), len(cells.blocks), family=seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 10


@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_sweep_seeds_are_the_family_generators_and_anomaly_spoke(anomaly):
    # the rows on the cells, lifted, against the full-length generators as
    # they were first built: the family's uniform states, then the
    # symmetric out state of the anomaly vertices, which the references'
    # sweep seeds place on cells
    graph = build_star(10, anomaly)
    basis = make_basis(graph)
    kind = InitialStateKind.loop_pi() if anomaly.schema.loops else InitialStateKind.minus()
    family = [hub_out_state(basis), hub_in_state(basis)]
    if anomaly.schema.loops:
        family.append(all_loops_state(basis))
    sweep = family[:]
    if graph.anomaly_vertices:
        sweep.append(symmetric_out_state(basis, graph.anomaly_vertices))
    for seeds, hand in ((family_seeds(graph, kind), family), (sweep_seeds(graph), sweep)):
        lifted_rows = seed_vectors(*seeds)
        assert len(lifted_rows) == len(hand)
        for seed, ref in zip(lifted_rows, hand):
            assert np.abs(seed - ref).max() <= 1e-15


@pytest.mark.parametrize("anomaly", DENSE_ANOMALIES)
def test_place_holds_the_vectors_and_refuses_a_dropped_block_part(anomaly):
    # the references' placement of seeds uniform on the bulk: a random such
    # vector's rows on the star's cells lift back to it; a block part within
    # the closure residual of the uniform profile, real or complex, is off
    # the cells, and its leakage is refused
    graph = build_star(10, anomaly)
    basis = make_basis(graph)
    v = lifted(star_cells(basis)).real
    rng = np.random.default_rng(7)
    for x in (v @ rng.normal(size=v.shape[1]), v @ rng.normal(size=v.shape[1]) * 1j):
        cells, rows = place(basis, [x])
        assert rows.dtype == np.complex128
        assert np.abs(lift(cells, rows[0]) - x).max() <= 1e-14
    near = hub_out_state(basis).copy()
    bulk = [j for j in range(1, 11) if j not in graph.anomaly_vertices]
    near[basis.out_rows(bulk[:2])] += (5e-9, -5e-9)
    for x in (near, near * np.exp(0.3j)):
        with pytest.raises(InvarianceError, match="leakage 7.07"):
            place(basis, [x])


@pytest.mark.parametrize("anomaly", [Anomaly.none(), Anomaly.extra_edge(2, 5),
                                     Anomaly.loop(3)])
def test_complex_seed_takes_complex_path(anomaly):
    # a seed with an imaginary part takes the complex path every seed
    # takes; it spans the same complex subspace as the real seeds, so the
    # projectors agree
    graph = build_star(256, anomaly)
    op = build_step_operator(graph)
    cells, rows = sweep_seeds(graph)
    real = reduce_seeds(op, cells, rows).basis
    turned = rows.astype(complex)
    turned[0] *= 1j
    cplx = reduce_seeds(op, cells, turned).basis
    assert real.coords.dtype == cplx.coords.dtype == np.complex128
    assert cplx.dim == real.dim
    assert projector_gap(lifted(cplx), lifted(real)) <= 1e-12
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
    cells, rows = family_seeds(graph, InitialStateKind.minus())
    alone = lifted(reduce_seeds(op, cells, [np.subtract(rows[0], rows[1])]).basis)
    assert alone.shape[1] == 4
    family = lifted(reduce_seeds(op, cells, rows).basis)
    assert family.shape[1] == 5
    # the missing direction is a fixed vector of the step
    u = dense_matrix(op)
    p_alone = alone @ alone.conj().T
    p_family = family @ family.conj().T
    extra = p_family - p_alone
    vals, vecs = np.linalg.eigh(extra)
    fixed = vecs[:, np.argmax(vals)]
    np.testing.assert_allclose(u @ fixed, fixed, atol=1e-10)


def test_orbit_matches_dense_rank_brute_force():
    # independent oracle: grow the orbit of one family seed, the uniform
    # out state, with the dense matrix and SVD rank
    graph = build_star(3, Anomaly.loop(2))
    op = build_step_operator(graph)
    u = dense_matrix(op)
    cells, rows = family_seeds(graph, InitialStateKind.minus())
    stack = seed_vectors(cells, rows[:1])
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
    basis = reduce_seeds(op, cells, rows[:1]).basis
    assert basis.dim == rank == 5


def test_reduced_matrix_golden_extra_edge():
    # hand-built invariant basis: anomaly spokes out/in, bulk out/in, chord;
    # the walk reduced on it column by column, and the closure's operator
    # conjugated into it
    n = 10
    graph = build_star(n, Anomaly.extra_edge(2, 5))
    cols = hand_columns(make_basis(graph), 2, 5)
    op = build_step_operator(graph)
    reduced, leakage = reduce_columns(op, cols)
    assert leakage <= 1e-12
    closure = reduce_seeds(op, *family_seeds(graph, InitialStateKind.minus()))
    change = np.stack([decompose(closure.basis, col)[0] for col in cols.T], axis=1)
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
    np.testing.assert_allclose(change.conj().T @ closure.matrix @ change, expected,
                               atol=1e-12)


def test_family_closure_spans_hand_basis():
    # the automatic closure and the hand construction give the same projector
    graph = build_star(12, Anomaly.extra_edge(3, 7))
    hand = hand_columns(make_basis(graph), 3, 7)
    op, auto = family_basis(graph)
    p_hand = hand @ hand.conj().T
    v = lifted(auto)
    p_auto = v @ v.conj().T
    np.testing.assert_allclose(p_auto, p_hand, atol=1e-10)


def test_reduction_agrees_with_dense_conjugation():
    graph = build_star(9, Anomaly.loop(4))
    op, basis = family_basis(graph)
    reduced = reduce_operator(op, basis)
    u = dense_matrix(op)
    v = lifted(basis)
    np.testing.assert_allclose(reduced.matrix, v.conj().T @ u @ v, atol=1e-13)
    gram = reduced.matrix.conj().T @ reduced.matrix
    np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-12)


def test_basis_columns_orthonormal():
    graph = build_star(30, Anomaly.extra_edge(1, 30))
    _, basis = family_basis(graph)
    v = lifted(basis)
    assert v.shape == (basis.full_dim, basis.dim)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(basis.dim), atol=1e-12)
    # the cells' rows at any positions are those of the lifted cells
    cells = star_cells(make_basis(graph))
    index = [59, 0, 29, 30, 60, 61]
    np.testing.assert_array_equal(np.array(cells.rows(index)), lifted(cells)[index])


def test_million_spoke_closure_is_orthonormal():
    # the eigenframe check downstream rejects a basis orthonormal only to
    # ~1e-11; column k of V*V is the decomposition of basis vector k
    _, basis = family_basis(build_star(10 ** 6, Anomaly.loop(1)))
    gram = np.stack([decompose(basis, lift(basis, e))[0] for e in np.eye(basis.dim)],
                    axis=1)
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


def test_project_lift_roundtrip():
    graph = build_star(15, Anomaly.loop(6))
    op, basis = family_basis(graph)
    x = named_start(graph, InitialStateKind.minus())
    coeffs, leakage = decompose(basis, x)
    assert coeffs.shape == (basis.dim,)
    assert leakage <= 1e-12
    np.testing.assert_allclose(lift(basis, coeffs), x, atol=1e-12)
    np.testing.assert_allclose(lifted(basis) @ coeffs, x, atol=1e-12)


def test_project_drops_component_outside_span():
    graph = build_star(15, Anomaly.loop(6))
    op, basis = family_basis(graph)
    outside = basis_vector(op.basis, BasisLabel.edge(0, 1))
    coeffs, leakage = decompose(basis, outside)
    assert np.linalg.norm(coeffs) < 1.0  # strictly shrinks
    assert leakage == pytest.approx(np.sqrt(1.0 - np.linalg.norm(coeffs) ** 2), abs=1e-12)


def test_empty_seed_list_rejected():
    graph = build_star(5, Anomaly.none())
    op = build_step_operator(graph)
    cells, _ = family_seeds(graph, InitialStateKind.minus())
    with pytest.raises(ConfigurationError):
        reduce_seeds(op, cells, [])
    with pytest.raises(ConfigurationError):
        reduce_states(op, [])


def test_seed_dimension_mismatch():
    graph = build_star(5, Anomaly.none())
    op = build_step_operator(graph)
    cells, rows = family_seeds(graph, InitialStateKind.minus())
    with pytest.raises(DimensionMismatchError):
        reduce_seeds(op, cells, [[1.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        reduce_seeds(op, cells, np.asarray(rows[0]))


def test_reduce_rejects_non_invariant_basis():
    # one unit cell: the state (0,1), which the step moves away
    graph = build_star(6, Anomaly.none())
    op = build_step_operator(graph)
    lonely = ReducedBasis(n_spokes=6, anomalous=(), blocks=(),
                          units=(op.basis.position(BasisLabel.edge(0, 1)),),
                          full_dim=op.dimension)
    with pytest.raises(InvarianceError):
        reduce_operator(op, lonely)


def test_reduce_dimension_mismatch():
    op5 = build_step_operator(build_star(5, Anomaly.none()))
    op6 = build_step_operator(build_star(6, Anomaly.none()))
    basis = reduce_states(op6, [hub_out_state(op6.basis), hub_in_state(op6.basis)]).basis
    with pytest.raises(DimensionMismatchError):
        reduce_operator(op5, basis)
    with pytest.raises(DimensionMismatchError):
        decompose(basis, np.zeros(op5.dimension))


def test_lift_length_check():
    _, basis = family_basis(build_star(8, Anomaly.loop(2)))
    with pytest.raises(DimensionMismatchError):
        lift(basis, np.zeros(basis.dim + 1))



# six anomalies, two of them marked by pi/3 and 0.7 rad, with the kinds
# each admits: minus and plus, and the loop kinds on a missing loop
AGREEMENT_KINDS = [
    (anomaly, kind)
    for anomaly in (Anomaly.extra_edge(1, 2), Anomaly.loop(1), Anomaly.extended_edge(1),
                    Anomaly.missing_loop(1), Anomaly.loop(1, PhaseAngle.from_radians(0.7)),
                    Anomaly.missing_loop(1, PhaseAngle.from_pi_fraction(1, 3)))
    for kind in (InitialStateKind.minus(), InitialStateKind.plus(),
                 *((InitialStateKind.loop_pi(), InitialStateKind.loop_third())
                   if anomaly.schema.loops else ()))]


def test_structural_family_dimension_is_the_closure_dimension():
    # the family's dimension that the spectrum verb reads from the step's
    # structure, its multiplicities summed, against the Krylov closure of
    # the family's seeds, at every size from 4 to 1e6
    cases = 0
    for n in (4, 10, 100, 1000, 10 ** 6):
        for anomaly, kind in AGREEMENT_KINDS:
            graph = build_star(n, anomaly)
            cells, seeds = family_seeds(graph, kind)
            q = cells_operator(build_scattering_operator(graph, 1.0, 0.0), cells)
            spec = secular_spectrum(q, cells.uniform(1), len(cells.blocks), family=seeds)
            closure = reduce_seeds(build_step_operator(graph), cells, seeds)
            assert sum(spec.multiplicities) == closure.dim, (n, anomaly, kind.variant)
            cases += 1
    assert cases == 80
