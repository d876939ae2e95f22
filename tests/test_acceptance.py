"""Acceptance suite: every shipped claim, one pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines as they happen).  Each criterion prints one line with its
measured numbers and then asserts, so a red test always shows which bound
broke and by how much.
"""

import math
import time

import numpy as np
from oracle import (
    apply_into,
    decompose,
    dense_matrix,
    eigendecompose,
    lifted,
    named_start,
    reduce_columns,
    reduce_seeds,
    reference_operators,
    symmetric_in_state,
    symmetric_out_state,
)

from anomalywalk.collapse import cells_operator
from anomalywalk.edgespace import BasisLabel, make_basis
from anomalywalk.perturb import perturbation_sweep
from anomalywalk.search import (
    InitialStateKind,
    _walk_norm2,
    baseline_statistics,
    family_seeds,
    predicted_hitting_step,
    run_search,
)
from anomalywalk.spectral import secular_spectrum
from anomalywalk.stargraph import (
    Anomaly,
    PhaseAngle,
    build_star,
    parse_spec,
    serialize_spec,
)
from anomalywalk.stepop import build_scattering_operator, build_step_operator, check_unitarity


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status}  {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def combined(result):
    return np.asarray(result.p_target_spokes) + np.asarray(result.p_anomaly)


def test_criterion_01_extra_edge_peak():
    # N=100, two-spoke anomaly: peak at step 14 +- 1 with roughly 2/3 of
    # the probability on the adjacent spokes and 1/3 on the extra edge
    start = time.perf_counter()
    graph = build_star(100, Anomaly.extra_edge(2, 7))
    result = run_search(graph, InitialStateKind.minus(), 34)
    elapsed = time.perf_counter() - start
    peak = result.peak_step
    spokes = result.peak_detectable
    chord = result.peak_undetected
    ok = (abs(peak - 14) <= 1
          and 0.60 <= spokes <= 0.70
          and 0.28 <= chord <= 0.38
          and elapsed < 1.0)
    report(1, ok, f"peak={peak} spokes={spokes:.4f} extra_edge={chord:.4f} "
                  f"elapsed={elapsed:.3f}s")


def test_criterion_02_plus_sign_never_localizes():
    graph = build_star(100, Anomaly.extra_edge(2, 7))
    result = run_search(graph, InitialStateKind.plus(), 200)
    worst = float(combined(result).max())
    ok = worst <= 0.2
    report(2, ok, f"max combined target probability {worst:.4f} over 200 steps "
                  f"(bound 0.2)")


def test_criterion_03_reduced_space_fidelity():
    # (a) the family closure is exactly five-dimensional at every size, and
    # so is the family's dimension read from the step's structure
    dims = {}
    for n in (4, 10, 100, 1000):
        graph = build_star(n, Anomaly.extra_edge(1, 2))
        op = build_step_operator(graph)
        cells, seeds = family_seeds(graph, InitialStateKind.minus())
        q = cells_operator(build_scattering_operator(graph, 1.0, 0.0), cells)
        structural = sum(secular_spectrum(q, cells.uniform(1), len(cells.blocks),
                                          family=seeds).multiplicities)
        dims[n] = (reduce_seeds(op, cells, seeds).dim, structural)
    dims_ok = all(d == (5, 5) for d in dims.values())

    # (b) the walk on the star's cells, stepped by the package's operator
    # there and lifted back through the cells' rows, agrees with the full walk
    graph = build_star(100, Anomaly.extra_edge(2, 7))
    op = build_step_operator(graph)
    cells, _ = family_seeds(graph, InitialStateKind.minus())
    m = np.array(cells_operator(op, cells))
    v = lifted(cells)
    full = named_start(graph, InitialStateKind.minus()).copy()
    coeffs, _ = decompose(cells, full)
    work = np.empty_like(full)
    lift_err = 0.0
    for _ in range(200):
        full = apply_into(op, full, work).copy()
        coeffs = m @ coeffs
        lift_err = max(lift_err, float(np.abs(v @ coeffs - full).max()))
    lift_ok = lift_err <= 1e-9

    # (c) the reduced matrix on the hand-built basis, entry for entry: the
    # walk reduced on it column by column, and the package's operator on
    # the cells conjugated into it
    n = 100
    eb = make_basis(graph)
    bulk = [j for j in range(1, n + 1) if j not in (2, 7)]
    chord = np.zeros(eb.dim, dtype=complex)
    chord[eb.position(BasisLabel.edge(2, 7))] = 2 ** -0.5
    chord[eb.position(BasisLabel.edge(7, 2))] = 2 ** -0.5
    hand = np.stack([
        symmetric_out_state(eb, (2, 7)),
        symmetric_in_state(eb, (2, 7)),
        symmetric_out_state(eb, bulk),
        symmetric_in_state(eb, bulk),
        chord,
    ], axis=1)
    r, t = (n - 2) / n, 2 / n
    a, b = r - t, 2 * (r * t) ** 0.5
    expected = np.zeros((5, 5))
    expected[4, 0] = 1.0
    expected[0, 1] = -a
    expected[2, 1] = b
    expected[3, 2] = 1.0
    expected[0, 3] = b
    expected[2, 3] = a
    expected[1, 4] = 1.0
    change = v.conj().T @ hand
    matrix_err = max(
        float(np.abs(reduce_columns(op, hand)[0] - expected).max()),
        float(np.abs(change.conj().T @ m @ change - expected).max()))
    matrix_ok = matrix_err <= 1e-12

    ok = dims_ok and lift_ok and matrix_ok
    report(3, ok, f"dims(closure, structural)={sorted(dims.values())} lift_err={lift_err:.2e} "
                  f"matrix_err={matrix_err:.2e}")


def test_criterion_04_loop_anomaly_peak():
    graph = build_star(100, Anomaly.loop(4))
    result = run_search(graph, InitialStateKind.minus(), 44)
    peak = result.peak_step
    spokes = result.peak_detectable
    loop = result.peak_undetected
    ok = (abs(peak - 19) <= 1
          and 0.60 <= spokes <= 0.70
          and 0.28 <= loop <= 0.38)
    report(4, ok, f"peak={peak} spokes={spokes:.4f} loop={loop:.4f}")


def test_criterion_05_hitting_time_scaling():
    start = time.perf_counter()
    slopes = {}
    for name, anomaly in (("extra_edge", Anomaly.extra_edge(1, 2)),
                          ("loop", Anomaly.loop(1))):
        logn, logp = [], []
        for n in (64, 128, 256, 512, 1024, 2048, 4096):
            graph = build_star(n, anomaly)
            steps = 2 * predicted_hitting_step(graph) + 6
            result = run_search(graph, InitialStateKind.minus(), steps,
                                method="reduced")
            logn.append(math.log(n))
            logp.append(math.log(result.peak_step))
        slopes[name] = float(np.polyfit(logn, logp, 1)[0])
    elapsed = time.perf_counter() - start
    ok = (all(abs(s - 0.5) <= 0.05 for s in slopes.values())
          and elapsed < 60.0)
    report(5, ok, f"slope extra_edge={slopes['extra_edge']:.4f} "
                  f"loop={slopes['loop']:.4f} elapsed={elapsed:.2f}s")


def test_criterion_06_unmarked_failure_grid():
    # 25 directions of the out/in start-state plane per size and variant
    alphas = np.linspace(0.1, 0.9, 5) * np.pi
    betas = np.linspace(0.0, 1.6, 5) * np.pi
    results = []
    ok = True
    for name, make in (
            ("extended_edge",
             lambda: Anomaly.extended_edge(1, PhaseAngle.zero())),
            ("missing_loop",
             lambda: Anomaly.missing_loop(1, PhaseAngle.zero()))):
        for n in (64, 256):
            graph = build_star(n, make())
            steps = int(10 * math.sqrt(n))
            worst = 0.0
            for alpha in alphas:
                for beta in betas:
                    kind = InitialStateKind.inout(
                        math.cos(alpha),
                        math.sin(alpha) * np.exp(1j * beta))
                    res = run_search(graph, kind, steps)
                    worst = max(worst, float(combined(res).max()))
            bound = 3.0 / n + 0.1
            ok = ok and worst <= bound
            results.append(f"{name}@{n}:{worst:.4f}<={bound:.4f}")
    report(6, ok, " ".join(results))


def test_criterion_07_marked_fixes():
    results = []
    ok = True
    for n in (64, 256, 1024):
        graph = build_star(n, Anomaly.extended_edge(1))
        res = run_search(graph, InitialStateKind.minus(), int(4 * math.sqrt(n)))
        best = float(combined(res).max())
        ok = ok and best > 0.5
        results.append(f"ext@{n}:{best:.4f}")
    for label, make, kind in (
            ("miss_pi", lambda: Anomaly.missing_loop(1),
             InitialStateKind.loop_pi()),
            ("miss_third",
             lambda: Anomaly.missing_loop(1, PhaseAngle.from_pi_fraction(1, 3)),
             InitialStateKind.loop_third())):
        for n in (64, 256, 1024):
            graph = build_star(n, make())
            res = run_search(graph, kind, int(4 * math.sqrt(n)))
            best = max(res.p_target_spokes)
            ok = ok and best > 0.5
            results.append(f"{label}@{n}:{best:.4f}")
    report(7, ok, " ".join(results))


def test_criterion_08_perturbation_scaling():
    results = []
    ok = True
    for name, anomaly in (("extra_edge", Anomaly.extra_edge(1, 2)),
                          ("loop", Anomaly.loop(1)),
                          ("extended_pi", Anomaly.extended_edge(1))):
        _, limit = reference_operators(build_star(64, anomaly))
        limit_spec = eigendecompose(limit.matrix)
        mult = {round(t, 9): m for t, m in zip(limit_spec.eigenphases,
                                               limit_spec.multiplicities)}
        sweep = perturbation_sweep(anomaly)
        for fit in sweep.fits:
            m = mult[round(fit.branch_theta0, 9)]
            if m >= 2:
                branch_ok = (not fit.below_floor
                             and abs(fit.slope + 0.5) <= 0.1)
                tag = "deg"
            else:
                branch_ok = fit.below_floor or abs(fit.slope + 1.0) <= 0.15
                tag = "sim"
            ok = ok and branch_ok
            slope = "floor" if fit.below_floor else f"{fit.slope:.3f}"
            results.append(
                f"{name}:{fit.branch_theta0 / math.pi:+.2f}pi[{tag}]={slope}")
    report(8, ok, " ".join(results))


def test_criterion_09_classical_baseline():
    graph = build_star(1000, Anomaly.loop(4))
    mean = baseline_statistics(graph, trials=10_000, seed=0).mean
    expected = (1000 + 1) / 2
    quantum = predicted_hitting_step(build_star(1000, Anomaly.extra_edge(1, 2)))
    ratio = quantum / mean
    ok = abs(mean - expected) <= 0.05 * expected
    report(9, ok, f"mean={mean:.2f} expected={expected} "
                  f"quantum_step={quantum} ratio={ratio:.4f}")


def test_criterion_10_infrastructure(monkeypatch):
    # (a) unitarity against dense materialization, every variant and size
    worst_dev = 0.0
    for n in range(3, 61):
        for anomaly in (Anomaly.none(), Anomaly.extra_edge(1, 2),
                        Anomaly.loop(2), Anomaly.extended_edge(2),
                        Anomaly.missing_loop(2),
                        Anomaly.missing_loop(1, PhaseAngle.from_pi_fraction(1, 3)),
                        Anomaly.extended_edge(1, PhaseAngle.from_radians(0.7))):
            op = build_step_operator(build_star(n, anomaly))
            u = dense_matrix(op)
            gram = float(np.abs(u.conj().T @ u - np.eye(op.dimension)).max())
            worst_dev = max(worst_dev, check_unitarity(op).max_deviation, gram)
    unitary_ok = worst_dev < 1e-12

    # (b) norm drift on the million-spoke search, read from the squared
    # norm the run takes of its state at its end (the run itself refuses a
    # squared-norm drift past unit_norm_tol)
    graph = build_star(1_000_000, Anomaly.loop(1))
    norms = []
    monkeypatch.setattr("anomalywalk.search._walk_norm2",
                        lambda *args: norms.append(_walk_norm2(*args)) or norms[-1])
    run_search(graph, InitialStateKind.minus(), 10_000)
    drift = abs(math.sqrt(norms[-1]) - 1.0)
    drift_ok = drift < 1e-10

    # (c) spec round-trip identity on a generated corpus
    rng = np.random.default_rng(20240824)
    variants = ("none", "extra_edge", "loop", "extended_edge", "missing_loop")
    fuzz_ok = True
    trips = 0
    for _ in range(1000):
        n = int(rng.integers(3, 100000))
        variant = variants[rng.integers(0, 5)]
        style = rng.integers(0, 3)
        phase = None
        if style == 1:
            phase = PhaseAngle.from_pi_fraction(
                int(rng.integers(-12, 13)), int(rng.integers(1, 13)))
        elif style == 2:
            phase = PhaseAngle.from_radians(float(rng.uniform(-10.0, 10.0)))
        if variant == "none":
            anomaly = Anomaly.none()
        elif variant == "extra_edge":
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n + 1))
            while v == u:
                v = int(rng.integers(1, n + 1))
            anomaly = Anomaly.extra_edge(u, v, phase)
        else:
            at = int(rng.integers(1, n + 1))
            anomaly = getattr(Anomaly, variant)(at, phase)
        graph = build_star(n, anomaly)
        text = serialize_spec(graph)
        if parse_spec(text) != graph or serialize_spec(parse_spec(text)) != text:
            fuzz_ok = False
            break
        trips += 1

    ok = unitary_ok and drift_ok and fuzz_ok
    report(10, ok, f"unitarity_dev={worst_dev:.2e} drift={drift:.2e} "
                   f"round_trips={trips}")
