"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the part of that interval its
child spans cover.  Children that ran in parallel on a size-sweep thread
pool are merged as intervals, so overlap is not subtracted twice.
"""

from __future__ import annotations

from collections import defaultdict

# functions that write the CLI's CSV files
WRITERS = ("search.write_per_step_csv", "perturb.write_shifts_csv",
           "perturb.write_fits_csv", "spectral.dump_spectrum_csv")
MATVECS = ("stepop.apply_into", "stepop.apply_adjoint_into")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class _Totals:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.info = defaultdict(float)
        self.closure_matvecs = 0

    def add_job(self, spans: list[list]) -> None:
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for sid, parent, name, start, end, info in spans:
            children[parent].append((start, end))
            if name in MATVECS and parent in by_id \
                    and by_id[parent][2] == "collapse.invariant_basis":
                self.closure_matvecs += 1
        for sid, parent, name, start, end, info in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += (end - start) - _covered(children[sid], start, end)
            for key, value in (info or {}).items():
                self.info[f"{name}:{key}"] += value


def layer_metrics(jobs_spans: list[list[list]]) -> dict[str, float]:
    t = _Totals()
    for spans in jobs_spans:
        t.add_job(spans)
    apply_s = t.total["stepop.apply_into"]
    apply_amps = t.info["stepop.apply_into:amps"]
    apply_bytes = t.info["stepop.apply_into:bytes"]
    baseline_s = t.total["search.baseline_statistics"]
    return {
        "edgespace.make_basis_calls": t.calls["edgespace.make_basis"],
        "edgespace.make_basis_s": t.total["edgespace.make_basis"],
        "stepop.build_calls": t.calls["stepop.build_scattering_operator"],
        "stepop.build_self_s": (t.self_s["stepop.build_step_operator"]
                                + t.self_s["stepop.build_scattering_operator"]),
        "stepop.apply_calls": t.calls["stepop.apply_into"],
        "stepop.apply_s": apply_s,
        "stepop.apply_ns_per_amp": 1e9 * apply_s / apply_amps if apply_amps else 0.0,
        "stepop.apply_bytes": int(apply_bytes),
        "stepop.apply_gbps": apply_bytes / apply_s / 1e9 if apply_s else 0.0,
        "stepop.adjoint_calls": t.calls["stepop.apply_adjoint_into"],
        "stepop.adjoint_s": t.total["stepop.apply_adjoint_into"],
        "stepop.check_unitarity_self_s": t.self_s["stepop.check_unitarity"],
        "stepop.sparse_matrix_s": t.total["stepop.sparse_matrix"],
        "search.run_search_self_s": t.self_s["search.run_search"],
        "search.steps_full": int(t.info["search.run_search:steps_full"]),
        "search.initial_state_self_s": t.self_s["search.initial_state"],
        "search.family_seeds_self_s": t.self_s["search.family_seeds"],
        "search.baseline_s": baseline_s,
        "search.baseline_trials_per_s": (
            t.info["search.baseline_statistics:trials"] / baseline_s
            if baseline_s else 0.0),
        "collapse.invariant_basis_calls": t.calls["collapse.invariant_basis"],
        "collapse.invariant_basis_self_s": t.self_s["collapse.invariant_basis"],
        "collapse.closure_dim": int(t.info["collapse.invariant_basis:dim"]),
        "collapse.closure_matvecs": t.closure_matvecs,
        "collapse.reduce_self_s": t.self_s["collapse.reduce_operator"],
        "spectral.eigendecompose_calls": t.calls["spectral.eigendecompose"],
        "spectral.eigendecompose_s": t.total["spectral.eigendecompose"],
        "perturb.sweep_self_s": t.self_s["perturb.perturbation_sweep"],
        "perturb.limit_self_s": t.self_s["perturb.limit_reduced_operator"],
        "perturb.shifts_s": t.total["perturb.eigenphase_shifts"],
        "perturb.fit_s": t.total["perturb.fit_scaling"],
        "stargraph.parse_spec_s": t.total["stargraph.parse_spec"],
        "stargraph.build_star_calls": t.calls["stargraph.build_star"],
        "cli.self_s": t.self_s["cli.main"],
        "cli.write_s": sum(t.total[name] for name in WRITERS),
    }
