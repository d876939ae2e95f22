"""Central numeric policy.

All tolerance constants live in one frozen record instead of scattered
magic numbers.  Each module reads its thresholds from DEFAULT_POLICY when a
call runs, never at import, so a test that needs another threshold swaps
the record in the module that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    # state norms and probability sums
    unit_norm_tol: float = 1e-10
    probability_tol: float = 1e-10
    # operator construction and certification
    unitarity_tol: float = 1e-12
    dense_cap: int = 5000
    # invariant-subspace closure
    closure_residual: float = 1e-8
    invariance_tol: float = 1e-9
    reduced_unitarity_tol: float = 1e-10
    # eigendecomposition
    eig_residual_tol: float = 1e-8
    unit_circle_tol: float = 1e-9
    cluster_tol: float = 1e-6
    projector_tol: float = 1e-9
    # perturbation matching and fits
    match_tol: float = 0.1
    shift_floor: float = 1e-13


DEFAULT_POLICY = NumericPolicy()
