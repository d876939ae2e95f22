"""Central numeric policy.

All tolerance constants live in one frozen record instead of scattered
magic numbers, and none of them scales with N: the spectra are read
from the step's structure, whose N-free quantities count as 0 at or
below `structure_tol`.  Each module reads its thresholds from
DEFAULT_POLICY when a call runs, never at import, so a test that needs
another threshold swaps the record in the module that reads it.
`require_within` checks each certificate: a value against one of these
tolerances, `norm2` takes the squared norm of a coordinate vector on the
star's cells, `largest` reads the worst of a few values, and
`orthogonalize` is the one CGS2.  Nothing
here imports numpy: `norm2` and `orthogonalize` only call the methods of
the arrays they are given.
"""

import math
from typing import NamedTuple

from .errors import NumericalFailureError


class NumericPolicy(NamedTuple):
    # state norms
    unit_norm_tol: float = 1e-10
    # operator construction and certification
    unitarity_tol: float = 1e-12
    # invariant-subspace closure
    closure_residual: float = 1e-8
    invariance_tol: float = 1e-9
    reduced_unitarity_tol: float = 1e-10
    # the reduced search's full-walk check: how far its split may drift from
    # the full walk's, over how many leading steps
    spot_check_tol: float = 1e-9
    spot_check_steps: int = 25
    # the spectrum read from the step's structure: each eigenpair's residual,
    # the eigenvectors' deviation from an orthonormal frame, and the N-free
    # quantities (phases of the reflection walk, overlaps and cancelling
    # sums of terms of one order) that count as 0 at or below structure_tol
    eig_residual_tol: float = 1e-8
    projector_tol: float = 1e-9
    structure_tol: float = 1e-10
    # perturbation fits: a shift at or below it is excluded as round-off
    shift_floor: float = 1e-13
    # steps an empirical peak may lie from the predicted one without a warning
    peak_slack: int = 2


DEFAULT_POLICY = NumericPolicy()


def require_within(what: str, value, tol: float, error=NumericalFailureError) -> None:
    """Pass a certificate only when value <= tol, so a nan fails; otherwise
    raise `error` with the message `what`, its {value} and {tol} slots filled."""
    if not value <= tol:
        raise error(what.format(value=value, tol=tol))


def largest(values) -> float:
    """The largest of a few floats, or nan when any is nan, as numpy's max
    gives it, taken in Python so that no numpy kernel is paged in for it."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def norm2(x: "np.ndarray") -> float:
    """The squared norm of a contiguous vector: one ddot of its float64 view, no temporary."""
    v = x.view("float64")
    return float(v @ v)


def orthogonalize(vec: "np.ndarray", rows: "np.ndarray", tol: float) -> float:
    """Remove the span of the orthonormal rows from the contiguous vec, in place.

    Classical Gram-Schmidt run twice (CGS2), each sweep one projection
    h = <Q, vec> and one update vec -= h Q; the second sweep is skipped
    when the first already leaves a residual of at most tol, since a
    further projection could only shrink it.  Returns the residual norm.
    """
    if len(rows):
        for _ in range(2):
            vec -= (vec.conj() @ rows.T).conj() @ rows  # the rows are read in place
            res = math.sqrt(norm2(vec))
            if res <= tol:
                break
        return res
    return math.sqrt(norm2(vec))
