"""Central numeric policy.

All tolerance constants live in one frozen record instead of scattered
magic numbers, and none of them scales with N: the spectra are read
from the step's structure, whose N-free quantities count as 0 at or
below `structure_tol`.  Each module reads its thresholds from
DEFAULT_POLICY when a call runs, never at import, so a test that needs
another threshold swaps the record in the module that reads it.
`require_within` checks each certificate: a value against one of these
tolerances, and `largest` reads the worst of a few values.  The rest is
the little linear algebra the star's cells need, at most 15 by 15 and
held as tuples of Python numbers: `norm2` of a vector, `nonzeros` of a
sparse row, `matmul` of two matrices held as rows, and
`frame_deviation`, how far a few vectors are from an orthonormal frame.
"""

import math
from typing import NamedTuple

from .errors import NumericalFailureError


class NumericPolicy(NamedTuple):
    # state norms
    unit_norm_tol: float = 1e-10
    # operator construction and certification
    unitarity_tol: float = 1e-12
    # the step on the star's cells: its leakage off them and its unitarity
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
    """The largest of a few floats, 0 of none, or nan when any is nan."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def norm2(v) -> float:
    """The squared norm of a few numbers: the sum of each one's re^2 + im^2."""
    return sum(z.real * z.real + z.imag * z.imag for z in v)


def nonzeros(row) -> list:
    """The (index, entry) pairs of a row's nonzero entries."""
    return [(j, x) for j, x in enumerate(row) if x]


def matmul(a, b) -> tuple:
    """The product of two small matrices held as rows, as a tuple of rows."""
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def frame_deviation(vectors) -> float:
    """The largest |<v_j, v_k> - [j = k]| of a few vectors, or nan when any
    entry is nan: their deviation from an orthonormal frame, as the largest
    entry of |V*V - I| for the matrix V whose columns they are."""
    vectors = list(vectors)
    return largest(abs(sum(x.conjugate() * y for x, y in zip(v, w)) - (j == k))
                   for j, v in enumerate(vectors) for k, w in enumerate(vectors[j:], j))
