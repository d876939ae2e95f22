"""One-step unitary of the scattering walk.

The operator never materializes as a matrix on the hot path.  Hub columns
all share one structure (reflection -r on the matching outgoing state plus
transmission t to every other one), so a full application costs O(N): one
running sum over hub-incoming amplitudes, then the outer-vertex columns,
each of which has exactly one nonzero.  Those follow the block layout:
one or two length-N block copies, then a few patches that overwrite the
rows the anomaly reroutes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edgespace import BasisLabel, EdgeBasis, WalkState, make_basis
from .errors import ConfigurationError, DimensionMismatchError, NumericalFailureError, SizeError
from .numerics import DEFAULT_POLICY
from .stargraph import StarGraph


@dataclass(frozen=True)
class StepOperator:
    """Hub amplitudes, block copies and patches of one walk step.

    Each copy (dst, src) moves the length-N block starting at src to the
    one starting at dst with amplitude 1; the patches (perm_src, perm_dst,
    perm_amp) are applied after the copies and overwrite their rows.
    """

    basis: EdgeBasis
    hub_r: float
    hub_t: float
    copies: tuple[tuple[int, int], ...]
    perm_src: np.ndarray
    perm_dst: np.ndarray
    perm_amp: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.dim

    @property
    def n_spokes(self) -> int:
        return self.basis.n_spokes

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.perm_amp.imag == 0.0))


@dataclass(frozen=True)
class UnitarityReport:
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


def build_scattering_operator(graph: StarGraph, hub_r: float, hub_t: float) -> StepOperator:
    """Assemble the walk operator with explicit hub amplitudes.

    Outer-vertex rules depend only on the anomaly: plain spokes bounce the
    particle straight back toward the hub, anomaly-adjacent vertices route
    it through the anomaly, and the marking phase multiplies exactly one
    designated hop.
    """

    if hub_r + hub_t != 1.0:
        raise ConfigurationError(f"hub amplitudes need r + t = 1, got {hub_r} + {hub_t}")
    basis = make_basis(graph)
    n = graph.n_spokes
    a = graph.anomaly
    src: list[int] = []
    dst: list[int] = []
    amp: list[complex] = []

    def patch(src_label: BasisLabel, dst_label: BasisLabel, amplitude: complex = 1.0) -> None:
        src.append(basis.position(src_label))
        dst.append(basis.position(dst_label))
        amp.append(amplitude)

    edge = BasisLabel.edge
    phase = a.mark_phase.phasor if a.variant != "none" else 1.0 + 0j
    # every plain spoke bounces (0,j) straight back to (j,0)
    copies: tuple[tuple[int, int], ...] = ((n, 0),)
    if a.variant == "extra_edge":
        patch(edge(0, a.u), edge(a.u, a.v))
        patch(edge(0, a.v), edge(a.v, a.u))
        patch(edge(a.u, a.v), edge(a.v, 0))
        patch(edge(a.v, a.u), edge(a.u, 0))
    elif a.variant == "loop":
        patch(edge(0, a.at), BasisLabel.loop(a.at))
        patch(BasisLabel.loop(a.at), edge(a.at, 0))
    elif a.variant == "extended_edge":
        tip = n + 1
        patch(edge(0, a.at), edge(a.at, tip))
        patch(edge(a.at, tip), edge(tip, a.at), phase)
        patch(edge(tip, a.at), edge(a.at, 0))
    elif a.variant == "missing_loop":
        # unmarked spokes route (0,j) through their loop, loops exit to (j,0)
        copies = ((2 * n, 0), (n, 2 * n))
        # marked vertex: direct bounce carrying the marking phase, and its
        # dummy loop is a fixed point
        patch(edge(0, a.at), edge(a.at, 0), phase)
        patch(BasisLabel.loop(a.at), BasisLabel.loop(a.at))

    perm_src = np.asarray(src, dtype=np.intp)
    perm_dst = np.asarray(dst, dtype=np.intp)
    perm_amp = np.asarray(amp, dtype=complex)
    # the apply paths skip zero-filling: after the copies and patches every
    # position outside the hub-outgoing block must be written from exactly
    # one source, and every position outside the hub-incoming block must be
    # read exactly once
    d = basis.dim
    source = np.full(d, -1, dtype=np.intp)
    for to, frm in copies:
        source[to:to + n] = np.arange(frm, frm + n)
    source[perm_dst] = perm_src
    if np.any(source[0:n] != -1) or np.any(source[n:] == -1):
        raise NumericalFailureError("singleton outputs do not tile the non-hub block")
    reads = np.bincount(source[n:], minlength=d)
    reads[n:2 * n] += 1  # the hub reads these
    if np.any(reads != 1):
        raise NumericalFailureError("singleton inputs do not tile the non-hub columns")
    return StepOperator(basis=basis, hub_r=float(hub_r), hub_t=float(hub_t),
                        copies=copies, perm_src=perm_src, perm_dst=perm_dst,
                        perm_amp=perm_amp)


def build_step_operator(graph: StarGraph) -> StepOperator:
    n = graph.n_spokes
    return build_scattering_operator(graph, (n - 2) / n, 2 / n)


def walk_dtype(op: StepOperator, x: np.ndarray):
    """The arithmetic of a walk from x: float64 for a real x on a real operator,
    complex128 otherwise."""
    return np.float64 if op.is_real and not np.iscomplexobj(x) else np.complex128


def _patch_amplitudes(op: StepOperator, out: np.ndarray) -> np.ndarray:
    """The patch amplitudes in the arithmetic of the output buffer.

    A float64 buffer takes the real parts, which is exact only for a real
    operator; any other operator needs complex buffers.
    """
    if np.iscomplexobj(out):
        return op.perm_amp
    if not op.is_real:
        raise ConfigurationError(
            "a walk with complex phases cannot write into a real buffer")
    return op.perm_amp.real


def apply_into(op: StepOperator, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One step on a raw amplitude array, writing into a preallocated buffer.

    No zero fill is needed: the hub rule writes the whole outgoing block and
    the copies and patches tile everything else (checked at build time).
    The hub rule t*sum(in) - in equals -r*in + t*(sum(in) - in) as r + t = 1
    (checked at build time).  Buffers are complex128, or float64 when the
    operator is real.
    """
    n = op.n_spokes
    np.subtract(op.hub_t * x[n:2 * n].sum(), x[n:2 * n], out=out[0:n])
    for to, frm in op.copies:
        out[to:to + n] = x[frm:frm + n]
    out[op.perm_dst] = _patch_amplitudes(op, out) * x[op.perm_src]
    return out


def apply_adjoint_into(op: StepOperator, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    n = op.n_spokes
    np.subtract(op.hub_t * x[0:n].sum(), x[0:n], out=out[n:2 * n])
    for to, frm in op.copies:
        out[frm:frm + n] = x[to:to + n]
    out[op.perm_src] = np.conj(_patch_amplitudes(op, out)) * x[op.perm_dst]
    return out


def _apply_state(op: StepOperator, state: WalkState, kernel) -> WalkState:
    if state.basis_dim != op.dimension:
        raise DimensionMismatchError(
            f"state dimension {state.basis_dim} != operator dimension {op.dimension}")
    out = kernel(op, state.amplitudes, np.empty(op.dimension, walk_dtype(op, state.amplitudes)))
    out.setflags(write=False)
    return WalkState(amplitudes=out, basis_dim=op.dimension)


def apply_step(op: StepOperator, state: WalkState) -> WalkState:
    return _apply_state(op, state, apply_into)


def apply_adjoint(op: StepOperator, state: WalkState) -> WalkState:
    return _apply_state(op, state, apply_adjoint_into)


def _dense_columns(op: StepOperator, lo: int, hi: int, dtype=complex) -> np.ndarray:
    """Columns lo..hi-1 of the materialized matrix, float64 ones only for a real operator."""
    n = op.n_spokes
    u = np.zeros((op.dimension, hi - lo), dtype=dtype)
    hub = np.arange(max(lo, n), min(hi, 2 * n))
    u[0:n, hub - lo] = op.hub_t
    u[hub - n, hub - lo] = -op.hub_r
    for to, frm in op.copies:
        cols = np.arange(max(lo, frm), min(hi, frm + n))
        u[to + cols - frm, cols - lo] = 1.0
    u[op.perm_dst] = 0.0
    inside = (lo <= op.perm_src) & (op.perm_src < hi)
    u[op.perm_dst[inside], op.perm_src[inside] - lo] = _patch_amplitudes(op, u)[inside]
    return u


def dense_matrix(op: StepOperator) -> np.ndarray:
    """Materialized matrix, for tests and diagnostics only."""
    cap = DEFAULT_POLICY.dense_cap
    if op.dimension > cap:
        raise SizeError(f"dimension {op.dimension} over dense cap {cap}")
    return _dense_columns(op, 0, op.dimension)


def check_unitarity(op: StepOperator) -> UnitarityReport:
    """Max elementwise deviation of U†U from identity.

    Hub-column inner products take exactly two values (diagonal and
    off-diagonal), so the structural check is O(1) plus a scan of the
    patch amplitudes (block copies carry amplitude 1); for small
    dimensions the result is cross-checked against an explicit dense
    product, formed one block of column slabs at a time, in float64 for
    a real operator.
    """

    n = op.n_spokes
    r, t = op.hub_r, op.hub_t
    diag = r * r + (n - 1) * t * t
    offdiag = (n - 2) * t * t - 2 * r * t
    dev = max(abs(diag - 1.0), abs(offdiag))
    if op.perm_amp.size:
        dev = max(dev, float(np.abs(np.abs(op.perm_amp) ** 2 - 1.0).max()))
    d = op.dimension
    if d <= DEFAULT_POLICY.dense_cap:
        # column slabs of 2^20 entries (16 MiB complex) keep the memory far below
        # that of U itself; U†U is Hermitian, so the blocks on and above
        # the diagonal cover every entry
        width = max(1, (1 << 20) // d)
        dtype = float if op.is_real else complex
        for lo in range(0, d, width):
            left = _dense_columns(op, lo, min(d, lo + width), dtype).conj().T
            for lo2 in range(lo, d, width):
                gram = left @ _dense_columns(op, lo2, min(d, lo2 + width), dtype)
                if lo2 == lo:
                    gram -= np.eye(len(gram))
                dev = max(dev, float(np.abs(gram).max()))
    return UnitarityReport(max_deviation=dev, tolerance=DEFAULT_POLICY.unitarity_tol)
