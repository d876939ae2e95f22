"""References that the fast paths are checked against.

The step is applied here as `src/` never applies it: to one flat vector
at a time, by `apply_into`, and backwards by `apply_adjoint_into`.  On
that step, `reduce_operator` finds V*UV numerically for any basis held
on cells, one basis vector at a time, lifting and decomposing it by
`lift` and `decompose` through the uniform bulk profile built as an
explicit row of length N; the operator that `collapse` reads from the
role table and patches, with the uniform profile in closed form, must
equal it.  The Krylov closure, `reduce_seeds`, grows the span of seed
rows on the cells under that operator by CGS2 and holds it as a
`CellBasis`, coordinates on the cells, as every basis was first held;
the family's dimension that `secular_spectrum` reads from the step's
structure must equal its dimension.  Operators are also reduced on dense
columns, and closures are grown in the full dimension; a basis held on
cells is compared with them after its full lift through `rows`.  The
step is materialized as a dense matrix, and its max|U†U - I| is the
reference for the certificate `check_unitarity` reads from the tables.  The
full walk's records are checked against the walk stepped as one flat
vector; `records` splits rows into the three columns as numpy first
did, a whole column at a time, where `src/` sums each step's rows in
Python.  The named start
states are built here as they were first written, by `named_start`, as
weighted sums of full-length uniform states; `src/` fills their blocks
and holds the family's seeds as rows on the cells.  Full-length seeds that are uniform
on the bulk of every block are placed on the star's cells by `place`.
The perturbation sweep's step and limit are built here as they were
first built, on the closure of its seeds, with the limit's reflection
walk applied column by column; `perturb` forms both on the star's cells.
The sweep's branches were first matched by eigenvector overlap and
labelled by rounding, by `eigenphase_shifts` and `branch_labels`, which
`reference_sweep` runs on those spectra; `perturb` pairs them by the
step's structure, and `homotopy_branches` follows every eigenvalue from
the limit to the graph, where overlaps tie.

The baseline's query counts are drawn here as numpy first drew them, by
`reference_draws`, in whole-array operations; `src/` draws each one in
Python from the same uniforms.

The tests reach the package only at its seams, its public names, the CLI
and this module.  Where a test needs what the package hands one of its
public functions, such as the values per block a search starts its walk
from (`start_values`) or the spectra a sweep reads (`sweep_spectra`),
`recorded` watches that function's calls and replaces nothing.

`src/` holds every state in Python complexes.  The references keep
their own arithmetic apart from it: a walk or a basis with no imaginary part, on
an operator with none, runs here in float64, so its sums over N are
contiguous float64 dots.  A complex128 product over the 1e6 entries of
the bulk profile rounds about 65 times further: the N=1e6 orthonormality
check reads 1.7e-12 with it and 2.6e-14 with these dots.
"""

import contextlib
import math
import random
import sys
from typing import NamedTuple

import numpy as np

from anomalywalk.collapse import cells_operator, certify, star_cells
from anomalywalk.edgespace import BasisLabel, make_basis
from anomalywalk.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InsufficientDataError,
    InvarianceError,
    NumericalFailureError,
    SizeError,
)
from anomalywalk.numerics import DEFAULT_POLICY, require_within
from anomalywalk.perturb import (
    DEFAULT_SWEEP_SIZES,
    EigenShift,
    SweepResult,
    fit_scaling,
    perturbation_sweep,
)
from anomalywalk.search import BaselineStatistics, InitialStateKind, run_search
from anomalywalk.spectral import Spectrum, secular_spectrum
from anomalywalk.stargraph import PhaseAngle, build_star
from anomalywalk.stepop import BlockWalk, build_scattering_operator, build_step_operator


@contextlib.contextmanager
def recorded(fn):
    """Every call of a Python function, or of a class's constructor, made
    inside the block, as (arguments, result) pairs in the order the calls
    return.  A profile hook watches the function's code, so no name of the
    package is replaced and every module that calls it is seen; recordings
    nest."""
    code = (fn.__init__ if isinstance(fn, type) else fn).__code__
    calls, pending = [], []

    def hook(frame, event, arg):
        if frame.f_code is code:
            if event == "call":
                pending.append(dict(frame.f_locals))
            elif event == "return":
                calls.append((pending.pop(), arg))
        if previous is not None:  # a recording around this one
            previous(frame, event, arg)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def wrap(angle):
    """The angle folded into (-pi, pi]."""
    return PhaseAngle.from_radians(angle).value


def search_rows(graph):
    """The rows a search splits its probability by: the target rows, the
    out then the in rows of the anomaly's vertices in ascending order, and
    the rows of the states only the anomaly provides."""
    basis, targets = make_basis(graph), sorted(graph.anomaly_vertices)
    return basis.out_rows(targets) + basis.in_rows(targets), basis.anomaly_only_rows


def sweep_spectra(graph):
    """The limit's and the step's spectra that a perturbation sweep reads at
    the graph's size, each as (arguments, spectrum), the arguments those of
    `secular_spectrum`: recorded from a sweep over that size alone, whose
    fits may want more sizes."""
    with recorded(secular_spectrum) as calls, contextlib.suppress(InsufficientDataError):
        perturbation_sweep(graph.anomaly, (graph.n_spokes,))
    return calls


def start_values(graph, kind):
    """The start of a named search, one value per block, as `run_search`
    hands it to its block walk."""
    with recorded(BlockWalk) as walks:
        run_search(graph, kind, 1)
    return walks[0][0]["start"]


def is_real(op):
    """Whether every patch amplitude of the operator is real."""
    return not any(a.imag for a in op.amp)


def walk_dtype(op, x):
    """The references' arithmetic for a walk from x: float64 when x and the
    operator have no imaginary part, complex128 otherwise."""
    return np.float64 if is_real(op) and not np.any(np.imag(x)) else np.complex128


def real_valued(x):
    """x as a contiguous float64 array when it has no imaginary part, else x."""
    return x if np.any(np.imag(x)) else np.ascontiguousarray(np.real(x), dtype=np.float64)


def _cast(x, dtype):
    """A copy of x in the arithmetic `walk_dtype` chose for it."""
    return np.array(np.real(x) if dtype == np.float64 else x, dtype=dtype)


def _amplitudes(op, out):
    """The patch amplitudes in the arithmetic of the output buffer: their
    real parts for a float64 one, which only a real operator may write."""
    amp = np.array(op.amp, dtype=complex)
    if np.iscomplexobj(out):
        return amp
    if not is_real(op):
        raise ConfigurationError("a walk with complex phases cannot write into a real buffer")
    return amp.real


def norm2(x):
    """The squared norm as one ddot of the float64 view of x, contiguous."""
    parts = np.ascontiguousarray(x).view(np.float64)
    return float(parts @ parts)


def orthogonalize(vec, rows, tol):
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


class CellBasis(NamedTuple):
    """Orthonormal vectors held on the star's cells as every basis was first
    held: basis vector k is sum_j coords[k, j] cell_j, with the cells'
    offsets and units as intp arrays.  `held` turns the package's cells,
    on which the coordinates are the identity, into one."""

    n_spokes: int
    anomalous: np.ndarray
    blocks: tuple
    units: np.ndarray
    coords: np.ndarray  # dim x (len(blocks) + len(units)) array, orthonormal rows
    full_dim: int

    @property
    def dim(self):
        return self.coords.shape[0]

    @property
    def uniform_sum(self):
        return math.sqrt(self.n_spokes - len(self.anomalous))

    def rows(self, index):
        """The rows of the full-dimension basis V at the given positions."""
        index = np.asarray(index, dtype=np.intp)
        cells = np.zeros((index.size, self.coords.shape[1]), complex)
        for k, block in enumerate(self.blocks):
            inside = (index >= block.start) & (index < block.stop)
            offsets = index[inside] - block.start
            bulk = (offsets[:, None] != self.anomalous).all(axis=1)
            cells[inside, k] = bulk / self.uniform_sum
        cells[:, len(self.blocks):] = index[:, None] == self.units
        return cells @ self.coords.T


def held(basis, coords=None):
    """A basis on cells as a `CellBasis`: the package's cells, with the
    given coordinates or the identity, or a `CellBasis` as it is."""
    if isinstance(basis, CellBasis):
        return basis
    return CellBasis(n_spokes=basis.n_spokes, anomalous=np.array(basis.anomalous, dtype=np.intp),
                     blocks=basis.blocks, units=np.array(basis.units, dtype=np.intp),
                     coords=np.eye(basis.dim, dtype=complex) if coords is None else coords,
                     full_dim=basis.full_dim)


class Closure(NamedTuple):
    """The step on a basis held on cells: its matrix and the basis."""

    matrix: np.ndarray
    basis: CellBasis

    @property
    def dim(self):
        return self.matrix.shape[0]


# a closure vector whose residual against the accepted ones is at most this
# is taken as contained
CLOSURE_RESIDUAL = 1e-8


def _accept(vec, rows):
    """Orthogonalize vec against the rows and append it, normalised, unless
    its residual is at most CLOSURE_RESIDUAL or the rows already span the
    space; returns the rows."""
    tol = CLOSURE_RESIDUAL
    res = orthogonalize(vec, rows, tol)
    if res <= tol or len(rows) == vec.size:
        return rows
    vec *= 1.0 / res  # not vec / res: a complex division by a nan residual warns
    return np.vstack((rows, vec))


def reduce_seeds(op, cells, seeds):
    """The Krylov closure: the span of the seeds, rows on the cells, closed
    under the operator, and the operator expressed inside it.

    The closure runs in the coordinates of the cells C, on the package's
    M = C*UC.  Vectors are accepted in a deterministic order: seeds first,
    then the image under M of each accepted vector.  M is unitary, so a
    span it maps into itself is closed under its adjoint too.  The
    accepted rows Q are the basis's coordinates on the cells, and the
    operator on it is conj(Q) M Q^T, certified by the package's `certify`.
    """
    seeds = np.asarray(seeds)
    if not len(seeds):
        raise ConfigurationError("at least one seed is required")
    m = cells.dim
    if seeds.shape[1:] != (m,):
        raise DimensionMismatchError(f"seeds of shape {seeds.shape} on {m} cells")
    reduced = np.array(cells_operator(op, cells))
    q = np.empty((0, m), complex)
    for c in seeds:
        q = _accept(c.astype(complex), q)
    head = 0
    while head < len(q):
        q = _accept(reduced @ q[head], q)
        head += 1
    images = reduced @ q.T
    matrix = q.conj() @ images
    leakage = np.linalg.norm(images - q.T @ matrix, axis=0).max(initial=0.0)
    certify(matrix, leakage)
    q.setflags(write=False)
    matrix.setflags(write=False)
    return Closure(matrix=matrix, basis=held(cells, q))


def projector(spec, k):
    """The projector of a spectrum's block k, B B*."""
    b = np.asarray(spec.blocks[k])
    return b @ b.conj().T


def make_state(amplitudes):
    """A frozen unit-norm complex128 copy of the amplitudes."""
    amps = np.array(amplitudes, dtype=complex)
    if amps.ndim != 1:
        raise DimensionMismatchError("amplitudes must be a one-dimensional vector")
    require_within("state is not unit-norm: its norm is {value:.3e} from 1",
                   abs(math.sqrt(norm2(amps)) - 1.0), DEFAULT_POLICY.unit_norm_tol,
                   ConfigurationError)
    amps.setflags(write=False)
    return amps


def split(basis, x):
    """Views of the blocks of a full-length vector."""
    bounds = basis.bounds
    return [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _dense_columns(op, lo, hi, dtype=complex):
    """Columns lo..hi-1 of the materialized matrix, float64 ones only for a real operator."""
    bounds = op.basis.bounds
    u = np.zeros((op.dimension, hi - lo), dtype=dtype)
    for k, role in enumerate(op.roles):
        cols = np.arange(max(lo, bounds[role]), min(hi, bounds[role + 1]))
        if k == 0:  # the hub: t onto every out row, then -r back along the spoke
            u[bounds[0]:bounds[1], cols - lo] = op.hub_t
        u[bounds[k] + cols - bounds[role], cols - lo] = -op.hub_r if k == 0 else 1.0
    src, dst = flat_rows(op, op.src), flat_rows(op, op.dst)
    u[dst] = 0.0
    inside = (lo <= src) & (src < hi)
    u[dst[inside], src[inside] - lo] = _amplitudes(op, u)[inside]
    return u


# the largest dimension the dense references form
DENSE_CAP = 5000


def dense_matrix(op):
    """The step as a complex128 matrix, refused past DENSE_CAP."""
    cap = DENSE_CAP
    if op.dimension > cap:
        raise SizeError(f"dimension {op.dimension} over dense cap {cap}")
    return _dense_columns(op, 0, op.dimension)


# the dense eigensolver's thresholds: a cluster groups phases within
# CLUSTER_TOL, capped at SWEEP_CLUSTER_SCALE / N in a sweep at N; a
# cluster's eigenvectors span its multiplicity when none leaves a residual
# below RANK_TOL once orthogonalized against the others; every eigenvalue
# lies within UNIT_CIRCLE_TOL of the unit circle
CLUSTER_TOL = 1e-6
SWEEP_CLUSTER_SCALE = 0.01
RANK_TOL = 1e-8
UNIT_CIRCLE_TOL = 1e-9


def cluster_tol_at(n_spokes):
    """CLUSTER_TOL, capped at SWEEP_CLUSTER_SCALE / N to stay well under the
    smallest expected splitting, which shrinks like 1/N on simple branches."""
    return min(CLUSTER_TOL, SWEEP_CLUSTER_SCALE / n_spokes)


def cluster_phases(thetas, tol):
    """Group sorted phase indices whose neighbors are within tol.

    The two ends of (-pi, pi] are identified, so clusters hugging the
    branch cut from both sides are merged.
    """
    thetas = thetas.tolist()
    order = sorted(range(len(thetas)), key=thetas.__getitem__)
    groups = [[order[0]]]
    for idx in order[1:]:
        if thetas[idx] - thetas[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    if len(groups) > 1:
        wrap_gap = (thetas[groups[0][0]] + 2.0 * math.pi) - thetas[groups[-1][-1]]
        if wrap_gap <= tol:
            groups[-1].extend(groups[0])
            groups.pop(0)
    return groups


def representative(thetas, tol):
    """Circular mean, stable for clusters straddling the branch cut; a mean
    within tol of -pi is the branch at pi, reported there as theta + 2 pi."""
    theta = float(np.angle(np.exp(1j * thetas).sum()))
    if theta <= -math.pi + tol:
        theta += 2.0 * math.pi
    return theta


def eigendecompose(mat, cluster_tol=None):
    """The reference eigensystem of a square unitary matrix: numpy's dense
    eig, its phases clustered within cluster_tol (CLUSTER_TOL by default).

    Every eigenpair is certified by its residual and every eigenvalue must
    sit on the unit circle before its phase is taken; each cluster's
    eigenvectors are orthonormalized by CGS2, and the clusters must form
    an orthonormal frame.  Failures raise rather than degrade.
    """
    policy = DEFAULT_POLICY
    try:
        mat = np.asarray(mat, dtype=complex)
    except ValueError:  # ragged input, such as a Closure
        raise DimensionMismatchError(
            f"expected a square matrix, got a ragged {type(mat).__name__}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    d = mat.shape[0]
    if d > DENSE_CAP:
        raise SizeError(f"dimension {d} exceeds dense cap {DENSE_CAP}")
    if d == 0:
        return Spectrum(eigenphases=(), blocks=(), multiplicities=(), poles=(), roots=())
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL

    if not np.isfinite(mat).all():
        raise NumericalFailureError("the matrix holds an inf or a nan")
    values, vectors = np.linalg.eig(mat)
    residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
    require_within("eigenpair residual {value:.3e} exceeds {tol:.1e}", residuals.max(),
                   policy.eig_residual_tol)
    moduli = np.abs(values)
    require_within("eigenvalue modulus deviates from 1 by {value:.3e}",
                   np.abs(moduli - 1.0).max(), UNIT_CIRCLE_TOL)
    thetas = np.angle(values / moduli)

    phases = []
    blocks = []
    mults = []
    for group in cluster_phases(thetas, cluster_tol):
        frame = vectors[:, group].T.copy()
        for i, vec in enumerate(frame):
            res = orthogonalize(vec, frame[:i], RANK_TOL)
            if not res >= RANK_TOL:  # a nan fails too, before the division
                raise NumericalFailureError(
                    "eigenvector cluster is rank deficient; matrix is not normal")
            vec *= 1.0 / res
        phases.append(representative(thetas[group], cluster_tol))
        blocks.append(frame.T)
        mults.append(len(group))
    order = sorted(range(len(phases)), key=phases.__getitem__)
    phases, blocks, mults = ([seq[k] for k in order] for seq in (phases, blocks, mults))

    stacked = np.concatenate(blocks, axis=1)
    require_within("eigenvector clusters are not an orthonormal frame (deviation {value:.3e})",
                   np.abs(stacked.conj().T @ stacked - np.eye(d)).max(), policy.projector_tol)
    for b in blocks:
        b.setflags(write=False)
    return Spectrum(eigenphases=tuple(phases), blocks=tuple(blocks),
                    multiplicities=tuple(mults), poles=(), roots=())


def dense_deviation(op):
    """max|U†U - I| of the materialized matrix, at any dimension.

    The product is formed one pair of column slabs of 2^20 entries (16 MiB
    complex) at a time, in float64 for a real operator; U†U is Hermitian,
    so the blocks on and above the diagonal cover every entry.
    """
    d = op.dimension
    width = max(1, (1 << 20) // d)
    dtype = float if is_real(op) else complex
    dev = 0.0
    for lo in range(0, d, width):
        left = _dense_columns(op, lo, min(d, lo + width), dtype).conj().T
        for lo2 in range(lo, d, width):
            gram = left @ _dense_columns(op, lo2, min(d, lo2 + width), dtype)
            if lo2 == lo:
                gram -= np.eye(len(gram))
            dev = max(dev, float(np.abs(gram).max()))
    return dev


def flat_rows(op, located):
    """The rows of the basis at (block, offset) pairs."""
    return np.array([op.basis.bounds[b] + k for b, k in located], dtype=np.intp)


def apply_into(op, x, out):
    """One step from one full-length vector into another, by the role table.

    No zero fill is needed: the hub rule writes the whole outgoing block,
    the other blocks are written from their roles and the patches then
    overwrite their rows (the tiling is checked when the operator is
    constructed).  The hub rule t*sum(in) - in equals -r*in + t*(sum(in) - in)
    as r + t = 1 (checked at build time).  Buffers are complex128, or
    float64 when the operator is real.
    """
    old, new = split(op.basis, x), split(op.basis, out)
    hub = old[op.roles[0]]
    np.subtract(op.hub_t * hub.sum(), hub, out=new[0])
    for k, role in enumerate(op.roles[1:], 1):
        new[k][...] = old[role]
    out[flat_rows(op, op.dst)] = _amplitudes(op, out) * x[flat_rows(op, op.src)]
    return out


def reduce_operator(op, basis):
    """Express the step operator in the reduced basis as V* U V.

    One basis vector at a time is built, stepped into one reused work
    vector and decomposed on the basis.  The basis must actually be
    invariant: the part of each image outside the span is the invariance
    residual, certified against DEFAULT_POLICY.invariance_tol.
    """
    basis = held(basis)
    if basis.full_dim != op.dimension:
        raise DimensionMismatchError(
            f"basis lives in dimension {basis.full_dim}, "
            f"operator in {op.dimension}")
    work = np.empty(basis.full_dim, dtype=walk_dtype(op, basis.coords))
    reduced = np.empty((basis.dim, basis.dim), dtype=complex)
    leakage = 0.0
    for k, e in enumerate(np.eye(basis.dim)):
        reduced[:, k], leak = decompose(basis, apply_into(op, lift(basis, e), work))
        leakage = max(leakage, leak)
    certify(reduced, leakage)
    return Closure(matrix=reduced, basis=basis)


def uniform_profile(basis):
    """The uniform bulk profile of a basis held on cells as a float64 row
    of length N, built as it was first written: ones over sqrt(N - k),
    zero on the k anomaly offsets."""
    uniform = np.full(basis.n_spokes, 1.0 / np.sqrt(basis.n_spokes - len(basis.anomalous)))
    uniform[basis.anomalous] = 0.0
    return uniform


def lift(basis, c):
    """The full-dimension vector with coefficients c on a basis held on
    cells, each bulk block filled from the explicit uniform profile."""
    basis = held(basis)
    if np.shape(c) != (basis.dim,):
        raise DimensionMismatchError(
            f"expected {basis.dim} coefficients, got shape {np.shape(c)}")
    profile = uniform_profile(basis)
    cells = real_valued(c @ basis.coords)
    x = np.zeros(basis.full_dim, np.result_type(profile, cells))
    for k, block in enumerate(basis.blocks):
        np.multiply(cells[k], profile, out=x[block])
    x[basis.units] = cells[len(basis.blocks):]
    return x


def decompose(basis, x):
    """Coefficients c = V*x on a basis held on cells, read through the
    explicit uniform profile, and the norm of x - Vc."""
    basis = held(basis)
    if x.shape != (basis.full_dim,):
        raise DimensionMismatchError(
            f"vector of shape {x.shape} against a basis in dimension {basis.full_dim}")
    x = real_valued(x)
    profile = uniform_profile(basis)
    cells = np.concatenate([[profile @ x[block]] for block in basis.blocks]
                           + [x[basis.units]])
    c = basis.coords.conj() @ cells
    return c, np.linalg.norm(lift(basis, c) - x)


def records(walk, k):
    """The columns p_target_spokes, p_anomaly and p_rest as numpy first
    summed them: `walk()` returns the amplitudes at the target rows (the
    first k columns) and the anomaly rows, one array row per step, and the
    squared norm, one value or one per step; each column's weights
    re^2 + im^2 are added into the splits as whole columns."""
    amps, total = walk()
    pts, pas = np.zeros(len(amps)), np.zeros(len(amps))
    for j in range(amps.shape[1]):
        weight = amps[:, j].real ** 2
        weight += amps[:, j].imag ** 2
        split = pts if j < k else pas
        split += weight
    rests = total - pts
    rests -= pas
    np.maximum(rests, 0.0, out=rests)
    return pts, pas, rests


def explicit_reduced_records(op, cells, x0, steps, target_rows, anomaly_rows):
    """The reduced walk's columns on cells whose uniform profile is an
    explicit row: V*UV from `reduce_operator` stepped from V*x0, and the target and
    anomaly rows of V lifted column by column."""
    m = reduce_operator(op, cells).matrix
    c, _ = decompose(cells, x0)
    v = np.stack([lift(cells, e) for e in np.eye(cells.dim)], axis=1)
    rows = v[np.concatenate((target_rows, anomaly_rows))]

    def walk(c=c):
        amps = np.empty((steps + 1, len(rows)), np.result_type(m, rows, c))
        totals = np.empty(steps + 1)
        for n in range(steps + 1):
            if n:
                c = m @ c
            amps[n], totals[n] = rows @ c, norm2(c)
        return amps, totals

    return records(walk, len(target_rows))


def uniform_state(basis, rows):
    """Equal amplitudes on the rows (a slice or an index array), zero elsewhere."""
    amps = np.zeros(basis.dim)
    count = amps[rows].size
    if not count:
        raise ConfigurationError("vertex set must be non-empty")
    amps[rows] = 1.0 / np.sqrt(count)
    return make_state(amps)


def hub_out_state(basis):
    """Uniform superposition over all hub-outgoing spoke states."""
    return uniform_state(basis, slice(*basis.bounds[0:2]))


def hub_in_state(basis):
    return uniform_state(basis, slice(*basis.bounds[1:3]))


def all_loops_state(basis):
    """Uniform superposition over all loop states (needs one loop per vertex)."""
    if not basis.anomaly.schema.loops:
        raise ConfigurationError("graph does not carry a loop on every vertex")
    return uniform_state(basis, basis.anomaly_block)


def symmetric_out_state(basis, vertices):
    """Uniform superposition of (0,j) over the given outer vertices."""
    return uniform_state(basis, basis.out_rows(vertices))


def symmetric_in_state(basis, vertices):
    """Uniform superposition of (j,0) over the given outer vertices."""
    return uniform_state(basis, basis.in_rows(vertices))


def hand_columns(basis, u, v):
    """The invariant basis of extra_edge(u, v) built by hand, as columns:
    the symmetric out and in states of u and v, of the bulk, and the chord."""
    bulk = [j for j in range(1, basis.n_spokes + 1) if j not in (u, v)]
    chord = np.zeros(basis.dim, dtype=complex)
    chord[[basis.position(BasisLabel.edge(u, v)), basis.position(BasisLabel.edge(v, u))]] = 2 ** -0.5
    return np.stack([symmetric_out_state(basis, (u, v)), symmetric_in_state(basis, (u, v)),
                     symmetric_out_state(basis, bulk), symmetric_in_state(basis, bulk), chord],
                    axis=1)


def family_generators(basis, kind):
    """The generators of a named kind's family as full-length states: the
    uniform out and in states, and the loops' for the loop kinds."""
    generators = [hub_out_state(basis), hub_in_state(basis)]
    if kind.variant in ("loop_pi", "loop_third"):
        generators.append(all_loops_state(basis))
    return generators


def named_start(graph, kind):
    """A named kind's start state as first written: its family's generators
    weighted out, in and, for the loop kinds, loops, and normalised by
    the norm of their sum summed exactly.  The loop_third weights
    conjugate for a negative marking phase, as the walk does."""
    third = np.exp(2j * np.pi / 3)
    if graph.anomaly.mark_phase.value < 0:
        third = third.conjugate()
    weights = {"minus": (1.0, -1.0), "plus": (1.0, 1.0), "inout": (kind.amp_out, kind.amp_in),
               "loop_pi": (1.0, 1.0, 1.0), "loop_third": (third.conjugate(), 1.0, third)}
    generators = family_generators(make_basis(graph), kind)
    amps = sum(w * g for w, g in zip(weights[kind.variant], generators))
    return make_state(amps / math.sqrt(math.fsum((np.abs(amps) ** 2).tolist())))


def place(basis, vectors):
    """The star's cells and, as rows on them, full-length vectors that are
    uniform on the bulk of every bulk block; a part of a vector off the
    cells past DEFAULT_POLICY.invariance_tol is refused."""
    cells = star_cells(basis)
    v = lifted(cells)
    rows = np.array([v.conj().T @ x for x in vectors])
    leakage = max((np.linalg.norm(x - v @ row) for x, row in zip(vectors, rows)), default=0.0)
    require_within("leakage {value:.3e} off the cells", leakage, DEFAULT_POLICY.invariance_tol,
                   InvarianceError)
    return cells, rows


def reduce_states(op, states):
    """The closure of full-length seed states, placed on cells."""
    return reduce_seeds(op, *place(op.basis, states))


def seed_vectors(cells, rows):
    """Seeds given as rows on cells, lifted to full-length vectors."""
    return [lift(cells, np.asarray(row)) for row in rows]


def label_at(basis, pos):
    """The label at a position of the basis: the inverse of `position`."""
    n = basis.n_spokes
    if not 0 <= pos < basis.dim:
        raise ConfigurationError(f"position {pos} outside 0..{basis.dim - 1}")
    if pos < n:
        return BasisLabel.edge(0, pos + 1)
    if pos < 2 * n:
        return BasisLabel.edge(pos - n + 1, 0)
    if basis.anomaly.schema.loops:
        return BasisLabel.loop(pos - 2 * n + 1)
    # the tail's labels join the anomaly's vertices and the extension's tip,
    # n + 1; `position` places those the basis holds
    ends = {basis.anomaly.u, basis.anomaly.v, basis.anomaly.at, n + 1} - {None}
    tail = {}
    for label in [*map(BasisLabel.loop, ends),
                  *(BasisLabel.edge(u, v) for u in ends for v in ends if u != v)]:
        with contextlib.suppress(ConfigurationError):
            tail[basis.position(label)] = label
    return tail[pos]


def build_unperturbed(graph):
    """The walk with the hub replaced by pure reflection (r=1, t=0).  The
    size-infinity limit of the step operator is this walk plus 2|bo><bi|
    over the bulk uniforms (`reference_limit`), which `perturb` reaches
    without building it, as a rank-two change to the step on the star's
    cells."""
    return build_scattering_operator(graph, 1.0, 0.0)


def sweep_seeds(graph):
    """The perturbation sweep's closure seeds as first written, placed on
    cells: the uniform out and in states, the loops' on a star with a loop
    on every vertex, and the symmetric out state of the anomaly vertices."""
    basis = make_basis(graph)
    states = [hub_out_state(basis), hub_in_state(basis)]
    if graph.anomaly.schema.loops:
        states.append(all_loops_state(basis))
    if graph.anomaly_vertices:
        states.append(symmetric_out_state(basis, graph.anomaly_vertices))
    return place(basis, states)


def reference_limit(graph, basis):
    """V*U0V + 2(V*bo)(V*bi)* with U0 the reflection walk applied column by
    column and bo, bi the bulk uniforms; None when the basis is not closed
    under U0 or misses a bulk uniform."""
    u0 = build_unperturbed(graph)
    v = lifted(basis)
    work = np.empty(basis.full_dim, dtype=complex)
    images = np.stack([apply_into(u0, v[:, k].astype(complex), work).copy()
                       for k in range(basis.dim)], axis=1)
    core = v.conj().T @ images
    bulk = [j for j in range(1, graph.n_spokes + 1) if j not in graph.anomaly_vertices]
    bo = symmetric_out_state(u0.basis, bulk)
    bi = symmetric_in_state(u0.basis, bulk)
    cbo, cbi = v.conj().T @ bo, v.conj().T @ bi
    leakage = max(np.linalg.norm(images - v @ core, axis=0).max(),
                  np.linalg.norm(bo - v @ cbo), np.linalg.norm(bi - v @ cbi))
    if leakage > DEFAULT_POLICY.invariance_tol:
        return None
    return core + 2.0 * np.outer(cbo, cbi.conj())


def reference_operators(graph):
    """The perturbation sweep's step and limit as first built: the closure
    of `sweep_seeds` under the step, and `reference_limit` on it, which
    must exist and be unitary."""
    finite = reduce_seeds(build_step_operator(graph), *sweep_seeds(graph))
    limit = reference_limit(graph, finite.basis)
    if limit is None:
        raise InvarianceError("the sweep's closure misses a bulk uniform or leaks under U0")
    certify(limit, 0.0)
    return finite, Closure(matrix=limit, basis=finite.basis)


def named_kinds(graph):
    """Every named start-state kind the graph admits."""
    kinds = [InitialStateKind.minus(), InitialStateKind.plus(), InitialStateKind.inout(1.0, 0.5j)]
    if graph.anomaly.schema.loops:
        kinds += [InitialStateKind.loop_pi(), InitialStateKind.loop_third()]
    return kinds


def reference_spectra(graph):
    """The perturbation sweep's two spectra as first computed: the dense
    eigensystems of `reference_operators`, clustered as a sweep at N was."""
    tol = cluster_tol_at(graph.n_spokes)
    return tuple(eigendecompose(op.matrix, tol) for op in reference_operators(graph))


# a finite cluster belongs to the limit branch its eigenvectors overlap
# most, by a margin of at least MATCH_TOL over the next
MATCH_TOL = 0.1


def eigenphase_shifts(perturbed, unperturbed):
    """The sweep's branch matching as first written: each perturbed cluster
    goes to the limit branch whose eigenvectors overlap it most, and every
    limit branch must receive exactly its multiplicity; a tie within
    MATCH_TOL or a count that differs raises."""
    if perturbed.dim != unperturbed.dim:
        raise DimensionMismatchError(
            f"spectra have dimensions {perturbed.dim} and {unperturbed.dim}")
    k0 = len(unperturbed.eigenphases)
    kc = len(perturbed.eigenphases)
    overlap = np.empty((k0, kc))
    for k, w0 in enumerate(map(np.asarray, unperturbed.blocks)):
        for c, wc in enumerate(map(np.asarray, perturbed.blocks)):
            overlap[k, c] = (np.linalg.norm(w0.conj().T @ wc) ** 2
                             / wc.shape[1])

    assigned = [[] for _ in range(k0)]
    for c in range(kc):
        col = overlap[:, c].tolist()
        order = sorted(range(k0), key=col.__getitem__, reverse=True)
        best = col[order[0]]
        second = col[order[1]] if k0 > 1 else 0.0
        if best - second < MATCH_TOL:
            raise NumericalFailureError(
                f"cluster at phase {perturbed.eigenphases[c]:.6f} overlaps "
                f"branches {unperturbed.eigenphases[order[0]]:.6f} and "
                f"{unperturbed.eigenphases[order[1]]:.6f} almost equally "
                f"({best:.3f} vs {second:.3f})")
        assigned[order[0]].append(c)

    shifts_out = []
    for k in range(k0):
        theta0 = unperturbed.eigenphases[k]
        mult0 = unperturbed.multiplicities[k]
        received = sum(perturbed.multiplicities[c] for c in assigned[k])
        if received != mult0:
            raise NumericalFailureError(
                f"branch {theta0:.6f} received {received} eigenvalues, "
                f"expected {mult0}")
        shifts = []
        quality = 0.0
        for c in assigned[k]:
            delta = wrap(perturbed.eigenphases[c] - theta0)
            shifts.extend([delta] * perturbed.multiplicities[c])
            quality += perturbed.multiplicities[c] * overlap[k, c]
        quality /= mult0
        shifts_out.append(EigenShift(theta0=theta0, multiplicity0=mult0,
                                     shifts=tuple(shifts), overlap=quality))
    return shifts_out


def branch_labels(samples):
    """The label of each (n, EigenShift) sample's branch, as the sweep first
    gave it: the limit phase of the branch's first sample.  Branches are
    told apart at 1e-9 in circular distance, so the two ends of (-pi, pi]
    are one branch, and so are round-off variants of one phase; the branch
    at 0 is labelled exactly 0."""
    labels = []
    for _, shift in samples:
        near = (label for label in labels if round(wrap(shift.theta0 - label), 9) == 0)
        labels.append(next(near, 0.0 if round(shift.theta0, 9) == 0 else shift.theta0))
    return labels


def reference_sweep(anomaly, sizes=DEFAULT_SWEEP_SIZES):
    """The perturbation sweep as first computed: at every size both spectra
    by `reference_spectra`, matched by `eigenphase_shifts`, every sample
    relabelled by `branch_labels`, then fitted by `fit_scaling`."""
    samples = [(n, shift) for n in sizes
               for shift in eigenphase_shifts(*reference_spectra(build_star(n, anomaly)))]
    samples = tuple((n, shift._replace(theta0=label))
                    for label, (n, shift) in zip(branch_labels(samples), samples))
    return SweepResult(samples=samples, fits=tuple(fit_scaling(samples)))


def homotopy_branches(q, bi, i, steps=4000):
    """Each eigenphase of Q(I - 2|i><i|) with the eigenphase of the limit
    Q(I - 2|bi><bi|) it continues from, as (limit, finite) pairs sorted:
    i_a = cos(a) bi + sin(a) u, u the unit part of i orthogonal to bi,
    turns from bi to i in equal steps of a, and at each step every phase
    goes to the dense eigenphase nearest its linear extrapolation, the
    closest pairs first."""
    q, bi, i = (np.asarray(x, dtype=complex) for x in (q, bi, i))
    c = np.vdot(bi, i)
    rest = i - c * bi
    r = np.linalg.norm(rest)
    head, u, end = bi * c / abs(c), rest / r, math.atan2(r, abs(c))

    def phases(a):
        x = math.cos(a) * head + math.sin(a) * u
        return np.angle(np.linalg.eigvals(q - 2.0 * np.outer(q @ x, x.conj())))

    start = now = before = phases(0.0)  # tracked unwrapped, off the circle
    for a in np.linspace(0.0, end, steps + 1)[1:]:
        guess, found = 2.0 * now - before, phases(a)
        gap = np.abs(np.angle(np.exp(1j * (guess[:, None] - found[None, :]))))
        pick = {}  # tracked phase -> the dense one it goes to
        for j, m in zip(*np.unravel_index(np.argsort(gap, axis=None), gap.shape)):
            if j not in pick and m not in pick.values():
                pick[j] = m
        found = found[[pick[j] for j in range(len(now))]]
        before, now = now, now + np.angle(np.exp(1j * (found - now)))
    return sorted(zip(start.tolist(), np.angle(np.exp(1j * now)).tolist()))


def apply_adjoint_into(op, x, out):
    """U adjoint on a flat vector: the hub rule transposed, then each
    relabelled block and each patch run backwards, the patches with the
    conjugate amplitude."""
    new, old = split(op.basis, x), split(op.basis, out)
    np.subtract(op.hub_t * new[0].sum(), new[0], out=old[op.roles[0]])
    for k, role in enumerate(op.roles[1:], 1):
        old[role][...] = new[k]
    out[flat_rows(op, op.src)] = np.conj(_amplitudes(op, out)) * x[flat_rows(op, op.dst)]
    return out


def flat_walk_records(op, x0, steps, target_rows, anomaly_rows):
    """The full walk's columns p_target_spokes, p_anomaly and p_rest as
    first written: one flat vector stepped by `apply_into` into a second
    buffer, its rows read by index and its total taken over the whole
    vector, step by step."""
    x = _cast(x0, walk_dtype(op, x0))
    buf = np.empty_like(x)
    rows = []
    for n in range(steps + 1):
        if n:
            apply_into(op, x, buf)
            x, buf = buf, x
        pt = float((np.abs(x[target_rows]) ** 2).sum())
        pa = float((np.abs(x[anomaly_rows]) ** 2).sum())
        total = float((np.abs(x) ** 2).sum()) if np.iscomplexobj(x) else float(x @ x)
        rows.append((pt, pa, max(total - pt - pa, 0.0)))
    return tuple(np.array(rows).T)


def lifted(basis):
    """The full-dimension columns V of a basis held on cells, through `rows`."""
    return held(basis).rows(np.arange(basis.full_dim))


def reduce_columns(op, cols):
    """V*UV for orthonormal columns V, U applied column by column, and the
    largest norm of an image outside the span of V."""
    work = np.empty(op.dimension, dtype=complex)
    images = np.stack([apply_into(op, col.astype(complex), work).copy()
                       for col in cols.T], axis=1)
    matrix = cols.conj().T @ images
    return matrix, np.linalg.norm(images - cols @ matrix, axis=0).max()


def reference_closure(op, seeds, cap=200):
    """The closure of full-length seed vectors as first written, in the
    full dimension: complex columns
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
        if res > CLOSURE_RESIDUAL:
            cols[:, count] = vec / res
            count += 1

    for seed in seeds:
        absorb(seed.astype(complex))
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
    """Orthonormal columns spanning the closure of full-length seed vectors
    under the dense U and U adjoint: the column space is grown by SVD rank
    until it stops."""
    u = dense_matrix(op)
    cols = np.stack(seeds, axis=1)
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


def walk_state(walk):
    """The state of a `BlockWalk` as one flat vector: each block its bulk
    value, then the rows its steps wrote."""
    blocks = [np.full(n, v, complex) for n, v in zip(walk.lengths, walk.bulk)]
    for block, rows in zip(blocks, walk.rows):
        for k, x in rows.items():
            block[k] = x
    return np.concatenate(blocks)


def walk_values(walk):
    """Every value a `BlockWalk` holds: its bulk values, then its written rows."""
    return [*walk.bulk, *(x for rows in walk.rows for x in rows.values())]


def reference_draws(graph, trials, seed):
    """The baseline's query counts as numpy first drew them: the standard
    library generator's bytes as little-endian 64-bit words, their top 53
    bits times 2^-53, each uniform inverted to its rank in whole-array
    operations."""
    bits = np.frombuffer(random.Random(seed).randbytes(8 * trials), "<u8") >> 11
    m = bits * 2.0 ** -53
    n, k = graph.n_spokes, len(graph.anomaly_vertices)
    c = (k - 1) / 2
    m *= float(math.perm(n, k))
    m += c * c
    if k == 2:
        np.sqrt(m, out=m)
    m += c
    np.floor(m, out=m)
    np.clip(m, k - 1, n - 1, out=m)
    np.subtract(n, m, out=m)
    return m.astype(np.int64)


def reference_statistics(graph, trials, seed):
    """`baseline_statistics` of the reference draws, from their sum and sum
    of squares taken in Python integers."""
    draws = reference_draws(graph, trials, seed).tolist()
    total, squares = sum(draws), sum(q * q for q in draws)
    return BaselineStatistics(trials=trials, mean=total / trials,
                              std=math.sqrt((trials * squares - total * total) / trials ** 2),
                              expected_mean=(graph.n_spokes + 1) / (len(graph.anomaly_vertices) + 1))
