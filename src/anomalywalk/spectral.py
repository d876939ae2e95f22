"""Eigenphases of the walk's step, read from its structure.

On the star's cells the step is M = Q(I - 2|i><i|): Q, the walk with pure
reflection at the hub, is a generalised permutation of unit-modulus
entries that does not depend on N, and i, the uniform incoming state, is
cos(alpha) times a bulk cell plus sin(alpha) times a unit direction,
sin(alpha)^2 = k/N.  As for any rank-one modification (Golub, SIAM Review
15, 318 (1973); Bunch, Nielsen and Sorensen, Numer. Math. 31, 31 (1978)),
a pole of Q (its cycles give them in closed form) of multiplicity d keeps
d - 1 eigenvalues, all d when i misses it, and one root of
g(theta) = sum_k |P_k i|^2 cot((theta - phi_k)/2) lies between each two
poles i meets.  No cycle mixes bulk and unit cells, so whether i misses
an eigenvector of Q is read from an N-free overlap, never from a weight
that shrinks like 1/N; a root is held as its offset from a pole, so one
1e-12 from a weak pole keeps its relative precision.
"""

import cmath
import math
from itertools import accumulate
from typing import NamedTuple

from .errors import DimensionMismatchError, NumericalFailureError
from .numerics import DEFAULT_POLICY, frame_deviation, largest, nonzeros, norm2, require_within

_EPS = 2.0 ** -52  # the float64 machine epsilon


class Spectrum(NamedTuple):
    """Eigenphases in (-pi, pi], ascending, each with a block of orthonormal
    eigenvector columns, held as its dim rows of complexes.  The
    multiplicities sum to dim, but for a family's spectrum, which holds
    only the part of the space the family's closure spans.  poles are the
    phases, ascending, of the poles of Q that i meets, and roots[k] is the
    phase of the root of g between poles[k] and the next pole; both are
    empty for a spectrum not read from Q."""

    eigenphases: tuple[float, ...]
    blocks: tuple[tuple[tuple[complex, ...], ...], ...]
    multiplicities: tuple[int, ...]
    poles: tuple[float, ...]
    roots: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0


def _at(anchor: float, t: float) -> float:
    """anchor + t in (-pi, pi], the anchor moved by 2 pi first if need be,
    so that t keeps the bits the wrapped sum would round away."""
    if -math.pi < anchor + t <= math.pi:
        return anchor + t
    return (anchor - math.copysign(2.0 * math.pi, anchor)) + t


def _unit(v: list) -> list:
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return [x / norm for x in v]


def _eigenbasis(q: list) -> list:
    """(phase, first cell of its cycle, eigenvector) of each eigenvalue of
    the generalised permutation q, ascending: a cycle of L cells, c_j moved
    to c_{j+1} times a_j, has the L roots of a_0..a_{L-1} as eigenvalues,
    exact multiples of pi/L when real, with entries a_0..a_{j-1} e^{-i j phi}
    / sqrt(L)."""
    moves = [[(row, x) for row, x in enumerate(col) if x] for col in zip(*q)]
    if any(len(move) != 1 for move in moves):
        raise NumericalFailureError("the reflection walk is not a generalised permutation")
    pairs, seen = [], set()
    for start in range(len(q)):
        cycle, cell = [], start
        while cell not in seen:
            seen.add(cell)
            cycle.append((cell, moves[cell][0][1]))
            cell = moves[cell][0][0]
        if cycle and cell != start:
            raise NumericalFailureError("the reflection walk is not a permutation of its cells")
        n, p = len(cycle), math.prod(amp for _, amp in cycle)
        for k in range(n):
            turn = 2 * k + (p.real < 0)
            phase = (math.pi * (turn - 2 * n if turn > n else turn) / n if p.imag == 0
                     else _at((cmath.phase(p) + 2.0 * math.pi * k) / n, 0.0))
            vec, x = [0j] * len(q), n ** -0.5
            for j, (cell, amp) in enumerate(cycle):
                vec[cell], x = x * cmath.exp(-1j * j * phase), x * amp
            pairs.append((phase, start, vec))
    return sorted(pairs, key=lambda pair: pair[0])


def _stays(cols: list, a: list) -> list:
    """Coefficients of an orthonormal basis of a pole's eigenvectors
    orthogonal to i, whose overlaps are a: each one i misses, and a
    Householder complement of a among the others."""
    basis = [[float(c == m) for c in range(len(a))] for m in cols if not a[m]]
    live = [m for m in cols if a[m]]
    if len(live) > 1:
        top = max(live, key=lambda m: abs(a[m]))
        w = {m: a[m] for m in live}
        w[top] += math.sqrt(sum(abs(a[m]) ** 2 for m in live)) * a[top] / abs(a[top])
        scale = 2.0 / sum(abs(x) ** 2 for x in w.values())
        basis += [[(c == m) - scale * w[c] * w[m].conjugate() if c in w else 0j
                   for c in range(len(a))] for m in live if m != top]
    return basis


def _secular(live: list, anchor: float, t: float) -> tuple[float, float, float]:
    """F(t) = sin(t/2) g(anchor + t), its derivative, and the sum of its
    terms' sizes, which bounds its round-off; the anchor's own term is
    taken in closed form, so F is smooth where the anchor is a pole."""
    f = df = size = 0.0
    s, c = math.sin(t / 2), math.cos(t / 2)
    for phase, w in live:
        if phase == anchor:
            f, df, size = f + w * c, df - 0.5 * w * s, size + w * abs(c)
        else:
            x = (t + (anchor - phase)) / 2
            cot = math.cos(x) / math.sin(x)
            f, size = f + s * w * cot, size + abs(s * w * cot)
            df += 0.5 * c * w * cot - s * w / (2.0 * math.sin(x) ** 2)
    return f, df, size


def _root(live: list, k: int) -> tuple[float, float]:
    """The root of g between live pole k and the next, as (anchor pole,
    offset): Newton on F from the pole nearer the root, started from F's
    quadratic model there and kept inside the arc by bisection."""
    (left, _), (right, _) = live[k], live[(k + 1) % len(live)]
    length = (right - left) % (2.0 * math.pi) or 2.0 * math.pi
    if len(live) == 1:  # g is one cot, which vanishes opposite its pole
        return left, math.pi
    mid, _, size = _secular(live, left, length / 2)
    if abs(mid) <= 4.0 * _EPS * size:
        return left, length / 2
    anchor, far = (right, -length) if mid > 0 else (left, length)
    # F ~ w + b t + c t^2 for the rest of g there; its root on the anchor's
    # side is of order 1/sqrt(N) on a split degenerate branch, -w/b on a simple one
    w, b, c = next(w for phase, w in live if phase == anchor), 0.0, 0.0
    for phase, wk in live:
        if phase != anchor:
            b += wk / (2.0 * math.tan((anchor - phase) / 2))
            c -= wk / (4.0 * math.sin((anchor - phase) / 2) ** 2)
    q = -(b + math.copysign(math.sqrt(b * b - 4.0 * c * w), b)) / 2
    t, near = (max if far > 0 else min)(q / c, w / q), 0.0  # F > 0 at near, < 0 at far
    for _ in range(100):
        if not min(near, far) < t < max(near, far):
            t = (near + far) / 2
        f, df, size = _secular(live, anchor, t)
        near, far = (t, far) if f > 0 else (near, t)
        step = f / df if df else t - (near + far) / 2
        if abs(f) <= 4.0 * _EPS * size:  # a last step within F's round-off
            return anchor, t - step if min(near, far) < t - step < max(near, far) else t
        t -= step
    return anchor, t


def _vanishes(terms: list, tol: float) -> bool:
    """Whether terms of one order in N cancel within tol of their size."""
    return abs(sum(terms)) <= tol * sum(map(abs, terms))


def secular_spectrum(q, i, bulk: int, family=None) -> Spectrum:
    """The spectrum of M = Q(I - 2|i><i|), read from Q and i, each eigenpair
    certified by its residual and the eigenvectors as an orthonormal frame.

    q is a generalised permutation of unit-modulus entries and i a unit
    vector; the first `bulk` coordinates are bulk cells, the rest unit
    cells.  With `family`, rows that hold i and are, like i, a bulk part
    times cos(alpha) plus a unit part times sin(alpha), it is M's spectrum
    on the smallest invariant subspace holding them, counting on each
    branch their rank there: a root carries i, and an eigenspace that
    stays is orthogonal to i and Qi, so one row beyond those reaches it
    or none does, decided from N-free overlaps.
    """
    tol = DEFAULT_POLICY.structure_tol
    q, i = [[complex(x) for x in row] for row in q], [complex(x) for x in i]
    if len(q) != len(i) or any(len(row) != len(i) for row in q):
        raise DimensionMismatchError(f"a step of {len(q)} rows and i of {len(i)} entries")
    phases, firsts, columns = zip(*_eigenbasis(q))
    supports, kinds = [nonzeros(col) for col in columns], [first < bulk for first in firsts]
    # each row's overlaps with Q's eigenvectors, 0 where at most tol times
    # the norm of the row's part (bulk or unit) that the eigenvector lies in
    rows = [i, *(() if family is None else ([complex(x) for x in row] for row in family))]
    parts = [(math.sqrt(norm2(row[bulk:])), math.sqrt(norm2(row[:bulk]))) for row in rows]
    a, *seeds = [[x if abs(x) > tol * part[kind] else 0j
                  for x, kind in zip((sum(row[c] * y.conjugate() for c, y in support)
                                      for support in supports), kinds)]
                 for part, row in zip(parts, rows)]
    poles: list = []  # (phase, columns), phases within tol taken as one, across the cut too
    for col, phase in enumerate(phases):
        if poles and phase - poles[-1][0] <= tol:
            poles[-1][1].append(col)
        else:
            poles.append((phase, [col]))
    if len(poles) > 1 and poles[0][0] + 2.0 * math.pi - poles[-1][0] <= tol:
        poles[-1][1].extend(poles.pop(0)[1])
    fed = [(phase, cols) for phase, cols in poles if any(a[m] for m in cols)]
    live = [(phase, sum(abs(a[m]) ** 2 for m in cols)) for phase, cols in fed]

    clusters: dict[float, list] = {}  # phase -> coefficients of its eigenvectors
    for phase, cols in poles:
        # the eigenvectors that stay, or the one direction of them a family
        # row reaches: one that meets an eigenvector i misses, or is not
        # parallel to i on the others
        stays = _stays(cols, a)
        reach = [s for s in seeds if any(s[m] for m in cols if not a[m]) or any(
            not _vanishes([s[j] * a[k], -s[k] * a[j]], tol)
            for j in cols for k in cols if a[j] and a[k] and j < k)]
        if stays and (family is None or reach):
            clusters[phase] = stays if family is None else [_unit(
                [sum(sum(x.conjugate() * y for x, y in zip(z, reach[0])) * z[c] for z in stays)
                 for c in range(len(a))])]
    roots = []
    for k, (left, _) in enumerate(live):
        length = (live[(k + 1) % len(live)][0] - left) % (2.0 * math.pi) or 2.0 * math.pi
        # a root sits on a pole i misses for every N where the parts of g
        # fed by i's bulk and unit parts both vanish, as at 0 and pi for a
        # real Q; it is placed there exactly and shares that branch
        pinned = [phase for phase, cols in poles if not any(a[m] for m in cols)
                  and 0 < (phase - left) % (2.0 * math.pi) < length
                  and all(_vanishes([sum(abs(a[m]) ** 2 for m in fcols if kinds[m] == kind)
                                     / math.tan((phase - fphase) / 2) for fphase, fcols in fed],
                                    tol) for kind in (True, False))]
        anchor, t = (pinned[0], 0.0) if pinned else _root(live, k)
        coeffs = [0j] * len(a)  # sum_k P_k i (1 + i cot((theta - phi_k)/2)) / 2
        for phase, cols in fed:
            for col in cols:
                coeffs[col] = a[col] * (1 + 1j / math.tan((t + (anchor - phase)) / 2)) / 2
        roots.append(_at(anchor, t))
        clusters.setdefault(roots[-1], []).insert(0, _unit(coeffs))

    order = sorted(clusters)
    values = [cmath.exp(1j * theta) for theta in order for _ in clusters[theta]]
    vectors = []  # each eigenvector of M, summed from its coefficients on Q's
    for coeffs in (c for theta in order for c in clusters[theta]):
        v = [0j] * len(i)
        for support, z in zip(supports, coeffs):
            for c, y in support:
                v[c] += y * z
        vectors.append(v)
    qi = [sum(x * y for x, y in zip(row, i)) for row in q]
    require_within("eigenpair residual {value:.3e} exceeds {tol:.1e}",
                   largest(_residual(q, qi, i, v, value) for v, value in zip(vectors, values)),
                   DEFAULT_POLICY.eig_residual_tol)
    require_within("eigenvectors are not an orthonormal frame (deviation {value:.3e})",
                   frame_deviation(vectors), DEFAULT_POLICY.projector_tol)
    ends = [0, *accumulate(len(clusters[theta]) for theta in order)]
    return Spectrum(eigenphases=tuple(order),
                    blocks=tuple(tuple(zip(*vectors[lo:hi])) for lo, hi in zip(ends, ends[1:])),
                    multiplicities=tuple(hi - lo for lo, hi in zip(ends, ends[1:])),
                    poles=tuple(phase for phase, _ in live), roots=tuple(roots))


def _residual(q: list, qi: list, i: list, v: list, value: complex) -> float:
    """||Mv - value v|| for M = Q - 2 (Qi) i*, applied as Qv - 2 (Qi) <i, v>."""
    s = sum(x.conjugate() * y for x, y in zip(i, v))
    return math.sqrt(norm2([sum(x * y for x, y in zip(row, v)) - 2.0 * w * s - value * y
                            for row, w, y in zip(q, qi, v)]))


def dump_spectrum_csv(spec: Spectrum, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,multiplicity\n")
        for theta, mult in zip(spec.eigenphases, spec.multiplicities):
            fh.write(f"{theta:.12g},{mult}\n")
