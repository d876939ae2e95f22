"""Star-graph family model and the on-disk graph-spec format.

A graph is a hub (vertex 0) with ``n_spokes`` outer vertices, plus at most
one structural anomaly: an extra edge between two outer vertices, a loop on
one outer vertex, an extension hanging off one spoke, or the all-loops
configuration where exactly one vertex carries a dummy (fixed-point) loop
instead of a real one.  The spec format is a small JSON object; parsing and
serialization round-trip exactly.
"""

import cmath
import json
import math
import os
from typing import NamedTuple

from .errors import (
    IndexRangeError,
    SelfEdgeError,
    SizeError,
    SpecSemanticError,
    SpecSyntaxError,
)


class VariantSchema(NamedTuple):
    """What one anomaly variant names and what it adds to the plain star."""

    fields: tuple[str, ...]  # vertex fields, in the spec and on Anomaly
    fixed: int  # anomaly states whose number does not grow with N
    loops: bool = False  # a loop on every outer vertex: a third block of N states
    marked: bool = False  # the phase marks a hop, so it defaults to pi


VARIANT_SCHEMA = {
    "none": VariantSchema((), 0),
    "extra_edge": VariantSchema(("u", "v"), 2),
    "loop": VariantSchema(("at",), 1),
    "extended_edge": VariantSchema(("at",), 2, marked=True),
    "missing_loop": VariantSchema(("at",), 0, loops=True, marked=True),
}
VARIANTS = tuple(VARIANT_SCHEMA)

_TWO_PI = 2.0 * math.pi

# the largest N.  Nothing is allocated by N, but 1/N, the size of a simple
# branch's shift and of a target's start weight, stays above `shift_floor`:
# 2**-40 is 9.1e-13, about nine times it
_MAX_SPOKES = 2 ** 40

# the sizes a `perturb` or `sweep` runs when none are given
DEFAULT_SWEEP_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)

# e^{i k pi/2} for the quarter turns k = -1, 0, 1, 2, exactly
_QUARTER_TURNS = {(0, 1): 1.0 + 0j, (1, 1): -1.0 + 0j,
                  (1, 2): complex(0.0, 1.0), (-1, 2): complex(0.0, -1.0)}


class PhaseAngle(NamedTuple):
    """An angle in radians, canonicalized to (-pi, pi].

    Rational multiples of pi are stored exactly as a reduced fraction
    (num/den)*pi so that angles like pi and pi/3 survive serialization
    bit-for-bit; anything else is kept as a plain float.
    """

    num: int | None = None
    den: int | None = None
    rad: float | None = None

    @staticmethod
    def from_pi_fraction(num: int, den: int) -> "PhaseAngle":
        if den == 0:
            raise SpecSemanticError("phase denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num, den = num // g, den // g
        # wrap num/den into (-1, 1]
        k = num % (2 * den)
        if k > den:
            k -= 2 * den
        angle = PhaseAngle(num=k, den=den)
        try:
            finite = math.isfinite(angle.value)
        except OverflowError:
            finite = False
        if not finite:
            raise SpecSemanticError("phase fraction has terms too large for a float")
        return angle

    @staticmethod
    def from_radians(value: float) -> "PhaseAngle":
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise SpecSemanticError("phase must be a finite real")
        wrapped = math.remainder(value, _TWO_PI)
        if wrapped <= -math.pi:
            wrapped += _TWO_PI
        return PhaseAngle(rad=wrapped + 0.0)

    @staticmethod
    def zero() -> "PhaseAngle":
        return PhaseAngle.from_pi_fraction(0, 1)

    @staticmethod
    def pi() -> "PhaseAngle":
        return PhaseAngle.from_pi_fraction(1, 1)

    @property
    def is_rational(self) -> bool:
        return self.num is not None

    @property
    def value(self) -> float:
        if self.num is not None:
            return self.num * math.pi / self.den
        return self.rad

    @property
    def phasor(self) -> complex:
        """e^{i theta}: exactly 1, -1 or +-1j on a multiple of pi/2 given as
        a fraction of pi, with no round-off part, so a walk marked by pi keeps real values."""
        exact = _QUARTER_TURNS.get((self.num, self.den))
        return exact if exact is not None else cmath.exp(1j * self.value)


class Anomaly(NamedTuple):
    """Anomaly descriptor: which variant, where, and its marking phase.

    ``mark_phase`` multiplies one designated matrix element of the walk
    (the extension back-hop for extended_edge, the direct hub bounce for
    missing_loop); extra_edge and loop carry a phase field for uniformity
    but the step operator ignores it.
    """

    variant: str
    u: int | None = None
    v: int | None = None
    at: int | None = None
    mark_phase: PhaseAngle = PhaseAngle.zero()

    @staticmethod
    def of(variant: str, phase: PhaseAngle | None = None, **vertices: int) -> "Anomaly":
        """The variant at its vertex fields; without a phase, pi if it marks a hop, else 0."""
        if phase is None:
            phase = PhaseAngle.pi() if Anomaly(variant).schema.marked else PhaseAngle.zero()
        return Anomaly(variant=variant, mark_phase=phase, **vertices)

    @staticmethod
    def none() -> "Anomaly":
        return Anomaly.of("none")

    @staticmethod
    def extra_edge(u: int, v: int, phase: PhaseAngle | None = None) -> "Anomaly":
        return Anomaly.of("extra_edge", phase, u=u, v=v)

    @staticmethod
    def loop(at: int, phase: PhaseAngle | None = None) -> "Anomaly":
        return Anomaly.of("loop", phase, at=at)

    @staticmethod
    def extended_edge(at: int, phase: PhaseAngle | None = None) -> "Anomaly":
        return Anomaly.of("extended_edge", phase, at=at)

    @staticmethod
    def missing_loop(at: int, phase: PhaseAngle | None = None) -> "Anomaly":
        return Anomaly.of("missing_loop", phase, at=at)

    @property
    def schema(self) -> VariantSchema:
        if self.variant not in VARIANTS:
            raise SpecSemanticError(f"unknown anomaly variant {self.variant!r}")
        return VARIANT_SCHEMA[self.variant]


class StarGraph(NamedTuple):
    n_spokes: int
    anomaly: Anomaly

    @property
    def hilbert_dim(self) -> int:
        schema = self.anomaly.schema
        return (3 if schema.loops else 2) * self.n_spokes + schema.fixed

    @property
    def anomaly_vertices(self) -> tuple[int, ...]:
        """Outer vertices adjacent to the anomaly, in its schema's field order."""
        return tuple(getattr(self.anomaly, field) for field in self.anomaly.schema.fields)


def physical_memory_bytes() -> float:
    """Physical memory of the machine, or infinity where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return math.inf


def require_memory(nbytes: float, what: str) -> None:
    """Refuse, before anything is allocated, what needs more bytes than the
    machine's physical memory."""
    memory = physical_memory_bytes()
    if nbytes > memory:
        raise SizeError(f"{what} need more than the {memory / 2 ** 30:.3g} GiB of physical memory")


def build_star(n: int, anomaly: Anomaly) -> StarGraph:
    """Validate and assemble a star graph.

    The extra-edge endpoint pair is canonicalized to u < v; u == v is
    rejected.  N >= 3 keeps the hub reflection amplitude (N-2)/N positive,
    and N <= 2**40 keeps 1/N well above the noise floor of a shift; no
    walk, spectrum or sweep allocates anything of length N, so no size is
    refused for its memory.
    """

    if not isinstance(n, int) or isinstance(n, bool):
        raise SpecSemanticError("n_spokes must be an integer")
    if n < 3:
        raise SizeError(f"n_spokes must be >= 3, got {n}")
    if anomaly.variant == "extra_edge":
        u, v = anomaly.u, anomaly.v
        if u == v:
            raise SelfEdgeError(f"extra edge endpoints must differ, got ({u},{v})")
        if u > v:
            anomaly = anomaly._replace(u=v, v=u)
    graph = StarGraph(n_spokes=n, anomaly=anomaly)
    for vertex in graph.anomaly_vertices:  # an unknown variant has no schema
        if not 1 <= vertex <= n:
            raise IndexRangeError(f"vertex {vertex} outside 1..{n}")
    if n > _MAX_SPOKES:
        raise SizeError(f"n_spokes must be at most 2**40 = {_MAX_SPOKES}, got {n}")
    return graph


_TOP_KEYS = {"n_spokes", "anomaly"}
_PHASE_KEYS = {"phase_num", "phase_den", "phase_rad"}


def _require_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise SpecSemanticError(f"missing required key {key!r}")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecSemanticError(f"key {key!r} must be an integer")
    return value


def _parse_phase(obj: dict) -> PhaseAngle | None:
    has_frac = "phase_num" in obj or "phase_den" in obj
    has_rad = "phase_rad" in obj
    if has_frac and has_rad:
        raise SpecSemanticError("give either phase_num/phase_den or phase_rad, not both")
    if has_frac:
        num = _require_int(obj, "phase_num")
        den = _require_int(obj, "phase_den")
        return PhaseAngle.from_pi_fraction(num, den)
    if has_rad:
        value = obj["phase_rad"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecSemanticError("phase_rad must be a finite real")
        return PhaseAngle.from_radians(value)
    return None


def check_anomaly_keys(variant: str, keys) -> None:
    """Refuse a key the variant does not read: another variant's vertex, or
    a phase on the plain star, which has no vertex to carry one."""
    fields = VARIANT_SCHEMA[variant].fields
    unknown = set(keys) - {*fields, *(_PHASE_KEYS if fields else ())}
    if unknown:
        raise SpecSemanticError(f"unknown key {sorted(unknown)[0]!r} for anomaly {variant!r}")


def parse_spec(text: str) -> StarGraph:
    """Parse the JSON graph-spec format into a validated StarGraph.

    Unknown keys at any level are rejected; syntax errors report line and
    column.
    """

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        raise SpecSyntaxError("spec nests too deeply") from None
    except ValueError as exc:  # e.g. an integer literal over the digit limit
        raise SpecSyntaxError(str(exc)) from None
    if not isinstance(raw, dict):
        raise SpecSemanticError("spec must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise SpecSemanticError(f"unknown key {sorted(unknown)[0]!r}")
    n = _require_int(raw, "n_spokes")
    if "anomaly" not in raw:
        raise SpecSemanticError("missing required key 'anomaly'")
    araw = raw["anomaly"]
    if not isinstance(araw, dict):
        raise SpecSemanticError("'anomaly' must be a JSON object")
    variant = araw.get("type")
    if variant not in VARIANTS:
        raise SpecSemanticError(f"unknown anomaly name {variant!r}")
    check_anomaly_keys(variant, set(araw) - {"type"})
    phase = _parse_phase(araw)
    vertices = {field: _require_int(araw, field) for field in VARIANT_SCHEMA[variant].fields}
    return build_star(n, Anomaly.of(variant, phase, **vertices))


def spec_dict(graph: StarGraph) -> dict:
    """The spec as the JSON object it is written as.

    Phases are emitted as exact pi-fractions when stored that way, else as
    a decimal; extended_edge and missing_loop always carry their phase,
    extra_edge and loop only when it is nonzero (zero means unmarked).
    """

    a = graph.anomaly
    schema = a.schema
    araw: dict = {"type": a.variant, **dict(zip(schema.fields, graph.anomaly_vertices))}
    if schema.marked or (schema.fields and a.mark_phase.value != 0.0):
        if a.mark_phase.is_rational:
            araw["phase_num"] = a.mark_phase.num
            araw["phase_den"] = a.mark_phase.den
        else:
            araw["phase_rad"] = a.mark_phase.rad
    return {"n_spokes": graph.n_spokes, "anomaly": araw}


def serialize_spec(graph: StarGraph) -> str:
    """Canonical spec text: `spec_dict` with sorted keys, compact separators."""
    return json.dumps(spec_dict(graph), sort_keys=True, separators=(",", ":"))
