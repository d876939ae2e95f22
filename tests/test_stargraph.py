"""Graph model and spec-text tests: validation, phases, round trips."""

import json
import math

import pytest

from anomalywalk.errors import (
    IndexRangeError,
    SelfEdgeError,
    SizeError,
    SpecSemanticError,
    SpecSyntaxError,
)
from anomalywalk.stargraph import (
    VARIANT_SCHEMA,
    VARIANTS,
    Anomaly,
    PhaseAngle,
    StarGraph,
    build_star,
    parse_spec,
    serialize_spec,
)


class TestPhaseAngle:
    def test_pi_fraction_reduces(self):
        p = PhaseAngle.from_pi_fraction(2, 4)
        assert (p.num, p.den) == (1, 2)
        assert p.value == pytest.approx(math.pi / 2)

    def test_pi_fraction_wraps_into_half_open_interval(self):
        # 3pi/2 is the same angle as -pi/2
        p = PhaseAngle.from_pi_fraction(3, 2)
        assert (p.num, p.den) == (-1, 2)

    def test_negative_denominator_normalized(self):
        p = PhaseAngle.from_pi_fraction(1, -2)
        assert p.den > 0
        assert p.value == pytest.approx(-math.pi / 2)

    def test_pi_stays_pi_not_minus_pi(self):
        assert PhaseAngle.from_pi_fraction(1, 1).value == pytest.approx(math.pi)
        assert PhaseAngle.from_pi_fraction(-1, 1).value == pytest.approx(math.pi)
        assert PhaseAngle.from_radians(-math.pi).value == pytest.approx(math.pi)

    def test_radians_wrap(self):
        p = PhaseAngle.from_radians(3 * math.pi)
        assert not p.is_rational
        assert p.value == pytest.approx(math.pi)

    def test_zero_denominator_rejected(self):
        with pytest.raises(SpecSemanticError):
            PhaseAngle.from_pi_fraction(1, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(SpecSemanticError):
            PhaseAngle.from_radians(float("nan"))

    def test_rational_flag(self):
        assert PhaseAngle.from_pi_fraction(1, 3).is_rational
        assert not PhaseAngle.from_radians(1.0).is_rational


class TestBuildStar:
    def test_minimum_size(self):
        with pytest.raises(SizeError):
            build_star(2, Anomaly.none())
        g = build_star(3, Anomaly.none())
        assert g.n_spokes == 3

    def test_self_edge_rejected(self):
        with pytest.raises(SelfEdgeError):
            build_star(5, Anomaly.extra_edge(3, 3))

    def test_endpoints_canonicalized(self):
        g = build_star(5, Anomaly.extra_edge(4, 2))
        assert (g.anomaly.u, g.anomaly.v) == (2, 4)

    @pytest.mark.parametrize("anomaly", [
        Anomaly.extra_edge(1, 6),
        Anomaly.extra_edge(0, 3),
        Anomaly.loop(0),
        Anomaly.loop(6),
        Anomaly.extended_edge(9),
        Anomaly.missing_loop(-1),
    ])
    def test_vertex_out_of_range(self, anomaly):
        with pytest.raises(IndexRangeError):
            build_star(5, anomaly)

    @pytest.mark.parametrize("anomaly,expected", [
        (Anomaly.none(), 20),
        (Anomaly.extra_edge(2, 7), 22),
        (Anomaly.loop(4), 21),
        (Anomaly.extended_edge(4), 22),
        (Anomaly.missing_loop(4), 30),
    ])
    def test_hilbert_dim(self, anomaly, expected):
        assert build_star(10, anomaly).hilbert_dim == expected

    def test_anomaly_vertices(self):
        assert build_star(10, Anomaly.none()).anomaly_vertices == ()
        assert build_star(10, Anomaly.extra_edge(2, 7)).anomaly_vertices == (2, 7)
        assert build_star(10, Anomaly.loop(4)).anomaly_vertices == (4,)
        assert build_star(10, Anomaly.missing_loop(9)).anomaly_vertices == (9,)

    def test_default_phases(self):
        assert build_star(5, Anomaly.extra_edge(1, 2)).anomaly.mark_phase.value == 0.0
        assert build_star(5, Anomaly.loop(1)).anomaly.mark_phase.value == 0.0
        ext = build_star(5, Anomaly.extended_edge(1)).anomaly.mark_phase
        assert ext.value == pytest.approx(math.pi)
        mis = build_star(5, Anomaly.missing_loop(1)).anomaly.mark_phase
        assert mis.value == pytest.approx(math.pi)


class TestParseSpec:
    def test_plain(self):
        g = parse_spec('{"n_spokes": 10, "anomaly": {"type": "none"}}')
        assert g == StarGraph(10, Anomaly.none())

    def test_extra_edge_with_phase_fraction(self):
        g = parse_spec('{"n_spokes": 8, "anomaly": {"type": "extra_edge",'
                       ' "u": 3, "v": 5, "phase_num": 1, "phase_den": 3}}')
        assert g.anomaly.mark_phase.value == pytest.approx(math.pi / 3)

    def test_phase_radians(self):
        g = parse_spec('{"n_spokes": 8, "anomaly": {"type": "missing_loop",'
                       ' "at": 2, "phase_rad": 1.25}}')
        assert g.anomaly.mark_phase.value == pytest.approx(1.25)

    def test_syntax_error_reports_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec('{"n_spokes": 10,\n  "anomaly": }')
        assert exc.value.category == "syntax"
        assert "line 2" in str(exc.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecSemanticError):
            parse_spec('{"n_spokes": 5, "anomaly": {"type": "none"}, "extra": 1}')

    def test_unknown_anomaly_key(self):
        with pytest.raises(SpecSemanticError):
            parse_spec('{"n_spokes": 5, "anomaly": {"type": "loop", "at": 1, "x": 2}}')

    def test_field_from_wrong_variant_rejected(self):
        # "at" belongs to loop-style anomalies, not extra_edge
        with pytest.raises(SpecSemanticError):
            parse_spec('{"n_spokes": 5, "anomaly": {"type": "extra_edge",'
                       ' "u": 1, "v": 2, "at": 3}}')

    def test_unknown_variant(self):
        with pytest.raises(SpecSemanticError):
            parse_spec('{"n_spokes": 5, "anomaly": {"type": "wormhole"}}')

    def test_both_phase_styles_rejected(self):
        with pytest.raises(SpecSemanticError):
            parse_spec('{"n_spokes": 5, "anomaly": {"type": "loop", "at": 1,'
                       ' "phase_num": 1, "phase_den": 2, "phase_rad": 0.5}}')

    @pytest.mark.parametrize("text", [
        '[1, 2]',
        '{"anomaly": {"type": "none"}}',
        '{"n_spokes": "ten", "anomaly": {"type": "none"}}',
        '{"n_spokes": true, "anomaly": {"type": "none"}}',
        '{"n_spokes": 5}',
        '{"n_spokes": 5, "anomaly": "loop"}',
        '{"n_spokes": 5, "anomaly": {"type": "loop"}}',
    ])
    def test_semantic_rejections(self, text):
        with pytest.raises(SpecSemanticError):
            parse_spec(text)

    def test_size_and_range_checked_after_parse(self):
        with pytest.raises(SizeError):
            parse_spec('{"n_spokes": 1, "anomaly": {"type": "none"}}')
        with pytest.raises(IndexRangeError):
            parse_spec('{"n_spokes": 5, "anomaly": {"type": "loop", "at": 7}}')


class TestSerializeSpec:
    def test_canonical_form(self):
        g = build_star(10, Anomaly.extra_edge(7, 2))
        text = serialize_spec(g)
        # compact separators, sorted keys, endpoints ordered
        assert text == ('{"anomaly":{"type":"extra_edge","u":2,"v":7},'
                        '"n_spokes":10}')

    def test_zero_phase_omitted_for_unmarked_variants(self):
        text = serialize_spec(build_star(6, Anomaly.loop(3)))
        assert "phase" not in text

    def test_default_phase_kept_for_marked_variants(self):
        raw = json.loads(serialize_spec(build_star(6, Anomaly.extended_edge(3))))
        assert raw["anomaly"]["phase_num"] == 1
        assert raw["anomaly"]["phase_den"] == 1

    @pytest.mark.parametrize("graph", [
        build_star(3, Anomaly.none()),
        build_star(9, Anomaly.extra_edge(4, 8)),
        build_star(9, Anomaly.loop(1, PhaseAngle.from_pi_fraction(1, 2))),
        build_star(9, Anomaly.extended_edge(9, PhaseAngle.from_radians(0.75))),
        build_star(9, Anomaly.missing_loop(5, PhaseAngle.from_pi_fraction(-1, 3))),
    ])
    def test_round_trip(self, graph):
        assert parse_spec(serialize_spec(graph)) == graph

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_schema_entry_round_trips(self, variant):
        schema = VARIANT_SCHEMA[variant]
        vertices = dict(zip(schema.fields, (2, 5)))
        graph = build_star(7, Anomaly.of(variant, **vertices))
        raw = json.loads(serialize_spec(graph))["anomaly"]
        phase = {"phase_num", "phase_den"} if schema.marked else set()
        assert set(raw) == {"type", *schema.fields} | phase
        assert parse_spec(serialize_spec(graph)) == graph
        assert graph.anomaly_vertices == tuple(vertices.values())

    def test_round_trip_is_fixed_point(self):
        g = build_star(12, Anomaly.missing_loop(4, PhaseAngle.from_pi_fraction(5, 3)))
        once = serialize_spec(g)
        assert serialize_spec(parse_spec(once)) == once
