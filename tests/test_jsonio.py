"""Round trips, float rejection, and byte determinism of the JSON layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adictrop.jsonio as jio
from adictrop.complexes import (ExtendedComplex, Rank1Family, ValidationReport,
                                Violation, refinement_map, validate_complex)
from adictrop.degeneration import (initial_degeneration_ideal, initial_form,
                                   special_fiber_relations, tilted_algebra)
from adictrop.errors import MalformedInput
from adictrop.gubler import (EmbeddingData, build_skeleton, covers,
                             skeleton_morphism)
from adictrop.parsing import parse_poly
from adictrop.polyhedra import Cone, Fan, Polyhedron
from adictrop.toric import ExtendedPoint

F = Fraction


def interval(a, b):
    return Polyhedron.from_halfspaces([((1,), F(a)), ((-1,), -F(b))], 1)


def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [Cone.from_rays([r], 2) for r in rays]
    cones += [Cone.from_rays([rays[i], rays[j]], 2)
              for i, j in [(0, 1), (1, 2), (0, 2)]]
    return Fan.from_cones(cones)


def fan_complex(fan):
    return ExtendedComplex.from_polyhedra(
        fan, [fan.cones[i].as_polyhedron() for i in range(len(fan))])


def line_fan_1d():
    return Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)])


def roundtrip(value, to_json, from_json):
    blob = jio.canonical_json(to_json(value))
    again = from_json(jio.loads(blob))
    assert again == value
    assert jio.canonical_json(to_json(again)) == blob
    return blob


# -- scalars ------------------------------------------------------------------

def test_fraction_strings():
    assert jio.format_fraction(F(-3, 6)) == "-1/2"
    assert jio.format_fraction(F(4, 2)) == "2"
    assert jio.parse_fraction("7/3") == F(7, 3)
    assert jio.parse_fraction("-2") == -2
    for bad in ("1.5", "", "1/0", "0x3", 2, None, "1/-2", "¾"):
        with pytest.raises(MalformedInput):
            jio.parse_fraction(bad)


def test_floats_rejected_at_parse():
    with pytest.raises(MalformedInput):
        jio.loads('{"x": 1.5}')
    with pytest.raises(MalformedInput):
        jio.loads('[1e-3]')
    with pytest.raises(MalformedInput):
        jio.loads('[NaN]')
    with pytest.raises(MalformedInput):
        jio.loads('{broken')
    assert jio.loads('{"x": 3}') == {"x": 3}


# -- geometry -----------------------------------------------------------------

def test_polyhedron_roundtrip():
    box = Polyhedron.from_halfspaces(
        [((1, 0), F(-1, 2)), ((-1, 0), -2), ((0, 1), 0), ((0, -1), -3)], 2)
    blob = roundtrip(box, jio.polyhedron_to_json, jio.polyhedron_from_json)
    assert '"-1/2"' in blob
    segment_on_line = Polyhedron.from_halfspaces(
        [((1, 1), 0), ((-1, -1), 0), ((1, 0), 0), ((-1, 0), -1)], 2)
    assert segment_on_line.equalities  # exercises the equality-pair encoding
    roundtrip(segment_on_line, jio.polyhedron_to_json, jio.polyhedron_from_json)
    roundtrip(Polyhedron.empty(3), jio.polyhedron_to_json, jio.polyhedron_from_json)
    roundtrip(Polyhedron.from_halfspaces([], 2),
              jio.polyhedron_to_json, jio.polyhedron_from_json)


@st.composite
def encodable_values(draw):
    """(value, to_json, from_json) in rank 1-3: a polyhedron from random rows,
    a fan of orthant cones under a shear, a complex over such a fan (bounded
    cells and translated fan cones, face-closed) or an extended point."""
    ambient = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["polyhedron", "fan", "complex", "point"]))
    coord = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
    if kind == "point":
        coords = tuple(draw(st.lists(coord, max_size=ambient)))
        return ExtendedPoint(draw(st.integers(0, 6)), coords), jio.point_to_json, \
            jio.point_from_json
    if kind == "polyhedron":
        rows = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * ambient), coord),
                             max_size=7))
        return Polyhedron.from_halfspaces(rows, ambient), jio.polyhedron_to_json, \
            jio.polyhedron_from_json
    signs = draw(st.lists(st.tuples(*[st.sampled_from([1, -1])] * ambient),
                          min_size=1, max_size=2 ** ambient, unique=True))
    shear = draw(st.integers(-2, 2))

    def sheared(v):  # x_0 += shear * x_1, a lattice automorphism
        return (v[0] + shear * v[1],) + v[1:] if ambient > 1 else v

    fan = Fan.from_cones([Cone.from_rays([sheared(tuple(s if j == i else 0
                                                        for j in range(ambient)))
                                          for i, s in enumerate(sign)], ambient)
                          for sign in signs])
    if kind == "fan":
        return fan, jio.fan_to_json, jio.fan_from_json
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        shift = tuple(draw(coord) for _ in range(ambient))
        if draw(st.booleans()):
            points = draw(st.lists(st.tuples(*[coord] * ambient), min_size=1, max_size=3))
            parts.append(Polyhedron.from_generators([tuple(a + b for a, b in zip(p, shift))
                                                     for p in points], ambient=ambient))
        else:
            cone = draw(st.sampled_from(fan.cones))
            parts.append(cone.as_polyhedron().translate(shift))
    return ExtendedComplex.from_polyhedra(fan, parts), jio.complex_to_json, \
        jio.complex_from_json


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(encodable_values())
def test_decode_inverts_encode(case):
    value, to_json, from_json = case
    roundtrip(value, to_json, from_json)


def test_cell_vrep_strings():
    cell = jio.cell_to_json(interval(F(1, 2), 2))
    assert cell["vertices"] == [["1/2"], ["2"]]
    assert cell["rays"] == []
    assert cell["dim"] == 1


def test_fan_and_point_roundtrip():
    fan = p2_fan()
    roundtrip(fan, jio.fan_to_json, jio.fan_from_json)
    pt = ExtendedPoint(2, (F(1, 3),))
    roundtrip(pt, jio.point_to_json, jio.point_from_json)
    with pytest.raises(MalformedInput):
        jio.point_from_json({"stratum": 0, "coords": [0.5]})
    bad = jio.fan_to_json(fan)
    bad["incidence"] = [[] for _ in bad["cones"]]
    with pytest.raises(MalformedInput):
        jio.fan_from_json(bad)


def test_complex_and_family_roundtrip():
    fam = Rank1Family.from_rule("1/n", isolated=(Polyhedron.single_point((0,)),))
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), fam.isolated, family=fam)
    roundtrip(delta, jio.complex_to_json, jio.complex_from_json)
    finite = ExtendedComplex.from_polyhedra(
        line_fan_1d(), [interval(0, 1),
                        Polyhedron.from_halfspaces([((1,), 1)], 1),
                        Polyhedron.from_halfspaces([((-1,), 0)], 1)])
    blob = roundtrip(finite, jio.complex_to_json, jio.complex_from_json)
    assert '"incidence"' in blob
    geo = Rank1Family.from_rule("3*(1/2)^n + 1", n_min=2, n_max=9)
    roundtrip(geo, jio.family_to_json, jio.family_from_json)


def test_validation_report_roundtrip():
    report = validate_complex(line_fan_1d(), [interval(0, 2), interval(1, 3)])
    assert not report.ok
    roundtrip(report, jio.report_to_json, jio.report_from_json)
    roundtrip(ValidationReport(True, ()), jio.report_to_json, jio.report_from_json)
    roundtrip(ValidationReport(False, (Violation("overlap", (0, 1), "why"),)),
              jio.report_to_json, jio.report_from_json)


def test_refmap_roundtrip():
    coarse = ExtendedComplex.from_polyhedra(
        line_fan_1d(), [Polyhedron.from_halfspaces([((1,), 0)], 1),
                        Polyhedron.from_halfspaces([((-1,), 0)], 1)])
    fine = ExtendedComplex.from_polyhedra(
        line_fan_1d(), [interval(0, 1), Polyhedron.from_halfspaces([((1,), 1)], 1),
                        Polyhedron.from_halfspaces([((-1,), 0)], 1)])
    ref = refinement_map(fine, coarse)
    obj = jio.loads(jio.canonical_json(jio.refmap_to_json(ref)))
    assert jio.refmap_from_json(obj, fine, coarse) == ref


# -- polynomials ---------------------------------------------------------------

def test_polynomial_roundtrips():
    f = parse_poly("(3 + t^2)*x^2*y^-1 + t*x + 1/2")
    roundtrip(f, jio.poly_to_json, jio.poly_from_json)
    coeff = f.terms[-1][1]
    roundtrip(coeff, jio.coeff_to_json, jio.coeff_from_json)
    form = initial_form(f, (0, 0))
    roundtrip(form, jio.residue_to_json, jio.residue_from_json)
    ideal = initial_degeneration_ideal([f], (0, 0))
    roundtrip(ideal, jio.ideal_to_json, jio.ideal_from_json)


def test_generator_from_json_padding():
    f = jio.generator_from_json("x + 1", nvars=2)
    assert f.nvars == 2 and f.support == ((0, 0), (1, 0))
    g = jio.generator_from_json("y + 1", nvars=2, variables=("x", "y"))
    assert g.support == ((0, 0), (0, 1))
    structured = jio.generator_from_json(jio.poly_to_json(f))
    assert structured == f


def test_presentation_and_relations_roundtrip():
    pres = tilted_algebra(interval(0, 1), 1)
    blob = roundtrip(pres, jio.presentation_to_json, jio.presentation_from_json)
    assert '"level"' in blob
    rel = special_fiber_relations(pres)
    roundtrip(rel, jio.relations_to_json, jio.relations_from_json)
    # relations key products by (u, D·level), so a level off (1/D)Z is refused
    obj = jio.presentation_to_json(pres)
    obj["generators"][1]["level"] = "1/3"
    with pytest.raises(MalformedInput, match="multiples of 1/1"):
        jio.presentation_from_json(obj)


# -- skeletons -----------------------------------------------------------------

def line_embedding():
    return EmbeddingData.of(p2_fan(), [parse_poly("x + y + 1")])


def test_embedding_and_decision_roundtrip():
    fan = p2_fan()
    ray_idx = fan.index_of(Cone.from_rays([(0, 1)], 2))
    embedding = EmbeddingData.of(
        fan, [parse_poly("x + y + 1")],
        stratum_ideals={ray_idx: [jio.generator_from_json("x + 1", 2)]})
    roundtrip(embedding, jio.embedding_to_json, jio.embedding_from_json)
    decision = covers(fan_complex(fan), line_embedding())
    roundtrip(decision, jio.decision_to_json, jio.decision_from_json)
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
    partial = ExtendedComplex.from_polyhedra(fan, [quadrant])
    refused = covers(partial, line_embedding())
    assert refused.witness is not None
    roundtrip(refused, jio.decision_to_json, jio.decision_from_json)


def test_embedding_from_json_text_generators():
    fan_json = jio.fan_to_json(p2_fan())
    emb = jio.embedding_from_json(
        {"fan": fan_json, "generators": ["x + y + 1"]})
    assert emb == line_embedding()
    named = jio.embedding_from_json(
        {"fan": fan_json, "generators": ["x + y + 1"], "variables": ["x", "y"]})
    assert named == emb
    with pytest.raises(MalformedInput):
        jio.embedding_from_json({"fan": fan_json, "generators": ["x + y + 1"],
                                 "stratum_ideals": [[0]]})


def test_skeleton_and_morphism_roundtrip():
    skeleton = build_skeleton(line_embedding(), fan_complex(p2_fan()))
    blob = roundtrip(skeleton, jio.skeleton_to_json, jio.skeleton_from_json)
    assert '"strata"' in blob and '"charts"' in blob
    torus = EmbeddingData.of(line_fan_1d(), [])
    fine = build_skeleton(torus, ExtendedComplex.from_polyhedra(
        line_fan_1d(), [interval(0, 1), Polyhedron.from_halfspaces([((1,), 1)], 1),
                        Polyhedron.from_halfspaces([((-1,), 0)], 1)]))
    coarse = build_skeleton(torus, ExtendedComplex.from_polyhedra(
        line_fan_1d(), [Polyhedron.from_halfspaces([((1,), 0)], 1),
                        Polyhedron.from_halfspaces([((-1,), 0)], 1)]))
    m = skeleton_morphism(fine, coarse)
    roundtrip(m, jio.morphism_to_json, jio.morphism_from_json)


def test_skeleton_from_json_checks_strata():
    skeleton = build_skeleton(line_embedding(), fan_complex(p2_fan()))
    obj = jio.loads(jio.canonical_json(jio.skeleton_to_json(skeleton)))
    obj["strata"] = []
    with pytest.raises(MalformedInput):
        jio.skeleton_from_json(obj)


# -- DOT exports ---------------------------------------------------------------

def test_incidence_dot():
    delta = fan_complex(p2_fan())
    dot = jio.incidence_dot(delta)
    assert dot == jio.incidence_dot(fan_complex(p2_fan()))
    assert dot.count("->") == 9
    assert dot.startswith("digraph faces {")


def test_adjacency_dot_family():
    fam = Rank1Family.from_rule("1/n", isolated=(Polyhedron.single_point((0,)),))
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), fam.isolated, family=fam)
    dot = jio.adjacency_dot(delta)
    assert "family" in dot
    assert " -- " not in dot  # the isolated point does not touch the chain
    joined = ExtendedComplex.from_polyhedra(
        Fan.trivial(1), (Polyhedron.single_point((1,)),),
        family=Rank1Family.from_rule("1/n",
                                     isolated=(Polyhedron.single_point((1,)),)))
    assert " -- " in jio.adjacency_dot(joined)
