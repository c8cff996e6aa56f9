"""Skeleton charts, cover checks, refinement morphisms, strata enumeration."""

from fractions import Fraction
from pathlib import Path

import pytest

from adictrop import jsonio as jio
from adictrop import lp
from adictrop.complexes import ExtendedComplex, refinement_map
from adictrop.degeneration import LaurentPoly, ResiduePoly, ValuedCoeff, trop_eval
from adictrop.errors import (DenominatorMismatch, EmbeddingMismatch,
                             ExponentOutsideSublattice, MalformedEmbedding, NotACover,
                             NotARefinement, UnverifiedBasis, ZeroPolynomial)
from adictrop.gubler import (CoverDecision, EmbeddingData, adapted_to,
                             adic_trop_strata, build_skeleton, covers,
                             skeleton_dot, skeleton_morphism)
from adictrop.parsing import parse_poly
from adictrop.polyhedra import Cone, Fan, Polyhedron

F = Fraction


def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [Cone.from_rays([r], 2) for r in rays]
    cones += [Cone.from_rays([rays[i], rays[j]], 2)
              for i, j in [(0, 1), (1, 2), (0, 2)]]
    return Fan.from_cones(cones)


def fan_complex(fan):
    return ExtendedComplex.from_polyhedra(
        fan, [fan.cones[i].as_polyhedron() for i in range(len(fan))])


def line_embedding():
    return EmbeddingData.of(p2_fan(), [parse_poly("x + y + 1")])


def line_fan_1d():
    return Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)])


def halfline_le(b):
    return Polyhedron.from_halfspaces([((-1,), -F(b))], 1)


def halfline_ge(b):
    return Polyhedron.from_halfspaces([((1,), F(b))], 1)


def segment(a, b):
    return Polyhedron.from_halfspaces([((1,), F(a)), ((-1,), -F(b))], 1)


def line_complex(*cuts):
    cuts = sorted(F(c) for c in cuts)
    faces = [halfline_le(cuts[0]), halfline_ge(cuts[-1])]
    faces += [segment(a, b) for a, b in zip(cuts, cuts[1:])]
    return ExtendedComplex.from_polyhedra(line_fan_1d(), faces)


# -- embedding data -----------------------------------------------------------------

def test_embedding_validation():
    fan = p2_fan()
    with pytest.raises(ZeroPolynomial):
        EmbeddingData.of(fan, [LaurentPoly.zero(2)])
    with pytest.raises(ValueError):
        EmbeddingData.of(fan, [parse_poly("x", variables=("x",))])
    ray_idx = fan.index_of(Cone.from_rays([(0, 1)], 2))
    good = LaurentPoly.of(2, [((1, 0), 1), ((0, 0), 1)])
    EmbeddingData.of(fan, [], stratum_ideals={ray_idx: [good]})
    bad = LaurentPoly.of(2, [((0, 1), 1), ((0, 0), 1)])
    with pytest.raises(ExponentOutsideSublattice):
        EmbeddingData.of(fan, [], stratum_ideals={ray_idx: [bad]})


def test_embedding_ideal_per_stratum():
    fan = p2_fan()
    ray_idx = fan.index_of(Cone.from_rays([(0, 1)], 2))
    f = parse_poly("x + y + 1")
    g = LaurentPoly.of(2, [((1, 0), 1), ((0, 0), 1)])
    embedding = EmbeddingData.of(fan, [f], stratum_ideals={ray_idx: [g]})
    assert embedding.ideal(fan.zero_index) == (f,)
    (q,) = embedding.ideal(ray_idx)
    assert q.nvars == 1 and len(q.terms) == 2
    assert embedding.ideal(fan.index_of(Cone.from_rays([(1, 0)], 2))) is None
    assert EmbeddingData.of(fan, [], stratum_ideals={ray_idx: []}).ideal(ray_idx) == ()
    for bad in (len(fan), -1, fan.zero_index):
        with pytest.raises(MalformedEmbedding):
            EmbeddingData.of(fan, [], stratum_ideals={bad: []})


def test_embedding_refuses_a_repeated_stratum_index():
    fan = p2_fan()
    ray_idx = fan.index_of(Cone.from_rays([(0, 1)], 2))
    g = LaurentPoly.of(2, [((1, 0), 1), ((0, 0), 1)])
    with pytest.raises(MalformedEmbedding, match=f"lists cone {ray_idx} twice"):
        EmbeddingData.of(fan, [], stratum_ideals=[(ray_idx, [g]), (ray_idx, [])])
    with pytest.raises(MalformedEmbedding, match=f"lists cone {ray_idx} twice"):
        EmbeddingData(fan, (), False, ((ray_idx, ()), (ray_idx, (g,))))
    # pairs with distinct indices are taken as the mapping is
    assert EmbeddingData.of(fan, [], stratum_ideals=[(ray_idx, [g])]) == \
        EmbeddingData.of(fan, [], stratum_ideals={ray_idx: [g]})


# -- cover checks -------------------------------------------------------------------

def test_covers_tropical_line():
    decision = covers(fan_complex(p2_fan()), line_embedding())
    assert decision == CoverDecision(True, None)


def test_covers_quadrant_misses_line():
    fan = p2_fan()
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
    delta = ExtendedComplex.from_polyhedra(fan, [quadrant])
    embedding = line_embedding()
    decision = covers(delta, embedding)
    assert not decision.ok
    w = decision.witness
    assert w is not None
    _, argmin = trop_eval(embedding.generators[0], w.coords)
    assert len(argmin) >= 2  # the witness lies on the tropicalization
    assert not quadrant.contains(w.coords)


def test_covers_point_tropicalization():
    f = parse_poly("x + 1", variables=("x",))
    embedding = EmbeddingData.of(Fan.trivial(1), [f])
    delta = ExtendedComplex.from_polyhedra(
        Fan.trivial(1), [Polyhedron.single_point((0,))])
    assert covers(delta, embedding).ok


def test_covers_torus_needs_completeness():
    fan = p2_fan()
    torus = EmbeddingData.of(fan, [])
    assert covers(fan_complex(fan), torus).ok
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
    partial = ExtendedComplex.from_polyhedra(fan, [quadrant])
    assert not covers(partial, torus).ok


def halfplane_fan():
    return Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2),
                           Cone.from_rays([(1, 0), (0, -1)], 2)])


def vertical_line_complex():
    fan = halfplane_fan()
    upper = Polyhedron.from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0)], 2)
    lower = Polyhedron.from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, -1), 0)], 2)
    return ExtendedComplex.from_polyhedra(fan, [upper, lower])


def test_covers_boundary_stratum():
    fan = halfplane_fan()
    sigma = fan.index_of(Cone.from_rays([(0, 1)], 2))
    f = parse_poly("x + 1", variables=("x", "y"))
    delta = vertical_line_complex()
    inside = LaurentPoly.of(2, [((1, 0), 1), ((0, 0), ValuedCoeff.t_power(0))])
    ok = covers(delta, EmbeddingData.of(fan, [f], stratum_ideals={sigma: [inside]}))
    assert ok.ok
    outside = LaurentPoly.of(2, [((1, 0), 1), ((0, 0), ValuedCoeff.t_power(-1))])
    decision = covers(
        delta, EmbeddingData.of(fan, [f], stratum_ideals={sigma: [outside]}))
    assert not decision.ok
    assert decision.witness.stratum == sigma


# -- skeleton construction -------------------------------------------------------------

def line_skeleton():
    return build_skeleton(line_embedding(), fan_complex(p2_fan()))


def test_line_skeleton_strata():
    skeleton = line_skeleton()
    rows = adic_trop_strata(skeleton)
    assert len(rows) == 4
    forms = {row.forms[0] for row in rows}
    assert forms == {
        ResiduePoly.of(2, [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]),  # x + y + 1
        ResiduePoly.of(2, [((0, 0), 1), ((1, 0), 1)]),               # x + 1
        ResiduePoly.of(2, [((0, 0), 1), ((0, 1), 1)]),               # y + 1
        ResiduePoly.of(2, [((0, 1), 1), ((1, 0), 1)]),               # x + y
    }
    dims = sorted(skeleton.complex.finite_parts[row.face_index].dim for row in rows)
    assert dims == [0, 1, 1, 1]


def test_line_skeleton_empty_sectors():
    skeleton = line_skeleton()
    for chart in skeleton.finite_charts():
        face = skeleton.complex.finite_parts[chart.face_index]
        assert chart.empty == (face.dim == 2)


def test_line_skeleton_gluing_poset():
    skeleton = line_skeleton()
    parts = skeleton.complex.finite_parts
    assert len(parts) == 7
    assert len(skeleton.gluing) == 12  # origin into 6 faces, each ray into 2 sectors
    for i, j in skeleton.gluing:
        assert parts[i] != parts[j]
        assert parts[j].contains_polyhedron(parts[i])


def test_chart_inclusion_soundness():
    skeleton = line_skeleton()
    charts = {c.face_index: c for c in skeleton.finite_charts()}
    for i, j in skeleton.gluing:
        for u, g in charts[j].presentation.generators:
            assert charts[i].presentation.contains_monomial(u, g)


def test_point_hypersurface_skeleton():
    f = parse_poly("x + 1", variables=("x",))
    embedding = EmbeddingData.of(line_fan_1d(), [f])
    skeleton = build_skeleton(embedding, line_complex(0))
    rows = adic_trop_strata(skeleton)
    assert len(rows) == 1
    assert rows[0].forms == (ResiduePoly.of(1, [((0,), 1), ((1,), 1)]),)
    assert skeleton.complex.finite_parts[rows[0].face_index] == \
        Polyhedron.single_point((0,))


def test_torus_skeleton_all_faces_alive():
    fan = p2_fan()
    skeleton = build_skeleton(EmbeddingData.of(fan, []), fan_complex(fan))
    for chart in skeleton.finite_charts():
        assert chart.forms == () and not chart.empty and chart.evaluated
    finite = skeleton.finite_charts()
    assert len(adic_trop_strata(skeleton)) == len(finite)


def test_unit_polynomial_empty_everywhere():
    f = LaurentPoly.of(1, [((0,), ValuedCoeff.of([(0, 1), (1, 1)]))])  # 1 + t
    embedding = EmbeddingData.of(line_fan_1d(), [f])
    skeleton = build_skeleton(embedding, line_complex(0))
    assert adic_trop_strata(skeleton) == ()


def test_skeleton_not_a_cover():
    fan = p2_fan()
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
    delta = ExtendedComplex.from_polyhedra(fan, [quadrant])
    with pytest.raises(NotACover):
        build_skeleton(line_embedding(), delta)


def test_skeleton_denominator_mismatch():
    torus = EmbeddingData.of(line_fan_1d(), [])
    with pytest.raises(DenominatorMismatch):
        build_skeleton(torus, line_complex(F(1, 2)), 1)
    build_skeleton(torus, line_complex(F(1, 2)), 2)


def test_boundary_charts_evaluated_only_with_ideals():
    fan = halfplane_fan()
    sigma = fan.index_of(Cone.from_rays([(0, 1)], 2))
    other = fan.index_of(Cone.from_rays([(0, -1)], 2))
    f = parse_poly("x + 1", variables=("x", "y"))
    inside = LaurentPoly.of(2, [((1, 0), 1), ((0, 0), 1)])
    embedding = EmbeddingData.of(fan, [f], stratum_ideals={sigma: [inside]})
    skeleton = build_skeleton(embedding, vertical_line_complex())
    evaluated = [c for c in skeleton.charts if c.stratum == sigma]
    assert evaluated and all(c.evaluated for c in evaluated)
    assert any(not c.empty and len(c.forms[0].terms) == 2 for c in evaluated)
    unevaluated = [c for c in skeleton.charts if c.stratum == other]
    assert unevaluated and all(not c.evaluated and c.forms == ()
                               for c in unevaluated)
    rows = adic_trop_strata(skeleton)
    assert any(r.stratum == sigma for r in rows)
    assert all(r.stratum != other for r in rows)


def test_validate_samples_catches_non_constant_faces():
    fan = p2_fan()
    f1 = parse_poly("x + y + 1")
    f2 = LaurentPoly.of(2, [((1, 1), 1), ((0, 0), ValuedCoeff.t_power(F(3, 2)))])
    embedding = EmbeddingData.of(fan, [f1, f2], tropical_basis_asserted=True)
    with pytest.warns(UnverifiedBasis):
        build_skeleton(embedding, fan_complex(fan))  # un-validated build passes
    with pytest.warns(UnverifiedBasis), pytest.raises(NotACover):
        build_skeleton(embedding, fan_complex(fan), validate_samples=True)


def test_asserted_basis_requires_flag():
    fan = p2_fan()
    with pytest.raises(ValueError):
        covers(fan_complex(fan),
               EmbeddingData.of(fan, [parse_poly("x + y + 1"),
                                      parse_poly("x - y")]))


# -- morphisms ---------------------------------------------------------------------

def torus_line_skeleton(*cuts):
    return build_skeleton(EmbeddingData.of(line_fan_1d(), []), line_complex(*cuts))


def expand_row(row, presentation, denominator):
    n = presentation.polyhedron.ambient
    total = [0] * (n + 1)
    for idx, mult in row:
        u, g = presentation.generators[idx]
        for i, v in enumerate(u):
            total[i] += mult * v
        total[n] += mult * int(g * denominator)
    return tuple(total)


def test_identity_morphism():
    s = torus_line_skeleton(0)
    m = skeleton_morphism(s, s)
    assert m.refinement.assignment == tuple(range(len(s.complex)))
    for arrow in m.arrows:
        assert arrow.source_face == arrow.target_face
        for k, row in enumerate(arrow.table):
            assert row == ((k, 1),)


def test_refinement_morphism_tables_expand():
    fine = torus_line_skeleton(0, 1)
    coarse = torus_line_skeleton(0)
    m = skeleton_morphism(fine, coarse)
    for arrow in m.arrows:
        src = fine.chart_at(arrow.source_face).presentation
        dst = coarse.chart_at(arrow.target_face).presentation
        fine_part = fine.complex.finite_parts[arrow.source_face]
        coarse_part = coarse.complex.finite_parts[arrow.target_face]
        assert coarse_part.contains_polyhedron(fine_part)
        for k, row in enumerate(arrow.table):
            u, g = dst.generators[k]
            target = tuple(u) + (int(g * coarse.denominator),)
            assert expand_row(row, src, fine.denominator) == target


def test_morphism_functoriality():
    finest = torus_line_skeleton(0, 1, 2)
    fine = torus_line_skeleton(0, 1)
    coarse = torus_line_skeleton(0)
    inner = skeleton_morphism(finest, fine)
    outer = skeleton_morphism(fine, coarse)
    composed = outer.compose(inner)
    direct = skeleton_morphism(finest, coarse)
    assert composed.refinement == direct.refinement
    assert composed.arrows == direct.arrows


def test_morphism_embedding_mismatch():
    s1 = torus_line_skeleton(0)
    f = parse_poly("x + 1", variables=("x",))
    s2 = build_skeleton(EmbeddingData.of(line_fan_1d(), [f]), line_complex(0))
    with pytest.raises(EmbeddingMismatch):
        skeleton_morphism(s1, s2)
    s3 = build_skeleton(EmbeddingData.of(line_fan_1d(), []), line_complex(0), 2)
    with pytest.raises(EmbeddingMismatch):
        skeleton_morphism(s3, s1)


def test_morphism_requires_refinement():
    left = torus_line_skeleton(0)
    right = torus_line_skeleton(1)
    with pytest.raises(NotARefinement):
        skeleton_morphism(left, right)


def test_initial_forms_stable_under_refinement():
    embedding = EmbeddingData.of(line_fan_1d(),
                                 [parse_poly("x + 1", variables=("x",))])
    fine = build_skeleton(embedding, line_complex(0, 2))
    coarse = build_skeleton(embedding, line_complex(0))
    m = skeleton_morphism(fine, coarse)
    for arrow in m.arrows:
        src = fine.chart_at(arrow.source_face)
        dst = coarse.chart_at(arrow.target_face)
        assert src.forms == dst.forms


# -- adapted domains ----------------------------------------------------------------

def test_adapted_to_single_ray():
    skeleton = line_skeleton()
    ray = Cone.from_rays([(1, 0)], 2).as_polyhedron()
    result = adapted_to(skeleton, [ray])
    assert result is not None
    sub, restricted = result
    assert len(sub) == 2  # the ray and the origin
    assert {p.dim for p in sub.finite_parts} == {0, 1}
    assert len(restricted.finite_charts()) == 2
    assert all(not c.empty for c in restricted.finite_charts())


def test_adapted_to_whole_support():
    skeleton = line_skeleton()
    result = adapted_to(skeleton, list(skeleton.complex.finite_parts))
    assert result is not None
    sub, restricted = result
    assert sub == skeleton.complex
    assert restricted == skeleton


def test_adapted_to_crossing_piece():
    skeleton = line_skeleton()
    box = Polyhedron.from_halfspaces(
        [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1)], 2)
    assert adapted_to(skeleton, [box]) is None


# -- export -------------------------------------------------------------------------

def test_skeleton_dot_deterministic():
    skeleton = line_skeleton()
    dot = skeleton_dot(skeleton)
    assert dot == skeleton_dot(line_skeleton())
    assert dot.count("->") == 9  # covering relation: 3 origin->ray, 6 ray->sector
    assert 'empty' in dot and 'forms=1' in dot


def test_containment_solves_no_lp(monkeypatch):
    star = (Path(__file__).resolve().parent.parent / "demos" / "data"
            / "star_complex.json").read_text()
    finer, coarser = line_complex(0, 1), line_complex(0)

    def refuse(*args, **kwargs):
        raise AssertionError("a containment or meet test solved an LP")

    for name in ("minimize", "maximize", "feasible_point"):
        monkeypatch.setattr(lp, name, refuse)
    assert len(p2_fan()) == 7
    skeleton = line_skeleton()  # the cover check included
    delta = jio.complex_from_json(jio.loads(star))  # checks the listed incidence
    assert delta.maximal_face_indices() == (4, 5, 6)
    assert jio.faces_dot(delta.finite_parts).count("->") == 9
    assert refinement_map(finer, coarser).assignment == (0, 2, 2, 1, 2)
    assert skeleton_dot(skeleton).count("->") == 9
