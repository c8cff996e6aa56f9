from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adictrop import lp
from adictrop.complexes import (FAMILY_NODE, ExtendedComplex, Rank1Family, RefinementMap,
                                adjacency_components, common_refinement,
                                detect_accumulation, is_complete,
                                is_locally_finite, is_union_of_faces, refinement_map,
                                support_contains, validate_complex, _bounds_1d)
from adictrop.jsonio import adjacency_dot, incidence_dot
from adictrop.errors import (FamilyNotSupported, MalformedInput, NotAdmissible,
                             NotARefinement, SupportMismatch)
from adictrop.polyhedra import Cone, Fan, Polyhedron
from adictrop.toric import ExtendedPoint

import oracles

F = Fraction


def interval(a, b):
    return Polyhedron.from_halfspaces([((1,), F(a)), ((-1,), -F(b))], 1)


def point(a):
    return Polyhedron.from_generators([(F(a),)])


def ray_ge(a):
    return Polyhedron.from_halfspaces([((1,), F(a))], 1)


def ray_le(a):
    return Polyhedron.from_halfspaces([((-1,), -F(a))], 1)


def line_fan():
    return Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)])


def segment_complex(*breaks):
    pieces = [interval(a, b) for a, b in zip(breaks, breaks[1:])]
    return ExtendedComplex.from_polyhedra(Fan.trivial(1), pieces)


# -- family grammar -------------------------------------------------------------

def test_harmonic_rule_round_trip():
    fam = Rank1Family.from_rule("1/n")
    assert fam.kind == "harmonic" and fam.c == 1 and fam.d == 0 and fam.e == 0
    assert fam.rule == "1/n"
    assert fam.breakpoint(3) == F(1, 3)
    assert fam.face_interval(1) == interval(F(1, 2), 1)
    assert Rank1Family.from_rule("2/(n+3) - 1").breakpoint(1) == F(2, 4) - 1


def test_geometric_rule():
    fam = Rank1Family.from_rule("(1/2)^n")
    assert fam.kind == "geometric" and fam.r == F(1, 2) and fam.c == 1
    assert fam.breakpoint(2) == F(1, 4)
    fam2 = Rank1Family.from_rule("3*(1/2)^n + 1")
    assert fam2.breakpoint(1) == F(5, 2) and fam2.limit() == 1
    assert fam2.rule == "3*(1/2)^n + 1"


def test_family_union_and_membership():
    fam = Rank1Family.from_rule("1/n")
    assert fam.union_bounds() == (0, False, 1, True)
    assert fam.contains(1) and fam.contains(F(1, 2)) and fam.contains(F(1, 100))
    assert not fam.contains(0) and not fam.contains(2)
    increasing = Rank1Family.from_rule("-1/n")
    assert increasing.union_bounds() == (-1, True, 0, False)
    assert increasing.contains(-1) and not increasing.contains(0)


def test_family_face_index():
    fam = Rank1Family.from_rule("1/n")
    assert fam.face_index_of(1) == 1
    assert fam.face_index_of(F(1, 2)) == 1  # shared endpoint: smallest n
    assert fam.face_index_of(F(2, 7)) == 3  # 2/7 in [1/4, 1/3]
    assert fam.face_index_of(F(1, 10 ** 6)) == 10 ** 6 - 1 or \
        fam.face_interval(fam.face_index_of(F(1, 10 ** 6))).contains((F(1, 10 ** 6),))
    assert fam.face_index_of(2) is None
    geo = Rank1Family.from_rule("(1/2)^n")
    n = geo.face_index_of(F(1, 100))
    assert geo.face_interval(n).contains((F(1, 100),))


def test_family_finite_range():
    fam = Rank1Family.from_rule("1/n", n_min=1, n_max=3)
    assert fam.union_bounds() == (F(1, 4), True, 1, True)
    assert [p for p in fam.materialized()] == [fam.face_interval(n) for n in (1, 2, 3)]
    assert detect_accumulation(fam) is None


def test_family_rejects_bad_rules():
    with pytest.raises(MalformedInput):
        Rank1Family.from_rule("n^2")
    with pytest.raises(FamilyNotSupported):
        Rank1Family.from_rule("(3/2)^n")
    with pytest.raises(FamilyNotSupported):
        Rank1Family.from_rule("1/(n-2)", n_min=1)
    Rank1Family.from_rule("1/(n-2)", n_min=3)  # pole outside the range: fine


# -- the non-locally-finite example ---------------------------------------------

def harmonic_example(with_origin=True):
    isolated = (point(0),) if with_origin else ()
    fam = Rank1Family.from_rule("1/n", isolated=isolated)
    return ExtendedComplex.from_polyhedra(Fan.trivial(1), fam.isolated, family=fam)


def test_example_support_is_unit_interval():
    delta = harmonic_example()
    for x in (0, 1, F(1, 2), F(1, 3), F(2, 7)):
        assert support_contains(delta, (F(x),))
    for x in (2, F(-1, 3), F(11, 10)):
        assert not support_contains(delta, (F(x),))


def test_example_accumulation_and_local_finiteness():
    delta = harmonic_example()
    assert detect_accumulation(delta.family) == 0
    assert not is_locally_finite(delta)
    assert adjacency_components(delta) == ((FAMILY_NODE,), (0,))


def test_example_without_origin_is_locally_finite():
    delta = harmonic_example(with_origin=False)
    assert detect_accumulation(delta.family) == 0
    assert is_locally_finite(delta)
    assert adjacency_components(delta) == ((FAMILY_NODE,),)


def test_vertex_touching_family_is_connected():
    fam = Rank1Family.from_rule("1/n", isolated=(point(1),))
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), fam.isolated, family=fam)
    assert adjacency_components(delta) == ((FAMILY_NODE, 0),)


def test_is_complete_rejects_infinite_family():
    with pytest.raises(FamilyNotSupported):
        is_complete(harmonic_example())


# -- validation -------------------------------------------------------------------

def test_validate_unit_interval_complex():
    fan = Fan.trivial(1)
    report = validate_complex(fan, [point(0), interval(0, 1), point(1)])
    assert report.ok and report.violations == ()


def test_validate_overlap_is_reported():
    fan = Fan.trivial(1)
    report = validate_complex(fan, [point(0), point(1), point(F(1, 2)), point(2),
                                    interval(0, 1), interval(F(1, 2), 2)])
    assert not report.ok
    assert any(v.kind == "non-face-intersection" for v in report.violations)


def test_validate_missing_face():
    report = validate_complex(Fan.trivial(1), [interval(0, 1)])
    assert not report.ok
    assert all(v.kind == "missing-face" for v in report.violations)


def test_validate_inadmissible_member():
    report = validate_complex(Fan.trivial(1), [point(0), ray_ge(0)])
    assert any(v.kind == "inadmissible" for v in report.violations)


def p2_fan():
    return Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2),
                           Cone.from_rays([(0, 1), (-1, -1)], 2),
                           Cone.from_rays([(-1, -1), (1, 0)], 2)])


def test_validate_tropical_line_star():
    fan = p2_fan()
    origin = Polyhedron.from_generators([(0, 0)])
    rays = [Polyhedron.from_generators([(0, 0)], [d]) for d in ((1, 0), (0, 1), (-1, -1))]
    report = validate_complex(fan, [origin] + rays)
    assert report.ok


def test_validate_family_overlap():
    fam = Rank1Family.from_rule("1/n")
    ok = validate_complex(Fan.trivial(1), [point(0), point(1), point(F(1, 2)),
                                           interval(F(1, 2), 1)], fam)
    assert ok.ok
    bad = validate_complex(Fan.trivial(1), [point(0), interval(F(1, 2), 2),
                                            point(F(1, 2)), point(2)], fam)
    assert any(v.kind == "family-overlap" for v in bad.violations)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3).map(lambda n: (n,)),
                          st.builds(F, st.integers(-6, 6), st.integers(1, 3))),
                max_size=4))
@example([((1,), F(2)), ((-1,), F(-2))])  # a point
@example([((2,), F(1)), ((-1,), F(-3))])  # a segment
@example([((1,), F(-1))])  # a ray to the right
@example([((-3,), F(1))])  # a ray to the left
@example([])  # the line
@example([((1,), F(1)), ((-1,), F(0))])  # empty
def test_rank1_bounds_match_lp(rows):
    p = Polyhedron.from_halfspaces(rows, 1)
    expected = tuple(res.value if res.status == lp.OPTIMAL else None
                     for res in (oracles.poly_lp(p, [1]), oracles.poly_lp(p, [1], "max")))
    assert _bounds_1d(p) == expected


def test_rank1_family_checks_solve_no_lp(monkeypatch):
    fam = Rank1Family.from_rule("1/n")
    faces = [point(0), point(1), point(F(1, 2)), interval(F(1, 2), 1)]
    unbounded = [point(0), point(F(1, 2)), ray_ge(F(1, 2))]

    def refuse(*args, **kwargs):
        raise AssertionError("a rank-1 check solved an LP")

    for name in ("minimize", "maximize", "feasible_point"):
        monkeypatch.setattr(lp, name, refuse)
    assert fam.meets(interval(0, 1)) and fam.meets(ray_le(F(1, 3)))
    assert not fam.meets(ray_le(0)) and not fam.meets(interval(F(3, 2), 2))
    assert validate_complex(Fan.trivial(1), faces, fam).ok
    report = validate_complex(Fan.trivial(1), unbounded, fam)
    assert [v.detail for v in report.violations if v.kind == "family-overlap"] == [
        "face 2 is unbounded across the family"]


# -- completeness -----------------------------------------------------------------

def test_complete_fan_complex():
    fan = p2_fan()
    delta = ExtendedComplex.from_polyhedra(fan, fan.cones)
    assert is_complete(delta)


def test_incomplete_interval():
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), [interval(0, 1)])
    assert not is_complete(delta)


def test_complete_line_cover():
    fan = line_fan()
    delta = ExtendedComplex.from_polyhedra(fan, [ray_le(0), interval(0, 1), ray_ge(1)])
    assert is_complete(delta)
    partial = ExtendedComplex.from_polyhedra(fan, [ray_le(0), interval(0, 1)])
    assert not is_complete(partial)


def test_complete_materializes_finite_family():
    fam = Rank1Family.from_rule("1/n", n_max=2)
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), [], family=fam)
    assert not is_complete(delta)  # runs the materialization path


# -- common refinement -------------------------------------------------------------

def test_common_refinement_intervals():
    a = segment_complex(0, 1, 2)
    b = segment_complex(0, F(1, 2), 2)
    expected = segment_complex(0, F(1, 2), 1, 2)
    assert common_refinement(a, b) == expected
    assert common_refinement(b, a) == expected


def test_common_refinement_idempotent():
    a = segment_complex(0, 1, 2)
    assert common_refinement(a, a) == a
    assert common_refinement(a) == a


def test_common_refinement_associative():
    a = segment_complex(0, 2, 4)
    b = segment_complex(0, 1, 4)
    c = segment_complex(0, 3, 4)
    abc = common_refinement(common_refinement(a, b), c)
    bca = common_refinement(a, common_refinement(b, c))
    direct = common_refinement(a, b, c)
    assert abc == bca == direct == segment_complex(0, 1, 2, 3, 4)


def test_common_refinement_requires_equal_support():
    with pytest.raises(SupportMismatch):
        common_refinement(segment_complex(0, 1), segment_complex(0, 2))


def test_common_refinement_rejects_family():
    with pytest.raises(FamilyNotSupported):
        common_refinement(harmonic_example(), harmonic_example())


def test_refinement_maps_from_refinement():
    a = segment_complex(0, 1, 2)
    b = segment_complex(0, F(1, 2), 2)
    r = common_refinement(a, b)
    refinement_map(r, a)
    refinement_map(r, b)  # both succeed: r refines each input


def test_six_sector_cone_intersections():
    # quadrants against the two halfplanes split by v1 = v2: six maximal cells
    quadrants = [Cone.from_rays(rs, 2) for rs in
                 ([(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)])]
    halves = [Polyhedron.from_halfspaces([((1, -1), 0)], 2),
              Polyhedron.from_halfspaces([((-1, 1), 0)], 2)]
    cells = {q.intersection(h) for q in quadrants for h in halves}
    maximal = [c for c in cells if c.dim == 2]
    assert len(maximal) == 6


# -- refinement maps ----------------------------------------------------------------

def test_refinement_map_assignment():
    coarse = segment_complex(0, 1)
    fine = segment_complex(0, F(1, 2), 1)
    rmap = refinement_map(fine, coarse)
    whole = coarse.face_index(interval(0, 1))
    for piece, target in [(interval(0, F(1, 2)), whole),
                          (interval(F(1, 2), 1), whole),
                          (point(F(1, 2)), whole),
                          (point(0), coarse.face_index(point(0))),
                          (point(1), coarse.face_index(point(1)))]:
        assert rmap.image_index(fine.face_index(piece)) == target


def test_refinement_map_identity():
    delta = segment_complex(0, 1, 2)
    rmap = refinement_map(delta, delta)
    assert rmap.assignment == tuple(range(len(delta.faces)))


def test_refinement_map_monotone():
    coarse = segment_complex(0, 2)
    fine = segment_complex(0, 1, 2)
    rmap = refinement_map(fine, coarse)
    parts_f, parts_c = fine.finite_parts, coarse.finite_parts
    for i, p in enumerate(parts_f):
        for j, q in enumerate(parts_f):
            if p.is_face_of(q):
                img_p, img_q = parts_c[rmap.assignment[i]], parts_c[rmap.assignment[j]]
                assert img_p.is_face_of(img_q) or img_p == img_q


def test_refinement_map_composition():
    coarse = segment_complex(0, 1)
    mid = segment_complex(0, F(1, 2), 1)
    fine = segment_complex(0, F(1, 4), F(1, 2), 1)
    direct = refinement_map(fine, coarse)
    composed = refinement_map(mid, coarse).compose(refinement_map(fine, mid))
    assert direct == composed


def test_refinement_map_failure():
    with pytest.raises(NotARefinement):
        refinement_map(segment_complex(0, 2), segment_complex(0, 1))
    with pytest.raises(NotARefinement):
        # equal support but misaligned cut: [0,2] not inside any face
        refinement_map(segment_complex(0, 2, 3), segment_complex(0, 1, 3))


# -- adjacency ---------------------------------------------------------------------

def test_adjacency_single_chain():
    assert len(adjacency_components(segment_complex(0, 1))) == 1
    assert len(adjacency_components(segment_complex(0, 1, 2))) == 1


def test_adjacency_two_islands():
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), [interval(0, 1), interval(2, 3)])
    assert len(adjacency_components(delta)) == 2


def test_adjacency_count_refinement_invariant():
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), [interval(0, 1), interval(2, 3)])
    finer = ExtendedComplex.from_polyhedra(
        Fan.trivial(1), [interval(0, F(1, 2)), interval(F(1, 2), 1),
                         interval(2, 3)])
    assert len(adjacency_components(delta)) == len(adjacency_components(finer)) == 2


def test_adjacency_meets_at_infinity():
    sigma = Cone.from_rays([(1, 0), (1, 1)], 2)
    fan = Fan.from_cones([sigma])
    p1 = Polyhedron.from_generators([(0, 0)], [(1, 0), (1, 1)])
    p2 = Polyhedron.from_generators([(0, -5)], [(1, 0), (1, 1)])
    delta = ExtendedComplex.from_polyhedra(fan, [p1, p2])
    # finite parts are disjoint, but both closures contain the single point
    # of the stratum of sigma
    comps = adjacency_components(delta)
    assert len(comps) == 1


# -- subcomplex extraction -----------------------------------------------------------

def test_union_of_faces_whole():
    delta = segment_complex(0, F(1, 2), 1)
    sub = is_union_of_faces([interval(0, 1)], delta)
    assert sub is not None and len(sub.faces) == len(delta.faces)


def test_union_of_faces_partial():
    delta = segment_complex(0, F(1, 2), 1)
    sub = is_union_of_faces([interval(0, F(1, 2))], delta)
    assert sub is not None
    assert sorted(p.dim for p in sub.finite_parts) == [0, 0, 1]


def test_union_of_faces_absent():
    delta = segment_complex(0, F(1, 2), 1)
    assert is_union_of_faces([interval(0, F(1, 3))], delta) is None


# -- construction guards and DOT -----------------------------------------------------

def test_from_polyhedra_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        ExtendedComplex.from_polyhedra(Fan.trivial(1), [ray_ge(0)])


def test_family_needs_rank_one():
    fam = Rank1Family.from_rule("1/n")
    with pytest.raises(FamilyNotSupported):
        ExtendedComplex.from_polyhedra(Fan.trivial(2), [], family=fam)


def test_dot_outputs_are_deterministic():
    delta = segment_complex(0, 1, 2)
    inc, adj = incidence_dot(delta), adjacency_dot(delta)
    assert inc == incidence_dot(delta) and adj == adjacency_dot(delta)
    assert inc.startswith("digraph faces {") and adj.startswith("graph adjacency {")
    assert inc.count("->") == 4  # each of the two edges covers two vertices
    assert "family" in adjacency_dot(harmonic_example())


def test_support_contains_extended_points():
    fan = line_fan()
    delta = ExtendedComplex.from_polyhedra(fan, [ray_ge(0)])
    plus = fan.index_of(Cone.from_rays([(1,)], 1))
    minus = fan.index_of(Cone.from_rays([(-1,)], 1))
    assert support_contains(delta, ExtendedPoint(plus, ()))
    assert not support_contains(delta, ExtendedPoint(minus, ()))
    assert support_contains(delta, (5,))
    assert not support_contains(delta, (-1,))
