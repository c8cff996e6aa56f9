import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adictrop import linalg as la
from adictrop import lp, polyhedra
from adictrop.degeneration import hypersurface_trop, tilted_algebra
from adictrop.errors import EmptyPolyhedron, NotAFan, NotPointed
from adictrop.parsing import parse_poly
from adictrop.polyhedra import (Cone, Fan, HalfSpace, Polyhedron, VRep, _homogenized_dd,
                                face_of, is_admissible, recession_cone)

import oracles

F = Fraction


def _poly(pairs, ambient):
    return Polyhedron.from_halfspaces(pairs, ambient)


def test_halfspace_validation():
    h = HalfSpace((2, 0), F(1))
    assert h.contains((F(1), F(5)))
    assert not h.contains((F(0), F(0)))
    with pytest.raises(ValueError):
        HalfSpace((0, 0), F(0))


def test_canonicalization_removes_redundancy_and_scaling():
    a = _poly([((1, 0), 0), ((2, 0), 0), ((1, 0), -1), ((0, 1), 0)], 2)
    b = _poly([((0, 3), 0), ((1, 0), 0)], 2)
    assert a == b
    assert a.facets == (((0, 1), F(0)), ((1, 0), F(0)))
    assert a.equalities == ()


def test_canonicalization_is_order_independent():
    pairs = [((1, 1), 1), ((-1, 0), -2), ((0, -1), -2), ((1, 0), 0), ((0, 1), 0)]
    rng = random.Random(3)
    base = _poly(pairs, 2)
    for _ in range(5):
        rng.shuffle(pairs)
        assert _poly(pairs, 2) == base


def test_empty_detection():
    p = _poly([((1,), 1), ((-1,), 0)], 1)
    assert p.is_empty
    assert p.dim == -1
    assert not p.contains((F(0),))
    with pytest.raises(EmptyPolyhedron):
        p.vrep()
    with pytest.raises(EmptyPolyhedron):
        p.recession_cone()


def test_affine_hull_extraction():
    # x + y >= 1 and x + y <= 1 collapse to an equality; y >= 0 survives
    p = _poly([((1, 1), 1), ((-1, -1), -1), ((0, 1), 0)], 2)
    assert p.equalities == (((1, 1), F(1)),)
    assert p.facets == (((0, 1), F(0)),)
    assert p.dim == 1


@st.composite
def halfspace_systems(draw):
    """(ambient, rows): 0-9 rows in Q^1..Q^4 with entries in [-3, 3].

    Bounds have denominators 1-3, or are all zero (a cone) a quarter of the
    time.  A row may be followed by its negation (an equality pair) or by a
    scaled and weakened copy of itself.
    """
    ambient = draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        bound = st.just(F(0))
    else:
        bound = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    count = draw(st.integers(0, 9))
    rows = []
    while len(rows) < count:
        normal = draw(st.tuples(*[st.integers(-3, 3)] * ambient))
        b = draw(bound)
        rows.append((normal, b))
        kind = draw(st.sampled_from(["plain", "plain", "pair", "scaled"]))
        if kind == "pair" and len(rows) < count:
            rows.append((tuple(-v for v in normal), -b))
        elif kind == "scaled" and len(rows) < count:
            k = draw(st.integers(2, 3))
            rows.append((tuple(k * v for v in normal), k * b - draw(st.integers(0, 2))))
    return ambient, rows


def _canonical(rows, ambient):
    p = _poly(rows, ambient)
    return p.is_empty, p.equalities, p.facets


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(halfspace_systems(), st.randoms(use_true_random=False))
@example((2, [((1, 0), F(1)), ((-1, 0), F(0))]), random.Random(0))  # empty
@example((2, [((1, 0), F(1)), ((-1, 0), F(-1)), ((0, 1), F(2)), ((0, -1), F(-2)),
              ((1, 1), F(0))]), random.Random(0))  # the point (1, 2)
@example((3, [((1, 0, 0), F(0)), ((-1, 0, 0), F(0)), ((0, 1, 0), F(1)),
              ((0, -1, 0), F(-1))]), random.Random(0))  # a line, not pointed
@example((3, [((0, 0, 1), F(1)), ((0, 0, -1), F(-1)), ((1, 0, 0), F(0)), ((0, 1, 0), F(0)),
              ((-1, -1, 0), F(-1)), ((-1, -1, 1), F(-3))]), random.Random(0))  # a triangle in Q^3
@example((2, []), random.Random(0))  # no rows: the whole plane
def test_canonical_form_matches_lp_oracle(system, rng):
    ambient, rows = system
    expected = oracles.canonicalize_lp(rows, ambient)
    assert _canonical(rows, ambient) == expected
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _canonical(shuffled, ambient) == expected
    scaled = [(tuple(k * v for v in n), k * b)
              for n, b in rows for k in [rng.choice([F(1, 2), 1, 2, 3])]]
    assert _canonical(scaled, ambient) == expected
    if rows:
        # a nonnegative combination of two rows, weakened: implied by the rest
        (n1, b1), (n2, b2) = rng.choice(rows), rng.choice(rows)
        implied = (tuple(x + 2 * y for x, y in zip(n1, n2)), b1 + 2 * b2 - rng.randint(0, 2))
        assert _canonical(rows + [implied], ambient) == expected


def test_canonicalization_solves_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("canonicalization solved an LP")

    for name in ("minimize", "maximize", "feasible_point"):
        monkeypatch.setattr(lp, name, refuse)
    assert _poly([((1, 1), 1), ((-1, -1), 0)], 2).is_empty
    segment = _poly([((1, 1), 1), ((-1, -1), -1), ((1, 0), 0), ((-1, 0), -1)], 2)
    assert segment.equalities == (((1, 1), F(1)),) and segment.dim == 1
    strip = _poly([((0, 1), 0), ((0, -1), -1), ((0, 2), -1)], 2)
    assert strip.facets == (((0, -1), F(-1)), ((0, 1), F(0))) and not strip.is_pointed
    square = _poly([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1), ((1, 1), -1)], 2)
    assert len(square.facets) == 4 and square.dim == 2
    cells = hypersurface_trop(parse_poly("x^2 + t*x*y + y^2 + t^2*x + 1"), ((-3, -3), (3, 3)))
    assert sorted(c.dim for c in cells) == [0, 0, 0, 0, 1, 1, 1]
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (0, 1)], ambient=2)
    assert tilted_algebra(tri, 1).generators == (
        ((-1, -2), F(2)), ((0, -1), F(1)), ((0, 0), F(1)), ((0, 1), F(0)), ((1, 0), F(0)))


def test_vrep_square():
    square = _poly([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], 2)
    rep = square.vrep()
    assert rep.rays == ()
    assert rep.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
    assert square.is_bounded


def test_vrep_orthant():
    orthant = _poly([((1, 0), 0), ((0, 1), 0)], 2)
    rep = orthant.vrep()
    assert rep.vertices == ((F(0), F(0)),)
    assert rep.rays == ((0, 1), (1, 0))
    assert not orthant.is_bounded


def test_vrep_not_pointed():
    halfplane = _poly([((1, 0), 0)], 2)
    with pytest.raises(NotPointed):
        halfplane.vrep()
    assert halfplane.lineality_basis == ((0, 1),)


def test_from_generators_round_trip():
    square = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert square == _poly([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], 2)
    # redundant interior generator changes nothing
    assert Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]) == square
    wedge = Polyhedron.from_generators([(1, 0)], rays=[(1, 0), (1, 1)])
    assert wedge.contains((3, 2))
    assert not wedge.contains((0, 0))


def test_round_trip_membership_randomized():
    rng = random.Random(11)
    for _ in range(25):
        pairs = [((rng.randint(-2, 2), rng.randint(-2, 2)), F(rng.randint(-2, 2)))
                 for _ in range(rng.randint(2, 5))]
        pairs = [(n, b) for n, b in pairs if any(n)]
        if not pairs:
            continue
        p = _poly(pairs, 2)
        if p.is_empty or not p.is_pointed:
            continue
        rep = p.vrep()
        back = Polyhedron.from_generators(rep.vertices, rep.rays, ambient=2)
        assert back == p
        for _ in range(10):
            x = (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
            assert p.contains(x) == oracles.in_hull(rep.vertices, rep.rays, x)


def test_recession_cone_example():
    p = _poly([((1, 0), 0), ((0, 1), 1)], 2)
    assert p.recession_cone() == Cone.from_rays([(1, 0), (0, 1)], 2)


def test_recession_cone_translate_invariant_and_idempotent():
    rng = random.Random(5)
    for _ in range(15):
        pairs = [((rng.randint(-2, 2), rng.randint(-2, 2)), F(rng.randint(-2, 2)))
                 for _ in range(rng.randint(2, 5))]
        pairs = [(n, b) for n, b in pairs if any(n)]
        if not pairs:
            continue
        p = _poly(pairs, 2)
        if p.is_empty:
            continue
        w = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        assert p.translate(w).recession_cone() == p.recession_cone()
        cone = p.recession_cone()
        assert cone.recession_cone() == cone.as_polyhedron().recession_cone()
        assert cone.as_polyhedron() == Polyhedron.from_halfspaces(cone.halfspace_pairs, 2)
        # oracle: directions read off the raw input system
        for v in [(1, 0), (0, 1), (-1, 2), (1, 1), (-1, -1)]:
            assert cone.contains(v) == oracles.recession_direction(pairs, v)


def test_relative_interior_point_examples():
    orthant = _poly([((1, 0), 0), ((0, 1), 0)], 2)
    assert orthant.relative_interior_point() == (F(1), F(1))
    segment = _poly([((1,), 0), ((-1,), -1)], 1)
    assert segment.relative_interior_point() == (F(1, 2),)
    point = Polyhedron.single_point((F(2), F(3)))
    assert point.relative_interior_point() == (F(2), F(3))


def test_relative_interior_point_is_interior():
    rng = random.Random(17)
    for _ in range(15):
        pairs = [((rng.randint(-2, 2), rng.randint(-2, 2)), F(rng.randint(-2, 2)))
                 for _ in range(rng.randint(2, 5))]
        pairs = [(n, b) for n, b in pairs if any(n)]
        if not pairs:
            continue
        p = _poly(pairs, 2)
        if p.is_empty:
            continue
        z = p.relative_interior_point()
        assert p.contains(z)
        for n, b in p.facets:
            assert sum(a * x for a, x in zip(n, z)) > b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(halfspace_systems())
@example((2, []))  # the whole plane
@example((3, [((1, 0, 0), 1), ((-1, 0, 0), -1), ((0, 1, 0), 2), ((0, -1, 0), -2),
              ((0, 0, 1), 0), ((0, 0, -1), 0)]))  # a point
@example((2, [((0, 1), 0), ((0, -1), -1)]))  # a strip: not pointed
@example((4, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 1), ((-1, -1, 0, 0), -3)]))  # triangle x plane
@example((3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 1),
              ((0, 0, -1), -1)]))  # a quadrant in z = 1: unbounded, lower-dimensional
@example((3, [((1, 1, 0), 0), ((-1, -1, 0), 0), ((0, 0, 1), 0)]))  # a half-plane in a plane
def test_read_offs_match_recession_cone_and_facets(system):
    ambient, rows = system
    p = _poly(rows, ambient)
    if p.is_empty:
        return
    z = p.relative_interior_point()
    assert all(la.dot(n, z) == b for n, b in p.equalities)
    assert all(la.dot(n, z) > b for n, b in p.facets)
    lin, rays = oracles.generator_description_dd(p.recession_cone())
    assert p.is_pointed == (not lin)
    assert p.is_bounded == (not lin and not rays)
    assert len(p.lineality_basis) == len(lin) == la.rank(list(p.lineality_basis) + list(lin))
    kept_lin, kept_rays = p._generators
    assert p.dim == len(kept_lin) + la.rank(kept_rays) - 1
    if p.is_pointed:
        rep = p.vrep()
        assert Polyhedron.from_generators(rep.vertices, rep.rays, ambient) == p


def test_read_offs_solve_no_lp(monkeypatch):
    strip = _poly([((0, 1), 0), ((0, -1), -1)], 2)  # 0 <= y <= 1: not pointed
    slab = _poly([((0, 0, 1), 0), ((0, 0, -1), -1), ((1, 0, 0), 0)], 3)  # and x >= 0

    def refuse(*args, **kwargs):
        raise AssertionError("a read-off solved an LP")

    for name in ("minimize", "maximize", "feasible_point"):
        monkeypatch.setattr(lp, name, refuse)
    assert strip.relative_interior_point() == (F(0), F(1, 2))
    assert slab.relative_interior_point() == (F(1), F(0), F(1, 2))
    assert not strip.is_bounded and not strip.is_pointed and strip.dim == 2
    assert strip.lineality_basis == ((1, 0),) and slab.lineality_basis == ((0, 1, 0),)


def test_faces_of_square():
    square = _poly([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], 2)
    fs = square.faces()
    assert len(fs) == 9
    dims = sorted(f.dim for f in fs)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    for f in fs:
        assert face_of(f, square)
    edge = _poly([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 0)], 2)
    assert face_of(edge, square)
    inner = Polyhedron.from_generators([(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))])
    assert square.contains_polyhedron(inner)
    assert not face_of(inner, square)


def test_face_of_is_partial_order_on_cone_faces():
    cone = Cone.from_rays([(1, 0), (1, 2)], 2)
    fs = cone.faces()
    for a in fs:
        for b in fs:
            for c in fs:
                if face_of(a, b) and face_of(b, c):
                    assert face_of(a, c)
            if face_of(a, b) and face_of(b, a):
                assert a == b


def test_cone_rays_round_trip():
    cone = Cone.from_rays([(1, 0), (1, 2)], 2)
    assert cone.rays == ((1, 0), (1, 2))
    assert Cone.from_rays(cone.rays, 2) == cone
    zero = Cone.zero(2)
    assert zero.is_zero and zero.dim == 0
    halfplane = Cone.from_halfspaces([((1, 0), 0)], 2)
    lin, rays = halfplane.generator_description
    assert lin == ((0, 1),) and rays == ((1, 0),)
    assert sorted(halfplane.generators) == [(0, -1), (0, 1), (1, 0)]


def test_fan_from_cones_completes_faces():
    fan = Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2),
                          Cone.from_rays([(0, 1), (-1, -1)], 2),
                          Cone.from_rays([(-1, -1), (1, 0)], 2)])
    assert len(fan) == 7  # zero cone, three rays, three maximal cones
    assert fan.index_of(Cone.zero(2)) == 0
    ray = Cone.from_rays([(1, 0)], 2)
    assert fan.index_of(ray) is not None


def test_fan_face_indices_computed_once(monkeypatch):
    fan = Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2)])
    top = len(fan) - 1
    first = fan.face_indices(top)
    assert first == tuple(range(len(fan)))

    def refuse(self):
        raise AssertionError("face lattice recomputed")

    monkeypatch.setattr(Cone, "faces", refuse)
    assert fan.face_indices(top) == first
    assert Cone.zero(2) is Cone.zero(2)


def test_fan_rejects_bad_collections():
    with pytest.raises(NotAFan):
        Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2),
                        Cone.from_rays([(1, 1), (1, -1)], 2)])
    with pytest.raises(NotAFan):
        Fan.from_cones([Cone.from_halfspaces([((1, 0), 0)], 2)])  # not pointed


def test_fan_error_names_the_failing_maximal_pair():
    # Cone 2, the ray (1, 1), is a face of cone 5 = cone((1, 1), (-1, 1)) and lies
    # inside cone 6, the positive quadrant, without being a face of it.  Only the
    # maximal cones 5 and 6 are paired; their meet, cone((1, 1), (0, 1)), is no cone.
    with pytest.raises(NotAFan, match=r"^intersection of cones 5 and 6 is not in the fan$"):
        Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2),
                        Cone.from_rays([(1, 1), (-1, 1)], 2)])
    # Here the ray (1, 1), cone 2, is maximal; it meets the quadrant in itself.
    with pytest.raises(NotAFan, match=r"^cones 2 and 4 do not meet in a common face$"):
        Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2), Cone.from_rays([(1, 1)], 2)])


def test_fan_not_closed_under_faces():
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2)
    fan = Fan(2, (Cone.zero(2), quadrant))  # the two rays are missing
    with pytest.raises(NotAFan):
        fan.validate()
    with pytest.raises(NotAFan):
        fan.face_indices(1)


def test_is_admissible():
    fan = Fan.from_cones([Cone.from_rays([(1,)], 1)])  # {0} and the ray
    ray_shifted = _poly([((1,), 1)], 1)
    res = is_admissible(ray_shifted, fan)
    assert res.ok and fan.cones[res.cone_index] == Cone.from_rays([(1,)], 1)
    segment = _poly([((1,), 0), ((-1,), -1)], 1)
    res = is_admissible(segment, fan)
    assert res.ok and fan.cones[res.cone_index].is_zero
    ray_down = _poly([((-1,), 0)], 1)
    res = is_admissible(ray_down, fan)
    assert not res.ok and res.reason == "recession cone is not a cone of the fan"
    halfplane = _poly([((1, 0), 0)], 2)
    fan2 = Fan.trivial(2)
    res = is_admissible(halfplane, fan2)
    assert not res.ok and res.reason == "polyhedron is not pointed"


def test_ambient_zero():
    p = Polyhedron.full_space(0)
    assert not p.is_empty and p.dim == 0
    assert p.contains(())
    assert p.relative_interior_point() == ()
    assert p.vrep().vertices == ((),)


def test_intersection_and_translate():
    a = _poly([((1, 0), 0)], 2)
    b = _poly([((-1, 0), -1)], 2)
    strip = a.intersection(b)
    assert strip.contains((F(1, 2), F(100)))
    assert not strip.contains((2, 0))
    moved = strip.translate((1, 0))
    assert moved.contains((F(3, 2), F(0)))
    assert not moved.contains((F(1, 2), F(0)))


@st.composite
def polyhedron_pairs(draw):
    """(p, q) in Q^1..Q^3, each from at most 5 rows with entries in [-2, 2].

    p is drawn on its own, as q cut by up to 3 more rows (p = q ∩ r), as q
    with one of its facets made tight, or empty.  Few rows leave many of
    them non-pointed, and equality pairs make them lower-dimensional.
    """
    ambient = draw(st.integers(1, 3))

    def rows(most):
        out = []
        for _ in range(draw(st.integers(0, most))):
            normal = draw(st.tuples(*[st.integers(-2, 2)] * ambient))
            b = draw(st.builds(F, st.integers(-4, 4), st.integers(1, 2)))
            out.append((normal, b))
            if draw(st.integers(0, 3)) == 0:
                out.append((tuple(-v for v in normal), -b))
        return out

    q = _poly(rows(5), ambient)
    kind = draw(st.sampled_from(["other", "meet", "face", "empty"]))
    if kind == "other":
        p = _poly(rows(5), ambient)
    elif kind == "meet":
        p = q.intersection(_poly(rows(3), ambient))
    elif kind == "face" and q.facets:
        n, b = draw(st.sampled_from(q.facets))
        p = _poly(q.halfspace_pairs + ((tuple(-v for v in n), -b),), ambient)
    else:
        p = Polyhedron.empty(ambient)
    return p, q


_PLANE = _poly([((1, 0, 0), 0), ((-1, 0, 0), 0)], 3)  # x = 0 in Q^3
_LINE = _PLANE.intersection(_poly([((0, 1, 0), 1), ((0, -1, 0), -1)], 3))  # and y = 1
_SQUARE = _poly([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], 2)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(polyhedron_pairs())
@example((_LINE, _PLANE))  # a line in a plane
@example((Polyhedron.single_point((1, F(1, 2))), _SQUARE))  # a point on a facet
@example((Polyhedron.single_point((F(3, 2), F(1, 2))), _SQUARE))  # a point outside
def test_containment_and_meet_match_lp_oracles(pair):
    p, q = pair
    assert q.contains_polyhedron(p) == oracles.contains_lp(q, p)
    assert p.contains_polyhedron(q) == oracles.contains_lp(p, q)
    assert (not p.intersection(q).is_empty) == oracles.meets_lp(p, q)


def test_determinism_of_construction():
    pairs = [((1, 2), F(1, 3)), ((-1, 1), -2), ((0, -1), -5)]
    first = _poly(pairs, 2)
    for _ in range(3):
        again = _poly(list(reversed(pairs)), 2)
        assert again == first
        assert again.halfspace_pairs == first.halfspace_pairs
        assert again.vrep() == first.vrep()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(halfspace_systems())
@example((3, [((1, 0, 0), F(0)), ((-1, 0, 0), F(0)), ((0, 1, 0), F(1))]))  # a half-plane
@example((2, []))  # the whole plane
def test_kept_pass_equals_pass_over_canonical_rows(system):
    ambient, rows = system
    p = _poly(rows, ambient)
    if not p.is_empty:
        assert p.__dict__["_generators"] == _homogenized_dd(p.halfspace_pairs, ambient)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(halfspace_systems())
@example((3, []))  # the full space: identity in the order e_0, e_1, e_2
@example((2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)]))  # the zero cone
@example((3, [((1, 1, 0), 0), ((0, 0, 1), 0)]))  # a wedge around a line
def test_generator_description_matches_dd_oracle(system):
    ambient, rows = system
    cone = Cone.from_halfspaces([(n, 0) for n, _ in rows], ambient)
    expected = oracles.generator_description_dd(cone)
    assert cone.generator_description == expected
    assert Cone.of(cone.as_polyhedron()).generator_description == expected
    unseeded = Cone(cone.ambient, cone.is_empty, cone.equalities, cone.facets)
    assert unseeded.generator_description == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(halfspace_systems(), st.booleans())
@example((2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]), False)  # square
@example((3, [((1, 0, 0), F(1, 2)), ((-1, 0, 0), F(-1, 2)), ((0, 1, 0), 2),
              ((0, -1, 0), -2), ((0, 0, 1), 0), ((0, 0, -1), 0)]), False)  # a point
@example((3, []), True)  # the full space
@example((3, [((1, 1, 0), 0), ((0, 0, 1), 0)]), True)  # a wedge around a line
@example((4, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 1), ((-1, -1, 0, 0), -3)]),
         False)  # a triangle times a plane: not pointed
@example((3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 1), ((0, 0, -1), -1)]),
         False)  # a quadrant in the plane z = 1: unbounded, lower-dimensional
def test_faces_match_facet_walk_oracle(system, as_cone):
    ambient, rows = system
    if as_cone:
        p = Cone.from_halfspaces([(n, 0) for n, _ in rows], ambient)
    else:
        p = _poly(rows, ambient)
    faces = p.faces()
    assert faces == oracles.faces_walk(p)
    assert all(type(f) is type(p) for f in faces)
    for f in faces:
        assert f.__dict__["_generators"] == _homogenized_dd(f.halfspace_pairs, ambient)


def test_faces_run_no_dd_pass(monkeypatch):
    polys = [_poly([((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1),
                    ((0, 0, 1), 0), ((0, 0, -1), -1)], 3),  # the unit cube
             _poly([((1, 0, 0), 0), ((0, 1, 0), 1), ((-1, -1, 0), -3)], 3),  # non-pointed
             Cone.from_halfspaces([((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 1), 0)], 3)]
    calls = []
    real = polyhedra._dd_cone

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_dd_cone", counting)
    counts = [len(p.faces()) for p in polys]
    assert counts == [27, 7, 8]
    assert calls == []


@st.composite
def ray_lists(draw):
    """(ambient, rays): up to 6 rays in Z^1..Z^4, zero rays and lines included."""
    ambient = draw(st.integers(1, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * ambient), max_size=6))
    if rays and draw(st.booleans()):
        rays.append(tuple(-v for v in draw(st.sampled_from(rays))))
    return ambient, rays


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ray_lists())
@example((3, []))  # the zero cone
@example((2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))  # the whole plane
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1)]))  # a half-plane
def test_cone_from_rays_matches_dd_oracle(system):
    ambient, rays = system
    assert Cone.from_rays(rays, ambient) == oracles.cone_from_rays_dd(rays, ambient)


@st.composite
def face_candidates(draw):
    """(q, p) in Q^1..Q^4: q a face of p, p cut by more rows, or unrelated.

    p comes from at most 5 rows with entries in [-2, 2], so it is often
    non-pointed; equality pairs make it lower-dimensional.
    """
    ambient = draw(st.integers(1, 4))

    def rows(most):
        out = []
        for _ in range(draw(st.integers(0, most))):
            normal = draw(st.tuples(*[st.integers(-2, 2)] * ambient))
            b = draw(st.builds(F, st.integers(-4, 4), st.integers(1, 2)))
            out.append((normal, b))
            if draw(st.integers(0, 3)) == 0:
                out.append((tuple(-v for v in normal), -b))
        return out

    p = _poly(rows(5), ambient)
    kind = draw(st.sampled_from(["face", "face", "cut", "other"]))
    if kind == "face" and not p.is_empty:
        q = draw(st.sampled_from(p.faces()))
    elif kind == "cut":
        q = p.intersection(_poly(rows(3), ambient))
    else:
        q = _poly(rows(5), ambient)
    return q, p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(face_candidates())
@example((_LINE, _PLANE))  # a line inside a plane: not a face
@example((_poly([((0, 1), 0), ((0, -1), 0)], 2), _poly([((0, 1), 0)], 2)))  # boundary line
@example((Cone.zero(2), Cone.from_rays([(1, 0), (0, 1)], 2)))  # apex of a quadrant
def test_is_face_of_matches_lp_oracle(pair):
    q, p = pair
    assert q.is_face_of(p) == oracles.is_face_of_lp(q, p)
    assert p.is_face_of(q) == oracles.is_face_of_lp(p, q)


def test_face_relation_solves_no_lp(monkeypatch):
    strip = _poly([((0, 1), 0), ((0, -1), -1)], 2)  # 0 <= y <= 1
    edge = _poly([((0, 1), 0), ((0, -1), 0)], 2)  # y = 0
    middle = _poly([((0, 2), 1), ((0, -2), -1)], 2)  # y = 1/2
    slab = _poly([((0, 0, 1), 0), ((0, 0, -1), -1)], 3)
    floor = _poly([((0, 0, 1), 0), ((0, 0, -1), 0)], 3)
    half_slab = slab.intersection(_poly([((1, 0, 0), 0)], 3))  # and x >= 0
    half_floor = floor.intersection(half_slab)
    edge_line = half_floor.intersection(_poly([((-1, 0, 0), 0)], 3))  # the y-axis

    passes = []
    real = polyhedra._dd_cone

    def refuse(*args, **kwargs):
        raise AssertionError("the face relation solved an LP")

    def counting(*args):
        passes.append(args)
        return real(*args)

    for name in ("minimize", "maximize", "feasible_point"):
        monkeypatch.setattr(lp, name, refuse)
    monkeypatch.setattr(polyhedra, "_dd_cone", counting)
    assert edge.is_face_of(strip)
    assert not middle.is_face_of(strip)
    assert floor.is_face_of(slab)
    assert half_floor.is_face_of(half_slab) and not half_floor.is_face_of(slab)
    assert not half_floor.is_face_of(floor)
    assert edge_line.is_face_of(half_slab) and edge_line.is_face_of(half_floor)
    assert passes == []


def test_kept_pass_serves_later_readers(monkeypatch):
    real = polyhedra._dd_cone
    passes = []

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_dd_cone", counting)
    corner = _poly([((1, 0), 1), ((0, 1), 0), ((1, 1), 2), ((2, 0), 1)], 2)  # pointed, unbounded
    segment = _poly([((1, 0), 2), ((-1, 0), -3), ((0, 1), 1), ((0, -1), -1)], 2)
    quadrant = Cone.from_halfspaces([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                                     ((0, 0, -1), 0), ((1, 1, 0), 0)], 3)
    recast = Cone.of(_poly([((1, 1), 0), ((1, -1), 0), ((2, 0), 0)], 2))
    built = len(passes)
    assert built == 4

    assert corner.vrep() == VRep(((F(1), F(1)), (F(2), F(0))), ((0, 1), (1, 0)))
    assert corner.contains_polyhedron(segment) and not segment.contains_polyhedron(corner)
    for cone in (quadrant, recast):
        lin, rays = cone.generator_description
        assert not lin and cone.rays == rays and len(cone.vrep().rays) == 2
        assert cone.contains_polyhedron(cone)
    assert len(passes) == built
