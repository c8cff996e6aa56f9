import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adictrop import lp
from adictrop.degeneration import hypersurface_trop, tilted_algebra
from adictrop.errors import EmptyPolyhedron, NotAFan, NotPointed
from adictrop.parsing import parse_poly
from adictrop.polyhedra import (Cone, Fan, HalfSpace, Polyhedron, face_of,
                                is_admissible, recession_cone)

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


def test_determinism_of_construction():
    pairs = [((1, 2), F(1, 3)), ((-1, 1), -2), ((0, -1), -5)]
    first = _poly(pairs, 2)
    for _ in range(3):
        again = _poly(list(reversed(pairs)), 2)
        assert again == first
        assert again.halfspace_pairs == first.halfspace_pairs
        assert again.vrep() == first.vrep()
