import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from adictrop import linalg as la
from adictrop import lp
from adictrop.errors import NotAdmissible, NotPointed
from adictrop.polyhedra import Cone, Fan, Polyhedron
from adictrop.toric import (ExtendedPoint, closure_strata, dual_cone, extended_contains,
                            hilbert_basis, semigroup_generators, stratum_lattice)


def cone_of(*rays):
    return Cone.from_rays(rays, len(rays[0]))


# -- dual cones ---------------------------------------------------------------

def test_dual_cone_frozen_example():
    c = cone_of((0, 1), (1, 1))
    assert set(dual_cone(c).rays) == {(1, 0), (-1, 1)}


def test_dual_of_orthant_is_orthant():
    c = cone_of((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert dual_cone(c) == c


def test_dual_of_zero_cone_is_everything():
    d = dual_cone(Cone.zero(2))
    assert d.dim == 2 and not d.equalities and not d.facets


def test_dual_of_full_space_is_zero():
    assert dual_cone(Cone.from_halfspaces([], 2)).is_zero


def test_double_dual_round_trip():
    rng = random.Random(11)
    for _ in range(15):
        rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        c = Cone.from_rays(rays, 3)
        assert dual_cone(dual_cone(c)) == c


# -- Hilbert bases ------------------------------------------------------------

def test_hilbert_basis_needs_no_interior_point():
    # [DERIVED] det = 1: the fundamental parallelepiped holds no new irreducibles
    assert hilbert_basis(cone_of((0, 1), (1, 1))) == ((0, 1), (1, 1))


def test_hilbert_basis_with_interior_generator():
    # [DERIVED] (1,1) is irreducible: (1,1)-(1,0)=(0,1) and (1,1)-(1,2)=(0,-1)
    # both leave the cone
    assert hilbert_basis(cone_of((1, 0), (1, 2))) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_quadrant():
    assert hilbert_basis(cone_of((1, 0), (0, 1))) == ((0, 1), (1, 0))


def test_hilbert_basis_zero_cone():
    assert hilbert_basis(Cone.zero(2)) == ()


def test_hilbert_basis_rejects_lineality():
    half = Cone.from_halfspaces([((0, 1), 0)], 2)
    with pytest.raises(NotPointed):
        hilbert_basis(half)


def test_hilbert_basis_sublattice():
    # points (a, 2b): in those coordinates the cone spanned by (1,0),(1,2)
    # becomes the cone spanned by (1,0),(1,1), which has no extra generator
    assert hilbert_basis(cone_of((1, 0), (1, 2)), lattice=[(1, 0), (0, 2)]) == ((1, 0), (1, 1))


def _integer_generated(x, gens, member):
    """Does x split as a nonnegative integer combination of gens?

    Depth-first search over semigroup elements; for pointed cones the
    reachable set is finite, so the visited set guarantees termination.
    """
    seen = set()
    stack = [tuple(x)]
    while stack:
        y = stack.pop()
        if all(v == 0 for v in y):
            return True
        if y in seen:
            continue
        seen.add(y)
        for g in gens:
            z = tuple(p - q for p, q in zip(y, g))
            if member(z):
                stack.append(z)
    return False


def test_hilbert_basis_generates():
    rng = random.Random(23)
    for _ in range(10):
        rays = [tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(2)]
        c = Cone.from_rays(rays, 2)
        if not c.is_pointed or c.is_empty:
            continue
        basis = hilbert_basis(c)
        for x in oracles.box_lattice_points([(-6, 6)] * 2):
            if not c.contains(x):
                continue
            assert _integer_generated(x, basis, c.contains), \
                f"{x} not generated by {basis}"


@st.composite
def pointed_cones(draw):
    """A pointed cone on 1-5 integer rays in Q^1..Q^3, and maybe a sublattice basis."""
    n = draw(st.sampled_from([3, 2, 1]))
    k = draw(st.integers(1, 5))
    # half the time all rays lie over a polytope at positive height: pointed,
    # and for n = 3 and k >= 4 mostly not simplicial
    last = range(1, 4) if draw(st.booleans()) else range(-3, 4)
    entry = st.sampled_from(range(-3, 4))
    rays = draw(st.lists(st.tuples(*[entry] * (n - 1), st.sampled_from(last)),
                         min_size=k, max_size=k))
    cone = Cone.from_rays(rays, n)
    assume(cone.is_pointed)
    lattice = None
    if draw(st.booleans()):
        # lower triangular with diagonal 1 or 2: a sublattice of index 1..2^n
        lattice = tuple(tuple(draw(st.integers(1, 2)) if j == i
                              else draw(st.integers(-1, 1)) if j < i else 0
                              for j in range(n)) for i in range(n))
    return cone, lattice


def _in_lattice_coordinates(cone, lattice):
    """The cone {c : c . B in cone}, built from its rays x . B^-1."""
    columns = list(zip(*lattice))
    return Cone.from_rays([la.solve_exact(columns, r) for r in cone.rays], cone.ambient)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pointed_cones())
@example((cone_of((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), None))
@example((cone_of((1, 0, 0), (1, 3, 0)), None))
@example((cone_of((1, 0), (1, 2)), ((1, 0), (0, 2))))
@example((cone_of((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), ((1, 0, 0), (1, 2, 0), (0, 0, 1))))
@example((cone_of((1, 0), (1, 7)), None))  # seven candidates, reduced in degree order
@example((cone_of((2, -1, 1), (-1, 2, 1), (-1, -1, 1)), ((1, 0, 0), (0, 1, 0), (1, 1, 3))))
def test_hilbert_basis_matches_zonotope_oracle(case):
    cone, lattice = case
    working = cone if lattice is None else _in_lattice_coordinates(cone, lattice)
    # the oracle solves one LP per point of the zonotope's box inside the
    # cone: cap their number to bound its cost
    gens = working.rays
    box = [(sum(min(0, g[c]) for g in gens), sum(max(0, g[c]) for g in gens))
           for c in range(working.ambient)]
    assume(sum(1 for x in oracles.box_lattice_points(box) if working.contains(x)) <= 100)
    assert hilbert_basis(cone, lattice=lattice) == oracles.hilbert_basis_zonotope(working)


def test_hilbert_basis_solves_no_lp(monkeypatch):
    # non-simplicial: the cone over the square |x| + |y| <= 2 at height 1,
    # whose 13 lattice points are its Hilbert basis
    cone = cone_of((2, 0, 1), (0, 2, 1), (-2, 0, 1), (0, -2, 1))
    cone.rays

    def refuse(*args, **kwargs):
        raise AssertionError("hilbert_basis solved an LP")

    monkeypatch.setattr(lp, "minimize", refuse)
    assert hilbert_basis(cone) == tuple(sorted(
        (x, y, 1) for x in range(-2, 3) for y in range(-2, 3) if abs(x) + abs(y) <= 2))


# -- semigroups with lineality -------------------------------------------------

def test_semigroup_generators_halfplane():
    half = Cone.from_halfspaces([((0, 1), 0)], 2)
    gens = semigroup_generators(half)
    assert len(gens.lineality) == 1
    assert gens.all == ((-1, 0), (0, 1), (1, 0))


def test_semigroup_generators_pointed_passthrough():
    gens = semigroup_generators(cone_of((1, 0), (1, 2)))
    assert gens.lineality == ()
    assert gens.all == ((1, 0), (1, 1), (1, 2))


def test_semigroup_generators_full_plane():
    full = Cone.from_halfspaces([], 2)
    gens = semigroup_generators(full)
    assert len(gens.lineality) == 2
    la.invert_unimodular(list(gens.lineality))  # raises unless unimodular
    span = set(gens.all)
    assert all(tuple(-v for v in g) in span for g in span)


def test_semigroup_generators_skew_halfplane():
    # lineality along (1,2), pointed part on one side
    c = Cone.from_halfspaces([((2, -1), 0)], 2)
    gens = semigroup_generators(c)
    lin = gens.lineality[0]
    assert la.primitive(lin) in {(1, 2), (-1, -2)}
    assert len(gens.lifted) == 1
    g = gens.lifted[0]
    # every lattice point of the halfplane is n*g + a*lin with n >= 0, a in Z
    l1, l2 = lin
    for x in oracles.box_lattice_points([(-3, 3)] * 2):
        if not c.contains(x):
            continue
        ok = False
        for n in range(0, 20):
            y = (x[0] - n * g[0], x[1] - n * g[1])
            if y[0] * l2 - y[1] * l1 == 0:
                a = y[0] // l1 if l1 else y[1] // l2
                ok = (a * l1, a * l2) == y
                break
        assert ok, f"{x} not generated by {gens.all}"


# -- stratum lattices ----------------------------------------------------------

def quadrant_fan():
    return Fan.from_cones([cone_of((1, 0), (0, 1))])


def test_stratum_lattice_shapes():
    fan = quadrant_fan()
    by_dim = {fan.cones[i].dim: i for i in range(len(fan))}
    sl0 = stratum_lattice(fan, by_dim[0])
    assert sl0.rank == 0 and sl0.quotient_rank == 2
    assert sl0.project((3, Fraction(1, 2))) == (3, Fraction(1, 2))
    sl2 = stratum_lattice(fan, by_dim[2])
    assert sl2.rank == 2 and sl2.quotient_rank == 0
    assert sl2.project((5, 7)) == ()


def test_stratum_lattice_ray():
    fan = quadrant_fan()
    idx = fan.index_of(cone_of((1, 0)))
    sl = stratum_lattice(fan, idx)
    assert sl.rank == 1 and sl.quotient_rank == 1
    assert sl.contains_exponent((0, 3))
    assert not sl.contains_exponent((1, 0))
    a = sl.exponent_coords((0, 3))
    p = sl.project((2, 5))
    assert la.dot(la.vec(a), la.vec(p)) == 15  # <(0,3),(2,5)>


def test_stratum_duality_random():
    rng = random.Random(5)
    fan = Fan.from_cones([cone_of((1, 0, 0), (1, 2, 0), (0, 0, 1))])
    for idx in range(len(fan)):
        sl = stratum_lattice(fan, idx)
        basis = sl.msigma_basis()
        assert len(basis) == sl.quotient_rank
        for _ in range(5):
            coeffs = [rng.randint(-4, 4) for _ in basis]
            u = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(3))
            assert sl.contains_exponent(u)
            assert sl.exponent_coords(u) == tuple(coeffs)
            v = la.vec([rng.randint(-5, 5) for _ in range(3)])
            assert la.dot(la.vec(u), v) == la.dot(la.vec(coeffs), la.vec(sl.project(v)))


# -- closure strata ------------------------------------------------------------

def test_closure_strata_halfline():
    fan = Fan.from_cones([cone_of((1,))])
    p = Polyhedron.from_halfspaces([((1,), 0)], 1)
    ext = closure_strata(p, fan)
    zero_idx = fan.index_of(Cone.zero(1))
    ray_idx = fan.index_of(cone_of((1,)))
    assert ext.stratum(zero_idx) == p
    at_infinity = ext.stratum(ray_idx)
    assert at_infinity.ambient == 0 and not at_infinity.is_empty
    assert extended_contains(ext, ExtendedPoint(ray_idx, ()))
    assert extended_contains(ext, ExtendedPoint(zero_idx, (7,)))
    assert not extended_contains(ext, ExtendedPoint(zero_idx, (-1,)))


def test_closure_strata_strip():
    fan = quadrant_fan()
    # 0 <= y <= 1, x >= y: recession cone is the ray (1,0)
    p = Polyhedron.from_halfspaces(
        [((0, 1), 0), ((0, -1), -1), ((1, -1), 0)], 2)
    ext = closure_strata(p, fan)
    ray_idx = fan.index_of(cone_of((1, 0)))
    seg = ext.stratum(ray_idx)
    assert seg == Polyhedron.from_generators([(0,), (1,)])
    assert ext.stratum(fan.index_of(cone_of((0, 1)))) is None
    assert not extended_contains(ext, ExtendedPoint(fan.index_of(cone_of((0, 1))), (0,)))


def test_closure_strata_bounded_polyhedron_stays_finite():
    fan = quadrant_fan()
    square = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
    ext = closure_strata(square, fan)
    assert len(ext.strata) == 1
    assert ext.strata[0][1] == square


def test_closure_strata_rejects_inadmissible():
    fan = quadrant_fan()
    bad = Polyhedron.from_generators([(0, 0)], [(1, 1), (1, -1)])  # wrong recession cone
    with pytest.raises(NotAdmissible):
        closure_strata(bad, fan)
    with pytest.raises(NotAdmissible):
        closure_strata(Polyhedron.from_halfspaces([((0, 1), 0)], 2), fan)  # not pointed
