"""Valued coefficients, tropical evaluation, corner loci, tilted algebras."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from adictrop import polyhedra
from adictrop.complexes import ExtendedComplex
from adictrop.degeneration import (InitialIdeal, LaurentPoly, ResiduePoly, ValuedCoeff,
                                   _tilted_cone,
                                   hypersurface_trop, initial_degeneration_ideal,
                                   initial_form, initial_form_on_stratum, is_integral_at,
                                   linearity_complex, monomial_polyhedron,
                                   special_fiber_relations, tilted_algebra, trop_eval)
from adictrop.errors import (DenominatorMismatch, ExponentOutsideSublattice,
                             MalformedInput, NonRationalPoint, NotAdmissible,
                             UnverifiedBasis, ZeroPolynomial)
from adictrop.parsing import parse_coeff, parse_poly
from adictrop.polyhedra import Cone, Fan, Polyhedron, _homogenized_dd
from adictrop.toric import ExtendedPoint, stratum_lattice

F = Fraction


def interval(a, b):
    return Polyhedron.from_halfspaces([((1,), a), ((-1,), -b)], 1)


# -- valued coefficients ---------------------------------------------------------

def test_valued_coeff_normalization():
    a = ValuedCoeff.of([(0, 1), (0, -1), (2, 3)])
    assert a.terms == ((F(2), F(3)),)
    assert ValuedCoeff.of([(1, 1), (1, -1)]).is_zero
    assert ValuedCoeff.zero().valuation is None
    assert ValuedCoeff.zero().residue == 0


def test_valued_coeff_valuation_and_residue():
    a = ValuedCoeff.of([(F(1, 2), 3), (2, -1)])
    assert a.valuation == F(1, 2)
    assert a.residue == 3
    assert not a.is_unit
    assert ValuedCoeff.rational(5).is_unit


def test_valued_coeff_arithmetic():
    one, t = ValuedCoeff.one(), ValuedCoeff.t_power(1)
    assert (one + t) * (one - t) == ValuedCoeff.of([(0, 1), (2, -1)])
    half = ValuedCoeff.t_power(F(1, 2))
    assert half * half == t
    a = ValuedCoeff.of([(F(1, 3), 2)])
    b = ValuedCoeff.of([(F(-1, 2), 5)])
    assert (a * b).valuation == F(1, 3) + F(-1, 2)
    assert (a * b).residue == 10


def test_valued_coeff_rejects_floats():
    with pytest.raises(Exception):
        ValuedCoeff.of([(0.5, 1)])
    with pytest.raises(Exception):
        ValuedCoeff.of([(0, 0.5)])


# -- Laurent polynomials ---------------------------------------------------------

def test_laurent_poly_combines_terms():
    f = LaurentPoly.of(1, [((1,), 1), ((1,), ValuedCoeff.t_power(1)), ((0,), 0)])
    assert f.terms == (((1,), ValuedCoeff.of([(0, 1), (1, 1)])),)
    with pytest.raises(ValueError):
        LaurentPoly.of(2, [((1,), 1)])


def test_laurent_poly_product():
    x = LaurentPoly.monomial(2, (1, 0))
    y = LaurentPoly.monomial(2, (0, 1))
    assert (x + y) * (x - y) == LaurentPoly.of(2, [((2, 0), 1), ((0, 2), -1)])
    assert (x - x).is_zero
    assert x.is_monomial and not (x + y).is_monomial


def test_laurent_poly_to_string():
    f = parse_poly("(1 + t)*x + 2", variables=("x",))
    assert f.to_string(("x",)) == "(1 + t)*x + 2"


# -- tropical evaluation and initial forms -----------------------------------------

def line_poly():
    return parse_poly("x + y + 1")  # variables x, y alphabetically


def test_trop_eval_at_origin():
    value, argmin = trop_eval(line_poly(), (0, 0))
    assert value == 0
    assert argmin == ((0, 0), (0, 1), (1, 0))


def test_trop_eval_off_locus():
    value, argmin = trop_eval(line_poly(), (2, 2))
    assert value == 0 and argmin == ((0, 0),)
    value, argmin = trop_eval(line_poly(), (-2, -2))
    assert value == -2 and argmin == ((0, 1), (1, 0))


def test_trop_eval_errors():
    with pytest.raises(ZeroPolynomial):
        trop_eval(LaurentPoly.zero(2), (0, 0))
    with pytest.raises(NonRationalPoint):
        trop_eval(line_poly(), (0.5, 0))
    with pytest.raises(NonRationalPoint):
        trop_eval(line_poly(), (1,))


def test_initial_form_values():
    f = line_poly()
    assert initial_form(f, (2, 2)) == ResiduePoly.of(2, [((0, 0), 1)])
    assert initial_form(f, (-2, -2)) == ResiduePoly.of(2, [((0, 1), 1), ((1, 0), 1)])
    assert initial_form(f, (0, 0)) == ResiduePoly.of(
        2, [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)])
    g = parse_poly("t*x + 1", variables=("x",))
    assert initial_form(g, (0,)) == ResiduePoly.of(1, [((0,), 1)])


def test_initial_form_unit_scaling_invariance():
    f = parse_poly("x + t*y + 2", variables=("x", "y"))
    unit = LaurentPoly.of(2, [((0, 0), ValuedCoeff.of([(0, 1), (1, 7)]))])
    g = unit * f
    for w in [(0, 0), (1, -1), (F(1, 2), F(1, 3))]:
        assert initial_form(g, w) == initial_form(f, w)
    box = ((-2, -2), (2, 2))
    assert hypersurface_trop(g, box) == hypersurface_trop(f, box)


# -- monomial polyhedra ------------------------------------------------------------

def test_monomial_polyhedron_frozen_examples():
    x = parse_poly("x", variables=("x",))
    assert monomial_polyhedron(x) == Polyhedron.from_halfspaces([((1,), 0)], 1)
    tx = parse_poly("t*x^-1", variables=("x",))
    assert monomial_polyhedron(tx) == Polyhedron.from_halfspaces([((-1,), -1)], 1)
    both = parse_poly("x + t*x^-1", variables=("x",))
    assert monomial_polyhedron(both) == interval(0, 1)


def test_monomial_polyhedron_membership_lemma():
    rng = random.Random(7)
    for _ in range(60):
        nterms = rng.randint(1, 4)
        terms = []
        for _ in range(nterms):
            u = (rng.randint(-3, 3), rng.randint(-3, 3))
            val = F(rng.randint(-8, 8), 4)
            terms.append((u, ValuedCoeff.t_power(val, rng.choice([1, -1, 2]))))
        f = LaurentPoly.of(2, terms)
        if f.is_zero:
            continue
        p = monomial_polyhedron(f)
        w = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
        assert is_integral_at(f, w) == p.contains(w)


# -- corner locus -------------------------------------------------------------------

def test_hypersurface_trop_matches_grid_oracle():
    f = line_poly()
    mine = hypersurface_trop(f, ((-3, -3), (3, 3)))
    terms = [(u, a.valuation) for u, a in f.terms]
    oracle = oracles.grid_corner_locus(terms, [(-3, 3), (-3, 3)], F(1, 4))
    assert mine == oracle


def test_hypersurface_trop_shifted_line():
    f = parse_poly("x + y + t", variables=("x", "y"))
    faces = hypersurface_trop(f, ((-3, -3), (3, 3)))
    vertex = Polyhedron.from_generators([(1, 1)], ambient=2)
    assert vertex in faces
    terms = [(u, a.valuation) for u, a in f.terms]
    oracle = oracles.grid_corner_locus(terms, [(-3, 3), (-3, 3)], F(1, 4))
    assert faces == oracle


def test_hypersurface_trop_monomial_empty():
    f = parse_poly("t^2*x*y^-1", variables=("x", "y"))
    assert hypersurface_trop(f, ((-2, -2), (2, 2))) == ()
    with pytest.raises(ZeroPolynomial):
        hypersurface_trop(LaurentPoly.zero(2), ((-1, -1), (1, 1)))


def test_corner_locus_iff_initial_form_not_monomial():
    f = parse_poly("t*x^2 + y + x*y + t^3", variables=("x", "y"))
    faces = hypersurface_trop(f, ((-3, -3), (3, 3)))
    step = F(1, 2)
    w1 = -3
    while w1 <= 3:
        w2 = -3
        while w2 <= 3:
            on_locus = any(p.contains((w1, w2)) for p in faces)
            assert on_locus == (not initial_form(f, (w1, w2)).is_monomial)
            w2 += step
        w1 += step


def test_initial_form_constant_on_relative_interiors():
    f = parse_poly("t*x^2 + y + x*y + t^3", variables=("x", "y"))
    for face in hypersurface_trop(f, ((-3, -3), (3, 3))):
        z = face.relative_interior_point()
        forms = {initial_form(f, z)}
        for v in face.vrep().vertices:
            if v != z:
                mid = tuple((a + b) / 2 for a, b in zip(z, v))
                forms.add(initial_form(f, mid))
        assert len(forms) == 1


def test_linearity_complex_of_line():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [Cone.from_rays([r], 2) for r in rays]
    cones += [Cone.from_rays([rays[i], rays[j]], 2)
              for i, j in [(0, 1), (1, 2), (0, 2)]]
    fan = Fan.from_cones(cones)
    delta = linearity_complex(line_poly(), fan)
    assert len(delta) == 7
    from adictrop.complexes import is_complete
    assert is_complete(delta)


# -- tilted algebras ----------------------------------------------------------------

def test_tilted_algebra_origin():
    t = tilted_algebra(Polyhedron.single_point((0,)), 1)
    assert t.generators == (((-1,), F(0)), ((0,), F(1)), ((1,), F(0)))
    assert t.positive_part == (1,)


def test_tilted_algebra_unit_interval():
    t = tilted_algebra(interval(0, 1), 1)
    assert t.generators == (((-1,), F(1)), ((0,), F(1)), ((1,), F(0)))
    assert t.positive_part == (1,)


def test_tilted_algebra_orthant():
    quadrant = Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
    t = tilted_algebra(quadrant, 1)
    assert t.generators == (((0, 0), F(1)), ((0, 1), F(0)), ((1, 0), F(0)))
    assert t.positive_part == (0,)


def test_tilted_algebra_shifted_interval():
    t = tilted_algebra(interval(1, 2), 1)
    assert t.generators == (((-1,), F(2)), ((0,), F(1)), ((1,), F(-1)))
    assert t.positive_part == (1,)
    assert t.generators == oracles.semigroup_generators_boxed(interval(1, 2), 1, 4, 6)


def test_tilted_algebra_denominator_two():
    t = tilted_algebra(Polyhedron.single_point((0,)), 2)
    assert t.generators == (((-1,), F(0)), ((0,), F(1, 2)), ((1,), F(0)))
    half = tilted_algebra(interval(F(1, 2), 1), 2)
    assert half.generators == oracles.semigroup_generators_boxed(
        interval(F(1, 2), 1), 2, 4, 8)


def test_tilted_algebra_triangle_matches_oracle():
    tri = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1)], ambient=2)
    t = tilted_algebra(tri, 1)
    assert t.generators == oracles.semigroup_generators_boxed(tri, 1, 3, 3)
    for u, g in [((1, 0), F(0)), ((0, 1), F(0)), ((0, 0), F(1))]:
        assert (u, g) in t.generators


def test_tilted_algebra_errors():
    with pytest.raises(DenominatorMismatch):
        tilted_algebra(interval(F(1, 2), 1), 1)
    tilted_algebra(interval(F(1, 2), 1), 2)  # fine at the right denominator
    with pytest.raises(DenominatorMismatch):
        tilted_algebra(interval(0, 1), 0)
    with pytest.raises(NotAdmissible):
        tilted_algebra(Polyhedron.empty(1), 1)
    line = Polyhedron.from_halfspaces([], 1)
    with pytest.raises(NotAdmissible):
        tilted_algebra(line, 1)


def test_tilted_generators_are_members_and_closed():
    tri = Polyhedron.from_generators([(0, 0), (F(1, 2), 0), (0, 1)], ambient=2)
    t = tilted_algebra(tri, 2)
    for u, g in t.generators:
        assert oracles.semigroup_member(tri, u, g)
        assert t.contains_monomial(u, g)
    rng = random.Random(3)
    gens = t.generators
    for _ in range(20):
        (u1, g1), (u2, g2) = rng.choice(gens), rng.choice(gens)
        u = tuple(a + b for a, b in zip(u1, u2))
        assert t.contains_monomial(u, g1 + g2)


@st.composite
def tilted_inputs(draw, full_dimensional=True):
    """(P, D): a nonempty pointed P in Q^1..Q^3 with bounds in (1/D)Z.

    The rows have entries in [-2, 2] and bounds in [-4/D, 1/D].  Each
    coordinate is boxed to [-2, 2] half the time, so P is bounded, or its
    rays span less than the space, or all of it.  Unless
    `full_dimensional`, the first row may be doubled into an equality.
    """
    ambient = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    rows = [(draw(st.tuples(*[st.integers(-2, 2)] * ambient)), F(draw(st.integers(-4, 1)), d))
            for _ in range(draw(st.integers(ambient, ambient + 3)))]
    for i in range(ambient):
        if draw(st.booleans()):
            e = tuple(int(j == i) for j in range(ambient))
            rows += [(e, F(-2)), (tuple(-v for v in e), F(-2))]
    if not full_dimensional and draw(st.booleans()):
        rows.append((tuple(-v for v in rows[0][0]), -rows[0][1]))
    p = Polyhedron.from_halfspaces(rows, ambient)
    assume(not p.is_empty and p.is_pointed)
    assume(not full_dimensional or p.dim == ambient)
    assume(all((b * d).denominator == 1 for _, b in p.equalities + p.facets))
    return p, d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tilted_inputs())
@example((Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2), 1))  # rays span
@example((Polyhedron.from_halfspaces([((1, 0), 1), ((-1, 1), 0)], 2), 2))  # rays do not
@example((interval(F(1, 2), 1), 2))
def test_tilted_cone_read_off_facets(case):
    """The cone read off P's facets is the cone of P's vertex and ray rows,
    with the same kept pass, and that pass is the one over its own rows."""
    p, d = case
    n, rep = p.ambient, p.vrep()
    rows = [(tuple(d * x for x in v) + (1,), 0) for v in rep.vertices]
    rows += [(r + (0,), 0) for r in rep.rays]
    cone, expected = _tilted_cone(p, d), Cone.from_halfspaces(rows, n + 1)
    assert cone == expected
    assert cone.__dict__["_generators"] == expected.__dict__["_generators"] \
        == _homogenized_dd(cone.halfspace_pairs, n + 1)


def test_tilted_algebra_runs_no_dd_pass(monkeypatch):
    cases = [(Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0), ((-3, -2), -7)], 2), 1),
             (Polyhedron.from_halfspaces([((1, 0), F(1, 2)), ((-1, 2), 0)], 2), 2),
             (Polyhedron.from_generators([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 3)]), 1)]
    for p, _ in cases:
        p.vrep()  # the input's own pass, kept by its canonicalization
    passes = []
    real = polyhedra._dd_cone

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_dd_cone", counting)
    for p, d in cases:
        special_fiber_relations(tilted_algebra(p, d))
    assert passes == []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tilted_inputs(full_dimensional=False))
@example((Polyhedron.single_point((0,)), 1))
@example((Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2), 1))
def test_special_fiber_relations_match_pairwise_oracle(case):
    t = tilted_algebra(*case)
    assert special_fiber_relations(t) == oracles.special_fiber_relations_pairwise(t)
    assert t.positive_part == tuple(i for i, (u, g) in enumerate(t.generators)
                                    if t.monomial_strictly_positive(u, g))


# -- special fiber relations ---------------------------------------------------------

def test_special_fiber_unit_interval():
    t = tilted_algebra(interval(0, 1), 1)
    rel = special_fiber_relations(t)
    # generators sorted: 0 = t*x^-1, 1 = t, 2 = x
    assert rel.generator_vanishing == (1,)
    assert rel.identities == (((0, 2), (1,)),)
    assert rel.product_vanishing == ((0, 2),)


def test_special_fiber_origin_torus():
    t = tilted_algebra(Polyhedron.single_point((0,)), 1)
    rel = special_fiber_relations(t)
    # generators sorted: 0 = x^-1, 1 = t, 2 = x; x^-1 * x = 1 survives
    assert rel.generator_vanishing == (1,)
    assert rel.product_vanishing == ()
    assert ((), (0, 2)) in rel.identities


def test_special_fiber_orthant_plane():
    quadrant = Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
    rel = special_fiber_relations(tilted_algebra(quadrant, 1))
    assert rel.generator_vanishing == (0,)  # only the level monomial t
    assert rel.product_vanishing == ()
    assert rel.identities == ()


# -- initial degenerations -------------------------------------------------------------

def test_initial_ideal_principal():
    out = initial_degeneration_ideal([line_poly()], (2, 2))
    assert out == InitialIdeal((ResiduePoly.of(2, [((0, 0), 1)]),), True, False)
    out = initial_degeneration_ideal([line_poly()], (-2, -2))
    assert out.forms == (ResiduePoly.of(2, [((0, 1), 1), ((1, 0), 1)]),)


def test_initial_ideal_basis_flag():
    f, g = line_poly(), parse_poly("x - y", variables=("x", "y"))
    with pytest.raises(ValueError):
        initial_degeneration_ideal([f, g], (0, 0))
    with pytest.warns(UnverifiedBasis):
        out = initial_degeneration_ideal([f, g], (0, 0), tropical_basis_asserted=True)
    assert not out.principal and out.basis_asserted
    assert len(out.forms) == 2


def ray_fan_1d():
    return Fan.from_cones([Cone.from_rays([(1,)], 1)])


def test_initial_form_on_stratum_rank_zero():
    fan = ray_fan_1d()
    idx = fan.index_of(Cone.from_rays([(1,)], 1))
    lattice = stratum_lattice(fan, idx)
    f = LaurentPoly.of(1, [((0,), ValuedCoeff.of([(0, 1), (1, 1)]))])  # 1 + t
    x = ExtendedPoint(idx, ())
    assert initial_form_on_stratum(f, x, lattice) == ResiduePoly.of(0, [((), 1)])


def quadrant_fan():
    return Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2)])


def test_initial_form_on_stratum_vertical_ray():
    fan = quadrant_fan()
    idx = fan.index_of(Cone.from_rays([(0, 1)], 2))
    lattice = stratum_lattice(fan, idx)
    f = parse_poly("x + 1")  # exponents (1,), (0,) after rewriting in M_sigma
    f2 = LaurentPoly.of(2, [((1, 0), ValuedCoeff.one()), ((0, 0), ValuedCoeff.one())])
    x = ExtendedPoint(idx, (0,))
    form = initial_form_on_stratum(f2, x, lattice)
    assert form == ResiduePoly.of(1, [((0,), 1), ((1,), 1)]) \
        or form == ResiduePoly.of(1, [((0,), 1), ((-1,), 1)])
    g = LaurentPoly.of(2, [((1, 0), ValuedCoeff.t_power(2)), ((0, 0), ValuedCoeff.one())])
    assert initial_form_on_stratum(g, ExtendedPoint(idx, (1,)), lattice) == \
        ResiduePoly.of(1, [((0,), 1)])


def test_initial_form_on_stratum_rejects_outside_exponent():
    fan = quadrant_fan()
    idx = fan.index_of(Cone.from_rays([(0, 1)], 2))
    lattice = stratum_lattice(fan, idx)
    f = LaurentPoly.of(2, [((0, 1), ValuedCoeff.one()), ((0, 0), ValuedCoeff.one())])
    with pytest.raises(ExponentOutsideSublattice):
        initial_form_on_stratum(f, ExtendedPoint(idx, (0,)), lattice)


# -- parser ----------------------------------------------------------------------------

def test_parse_line():
    f = parse_poly("x + y + 1")
    assert f == LaurentPoly.of(2, [((1, 0), 1), ((0, 1), 1), ((0, 0), 1)])


def test_parse_grouped_coefficients():
    f = parse_poly("(3 + t^2)*x^2*y^-1 + t*x")
    expected = LaurentPoly.of(2, [
        ((2, -1), ValuedCoeff.of([(0, 3), (2, 1)])),
        ((1, 0), ValuedCoeff.t_power(1)),
    ])
    assert f == expected


def test_parse_t_exponent_variants():
    for text in ["t^1/2", "t^(1/2)", "t^{1/2}"]:
        assert parse_poly(text, variables=()) == LaurentPoly.of(
            0, [((), ValuedCoeff.t_power(F(1, 2)))])
    assert parse_poly("t^-2", variables=()) == LaurentPoly.of(
        0, [((), ValuedCoeff.t_power(-2))])
    assert parse_poly("2*t^3*x", variables=("x",)) == LaurentPoly.of(
        1, [((1,), ValuedCoeff.t_power(3, 2))])


def test_parse_rational_coefficients_and_cancellation():
    assert parse_poly("x - x", variables=("x",)).is_zero
    f = parse_poly("3/2*x - 1/2", variables=("x",))
    assert f == LaurentPoly.of(1, [((1,), F(3, 2)), ((0,), F(-1, 2))])
    assert parse_poly("-x + 1", variables=("x",)) == LaurentPoly.of(
        1, [((1,), -1), ((0,), 1)])


def test_parse_errors():
    for bad in ["x +", "x^(1/2)", "2.5", "", "x x", "(x"]:
        with pytest.raises(MalformedInput):
            parse_poly(bad, variables=("x",))
    with pytest.raises(MalformedInput):
        parse_poly("q*x", variables=("x",))
    with pytest.raises(MalformedInput):
        parse_poly("x", variables=("t", "x"))


def test_parse_coeff():
    assert parse_coeff("3 + t^2") == ValuedCoeff.of([(0, 3), (2, 1)])
    assert parse_coeff("0") == ValuedCoeff.zero()


def test_parse_round_trip():
    for text in ["x + y + 1", "(3 + t^2)*x^2*y^-1 + t*x", "t^(1/2)*x + 2*y^-3"]:
        f = parse_poly(text, variables=("x", "y"))
        again = parse_poly(f.to_string(("x", "y")), variables=("x", "y"))
        assert f == again
