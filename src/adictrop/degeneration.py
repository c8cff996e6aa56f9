"""Valued coefficients, Laurent polynomials, and initial degenerations.

Coefficients are finite sums Σ c·t^e with rational c and rational
exponents e — a computable dense subfield of a Puiseux-type field with
value group ℚ and residue field ℚ.  The valuation is the least exponent,
the residue its coefficient.  On top of this the module provides min-plus
evaluation, initial forms, monomial polyhedra (where a polynomial has
integral coefficients after tilting), exact corner loci, tilted algebras
presented by semigroup generators at a fixed denominator D, and the
binomial relations of their special fibers.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import linalg as la
from ._record import record
from .complexes import ExtendedComplex, _face_sort_key
from .errors import (DenominatorMismatch, ExponentOutsideSublattice, NonRationalPoint,
                     NotAdmissible, UnverifiedBasis, ZeroPolynomial)
from .polyhedra import Cone, Fan, Polyhedron
from .toric import ExtendedPoint, StratumLattice, semigroup_generators

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


# -- coefficients ---------------------------------------------------------------

@record
class ValuedCoeff:
    """Finite series Σ c·t^e, exact; valuation = least exponent present."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient), sorted

    @classmethod
    def of(cls, terms: Mapping | Iterable) -> "ValuedCoeff":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Fraction, Fraction] = {}
        for e, c in items:
            e, c = la.frac(e), la.frac(c)
            acc[e] = acc.get(e, Fraction(0)) + c
        return cls(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    @classmethod
    def zero(cls) -> "ValuedCoeff":
        return cls(())

    @classmethod
    def rational(cls, c) -> "ValuedCoeff":
        return cls.of([(Fraction(0), c)])

    @classmethod
    def t_power(cls, e, c=1) -> "ValuedCoeff":
        return cls.of([(e, c)])

    @classmethod
    def one(cls) -> "ValuedCoeff":
        return cls.rational(1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def valuation(self) -> Fraction | None:
        """Least exponent; None encodes val(0) = ∞."""
        return self.terms[0][0] if self.terms else None

    @property
    def residue(self) -> Fraction:
        """Coefficient of t^valuation (0 for the zero element)."""
        return self.terms[0][1] if self.terms else Fraction(0)

    @property
    def is_unit(self) -> bool:
        return bool(self.terms) and self.terms[0][0] == 0

    def __add__(self, other: "ValuedCoeff") -> "ValuedCoeff":
        return ValuedCoeff.of(list(self.terms) + list(other.terms))

    def __neg__(self) -> "ValuedCoeff":
        return ValuedCoeff(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "ValuedCoeff") -> "ValuedCoeff":
        return self + (-other)

    def __mul__(self, other: "ValuedCoeff") -> "ValuedCoeff":
        out: dict[Fraction, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return ValuedCoeff.of(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                base = f"t^{e}" if e.denominator == 1 else f"t^({e})"
                parts.append(f"{c}*{base}" if c != 1 else base)
        return " + ".join(parts)


# -- polynomials ------------------------------------------------------------------

def _monomial_str(u: IntVector, names: Sequence[str]) -> str:
    parts = []
    for e, name in zip(u, names):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


@record
class LaurentPoly:
    """Σ a_u χ^u with exponents u ∈ ℤ^nvars and ValuedCoeff coefficients."""

    nvars: int
    terms: tuple[tuple[IntVector, ValuedCoeff], ...]  # sorted by exponent

    @classmethod
    def of(cls, nvars: int, terms: Mapping | Iterable) -> "LaurentPoly":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[IntVector, ValuedCoeff] = {}
        for u, a in items:
            u = tuple(int(v) for v in u)
            if len(u) != nvars:
                raise ValueError("exponent arity does not match the variable count")
            if not isinstance(a, ValuedCoeff):
                a = ValuedCoeff.rational(a)
            acc[u] = acc.get(u, ValuedCoeff.zero()) + a
        return cls(nvars, tuple(sorted((u, a) for u, a in acc.items() if not a.is_zero)))

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, ())

    @classmethod
    def monomial(cls, nvars: int, u: Sequence[int], a: ValuedCoeff | int = 1) -> "LaurentPoly":
        return cls.of(nvars, [(tuple(u), a)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    @property
    def support(self) -> tuple[IntVector, ...]:
        return tuple(u for u, _ in self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.of(self.nvars, list(self.terms) + list(other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, tuple((u, -a) for u, a in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[IntVector, ValuedCoeff] = {}
        for u1, a1 in self.terms:
            for u2, a2 in other.terms:
                u = tuple(x + y for x, y in zip(u1, u2))
                prod = a1 * a2
                out[u] = out.get(u, ValuedCoeff.zero()) + prod
        return LaurentPoly.of(self.nvars, out)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for u, a in sorted(self.terms, reverse=True):
            mono = _monomial_str(u, names)
            coeff = str(a)
            needs_parens = len(a.terms) > 1
            if not mono:
                parts.append(f"({coeff})" if needs_parens else coeff)
            elif coeff == "1":
                parts.append(mono)
            else:
                parts.append(f"({coeff})*{mono}" if needs_parens else f"{coeff}*{mono}")
        return " + ".join(parts)


@record
class ResiduePoly:
    """Polynomial over the residue field: exponents with rational coefficients."""

    nvars: int
    terms: tuple[tuple[IntVector, Fraction], ...]  # sorted by exponent

    @classmethod
    def of(cls, nvars: int, terms: Mapping | Iterable) -> "ResiduePoly":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[IntVector, Fraction] = {}
        for u, c in items:
            u = tuple(int(v) for v in u)
            acc[u] = acc.get(u, Fraction(0)) + la.frac(c)
        return cls(nvars, tuple(sorted((u, c) for u, c in acc.items() if c != 0)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    @property
    def support(self) -> tuple[IntVector, ...]:
        return tuple(u for u, _ in self.terms)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for u, c in sorted(self.terms, reverse=True):
            mono = _monomial_str(u, names)
            if not mono:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


# -- tropical evaluation ------------------------------------------------------------

def _rational_point(w, nvars: int) -> Vector:
    try:
        w = la.vec(w)
    except (TypeError, ValueError) as exc:
        raise NonRationalPoint(f"not an exact rational point: {exc}") from None
    if len(w) != nvars:
        raise NonRationalPoint(f"point arity {len(w)} does not match rank {nvars}")
    return w


def trop_eval(f: LaurentPoly, w) -> tuple[Fraction, tuple[IntVector, ...]]:
    """Min over terms of val(a_u) + <u, w>, with the exponents attaining it."""
    if f.is_zero:
        raise ZeroPolynomial("cannot tropically evaluate the zero polynomial")
    w = _rational_point(w, f.nvars)
    best: Fraction | None = None
    argmin: list[IntVector] = []
    for u, a in f.terms:
        value = a.valuation + la.dot(la.vec(u), w)
        if best is None or value < best:
            best, argmin = value, [u]
        elif value == best:
            argmin.append(u)
    return best, tuple(sorted(argmin))


def initial_form(f: LaurentPoly, w) -> ResiduePoly:
    """Residues of the minimum-attaining terms: the image of t^{-min}·f mod 𝔪."""
    _, argmin = trop_eval(f, w)
    chosen = set(argmin)
    return ResiduePoly.of(f.nvars, [(u, a.residue) for u, a in f.terms if u in chosen])


def monomial_polyhedron(f: LaurentPoly) -> Polyhedron:
    """P_f = {v : val(a_u) + <u, v> >= 0 for every exponent u of f}."""
    halfspaces = [(u, -a.valuation) for u, a in f.terms]
    return Polyhedron.from_halfspaces(halfspaces, f.nvars)


def is_integral_at(f: LaurentPoly, w) -> bool:
    """Does every term of f satisfy val(a_u) + <u, w> >= 0?"""
    w = _rational_point(w, f.nvars)
    return all(a.valuation + la.dot(la.vec(u), w) >= 0 for u, a in f.terms)


# -- corner locus --------------------------------------------------------------------

def _box_halfspaces(box, nvars: int):
    lo, hi = box
    lo, hi = la.vec(lo), la.vec(hi)
    if len(lo) != nvars or len(hi) != nvars:
        raise ValueError("box arity does not match the polynomial rank")
    out = []
    for i in range(nvars):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        out.append((e, lo[i]))
        out.append((tuple(-v for v in e), -hi[i]))
    return out


def _argmin_cell(support, subset, extra, nvars) -> Polyhedron:
    """{w : the subset is contained in the argmin of val + <u, w>}."""
    u0, g0 = support[subset[0]]
    halfspaces = list(extra)
    for k in subset[1:]:
        u, g = support[k]
        diff = tuple(a - b for a, b in zip(u0, u))
        halfspaces.append((diff, g - g0))
        halfspaces.append((tuple(-v for v in diff), g0 - g))
    for k, (u, g) in enumerate(support):
        if k in subset:
            continue
        diff = tuple(a - b for a, b in zip(u, u0))
        halfspaces.append((diff, g0 - g))
    return Polyhedron.from_halfspaces(halfspaces, nvars)


def _argmin_regions(f: LaurentPoly, min_size: int, extra) -> list[Polyhedron]:
    """Nonempty `_argmin_cell`s of every term subset of size >= min_size.

    Subsets run by size, then lexicographically; a region reached by
    several subsets is listed once per subset.
    """
    support = [(u, a.valuation) for u, a in f.terms]
    cells = []
    for size in range(min_size, len(support) + 1):
        for subset in combinations(range(len(support)), size):
            cell = _argmin_cell(support, subset, extra, f.nvars)
            if not cell.is_empty:
                cells.append(cell)
    return cells


def hypersurface_trop(f: LaurentPoly, box=None) -> tuple[Polyhedron, ...]:
    """Corner locus of min-plus evaluation: all w whose argmin has >= 2 terms.

    Returned as a face-closed, canonically sorted tuple of polyhedra,
    clipped to `box` = (lo, hi) when given.  Monomials have empty locus.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no corner locus")
    extra = _box_halfspaces(box, f.nvars) if box is not None else []
    closed: dict[Polyhedron, None] = {}
    for cell in dict.fromkeys(_argmin_regions(f, 2, extra)):
        for face in cell.faces():
            closed[face.as_polyhedron()] = None
    return tuple(sorted(closed, key=_face_sort_key))


def linearity_complex(f: LaurentPoly, fan: Fan) -> ExtendedComplex:
    """Complete complex on which w ↦ trop_eval(f, w) is affine per face.

    Faces are the closures of the constant-argmin regions (all argmin
    patterns, singletons included).  Raises NotAdmissible when a region's
    recession cone is not in the fan.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no linearity complex")
    return ExtendedComplex.from_polyhedra(fan, _argmin_regions(f, 1, []), close=True)


# -- tilted algebras -----------------------------------------------------------------

@record
class TiltedPresentation:
    """Semigroup presentation of R[M]^P at level denominators D.

    `generators` lists monomials t^γ·χ^u with γ ∈ (1/D)ℤ generating the
    semigroup {(u, γ) : γ + <u, v> >= 0 on P}; `positive_part` indexes the
    generators vanishing modulo 𝔪 (those with γ + <u, ·> > 0 on all of P).
    """

    polyhedron: Polyhedron
    denominator: int
    generators: tuple[tuple[IntVector, Fraction], ...]
    positive_part: tuple[int, ...]

    def contains_monomial(self, u: Sequence[int], gamma) -> bool:
        """Is t^gamma·χ^u in R[M]^P (γ + <u, v> >= 0 on P)?"""
        gamma = la.frac(gamma)
        u = la.vec(u)
        rep = self.polyhedron.vrep()
        return (all(gamma + la.dot(u, v) >= 0 for v in rep.vertices)
                and all(la.dot(u, la.vec(r)) >= 0 for r in rep.rays))

    def monomial_strictly_positive(self, u: Sequence[int], gamma) -> bool:
        """Does γ + <u, v> stay > 0 on all of P (so the monomial is in 𝔪·R[M]^P)?"""
        gamma = la.frac(gamma)
        u = la.vec(u)
        rep = self.polyhedron.vrep()
        return (self.contains_monomial(u, gamma)
                and all(gamma + la.dot(u, v) > 0 for v in rep.vertices))


def tilted_algebra(p: Polyhedron, denominator: int = 1) -> TiltedPresentation:
    """Generators of the monomials integral on P, at level lattice (1/D)ℤ.

    The semigroup is the lattice part of the dual of the closed cone over
    P × {1}; its H-description comes straight from the vertices and rays
    of P.  The level monomial t^{1/D} is always included, normalizing the
    presentation even when it is a product of other generators.
    """
    if denominator < 1:
        raise DenominatorMismatch("denominator must be a positive integer")
    if p.is_empty:
        raise NotAdmissible("the empty polyhedron has no tilted algebra")
    if not p.is_pointed:
        raise NotAdmissible("polyhedron is not pointed")
    for n, b in p.equalities + p.facets:
        if (b * denominator).denominator != 1:
            raise DenominatorMismatch(
                f"bound {b} is not a multiple of 1/{denominator}")
    n = p.ambient
    rep = p.vrep()
    halfspaces = []
    for v in rep.vertices:
        halfspaces.append((tuple(denominator * x for x in v) + (Fraction(1),), Fraction(0)))
    for r in rep.rays:
        halfspaces.append((tuple(Fraction(x) for x in r) + (Fraction(0),), Fraction(0)))
    cone = Cone.from_halfspaces(halfspaces, n + 1)
    scaled = list(semigroup_generators(cone).all)
    level = (0,) * n + (1,)
    if level not in scaled:
        scaled.append(level)
    generators = tuple(sorted((x[:n], Fraction(x[n], denominator)) for x in scaled))
    positive = tuple(i for i, (u, g) in enumerate(generators)
                     if min(g + la.dot(la.vec(u), v) for v in rep.vertices) > 0)
    return TiltedPresentation(p.as_polyhedron(), denominator, generators, positive)


@record
class SpecialFiberRelations:
    """Relations among generator residues modulo 𝔪.

    - generator_vanishing: indices of generators that are ≡ 0 (markers),
    - identities: groups of degree-≤2 index products sharing one monomial,
    - product_vanishing: pairs whose product is ≡ 0 although neither
      factor is.
    """

    generator_vanishing: tuple[int, ...]
    identities: tuple[tuple[tuple[int, ...], ...], ...]
    product_vanishing: tuple[tuple[int, int], ...]


def special_fiber_relations(t: TiltedPresentation) -> SpecialFiberRelations:
    gens = t.generators
    n = t.polyhedron.ambient
    vanish = set(t.positive_part)
    products: dict[tuple[IntVector, Fraction], list[tuple[int, ...]]] = {}
    products[((0,) * n, Fraction(0))] = [()]
    for i, (u, g) in enumerate(gens):
        products.setdefault((u, g), []).append((i,))
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            u = tuple(a + b for a, b in zip(gens[i][0], gens[j][0]))
            g = gens[i][1] + gens[j][1]
            products.setdefault((u, g), []).append((i, j))
    identities = tuple(sorted(tuple(sorted(group)) for group in products.values()
                              if len(group) > 1))
    fading = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            if i in vanish or j in vanish:
                continue
            u = tuple(a + b for a, b in zip(gens[i][0], gens[j][0]))
            g = gens[i][1] + gens[j][1]
            if t.monomial_strictly_positive(u, g):
                fading.append((i, j))
    return SpecialFiberRelations(tuple(sorted(vanish)), identities, tuple(fading))


# -- initial degenerations -------------------------------------------------------------

@record
class InitialIdeal:
    """Initial forms of ideal generators at w, with provenance flags."""

    forms: tuple[ResiduePoly, ...]
    principal: bool
    basis_asserted: bool


def initial_degeneration_ideal(gens: Sequence[LaurentPoly], w,
                               tropical_basis_asserted: bool = False) -> InitialIdeal:
    """Initial forms of the given generators at w.

    A single generator presents the whole initial ideal; longer lists are
    accepted only with the caller asserting they form a tropical basis
    (recorded, and flagged with an UnverifiedBasis warning since the
    artifact cannot check it).
    """
    gens = list(gens)
    if not gens:
        raise ZeroPolynomial("no generators given")
    if len(gens) > 1:
        if not tropical_basis_asserted:
            raise ValueError("multiple generators require tropical_basis_asserted=True")
        warnings.warn("tropical-basis property of the generator list is asserted, "
                      "not verified", UnverifiedBasis, stacklevel=2)
    return InitialIdeal(tuple(initial_form(g, w) for g in gens),
                        len(gens) == 1, tropical_basis_asserted)


def initial_form_on_stratum(f: LaurentPoly, x: ExtendedPoint,
                            lattice: StratumLattice) -> ResiduePoly:
    """Initial form inside the sublattice M_σ at a boundary-stratum point.

    Exponents of f must pair to zero with the stratum cone; they are
    rewritten in the chosen basis of M_σ and evaluated against the
    quotient coordinates of x.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot take the initial form of zero")
    w = _rational_point(x.coords, lattice.quotient_rank)
    rewritten = []
    for u, a in f.terms:
        if not lattice.contains_exponent(u):
            raise ExponentOutsideSublattice(
                f"exponent {u} does not lie in the sublattice of the stratum")
        rewritten.append((lattice.exponent_coords(u), a))
    g = LaurentPoly.of(lattice.quotient_rank, rewritten)
    return initial_form(g, w)
