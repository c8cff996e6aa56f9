"""Boundary strata of toric varieties, tropically.

For a fan S in N = Z^n, the extended tropicalization of the associated
toric variety is the disjoint union over cones sigma of the quotients
N_Q / span(sigma).  This module computes the quotient-lattice coordinates
(deterministically, via Smith normal form of the ray matrix), dual cones,
Hilbert bases of pointed cones, and the boundary strata hit by the closure
of an admissible polyhedron.

Hilbert bases follow Normaliz (Bruns–Ichim, J. Algebra 2010): the cone is
covered by the simplicial cones on linearly independent subsets of its
extreme rays, the lattice points of each half-open fundamental
parallelepiped are read off the Smith normal form of the subset, and the
union is reduced to its irreducible elements.  No linear program is solved.

Monomial exponents pair with quotient coordinates through the sublattice
M_sigma = span(sigma)^perp intersected with M; the chosen bases are dual
to each other by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import floor
from typing import Sequence

from . import linalg as la
from ._record import record
from .errors import NotAdmissible, NotPointed
from .polyhedra import Cone, Fan, Polyhedron, is_admissible

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def dual_cone(cone: Cone) -> Cone:
    """{u : u.x >= 0 for all x in cone}; generators of one side are normals of the other."""
    return Cone.from_halfspaces([(g, Fraction(0)) for g in cone.generators], cone.ambient)


def _parallelepiped_points(gens: Sequence[IntVector]) -> list[IntVector]:
    """Nonzero integer points of {lam . G : 0 <= lam_i < 1} for independent rows G.

    With s * G * t = d (Smith normal form) the group (Z^n ∩ span G) / ZG is
    the product of the Z/d_i: each z with 0 <= z_i < d_i names one coset,
    whose points have coordinates lam = (z_1/d_1, ..., z_r/d_r) . s in G.
    Taking fractional parts of lam picks the coset's point in the half-open
    parallelepiped, so there are d_1 * ... * d_r points, zero included.
    """
    s, d, _ = la.smith_normal_form(gens)
    r = len(gens)
    points = []
    for z in product(*[range(d[i][i]) for i in range(r)]):
        if not any(z):
            continue
        lam = [sum((Fraction(z[i], d[i][i]) * s[i][j] for i in range(r)), Fraction(0))
               for j in range(r)]
        frac_part = [c - floor(c) for c in lam]
        x = [sum((f * g[c] for f, g in zip(frac_part, gens)), Fraction(0))
             for c in range(len(gens[0]))]
        points.append(tuple(int(v) for v in x))
    return points


def hilbert_basis(cone: Cone, lattice: Sequence[Sequence] | None = None) -> tuple[IntVector, ...]:
    """Minimal generating set of cone ∩ L for a pointed cone.

    Normaliz's method (Bruns–Ichim, "Normaliz: algorithms for affine
    monoids and rational cones", J. Algebra 2010): the simplicial cones
    spanned by the linearly independent rank-sized subsets of the primitive
    extreme rays cover the cone (Carathéodory), and every irreducible
    element other than a ray lies in the half-open fundamental
    parallelepiped of one of them.  Those points are listed from the Smith
    normal form of the subset, and together with the rays they are the
    candidates.  A candidate is kept iff it does not split as a sum of two
    nonzero semigroup elements; a pointed cone has exactly one such set.
    `lattice`, if given, is a full-rank basis matrix (rows, rational
    entries); coordinates returned are in that basis.
    """
    if not cone.is_pointed:
        raise NotPointed("Hilbert bases require a pointed cone")
    ambient = cone.ambient
    if lattice is None:
        working = cone
    else:
        basis = [la.vec(row) for row in lattice]
        if len(basis) != ambient:
            raise ValueError("lattice basis must be square (full rank)")
        # x = c . B pulls each normal u back to B u
        transformed = []
        for n, _ in cone.halfspace_pairs:
            pulled = tuple(la.dot(row, la.vec(n)) for row in basis)
            transformed.append((la.primitive(pulled), Fraction(0)))
        working = Cone.from_halfspaces(transformed, ambient)
        if not working.is_pointed:
            raise NotPointed("cone is not pointed relative to the lattice")
    rays = working.rays
    rank = la.rank(rays)
    found = set(rays)
    for gens in combinations(rays, rank):
        if la.rank(gens) == rank:
            found.update(_parallelepiped_points(gens))
    candidates = sorted(found)

    def in_semigroup(x: IntVector) -> bool:
        return working.contains(x)

    basis_out = []
    for x in candidates:
        reducible = False
        for y in candidates:
            if y == x:
                continue
            diff = tuple(a - b for a, b in zip(x, y))
            if all(v == 0 for v in diff):
                continue
            if in_semigroup(diff):
                reducible = True
                break
        if not reducible:
            basis_out.append(x)
    return tuple(sorted(basis_out))


@record
class SemigroupGenerators:
    """Generators of cone ∩ Z^m when the cone may have lineality.

    In adapted coordinates the semigroup splits as Z^r x (pointed part);
    generators are +/- the saturated lineality basis plus deterministic
    lifts of the Hilbert basis of the pointed quotient.
    """

    lineality: tuple[IntVector, ...]
    lifted: tuple[IntVector, ...]

    @property
    def all(self) -> tuple[IntVector, ...]:
        out = list(self.lifted)
        for l in self.lineality:
            out.append(l)
            out.append(tuple(-v for v in l))
        return tuple(sorted(out))


def semigroup_generators(cone: Cone) -> SemigroupGenerators:
    """Generators of the semigroup of lattice points of a rational cone."""
    lin, rays_mod = cone.generator_description
    m = cone.ambient
    if not lin:
        return SemigroupGenerators((), hilbert_basis(cone))
    _, _, t = la.smith_normal_form(lin)
    w = la.invert_unimodular(t)
    r = len(lin)
    # adapted coordinates: c = x . T, lineality spans the first r of them
    quotient_rays = []
    for g in rays_mod:
        c = tuple(sum(g[i] * t[i][j] for i in range(m)) for j in range(m))
        tail = c[r:]
        if any(v != 0 for v in tail):
            quotient_rays.append(tail)
    quotient_cone = Cone.from_rays(quotient_rays, m - r)
    qbasis = hilbert_basis(quotient_cone)
    lifted = []
    for h in qbasis:
        x = tuple(sum(h[j] * w[r + j][i] for j in range(m - r)) for i in range(m))
        lifted.append(x)
    lineality_rows = tuple(tuple(w[i]) for i in range(r))
    return SemigroupGenerators(tuple(sorted(lineality_rows)), tuple(sorted(lifted)))


@record
class StratumLattice:
    """Quotient data N -> N / span(sigma) for one cone of a fan.

    `project` maps N_Q to the quotient coordinates; `exponent_coords`
    writes an element of M_sigma = span(sigma)^perp ∩ M in the dual basis.
    The two are dual: <u, v> = exponent_coords(u) . project(v).
    `rank` (the dimension of sigma) and `quotient_rank` are set on
    construction; they are not fields.
    """

    fan: Fan
    cone_index: int

    def __post_init__(self):
        cone = self.fan.cones[self.cone_index]
        m = self.fan.ambient
        rays = cone.rays  # fan cones are pointed
        if rays:
            _, d, t = la.smith_normal_form(rays)
            r = sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0)
        else:
            t = la.identity_int(m)
            r = 0
        self.__dict__.update(rank=r, quotient_rank=m - r, _t=t, _w=la.invert_unimodular(t))

    @property
    def cone(self) -> Cone:
        return self.fan.cones[self.cone_index]

    def project(self, v: Sequence) -> Vector:
        v = la.vec(v)
        m = self.fan.ambient
        return tuple(sum((v[i] * self._t[i][j] for i in range(m)), Fraction(0))
                     for j in range(self.rank, m))

    def msigma_basis(self) -> tuple[IntVector, ...]:
        """Columns of T past the rank: an integer basis of M_sigma."""
        m = self.fan.ambient
        return tuple(tuple(self._t[i][j] for i in range(m))
                     for j in range(self.rank, m))

    def contains_exponent(self, u: Sequence[int]) -> bool:
        return all(la.dot(la.vec(u), la.vec(g)) == 0 for g in self.cone.rays)

    def exponent_coords(self, u: Sequence[int]) -> IntVector:
        if not self.contains_exponent(u):
            raise ValueError("exponent is not orthogonal to the cone")
        m = self.fan.ambient
        return tuple(sum(u[i] * self._w[self.rank + j][i] for i in range(m))
                     for j in range(self.quotient_rank))


@lru_cache(maxsize=None)
def stratum_lattice(fan: Fan, cone_index: int) -> StratumLattice:
    return StratumLattice(fan, cone_index)


@record
class ExtendedPoint:
    """A point of the extended tropicalization: stratum index + quotient coords."""

    stratum: int
    coords: Vector

    def __post_init__(self):
        self.__dict__["coords"] = la.vec(self.coords)


@record
class ExtendedPolyhedron:
    """Closure of an admissible polyhedron across boundary strata.

    `strata` maps cone indices tau (faces of the recession cone) to the
    projection of the finite part into N_Q / span(tau); the tau = 0 entry
    is the finite part itself.
    """

    fan: Fan
    finite_part: Polyhedron
    strata: tuple[tuple[int, Polyhedron], ...]

    def stratum(self, cone_index: int) -> Polyhedron | None:
        for idx, p in self.strata:
            if idx == cone_index:
                return p
        return None


def closure_strata(p: Polyhedron, fan: Fan) -> ExtendedPolyhedron:
    """Boundary strata of the closure of p inside the extended tropicalization.

    The closure meets the stratum of tau exactly when tau is a face of the
    recession cone of p, and there it equals the projection of p.
    """
    adm = is_admissible(p, fan)
    if not adm.ok:
        raise NotAdmissible(adm.reason)
    rep = p.vrep()
    strata = []
    for tau_idx in fan.face_indices(adm.cone_index):
        sl = stratum_lattice(fan, tau_idx)
        if sl.rank == 0:
            strata.append((tau_idx, p.as_polyhedron()))
            continue
        verts = [sl.project(v) for v in rep.vertices]
        rays = []
        for r in rep.rays:
            pr = sl.project(r)
            if any(v != 0 for v in pr):
                rays.append(pr)
        strata.append((tau_idx, Polyhedron.from_generators(verts, rays,
                                                           ambient=sl.quotient_rank)))
    return ExtendedPolyhedron(fan, p.as_polyhedron(), tuple(sorted(strata)))


def extended_contains(e: ExtendedPolyhedron, x: ExtendedPoint) -> bool:
    """Is the extended point inside the closed extended polyhedron?"""
    piece = e.stratum(x.stratum)
    if piece is None:
        return False
    return piece.contains(x.coords)
