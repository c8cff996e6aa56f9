"""Brute-force oracles used to freeze expected values.

These are deliberately written from the definitions, before and
independently of the fast paths they check: direction tests evaluate raw
input inequalities, hull membership solves the convex-combination system,
semigroup generation enumerates a lattice box and minimalizes by
reducibility, Hilbert bases test each point of the zonotope's bounding
box by LP, canonical H-representations find implicit equalities and
redundant inequalities by one LP each, and the corner locus is
reconstructed from a grid scan.  Only the exact LP core, RREF and the
normalization of single inequalities are shared with the library (they are
unit-tested on their own).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from adictrop import linalg as la
from adictrop import lp
from adictrop.errors import EmptyPolyhedron
from adictrop.linalg import dot, vec
from adictrop.polyhedra import Polyhedron, _constraints, _normalize_pair

F = Fraction


def canonicalize_lp(halfspaces, ambient):
    """Canonical (is_empty, equalities, facets) of {x : n . x >= b} by exact LP.

    Normalizes each pair and keeps the strongest bound per normal, then:
    one feasibility LP decides emptiness; if no point satisfies every
    inequality strictly, each inequality whose maximum equals its bound is
    an implicit equality; the equalities are reduced to RREF and the other
    inequalities reduced modulo them; finally, in sorted order, an
    inequality is dropped when its minimum over the remaining system
    already meets its bound.
    """
    pairs = []
    try:
        for normal, bound in halfspaces:
            p = _normalize_pair(normal, bound)
            if p is not None:
                pairs.append(p)
    except EmptyPolyhedron:
        return True, (), ()
    best = {}
    for n, b in pairs:
        if n not in best or b > best[n]:
            best[n] = b
    pairs = sorted(best.items())

    ge, _ = _constraints((), pairs)
    if lp.feasible_point(ge=ge) is None:
        return True, (), ()

    eq_idx = []
    if pairs:
        strict = [(c, b) for c, b in ge]
        if lp.feasible_point(strict=strict) is None:
            for i, (n, b) in enumerate(pairs):
                res = lp.maximize([F(v) for v in n], ge=ge)
                if res.status == lp.OPTIMAL and res.value == b:
                    eq_idx.append(i)

    eq_rows = [tuple(F(v) for v in pairs[i][0]) + (pairs[i][1],) for i in eq_idx]
    reduced_eq, pivots = la.rref(eq_rows)
    equalities = tuple(sorted(
        _normalize_pair(row[:ambient], row[ambient]) for row in reduced_eq))

    ineqs = {}
    eq_set = set(eq_idx)
    for i, (n, b) in enumerate(pairs):
        if i in eq_set:
            continue
        u = [F(v) for v in n]
        g = b
        for row, p in zip(reduced_eq, pivots):
            if p < ambient and u[p] != 0:
                c = u[p]
                u = [x - c * y for x, y in zip(u, row[:ambient])]
                g = g - c * row[ambient]
        norm = _normalize_pair(u, g)
        if norm is None:
            continue
        un, gn = norm
        if un not in ineqs or gn > ineqs[un]:
            ineqs[un] = gn

    current = dict(sorted(ineqs.items()))
    for key in sorted(ineqs):
        others = [(n, b) for n, b in current.items() if n != key]
        ge_o, eq_o = _constraints(equalities, others)
        res = lp.minimize([F(v) for v in key], ge=ge_o, eq=eq_o)
        if res.status == lp.OPTIMAL and res.value >= current[key]:
            del current[key]
    return False, equalities, tuple(sorted(current.items()))


def recession_direction(raw_halfspaces, v) -> bool:
    """Is v an unbounded direction of {x : u.x >= b}?  Checked on the raw system."""
    return all(dot(vec(u), vec(v)) >= 0 for u, _ in raw_halfspaces)


def in_hull(vertices, rays, x) -> bool:
    """Is x in conv(vertices) + cone(rays)?  Solved as a feasibility system."""
    vertices = [vec(v) for v in vertices]
    rays = [vec(r) for r in rays]
    x = vec(x)
    if not vertices:
        return False
    nv, nr = len(vertices), len(rays)
    n = nv + nr
    ge = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(1)
        ge.append((row, F(0)))
    eq = [([F(1)] * nv + [F(0)] * nr, F(1))]
    for c in range(len(x)):
        row = [vertices[i][c] for i in range(nv)] + [rays[j][c] for j in range(nr)]
        eq.append((row, x[c]))
    return lp.feasible_point(ge=ge, eq=eq) is not None


def box_lattice_points(bounds):
    """All integer points in the product of [lo, hi] ranges."""
    return product(*[range(lo, hi + 1) for lo, hi in bounds])


def semigroup_member(poly: Polyhedron, u, gamma: Fraction) -> bool:
    """Does gamma + u.v >= 0 hold for every v in poly (nonempty)?"""
    res = poly.minimize([F(c) for c in u])
    if res.status == lp.UNBOUNDED:
        return False
    return gamma + res.value >= 0


def semigroup_generators_boxed(poly: Polyhedron, denominator: int, u_bound: int,
                               g_bound: int):
    """Minimal generators of {(u, gamma) : gamma + u.v >= 0 on poly} in a box.

    Brute force for the pointed case (bounded poly or, more generally, unit-free
    semigroup), where the minimal generating set is unique.  For every integer
    u in [-u_bound, u_bound]^d the least admissible level gamma_min(u) on the
    (1/denominator)-lattice is found by exact LP; members above the minimum are
    never irreducible (subtract the level monomial), and a decomposition
    x = y + z of a minimal member can always be rearranged so y is minimal too
    (lowering gamma_y raises gamma_z, keeping z a member).  So factorization is
    checked pairwise over minimal members only, with difference membership
    decided by LP minima tabulated on the doubled box.  Levels outside
    [-g_bound, g_bound]/denominator are discarded.  The level monomial
    (0, 1/denominator) is always included.
    """
    d = poly.ambient
    umin: dict[tuple, F | None] = {}
    for u in box_lattice_points([(-2 * u_bound, 2 * u_bound)] * d):
        res = poly.minimize([F(c) for c in u])
        umin[u] = None if res.status == lp.UNBOUNDED else res.value

    def member(u, gamma) -> bool:
        m = umin[u]
        return m is not None and gamma + m >= 0

    minimal = []
    for u in box_lattice_points([(-u_bound, u_bound)] * d):
        m = umin[u]
        if m is None:
            continue
        gamma = F(math.ceil(-m * denominator), denominator)
        if -g_bound <= gamma * denominator <= g_bound:
            minimal.append((u, gamma))
    basis = []
    for u, gamma in minimal:
        if all(c == 0 for c in u) and gamma == 0:
            continue
        reducible = False
        for u2, gamma2 in minimal:
            if (all(c == 0 for c in u2) and gamma2 == 0) or (u2 == u and gamma2 == gamma):
                continue
            du = tuple(a - b for a, b in zip(u, u2))
            dg = gamma - gamma2
            if all(c == 0 for c in du) and dg == 0:
                continue
            if member(du, dg):
                reducible = True
                break
        if not reducible:
            basis.append((u, gamma))
    level = ((0,) * d, F(1, denominator))
    if level not in basis:
        basis.append(level)
    return tuple(sorted(basis))


def hilbert_basis_zonotope(cone):
    """Hilbert basis of a pointed cone from the zonotope of its extreme rays.

    Every irreducible element is a point of {sum mu_i g_i : 0 <= mu_i <= 1}
    over the primitive extreme rays g_i.  Each nonzero integer point of that
    zonotope's bounding box that lies in the cone is tested by one
    feasibility LP in mu, and the points found are minimalized by
    reducibility: x is kept iff no other candidate y leaves x - y in the
    cone.
    """
    gens = cone.rays
    n = cone.ambient
    k = len(gens)
    ge = []
    for i in range(k):
        row = [F(0)] * k
        row[i] = F(1)
        ge.append((row, F(0)))
        ge.append(([-v for v in row], F(-1)))
    bounds = [(sum(min(0, g[c]) for g in gens), sum(max(0, g[c]) for g in gens))
              for c in range(n)]
    candidates = []
    for x in box_lattice_points(bounds):
        # the zonotope lies in the cone: skip the LP for points outside it
        if all(v == 0 for v in x) or not cone.contains(x):
            continue
        eq = [([F(g[c]) for g in gens], F(x[c])) for c in range(n)]
        if lp.feasible_point(ge=ge, eq=eq) is not None:
            candidates.append(x)
    basis = []
    for x in candidates:
        if not any(y != x and cone.contains(tuple(a - b for a, b in zip(x, y)))
                   for y in candidates):
            basis.append(x)
    return tuple(sorted(basis))


def grid_corner_locus(terms, box, step: Fraction):
    """Corner-locus faces reconstructed from a grid scan.

    terms: list of (exponent tuple, valuation).  Scans the grid with the
    given step and records the set of terms attaining the minimum at each
    point.  Every argmin pattern with at least two terms names one closed
    cell {w : argmin(w) contains the pattern}; its grid points are all
    points whose argmin is a superset.  Each such group is hulled and the
    result closed under faces.  Returns the sorted tuple of canonical
    polyhedra (exact provided cell vertices lie on the grid).
    """
    d = len(box)
    axes = []
    for lo, hi in box:
        pts = []
        x = F(lo)
        while x <= hi:
            pts.append(x)
            x += step
        axes.append(pts)
    scanned = []
    for pt in product(*axes):
        values = [val + dot(vec(u), vec(pt)) for u, val in terms]
        m = min(values)
        scanned.append((pt, frozenset(i for i, v in enumerate(values) if v == m)))
    patterns = {amin for _, amin in scanned if len(amin) >= 2}
    faces = set()
    for pattern in patterns:
        pts = [pt for pt, amin in scanned if amin >= pattern]
        hull = Polyhedron.from_generators(pts, ambient=d)
        for f in hull.faces():
            faces.add(f)
    return tuple(sorted(faces, key=lambda p: (p.dim, p.equalities, p.facets)))
