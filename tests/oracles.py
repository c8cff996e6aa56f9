"""Brute-force oracles used to freeze expected values.

These are deliberately written from the definitions, before and
independently of the fast paths they check: direction tests evaluate raw
input inequalities, hull membership solves the convex-combination system,
semigroup generation enumerates a lattice box and minimalizes by
reducibility, Hilbert bases test each point of the zonotope's bounding
box by LP, canonical H-representations find implicit equalities and
redundant inequalities by one LP each, containment minimizes each
halfspace of the container by LP, a nonempty intersection is one
feasibility LP, a cell with strict rows is empty iff its strict-feasibility
LP fails, and the corner locus is reconstructed from a grid scan.
Only the exact LP core, RREF and the
normalization of single inequalities are shared with the library (they are
unit-tested on their own; the LP also against `fraction_minimize`, the
textbook simplex on `Fraction` tableaux that the library's integer-row
simplex replaced).

Four oracles keep the library's earlier implementations, which ran their
own passes instead of reading the generators kept by canonicalization: a
cone's generator description by one `_dd_cone` on its canonical normals,
the cone of a ray list by its own dualization, the face relation through
a relative interior point (an LP when the face is not pointed), and the
face lattice by a walk that canonicalizes each facet of each face anew.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

from adictrop import linalg as la
from adictrop import lp
from adictrop.errors import EmptyPolyhedron
from adictrop.linalg import dot, vec
from adictrop.polyhedra import Cone, Polyhedron, _constraints, _dd_cone, _normalize_pair

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


def contains_lp(p: Polyhedron, q: Polyhedron) -> bool:
    """Exact containment q <= p, by LP on each halfspace of p."""
    if q.is_empty:
        return True
    if p.is_empty:
        return False
    ge, eq = _constraints(q.equalities, q.facets)
    for n, b in p.halfspace_pairs:
        res = lp.minimize([F(v) for v in n], ge=ge, eq=eq)
        if res.status != lp.OPTIMAL or res.value < b:
            return False
    return True


def meets_lp(p: Polyhedron, q: Polyhedron) -> bool:
    """Nonempty intersection, by one feasibility LP (no canonicalization)."""
    if p.is_empty or q.is_empty:
        return False
    ge, eq = [], []
    for poly in (p, q):
        for n, b in poly.facets:
            ge.append(([F(v) for v in n], b))
        for n, b in poly.equalities:
            eq.append(([F(v) for v in n], b))
    if not ge and not eq:
        return True
    return lp.feasible_point(ge=ge, eq=eq) is not None


def generator_description_dd(cone: Cone):
    """(lineality basis, extreme rays modulo lineality), by its own DD pass."""
    if cone.is_empty:
        raise EmptyPolyhedron("empty cone")
    normals = [n for n, _ in cone.facets]
    for n, _ in cone.equalities:
        normals.append(n)
        normals.append(tuple(-v for v in n))
    if not normals:
        ident = tuple(tuple(1 if j == i else 0 for j in range(cone.ambient))
                      for i in range(cone.ambient))
        return ident, ()
    return _dd_cone(sorted(set(normals)), cone.ambient)


def cone_from_rays_dd(rays, ambient) -> Cone:
    """Cone generated by rays: the facets of its dual cone, by one DD pass."""
    rays = [la.vec(r) for r in rays]
    gens = sorted({la.primitive(r) for r in rays if not la.is_zero_vector(r)})
    lin, dual_rays = _dd_cone(gens, ambient)
    halfspaces = [(u, F(0)) for u in dual_rays]
    for u in lin:
        halfspaces.append((u, F(0)))
        halfspaces.append((tuple(-v for v in u), F(0)))
    if not halfspaces:
        # dual cone is {0}: the primal cone is the whole space
        return Cone(ambient=ambient, is_empty=False, equalities=(), facets=())
    return Cone.from_halfspaces(halfspaces, ambient)


def is_face_of_lp(q: Polyhedron, p: Polyhedron) -> bool:
    """Is q a face of p?  The facets of p tight at a relative interior point
    of q (an LP when q is not pointed) cut out the smallest face containing q."""
    if q.is_empty or p.is_empty:
        return False
    if q.as_polyhedron() == p.as_polyhedron():
        return True
    if not p.contains_polyhedron(q):
        return False
    z = q.relative_interior_point()
    active = list(p.halfspace_pairs)
    for n, b in p.facets:
        if la.dot(n, z) == b:
            active.append((tuple(-v for v in n), -b))
    minimal_face = Polyhedron.from_halfspaces(active, q.ambient)
    return minimal_face == q.as_polyhedron()


def facet_faces_walk(p: Polyhedron) -> tuple[Polyhedron, ...]:
    """Codimension-one faces: each facet made an equality, canonicalized anew."""
    if p.is_empty:
        return ()
    out = set()
    for n, b in p.facets:
        eqs = p.halfspace_pairs + ((tuple(-v for v in n), -b),)
        child = type(p).from_halfspaces(eqs, p.ambient)
        if not child.is_empty and child.dim == p.dim - 1:
            out.add(child)
    return tuple(sorted(out, key=lambda q: (q.dim, q.equalities, q.facets)))


def faces_walk(p: Polyhedron) -> tuple[Polyhedron, ...]:
    """All nonempty faces, p included, by walking facets of facets."""
    if p.is_empty:
        return ()
    found = {p}
    frontier = [p]
    while frontier:
        for child in facet_faces_walk(frontier.pop()):
            if child not in found:
                found.add(child)
                frontier.append(child)
    return tuple(sorted(found, key=lambda q: (q.dim, q.equalities, q.facets)))


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
        for f in faces_walk(hull):
            faces.add(f)
    return tuple(sorted(faces, key=lambda p: (p.dim, p.equalities, p.facets)))


def cell_is_empty_lp(cell) -> bool:
    """Is the `regions.Cell` {closed rows >=, strict rows >} empty?  One strict LP."""
    if cell.ambient == 0:
        return not (all(0 >= b for _, b in cell.closed)
                    and all(0 > b for _, b in cell.strict))
    ge = [([F(v) for v in n], b) for n, b in cell.closed]
    st = [([F(v) for v in n], b) for n, b in cell.strict]
    if not ge and not st:
        return False
    return lp.feasible_point(ge=ge, strict=st) is None


# -- the textbook exact simplex, on Fraction tableaux --------------------------
# The library's `lp` ran this before its tableau rows became integers; it is
# kept as the oracle that the integer rows must match step for step.  The
# code is unchanged but for the `fraction_` names.

def _fraction_pivot(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int],
                    r: int, c: int) -> None:
    pr = rows[r]
    inv = Fraction(1) / pr[c]
    rows[r] = pr = [x * inv for x in pr]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, pr)]
    if cost[c] != 0:
        f = cost[c]
        cost[:] = [x - f * y for x, y in zip(cost, pr)]
    basis[r] = c


def _fraction_iterate(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int],
                      allowed: Sequence[bool]) -> str:
    ncols = len(cost) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return lp.OPTIMAL
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return lp.UNBOUNDED
        _fraction_pivot(rows, cost, basis, leave, enter)


def fraction_minimize(objective: Sequence[Fraction],
                      ge: Sequence[lp.Constraint] = (),
                      eq: Sequence[lp.Constraint] = ()) -> lp.LPResult:
    """Minimize objective . x over {x free : ge and eq constraints}."""
    n = len(objective)
    # constraints with no variables degenerate to sign checks on the rhs
    if n == 0:
        ok = all(Fraction(b) <= 0 for _, b in ge) and all(Fraction(b) == 0 for _, b in eq)
        return (lp.LPResult(lp.OPTIMAL, Fraction(0), ()) if ok
                else lp.LPResult(lp.INFEASIBLE, None, None))

    # columns: x+ (n), x- (n), slacks (len(ge)); rows: ge then eq
    nslack = len(ge)
    ncols = 2 * n + nslack
    rows: list[list[Fraction]] = []
    for idx, (coeffs, rhs) in enumerate(list(ge) + list(eq)):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        row = coeffs + [-c for c in coeffs] + [Fraction(0)] * nslack
        if idx < nslack:
            row[2 * n + idx] = Fraction(-1)  # a.x - s = b, s >= 0
        row.append(Fraction(rhs))
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)

    m = len(rows)
    basis = list(range(ncols, ncols + m))  # artificials
    for i, row in enumerate(rows):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        rows[i] = row[:-1] + art + [row[-1]]
    total_cols = ncols + m

    # phase 1: minimize the sum of artificials
    cost = [Fraction(0)] * (total_cols + 1)
    for row in rows:
        for j in range(total_cols + 1):
            cost[j] -= row[j]
    for j in range(ncols, total_cols):
        cost[j] = Fraction(0)
    allowed = [True] * total_cols
    _fraction_iterate(rows, cost, basis, allowed)
    if -cost[-1] != 0:
        return lp.LPResult(lp.INFEASIBLE, None, None)

    # drive artificials out of the basis; drop rows that became redundant
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= ncols:
            piv = -1
            for j in range(ncols):
                if rows[i][j] != 0:
                    piv = j
                    break
            if piv >= 0:
                _fraction_pivot(rows, cost, basis, i, piv)
                keep.append(i)
            # else: redundant row, dropped below
        else:
            keep.append(i)
    rows = [rows[i][:ncols] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: the real objective
    obj = [Fraction(c) for c in objective]
    full = obj + [-c for c in obj] + [Fraction(0)] * nslack
    cost = full + [Fraction(0)]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            cost = [x - f * y for x, y in zip(cost, rows[i])]
    allowed = [True] * ncols
    status = _fraction_iterate(rows, cost, basis, allowed)
    if status == lp.UNBOUNDED:
        return lp.LPResult(lp.UNBOUNDED, None, None)
    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        values[b] = rows[i][-1]
    point = tuple(values[i] - values[n + i] for i in range(n))
    return lp.LPResult(lp.OPTIMAL, -cost[-1], point)


def fraction_maximize(objective: Sequence[Fraction],
                      ge: Sequence[lp.Constraint] = (),
                      eq: Sequence[lp.Constraint] = ()) -> lp.LPResult:
    res = fraction_minimize([-Fraction(c) for c in objective], ge, eq)
    if res.status != lp.OPTIMAL:
        return res
    return lp.LPResult(lp.OPTIMAL, -res.value, res.point)


def fraction_feasible_point(ge: Sequence[lp.Constraint] = (),
                            eq: Sequence[lp.Constraint] = (),
                            strict: Sequence[lp.Constraint] = ()) -> tuple[Fraction, ...] | None:
    """A rational point satisfying all constraints, or None.

    Strict constraints are handled exactly: maximize epsilon subject to
    coeffs . x - epsilon >= rhs and epsilon <= 1; the system is strictly
    feasible iff the optimum is positive.
    """
    strict = list(strict)
    if not strict:
        n = len(ge[0][0]) if ge else (len(eq[0][0]) if eq else 0)
        res = fraction_minimize([Fraction(0)] * n, ge, eq)
        return res.point if res.status == lp.OPTIMAL else None
    n = len(strict[0][0])
    ge_aug: list[lp.Constraint] = []
    for coeffs, rhs in ge:
        ge_aug.append((list(coeffs) + [Fraction(0)], Fraction(rhs)))
    for coeffs, rhs in strict:
        ge_aug.append((list(coeffs) + [Fraction(-1)], Fraction(rhs)))
    ge_aug.append(([Fraction(0)] * n + [Fraction(-1)], Fraction(-1)))  # eps <= 1
    eq_aug = [(list(coeffs) + [Fraction(0)], Fraction(rhs)) for coeffs, rhs in eq]
    objective = [Fraction(0)] * n + [Fraction(1)]
    res = fraction_maximize(objective, ge_aug, eq_aug)
    if res.status != lp.OPTIMAL or res.value <= 0:
        return None
    return res.point[:n]
