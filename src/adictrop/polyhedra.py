"""Admissible polyhedral geometry over Q, with canonical representations.

A polyhedron lives in Q^n and is stored by a canonical irredundant
H-representation: a unique reduced equality system for its affine hull
plus the facet inequalities reduced modulo that system, all with primitive
integer normals and sorted deterministically.  Equal point sets therefore
compare equal as Python objects, which is what makes set-level equality of
complexes decidable by syntactic comparison downstream.

Canonicalization solves no LP.  One double-description pass over the
homogenization {(x, lam) : n . x >= b lam, lam >= 0} yields its generators:
the polyhedron is empty iff no generator has lam > 0, an inequality is an
implicit equality iff it is tight on every generator, and an irredundant
inequality is one whose tight generators span a face of codimension one
(Fukuda and Prodon, "Double description method revisited", 1996).  The
pass is kept as the new object's generators, and every later question that
needs them (vertices, rays, a cone's generator description, containment,
the face relation, a relative-interior point, the lineality) reads them
instead of running it again.  No LP is solved in this module.

Cones are polyhedra whose bounds are all zero; fans are finite collections
of pointed cones closed under faces and intersecting in common faces.

No floats anywhere: bounds are `fractions.Fraction`, normals are ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from . import linalg as la
from ._record import record
from .errors import EmptyPolyhedron, NotAFan, NotPointed

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
HalfSpacePair = tuple[IntVector, Fraction]


@record
class HalfSpace:
    """Closed halfspace {x : normal . x >= bound} with primitive integer normal."""

    normal: IntVector
    bound: Fraction

    def __post_init__(self):
        normal = tuple(int(v) for v in self.normal)
        if not normal or all(v == 0 for v in normal):
            raise ValueError("halfspace normal must be a nonzero integer vector")
        self.__dict__.update(normal=normal, bound=la.frac(self.bound))

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        return la.dot(self.normal, x)

    def contains(self, x: Sequence[Fraction]) -> bool:
        return self.evaluate(x) >= self.bound


@record
class VRep:
    """Minimal V-representation of a pointed polyhedron."""

    vertices: tuple[Vector, ...]
    rays: tuple[IntVector, ...]


def _normalize_pair(normal: Sequence, bound) -> HalfSpacePair | None:
    """Primitive-integer form of one inequality; None if trivially true."""
    bound = la.frac(bound)
    fr = [la.frac(v) for v in normal]
    if all(v == 0 for v in fr):
        if bound > 0:
            raise EmptyPolyhedron("inequality 0 >= positive bound")
        return None
    prim = la.primitive(fr)
    # primitive() preserves direction, so the scale factor is positive
    scale = None
    for p, f in zip(prim, fr):
        if f != 0:
            scale = Fraction(p) / f
            break
    return prim, bound * scale


def _dd_cone(normals: Sequence[IntVector], ambient: int) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
    """Double description: generators of {x : n . x >= 0 for all n}.

    Returns (lineality basis, extreme rays modulo lineality), both as
    primitive integer vectors in canonical order.  Incremental insertion
    with the combinatorial adjacency test on zero sets.
    """
    lineality: list[Vector] = [tuple(Fraction(1 if i == j else 0) for j in range(ambient))
                               for i in range(ambient)]
    rays: list[Vector] = []
    zero_sets: list[set[int]] = []

    for idx, n in enumerate(normals):
        lin_evals = [la.dot(n, l) for l in lineality]
        if any(e != 0 for e in lin_evals):
            pos = next(i for i, e in enumerate(lin_evals) if e != 0)
            pivot = lineality[pos]
            pe = lin_evals[pos]
            if pe < 0:
                pivot = tuple(-x for x in pivot)
                pe = -pe
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pos:
                    continue
                e = lin_evals[i]
                new_lin.append(la.vsub(l, la.vscale(Fraction(e, 1) / pe, pivot)) if e != 0 else l)
            lineality = new_lin
            rays = [la.vsub(r, la.vscale(la.dot(n, r) / pe, pivot)) for r in rays]
            zero_sets = [z | {idx} for z in zero_sets]
            rays.append(pivot)
            zero_sets.append(set(range(idx)))
            continue
        evals = [la.dot(n, r) for r in rays]
        if all(e >= 0 for e in evals):
            for i, e in enumerate(evals):
                if e == 0:
                    zero_sets[i].add(idx)
            continue
        plus = [i for i, e in enumerate(evals) if e > 0]
        zero = [i for i, e in enumerate(evals) if e == 0]
        minus = [i for i, e in enumerate(evals) if e < 0]
        new_rays: list[Vector] = [rays[i] for i in plus] + [rays[i] for i in zero]
        new_zero: list[set[int]] = [set(zero_sets[i]) for i in plus] + \
                                   [zero_sets[i] | {idx} for i in zero]
        for p in plus:
            for m in minus:
                common = zero_sets[p] & zero_sets[m]
                adjacent = True
                for o in range(len(rays)):
                    if o != p and o != m and common <= zero_sets[o]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = la.vsub(la.vscale(evals[p], rays[m]), la.vscale(evals[m], rays[p]))
                if la.is_zero_vector(combo):
                    continue
                new_rays.append(combo)
                new_zero.append(common | {idx})
        # dedupe parallel rays produced by degenerate adjacencies
        rays, zero_sets = [], []
        seen: dict[IntVector, int] = {}
        for r, z in zip(new_rays, new_zero):
            key = la.primitive(r)
            if key in seen:
                zero_sets[seen[key]] |= z
            else:
                seen[key] = len(rays)
                rays.append(r)
                zero_sets.append(set(z))

    lin_rows, _ = la.rref(lineality)
    lin_out = tuple(sorted(la.sign_normalized(la.primitive(r)) for r in lin_rows))
    ray_out = tuple(sorted(la.primitive(r) for r in rays))
    return lin_out, ray_out


def _homogenized_dd(pairs: Iterable[HalfSpacePair], ambient: int):
    """`_dd_cone` of {(x, lam) : n . x >= b lam for every (n, b), lam >= 0}."""
    rows = {la.primitive(n + (-b,)) for n, b in pairs}
    rows.add((0,) * ambient + (1,))
    return _dd_cone(sorted(rows), ambient + 1)


def _face_sort_key(p: "Polyhedron"):
    """Canonical order of faces: by dimension, then by the canonical rows."""
    return (p.dim, p.equalities, p.facets)


@record
class Polyhedron:
    """Canonical closed rational polyhedron in Q^ambient.

    `equalities` is the reduced affine-hull system, `facets` the
    irredundant inequalities modulo it; both use primitive integer
    normals and are sorted.  The empty polyhedron is a first-class value
    with no constraints stored.
    """

    ambient: int
    is_empty: bool
    equalities: tuple[HalfSpacePair, ...]
    facets: tuple[HalfSpacePair, ...]

    def as_polyhedron(self) -> "Polyhedron":
        """The same point set as a plain Polyhedron (for cross-class equality)."""
        return self if type(self) is Polyhedron else self._recast(Polyhedron)

    def _recast(self, cls):
        """The same point set as a `cls`, keeping generators already computed."""
        out = cls(self.ambient, self.is_empty, self.equalities, self.facets)
        if "_generators" in self.__dict__:
            out.__dict__["_generators"] = self.__dict__["_generators"]
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, ambient: int) -> "Polyhedron":
        return cls(ambient, True, (), ())

    @classmethod
    def from_halfspaces(cls, halfspaces: Iterable, ambient: int) -> "Polyhedron":
        """Canonicalize an H-representation.

        Accepts HalfSpace objects or (normal, bound) pairs.  One `_dd_cone`
        pass over the homogenization {(x, lam) : n . x - b lam >= 0,
        lam >= 0} gives its lineality and extreme rays.  The polyhedron is
        empty iff no ray has lam > 0.  A row is an implicit equality iff it
        vanishes on every ray; the implicit equalities are reduced to RREF
        and the other rows modulo them.  A reduced row is a facet iff the
        rays it vanishes on, with the lineality, have rank one less than the
        cone.  A row tight only on the face lam = 0 never passes: its normal
        is constant on the affine hull, so the reduction has dropped it.
        See Fukuda and Prodon, "Double description method revisited" (1996).
        The pass is kept as the new object's `_generators`.
        """
        pairs: list[HalfSpacePair] = []
        try:
            for h in halfspaces:
                if isinstance(h, HalfSpace):
                    normal, bound = h.normal, h.bound
                else:
                    normal, bound = h
                if len(tuple(normal)) != ambient:
                    raise ValueError("normal arity does not match ambient rank")
                p = _normalize_pair(normal, bound)
                if p is not None:
                    pairs.append(p)
        except EmptyPolyhedron:
            return cls.empty(ambient)

        # drop weaker duplicates
        best: dict[IntVector, Fraction] = {}
        for n, b in pairs:
            if n not in best or b > best[n]:
                best[n] = b
        pairs = sorted(best.items())
        return cls._from_pass(pairs, ambient, *_homogenized_dd(pairs, ambient))

    @classmethod
    def _from_pass(cls, pairs: Sequence[HalfSpacePair], ambient: int, lin, rays) -> "Polyhedron":
        """`from_halfspaces` of normalized `pairs` with distinct normals, given
        their `_homogenized_dd` (lin, rays); kept as `_generators`."""
        if all(r[ambient] == 0 for r in rays):
            return cls.empty(ambient)
        dim = len(lin) + la.rank(rays)

        def tight(n, b):
            # n . x - b lam, scaled to the integer row (n den(b), -num(b))
            row = tuple(v * b.denominator for v in n) + (-b.numerator,)
            return [r for r in rays if sum(map(mul, row, r)) == 0]

        # implicit equalities: tight on every ray (the lineality always is)
        eq_idx = [i for i, (n, b) in enumerate(pairs) if len(tight(n, b)) == len(rays)]

        eq_rows = [tuple(Fraction(v) for v in pairs[i][0]) + (pairs[i][1],) for i in eq_idx]
        reduced_eq, pivots = la.rref(eq_rows)
        equalities = tuple(sorted(
            _normalize_pair(row[:ambient], row[ambient]) for row in reduced_eq))

        # reduce inequalities modulo the affine hull
        ineqs: dict[IntVector, Fraction] = {}
        eq_set = set(eq_idx)
        for i, (n, b) in enumerate(pairs):
            if i in eq_set:
                continue
            u = [Fraction(v) for v in n]
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

        # facets: the tight rays and the lineality span a codimension-one face
        facets = tuple((n, b) for n, b in sorted(ineqs.items())
                       if len(lin) + la.rank(tight(n, b)) == dim - 1)
        out = cls(ambient, False, equalities, facets)
        out.__dict__["_generators"] = (lin, rays)  # the cache `cached_property` reads
        return out

    @classmethod
    def from_generators(cls, vertices: Sequence[Sequence], rays: Sequence[Sequence] = (),
                        ambient: int | None = None) -> "Polyhedron":
        """Polyhedron conv(vertices) + cone(rays), via duality."""
        vertices = [la.vec(v) for v in vertices]
        rays = [la.vec(r) for r in rays]
        if ambient is None:
            if not vertices and not rays:
                raise ValueError("ambient rank required for generatorless input")
            ambient = len(vertices[0]) if vertices else len(rays[0])
        if not vertices:
            return cls.empty(ambient)
        dual_normals = [la.primitive(tuple(v) + (Fraction(1),)) for v in vertices]
        dual_normals += [la.primitive(tuple(r) + (Fraction(0),)) for r in rays if not la.is_zero_vector(r)]
        lin, drs = _dd_cone(sorted(set(dual_normals)), ambient + 1)
        duals = drs + lin + tuple(tuple(-v for v in u) for u in lin)
        halfspaces = [(u[:ambient], Fraction(-u[ambient])) for u in duals if any(u[:ambient])]
        if not halfspaces:
            return cls.full_space(ambient)
        return cls.from_halfspaces(halfspaces, ambient)

    @classmethod
    def full_space(cls, ambient: int) -> "Polyhedron":
        return cls(ambient, False, (), ())

    @classmethod
    def single_point(cls, coords: Sequence) -> "Polyhedron":
        coords = la.vec(coords)
        return cls.from_generators([coords], ambient=len(coords))

    # -- views -------------------------------------------------------------

    @cached_property
    def halfspace_pairs(self) -> tuple[HalfSpacePair, ...]:
        """Full canonical list: equality pairs expanded plus facets, sorted."""
        pairs: list[HalfSpacePair] = list(self.facets)
        for n, b in self.equalities:
            pairs.append((n, b))
            pairs.append((tuple(-v for v in n), -b))
        return tuple(sorted(pairs))

    @cached_property
    def dim(self) -> int:
        """The equalities are an independent reduced system, one per codimension."""
        return -1 if self.is_empty else self.ambient - len(self.equalities)

    @cached_property
    def lineality_basis(self) -> tuple[IntVector, ...]:
        return () if self.is_empty else tuple(l[:-1] for l in self._generators[0])

    @property
    def is_pointed(self) -> bool:
        return not self.is_empty and not self._generators[0]

    @property
    def is_bounded(self) -> bool:
        return self.is_empty or (self.is_pointed and not self._vrep.rays)

    # -- point queries ------------------------------------------------------

    def contains(self, x: Sequence) -> bool:
        if self.is_empty:
            return False
        x = la.vec(x)
        if len(x) != self.ambient:
            raise ValueError("point arity does not match ambient rank")
        return (all(la.dot(n, x) == b for n, b in self.equalities)
                and all(la.dot(n, x) >= b for n, b in self.facets))

    # -- geometry ------------------------------------------------------------

    @cached_property
    def _generators(self) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
        """`_homogenized_dd` of the canonical rows: (lineality, extreme rays).

        Rays with lam > 0 are the vertices, rays with lam = 0 the recession
        rays; the lineality has lam = 0 throughout.
        """
        return _homogenized_dd(self.halfspace_pairs, self.ambient)

    @cached_property
    def _vrep(self) -> VRep:
        """The kept rays with lam > 0 as points, those with lam = 0 as directions.

        For a pointed polyhedron this is its minimal V-representation; in
        general it is that of the pointed part Q with self = Q + lineality.
        """
        n = self.ambient
        _, rays = self._generators
        vertices = sorted(tuple(Fraction(v, r[n]) for v in r[:n]) for r in rays if r[n] > 0)
        return VRep(tuple(vertices), tuple(sorted(r[:n] for r in rays if r[n] == 0)))

    def vrep(self) -> VRep:
        """Minimal vertices and primitive rays (pointed polyhedra only)."""
        if self.is_empty:
            raise EmptyPolyhedron("empty polyhedron has no V-representation")
        if not self.is_pointed:
            raise NotPointed("V-representation requires a pointed polyhedron")
        return self._vrep

    def recession_cone(self) -> "Cone":
        """The cone of unbounded directions: same normals, all bounds zero."""
        if self.is_empty:
            raise EmptyPolyhedron("empty polyhedron has no recession cone")
        zeroed = [(n, Fraction(0)) for n, _ in self.halfspace_pairs]
        return Cone.from_halfspaces(zeroed, self.ambient)

    def relative_interior_point(self) -> Vector:
        """Deterministic rational point in the relative interior.

        The barycenter of the kept rays with lam > 0 (each divided by lam)
        plus the sum of the rays with lam = 0: a relative-interior point of
        the pointed part Q, and relint(Q + L) = relint(Q) + L for the
        lineality L.  On a pointed polyhedron this is the vertex barycenter
        plus the sum of the primitive rays.  Chart pieces are admissible, so
        pointed; the non-pointed unboxed `hypersurface_trop` cells only get
        initial forms here, which are constant on a relative interior.
        """
        if self.is_empty:
            raise EmptyPolyhedron("empty polyhedron has no relative interior")
        rep = self._vrep
        barycenter = la.vscale(Fraction(1, len(rep.vertices)), reduce(la.vadd, rep.vertices))
        return reduce(la.vadd, rep.rays, barycenter)

    def intersection(self, other: "Polyhedron") -> "Polyhedron":
        if self.ambient != other.ambient:
            raise ValueError("ambient rank mismatch")
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.ambient)
        return Polyhedron.from_halfspaces(self.halfspace_pairs + other.halfspace_pairs,
                                          self.ambient)

    def translate(self, w: Sequence) -> "Polyhedron":
        w = la.vec(w)
        if self.is_empty:
            return self
        shifted = [(n, b + la.dot(n, w)) for n, b in self.halfspace_pairs]
        return Polyhedron.from_halfspaces(shifted, self.ambient)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Exact containment other <= self, read off other's generators.

        Every extreme ray (x, lam) of other's homogenization satisfies each
        row n . x - b lam >= 0 of self, and every lineality vector makes each
        row vanish.  No LP; `other` may be non-pointed or lower-dimensional.
        """
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        lin, rays = other._generators
        rows = [n + (-b,) for n, b in self.halfspace_pairs]
        return (all(la.dot(row, l) == 0 for row in rows for l in lin)
                and all(la.dot(row, r) >= 0 for row in rows for r in rays))

    def _face(self, tight: Iterable[HalfSpacePair], on: Sequence[IntVector]) -> "Polyhedron":
        """The face of self on which the facets `tight` hold with equality.

        `on` are the kept rays that all of `tight` vanish on; with the kept
        lineality they are the face's pass, so it is canonicalized from
        self's rows, each tight facet reversed as an extra row (on a
        nonempty face -n . x >= -b is the stronger bound), with no pass of
        its own.
        """
        rows = dict(self.halfspace_pairs)
        for n, b in tight:
            rows[tuple(-v for v in n)] = -b
        return type(self)._from_pass(sorted(rows.items()), self.ambient, self._generators[0],
                                     tuple(on))

    def faces(self) -> tuple["Polyhedron", ...]:
        """All nonempty faces, self included, in canonical order.

        Read off the kept pass (Kaibel and Pfetsch, "Computing the face
        lattice of a polytope from its vertex-facet incidences", 2002): the
        faces are the intersections of the facets' tight ray sets, starting
        from all rays, that still hold a ray with lam > 0.  Each is built by
        `_face`.
        """
        if self.is_empty:
            return ()
        _, rays = self._generators
        positive = frozenset(k for k, r in enumerate(rays) if r[self.ambient] > 0)
        tight = {(n, b): frozenset(k for k, r in enumerate(rays) if la.dot(n + (-b,), r) == 0)
                 for n, b in self.facets}
        found = {frozenset(range(len(rays)))}
        for t in tight.values():
            found |= {s & t for s in found if s & t & positive}
        out = [self]
        for s in found:
            if len(s) < len(rays):
                out.append(self._face([f for f, t in tight.items() if s <= t],
                                      [rays[k] for k in sorted(s)]))
        return tuple(sorted(out, key=_face_sort_key))

    def is_face_of(self, other: "Polyhedron") -> bool:
        """True iff self = other cut by a valid hyperplane (self = other allowed).

        With self inside other, the facets of other that are tight on all of
        self cut out the smallest face of other containing self; self is a
        face iff it is that face.  A facet row n . x - b lam is tight on all
        of self iff it vanishes on every extreme ray and lineality vector of
        self's homogenization, and the face is `other._face` of those facets
        and of other's kept rays they all vanish on: no LP and no pass.
        """
        if self.is_empty or other.is_empty or not other.contains_polyhedron(self):
            return False
        lin, rays = self._generators
        tight = [(n, b) for n, b in other.facets
                 if all(la.dot(n + (-b,), g) == 0 for g in lin + rays)]
        on = [r for r in other._generators[1]
              if all(la.dot(n + (-b,), r) == 0 for n, b in tight)]
        return other._face(tight, on).as_polyhedron() == self.as_polyhedron()

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron.empty(ambient={self.ambient})"
        return (f"{type(self).__name__}(ambient={self.ambient}, "
                f"eq={len(self.equalities)}, facets={len(self.facets)}, dim={self.dim})")


@record
class Cone(Polyhedron):
    """Polyhedron whose canonical bounds are all zero."""

    def __post_init__(self):
        for _, b in tuple(self.equalities) + tuple(self.facets):
            if b != 0:
                raise ValueError("cone bounds must all be zero")

    @classmethod
    def from_rays(cls, rays: Sequence[Sequence], ambient: int) -> "Cone":
        """Cone generated by rays (possibly none: the zero cone)."""
        return cls.from_generators([(0,) * ambient], rays, ambient)

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, ambient: int) -> "Cone":
        return cls.from_rays((), ambient)

    @classmethod
    def of(cls, p: Polyhedron) -> "Cone":
        """Reinterpret a zero-bound polyhedron as a Cone."""
        return p._recast(cls)

    @cached_property
    def generator_description(self) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
        """(lineality basis, extreme rays modulo lineality).

        The homogenization of a cone C is C x {lam >= 0}: its lineality and
        its rays with lam = 0 are C's, with a zero lam coordinate appended.
        """
        if self.is_empty:
            raise EmptyPolyhedron("empty cone")
        if not self.equalities and not self.facets:
            ident = tuple(tuple(1 if j == i else 0 for j in range(self.ambient))
                          for i in range(self.ambient))
            return ident, ()
        lin, rays = self._generators
        return tuple(l[:-1] for l in lin), tuple(r[:-1] for r in rays if r[-1] == 0)

    @property
    def rays(self) -> tuple[IntVector, ...]:
        """Extreme rays of a pointed cone."""
        lin, rays = self.generator_description
        if lin:
            raise NotPointed("extreme rays require a pointed cone")
        return rays

    @property
    def generators(self) -> tuple[IntVector, ...]:
        """A finite generating set: extreme rays plus +/- lineality basis."""
        lin, rays = self.generator_description
        out = list(rays)
        for l in lin:
            out.append(l)
            out.append(tuple(-v for v in l))
        return tuple(sorted(out))

    @property
    def is_zero(self) -> bool:
        return not self.is_empty and self.dim == 0


@record
class AdmissibilityResult:
    ok: bool
    cone_index: int | None
    reason: str | None

    def __bool__(self):
        return self.ok


@record
class Fan:
    """Finite fan: pointed cones, closed under faces, meeting in common faces.

    `zero_index` is the index of the zero cone, whose stratum is the torus.
    """

    ambient: int
    cones: tuple[Cone, ...]

    def __post_init__(self):
        zero = next((i for i, c in enumerate(self.cones) if c.is_zero), None)
        self.__dict__.update(_index={c: i for i, c in enumerate(self.cones)}, _faces={},
                             zero_index=zero)

    @classmethod
    def from_cones(cls, cones: Sequence[Cone], ambient: int | None = None) -> "Fan":
        """Build a fan from (maximal) cones; faces are completed automatically."""
        cones = list(cones)
        if ambient is None:
            if not cones:
                raise ValueError("ambient rank required for an empty cone list")
            ambient = cones[0].ambient
        closure: set[Cone] = set()
        for c in cones:
            if c.ambient != ambient:
                raise NotAFan("mixed ambient ranks")
            if not c.is_pointed:
                raise NotAFan("fans consist of pointed cones")
            for f in c.faces():
                closure.add(Cone.of(f))
        if not closure:
            closure.add(Cone.from_rays((), ambient))
        ordered = tuple(sorted(closure, key=_face_sort_key))
        fan = cls(ambient, ordered)
        fan.validate()
        return fan

    @classmethod
    def trivial(cls, ambient: int) -> "Fan":
        return cls.from_cones([Cone.from_rays((), ambient)], ambient)

    def validate(self) -> None:
        """Raise NotAFan unless the cones are closed under faces and meet in faces.

        Pairs of maximal cones suffice: if every face of a maximal cone is
        in the fan and any two maximal cones M, N meet in a common face F,
        then a face of M and a face of N meet in a face of F.  The maximal
        cones are those that are no face of a later cone (`from_cones` orders
        cones by dimension; in any order they carry every cone among their
        faces), and a face missing from the fan raises in `face_indices`.
        The meet of two maximal cones is looked up in `_index`, and its index
        in both cones' `face_indices`.  The message names the first failing
        pair of maximal cones in index order.
        """
        maximal: list[int] = []
        below: set[int] = set()
        for k in reversed(range(len(self.cones))):
            if k not in below:
                maximal.append(k)
                below.update(self.face_indices(k))
        for k, l in combinations(reversed(maximal), 2):
            m = self._index.get(Cone.of(self.cones[k].intersection(self.cones[l])))
            if m is None:
                raise NotAFan(f"intersection of cones {k} and {l} is not in the fan")
            if m not in self.face_indices(k) or m not in self.face_indices(l):
                raise NotAFan(f"cones {k} and {l} do not meet in a common face")

    def index_of(self, cone: Polyhedron) -> int | None:
        return self._index.get(Cone.of(cone))

    def face_indices(self, index: int) -> tuple[int, ...]:
        """Indices of the faces of cone `index` (itself included)."""
        if index not in self._faces:
            out = []
            for f in self.cones[index].faces():
                i = self.index_of(f)
                if i is None:
                    raise NotAFan(f"a face of cone {index} is not in the fan")
                out.append(i)
            self._faces[index] = tuple(sorted(out))
        return self._faces[index]

    def __len__(self):
        return len(self.cones)


def recession_cone(p: Polyhedron) -> Cone:
    return p.recession_cone()


def face_of(q: Polyhedron, p: Polyhedron) -> bool:
    return q.is_face_of(p)


def is_admissible(p: Polyhedron, fan: Fan) -> AdmissibilityResult:
    """Is the recession cone of p a cone of the fan?

    Non-pointed input is rejected with a diagnostic rather than searched
    for: every cone of a fan is pointed, so a non-pointed polyhedron can
    never be admissible and the failure mode deserves its own name.
    """
    if p.ambient != fan.ambient:
        return AdmissibilityResult(False, None, "ambient rank mismatch")
    sigma = p.recession_cone()
    if not sigma.is_pointed:
        return AdmissibilityResult(False, None, "polyhedron is not pointed")
    idx = fan.index_of(sigma)
    if idx is None:
        return AdmissibilityResult(False, None, "recession cone is not a cone of the fan")
    return AdmissibilityResult(True, idx, None)
