"""Extended admissible polyhedral complexes.

A complex is a finite list of admissible polyhedra (stored with their
boundary strata) whose pairwise intersections are common faces, plus an
optional symbolic family of rank-1 intervals with breakpoints b(n) from a
fixed grammar (c/(n+d) + e or c*r^n + e).  The family grammar is just
expressive enough to reason exactly about interval chains such as
[1/(n+1), 1/n] accumulating at a point, without materializing infinitely
many faces: membership, adjacency, and accumulation are all decided from
the rule.

Completeness ("do the faces cover the whole extended space?") is decided
by exact polyhedral complementation on every stratum, never by sampling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg as la
from ._record import record
from .errors import (FamilyNotSupported, MalformedInput, NotARefinement,
                     SupportMismatch)
from .polyhedra import Fan, Polyhedron, _face_sort_key
from .regions import is_covered, same_support
from .toric import ExtendedPoint, ExtendedPolyhedron, closure_strata, stratum_lattice

Vector = tuple[Fraction, ...]

FAMILY_NODE = -1  # adjacency-graph label for the symbolic interval chain

_HARMONIC = re.compile(
    r"^\s*(?P<c>-?\d+(?:/\d+)?)\s*/\s*"
    r"(?:n|\(\s*n\s*(?P<dsign>[+-])\s*(?P<d>\d+(?:/\d+)?)\s*\))"
    r"\s*(?:(?P<esign>[+-])\s*(?P<e>\d+(?:/\d+)?)\s*)?$")
_GEOMETRIC = re.compile(
    r"^\s*(?:(?P<c>-?\d+(?:/\d+)?)\s*\*\s*)?"
    r"\(\s*(?P<r>-?\d+/\d+)\s*\)\s*\^\s*n"
    r"\s*(?:(?P<esign>[+-])\s*(?P<e>\d+(?:/\d+)?)\s*)?$")


def _signed(sign: str | None, text: str | None) -> Fraction:
    if text is None:
        return Fraction(0)
    value = Fraction(text)
    return -value if sign == "-" else value


def _bounds_1d(p: Polyhedron) -> tuple[Fraction | None, Fraction | None]:
    """(min, max) of x on a rank-1 polyhedron, None where unbounded or empty.

    Read off the canonical rows: an equality ((1,), b) is the point b, a
    facet ((1,), lo) says x >= lo and a facet ((-1,), -hi) says x <= hi.
    """
    lo = hi = None
    for _, b in p.equalities:
        lo = hi = b
    for (n,), b in p.facets:
        if n > 0:
            lo = b
        else:
            hi = -b
    return lo, hi


@record
class Rank1Family:
    """Symbolic chain of intervals [b(n+1), b(n)] on the line.

    kind "harmonic": b(n) = c/(n+d) + e; kind "geometric": b(n) = c*r^n + e
    with 0 < r < 1.  Both are strictly monotone with limit e, so the union
    of the chain is the half-open interval between e and b(n_min) (closed
    on both ends when n_max is finite).  `isolated` lists explicit extra
    faces, such as the limit point itself.
    """

    kind: str
    c: Fraction
    d: Fraction
    r: Fraction
    e: Fraction
    n_min: int
    n_max: int | None = None
    isolated: tuple[Polyhedron, ...] = ()

    def __post_init__(self):
        if self.kind not in ("harmonic", "geometric"):
            raise FamilyNotSupported(f"unknown family kind {self.kind!r}")
        if self.c == 0:
            raise FamilyNotSupported("family scale c must be nonzero")
        if self.kind == "harmonic" and self.n_min + self.d <= 0:
            raise FamilyNotSupported("harmonic rule has a pole inside the index range")
        if self.kind == "geometric" and not (0 < self.r < 1):
            raise FamilyNotSupported("geometric ratio must satisfy 0 < r < 1")
        if self.n_max is not None and self.n_max < self.n_min:
            raise FamilyNotSupported("empty index range")
        for p in self.isolated:
            if p.ambient != 1:
                raise FamilyNotSupported("isolated faces of a family must be rank-1")

    @classmethod
    def from_rule(cls, rule: str, n_min: int = 1, n_max: int | None = None,
                  isolated: Sequence[Polyhedron] = ()) -> "Rank1Family":
        m = _HARMONIC.match(rule)
        if m:
            return cls("harmonic", Fraction(m["c"]), _signed(m["dsign"], m["d"]),
                       Fraction(0), _signed(m["esign"], m["e"]),
                       n_min, n_max, tuple(isolated))
        m = _GEOMETRIC.match(rule)
        if m:
            c = Fraction(m["c"]) if m["c"] is not None else Fraction(1)
            return cls("geometric", c, Fraction(0), Fraction(m["r"]),
                       _signed(m["esign"], m["e"]), n_min, n_max, tuple(isolated))
        raise MalformedInput(f"unrecognized breakpoint rule: {rule!r}")

    @property
    def rule(self) -> str:
        if self.kind == "harmonic":
            core = f"{self.c}/n" if self.d == 0 else \
                f"{self.c}/(n{'+' if self.d > 0 else '-'}{abs(self.d)})"
        else:
            core = f"{self.c}*({self.r})^n"
        if self.e:
            core += f" {'+' if self.e > 0 else '-'} {abs(self.e)}"
        return core

    def breakpoint(self, n: int) -> Fraction:
        if self.kind == "harmonic":
            return self.c / (n + self.d) + self.e
        return self.c * self.r ** n + self.e

    @property
    def decreasing(self) -> bool:
        return self.c > 0

    def limit(self) -> Fraction:
        return self.e

    def face_interval(self, n: int) -> Polyhedron:
        """The n-th interval face, endpoints b(n) and b(n+1)."""
        a, b = sorted((self.breakpoint(n), self.breakpoint(n + 1)))
        return Polyhedron.from_halfspaces([((1,), a), ((-1,), -b)], 1)

    def union_bounds(self) -> tuple[Fraction, bool, Fraction, bool]:
        """(lo, lo_closed, hi, hi_closed) for the union of all interval faces."""
        first = self.breakpoint(self.n_min)
        if self.n_max is not None:
            last = self.breakpoint(self.n_max + 1)
            a, b = sorted((first, last))
            return a, True, b, True
        if self.decreasing:
            return self.e, False, first, True
        return first, True, self.e, False

    def contains(self, x) -> bool:
        x = la.frac(x)
        lo, locl, hi, hicl = self.union_bounds()
        return (lo < x or (locl and x == lo)) and (x < hi or (hicl and x == hi))

    def face_index_of(self, x) -> int | None:
        """Smallest n with x in [b(n+1), b(n)], or None."""
        x = la.frac(x)
        if not self.contains(x):
            return None
        n = self.n_min
        step = 1
        # exponential search for the first interval reaching past x
        def past(n):  # has the chain moved beyond x at index n?
            b = self.breakpoint(n + 1)
            return b <= x if self.decreasing else b >= x
        while not past(n):
            n += step
            step *= 2
            if self.n_max is not None and n > self.n_max:
                n = self.n_max
                break
        lo, hi = self.n_min, n
        while lo < hi:
            mid = (lo + hi) // 2
            if past(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def materialized(self, count: int | None = None) -> list[Polyhedron]:
        """Concrete interval faces (all of them if the range is finite)."""
        if self.n_max is None:
            if count is None:
                raise FamilyNotSupported("cannot materialize an infinite family")
            last = self.n_min + count - 1
        else:
            last = self.n_max if count is None else min(self.n_max, self.n_min + count - 1)
        return [self.face_interval(n) for n in range(self.n_min, last + 1)]

    def meets(self, p: Polyhedron) -> bool:
        """Does the union of the interval faces intersect p (rank-1)?"""
        if p.is_empty:
            return False
        lo, locl, hi, hicl = self.union_bounds()
        plo, phi = _bounds_1d(p)
        if phi is not None and (phi < lo or (phi == lo and not locl)):
            return False
        if plo is not None and (plo > hi or (plo == hi and not hicl)):
            return False
        return True


def detect_accumulation(family: Rank1Family) -> Fraction | None:
    """Limit of the breakpoint sequence when it is approached but never attained."""
    if family.n_max is not None:
        return None
    return family.limit()


@record
class ExtendedComplex:
    """Admissible polyhedral complex with closure strata, maybe plus a family."""

    fan: Fan
    faces: tuple[ExtendedPolyhedron, ...]
    family: Rank1Family | None = None

    @classmethod
    def from_polyhedra(cls, fan: Fan, polyhedra: Iterable[Polyhedron],
                       family: Rank1Family | None = None) -> "ExtendedComplex":
        """Canonical complex from finite parts; face-closes and dedupes.

        Raises NotAdmissible when a face's recession cone is not in the fan.
        """
        if family is not None and fan.ambient != 1:
            raise FamilyNotSupported("interval families require ambient rank 1")
        parts: dict[Polyhedron, None] = {}
        for p in polyhedra:
            if p.is_empty:
                continue
            p = p.as_polyhedron()
            if p in parts:
                continue
            parts[p] = None
            for f in p.faces():
                parts.setdefault(f.as_polyhedron(), None)
        ordered = sorted(parts, key=_face_sort_key)
        return cls(fan, tuple(closure_strata(p, fan) for p in ordered), family)

    @property
    def finite_parts(self) -> tuple[Polyhedron, ...]:
        return tuple(f.finite_part for f in self.faces)

    def face_index(self, p: Polyhedron) -> int | None:
        target = p.as_polyhedron()
        for i, f in enumerate(self.faces):
            if f.finite_part == target:
                return i
        return None

    @cached_property
    def containment(self) -> tuple[tuple[int, int], ...]:
        """`containment_pairs` of the finite parts, computed once per complex."""
        return tuple(containment_pairs(self.finite_parts))

    @cached_property
    def _maximal(self) -> tuple[int, ...]:
        contained = {i for i, _ in self.containment}
        return tuple(i for i in range(len(self.faces)) if i not in contained)

    def maximal_face_indices(self) -> tuple[int, ...]:
        return self._maximal

    @property
    def is_finite(self) -> bool:
        return self.family is None or self.family.n_max is not None

    def __len__(self):
        return len(self.faces)


def containment_pairs(parts: Sequence[Polyhedron]) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i != j, with parts[i] (of no larger dim) in parts[j]."""
    return sorted((i, j) for j, q in enumerate(parts) for i, p in enumerate(parts)
                  if i != j and p.dim <= q.dim and q.contains_polyhedron(p))


def covering_pairs(order: Iterable[tuple[int, int]], count: int) -> list[tuple[int, int]]:
    """The pairs of a strict order on range(count) with no element between them."""
    order = set(order)
    return [(i, j) for i, j in sorted(order)
            if not any((i, k) in order and (k, j) in order for k in range(count))]


def _extended_meets(a: ExtendedPolyhedron, b: ExtendedPolyhedron) -> bool:
    """Do the closures intersect, in any stratum?

    Disjoint finite parts can still meet at infinity (their projections to
    a shared boundary stratum may overlap), so every common stratum is
    checked.
    """
    strata_b = dict(b.strata)
    for idx, piece in a.strata:
        other = strata_b.get(idx)
        if other is not None and not piece.intersection(other).is_empty:
            return True
    return False


# -- validation ----------------------------------------------------------------

@record
class Violation:
    kind: str
    faces: tuple[int, ...]
    detail: str


@record
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def validate_complex(fan: Fan, polyhedra: Sequence[Polyhedron],
                     family: Rank1Family | None = None) -> ValidationReport:
    """Check the complex axioms on an explicit face list; violations are data.

    Checks: admissibility of every member, pairwise intersections being
    common faces, closure under faces, and (symbolically) that explicit
    faces meet the family chain only in faces of single intervals.
    """
    from .polyhedra import is_admissible

    violations: list[Violation] = []
    polys = [p.as_polyhedron() for p in polyhedra]
    listed = set()
    for i, p in enumerate(polys):
        if p.ambient != fan.ambient:
            violations.append(Violation("ambient-mismatch", (i,),
                                        f"face {i} lives in rank {p.ambient}, fan in {fan.ambient}"))
            continue
        if p.is_empty:
            violations.append(Violation("empty-face", (i,), f"face {i} is empty"))
            continue
        listed.add(p)
        adm = is_admissible(p, fan)
        if not adm.ok:
            violations.append(Violation("inadmissible", (i,), f"face {i}: {adm.reason}"))
    for i, p in enumerate(polys):
        if p.is_empty or p.ambient != fan.ambient:
            continue
        for f in p.faces():
            if f.as_polyhedron() not in listed:
                violations.append(Violation(
                    "missing-face", (i,),
                    f"face of member {i} (dim {f.dim}) is not listed"))
        for j in range(i + 1, len(polys)):
            q = polys[j]
            if q.is_empty or q.ambient != fan.ambient:
                continue
            meet = p.intersection(q)
            if meet.is_empty:
                continue
            if not (meet.is_face_of(p) and meet.is_face_of(q)):
                violations.append(Violation(
                    "non-face-intersection", (i, j),
                    f"faces {i} and {j} intersect in a non-face (dim {meet.dim})"))
            elif meet not in listed:
                violations.append(Violation(
                    "missing-face", (i, j),
                    f"intersection of faces {i} and {j} is not listed"))
    if family is not None:
        for i, p in enumerate(polys):
            if p.ambient != 1 or p.is_empty or not family.meets(p):
                continue
            _, top = _bounds_1d(p)
            if top is None:
                violations.append(Violation("family-overlap", (i,),
                                            f"face {i} is unbounded across the family"))
                continue
            n = family.face_index_of(top)
            host = None if n is None else family.face_interval(n)
            if host is None or not p.is_face_of(host):
                violations.append(Violation(
                    "family-overlap", (i,),
                    f"face {i} meets the family chain but is not a face of one interval"))
    return ValidationReport(not violations, tuple(violations))


# -- support and completeness ----------------------------------------------------

def support_contains(delta: ExtendedComplex, x) -> bool:
    """Is the (extended) point in the union of the faces?

    Plain coordinate sequences are interpreted in the dense stratum, where
    family membership is decided symbolically from the breakpoint rule.
    """
    zero = delta.fan.zero_index
    if not isinstance(x, ExtendedPoint):
        x = ExtendedPoint(zero, la.vec(x))
    for f in delta.faces:
        piece = f.stratum(x.stratum)
        if piece is not None and piece.contains(x.coords):
            return True
    return x.stratum == zero and delta.family is not None and delta.family.contains(x.coords[0])


def is_complete(delta: ExtendedComplex) -> bool:
    """Do the faces cover the whole extended space, stratum by stratum?

    Exact: the complement of the union is computed recursively on every
    stratum of the fan and checked empty.  A family lives in the torus.
    """
    fan, family = delta.fan, []
    if delta.family is not None:
        if delta.family.n_max is None:
            raise FamilyNotSupported("completeness is undecidable for infinite families")
        family = delta.family.materialized()
    for idx in range(len(fan.cones)):
        pieces = [piece for f in delta.faces for i, piece in f.strata if i == idx]
        if idx == fan.zero_index:
            pieces += family
        space = Polyhedron.full_space(stratum_lattice(fan, idx).quotient_rank)
        if not is_covered(space, pieces):
            return False
    return True


def is_locally_finite(delta: ExtendedComplex) -> bool:
    """False exactly when a family accumulation point lies in the support."""
    if delta.family is None:
        return True
    acc = detect_accumulation(delta.family)
    if acc is None:
        return True
    return not support_contains(delta, (acc,))


# -- refinement ------------------------------------------------------------------

def common_refinement(*deltas: ExtendedComplex) -> ExtendedComplex:
    """Smallest complex refining every input (equal supports required).

    Faces are the nonempty intersections of one face from each input,
    together with their faces; computed by folding pairwise intersections
    of maximal faces and re-closing.
    """
    if not deltas:
        raise ValueError("common_refinement needs at least one complex")
    for d in deltas:
        if d.family is not None:
            raise FamilyNotSupported("common refinement requires finite complexes")
        if d.fan != deltas[0].fan:
            raise SupportMismatch("complexes live over different fans")
    first = deltas[0]
    # Supports are compared on maximal faces only; the face closure adds
    # nothing to the union and would blow up the subtraction step.
    first_max = [first.finite_parts[i] for i in first.maximal_face_indices()]
    for d in deltas[1:]:
        d_max = [d.finite_parts[i] for i in d.maximal_face_indices()]
        if not same_support(first_max, d_max):
            raise SupportMismatch("complexes have different supports")
    if len(deltas) == 1:
        return first
    current = first_max
    for d in deltas[1:]:
        incoming = [d.finite_parts[i] for i in d.maximal_face_indices()]
        cells = [p.intersection(q) for p in current for q in incoming]
        current = _prune_to_maximal([c for c in cells if not c.is_empty])
    return ExtendedComplex.from_polyhedra(first.fan, current)


def _prune_to_maximal(cells: Sequence[Polyhedron]) -> list[Polyhedron]:
    unique = list(dict.fromkeys(cells))
    contained = {i for i, _ in containment_pairs(unique)}
    return [c for i, c in enumerate(unique) if i not in contained]


@record
class RefinementMap:
    """Face assignment of a refinement Δ' -> Δ: each face to the minimal
    face of the target containing it."""

    source: ExtendedComplex
    target: ExtendedComplex
    assignment: tuple[int, ...]

    def image_index(self, i: int) -> int:
        return self.assignment[i]

    def compose(self, inner: "RefinementMap") -> "RefinementMap":
        """self ∘ inner (inner: Δ'' -> Δ', self: Δ' -> Δ)."""
        if inner.target != self.source:
            raise ValueError("refinement maps are not composable")
        return RefinementMap(inner.source, self.target,
                             tuple(self.assignment[j] for j in inner.assignment))


def refinement_map(finer: ExtendedComplex, coarser: ExtendedComplex) -> RefinementMap:
    """Assign every face of `finer` the minimal face of `coarser` containing it.

    Minimality is decided at a relative interior point: the faces of a
    complex containing a given point have a unique minimal element.
    """
    if finer.family is not None or coarser.family is not None:
        raise FamilyNotSupported("refinement maps require finite complexes")
    if finer.fan != coarser.fan:
        raise SupportMismatch("complexes live over different fans")
    targets = coarser.finite_parts
    assignment = []
    for i, f in enumerate(finer.finite_parts):
        z = f.relative_interior_point()
        candidates = [j for j, t in enumerate(targets) if t.contains(z)]
        if not candidates:
            raise NotARefinement(f"face {i} of the finer complex lies outside the coarser one")
        j = min(candidates, key=lambda j: targets[j].dim)
        if not targets[j].contains_polyhedron(f):
            raise NotARefinement(f"face {i} is not contained in a single face of the target")
        assignment.append(j)
    return RefinementMap(finer, coarser, tuple(assignment))


# -- adjacency -------------------------------------------------------------------

def adjacency_components(delta: ExtendedComplex) -> tuple[tuple[int, ...], ...]:
    """Connected components of the face-intersection graph.

    Faces are labelled by index; the symbolic interval chain (connected in
    itself, since consecutive intervals share an endpoint) appears as the
    single label FAMILY_NODE (= -1).  Closures are compared on every
    stratum, so faces touching only at infinity still count as adjacent.
    """
    nodes = list(range(len(delta.faces)))
    if delta.family is not None:
        nodes.append(FAMILY_NODE)
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(len(delta.faces)):
        for j in range(i + 1, len(delta.faces)):
            if _extended_meets(delta.faces[i], delta.faces[j]):
                union(i, j)
        if delta.family is not None and delta.family.meets(delta.faces[i].finite_part):
            union(i, FAMILY_NODE)
    groups: dict[int, list[int]] = {}
    for v in nodes:
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def is_union_of_faces(pieces: Sequence, delta: ExtendedComplex) -> ExtendedComplex | None:
    """The subcomplex carrying exactly ∪pieces, or None if there is none.

    Each piece may be a Polyhedron or an ExtendedPolyhedron; the answer is
    the set of faces of `delta` inside the union, accepted only when their
    union reproduces it exactly (decided by complementation).
    """
    if delta.family is not None:
        raise FamilyNotSupported("subcomplex extraction requires a finite complex")
    targets = [p.finite_part if isinstance(p, ExtendedPolyhedron) else p.as_polyhedron()
               for p in pieces]
    chosen = [i for i, p in enumerate(delta.finite_parts) if is_covered([p], targets)]
    chosen_max = _prune_to_maximal([delta.finite_parts[i] for i in chosen])
    if not same_support(chosen_max, list(targets)):
        return None
    return ExtendedComplex(delta.fan, tuple(delta.faces[i] for i in chosen))

