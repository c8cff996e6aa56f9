"""Combinatorial skeletons of integral models glued from tilted algebras.

A finite admissible complex Δ covering the tropicalization of a very
affine variety cut out by `EmbeddingData` yields one chart per face: the
tilted presentation of the monomials integral on that face, together with
the initial forms of the defining equations at a deterministic sample
point in the face's relative interior.  Charts glue along the face poset;
refinements of Δ induce morphisms given by exponent-level substitution
tables.  The module also enumerates the non-empty strata (the desk-scale
shadow of the adic tropicalization's point set) and restricts skeletons
to unions of faces (adapted models of analytic domains).
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg as la
from ._record import record
from .complexes import (ExtendedComplex, RefinementMap, covering_pairs,
                        is_union_of_faces, refinement_map)
from .degeneration import (LaurentPoly, ResiduePoly, TiltedPresentation, _argmin_regions,
                           _box_halfspaces, hypersurface_trop, initial_form,
                           initial_form_on_stratum, tilted_algebra)
from .errors import (EmbeddingMismatch, ExponentOutsideSublattice, FamilyNotSupported,
                     NotACover, UnverifiedBasis, ZeroPolynomial)
from .polyhedra import Cone, Fan, Polyhedron
from .regions import uncovered_witness
from .toric import ExtendedPoint, stratum_lattice

Vector = tuple[Fraction, ...]


# -- embedding data ---------------------------------------------------------------

@record
class EmbeddingData:
    """Defining data of a very affine subvariety of the dense torus.

    `generators` cut out the intersection with the torus; an empty tuple
    means the torus itself.  Lists longer than one are only meaningful
    with `tropical_basis_asserted` (the artifact cannot verify the basis
    property).  `stratum_ideals` optionally supplies generator lists with
    exponents in M_sigma for boundary strata, keyed by fan cone index.
    """

    fan: Fan
    generators: tuple[LaurentPoly, ...]
    tropical_basis_asserted: bool = False
    stratum_ideals: tuple[tuple[int, tuple[LaurentPoly, ...]], ...] = ()

    @classmethod
    def of(cls, fan: Fan, generators: Iterable[LaurentPoly],
           tropical_basis_asserted: bool = False,
           stratum_ideals: Mapping[int, Iterable[LaurentPoly]] | None = None,
           ) -> "EmbeddingData":
        ideals = tuple(sorted((idx, tuple(gens))
                              for idx, gens in (stratum_ideals or {}).items()))
        return cls(fan, tuple(generators), tropical_basis_asserted, ideals)

    def __post_init__(self):
        n = self.fan.ambient
        for g in self.generators:
            if g.is_zero:
                raise ZeroPolynomial("embedding generators must be nonzero")
            if g.nvars != n:
                raise ValueError("generator rank does not match the fan")
        for idx, gens in self.stratum_ideals:
            lattice = stratum_lattice(self.fan, idx)
            for g in gens:
                if g.is_zero:
                    raise ZeroPolynomial("stratum ideal generators must be nonzero")
                if g.nvars != n:
                    raise ValueError("stratum generator rank does not match the fan")
                for u in g.support:
                    if not lattice.contains_exponent(u):
                        raise ExponentOutsideSublattice(
                            f"stratum ideal exponent {u} is not in M_sigma")

    @property
    def principal(self) -> bool:
        return len(self.generators) == 1

    def stratum_generators(self, cone_index: int) -> tuple[LaurentPoly, ...]:
        for idx, gens in self.stratum_ideals:
            if idx == cone_index:
                return gens
        return ()


def _warn_if_asserted(embedding: EmbeddingData):
    if len(embedding.generators) > 1:
        if not embedding.tropical_basis_asserted:
            raise ValueError(
                "multiple generators require tropical_basis_asserted=True")
        warnings.warn("tropical-basis property of the generator list is asserted, "
                      "not verified", UnverifiedBasis, stacklevel=3)


def _intersect_loci(loci: Sequence[Sequence[Polyhedron]]) -> list[Polyhedron]:
    pieces = list(loci[0])
    for nxt in loci[1:]:
        out: dict[Polyhedron, None] = {}
        for a in pieces:
            for b in nxt:
                c = a.intersection(b)
                if not c.is_empty:
                    out[c] = None
        pieces = list(out)
    return pieces


def _quotient_poly(g: LaurentPoly, lattice) -> LaurentPoly:
    terms = [(lattice.exponent_coords(u), a) for u, a in g.terms]
    return LaurentPoly.of(lattice.quotient_rank, terms)


def tropicalization_pieces(embedding: EmbeddingData, box=None) -> list[Polyhedron]:
    """Finite-part support of Trop: corner locus (or its intersection for
    asserted bases); the whole space for the torus."""
    n = embedding.fan.ambient
    if not embedding.generators:
        if box is None:
            return [Polyhedron.from_halfspaces([], n)]
        return [Polyhedron.from_halfspaces(_box_halfspaces(box, n), n)]
    loci = [hypersurface_trop(f, box) for f in embedding.generators]
    if any(not locus for locus in loci):
        return []
    return _intersect_loci(loci)


# -- cover decision ---------------------------------------------------------------

@record
class CoverDecision:
    ok: bool
    witness: ExtendedPoint | None


def covers(delta: ExtendedComplex, embedding: EmbeddingData, box=None) -> CoverDecision:
    """Does |Δ| contain the tropicalization (clipped to `box` when given)?

    Checks the finite part against the faces of Δ and every supplied
    boundary-stratum locus against Δ's strata.  The witness, if any, is an
    extended point outside |Δ|.
    """
    if not delta.is_finite:
        raise FamilyNotSupported("cover checks need a finite complex")
    if delta.fan != embedding.fan:
        raise EmbeddingMismatch("complex and embedding use different fans")
    _warn_if_asserted(embedding)
    n = delta.fan.ambient
    zero_idx = delta.fan.index_of(Cone.zero(n))
    pieces = tropicalization_pieces(embedding, box)
    # Maximal faces suffice: complexes are face-closed, and a face of a
    # contained fan cone is a face of the containing one, so the union of
    # strata over maximal faces equals the union over all faces.
    maximal = delta.maximal_face_indices()
    w = uncovered_witness(pieces, [delta.finite_parts[i] for i in maximal])
    if w is not None:
        return CoverDecision(False, ExtendedPoint(zero_idx, w))
    for idx, gens in embedding.stratum_ideals:
        lattice = stratum_lattice(delta.fan, idx)
        quotient_gens = [_quotient_poly(g, lattice) for g in gens]
        loci = [hypersurface_trop(g, None) for g in quotient_gens]
        if any(not locus for locus in loci):
            continue
        strata_pieces = [piece for i in maximal
                         for s, piece in delta.faces[i].strata if s == idx]
        w = uncovered_witness(_intersect_loci(loci), strata_pieces)
        if w is not None:
            return CoverDecision(False, ExtendedPoint(idx, w))
    return CoverDecision(True, None)


# -- skeletons ---------------------------------------------------------------------

@record
class Chart:
    """One chart of the skeleton: monoid presentation + sampled initial data.

    `stratum` is the fan cone index (the zero cone for finite charts);
    `piece` is the face itself or its projection to the stratum quotient.
    Boundary charts are `evaluated` only when the embedding supplies a
    stratum ideal there.
    """

    face_index: int
    stratum: int
    piece: Polyhedron
    presentation: TiltedPresentation
    sample: Vector
    forms: tuple[ResiduePoly, ...]
    evaluated: bool
    empty: bool


@record
class GublerSkeleton:
    embedding: EmbeddingData
    denominator: int
    complex: ExtendedComplex
    charts: tuple[Chart, ...]
    gluing: tuple[tuple[int, int], ...]

    @property
    def stratum_table(self) -> tuple[tuple[tuple[int, int], tuple[ResiduePoly, ...], bool], ...]:
        return tuple(((c.face_index, c.stratum), c.forms, c.empty) for c in self.charts)

    def finite_charts(self) -> tuple[Chart, ...]:
        zero_idx = self.complex.fan.index_of(Cone.zero(self.complex.fan.ambient))
        return tuple(c for c in self.charts if c.stratum == zero_idx)

    def chart_at(self, face_index: int, stratum: int | None = None) -> Chart:
        zero_idx = self.complex.fan.index_of(Cone.zero(self.complex.fan.ambient))
        stratum = zero_idx if stratum is None else stratum
        for c in self.charts:
            if c.face_index == face_index and c.stratum == stratum:
                return c
        raise KeyError((face_index, stratum))


def _second_sample(piece: Polyhedron, first: Vector) -> Vector | None:
    if piece.dim == 0:
        return None
    rep = piece.vrep()
    for v in rep.vertices:
        if v != first:
            return tuple((a + b) / 2 for a, b in zip(first, v))
    for r in rep.rays:
        return tuple(a + Fraction(b, 2) for a, b in zip(first, r))
    return None


def _subdivide_by_linearity(delta: ExtendedComplex, f: LaurentPoly) -> ExtendedComplex:
    """Refine every face by the regions of constant argmin of trop(f).

    Always a refinement of `delta` with equal support (the regions cover
    the space); per-face constancy of the initial form follows.
    """
    cells = _argmin_regions(f, 1, [])
    pieces: dict[Polyhedron, None] = {}
    for face in delta.finite_parts:
        for cell in cells:
            piece = face.intersection(cell)
            if not piece.is_empty:
                pieces[piece] = None
    return ExtendedComplex.from_polyhedra(delta.fan, list(pieces), close=True)


def build_skeleton(embedding: EmbeddingData, delta: ExtendedComplex,
                   denominator: int = 1, validate_samples: bool = False) -> GublerSkeleton:
    """One chart per face of (the initial-form-constant refinement of) Δ.

    Principal embeddings refine Δ by the linearity regions of the
    generator first, so initial forms are constant per relative interior;
    asserted bases are sampled (optionally twice).  Boundary charts carry
    the tilted presentation of the projected face, with initial forms
    where stratum ideals are supplied.
    """
    decision = covers(delta, embedding)
    if not decision.ok:
        raise NotACover(f"complex misses the tropicalization at {decision.witness}")
    return _skeleton_of_cover(embedding, delta, denominator, validate_samples)


def _skeleton_of_cover(embedding: EmbeddingData, delta: ExtendedComplex,
                       denominator: int, validate_samples: bool) -> GublerSkeleton:
    """The charts of `build_skeleton` for a Δ already known to cover."""
    work = delta
    if embedding.principal:
        work = _subdivide_by_linearity(delta, embedding.generators[0])
    fan = work.fan
    n = fan.ambient
    zero_idx = fan.index_of(Cone.zero(n))
    charts: list[Chart] = []
    for i, ext in enumerate(work.faces):
        for stratum, piece in ext.strata:
            if stratum == zero_idx:
                sample = piece.relative_interior_point()
                forms = tuple(initial_form(g, sample) for g in embedding.generators)
                evaluated = True
            else:
                gens = embedding.stratum_generators(stratum)
                sample = piece.relative_interior_point()
                lattice = stratum_lattice(fan, stratum)
                forms = tuple(initial_form_on_stratum(g, ExtendedPoint(stratum, sample),
                                                      lattice) for g in gens)
                evaluated = bool(gens)
            if validate_samples and evaluated and forms:
                again = _second_sample(piece, sample)
                if again is not None:
                    if stratum == zero_idx:
                        check = tuple(initial_form(g, again)
                                      for g in embedding.generators)
                    else:
                        check = tuple(
                            initial_form_on_stratum(g, ExtendedPoint(stratum, again),
                                                    stratum_lattice(fan, stratum))
                            for g in embedding.stratum_generators(stratum))
                    if check != forms:
                        raise NotACover(
                            f"initial forms not constant on face {i}, stratum "
                            f"{stratum}: refine the complex")
            empty = evaluated and bool(forms) and all(fm.is_monomial for fm in forms)
            charts.append(Chart(i, stratum, piece, tilted_algebra(piece, denominator),
                                sample, forms, evaluated, empty))
    charts.sort(key=lambda c: (c.face_index, c.stratum))
    return GublerSkeleton(embedding, denominator, work, tuple(charts), work.containment)


# -- stratum enumeration -----------------------------------------------------------

@record
class StratumRow:
    face_index: int
    stratum: int
    sample: Vector
    forms: tuple[ResiduePoly, ...]


def adic_trop_strata(skeleton: GublerSkeleton) -> tuple[StratumRow, ...]:
    """Non-empty evaluated strata: the points of the exploded tropicalization.

    Faces with disjoint relative interiors give distinct (face, stratum)
    identifiers; unevaluated boundary charts are not listed.
    """
    return tuple(StratumRow(c.face_index, c.stratum, c.sample, c.forms)
                 for c in skeleton.charts if c.evaluated and not c.empty)


# -- adapted sub-skeletons ----------------------------------------------------------

def adapted_to(skeleton: GublerSkeleton, pieces: Sequence,
               ) -> tuple[ExtendedComplex, GublerSkeleton] | None:
    """Restriction of the skeleton to a union of faces, if it is one.

    Returns (subcomplex, sub-skeleton) when ∪pieces is exactly a union of
    faces of the skeleton's complex; None otherwise.
    """
    sub = is_union_of_faces(pieces, skeleton.complex)
    if sub is None:
        return None
    old_of_new = []
    for p in sub.finite_parts:
        idx = skeleton.complex.face_index(p)
        if idx is None:
            return None
        old_of_new.append(idx)
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    charts = tuple(
        Chart(new_of_old[c.face_index], c.stratum, c.piece, c.presentation,
              c.sample, c.forms, c.evaluated, c.empty)
        for c in skeleton.charts if c.face_index in new_of_old)
    charts = tuple(sorted(charts, key=lambda c: (c.face_index, c.stratum)))
    gluing = tuple(sorted((new_of_old[i], new_of_old[j]) for i, j in skeleton.gluing
                          if i in new_of_old and j in new_of_old))
    restricted = GublerSkeleton(skeleton.embedding, skeleton.denominator, sub,
                                charts, gluing)
    return sub, restricted


# -- morphisms ----------------------------------------------------------------------

def _transpose(rows):
    return [list(col) for col in zip(*rows)]


class _FactorContext:
    """Greedy canonical factorization over one chart's generator list.

    Scaled coordinates (u, D*gamma) in Z^(n+1).  `weight` is a strictly
    positive integer functional on the non-unit part of the semigroup
    (sum of the defining inequalities' values), so subtracting the first
    subtractable non-unit generator terminates; the unit remainder is
    solved exactly over the +/- lineality basis pairs.
    """

    def __init__(self, presentation: TiltedPresentation):
        self.presentation = presentation
        p = presentation.polyhedron
        d = presentation.denominator
        self.d = d
        rep = p.vrep()
        self.vertices = [tuple(d * x for x in v) for v in rep.vertices]  # integer
        self.rays = [tuple(int(x) for x in r) for r in rep.rays]
        self.scaled = [tuple(u) + (int(g * d),) for u, g in presentation.generators]
        self.n = p.ambient
        self.units = [k for k, x in enumerate(self.scaled) if self.weight(x) == 0]
        self.positives = [k for k in range(len(self.scaled)) if k not in self.units]
        unit_vecs = {self.scaled[k]: k for k in self.units}
        self.basis: list[tuple[int, int, tuple[int, ...]]] = []  # (+idx, -idx, vector)
        for k in self.units:
            w = self.scaled[k]
            neg = tuple(-x for x in w)
            if w > neg:
                self.basis.append((k, unit_vecs[neg], w))

    def weight(self, x) -> int:
        u, g = x[:self.n], x[self.n]
        total = 0
        for v in self.vertices:
            total += g + sum(a * b for a, b in zip(u, v))
        for r in self.rays:
            total += sum(a * b for a, b in zip(u, r))
        return total

    def member(self, x) -> bool:
        u, g = x[:self.n], x[self.n]
        return (all(g + sum(a * b for a, b in zip(u, v)) >= 0 for v in self.vertices)
                and all(sum(a * b for a, b in zip(u, r)) >= 0 for r in self.rays))

    def factor(self, target: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """target = sum of multiplicities over generator indices, canonically."""
        if not self.member(target):
            raise ValueError(f"monomial {target} is not integral on the face")
        counts: dict[int, int] = {}
        x = target
        progress = True
        while self.weight(x) > 0:
            progress = False
            for k in self.positives:
                g = self.scaled[k]
                y = tuple(a - b for a, b in zip(x, g))
                if self.member(y):
                    counts[k] = counts.get(k, 0) + 1
                    x = y
                    progress = True
                    break
            if not progress:  # cannot happen for generating sets; guard anyway
                raise ValueError(f"greedy factorization stuck at {x}")
        if any(v != 0 for v in x):
            if not self.basis:
                raise ValueError(f"unit remainder {x} without unit generators")
            rows = _transpose([b[2] for b in self.basis])
            sol = la.solve_exact(rows, [Fraction(v) for v in x])
            if sol is None:
                raise ValueError(f"unit remainder {x} outside the unit lattice")
            for (kpos, kneg, _), a in zip(self.basis, sol):
                if a.denominator != 1:
                    raise ValueError(f"unit remainder {x} outside the unit lattice")
                a = int(a)
                if a > 0:
                    counts[kpos] = counts.get(kpos, 0) + a
                elif a < 0:
                    counts[kneg] = counts.get(kneg, 0) - a
        return tuple(sorted(counts.items()))


@record
class FaceArrow:
    """Chart inclusion R[M]^P -> R[M]^P' for P' inside P, as a substitution
    table: row k expresses the k-th generator of the P-presentation as a
    product of P'-generators (index, multiplicity pairs)."""

    source_face: int
    target_face: int
    table: tuple[tuple[tuple[int, int], ...], ...]


def _expand(row: tuple[tuple[int, int], ...], context: _FactorContext) -> tuple[int, ...]:
    total = [0] * (context.n + 1)
    for idx, mult in row:
        for i, v in enumerate(context.scaled[idx]):
            total[i] += mult * v
    return tuple(total)


def _chart_arrows(finer: GublerSkeleton, coarser: GublerSkeleton,
                  assignment: Sequence[int]) -> tuple[FaceArrow, ...]:
    contexts = {c.face_index: _FactorContext(c.presentation)
                for c in finer.finite_charts()}
    coarse_pres = {c.face_index: c.presentation for c in coarser.finite_charts()}
    arrows = []
    for c in finer.finite_charts():
        i = c.face_index
        j = assignment[i]
        ctx = contexts[i]
        target = coarse_pres[j]
        table = []
        for u, g in target.generators:
            scaled = tuple(u) + (int(g * finer.denominator),)
            table.append(ctx.factor(scaled))
        arrows.append(FaceArrow(i, j, tuple(table)))
    return tuple(arrows)


@record
class SkeletonMorphism:
    """Skeleton morphism induced by a refinement: face assignment plus one
    substitution table per source face."""

    refinement: RefinementMap
    arrows: tuple[FaceArrow, ...]
    source: GublerSkeleton
    target: GublerSkeleton

    def arrow_for(self, source_face: int) -> FaceArrow:
        for a in self.arrows:
            if a.source_face == source_face:
                return a
        raise KeyError(source_face)

    def compose(self, inner: "SkeletonMorphism") -> "SkeletonMorphism":
        """self ∘ inner, re-deriving canonical tables for the composed
        assignment and checking that multiplied certificates expand to the
        same monomials."""
        if inner.target != self.source:
            raise ValueError("skeleton morphisms are not composable")
        ref = self.refinement.compose(inner.refinement)
        composed = SkeletonMorphism(
            ref, _chart_arrows(inner.source, self.target, ref.assignment),
            inner.source, self.target)
        for arrow in composed.arrows:
            ctx = _FactorContext(inner.source.chart_at(arrow.source_face).presentation)
            mid_face = inner.refinement.assignment[arrow.source_face]
            inner_arrow = inner.arrow_for(arrow.source_face)
            outer_arrow = self.arrow_for(mid_face)
            target_pres = self.target.chart_at(arrow.target_face).presentation
            for k, row in enumerate(arrow.table):
                u, g = target_pres.generators[k]
                scaled = tuple(u) + (int(g * inner.source.denominator),)
                if _expand(row, ctx) != scaled:
                    raise ValueError("composed table does not expand to the monomial")
                multiplied: dict[int, int] = {}
                for mid_idx, mult in outer_arrow.table[k]:
                    for src_idx, m2 in inner_arrow.table[mid_idx]:
                        multiplied[src_idx] = multiplied.get(src_idx, 0) + mult * m2
                if _expand(tuple(sorted(multiplied.items())), ctx) != scaled:
                    raise ValueError("multiplied certificates do not expand to the "
                                     "monomial")
        return composed


def skeleton_morphism(finer: GublerSkeleton, coarser: GublerSkeleton) -> SkeletonMorphism:
    """Morphism induced by Δ' refining Δ (same embedding, same level).

    Each source chart maps to the chart of the minimal containing face;
    the arrow expresses every target generator in the source presentation.
    """
    if finer.embedding != coarser.embedding:
        raise EmbeddingMismatch("skeletons come from different embeddings")
    if finer.denominator != coarser.denominator:
        raise EmbeddingMismatch("skeletons use different level denominators")
    ref = refinement_map(finer.complex, coarser.complex)
    return SkeletonMorphism(ref, _chart_arrows(finer, coarser, ref.assignment),
                            finer, coarser)


# -- DOT export ----------------------------------------------------------------------

def skeleton_dot(skeleton: GublerSkeleton) -> str:
    """Chart poset (finite charts, covering relation) with strata markers."""
    finite = skeleton.finite_charts()
    parts = skeleton.complex.finite_parts
    lines = ["digraph skeleton {", "  rankdir=BT;"]
    for c in finite:
        boundary = [b for b in skeleton.charts
                    if b.face_index == c.face_index and b.stratum != c.stratum]
        mark = "empty" if c.empty else f"forms={len(c.forms)}"
        label = (f"P{c.face_index} dim {parts[c.face_index].dim} {mark} "
                 f"boundary={len(boundary)}")
        lines.append(f'  c{c.face_index} [label="{label}"];')
    for i, j in covering_pairs(skeleton.gluing, len(parts)):
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
