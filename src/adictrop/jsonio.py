"""Exact-rational JSON encoding of every value the package emits.

All numbers that can be non-integral are serialized as rational strings
"p/q" (or "p"); lattice data (normals, rays, exponents) as plain ints.
Floats are rejected at parse time — exactness is the whole point.
Encoders consume canonical values, so equal values produce equal bytes;
`canonical_json` fixes key order and layout so re-runs are byte-identical.
Every decoder re-canonicalizes through the ordinary constructors, hence
decoding an emitted artifact yields a value equal to the original.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .complexes import (FAMILY_NODE, ExtendedComplex, Rank1Family, RefinementMap,
                        ValidationReport, Violation, _extended_meets, containment_pairs,
                        covering_pairs)
from .errors import MalformedInput
from .polyhedra import Cone, Fan, Polyhedron
from .toric import ExtendedPoint

if TYPE_CHECKING:  # the converters that need these modules import them when called
    from .degeneration import (InitialIdeal, LaurentPoly, ResiduePoly,
                               SpecialFiberRelations, TiltedPresentation, ValuedCoeff)
    from .gubler import Chart, CoverDecision, EmbeddingData, GublerSkeleton, SkeletonMorphism

_FRACTION = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


# -- scalars -------------------------------------------------------------------

def format_fraction(x) -> str:
    return str(Fraction(x))


def parse_fraction(value) -> Fraction:
    if not isinstance(value, str) or not _FRACTION.match(value):
        raise MalformedInput(f"expected a rational string 'p/q', got {value!r}")
    return Fraction(value)


def _reject_float(text):
    raise MalformedInput(f"floating-point literal {text!r}: only exact "
                         "rationals ('p/q' strings) and integers are allowed")


def loads(text: str):
    """json.loads that refuses floats, NaN, and Infinity."""
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def canonical_json(value) -> str:
    """Deterministic rendering: sorted keys, fixed layout, trailing newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _expect(condition: bool, message: str):
    if not condition:
        raise MalformedInput(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _get(obj, key, kinds):
    _expect(isinstance(obj, dict), f"expected an object carrying {key!r}")
    _expect(key in obj, f"missing key {key!r}")
    value = obj[key]
    if kinds is int:
        _expect(_is_int(value), f"key {key!r} must be an integer")
    elif kinds is bool:
        _expect(isinstance(value, bool), f"key {key!r} must be a boolean")
    else:
        _expect(isinstance(value, kinds), f"key {key!r} has the wrong type")
    return value


def _int_vector(value, what: str) -> tuple[int, ...]:
    _expect(isinstance(value, list) and all(_is_int(x) for x in value),
            f"{what} must be an array of integers")
    return tuple(value)


def _int_pair(value, what: str) -> tuple[int, int]:
    pair = _int_vector(value, what)
    _expect(len(pair) == 2, f"{what} must have exactly two entries")
    return pair[0], pair[1]


def _fraction_vector(value, what: str) -> tuple[Fraction, ...]:
    _expect(isinstance(value, list), f"{what} must be an array of rational strings")
    return tuple(parse_fraction(x) for x in value)


# -- polyhedra -----------------------------------------------------------------

def polyhedron_to_json(p: Polyhedron) -> dict:
    if p.is_empty:
        return {"ambient": p.ambient, "empty": True}
    normals, bounds = [], []
    for n, b in p.equalities:
        normals.extend([list(n), [-x for x in n]])
        bounds.extend([format_fraction(b), format_fraction(-b)])
    for n, b in p.facets:
        normals.append(list(n))
        bounds.append(format_fraction(b))
    return {"ambient": p.ambient, "normals": normals, "bounds": bounds}


def polyhedron_from_json(obj) -> Polyhedron:
    ambient = _get(obj, "ambient", int)
    if obj.get("empty"):
        return Polyhedron.empty(ambient)
    normals = _get(obj, "normals", list)
    bounds = _get(obj, "bounds", list)
    _expect(len(normals) == len(bounds), "normals and bounds differ in length")
    halfspaces = [(_int_vector(n, "normal"), parse_fraction(b))
                  for n, b in zip(normals, bounds)]
    return Polyhedron.from_halfspaces(halfspaces, ambient)


def cell_to_json(p: Polyhedron) -> dict:
    """Polyhedron with both representations (V-rep only when pointed)."""
    out = {"hrep": polyhedron_to_json(p), "dim": p.dim}
    if not p.is_empty and p.is_pointed:
        rep = p.vrep()
        out["vertices"] = [[format_fraction(x) for x in v] for v in rep.vertices]
        out["rays"] = [[format_fraction(x) for x in r] for r in rep.rays]
    return out


def fan_to_json(fan: Fan) -> dict:
    cones = [sorted(list(r) for r in c.vrep().rays) for c in fan.cones]
    return {"ambient": fan.ambient, "cones": cones,
            "incidence": _fan_incidence(fan)}


def _fan_incidence(fan: Fan) -> list[list[int]]:
    # in a fan, one cone lies inside another iff it is a face of it
    return [[i for i in fan.face_indices(j) if i != j] for j in range(len(fan))]


def fan_from_json(obj) -> Fan:
    ambient = _get(obj, "ambient", int)
    cones = _get(obj, "cones", list)
    fan = Fan.from_cones(
        [Cone.from_rays([_int_vector(r, "ray") for r in rays], ambient)
         for rays in cones] or [Cone.zero(ambient)])
    if "incidence" in obj:
        _expect(obj["incidence"] == _fan_incidence(fan),
                "fan incidence does not match the listed cones")
    return fan


def point_to_json(p: ExtendedPoint) -> dict:
    return {"stratum": p.stratum, "coords": [format_fraction(x) for x in p.coords]}


def point_from_json(obj) -> ExtendedPoint:
    return ExtendedPoint(_get(obj, "stratum", int),
                         _fraction_vector(_get(obj, "coords", list), "coords"))


# -- complexes -----------------------------------------------------------------

def family_to_json(family: Rank1Family) -> dict:
    return {"rule": family.rule, "n_min": family.n_min, "n_max": family.n_max,
            "isolated": [polyhedron_to_json(p) for p in family.isolated]}


def family_from_json(obj) -> Rank1Family:
    rule = _get(obj, "rule", str)
    n_max = obj.get("n_max")
    _expect(n_max is None or _is_int(n_max), "n_max must be an integer or null")
    n_min = obj.get("n_min", 1)
    _expect(_is_int(n_min), "n_min must be an integer")
    return Rank1Family.from_rule(
        rule, n_min, n_max,
        [polyhedron_from_json(p) for p in obj.get("isolated", [])])


def complex_to_json(delta: ExtendedComplex) -> dict:
    out = {"fan": fan_to_json(delta.fan),
           "faces": [polyhedron_to_json(p) for p in delta.finite_parts],
           "incidence": [list(pair) for pair in delta.containment]}
    if delta.family is not None:
        out["family"] = family_to_json(delta.family)
    return out


def complex_from_json(obj) -> ExtendedComplex:
    fan = fan_from_json(_get(obj, "fan", dict))
    faces = [polyhedron_from_json(p) for p in _get(obj, "faces", list)]
    family = None
    if obj.get("family") is not None:
        family = family_from_json(obj["family"])
    delta = ExtendedComplex.from_polyhedra(fan, faces, family=family)
    if "incidence" in obj:
        _expect([list(p) for p in delta.containment] == obj["incidence"],
                "complex incidence does not match the listed faces")
    return delta


def report_to_json(report: ValidationReport) -> dict:
    return {"ok": report.ok,
            "violations": [{"kind": v.kind, "faces": list(v.faces),
                            "detail": v.detail} for v in report.violations]}


def report_from_json(obj) -> ValidationReport:
    violations = tuple(
        Violation(_get(v, "kind", str), _int_vector(_get(v, "faces", list), "faces"),
                  _get(v, "detail", str))
        for v in _get(obj, "violations", list))
    return ValidationReport(_get(obj, "ok", bool), violations)


def refmap_to_json(ref: RefinementMap) -> dict:
    return {"assignment": list(ref.assignment)}


def refmap_from_json(obj, source: ExtendedComplex, target: ExtendedComplex,
                     ) -> RefinementMap:
    return RefinementMap(source, target,
                         _int_vector(_get(obj, "assignment", list), "assignment"))


# -- polynomials ---------------------------------------------------------------

def coeff_to_json(a: ValuedCoeff) -> dict:
    return {"terms": [{"e": format_fraction(e), "c": format_fraction(c)}
                      for e, c in a.terms]}


def coeff_from_json(obj) -> ValuedCoeff:
    from .degeneration import ValuedCoeff
    terms = _get(obj, "terms", list)
    return ValuedCoeff.of([(parse_fraction(_get(t, "e", str)),
                            parse_fraction(_get(t, "c", str))) for t in terms])


def poly_to_json(f: LaurentPoly) -> dict:
    return {"nvars": f.nvars,
            "terms": [{"u": list(u), "c": coeff_to_json(a)} for u, a in f.terms]}


def poly_from_json(obj) -> LaurentPoly:
    from .degeneration import LaurentPoly
    nvars = _get(obj, "nvars", int)
    terms = [(_int_vector(_get(t, "u", list), "exponent"),
              coeff_from_json(_get(t, "c", dict)))
             for t in _get(obj, "terms", list)]
    return LaurentPoly.of(nvars, terms)


def generator_from_json(entry, nvars: int | None = None,
                        variables: Sequence[str] | None = None) -> LaurentPoly:
    """A polynomial given either in the text grammar or as structured JSON.

    Text inputs with fewer variables than `nvars` are padded with trailing
    zero exponents (so "x + 1" works in a rank-2 setting) unless an explicit
    variable list pins the arity.
    """
    from .degeneration import LaurentPoly
    from .parsing import parse_poly
    if isinstance(entry, str):
        f = parse_poly(entry, variables)
        if nvars is not None and variables is None and f.nvars < nvars:
            pad = nvars - f.nvars
            f = LaurentPoly.of(nvars, [(tuple(u) + (0,) * pad, a)
                                       for u, a in f.terms])
        return f
    return poly_from_json(entry)


def residue_to_json(f: ResiduePoly) -> dict:
    return {"nvars": f.nvars,
            "terms": [{"u": list(u), "c": format_fraction(c)} for u, c in f.terms]}


def residue_from_json(obj) -> ResiduePoly:
    from .degeneration import ResiduePoly
    nvars = _get(obj, "nvars", int)
    terms = [(_int_vector(_get(t, "u", list), "exponent"),
              parse_fraction(_get(t, "c", str)))
             for t in _get(obj, "terms", list)]
    return ResiduePoly.of(nvars, terms)


def ideal_to_json(ideal: InitialIdeal) -> dict:
    return {"forms": [residue_to_json(f) for f in ideal.forms],
            "principal": ideal.principal, "basis_asserted": ideal.basis_asserted}


def ideal_from_json(obj) -> InitialIdeal:
    from .degeneration import InitialIdeal
    return InitialIdeal(tuple(residue_from_json(f) for f in _get(obj, "forms", list)),
                        _get(obj, "principal", bool),
                        _get(obj, "basis_asserted", bool))


# -- tilted algebras -----------------------------------------------------------

def presentation_to_json(pres: TiltedPresentation) -> dict:
    return {"polyhedron": polyhedron_to_json(pres.polyhedron),
            "denominator": pres.denominator,
            "generators": [{"u": list(u), "level": format_fraction(g)}
                           for u, g in pres.generators],
            "positive_part": list(pres.positive_part)}


def presentation_from_json(obj) -> TiltedPresentation:
    from .degeneration import TiltedPresentation
    d = _get(obj, "denominator", int)
    generators = tuple((_int_vector(_get(g, "u", list), "exponent"),
                        parse_fraction(_get(g, "level", str)))
                       for g in _get(obj, "generators", list))
    _expect(all((g * d).denominator == 1 for _, g in generators),
            f"generator levels must be multiples of 1/{d}")
    return TiltedPresentation(
        polyhedron_from_json(_get(obj, "polyhedron", dict)), d, generators,
        _int_vector(_get(obj, "positive_part", list), "positive_part"))


def relations_to_json(rel: SpecialFiberRelations) -> dict:
    return {"generator_vanishing": list(rel.generator_vanishing),
            "identities": [[list(p) for p in group] for group in rel.identities],
            "product_vanishing": [list(p) for p in rel.product_vanishing]}


def relations_from_json(obj) -> SpecialFiberRelations:
    from .degeneration import SpecialFiberRelations
    identities = tuple(
        tuple(_int_vector(p, "index product") for p in group)
        for group in _get(obj, "identities", list))
    products = tuple(_int_pair(p, "index pair")
                     for p in _get(obj, "product_vanishing", list))
    return SpecialFiberRelations(
        _int_vector(_get(obj, "generator_vanishing", list), "generator_vanishing"),
        identities, products)


# -- embeddings and skeletons ----------------------------------------------------

def embedding_to_json(embedding: EmbeddingData) -> dict:
    return {"fan": fan_to_json(embedding.fan),
            "generators": [poly_to_json(g) for g in embedding.generators],
            "tropical_basis_asserted": embedding.tropical_basis_asserted,
            "stratum_ideals": [[idx, [poly_to_json(g) for g in gens]]
                               for idx, gens in embedding.stratum_ideals]}


def embedding_from_json(obj) -> EmbeddingData:
    from .gubler import EmbeddingData
    fan = fan_from_json(_get(obj, "fan", dict))
    variables = obj.get("variables")
    if variables is not None:
        _expect(isinstance(variables, list)
                and all(isinstance(v, str) for v in variables),
                "variables must be an array of names")
        variables = tuple(variables)
    generators = [generator_from_json(g, fan.ambient, variables)
                  for g in _get(obj, "generators", list)]
    ideals: list[tuple[int, list[LaurentPoly]]] = []
    for entry in obj.get("stratum_ideals", []):
        _expect(isinstance(entry, list) and len(entry) == 2 and _is_int(entry[0]),
                "stratum_ideals entries are [cone_index, [generators]] pairs")
        _expect(isinstance(entry[1], list), "stratum ideal generators must be a list")
        ideals.append((entry[0], [generator_from_json(g, fan.ambient, variables)
                                  for g in entry[1]]))
    asserted = obj.get("tropical_basis_asserted", False)
    _expect(isinstance(asserted, bool), "tropical_basis_asserted must be a boolean")
    return EmbeddingData.of(fan, generators, asserted, ideals)


def decision_to_json(decision: CoverDecision) -> dict:
    witness = None if decision.witness is None else point_to_json(decision.witness)
    return {"ok": decision.ok, "witness": witness}


def decision_from_json(obj) -> CoverDecision:
    from .gubler import CoverDecision
    witness = obj.get("witness")
    return CoverDecision(_get(obj, "ok", bool),
                         None if witness is None else point_from_json(witness))


def _chart_to_json(c: Chart) -> dict:
    return {"face": c.face_index, "stratum": c.stratum,
            "piece": polyhedron_to_json(c.piece),
            "presentation": presentation_to_json(c.presentation),
            "sample": [format_fraction(x) for x in c.sample],
            "forms": [residue_to_json(f) for f in c.forms],
            "evaluated": c.evaluated, "empty": c.empty}


def _chart_from_json(obj) -> Chart:
    from .gubler import Chart
    return Chart(_get(obj, "face", int), _get(obj, "stratum", int),
                 polyhedron_from_json(_get(obj, "piece", dict)),
                 presentation_from_json(_get(obj, "presentation", dict)),
                 _fraction_vector(_get(obj, "sample", list), "sample"),
                 tuple(residue_from_json(f) for f in _get(obj, "forms", list)),
                 _get(obj, "evaluated", bool), _get(obj, "empty", bool))


def _strata_json(skeleton: GublerSkeleton) -> list[dict]:
    from .gubler import adic_trop_strata
    return [{"face": r.face_index, "stratum": r.stratum,
             "sample": [format_fraction(x) for x in r.sample],
             "forms": [residue_to_json(f) for f in r.forms]}
            for r in adic_trop_strata(skeleton)]


def skeleton_to_json(skeleton: GublerSkeleton) -> dict:
    return {"embedding": embedding_to_json(skeleton.embedding),
            "denominator": skeleton.denominator,
            "complex": complex_to_json(skeleton.complex),
            "charts": [_chart_to_json(c) for c in skeleton.charts],
            "gluing": [list(p) for p in skeleton.gluing],
            "strata": _strata_json(skeleton)}


def skeleton_from_json(obj) -> GublerSkeleton:
    from .gubler import GublerSkeleton
    embedding = embedding_from_json(_get(obj, "embedding", dict))
    delta = complex_from_json(_get(obj, "complex", dict))
    charts = tuple(_chart_from_json(c) for c in _get(obj, "charts", list))
    gluing = tuple(_int_pair(pair, "gluing pair")
                   for pair in _get(obj, "gluing", list))
    skeleton = GublerSkeleton(embedding, _get(obj, "denominator", int),
                              delta, charts, gluing)
    if "strata" in obj:
        _expect(_strata_json(skeleton) == obj["strata"],
                "strata list does not match the charts")
    return skeleton


def morphism_to_json(m: SkeletonMorphism) -> dict:
    return {"source": skeleton_to_json(m.source),
            "target": skeleton_to_json(m.target),
            "assignment": list(m.refinement.assignment),
            "arrows": [{"source_face": a.source_face, "target_face": a.target_face,
                        "table": [[list(pair) for pair in row] for row in a.table]}
                       for a in m.arrows]}


def morphism_from_json(obj) -> SkeletonMorphism:
    from .gubler import FaceArrow, SkeletonMorphism
    source = skeleton_from_json(_get(obj, "source", dict))
    target = skeleton_from_json(_get(obj, "target", dict))
    ref = RefinementMap(source.complex, target.complex,
                        _int_vector(_get(obj, "assignment", list), "assignment"))
    arrows = []
    for a in _get(obj, "arrows", list):
        table = tuple(tuple(_int_pair(pair, "table pair") for pair in row)
                      for row in _get(a, "table", list))
        arrows.append(FaceArrow(_get(a, "source_face", int),
                                _get(a, "target_face", int), table))
    return SkeletonMorphism(ref, tuple(arrows), source, target)


# -- DOT views of complexes -------------------------------------------------------

def _node(i: int) -> str:
    return "family" if i == FAMILY_NODE else f"f{i}"


def faces_dot(parts: Sequence[Polyhedron]) -> str:
    """Containment poset of a cell list (covering relation)."""
    return _poset_dot(parts, containment_pairs(parts))


def incidence_dot(delta: ExtendedComplex) -> str:
    """Face poset of the finite parts (covering relation)."""
    return _poset_dot(delta.finite_parts, delta.containment)


def _poset_dot(parts: Sequence[Polyhedron], order) -> str:
    lines = ["digraph faces {", "  rankdir=BT;", *_poset_lines(parts, order, "f", "  "), "}"]
    return "\n".join(lines) + "\n"


def _poset_lines(parts: Sequence[Polyhedron], order, prefix: str, indent: str) -> list[str]:
    """One node per part, one edge per covering pair of the order."""
    return ([f'{indent}{prefix}{i} [label="P{i} dim {p.dim}"];' for i, p in enumerate(parts)]
            + [f"{indent}{prefix}{i} -> {prefix}{j};"
               for i, j in covering_pairs(order, len(parts))])


def morphism_dot(m: SkeletonMorphism) -> str:
    """Source and target face posets side by side, dashed assignment arrows."""
    lines = ["digraph morphism {", "  rankdir=BT;"]
    for name, skeleton in (("source", m.source), ("target", m.target)):
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="{name}";')
        lines += _poset_lines(skeleton.complex.finite_parts, skeleton.complex.containment,
                              name[0], "    ")
        lines.append("  }")
    for i, j in enumerate(m.refinement.assignment):
        lines.append(f"  s{i} -> t{j} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _adjacent(delta: ExtendedComplex, i: int, j: int) -> bool:
    if FAMILY_NODE in (i, j):
        k = j if i == FAMILY_NODE else i
        return (delta.family is not None
                and delta.family.meets(delta.faces[k].finite_part))
    return _extended_meets(delta.faces[i], delta.faces[j])


def adjacency_dot(delta: ExtendedComplex) -> str:
    """Contact graph of the maximal faces (undirected), one node per face
    plus one for a symbolic interval family when present."""
    maximal = list(delta.maximal_face_indices())
    if delta.family is not None:
        maximal.append(FAMILY_NODE)
    lines = ["graph adjacency {"]
    for i in maximal:
        label = "family" if i == FAMILY_NODE else \
            f"P{i} dim {delta.finite_parts[i].dim}"
        lines.append(f'  {_node(i)} [label="{label}"];')
    for a in range(len(maximal)):
        for b in range(a + 1, len(maximal)):
            if _adjacent(delta, maximal[a], maximal[b]):
                lines.append(f"  {_node(maximal[a])} -- {_node(maximal[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
