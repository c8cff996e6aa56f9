"""Command-line front end: exact tropical geometry with JSON/DOT output.

Every subcommand writes one canonical JSON document to stdout and,
with --dot PATH, a Graphviz view of the relevant poset.  Exit codes:
0 success, 2 a mathematical precondition failed (the JSON result, when
one exists, still goes to stdout), 1 malformed input.  Failures also
write a machine-readable {"error": {...}} document to stderr.  Each
subcommand imports the library functions it uses when it runs.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import jsonio as jio
from .errors import AdictropError, DomainError, MalformedInput, NotACover


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports bad usage as MalformedInput (exit code 1)."""

    def error(self, message):
        raise MalformedInput(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _load(path: str):
    return jio.loads(_read(path))


def _write_dot(args, text: str):
    if getattr(args, "dot", None):
        Path(args.dot).write_text(text)


def _variables(args) -> tuple[str, ...] | None:
    if args.vars is None:
        return None
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not names:
        raise MalformedInput("--vars must list at least one variable name")
    return names


def _poly_arg(args):
    from .parsing import parse_poly
    return parse_poly(args.poly, _variables(args))


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(jio.parse_fraction(x.strip()) for x in text.split(","))


def _parse_box(text: str, nvars: int):
    values = _fractions(text)
    if len(values) != 2 * nvars:
        raise MalformedInput(f"--box needs {2 * nvars} values "
                             f"(xmin,xmax,... for {nvars} variables)")
    lo, hi = values[0::2], values[1::2]
    if any(a > b for a, b in zip(lo, hi)):
        raise MalformedInput("--box has an empty range (min > max)")
    return lo, hi


# -- subcommands --------------------------------------------------------------

def _cmd_trop(args):
    from .degeneration import hypersurface_trop
    f = _poly_arg(args)
    box = None if args.box is None else _parse_box(args.box, f.nvars)
    cells = hypersurface_trop(f, box)
    _write_dot(args, jio.faces_dot(cells))
    return {"ambient": f.nvars, "poly": jio.poly_to_json(f),
            "cells": [jio.cell_to_json(c) for c in cells]}, None


def _cmd_initial(args):
    from .degeneration import initial_form, initial_form_on_stratum, trop_eval
    from .toric import ExtendedPoint, stratum_lattice
    f = _poly_arg(args)
    coords = _fractions(args.point)
    if args.stratum is not None:
        if args.fan is None:
            raise MalformedInput("--stratum needs --fan FILE for the ambient fan")
        fan = jio.fan_from_json(_load(args.fan))
        lattice = stratum_lattice(fan, args.stratum)
        form = initial_form_on_stratum(f, ExtendedPoint(args.stratum, coords),
                                       lattice)
        return {"stratum": args.stratum, "form": jio.residue_to_json(form),
                "monomial": form.is_monomial}, None
    value, argmin = trop_eval(f, coords)
    form = initial_form(f, coords)
    return {"value": jio.format_fraction(value),
            "argmin": [list(u) for u in argmin],
            "form": jio.residue_to_json(form),
            "monomial": form.is_monomial,
            "on_tropicalization": not form.is_monomial}, None


def _cmd_tilted(args):
    from .degeneration import special_fiber_relations, tilted_algebra
    p = jio.polyhedron_from_json(_load(args.polyhedron))
    presentation = tilted_algebra(p, args.denominator)
    relations = special_fiber_relations(presentation)
    return {"presentation": jio.presentation_to_json(presentation),
            "relations": jio.relations_to_json(relations)}, None


def _cmd_refine(args):
    from .complexes import common_refinement, refinement_map
    deltas = [jio.complex_from_json(_load(path)) for path in args.complexes]
    refined = common_refinement(*deltas)
    maps = [refinement_map(refined, d) for d in deltas]
    _write_dot(args, jio.incidence_dot(refined))
    return {"refinement": jio.complex_to_json(refined),
            "maps": [jio.refmap_to_json(m) for m in maps]}, None


def _cmd_check(args):
    from .complexes import (adjacency_components, detect_accumulation, is_complete,
                            is_locally_finite, validate_complex)
    delta = jio.complex_from_json(_load(args.complex))
    report = validate_complex(delta.fan, delta.finite_parts, delta.family)
    payload = jio.report_to_json(report)
    payload["complete"] = is_complete(delta) if delta.is_finite else None
    payload["locally_finite"] = is_locally_finite(delta)
    accumulation = None
    if delta.family is not None:
        accumulation = detect_accumulation(delta.family)
    payload["accumulation"] = (None if accumulation is None
                               else jio.format_fraction(accumulation))
    payload["components"] = len(adjacency_components(delta))
    _write_dot(args, jio.adjacency_dot(delta))
    error = None if report.ok else DomainError("complex validation failed")
    return payload, error


def _skeleton_inputs(args):
    embedding = jio.embedding_from_json(_load(args.embedding))
    delta = jio.complex_from_json(_load(args.complex))
    return embedding, delta


def _cmd_skeleton(args):
    from .gubler import _skeleton_of_cover, covers, skeleton_dot
    embedding, delta = _skeleton_inputs(args)
    decision = covers(delta, embedding)
    if not decision.ok:
        return ({"cover": jio.decision_to_json(decision)},
                NotACover("the complex does not cover the tropicalization"))
    skeleton = _skeleton_of_cover(embedding, delta, args.denominator,
                                  args.validate_samples)
    _write_dot(args, skeleton_dot(skeleton))
    return {"cover": jio.decision_to_json(decision),
            "skeleton": jio.skeleton_to_json(skeleton)}, None


def _cmd_adapt(args):
    from .gubler import adapted_to, build_skeleton, skeleton_dot
    embedding, delta = _skeleton_inputs(args)
    skeleton = build_skeleton(embedding, delta, args.denominator)
    pieces_json = _load(args.pieces)
    if not isinstance(pieces_json, list):
        raise MalformedInput("--pieces must be a JSON array of polyhedra")
    pieces = [jio.polyhedron_from_json(p) for p in pieces_json]
    result = adapted_to(skeleton, pieces)
    if result is None:
        return ({"adapted": False},
                DomainError("the region is not a union of skeleton faces"))
    sub, restricted = result
    _write_dot(args, skeleton_dot(restricted))
    return {"adapted": True, "subcomplex": jio.complex_to_json(sub),
            "skeleton": jio.skeleton_to_json(restricted)}, None


def _cmd_morphism(args):
    from .gubler import build_skeleton, skeleton_morphism
    embedding = jio.embedding_from_json(_load(args.embedding))
    fine = build_skeleton(embedding, jio.complex_from_json(_load(args.fine)),
                          args.denominator)
    coarse = build_skeleton(embedding, jio.complex_from_json(_load(args.coarse)),
                            args.denominator)
    m = skeleton_morphism(fine, coarse)
    _write_dot(args, jio.morphism_dot(m))
    return jio.morphism_to_json(m), None


# -- wiring ---------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="adictrop",
        description="Exact tropicalization, tilted algebras, and skeletons "
                    "over the field of generalized power series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dot=True):
        p.add_argument("--format", choices=["json"], default="json",
                       help="output format (only json)")
        if dot:
            p.add_argument("--dot", metavar="PATH",
                           help="also write a Graphviz view to PATH")

    p = sub.add_parser("trop", help="tropical hypersurface of a polynomial")
    p.add_argument("poly", help="polynomial, e.g. '(3 + t^2)*x^2*y^-1 + t*x'")
    p.add_argument("--vars", help="comma-separated variable order")
    p.add_argument("--box", metavar="xmin,xmax,...",
                   help="clip cells to a rational box")
    common(p)
    p.set_defaults(func=_cmd_trop)

    p = sub.add_parser("initial", help="initial form at a rational point")
    p.add_argument("poly")
    p.add_argument("--point", required=True, metavar="w1,w2,...",
                   help="rational coordinates of the point")
    p.add_argument("--vars", help="comma-separated variable order")
    p.add_argument("--fan", metavar="FILE",
                   help="fan JSON (for boundary strata)")
    p.add_argument("--stratum", type=int,
                   help="fan cone index of the boundary stratum")
    common(p, dot=False)
    p.set_defaults(func=_cmd_initial)

    p = sub.add_parser("tilted",
                       help="tilted-algebra presentation and special-fiber "
                            "relations of a polyhedron")
    p.add_argument("polyhedron", metavar="FILE", help="polyhedron JSON")
    p.add_argument("--denominator", type=int, default=1, metavar="D",
                   help="level lattice (1/D)Z")
    common(p, dot=False)
    p.set_defaults(func=_cmd_tilted)

    p = sub.add_parser("refine", help="common refinement of complexes")
    p.add_argument("complexes", nargs="+", metavar="FILE", help="complex JSON")
    common(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("check",
                       help="validate a complex; report completeness, local "
                            "finiteness, accumulation, components")
    p.add_argument("complex", metavar="FILE", help="complex JSON")
    common(p)
    p.set_defaults(func=_cmd_check)

    def skeleton_io(p):
        p.add_argument("--embedding", required=True, metavar="FILE",
                       help="embedding JSON (fan + generators)")
        p.add_argument("--complex", required=True, metavar="FILE",
                       help="complex JSON covering the tropicalization")
        p.add_argument("--denominator", type=int, default=1, metavar="D")

    p = sub.add_parser("skeleton",
                       help="cover check, skeleton charts, and strata")
    skeleton_io(p)
    p.add_argument("--validate-samples", action="store_true",
                   help="sample each face twice and demand equal initial forms")
    common(p)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("adapt", help="restrict a skeleton to a union of faces")
    skeleton_io(p)
    p.add_argument("--pieces", required=True, metavar="FILE",
                   help="JSON array of polyhedra")
    common(p)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("morphism",
                       help="skeleton morphism induced by a refinement")
    p.add_argument("--embedding", required=True, metavar="FILE")
    p.add_argument("--fine", required=True, metavar="FILE",
                   help="refining complex JSON")
    p.add_argument("--coarse", required=True, metavar="FILE",
                   help="refined complex JSON")
    p.add_argument("--denominator", type=int, default=1, metavar="D")
    common(p)
    p.set_defaults(func=_cmd_morphism)
    return parser


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = _parser().parse_args(argv)
            payload, error = args.func(args)
        if payload is not None:
            notes = sorted({str(w.message) for w in caught})
            if notes:
                payload["warnings"] = notes
            sys.stdout.write(jio.canonical_json(payload))
    except MalformedInput as exc:
        sys.stderr.write(jio.canonical_json({"error": exc.payload()}))
        return 1
    except AdictropError as exc:
        sys.stderr.write(jio.canonical_json({"error": exc.payload()}))
        return 2
    if error is not None:
        sys.stderr.write(jio.canonical_json({"error": error.payload()}))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
