"""Exact set operations on finite unions of polyhedra.

Coverage and complement questions ("is the union of these faces all of
Q^n?", "does this face lie inside that union?") are decided by recursive
complement computation over cells with mixed strict/non-strict
constraints, never by sampling.  Emptiness of a cell is an exact LP
feasibility question.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import lp
from .polyhedra import HalfSpacePair, Polyhedron

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Cell:
    """Intersection of closed halfspaces and open halfspaces."""

    ambient: int
    closed: tuple[HalfSpacePair, ...]
    strict: tuple[HalfSpacePair, ...]

    def feasible_point(self) -> Vector | None:
        if self.ambient == 0:
            ok = (all(0 >= b for _, b in self.closed)
                  and all(0 > b for _, b in self.strict))
            return () if ok else None
        ge = [([Fraction(v) for v in n], b) for n, b in self.closed]
        st = [([Fraction(v) for v in n], b) for n, b in self.strict]
        if not ge and not st:
            return tuple(Fraction(0) for _ in range(self.ambient))
        return lp.feasible_point(ge=ge, strict=st)


def subtract_polyhedron(cells: Iterable[Cell], poly: Polyhedron) -> list[Cell]:
    """Cells covering (union of cells) minus poly, infeasible pieces pruned.

    cell \\ {all u.x >= b} splits along the first violated inequality:
    the j-th piece keeps inequalities before j and opens the j-th.
    """
    out: list[Cell] = []
    if poly.is_empty:
        return [c for c in cells if c.feasible_point() is not None]
    pairs = poly.halfspace_pairs
    for cell in cells:
        for j, (n, b) in enumerate(pairs):
            piece = Cell(cell.ambient,
                         cell.closed + pairs[:j],
                         cell.strict + ((tuple(-v for v in n), -b),))
            if piece.feasible_point() is not None:
                out.append(piece)
    return out


def uncovered_witness(base: Polyhedron | Sequence[Polyhedron],
                      cover: Sequence[Polyhedron]) -> Vector | None:
    """A rational point of `base` outside every member of `cover`, or None.

    `base` may be a polyhedron (e.g. the whole space) or a finite union.
    """
    if isinstance(base, Polyhedron):
        base = [base]
    for b in base:
        if b.is_empty:
            continue
        cells = [Cell(b.ambient, b.halfspace_pairs, ())]
        for p in cover:
            cells = subtract_polyhedron(cells, p)
            if not cells:
                break
        for cell in cells:
            pt = cell.feasible_point()
            if pt is not None:
                return pt
    return None


def is_covered(base: Polyhedron | Sequence[Polyhedron], cover: Sequence[Polyhedron]) -> bool:
    return uncovered_witness(base, cover) is None


def same_support(a: Sequence[Polyhedron], b: Sequence[Polyhedron]) -> bool:
    """Do two finite unions of polyhedra coincide as sets?"""
    return is_covered(a, list(b)) and is_covered(b, list(a))
