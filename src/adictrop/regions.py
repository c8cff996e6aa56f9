"""Exact set operations on finite unions of polyhedra.

Coverage and complement questions ("is the union of these faces all of
Q^n?", "does this face lie inside that union?") are decided by recursive
complement computation over cells with mixed strict/non-strict
constraints, never by sampling.  Emptiness of a cell is read off one
double-description pass over its rows, strict rows taken as closed: the
cell is empty iff that closure is, or a strict row vanishes on all of it
(Fukuda and Prodon, "Double description method revisited", 1996).  An LP
runs only to produce the witness point of an uncovered cell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import linalg as la
from ._record import record
from .polyhedra import HalfSpacePair, Polyhedron, _homogenized_dd

Vector = tuple[Fraction, ...]


@record
class Cell:
    """Intersection of closed halfspaces and open halfspaces."""

    ambient: int
    closed: tuple[HalfSpacePair, ...]
    strict: tuple[HalfSpacePair, ...]

    @property
    def is_empty(self) -> bool:
        """Exact emptiness, by one DD pass and no LP.

        The closure K (strict rows taken as closed) is empty iff no extreme
        ray of its homogenization has lam > 0.  Otherwise the cell is empty
        iff some strict row is an implicit equality of K, that is, vanishes
        on every ray and every lineality vector: a relative-interior point of
        K satisfies every other row strictly.
        """
        if self.ambient == 0:
            return not (all(0 >= b for _, b in self.closed)
                        and all(0 > b for _, b in self.strict))
        if not self.closed and not self.strict:
            return False
        lin, rays = _homogenized_dd(self.closed + self.strict, self.ambient)
        if all(r[self.ambient] == 0 for r in rays):
            return True
        gens = lin + rays
        return any(all(la.dot(n + (-b,), g) == 0 for g in gens) for n, b in self.strict)

    def feasible_point(self) -> Vector | None:
        from . import lp
        if self.ambient == 0:
            return None if self.is_empty else ()
        ge = [([Fraction(v) for v in n], b) for n, b in self.closed]
        st = [([Fraction(v) for v in n], b) for n, b in self.strict]
        if not ge and not st:
            return tuple(Fraction(0) for _ in range(self.ambient))
        return lp.feasible_point(ge=ge, strict=st)


def subtract_polyhedron(cells: Iterable[Cell], poly: Polyhedron) -> list[Cell]:
    """Cells covering (union of cells) minus poly, empty pieces pruned.

    cell \\ {all u.x >= b} splits along the first violated inequality:
    the j-th piece keeps inequalities before j and opens the j-th.
    """
    out: list[Cell] = []
    if poly.is_empty:
        return [c for c in cells if not c.is_empty]
    pairs = poly.halfspace_pairs
    for cell in cells:
        for j, (n, b) in enumerate(pairs):
            piece = Cell(cell.ambient,
                         cell.closed + pairs[:j],
                         cell.strict + ((tuple(-v for v in n), -b),))
            if not piece.is_empty:
                out.append(piece)
    return out


def _uncovered_cells(base: Polyhedron | Sequence[Polyhedron],
                     cover: Sequence[Polyhedron]) -> Iterator[Cell]:
    """Nonempty cells of base minus the cover, base by base, in order.

    A base that one cover member contains leaves no cell, so it is skipped
    before any subtraction.
    """
    if isinstance(base, Polyhedron):
        base = [base]
    for b in base:
        if b.is_empty or any(p.contains_polyhedron(b) for p in cover):
            continue
        cells = [Cell(b.ambient, b.halfspace_pairs, ())]
        for p in cover:
            cells = subtract_polyhedron(cells, p)
            if not cells:
                break
        yield from cells


def uncovered_witness(base: Polyhedron | Sequence[Polyhedron],
                      cover: Sequence[Polyhedron]) -> Vector | None:
    """A rational point of `base` outside every member of `cover`, or None.

    `base` may be a polyhedron (e.g. the whole space) or a finite union.
    The point is the LP point of the first uncovered cell.
    """
    cell = next(_uncovered_cells(base, cover), None)
    return None if cell is None else cell.feasible_point()


def is_covered(base: Polyhedron | Sequence[Polyhedron], cover: Sequence[Polyhedron]) -> bool:
    return next(_uncovered_cells(base, cover), None) is None


def same_support(a: Sequence[Polyhedron], b: Sequence[Polyhedron]) -> bool:
    """Do two finite unions of polyhedra coincide as sets?"""
    return is_covered(a, list(b)) and is_covered(b, list(a))
