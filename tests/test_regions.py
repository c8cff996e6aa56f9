from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adictrop import lp
from adictrop.complexes import ExtendedComplex, common_refinement
from adictrop.polyhedra import Cone, Fan, Polyhedron
from adictrop.regions import Cell, is_covered, same_support, subtract_polyhedron, uncovered_witness

import oracles

F = Fraction


def box(lo, hi, ambient=None):
    lo = list(lo)
    hi = list(hi)
    n = len(lo) if ambient is None else ambient
    hs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        ne = tuple(-v for v in e)
        hs.append((e, Fraction(lo[i])))
        hs.append((ne, Fraction(-hi[i])))
    return Polyhedron.from_halfspaces(hs, n)


def halfplane(n, b, ambient=2):
    return Polyhedron.from_halfspaces([(n, Fraction(b))], ambient)


def test_square_covered_by_diagonal_halves():
    base = box([0, 0], [1, 1])
    lower = Polyhedron.from_halfspaces(
        [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((1, -1), 0)], 2)
    upper = Polyhedron.from_halfspaces(
        [((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, 1), 0)], 2)
    assert is_covered(base, [lower, upper])


def test_missing_piece_yields_witness():
    base = box([0, 0], [1, 1])
    left = box([0, 0], [Fraction(1, 3), 1])
    right = box([Fraction(2, 3), 0], [1, 1])
    w = uncovered_witness(base, [left, right])
    assert w is not None
    assert base.contains(w)
    assert not left.contains(w) and not right.contains(w)


def test_interval_subtraction_leaves_open_gaps():
    base = box([0], [3])
    middle = box([1], [2])
    cells = subtract_polyhedron([Cell(1, base.halfspace_pairs, ())], middle)
    points = [c.feasible_point() for c in cells]
    assert all(p is not None for p in points)
    # every remaining point avoids the removed interval but stays in base
    for p in points:
        assert base.contains(p)
        assert not middle.contains(p)
    # the interval endpoints themselves stay covered by the closed remainder?
    # no: subtraction is strict, so 1 and 2 belong to `middle` only
    assert is_covered(base, [box([0], [1]), middle, box([2], [3])])
    assert not is_covered(base, [box([0], [1]), box([2], [3])])


def test_overlapping_cover_is_fine():
    base = box([0], [3])
    assert is_covered(base, [box([0], [2]), box([1], [3])])


def test_lower_dimensional_base():
    seg = Polyhedron.from_generators([(0, 0), (2, 0)])
    assert is_covered(seg, [Polyhedron.from_generators([(0, 0), (1, 0)]),
                        Polyhedron.from_generators([(1, 0), (2, 0)])])
    w = uncovered_witness(seg, [Polyhedron.from_generators([(0, 0), (1, 0)])])
    assert w is not None and seg.contains(w) and w[0] > 1


def test_whole_plane_needs_unbounded_cover():
    plane = Polyhedron.full_space(2)
    quads = [halfplane((1, 0), 0).intersection(halfplane((0, 1), 0)),
             halfplane((-1, 0), 0).intersection(halfplane((0, 1), 0)),
             halfplane((1, 0), 0).intersection(halfplane((0, -1), 0)),
             halfplane((-1, 0), 0).intersection(halfplane((0, -1), 0))]
    assert is_covered(plane, quads)
    assert not is_covered(plane, quads[:3])


def test_same_support():
    a = [box([0], [1]), box([1], [2])]
    b = [box([0], [2])]
    assert same_support(a, b)
    assert not same_support(a, [box([0], [3])])
    assert same_support([], [Polyhedron.empty(1)])


def test_empty_subtrahend_is_noop():
    base = box([0], [1])
    cells = [Cell(1, base.halfspace_pairs, ())]
    assert len(subtract_polyhedron(cells, Polyhedron.empty(1))) == 1


@st.composite
def cells(draw):
    """Cells with closed and strict rows: often empty, lower-dimensional or not pointed."""
    ambient = draw(st.integers(0, 3))
    normal = st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient).map(tuple)
    if ambient:
        normal = normal.filter(any)
    bound = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2]))
    row = st.tuples(normal, bound)
    closed = draw(st.lists(row, max_size=5))
    strict = draw(st.lists(row, max_size=3))
    if closed and draw(st.booleans()):
        # an equality: the cell is at most a hyperplane section
        n, b = closed[draw(st.integers(0, len(closed) - 1))]
        closed.append((tuple(-v for v in n), -b))
        if draw(st.booleans()):
            strict.append((n, b))  # a strict row along that hyperplane
    return Cell(ambient, tuple(closed), tuple(strict))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cells())
@example(Cell(0, (((), F(0)),), ()))
@example(Cell(0, (), (((), F(0)),)))
@example(Cell(2, (), ()))
@example(Cell(2, (((1, 0), F(0)), ((-1, 0), F(0))), (((0, 1), F(0)),)))  # open half-line
@example(Cell(2, (((1, 0), F(0)), ((-1, 0), F(0))), (((1, 0), F(0)),)))  # strict on its line
@example(Cell(1, (((1,), F(1)),), (((-1,), F(-1)),)))  # x >= 1 and x < 1
def test_dd_emptiness_matches_lp_oracle(cell):
    assert cell.is_empty == oracles.cell_is_empty_lp(cell)


def test_cover_checks_solve_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cover check solved an LP")

    for name in ("minimize", "maximize", "feasible_point"):
        monkeypatch.setattr(lp, name, refuse)
    base = box([0, 0], [1, 1])
    lower = Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((1, -1), 0)], 2)
    upper = Polyhedron.from_halfspaces([((1, 0), 0), ((0, -1), -1), ((-1, 1), 0)], 2)
    assert is_covered(base, [lower, upper])
    plane = Polyhedron.full_space(2)
    quads = [halfplane((sx, 0), 0).intersection(halfplane((0, sy), 0))
             for sx in (1, -1) for sy in (1, -1)]
    assert is_covered(plane, quads)
    assert not is_covered(plane, quads[:3])  # a refusal without its witness
    assert same_support([box([0], [1]), box([1], [2])], [box([0], [2])])
    rows = [box([0, 0], [2, 1]), box([0, 1], [2, 2])]
    cols = [box([0, 0], [1, 2]), box([1, 0], [2, 2])]
    a = ExtendedComplex.from_polyhedra(Fan.trivial(2), rows)
    b = ExtendedComplex.from_polyhedra(Fan.trivial(2), cols)
    assert len(common_refinement(a, b).maximal_face_indices()) == 4
    p2 = Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2),
                         Cone.from_rays([(0, 1), (-1, -1)], 2),
                         Cone.from_rays([(-1, -1), (1, 0)], 2)])
    assert len(p2) == 7
