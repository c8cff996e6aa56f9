from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from adictrop import lp
from adictrop.linalg import dot

F = Fraction


def test_minimize_simple():
    # min x + y s.t. x >= 1, y >= 2
    res = lp.minimize([F(1), F(1)], ge=[(([F(1), F(0)]), F(1)), (([F(0), F(1)]), F(2))])
    assert res.status == lp.OPTIMAL
    assert res.value == 3
    assert res.point == (F(1), F(2))


def test_unbounded():
    res = lp.minimize([F(-1)], ge=[([F(1)], F(0))])
    assert res.status == lp.UNBOUNDED


def test_infeasible():
    res = lp.minimize([F(0)], ge=[([F(1)], F(1)), ([F(-1)], F(0))])
    assert res.status == lp.INFEASIBLE


def test_equality_constraints():
    # max x s.t. x + y = 1, x - y >= -3, -x >= -2
    res = lp.maximize([F(1), F(0)],
                      ge=[([F(1), F(-1)], F(-3)), ([F(-1), F(0)], F(-2))],
                      eq=[([F(1), F(1)], F(1))])
    assert res.status == lp.OPTIMAL
    assert res.value == 2
    assert res.point == (F(2), F(-1))


def test_exact_fractions():
    # min y s.t. 3y >= 1 has the exact optimum 1/3
    res = lp.minimize([F(1)], ge=[([F(3)], F(1))])
    assert res.value == F(1, 3)


def test_degenerate_redundant_rows():
    # duplicated and implied constraints must not break phase 1 cleanup
    res = lp.minimize([F(1), F(1)],
                      ge=[([F(1), F(0)], F(0)), ([F(1), F(0)], F(0))],
                      eq=[([F(1), F(1)], F(2)), ([F(2), F(2)], F(4))])
    assert res.status == lp.OPTIMAL
    assert res.value == 2


def test_zero_variable_problems():
    assert lp.minimize([], ge=[([], F(-1))]).status == lp.OPTIMAL
    assert lp.minimize([], ge=[([], F(1))]).status == lp.INFEASIBLE


def test_feasible_point_strict():
    # open square 0 < x < 1, 0 < y < 1
    pt = lp.feasible_point(strict=[([F(1), F(0)], F(0)), ([F(-1), F(0)], F(-1)),
                                   ([F(0), F(1)], F(0)), ([F(0), F(-1)], F(-1))])
    assert pt is not None
    x, y = pt
    assert 0 < x < 1 and 0 < y < 1


def test_feasible_point_strict_empty():
    # x > 0 and x < 0
    pt = lp.feasible_point(strict=[([F(1)], F(0)), ([F(-1)], F(0))])
    assert pt is None
    # x >= 1 and x < 1: boundary not allowed
    pt = lp.feasible_point(ge=[([F(1)], F(1))], strict=[([F(-1)], F(-1))])
    assert pt is None


def test_feasible_point_mixed():
    pt = lp.feasible_point(ge=[([F(1), F(1)], F(2))],
                           eq=[([F(1), F(-1)], F(0))],
                           strict=[([F(0), F(1)], F(0))])
    assert pt is not None
    x, y = pt
    assert x == y and x + y >= 2 and y > 0


def test_determinism():
    args = dict(ge=[([F(1), F(2)], F(2)), ([F(2), F(1)], F(2))])
    first = lp.minimize([F(1), F(1)], **args)
    for _ in range(3):
        assert lp.minimize([F(1), F(1)], **args) == first


# -- the integer-row simplex against the Fraction simplex and brute force -----

coefficients = st.integers(-3, 3)
rationals = st.builds(F, st.integers(-8, 8), st.integers(1, 3))


@st.composite
def lp_inputs(draw):
    """(objective, ge, eq, strict): random, degenerate, infeasible or equality-only."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.lists(st.one_of(coefficients, rationals), min_size=n, max_size=n),
                    rationals)
    ge = draw(st.lists(row, max_size=6))
    eq = draw(st.lists(row, max_size=2))
    strict = draw(st.lists(row, max_size=3))
    kind = draw(st.sampled_from(["random", "degenerate", "infeasible", "equality-only"]))
    if kind == "degenerate" and ge:
        # rows through one point, each also repeated and scaled
        ge = [(a, F(0)) for a, _ in ge]
        ge += [([2 * c for c in a], b) for a, b in ge]
    elif kind == "infeasible" and ge:
        a, b = ge[0]
        ge.append(([-c for c in a], -b - 1))
    elif kind == "equality-only":
        ge, strict = [], []
        eq = draw(st.lists(row, min_size=1, max_size=3))
    objective = draw(st.lists(rationals, min_size=n, max_size=n))
    return objective, ge, eq, strict


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lp_inputs())
@example(([F(1)], [([F(1)], F(1)), ([F(-1)], F(0))], [], []))  # infeasible
@example(([F(-1), F(0)], [([F(1), F(0)], F(0))], [], [([F(0), F(1)], F(0))]))  # unbounded
@example(([F(1), F(1)], [([F(1), F(0)], F(0)), ([F(1), F(0)], F(0))],
          [([F(1), F(1)], F(2)), ([F(2), F(2)], F(4))], []))  # redundant rows
def test_simplex_matches_fraction_oracle(problem):
    objective, ge, eq, strict = problem
    assert lp.minimize(objective, ge, eq) == oracles.fraction_minimize(objective, ge, eq)
    assert lp.maximize(objective, ge, eq) == oracles.fraction_maximize(objective, ge, eq)
    assert lp.feasible_point(ge, eq, strict) == oracles.fraction_feasible_point(ge, eq, strict)


def _solve(rows):
    """The unique solution of the square system [a | b] by elimination, or None."""
    m = [list(a) + [b] for a, b in rows]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(m[r][n] / m[r][r] for r in range(n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(coefficients, min_size=n, max_size=n),
    st.lists(st.tuples(st.lists(coefficients, min_size=n, max_size=n), rationals), max_size=4),
    st.lists(st.tuples(st.lists(coefficients, min_size=n, max_size=n), rationals), max_size=1))))
def test_minimum_is_the_least_vertex_value(problem):
    """In a box, min c.x is the least value at a vertex found by brute force."""
    objective, ge, eq = problem
    n = len(objective)
    box = [([F(int(i == j)) * s for j in range(n)], F(-3)) for i in range(n) for s in (1, -1)]
    ge = [([F(c) for c in a], F(b)) for a, b in ge] + box
    eq = [([F(c) for c in a], F(b)) for a, b in eq]
    if any(not any(a) and b != 0 for a, b in eq):
        assert lp.minimize(objective, ge, eq).status == lp.INFEASIBLE
        return
    eq = [(a, b) for a, b in eq if any(a)]
    vertices = []
    for tight in combinations(ge, n - len(eq)):
        x = _solve(list(tight) + eq)
        if x is not None and all(dot(a, x) >= b for a, b in ge) \
                and all(dot(a, x) == b for a, b in eq):
            vertices.append(x)
    res = lp.minimize(objective, ge, eq)
    if not vertices:
        assert res.status == lp.INFEASIBLE
        return
    assert res.status == lp.OPTIMAL
    assert res.value == min(dot(objective, x) for x in vertices)
    assert dot(objective, res.point) == res.value
    assert all(dot(a, res.point) >= b for a, b in ge)
