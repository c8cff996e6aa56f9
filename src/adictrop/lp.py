"""Exact rational linear programming.

A small two-phase primal simplex.  Free variables are split into positive
and negative parts; pivoting follows Bland's rule (lowest eligible index),
which is deterministic and cycle-free.  Each tableau row, the cost row
included, is a list of ints over one positive denominator, reduced by the
gcd after each pivot, and ratios are compared by cross-multiplying: the
tableau holds the same rationals, step for step, as a `Fraction` tableau
would, at a tenth of the cost, so every result (points included) is the same.

Constraints are given as pairs (coeffs, rhs):

- ge:     coeffs . x >= rhs
- eq:     coeffs . x == rhs
- strict: coeffs . x >  rhs   (feasibility only, via an epsilon variable)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from ._record import record

Constraint = tuple[Sequence[Fraction], Fraction]
Row = tuple[list[int], int]  # the rationals ints[j] / den, den > 0

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@record
class LPResult:
    status: str
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def _reduced(ints: list[int], den: int) -> Row:
    g = gcd(den, *ints)
    return ([x // g for x in ints], den // g) if g > 1 else (ints, den)


def _integer_row(values: Sequence[Fraction]) -> Row:
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _eliminate(row: Row, pivot: Row, c: int) -> Row:
    """row - row[c] * pivot, where pivot[c] is 1."""
    (a, e), (p, d) = row, pivot
    f = a[c]
    return _reduced([x * d - f * y for x, y in zip(a, p)], e * d)


def _pivot(rows: list[Row], cost: Row, basis: list[int], r: int, c: int) -> Row:
    """Pivot on (r, c) in place; returns the new cost row."""
    a = rows[r][0]
    if a[c] < 0:
        a = [-x for x in a]
    rows[r] = pivot = _reduced(a, a[c])
    for i, row in enumerate(rows):
        if i != r and row[0][c]:
            rows[i] = _eliminate(row, pivot, c)
    basis[r] = c
    return _eliminate(cost, pivot, c) if cost[0][c] else cost


def _iterate(rows: list[Row], cost: Row, basis: list[int]) -> tuple[str, Row]:
    ncols = len(cost[0]) - 1
    while True:
        enter = next((j for j in range(ncols) if cost[0][j] < 0), -1)
        if enter < 0:
            return OPTIMAL, cost
        # leaving row: least rhs / row[enter] over row[enter] > 0 (the
        # denominators cancel), ties to the lowest basic index
        leave = -1
        for i, (row, _) in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            if leave >= 0:
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_b, best_a = i, row[-1], a
        if leave < 0:
            return UNBOUNDED, cost
        cost = _pivot(rows, cost, basis, leave, enter)


def minimize(objective: Sequence[Fraction],
             ge: Sequence[Constraint] = (),
             eq: Sequence[Constraint] = ()) -> LPResult:
    """Minimize objective . x over {x free : ge and eq constraints}."""
    n = len(objective)
    # constraints with no variables degenerate to sign checks on the rhs
    if n == 0:
        ok = all(Fraction(b) <= 0 for _, b in ge) and all(Fraction(b) == 0 for _, b in eq)
        return LPResult(OPTIMAL, Fraction(0), ()) if ok else LPResult(INFEASIBLE, None, None)

    # columns: x+ (n), x- (n), slacks (len(ge)), artificials (m); rows: ge then eq
    nslack = len(ge)
    ncols = 2 * n + nslack
    m = nslack + len(eq)
    rows: list[Row] = []
    for idx, (coeffs, rhs) in enumerate(list(ge) + list(eq)):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        a, den = _integer_row(coeffs + [Fraction(rhs)])
        b = a.pop()
        # a.x - s = b with s >= 0 for a ge row; the artificial starts basic
        row = a + [-x for x in a] + [-den if k == idx else 0 for k in range(nslack)]
        if b < 0:
            row, b = [-x for x in row], -b
        rows.append(_reduced(row + [den if k == idx else 0 for k in range(m)] + [b], den))
    basis = list(range(ncols, ncols + m))  # artificials
    total_cols = ncols + m

    # phase 1: minimize the sum of artificials
    common = lcm(*(d for _, d in rows))
    sums = [-sum(a[j] * (common // d) for a, d in rows) for j in range(total_cols + 1)]
    sums[ncols:total_cols] = [0] * m
    _, cost = _iterate(rows, _reduced(sums, common), basis)
    if cost[0][-1] != 0:
        return LPResult(INFEASIBLE, None, None)

    # drive artificials out of the basis; a row where none can leave is redundant
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((j for j in range(ncols) if rows[i][0][j] != 0), -1)
            if piv >= 0:
                cost = _pivot(rows, cost, basis, i, piv)
    keep = [i for i in range(m) if basis[i] < ncols]
    rows = [_reduced(rows[i][0][:ncols] + [rows[i][0][-1]], rows[i][1]) for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: the real objective
    obj, den = _integer_row([Fraction(c) for c in objective])
    cost = (obj + [-c for c in obj] + [0] * (nslack + 1), den)
    for i, b in enumerate(basis):
        if cost[0][b] != 0:
            cost = _eliminate(cost, rows[i], b)
    status, cost = _iterate(rows, cost, basis)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    values = [Fraction(0)] * ncols
    for (a, d), b in zip(rows, basis):
        values[b] = Fraction(a[-1], d)
    point = tuple(values[i] - values[n + i] for i in range(n))
    return LPResult(OPTIMAL, Fraction(-cost[0][-1], cost[1]), point)


def maximize(objective: Sequence[Fraction],
             ge: Sequence[Constraint] = (),
             eq: Sequence[Constraint] = ()) -> LPResult:
    res = minimize([-Fraction(c) for c in objective], ge, eq)
    if res.status != OPTIMAL:
        return res
    return LPResult(OPTIMAL, -res.value, res.point)


def feasible_point(ge: Sequence[Constraint] = (),
                   eq: Sequence[Constraint] = (),
                   strict: Sequence[Constraint] = ()) -> tuple[Fraction, ...] | None:
    """A rational point satisfying all constraints, or None.

    Strict constraints are handled exactly: maximize epsilon subject to
    coeffs . x - epsilon >= rhs and epsilon <= 1; the system is strictly
    feasible iff the optimum is positive.
    """
    strict = list(strict)
    if not strict:
        n = len(ge[0][0]) if ge else (len(eq[0][0]) if eq else 0)
        res = minimize([Fraction(0)] * n, ge, eq)
        return res.point if res.status == OPTIMAL else None
    n = len(strict[0][0])
    ge_aug = [(list(coeffs) + [Fraction(0)], Fraction(rhs)) for coeffs, rhs in ge]
    ge_aug += [(list(coeffs) + [Fraction(-1)], Fraction(rhs)) for coeffs, rhs in strict]
    ge_aug.append(([Fraction(0)] * n + [Fraction(-1)], Fraction(-1)))  # eps <= 1
    eq_aug = [(list(coeffs) + [Fraction(0)], Fraction(rhs)) for coeffs, rhs in eq]
    objective = [Fraction(0)] * n + [Fraction(1)]
    res = maximize(objective, ge_aug, eq_aug)
    if res.status != OPTIMAL or res.value <= 0:
        return None
    return res.point[:n]
