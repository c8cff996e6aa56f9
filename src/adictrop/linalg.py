"""Exact linear algebra over Q and Z on plain tuples.

Vectors are tuples of `fractions.Fraction` (or ints where a lattice is
meant); matrices are tuples of row tuples.  Everything is deterministic:
no randomized pivoting, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
Matrix = tuple[Vector, ...]
IntMatrix = tuple[IntVector, ...]


def frac(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def vec(values: Iterable) -> Vector:
    return tuple(frac(v) for v in values)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Sequence[Fraction]) -> Vector:
    c = frac(c)
    return tuple(c * x for x in a)


def dot(a: Sequence, b: Sequence) -> Fraction:
    total = Fraction(0)
    for x, y in zip(a, b, strict=True):
        total += x * y
    return total


def is_zero_vector(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def primitive(a: Sequence) -> IntVector:
    """Scale a rational vector to a primitive integer vector, keeping direction.

    Raises on the zero vector.
    """
    fracs = [Fraction(x) for x in a]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def sign_normalized(a: IntVector) -> IntVector:
    """Flip sign so the first nonzero entry is positive (line canonicalization)."""
    for x in a:
        if x != 0:
            return a if x > 0 else tuple(-y for y in a)
    raise ValueError("zero vector")


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over Q.  Returns (nonzero rows, pivot columns).

    The RREF is unique, which makes it the canonical form for affine hulls
    and lineality spaces.
    """
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = tuple(tuple(row) for row in mat[:r])
    return out, tuple(pivots)


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination.

    Each entry stays a minor of the input, so every division is exact.
    """
    mat = [list(row) for row in rows if any(row)]
    r, prev = 0, 1
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p, top = mat[r][c], mat[r]
        for i in range(r + 1, len(mat)):
            q = mat[i][c]
            mat[i] = [(p * x - q * y) // prev for x, y in zip(mat[i], top)]
        prev, r = p, r + 1
    return r


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of rows . x = rhs, or None if inconsistent.

    Free coordinates are set to zero, which makes the answer deterministic.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(rows, rhs, strict=True)]
    reduced, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:
            return None  # pivot in the rhs column: inconsistent
        x[p] = reduced[i][ncols]
    return tuple(x)


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def identity_int(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def invert_unimodular(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    inv = []
    for i in range(n):
        row = reduced[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        inv.append(tuple(int(x) for x in row))
    return tuple(inv)


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (s, d, t) with s*a*t = d.

    d is diagonal with d_1 | d_2 | ... >= 0; s and t are unimodular.  The
    pivot choice (minimal absolute value, then lowest row/column index) is
    deterministic, so quotient-lattice coordinates derived from t are too.
    """
    m = len(a)
    k = len(a[0]) if m else 0
    d = [list(row) for row in a]
    s = [list(row) for row in identity_int(m)]
    t = [list(row) for row in identity_int(k)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in t:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        s[i] = [-x for x in s[i]]

    r = 0
    while True:
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(r, m):
            for j in range(r, k):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(r, best[0])
        swap_cols(r, best[1])
        # clear row and column r by division; restart if a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(r + 1, m):
                if d[i][r] != 0:
                    q = d[i][r] // d[r][r]
                    add_row(i, r, -q)
                    if d[i][r] != 0:
                        swap_rows(r, i)
                        dirty = True
            for j in range(r + 1, k):
                if d[r][j] != 0:
                    q = d[r][j] // d[r][r]
                    add_col(j, r, -q)
                    if d[r][j] != 0:
                        swap_cols(r, j)
                        dirty = True
        if d[r][r] < 0:
            negate_row(r)
        r += 1
        if r == m or r == k:
            break

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if d[i][i] != 0 and d[i + 1][i + 1] % d[i][i] != 0:
                add_col(i, i + 1, 1)
                # re-clear the 2x2 block deterministically
                while d[i + 1][i] != 0:
                    if d[i][i] != 0 and abs(d[i + 1][i]) >= abs(d[i][i]):
                        q = d[i + 1][i] // d[i][i]
                        add_row(i + 1, i, -q)
                    else:
                        swap_rows(i, i + 1)
                while d[i][i + 1] != 0:
                    if d[i][i] != 0 and abs(d[i][i + 1]) >= abs(d[i][i]):
                        q = d[i][i + 1] // d[i][i]
                        add_col(i + 1, i, -q)
                    else:
                        swap_cols(i, i + 1)
                if d[i][i] < 0:
                    negate_row(i)
                if d[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return (tuple(tuple(row) for row in s),
            tuple(tuple(row) for row in d),
            tuple(tuple(row) for row in t))
