from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from adictrop import linalg as la


def test_primitive_scales_and_reduces():
    assert la.primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert la.primitive((4, 6)) == (2, 3)
    assert la.primitive((0, -2, 4)) == (0, -1, 2)
    with pytest.raises(ValueError):
        la.primitive((0, 0))


def test_sign_normalized_flips_on_first_nonzero():
    assert la.sign_normalized((0, -2, 1)) == (0, 2, -1)
    assert la.sign_normalized((3, -1)) == (3, -1)


def test_rref_is_canonical():
    rows = [la.vec([2, 4, 2]), la.vec([1, 2, 3])]
    reduced, pivots = la.rref(rows)
    assert pivots == (0, 2)
    assert reduced == ((Fraction(1), Fraction(2), Fraction(0)),
                       (Fraction(0), Fraction(0), Fraction(1)))
    # row order of the input must not matter
    again, _ = la.rref(rows[::-1])
    assert again == reduced


@st.composite
def integer_matrices(draw):
    """0-7 rows of width 1-6, half of them integer combinations of up to 3
    base rows (so the rank often drops), with entries up to 10^4 apart."""
    width = draw(st.integers(1, 6))
    entry = st.integers(-3, 3) | st.integers(-10**4, 10**4)
    base = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
            rows.append(tuple(sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(width)))
        else:
            rows.append(draw(st.tuples(*[st.sampled_from([0, 0, 1, -2]) | entry] * width)))
    return rows


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
def test_integer_rank_matches_rref(rows):
    assert la.rank(rows) == len(la.rref(rows)[0])


def test_kernel_basis():
    rows = [la.vec([1, 1, 0])]
    basis = oracles.kernel_basis(rows, 3)
    assert basis == ((-1, 1, 0), (0, 0, 1))
    for b in basis:
        assert la.dot(rows[0], b) == 0


def test_solve_exact():
    rows = [la.vec([1, 1]), la.vec([1, -1])]
    sol = la.solve_exact(rows, la.vec([3, 1]))
    assert sol == (Fraction(2), Fraction(1))
    assert la.solve_exact([la.vec([1, 1]), la.vec([2, 2])], la.vec([1, 3])) is None


def test_invert_unimodular():
    m = ((1, 2), (0, 1))
    inv = la.invert_unimodular(m)
    assert la.mat_mul_int(m, inv) == la.identity_int(2)
    with pytest.raises(ValueError):
        la.invert_unimodular(((2, 0), (0, 1)))


def _check_snf(a):
    s, d, t = la.smith_normal_form(a)
    assert la.mat_mul_int(la.mat_mul_int(s, a), t) == d
    # unimodularity
    la.invert_unimodular(s)
    la.invert_unimodular(t)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    return diag


def test_snf_examples():
    assert _check_snf(((2, 4), (6, 8)))[:2] == [2, 4]
    assert _check_snf(((1, 0), (0, 1)))[:2] == [1, 1]
    assert _check_snf(((0, 0), (0, 0)))[:2] == [0, 0]
    _check_snf(((2, 3, 5), (7, 11, 13)))
    _check_snf(((0, 1),))


def test_snf_randomized_consistency():
    import random

    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        a = tuple(tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(m))
        _check_snf(a)
