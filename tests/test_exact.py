"""Rational parsing and formatting, and the exact symmetric inverse and
Sylvester oracles that the tests check intersection matrices with."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germval.exact import format_rational, parse_rational

from conftest import invert_symmetric, is_negative_definite, leading_principal_minors


def det_cofactor(m):
    """Independent determinant for the minor oracle."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(sub)
    return total


def test_negative_definite_examples():
    assert is_negative_definite(((-1,),))
    assert is_negative_definite(((-2, 1), (1, -2)))
    assert not is_negative_definite(((0,),))
    assert not is_negative_definite(((2,),))
    assert not is_negative_definite(((-2, 3), (3, -2)))


def test_leading_minors_match_cofactor_oracle():
    m = ((-3, 0, 1), (0, -2, 1), (1, 1, -1))
    minors = leading_principal_minors(m)
    assert minors == tuple(
        det_cofactor([list(row[: k + 1]) for row in m[: k + 1]]) for k in range(3)
    )


small_ints = st.integers(min_value=-5, max_value=5)


@st.composite
def symmetric_matrix(draw, nmax=5):
    n = draw(st.integers(min_value=1, max_value=nmax))
    a = [[draw(small_ints) for _ in range(n)] for _ in range(n)]
    return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]


@st.composite
def negative_definite_matrix(draw, nmax=5):
    n = draw(st.integers(min_value=1, max_value=nmax))
    a = [[draw(small_ints) for _ in range(n)] for _ in range(n)]
    return [
        [-(sum(a[i][l] * a[j][l] for l in range(n)) + (3 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]


@given(symmetric_matrix())
def test_negative_definite_matches_sign_oracle(m):
    minors = [det_cofactor([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]
    expected = all(mi * (-1) ** (k + 1) > 0 for k, mi in enumerate(minors))
    assert is_negative_definite(m) == expected


@given(negative_definite_matrix())
def test_inverse_times_matrix_is_identity(m):
    n = len(m)
    inv = invert_symmetric(m)
    prod = [
        [sum(m[i][l] * inv[l][j] for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_inverse_needs_row_swap():
    assert invert_symmetric(((0, 1), (1, 0))) == (
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    )


def test_inverse_satellite_matrix_column():
    # the last column, normalized at its diagonal entry, is the
    # multiplicity vector (1/3, 1/2, 1) of the satellite chain r=3
    inv = invert_symmetric(((-3, 0, 1), (0, -2, 1), (1, 1, -1)))
    assert [row[2] for row in inv] == [Fraction(-2), Fraction(-3), Fraction(-6)]


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        invert_symmetric(((1, 1), (1, 1)))


def test_inverse_non_square_raises():
    with pytest.raises(ValueError, match="not square"):
        invert_symmetric(((1, 0),))


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 2.0, True])
def test_inverse_rejects_non_int_entries(entry):
    with pytest.raises(ValueError):
        invert_symmetric(((entry, 1), (1, -2)))


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=24))
def test_rational_string_round_trip(p, q):
    f = Fraction(p, q)
    assert parse_rational(format_rational(f)) == f


def test_format_rational():
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(-5, 6)) == "-5/6"
    assert format_rational(3) == "3"


def test_parse_rational_rejects_garbage():
    for text in ("2/0", "x", "1e10000000", "\uff13", "1_000", "1.25", "1/-2", "/2", "2/", ""):
        with pytest.raises(ValueError):
            parse_rational(text)
    assert parse_rational(" -3/6 ") == Fraction(-1, 2) and parse_rational("+4") == 4
