"""The certificate path against its Fraction-per-step oracles: evaluate,
normal_form and the parser give what the old whole-Polynomial code gives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmethod import (
    Ordering,
    ParseError,
    Polynomial,
    format_polynomial,
    groebner,
    normal_form,
    parse_polynomial,
)

from oracles import fraction_evaluate, naive_normal_form
from test_ideals import _data_ideals

GRLEX = Ordering.GRLEX_LEFT
GREVLEX = Ordering.GREVLEX

integers = st.integers(-30, 30)
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def polys(num_vars, coeffs, max_degree=4, max_terms=6):
    exps = st.lists(
        st.integers(0, max_degree), min_size=num_vars, max_size=num_vars
    ).map(tuple)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda t: Polynomial(t, num_vars)
    )


def points(num_vars, coords):
    return st.lists(coords, min_size=num_vars, max_size=num_vars).map(tuple)


# -- evaluate ----------------------------------------------------------------


@pytest.mark.parametrize("coeffs", [integers, rationals], ids=["int", "rational"])
@pytest.mark.parametrize("coords", [integers, rationals], ids=["int", "rational"])
@given(data=st.data())
def test_evaluate_matches_fraction_oracle(coeffs, coords, data):
    n = data.draw(st.integers(1, 4))
    f = data.draw(polys(n, coeffs))
    p = data.draw(points(n, coords))
    value = f.evaluate(p)
    assert isinstance(value, Fraction)
    assert value == fraction_evaluate(f, p)


def test_evaluate_zero_polynomial_and_negative_coordinates():
    assert Polynomial.zero(3).evaluate((-4, 0, Fraction(-1, 3))) == 0
    f = parse_polynomial("1/2*x0^3*x1 - 2/3*x1^2 + 5", 2)
    for p in [(-3, -7), (Fraction(-5, 2), 4), (0, Fraction(-1, 9))]:
        assert f.evaluate(p) == fraction_evaluate(f, p)


def test_evaluate_keeps_integer_points_in_int():
    # a huge power of a huge integer coordinate comes out exact
    f = parse_polynomial("3*x0^40*x1 - 7*x1^41", 2)
    x = 10**12 + 39
    assert f.evaluate((x, x)) == 3 * x**41 - 7 * x**41


# -- normal_form ---------------------------------------------------------------

DATA_BASES = {
    (name, ordering): groebner(ideal, ordering)
    for ordering in (GRLEX, GREVLEX)
    for name, ideal in _data_ideals()
}


@pytest.mark.parametrize(
    "key", sorted(DATA_BASES, key=str), ids=lambda k: f"{k[0]}-{k[1].value}"
)
@settings(max_examples=25)
@given(data=st.data())
def test_normal_form_matches_naive_division(key, data):
    gb = DATA_BASES[key]
    f = data.draw(polys(gb.num_vars, rationals, max_degree=3, max_terms=5))
    assert normal_form(f, gb) == naive_normal_form(f, gb)


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
def test_normal_form_of_ideal_members_is_zero(ordering):
    for name, ideal in _data_ideals():
        gb = groebner(ideal, ordering)
        for g in ideal.generators:
            member = g * parse_polynomial("x0 - 3/2", ideal.num_vars)
            assert normal_form(member, gb).is_zero(), name


# -- parser --------------------------------------------------------------------


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
@given(f=polys(3, rationals))
def test_format_parse_round_trip_rational(ordering, f):
    assert parse_polynomial(format_polynomial(f, ordering), 3) == f


X = [Polynomial.variable(i, 3) for i in range(3)]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(x0 + 2*x1)^3 - x2", (X[0] + 2 * X[1]) ** 3 - X[2]),
        ("-(x0 - x1)^2*x2 + 1/2", -((X[0] - X[1]) ** 2) * X[2] + Fraction(1, 2)),
        ("(2/3*x0^2*x1)^4", (Fraction(2, 3) * X[0] ** 2 * X[1]) ** 4),
        ("(x0 - x0)^0 + (x1 - x1)^3", Polynomial.constant(1, 3)),
        ("((x0 + 1)^2 - (x0^2 + 1))^2", 4 * X[0] ** 2),
        ("x0^0 * 5 - -x1^2", 5 + X[1] ** 2),
        ("(x0 + x1 + x2)^5 - (x0 + x1 + x2)^5", Polynomial.zero(3)),
        ("0^0 + 0^3", Polynomial.constant(1, 3)),
    ],
)
def test_parse_powers_and_parentheses(text, expected):
    assert parse_polynomial(text, 3) == expected
    assert parse_polynomial(format_polynomial(expected), 3) == expected


# (message, line, column) of each error, as the grammar has always reported it
PARSE_ERRORS = [
    ("", "empty polynomial", 1, 1),
    ("   # only a comment", "empty polynomial", 1, 1),
    ("x0 + @", "unexpected token '@'", 1, 6),
    ("x0^-1", "negative exponent", 1, 4),
    ("x5 + 1", "unknown variable 'x5' (have x0..x2)", 1, 1),
    ("2 x0", "unexpected token 'x0'", 1, 3),
    ("x0 +", "unexpected end of input", 1, 5),
    ("(x0 + 1", "expected ')'", 1, 8),
    ("x0 + 1)", "unexpected token ')'", 1, 7),
    ("x0^x1", "expected a nonnegative integer exponent", 1, 4),
    ("1/0*x0", "zero denominator", 1, 4),
    ("x0\n+ (x1\n* )", "unexpected token ')'", 3, 3),
    ("x0 + x1\n\n  - 3/0", "zero denominator", 3, 6),
    ("x0^2^", "unexpected token '^'", 1, 5),
    ("-", "unexpected end of input", 1, 2),
    ("--x0 ^ ", "expected a nonnegative integer exponent", 1, 7),
    ("x0 + x1 # ok\n x2 )", "unexpected token 'x2'", 2, 2),
    ("x0 ^ 2.5", "unexpected token '.'", 1, 7),
    ("(x0 + 2*x1)^3 - x9", "unknown variable 'x9' (have x0..x2)", 1, 17),
]


@pytest.mark.parametrize("text,message,line,column", PARSE_ERRORS)
def test_parse_errors_keep_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, 3)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
