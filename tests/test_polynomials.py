"""poly-core: orderings, arithmetic, calculus, parser round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmethod import (
    Ordering,
    ParseError,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from oracles import oracle_dehomogenize

GRLEX = Ordering.GRLEX_LEFT
GREVLEX = Ordering.GREVLEX

exponents = st.lists(st.integers(0, 6), min_size=3, max_size=3).map(tuple)
coeffs = st.fractions(
    st.integers(-20, 20).map(Fraction), st.integers(1, 9)
)


def polys(num_vars=3, max_terms=5):
    exps = st.lists(st.integers(0, 4), min_size=num_vars, max_size=num_vars).map(
        tuple
    )
    return st.dictionaries(
        exps, st.integers(-9, 9).filter(lambda c: c != 0), max_size=max_terms
    ).map(lambda t: Polynomial(t, num_vars))


# -- orderings ---------------------------------------------------------------
# monomials compare as their Ordering.key values do


def test_compare_degree_dominates():
    assert GRLEX.key((1, 0)) < GRLEX.key((0, 2))


def test_compare_leftmost_positive_is_smaller():
    # at equal degree, positive leftmost entry of a - b means a < b
    assert GRLEX.key((2, 0, 1)) < GRLEX.key((1, 1, 1))


def test_compare_reflexive():
    assert GRLEX.key((3, 1)) == GRLEX.key((3, 1))


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
class TestOrderingAxioms:
    @given(a=exponents)
    def test_zero_minimal(self, ordering, a):
        assert ordering.key((0, 0, 0)) <= ordering.key(a)

    @given(a=exponents, b=exponents, c=exponents)
    def test_translation_invariant(self, ordering, a, b, c):
        shifted_a = tuple(x + y for x, y in zip(a, c))
        shifted_b = tuple(x + y for x, y in zip(b, c))
        assert (ordering.key(a) < ordering.key(b)) == (
            ordering.key(shifted_a) < ordering.key(shifted_b)
        )

    @given(a=exponents, b=exponents)
    def test_degree_compatible(self, ordering, a, b):
        if ordering.key(a) <= ordering.key(b):
            assert sum(a) <= sum(b)

    @given(a=exponents, b=exponents)
    def test_total(self, ordering, a, b):
        ka, kb = ordering.key(a), ordering.key(b)
        assert (ka == kb) == (a == b)
        assert [ka < kb, a == b, kb < ka].count(True) == 1


# -- leading monomials -----------------------------------------------------


def test_lm_equal_degree():
    f = parse_polynomial("x0^2 + x0*x1", 2)
    # x0 carries less weight than x1 under the left-graded convention
    assert f.leading_monomial(GRLEX) == (1, 1)


def test_lm_degree_dominates():
    f = parse_polynomial("3*x1 + 5", 2)
    assert f.leading_monomial(GRLEX) == (0, 1)


def test_lm_conic():
    f = parse_polynomial("x0*x2 - x1^2", 3)
    # leftmost entry of (1,0,1)-(0,2,0) is positive, so x0*x2 < x1^2
    assert f.leading_monomial(GRLEX) == (0, 2, 0)


def test_lm_zero_rejected():
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading_monomial(GRLEX)


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
@given(f=polys(), g=polys())
def test_lm_multiplicative(ordering, f, g):
    if f.is_zero() or g.is_zero():
        return
    lm = (f * g).leading_monomial(ordering)
    expected = tuple(
        a + b
        for a, b in zip(f.leading_monomial(ordering), g.leading_monomial(ordering))
    )
    assert lm == expected


# -- evaluate / derivative -------------------------------------------------


def test_evaluate_basic():
    f = parse_polynomial("x0^2 + x1", 2)
    assert f.evaluate((2, 3)) == 7


def test_evaluate_at_zero_gives_constant():
    f = parse_polynomial("x0^2 + 3*x1 + 5", 2)
    assert f.evaluate((0, 0)) == 5


def test_evaluate_conic_point():
    f = parse_polynomial("x0*x2 - x1^2", 3)
    assert f.evaluate((4, 2, 1)) == 0


@given(f=polys(), g=polys(), p=st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_evaluate_ring_homomorphism(f, g, p):
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)


def test_derivative_power():
    f = parse_polynomial("x0^3", 1)
    assert f.partial_derivative((2,)) == parse_polynomial("6*x0", 1)


def test_derivative_identity():
    f = parse_polynomial("x0*x1^2 - 3*x0", 2)
    assert f.partial_derivative((0, 0)) == f


def test_derivative_mixed():
    f = parse_polynomial("x0*x1^2", 2)
    assert f.partial_derivative((1, 1)) == parse_polynomial("2*x1", 2)


@given(
    f=polys(),
    a=st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple),
    b=st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple),
)
def test_derivative_composes(f, a, b):
    ab = tuple(x + y for x, y in zip(a, b))
    assert f.partial_derivative(a).partial_derivative(b) == f.partial_derivative(ab)


# -- homogenization --------------------------------------------------------


def test_homogenize_parabola():
    f = parse_polynomial("x1 - x0^2", 2)
    assert f.homogenize() == parse_polynomial("x0*x2 - x1^2", 3)


def test_homogenize_already_homogeneous():
    f = parse_polynomial("x0^2 - x1^2", 2)
    g = f.homogenize()
    assert oracle_dehomogenize(g) == f
    assert all(e[0] == 0 for e in g.support())


def test_homogenize_cubic():
    f = parse_polynomial("x0^3 + x0 + 1", 1)
    g = f.homogenize()
    assert g == parse_polynomial("x1^3 + x1*x0^2 + x0^3", 2)


# -- parser / printer ------------------------------------------------------


def test_parse_conic():
    f = parse_polynomial("x0*x2 - x1^2", 3)
    assert f.terms == {(1, 0, 1): 1, (0, 2, 0): -1}


def test_parse_constant():
    assert parse_polynomial("3", 2) == Polynomial.constant(3, 2)


def test_parse_rational_literal():
    f = parse_polynomial("1/2*x0 + 3/4", 1)
    assert f.terms == {(1,): Fraction(1, 2), (0,): Fraction(3, 4)}


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x0^-1", 1)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x5 + 1", 2)
    assert "x5" in str(err.value)


def test_parse_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2 x0", 1)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + @", 1)
    assert err.value.line == 1
    assert err.value.column == 6


def test_parse_parentheses():
    f = parse_polynomial("(x0 + 1)*(x0 - 1)", 1)
    assert f == parse_polynomial("x0^2 - 1", 1)


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
@given(f=polys())
def test_format_round_trip(ordering, f):
    assert parse_polynomial(format_polynomial(f, ordering), 3) == f


def test_format_orders_descending():
    f = parse_polynomial("x0^2 + x1^2", 2)
    assert format_polynomial(f, GRLEX) == "x1^2 + x0^2"
