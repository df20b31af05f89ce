"""poly-core: orderings, arithmetic, calculus, parser round trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detmethod import (
    InputError,
    Ordering,
    ParseError,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from oracles import fraction_evaluate, oracle_dehomogenize, tokenizer_parse_polynomial

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

    @given(a=exponents, b=exponents)
    def test_heap_key_reverses_key(self, ordering, a, b):
        assert (ordering.heap_key(a) < ordering.heap_key(b)) == (
            ordering.key(b) < ordering.key(a)
        )


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


rational_polys = st.dictionaries(  # small exponents, so constant terms are common
    st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple),
    st.fractions(max_denominator=12).filter(lambda c: abs(c) <= 50),
    max_size=6,
).map(lambda t: Polynomial(t, 3))
points3 = st.lists(
    st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(max_denominator=30).filter(lambda x: abs(x) <= 100),
    ),
    min_size=3,
    max_size=3,
).map(tuple)


@example(f=Polynomial({(0, 0, 0): Fraction(1, 2), (1, 0, 0): 1}, 3),
         g=Polynomial({}, 3), points=[(2, 0, 0)])
@given(f=rational_polys, g=rational_polys,
       points=st.lists(points3, min_size=1, max_size=4))
def test_evaluate_matches_fraction_sum(f, g, points):
    # each point twice, on two polynomials in turn: a polynomial's first
    # call builds its cleared terms, and its later calls read them back
    for p in points + points:
        for h in (f, g):
            value = h.evaluate(p)
            assert type(value) is Fraction
            assert value == fraction_evaluate(h, p)


@given(f=rational_polys, points=st.lists(points3, min_size=1, max_size=4))
def test_vanishes_at_is_evaluate_at_zero(f, points):
    """vanishes_at reads evaluate's cleared sum: f - f(p) vanishes at p, and
    f - f(p) + c for c != 0 does not."""
    for p in points:
        value = fraction_evaluate(f, p)
        assert f.vanishes_at(p) == (value == 0)
        shifted = f - value
        assert shifted.vanishes_at(p)
        assert not (shifted + Fraction(1, 7)).vanishes_at(p)
    with pytest.raises(InputError, match="expected 3"):
        f.vanishes_at((0, 0))


# -- the parser against the token-object parser it replaced ----------------

PARSE_TOKENS = [
    "x0", "x1", "x2", "x3", "x", "y1", "0", "1", "2", "3", "3/4", "0/5",
    "1/0", "+", "-", "*", "^", "(", ")", "@", "\u00b2",
]
SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n", "\r", "\x0c", "\u2028"]
separators = st.sampled_from(SEPARATORS)
token_soups = st.lists(
    st.tuples(separators, st.sampled_from(PARSE_TOKENS)), max_size=24
).map(lambda parts: "".join(a + b for a, b in parts))
expressions = st.recursive(  # texts in the grammar, most of which parse
    st.sampled_from(["x0", "x1", "x2", "x3", "0", "2", "12", "3/4", "1/0"]),
    lambda inner: st.one_of(
        st.tuples(inner, separators, st.sampled_from("+-*"), separators, inner),
        st.tuples(st.just("("), separators, inner, separators, st.just(")")),
        st.tuples(st.sampled_from(["-", "+"]), separators, inner),
        st.tuples(inner, separators, st.just("^"), separators,
                  st.sampled_from("0123")),
    ).map("".join),
    max_leaves=8,
)
texts = st.tuples(separators, token_soups | expressions, separators).map("".join)


def _outcome(parse, text):
    try:
        f = parse(text, 3)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.column
    return "poly", f, list(f.terms)  # the same terms, inserted in one order


@settings(max_examples=400, deadline=None)
@example(text="x1*x2^2*x1^3 - 3/4*x0*2^3*x0 + (x0 - 1)^2*x2")
@example(text="(x0 + 1")
@example(text="x0 +\n  2*x1^")
@example(text="2/0 * x1")
@example(text=" \r\n x1 x2")
@given(text=texts)
def test_parser_matches_tokenizer_oracle(text):
    # exponents above 3 on nested sums only make the example slow
    assume(all(int(k) <= 3 for k in re.findall(r"\^\s*(\d+)", text)))
    assert _outcome(parse_polynomial, text) == _outcome(
        tokenizer_parse_polynomial, text
    )


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
    cases = [
        ("x0 + @", 6, "unexpected token '@'"),
        # a superscript digit is no decimal digit, for \d and str.isdecimal
        ("x0^\u00b2", 4, "expected a nonnegative integer exponent"),
        ("\u00b2", 1, "unexpected token '\u00b2'"),
    ]
    for text, column, message in cases:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 1)
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.message == message


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
