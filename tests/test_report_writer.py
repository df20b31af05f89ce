"""The report writer: certificate text from integer coefficients, and the
JSON emitter behind every report, Hilbert table and bound table.

Each is checked against the code it replaced: the text against the
Fraction-based rendering and the substitution x0 = 1 (tests/oracles.py), the
emitter against json.dumps(..., sort_keys=True, indent=2, allow_nan=False).
"""

import contextlib
import io
import json
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmethod import Ordering, Polynomial, cli, format_polynomial, parse_polynomial
from detmethod.ideals import monomials_of_degree
from detmethod.polynomials import format_dehomogenized
from oracles import fraction_format_polynomial, oracle_dehomogenize
from test_golden import CONSTRUCT
from test_polynomials import polys

DATA = pathlib.Path(__file__).parent / "data"
ORDERINGS = [Ordering.GRLEX_LEFT, Ordering.GREVLEX]


def dumps(data):
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False)


# -- certificate text ----------------------------------------------------------

coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=10**6),
).filter(bool)


@st.composite
def forms(draw, max_vars=4, max_degree=4):
    """A form in 2..max_vars variables, with integer and rational
    coefficients, stored as Fractions as every Polynomial's are."""
    n = draw(st.integers(2, max_vars))
    degree = draw(st.integers(0, max_degree))
    support = draw(
        st.lists(st.sampled_from(list(monomials_of_degree(degree, n))), unique=True)
    )
    return Polynomial({e: draw(coefficients) for e in support}, n)


@pytest.mark.parametrize("ordering", ORDERINGS)
@given(f=forms())
def test_format_matches_the_fraction_rendering(ordering, f):
    assert format_polynomial(f, ordering) == fraction_format_polynomial(f, ordering)


@pytest.mark.parametrize("ordering", ORDERINGS)
@given(f=forms())
def test_dropping_x0_is_the_substitution(ordering, f):
    expected = format_polynomial(oracle_dehomogenize(f), ordering)
    assert format_dehomogenized(f, ordering) == expected


@pytest.mark.parametrize("ordering", ORDERINGS)
@given(fs=st.lists(forms(), max_size=6))
def test_a_shared_monomial_table_changes_no_text(ordering, fs):
    """to_dict writes a report's certificates through one table of monomial
    texts, the dehomogenized ones too; each text is the one written alone."""
    monomials = {}
    for f in fs:
        assert format_polynomial(f, ordering, monomials) == format_polynomial(f, ordering)
        assert format_dehomogenized(f, ordering, monomials) == (
            format_dehomogenized(f, ordering)
        )


def test_format_examples():
    f = parse_polynomial("-x0^2 + 3/4*x0*x1 - 5*x1^2 + 1/2*x2^2", 3)
    assert format_polynomial(f, Ordering.GRLEX_LEFT) == (
        "1/2*x2^2 - 5*x1^2 + 3/4*x0*x1 - x0^2"
    )
    assert format_dehomogenized(f, Ordering.GRLEX_LEFT) == (
        "1/2*x1^2 - 5*x0^2 + 3/4*x0 - 1"
    )
    assert format_polynomial(Polynomial.zero(2)) == "0"
    assert format_polynomial(Polynomial.constant(-1, 2)) == "-1"


def test_format_dehomogenized_refuses_terms_that_would_merge():
    with pytest.raises(ValueError, match="needs a form"):
        format_dehomogenized(parse_polynomial("x0*x1 + x1", 2))


# the substitution oracle itself


def test_dehomogenize_examples():
    g = parse_polynomial("x0*x2 - x1^2", 3)
    assert oracle_dehomogenize(g) == parse_polynomial("x1 - x0^2", 2)
    assert oracle_dehomogenize(parse_polynomial("x0^3", 3)) == Polynomial.constant(1, 2)


@given(f=polys())
def test_dehomogenize_inverts_homogenize(f):
    if f.is_zero():
        return
    assert oracle_dehomogenize(f.homogenize()) == f


# -- the JSON emitter ----------------------------------------------------------


def _recorded_cli(monkeypatch, *argv):
    """Run the CLI and return every (data, text) pair that cli._json wrote."""
    calls = []
    write = cli._json

    def spy(data):
        text = write(data)
        calls.append((data, text))
        return text

    monkeypatch.setattr(cli, "_json", spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    assert calls
    return calls


HILBERT = {
    "parabola-affine": (str(DATA / "parabola.ideal"), "affine"),
    "twisted-cubic-affine": (str(DATA / "twisted_cubic_affine.ideal"), "affine"),
    "conic-projective": (str(DATA / "conic.ideal"), "projective"),
    "twisted-cubic-projective": (str(DATA / "twisted_cubic.ideal"), "projective"),
}

BOUND = {
    "worked-example": ("--mu", "3", "--m", "1", "--norms", "1,1,1", "--r", "1/8"),
    "zero-norm": ("--mu", "3", "--m", "1", "--norms", "0,1,1", "--r", "0.3"),
    "beyond-the-doubles": (
        "--mu", "3", "--m", "1", "--norms", "1e300,1e300,1e300", "--r", "0.3",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCT))
def test_golden_reports_match_json_dumps(monkeypatch, case):
    for data, text in _recorded_cli(monkeypatch, "construct", *CONSTRUCT[case]):
        assert text == dumps(data)


@pytest.mark.parametrize("case", sorted(HILBERT))
def test_hilbert_tables_match_json_dumps(monkeypatch, case):
    ideal, mode = HILBERT[case]
    argv = ("hilbert", "--ideal", ideal, "--mode", mode, "--s-min", "0", "--s-max", "12")
    for data, text in _recorded_cli(monkeypatch, *argv):
        assert text == dumps(data)


@pytest.mark.parametrize("case", sorted(BOUND))
def test_bound_tables_match_json_dumps(monkeypatch, case):
    argv = ("bound", *BOUND[case], "--output", "json")
    for data, text in _recorded_cli(monkeypatch, *argv):
        assert text == dumps(data)


text = st.text(st.characters(blacklist_categories=()))  # surrogates too
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16]),
    text,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.integers(-(2**70), 2**70)),
        st.dictionaries(text, inner),
    ),
    max_leaves=40,
)


@given(values)
def test_emitter_matches_json_dumps(value):
    assert cli._json(value) == dumps(value)


plain_ints = st.integers() | st.integers(-(2**200), 2**200) | st.just(2**200)


@st.composite
def row_lists(draw):
    """A list or tuple of rows of k plain ints, the case the emitter writes
    by one template (k = 0 gives [[]] and the like, which it does not), and
    then, each at random: a bool in place of one cell, one row of another
    length, each row a list or a tuple at random, and rows as the cells of
    rows."""
    k = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(plain_ints, min_size=k, max_size=k), min_size=1,
                         max_size=8))
    if k and draw(st.booleans()):
        draw(st.sampled_from(rows))[draw(st.integers(0, k - 1))] = draw(st.booleans())
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.lists(plain_ints, max_size=6).filter(lambda r: len(r) != k)))
    if draw(st.booleans()):
        rows = [tuple(r) if draw(st.booleans()) else r for r in rows]
    if draw(st.booleans()):
        rows = [[r, r] for r in rows]
    return tuple(rows) if draw(st.booleans()) else rows


@given(row_lists())
def test_row_lists_match_json_dumps(rows):
    for value in (rows, {"points": rows}, [rows, rows]):
        assert cli._json(value) == dumps(value)


def test_int_rows_take_only_rows_of_plain_ints_of_one_length():
    """The template writes rows of plain ints of one length k >= 1, each row
    as _emit would; [[]], a bool, ragged rows and nested rows it refuses, and
    they fall back to one _emit per row."""
    for rows in ([[1, 2], (3, 4)], [[2**200], [-1]]):
        expected = [cli._emit(row, "\n  ") for row in rows]
        assert list(cli._int_rows(rows, "\n  ")) == expected
    for rows in ([[]], [[1, True]], [[1, 2], [3]], [[[1]], [[2]]]):
        assert cli._int_rows(rows, "\n  ") is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: [1, [x]],
    lambda x: {"a": x},
    lambda x: [[1, 2], [x, 3]],  # a float in rows of numbers
    lambda x: [(1, 2), (3, x)],
])
def test_emitter_refuses_non_finite_floats(bad, wrap):
    with pytest.raises(ValueError):
        dumps(wrap(bad))
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json(wrap(bad))


def test_emitter_refuses_a_non_str_key():
    """Every CLI output has str keys.  json.dumps would write the key 1 as
    "1"; the emitter refuses it."""
    with pytest.raises(TypeError):
        cli._json({1: "a"})
    with pytest.raises(TypeError):
        cli._json({"a": [{None: 0}]})


def test_emitter_refuses_other_types():
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        cli._json([Fraction(1, 2)])
