"""ideal-engine: Buchberger, normal forms, staircases, Hilbert data."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmethod import (
    DegenerateIdealError,
    Ideal,
    InputError,
    Ordering,
    Polynomial,
    a_estimates,
    affine_ordering_bound,
    all_sigmas,
    groebner,
    hilbert_function,
    homogenized_basis,
    normal_form,
    parse_polynomial,
    staircase,
)

from detmethod import cli, ideals
from detmethod.cli import load_ideal, main
from detmethod.engine import AuxiliaryCertificate, run_basis, verify_certificate
from detmethod.ideals import monomials_of_degree
from detmethod.polynomials import divides

from conftest import DATA, make_ideal
from oracles import (
    hilbert_oracle,
    homogenized_basis_by_buchberger,
    max_key_reduce,
    naive_staircase,
    ordering_bounds_by_buchberger,
    polynomial_groebner,
    series_by_terms,
)

SRC = pathlib.Path(__file__).parent.parent / "src"

GRLEX = Ordering.GRLEX_LEFT
GREVLEX = Ordering.GREVLEX


# -- groebner --------------------------------------------------------------


def test_single_binomial_is_basis(conic):
    gb = groebner(conic, GRLEX)
    assert len(gb.basis) == 1
    assert gb.basis[0].support() == {(1, 0, 1), (0, 2, 0)}


def test_linear_ideal():
    ideal = make_ideal(["x0", "x1"], 2)
    gb = groebner(ideal, GRLEX)
    assert sorted(gb.leading_monomials) == [(0, 1), (1, 0)]


def test_forced_s_pair_reduction():
    ideal = make_ideal(["x0^2 - x1^2", "x0^2 + x1^2"], 2)
    gb = groebner(ideal, GRLEX)
    lms = set(gb.leading_monomials)
    assert (2, 0) in lms and (0, 2) in lms


def test_groebner_deterministic(twisted_cubic):
    gb1 = groebner(twisted_cubic, GRLEX)
    gb2 = groebner(twisted_cubic, GRLEX)
    assert gb1.basis == gb2.basis


@st.composite
def random_ideals(draw, homogeneous):
    """1 to 3 generators in 2 or 3 variables, of degree at most 3, with
    small rational coefficients; all of one degree each if homogeneous."""
    n = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if homogeneous:
            monos = list(monomials_of_degree(draw(st.integers(1, 3)), n))
        else:
            monos = [e for s in range(4) for e in monomials_of_degree(s, n)]
        terms = draw(
            st.dictionaries(
                st.sampled_from(monos),
                st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                min_size=1,
                max_size=4,
            )
        )
        g = Polynomial(terms, n)
        if not g.is_zero():
            gens.append(g)
    if not gens:
        gens.append(Polynomial.variable(0, n))
    return Ideal(gens, n)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["forms", "affine"])
@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_groebner_matches_polynomial_buchberger(homogeneous, ordering, data):
    # the term-dict S-polynomials and the heap division give the basis of
    # the whole-Polynomial run: same elements, same order, same terms
    ideal = data.draw(random_ideals(homogeneous))
    gb = groebner(ideal, ordering)
    expected = polynomial_groebner(ideal, ordering)
    assert [g.terms for g in gb.basis] == [g.terms for g in expected]
    assert gb.leading_monomials == [
        g.leading_monomial(ordering) for g in expected
    ]


# -- normal form -----------------------------------------------------------


def test_normal_form_of_generator_is_zero(conic):
    gb = groebner(conic, GRLEX)
    assert normal_form(conic.generators[0], gb).is_zero()


def test_normal_form_of_one(conic):
    gb = groebner(conic, GRLEX)
    one = Polynomial.constant(1, 3)
    assert normal_form(one, gb) == one


def test_normal_form_staircase_representative(conic):
    gb = groebner(conic, GRLEX)
    f = parse_polynomial("x1^4", 3)
    nf = normal_form(f, gb)
    assert not nf.is_zero()
    # no term of the result is divisible by a basis leading monomial
    for e in nf.support():
        for lm in gb.leading_monomials:
            assert not all(a <= b for a, b in zip(lm, e))


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
def test_normal_form_of_staircase_support_is_its_input(ordering):
    # no leading monomial divides a term: the remainder is f, shared
    for name, ideal in _data_ideals():
        gb = groebner(ideal, ordering)
        for delta in range(4):
            exps = staircase(gb, delta)
            if exps:
                f = Polynomial({e: k + 1 for k, e in enumerate(exps)},
                               gb.num_vars)
                assert normal_form(f, gb) is f, (name, delta)
    zero = Polynomial.zero(3)
    assert normal_form(zero, groebner(make_ideal(["x0"], 3), ordering)) is zero


def test_normal_form_divides_by_every_leading_monomial(twisted_cubic):
    # each term of f is divisible by one leading monomial only, and not by
    # the first: the division runs and leaves f's staircase terms
    gb = groebner(twisted_cubic, GRLEX)
    first = gb.leading_monomials[0]
    for lm, g in zip(gb.leading_monomials[1:], gb.basis[1:]):
        assert not divides(first, lm)
        f = Polynomial({lm: 3, (0, 0, 0, 2): 1}, 4)
        nf = normal_form(f, gb)
        assert nf is not f
        assert nf == f - g * 3 == max_key_reduce(
            f, gb.basis, gb.leading_monomials, GRLEX
        )


def test_normal_form_idempotent(twisted_cubic):
    gb = groebner(twisted_cubic, GRLEX)
    f = parse_polynomial("x1^3 + x0*x1*x3 - x2^3 + x0^2*x3", 4)
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf


# -- staircase -------------------------------------------------------------


def test_staircase_full_ring():
    gb = groebner(make_ideal(["x0^9"], 2), GRLEX)
    assert set(staircase(gb, 2)) == {(2, 0), (1, 1), (0, 2)}


def test_staircase_conic(conic):
    gb = groebner(conic, GRLEX)
    exponents = staircase(gb, 2)
    assert len(exponents) == 5
    # the one excluded degree-2 monomial is the leading monomial x1^2
    assert (0, 2, 0) not in exponents
    assert (1, 0, 1) in exponents


def test_staircase_irrelevant_ideal():
    gb = groebner(make_ideal(["x0", "x1", "x2"], 3), GRLEX)
    assert staircase(gb, 3) == ()


def test_staircase_size_matches_hf(twisted_cubic):
    gb = groebner(twisted_cubic, GRLEX)
    for s in range(7):
        assert len(staircase(gb, s)) == hilbert_function(gb, s)


def _data_ideals(paths=None):
    """Every tests/data ideal (or each of paths), homogenized as an affine
    ideal, and as it stands when homogeneous (projective)."""
    for path in sorted(DATA.glob("*.ideal")) if paths is None else paths:
        ideal = load_ideal(path)
        yield f"{path.stem}-affine", homogenized_basis(ideal, GRLEX).ideal
        if ideal.homogeneous:
            yield f"{path.stem}-projective", ideal


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
def test_staircase_matches_naive_filter_on_data_ideals(ordering):
    for name, ideal in _data_ideals():
        gb = groebner(ideal, ordering)
        for delta in range(13):
            assert staircase(gb, delta) == naive_staircase(gb, delta), (
                name,
                delta,
            )


@st.composite
def monomial_ideals(draw, max_vars=5, max_exponent=4, max_gens=5):
    n = draw(st.integers(2, max_vars))
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(0, max_exponent)] * n),
            min_size=1,
            max_size=max_gens,
        )
    )
    return n, gens


@settings(max_examples=80, deadline=None)
@given(case=monomial_ideals(), ordering=st.sampled_from([GRLEX, GREVLEX]))
@example(case=(3, [(1, 2, 0), (0, 0, 0)]), ordering=GRLEX)  # contains 1
@example(case=(4, [(0, 3, 0, 0), (1, 0, 1, 1)]), ordering=GREVLEX)  # x1^3
def test_staircase_matches_naive_filter_on_monomial_ideals(case, ordering):
    n, gens = case
    ideal = Ideal([Polynomial({e: 1}, n) for e in gens], n)
    gb = groebner(ideal, ordering)
    for delta in range(9):
        assert staircase(gb, delta) == naive_staircase(gb, delta)
    if (0,) * n in gens:
        assert all(staircase(gb, delta) == () for delta in range(9))


@settings(max_examples=80, deadline=None)
@given(
    case=monomial_ideals(),
    ordering=st.sampled_from([GRLEX, GREVLEX]),
    delta=st.integers(0, 6),
)
@example(case=(3, [(1, 2, 0), (0, 0, 0)]), ordering=GRLEX, delta=0)  # contains 1
@example(case=(3, [(0, 2, 0), (1, 1, 1)]), ordering=GRLEX, delta=3)
def test_verifier_finds_lt_exactly_outside_the_staircase(case, ordering, delta):
    n, gens = case
    gb = groebner(Ideal([Polynomial({e: 1}, n) for e in gens], n), ordering)
    standard = set(naive_staircase(gb, delta))
    for e in monomials_of_degree(delta, n):
        cert = AuxiliaryCertificate(Polynomial({e: 1}, n), delta, (), ())
        in_lt = f"support monomial {e} lies in LT(I)" in verify_certificate(
            cert, (), gb
        )
        assert in_lt == (e not in standard), e


# -- hilbert function ------------------------------------------------------


def test_hf_free_ring():
    gb = groebner(make_ideal(["x0^20"], 2), GRLEX)
    for s in range(10):
        assert hilbert_function(gb, s) == s + 1


def test_hf_conic(conic):
    gb = groebner(conic, GRLEX)
    for s in range(1, 9):
        assert hilbert_function(gb, s) == 2 * s + 1


def test_hf_twisted_cubic(twisted_cubic):
    gb = groebner(twisted_cubic, GRLEX)
    for s in range(1, 9):
        assert hilbert_function(gb, s) == 3 * s + 1


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
def test_hf_matches_linear_algebra_oracle(conic, twisted_cubic, ordering):
    for ideal in (conic, twisted_cubic):
        gb = groebner(ideal, ordering)
        for s in range(9):
            assert hilbert_function(gb, s) == hilbert_oracle(ideal, s)


def test_hf_ordering_invariant(conic, twisted_cubic):
    for ideal in (conic, twisted_cubic):
        g1 = groebner(ideal, GRLEX)
        g2 = groebner(ideal, GREVLEX)
        for s in range(9):
            assert hilbert_function(g1, s) == hilbert_function(g2, s)


# -- the series against the listing ----------------------------------------

CORPUS = DATA.parent.parent / "bench" / "corpus"


def _listed_tables(exps, n):
    return len(exps), tuple(sum(e[i] for e in exps) for i in range(n))


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
def test_series_matches_staircase_listing_on_data_and_corpus_ideals(ordering):
    # each distinct file of tests/data and the benchmark corpus once
    files = {p.read_text(): p for d in (CORPUS, DATA) for p in d.glob("*.ideal")}
    assert len(files) >= len(list(DATA.glob("*.ideal")))
    for name, ideal in _data_ideals(sorted(files.values())):
        gb = groebner(ideal, ordering)
        numerator = ideals._hilbert_numerator(gb.leading_monomials)
        weighted = 0
        for s in range(41):
            hf, sig = _listed_tables(staircase(gb, s), gb.num_vars)
            series = hilbert_function(gb, s), all_sigmas(gb, s)
            assert series == (hf, sig), (name, s)
            weighted += s * hf
            assert ideals._weighted_hf_sum(numerator, s) == weighted, (name, s)


@settings(max_examples=100, deadline=None)
@given(
    case=monomial_ideals(max_vars=4, max_exponent=5, max_gens=6),
    ordering=st.sampled_from([GRLEX, GREVLEX]),
)
@example(case=(2, [(0, 0)]), ordering=GRLEX)  # the unit ideal
@example(case=(3, [(2, 0, 0), (1, 1, 0), (0, 2, 1)]), ordering=GREVLEX)
def test_series_matches_brute_force_count_on_monomial_ideals(case, ordering):
    n, gens = case
    gb = groebner(Ideal([Polynomial({e: 1}, n) for e in gens], n), ordering)
    for s in range(12):
        standard = [
            e
            for e in monomials_of_degree(s, n)
            if not any(divides(g, e) for g in gens)
        ]
        expected = _listed_tables(standard, n)
        assert (hilbert_function(gb, s), all_sigmas(gb, s)) == expected, s


# -- the one-pass series against the term-by-term sums ----------------------


def _data_runs():
    """(file, mode) for every tests/data file, in each mode it is valid in."""
    for path in sorted(DATA.glob("*.ideal")):
        yield path, "affine"
        if load_ideal(path).homogeneous:
            yield path, "projective"


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
def test_series_and_printed_ratios_match_the_term_sums_on_data_ideals(
    capsys, ordering
):
    # HF(s) and sigma(s) from one pass equal the reference sums for every
    # s <= 200, and `hilbert` prints each a_i as str(Fraction) writes it
    for path, mode in _data_runs():
        gb = run_basis(load_ideal(path), mode, ordering)
        expected = [series_by_terms(gb, s) for s in range(201)]
        assert [ideals._series(gb, s) for s in range(201)] == expected, path
        code = main([
            "hilbert", "--ideal", str(path), "--mode", mode,
            "--ordering", ordering.value, "--s-min", "0", "--s-max", "200",
        ])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0 and len(rows) == 201
        for row, (hf, sigma) in zip(rows, expected):
            s = row["s"]
            assert (row["hf"], row["sigma"]) == (hf, list(sigma)), (path, s)
            a = [str(Fraction(x, s * hf)) for x in sigma] if s and hf else None
            assert row["a"] == (a or [None] * gb.num_vars), (path, s)


def test_the_sum_check_is_on_ints_and_survives_python_O(capsys, monkeypatch):
    # sigma_0 + ... + sigma_n = s * HF(s), or no a_i is formed
    message = "a_estimates at s=3 sum to 7/15, not 1"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        ideals._a_denominator(3, 5, (1, 2, 4))
    assert ideals._a_denominator(3, 5, (4, 5, 6)) == 15
    # hilbert reports it as a verification failure, exit 1
    monkeypatch.setattr(cli, "_series", lambda gb, s: (5, (1, 2, 4)))
    code = main(["hilbert", "--ideal", str(DATA / "parabola.ideal"), "--s-min", "3"])
    assert (code, capsys.readouterr().err) == (1, f"verification failure: {message}\n")
    # an explicit raise, not an assert statement, so `python -O` keeps it
    probe = subprocess.run(
        [sys.executable, "-O", "-c",
         "from detmethod import ideals; ideals._a_denominator(3, 5, (1, 2, 4))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 1
    assert probe.stderr.endswith(f"AssertionError: {message}\n")


# -- sigma -----------------------------------------------------------------


def test_sigma_free_ring():
    gb = groebner(make_ideal(["x0^20"], 2), GRLEX)
    for s in range(1, 12):
        assert all_sigmas(gb, s)[0] == s * (s + 1) // 2


def test_sigma_sum_identity(conic, twisted_cubic):
    for ideal in (conic, twisted_cubic):
        gb = groebner(ideal, GRLEX)
        for s in range(1, 9):
            assert sum(all_sigmas(gb, s)) == s * hilbert_function(gb, s)


def test_sigma_conic_total(conic):
    gb = groebner(conic, GRLEX)
    assert sum(all_sigmas(gb, 2)) == 10


# -- dimension and degree --------------------------------------------------


def test_dim_deg_free_ring():
    # below degree 30 the quotient looks like the free ring of P^1, but the
    # full basis shows a 30-fold point
    gb = groebner(make_ideal(["x0^30"], 2), GRLEX)
    assert hilbert_function(gb, 7) == 8
    dd = gb.dimension_degree
    assert (dd.dimension, dd.degree) == (0, 30)


def test_dim_deg_conic(conic):
    dd = groebner(conic, GRLEX).dimension_degree
    assert (dd.dimension, dd.degree) == (1, 2)


def test_dim_deg_twisted_cubic(twisted_cubic):
    dd = groebner(twisted_cubic, GRLEX).dimension_degree
    assert (dd.dimension, dd.degree) == (1, 3)


def test_dim_deg_point(single_point):
    ih = homogenized_basis(single_point, GRLEX).ideal
    dd = groebner(ih, GRLEX).dimension_degree
    assert (dd.dimension, dd.degree) == (0, 1)


@pytest.mark.parametrize("gens", [["x0", "x1"], ["x0^2", "x0*x1", "x1^3"], ["1"]])
def test_dim_deg_empty_variety(gens):
    gb = groebner(make_ideal(gens, 2), GRLEX)
    dd = gb.dimension_degree
    assert (dd.dimension, dd.degree) == (-1, 0)


def _affine(gens, n):
    return homogenized_basis(make_ideal(gens, n), GRLEX).ideal


# (m, d) of every tests/data ideal, as an affine ideal homogenized and, when
# homogeneous, as a projective one; then surfaces and the curves of high
# regularity x1 = x0^7 and x1^2 = x0^9
DIM_DEG_TABLE = [
    ("circle-affine", lambda: _affine(["x0^2 + x1^2 - 1"], 2), (1, 2)),
    ("conic-affine", lambda: _affine(["x0*x2 - x1^2"], 3), (2, 2)),
    ("conic-projective", lambda: make_ideal(["x0*x2 - x1^2"], 3), (1, 2)),
    ("empty-affine", lambda: _affine(["x0^2 + 1"], 2), (1, 2)),
    ("line-affine", lambda: _affine(["x1 - x0"], 2), (1, 1)),
    ("line-projective", lambda: make_ideal(["x1 - x0"], 2), (0, 1)),
    ("parabola-affine", lambda: _affine(["x1 - x0^2"], 2), (1, 2)),
    ("single_point-affine", lambda: _affine(["x0 - 2", "x1 - 3"], 2), (0, 1)),
    (
        "twisted_cubic-affine",
        lambda: _affine(["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"], 4),
        (2, 3),
    ),
    (
        "twisted_cubic-projective",
        lambda: make_ideal(["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"], 4),
        (1, 3),
    ),
    (
        "twisted_cubic_affine-affine",
        lambda: _affine(["x1 - x0^2", "x2 - x0^3"], 3),
        (1, 3),
    ),
    ("saddle-affine", lambda: _affine(["x2 - x0*x1"], 3), (2, 2)),
    ("segre-projective", lambda: make_ideal(["x0*x3 - x1*x2"], 4), (2, 2)),
    (
        "quadric-projective",
        lambda: make_ideal(["x0^2 + x1^2 - x2^2 - x3^2"], 4),
        (2, 2),
    ),
    ("cubic-surface-affine", lambda: _affine(["x0^3 + x1^3 + x2^3 - 1"], 3), (2, 3)),
    ("x1=x0^7-affine", lambda: _affine(["x1 - x0^7"], 2), (1, 7)),
    ("x1^2=x0^9-affine", lambda: _affine(["x1^2 - x0^9"], 2), (1, 9)),
]


def test_dim_deg_table_covers_every_data_ideal():
    names = {name for name, _ in _data_ideals()}
    assert names <= {name for name, _, _ in DIM_DEG_TABLE}


@pytest.mark.parametrize("ordering", [GRLEX, GREVLEX])
@pytest.mark.parametrize(
    "name,make,expected", DIM_DEG_TABLE, ids=[c[0] for c in DIM_DEG_TABLE]
)
def test_dim_deg_table(name, make, expected, ordering):
    gb = groebner(make(), ordering)
    dd = gb.dimension_degree
    assert (dd.dimension, dd.degree) == expected
    # independently of the division by (1-t): the m-th difference of HF is d
    # and the next one vanishes at s = 20..25
    m, d = expected
    row = [hilbert_function(gb, s) for s in range(20, 26 + m + 1)]
    for _ in range(m):
        row = [b - a for a, b in zip(row, row[1:])]
    assert row[:6] == [d] * 6
    assert [b - a for a, b in zip(row, row[1:])][:6] == [0] * 6


# -- a estimates -----------------------------------------------------------


def test_a_symmetric_free_ring():
    gb = groebner(make_ideal(["x0^40"], 2), GRLEX)
    assert a_estimates(gb, 15) == (Fraction(1, 2), Fraction(1, 2))


def test_a_conic_limit(conic):
    gb = groebner(conic, GRLEX)
    a = a_estimates(gb, 50)
    assert sum(a) == 1
    assert all(0 <= x <= 1 for x in a)
    # under the left-graded ordering LT = x1^2, so a -> (1/2, 0, 1/2)
    assert abs(a[0] - Fraction(1, 2)) < Fraction(1, 50)
    assert a[1] < Fraction(1, 50)


def test_a_point_ideal():
    ideal = make_ideal(["x1", "x2"], 3)
    gb = groebner(ideal, GRLEX)
    assert a_estimates(gb, 6) == (1, 0, 0)


def test_a_degenerate():
    gb = groebner(make_ideal(["x0", "x1"], 2), GRLEX)
    with pytest.raises(DegenerateIdealError):
        a_estimates(gb, 3)


# -- affine ordering bound -------------------------------------------------


def test_ordering_bound_parabola(parabola):
    rep = affine_ordering_bound(parabola, 40)
    assert rep.holds
    assert rep.dimension == 1
    assert rep.limit == Fraction(1, 2)
    # lhs = (1+s)/(2s+1) at finite s
    assert rep.lhs == Fraction(41, 81)
    assert abs(rep.lhs - rep.limit) < Fraction(1, 10)


def test_ordering_bound_refuses_s_below_1(parabola, monkeypatch):
    # refused before the basis: no Buchberger run
    monkeypatch.setattr(ideals, "groebner", None)
    for s in (0, -1):
        with pytest.raises(InputError, match="^s must be >= 1$"):
            affine_ordering_bound(parabola, s)


def test_ordering_bound_linear():
    rep = affine_ordering_bound(make_ideal(["x1"], 2), 12)
    assert rep.holds


def test_ordering_bound_saddle_surface():
    saddle = make_ideal(["x2 - x0*x1"], 3)
    for s in range(4, 31):
        rep = affine_ordering_bound(saddle, s)
        assert rep.holds, s
        assert rep.dimension == 2
        assert rep.limit == Fraction(2, 3)


def test_ordering_bound_sum_with_a0(parabola):
    ih = homogenized_basis(parabola, GRLEX).ideal
    gb = groebner(ih, GRLEX)
    s = 20
    a = a_estimates(gb, s)
    rep = affine_ordering_bound(parabola, s)
    assert rep.lhs + a[0] == 1


# -- homogenized bases and the section J against Buchberger ------------------

SWEEP = range(4, 41)


def _ordering_bounds(affine_ideal):
    """affine_ordering_bound over SWEEP, None where HF of I^h vanishes."""
    reports = []
    for s in SWEEP:
        try:
            reports.append(affine_ordering_bound(affine_ideal, s))
        except DegenerateIdealError:
            reports.append(None)
    return reports


def _distinct_data_and_corpus_ideals():
    files = {p.read_text(): p for d in (CORPUS, DATA) for p in d.glob("*.ideal")}
    return [(p.stem, load_ideal(p)) for p in sorted(files.values())]


def _assert_matches_buchberger(name, ideal):
    # I^h's basis: homogenized under grlex-left, by groebner under grevlex
    for ordering in (GRLEX, GREVLEX):
        expected = homogenized_basis_by_buchberger(ideal, ordering).basis
        assert homogenized_basis(ideal, ordering).basis == expected, (name, ordering)
    # J = I^h + (x0) read off LT(I^h) + (x0), against J's own basis
    expected = ordering_bounds_by_buchberger(ideal, SWEEP)
    assert _ordering_bounds(ideal) == expected, name


def test_homogenized_bases_and_ordering_bounds_match_buchberger_on_data_ideals():
    for name, ideal in _distinct_data_and_corpus_ideals():
        _assert_matches_buchberger(name, ideal)


@st.composite
def affine_ideals(draw, max_vars=3, max_degree=2, max_gens=3):
    """Small affine ideals with integer coefficients; a generator may be a
    nonzero constant, which makes the ideal the unit ideal."""
    n = draw(st.integers(1, max_vars))
    monos = [e for d in range(max_degree + 1) for e in monomials_of_degree(d, n)]
    coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3])
    terms = st.dictionaries(st.sampled_from(monos), coefficients, min_size=1, max_size=3)
    gens = draw(st.lists(terms, min_size=1, max_size=max_gens))
    return Ideal([Polynomial(t, n) for t in gens], n)


@settings(max_examples=100, deadline=None)
@given(ideal=affine_ideals())
@example(ideal=make_ideal(["x1 - x0^2", "2"], 2))  # a constant generator
@example(ideal=make_ideal(["x0^2 + x1^2 + 1"], 2))  # no rational points
@example(ideal=make_ideal(["x0^2 + x1^2 - 1"], 2))  # grlex-left LT is x1^2
def test_homogenized_bases_and_ordering_bounds_match_buchberger_on_random_ideals(
    ideal,
):
    _assert_matches_buchberger(repr(ideal), ideal)
