"""Differential test of the Groebner engine against sympy.groebner.

Random homogeneous ideals in 3 variables: the Hilbert function, which does
not depend on the ordering, and under each ordering the monic reduced basis
itself.  grlex-left is sympy's grevlex over the symbols in reverse order: at
equal degree, x^a > x^b under either exactly when the first nonzero entry of
a - b, read from x0, is negative.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmethod import (
    Ideal,
    Ordering,
    Polynomial,
    divides,
    groebner,
    hilbert_function,
    monomials_of_degree,
    parse_polynomial,
)

sympy = pytest.importorskip("sympy")

N = 3
S_MAX = 8
SYMBOLS = sympy.symbols(f"x0:{N}")


@st.composite
def homogeneous_ideals(draw):
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = list(monomials_of_degree(draw(st.integers(1, 3)), N))
        terms = draw(
            st.dictionaries(
                st.sampled_from(monos),
                st.integers(-3, 3).filter(bool),
                min_size=1,
                max_size=4,
            )
        )
        gens.append(Polynomial(terms, N))
    return Ideal(gens, N)


def _sympy_basis(ideal, ordering):
    """sympy's reduced basis under `ordering`, each element monic, as term
    dicts: grevlex over x0, x1, x2, or over x2, x1, x0 for grlex-left."""
    exprs = [
        sum(
            int(c) * sympy.prod(x**k for x, k in zip(SYMBOLS, e))
            for e, c in g.terms.items()
        )
        for g in ideal.generators
    ]
    symbols = SYMBOLS if ordering is Ordering.GREVLEX else SYMBOLS[::-1]
    basis = sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ")
    out = []
    for g in basis.polys:
        terms = {
            e if symbols is SYMBOLS else e[::-1]: Fraction(int(c.p), int(c.q))
            for e, c in g.terms()
        }
        lc = terms[max(terms, key=ordering.key)]
        out.append({e: c / lc for e, c in terms.items()})
    return out


@settings(max_examples=40, deadline=None)
@given(ideal=homogeneous_ideals())
def test_matches_sympy_groebner(ideal):
    expected = _sympy_basis(ideal, Ordering.GREVLEX)
    lms = [max(t, key=Ordering.GREVLEX.key) for t in expected]
    hf = [
        sum(
            not any(divides(lm, e) for lm in lms)
            for e in monomials_of_degree(s, N)
        )
        for s in range(S_MAX + 1)
    ]
    for ordering in Ordering:
        gb = groebner(ideal, ordering)
        assert [hilbert_function(gb, s) for s in range(S_MAX + 1)] == hf
    for ordering in Ordering:
        ours = [g.terms for g in groebner(ideal, ordering).basis]
        expected = _sympy_basis(ideal, ordering)
        assert sorted(ours, key=sorted) == sorted(expected, key=sorted)


def test_repeated_generators_give_the_basis_of_one_copy():
    """Interreduction keeps one of several equal leading monomials, and the
    reduced basis is unique, so repeating a generator, or adding a multiple
    of it, changes no basis."""
    one = Ideal([parse_polynomial("x1 - x0^2", N)], N)
    gens = [parse_polynomial(t, N) for t in ("x1 - x0^2", "x1 - x0^2", "2*x1 - 2*x0^2")]
    repeated = Ideal(gens, N)
    for ordering in Ordering:
        ours = [g.terms for g in groebner(repeated, ordering).basis]
        assert ours == [g.terms for g in groebner(one, ordering).basis]
        assert sorted(ours, key=sorted) == sorted(
            _sympy_basis(repeated, ordering), key=sorted
        )
