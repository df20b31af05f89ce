"""Differential test of the Groebner engine against sympy.groebner.

Random homogeneous ideals in 3 variables: the Hilbert function, which does
not depend on the ordering, and under grevlex the monic reduced basis itself.
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


def _sympy_basis(ideal):
    """sympy's reduced grevlex basis, each element monic, as term dicts."""
    exprs = [
        sum(
            int(c) * sympy.prod(x**k for x, k in zip(SYMBOLS, e))
            for e, c in g.terms.items()
        )
        for g in ideal.generators
    ]
    basis = sympy.groebner(exprs, *SYMBOLS, order="grevlex", domain="QQ")
    out = []
    for g in basis.polys:
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()}
        lc = terms[_leading(terms)]
        out.append({e: c / lc for e, c in terms.items()})
    return out


def _leading(terms):
    return max(terms, key=Ordering.GREVLEX.key)


@settings(max_examples=40, deadline=None)
@given(ideal=homogeneous_ideals())
def test_matches_sympy_groebner(ideal):
    expected = _sympy_basis(ideal)
    lms = [_leading(t) for t in expected]
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
    gb = groebner(ideal, Ordering.GREVLEX)
    ours = [g.terms for g in gb.basis]
    assert sorted(ours, key=sorted) == sorted(expected, key=sorted)
