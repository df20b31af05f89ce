"""Exact sparse multivariate polynomials over Q, with graded monomial orderings.

Exponent vectors are plain tuples of nonnegative ints; coefficients are
``fractions.Fraction``.  Everything is exact: no floats enter this module.
All values are treated as immutable after construction.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from math import lcm
from operator import le, neg

from .errors import InputError, ParseError


class Ordering(enum.Enum):
    """Graded monomial orderings.

    GRLEX_LEFT is the convention used for the affine pipeline: at equal total
    degree, alpha < beta iff the left-most nonzero entry of alpha - beta is
    positive.  This makes the *first* variable the smallest one.  GREVLEX is
    graded reverse lexicographic with x0 > x1 > ... .
    """

    GRLEX_LEFT = "grlex-left"
    GREVLEX = "grevlex"

    def key(self, alpha):
        """Sort key: monomials compare like their keys (larger key = larger)."""
        if self is Ordering.GRLEX_LEFT:
            return (sum(alpha), tuple(map(neg, alpha)))
        return (sum(alpha), tuple(map(neg, reversed(alpha))))

    def heap_key(self, alpha):
        """key negated: the larger monomial has the smaller heap_key, so a
        heap of these pops the largest monomial first."""
        if self is Ordering.GRLEX_LEFT:
            return (-sum(alpha), alpha)
        return (-sum(alpha), alpha[::-1])


def divides(a, b):
    """True if monomial x^a divides x^b."""
    return all(map(le, a, b))


def _coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise InputError(f"coefficient must be exact rational, got {type(c).__name__}")


class Polynomial:
    """Sparse polynomial: map from exponent tuple to nonzero Fraction."""

    __slots__ = ("terms", "num_vars", "_cleared")

    def __init__(self, terms, num_vars):
        if num_vars < 1:
            raise InputError("num_vars must be positive")
        clean = {}
        for exp, c in terms.items():
            if len(exp) != num_vars:
                raise InputError(
                    f"exponent {exp} has length {len(exp)}, expected {num_vars}"
                )
            if any(e < 0 for e in exp):
                raise InputError(f"negative exponent in {exp}")
            c = _coeff(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.terms = clean
        self.num_vars = num_vars
        self._cleared = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars):
        return cls({}, num_vars)

    @classmethod
    def constant(cls, c, num_vars):
        return cls({(0,) * num_vars: c}, num_vars)

    @classmethod
    def variable(cls, i, num_vars):
        exp = [0] * num_vars
        exp[i] = 1
        return cls({tuple(exp): 1}, num_vars)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        """Recomputed on every call, never cached or trusted."""
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def support(self):
        return set(self.terms)

    def leading_monomial(self, ordering):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=ordering.key)

    def leading_term(self, ordering):
        lm = self.leading_monomial(ordering)
        return lm, self.terms[lm]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._promote(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(out, self.num_vars)

    def __sub__(self, other):
        return self + (-self._promote(other))

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.terms.items()}, self.num_vars)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.num_vars)
            return Polynomial(
                {e: c * other for e, c in self.terms.items()}, self.num_vars
            )
        other = self._promote(other)
        return Polynomial(_times(self.terms, other.terms), self.num_vars)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, k):
        if k < 0:
            raise InputError("negative power")
        return Polynomial(_power(self.terms, k, self.num_vars), self.num_vars)

    def _promote(self, other):
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise InputError("mixing polynomials with different num_vars")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.num_vars)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    # -- calculus / substitution ------------------------------------------

    def evaluate(self, point):
        """Exact value at a point of ints or rationals, as a Fraction.

        The first call clears the denominators once and keeps the result on
        the polynomial, in its _cleared slot: the common denominator D of
        the coefficients and, for each term c*x^e, the integer c*D with the
        (i, e_i) of its nonzero exponents.  Every call then sums
        c*D * prod x_i^e_i and divides by D once at the end, with no gcd at
        D = 1.  At an integer point every step stays in int; rational
        coordinates go through the same lines, as int and Fraction
        arithmetic promote by themselves.  Keeping the integer terms is
        sound because a Polynomial is never changed after construction."""
        den, total = self._cleared_value(point)
        return Fraction(total) if den == 1 else Fraction(total, den)

    def vanishes_at(self, point):
        """evaluate(point) == 0, read off the same sum of cleared terms with
        no Fraction built: the sum is D times the value."""
        return self._cleared_value(point)[1] == 0

    def _cleared_value(self, point):
        """(D, D * the value at point), from the cleared terms."""
        if len(point) != self.num_vars:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.num_vars}"
            )
        if self._cleared is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            self._cleared = den, tuple(
                (tuple((i, k) for i, k in enumerate(e) if k),
                 c.numerator * (den // c.denominator))
                for e, c in self.terms.items()
            )
        den, terms = self._cleared
        total = 0
        for powers, v in terms:
            for i, k in powers:
                v *= point[i] if k == 1 else point[i] ** k
            total += v
        return den, total

    def partial_derivative(self, alpha):
        """Iterated formal derivative d^alpha; may return zero."""
        if len(alpha) != self.num_vars:
            raise InputError("multi-index length mismatch")
        out = {}
        for e, c in self.terms.items():
            coeff = c
            new = list(e)
            ok = True
            for i, a in enumerate(alpha):
                if e[i] < a:
                    ok = False
                    break
                for j in range(a):
                    coeff *= e[i] - j
                new[i] = e[i] - a
            if ok and coeff != 0:
                key = tuple(new)
                out[key] = out.get(key, Fraction(0)) + coeff
        return Polynomial(out, self.num_vars)

    def substitute(self, values):
        """Compose: substitute a Polynomial for each variable."""
        if len(values) != self.num_vars:
            raise InputError("substitution length mismatch")
        nv = values[0].num_vars
        total = Polynomial.zero(nv)
        for e, c in self.terms.items():
            term = Polynomial.constant(c, nv)
            for v, k in zip(values, e):
                if k:
                    term = term * (v**k)
            total = total + term
        return total

    def homogenize(self):
        """Insert a homogenizing variable x0 in front."""
        if not self.terms:
            raise ValueError("cannot homogenize the zero polynomial")
        d = self.degree()
        out = {(d - sum(e),) + e: c for e, c in self.terms.items()}
        return Polynomial(out, self.num_vars + 1)

    def monic(self, ordering):
        _, lc = self.leading_term(ordering)
        return self * (1 / lc)

    def integer_coefficients(self):
        """True if every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.terms.values())

    def __repr__(self):
        return f"Polynomial({format_polynomial(self, Ordering.GRLEX_LEFT)!r})"


# -- text format -----------------------------------------------------------

_TOKEN = re.compile(r"\d+(?:/\d+)?|[A-Za-z_]\w*|[-+*^()]|\S")
_VARIABLE = re.compile(r"x\d+").fullmatch


class _SyntaxAt(Exception):
    """(token index, message): a syntax error, which parse_polynomial raises
    as a ParseError at that token's line and column."""


def parse_polynomial(text, num_vars):
    """Parse the text grammar: vars x0..x{num_vars-1}, integer or rational
    literals p/q, operators + - * ^, parentheses; implicit multiplication is
    a syntax error.

    The text is split into tokens once, into a list that ends in None, and
    the parser reads it by index.  Each subexpression is a dict from
    exponent to coefficient: the terms of a sum gather in one dict, the
    number and variable factors of a product multiply into one term in
    place, a single-term base is raised to its power directly, and one
    Polynomial, which drops the zero terms, is built at the end.  A
    ParseError names the line and column of the token it is raised at, or
    one column past the start of the last token at the end of the input;
    they are worked out from the token's offset only when it is raised."""
    tokens = _TOKEN.findall(text)
    tokens.append(None)
    try:
        if tokens[0] is None:
            raise _SyntaxAt(0, "empty polynomial")
        terms, i = _parse_expr(tokens, 0, num_vars)
        if tokens[i] is not None:
            raise _SyntaxAt(i, f"unexpected token {tokens[i]!r}")
    except _SyntaxAt as exc:
        index, message = exc.args
        raise ParseError(message, *_position(text, index)) from None
    return Polynomial(terms, num_vars)


def _position(text, index):
    """(line, column), from 1, of token `index` of text; past the last
    token, one column after the start of the last token; (1, 1) if there
    is no token.  Lines break where str.splitlines breaks them."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    if not starts:
        return 1, 1
    past = index >= len(starts)
    lines = (text[: starts[-1] if past else starts[index]] + "_").splitlines()
    return len(lines), len(lines[-1]) + past


def _times(p, q):
    """Product of two term dicts (exponent -> coefficient)."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _power(p, k, num_vars):
    """p^k for a term dict: a single term directly, else by repeated
    squaring."""
    if len(p) == 1:
        ((e, c),) = p.items()
        return {tuple(a * k for a in e): c**k}
    out = {(0,) * num_vars: 1}
    while k:
        if k & 1:
            out = _times(out, p)
        k >>= 1
        if k:
            p = _times(p, p)
    return out


def _parse_expr(tokens, i, num_vars):
    sign = 1
    if tokens[i] == "+" or tokens[i] == "-":
        sign = -1 if tokens[i] == "-" else 1
        i += 1
    total = {}
    while True:
        term, i = _parse_term(tokens, i, num_vars)
        for e, c in term.items():
            total[e] = total.get(e, 0) + sign * c
        tok = tokens[i]
        if tok != "+" and tok != "-":
            return total, i
        sign = -1 if tok == "-" else 1
        i += 1


def _parse_term(tokens, i, num_vars):
    """A product of powers.  A number or variable factor, raised to its
    exponent, multiplies the running single term coeff*x^exp in place; any
    other factor is read by _parse_power and multiplied in by _times."""
    exp = [0] * num_vars
    coeff = 1
    rest = None  # the product of the other factors, a term dict
    while True:
        got = _literal(tokens, i, num_vars)
        if got is None:
            q, i = _parse_power(tokens, i, num_vars)
            rest = q if rest is None else _times(rest, q)
        else:
            idx, c = got
            k, i = _exponent(tokens, i + 1)
            if idx is None:
                coeff *= c**k
            else:
                exp[idx] += k
        if tokens[i] != "*":
            term = {tuple(exp): coeff}
            return (term if rest is None else _times(term, rest)), i
        i += 1


def _exponent(tokens, i):
    """(k, index after it) for an optional exponent ^k at token i; k = 1 if
    there is none."""
    if tokens[i] != "^":
        return 1, i
    tok = tokens[i + 1]
    if tok == "-":
        raise _SyntaxAt(i + 1, "negative exponent")
    if tok is None or not tok.isdecimal():
        raise _SyntaxAt(i + 1, "expected a nonnegative integer exponent")
    return int(tok), i + 2


def _parse_power(tokens, i, num_vars):
    base, i = _parse_atom(tokens, i, num_vars)
    k, i = _exponent(tokens, i)
    return _power(base, k, num_vars), i


def _literal(tokens, i, num_vars):
    """(None, c) for a number c at token i, (index, 1) for a variable, None
    for any other token."""
    tok = tokens[i]
    if tok is None:
        return None
    if tok[0].isdecimal():
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:  # reported at the token after the literal
                raise _SyntaxAt(i + 1, "zero denominator")
            return None, Fraction(int(num), int(den))
        return None, int(tok)
    if _VARIABLE(tok):
        idx = int(tok[1:])
        if idx >= num_vars:
            raise _SyntaxAt(
                i, f"unknown variable {tok!r} (have x0..x{num_vars - 1})"
            )
        return idx, 1
    return None


def _parse_atom(tokens, i, num_vars):
    tok = tokens[i]
    if tok == "(":
        p, i = _parse_expr(tokens, i + 1, num_vars)
        if tokens[i] != ")":
            raise _SyntaxAt(i, "expected ')'")
        return p, i + 1
    if tok == "-":
        p, i = _parse_power(tokens, i + 1, num_vars)
        return {e: -c for e, c in p.items()}, i
    got = _literal(tokens, i, num_vars)
    if got is not None:
        idx, c = got
        e = [0] * num_vars
        if idx is not None:
            e[idx] = 1
        return {tuple(e): c}, i + 1
    if tok is None:
        raise _SyntaxAt(i, "unexpected end of input")
    raise _SyntaxAt(i, f"unexpected token {tok!r}")


def format_polynomial(poly, ordering=Ordering.GRLEX_LEFT, monomials=None):
    """Render with terms in descending order under `ordering`; round-trip
    stable through parse_polynomial.  monomials is _format_terms' table; a
    caller that writes many polynomials under one ordering shares one."""
    return _format_terms(poly.terms, ordering, monomials)


def format_dehomogenized(form, ordering=Ordering.GRLEX_LEFT, monomials=None):
    """format_polynomial of form(1, x1, ..., xn), with x1..xn renamed
    x0..x{n-1}, for a form (a homogeneous polynomial) in x0..xn.  Its terms
    have one degree, so no two share the exponents of x1..xn, and dropping
    the x0 exponent is the substitution x0 = 1 with no terms to merge."""
    terms = {e[1:]: c for e, c in form.terms.items()}
    if len(terms) != len(form.terms):
        raise ValueError("format_dehomogenized needs a form")
    return _format_terms(terms, ordering, monomials)


def _format_terms(terms, ordering, monomials):
    """The text of a term dict (exponent -> nonzero Fraction or int), each
    coefficient written from its numerator and denominator.  monomials maps
    an exponent to its sort key under `ordering` and its factor text, such
    as "x0*x2^3" ("" for the constant); it is filled as the terms need it,
    and None stands for a new table."""
    if not terms:
        return "0"
    if monomials is None:
        monomials = {}
    for e in terms:
        if e not in monomials:
            factors = [f"x{j}" if k == 1 else f"x{j}^{k}" for j, k in enumerate(e) if k]
            monomials[e] = ordering.key(e), "*".join(factors)
    parts = []  # sorted by key alone: no two exponents share one
    for (_, x), c in sorted(zip(map(monomials.__getitem__, terms), terms.values()),
                            reverse=True):
        num, den = c.numerator, c.denominator
        if den != 1:
            x = f"{abs(num)}/{den}*{x}" if x else f"{abs(num)}/{den}"
        elif not x:
            x = str(abs(num))
        elif num != 1 and num != -1:
            x = f"{abs(num)}*{x}"
        parts.append(f"- {x}" if num < 0 else f"+ {x}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]
