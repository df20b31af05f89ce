"""Exact sparse multivariate polynomials over Q, with graded monomial orderings.

Exponent vectors are plain tuples of nonnegative ints; coefficients are
``fractions.Fraction``.  Everything is exact: no floats enter this module.
All values are treated as immutable after construction and may be shared
freely across workers.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from math import lcm
from operator import le, neg

from .errors import InputError, ParseError

Exponent = tuple  # tuple of nonnegative ints, one entry per variable


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

    __slots__ = ("terms", "num_vars", "_hash")

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
        self._hash = None

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

    @classmethod
    def monomial(cls, exp, num_vars, coeff=1):
        return cls({tuple(exp): coeff}, num_vars)

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

    def __rsub__(self, other):
        return self._promote(other) - self

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

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num_vars, frozenset(self.terms.items())))
        return self._hash

    # -- calculus / substitution ------------------------------------------

    def evaluate(self, point):
        """Exact value at a point of ints or rationals.

        The coefficients are scaled to integers by their common denominator
        D, the sum of c*D * prod x_i^k_i is formed, and D divides it once at
        the end.  At an integer point every step stays in int; rational
        coordinates go through the same lines, as int and Fraction
        arithmetic promote by themselves."""
        if len(point) != self.num_vars:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.num_vars}"
            )
        den = lcm(*(c.denominator for c in self.terms.values()))
        total = 0
        for e, c in self.terms.items():
            v = c.numerator * (den // c.denominator)
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return Fraction(total, den)

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


class _Tokenizer:
    def __init__(self, text):
        self.tokens = []
        for lineno, line in enumerate(text.splitlines() or [""], start=1):
            for m in _TOKEN.finditer(line):
                self.tokens.append((m.group(0), lineno, m.start() + 1))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def where(self):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            return line, col
        if self.tokens:
            _, line, col = self.tokens[-1]
            return line, col + 1
        return 1, 1

    def error(self, message):
        line, col = self.where()
        raise ParseError(message, line, col)


def parse_polynomial(text, num_vars):
    """Parse the text grammar: vars x0..x{num_vars-1}, integer or rational
    literals p/q, operators + - * ^, parentheses; implicit multiplication is
    a syntax error.

    Each subexpression is a dict from exponent to coefficient: the terms of a
    sum gather in one dict, a single-term base is raised to its power
    directly, and one Polynomial, which drops the zero terms, is built at the
    end."""
    tz = _Tokenizer(text)
    if tz.peek() is None:
        tz.error("empty polynomial")
    terms = _parse_expr(tz, num_vars)
    if tz.peek() is not None:
        tz.error(f"unexpected token {tz.peek()!r}")
    return Polynomial(terms, num_vars)


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


def _parse_expr(tz, num_vars):
    sign = 1
    if tz.peek() in ("+", "-"):
        tok, _, _ = tz.next()
        sign = -1 if tok == "-" else 1
    total = {}
    while True:
        for e, c in _parse_term(tz, num_vars).items():
            total[e] = total.get(e, 0) + sign * c
        if tz.peek() not in ("+", "-"):
            return total
        tok, _, _ = tz.next()
        sign = -1 if tok == "-" else 1


def _parse_term(tz, num_vars):
    p = _parse_power(tz, num_vars)
    while tz.peek() == "*":
        tz.next()
        p = _times(p, _parse_power(tz, num_vars))
    return p


def _parse_power(tz, num_vars):
    base = _parse_atom(tz, num_vars)
    if tz.peek() == "^":
        tz.next()
        tok = tz.peek()
        if tok == "-":
            tz.error("negative exponent")
        if tok is None or not tok.isdigit():
            tz.error("expected a nonnegative integer exponent")
        tz.next()
        base = _power(base, int(tok), num_vars)
    return base


def _parse_atom(tz, num_vars):
    tok = tz.peek()
    if tok is None:
        tz.error("unexpected end of input")
    if tok == "(":
        tz.next()
        p = _parse_expr(tz, num_vars)
        if tz.peek() != ")":
            tz.error("expected ')'")
        tz.next()
        return p
    if tok == "-":
        tz.next()
        return {e: -c for e, c in _parse_power(tz, num_vars).items()}
    one = (0,) * num_vars
    if tok[0].isdigit():
        tz.next()
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:
                tz.error("zero denominator")
            c = Fraction(int(num), int(den))
        else:
            c = int(tok)
        return {one: c}
    if re.fullmatch(r"x\d+", tok):
        idx = int(tok[1:])
        if idx >= num_vars:
            tz.error(f"unknown variable {tok!r} (have x0..x{num_vars - 1})")
        tz.next()
        return {one[:idx] + (1,) + one[idx + 1 :]: 1}
    tz.error(f"unexpected token {tok!r}")


def format_polynomial(poly, ordering=Ordering.GRLEX_LEFT):
    """Render with terms in descending order under `ordering`; round-trip
    stable through parse_polynomial."""
    return _format_terms(poly.terms, ordering)


def format_dehomogenized(form, ordering=Ordering.GRLEX_LEFT):
    """format_polynomial of form(1, x1, ..., xn), with x1..xn renamed
    x0..x{n-1}, for a form (a homogeneous polynomial) in x0..xn.  Its terms
    have one degree, so no two share the exponents of x1..xn, and dropping
    the x0 exponent is the substitution x0 = 1 with no terms to merge."""
    terms = {e[1:]: c for e, c in form.terms.items()}
    if len(terms) != len(form.terms):
        raise ValueError("format_dehomogenized needs a form")
    return _format_terms(terms, ordering)


def _format_terms(terms, ordering):
    """The text of a term dict (exponent -> nonzero Fraction or int), each
    coefficient written from its numerator and denominator."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=ordering.key, reverse=True):
        c = terms[e]
        num, den = c.numerator, c.denominator
        factors = [f"x{j}" if k == 1 else f"x{j}^{k}" for j, k in enumerate(e) if k]
        if den != 1:
            factors.insert(0, f"{abs(num)}/{den}")
        elif not factors or num not in (1, -1):
            factors.insert(0, str(abs(num)))
        sign = "-" if num < 0 else "+"
        parts.append(f"{sign} {'*'.join(factors)}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]
