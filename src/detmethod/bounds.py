"""Combinatorial counts, C^k norms of polynomials, and the determinant
estimate that drives the method.

The determinant bound is evaluated exactly, as a Fraction
(determinant_bound_exact); the theoretical cube side is decided from it in
integers, with iroot.  Floats appear only as outward-rounded images of
exact values: float_up (the least double not below a rational) and log_up
(an upper bound on its natural log, within a stated margin).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

from .errors import InputError
from .ideals import monomials_of_degree
from .polynomials import Polynomial


def float_up(x):
    """The least double >= the rational x (an int, Fraction or float)."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def log_up(x):
    """An upper bound on log x, for a rational x = p/q > 0 in lowest terms,
    at most 2^-39 (1 + log p + log q) above it.  math.log of an int is
    within a few ulps, past the doubles too, so log p - log q is off by far
    less than the margin 2^-40 (1 + log p + log q) added to it."""
    x = Fraction(x)
    lp, lq = math.log(x.numerator), math.log(x.denominator)
    return lp - lq + (1 + lp + lq) * 2.0**-40


def iroot(n, k):
    """floor(n^(1/k)) for ints n >= 0 and k >= 1, by integer Newton: from
    a start at or above the root the iterates fall strictly until they
    reach it."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def finite_double(x):
    """Whether float_up(x) is a finite double: x is a number, not NaN, no
    larger than the largest double."""
    try:
        return math.isfinite(float_up(x))
    except OverflowError:  # an int or Fraction beyond the doubles
        return False


def D(m, k):
    """Number of m-variate multi-indices of total degree at most k."""
    if m < 1:
        raise InputError("need m >= 1")
    if k < 0:
        return 0
    return math.comb(k + m, m)


class ExponentBudget(namedtuple("ExponentBudget", "mu m nu e")):
    """Taylor order nu and the determinant exponent e for a mu x mu block."""

    __slots__ = ()


def choose_nu(mu, m):
    """Smallest nu with D_m(nu-1) <= mu <= D_m(nu), plus the exponent
    e = sum_{i<nu} i L_m(i) + nu (mu - D_m(nu-1)).  nu is found by doubling
    and bisection, and the sum is m C(nu+m-1, m+1) (i L_m(i) = m C(i+m-1, m),
    summed by the hockey-stick identity), so a large mu costs O(log mu)
    steps."""
    if mu < 1:
        raise InputError("mu must be >= 1")
    top = 1
    while D(m, top) < mu:
        top *= 2
    nu = bisect_left(range(top + 1), mu, key=lambda k: D(m, k))
    if not D(m, nu - 1) <= mu <= D(m, nu):
        raise AssertionError(f"choose_nu: no nu brackets mu={mu} for m={m}")
    e = m * math.comb(nu + m - 1, m + 1) + nu * (mu - D(m, nu - 1))
    return ExponentBudget(mu=mu, m=m, nu=nu, e=e)


def ck_norm_bound(phi, k, box):
    """Upper bound for max over |alpha| <= k of sup |d^alpha phi| on the box.

    `box` is a list of (lo, hi) rational pairs, assumed inside [-1,1]^m.
    The bound is the coefficient-absolute-value sum of each derivative after
    affinely rescaling the box onto [-1,1]^m; it dominates the true sup.
    Returned exactly, as a Fraction.
    """
    m = phi.num_vars
    if len(box) != m:
        raise InputError("box dimension mismatch")
    subs = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise InputError("empty box")
        center = (lo + hi) / 2
        half = (hi - lo) / 2
        subs.append((center, half))

    unit = [
        Polynomial.constant(c, m) + Polynomial.variable(i, m) * h
        for i, (c, h) in enumerate(subs)
    ]
    best = Fraction(0)
    for order in range(k + 1):
        for alpha in monomials_of_degree(order, m):
            d = phi.partial_derivative(alpha)
            if d.is_zero():
                continue
            rescaled = d.substitute(unit)
            best = max(best, sum(abs(c) for c in rescaled.terms.values()))
    return best


class DetBoundInput(namedtuple("DetBoundInput", "mu m norms r")):
    """mu, m, the per-row C^nu norm bounds and the box diameter r in (0,1)."""

    __slots__ = ()

    def __new__(cls, mu, m, norms, r):
        if mu < 1 or m < 1:
            raise InputError("mu and m must be >= 1")
        if len(norms) != mu:
            raise InputError("need exactly mu norms")
        try:
            negative = any(Fraction(n) < 0 for n in norms)
        except (OverflowError, ValueError):  # an infinity or a NaN
            raise InputError("norms must be finite rationals") from None
        if negative:
            raise InputError("norms must be nonnegative")
        if not (0 < Fraction(r) < 1):
            raise InputError("r must lie in (0,1)")
        return super().__new__(cls, mu, m, norms, r)


def determinant_bound_exact(inp):
    """The bound mu! D_m(nu)^mu prod(norms) r^e as an exact Fraction, for
    inp = (mu, m, norms, r): a DetBoundInput, or any such tuple of
    rationals, unchecked (the theoretical strategy's r = 1 and norms past
    the doubles).  It is 0 when some norm is."""
    mu, m, norms, r = inp
    budget = choose_nu(mu, m)
    total = Fraction(math.factorial(mu)) * Fraction(D(m, budget.nu)) ** mu
    for n in norms:
        total *= Fraction(n)
    total *= Fraction(r) ** budget.e
    return total

