"""Combinatorial counts, C^k norms of polynomials, and the determinant
estimate that drives the method.

Float arithmetic here is only ever used for *bounds*, rounded outward one
ulp per step; determinant_bound's math.lgamma term is the one exception, as
its docstring says.  Exact big-rational evaluation is available
for small instances via the ``*_exact`` variants.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import InputError
from .ideals import monomials_of_degree
from .polynomials import Polynomial


def _up(x):
    """Round a float up by one ulp (toward +inf)."""
    return math.nextafter(x, math.inf)


def float_up(x):
    """The least double >= the rational x (an int, Fraction or float)."""
    f = float(x)
    return _up(f) if f < x else f


def finite_double(x):
    """Whether float_up(x) is a finite double: x is a number, not NaN, no
    larger than the largest double."""
    try:
        return math.isfinite(float_up(x))
    except OverflowError:  # an int or Fraction beyond the doubles
        return False


def L(m, k):
    """Number of m-variate multi-indices of total degree exactly k."""
    if m < 1 or k < 0:
        raise InputError("need m >= 1 and k >= 0")
    return math.comb(k + m - 1, m - 1)


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
    e = sum_{i<nu} i L_m(i) + nu (mu - D_m(nu-1))."""
    if mu < 1:
        raise InputError("mu must be >= 1")
    nu = 0
    while D(m, nu) < mu:
        nu += 1
    if not D(m, nu - 1) <= mu <= D(m, nu):
        raise AssertionError(f"choose_nu: no nu brackets mu={mu} for m={m}")
    e = sum(i * L(m, i) for i in range(nu)) + nu * (mu - D(m, nu - 1))
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
        if not all(map(finite_double, norms)):
            raise InputError("norms must be finite doubles")
        if any(Fraction(n) < 0 for n in norms):
            raise InputError("norms must be nonnegative")
        if not (0 < Fraction(r) < 1):
            raise InputError("r must lie in (0,1)")
        return super().__new__(cls, mu, m, norms, r)


def determinant_bound(inp):
    """Natural log of the bound mu! D_m(nu)^mu prod(norms) r^e.  Each step
    after the first is rounded one ulp outward, but math.lgamma(mu + 1) can
    be up to 3.2 ulps off (below log 2 at mu = 2), so one ulp up does not
    always cover it: the result can understate the bound (ROADMAP item 9).
    -inf if some norm is zero (flagged by the caller via math.isinf)."""
    budget = choose_nu(inp.mu, inp.m)
    if any(Fraction(n) == 0 for n in inp.norms):
        return -math.inf
    log_total = _up(math.lgamma(inp.mu + 1))
    log_total = _up(log_total + _up(inp.mu * _up(math.log(D(inp.m, budget.nu)))))
    for n in inp.norms:
        log_total = _up(log_total + _up(math.log(float_up(n))))
    # r < 1, so log r < 0: rounding the log toward 0 keeps the bound an
    # overestimate after multiplying by e
    log_r = _up(math.log(float_up(inp.r)))
    log_total = _up(log_total + budget.e * log_r)
    return log_total


def determinant_bound_exact(inp):
    """The same bound as an exact Fraction (norms and r must be rational)."""
    budget = choose_nu(inp.mu, inp.m)
    total = Fraction(math.factorial(inp.mu)) * Fraction(D(inp.m, budget.nu)) ** inp.mu
    for n in inp.norms:
        total *= Fraction(n)
    total *= Fraction(inp.r) ** budget.e
    return total


class ExponentComparison(namedtuple("ExponentComparison", "finite limit")):
    """finite: m*sigma_i/f at the given delta, exact Fractions; limit:
    (m+1) a_i / d^(1/m), floats."""

    __slots__ = ()


def asymptotic_exponents(sigma, f, d, m, a):
    """Per-coordinate height exponents: the measured finite-delta ratios
    m*sigma_i/f next to the limiting values (m+1) a_i / d^(1/m)."""
    if d < 1 or m < 1:
        raise InputError("need d >= 1 and m >= 1")
    if f == 0:
        raise InputError("degenerate instance: f = 0 (mu <= 1)")
    if any(not (0 <= Fraction(x) <= 1) for x in a):
        raise InputError("a entries must lie in [0,1]")
    finite = tuple(Fraction(m * s, f) for s in sigma)
    root = d ** (1.0 / m)
    limit = tuple((m + 1) * float(x) / root for x in a)
    return ExponentComparison(finite=finite, limit=limit)
