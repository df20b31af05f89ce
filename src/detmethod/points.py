"""Integral points of bounded height, found exactly, fibre by fibre.

Affine mode enumerates X(Z,B); projective mode enumerates one primitive,
sign-normalized representative per rational point in the box.  Both use one
integer-only solver.  A coordinate x_j is *solved* when some generator
involves x_j and only earlier variables: on each fibre (x_0..x_{j-1} fixed)
that generator is a univariate integer polynomial, whose integer roots are
isolated exactly.  Every other coordinate is *scanned*.  On each fibre its
range is narrowed by each generator that splits as p + r, every term of p in
x_j and in no later coordinate, no term of r in x_j: exact integer interval
arithmetic (Moore, 1966) encloses r over the box in [rl, rh], and x_j keeps
the values where -rh <= p <= -rl.  Every candidate is re-checked against
every generator with exact arithmetic, so the output equals that of a full
box scan.

The budget bounds the size of that full scan and is checked before any work:
the number of points in the box, with one coordinate dropped in affine mode
when a generator is linear in it with a constant coefficient.  The solver
visits far fewer candidates than this figure.

A PointSet carries the fibres solved and the seconds its enumeration took;
class_index names the class S_i of the box that a point lies in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from math import floor, gcd, inf, lcm
from time import perf_counter

from .errors import BudgetExceededError, InputError

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class HeightBox:
    """Per-coordinate height bounds B_i > 0 (rationals)."""

    bounds: tuple

    def __post_init__(self):
        bounds = tuple(Fraction(b) for b in self.bounds)
        if not bounds or any(b <= 0 for b in bounds):
            raise InputError("height bounds must be positive")
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def uniform(cls, b, n):
        return cls(tuple([b] * n))

    def ranges(self):
        return [int(floor(b)) for b in self.bounds]


@dataclass(frozen=True)
class PointSet:
    points: tuple  # integer tuples, sorted lexicographically
    box: HeightBox
    fibres: int = field(default=0, compare=False)  # univariate solves made
    seconds: float = field(default=0.0, compare=False)  # enumeration time


def require_homogeneous(ideal):
    """Projective mode runs only on a homogeneous ideal."""
    if not ideal.homogeneous:
        raise InputError("projective mode requires a homogeneous ideal")


def _check_budget(required, budget):
    if required > budget:
        raise BudgetExceededError(required, budget)


def enumerate_affine(ideal, b, budget=DEFAULT_BUDGET):
    """All integer points of the variety with |x_i| <= b, sorted."""
    start = perf_counter()
    b = Fraction(b)
    if b <= 0:
        raise InputError("height bound must be positive")
    n = ideal.num_vars
    limit = int(floor(b))
    linear = any(  # some x_k occurs in a generator only as c*x_k
        [sum(e) for e in g.terms if e[k]] == [1]
        for g in ideal.generators
        for k in range(n)
    )
    _check_budget((2 * limit + 1) ** (n - 1 if linear else n), budget)
    pts, fibres = _solve(ideal, [limit] * n, projective=False)
    box = HeightBox.uniform(b, n)
    return PointSet(pts, box, fibres, perf_counter() - start)


def enumerate_projective(ideal, box, budget=DEFAULT_BUDGET):
    """Primitive, sign-normalized integer representatives of rational points
    on the projective variety within the box."""
    start = perf_counter()
    require_homogeneous(ideal)
    n = ideal.num_vars
    if len(box.bounds) != n:
        raise InputError("box dimension must match the ambient variable count")
    limits = box.ranges()
    required = 1
    for lim in limits:
        required *= 2 * lim + 1
    _check_budget(required, budget)
    pts, fibres = _solve(ideal, limits, projective=True)
    return PointSet(pts, box, fibres, perf_counter() - start)


# -- the fibre-wise solver ---------------------------------------------------


def _solve(ideal, limits, projective):
    """(sorted points, fibres solved) of the variety in the box |x_j| <= limits[j];
    in projective mode only the primitive, sign-normalized vectors."""
    n = ideal.num_vars
    generators = _integer_generators(ideal.generators)
    solvers = [[] for _ in range(n)]  # generators whose last variable is x_j
    for terms in generators:
        used = [i for i in range(n) if any(e[i] for e, _ in terms)]
        if not used:
            return (), 0  # a nonzero constant: the variety is empty
        solvers[used[-1]].append(terms)
    splits = [  # the p + r splits that narrow each scanned coordinate
        [] if solvers[j] else [s for t in generators if (s := _split(t, j, limits))]
        for j in range(n)
    ]

    point = [0] * n
    found = []
    fibres = 0

    def visit(j):
        nonlocal fibres
        if j == n:
            vec = tuple(point)
            if projective and not _is_representative(vec):
                return
            if all(h.evaluate(vec) == 0 for h in ideal.generators):
                found.append(vec)
            return
        # a representative's first nonzero coordinate is positive
        low = 0 if projective and not any(point[:j]) else -limits[j]
        domain = [(low, limits[j])]
        if solvers[j]:
            fibres += 1
            values = _solve_fibre(solvers[j], point, j, domain)
        else:
            for split in splits[j]:
                domain = _narrow(split, point, j, domain)
            values = _scan(domain)
        for v in values:
            point[j] = v
            visit(j + 1)

    visit(0)
    found.sort()
    return tuple(found), fibres


def _integer_generators(generators):
    """Each generator as (exponent, int) terms, its denominators cleared."""
    out = []
    for g in generators:
        scale = lcm(*(c.denominator for c in g.terms.values()))
        out.append([(e, int(c * scale)) for e, c in g.terms.items()])
    return out


def _split(terms, j, limits):
    """The generator as p + r for narrowing x_j, or None: p its terms in
    x_j, none of them in a later coordinate, and r the other terms, each as
    (exponent, coefficient, lo, hi) with [lo, hi] the range of its monomial
    in the later coordinates over the box."""
    p = [(e, c) for e, c in terms if e[j]]
    if not p or any(any(e[j + 1:]) for e, _ in p):
        return None
    r = []
    for e, c in terms:
        if not e[j]:
            lo = hi = 1
            for k in range(j + 1, len(e)):
                if e[k]:
                    a, b = _power(-limits[k], limits[k], e[k])
                    ends = (lo * a, lo * b, hi * a, hi * b)
                    lo, hi = min(ends), max(ends)
            r.append((e, c, lo, hi))
    return p, r


def _power(low, high, k):
    """The exact range of x^k over the integers x in [low, high]."""
    if k % 2 == 0 and low < 0 < high:
        return 0, max(low**k, high**k)
    return min(low**k, high**k), max(low**k, high**k)


def _narrow(split, point, j, domain):
    """The values of x_j in `domain` where p = -r has a solution on the
    fibre point[:j], given r's enclosure [rl, rh] over the later box."""
    p, r = split
    rl = rh = 0
    for e, c, lo, hi in r:
        for i in range(j):
            if e[i]:
                c *= point[i] ** e[i]
        a, b = (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)
        rl += a
        rh += b
    coeffs = _restrict(p, point, j)
    if not coeffs:  # p vanishes on the fibre
        return domain if rl <= 0 <= rh else []
    return _where_between(coeffs, domain, -rh, -rl)


def _is_representative(vec):
    """Primitive, with its first nonzero coordinate positive."""
    first = next((v for v in vec if v != 0), None)
    return first is not None and first > 0 and gcd(*vec) == 1


def _scan(intervals):
    return chain.from_iterable(range(a, b + 1) for a, b in intervals)


def _solve_fibre(generators, point, j, domain):
    """The values of x_j in `domain` that a variety point over the fibre
    point[:j] can take: the integer roots of the first generator that does
    not vanish on the fibre, or all of `domain` if every generator does."""
    for terms in generators:
        coeffs = _restrict(terms, point, j)
        if not coeffs:
            continue
        if len(coeffs) == 1:
            return []  # a nonzero constant: no point on this fibre
        return integer_roots(coeffs, domain)
    return _scan(domain)


def _restrict(terms, point, j):
    """The generator on the fibre point[:j], as its coefficients of 1, x_j,
    x_j^2, ... without trailing zeros."""
    coeffs = [0] * (1 + max(e[j] for e, _ in terms))
    for e, c in terms:
        for i in range(j):
            if e[i]:
                c *= point[i] ** e[i]
        coeffs[e[j]] += c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# -- exact integer root isolation ----------------------------------------------


def integer_roots(coeffs, intervals):
    """Sorted integer roots inside `intervals` (sorted, disjoint, inclusive
    (lo, hi) pairs) of a nonconstant integer polynomial, given as its
    coefficients of 1, x, x^2, ... with a nonzero leading one."""
    if len(coeffs) == 2:
        x, rem = divmod(-coeffs[0], coeffs[1])
        inside = any(lo <= x <= hi for lo, hi in intervals)
        return [x] if rem == 0 and inside else []
    return list(_scan(_where_between(coeffs, intervals, 0, 0)))


def _where_between(coeffs, intervals, low, high):
    """The sorted integer sub-intervals of `intervals` on which
    low <= p(x) <= high."""
    p, below = [], 0  # p in the (c, g) form of _evaluate
    for e, c in enumerate(coeffs):
        if c:
            p.append((c, e - below))
            below = e
    p.reverse()
    out = []
    for lo, hi in intervals:
        for a, b in _monotone_pieces(p, lo, hi):
            first, last = _level_set(p, a, b, low, high)
            if first <= last:
                out.append((first, last))
    return out


def _monotone_pieces(p, lo, hi):
    """Consecutive integer intervals partitioning [lo, hi], with p monotone on
    the real hull of each.  They cut [lo, hi] where p' changes sign, which a
    binary search brackets to integers on each monotone piece of p'.  The
    pieces are found from the deepest nonconstant derivative up, so no degree
    deepens the stack, and a sparse p has a sparse derivative chain."""
    chain = [p]  # p, p', p'', ... down to degree 1; the degree is the sum of gaps
    for _ in range(sum(g for _, g in p) - 1):
        chain.append(_derivative(chain[-1]))
    pieces = [(lo, hi)]
    for slope in reversed(chain[1:]):
        finer = []
        for a, b in pieces:
            # p' is monotone and nonconstant on [a, b], so {p' >= 0} is a
            # prefix or a suffix of it, and p is monotone on it and on the rest
            first, last = _level_set(slope, a, b, 0, inf)
            cuts = ((a, first - 1), (first, last), (last + 1, b))
            finer.extend((s, t) for s, t in cuts if s <= t)
        pieces = finer
    return pieces


def _derivative(p):
    """p' in the (c, g) form of _evaluate.  Each c*x^e becomes e*c*x^(e-1),
    so every gap stays, except that of the new lowest term, which drops by
    one; a constant term drops out."""
    out, e = [], 0
    for c, g in reversed(p):
        e += g
        if e:
            out.append((e * c, g if out else g - 1))
    out.reverse()
    return out


def _evaluate(p, x):
    """p(x) by Horner's rule, for p given as its nonzero terms c*x^e, highest
    power first, each as (c, g) with g = e minus the next lower exponent (e
    itself for the last term): one power of x per run of zero coefficients."""
    v = 0
    for c, g in p:
        v = (v + c) * x**g if g else v + c
    return v


def _level_set(p, a, b, low, high):
    """(first, last): the integers x in [a, b] with low <= p(x) <= high form
    [first, last] (empty if first > last), for p monotone on [a, b]."""
    key = partial(_evaluate, p)
    if key(a) > key(b):  # decreasing: search -p for -high <= -p(x) <= -low
        key = partial(_evaluate, [(-c, g) for c, g in p])
        low, high = -high, -low
    xs = range(a, b + 1)
    return a + bisect_left(xs, low, key=key), a + bisect_right(xs, high, key=key) - 1


def class_index(point, box):
    """Smallest i attaining max_j |x_j|/B_j, compared exactly and without a
    Fraction: with B_j = p_j/q_j, |x_i|/B_i > |x_j|/B_j iff
    |x_i|*q_i*p_j > |x_j|*q_j*p_i."""
    best, best_num, best_den = 0, -1, 1
    for i, (x, b) in enumerate(zip(point, box.bounds)):
        num, den = abs(x) * b.denominator, b.numerator
        if num * best_den > best_num * den:
            best, best_num, best_den = i, num, den
    return best


def tau_normalize(point, box):
    """Coordinate-wise exact division by the height bounds; lands in
    [-1,1]^(n+1) for in-box points."""
    if len(point) != len(box.bounds):
        raise InputError("dimension mismatch")
    out = tuple(Fraction(x) / b for x, b in zip(point, box.bounds))
    if any(abs(v) > 1 for v in out):
        raise ValueError(f"point {point} lies outside the box")
    return out
