"""Integral points of bounded height, found exactly, fibre by fibre.

Affine mode enumerates X(Z,B); projective mode enumerates one primitive,
sign-normalized representative per rational point in the box.  Both use one
integer-only solver with one narrowing rule: on each fibre (x_0..x_{j-1}
fixed), x_j is narrowed by the generators that split as p + r, every term of
p in x_j and in no later coordinate, no term of r in x_j.  Exact integer
interval arithmetic (Moore, 1966) encloses r over the box in [rl, rh], and
x_j keeps the values where -rh <= p <= -rl.  An *exact* split, where r has no
later coordinate either, has rl = rh and keeps the integer roots of the
generator on the fibre; x_j is narrowed by its exact splits if it has any,
else by all of its splits.  Every candidate is re-checked against every
generator with exact arithmetic, so the output equals that of a full scan.

The budget bounds the size of that full scan and is checked before any work:
the number of points in the box, with one coordinate dropped in affine mode
when a generator is linear in it with a constant coefficient.  The solver
visits far fewer candidates than this figure.

A PointSet carries its fibres (visits to a coordinate with an exact split)
and the seconds its enumeration took; class_index names the class S_i of the
box that a point lies in.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain
from math import floor, gcd, inf, lcm
from time import perf_counter

from .errors import BudgetExceededError, InputError

DEFAULT_BUDGET = 10**9


class HeightBox(namedtuple("HeightBox", "bounds")):
    """Per-coordinate height bounds B_i > 0 (rationals), kept as Fractions."""

    __slots__ = ()

    def __new__(cls, bounds):
        bounds = tuple(Fraction(b) for b in bounds)
        if not bounds or any(b <= 0 for b in bounds):
            raise InputError("height bounds must be positive")
        return super().__new__(cls, bounds)

    @classmethod
    def uniform(cls, b, n):
        return cls(tuple([b] * n))

    def ranges(self):
        return [int(floor(b)) for b in self.bounds]


class PointSet(namedtuple("PointSet", "points box fibres seconds", defaults=(0, 0.0))):
    """The points (integer tuples, sorted lexicographically) in the box, with
    the fibres (see the module docstring) and seconds of their enumeration.
    Two PointSets are equal, and hash equal, when their points and boxes are:
    fibres and seconds describe the run, not the set."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, PointSet) and self[:2] == other[:2]

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's own

    def __hash__(self):
        return hash(self[:2])


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
    """(sorted points, fibres) of the variety in the box |x_j| <= limits[j];
    in projective mode only the primitive, sign-normalized vectors."""
    n = ideal.num_vars
    generators = _integer_generators(ideal.generators)
    last = []  # each generator's last variable
    for terms in generators:
        used = [i for i in range(n) if any(e[i] for e, _ in terms)]
        if not used:
            return (), 0  # a nonzero constant: the variety is empty
        last.append(used[-1])
    solved = [j in last for j in range(n)]  # x_j has an exact split
    plan = [  # the exact splits of x_j if it has any, else all of its splits
        [s for terms, k in zip(generators, last)
         if (k == j or not solved[j]) and (s := _split(terms, j, limits))]
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
        fibres += solved[j]
        for split in plan[j]:
            domain = _narrow(split, point, domain)
            if not domain:
                return
        for v in _scan(domain):
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
    """(degree of p, terms): the generator as p + r for narrowing x_j, or
    None; p its terms in x_j, none in a later coordinate.  A term c*x^e is
    (e_j, c, the (i, e_i) of earlier i with e_i > 0, lo, hi), with [lo, hi]
    the range of its monomial in the later coordinates over the box."""
    degree = max(e[j] for e, _ in terms)
    if not degree or any(e[j] and any(e[j + 1:]) for e, _ in terms):
        return None
    out = []
    for e, c in terms:
        lo = hi = 1
        for k in range(j + 1, len(e)):
            if e[k]:
                a, b = _power(-limits[k], limits[k], e[k])
                ends = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(ends), max(ends)
        earlier = tuple((i, e[i]) for i in range(j) if e[i])
        out.append((e[j], c, earlier, lo, hi))
    return degree, out


def _power(low, high, k):
    """The exact range of x^k over the integers x in [low, high]."""
    if k % 2 == 0 and low < 0 < high:
        return 0, max(low**k, high**k)
    return min(low**k, high**k), max(low**k, high**k)


def _narrow(split, point, domain):
    """The values of x_j in `domain` where p = -r has a solution on the
    fibre point[:j]; one pass restricts p to the fibre and encloses r in
    [rl, rh] over the later box."""
    degree, terms = split
    coeffs = [0] * (degree + 1)
    rl = rh = 0
    for k, c, earlier, lo, hi in terms:
        for i, e in earlier:
            c *= point[i] ** e
        if k:
            coeffs[k] += c
        elif c >= 0:
            rl += c * lo
            rh += c * hi
        else:
            rl += c * hi
            rh += c * lo
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:  # p vanishes on the fibre
        return domain if rl <= 0 <= rh else []
    return _where_between(coeffs, domain, -rh, -rl)


def _is_representative(vec):
    """Primitive, with its first nonzero coordinate positive."""
    first = next((v for v in vec if v != 0), None)
    return first is not None and first > 0 and gcd(*vec) == 1


def _scan(intervals):
    return chain.from_iterable(range(a, b + 1) for a, b in intervals)


# -- exact integer level sets --------------------------------------------------


def _where_between(coeffs, intervals, low, high):
    """The sorted integer sub-intervals of `intervals` (sorted, disjoint,
    inclusive (lo, hi) pairs) on which low <= p(x) <= high, for p an integer
    polynomial of positive degree given as its coefficients of 1, x, x^2, ...
    with a nonzero leading one."""
    if len(coeffs) == 2:  # c0 + c1*x: x runs from ceil((low - c0) / c1) to
        c0, c1 = coeffs  # floor((high - c0) / c1), for c1 > 0
        if c1 < 0:
            c0, c1, low, high = -c0, -c1, -high, -low
        first, last = -((c0 - low) // c1), (high - c0) // c1
        pieces = ((max(lo, first), min(hi, last)) for lo, hi in intervals)
        return [(a, b) for a, b in pieces if a <= b]
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
    first = _search(a, b + 1, low, key, bisect_left)
    return first, _search(a, b + 1, high, key, bisect_right) - 1


def _search(a, b, x, key, find):
    """a + find(range(a, b), x, key=key), find being bisect_left or
    bisect_right.  The C bisect takes no range longer than sys.maxsize, so a
    longer one is first halved here: find on the one-element [mid] is 1
    exactly when the answer lies above mid."""
    while b - a > sys.maxsize:
        mid = (a + b) // 2
        if find([mid], x, key=key):
            a = mid + 1
        else:
            b = mid
    return a + find(range(a, b), x, key=key)


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
