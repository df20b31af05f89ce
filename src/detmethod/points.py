"""Integral points of bounded height, found exactly, fibre by fibre.

Affine mode enumerates X(Z,B); projective mode enumerates one primitive,
sign-normalized representative per rational point in the box.  Both use one
integer-only solver that visits the coordinates in an order, x_0, x_1, ...
unless the divisor route below reorders them, with one narrowing rule: on
each fibre (the coordinates visited before x_j fixed), x_j is narrowed by the
generators that split as p + r, every term of p in x_j and in no coordinate
visited later, no term of r in x_j.  Exact integer interval arithmetic
(Moore, 1966) encloses r over the box in [rl, rh], and x_j keeps the values
where -rh <= p <= -rl.  An *exact* split, where r has no later coordinate
either, has rl = rh and keeps the integer roots of the generator on the
fibre; x_j is narrowed by its exact splits if it has any, else by all of its
splits.  Every candidate is re-checked against every generator with exact
arithmetic, so the output equals that of a full scan.  A representative's
first nonzero coordinate is positive, so x_j >= 0 where x_0..x_{j-1} are
all fixed and zero; the primitive, sign-normalized check is made at the
leaf, in the coordinates' own order.

The budget bounds the scan the solver plans for the order x_0, x_1, ... and
is checked before the first fibre: the product over the coordinates of
2*L_j + 1, the values with |x_j| <= L_j, or of d where that is smaller and
x_j has an exact split of degree d whose every term of degree d in x_j is
c*x_j^d, free of earlier coordinates.  That split is then a nonzero
polynomial of degree d on every fibre, with at most d integer roots.

Divisor route.  A generator c*x_i*x_j + c2*x^a, with i < j and x^a free of
x_i and x_j (the conic x0*x2 - x1^2, each twisted-cubic generator, the Segre
quadric x0*x3 - x1*x2), gives x_i no split, as its term x_i*x_j has the later
x_j.  The route visits the coordinates up to the last one of x^a first (x_i
and x_j left out), then x_i, then x_j, then the rest.  On a fibre that fixes
x^a, x_i*x_j = N = -c2*x^a/c: there is no point where c does not divide
c2*x^a; where N = 0, x_i runs over its narrowed domain, x_j = 0 where
x_i != 0 and x_j is narrowed by its splits where x_i = 0; else x_i runs over
the signed divisors d of N in its narrowed domain with |N/d| <= L_j, and
x_j = N/d, the one root of the generator's exact linear split.  x_j's other
splits are not applied to such a pair: the leaf re-check stands in for them.
The divisors come from N's factorisation by a smallest-prime-factor sieve up
to the largest L of x_i and x^a, built after the budget check.  A fibre's
values of x_i are among those the scan of x_i would visit, and the route is
taken only where the planned scan of its order is at most the one of x_0,
x_1, ... that the budget counts, which so still bounds the leaves, and
where that largest L is at most SIEVE_LIMIT.  Of several such generators,
the route takes the one whose coordinates visited before x_i span the
fewest values.  (The saddle x2 - x0*x1 keeps the order x0, x1, x2: visited
first, x2 would lose its exact split of one root.)

A PointSet carries its points and fibres (visits to a coordinate with an
exact split in the visiting order, each (x_i, x_j) pair the route sets
counting as one visit to x_j); class_index names the class S_i of a box,
given by its weights, that a point lies in.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain
from math import floor, gcd, inf, isqrt, lcm, prod

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

    def weights(self):
        """Integers w_j with |x_j|/B_j = |x_j|*w_j/W for all x: with B_j =
        p_j/q_j and W the lcm of the p_j, w_j = q_j*W/p_j."""
        whole = lcm(*(b.numerator for b in self.bounds))
        return tuple(b.denominator * whole // b.numerator for b in self.bounds)


class PointSet(namedtuple("PointSet", "points fibres", defaults=(0,))):
    """The points (integer tuples, sorted lexicographically) in the box, with
    the fibres of their enumeration (see the module docstring)."""

    __slots__ = ()


def require_homogeneous(ideal):
    """Projective mode runs only on a homogeneous ideal."""
    if not ideal.homogeneous:
        raise InputError("projective mode requires a homogeneous ideal")


def enumerate_affine(ideal, b, budget=DEFAULT_BUDGET):
    """All integer points of the variety with |x_i| <= b, sorted."""
    b = Fraction(b)
    if b <= 0:
        raise InputError("height bound must be positive")
    n = ideal.num_vars
    return PointSet(*_solve(ideal, [int(floor(b))] * n, budget, projective=False))


def enumerate_projective(ideal, box, budget=DEFAULT_BUDGET):
    """Primitive, sign-normalized integer representatives of rational points
    on the projective variety within the box."""
    require_homogeneous(ideal)
    if len(box.bounds) != ideal.num_vars:
        raise InputError("box dimension must match the ambient variable count")
    return PointSet(*_solve(ideal, box.ranges(), budget, projective=True))


# -- the fibre-wise solver ---------------------------------------------------


def _solve(ideal, limits, budget, projective):
    """(sorted points, fibres) of the variety in the box |x_j| <= limits[j];
    in projective mode only the primitive, sign-normalized vectors.  Raises
    BudgetExceededError before the first fibre if the planned scan (see the
    module docstring) exceeds the budget."""
    n = ideal.num_vars
    generators = _integer_generators(ideal.generators)
    if any(not any(any(e) for e, _ in terms) for terms in generators):
        return (), 0  # a nonzero constant: the variety is empty
    steps, required = _plan(generators, range(n), limits)
    if required > budget:
        raise BudgetExceededError(required, budget)
    steps, at, route = _route(generators, limits, required) or (steps, n, None)

    point = [0] * n
    found = []
    fibres = 0

    def visit(t):
        nonlocal fibres
        if t == n:
            vec = tuple(point)
            if projective and not _is_representative(vec):
                return
            if all(h.evaluate(vec) == 0 for h in ideal.generators):
                found.append(vec)
            return
        j, solved, splits, first = steps[t]
        # a representative's first nonzero coordinate is positive
        low = 0 if projective and first and not any(point[:j]) else -limits[j]
        domain = [(low, limits[j])]
        fibres += solved
        for split in splits:
            domain = _narrow(split, point, domain)
            if not domain:
                return
        if t == at:  # x_i, then x_j = N/x_i where x_i != 0 (see _divisor_pairs)
            pairs, domain = _divisor_pairs(route, point, domain)
            fibres += len(pairs)  # each pair solves x_j
            for point[j], point[steps[t + 1][0]] in pairs:
                visit(t + 2)
        for v in _scan(domain):
            point[j] = v
            visit(t + 1)

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


def _plan(generators, order, limits):
    """(steps, the planned scan) for visiting the coordinates in `order`.  A
    step is (j, whether x_j has an exact split, the splits that narrow x_j,
    whether every x_i with i < j is fixed before x_j); the exact splits of
    x_j if it has any, else all of its splits."""
    rank = {j: t for t, j in enumerate(order)}
    last = [max(rank[j] for e, _ in terms for j, a in enumerate(e) if a)
            for terms in generators]  # each generator's last position
    steps, required = [], 1
    for t, j in enumerate(order):
        solved = t in last
        before, after = order[:t], order[t + 1:]
        splits = [s for terms, k in zip(generators, last) if (k == t or not solved)
                  and (s := _split(terms, j, before, after, limits))]
        # x_j takes at most d values on a fibre if it has an exact split of
        # degree d whose terms of degree d are all c*x_j^d
        roots = [d for d, terms in splits if solved and not any(
            k == d and earlier for k, _, earlier, _, _ in terms)]
        required *= min([2 * limits[j] + 1, *roots])
        steps.append((j, solved, splits, all(rank[i] < t for i in range(j))))
    return steps, required


def _split(terms, j, before, after, limits):
    """(degree of p, terms): the generator as p + r for narrowing x_j, or
    None; p its terms in x_j, none in a coordinate of `after` (those visited
    after x_j).  A term c*x^e is (e_j, c, the (i, e_i) of i in `before` with
    e_i > 0, lo, hi), with [lo, hi] the range of its monomial in the
    coordinates of `after` over the box."""
    out = []
    for e, c in terms:
        lo = hi = 1
        for k in after:
            if e[k]:
                if e[j]:
                    return None
                a, b = _power(-limits[k], limits[k], e[k])
                ends = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(ends), max(ends)
        out.append((e[j], c, tuple((i, e[i]) for i in before if e[i]), lo, hi))
    degree = max(term[0] for term in out)
    return (degree, out) if degree else None


# -- divisor fibres ------------------------------------------------------------

# The largest L_k the divisor route factors over; its sieve takes one list
# slot per integer up to that height.
SIEVE_LIMIT = 1 << 20


def _route(generators, limits, required):
    """(steps, position of x_i, route) of the divisor route (see the module
    docstring), or None where no generator c*x_i*x_j + c2*x^a, with i < j and
    x^a free of x_i and x_j, has an order whose planned scan is at most
    `required` and heights within SIEVE_LIMIT.  Of those that do, it takes
    the one whose coordinates visited before x_i span the fewest values,
    the first on ties.  The route is (c, c2, the (k, a_k) of x^a, the
    primes p <= L_i of c2, the smallest-prime-factor sieve, L_i, L_j)."""
    n = len(limits)
    candidates = []
    for terms in generators:
        for (e, c), (f, c2) in (terms, terms[::-1]) if len(terms) == 2 else ():
            pair = [k for k in range(n) if e[k]]
            if sum(e) != 2 or len(pair) != 2 or any(f[k] for k in pair):
                continue
            monomial = [(k, a) for k, a in enumerate(f) if a]
            top = max((k for k, _ in monomial), default=-1)
            outer = [k for k in range(n) if k <= top and k not in pair]
            order = outer + pair + [k for k in range(n) if k > top and k not in pair]
            size = prod(2 * limits[k] + 1 for k in outer)
            candidates.append(
                (size, len(candidates), order, len(outer), c, c2, monomial))
    for *_, order, at, c, c2, monomial in sorted(candidates):
        i, j = order[at], order[at + 1]
        sieve = max(limits[k] for k in (i, *(k for k, _ in monomial)))
        if sieve > SIEVE_LIMIT:
            continue
        steps, planned = _plan(generators, order, limits)
        if planned <= required:
            spf = _smallest_prime_factors(sieve)
            primes = [p for p in range(2, min(limits[i], abs(c2)) + 1)
                      if not spf[p] and not c2 % p]
            return steps, at, (c, c2, monomial, primes, spf, limits[i], limits[j])
    return None


def _smallest_prime_factors(limit):
    """spf with spf[x] the smallest prime factor of x for a composite
    x <= limit, and 0 for a prime (or for 0 and 1)."""
    spf = [0] * (limit + 1)
    small = [p for p in range(2, isqrt(limit) + 1)
             if all(p % q for q in range(2, isqrt(p) + 1))]
    for p in reversed(small):  # a smaller prime overwrites a larger one
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def _divisor_pairs(route, point, domain):
    """(pairs, rest) on a fibre that fixes x^a, for x_i in `domain`, where
    c*x_i*x_j = -c2*x^a forces x_i*x_j = N = -c2*x^a/c.  The pairs are
    (x_i, x_j = N/x_i) for x_i != 0: for the signed divisors x_i of N with
    |N/x_i| <= L_j, none where c does not divide c2*x^a, and every nonzero
    x_i where N = 0.  The rest is [(0, 0)] where N = 0 and x_i = 0 lies in
    `domain`, x_j then being free on the fibre, and else empty."""
    c, c2, monomial, primes, spf, limit, far = route
    num = c2
    for k, a in monomial:
        num *= point[k] ** a
    if not num:
        zero = any(a <= 0 <= b for a, b in domain)
        return [(v, 0) for v in _scan(domain) if v], [(0, 0)] if zero else []
    target, remainder = divmod(-num, c)
    if remainder:
        return [], []
    size = m = abs(target)  # |N|
    found = set(primes)  # N's primes up to L_i, from c2 and x^a
    for k, _ in monomial:
        x = abs(point[k])
        while x > 1:
            p = spf[x] or x
            found.add(p)
            x //= p
    divisors = [1]
    for p in found:
        step = divisors
        while not m % p:
            m //= p
            step = [d * p for d in step if d * p <= limit]
            divisors += step
    low, high = domain[0][0], domain[-1][1]
    pairs = [(v, target // v) for d in divisors if d * far >= size
             for v in (-d, d) if low <= v <= high]
    if len(domain) > 1:
        pairs = [(v, w) for v, w in pairs if any(a <= v <= b for a, b in domain)]
    return pairs, []


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
    for v in vec:
        if v:
            return v > 0 and gcd(*vec) == 1
    return False


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


def class_index(point, weights):
    """Smallest i attaining max_j |x_j|/B_j, compared exactly as the
    integers |x_j|*w_j, (w_j) = box.weights(), read once for the points of
    a tally."""
    scaled = [abs(x) * w for x, w in zip(point, weights)]
    return scaled.index(max(scaled))
