"""Leading-term ideals, staircases and Hilbert-function machinery.

Groebner bases are computed with Buchberger's algorithm (normal selection
strategy, final interreduction, deterministic ordering of generators and
output).  Every basis is the full reduced one, and the pipelines build one
per ideal and ordering.  HF, sigma_i, a_i, mu, m, d and the ordering bound
are read in closed form off multigraded Hilbert series numerators kept on
the basis: HF(s) and every sigma_i(s) in one integer pass per degree
(_series), and the a_i become Fractions only where they are returned;
M(delta), the degree-delta monomials that no leading monomial
divides, is listed only for the monomial matrix.  An affine ideal keeps one
basis of I^h per ordering (homogenized_basis); the grlex-left one is its
affine grlex-left basis homogenized, and affine_ordering_bound reads the
section J = I^h + (x0) off LT(I^h) + (x0), so an affine ideal needs one
Buchberger run under grlex-left.  No kept basis refers back to the object
that keeps it, so dropping the ideal frees them at once, without the cycle
collector.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, sub

from .errors import DegenerateIdealError, InputError
from .polynomials import Ordering, Polynomial, divides


class Ideal:
    """A finitely generated ideal, given by nonzero generators.  It is not
    changed after construction: the generators are a tuple, so the bases
    homogenized_basis keeps on it cannot go stale."""

    def __init__(self, generators, num_vars):
        generators = list(generators)
        if not generators:
            raise InputError("ideal needs at least one generator")
        for g in generators:
            if not isinstance(g, Polynomial) or g.num_vars != num_vars:
                raise InputError("generators must be polynomials in num_vars variables")
            if g.is_zero():
                raise InputError("zero polynomial is not allowed as a generator")
        self.generators = tuple(generators)
        self.num_vars = num_vars
        self.homogeneous = all(g.is_homogeneous() for g in generators)
        # homogenized_basis: ordering -> full basis of I^h
        self._homogenized_bases = {}

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens, {self.num_vars} vars)"


class GroebnerBasis:
    def __init__(self, ideal, ordering, basis):
        self.ideal = ideal
        self.ordering = ordering
        self.basis = basis
        self.leading_monomials = [g.leading_monomial(ordering) for g in basis]

    @property
    def num_vars(self):
        return self.ideal.num_vars

    @cached_property
    def numerator(self):
        """N(u) for S/LT(I) as (a, |a|, c_a) triples, c_a != 0."""
        terms = _hilbert_numerator(self.leading_monomials).items()
        return [(a, sum(a), c) for a, c in terms if c]

    @cached_property
    def section(self):
        """The numerator {a: c_a} of S/(LT(I) + (x0))."""
        x0 = (1,) + (0,) * (self.num_vars - 1)
        return _hilbert_numerator(self.leading_monomials + [x0])

    @cached_property
    def dimension_degree(self):
        """The dimension m and degree d of the projective variety of a
        homogeneous ideal, read from the Hilbert series K(t)/(1-t)^n of
        S/LT(I), K(t) = N(t, ..., t): (1-t) is divided out of K while
        K(1) = 0, and then m is the remaining power minus 1 and d = K(1).
        An empty variety (the Hilbert polynomial is 0) gives (-1, 0)."""
        k = [0] * (1 + max((deg for _, deg, _ in self.numerator), default=0))
        for _, deg, c in self.numerator:
            k[deg] += c
        power = self.num_vars
        while power and any(k) and sum(k) == 0:
            k = list(accumulate(k))[:-1]  # K(t) / (1-t)
            power -= 1
        if power == 0 or not any(k):
            return DimensionDegree(-1, 0)
        return DimensionDegree(power - 1, sum(k))


def _sort_key(ordering):
    return lambda g: (ordering.key(g.leading_monomial(ordering)), sorted(g.terms))


def _s_terms(f, lmf, g, lmg):
    """The S-polynomial x^(L-lmf) f - x^(L-lmg) g of the monic f and g, L
    the lcm of their leading monomials, as one term dict: the two leading
    terms cancel and are never formed."""
    lcm = tuple(map(max, lmf, lmg))
    sf = tuple(map(sub, lcm, lmf))
    sg = tuple(map(sub, lcm, lmg))
    work = {tuple(map(add, e, sf)): c for e, c in f.terms.items() if e != lmf}
    for e, c in g.terms.items():
        if e != lmg:
            e = tuple(map(add, e, sg))
            c = work.get(e, 0) - c
            if c:
                work[e] = c
            else:
                del work[e]
    return work


def _reduce(work, basis, lms, ordering):
    """The remainder of the term dict `work` on division by (basis, lms),
    as a term dict in descending order: the division algorithm in place
    (Cox-Little-O'Shea, IVA ch. 2 sec. 3).  The leading term is popped off
    a heap of negated order keys, each computed once per monomial, and
    either q*g is subtracted from `work` term by term (g the first element
    whose leading monomial divides it) or the term moves to the remainder.
    Every term a subtraction adds lies below the popped one, so a popped
    monomial never returns; an entry whose term cancelled is skipped.
    `work` is consumed."""
    key = ordering.heap_key
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    remainder = {}
    while heap:
        lm = heapq.heappop(heap)[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        for g, lmg in zip(basis, lms):
            if divides(lmg, lm):
                q = lc / g.terms[lmg]
                shift = tuple(map(sub, lm, lmg))
                for e, c in g.terms.items():
                    if e != lmg:
                        e = tuple(map(add, e, shift))
                        c = work.get(e, 0) - q * c
                        if c:
                            work[e] = c
                            if e not in queued:
                                queued.add(e)
                                heapq.heappush(heap, (key(e), e))
                        else:
                            del work[e]
                break
        else:
            remainder[lm] = lc
    return remainder


def groebner(ideal, ordering):
    """The full reduced Groebner basis of the ideal, by Buchberger.  Each
    S-polynomial of two monic elements is formed as one term dict and
    reduced in place; only a nonzero remainder, made monic, becomes a
    Polynomial.  A remainder comes out of _reduce in descending order, so
    its first term is its leading one."""
    basis = sorted(
        (g.monic(ordering) for g in ideal.generators), key=_sort_key(ordering)
    )
    lms = [g.leading_monomial(ordering) for g in basis]
    n = ideal.num_vars

    heap = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
            if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
                continue  # coprime leading monomials: S-pair reduces to zero
            heapq.heappush(heap, (sum(lcm), counter, i, j))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        r = _reduce(
            _s_terms(basis[i], lms[i], basis[j], lms[j]), basis, lms, ordering
        )
        if r:
            lm = next(iter(r))
            lc = r[lm]
            basis.append(Polynomial({e: c / lc for e, c in r.items()}, n))
            lms.append(lm)
            push_pairs(len(basis) - 1)

    # interreduce: drop elements whose LM is divisible by another LM, then
    # fully reduce each survivor against the rest.  No kept LM divides
    # another, so a reduction leaves each LM (and its coefficient 1) in place
    # and one pass gives the reduced basis: a remainder's other terms are
    # divisible by no LM, and the LMs never change.
    keep = []
    for idx, lm in enumerate(lms):
        if any(
            divides(lms[k], lm) and k != idx and (lms[k] != lm or k < idx)
            for k in range(len(lms))
        ):
            continue
        keep.append(idx)
    reduced = [basis[k] for k in keep]
    klms = [lms[k] for k in keep]
    for idx in range(len(reduced)):
        others = reduced[:idx] + reduced[idx + 1 :]
        reduced[idx] = Polynomial(
            _reduce(
                dict(reduced[idx].terms), others,
                klms[:idx] + klms[idx + 1 :], ordering,
            ),
            n,
        )

    reduced.sort(key=_sort_key(ordering))
    return GroebnerBasis(ideal, ordering, reduced)


def normal_form(f, gb):
    """Remainder of f on division by gb; zero iff f lies in the ideal.
    When no leading monomial divides any term of f, the division algorithm
    moves every term to the remainder unchanged, so f itself is returned
    (a Polynomial is never changed, so sharing it is safe): for a
    certificate, whose support lies in M(delta), the normal form costs one
    divisibility test per term and leading monomial.  Otherwise _reduce
    divides a dict of f's terms in place, as Buchberger's reductions do."""
    if f.num_vars != gb.num_vars:
        raise InputError("variable count mismatch")
    lms = gb.leading_monomials
    if not any(divides(lm, e) for e in f.terms for lm in lms):
        return f
    return Polynomial(
        _reduce(dict(f.terms), gb.basis, lms, gb.ordering), f.num_vars
    )


def monomials_of_degree(total, nvars):
    """All exponent tuples of the given total degree (recursive stars&bars)."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in monomials_of_degree(total - first, nvars - 1):
            yield (first,) + rest


def staircase(gb, delta):
    """M(delta): the degree-delta monomials that no leading monomial divides,
    i.e. those outside LT(I) (Cox-Little-O'Shea, IVA ch. 2 sec. 5), as a
    tuple of exponent tuples sorted descending by the ordering.  Listed for
    the monomial matrix only: HF and sigma_i come from the Hilbert series,
    and certificate verification tests LT(I) membership by divisibility."""
    if delta < 0:
        raise InputError("degree must be nonnegative")
    lms = gb.leading_monomials
    exps = [
        e
        for e in monomials_of_degree(delta, gb.num_vars)
        if not any(divides(lm, e) for lm in lms)
    ]
    exps.sort(key=gb.ordering.key, reverse=True)
    return tuple(exps)


def hilbert_function(gb, s):
    """HF(s), the number of degree-s monomials outside LT(I), by _series."""
    return _series(gb, s)[0]


def all_sigmas(gb, s):
    """(sigma_0, ..., sigma_n): per-coordinate exponent sums over M(s), by
    _series."""
    return _series(gb, s)[1]


def _series(gb, s):
    """HF(s) and (sigma_0, ..., sigma_n)(s) as ints, in one walk over the
    terms c_a u^a of N(u), the numerator of the multigraded Hilbert series
    of S/LT(I), with |a| <= s.  Each term's share of HF(s) = [t^s]
    N(t)/(1-t)^n is b = c_a C(s-|a|+n-1, n-1).  u_i d/du_i of the series
    at u = (t, ..., t) is (u_i d/du_i N)(t)/(1-t)^n + N(t) t/(1-t)^(n+1),
    so sigma_i(s) adds a_i b per term, and every sigma_i the same shift,
    the sum of c_a C(s-|a|+n-1, n) = b (s-|a|)/n."""
    if s < 0:
        raise InputError("degree must be nonnegative")
    n = gb.num_vars
    hf = shift = 0
    sig = [0] * n
    for a, deg, c in gb.numerator:
        if deg <= s:
            b = c * comb(s - deg + n - 1, n - 1)
            hf += b
            shift += b * (s - deg)
            for i, ai in enumerate(a):
                if ai:
                    sig[i] += ai * b
    shift //= n
    return hf, tuple(x + shift for x in sig)


class DimensionDegree(namedtuple("DimensionDegree", "dimension degree")):
    """The dimension m and degree d of a projective variety."""

    __slots__ = ()


def _hilbert_numerator(monomials):
    """The numerator N(u) = sum c_a u^a of the multigraded Hilbert series
    N(u) / prod(1 - u_i) of S/(monomials), as {a: c_a}, by the colon
    recursion N(M + (m)) = N(M) - u^m N(M : m) (Bayer-Stillman, J. Symb.
    Comp. 1992; Cox-Little-O'Shea, IVA ch. 9 sec. 2).  Pairwise coprime
    generators end it: their N(u) is the product of the factors 1 - u^m."""
    gens = []  # the minimal generators, by degree
    for m in sorted(set(monomials), key=lambda m: (sum(m), m)):
        if not any(divides(g, m) for g in gens):
            gens.append(m)
    if all(
        not any(a and b for a, b in zip(g, h))
        for i, g in enumerate(gens)
        for h in gens[i + 1 :]
    ):
        k = {(0,) * len(gens[0]): 1}
        for g in gens:
            k = _minus_shifted(k, k, g)
        return k
    *rest, pivot = gens
    colon = [tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in rest]
    return _minus_shifted(
        _hilbert_numerator(rest), _hilbert_numerator(colon), pivot
    )


def _minus_shifted(a, b, shift):
    """a(u) - u^shift * b(u), on {exponent: coefficient} dicts."""
    out = dict(a)
    for e, c in b.items():
        e = tuple(x + y for x, y in zip(e, shift))
        out[e] = out.get(e, 0) - c
    return out


def a_estimates(gb, s):
    """Finite-s estimates a_i(s) = sigma_i(s) / (s * HF(s)), exact rationals.

    These carry O(1/s) error against the limiting values; the limit itself is
    never claimed.
    """
    if s < 1:
        raise InputError("s must be >= 1")
    hf, sigma = _series(gb, s)
    q = _a_denominator(s, hf, sigma)
    return tuple(Fraction(x, q) for x in sigma)


def _a_denominator(s, hf, sigma):
    """s * HF(s), the denominator of every a_i(s) = sigma_i(s) / (s * HF(s)),
    once HF(s) = hf > 0 and sigma_0 + ... + sigma_n = s * hf: the sigma_i sum
    the exponents of the hf standard monomials of degree s, so the a_i sum
    to 1.  The check is on ints, before any a_i is formed."""
    if hf == 0:
        raise DegenerateIdealError(f"Hilbert function vanishes at s={s}")
    q = s * hf
    if sum(sigma) != q:
        raise AssertionError(
            f"a_estimates at s={s} sum to {Fraction(sum(sigma), q)}, not 1"
        )
    return q


def homogenized_basis(affine_ideal, ordering):
    """The full basis of I^h, the homogenization with the new variable x0 in
    front, under `ordering`, kept on the affine ideal; its .ideal is I^h.  On
    forms, grlex-left is the homogenized order of grlex-left on x1..xn, so
    its basis is the affine grlex-left basis homogenized (Cox-Little-O'Shea,
    IVA ch. 8 sec. 4, Thm. 4), still reduced, monic and in groebner's order:
    the leading monomials only gain x0^0.  Other orderings run groebner on
    it.  No basis refers to the affine ideal, so the cache forms no cycle."""
    bases = affine_ideal._homogenized_bases
    if not bases:
        affine = groebner(affine_ideal, Ordering.GRLEX_LEFT).basis
        gens = [g.homogenize() for g in affine]
        ih = Ideal(gens, affine_ideal.num_vars + 1)
        bases[Ordering.GRLEX_LEFT] = GroebnerBasis(ih, Ordering.GRLEX_LEFT, gens)
    if ordering not in bases:
        bases[ordering] = groebner(bases[Ordering.GRLEX_LEFT].ideal, ordering)
    return bases[ordering]


class OrderingBoundReport(namedtuple(
    "OrderingBoundReport", "s lhs intermediate_bound limit dimension holds"
)):
    """The ordering inequality at degree s, in exact Fractions:
    lhs = (sigma_1 + ... + sigma_n)(s) / (s * HF(s)), intermediate_bound =
    sum_{t<=s} t HF_J(t) / (s * HF(s)), limit = m / (m+1), the dimension m,
    and whether lhs <= intermediate_bound holds."""

    __slots__ = ()


def affine_ordering_bound(affine_ideal, s):
    """Check, at finite s, the exact inequality behind the bound
    a_1 + ... + a_n <= m/(m+1) under the left-graded ordering.

    lhs is read off the Hilbert series of the homogenized ideal I^h, the
    intermediate bound off that of J = I^h + (x0), whose leading terms are
    LT(I^h) + (x0) since grlex-left is reverse lexicographic with x0
    smallest (Bayer-Stillman, Invent. Math. 87, 1987): J needs no basis.
    Both sides share the denominator s * HF(s), so `holds` compares their
    numerators on ints, exactly at every finite s.  A sweep over s on one
    ideal object runs Buchberger once in all and builds each numerator once.
    """
    if s < 1:
        raise InputError("s must be >= 1")
    gb = homogenized_basis(affine_ideal, Ordering.GRLEX_LEFT)
    hf, sig = _series(gb, s)
    if hf == 0:
        raise DegenerateIdealError(f"HF of homogenization vanishes at s={s}")
    q = s * hf
    lhs = sum(sig[1:])
    inter = _weighted_hf_sum(gb.section, s)
    m = gb.dimension_degree.dimension
    return OrderingBoundReport(
        s=s,
        lhs=Fraction(lhs, q),
        intermediate_bound=Fraction(inter, q),
        limit=Fraction(m, m + 1) if m >= 0 else Fraction(0),
        dimension=m,
        holds=lhs <= inter,
    )


def _weighted_hf_sum(numerator, s):
    """The sum of t*HF(t) = sigma_0(t) + ... + sigma_n(t) over t = 1..s,
    read off a series numerator {a: c_a} by the hockey-stick identity."""
    total = 0
    for a, c in numerator.items():
        n, deg = len(a), sum(a)
        if deg <= s:
            total += c * (deg * comb(s - deg + n, n) + n * comb(s - deg + n, n + 1))
    return total
