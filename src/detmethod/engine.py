"""The construction pipeline: staircase matrices at integer points, exact
kernels, box covering, and certified auxiliary polynomials.

Each cover builds one monomial matrix, one row per enumerated point, and a
box's matrix is its restriction to the box's points; a cover reads mu,
delta and n off the matrix's columns.  A box is certified by
one kernel vector, the first-free-column vector that exact_kernel returns in
exact integers, or subdivided if its matrix has full rank.  That vector is
the kernel vector with the smallest last column, unique up to scale (two
independent ones would combine to one with a smaller last column), so the
column order of the elimination that finds it cannot change it, nor can
the row order: the elimination runs from the ordering-smallest column down,
where the entries are small.  At full rank exact_kernel answers a falsy
FullRank(c): the box's first c rows alone have full rank.

Two covering strategies exist.  The default, adaptive bisection, starts from
the whole height box and bisects the longest axis of any sub-box whose
monomial matrix has full rank; it terminates because a box holding at most
mu-1 integer points always certifies.  Before it screens a box, it lays the
box's rows out so that each box of its left chain (low child, low child of
that, ...) is a prefix of them, and one FullRank answer splits every chain
box that holds its prefix without a kernel call of its own.  The
theoretical strategy, for curves only, lays down a grid of side rho = 1/q
on [-1,1] in the parameter t = x_1/B_1, with q decided in exact integers
from the determinant estimate under the supplied norm bound; a full-rank
occupied cube there is never silently repaired: it is an input error (the
bound was too small).

A run builds one full Groebner basis per ideal and ordering, reads mu,
sigma_i, m and d from its Hilbert series, and lists the staircase M(delta)
once, for the monomial matrix.  Every certificate passes verify_certificate
(LT(I) membership by divisibility), and the set coverage_failure, before a
report leaves the engine; `detmethod verify` runs the same two checks.

One body, cover_and_construct, runs both modes: it decides delta, M(delta)
and the exponents, then enumerates through run_points and builds its report
once.  run_basis and run_points (the points (1, x) of an affine run) decide
what a run covers, and run_summary (with run_series) the report fields its
basis, box, delta, points and certificates decide, for the engine and
`detmethod verify` alike.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, lshift, mul
from time import perf_counter
from types import SimpleNamespace

from .bounds import choose_nu, determinant_bound_exact, iroot
from .errors import DegenerateIdealError, InputError
from .ideals import (
    _series,
    a_estimates,
    affine_ordering_bound,
    groebner,
    homogenized_basis,
    normal_form,
    staircase,
)
from .points import (
    DEFAULT_BUDGET,
    HeightBox,
    class_index,
    enumerate_affine,
    enumerate_projective,
    require_homogeneous,
)
from .polynomials import (
    Ordering,
    Polynomial,
    divides,
    format_dehomogenized,
    format_polynomial,
)

DELTA_MAX_DEFAULT = 12
PROBE_DEGREE_DEFAULT = 24
# the degree s at which affine_pipeline checks the ordering inequality
ORDERING_BOUND_S = 10
# exact_kernel's screen prime, the largest below 2^30: one CPython int digit
KERNEL_PRIME = 2**30 - 35
# dependent rows in a row after which the rank screen offers its chosen rows
KERNEL_STOP_RUN = 8


# -- matrices and kernels --------------------------------------------------


class MonomialMatrix(namedtuple("MonomialMatrix", "exponents points rows")):
    """The staircase monomials at the points, in exact ints: one row per
    point, that point's equation, with rows[j][i] = points[j] ** exponents[i].
    Rows stay unreduced; exact_kernel's screen reduces the rows it reads."""

    __slots__ = ()

    def restrict(self, indices):
        """The matrix at points[j] for j in indices, in that order."""
        get = _getter(indices)
        return MonomialMatrix(
            exponents=self.exponents,
            points=get(self.points),
            rows=get(self.rows),
        )


def _getter(indices):
    """A function from a sequence to the tuple of its items at indices,
    one itemgetter; itemgetter of one index returns the item itself, so
    that case is wrapped in a 1-tuple."""
    if len(indices) == 1:
        (j,) = indices
        return lambda seq: (seq[j],)
    return itemgetter(*indices)


def build_matrix(points, exponents):
    """The monomial matrix at the points.  A cover builds it once and hands
    each box its restrict(), so each power is computed once per cover.

    The matrix is built column by column, over all points at once: for each
    coordinate x_i that some exponent uses, its power columns x_i^2, ...,
    x_i^top are each the elementwise product of the one before and x_i's
    column, and the column of x^e is the elementwise product of the power
    columns x_i^(e_i).  A coordinate that is 1 at every point is skipped, as
    are the unused ones; a column with no factor left is all ones.  The rows
    are the columns transposed."""
    if not points:
        raise InputError("need at least one point")
    exponents = tuple(exponents)
    points = tuple(points)
    if not exponents:  # mu = 0: one empty row per point
        return MonomialMatrix(exponents, points, ((),) * len(points))
    try:  # the coordinate columns, which strict zip checks are all as long
        coordinates = tuple(zip(*points, strict=True))
    except ValueError:
        coordinates = ()
    if len(coordinates) != len(exponents[0]):
        raise InputError("point dimension does not match the staircase")
    # powers[i][k] is the column x_i^k, for the coordinates not all 1
    powers = {}
    for i, (x, col) in enumerate(zip(coordinates, zip(*exponents))):
        top = max(col)
        if top and x.count(1) != len(x):
            powers[i] = xs = [None, x]
            for _ in range(1, top):
                xs.append(tuple(map(mul, xs[-1], x)))
    ones = (1,) * len(points)
    columns = []
    for e in exponents:
        factors = [powers[i][k] for i, k in enumerate(e) if k and i in powers]
        column = factors[0] if factors else ones
        for factor in factors[1:]:
            column = map(mul, column, factor)
        columns.append(column)
    return MonomialMatrix(exponents, points, tuple(zip(*columns)))


class FullRank(namedtuple("FullRank", "rows")):
    """exact_kernel's answer at full rank, falsy like None: the matrix's
    first `rows` rows alone have rank mu."""

    __slots__ = ()

    def __bool__(self):
        return False


def exact_kernel(mat):
    """The first kernel vector of the matrix, or a falsy FullRank at full
    rank.

    The vector is the primitive integer c, positive at its leading entry (the
    entry of the ordering-largest monomial in its support), with
    sum_e c_e * (x^(j))^e = 0 at every point j and support ending at the first
    free column f of the rows' echelon form: the first vector of the basis
    read off the reduced echelon form, and the one a certificate uses.  It is
    the kernel vector with the smallest last column, and that vector is
    unique up to scale: two independent kernel vectors with the same last
    column would combine to one with a smaller last column.  So the order of
    the rows cannot change it either.

    All arithmetic is on integers.  A box with fewer than mu points goes
    straight to _first_kernel_vector on all its rows, which eliminates them
    from the ordering-smallest column of the block it needs down to column
    0; by that uniqueness the column order cannot change the vector.  A
    larger box first runs a rank screen over its rows in order
    (_independent_mod_p): mu rows independent modulo any prime P have a
    mu x mu minor nonzero mod P, hence nonzero, so there is no kernel.  If
    the mu-th of them is row c, the result is FullRank(c + 1): rows 0..c
    alone have full rank, which lets the adaptive cover split every box
    made of a longer prefix of these rows without a kernel call.

    Otherwise the r < mu rows independent mod P are eliminated, and the
    vector is checked against every row with exact dot products.  The
    screen offers its chosen rows early, once KERNEL_STOP_RUN rows in a row
    have been dependent mod P at a rank it has not offered yet, and again
    at its end if the rank grew since; a vector that passes the check is
    returned at once, and after a failed check the screen resumes.  Either
    way the vector is the first-free-column one: its support ends at the
    chosen rows' first free column f, so the box's first free column is at
    most f once it vanishes on every row, and at least f because columns
    0..f-1 are already independent on the chosen rows.  Columns 0..f-1 being
    independent, the vector on 0..f is unique up to scale.  If no offer
    passes, P was a bad prime for this matrix and the elimination runs
    again on all rows; at full rank the result is then FullRank(len(rows)).
    So P = KERNEL_PRIME changes the time, never the result.
    """
    mu = len(mat.exponents)
    rows = mat.rows
    if len(rows) < mu:
        return _first_kernel_vector(rows, mu)
    for chosen in _independent_mod_p(rows, mu):
        if len(chosen) == mu:
            return FullRank(chosen[-1] + 1)
        vec = _first_kernel_vector([rows[j] for j in chosen], mu)
        if not any(sum(map(mul, vec, row)) for row in rows):
            return vec
    return _first_kernel_vector(rows, mu) or FullRank(len(rows))


def _independent_mod_p(rows, mu):
    """The rank screen: yields the list of indices of the integer rows that
    stay independent modulo KERNEL_PRIME when added one at a time to an
    echelon form, each time exact_kernel should try them.  That is once
    KERNEL_STOP_RUN rows in a row have been dependent (the rank then has
    not grown since the last offer, so each rank is offered at most once),
    and at the end: after the last row, or at mu independent rows, unless
    that rank was already offered.

    Each row it reads is reduced mod P entry by entry, then packed as one
    int with mu slots of W bits, column k in bits k*W..(k+1)*W-1.  Reducing
    by an echelon row with pivot c and normalised entries t (1 at c, 0
    before it) is one multiply-add v += f * neg, where f is slot c mod P and
    neg packs P - t from slot c on: it adds f*(P - t) <= (P-1)*P to each
    slot, and slot c becomes a multiple of P.  A slot starts below P and
    takes at most mu - 1 steps, so it never exceeds M = (mu-1)*(P-1)*P +
    P - 1; W is the bit length of M, so no slot carries into the next.
    Slots are unpacked and reduced mod P once per row, to find its pivot
    and, for a new echelon row, to normalise it."""
    p = KERNEL_PRIME
    width = ((mu - 1) * (p - 1) * p + p - 1).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, mu * width, width)
    echelon = []  # (shift of the pivot slot, packed P - the normalised row)
    chosen = []
    run = 0  # rows dependent since the rank last grew
    for j, row in enumerate(rows):
        v = sum(map(lshift, [x % p for x in row], shifts))
        for shift, neg in echelon:
            f = (v >> shift & mask) % p
            if f:
                v += f * neg
        slots = [(v >> shift & mask) % p for shift in shifts]
        c = next((c for c, x in enumerate(slots) if x), None)
        if c is None:
            run += 1
            if run == KERNEL_STOP_RUN:
                yield chosen
            continue
        inv = pow(slots[c], -1, p)
        neg = (p - x * inv % p << shift for x, shift in zip(slots[c:], shifts[c:]))
        echelon.append((shifts[c], sum(neg)))
        chosen.append(j)
        run = 0
        if len(chosen) == mu:
            break
    if run < KERNEL_STOP_RUN:
        yield chosen


def _first_kernel_vector(rows, mu):
    """exact_kernel's vector for the given integer rows of length mu, or None
    if they have rank mu.

    With r rows any r + 1 columns hold a kernel vector, so the vector, the
    kernel vector with the smallest last column, lies in K, the kernel of
    the block of columns 0..w-1, w = min(mu, r + 1), and every vector of K,
    padded with zeros, is a kernel vector of the rows.  In K it is unique up
    to scale (two independent vectors with the same last column combine to
    one with a smaller last column), so any basis of K determines it, and
    the column order of the elimination cannot change the result.

    _eliminate runs the block from its ordering-smallest column w-1 down to
    column 0.  The monomial matrix's columns run from the highest affine
    degree down to 1, so this is Newton's divided differences in integers:
    each content division removes a coordinate difference while the entries
    are still small.  A pivot row of column c ends at c, so back-substitution
    gives one vector of K per free column j, upwards in integers: x_j = 1,
    0 at the other free columns, and at each pivot column c above j, with
    pivot entry d and partial sum s, the vector so far is scaled by
    d/gcd(s, d) and x_c = -s/gcd(s, d).  With two or more free columns the
    basis runs through _eliminate too: after each column the vectors left
    span the vectors of K that end below it, so the pivot of the smallest
    column, taken when one vector was left, ends at the smallest last
    column.
    """
    width = min(mu, len(rows) + 1)
    pivots = _eliminate(rows, width)
    free = [j for j, top in enumerate(pivots) if top is None]
    if not free:
        return None  # a pivot in each of the mu columns
    basis = []
    for j in free:
        x = [1]  # x_j..x_(c-1), as c rises from j + 1
        for c in range(j + 1, width):
            top = pivots[c]
            if top is None:
                x.append(0)
                continue
            s = sum(map(mul, top[j:c], x))
            h = math.gcd(s, top[c])
            t = top[c] // h
            x = [v * t for v in x]
            x.append(-s // h)
        basis.append([0] * j + x)
    if len(basis) == 1:
        vec = basis[0]
    else:
        vec = next(v for v in _eliminate(basis, width) if v is not None)
    return _primitive_vector(vec + [0] * (mu - len(vec)))


def _eliminate(rows, width):
    """Primitive-row elimination of the rows' columns 0..width-1, from
    column width-1 down to 0: the list of pivot rows by column, None at a
    column without a pivot.

    Each step takes the row with the smallest nonzero entry pv in column c
    as pivot row, replaces each other row with entry g there by
    (pv/h)*row - (g/h)*pivot row, h = gcd(pv, g), on columns 0..c-1, and
    divides it by its content.  A row not combined keeps its entries
    beyond c, which are zero, so a pivot row's support ends at its column.
    The row that fraction-free (Bareiss) elimination would hold with the
    same pivots, its entries minors of the matrix, is an integer multiple
    of each row here; on Vandermonde-like rows most of those minors' size
    is a common factor, which the division drops.
    """
    pivots = [None] * width
    m = [row[:width] for row in rows]
    for c in range(width - 1, -1, -1):
        piv = None
        for i, row in enumerate(m):
            if row[c] and (piv is None or abs(row[c]) < abs(m[piv][c])):
                piv = i
        if piv is None:
            continue
        top = pivots[c] = m.pop(piv)
        pv, head = top[c], top[:c]
        for i, row in enumerate(m):
            g = row[c]
            if g:
                h = math.gcd(pv, g)
                a, b = pv // h, g // h
                row = [a * x - b * y for x, y in zip(row, head)]
                k = math.gcd(*row)
                if k > 1:
                    row = [x // k for x in row]
                m[i] = row
    return pivots


def _primitive_vector(vec):
    g = math.gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


# -- certificates ----------------------------------------------------------


class AuxiliaryCertificate(SimpleNamespace):
    """poly (integer coefficients, content 1, support in M(delta)),
    support_delta, points_covered (indices into the run's enumerated point
    list) and box, the ((lo, hi), ...) descriptor of the covered sub-box."""

    def __init__(self, poly, support_delta, points_covered, box):
        super().__init__(poly=poly, support_delta=support_delta,
                         points_covered=points_covered, box=box)


def auxiliary_for_box(mat, indices, box_desc, timings):
    """Certificate for the points mat.points[i], i in indices, of one sub-box,
    or exact_kernel's falsy FullRank if their monomial matrix has full rank
    mu (triggering subdivision in adaptive mode; its rows count the indices).
    mat is the cover's matrix, whose columns give the certificate's degree
    delta and variables; the certificate lists the indices in ascending
    order, and the kernel stage is added to `timings` (kernel_s, kernel_calls,
    and kernel_screens for a call with at least mu rows, the screened ones)."""
    box_mat = mat.restrict(indices)
    start = perf_counter()
    coeffs = exact_kernel(box_mat)
    timings["kernel_s"] += perf_counter() - start
    timings["kernel_calls"] += 1
    timings["kernel_screens"] += len(indices) >= len(mat.exponents)
    if not coeffs:
        return coeffs
    terms = {e: c for e, c in zip(mat.exponents, coeffs) if c != 0}
    return AuxiliaryCertificate(
        poly=Polynomial(terms, len(mat.exponents[0])),
        support_delta=sum(mat.exponents[0]),
        points_covered=tuple(sorted(indices)),
        box=tuple(box_desc),
    )


def verify_certificate(cert, points, gb):
    """The one per-certificate check, for the engine and `detmethod verify`
    alike; trusts nothing from the constructor.  The polynomial is nonzero,
    has integer coefficients and support inside M(delta), vanishes exactly at
    each covered point points[i], and has a nonzero normal form, i.e. lies
    outside the ideal.  Returns the list of failure messages, empty on a
    pass; a zero polynomial fails alone.

    Every check runs on every certificate, the normal form too, though a
    support inside M(delta) already keeps a nonzero polynomial out of the
    ideal.  A support monomial of degree delta lies in M(delta) exactly when
    no leading monomial divides it, so M(delta) itself is never listed.  The
    checks stay in integers where the data are: Polynomial.vanishes_at
    clears the certificate's denominators on its first call and tests the
    sum of the kept integer terms at each covered integer point, with no
    Fraction built.  normal_form returns the certificate itself, after one
    divisibility test per term and leading monomial, exactly when its
    support lies outside LT(I); only a support that meets LT(I) runs the
    division, and a test per monomial to name it."""
    poly = cert.poly
    if poly.is_zero():
        return ["zero polynomial"]
    failures = []
    if not poly.integer_coefficients():
        failures.append("non-integer coefficients")
    remainder = normal_form(poly, gb)
    delta = cert.support_delta
    for e in poly.support():
        if sum(e) != delta:
            failures.append(
                f"support monomial {e} has degree {sum(e)}, not delta = {delta}"
            )
            break
        if remainder is not poly and any(divides(lm, e) for lm in gb.leading_monomials):
            failures.append(f"support monomial {e} lies in LT(I)")
            break
    for idx in cert.points_covered:
        if not poly.vanishes_at(points[idx]):
            failures.append(f"does not vanish at {points[idx]}")
    if remainder.is_zero():
        failures.append("lies in the ideal")
    return failures


def coverage_failure(certificates, point_count):
    """The coverage check shared by the engine and `detmethod verify`: a
    failure message if some of the points 0..point_count-1 lie in no nonzero
    certificate's points_covered, else None."""
    covered = set()
    for cert in certificates:
        if not cert.poly.is_zero():
            covered.update(cert.points_covered)
    missing = point_count - len(covered)
    return f"coverage failure: {missing} uncovered points" if missing else None


# -- theoretical covering --------------------------------------------------


def theoretical_rho(box, sigma, mu, m, norm_bound):
    """The cube side rho = 1/q and cube count (2q)^m of the theoretical grid
    on [-1,1]^m, q >= 2 being the least integer with K < q^f, where
    K = mu! (D_m(nu) norm_bound)^mu prod(B_i^sigma_i) is
    bounds.determinant_bound_exact at r = 1 times the heights' product (nu
    and f from choose_nu(mu, m)).  Decided in exact integers, for any
    positive rational norm bound and heights."""
    f = choose_nu(mu, m).e
    if f <= 0:
        raise DegenerateIdealError("f = 0: determinant exponent budget is empty")
    k = determinant_bound_exact((mu, m, (_norm_bound(norm_bound),) * mu, 1))
    for s_i, b_i in zip(sigma, box.bounds):
        k *= Fraction(b_i) ** s_i
    q = max(2, iroot(math.floor(k), f) + 1)
    return Fraction(1, q), (2 * q) ** m


def _norm_bound(norm_bound):
    """The norm bound as a Fraction, which must be positive and finite."""
    with contextlib.suppress(OverflowError, ValueError):  # an infinity or a NaN
        if (n := Fraction(norm_bound)) > 0:
            return n
    raise InputError(f"norm bound must be a positive rational, got {norm_bound}")


# -- pipeline --------------------------------------------------------------


def report_rational(x):
    """An int unchanged, a Fraction as its int or "p/q", as reports write it."""
    p, q = x.numerator, x.denominator
    return p if q == 1 else f"{p}/{q}"


class PipelineReport(SimpleNamespace):
    """A run's result, built once by cover_and_construct, the one body of
    both modes, with every field given by keyword and none changed after:
    mode, heights, delta, epsilon, ordering, strategy; summary, the
    run_summary dict, each of whose fields is an attribute too;
    certificates; rho (a Fraction 1/q, written "1/q"), cube_count and
    max_depth (None where the strategy sets none); ordering_bound and
    delta_report (None unless set); num_vars; and timings, the opt-in stage
    timings (enumeration: points_s, points_fibres, points_found; matrix
    build: matrix_s; kernel: kernel_s, kernel_calls)."""

    def to_dict(self, include_timings=False):
        certs = []
        monomials = {}  # this report's monomial texts, for format_polynomial
        for c in self.certificates:
            entry = {
                "poly": format_polynomial(c.poly, self.ordering, monomials),
                "points": [self.points[i] for i in c.points_covered],
                "box": [[report_rational(lo), report_rational(hi)] for lo, hi in c.box],
            }
            if self.mode == "affine":
                entry["affine_poly"] = format_dehomogenized(
                    c.poly, self.ordering, monomials
                )
            certs.append(entry)
        out = {
            "params": {
                "mode": self.mode,
                "heights": [report_rational(b) for b in self.heights],
                "delta": self.delta,
                "epsilon": self.epsilon,
                "ordering": self.ordering.value,
                "strategy": self.strategy,
                "num_vars": self.num_vars,
            },
            **self.summary,
            "certificates": certs,
            "rho": None if self.rho is None else report_rational(self.rho),
            "cube_count": self.cube_count,
            "max_depth": self.max_depth,
        }
        if self.ordering_bound is not None:
            ob = self.ordering_bound
            out["ordering_bound"] = {
                "s": ob.s,
                "lhs": report_rational(ob.lhs),
                "intermediate_bound": report_rational(ob.intermediate_bound),
                "limit": report_rational(ob.limit),
                "dimension": ob.dimension,
                "holds": ob.holds,
            }
        if self.delta_report is not None:
            out["delta_report"] = self.delta_report
        if include_timings:
            out["timings"] = self.timings
        return out


def _adaptive_cover(mat, timings):
    """Bisection covering of the points of the matrix mat; returns
    (certificates, max_depth).

    A box's split is the longest axis of its bounding box (the lowest such
    axis on ties), at the midpoint.  Every box is a slice of one list of
    point indices, and its split partitions that slice in place, stably,
    low child first.  Before a box with at least mu points is screened, its
    left chain (the box, its low child, that child's low child and so on,
    down to a box with fewer than mu points) is partitioned, so each chain
    box is a prefix of the box's rows.  When the screen finds that rows
    0..c-1 have full rank (FullRank(c)), every chain box of at least c
    points holds them and is split without a kernel call of its own.  Each
    split is computed once: a chain's splits travel down it with its low
    children.  The tree, its depth-first order (low child first) and each
    certificate's points and box do not depend on the row order."""
    mu = len(mat.exponents)
    columns = tuple(zip(*mat.points))  # the points' coordinates, per axis
    order = list(range(len(mat.points)))

    def bounding_box(start, end):
        get = _getter(order[start:end])
        coords = [get(col) for col in columns]
        return coords, [(min(xs), max(xs)) for xs in coords]

    def partition_chain(start, end):
        """The splits (bbox, mid) of the chain boxes [start, end) with at
        least mu points, top down, each partitioned in place."""
        chain = []
        while end - start >= mu:
            coords, bbox = bounding_box(start, end)
            extents = [hi - lo for lo, hi in bbox]
            axis = max(range(len(columns)), key=lambda a: (extents[a], -a))
            lo, hi = bbox[axis]
            pairs = list(zip(order[start:end], coords[axis]))
            low = [i for i, x in pairs if 2 * x <= lo + hi]
            order[start:end] = low + [i for i, x in pairs if 2 * x > lo + hi]
            chain.append((bbox, start + len(low)))
            end = start + len(low)
        return iter(chain)

    certs = []
    max_depth = 0
    # (start, end, depth, end of a full-rank prefix or inf, chain splits)
    stack = [(0, len(order), 0, math.inf, None)]
    while stack:
        start, end, depth, rank_end, chain = stack.pop()
        max_depth = max(max_depth, depth)
        if chain is None:
            chain = partition_chain(start, end)
        split = next(chain, None)  # None for a box with fewer than mu points
        if end < rank_end:
            bbox = split[0] if split else bounding_box(start, end)[1]
            cert = auxiliary_for_box(mat, order[start:end], bbox, timings)
            if cert:
                certs.append(cert)
                continue
            rank_end = start + cert.rows
        # only a box of at least mu points has full rank, so split is set
        mid = split[1]
        stack.append((mid, end, depth + 1, math.inf, None))
        stack.append((start, mid, depth + 1, rank_end, chain))
    return certs, max_depth


def _theoretical_cover(mat, box, sigma, m, norm_bound, timings):
    rho, cube_count = theoretical_rho(box, sigma, len(mat.exponents), m, norm_bound)
    q = rho.denominator
    groups = {}
    for i, p in enumerate(mat.points):
        # the cube of t = x_1/B_1; t = 1 would be key 2q, past the grid: it
        # joins the last cube
        t = Fraction(p[1]) / box.bounds[1]
        key = (min(math.floor((t + 1) * q), 2 * q - 1),)
        groups.setdefault(key, []).append(i)
    certs = []
    for key in sorted(groups):
        idxs = tuple(groups[key])
        desc = tuple((Fraction(k, q) - 1, Fraction(k + 1, q) - 1) for k in key)
        cert = auxiliary_for_box(mat, idxs, desc, timings)
        if not cert:
            raise InputError(
                f"norm bound {norm_bound} is too small: occupied rho-cube "
                f"{key} has a full-rank matrix (rho={rho})"
            )
        certs.append(cert)
    return certs, rho, cube_count


class RunSeries(namedtuple(
    "RunSeries", "dimension degree mu nu f sigma k_bound_exponents"
)):
    """A report's fields that its basis and delta decide: m, d, mu =
    HF(delta) = len(M(delta)), choose_nu's nu and f, sigma(delta), and the
    k-bound exponents m*sigma_i/f."""

    __slots__ = ()


def run_series(gb, delta):
    """The RunSeries of a run at degree delta on the full basis gb, for the
    engine and `detmethod verify` alike.  HF(delta) and sigma come from one
    integer pass over the Hilbert series; each k-bound exponent is the
    correctly rounded float of a quotient of ints, or 0.0 where f = 0.
    nu = f = 0 where m < 1 or mu = 0, which have no exponent budget."""
    m, d = gb.dimension_degree
    mu, sigma = _series(gb, delta)
    nu = f = 0
    if m >= 1 and mu:
        budget = choose_nu(mu, m)
        nu, f = budget.nu, budget.e
    exps = [m * s / f if f else 0.0 for s in sigma]
    return RunSeries(m, d, mu, nu, f, list(sigma), exps)


def run_summary(gb, box, delta, points, certificates, affine):
    """Every top-level report field that a run's basis, box, delta, points
    and certificates decide, as the report writes it, for
    cover_and_construct and `detmethod verify` alike: run_series' fields;
    the points of S(X, box), their count and their classes S_i (in affine
    mode all in S_0, checked, and each point also without its leading 1 as
    affine_points); the certificate count and k = delta times it; the
    heights' bound prod B_i^(m sigma_i / f) on k (0.0 where f = 0, None
    beyond the largest double); and whether S(X, box) is empty."""
    series = run_series(gb, delta)
    tally = Counter(map(class_index, points, repeat(box.weights())))
    class_counts = [tally[i] for i in range(len(box.bounds))]
    if affine and any(class_counts[1:]):  # x0 = 1 with B_0 = 1 forces S_0
        raise AssertionError(f"lifted points escaped S_0: {class_counts}")
    k_bound = 0.0
    if series.f:
        k_bound = math.inf
        with contextlib.suppress(OverflowError):
            k_bound = math.prod(
                float(b) ** e for e, b in zip(series.k_bound_exponents, box.bounds)
            )
        if k_bound == math.inf:  # beyond the largest double: null, as in `bound`
            k_bound = None
    summary = {
        **series._asdict(),
        "points": [list(p) for p in points],
        "point_count": len(points),
        "class_counts": class_counts,
        "certificate_count": len(certificates),
        "k_actual": delta * len(certificates),
        "k_bound_value": k_bound,
        "vacuous": not points,
    }
    if affine:
        summary["affine_points"] = [p[1:] for p in summary["points"]]
    return summary


def choose_delta(gb, epsilon):
    """Smallest delta <= DELTA_MAX_DEFAULT whose measured exponents
    m*sigma_i/f (run_series' k-bound exponents) stay within epsilon
    of the limit exponents (m+1)a_i/d^(1/m), the a_i being measured at
    PROBE_DEGREE_DEFAULT and m, d read from the full basis gb; the limits
    do not depend on delta and are computed once.  With m >= 1, mu >= 2 and
    f >= 1 at every delta >= 1.  The reported (finite-delta)
    exponents are what the k-bound uses; no asymptotic constants are
    assumed."""
    _epsilon(epsilon)
    m, d = gb.dimension_degree
    if m < 1:
        raise DegenerateIdealError("dimension < 1: the method does not apply")
    limits = [
        (m + 1) * float(a_i) / d ** (1.0 / m)
        for a_i in a_estimates(gb, PROBE_DEGREE_DEFAULT)
    ]

    best = None
    for delta in range(1, DELTA_MAX_DEFAULT + 1):
        ratios = run_series(gb, delta).k_bound_exponents
        overshoot = max(r - (li + epsilon) for r, li in zip(ratios, limits))
        report = {
            "delta": delta,
            "ratios": ratios,
            "limits": limits,
            "epsilon": epsilon,
            "probe_degree": PROBE_DEGREE_DEFAULT,
        }
        if overshoot <= 0:
            return delta, report
        if best is None or overshoot < best[0]:
            best = (overshoot, report)
    detail = f"; best achieved: {best[1]}" if best else ""
    raise InputError(
        f"no delta <= {DELTA_MAX_DEFAULT} keeps within epsilon={epsilon}{detail}"
    )


def cover_and_construct(
    gb,
    box,
    delta=None,
    strategy="adaptive",
    norm_bound=None,
    budget=DEFAULT_BUDGET,
    affine_ideal=None,
    epsilon=None,
):
    """Run the covering construction over S(X, B) for the full GroebnerBasis
    gb of a homogeneous ideal, under gb's ordering; with affine_ideal, gb is
    that of its I^h, box is (1, B, ..., B), and the run is affine.  Exactly
    one of delta and epsilon is set: the support degree is delta, or else
    choose_delta's degree, whose report is then delta_report.  m, d, mu =
    len(M(delta)), nu, f, sigma and the k-bound exponents are run_series'
    fields, all decided before run_points, as is each refusal that needs no
    point.

    An empty staircase (mu = 0) puts every degree-delta form in I, x_i^delta
    among them; a point with x_i != 0 would keep x_i^delta out of I, so
    S(X, B) is empty and the report vacuous.

    Every enumerated point ends up covered by at least one certificate, or the
    run raises (degeneracy, or a norm bound too small); nothing is silently
    skipped.
    """
    _require_options(delta, epsilon, strategy, norm_bound)
    require_homogeneous(gb.ideal)
    delta_report = None
    if delta is None:
        delta, delta_report = choose_delta(gb, epsilon)
    m, _, mu, _, _, sigma, _ = run_series(gb, delta)
    exponents = staircase(gb, delta)
    if strategy == "theoretical" and m > 1:
        raise InputError("the theoretical strategy covers curves only (m = 1)")

    mode = "projective" if affine_ideal is None else "affine"
    start = perf_counter()
    points, fibres = run_points(affine_ideal or gb.ideal, mode, box, budget)
    timings = {
        "points_s": perf_counter() - start,
        "points_fibres": fibres,
        "points_found": len(points),
        "matrix_s": 0.0,
        "kernel_s": 0.0,
        "kernel_calls": 0,
        "kernel_screens": 0,
    }

    certs = []
    rho = cube_count = max_depth = None
    if points:
        if m < 1:
            raise DegenerateIdealError(
                "variety has dimension < 1; no auxiliary polynomial exists "
                "outside a zero-dimensional point's ideal"
            )
        if mu < 2:
            raise DegenerateIdealError(
                f"mu = {mu} at delta={delta}: the staircase admits no "
                "nontrivial vanishing polynomial"
            )
        start = perf_counter()
        mat = build_matrix(points, exponents)
        timings["matrix_s"] = perf_counter() - start
        if strategy == "adaptive":
            certs, max_depth = _adaptive_cover(mat, timings)
        else:
            certs, rho, cube_count = _theoretical_cover(
                mat, box, sigma, m, norm_bound, timings
            )

    # constructor output is never trusted: re-verify before it leaves
    failures = [msg for c in certs for msg in verify_certificate(c, points, gb)]
    uncovered = coverage_failure(certs, len(points))
    if failures or uncovered:
        raise AssertionError(f"internal verification failed: {failures or uncovered}")

    ordering_bound = None
    if mode == "affine" and m >= 0:  # else 1 lies in I and HF of I^h vanishes
        ordering_bound = affine_ordering_bound(affine_ideal, ORDERING_BOUND_S)
    summary = run_summary(gb, box, delta, points, certs, mode == "affine")
    return PipelineReport(
        mode=mode,
        heights=box.bounds,
        delta=delta,
        epsilon=epsilon,
        ordering=gb.ordering,
        strategy=strategy,
        summary=summary,
        **summary,
        certificates=certs,
        rho=rho,
        cube_count=cube_count,
        max_depth=max_depth,
        ordering_bound=ordering_bound,
        delta_report=delta_report,
        num_vars=gb.num_vars,
        timings=timings,
    )


def _require_options(delta, epsilon, strategy, norm_bound):
    """The one options check, before any Buchberger run or run_points in
    either mode: one of delta and a positive finite epsilon, a known
    strategy, and a positive finite norm bound exactly when the strategy is
    theoretical."""
    if (delta is None) == (epsilon is None):
        raise InputError("exactly one of delta / epsilon must be set")
    if epsilon is not None:
        _epsilon(epsilon)
    if strategy not in ("adaptive", "theoretical"):
        raise InputError(f"unknown strategy {strategy!r}")
    if (norm_bound is not None) != (strategy == "theoretical"):
        raise InputError(
            "the theoretical strategy needs a norm bound; the adaptive "
            "strategy takes none"
        )
    if norm_bound is not None:
        _norm_bound(norm_bound)


def _epsilon(epsilon):
    """Refuse an epsilon that is not positive and finite (a NaN too)."""
    if not 0 < epsilon < math.inf:
        raise InputError("epsilon must be positive and finite")


def run_basis(ideal, mode, ordering):
    """The full basis a run in `mode` ("affine" or "projective") covers
    with: that of the homogenized ideal I^h in affine mode, of the ideal
    itself, which must be homogeneous, in projective mode."""
    if mode == "affine":
        return homogenized_basis(ideal, ordering)
    require_homogeneous(ideal)
    return groebner(ideal, ordering)


def run_points(ideal, mode, box, budget):
    """S(X, box) for a run in `mode`, with the enumeration's fibres; in
    affine mode box is (1, B, ..., B), and each x of X(Z,B) lifts to (1, x)."""
    if mode == "projective":
        return enumerate_projective(ideal, box, budget=budget)
    affine = enumerate_affine(ideal, box.bounds[1], budget=budget)
    return affine._replace(points=tuple((1,) + x for x in affine.points))


def affine_pipeline(
    affine_ideal,
    b,
    delta=None,
    epsilon=None,
    ordering=Ordering.GRLEX_LEFT,
    strategy="adaptive",
    norm_bound=None,
    budget=DEFAULT_BUDGET,
):
    """Affine flavor: check the options, homogenize, and run the one body,
    cover_and_construct, whose run_points lifts X(Z,B) into S(X-bar, (1,B,...,B)).

    A certificate G is checked at the lifted points (1,x), so the affine
    polynomial g = G(1,x) vanishes on X(Z,B); G is homogeneous and nonzero
    (its support lies in M(delta)), so g is nonzero too."""
    _require_options(delta, epsilon, strategy, norm_bound)
    # the bases are kept on affine_ideal, so a sweep over heights shares them
    return cover_and_construct(
        homogenized_basis(affine_ideal, ordering),
        HeightBox((1,) + (b,) * affine_ideal.num_vars),
        delta,
        strategy=strategy,
        norm_bound=norm_bound,
        budget=budget,
        affine_ideal=affine_ideal,
        epsilon=epsilon,
    )
