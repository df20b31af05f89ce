"""point-enum: affine/projective scans, class index, tau normalization."""

from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detmethod import (
    BudgetExceededError,
    DetBoundInput,
    HeightBox,
    Ideal,
    InputError,
    Ordering,
    PointSet,
    Polynomial,
    affine_ordering_bound,
    build_matrix,
    choose_nu,
    class_index,
    enumerate_affine,
    enumerate_projective,
    groebner,
    monomials_of_degree,
    staircase,
)
from detmethod import points
from detmethod.cli import load_ideal
from detmethod.points import _where_between

from conftest import DATA, make_ideal
from oracles import naive_affine_points, naive_projective_points

CORPUS = {path.stem: load_ideal(path) for path in sorted(DATA.glob("*.ideal"))}
RATIONAL = [
    make_ideal(["x1 - 1/2*x0^2 - 1/2*x0"], 2),  # triangular numbers
    make_ideal(["1/2*x0*x2 - 1/3*x1^2"], 3),
]
# Largest full-box scan an oracle comparison makes, beyond the three affine
# curves that are compared at every height: the naive scan is the slow side.
ORACLE_CANDIDATES = 30_000


# -- affine ----------------------------------------------------------------


def test_parabola_count(parabola):
    ps = enumerate_affine(parabola, 100)
    assert len(ps.points) == 21  # x0 in [-10, 10]
    assert (3, 9) in ps.points and (-10, 100) in ps.points


def test_circle_count(circle):
    ps = enumerate_affine(circle, 5)
    assert set(ps.points) == {(-1, 0), (0, -1), (0, 1), (1, 0)}


def test_empty_variety(empty_variety):
    assert enumerate_affine(empty_variety, 50).points == ()


def test_single_point(single_point):
    assert enumerate_affine(single_point, 10).points == ((2, 3),)


def test_fractional_height_truncates(parabola):
    # B = 5/2 admits x0 in {-1, 0, 1} only (x1 = x0^2 <= 2)
    ps = enumerate_affine(parabola, Fraction(5, 2))
    assert ps.points == ((-1, 1), (0, 0), (1, 1))


def test_points_sorted(twisted_cubic_affine):
    ps = enumerate_affine(twisted_cubic_affine, 30)
    assert list(ps.points) == sorted(ps.points)


@pytest.mark.parametrize("b", [3, 10, 30, pytest.param(Fraction(7, 2), id="7/2")])
def test_solver_matches_naive_scan(parabola, circle, twisted_cubic_affine, b):
    for ideal in (parabola, circle, twisted_cubic_affine):
        ps = enumerate_affine(ideal, b)
        assert list(ps.points) == naive_affine_points(ideal, b)
    for ideal in [*CORPUS.values(), *RATIONAL]:
        n = ideal.num_vars
        if (2 * floor(b) + 1) ** n > ORACLE_CANDIDATES:
            continue
        ps = enumerate_affine(ideal, b)
        assert list(ps.points) == naive_affine_points(ideal, b)
        if ideal.homogeneous:
            box = HeightBox.uniform(b, n)
            ps = enumerate_projective(ideal, box)
            assert list(ps.points) == naive_projective_points(ideal, box)


@pytest.mark.parametrize(
    "ideal, bounds",
    [
        (CORPUS["conic"], (4, Fraction(1, 2), 4)),  # the conic in a non-uniform box
        # B_0 < 1 leaves only the fibre x0 = 0, where the conic is -x1^2 and
        # then, at x1 = 0, vanishes identically in x2
        (CORPUS["conic"], (Fraction(1, 2), 4, 4)),
        (RATIONAL[1], (9, 5, Fraction(9, 2))),
        (CORPUS["twisted_cubic"], (5, Fraction(1, 2), 4, 9)),
        (CORPUS["twisted_cubic"], (Fraction(7, 2), 6, 6, 2)),
    ],
    ids=["conic", "conic-x0=0", "rational-conic", "cubic-1", "cubic-2"],
)
def test_solver_matches_naive_scan_in_boxes(ideal, bounds):
    box = HeightBox(bounds)
    ps = enumerate_projective(ideal, box)
    assert list(ps.points) == naive_projective_points(ideal, box)


@st.composite
def planted_ideals(draw, homogeneous):
    """(ideal, height bounds, a planted integer point of the variety in the
    box): each generator is f*h(p) - h*f(p) for random f and h, with h = 1
    in affine mode, so that it vanishes at p."""
    n = draw(st.integers(2, 3))
    bounds = [draw(st.integers(1, 4)) + draw(st.sampled_from([0, Fraction(1, 2)]))
              for _ in range(n)]
    p = tuple(draw(st.integers(-floor(b), floor(b))) for b in bounds)
    if homogeneous:
        assume(any(p))
        g = gcd(*p)
        sign = 1 if next(v for v in p if v) > 0 else -1
        p = tuple(sign * v // g for v in p)
    coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    degree = draw(st.integers(1, 3))

    def poly():
        if homogeneous:
            exps = st.sampled_from(list(monomials_of_degree(degree, n)))
        else:
            exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
        return Polynomial(draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)), n)

    gens = []
    for _ in range(draw(st.integers(1, 2))):
        f = poly()
        h = poly() if homogeneous else Polynomial.constant(1, n)
        g = f * h.evaluate(p) - h * f.evaluate(p)
        assume(not g.is_zero())
        gens.append(g)
    return Ideal(gens, n), bounds, p


@settings(max_examples=60, deadline=None)
@given(case=planted_ideals(homogeneous=False))
def test_solver_finds_planted_affine_points(case):
    ideal, bounds, p = case
    b = max(bounds)
    ps = enumerate_affine(ideal, b)
    assert list(ps.points) == naive_affine_points(ideal, b)
    assert p in ps.points


@settings(max_examples=60, deadline=None)
@given(case=planted_ideals(homogeneous=True))
def test_solver_finds_planted_projective_points(case):
    ideal, bounds, p = case
    box = HeightBox(tuple(bounds))
    ps = enumerate_projective(ideal, box)
    assert list(ps.points) == naive_projective_points(ideal, box)
    assert p in ps.points


def test_solver_toggle_equivalent(parabola):
    # the fibre-wise solver against a full-box scan
    ps = enumerate_affine(parabola, 20)
    assert list(ps.points) == naive_affine_points(parabola, 20)


def test_linear_coordinate_narrows_the_scan(parabola):
    # |x0^2| = |x1| <= 40000 leaves 401 fibres of the 80,001 in the box
    ps = enumerate_affine(parabola, 40000)
    assert ps.fibres == 401
    assert ps.points == tuple((t, t * t) for t in range(-200, 201))


@st.composite
def split_ideals(draw, homogeneous):
    """(ideal, height bounds, a planted integer point of the variety in the
    box): each generator is f*h(p) - h*f(p) for f a sum of pure powers
    c*x_i^k, even k and negative c included, and now and then one monomial
    in two or more variables, so that it splits as p + r on some scanned
    coordinates and not on others; h = x_i^k in projective mode, where every
    term has degree k, and h = 1 in affine mode."""
    n = draw(st.integers(2, 3))
    bounds = [draw(st.integers(1, 4)) for _ in range(n)]
    if not homogeneous:
        bounds = [max(bounds)] * n
    p = tuple(draw(st.integers(-b, b)) for b in bounds)
    if homogeneous:
        assume(any(p))
        g = gcd(*p)
        sign = 1 if next(v for v in p if v) > 0 else -1
        p = tuple(sign * v // g for v in p)
    coeff = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 4))
        terms = {}
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            e = [0] * n
            e[i] = k if homogeneous else draw(st.integers(1, 4))
            terms[tuple(e)] = draw(coeff)
        mixed = [e for d in range(2, 5) for e in monomials_of_degree(d, n)
                 if sum(map(bool, e)) >= 2 and (d == k or not homogeneous)]
        if mixed and draw(st.booleans()):
            terms[draw(st.sampled_from(mixed))] = draw(coeff)
        f = Polynomial(terms, n)
        h = Polynomial.constant(1, n)
        if homogeneous:
            h = Polynomial.variable(draw(st.integers(0, n - 1)), n) ** k
        g = f * h.evaluate(p) - h * f.evaluate(p)
        assume(not g.is_zero())
        gens.append(g)
    return Ideal(gens, n), bounds, p


@settings(max_examples=80, deadline=None)
@given(case=split_ideals(homogeneous=False))
def test_narrowed_scan_matches_naive_affine_scan(case):
    ideal, bounds, p = case
    ps = enumerate_affine(ideal, bounds[0])
    assert list(ps.points) == naive_affine_points(ideal, bounds[0])
    assert p in ps.points


@settings(max_examples=80, deadline=None)
@given(case=split_ideals(homogeneous=True))
def test_narrowed_scan_matches_naive_projective_scan(case):
    ideal, bounds, p = case
    box = HeightBox(tuple(bounds))
    ps = enumerate_projective(ideal, box)
    assert list(ps.points) == naive_projective_points(ideal, box)
    assert p in ps.points


def test_circle_scan_is_narrowed_to_three_fibres(circle):
    # x0^2 = 1 - x1^2 lies in [1 - B^2, 1], so x0 is -1, 0 or 1 at any height
    assert enumerate_affine(circle, 120).fibres == 3  # of 241
    ps = enumerate_affine(circle, 10**6, budget=10**13)
    assert ps.fibres == 3
    assert ps.points == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_conic_scan_is_narrowed_on_each_fibre(conic):
    # the divisor route visits x1 first; on each of the 24 fibres x1 != 0, x0
    # runs over the divisors d of x1^2 with x1^2/12 <= d <= 12 (d > 0, x0
    # being the first coordinate) and x2 = x1^2/d: 44 pairs; on x1 = 0, x0 is
    # scanned over [0, 12] and x2 solved 13 times
    box = HeightBox((12, 12, 12))
    ps = enumerate_projective(conic, box)
    assert ps.fibres == 44 + 13
    assert list(ps.points) == naive_projective_points(conic, box)


def test_scan_where_p_vanishes_on_the_fibre():
    # x1 splits x0*x1 - x2^2 as p = x0*x1, r = -x2^2 in [-16, 0]: on the fibre
    # x0 = 0, p vanishes and r can, so every x1 stays
    cone = make_ideal(["x0*x1 - x2^2"], 3)
    assert list(enumerate_affine(cone, 4).points) == naive_affine_points(cone, 4)
    # here r = x2^2 + 1 lies in [1, 17], so x0 = 0 keeps no x1 and x0 != 0
    # keeps the x1 of the other sign with |x0*x1| <= 17
    ps = enumerate_affine(make_ideal(["x0*x1 + x2^2 + 1"], 3), 4)
    assert ps.fibres == 2 * sum(min(4, 17 // a) for a in range(1, 5))
    assert ps.points == ((-2, 1, -1), (-2, 1, 1), (-1, 1, 0), (-1, 2, -1),
                         (-1, 2, 1), (1, -2, -1), (1, -2, 1), (1, -1, 0),
                         (2, -1, -1), (2, -1, 1))


def test_twisted_cubic_affine_at_large_height(twisted_cubic_affine):
    ps = enumerate_affine(twisted_cubic_affine, 10**4)
    assert ps.points == tuple((t, t**2, t**3) for t in range(-21, 22))


def test_circle_at_height_300(circle):
    ps = enumerate_affine(circle, 300)
    assert ps.points == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_affine_budget_refusal(circle, parabola):
    with pytest.raises(BudgetExceededError) as err:
        enumerate_affine(circle, 10**6, budget=1000)
    assert err.value.required > err.value.budget
    # the budget bounds the planned scan: 2*B + 1 values of a coordinate, or
    # d where it has an exact split of degree d whose terms of degree d are
    # all c*x_j^d (x1 in the circle, d = 2; x1 in the parabola, d = 1)
    assert err.value.required == 2 * (2 * 10**6 + 1)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_affine(parabola, 10**6, budget=1000)
    assert err.value.required == 2 * 10**6 + 1


# -- the divisor route ----------------------------------------------------------


SURFACES = {path.stem: load_ideal(path)
            for path in sorted((DATA / "surfaces").glob("*.ideal"))}


def divisor_fibres(enumerate_points, ideal, bound):
    """(the point set, the number of fibres on which the divisor route ran)."""
    real, routed = points._divisor_pairs, 0

    def spy(route, point, domain):
        nonlocal routed
        routed += 1
        return real(route, point, domain)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_divisor_pairs", spy)
        ps = enumerate_points(ideal, bound)
    return ps, routed


@pytest.mark.parametrize(
    "ideal, bounds, routed",
    [
        (CORPUS["conic"], (6, 6, 6), True),
        (CORPUS["conic"], (5, Fraction(7, 2), 6), True),
        (CORPUS["twisted_cubic"], (4, 4, 4, 4), True),
        (CORPUS["twisted_cubic"], (2, 4, 3, 4), True),
        (SURFACES["segre_quadric"], (4, 4, 4, 4), True),
        (SURFACES["segre_quadric"], (3, 4, 2, 4), True),
        (make_ideal(["2*x0*x2 - 3*x1^2"], 3), (6, 6, 6), True),
        (make_ideal(["x1*x2 - 2*x0^2"], 3), (3, 6, 6), True),
        # the saddle keeps the order x0, x1, x2: visited first, x2 would lose
        # its exact split of one root, and the route would plan (2B + 1)^3
        (SURFACES["saddle"], (6, 6, 6), False),
    ],
    ids=["conic", "conic-box", "cubic", "cubic-box", "segre", "segre-box",
         "2-3-conic", "x1x2-2x0^2", "saddle"],
)
def test_divisor_route_matches_naive_scans(ideal, bounds, routed):
    if ideal.homogeneous:
        box = HeightBox(bounds)
        ps, fibres = divisor_fibres(enumerate_projective, ideal, box)
        assert list(ps.points) == naive_projective_points(ideal, box)
        assert bool(fibres) is routed
    b = max(bounds)
    ps, fibres = divisor_fibres(enumerate_affine, ideal, b)
    assert list(ps.points) == naive_affine_points(ideal, b)
    assert bool(fibres) is routed


def test_divisor_route_on_a_constant_and_uneven_coefficients():
    # x0*x1 = 12 has the 12 signed divisor pairs with both coordinates in
    # [-12, 12]; 4*x0*x1 = 6*x2 has no point where 2*x2 is odd
    ps, fibres = divisor_fibres(enumerate_affine, make_ideal(["x0*x1 - 12"], 2), 12)
    assert fibres == 1
    assert [p[0] for p in ps.points] == [-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12]
    uneven = make_ideal(["4*x0*x1 - 6*x2"], 3)
    ps, _ = divisor_fibres(enumerate_affine, uneven, 5)
    assert list(ps.points) == naive_affine_points(uneven, 5)
    assert all(p[2] % 2 == 0 for p in ps.points)


def test_divisor_route_keeps_the_budget_guard_and_sieves_after_it(conic):
    # the guard counts the order x0, x1, x2; the route's sieve is not built
    # for a run that the guard refuses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "_smallest_prime_factors", None)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_projective(conic, HeightBox.uniform(1000, 3))
    assert err.value.required == 2001**3
    assert planned_and_visited(conic, HeightBox.uniform(8, 3), True)[0] == 17**3


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 30, 97, 1000])
def test_smallest_prime_factors(limit):
    spf = points._smallest_prime_factors(limit)
    assert len(spf) == limit + 1
    for x in range(2, limit + 1):
        smallest = min(d for d in range(2, x + 1) if x % d == 0)
        assert spf[x] == (0 if smallest == x else smallest)


@st.composite
def bilinear_ideals(draw, homogeneous):
    """(ideal, height bounds, a point of the variety in the box, or None): a
    generator c*x_i*x_j - c'*x^a, x^a free of x_i and x_j (x^a = 1 included
    in affine mode, of degree 2 in projective mode), its c and c' fitted to
    a drawn point half of the time and otherwise drawn from [-4, 4], so that
    c does not divide c'*x^a on many fibres; x^a = 0 on the fibres where one
    of its coordinates is 0.  Now and then a second generator f*h(p) -
    h*f(p) that vanishes at the drawn point p, as in planted_ideals."""
    n = draw(st.integers(3 if homogeneous else 2, 4))
    bounds = [draw(st.integers(1, 4)) for _ in range(n)]
    if not homogeneous:
        bounds = [max(bounds)] * n
    i, j = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2)))
    others = [k for k in range(n) if k not in (i, j)]
    a = [0] * n
    for _ in range(2 if homogeneous else draw(st.integers(0, 3)) if others else 0):
        a[draw(st.sampled_from(others))] += 1
    p = tuple(draw(st.integers(-b, b)) for b in bounds)
    if homogeneous:
        assume(any(p))
        g = gcd(*p)
        sign = 1 if next(v for v in p if v) > 0 else -1
        p = tuple(sign * v // g for v in p)
    coeff = st.integers(-4, 4).filter(bool)
    u, w = p[i] * p[j], 1
    for k in others:
        w *= p[k] ** a[k]
    if u and w and draw(st.booleans()):
        s, g = draw(coeff), gcd(u, w)
        c, c2 = s * w // g, s * u // g
    else:
        c, c2 = draw(coeff), draw(coeff)
    e = [0] * n
    e[i] = e[j] = 1
    gens = [Polynomial({tuple(e): c, tuple(a): -c2}, n)]
    if draw(st.booleans()):
        degree = draw(st.integers(1, 2))
        exps = st.sampled_from(list(monomials_of_degree(degree, n)))
        f = Polynomial(draw(st.dictionaries(exps, coeff, min_size=1, max_size=3)), n)
        h = Polynomial({draw(exps): 1}, n) if homogeneous else Polynomial.constant(1, n)
        extra = f * h.evaluate(p) - h * f.evaluate(p)
        if not extra.is_zero():
            gens.append(extra)
    return Ideal(gens, n), bounds, p if c * u == c2 * w else None


@settings(max_examples=100, deadline=None)
@given(case=bilinear_ideals(homogeneous=False))
def test_divisor_route_matches_naive_affine_scan(case):
    ideal, bounds, p = case
    ps = enumerate_affine(ideal, bounds[0])
    assert list(ps.points) == naive_affine_points(ideal, bounds[0])
    assert p is None or p in ps.points


@settings(max_examples=100, deadline=None)
@given(case=bilinear_ideals(homogeneous=True))
def test_divisor_route_matches_naive_projective_scan(case):
    ideal, bounds, p = case
    box = HeightBox(tuple(bounds))
    ps = enumerate_projective(ideal, box)
    assert list(ps.points) == naive_projective_points(ideal, box)
    assert p is None or p in ps.points


def planned_and_visited(ideal, bound, projective):
    """(the scan the budget guard plans, the leaves the solver visits): the
    plan is read off BudgetExceededError at budget 0, and a leaf is a call of
    _is_representative in projective mode, else of the first generator's
    evaluate, which the leaf re-check makes once per candidate."""
    enumerate_points = enumerate_projective if projective else enumerate_affine
    with pytest.raises(BudgetExceededError) as err:
        enumerate_points(ideal, bound, budget=0)
    leaves = 0
    if projective:
        target, name = points, "_is_representative"
        real = points._is_representative

        def spy(vec):
            nonlocal leaves
            leaves += 1
            return real(vec)
    else:
        target, name, real = Polynomial, "evaluate", Polynomial.evaluate
        first = ideal.generators[0]

        def spy(self, point):
            nonlocal leaves
            leaves += self is first
            return real(self, point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(target, name, spy)
        enumerate_points(ideal, bound)
    return err.value.required, leaves


def test_planned_scan_counts_a_top_coefficient_that_vanishes_on_a_fibre():
    # 3*x1 - 3*x0*x1 is linear in x1, but on the fibre x0 = 1 it vanishes
    # for every x1: the planned scan is the box, 13 * 13, and the solver
    # visits 12 fibres with the one root x1 = 0 and 13 leaves at x0 = 1
    ideal = make_ideal(["3*x1 - 3*x0*x1"], 2)
    assert planned_and_visited(ideal, 6, False) == (13 * 13, 12 + 13)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(planted_ideals(homogeneous=False),
                      bilinear_ideals(homogeneous=False)))
def test_affine_plan_never_understates_the_leaves_visited(case):
    ideal, bounds, _ = case
    planned, leaves = planned_and_visited(ideal, max(bounds), False)
    assert planned >= leaves


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(planted_ideals(homogeneous=True),
                      bilinear_ideals(homogeneous=True)))
def test_projective_plan_never_understates_the_leaves_visited(case):
    ideal, bounds, _ = case
    planned, leaves = planned_and_visited(ideal, HeightBox(tuple(bounds)), True)
    assert planned >= leaves


# -- level sets: where low <= p(x) <= high ------------------------------------


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _value(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


@st.composite
def disjoint_intervals(draw, start):
    """Sorted, disjoint, inclusive (lo, hi) pairs from `start` on: one to
    three of them, singletons and touching neighbours included."""
    out, lo = [], start
    for _ in range(draw(st.integers(1, 3))):
        hi = lo + draw(st.integers(0, 20))
        out.append((lo, hi))
        lo = hi + 1 + draw(st.integers(0, 6))
    return out


@st.composite
def bands(draw, coeffs, intervals):
    """(low, high) with low <= high: 0 and 0, the roots, a third of the time,
    and otherwise a band reaching from p at a point of `intervals` by up to
    ten either side, so that its ends are seldom values of p."""
    if draw(st.integers(0, 2)) == 0:
        return 0, 0
    lo, hi = draw(st.sampled_from(intervals))
    v = _value(coeffs, draw(st.integers(lo, hi)))
    return v - draw(st.integers(0, 10)), v + draw(st.integers(0, 10))


def _check_where_between(data, coeffs, intervals):
    low, high = data.draw(bands(coeffs, intervals))
    brute = [x for a, b in intervals for x in range(a, b + 1)
             if low <= _value(coeffs, x) <= high]
    out = _where_between(coeffs, intervals, low, high)
    assert all(a <= b for a, b in out)
    assert [x for a, b in out for x in range(a, b + 1)] == brute


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    lead=st.integers(-4, 4).filter(bool),
    roots=st.lists(st.integers(-12, 12), min_size=1, max_size=4),
    # (x - s)^2 - t with t not a square: two irrational roots for t > 0, none
    # for t < 0
    quadratics=st.lists(
        st.tuples(
            st.integers(-6, 6),
            st.integers(-9, 12).filter(lambda t: t not in (0, 1, 4, 9)),
        ),
        max_size=2,
    ),
)
def test_where_between_matches_brute_force(data, lead, roots, quadratics):
    # degree 1 (the closed form) whenever one root and no quadratic are drawn
    coeffs = [lead]
    for r in roots:
        coeffs = _times(coeffs, [-r, 1])
    for s, t in quadratics:
        coeffs = _times(coeffs, [s * s - t, -2 * s, 1])
    # the intervals start on a root half of the time
    start = data.draw(st.sampled_from(roots) if data.draw(st.booleans())
                      else st.integers(-30, 15))
    _check_where_between(data, coeffs, data.draw(disjoint_intervals(start)))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    coeffs=st.lists(st.integers(-20, 20), min_size=2, max_size=6).filter(
        lambda c: c[-1] != 0
    ),
    start=st.integers(-40, 25),
)
def test_where_between_of_arbitrary_polynomials(data, coeffs, start):
    _check_where_between(data, coeffs, data.draw(disjoint_intervals(start)))


@given(
    r=st.integers(-(2**100), 2**100),
    s=st.integers(-(2**100), 2**100),
    lead=st.integers(-3, 3).filter(bool),
)
def test_where_between_on_ranges_beyond_sys_maxsize(r, s, lead):
    """The C bisect takes no range longer than sys.maxsize (2^63 - 1 on a
    64-bit build); a longer one is halved first."""
    coeffs = _times([lead], _times([-r, 1], [-s, 1]))
    assert _where_between(coeffs, [(-(2**101), 2**101)], 0, 0) == sorted(
        {(r, r), (s, s)}
    )
    # p(x) = x^2 between 1 and 10^40
    assert _where_between([0, 0, 1], [(-(2**101), 2**101)], 1, 10**40) == [
        (-(10**20), -1), (1, 10**20)
    ]


def test_affine_rejects_nonpositive_height(parabola):
    with pytest.raises(InputError):
        enumerate_affine(parabola, 0)


# -- projective ------------------------------------------------------------


def test_p1_height_one():
    # P^1 embedded as the line x2 = 0 in P^2
    line = make_ideal(["x2"], 3)
    ps = enumerate_projective(line, HeightBox.uniform(1, 3))
    assert set(ps.points) == {(0, 1, 0), (1, -1, 0), (1, 0, 0), (1, 1, 0)}


def test_conic_points():
    conic = make_ideal(["x0*x2 - x1^2"], 3)
    ps = enumerate_projective(conic, HeightBox((4, 4, 4)))
    assert len(ps.points) == 8
    assert (4, 2, 1) in ps.points and (1, -2, 4) in ps.points
    assert (1, 0, 0) in ps.points and (0, 0, 1) in ps.points


def test_projective_primitivity_and_sign():
    conic = make_ideal(["x0*x2 - x1^2"], 3)
    ps = enumerate_projective(conic, HeightBox((9, 9, 9)))
    from math import gcd

    for p in ps.points:
        g = 0
        for v in p:
            g = gcd(g, v)
        assert g == 1
        assert next(v for v in p if v != 0) > 0


def test_projective_no_duplicates_up_to_scaling():
    conic = make_ideal(["x0*x2 - x1^2"], 3)
    ps = enumerate_projective(conic, HeightBox((8, 8, 8)))
    assert (2, 2, 2) not in ps.points  # scaling of (1,1,1)
    assert (1, 1, 1) in ps.points


def test_projective_small_coordinate_box():
    # B_1 < 1 forces the middle coordinate to vanish
    conic = make_ideal(["x0*x2 - x1^2"], 3)
    ps = enumerate_projective(conic, HeightBox((4, Fraction(1, 2), 4)))
    assert all(p[1] == 0 for p in ps.points)
    assert set(ps.points) == {(0, 0, 1), (1, 0, 0)}


def test_projective_requires_homogeneous(parabola):
    with pytest.raises(InputError, match="^projective mode requires a homogeneous"):
        enumerate_projective(parabola, HeightBox.uniform(3, 2))


def test_projective_budget_refusal(conic):
    with pytest.raises(BudgetExceededError):
        enumerate_projective(conic, HeightBox.uniform(500, 3), budget=10**4)


def test_twisted_cubic_points(twisted_cubic):
    ps = enumerate_projective(twisted_cubic, HeightBox.uniform(8, 4))
    for t_num, t_den in [(1, 1), (2, 1), (1, 2), (-1, 1)]:
        rep = (t_den**3, t_den**2 * t_num, t_den * t_num**2, t_num**3)
        from math import gcd

        g = 0
        for v in rep:
            g = gcd(g, v)
        rep = tuple(v // g for v in rep)
        if next(v for v in rep if v != 0) < 0:
            rep = tuple(-v for v in rep)
        assert rep in ps.points


# -- classes / normalization -----------------------------------------------


def test_class_index_max_coordinate():
    box = HeightBox((4, 4, 4))
    assert class_index((4, 2, 1), box) == 0
    assert class_index((1, 2, 4), box) == 2


def test_class_index_tie_breaks_low():
    box = HeightBox((4, 4, 4))
    assert class_index((3, 3, 1), box) == 0
    assert class_index((0, 2, 2), box) == 1


def test_class_index_scaled():
    box = HeightBox((10, 1, 10))
    assert class_index((5, 1, 2), box) == 1  # 1/1 beats 5/10
    # fractional heights, against the Fraction rule, with the box or its
    # weights: 1/B_j = w_j/105 for the lcm 105 of the numerators 7, 3, 5
    box = HeightBox((Fraction(7, 4), 3, Fraction(5, 3)))
    assert box.weights() == (60, 35, 63)
    for point in product(range(-4, 5), repeat=3):
        ratios = [abs(x) / b for x, b in zip(point, box.bounds)]
        first = ratios.index(max(ratios))
        assert class_index(point, box) == class_index(point, box.weights()) == first


# -- the records ------------------------------------------------------------


@pytest.mark.parametrize("bounds", [(), (0, 1), (-1,)])
def test_height_box_rejects_empty_or_nonpositive_bounds(bounds):
    with pytest.raises(InputError, match="height bounds must be positive"):
        HeightBox(bounds)


def test_height_box_keeps_fractions():
    box = HeightBox((2, 1.5, "7/3"))
    assert box.bounds == (2, Fraction(3, 2), Fraction(7, 3))
    assert all(type(b) is Fraction for b in box.bounds)
    assert HeightBox.uniform(3, 2) == HeightBox((Fraction(3), Fraction(3)))


def test_frozen_records_refuse_assignment():
    parabola = CORPUS["parabola"]
    gb = groebner(parabola, Ordering.GRLEX_LEFT)
    sc = staircase(gb, 2)
    box = HeightBox((4, 4))
    records = [
        (box, "bounds"),
        (PointSet(((0, 0),), box), "fibres"),
        (sc, "exponents"),
        (build_matrix([(1, 1)], sc), "rows"),
        (gb.dimension_degree, "degree"),
        (affine_ordering_bound(parabola, 2), "holds"),
        (choose_nu(3, 1), "nu"),
        (DetBoundInput(mu=1, m=1, norms=(1,), r=Fraction(1, 2)), "r"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
