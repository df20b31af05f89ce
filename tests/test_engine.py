"""engine: matrices, exact kernels, covering, certificates, verification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmethod import engine, ideals
from detmethod import (
    AuxiliaryCertificate,
    D,
    DegenerateIdealError,
    FullRank,
    HeightBox,
    InputError,
    Ordering,
    Polynomial,
    a_estimates,
    affine_pipeline,
    all_sigmas,
    auxiliary_for_box,
    build_matrix,
    choose_delta,
    choose_nu,
    class_index,
    cover_and_construct,
    exact_kernel,
    groebner,
    hilbert_function,
    homogenized_basis,
    monomials_of_degree,
    staircase,
    theoretical_rho,
    verify_certificate,
)

from detmethod.cli import build_parser, load_ideal

from conftest import DATA, make_ideal
from oracles import (
    bisection_split,
    entrywise_matrix_rows,
    exact_determinant,
    forward_kernel_vector,
    list_screen,
    rational_kernel,
    rational_rank,
)

GRLEX = Ordering.GRLEX_LEFT


def _conic_setup(delta=2):
    ideal = make_ideal(["x0*x2 - x1^2"], 3)
    gb = groebner(ideal, GRLEX)
    return gb, staircase(gb, delta)


# -- matrices --------------------------------------------------------------


def test_build_matrix_entries():
    gb, sc = _conic_setup()
    mat = build_matrix([(4, 2, 1), (1, 1, 1)], sc)
    assert len(mat.rows) == 2  # one row per point
    assert all(len(row) == 5 for row in mat.rows)  # one entry per monomial
    col = dict(zip(mat.exponents, zip(*mat.rows)))
    assert col[(2, 0, 0)] == (16, 1)  # x0^2 at both points
    assert col[(0, 0, 2)] == (1, 1)  # x2^2


def test_build_matrix_fields_and_restrict():
    """A matrix holds its exact rows only, entries above KERNEL_PRIME
    included; the screen reduces the rows it reads."""
    assert engine.MonomialMatrix._fields == ("exponents", "points", "rows")
    ideal = make_ideal(["x0*x2 - x1^2"], 3)
    sc = staircase(groebner(ideal, GRLEX), 10)
    pts = [(1, 10**4, 10**8), (10**8, 10**4, 1), (1, 1, 1)]
    mat = build_matrix(pts, sc)
    assert max(map(max, mat.rows)) > engine.KERNEL_PRIME
    sub = mat.restrict((2, 0))
    assert sub.points == (pts[2], pts[0])
    assert sub.rows == (mat.rows[2], mat.rows[0])
    assert sub.exponents == mat.exponents


def test_build_matrix_dimension_mismatch():
    gb, sc = _conic_setup()
    with pytest.raises(InputError):
        build_matrix([(1, 2)], sc)
    for points in ([(1, 2, 3), (1, 2)], [(1, 2), (1, 2, 3)], [(1, 2, 3), (1, 2, 3, 4)]):
        with pytest.raises(InputError, match="dimension"):
            build_matrix(points, sc)


def _annihilates(vec, mat):
    return all(sum(c * x for c, x in zip(vec, row)) == 0 for row in mat.rows)


def test_matrix_rank_vs_oracle():
    """The kernel vector is None exactly at full rank; otherwise its last
    nonzero entry sits at the first column that depends on the earlier ones,
    and it vanishes on every row."""
    gb, sc = _conic_setup()
    rng = random.Random(3)
    for _ in range(15):
        pts = []
        while len(pts) < 4:
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            p = (t.denominator**2, t.denominator * t.numerator, t.numerator**2)
            if p not in pts:
                pts.append(p)
        mat = build_matrix(pts, sc)
        vec = _kernel(mat)
        if rational_rank(mat.rows) == len(mat.exponents):
            assert vec is None
            continue
        f = max(i for i, c in enumerate(vec) if c)
        assert rational_rank([row[:f] for row in mat.rows]) == f
        assert rational_rank([row[: f + 1] for row in mat.rows]) == f
        assert _annihilates(vec, mat)


# -- kernels ---------------------------------------------------------------


def test_kernel_empty_for_full_rank():
    gb, sc = _conic_setup(1)  # staircase {x0, x1, x2}, mu = 3
    mat = build_matrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)], sc)
    assert exact_kernel(mat) == FullRank(3)


def test_kernel_repeated_point():
    gb, sc = _conic_setup(1)
    mat = build_matrix([(1, 1, 1), (1, 1, 1)], sc)
    assert len(rational_kernel(mat)) == 2
    assert exact_kernel(mat) == rational_kernel(mat)[0] == (1, -1, 0)
    assert _annihilates(exact_kernel(mat), mat)


def test_kernel_vectors_primitive_and_sign_fixed():
    gb, sc = _conic_setup()
    pts = [(1, 1, 1), (4, 2, 1), (9, 3, 1)]
    vec = exact_kernel(build_matrix(pts, sc))
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    assert g == 1
    assert next(v for v in vec if v != 0) > 0


def test_kernel_annihilates_columns():
    gb, sc = _conic_setup()
    pts = [(1, 1, 1), (4, 2, 1), (1, -1, 1), (0, 0, 1)]
    mat = build_matrix(pts, sc)
    vec = exact_kernel(mat)
    assert any(vec)
    assert _annihilates(vec, mat)


def _matrix(rows):
    """A MonomialMatrix with the given q x mu equations (one row per point)."""
    rows = tuple(map(tuple, rows))
    return engine.MonomialMatrix(
        exponents=tuple(range(len(rows[0]))),
        points=tuple(range(len(rows))),
        rows=rows,
    )


def _random_rows(rng):
    """Full-rank, rank-deficient and repeated-row shapes, entries up to 10^40."""
    mu, q = rng.randint(1, 9), rng.randint(1, 12)
    size = rng.choice([2, 1000, 10**40])
    rank = rng.randint(0, min(mu, q))
    if rng.random() < 0.5:
        rows = [[rng.randint(-size, size) for _ in range(mu)] for _ in range(q)]
    else:  # rank at most `rank`: random combinations of `rank` rows
        basis = [[rng.randint(-size, size) for _ in range(mu)] for _ in range(rank)]
        rows = [
            [sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(mu)]
            for _ in range(q)
        ]
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, q), list(rng.choice(rows)))
    return rows


def _spy(monkeypatch, name, record):
    """Replace engine.<name> by a wrapper that appends record(*args) to the
    returned list before each call."""
    calls = []
    original = getattr(engine, name)

    def spy(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(engine, name, spy)
    return calls


def _first_oracle_vector(mat):
    return (rational_kernel(mat) or [None])[0]


def test_kernel_matches_rational_oracle():
    rng = random.Random(20)
    seen = set()
    for _ in range(400):
        rows = _random_rows(rng)
        mat = _matrix(rows)
        vec = _kernel(mat)
        assert vec == _first_oracle_vector(mat)
        seen.add((len(rows) < len(rows[0]), vec is None))
    # fewer and at least mu rows, with and without a kernel vector
    assert seen == {(True, False), (False, False), (False, True)}


def test_kernel_matches_rational_oracle_on_conic_points():
    ideal = make_ideal(["x0*x2 - x1^2"], 3)
    gb = groebner(ideal, GRLEX)
    sc = staircase(gb, 10)  # mu = 21, entries up to about 10^40
    rng = random.Random(5)
    for q in (8, 20, 21, 30):
        pts = set()
        while len(pts) < q:
            a, b = rng.randint(1, 10**4), rng.randint(-(10**4), 10**4)
            if math.gcd(a, b) == 1:
                pts.add((a * a, a * b, b * b))
        mat = build_matrix(sorted(pts), sc)
        assert _kernel(mat) == _first_oracle_vector(mat)


@pytest.mark.parametrize(
    "rows, kernel",
    [
        # rank 1 mod P, rank 2 over Q: the screen keeps only the first row
        ([(1, engine.KERNEL_PRIME), (1, 2 * engine.KERNEL_PRIME)], []),
        (
            [
                (1, engine.KERNEL_PRIME, 0),
                (1, 2 * engine.KERNEL_PRIME, 0),
                (1, 3 * engine.KERNEL_PRIME, 0),
            ],
            [(0, 0, 1)],
        ),
    ],
)
def test_kernel_falls_back_when_prime_divides_a_minor(monkeypatch, rows, kernel):
    eliminated = _spy(monkeypatch, "_first_kernel_vector", lambda rows, mu: len(rows))
    mat = _matrix(rows)
    assert rational_kernel(mat) == kernel
    assert exact_kernel(mat) == (kernel[0] if kernel else FullRank(len(rows)))
    assert eliminated == [1, len(rows)]


def test_kernel_skips_the_screen_below_mu_rows(monkeypatch):
    # the rows of the fallback case above, with mu = 3 > 2 rows
    eliminated = _spy(monkeypatch, "_first_kernel_vector", lambda rows, mu: len(rows))
    screened = _spy(monkeypatch, "_independent_mod_p", lambda rows, mu: len(rows))
    mat = _matrix([(1, engine.KERNEL_PRIME, 0), (1, 2 * engine.KERNEL_PRIME, 0)])
    assert exact_kernel(mat) == (0, 0, 1) == _first_oracle_vector(mat)
    assert (eliminated, screened) == ([2], [])


@pytest.mark.parametrize("ks", [(1, 2, 3, 4, 5), (1, 2, 3, 4, 1, 2)])
def test_kernel_falls_back_at_conic_points_on_multiples_of_the_prime(
    monkeypatch, ks
):
    """Conic points (1, kP, k^2 P^2) are all (1, 0, 0) mod P, so the screen
    finds rank 1 where the rational rank is 5 (distinct points) or 4 (two
    repeats); the vector of its one offer fails the exact check, and the
    elimination of all rows gives the rational oracle's answer."""
    eliminated = _spy(monkeypatch, "_first_kernel_vector", lambda rows, mu: len(rows))
    p = engine.KERNEL_PRIME
    gb, sc = _conic_setup()  # mu = 5
    mat = build_matrix([(1, k * p, (k * p) ** 2) for k in ks], sc)
    vec = exact_kernel(mat)
    assert vec == (_first_oracle_vector(mat) or FullRank(len(ks)))
    assert bool(vec) == (len(set(ks)) < 5)
    assert eliminated == [1, len(ks)]


@pytest.mark.parametrize("strategy", ["adaptive", "theoretical"])
def test_build_matrix_once_per_cover(monkeypatch, strategy):
    builds = _spy(monkeypatch, "build_matrix", lambda points, sc: len(points))
    norm_bound = 20 if strategy == "theoretical" else None
    report = affine_pipeline(
        make_ideal(["x1 - x0^2"], 2), 100, delta=2, strategy=strategy,
        norm_bound=norm_bound,
    )
    assert builds == [21]
    assert report.timings["kernel_calls"] > 1


def _kernel_calls(monkeypatch):
    """Replace engine.exact_kernel by a wrapper that records each call's
    (mat, result)."""
    calls = []
    original = engine.exact_kernel

    def spy(mat):
        result = original(mat)
        calls.append((mat, result))
        return result

    monkeypatch.setattr(engine, "exact_kernel", spy)
    return calls


def _split_without_a_screen(calls):
    """The boxes the cover split on an enclosing box's screen alone, each
    as (points, rows): for each call answered FullRank(c), the boxes of the
    called box's left chain (its low child, that child's low child and so
    on) with at least c points.  Each chain box, down to one with fewer
    than mu points, must be a prefix of the called box's rows."""
    skipped = []
    for mat, result in calls:
        if result:
            continue
        box = tuple(range(len(mat.points)))
        while len(box) >= len(mat.exponents):
            _, box, _ = bisection_split(mat.points, box)
            assert box == tuple(range(len(box)))
            if len(box) >= result.rows:
                skipped.append((mat.points[: len(box)], mat.rows[: len(box)]))
    return skipped


def test_screen_skips_boxes_with_fewer_than_mu_points(monkeypatch):
    """One screen per kernel call with at least mu rows, none below mu; and
    a chain box that an enclosing box's screen found full rank gets no
    kernel call, so the bisection tree's 2 * certificates - 1 boxes are the
    kernel calls plus those boxes."""
    calls = _kernel_calls(monkeypatch)
    screened = _spy(monkeypatch, "_independent_mod_p", lambda rows, mu: len(rows))
    report = affine_pipeline(make_ideal(["x1 - x0^2"], 2), 100, delta=2)
    mu = report.mu
    sizes = [len(mat.points) for mat, _ in calls]
    assert min(sizes) < mu <= max(sizes)
    assert screened == [q for q in sizes if q >= mu]
    assert report.timings["kernel_screens"] == len(screened)
    skipped = {frozenset(points) for points, _ in _split_without_a_screen(calls)}
    assert skipped
    assert not any(frozenset(mat.points) in skipped for mat, _ in calls)
    assert len(calls) + len(skipped) == 2 * len(report.certificates) - 1


@pytest.mark.parametrize("b, delta", [(1000, 2), (10**4, 4), (10**4, 10)])
def test_boxes_split_without_a_screen_have_full_rank(monkeypatch, b, delta):
    """A chain box that the cover splits on an enclosing box's screen alone
    has rank mu over the rationals."""
    calls = _kernel_calls(monkeypatch)
    report = affine_pipeline(make_ideal(["x1 - x0^2"], 2), b, delta=delta)
    skipped = _split_without_a_screen(calls)
    assert skipped
    assert all(rational_rank(rows) == report.mu for _, rows in skipped)
    # the other calls still answer as the oracle does
    for mat, found in calls:
        assert (found or None) == _first_oracle_vector(mat)


def test_kernel_reports_a_full_rank_low_prefix():
    """At full rank the answer is falsy and names the shortest prefix of
    the rows that the screen finds to have rank mu."""
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert exact_kernel(_matrix(rows)) == FullRank(3)
    assert not FullRank(3)
    assert exact_kernel(_matrix(rows[::-1])) == FullRank(3)
    assert exact_kernel(_matrix([(1, 0, 0), (2, 0, 0)] + rows[1:])) == FullRank(4)
    # with a kernel vector, the answer is the vector
    dependent = _matrix([(1, 1, 0), (2, 2, 0), (0, 0, 1)])
    assert exact_kernel(dependent) == (1, -1, 0)


def _kernel(mat):
    """exact_kernel's vector, or None at full rank, where its FullRank(c)
    must name a first c rows with rank mu over the rationals."""
    result = exact_kernel(mat)
    if result:
        return result
    assert rational_rank(mat.rows[: result.rows]) == len(mat.exponents)
    return None


def _conic_matrix_at_delta_12(points):
    """mu = 25: the staircase of x0*x2 - x1^2 at delta = 12."""
    return build_matrix(points, _conic_setup(12)[1])


@pytest.mark.parametrize("q", [6, 24, 25, 26, 40])
def test_kernel_matches_oracle_on_parabola_points_at_delta_12(q):
    """Lifted parabola points (1, x, x^2), on the conic x0*x2 = x1^2, with
    entries x^24 above 10^100."""
    rng = random.Random(q)
    xs = rng.sample(range(-(10**5), 10**5), q - 1) + [10**5]
    mat = _conic_matrix_at_delta_12([(1, x, x * x) for x in xs])
    assert len(mat.exponents) == 25
    assert max(max(map(abs, row)) for row in mat.rows) > 10**100
    vec = _kernel(mat)
    assert vec == _first_oracle_vector(mat)
    assert (vec is None) == (q >= 25)
    assert engine._first_kernel_vector(mat.rows, 25) == vec


@pytest.mark.parametrize("q", [10, 25, 30])
def test_kernel_matches_oracle_on_conic_points_at_delta_12(q):
    """Primitive conic points (a^2, ab, b^2) with a, b up to 10^5."""
    rng = random.Random(100 + q)
    pts = set()
    while len(pts) < q:
        a, b = rng.randint(1, 10**5), rng.randint(-(10**5), 10**5)
        if math.gcd(a, b) == 1:
            pts.add((a * a, a * b, b * b))
    mat = _conic_matrix_at_delta_12(sorted(pts))
    assert max(max(map(abs, row)) for row in mat.rows) > 10**100
    vec = _first_oracle_vector(mat)
    assert _kernel(mat) == vec
    assert engine._first_kernel_vector(mat.rows, 25) == vec


@pytest.mark.parametrize(
    "rows",
    [
        # a large common content, different on each row
        [[2**200 * v for v in (1, 2, 3, 4)], [3**90 * v for v in (1, 3, 5, 7)],
         [6**70 * v for v in (2, 1, 0, 5)]],
        # pivot entries sharing a large factor with the rows below
        [[6 * 10**30, 4, 9, 1], [10**31, 7, 2, 8], [15 * 10**30, 1, 1, 1]],
        # zero in the pivot column, first on the top rows
        [[0, 0, 1, 2], [0, 3, 1, 1], [5, 0, 0, 7]],
        [[0, 1, 2, 3], [0, 2, 4, 6], [0, 1, 0, 1]],
        # rank deficient: a zero row, a repeated row, a sum of rows
        [[0, 0, 0, 0], [1, 2, 3, 4], [1, 2, 3, 4], [2, 4, 6, 8]],
        [[1, 2, 3, 4], [4, 3, 2, 1], [5, 5, 5, 5], [3, 1, -1, -3]],
        # full rank, square and with an extra row
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
        [[10**40, 1, 2], [3, 10**40, 4], [5, 6, 10**40], [7, 8, 9]],
    ],
)
def test_elimination_matches_oracle_on_awkward_rows(rows):
    mat = _matrix(rows)
    expected = _first_oracle_vector(mat)
    assert engine._first_kernel_vector(mat.rows, len(rows[0])) == expected
    assert _kernel(mat) == expected


# -- the elimination from the ordering-smallest column ------------------------


@st.composite
def integer_rows(draw):
    """r = 1..mu+2 integer rows of length mu = 1..30: random entries, a
    random rank, or Vandermonde rows (x^(mu-1), ..., x, 1) of up to 25
    columns with repeated nodes possible; then some columns zeroed, and
    some rows replaced by a multiple (1 repeats it) of another row."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["entries", "rank", "vandermonde"]))
    mu = draw(st.integers(1, 25 if shape == "vandermonde" else 30))
    r = draw(st.integers(1, mu + 2))
    if shape == "vandermonde":
        xs = [rng.randint(-12, 12) for _ in range(r)]
        rows = [[x**k for k in reversed(range(mu))] for x in xs]
    else:
        size = draw(st.sampled_from([1, 10, 1000, 10**12]))
        rank = r if shape == "entries" else draw(st.integers(0, min(r, mu)))
        basis = [[rng.randint(-size, size) for _ in range(mu)] for _ in range(rank)]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(mu)]
            for _ in range(r)
        ] if shape == "rank" else basis
    zero = draw(st.sets(st.integers(0, mu - 1), max_size=3))
    rows = [[0 if j in zero else v for j, v in enumerate(row)] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        i, k = rng.randrange(r), rng.randrange(r)
        rows[i] = [draw(st.sampled_from([1, -1, 3, 10**9])) * v for v in rows[k]]
    return rows, mu


@settings(max_examples=80, deadline=None)
@given(integer_rows())
def test_elimination_matches_forward_elimination_and_rational_oracle(case):
    """The elimination from the ordering-smallest column returns the forward
    elimination's first-free-column vector, and rational_kernel's first."""
    rows, mu = case
    vec = engine._first_kernel_vector(rows, mu)
    assert vec == forward_kernel_vector(rows, mu)
    assert vec == _first_oracle_vector(_matrix(rows))


def _block_kernel_dimension(rows, mu):
    width = min(mu, len(rows) + 1)
    return width - rational_rank([row[:width] for row in rows])


def test_elimination_full_rank_is_none():
    """Distinct Vandermonde nodes, square: a pivot in every column."""
    rows = [[x**k for k in reversed(range(4))] for x in (-2, 1, 3, 7)]
    assert _block_kernel_dimension(rows, 4) == 0
    assert engine._first_kernel_vector(rows, 4) is None
    assert forward_kernel_vector(rows, 4) is None


def test_elimination_reduces_a_kernel_basis_of_dimension_two(monkeypatch):
    """Rank 2 on the block of columns 0..3 leaves two free columns, so the
    basis of K runs through the elimination a second time, and the
    reduction keeps the vector with the smallest last column, 2."""
    rows = [[1, 1, 1, 1, 9], [1, 2, 3, 4, 9], [2, 3, 4, 5, 18]]
    assert _block_kernel_dimension(rows, 5) == 2
    sizes = _spy(monkeypatch, "_eliminate", lambda rows, width: len(rows))
    vec = engine._first_kernel_vector(rows, 5)
    assert sizes == [3, 2]
    assert vec == (1, -2, 1, 0, 0)
    assert vec == forward_kernel_vector(rows, 5) == _first_oracle_vector(_matrix(rows))


def test_elimination_divides_combined_rows_by_their_content():
    """Vandermonde rows (x^5, ..., x, 1): the pivot of the column of ones
    is row 0 as given, and each other row, once combined with it, holds
    x^k - x_0^k, a multiple of x - x_0 that the content division removes,
    so every later pivot row is primitive and no larger than the input.
    Five rows leave column 0 free."""
    rows = [[x**k for k in reversed(range(6))] for x in (2, 5, 11, 17, -3)]
    pivots = engine._eliminate(rows, 6)
    assert pivots[0] is None and pivots[5] == rows[0]
    for top in pivots[1:5]:
        assert math.gcd(*top) == 1
        assert max(map(abs, top)) <= 17**5


# -- the packed screen and the column-wise matrix ----------------------------

P = engine.KERNEL_PRIME


def _offers(rows, mu):
    """Each list of chosen rows the screen offers, as a tuple."""
    return [tuple(chosen) for chosen in engine._independent_mod_p(rows, mu)]


def _check_offers(rows, mu):
    """The screen's last offer is the list screen's choice, and each earlier
    offer is a shorter prefix of the next: every rank is offered once."""
    offers = _offers(rows, mu)
    assert offers and offers[-1] == tuple(list_screen(rows, mu, P))
    for shorter, longer in zip(offers, offers[1:]):
        assert len(shorter) < len(longer) and longer[: len(shorter)] == shorter
    return offers


@st.composite
def residue_rows(draw):
    """mu from 1 to 64, and rows drawn from a few base rows: repeats, zero
    rows, rows of all P - 1, entries at 0, 1 and P - 1, sums of two rows
    mod P, and often more rows than mu."""
    mu = draw(st.integers(1, 64))
    entry = st.sampled_from([0, 1, P - 1]) | st.integers(0, P - 1)
    base = st.lists(entry, min_size=mu, max_size=mu)
    base |= st.sampled_from([[0] * mu, [P - 1] * mu])
    pool = draw(st.lists(base, min_size=1, max_size=5))
    a, b = draw(st.lists(st.integers(0, P - 1), min_size=2, max_size=2))
    pool.append([(a * x + b * y) % P for x, y in zip(pool[0], pool[-1])])
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=mu + 16))
    return mu, [tuple(row) for row in rows]


@settings(max_examples=120, deadline=None)
@given(residue_rows())
def test_packed_screen_matches_list_screen(case):
    mu, rows = case
    _check_offers(rows, mu)


@st.composite
def raw_rows(draw):
    """The rows of residue_rows with each entry shifted by k*P, k up to
    2^40 either way, and negated at random: integer rows as a matrix holds
    them, with residues drawn as residue_rows draws them."""
    mu, rows = draw(residue_rows())
    shift = st.sampled_from([0, 1, -1]) | st.integers(-(2**40), 2**40)
    sign = st.sampled_from([1, -1])
    return mu, [
        tuple(draw(sign) * (x + draw(shift) * P) for x in row) for row in rows
    ]


@settings(max_examples=120, deadline=None)
@given(raw_rows())
def test_screen_reduces_the_rows_it_reads(case):
    """The screen takes unreduced rows: its offers on them are its offers
    on the rows reduced mod P, the last one the list screen's choice."""
    mu, rows = case
    reduced = [tuple(x % P for x in row) for row in rows]
    offers = _offers(rows, mu)
    assert offers == _offers(reduced, mu)
    assert offers[-1] == tuple(list_screen(reduced, mu, P))


def test_kernel_prime_is_one_digit_prime():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(P) and P < 2**30


def test_packed_screen_holds_the_largest_slot_growth():
    """mu - 1 unit rows, then the row of all P - 1 with a last entry 0: each
    unit row adds (P-1)*P to the last slot, which reaches (mu-1)*(P-1)*P,
    as wide as the slot bound allows, and is still 0 mod P, so the last row
    is dependent."""
    for mu in range(1, 65):
        units = [tuple(int(i == k) for i in range(mu)) for k in range(mu - 1)]
        last = (P - 1,) * (mu - 1) + (0,)
        assert _check_offers(units + [last], mu)[-1] == tuple(range(mu - 1))
        assert _check_offers(units + [(P - 1,) * mu], mu)[-1] == tuple(range(mu))


def test_screen_offers_after_a_run_of_dependent_rows():
    run = engine.KERNEL_STOP_RUN
    rows = [(1, 0, 0)] + [(2, 0, 0)] * run + [(0, 1, 0)] + [(0, 2, 0)] * (run - 1)
    assert _offers(rows, 3) == [(0,), (0, run + 1)]
    # a run that reaches the end is not offered twice
    assert _offers(rows + [(0, 3, 0)], 3) == [(0,), (0, run + 1)]
    assert _offers([(0, 0, 0)] * run, 3) == [()]


coordinates = (
    st.sampled_from([0, 1, -1])
    | st.integers(-(10**6), 10**6)
    | st.integers(2**64, 2**70)
    | st.integers(-(2**70), -(2**64))
)


def _coordinate_columns(size):
    """One coordinate's values at `size` points: 1 or 0 at every point (a
    column the column build skips, or one of zeros), one value repeated, or
    values drawn one by one."""
    return st.one_of(
        st.sampled_from([1, 0]).map(lambda x: (x,) * size),
        coordinates.map(lambda x: (x,) * size),
        st.lists(coordinates, min_size=size, max_size=size).map(tuple),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_matrix_matches_entrywise_formula(data):
    """n = 1 to 5, delta = 0 to 4, 1 to 60 points, each coordinate drawn
    by _coordinate_columns, and any set of exponents, the empty one (mu = 0)
    too."""
    n = data.draw(st.integers(1, 5))
    ordering = data.draw(st.sampled_from(list(Ordering)))
    delta = data.draw(st.integers(0, 4))
    exponents = data.draw(
        st.lists(
            st.sampled_from(list(monomials_of_degree(delta, n))),
            max_size=12, unique=True,
        )
    )
    exponents.sort(key=ordering.key, reverse=True)
    size = data.draw(st.integers(1, 60))
    columns = [data.draw(_coordinate_columns(size)) for _ in range(n)]
    points = list(zip(*columns))
    mat = build_matrix(points, exponents)
    assert mat.rows == entrywise_matrix_rows(points, exponents)
    assert mat.points == tuple(points)
    assert mat.exponents == tuple(exponents)
    assert all(type(x) is int for row in mat.rows for x in row)


def test_build_matrix_without_exponents():
    """mu = 0: one empty row per point, and no dimension to check."""
    mat = build_matrix([(1, 2), (3, 4, 5)], ())
    assert mat == ((), ((1, 2), (3, 4, 5)), ((), ()))


# -- tall kernels: the early stop ----------------------------------------------


def test_kernel_resumes_the_screen_after_a_failed_early_check(monkeypatch):
    """Row 2 is dependent on row 1 mod P but not over Q, so the vector of the
    first offer (rank 2) fails on it; the screen resumes, and the offer at
    rank 3 passes, well before the last row."""
    eliminated = _spy(monkeypatch, "_first_kernel_vector", lambda rows, mu: len(rows))
    run = engine.KERNEL_STOP_RUN
    rows = (
        [(1, 0, 0, 0), (0, 1, P, 0), (0, 1, 0, 0)]
        + [(1, 0, 0, 0)] * run
        + [(0, 0, 1, 0)]
        + [(2, 0, 0, 0)] * (2 * run)
    )
    mat = _matrix(rows)
    assert exact_kernel(mat) == (0, 0, 0, 1) == _first_oracle_vector(mat)
    assert eliminated == [2, 3]


def test_kernel_falls_back_after_failed_early_checks(monkeypatch):
    """Full rank over Q, rank 2 mod P: the one offer fails, the screen ends
    on the same rank without offering it again, and all rows are eliminated."""
    eliminated = _spy(monkeypatch, "_first_kernel_vector", lambda rows, mu: len(rows))
    rows = [(1, 0, 0), (0, 1, P), (0, 1, 0)] + [(3, 0, 0)] * engine.KERNEL_STOP_RUN
    mat = _matrix(rows)
    assert rational_kernel(mat) == []
    assert exact_kernel(mat) == FullRank(len(rows))
    assert eliminated == [2, len(rows)]


def test_kernel_matches_rational_oracle_on_tall_rows():
    """Tall rank-deficient matrices, some entries multiples of P: the early
    stop, the resumed screen and the all-rows fallback all agree with the
    oracle."""
    rng = random.Random(26)
    for _ in range(150):
        mu = rng.randint(2, 8)
        rank = rng.randint(1, mu)
        basis = [
            [rng.choice([0, 1, P, 2 * P, rng.randint(-(10**20), 10**20)])
             for _ in range(mu)]
            for _ in range(rank)
        ]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(mu)]
            for _ in range(rng.randint(mu, 4 * mu + 20))
        ]
        mat = _matrix(rows)
        assert _kernel(mat) == _first_oracle_vector(mat)


# -- auxiliary polynomials ---------------------------------------------------


def _kernel_timings():
    return {"kernel_s": 0.0, "kernel_calls": 0, "kernel_screens": 0}


def test_auxiliary_small_point_set_always_certifies():
    gb, sc = _conic_setup()  # mu = 5
    pts = [(1, 1, 1), (4, 2, 1), (9, 3, 1), (4, -2, 1)]  # q = 4 <= mu - 1
    mat, timings = build_matrix(pts, sc), _kernel_timings()
    cert = auxiliary_for_box(mat, range(4), [(0, 9)] * 3, timings)
    assert cert is not None
    assert (timings["kernel_calls"], timings["kernel_screens"]) == (1, 0)
    assert verify_certificate(cert, pts, gb) == []
    for p in pts:
        assert cert.poly.evaluate(p) == 0


def test_auxiliary_reads_delta_and_variables_off_the_matrix():
    """A certificate's support degree and variable count are those of the
    matrix's columns: no staircase record or basis is passed."""
    gb, exponents = _conic_setup(3)
    pts = [(1, 1, 1), (4, 2, 1), (9, 3, 1)]
    cert = auxiliary_for_box(
        build_matrix(pts, exponents), range(3), [(1, 9)] * 3, _kernel_timings()
    )
    assert cert.support_delta == 3
    assert cert.poly.num_vars == 3
    assert verify_certificate(cert, pts, gb) == []


def test_auxiliary_full_rank_returns_full_rank():
    gb, sc = _conic_setup()
    # five points in general position on the conic: Vandermonde-type full rank
    ts = [Fraction(t) for t in (-2, -1, 0, 1, 2)]
    pts = [(1, t, t * t) for t in ts]
    pts = [tuple(int(v) for v in p) for p in pts]
    mat = build_matrix(pts, sc)
    box = [(-2, 4)] * 3
    timings = _kernel_timings()
    assert auxiliary_for_box(mat, range(5), box, timings) == FullRank(5)
    assert (timings["kernel_calls"], timings["kernel_screens"]) == (1, 1)


def test_verify_accepts_constructor_output():
    gb, sc = _conic_setup()
    pts = [(1, 1, 1), (4, 2, 1)]
    cert = auxiliary_for_box(
        build_matrix(pts, sc), (0, 1), [(1, 4)] * 3, _kernel_timings()
    )
    assert verify_certificate(cert, pts, gb) == []


def test_verify_rejects_perturbed_coefficient():
    gb, sc = _conic_setup()
    pts = [(1, 1, 1), (4, 2, 1)]
    cert = auxiliary_for_box(
        build_matrix(pts, sc), (0, 1), [(1, 4)] * 3, _kernel_timings()
    )
    e0 = sorted(cert.poly.support())[0]
    bad = Polynomial(
        {**cert.poly.terms, e0: cert.poly.terms[e0] + 1}, cert.poly.num_vars
    )
    failures = verify_certificate(
        AuxiliaryCertificate(bad, cert.support_delta, cert.points_covered,
                             cert.box),
        pts,
        gb,
    )
    assert any("vanish" in msg for msg in failures)


def test_verify_rejects_support_in_lt():
    gb, sc = _conic_setup()
    pts = [(1, 1, 1), (4, 2, 1)]
    cert = auxiliary_for_box(
        build_matrix(pts, sc), (0, 1), [(1, 4)] * 3, _kernel_timings()
    )
    # move mass onto x1^2, the excluded leading monomial
    bad = cert.poly + Polynomial({(0, 2, 0): Fraction(1)}, 3)
    failures = verify_certificate(
        AuxiliaryCertificate(bad, 2, cert.points_covered, cert.box), pts, gb
    )
    assert any("LT" in msg for msg in failures)


def test_verify_rejects_ideal_member():
    gb, sc = _conic_setup()
    member = Polynomial({(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}, 3)
    failures = verify_certificate(
        AuxiliaryCertificate(member, 2, (), ((0, 1),) * 3), [], gb
    )
    assert failures == ["support monomial (0, 2, 0) lies in LT(I)", "lies in the ideal"]


def test_verify_tests_lt_membership_once_per_term_and_leading_monomial(
    monkeypatch,
):
    # the LT(I) test is read off normal_form, which returns a certificate
    # supported in M(delta) itself: one divides call per term and leading
    # monomial, none of them in verify_certificate's own loop
    parabola = make_ideal(["x1 - x0^2"], 2)
    report = affine_pipeline(parabola, 4 * 10**4, delta=2)
    gb = homogenized_basis(parabola, GRLEX)
    calls = {"engine": 0, "ideals": 0}

    def counting(name, real):
        def divides(a, b):
            calls[name] += 1
            return real(a, b)

        return divides

    monkeypatch.setattr(engine, "divides", counting("engine", engine.divides))
    monkeypatch.setattr(ideals, "divides", counting("ideals", ideals.divides))
    certs = report.certificates
    assert len(certs) == 116
    assert all(verify_certificate(c, report.points, gb) == [] for c in certs)
    lms = len(gb.leading_monomials)
    assert calls == {
        "engine": 0,
        "ideals": sum(len(c.poly.terms) * lms for c in certs),
    }


# -- integer dichotomy -------------------------------------------------------


def test_integer_minor_dichotomy():
    """Square minors of the integer monomial matrix are integers, so each
    determinant is either 0 or at least 1 in absolute value."""
    gb, sc = _conic_setup()
    rng = random.Random(17)
    for _ in range(40):
        pts = []
        while len(pts) < 5:
            t = rng.randint(-6, 6)
            p = (1, t, t * t)
            if p not in pts:
                pts.append(p)
        mat = build_matrix(pts, sc)
        det = exact_determinant([list(row) for row in mat.rows])
        assert det.denominator == 1
        assert det == 0 or abs(det) >= 1


# -- theoretical rho ----------------------------------------------------------


def test_theoretical_rho_vandermonde_scale():
    # mu=3, m=1, nu=2, f=3, unit norms, unit box: rho ~ (1/(3! * 3^3))^(1/3)
    box = HeightBox((1, 1))
    rho, cubes = theoretical_rho(box, (0, 0), 3, 1, 1)
    assert 0 < rho <= (1 / 162) ** (1 / 3)
    assert cubes == math.ceil(2 / rho)


def test_theoretical_rho_certifies_strictly():
    # mu=5, m=1: nu=4, f=10, D_1(4)=5
    box = HeightBox((1, 100, 10000))
    rho, _ = theoretical_rho(box, (2, 4, 4), 5, 1, Fraction(3))
    lhs = (
        Fraction(math.factorial(5) * 5**5 * 3**5 * 100**4 * 10000**4)
        * Fraction(rho) ** 10
    )
    assert lhs < 1


def test_theoretical_rho_monotone_in_height():
    small = HeightBox((1, 10, 100))
    large = HeightBox((1, 100, 10000))
    r1, _ = theoretical_rho(small, (2, 4, 4), 5, 1, 1)
    r2, _ = theoretical_rho(large, (2, 4, 4), 5, 1, 1)
    assert r2 < r1 <= 0.5


@pytest.mark.parametrize(
    "norm_bound", [0, -1, -Fraction(1, 10**400), math.inf, math.nan]
)
def test_theoretical_rho_needs_a_positive_finite_norm_bound(norm_bound):
    # a negative norm that no double tells from 0 is refused too
    box = HeightBox((1, 100, 100))
    with pytest.raises(InputError, match="norm bound must be a positive rational"):
        theoretical_rho(box, (2, 4, 4), 5, 1, norm_bound)


def test_theoretical_rho_takes_rationals_beyond_the_doubles():
    # mu=5, m=1: f=10, K = 5! 5^5 N^5 B^8 with N = B = 10^400
    box = HeightBox((1, 10**400, 10**400))
    rho, cubes = theoretical_rho(box, (0, 4, 4), 5, 1, 10**400)
    k = math.factorial(5) * 5**5 * 10**2000 * 10**3200
    q = rho.denominator
    assert rho == Fraction(1, q) and cubes == 2 * q
    assert (q - 1) ** 10 <= k < q**10
    tiny = HeightBox((1, Fraction(1, 10**400), Fraction(1, 10**400)))
    assert theoretical_rho(tiny, (0, 4, 4), 5, 1, 20) == (Fraction(1, 2), 4)


@settings(max_examples=150, deadline=None)
@given(
    mu=st.integers(2, 40),
    m=st.integers(1, 3),
    data=st.data(),
    norm=st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**6),
)
def test_theoretical_rho_is_one_over_the_least_q(mu, m, data, norm):
    # recomputed in Fractions: q^f > K = mu! (D_m(nu) N)^mu prod B_i^sigma_i,
    # and no smaller q >= 2 has it
    n = data.draw(st.integers(1, 3))
    heights = data.draw(st.lists(
        st.fractions(Fraction(1, 10**9), 10**30, max_denominator=10**9).filter(bool),
        min_size=n, max_size=n,
    ))
    sigma = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    budget = choose_nu(mu, m)
    rho, cubes = theoretical_rho(HeightBox(heights), sigma, mu, m, norm)
    q, f = rho.denominator, budget.e
    k = Fraction(math.factorial(mu)) * (D(m, budget.nu) * norm) ** mu
    for s_i, b_i in zip(sigma, heights):
        k *= b_i**s_i
    assert rho.numerator == 1 and q >= 2 and cubes == (2 * q) ** m
    assert Fraction(q) ** f > k
    assert q == 2 or Fraction(q - 1) ** f <= k


def test_theoretical_rho_rejects_f_zero():
    with pytest.raises(DegenerateIdealError):
        theoretical_rho(HeightBox((1, 1)), (0, 0), 1, 1, 1)  # mu=1: f=0


# -- choose_delta -------------------------------------------------------------


def _conic_basis():
    return groebner(make_ideal(["x0*x2 - x1^2"], 3), GRLEX)


def test_choose_delta_conic():
    delta, report = choose_delta(_conic_basis(), 0.25)
    assert delta == 2
    assert report["delta"] == 2
    assert max(r - l for r, l in zip(report["ratios"], report["limits"])) <= 0.25


@pytest.mark.parametrize(
    "gens, num_vars, epsilon, expected_delta",
    [
        (["x0*x2 - x1^2"], 3, 0.25, 2),
        (["x0*x2 - x1^2"], 3, 100.0, 1),
        (["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"], 4, 0.25, 1),
    ],
    ids=["conic", "conic-first-delta", "twisted-cubic"],
)
def test_choose_delta_reports_the_exponents_and_their_limits(
    gens, num_vars, epsilon, expected_delta
):
    gb = groebner(make_ideal(gens, num_vars), GRLEX)
    m, d = gb.dimension_degree
    delta, report = choose_delta(gb, epsilon)
    assert delta == report["delta"] == expected_delta
    # the limits (m+1) a_i / d^(1/m), the a_i measured at the probe degree
    a = a_estimates(gb, engine.PROBE_DEGREE_DEFAULT)
    assert report["limits"] == [(m + 1) * float(x) / d ** (1.0 / m) for x in a]
    # the ratios m sigma_i / f at delta: the correctly rounded floats of the
    # exact quotients, from which the quotients are recovered exactly
    f = choose_nu(hilbert_function(gb, delta), m).e
    exact = [Fraction(m * s, f) for s in all_sigmas(gb, delta)]
    assert report["ratios"] == [float(x) for x in exact]
    assert [Fraction(r).limit_denominator(f) for r in report["ratios"]] == exact


def test_choose_delta_huge_epsilon_picks_smallest_usable():
    delta, _ = choose_delta(_conic_basis(), 100.0)
    assert delta == 1


def test_choose_delta_impossible_epsilon():
    with pytest.raises(InputError):
        choose_delta(_conic_basis(), 1e-9)


def test_choose_delta_rejects_bad_inputs():
    for epsilon in (-1.0, math.inf, math.nan):
        with pytest.raises(InputError):
            choose_delta(_conic_basis(), epsilon)
    # the homogenized single point (2, 3) has dimension m = 0
    point = homogenized_basis(make_ideal(["x0 - 2", "x1 - 3"], 2), GRLEX).ideal
    with pytest.raises(DegenerateIdealError):
        choose_delta(groebner(point, GRLEX), 0.5)


# -- covering / pipeline -------------------------------------------------------


def test_cover_conic_projective():
    ih = make_ideal(["x0*x2 - x1^2"], 3)
    report = cover_and_construct(groebner(ih, GRLEX), HeightBox((4, 4, 4)), 2)
    assert report.mu == 5
    assert (report.dimension, report.degree) == (1, 2)
    assert len(report.points) == 8
    assert report.class_counts == [5, 0, 3]
    covered = set()
    for c in report.certificates:
        covered.update(c.points_covered)
    assert covered == set(range(8))


def test_cover_delta_xor_epsilon():
    conic = make_ideal(["x0*x2 - x1^2"], 3)
    box = HeightBox((4, 4, 4))
    with pytest.raises(InputError, match="exactly one of delta / epsilon"):
        cover_and_construct(groebner(conic, GRLEX), box)
    with pytest.raises(InputError, match="exactly one of delta / epsilon"):
        cover_and_construct(groebner(conic, GRLEX), box, delta=2, epsilon=0.25)


def test_affine_pipeline_parabola():
    report = affine_pipeline(make_ideal(["x1 - x0^2"], 2), 100, delta=2)
    assert len(report.affine_points) == 21
    assert report.mu == 5
    assert report.vacuous is False
    assert report.k_actual == 2 * len(report.certificates)
    assert report.ordering_bound.holds
    # bisection depth never exceeds the per-axis binary-split budget
    assert report.max_depth <= math.ceil(math.log2(2 * 100)) + 1


def test_affine_pipeline_epsilon_mode():
    report = affine_pipeline(make_ideal(["x1 - x0^2"], 2), 100, epsilon=0.25)
    assert report.delta == 2
    assert report.delta_report["delta"] == 2


def test_affine_pipeline_delta_xor_epsilon():
    parabola = make_ideal(["x1 - x0^2"], 2)
    with pytest.raises(InputError):
        affine_pipeline(parabola, 10)
    with pytest.raises(InputError):
        affine_pipeline(parabola, 10, delta=2, epsilon=0.5)


def test_affine_pipeline_empty_variety_is_vacuous():
    report = affine_pipeline(make_ideal(["x0^2 + 1"], 2), 50, delta=2)
    assert report.vacuous
    assert report.certificates == []


@pytest.mark.parametrize("ideal_file", ["empty.ideal", "parabola.ideal"])
def test_unknown_strategy_is_refused_for_any_point_count(ideal_file):
    # with no points the cover never runs, so the name is checked up front
    ideal = load_ideal(DATA / ideal_file)
    with pytest.raises(InputError, match="^unknown strategy 'bogus'$"):
        affine_pipeline(ideal, 10, delta=2, strategy="bogus")
    with pytest.raises(InputError, match="^unknown strategy 'bogus'$"):
        cover_and_construct(
            engine.run_basis(ideal, "affine", GRLEX), HeightBox((1, 10, 10)), 2,
            strategy="bogus",
        )


def test_affine_pipeline_single_point_degenerate():
    with pytest.raises(DegenerateIdealError):
        affine_pipeline(make_ideal(["x0 - 2", "x1 - 3"], 2), 10, delta=2)


@pytest.mark.parametrize(
    "name, height", [("parabola", 100), ("parabola", 10**4), ("line", 100)]
)
def test_theoretical_boxes_lie_in_the_unit_cube(name, height):
    # the line's t = x_1/B_1 = 1 (x_1 = B) falls on the grid's last cube, not
    # on a cube past 1; the parabola's |x_1| <= sqrt(B) reaches no cube at 1
    report = affine_pipeline(
        load_ideal(DATA / f"{name}.ideal"), height, delta=2,
        strategy="theoretical", norm_bound=20,
    )
    q = report.rho.denominator
    assert report.cube_count == 2 * q
    tops = [hi for c in report.certificates for _, hi in c.box]
    assert (1 in tops) == (name == "line")
    for c in report.certificates:
        for lo, hi in c.box:
            assert -1 <= lo < hi <= 1 and hi - lo == Fraction(1, q)


def test_theoretical_norm_bound_too_small_is_falsified():
    # an understated supplied norm bound makes rho too large; the engine
    # must notice, and the fault is the input's, not the paper's
    with pytest.raises(InputError, match="^norm bound 1/1000000000000 is too small"):
        affine_pipeline(
            make_ideal(["x1 - x0^2"], 2), 100, delta=2,
            strategy="theoretical", norm_bound=Fraction(1, 10**12),
        )


ONE_RULE = (
    "the theoretical strategy needs a norm bound; the adaptive strategy "
    "takes none"
)


def test_adaptive_strategy_refuses_a_norm_bound():
    # the adaptive cover reads no norm bound, so none is silently dropped
    norm_bound = Fraction(20)
    conic = groebner(make_ideal(["x0*x2 - x1^2"], 3), GRLEX)
    with pytest.raises(InputError, match=f"^{ONE_RULE}$"):
        cover_and_construct(conic, HeightBox((4, 4, 4)), 2, norm_bound=norm_bound)
    with pytest.raises(InputError, match=f"^{ONE_RULE}$"):
        affine_pipeline(
            make_ideal(["x1 - x0^2"], 2), 100, delta=2, norm_bound=norm_bound
        )


def _run_affine(pipeline, ideal, **kw):
    """A run over the ideal's points of height <= 100 at delta = 2, unless
    kw sets epsilon: through affine_pipeline, or through the one body,
    cover_and_construct, with the affine ideal and its lifted box."""
    kw.setdefault("delta", None if "epsilon" in kw else 2)
    if pipeline == "affine_pipeline":
        return lambda: affine_pipeline(ideal, 100, **kw)
    gb = homogenized_basis(ideal, GRLEX)
    box = HeightBox((1,) + (100,) * ideal.num_vars)
    return lambda: cover_and_construct(gb, box, affine_ideal=ideal, **kw)


def _forbid(monkeypatch, *, buchberger):
    """Make every enumeration, and with buchberger every Groebner basis
    run, fail the test if it is reached."""

    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the options were checked")

    names = ["enumerate_affine", "enumerate_projective"]
    if buchberger:
        monkeypatch.setattr(ideals, "groebner", unreachable)
        names.append("groebner")
    for name in names:
        monkeypatch.setattr(engine, name, unreachable)


PIPELINES = ["affine_pipeline", "cover_and_construct"]


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("name", ["parabola", "empty"])
@pytest.mark.parametrize("given", ["neither", "norm_bound"])
@pytest.mark.parametrize("strategy", ["adaptive", "theoretical"])
def test_one_rule_for_the_theoretical_inputs(
    monkeypatch, strategy, given, name, pipeline
):
    # the theoretical strategy takes a norm bound, the adaptive one none,
    # checked before any Buchberger run or enumeration, whether or not the
    # variety has points
    ideal = load_ideal(DATA / f"{name}.ideal")
    kw = {"norm_bound": Fraction(20)} if given == "norm_bound" else {}
    valid = (given == "norm_bound") == (strategy == "theoretical")
    run = _run_affine(pipeline, ideal, strategy=strategy, **kw)
    if valid:
        report = run()
        assert report.mode == "affine" and report.strategy == strategy
        assert report.vacuous == (name == "empty")
        assert len(report.points) == (21 if name == "parabola" else 0)
        assert report.affine_points == [p[1:] for p in report.points]
        assert report.ordering_bound is not None  # x0^2 + 1 has m = 1 too
        return
    _forbid(monkeypatch, buchberger=True)
    with pytest.raises(InputError, match=f"^{ONE_RULE}$"):
        run()


EPSILON = "epsilon must be positive and finite"
BAD_NUMBERS = {
    "epsilon-0": ({"epsilon": 0.0}, EPSILON),
    "epsilon-minus-1": ({"epsilon": -1.0}, EPSILON),
    "epsilon-inf": ({"epsilon": math.inf}, EPSILON),
    "epsilon-nan": ({"epsilon": math.nan}, EPSILON),
    "norm-bound-0": (
        {"strategy": "theoretical", "norm_bound": 0},
        "norm bound must be a positive rational, got 0",
    ),
    "norm-bound-minus-1": (
        {"strategy": "theoretical", "norm_bound": Fraction(-1)},
        "norm bound must be a positive rational, got -1",
    ),
    "norm-bound-adaptive": ({"norm_bound": Fraction(3)}, ONE_RULE),
}


def _construct_args(args, kw):
    """`detmethod construct`'s parsed options: args, then kw as flags, and
    --delta 2 unless kw sets epsilon."""
    kw = {"delta": 2, **kw} if "epsilon" not in kw else kw
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in kw.items()]
    return build_parser().parse_args(["construct", *args, *flags])


@pytest.mark.parametrize("pipeline", PIPELINES + ["construct"])
@pytest.mark.parametrize("name", ["parabola", "empty"])
@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_a_bad_number_is_refused_before_enumeration(
    monkeypatch, case, name, pipeline
):
    # _require_options checks epsilon and the norm bound before any
    # Buchberger run or enumeration, whether or not the variety has points;
    # through cover_and_construct the basis is built before the check
    kw, message = BAD_NUMBERS[case]
    path = DATA / f"{name}.ideal"
    if pipeline == "construct":
        args = _construct_args(["--ideal", str(path), "--height", "100"], kw)
        run = lambda: args.func(args)
    else:
        run = _run_affine(pipeline, load_ideal(path), **kw)
    _forbid(monkeypatch, buchberger=True)
    with pytest.raises(InputError, match=f"^{message}$"):
        run()


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_a_bad_number_is_refused_before_buchberger_in_projective_mode(
    monkeypatch, case
):
    # `construct --mode projective` checks the options before its basis
    kw, message = BAD_NUMBERS[case]
    args = _construct_args(
        ["--ideal", str(DATA / "conic.ideal"), "--mode", "projective",
         "--heights", "5,5,5"],
        kw,
    )
    _forbid(monkeypatch, buchberger=True)
    with pytest.raises(InputError, match=f"^{message}$"):
        args.func(args)


def test_a_norm_bound_on_a_surface_is_refused_before_enumeration(monkeypatch):
    # the theoretical strategy covers curves only: refused after the basis
    # gives m = 2, before the enumeration, whose plan at B = 10^5 is over
    # the budget
    saddle = load_ideal(DATA / "surfaces" / "saddle.ideal")
    _forbid(monkeypatch, buchberger=False)
    message = r"^the theoretical strategy covers curves only \(m = 1\)$"
    with pytest.raises(InputError, match=message):
        affine_pipeline(
            saddle, 10**5, delta=2, strategy="theoretical", norm_bound=Fraction(20)
        )


def test_cover_requires_homogeneous():
    parabola = make_ideal(["x1 - x0^2"], 2)
    with pytest.raises(InputError, match="^projective mode requires a homogeneous"):
        cover_and_construct(groebner(parabola, GRLEX), HeightBox((4, 4)), 2)


TWISTED_CUBIC = ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"]


@pytest.mark.parametrize(
    "mode, texts, num_vars, heights, counts",
    [
        ("affine", ["x1 - x0^2"], 2, 25, None),
        ("affine", ["x0^2 + x1^2 - 1"], 2, 5, None),
        ("affine", ["x1 - x0^2", "x2 - x0^3"], 3, 30, None),
        ("projective", ["x0*x2 - x1^2"], 3, (4, 4, 4), (5, 0, 3)),
        ("projective", TWISTED_CUBIC, 4, (3, 3, 3, 3), None),
    ],
    ids=["parabola", "circle", "twisted-cubic-affine", "conic", "twisted-cubic"],
)
def test_class_counts_tally_the_points(mode, texts, num_vars, heights, counts):
    ideal = make_ideal(texts, num_vars)
    if mode == "affine":
        report = affine_pipeline(ideal, heights, delta=2)
    else:
        report = cover_and_construct(groebner(ideal, GRLEX), HeightBox(heights), 2)
    data = report.to_dict()
    assert sum(data["class_counts"]) == data["point_count"] > 0
    weights = HeightBox(report.heights).weights()
    tally = [0] * len(weights)
    for p in report.points:
        tally[class_index(p, weights)] += 1
    assert data["class_counts"] == tally
    if mode == "affine":
        assert tally == [data["point_count"]] + [0] * num_vars
    if counts is not None:
        assert tuple(tally) == counts


def test_report_roundtrip_is_json_serializable():
    import json

    report = affine_pipeline(make_ideal(["x1 - x0^2"], 2), 25, delta=2)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    data = json.loads(text)
    assert data["point_count"] == len(report.affine_points)
    assert data["vacuous"] is False
