"""detbound: counting, Taylor budgets, C^k norms, determinant estimate."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmethod import (
    D,
    DetBoundInput,
    InputError,
    choose_nu,
    ck_norm_bound,
    determinant_bound_exact,
    parse_polynomial,
)

from detmethod.bounds import finite_double, float_up, iroot, log_up
from oracles import exact_determinant, grid_derivative_max


# -- counting --------------------------------------------------------------


def test_D_examples():
    assert D(1, 3) == 4
    assert D(2, 2) == 6
    assert D(3, 2) == 10
    assert D(2, -1) == 0


@given(m=st.integers(1, 5), k=st.integers(0, 12))
def test_D_is_partial_sum_of_L(m, k):
    # L_m(i), the m-variate multi-indices of total degree exactly i
    assert D(m, k) == sum(math.comb(i + m - 1, m - 1) for i in range(k + 1))


# -- choose_nu -------------------------------------------------------------


def test_choose_nu_line_three_rows():
    b = choose_nu(3, 1)
    assert (b.nu, b.e) == (2, 3)  # orders 0,1,2 -> e = 0+1+2


def test_choose_nu_surface_six_rows():
    b = choose_nu(6, 2)
    assert (b.nu, b.e) == (2, 8)  # 0 + 1+1 + 2+2+2 with D_2(1)=3


def test_choose_nu_single_row():
    b = choose_nu(1, 2)
    assert (b.nu, b.e) == (0, 0)


def test_choose_nu_exact_boundary():
    # mu = D_1(4) = 5 sits exactly on the boundary
    b = choose_nu(5, 1)
    assert (b.nu, b.e) == (4, 10)


@given(mu=st.integers(1, 60), m=st.integers(1, 4))
def test_choose_nu_sandwich_and_minimality(mu, m):
    b = choose_nu(mu, m)
    assert D(m, b.nu - 1) <= mu <= D(m, b.nu)
    if b.nu > 0:
        assert D(m, b.nu - 1) < mu


def test_choose_nu_matches_the_linear_scan_and_is_fast_at_large_mu():
    for m in range(1, 5):
        for mu in range(1, 400):
            nu = next(k for k in range(mu + 1) if D(m, k) >= mu)
            e = sum(i * math.comb(i + m - 1, m - 1) for i in range(nu))
            e += nu * (mu - D(m, nu - 1))
            assert choose_nu(mu, m) == (mu, m, nu, e), (mu, m)
    # a curve at HF = 2*10^9 + 1: nu = 2*10^9, which a scan would step through
    b = choose_nu(2 * 10**9 + 1, 1)
    assert (b.nu, b.e) == (2 * 10**9, (2 * 10**9 + 1) * 10**9)


# -- ck norms --------------------------------------------------------------


def test_ck_norm_identity_map():
    phi = parse_polynomial("x0", 1)
    assert ck_norm_bound(phi, 1, [(Fraction(-1), Fraction(1))]) == 1


def test_ck_norm_square():
    phi = parse_polynomial("x0^2", 1)
    # on [-1,1]: sup|phi| = 1, sup|phi'| = 2, sup|phi''| = 2
    assert ck_norm_bound(phi, 2, [(-1, 1)]) == 2


def test_ck_norm_shrinks_with_box():
    phi = parse_polynomial("x0^2", 1)
    small = ck_norm_bound(phi, 0, [(0, Fraction(1, 2))])
    assert small == Fraction(1, 4)


def test_ck_norm_dominates_grid_samples():
    rng = random.Random(7)
    for _ in range(10):
        terms = " + ".join(
            f"{rng.randint(-3, 3)}*x0^{i}*x1^{j}"
            for i in range(3)
            for j in range(3)
        )
        phi = parse_polynomial(terms, 2)
        box = [(Fraction(-1, 2), Fraction(1, 3)), (0, Fraction(3, 4))]
        bound = ck_norm_bound(phi, 2, box)
        sampled = grid_derivative_max(phi, 2, box, step=Fraction(1, 8))
        assert bound >= sampled


def test_ck_norm_rejects_bad_box():
    phi = parse_polynomial("x0", 1)
    with pytest.raises(InputError):
        ck_norm_bound(phi, 1, [(1, 0)])
    with pytest.raises(InputError):
        ck_norm_bound(phi, 1, [(0, 1), (0, 1)])


# -- determinant bound -----------------------------------------------------


def test_detbound_worked_example():
    # mu=2, m=1, unit norms, r=0.3: bound = 2 * 2^2 * 0.3 ~ 2.4
    inp = DetBoundInput(mu=2, m=1, norms=(1, 1), r=Fraction(3, 10))
    assert determinant_bound_exact(inp) == Fraction(12, 5)


def test_detbound_small_r_example():
    inp = DetBoundInput(mu=3, m=1, norms=(1, 1, 1), r=Fraction(1, 10))
    # 3! * 3^3 * (1/10)^3 = 162/1000
    assert determinant_bound_exact(inp) == Fraction(81, 500)


def test_float_up_is_least_double_not_below():
    up = math.nextafter(1.5, math.inf)
    assert float_up(Fraction(3, 2) + Fraction(1, 10**30)) == up
    assert float_up(Fraction(3, 2)) == 1.5
    assert float_up(1.5) == 1.5 and float_up(7) == 7.0
    third = float_up(Fraction(1, 3))
    assert math.nextafter(third, -math.inf) < Fraction(1, 3) <= third


def test_detbound_zero_norm():
    inp = DetBoundInput(mu=2, m=1, norms=(0, 1), r=Fraction(1, 2))
    assert determinant_bound_exact(inp) == 0


def test_detbound_monotone_in_r():
    a = DetBoundInput(mu=4, m=2, norms=(1, 1, 1, 1), r=Fraction(1, 2))
    b = DetBoundInput(mu=4, m=2, norms=(1, 1, 1, 1), r=Fraction(1, 4))
    assert determinant_bound_exact(b) < determinant_bound_exact(a)


def test_detbound_input_validation():
    with pytest.raises(InputError):
        DetBoundInput(mu=2, m=1, norms=(1,), r=Fraction(1, 2))
    with pytest.raises(InputError):
        DetBoundInput(mu=2, m=1, norms=(1, 1), r=Fraction(3, 2))


def test_detbound_takes_norms_beyond_the_doubles_but_not_infinities():
    # the exact bound needs no doubles; finite_double only decides whether
    # `bound` can print its double image
    largest = Fraction(sys.float_info.max)
    assert finite_double(largest) and finite_double(-largest)
    for norm in (largest + 1, 10**400):
        assert not finite_double(norm)
        inp = DetBoundInput(mu=2, m=1, norms=(1, norm), r=Fraction(1, 2))
        # 2! D_1(1)^2 (1 * norm) (1/2)^e with nu = e = 1
        assert determinant_bound_exact(inp) == 2 * 2**2 * norm * Fraction(1, 2)
    for norm in (math.inf, -math.inf, math.nan):
        assert not finite_double(norm)
        with pytest.raises(InputError, match="norms must be finite rationals"):
            DetBoundInput(mu=2, m=1, norms=(1, norm), r=Fraction(1, 2))


def test_detbound_dominates_vandermonde():
    # mu=5 points in a length-0.01 interval: actual minors are far below the bound
    pts = [Fraction(i, 500) for i in range(5)]
    rows = [[p**j for j in range(5)] for p in pts]
    det = abs(exact_determinant(rows))
    norms = tuple(
        ck_norm_bound(parse_polynomial(f"x0^{j}", 1), 4, [(0, Fraction(1, 100))])
        for j in range(5)
    )
    inp = DetBoundInput(mu=5, m=1, norms=norms, r=Fraction(1, 100))
    assert det <= determinant_bound_exact(inp)


def test_log_up_is_at_or_above_the_true_log_within_its_margin():
    # log_up of the exact bound, which `bound` prints as log_bound, against
    # mpmath at 200 bits; mu = 2, 4, 9, 40 and 51 are among the values
    # where math.lgamma(mu + 1) understates log mu!.  At m = 1 the exponent
    # e is mu (mu - 1) / 2, so an exact bound at mu = 3000 runs to tens of
    # millions of bits: m = 1 is sampled up to mu = 400
    mpmath = pytest.importorskip("mpmath")

    def log(n):  # of the top 300 bits, off by under 2^-299 (quick on any n)
        s = max(n.bit_length() - 300, 0)
        with mpmath.workprec(200):
            return mpmath.log(n >> s) + s * mpmath.log(2)

    rng = random.Random(23)
    cases = [(mu, 1) for mu in (1, 2, 4, 9, 40, 51, 400)]
    cases += [(mu, m) for mu in (2, 9, 51, 3000) for m in (2, 3)]
    cases += [(rng.randint(1, 3000), rng.randint(2, 3)) for _ in range(3)]
    for mu, m in cases:
        norms = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(mu))
        r = Fraction(rng.randint(1, 999), 1000)
        exact = determinant_bound_exact(DetBoundInput(mu=mu, m=m, norms=norms, r=r))
        p, q = exact.numerator, exact.denominator
        with mpmath.workprec(200):
            over = mpmath.mpf(log_up(exact)) - (log(p) - log(q))
        assert 0 <= over <= 2.0**-39 * (1 + math.log(p) + math.log(q)), (mu, m)


def test_iroot_against_brute_force():
    # n = 0 and 1 included, which iroot returns before any Newton step
    for k in range(1, 7):
        for n in range(300):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)


def test_iroot_is_isqrt_at_k_2():
    rng = random.Random(5)
    for n in [0, 1, 2, 3, 4, 10**400, 10**400 - 1] + [
        rng.getrandbits(rng.randint(1, 2000)) for _ in range(200)
    ]:
        assert iroot(n, 2) == math.isqrt(n)


@given(n=st.integers(0, 10**300), k=st.integers(1, 40))
def test_iroot_is_the_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k

