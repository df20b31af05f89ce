"""Independent oracles used by the test suite.

These deliberately avoid the library's staircase / kernel code paths so each
dual-route check keeps one side independent.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from detmethod import (
    Ideal,
    Ordering,
    Polynomial,
    all_sigmas,
    dimension_and_degree,
    divides,
    groebner,
    hilbert_function,
    monomials_of_degree,
)
from detmethod.ideals import OrderingBoundReport


def _rational_rref(rows):
    """Reduced row echelon form over exact rationals: (rows, pivot columns)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rational_rank(rows):
    """Row-reduction rank over exact rationals."""
    return len(_rational_rref(rows)[1])


def rational_kernel(mat):
    """Kernel basis by Gauss-Jordan over Fractions on the q x mu rows (one
    equation per point): one vector per free column of the reduced form,
    scaled to coprime integers with positive leading entry.  exact_kernel
    returns the first of them, or None if there is none."""
    mu = len(mat.exponents)
    reduced, pivots = _rational_rref(mat.rows)
    basis = []
    for free in range(mu):
        if free in pivots:
            continue
        vec = [Fraction(0)] * mu
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][free]
        scale = lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in ints))
    return basis


def hilbert_oracle(ideal, s):
    """HF_I(s) for a homogeneous ideal: number of degree-s monomials minus
    the rank of the coefficient matrix of {x^beta * g : |beta| = s - deg g}."""
    n = ideal.num_vars
    cols = list(monomials_of_degree(s, n))
    col_index = {e: i for i, e in enumerate(cols)}
    rows = []
    for g in ideal.generators:
        dg = g.degree()
        if dg > s:
            continue
        for beta in monomials_of_degree(s - dg, n):
            row = [Fraction(0)] * len(cols)
            for e, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(e, beta))
                row[col_index[shifted]] = c
            rows.append(row)
    if not rows:
        return len(cols)
    return len(cols) - rational_rank(rows)


def naive_staircase(gb, delta):
    """M(delta) by filtering every monomial of degree delta against every
    leading monomial, sorted descending by the ordering."""
    exps = [
        e
        for e in monomials_of_degree(delta, gb.num_vars)
        if not any(all(a <= b for a, b in zip(lm, e)) for lm in gb.leading_monomials)
    ]
    exps.sort(key=gb.ordering.key, reverse=True)
    return tuple(exps)


def exact_determinant(rows):
    """Fraction-exact determinant via elimination (small matrices)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def naive_affine_points(ideal, b):
    """Full-box scan without the linear-solve shortcut."""
    limit = int(b)
    rng = range(-limit, limit + 1)
    out = []
    for p in itertools.product(rng, repeat=ideal.num_vars):
        if all(g.evaluate(p) == 0 for g in ideal.generators):
            out.append(p)
    return sorted(out)


def naive_projective_points(ideal, box):
    """Full-box scan keeping the primitive vectors whose first nonzero
    coordinate is positive."""
    ranges = [range(-lim, lim + 1) for lim in box.ranges()]
    out = []
    for p in itertools.product(*ranges):
        first = next((v for v in p if v != 0), 0)
        if first <= 0 or gcd(*p) != 1:
            continue
        if all(g.evaluate(p) == 0 for g in ideal.generators):
            out.append(p)
    return sorted(out)


def grid_derivative_max(poly, k, box, step=Fraction(1, 100)):
    """Dense-grid sampled max of |d^alpha poly| over the box, |alpha| <= k."""
    m = poly.num_vars
    axes = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        pts = []
        x = lo
        while x <= hi:
            pts.append(x)
            x += step
        if pts[-1] != hi:
            pts.append(hi)
        axes.append(pts)
    best = Fraction(0)
    for order in range(k + 1):
        for alpha in monomials_of_degree(order, m):
            d = poly.partial_derivative(alpha)
            if d.is_zero():
                continue
            for point in itertools.product(*axes):
                v = abs(d.evaluate(point))
                if v > best:
                    best = v
    return best


def fraction_evaluate(poly, point):
    """Polynomial.evaluate with one Fraction per multiply: each coordinate
    becomes a Fraction and is raised to its power."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= Fraction(x) ** k
        total += v
    return total


def naive_normal_form(f, gb):
    """normal_form by the division algorithm on whole Polynomials: each step
    subtracts the Polynomial q*g, or moves the leading term to the remainder
    by subtracting it as a Polynomial."""
    ordering = gb.ordering
    remainder = {}
    work = f
    while not work.is_zero():
        lm, lc = work.leading_term(ordering)
        for g, lmg in zip(gb.basis, gb.leading_monomials):
            if divides(lmg, lm):
                quot = Polynomial.monomial(
                    tuple(a - b for a, b in zip(lm, lmg)),
                    f.num_vars,
                    lc / g.terms[lmg],
                )
                work = work - quot * g
                break
        else:
            remainder[lm] = lc
            work = work - Polynomial.monomial(lm, f.num_vars, lc)
    return Polynomial(remainder, f.num_vars)


def homogenized_basis_by_buchberger(affine_ideal, ordering):
    """The full basis of I^h by Buchberger alone: I^h generated by the
    homogenized grevlex basis of the affine ideal, then groebner of I^h
    under `ordering`."""
    affine = groebner(affine_ideal, Ordering.GREVLEX)
    ih = Ideal([g.homogenize() for g in affine.basis], affine_ideal.num_vars + 1)
    return groebner(ih, ordering)


def section_basis_by_buchberger(gb):
    """The full basis of J = I + (x0) under gb's ordering, by groebner of
    gb's generators and x0."""
    n = gb.num_vars
    x0 = Polynomial.variable(0, n)
    return groebner(Ideal(gb.ideal.generators + (x0,), n), gb.ordering)


def ordering_bounds_by_buchberger(affine_ideal, s_values):
    """affine_ordering_bound at each s of s_values, or None where HF of I^h
    vanishes at s: I^h's and J's bases by Buchberger, and the sum of
    t*HF_J(t) over t = 1..s term by term."""
    gb = homogenized_basis_by_buchberger(affine_ideal, Ordering.GRLEX_LEFT)
    section = section_basis_by_buchberger(gb)
    m = dimension_and_degree(gb).dimension
    reports = []
    for s in s_values:
        hf = hilbert_function(gb, s)
        if hf == 0:
            reports.append(None)
            continue
        lhs = Fraction(sum(all_sigmas(gb, s)[1:]), s * hf)
        weighted = sum(t * hilbert_function(section, t) for t in range(1, s + 1))
        inter = Fraction(weighted, s * hf)
        reports.append(
            OrderingBoundReport(
                s=s,
                lhs=lhs,
                intermediate_bound=inter,
                limit=Fraction(m, m + 1) if m >= 0 else Fraction(0),
                dimension=m,
                holds=lhs <= inter,
            )
        )
    return reports


def oracle_dehomogenize(f):
    """f(1, x1, ..., xn) by substitution, x1..xn renamed x0..x{n-1}: terms
    that differ only in x0 are summed."""
    out = {}
    for e, c in f.terms.items():
        out[e[1:]] = out.get(e[1:], Fraction(0)) + c
    return Polynomial(out, f.num_vars - 1)


def fraction_format_polynomial(poly, ordering):
    """format_polynomial with Fraction arithmetic on each coefficient: the
    sign by comparison, the magnitude by abs, the text by str."""
    if poly.is_zero():
        return "0"
    parts = []
    for i, e in enumerate(sorted(poly.terms, key=ordering.key, reverse=True)):
        c = poly.terms[e]
        neg = c < 0
        c = abs(c)
        factors = [f"x{j}^{k}" if k > 1 else f"x{j}" for j, k in enumerate(e) if k]
        if not factors or c != 1:
            factors.insert(0, str(c))
        body = "*".join(factors)
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
