"""Independent oracles used by the test suite.

These deliberately avoid the library's staircase / kernel code paths so each
dual-route check keeps one side independent.
"""

import heapq
import itertools
import re
from fractions import Fraction
from math import gcd, lcm, prod

from detmethod import (
    Ideal,
    Ordering,
    ParseError,
    Polynomial,
    all_sigmas,
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


def entrywise_matrix_rows(points, exponents):
    """The monomial matrix rows by the per-entry formula: each coordinate's
    powers 0..top listed once per point, and each entry the product of the
    powers its exponent picks."""
    top = max(map(max, exponents), default=0)
    rows = []
    for p in points:
        powers = [[x**k for k in range(top + 1)] for x in p]
        rows.append(tuple(prod(map(list.__getitem__, powers, e)) for e in exponents))
    return tuple(rows)


def list_screen(residues, mu, p):
    """The rank screen on lists: indices of the residue rows that stay
    independent modulo p when added one at a time to an echelon form,
    stopping at mu of them.  Each row is reduced entry by entry and taken
    mod p once at the end."""
    echelon = []  # (pivot column, reduced row from the pivot on, 1 there)
    chosen = []
    for j, row in enumerate(residues):
        v = list(row)
        for c, tail in echelon:
            f = v[c] % p
            if f:
                v[c:] = [a - f * b for a, b in zip(v[c:], tail)]
        v = [x % p for x in v]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        echelon.append((c, [x * inv % p for x in v[c:]]))
        chosen.append(j)
        if len(chosen) == mu:
            break
    return chosen


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
                quot = Polynomial(
                    {tuple(a - b for a, b in zip(lm, lmg)): lc / g.terms[lmg]},
                    f.num_vars,
                )
                work = work - quot * g
                break
        else:
            remainder[lm] = lc
            work = work - Polynomial({lm: lc}, f.num_vars)
    return Polynomial(remainder, f.num_vars)


def polynomial_s_polynomial(f, g, ordering):
    """The S-polynomial of f and g built from whole Polynomials: each is
    scaled by a monomial Polynomial and the two are subtracted."""
    lmf, lcf = f.leading_term(ordering)
    lmg, lcg = g.leading_term(ordering)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    n = f.num_vars
    mf = Polynomial({tuple(a - b for a, b in zip(lcm, lmf)): 1 / lcf}, n)
    mg = Polynomial({tuple(a - b for a, b in zip(lcm, lmg)): 1 / lcg}, n)
    return mf * f - mg * g


def max_key_reduce(f, basis, lms, ordering):
    """The full normal form of the Polynomial f against (basis, lms), by the
    division algorithm on a dict of its terms whose leading term is found by
    max() over the whole dict at every step."""
    key = ordering.key
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        lc = work.pop(lm)
        for g, lmg in zip(basis, lms):
            if divides(lmg, lm):
                q = lc / g.terms[lmg]
                shift = tuple(a - b for a, b in zip(lm, lmg))
                for e, c in g.terms.items():
                    if e != lmg:
                        e = tuple(a + b for a, b in zip(e, shift))
                        c = work.get(e, 0) - q * c
                        if c:
                            work[e] = c
                        else:
                            del work[e]
                break
        else:
            remainder[lm] = lc
    return Polynomial(remainder, f.num_vars)


def polynomial_groebner(ideal, ordering):
    """groebner's reduced basis, as a list of Polynomials, by the same
    Buchberger run (normal selection, the coprime criterion, one
    interreduction pass) with polynomial_s_polynomial and max_key_reduce in
    place of the term-dict S-polynomials and the heap division."""
    def sort_key(g):
        return ordering.key(g.leading_monomial(ordering)), sorted(g.terms)

    basis = []
    for g in sorted((g.monic(ordering) for g in ideal.generators), key=sort_key):
        if g not in basis:
            basis.append(g)
    lms = [g.leading_monomial(ordering) for g in basis]
    # pairs leave the heap by (degree of the lcm, order of creation)
    pairs = []
    counter = itertools.count()

    def push(j):
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
            if lcm != tuple(a + b for a, b in zip(lms[i], lms[j])):
                heapq.heappush(pairs, (sum(lcm), next(counter), i, j))

    for j in range(len(basis)):
        push(j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = polynomial_s_polynomial(basis[i], basis[j], ordering)
        r = max_key_reduce(s, basis, lms, ordering)
        if not r.is_zero():
            basis.append(r.monic(ordering))
            lms.append(basis[-1].leading_monomial(ordering))
            push(len(basis) - 1)
    keep = [
        idx
        for idx, lm in enumerate(lms)
        if not any(
            divides(lms[k], lm) and k != idx and (lms[k] != lm or k < idx)
            for k in range(len(lms))
        )
    ]
    reduced = [basis[k] for k in keep]
    klms = [lms[k] for k in keep]
    for idx in range(len(reduced)):
        reduced[idx] = max_key_reduce(
            reduced[idx],
            reduced[:idx] + reduced[idx + 1 :],
            klms[:idx] + klms[idx + 1 :],
            ordering,
        )
    reduced.sort(key=sort_key)
    return reduced


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
    m = gb.dimension_degree.dimension
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


# -- the polynomial text format, parsed token object by token object ----------

_TOKEN = re.compile(r"\d+(?:/\d+)?|[A-Za-z_]\w*|[-+*^()]|\S")


class _Tokenizer:
    """The tokens of the text, line by line, each with its line and column."""

    def __init__(self, text):
        self.tokens = []
        for lineno, line in enumerate(text.splitlines() or [""], start=1):
            for m in _TOKEN.finditer(line):
                self.tokens.append((m.group(0), lineno, m.start() + 1))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def where(self):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            return line, col
        if self.tokens:
            _, line, col = self.tokens[-1]
            return line, col + 1
        return 1, 1

    def error(self, message):
        line, col = self.where()
        raise ParseError(message, line, col)


def tokenizer_parse_polynomial(text, num_vars):
    """parse_polynomial by recursive descent over a tokenizer object: the
    text is split line by line, each token kept with its line and column,
    and read through peek() and next(); every factor is a term dict, and
    every product goes through _times."""
    tz = _Tokenizer(text)
    if tz.peek() is None:
        tz.error("empty polynomial")
    terms = _parse_expr(tz, num_vars)
    if tz.peek() is not None:
        tz.error(f"unexpected token {tz.peek()!r}")
    return Polynomial(terms, num_vars)


def _times(p, q):
    """Product of two term dicts (exponent -> coefficient)."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _power(p, k, num_vars):
    """p^k for a term dict: a single term directly, else by repeated
    squaring."""
    if len(p) == 1:
        ((e, c),) = p.items()
        return {tuple(a * k for a in e): c**k}
    out = {(0,) * num_vars: 1}
    while k:
        if k & 1:
            out = _times(out, p)
        k >>= 1
        if k:
            p = _times(p, p)
    return out


def _parse_expr(tz, num_vars):
    sign = 1
    if tz.peek() in ("+", "-"):
        tok, _, _ = tz.next()
        sign = -1 if tok == "-" else 1
    total = {}
    while True:
        for e, c in _parse_term(tz, num_vars).items():
            total[e] = total.get(e, 0) + sign * c
        if tz.peek() not in ("+", "-"):
            return total
        tok, _, _ = tz.next()
        sign = -1 if tok == "-" else 1


def _parse_term(tz, num_vars):
    p = _parse_power(tz, num_vars)
    while tz.peek() == "*":
        tz.next()
        p = _times(p, _parse_power(tz, num_vars))
    return p


def _parse_power(tz, num_vars):
    base = _parse_atom(tz, num_vars)
    if tz.peek() == "^":
        tz.next()
        tok = tz.peek()
        if tok == "-":
            tz.error("negative exponent")
        if tok is None or not tok.isdecimal():
            tz.error("expected a nonnegative integer exponent")
        tz.next()
        base = _power(base, int(tok), num_vars)
    return base


def _parse_atom(tz, num_vars):
    tok = tz.peek()
    if tok is None:
        tz.error("unexpected end of input")
    if tok == "(":
        tz.next()
        p = _parse_expr(tz, num_vars)
        if tz.peek() != ")":
            tz.error("expected ')'")
        tz.next()
        return p
    if tok == "-":
        tz.next()
        return {e: -c for e, c in _parse_power(tz, num_vars).items()}
    one = (0,) * num_vars
    if tok[0].isdecimal():
        tz.next()
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:
                tz.error("zero denominator")
            c = Fraction(int(num), int(den))
        else:
            c = int(tok)
        return {one: c}
    if re.fullmatch(r"x\d+", tok):
        idx = int(tok[1:])
        if idx >= num_vars:
            tz.error(f"unknown variable {tok!r} (have x0..x{num_vars - 1})")
        tz.next()
        return {one[:idx] + (1,) + one[idx + 1 :]: 1}
    tz.error(f"unexpected token {tok!r}")
