"""The construction pipeline: staircase matrices at integer points, exact
kernels, box covering, and certified auxiliary polynomials.

Two covering strategies exist.  The default, adaptive bisection, starts from
the whole height box and bisects the longest axis of any sub-box whose
monomial matrix has full rank; it terminates because a box holding at most
mu-1 integer points always certifies.  The theoretical strategy lays down a
grid of side rho on the chart domain [-1,1]^m, with rho derived from the
determinant estimate; a full-rank occupied cube there is a falsification,
reported as an error and never silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from time import perf_counter

from .bounds import D, choose_nu, ck_norm_bound
from .errors import (
    DegenerateIdealError,
    InputError,
    TheoreticalFalsificationError,
)
from .ideals import (
    Ideal,
    affine_ordering_bound,
    all_sigmas,
    dimension_and_degree,
    groebner,
    homogenize_ideal,
    normal_form,
    staircase,
)
from .points import (
    HeightBox,
    PointSet,
    class_index,
    enumerate_affine,
    enumerate_projective,
)
from .points import DEFAULT_BUDGET
from .polynomials import Ordering, Polynomial, format_polynomial

DELTA_MAX_DEFAULT = 12
PROBE_DEGREE_DEFAULT = 24


# -- matrices and kernels --------------------------------------------------


@dataclass(frozen=True)
class MonomialMatrix:
    """Rows: staircase exponents in ordering; columns: points; exact ints."""

    exponents: tuple
    points: tuple
    entries: tuple  # entries[i][j] = points[j] ** exponents[i]


def build_matrix(points, sc):
    if not points:
        raise InputError("need at least one point")
    n = len(sc.exponents[0]) if sc.exponents else None
    for p in points:
        if n is not None and len(p) != n:
            raise InputError("point dimension does not match the staircase")
    entries = []
    for e in sc.exponents:
        row = []
        for p in points:
            v = 1
            for x, k in zip(p, e):
                if k:
                    v *= x**k
            row.append(v)
        entries.append(tuple(row))
    return MonomialMatrix(
        exponents=tuple(sc.exponents), points=tuple(points), entries=tuple(entries)
    )


def exact_kernel(mat):
    """Primitive integer basis of the coefficient-space kernel, i.e. vectors c
    with sum_e c_e * (x^(j))^e = 0 for every point j.

    Gaussian elimination over exact rationals on the transpose; each basis
    vector is scaled to coprime integers with positive leading entry (the
    entry of the ordering-largest monomial in its support).
    """
    mu = len(mat.exponents)
    q = len(mat.points)
    # rows = equations (one per point), columns = monomials in matrix order
    rows = [[Fraction(mat.entries[i][j]) for i in range(mu)] for j in range(q)]

    pivots = []
    r = 0
    for c in range(mu):
        pivot = next((i for i in range(r, q) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(q):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == q:
            break

    pivot_set = set(pivots)
    basis = []
    for free in range(mu):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * mu
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][free]
        basis.append(_primitive_vector(vec))
    return basis


def _primitive_vector(vec):
    lcm = 1
    for v in vec:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def matrix_rank(mat):
    return len(mat.exponents) - len(exact_kernel(mat))


# -- certificates ----------------------------------------------------------


@dataclass
class AuxiliaryCertificate:
    poly: Polynomial  # integer coefficients, content 1, support in M(delta)
    support_delta: int
    points_covered: tuple  # indices into the run's enumerated point list
    box: tuple  # ((lo, hi), ...) descriptor of the covered sub-box
    nonmembership_ok: bool


def auxiliary_for_box(points, indices, sc, gb, box_desc):
    """Certificate for the points of one sub-box, or None if the monomial
    matrix has full rank mu (triggering subdivision in adaptive mode)."""
    mat = build_matrix(points, sc)
    kernel = exact_kernel(mat)
    if not kernel:
        return None
    coeffs = kernel[0]  # first free column under the ordering; deterministic
    terms = {e: c for e, c in zip(mat.exponents, coeffs) if c != 0}
    poly = Polynomial(terms, gb.num_vars)
    nf = normal_form(poly, gb)
    return AuxiliaryCertificate(
        poly=poly,
        support_delta=sc.delta,
        points_covered=tuple(indices),
        box=tuple(box_desc),
        nonmembership_ok=not nf.is_zero(),
    )


@dataclass
class VerificationResult:
    ok: bool
    failures: list = field(default_factory=list)

    def fail(self, message):
        self.ok = False
        self.failures.append(message)


def verify_certificate(cert, points, gb):
    """Independent re-check: exact vanishing at every covered point, support
    inside M(delta), nonzero normal form.  Trusts nothing from the
    constructor."""
    res = VerificationResult(ok=True)
    if cert.poly.is_zero():
        res.fail("certificate polynomial is zero")
        return res
    if not cert.poly.integer_coefficients():
        res.fail("certificate coefficients are not integers")
    sc = staircase(gb, cert.support_delta)
    allowed = set(sc.exponents)
    for e in cert.poly.support():
        if e not in allowed:
            res.fail(f"support monomial {e} lies in LT(I)")
            break
    for idx in cert.points_covered:
        p = points[idx]
        if cert.poly.evaluate(p) != 0:
            res.fail(f"does not vanish at covered point {p}")
            break
    if normal_form(cert.poly, gb).is_zero():
        res.fail("normal form vanishes: polynomial lies in the ideal")
    return res


# -- theoretical covering --------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A polynomial parametrization of the scaled variety, with a callable
    recovering each point's chart parameter in [-1,1]^m.

    components map [-1,1]^m into the z-coordinates z_j = x_j B_0 / (x_0 B_j);
    param(point) must return exact rationals t with components(t) = z(point).
    """

    components: tuple
    param: object  # callable point -> tuple of Fractions


def parabola_chart(b):
    """Chart t -> (t/sqrt(B), t^2) for the scaled parabola; requires a
    perfect-square height so the parameter map stays exact."""
    s = isqrt(int(b))
    if s * s != int(b):
        raise InputError("theoretical parabola chart needs a perfect-square height")
    t = Polynomial.variable(0, 1)
    comps = (t * Fraction(1, s), t * t)
    return Chart(components=comps, param=lambda pt: (Fraction(pt[1], s),))


def chart_norm_bound(chart, sc, nu):
    """Exact bound on max_i ||psi_i||_nu for psi_i(u) = (1, phi(u))^{e(i)}."""
    m = chart.components[0].num_vars
    unit_box = [(Fraction(-1), Fraction(1))] * m
    best = Fraction(0)
    for e in sc.exponents:
        psi = Polynomial.constant(1, m)
        for comp, k in zip(chart.components, e[1:]):
            if k:
                psi = psi * comp**k
        best = max(best, ck_norm_bound(psi, nu, unit_box))
    return best


def theoretical_rho(box, sigma, f, mu, nu, m, norm_bound):
    """Largest safe cube side rho with
    mu! D_m(nu)^mu norm_bound^mu prod(B_i^sigma_i) rho^f < 1, capped at 1/2,
    with the number of covering cubes ceil(2/rho)^m."""
    if f <= 0:
        raise DegenerateIdealError("f = 0: determinant exponent budget is empty")
    nb = float(norm_bound)
    if nb <= 0:
        raise InputError("norm bound must be positive")

    def log_lhs(rho):
        up = lambda x: math.nextafter(x, math.inf)
        total = up(math.lgamma(mu + 1))
        total = up(total + up(mu * up(math.log(D(m, nu)))))
        total = up(total + up(mu * up(math.log(nb))))
        for s_i, b_i in zip(sigma, box.bounds):
            if s_i:
                total = up(total + up(s_i * up(math.log(float(b_i)))))
        return up(total + f * math.log(rho))

    const = math.lgamma(mu + 1) + mu * math.log(D(m, nu)) + mu * math.log(nb)
    for s_i, b_i in zip(sigma, box.bounds):
        const += s_i * math.log(float(b_i))
    rho = min(0.5, math.exp(-const / f) * 0.99)
    while log_lhs(rho) >= 0:
        rho /= 2
    cube_count = math.ceil(2 / rho) ** m
    return rho, cube_count


# -- pipeline --------------------------------------------------------------


@dataclass
class PipelineReport:
    mode: str
    heights: tuple
    delta: int
    epsilon: object
    ordering: Ordering
    strategy: str
    dimension: int
    degree: int
    mu: int
    nu: int
    f: int
    sigma: tuple
    points: tuple  # enumerated homogeneous representatives
    affine_points: tuple  # affine mode only, else ()
    class_counts: tuple
    certificates: list
    k_actual: int
    k_bound_exponents: tuple
    k_bound_value: float
    rho: object = None
    cube_count: object = None
    max_depth: object = None
    vacuous: bool = False
    ordering_bound: object = None
    delta_report: object = None
    num_vars: int = 0
    # opt-in stage timings; enumeration: points_s, points_fibres, points_found
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings=False):
        def frac(x):
            x = Fraction(x)
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        certs = []
        for c in self.certificates:
            entry = {
                "poly": format_polynomial(c.poly, self.ordering),
                "points": [list(self.points[i]) for i in c.points_covered],
                "box": [[frac(lo), frac(hi)] for lo, hi in c.box],
            }
            if self.mode == "affine":
                entry["affine_poly"] = format_polynomial(
                    c.poly.dehomogenize(0), self.ordering
                )
            certs.append(entry)
        out = {
            "params": {
                "mode": self.mode,
                "heights": [frac(b) for b in self.heights],
                "delta": self.delta,
                "epsilon": self.epsilon,
                "ordering": self.ordering.value,
                "strategy": self.strategy,
                "num_vars": self.num_vars,
            },
            "dimension": self.dimension,
            "degree": self.degree,
            "mu": self.mu,
            "nu": self.nu,
            "f": self.f,
            "sigma": list(self.sigma),
            "point_count": len(self.points),
            "points": [list(p) for p in self.points],
            "class_counts": list(self.class_counts),
            "certificate_count": len(self.certificates),
            "certificates": certs,
            "k_actual": self.k_actual,
            "k_bound_exponents": list(self.k_bound_exponents),
            "k_bound_value": self.k_bound_value,
            "rho": self.rho,
            "cube_count": self.cube_count,
            "max_depth": self.max_depth,
            "vacuous": self.vacuous,
        }
        if self.mode == "affine":
            out["affine_points"] = [list(p) for p in self.affine_points]
        if self.ordering_bound is not None:
            ob = self.ordering_bound
            out["ordering_bound"] = {
                "s": ob.s,
                "lhs": frac(ob.lhs),
                "intermediate_bound": frac(ob.intermediate_bound),
                "limit": frac(ob.limit),
                "dimension": ob.dimension,
                "holds": ob.holds,
            }
        if self.delta_report is not None:
            out["delta_report"] = self.delta_report
        if include_timings:
            out["timings"] = self.timings
        return out


def _adaptive_cover(points, sc, gb):
    """Bisection covering; returns (certificates, max_depth)."""
    n = gb.num_vars
    certs = []
    max_depth = 0
    all_idx = tuple(range(len(points)))
    stack = [(all_idx, 0)]
    while stack:
        idxs, depth = stack.pop()
        max_depth = max(max_depth, depth)
        pts = [points[i] for i in idxs]
        # shrink to the integer bounding box of the contained points
        bbox = [
            (min(p[a] for p in pts), max(p[a] for p in pts)) for a in range(n)
        ]
        cert = auxiliary_for_box(pts, idxs, sc, gb, bbox)
        if cert is not None:
            certs.append(cert)
            continue
        if len(idxs) == 1:
            raise DegenerateIdealError(
                "full-rank matrix on a single point: no staircase-supported "
                "polynomial can vanish there (zero-dimensional obstruction)"
            )
        extents = [hi - lo for lo, hi in bbox]
        axis = max(range(n), key=lambda a: (extents[a], -a))
        lo, hi = bbox[axis]
        mid = Fraction(lo + hi, 2)
        low = tuple(i for i in idxs if points[i][axis] <= mid)
        high = tuple(i for i in idxs if points[i][axis] > mid)
        stack.append((high, depth + 1))
        stack.append((low, depth + 1))
    return certs, max_depth


def _theoretical_cover(points, sc, gb, box, sigma, f, mu, nu, m, norm_bound, param):
    rho, cube_count = theoretical_rho(box, sigma, f, mu, nu, m, norm_bound)
    rho_frac = Fraction(rho)
    groups = {}
    for i, p in enumerate(points):
        t = param(p)
        key = tuple(int((Fraction(ti) + 1) / rho_frac) for ti in t)
        groups.setdefault(key, []).append(i)
    certs = []
    for key in sorted(groups):
        idxs = tuple(groups[key])
        pts = [points[i] for i in idxs]
        desc = tuple(
            (k * rho_frac - 1, (k + 1) * rho_frac - 1) for k in key
        )
        cert = auxiliary_for_box(pts, idxs, sc, gb, desc)
        if cert is None:
            raise TheoreticalFalsificationError(
                f"occupied rho-cube {key} has a full-rank matrix; this "
                f"contradicts the determinant estimate (rho={rho})"
            )
        certs.append(cert)
    return certs, rho, cube_count


def _variety_data(ideal_h, ordering, delta):
    """Shared setup: capped GB, dimension/degree, staircase data."""
    cap = max(delta if delta is not None else 0, 9)
    gb = groebner(ideal_h, ordering, degree_cap=cap)
    dd = dimension_and_degree(gb, range(cap - 5, cap + 1))
    return gb, dd


def choose_delta(
    ideal_h,
    epsilon,
    d,
    m,
    ordering=Ordering.GRLEX_LEFT,
    delta_max=DELTA_MAX_DEFAULT,
    probe_degree=PROBE_DEGREE_DEFAULT,
):
    """Smallest delta <= delta_max whose measured exponents m*sigma_i/f stay
    within epsilon of the limit exponents (m+1)a_i/d^(1/m), the a_i being
    measured at the probe degree.  The reported (finite-delta) exponents are
    what the k-bound uses; no asymptotic constants are assumed."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if m < 1:
        raise DegenerateIdealError("dimension < 1: the method does not apply")
    gb = groebner(ideal_h, ordering, degree_cap=probe_degree)
    from .ideals import a_estimates, hilbert_function

    a = a_estimates(gb, probe_degree)
    root = d ** (1.0 / m)
    limits = [(m + 1) * float(ai) / root for ai in a]

    best = None
    for delta in range(1, delta_max + 1):
        sc = staircase(gb, delta)
        mu = len(sc.exponents)
        if mu < 2:
            continue
        budget = choose_nu(mu, m)
        if budget.e == 0:
            continue
        sigma = tuple(sum(e[i] for e in sc.exponents) for i in range(gb.num_vars))
        ratios = [m * s / budget.e for s in sigma]
        overshoot = max(r - (li + epsilon) for r, li in zip(ratios, limits))
        report = {
            "delta": delta,
            "ratios": ratios,
            "limits": limits,
            "epsilon": epsilon,
            "probe_degree": probe_degree,
        }
        if overshoot <= 0:
            return delta, report
        if best is None or overshoot < best[0]:
            best = (overshoot, report)
    detail = f"; best achieved: {best[1]}" if best else ""
    raise InputError(
        f"no delta <= {delta_max} achieves slack epsilon={epsilon}{detail}"
    )


def cover_and_construct(
    ideal_h,
    box,
    delta,
    ordering=Ordering.GRLEX_LEFT,
    strategy="adaptive",
    norm_bound=None,
    chart=None,
    budget=DEFAULT_BUDGET,
    point_set=None,
    epsilon=None,
):
    """Run the covering construction over S(X, B) for a homogeneous ideal.

    Every enumerated point ends up covered by at least one certificate, or the
    run raises (degeneracy / falsification); nothing is silently skipped.
    """
    if not ideal_h.homogeneous:
        raise ValueError("cover_and_construct needs a homogeneous ideal")
    gb, dd = _variety_data(ideal_h, ordering, delta)
    m, d = dd.dimension, dd.degree
    sc = staircase(gb, delta)
    mu = len(sc.exponents)
    if mu == 0:
        raise InputError(f"staircase empty at delta={delta}")

    timings = {}
    if point_set is None:
        point_set, timings = _timed_enumeration(
            enumerate_projective, ideal_h, box, budget=budget
        )
    points = point_set.points
    class_counts = [0] * ideal_h.num_vars
    for p in points:
        class_counts[class_index(p, box)] += 1

    sigma = tuple(sum(e[i] for e in sc.exponents) for i in range(ideal_h.num_vars))
    if m < 1:
        if points:
            raise DegenerateIdealError(
                "variety has dimension < 1; no auxiliary polynomial exists "
                "outside a zero-dimensional point's ideal"
            )
        nu = 0
        f = 0
    else:
        budget_nu = choose_nu(mu, m)
        nu, f = budget_nu.nu, budget_nu.e

    certs = []
    rho = cube_count = max_depth = None
    if points:
        if mu < 2:
            raise DegenerateIdealError(
                f"mu = {mu} at delta={delta}: the staircase admits no "
                "nontrivial vanishing polynomial"
            )
        if strategy == "adaptive":
            certs, max_depth = _adaptive_cover(points, sc, gb)
        elif strategy == "theoretical":
            if chart is not None:
                nb = chart_norm_bound(chart, sc, nu)
                param = chart.param
            else:
                if norm_bound is None:
                    raise InputError(
                        "theoretical strategy needs a chart or a norm bound"
                    )
                if m != 1:
                    raise InputError(
                        "built-in parameter map only covers curves (m=1); "
                        "supply a chart for higher dimension"
                    )
                nb = norm_bound
                param = lambda p: (Fraction(p[1]) / box.bounds[1],)
            certs, rho, cube_count = _theoretical_cover(
                points, sc, gb, box, sigma, f, mu, nu, m, nb, param
            )
        else:
            raise InputError(f"unknown strategy {strategy!r}")

    if f:
        exps = tuple(m * s / f for s in sigma)
        k_val = 1.0
        for e_i, b_i in zip(exps, box.bounds):
            k_val *= float(b_i) ** e_i
    else:
        exps = tuple(0.0 for _ in sigma)
        k_val = 0.0

    report = PipelineReport(
        mode="projective",
        heights=box.bounds,
        delta=delta,
        epsilon=epsilon,
        ordering=ordering,
        strategy=strategy,
        dimension=m,
        degree=d,
        mu=mu,
        nu=nu,
        f=f,
        sigma=sigma,
        points=points,
        affine_points=(),
        class_counts=tuple(class_counts),
        certificates=certs,
        k_actual=delta * len(certs),
        k_bound_exponents=exps,
        k_bound_value=k_val,
        rho=rho,
        cube_count=cube_count,
        max_depth=max_depth,
        vacuous=not points,
        num_vars=ideal_h.num_vars,
        timings=timings,
    )
    _internal_verify(report, gb)
    return report


def _timed_enumeration(enumerate_points, *args, **kwargs):
    """(point set, enumeration stage of PipelineReport.timings)."""
    start = perf_counter()
    point_set = enumerate_points(*args, **kwargs)
    return point_set, {
        "points_s": perf_counter() - start,
        "points_fibres": point_set.fibres,
        "points_found": len(point_set.points),
    }


def _internal_verify(report, gb):
    """Constructor output is never trusted: re-verify every certificate and
    the coverage invariant before the report leaves the engine."""
    covered = set()
    for cert in report.certificates:
        res = verify_certificate(cert, report.points, gb)
        if not res.ok:
            raise AssertionError(f"internal verification failed: {res.failures}")
        covered.update(cert.points_covered)
    if covered != set(range(len(report.points))):
        raise AssertionError("coverage invariant violated: uncovered points")


def affine_pipeline(
    affine_ideal,
    b,
    delta=None,
    epsilon=None,
    ordering=Ordering.GRLEX_LEFT,
    strategy="adaptive",
    norm_bound=None,
    chart=None,
    budget=DEFAULT_BUDGET,
    ordering_bound_s=10,
):
    """Affine flavor: homogenize, lift X(Z,B) into S(X-bar, (1,B,...,B)),
    run the cover, and re-verify the dehomogenized certificates."""
    if delta is None and epsilon is None:
        raise InputError("exactly one of delta / epsilon must be set")
    if delta is not None and epsilon is not None:
        raise InputError("exactly one of delta / epsilon must be set")

    n = affine_ideal.num_vars
    affine_points, timings = _timed_enumeration(
        enumerate_affine, affine_ideal, b, budget=budget
    )
    lifted = tuple((1,) + p for p in affine_points.points)
    ih = homogenize_ideal(affine_ideal)
    box = HeightBox((1,) + (b,) * n)

    # x0 = 1 with B_0 = 1 forces class 0; checked, not assumed
    for p in lifted:
        if class_index(p, box) != 0:
            raise AssertionError(f"lifted point {p} escaped class S_0")

    if delta is None:
        gb_dims, dd = _variety_data(ih, ordering, None)
        delta, delta_report = choose_delta(
            ih, epsilon, dd.degree, dd.dimension, ordering
        )
    else:
        delta_report = None

    ps = PointSet("projective", lifted, box)
    report = cover_and_construct(
        ih,
        box,
        delta,
        ordering=ordering,
        strategy=strategy,
        norm_bound=norm_bound,
        chart=chart,
        budget=budget,
        point_set=ps,
        epsilon=epsilon,
    )
    report.mode = "affine"
    report.affine_points = affine_points.points
    report.epsilon = epsilon
    report.delta_report = delta_report
    report.timings = timings

    # independent affine re-check: g = G(1,x) vanishes on X(Z,B) and g not in I
    gb_h = groebner(ih, ordering, degree_cap=max(delta, 9))
    for cert in report.certificates:
        g = cert.poly.dehomogenize(0)
        if g.is_zero():
            raise AssertionError("dehomogenized certificate is zero")
        for idx in cert.points_covered:
            if g.evaluate(affine_points.points[idx]) != 0:
                raise AssertionError("dehomogenized certificate fails to vanish")
        if normal_form(cert.poly, gb_h).is_zero():
            raise AssertionError("certificate lies in the homogenized ideal")

    if ordering_bound_s:
        report.ordering_bound = affine_ordering_bound(affine_ideal, ordering_bound_s)
    return report
