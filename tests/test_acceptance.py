"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every criterion prints `ACCEPTANCE <n> <name>: PASS` on success (run pytest
with -s to see the lines).  The single-point ideal is maximal, so its quotient
has Hilbert function identically 1: mu = 1 at every delta and no staircase
polynomial can vanish at the point without lying in the ideal.  Construction
therefore cannot cover it; that case is a strict expected failure below rather
than a silently weakened check.
"""

import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from detmethod import (
    DegenerateIdealError,
    DetBoundInput,
    HeightBox,
    Ordering,
    affine_ordering_bound,
    affine_pipeline,
    choose_nu,
    ck_norm_bound,
    cover_and_construct,
    determinant_bound_exact,
    groebner,
    hilbert_function,
    all_sigmas,
    homogenized_basis,
    verify_certificate,
)
from detmethod.cli import main as cli_main

from conftest import make_ideal
from oracles import exact_determinant, hilbert_oracle

DATA = pathlib.Path(__file__).parent / "data"

CORPUS = [
    # (name, generators, num_vars, mode, height, delta)
    ("parabola", ["x1 - x0^2"], 2, "affine", 100, 2),
    ("circle", ["x0^2 + x1^2 - 1"], 2, "affine", 100, 2),
    ("line", ["x1 - x0"], 2, "affine", 50, 2),
    ("conic", ["x0*x2 - x1^2"], 3, "projective", 8, 2),
    (
        "twisted_cubic",
        ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"],
        4,
        "projective",
        8,
        2,
    ),
    ("single_point", ["x0 - 2", "x1 - 3"], 2, "affine", 10, 2),
    ("empty", ["x0^2 + 1"], 2, "affine", 100, 2),
]


def _run_corpus_entry(name, gens, n, mode, height, delta):
    ideal = make_ideal(gens, n)
    if mode == "affine":
        report = affine_pipeline(ideal, height, delta=delta)
        ih = homogenized_basis(ideal, Ordering.GRLEX_LEFT).ideal
    else:
        report = cover_and_construct(
            groebner(ideal, Ordering.GRLEX_LEFT),
            HeightBox.uniform(Fraction(height), n),
            delta,
        )
        ih = ideal
    gb = groebner(ih, Ordering.GRLEX_LEFT)
    return report, gb


@pytest.fixture(scope="module")
def corpus_runs():
    runs = {}
    start = time.monotonic()
    for name, gens, n, mode, height, delta in CORPUS:
        try:
            runs[name] = _run_corpus_entry(name, gens, n, mode, height, delta)
        except DegenerateIdealError as exc:
            runs[name] = exc
    runs["_elapsed"] = time.monotonic() - start
    return runs


def test_criterion_1_soundness(corpus_runs):
    """Every emitted certificate passes independent verification."""
    checked = 0
    for name, *_ in CORPUS:
        run = corpus_runs[name]
        if isinstance(run, DegenerateIdealError):
            continue  # no certificates emitted; nothing to verify
        report, gb = run
        for cert in report.certificates:
            failures = verify_certificate(cert, report.points, gb)
            assert not failures, f"{name}: {failures}"
            checked += 1
    assert checked > 0
    assert corpus_runs["_elapsed"] < 60.0
    print(f"\nACCEPTANCE 1 soundness: PASS ({checked} certificates verified)")


def test_criterion_2_coverage(corpus_runs):
    """Certificates jointly cover the enumerated point set exactly."""
    for name, *_ in CORPUS:
        run = corpus_runs[name]
        if isinstance(run, DegenerateIdealError):
            continue  # handled by the strict xfail companion below
        report, _ = run
        covered = set()
        for cert in report.certificates:
            covered.update(cert.points_covered)
        assert covered == set(range(len(report.points))), name
    print("ACCEPTANCE 2 coverage: PASS")


@pytest.mark.xfail(
    strict=True,
    raises=DegenerateIdealError,
    reason="the single-point ideal is maximal: mu = 1 at every delta, so no "
    "staircase-supported polynomial vanishes at the point while staying "
    "outside the ideal; construction cannot cover this corpus entry",
)
def test_criterion_2_coverage_single_point():
    _run_corpus_entry("single_point", ["x0 - 2", "x1 - 3"], 2, "affine", 10, 2)


def test_criterion_3_determinant_stress():
    """200 random determinants never exceed the exact analytic bound."""
    rng = random.Random(2026)
    start = time.monotonic()
    violations = 0
    for _ in range(200):
        m = rng.choice([1, 2])
        mu = rng.randint(2, 10)
        r = rng.choice([Fraction(1, 2), Fraction(1, 10), Fraction(1, 50)])
        corner = [Fraction(rng.randint(-4, 3), 4) for _ in range(m)]
        box = [(c, min(c + r, Fraction(1))) for c in corner]
        psis = [_random_poly(rng, m) for _ in range(mu)]
        pts = [
            tuple(
                lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)
                for lo, hi in box
            )
            for _ in range(mu)
        ]
        delta = abs(exact_determinant(
            [[psi.evaluate(p) for p in pts] for psi in psis]
        ))
        nu = choose_nu(mu, m).nu
        norms = tuple(ck_norm_bound(psi, nu, box) for psi in psis)
        bound = determinant_bound_exact(
            DetBoundInput(mu=mu, m=m, norms=norms, r=r)
        )
        if delta > bound:
            violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 determinant stress: PASS (200 instances, {elapsed:.1f}s)")


def _random_poly(rng, m):
    from detmethod import Polynomial
    from detmethod.ideals import monomials_of_degree

    terms = {}
    for d in range(4):
        for e in monomials_of_degree(d, m):
            c = Fraction(rng.randint(-8, 8), 8)
            if c:
                terms[e] = c
    if not terms:
        terms[(0,) * m] = Fraction(1, 2)
    return Polynomial(terms, m)


def test_criterion_4_vandermonde():
    """For m=1 the exponent e is mu(mu-1)/2 and Vandermonde minors obey r^e."""
    rng = random.Random(41)
    for mu in range(2, 7):
        budget = choose_nu(mu, 1)
        assert budget.e == mu * (mu - 1) // 2
        for _ in range(100):
            r = Fraction(rng.randint(1, 99), 100)
            lo = Fraction(rng.randint(-100, 0), 100)
            pts = sorted(
                lo + r * Fraction(rng.randint(0, 64), 64) for _ in range(mu)
            )
            det = Fraction(1)
            for i in range(mu):
                for j in range(i + 1, mu):
                    det *= pts[j] - pts[i]
            assert abs(det) <= r**budget.e
    print("ACCEPTANCE 4 vandermonde: PASS (5 x 100 point sets)")


def test_criterion_5_hilbert_oracle():
    """hilbert_function agrees with the independent rank oracle, s <= 8."""
    for name, gens, n, mode, *_ in CORPUS:
        ideal = make_ideal(gens, n)
        if mode == "affine":
            ideal = homogenized_basis(ideal, Ordering.GRLEX_LEFT).ideal
        for ordering in (Ordering.GRLEX_LEFT, Ordering.GREVLEX):
            gb = groebner(ideal, ordering)
            for s in range(9):
                assert hilbert_function(gb, s) == hilbert_oracle(ideal, s), (
                    name,
                    ordering,
                    s,
                )
                if s >= 1:
                    assert sum(all_sigmas(gb, s)) == s * hilbert_function(gb, s)
    print("ACCEPTANCE 5 hilbert oracle: PASS (7 ideals, 2 orderings, s <= 8)")


def test_criterion_6_exponent_bound():
    """The finite-s ordering inequality, exactly, for two affine curves."""
    for gens, n in ((["x1 - x0^2"], 2), (["x1 - x0^2", "x2 - x0^3"], 3)):
        ideal = make_ideal(gens, n)
        for s in range(4, 41):
            rep = affine_ordering_bound(ideal, s)
            assert rep.lhs <= rep.intermediate_bound, (gens, s)
        final = affine_ordering_bound(ideal, 40)
        assert abs(final.lhs - Fraction(1, 2)) < Fraction(1, 10)
    print("ACCEPTANCE 6 exponent bound: PASS (s in 4..40, both curves)")


def test_criterion_7_scaling():
    """Certificate count grows no faster than B^0.85 on the parabola."""
    start = time.monotonic()
    parabola = make_ideal(["x1 - x0^2"], 2)
    logs = []
    for b in (100, 1000, 10000):
        report = affine_pipeline(parabola, b, epsilon=0.25)
        n = len(report.affine_points)
        assert n == 2 * math.isqrt(b) + 1
        logs.append((math.log(b), math.log(report.k_actual)))
    xs = [x for x, _ in logs]
    ys = [y for _, y in logs]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - xbar) * (y - ybar) for x, y in logs) / sum(
        (x - xbar) ** 2 for x in xs
    )
    elapsed = time.monotonic() - start
    assert slope <= 0.5 + 0.25 + 0.1
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7 scaling: PASS (slope {slope:.3f}, {elapsed:.1f}s)")


def test_criterion_8_determinism():
    """Two identical corpus runs serialize to byte-identical JSON."""
    for name, gens, n, mode, height, delta in CORPUS:
        try:
            first, _ = _run_corpus_entry(name, gens, n, mode, height, delta)
            second, _ = _run_corpus_entry(name, gens, n, mode, height, delta)
        except DegenerateIdealError:
            continue
        a = json.dumps(first.to_dict(), sort_keys=True, indent=2)
        b = json.dumps(second.to_dict(), sort_keys=True, indent=2)
        assert a.encode() == b.encode(), name
    print("ACCEPTANCE 8 determinism: PASS (byte-identical reports)")


def test_criterion_9_mutation_killing(tmp_path, capsys):
    """cmd_verify rejects all three certificate mutations."""
    report_path = tmp_path / "report.json"
    code = cli_main(
        [
            "construct", "--ideal", str(DATA / "parabola.ideal"),
            "--height", "100", "--delta", "2", "--out", str(report_path),
        ]
    )
    assert code == 0
    pristine = report_path.read_text()

    def verify():
        code = cli_main(
            [
                "verify", "--report", str(report_path),
                "--ideal", str(DATA / "parabola.ideal"),
            ]
        )
        capsys.readouterr()
        return code

    assert verify() == 0

    # coefficient + 1
    data = json.loads(pristine)
    data["certificates"][0]["poly"] += " + 1"
    report_path.write_text(json.dumps(data))
    assert verify() == 1

    # support swapped onto the leading-term monomial x1^2
    data = json.loads(pristine)
    data["certificates"][0]["poly"] += " + x1^2"
    report_path.write_text(json.dumps(data))
    assert verify() == 1

    # dropped point
    data = json.loads(pristine)
    data["certificates"][0]["points"].pop()
    report_path.write_text(json.dumps(data))
    assert verify() == 1

    print("ACCEPTANCE 9 mutation killing: PASS (3/3 mutants rejected)")
