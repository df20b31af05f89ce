"""A differential fuzz of `detmethod verify`: one random mutation of one
certificate in a stored report, judged by verify_report_dict and by an
independent verdict built from the Fraction-per-step oracles."""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detmethod import (
    HeightBox,
    Ordering,
    affine_pipeline,
    cover_and_construct,
    groebner,
    homogenized_basis,
)
from detmethod.cli import (
    EXIT_OK,
    EXIT_VERIFY,
    load_ideal,
    main,
    report_json,
    verify_report_dict,
)
from detmethod.polynomials import Polynomial, format_polynomial

from oracles import (
    fraction_evaluate,
    naive_affine_points,
    naive_normal_form,
    naive_projective_points,
    naive_staircase,
)

DATA = pathlib.Path(__file__).parent / "data"
DELTA = 2


class Case:
    """A stored report with what the independent verdict needs: the point
    set S(X,B) by full scan, the basis and M(delta) by filtering."""

    def __init__(self, path, mode):
        self.path = str(path)
        self.ideal = load_ideal(path)
        if mode == "affine":
            report = affine_pipeline(self.ideal, 100, delta=DELTA)
            self.gb = homogenized_basis(self.ideal, Ordering.GRLEX_LEFT)
            self.points = {(1,) + p for p in naive_affine_points(self.ideal, 100)}
        else:
            box = HeightBox((6, 6, 6))
            report = cover_and_construct(
                groebner(self.ideal, Ordering.GRLEX_LEFT), box, delta=DELTA
            )
            self.gb = groebner(self.ideal, Ordering.GRLEX_LEFT)
            self.points = set(naive_projective_points(self.ideal, box))
        self.data = json.loads(report_json(report))
        # the engine's own polynomials: the verdict never reads the text form
        self.certs = [
            (cert.poly, [tuple(p) for p in entry["points"]])
            for cert, entry in zip(report.certificates, self.data["certificates"])
        ]
        self.allowed = set(naive_staircase(self.gb, DELTA))
        self.n = self.gb.num_vars

    def certificate_ok(self, poly, points):
        return (
            not poly.is_zero()
            and poly.integer_coefficients()
            and poly.support() <= self.allowed
            and all(p in self.points for p in points)
            and all(fraction_evaluate(poly, p) == 0 for p in points)
            and not naive_normal_form(poly, self.gb).is_zero()
        )

    def verdict(self, certs):
        """True iff every certificate passes and the nonzero ones cover S(X,B)."""
        covered = set()
        for poly, points in certs:
            if not self.certificate_ok(poly, points):
                return False
            covered.update(points)
        return covered >= self.points


CASES = {
    "parabola-affine": Case(DATA / "parabola.ideal", "affine"),
    "conic-projective": Case(DATA / "conic.ideal", "projective"),
}


@st.composite
def mutations(draw, case):
    """(index, poly, points, kind): one certificate after one mutation."""
    k = draw(st.integers(0, len(case.certs) - 1))
    poly, points = case.certs[k]
    terms, points = dict(poly.terms), list(points)
    kind = draw(st.sampled_from(["coefficient", "exponent", "drop", "add"]))
    exps = sorted(terms)
    if kind == "coefficient":
        e = draw(st.sampled_from(exps))
        terms[e] += draw(st.sampled_from([-1, 1]))
    elif kind == "exponent":
        e = draw(st.sampled_from(exps))
        i = draw(st.sampled_from([i for i, a in enumerate(e) if a]))
        j = draw(st.sampled_from([j for j in range(case.n) if j != i]))
        moved = list(e)
        moved[i] -= 1
        moved[j] += 1
        c = terms.pop(e)
        terms[tuple(moved)] = terms.get(tuple(moved), 0) + c
    elif kind == "drop":
        del points[draw(st.integers(0, len(points) - 1))]
    else:
        coords = st.integers(-12, 12)
        outside = st.tuples(*[coords] * case.n).filter(lambda p: p not in case.points)
        points.insert(draw(st.integers(0, len(points))), draw(outside))
    return k, Polynomial(terms, case.n), points, kind


@pytest.mark.parametrize("name", sorted(CASES))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_verify_fails_exactly_when_the_independent_verdict_fails(
    name, data, tmp_path
):
    case = CASES[name]
    k, poly, points, kind = data.draw(mutations(case))
    mutated = json.loads(json.dumps(case.data))
    mutated["certificates"][k]["poly"] = format_polynomial(poly)
    mutated["certificates"][k]["points"] = [list(p) for p in points]
    certs = list(case.certs)
    certs[k] = (poly, points)
    expected_ok = case.verdict(certs)

    failures = verify_report_dict(mutated, case.ideal)
    assert (not failures) == expected_ok, (kind, failures)
    # only the mutated certificate, or the coverage it lost, is blamed
    assert all(
        f.startswith((f"certificate {k}: ", "coverage failure")) for f in failures
    )

    report = tmp_path / "report.json"
    report.write_text(json.dumps(mutated))
    code = main(["verify", "--ideal", case.path, "--report", str(report)])
    assert code in (0, 1, 2)
    assert code == (EXIT_OK if expected_ok else EXIT_VERIFY)


@pytest.mark.parametrize("name", sorted(CASES))
def test_unmutated_report_passes_both(name):
    case = CASES[name]
    assert case.verdict(case.certs)
    assert verify_report_dict(case.data, case.ideal) == []
