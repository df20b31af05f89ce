"""cli: subcommand behaviour, exit codes, reproducible JSON reports."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import math
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmethod import cli, engine, ideals
from detmethod.bounds import DetBoundInput, determinant_bound_exact
from detmethod.cli import build_parser, load_ideal, main
from detmethod.points import HeightBox, enumerate_affine, enumerate_projective

from oracles import naive_affine_points

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"
README = pathlib.Path(__file__).parent.parent / "README.md"
PARABOLA = str(DATA / "parabola.ideal")
CONIC = str(DATA / "conic.ideal")
CUBIC_AFFINE = str(DATA / "twisted_cubic_affine.ideal")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- hilbert ---------------------------------------------------------------


def test_hilbert_json(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--ideal", CONIC, "--mode", "projective",
        "--s-min", "1", "--s-max", "5",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["hf"] for r in rows] == [3, 5, 7, 9, 11]
    assert sum(rows[1]["sigma"]) == 2 * 5  # s * HF at s=2


def test_hilbert_csv(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--ideal", PARABOLA, "--output", "csv", "--s-max", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("s,hf,")
    assert lines[1].split(",")[:2] == ["1", "3"]


def test_hilbert_text(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--ideal", PARABOLA, "--output", "text",
        "--s-min", "0", "--s-max", "1",
    )
    assert code == 0
    assert out == (
        "s=  0  HF=     1  sigma=[0, 0, 0]  a=(- - -)\n"
        "s=  1  HF=     3  sigma=[1, 1, 1]  a=(1/3 1/3 1/3)\n"
    )


def test_hilbert_csv_leaves_undefined_estimates_empty(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--ideal", PARABOLA, "--output", "csv",
        "--s-min", "0", "--s-max", "1",
    )
    assert code == 0
    header, s0, s1 = out.strip().splitlines()
    assert header == "s,hf,sigma0,sigma1,sigma2,a0,a1,a2"
    assert s0 == "0,1,0,0,0,,,"  # a_i are undefined at s = 0
    assert "None" not in out and "" not in s1.split(",")


def test_hilbert_projective_needs_a_homogeneous_ideal(capsys):
    code, out, err = run(
        capsys, "hilbert", "--ideal", PARABOLA, "--mode", "projective"
    )
    assert code == 2
    assert out == ""
    assert "projective mode requires a homogeneous ideal" in err


@pytest.mark.parametrize("command", ["hilbert", "points", "construct", "verify"])
def test_projective_mode_refuses_a_non_homogeneous_ideal(capsys, tmp_path, command):
    heights = ("--heights", "4,4,4")
    if command == "verify":
        report = tmp_path / "conic.json"
        code, _, _ = run(
            capsys, "construct", "--ideal", CONIC, "--mode", "projective",
            *heights, "--delta", "2", "--out", str(report),
        )
        assert code == 0
        argv = ("--report", str(report), "--ideal", CUBIC_AFFINE)
    else:
        argv = ("--ideal", CUBIC_AFFINE, "--mode", "projective")
        argv += () if command == "hilbert" else heights
        argv += ("--delta", "2") if command == "construct" else ()
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err == "error: projective mode requires a homogeneous ideal\n"


# -- points ----------------------------------------------------------------


def test_points_affine(capsys):
    code, out, _ = run(
        capsys, "points", "--ideal", PARABOLA, "--height", "100"
    )
    assert code == 0
    pts = json.loads(out)
    assert len(pts) == 21


def test_points_projective(capsys):
    code, out, _ = run(
        capsys, "points", "--ideal", CONIC, "--mode", "projective",
        "--heights", "4,4,4",
    )
    assert code == 0
    assert len(json.loads(out)) == 8


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--ideal", PARABOLA, "--height", "3", "--heights", "1,2,3"),
            "affine mode takes --height B, not --heights",
        ),
        (
            ("--ideal", CONIC, "--mode", "projective", "--height", "3",
             "--heights", "1,2,3"),
            "projective mode takes --height or --heights, not both",
        ),
        (("--ideal", PARABOLA), "affine mode needs --height B"),
        (
            ("--ideal", CONIC, "--mode", "projective"),
            "projective mode needs --heights B0,...,Bn",
        ),
        (
            ("--ideal", CONIC, "--mode", "projective", "--heights", "1,2"),
            "--heights needs 3 entries, got 2",
        ),
    ],
    ids=["affine", "projective", "affine-none", "projective-none", "projective-short"],
)
def test_points_refuses_a_height_option_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, "points", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_points_text(capsys):
    code, out, _ = run(
        capsys, "points", "--ideal", CONIC, "--mode", "projective",
        "--heights", "1,1,1", "--output", "text",
    )
    assert code == 0
    assert out == "0 0 1\n1 -1 1\n1 0 0\n1 1 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("points", "--ideal", CONIC, "--mode", "projective"),
        ("construct", "--ideal", CONIC, "--mode", "projective", "--delta", "2"),
    ],
    ids=["points", "construct"],
)
def test_projective_height_is_the_uniform_heights(capsys, argv):
    code, uniform, _ = run(capsys, *argv, "--height", "8")
    assert code == 0
    assert run(capsys, *argv, "--heights", "8,8,8") == (0, uniform, "")


@pytest.mark.parametrize("degree", [1500, 2000])
def test_points_on_a_curve_of_high_degree(capsys, tmp_path, degree):
    # the root isolator walks one derivative per degree of x0^degree
    path = tmp_path / "curve.ideal"
    path.write_text(f"vars: 2\nx1 - x0^{degree}\n")
    code, out, err = run(
        capsys, "points", "--ideal", str(path), "--mode", "affine", "--height", "10"
    )
    assert code == 0, err
    points = sorted(tuple(p) for p in json.loads(out))
    assert set(points) == {(0, 0), (1, 1), (-1, 1)}
    assert points == naive_affine_points(load_ideal(path), 10)


# -- construct -------------------------------------------------------------


def test_construct_affine(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "100",
        "--delta", "2", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["point_count"] == 21
    assert data["certificate_count"] >= 1
    assert data["vacuous"] is False


def test_construct_requires_delta_xor_epsilon(capsys):
    code, _, err = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "10"
    )
    assert code == 2
    assert "delta" in err


def test_construct_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "construct", "--ideal", CONIC, "--mode", "projective",
            "--heights", "4,4,4", "--delta", "2", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


TIMED_RUNS = (
    (("--ideal", PARABOLA, "--height", "25"), lambda: enumerate_affine(
        load_ideal(PARABOLA), 25).fibres),
    (("--ideal", CONIC, "--mode", "projective", "--heights", "4,4,4"),
     lambda: enumerate_projective(load_ideal(CONIC), HeightBox((4, 4, 4))).fibres),
    (("--ideal", PARABOLA, "--height", "100", "--strategy", "theoretical",
      "--norm-bound", "20"), lambda: enumerate_affine(
        load_ideal(PARABOLA), 100).fibres),
)


def test_construct_timings_flag(capsys, tmp_path):
    out_file = tmp_path / "t.json"
    for args, fibres in TIMED_RUNS:
        code, _, _ = run(
            capsys, "construct", *args, "--delta", "2", "--timings",
            "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        timings = report["timings"]
        keys = {"points_s", "points_fibres", "points_found", "matrix_s",
                "kernel_s", "kernel_calls", "kernel_screens"}
        assert set(timings) == keys
        for key in keys:
            assert timings[key] >= 0
        assert timings["points_found"] == report["point_count"]
        assert timings["kernel_calls"] >= report["certificate_count"] > 0
        assert timings["kernel_calls"] >= timings["kernel_screens"]
        assert timings["points_fibres"] == fibres()


def test_construct_timings_only_with_the_flag(capsys, tmp_path):
    """Without --timings no stage time, the matrix build's included, is
    written: the report stays byte-for-byte reproducible."""
    out_file = tmp_path / "t.json"
    for args, _ in TIMED_RUNS:
        code, _, _ = run(
            capsys, "construct", *args, "--delta", "2", "--out", str(out_file)
        )
        assert code == 0
        text = out_file.read_text()
        assert "timings" not in json.loads(text)
        assert "matrix_s" not in text and "kernel_s" not in text


def test_epsilon_reports_carry_delta_report(capsys, tmp_path):
    blocks = []
    for args in (
        ("--ideal", PARABOLA, "--height", "25"),
        ("--ideal", CONIC, "--mode", "projective", "--heights", "4,4,4"),
    ):
        out_file = tmp_path / "e.json"
        code, _, _ = run(
            capsys, "construct", *args, "--epsilon", "0.25", "--out", str(out_file)
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["delta_report"]["delta"] == report["params"]["delta"]
        blocks.append(report["delta_report"])
    assert sorted(blocks[0]) == sorted(blocks[1])


def test_construct_out_to_an_unwritable_path_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "10",
        "--delta", "2", "--out", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write report {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# -- heights beyond 2^63 and beyond the doubles ------------------------------

CIRCLE = str(DATA / "circle.ideal")
CIRCLE_POINTS = [[-1, 0], [0, -1], [0, 1], [1, 0]]
HUGE_BUDGET = str(10**1000)


@pytest.mark.parametrize("height", [10**19, 10**400])
def test_points_at_huge_heights(capsys, height):
    code, out, err = run(
        capsys, "points", "--ideal", CIRCLE, "--height", str(height),
        "--budget", HUGE_BUDGET,
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == CIRCLE_POINTS


@pytest.mark.parametrize("height", [10**19, 10**400])
def test_construct_and_verify_at_huge_heights(capsys, tmp_path, height):
    """k_bound_value is null beyond the largest double, as `bound` is."""
    report = tmp_path / "circle.json"
    code, _, err = run(
        capsys, "construct", "--ideal", CIRCLE, "--height", str(height),
        "--delta", "2", "--budget", HUGE_BUDGET, "--out", str(report),
    )
    assert (code, err) == (0, "")
    data = _strict_json(report.read_text())
    assert data["affine_points"] == CIRCLE_POINTS
    assert data["params"]["heights"] == [1, height, height]
    assert (data["k_bound_value"] is None) == (height > 10**308)
    code, out, err = run(
        capsys, "verify", "--report", str(report), "--ideal", CIRCLE,
        "--budget", HUGE_BUDGET,
    )
    assert (code, err) == (0, "") and out.startswith("PASS")


def test_sweep_beyond_the_doubles_leaves_k_bound_empty(capsys):
    code, out, err = run(
        capsys, "sweep", "--ideal", CIRCLE, "--height-list", str(10**400),
        "--delta", "2", "--budget", HUGE_BUDGET,
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"{10**400},4,1,2,"


def test_cli_import_stays_off_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: the larger part of
    # the start-up every CLI invocation pays
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import detmethod.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout == "[]\n"


# -- ideal files -------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "vars: 2\n# comment\nx1 - x0^2\nx0 + @\n",
            "line 4, column 6: unexpected token '@'",
        ),
        (
            "# header\nvars: 2\n\nx1 - x0^2  # parabola\n  x0 + (x1\n",
            "line 5, column 10: expected ')'",
        ),
        (
            "vars: 2\nx1 - x0^2\n\nx0 - x0\n",
            "line 4: zero polynomial is not allowed as a generator",
        ),
        ("vars: 0\nx0\n", "num_vars must be positive"),
        (
            "vars: 2\nx1 - x0^\u00b2\n",
            "line 2, column 9: expected a nonnegative integer exponent",
        ),
        ("vars: 2\n\u00b2\n", "line 2, column 1: unexpected token '\u00b2'"),
        ("vars: x\nx0\n", "malformed vars header 'vars: x'"),
        ("vars: 2\n# only a comment\n", "no generators"),
    ],
    ids=[
        "comment-above", "indented", "zero-generator", "zero-vars",
        "superscript-exponent", "superscript-literal", "letter-vars",
        "no-generators",
    ],
)
def test_ideal_parse_error_names_the_file_line_and_column(
    capsys, tmp_path, text, message
):
    path = tmp_path / "bad.ideal"
    path.write_text(text)
    code, out, err = run(capsys, "points", "--ideal", str(path), "--height", "3")
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_unreadable_ideal_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "missing.ideal"
    code, out, err = run(capsys, "points", "--ideal", str(path), "--height", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read ideal file {path}: ")


# -- verify ----------------------------------------------------------------


@pytest.fixture
def parabola_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "100",
        "--delta", "2", "--out", str(path),
    )
    assert code == 0
    return path


def test_verify_passes_on_genuine_report(capsys, parabola_report):
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 0
    assert out.startswith("PASS")


@pytest.mark.parametrize(
    "generator,height,delta,degree",
    [("x1 - x0^7", "1e7", "2", 7), ("x1^2 - x0^9", "1e4", "3", 9)],
)
def test_construct_and_verify_curves_of_late_regularity(
    capsys, tmp_path, generator, height, delta, degree
):
    # their Hilbert functions meet the Hilbert polynomial only from s = 5
    # and s = 7 on; m and d come from the Hilbert series, exact in any case
    ideal = tmp_path / "curve.ideal"
    ideal.write_text(f"vars: 2\n{generator}\n")
    report = tmp_path / "report.json"
    code, _, err = run(
        capsys, "construct", "--ideal", str(ideal), "--height", height,
        "--delta", delta, "--out", str(report),
    )
    assert code == 0, err
    data = json.loads(report.read_text())
    assert (data["dimension"], data["degree"]) == (1, degree)
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", str(ideal))
    assert code == 0
    assert out.startswith("PASS")


def test_verify_catches_tampered_coefficient(capsys, parabola_report):
    data = json.loads(parabola_report.read_text())
    poly = data["certificates"][0]["poly"]
    data["certificates"][0]["poly"] = poly + " + 1"
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_catches_dropped_point(capsys, parabola_report):
    data = json.loads(parabola_report.read_text())
    data["certificates"][0]["points"].pop()
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    assert "coverage" in out


def test_verify_catches_support_violation(capsys, parabola_report):
    data = json.loads(parabola_report.read_text())
    # x1^2 is the conic's leading monomial: outside every staircase
    data["certificates"][0]["poly"] += " + x1^2"
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    assert "LT" in out or "vanish" in out


@pytest.mark.parametrize(
    "extra, message",
    [
        (" + 1", "support monomial (0, 0, 0) has degree 0, not delta = 2"),
        (" + x1^2", "support monomial (0, 2, 0) lies in LT(I)"),
    ],
)
def test_verify_names_the_failed_support_check(
    capsys, parabola_report, extra, message
):
    data = json.loads(parabola_report.read_text())
    data["certificates"][0]["poly"] += extra
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    assert out.splitlines()[0] == f"FAIL: certificate 0: {message}"


@pytest.mark.parametrize(
    "poly, monomial",
    [("x1^1000000", "(0, 1000000, 0) has degree 1000000"),
     ("1/2*x1^3 + 1", "(0, 3, 0) has degree 3")],
)
def test_verify_refuses_a_certificate_above_delta_alone(
    capsys, parabola_report, poly, monomial
):
    """A support monomial above delta fails its certificate with that one
    line, before the division and the evaluations, whose cost grows with
    the degree; no other failure of that certificate is listed."""
    data = json.loads(parabola_report.read_text())
    data["certificates"][0]["poly"] = poly
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    assert out.splitlines() == [
        f"FAIL: certificate 0: support monomial {monomial}, not delta = 2"
    ]


def test_verify_with_a_wrong_delta_walks_no_staircase_up_to_it(
    capsys, parabola_report, monkeypatch
):
    # verify tests LT(I) membership by divisibility and lists no M(delta),
    # neither when the degree check fails first nor at delta = 3000
    calls = []
    real = engine.staircase

    def spy(gb, delta):
        calls.append(delta)
        return real(gb, delta)

    monkeypatch.setattr(ideals, "staircase", spy)
    monkeypatch.setattr(engine, "staircase", spy)
    data = json.loads(parabola_report.read_text())
    data["params"]["delta"] = 3000
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    # the report's series fields, k_actual, 2 * 7, and k-bound no longer
    # match its delta either; at 3000 HF = 6001 and f = 6001 * 6000 / 2
    exponents = [s / 18003000 for s in (9000000, 3000, 9000000)]
    k_bound = math.prod(float(b) ** e for e, b in zip(exponents, (1, 100, 100)))
    summary = [
        "FAIL: mu: 5, not 6001",
        "FAIL: nu: 4, not 6000",
        "FAIL: f: 10, not 18003000",
        "FAIL: sigma: [4, 2, 4], not [9000000, 3000, 9000000]",
        f"FAIL: k_bound_exponents: [0.4, 0.2, 0.4], not {exponents}",
        f"FAIL: k_actual: 14, not {3000 * data['certificate_count']}",
        f"FAIL: k_bound_value: {data['k_bound_value']}, not {k_bound}",
    ]
    lines = out.splitlines()
    assert lines[-len(summary):] == summary
    lines = lines[: -len(summary)]
    assert len(lines) == data["certificate_count"]
    assert all(
        re.fullmatch(
            rf"FAIL: certificate {k}: support monomial \(\d, \d, \d\) has "
            r"degree 2, not delta = 3000",
            line,
        )
        for k, line in enumerate(lines)
    )

    # x1^3000 is a multiple of the leading monomial x1^2, and the polynomial
    # vanishes on the parabola and lies in I^h
    for cert in data["certificates"]:
        cert["poly"] = "x1^3000 - x0^1500*x2^1500"
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    assert out.splitlines() == [
        line
        for k in range(data["certificate_count"])
        for line in (
            f"FAIL: certificate {k}: support monomial (0, 3000, 0) lies in LT(I)",
            f"FAIL: certificate {k}: lies in the ideal",
        )
    ] + summary
    assert calls == []


# a construct report of each kind, as `detmethod construct` writes it with
# these options; the mutation test edits every key of each
MUTATION_RUNS = {
    "affine": ("--ideal", PARABOLA, "--height", "100", "--epsilon", "0.25"),
    "projective": (
        "--ideal", CONIC, "--mode", "projective", "--heights", "8,8,8", "--delta", "2",
    ),
    "theoretical": (
        "--ideal", PARABOLA, "--height", "100", "--delta", "2",
        "--strategy", "theoretical", "--norm-bound", "20",
    ),
}


def _construct_report(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["construct", *argv]) == 0
    return json.loads(out.getvalue())


MUTATION_REPORTS = {
    name: _construct_report(argv) for name, argv in MUTATION_RUNS.items()
}
# a key's name: its own at the top level, "params.<key>" in params, and
# "certificate 0: <key>" in the first certificate
MUTATION_KEYS = [
    (run_name, key)
    for run_name, data in MUTATION_REPORTS.items()
    for key in sorted(data.keys() - {"params", "certificates"})
    + [f"params.{key}" for key in sorted(data["params"])]
    + [f"certificate 0: {key}" for key in sorted(data["certificates"][0])]
]
# keys whose edit changes what verify derives, or makes the report
# malformed: verify exits 2, or 1 with at least one FAIL line
INPUT_KEYS = {
    "params.mode",
    "params.heights",
    "params.delta",
    "params.epsilon",
    "certificate 0: poly",
    "certificate 0: points",
}
SWAPS = {
    "affine": "projective",
    "projective": "affine",
    "grlex-left": "grevlex",
    "adaptive": "theoretical",
    "theoretical": "adaptive",
}
# exact edits and FAIL lines, on the affine report
EXACT_EDITS = {
    "points": (
        lambda d: d["points"].append([1, 5, 5]),
        ["FAIL: points: not the 21 points of S(X,B)"],
    ),
    "point_count": (
        lambda d: d.update(point_count=999), ["FAIL: point_count: 999, not 21"]
    ),
    "certificate_count": (
        lambda d: d.update(certificate_count=1), ["FAIL: certificate_count: 1, not 7"]
    ),
    "k_actual": (lambda d: d.update(k_actual=0), ["FAIL: k_actual: 0, not 14"]),
    "affine_points": (
        lambda d: d["affine_points"].reverse(),
        ["FAIL: affine_points: not the 21 points of S(X,B)"],
    ),
    # equal as numbers, not as JSON: true == 1 and -10.0 == -10
    "points-bool": (
        lambda d: d["points"][0].__setitem__(0, True),
        ["FAIL: points: not the 21 points of S(X,B)"],
    ),
    "points-float": (
        lambda d: d["points"][0].__setitem__(1, -10.0),
        ["FAIL: points: not the 21 points of S(X,B)"],
    ),
    "affine_points-float": (
        lambda d: d["affine_points"][0].__setitem__(0, -10.0),
        ["FAIL: affine_points: not the 21 points of S(X,B)"],
    ),
    "class_counts": (
        lambda d: d.update(class_counts=[0, 20, 1]),
        ["FAIL: class_counts: [0, 20, 1], not [21, 0, 0]"],
    ),
    "vacuous": (lambda d: d.update(vacuous=True), ["FAIL: vacuous: true, not false"]),
    "params.num_vars": (
        lambda d: d["params"].update(num_vars=7), ["FAIL: params.num_vars: 7, not 3"]
    ),
}


def _readme_unchecked():
    """The backquoted names of README's `verify` bullet's unchecked list."""
    text = README.read_text().split("  - Unchecked:", 1)[1].split("\n- ", 1)[0]
    return set(re.findall(r"`([^`]+)`", text))


def _edited(value):
    """value with one thing changed: a bool negated, a number raised, a
    choice swapped, a polynomial given a constant term, another string
    extended, null made 1, a list's first item edited, or the value at a
    dict's first key."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2
    if isinstance(value, str):
        return SWAPS.get(value, value + (" + 1" if "x" in value else "1"))
    if value is None:
        return 1
    if isinstance(value, list):
        return [_edited(value[0]), *value[1:]] if value else [0]
    key = min(value)
    return {**value, key: _edited(value[key])}


def _mutate(data, name):
    """Edit the key `name` of the report data in place; (before, after)."""
    if name.startswith("params."):
        obj, key = data["params"], name.removeprefix("params.")
    elif name.startswith("certificate 0: "):
        obj, key = data["certificates"][0], name.removeprefix("certificate 0: ")
    else:
        obj, key = data, name
    before = obj[key]
    obj[key] = _edited(before)
    return before, obj[key]


@pytest.mark.parametrize(
    "run_name, name, exact",
    [(r, n, False) for r, n in MUTATION_KEYS]
    + [("affine", n, True) for n in EXACT_EDITS],
    ids=[f"{r}-{n}" for r, n in MUTATION_KEYS] + [f"exact-{n}" for n in EXACT_EDITS],
)
def test_verify_fails_on_a_single_edit_of_any_key(
    capsys, tmp_path, run_name, name, exact
):
    # one edit of one value: exit 1 with exactly one FAIL line naming a
    # derived field, exit 1 or 2 for an input; PASS only on README's list
    data = json.loads(json.dumps(MUTATION_REPORTS[run_name]))
    if exact:
        EXACT_EDITS[name][0](data)
    else:
        before, after = _mutate(data, name)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(data))
    ideal = MUTATION_RUNS[run_name][1]
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", ideal)
    lines = out.splitlines()
    if exact:
        assert (code, lines) == (1, EXACT_EDITS[name][1])
    elif name.split(": ")[-1] in _readme_unchecked():
        assert code == 0 and out.startswith("PASS")
    elif name in INPUT_KEYS:
        assert code == 2 or (code == 1 and lines and lines[0].startswith("FAIL: "))
    elif name.endswith("points"):
        assert (code, lines) == (
            1, [f"FAIL: {name}: not the {len(before)} points of S(X,B)"]
        )
    else:
        have, want = (json.dumps(x, sort_keys=True) for x in (after, before))
        assert (code, lines) == (1, [f"FAIL: {name}: {have}, not {want}"])


def test_verify_names_what_a_changed_epsilon_decides(capsys, tmp_path):
    # at epsilon = 100 choose_delta takes delta = 1, so the stored delta
    # and delta_report are not what the report's epsilon decides
    data = json.loads(json.dumps(MUTATION_REPORTS["affine"]))
    data["params"]["epsilon"] = 100
    report = tmp_path / "report.json"
    report.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", PARABOLA)
    assert code == 1
    assert [line.split(": ")[1] for line in out.splitlines()] == [
        "params.delta",
        "delta_report",
    ]
    assert out.startswith("FAIL: params.delta: 2, not 1\n")


CERTIFICATE_POINT_EDITS = {
    "empty": lambda certs: certs.append({**certs[0], "points": [], "box": []}),
    "repeated": lambda certs: certs[0]["points"].insert(0, certs[0]["points"][0]),
    "unsorted": lambda certs: certs[0]["points"].reverse(),
}


@pytest.mark.parametrize("case", CERTIFICATE_POINT_EDITS)
def test_verify_takes_a_certificates_points_in_order_once_each(
    capsys, tmp_path, case
):
    # construct lists each certificate's points sorted, and each box it
    # certifies holds a point
    data = json.loads(json.dumps(MUTATION_REPORTS["projective"]))
    certs = data["certificates"]
    assert len(certs[0]["points"]) > 1
    CERTIFICATE_POINT_EDITS[case](certs)
    data["certificate_count"] = len(certs)
    data["k_actual"] = 2 * len(certs)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", CONIC)
    k = len(certs) - 1 if case == "empty" else 0
    assert (code, out) == (
        1,
        f"FAIL: certificate {k}: points: not a nonempty list in S(X,B) order "
        "without repeats\n",
    )


def test_verify_takes_only_a_json_integer_as_a_count(capsys, tmp_path):
    # a report with one certificate (3 points at B = 3): true == 1 in Python,
    # but a count must be a JSON integer
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "3", "--delta", "2",
        "--out", str(report),
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["certificate_count"] == 1
    data["certificate_count"] = True
    report.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", PARABOLA)
    assert (code, out) == (1, "FAIL: certificate_count: true, not 1\n")


def test_verify_takes_the_budget_its_report_was_built_under(capsys, tmp_path):
    # the affine twisted cubic at B = 10^9 plans 2*10^9 + 1 candidates, the
    # values of x0 (x1 and x2 each have a linear exact split)
    cubic = str(DATA / "twisted_cubic_affine.ideal")
    budget = ("--budget", str(10**10))
    report = tmp_path / "report.json"
    code, _, err = run(
        capsys, "construct", "--ideal", cubic, "--height", str(10**9),
        "--delta", "2", *budget, "--out", str(report),
    )
    assert code == 0, err
    verify = ("verify", "--report", str(report), "--ideal", cubic)
    code, out, err = run(capsys, *verify)
    assert code == 3 and out == ""
    assert "raise --budget to override" in err
    code, out, _ = run(capsys, *verify, *budget)
    assert code == 0
    assert out.startswith("PASS")


def test_verify_missing_report(capsys):
    code, _, err = run(
        capsys, "verify", "--report", "/nonexistent.json", "--ideal", PARABOLA
    )
    assert code == 2
    assert "error" in err


# -- sweep / bound ---------------------------------------------------------


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--ideal", PARABOLA, "--height-list", "25,100",
        "--delta", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B,N,certificates,k_actual,k_bound"
    assert lines[1].split(",")[:2] == ["25", "11"]
    assert lines[2].split(",")[:2] == ["100", "21"]


def test_bound_worked_example(capsys):
    code, out, _ = run(
        capsys, "bound", "--mu", "3", "--m", "1", "--norms", "1,1,1",
        "--r", "1/8", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["nu"], data["e"]) == (2, 3)
    assert data["bound"] == pytest.approx(162 / 512, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.integers(1, 8),
    m=st.integers(1, 3),
    data=st.data(),
    r=st.fractions(0, 1, max_denominator=1000).filter(lambda r: 0 < r < 1),
)
def test_bound_is_the_least_double_not_below_the_exact_bound(mu, m, data, r):
    norms = data.draw(st.lists(
        st.fractions(0, 100, max_denominator=50).filter(bool),
        min_size=mu, max_size=mu,
    ))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "bound", "--mu", str(mu), "--m", str(m), "--r", str(r),
            "--norms", ",".join(map(str, norms)), "--output", "json",
        ])
    assert code == 0
    bound = json.loads(out.getvalue())["bound"]
    exact = determinant_bound_exact(DetBoundInput(mu=mu, m=m, norms=norms, r=r))
    assert Fraction(bound) >= exact > Fraction(math.nextafter(bound, -math.inf))


def _strict_json(text):
    """json.loads that refuses NaN and the infinities."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_bound_with_a_zero_norm_prints_null_log_bound(capsys):
    code, out, _ = run(
        capsys, "bound", "--mu", "3", "--m", "1", "--norms", "0,1,1",
        "--r", "0.3", "--output", "json",
    )
    assert code == 0
    data = _strict_json(out)
    assert data["log_bound"] is None and data["bound"] is None


def test_bound_text_with_a_zero_norm(capsys):
    code, out, _ = run(
        capsys, "bound", "--mu", "3", "--m", "1", "--norms", "0,1,1", "--r", "0.3",
        "--output", "text",
    )
    assert (code, out) == (0, "mu=3 m=1 nu=2 e=3 bound=None (log -inf)\n")


def test_bound_beyond_the_doubles_prints_null_bound(capsys):
    # the bound past the largest double, from norms inside and past it
    for norms, least_log in (("1e300,1e300,1e300", 2000), ("1e400,1,1", 900)):
        code, out, err = run(
            capsys, "bound", "--mu", "3", "--m", "1", "--norms", norms,
            "--r", "0.3", "--output", "json",
        )
        assert code == 0, err
        data = _strict_json(out)
        assert data["bound"] is None
        assert least_log < data["log_bound"] < math.inf


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "--ideal", PARABOLA, "--s-min", "0", "--s-max", "2"),
        ("points", "--ideal", PARABOLA, "--height", "25"),
        ("construct", "--ideal", PARABOLA, "--height", "25", "--epsilon", "0.25"),
        ("construct", "--ideal", CONIC, "--mode", "projective", "--heights",
         "4,4,4", "--delta", "2", "--timings"),
        ("construct", "--ideal", PARABOLA, "--height", "100", "--delta", "2",
         "--strategy", "theoretical", "--norm-bound", "20"),
        ("bound", "--mu", "3", "--m", "1", "--norms", "1,1,1", "--r", "1/8",
         "--output", "json"),
    ],
)
def test_json_output_is_standard(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    _strict_json(out)


def test_norm_bound_is_read_exactly(capsys, monkeypatch):
    # "0.3" is 3/10, not the double just below it: the bound is not understated
    norms = []
    real = engine.determinant_bound_exact

    def spy(inp):
        norms.extend(inp[2])
        return real(inp)

    monkeypatch.setattr(engine, "determinant_bound_exact", spy)
    run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "100",
        "--delta", "2", "--strategy", "theoretical", "--norm-bound", "0.3",
    )
    assert norms and all(n == Fraction(3, 10) for n in norms)


# -- exit codes ------------------------------------------------------------


THEORETICAL = (
    "construct", "--ideal", PARABOLA, "--height", "100", "--delta", "2",
    "--strategy", "theoretical",
)


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*THEORETICAL, "--norm-bound", "inf"), "Invalid literal"),
        ((*THEORETICAL, "--norm-bound", "nan"), "Invalid literal"),
        ((*THEORETICAL, "--norm-bound=-1"), "norm bound must be a positive rational"),
        ((*THEORETICAL, "--norm-bound", "0"), "norm bound must be a positive rational"),
        (("bound", "--mu", "3", "--m", "1", "--norms", "inf,1,1", "--r", "0.3"),
         "Invalid literal"),
        (("construct", "--ideal", PARABOLA, "--height", "25", "--epsilon", "inf"),
         "epsilon must be positive and finite"),
        (("construct", "--ideal", PARABOLA, "--height", "25", "--epsilon", "nan"),
         "epsilon must be positive and finite"),
        (("sweep", "--ideal", PARABOLA, "--height-list", "25", "--epsilon", "inf"),
         "epsilon must be positive and finite"),
    ],
)
def test_non_finite_number_is_input_error(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--ideal", CUBIC_AFFINE, "--height", "1000000000", "--epsilon", "-1"),
         "epsilon must be positive and finite"),
        (("--ideal", PARABOLA, "--height", "1000000000000", "--delta", "2",
          "--strategy", "theoretical", "--norm-bound", "-1"),
         "norm bound must be a positive rational, got -1"),
        (("--ideal", str(DATA / "surfaces" / "saddle.ideal"), "--height", "100000",
          "--delta", "2", "--strategy", "theoretical", "--norm-bound", "20"),
         "the theoretical strategy covers curves only (m = 1)"),
        (("--ideal", str(DATA / "empty.ideal"), "--height", "50", "--delta", "2",
          "--strategy", "theoretical", "--norm-bound", "-1"),
         "norm bound must be a positive rational, got -1"),
    ],
    ids=["cubic-epsilon", "parabola-norm-bound", "saddle-norm-bound", "empty-norm-bound"],
)
def test_a_run_is_refused_before_its_enumeration(capsys, argv, message):
    # the first three plan scans over the default budget, and the last has
    # no points: each refusal needs only the options and the basis, so it
    # comes first, with exit 2
    code, out, err = run(capsys, "construct", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "enumeration requires scanning" not in err


def test_malformed_ideal_file(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: 2\nx0 + @\n")
    code, _, err = run(capsys, "points", "--ideal", str(bad), "--height", "5")
    assert code == 2
    assert "error" in err


def test_missing_vars_header(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("x0 + 1\n")
    code, _, _ = run(capsys, "points", "--ideal", str(bad), "--height", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("points", "--mode", "projective", "--heights", "1/0,2,2", "--ideal", CONIC),
        ("construct", "--mode", "affine", "--height", "1/0", "--ideal", PARABOLA,
         "--delta", "2"),
        ("sweep", "--ideal", PARABOLA, "--height-list", "25,1/0", "--delta", "2"),
        ("bound", "--mu", "3", "--m", "1", "--norms", "1,1/0,1", "--r", "1/8"),
        ("bound", "--mu", "3", "--m", "1", "--norms", "1,1,1", "--r", "1/0"),
    ],
)
def test_zero_denominator_is_input_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "zero denominator in '1/0'" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--height", ("construct", "--height", "abc", "--ideal", PARABOLA,
                      "--delta", "2")),
        ("--heights", ("points", "--mode", "projective", "--heights", "1,abc,1",
                       "--ideal", CONIC)),
        ("--height-list", ("sweep", "--ideal", PARABOLA, "--height-list", "25,abc",
                           "--delta", "2")),
        ("--norm-bound", (*THEORETICAL, "--norm-bound", "abc")),
        ("--norms", ("bound", "--mu", "3", "--m", "1", "--norms", "1,abc,1",
                     "--r", "1/8")),
        ("--r", ("bound", "--mu", "3", "--m", "1", "--norms", "1,1,1", "--r", "abc")),
    ],
)
def test_unreadable_rational_is_input_error_naming_its_flag(capsys, flag, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: ") and "'abc'" in err


def test_sweep_refuses_delta_and_epsilon_together(capsys):
    code, out, err = run(
        capsys, "sweep", "--ideal", PARABOLA, "--height-list", "100",
        "--delta", "2", "--epsilon", "0.01",
    )
    assert (code, out) == (2, "")
    assert err == "error: exactly one of delta / epsilon must be set\n"


def test_sweep_without_delta_or_epsilon_takes_epsilon_one_quarter(capsys):
    sweep = ("sweep", "--ideal", PARABOLA, "--height-list", "100,400")
    code, out, _ = run(capsys, *sweep)
    assert code == 0
    assert run(capsys, *sweep, "--epsilon", "0.25") == (0, out, "")


ONE_RULE = (
    "the theoretical strategy needs a norm bound; the adaptive strategy "
    "takes none"
)


def test_construct_refuses_a_norm_bound_under_the_adaptive_strategy(capsys):
    code, out, err = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "100",
        "--delta", "2", "--norm-bound", "20",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {ONE_RULE}\n"


def test_construct_theoretical_without_a_norm_bound_is_refused(capsys):
    # the rule holds without points too: the empty ideal has none
    code, out, err = run(
        capsys, "construct", "--ideal", str(DATA / "empty.ideal"),
        "--height", "10", "--delta", "2", "--strategy", "theoretical",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {ONE_RULE}\n"


def test_construct_with_a_too_small_norm_bound_is_an_input_error(capsys):
    # a supplied bound that a full-rank cube refutes is the user's, not the
    # paper's: exit 2, not a verification failure
    code, out, err = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "10000",
        "--delta", "2", "--strategy", "theoretical", "--norm-bound", "1/1000000",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: norm bound 1/1000000 is too small: ")


@pytest.mark.parametrize(
    "ideal, height",
    [(str(DATA / "circle.ideal"), str(10**400)), (PARABOLA, f"1/{10**400}")],
    ids=["above", "below"],
)
def test_construct_theoretical_beyond_the_doubles_verifies(
    capsys, tmp_path, ideal, height
):
    # the theoretical cube side is decided in exact integers, so a height
    # above the doubles, or one that no double tells from 0, constructs and
    # verifies (both varieties have a point at these heights); a norm bound
    # above the doubles is read like any other
    budget = ("--budget", str(10**1000))
    out = tmp_path / "report.json"
    for norm_bound in ("20", str(10**400)):
        code, _, err = run(
            capsys, "construct", "--ideal", ideal, "--height", height,
            "--delta", "2", "--strategy", "theoretical", "--norm-bound",
            norm_bound, "--out", str(out), *budget,
        )
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["point_count"] >= 1
        assert re.fullmatch(r"1/[0-9]+", report["rho"])
        for cert in report["certificates"]:
            for lo, hi in cert["box"]:
                assert -1 <= Fraction(lo) < Fraction(hi) <= 1
        code, text, _ = run(
            capsys, "verify", "--report", str(out), "--ideal", ideal, *budget
        )
        assert code == 0 and text.startswith("PASS")


def test_sweep_error_on_the_first_height_prints_no_header(capsys):
    code, out, err = run(
        capsys, "sweep", "--ideal", PARABOLA, "--height-list", "25",
        "--epsilon", "inf",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "points", "--ideal", CONIC, "--mode", "projective",
        "--heights", "1000,1000,1000", "--budget", "100",
    )
    assert code == 3
    assert "error" in err


def test_degenerate_ideal_exit_code(capsys):
    code, _, _ = run(
        capsys, "construct", "--ideal", str(DATA / "single_point.ideal"),
        "--height", "10", "--delta", "2",
    )
    assert code == 2


def test_a_failed_internal_verification_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(engine, "verify_certificate", lambda *_: ["planted"])
    code, out, err = run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "10", "--delta", "2"
    )
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: internal verification failed")


def test_zero_dimensional_variety_without_points_is_vacuous(capsys, tmp_path):
    path = tmp_path / "point.ideal"
    path.write_text("vars: 2\nx0 - 200\nx1 - 3\n")
    code, out, err = run(
        capsys, "construct", "--ideal", str(path), "--height", "10", "--delta", "2"
    )
    assert code == 0, err
    data = json.loads(out)
    assert (data["dimension"], data["f"], data["k_bound_value"]) == (0, 0, 0.0)
    assert data["vacuous"] is True and data["point_count"] == 0


@pytest.mark.parametrize("text", ["vars: 2\n1\n", "vars: 2\nx0\nx0 - 1\n"])
def test_empty_affine_variety_is_vacuous_and_verifies(capsys, tmp_path, text):
    # 1 lies in I, so the ordering bound, whose HF of I^h vanishes, is skipped
    path = tmp_path / "unit.ideal"
    path.write_text(text)
    report = tmp_path / "unit.json"
    code, _, err = run(
        capsys, "construct", "--ideal", str(path), "--height", "5",
        "--delta", "2", "--out", str(report),
    )
    assert code == 0, err
    data = json.loads(report.read_text())
    assert data["vacuous"] is True and "ordering_bound" not in data
    assert (data["dimension"], data["certificate_count"]) == (-1, 0)
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", str(path))
    assert (code, out) == (0, "PASS: 0 certificates verified\n")
    code, out, err = run(
        capsys, "sweep", "--ideal", str(path), "--height-list", "5", "--delta", "2"
    )
    assert (code, out) == (0, "B,N,certificates,k_actual,k_bound\n5,0,0,0,0\n"), err


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (pathlib.Path(PARABOLA).read_text(), ("--height", "25", "--delta", "0"),
         "mu = 1 at delta=0"),
        ("vars: 4\nx0*x3 - x1*x2\n",  # the Segre quadric, a surface
         ("--mode", "projective", "--heights", "3,3,3,3", "--delta", "2",
          "--strategy", "theoretical", "--norm-bound", "20"),
         "the theoretical strategy covers curves only (m = 1)"),
    ],
    ids=["delta-0", "theoretical-surface"],
)
def test_construct_refuses_a_run_it_cannot_cover(
    capsys, tmp_path, text, argv, message
):
    path = tmp_path / "run.ideal"
    path.write_text(text)
    code, out, err = run(capsys, "construct", "--ideal", str(path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_empty_projective_variety_is_vacuous_and_verifies(capsys, tmp_path):
    # mu = 0 at delta = 2: every quadric lies in (x0, x1, x2), so no point
    # of P^2 lies on the variety
    path = tmp_path / "empty.ideal"
    path.write_text("vars: 3\nx0\nx1\nx2\n")
    report = tmp_path / "empty.json"
    argv = ("construct", "--ideal", str(path), "--mode", "projective",
            "--heights", "3,3,3")
    code, _, err = run(capsys, *argv, "--delta", "2", "--out", str(report))
    assert code == 0, err
    data = json.loads(report.read_text())
    assert data["vacuous"] is True
    assert (data["mu"], data["f"], data["certificate_count"]) == (0, 0, 0)
    code, out, _ = run(capsys, "verify", "--report", str(report), "--ideal", str(path))
    assert (code, out) == (0, "PASS: 0 certificates verified\n")
    code, _, err = run(capsys, *argv, "--epsilon", "0.25")
    assert code == 2 and "dimension < 1" in err


def _with_heights(heights):
    return lambda d: {**d, "params": {**d["params"], "heights": heights}}


MALFORMED_REPORTS = {
    "no-params": lambda d: {k: v for k, v in d.items() if k != "params"},
    "string-delta": lambda d: {**d, "params": {**d["params"], "delta": "2"}},
    "negative-delta": lambda d: {**d, "params": {**d["params"], "delta": -1}},
    "short-heights": lambda d: {**d, "params": {**d["params"], "heights": [1]}},
    "top-level-list": lambda d: [d],
    "no-points": lambda d: {
        **d, "certificates": [{"poly": c["poly"]} for c in d["certificates"]]
    },
    "uneven-affine-heights": lambda d: {
        **d, "params": {**d["params"], "heights": [7, 100, 3]}
    },
    "unknown-mode": lambda d: {**d, "params": {**d["params"], "mode": "weighted"}},
    "string-epsilon": lambda d: {**d, "params": {**d["params"], "epsilon": "1/4"}},
    "unknown-ordering": lambda d: {
        **d, "params": {**d["params"], "ordering": "lex"}
    },
    "non-integer-point": lambda d: {
        **d, "certificates": [
            {**c, "points": [[1, 0.5, 2]]} for c in d["certificates"]
        ],
    },
    # heights of the report's values, written otherwise than construct
    # writes them: an int, or "p/q" in lowest terms with q > 1
    "float-height": _with_heights([1, 100.0, 100.0]),
    "string-height": _with_heights([1, "100", "100"]),
    "whole-fraction-height": _with_heights([1, "100/1", "100/1"]),
    "unreduced-height": _with_heights([1, "200/2", "200/2"]),
    "bool-height": _with_heights([True, 100, 100]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_verify_malformed_report_is_input_error(capsys, parabola_report, case):
    data = MALFORMED_REPORTS[case](json.loads(parabola_report.read_text()))
    parabola_report.write_text(json.dumps(data))
    code, _, err = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 2
    assert err.startswith("error: malformed report: ")
    assert "Traceback" not in err


def test_verify_names_the_certificate_whose_poly_does_not_parse(capsys, tmp_path):
    report = tmp_path / "report.json"
    run(
        capsys, "construct", "--ideal", PARABOLA, "--height", "10", "--delta", "2",
        "--out", str(report),
    )
    data = json.loads(report.read_text())
    data["certificates"][1]["poly"] = "x0 + @"
    report.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--report", str(report), "--ideal", PARABOLA)
    assert (code, out) == (2, "")
    assert err == (
        f"error: malformed report: {report}: certificate 1: poly: "
        "line 1, column 6: unexpected token '@'\n"
    )


def test_verify_refuses_a_comment_in_a_certificates_poly(capsys, parabola_report):
    # a report's poly is one polynomial: '#' is a token, not a comment
    data = json.loads(parabola_report.read_text())
    poly = data["certificates"][0]["poly"]
    data["certificates"][0]["poly"] = poly + " # + 1"
    parabola_report.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: malformed report: {parabola_report}: certificate 0: poly: "
        f"line 1, column {len(poly) + 2}: unexpected token '#'\n"
    )


def test_verify_reports_outside_points_before_certificate_checks(
    capsys, parabola_report
):
    data = json.loads(parabola_report.read_text())
    first, second = data["certificates"][:2]
    first["poly"] += " + 1"
    first["points"][1] = [1, 2, 3]
    second["poly"] = "0"
    second["points"][0] = [1, 5, 5]
    parabola_report.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--report", str(parabola_report), "--ideal", PARABOLA
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL: certificate 0: point (1, 2, 3) not in S(X,B)"
    assert sum("certificate 0: does not vanish" in line for line in lines) == 2
    assert lines[-3:] == [
        "FAIL: certificate 1: point (1, 5, 5) not in S(X,B)",
        "FAIL: certificate 1: zero polynomial",
        "FAIL: coverage failure: 3 uncovered points",
    ]


# -- options ----------------------------------------------------------------


def _subcommands():
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _args_read(func):
    """Names read as args.<name> in func, or in a cli function that func
    passes `args` to."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args
        ):
            names |= _args_read(getattr(cli, node.func.id))
    return names


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_option_is_read(command):
    parser = _subcommands()[command]
    dests = {
        a.dest
        for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    }
    assert dests <= _args_read(parser.get_default("func"))


# a valid command line of each subcommand, and options it no longer takes
VALID = {
    "hilbert": ("--ideal", CONIC),
    "points": ("--ideal", PARABOLA, "--height", "5"),
    "construct": ("--ideal", PARABOLA, "--height", "5", "--delta", "2"),
    "sweep": ("--ideal", CONIC, "--height-list", "5", "--delta", "2"),
}
REMOVED_OPTIONS = [
    ("hilbert", "--height", "5"),
    ("hilbert", "--heights", "5,5,5"),
    ("hilbert", "--budget", "100"),
    ("points", "--ordering", "grevlex"),
    ("points", "--output", "csv"),
    ("construct", "--output", "json"),
    ("sweep", "--mode", "projective"),
    ("sweep", "--height", "5"),
    ("sweep", "--heights", "5,5,5"),
    ("sweep", "--output", "csv"),
    ("sweep", "--strategy", "adaptive"),
]


@pytest.mark.parametrize("command,option,value", REMOVED_OPTIONS)
def test_removed_option_is_a_usage_error(capsys, command, option, value):
    build_parser().parse_args([command, *VALID[command]])
    with pytest.raises(SystemExit) as exc:
        main([command, *VALID[command], option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


def _readme_commands():
    """The `detmethod ...` lines of the README's CLI section, continuation
    lines joined."""
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    text = re.sub(r"\\\n\s*", "", section)
    return [
        shlex.split(line, comments=True)[1:]
        for line in text.splitlines()
        if line.startswith("detmethod ")
    ]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    shutil.copytree(DATA, tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "hilbert", "points", "construct", "verify", "sweep", "bound"
    ]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# -- python -O ---------------------------------------------------------------


def test_source_has_no_assert_statements():
    """Invariants are explicit raises: `python -O` strips assert statements."""
    for path in sorted((SRC / "detmethod").glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def _unused_imports(tree):
    """The names a module imports and never reads.  A test function's
    parameter reads the fixture of its name; `from __future__` binds
    nothing."""
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            read.update(arg.arg for arg in node.args.args)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_source_and_tests_have_no_unused_imports():
    # __init__.py imports to re-export; bench/ is the benchmark's own
    paths = [p for p in (SRC / "detmethod").glob("*.py") if p.name != "__init__.py"]
    paths += DATA.parent.glob("*.py")
    for path in sorted(paths):
        unused = _unused_imports(ast.parse(path.read_text()))
        assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_unused_import_check_sees_reads_and_fixtures():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import fixture, kept, lost as renamed\n"
        "def test_x(fixture):\n"
        "    return os.path, kept\n"
    )
    assert _unused_imports(ast.parse(source)) == [(3, "renamed")]


def _unread_definitions(modules, readers=()):
    """The functions, classes and methods that the modules ({name: tree})
    define and that nothing reads outside its own definition: no ast.Name
    load and no ast.Attribute of that name in the modules or the reader
    trees.  A read inside an unread definition does not count, so what only
    dead code reads is dead too.  Dunder methods are exempt.  Sorted
    (module, line, name)."""
    defined = []  # (module, node)
    reads = {}  # name -> the definitions enclosing each read of it

    def visit(node, module, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if module is not None:
                defined.append((module, node))
            enclosing += (node,)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            reads.setdefault(node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, module, enclosing)

    for module, tree in modules.items():
        visit(tree, module, ())
    for tree in readers:
        visit(tree, None, ())
    dead = set()
    while True:
        unread = {
            (module, node)
            for module, node in defined
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and all(
                node in enclosing or dead.intersection(enclosing)
                for enclosing in reads.get(node.name, ())
            )
        }
        if len(unread) == len(dead):
            return sorted((module, node.lineno, node.name) for module, node in unread)
        dead = {node for _, node in unread}


def test_source_defines_nothing_only_other_tests_read():
    # __init__.py only re-exports; the acceptance suite is the one test
    # module whose reads count as callers
    modules = {
        p.name: ast.parse(p.read_text())
        for p in (SRC / "detmethod").glob("*.py")
        if p.name != "__init__.py"
    }
    acceptance = ast.parse((DATA.parent / "test_acceptance.py").read_text())
    unread = _unread_definitions(modules, [acceptance])
    assert not unread, f"definitions nothing reads (module, line, name): {unread}"


def test_unread_definition_check_sees_reads_outside_the_definition():
    source = (
        "def recursive(n):\n"
        "    return recursive(n - 1) + only_dead_code_reads()\n"
        "def only_dead_code_reads():\n"
        "    return 0\n"
        "def helper():\n"
        "    return 1\n"
        "class Record:\n"
        "    def __repr__(self):\n"
        "        return 'r'\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def unused(self):\n"
        "        return self.used()\n"
        "def by_reader():\n"
        "    pass\n"
    )
    reader = "import m\nm.by_reader(m.Record().used)\n"
    unread = _unread_definitions({"m.py": ast.parse(source)}, [ast.parse(reader)])
    assert unread == [
        ("m.py", 1, "recursive"),
        ("m.py", 3, "only_dead_code_reads"),
        ("m.py", 12, "unused"),
    ]


def test_construct_and_verify_under_optimize_flag(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cli = [sys.executable, "-O", "-m", "detmethod.cli"]
    report = tmp_path / "report.json"
    construct = subprocess.run(
        cli + ["construct", "--ideal", PARABOLA, "--height", "100", "--epsilon", "0.25"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert construct.returncode == 0, construct.stderr
    report.write_text(construct.stdout)
    verify = subprocess.run(
        cli + ["verify", "--report", str(report), "--ideal", PARABOLA],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert verify.returncode == 0, verify.stdout
    assert verify.stdout.startswith("PASS")
