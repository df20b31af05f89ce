"""The adaptive cover against a plain bisection that decides each box by
its rank over the rationals, with no screen and no flags; and the kernel
calls the cover makes for a given tree."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmethod import HeightBox, Ordering, affine_pipeline, cover_and_construct, engine
from detmethod.cli import load_ideal
from detmethod.engine import build_matrix, run_basis

from conftest import DATA
from oracles import (
    bisection_boxes,
    bisection_tree,
    entrywise_matrix_rows,
    naive_staircase,
    rational_bisection_cover,
)

GRLEX = Ordering.GRLEX_LEFT


def _run(name, mode, heights, delta):
    """The report of a run on tests/data/<name>, and its basis."""
    ideal = load_ideal(DATA / name)
    gb = run_basis(ideal, mode, GRLEX)
    if mode == "affine":
        return affine_pipeline(ideal, heights, delta=delta), gb
    return cover_and_construct(gb, HeightBox(heights), delta=delta), gb


RUNS = [
    ("parabola.ideal", "affine", 1000, 2),
    ("parabola.ideal", "affine", 100, 5),
    ("circle.ideal", "affine", 50, 2),
    ("twisted_cubic_affine.ideal", "affine", 100, 2),
    ("conic.ideal", "projective", (20, 20, 20), 2),
    ("twisted_cubic.ideal", "projective", (20, 20, 20, 20), 2),
    ("surfaces/saddle.ideal", "affine", 12, 3),
    ("surfaces/segre_quadric.ideal", "projective", (3, 3, 3, 3), 2),
    ("surfaces/quartic_surface.ideal", "projective", (3, 3, 3, 3), 5),
]


def _oracle(points, gb, delta):
    """rational_bisection_cover on the points, with the matrix rows of
    M(delta) computed entry by entry."""
    exponents = naive_staircase(gb, delta)
    rows = entrywise_matrix_rows(points, exponents)
    return rational_bisection_cover(
        SimpleNamespace(exponents=exponents, points=points, rows=rows)
    )


def _certificates(certs):
    return [(c.poly.terms, c.points_covered, c.box) for c in certs]


@pytest.mark.parametrize("name, mode, heights, delta", RUNS, ids=[r[0] for r in RUNS])
def test_cover_matches_the_rational_bisection(name, mode, heights, delta):
    """Same certificates (polynomial, points and box, in order) and the same
    depth as the plain bisection, on the corpus curves and the surfaces."""
    report, gb = _run(name, mode, heights, delta)
    tree, certs = _oracle(report.points, gb, delta)
    assert _certificates(report.certificates) == certs
    assert report.max_depth == max(box.depth for box in bisection_boxes(tree))


@st.composite
def point_sets(draw):
    """Distinct points (1, x, y, z), (x, y, z) anywhere in [-6, 6]^3 or on
    up to three lines, and a degree delta: boxes of at least mu points on a
    line certify, so the cover's boxes both certify and split."""
    coordinate = st.integers(-6, 6)
    points = draw(st.lists(
        st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=30
    ))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.tuples(coordinate, coordinate, coordinate))
        step = draw(st.tuples(*[st.integers(-1, 1)] * 3).filter(any))
        ts = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=12))
        points += [tuple(b + t * v for b, v in zip(base, step)) for t in ts]
    points = list(dict.fromkeys(points))
    return [(1,) + p for p in points], draw(st.integers(1, 3))


SADDLE_GB = run_basis(load_ideal(DATA / "surfaces/saddle.ideal"), "affine", GRLEX)


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_cover_matches_the_rational_bisection_on_random_boxes(case):
    """The cover's certificates and depth on arbitrary points, on or off
    the saddle, under the staircase of its basis."""
    points, delta = case
    exponents = engine.staircase(SADDLE_GB, delta)
    timings = {"kernel_s": 0.0, "kernel_calls": 0, "kernel_screens": 0}
    certs, depth = engine._adaptive_cover(build_matrix(points, exponents), timings)
    tree, expected = _oracle(points, SADDLE_GB, delta)
    assert _certificates(certs) == expected
    assert depth == max(box.depth for box in bisection_boxes(tree))


@pytest.mark.parametrize(
    "b, delta, floor", [(4 * 10**4, 2, 168), (10**4, 10, 19), (10**6, 12, 170)]
)
def test_kernel_calls_reach_the_floor(b, delta, floor):
    """Each certificate takes a kernel call, and each box whose two children
    both certify takes a screen of its own: a screen proves full rank only
    for boxes that hold the rows it found independent, and two such boxes
    are disjoint.  On the parabola the cover makes no other call."""
    report = affine_pipeline(load_ideal(DATA / "parabola.ideal"), b, delta=delta)
    leaves = {c.points_covered for c in report.certificates}
    boxes = list(bisection_boxes(bisection_tree(report.points, leaves.__contains__)))
    assert [box.indices for box in boxes if not box.children] == [
        c.points_covered for c in report.certificates
    ]
    twins = sum(
        1 for box in boxes
        if box.children and not any(child.children for child in box.children)
    )
    assert report.timings["kernel_screens"] == twins
    assert report.timings["kernel_calls"] == len(leaves) + twins == floor
