"""Shared bases: an affine ideal keeps its homogenized bases, and a basis of
I^h keeps the basis of J = I^h + (x0), so sweeps over s or over heights run
Buchberger once per basis and report exactly what fresh objects report."""

import gc
import weakref
from dataclasses import asdict

import pytest

from detmethod import (
    Ordering,
    Polynomial,
    affine_ordering_bound,
    affine_pipeline,
    homogenized_basis,
    ideals,
)
from detmethod.cli import report_json

from conftest import make_ideal

GRLEX = Ordering.GRLEX_LEFT
GREVLEX = Ordering.GREVLEX

AFFINE = {
    "parabola": (["x1 - x0^2"], 2),
    "twisted_cubic_affine": (["x1 - x0^2", "x2 - x0^3"], 3),
    "circle": (["x0^2 + x1^2 - 1"], 2),
    "saddle": (["x2 - x0*x1"], 3),  # a surface: m = 2
}
SWEEP = range(4, 41)


@pytest.fixture
def groebner_calls(monkeypatch):
    """Each groebner call's ideal, in order, and a weak reference to the basis
    it returned (a strong one would keep the basis alive)."""
    calls = []
    real = ideals.groebner

    def counting(ideal, ordering):
        gb = real(ideal, ordering)
        calls.append((ideal, ordering, weakref.ref(gb)))
        return gb

    monkeypatch.setattr(ideals, "groebner", counting)
    return calls


@pytest.mark.parametrize("name", sorted(AFFINE))
def test_sweep_on_one_ideal_matches_fresh_ideals(name):
    gens, n = AFFINE[name]
    fresh = [asdict(affine_ordering_bound(make_ideal(gens, n), s)) for s in SWEEP]
    ideal = make_ideal(gens, n)
    assert [asdict(affine_ordering_bound(ideal, s)) for s in SWEEP] == fresh
    # the kept staircases do not depend on the order of the calls
    ideal = make_ideal(gens, n)
    backwards = [asdict(affine_ordering_bound(ideal, s)) for s in reversed(SWEEP)]
    assert backwards[::-1] == fresh
    assert all(row["holds"] for row in fresh)


def test_sweep_runs_buchberger_three_times(groebner_calls):
    parabola = make_ideal(["x1 - x0^2"], 2)
    for s in SWEEP:
        affine_ordering_bound(parabola, s)
    (affine, o1, _), (ih, o2, _), (j, o3, _) = groebner_calls
    assert (affine, o1) == (parabola, GREVLEX)
    assert o2 is o3 is GRLEX
    assert ih.homogeneous and ih.num_vars == 3
    assert j.generators == ih.generators + (Polynomial.variable(0, 3),)


def test_sweep_reads_no_staircase_and_builds_each_numerator_once(
    groebner_calls, monkeypatch
):
    reads, built = [], []
    real_staircase, real_numerator = ideals.staircase, ideals._hilbert_numerator

    def counting_staircase(gb, delta):
        reads.append((gb, delta))
        return real_staircase(gb, delta)

    def counting_numerator(monomials):
        built.append(monomials)
        return real_numerator(monomials)

    monkeypatch.setattr(ideals, "staircase", counting_staircase)
    monkeypatch.setattr(ideals, "_hilbert_numerator", counting_numerator)
    parabola = make_ideal(["x1 - x0^2"], 2)
    for s in SWEEP:
        affine_ordering_bound(parabola, s)
    # HF, sigma_i and the sums of t*HF_J(t) all come from the series
    assert reads == []
    ih, section = (ref() for _, _, ref in groebner_calls[1:])
    # the top-level recursion runs once for I^h's basis and once for J's
    for gb in (ih, section):
        assert sum(m is gb.leading_monomials for m in built) == 1


def test_sweep_computes_dimension_once(monkeypatch):
    counts = []
    real = ideals._hilbert_numerator

    def counting(monomials):
        counts.append(monomials)
        return real(monomials)

    monkeypatch.setattr(ideals, "_hilbert_numerator", counting)
    parabola = make_ideal(["x1 - x0^2"], 2)
    rows = [affine_ordering_bound(parabola, s) for s in SWEEP]
    top = [m for m in counts if m is homogenized_basis(parabola, GRLEX).leading_monomials]
    assert len(top) == 1 and {r.dimension for r in rows} == {1}


@pytest.mark.parametrize(
    "ordering,bases", [(GRLEX, 2), (GREVLEX, 3)], ids=["grlex", "grevlex"]
)
def test_pipeline_twice_on_one_ideal_matches_fresh(groebner_calls, ordering, bases):
    # under grevlex the ordering bound needs a second, left-graded basis of I^h
    runs = [dict(b=100, delta=2), dict(b=400, epsilon=0.25)]
    fresh = [
        report_json(affine_pipeline(make_ideal(["x1 - x0^2"], 2), **kw, ordering=ordering))
        for kw in runs
    ]
    del groebner_calls[:]
    parabola = make_ideal(["x1 - x0^2"], 2)
    shared = [
        report_json(affine_pipeline(parabola, **kw, ordering=ordering)) for kw in runs
    ]
    assert shared == fresh
    # one affine basis, one basis of I^h per ordering, one of J: all kept
    assert len(groebner_calls) == bases + 1


def test_kept_bases_die_with_their_ideal_without_the_cycle_collector(
    groebner_calls,
):
    gc.disable()
    try:
        ideal = make_ideal(["x1 - x0^2", "x2 - x0^3"], 3)
        for s in SWEEP:
            affine_ordering_bound(ideal, s)
        refs = [weakref.ref(ideal)] + [ref for _, _, ref in groebner_calls]
        assert len(refs) == 4 and all(ref() is not None for ref in refs[2:])
        del groebner_calls[:]
        del ideal
        # reference counting alone frees the ideal, I^h's basis and J's basis
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
