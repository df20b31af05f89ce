"""Shared bases: an affine ideal keeps its homogenized bases, the grlex-left
one homogenized from its affine grlex-left basis, and that basis keeps the
series numerator of J = I^h + (x0), so sweeps over s or over heights run
Buchberger once per ordering and report exactly what fresh objects report."""

import gc
import weakref

import pytest

from detmethod import (
    Ordering,
    affine_ordering_bound,
    affine_pipeline,
    groebner,
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
    # the records compare field by field, every field an exact value
    fresh = [affine_ordering_bound(make_ideal(gens, n), s) for s in SWEEP]
    ideal = make_ideal(gens, n)
    assert [affine_ordering_bound(ideal, s) for s in SWEEP] == fresh
    # the kept numerators do not depend on the order of the calls
    ideal = make_ideal(gens, n)
    backwards = [affine_ordering_bound(ideal, s) for s in reversed(SWEEP)]
    assert backwards[::-1] == fresh
    assert all(row.holds for row in fresh)


def test_sweep_runs_buchberger_once(groebner_calls):
    parabola = make_ideal(["x1 - x0^2"], 2)
    for s in SWEEP:
        affine_ordering_bound(parabola, s)
    # one run, for the affine grlex-left basis: I^h's basis is that basis
    # homogenized, and J = I^h + (x0) gets no basis
    [(affine, ordering, _)] = groebner_calls
    assert (affine, ordering) == (parabola, GRLEX)
    gb = homogenized_basis(parabola, GRLEX)
    assert gb.ideal.homogeneous and gb.ideal.num_vars == 3
    assert gb.basis == [g.homogenize() for g in groebner(parabola, GRLEX).basis]


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
    lms = homogenized_basis(parabola, GRLEX).leading_monomials
    # the top-level recursion runs once for LT(I^h) and once for LT(I^h) + (x0)
    assert sum(m is lms for m in built) == 1
    assert sum(m == lms + [(1, 0, 0)] for m in built) == 1


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
    "ordering,runs", [(GRLEX, 1), (GREVLEX, 2)], ids=["grlex", "grevlex"]
)
def test_pipeline_twice_on_one_ideal_matches_fresh(groebner_calls, ordering, runs):
    # under grevlex, I^h's basis needs a Buchberger run of its own
    calls = [dict(b=100, delta=2), dict(b=400, epsilon=0.25)]
    fresh = [
        report_json(affine_pipeline(make_ideal(["x1 - x0^2"], 2), **kw, ordering=ordering))
        for kw in calls
    ]
    del groebner_calls[:]
    parabola = make_ideal(["x1 - x0^2"], 2)
    shared = [
        report_json(affine_pipeline(parabola, **kw, ordering=ordering)) for kw in calls
    ]
    assert shared == fresh
    # the affine grlex-left basis, and under grevlex I^h's basis: both kept
    assert [o for _, o, _ in groebner_calls] == [GRLEX, GREVLEX][:runs]


def test_kept_bases_die_with_their_ideal_without_the_cycle_collector(
    groebner_calls,
):
    gc.disable()
    try:
        ideal = make_ideal(["x1 - x0^2", "x2 - x0^3"], 3)
        for s in SWEEP:
            affine_ordering_bound(ideal, s)
        bases = [homogenized_basis(ideal, o) for o in (GRLEX, GREVLEX)]
        refs = [weakref.ref(x) for x in (ideal, bases[0].ideal, *bases)]
        # the affine basis is dropped once homogenized; I^h's bases are kept
        assert [ref() for _, _, ref in groebner_calls] == [None, bases[1]]
        del groebner_calls[:], bases
        assert all(ref() is not None for ref in refs)
        del ideal
        # reference counting alone frees the ideal, I^h and I^h's bases
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
